//! Allocation guard for the engine's hot path.
//!
//! The serving contract is that `run` performs exactly one heap allocation
//! per request — the returned logits vector — and that enabling telemetry
//! adds **zero** further allocations: metric recording is all relaxed
//! atomics, and spans are built only for a request that carries a trace. A
//! one-item `run_batch` runs in the caller's context, so it adds the result
//! vector and nothing else. The multi-threaded paths add nothing either:
//! a parallel operator hands its chunks to the parked worker team without
//! allocating, on any thread, and a fanned-out batch builds a context per
//! further thread, not per item. A counting global allocator pins these
//! facts so an accidental `Vec`/`String`/boxing on the request path fails
//! loudly.
//!
//! The AMX conv body expands its input into a strip the context owns, one
//! per team part, so a model with a conv on that body allocates no more.
//!
//! Allocations are counted on the threads that have opted in — the one
//! inside [`count_allocs`], and the team's once [`count_on_the_team`] has
//! visited them — and the tests take turns: the team is one per process,
//! and a call that finds it busy runs on its caller.

use bitflow_graph::models::{small_cnn, tiered_cnn};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::{BatchItem, CompiledModel, LayerSpec, NetworkSpec};
use bitflow_ops::ConvParams;
use bitflow_simd::conv::ConvBody;
use bitflow_simd::team;
use bitflow_tensor::{Layout, Shape, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init so reading the flag never itself allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn bump() {
        COUNTING.with(|on| {
            if on.get() {
                on.set(false);
                let n = ALLOC_COUNT.fetch_add(1, Ordering::Relaxed) + 1;
                if std::env::var_os("ALLOC_TRACE").is_some() {
                    eprintln!(
                        "--- alloc #{n} ---\n{}",
                        std::backtrace::Backtrace::force_capture()
                    );
                }
                on.set(true);
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        Self::bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        Self::bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        Self::bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One test at a time (see the module docs).
fn in_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with allocation counting enabled on this thread and returns how
/// many heap allocations it, and the team threads working for it, performed.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOC_COUNT.store(0, Ordering::Relaxed);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (ALLOC_COUNT.load(Ordering::Relaxed), out)
}

fn two_threads<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool")
        .install(f)
}

/// Turns counting on, for good, on every team thread a two-thread call
/// uses, and returns how many threads that is (1 on a one-CPU host): one
/// chunk per thread, each waiting for the others, so no thread takes two.
fn count_on_the_team() -> usize {
    two_threads(|| {
        let threads = team::parts(2);
        let all_in = Barrier::new(threads);
        team::for_chunks_mut(&mut vec![0u8; threads], 1, |_, _| {
            COUNTING.with(|on| on.set(true));
            all_in.wait();
        });
        COUNTING.with(|on| on.set(false));
        threads
    })
}

/// A channel-pressed and a window-pressed first layer, and a conv the
/// engine puts on the AMX body on a host that has one (28 × 28 × 256 →
/// 256, VGG-16's conv4.1 shape at half the filters).
fn specs() -> [NetworkSpec; 3] {
    let amx_cnn = NetworkSpec {
        name: "AmxCNN".into(),
        input: Shape::hwc(28, 28, 256),
        layers: vec![
            LayerSpec::Conv {
                name: "conv1".into(),
                k: 256,
                params: ConvParams::VGG_CONV,
            },
            LayerSpec::Pool {
                name: "pool1".into(),
                params: ConvParams::VGG_POOL,
            },
            LayerSpec::Fc {
                name: "fc1".into(),
                k: 10,
            },
        ],
    };
    [small_cnn(), tiered_cnn(), amx_cnn]
}

#[test]
fn the_amx_spec_runs_the_amx_body_where_the_host_has_it() {
    let spec = specs()[2].clone();
    let mut rng = StdRng::seed_from_u64(20);
    let model = CompiledModel::try_compile(&spec, &NetworkWeights::random(&spec, &mut rng))
        .expect("model compiles");
    let body = model.op_descriptors()[1]
        .body
        .expect("a conv names its body");
    if !bitflow_simd::features().amx_int8 {
        println!("AMX body not exercised: host lacks amx-int8 ({body})");
    }
    assert_eq!(
        body.body == ConvBody::Amx,
        bitflow_simd::features().amx_int8,
        "{body}"
    );
}

/// Allocations of one warm `run` of a bare item, and of a one-item
/// `run_batch` in the same context.
fn alloc_counts(spec: &NetworkSpec, enable_telemetry: bool) -> (u64, u64) {
    let _turn = in_turn();
    let mut rng = StdRng::seed_from_u64(21);
    let weights = NetworkWeights::random(spec, &mut rng);
    let model = CompiledModel::try_compile(spec, &weights).expect("model compiles");
    if enable_telemetry {
        model.enable_telemetry();
    }
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let items = [BatchItem::new(&input)];
    let mut ctx = model.try_new_context().expect("context allocates");
    // Warm-up: first calls may fault in lazily-initialized state.
    let warm = model.run(&mut ctx, &items[0]).expect("warm-up");
    model.run_batch(&mut ctx, &items);
    let (single, out) = count_allocs(|| model.run(&mut ctx, &items[0]).expect("measured"));
    assert_eq!(out, warm, "warm-up and measured runs must agree");
    let (batched, mut outs) = count_allocs(|| model.run_batch(&mut ctx, &items));
    assert_eq!(outs.pop().expect("one result").expect("measured"), warm);
    (single, batched)
}

#[test]
fn try_infer_allocates_exactly_once_without_telemetry() {
    // The single allocation is the returned logits vector.
    for spec in specs() {
        assert_eq!(alloc_counts(&spec, false).0, 1, "{}", spec.name);
    }
}

#[test]
fn noop_telemetry_adds_no_allocations() {
    // Recording metrics must not add a single heap allocation over the
    // bare path.
    for spec in specs() {
        assert_eq!(alloc_counts(&spec, true).0, 1, "{}", spec.name);
    }
}

#[test]
fn one_item_batch_allocates_no_context() {
    // The logits and the result vector; a context would be five more.
    for spec in specs() {
        assert!(alloc_counts(&spec, false).1 <= 2, "{}", spec.name);
        assert!(alloc_counts(&spec, true).1 <= 2, "{}", spec.name);
    }
}

#[test]
fn parallel_try_infer_allocates_what_the_serial_path_does() {
    // The logits, on the caller; nothing on the team: no chunk list, no
    // job box, no thread.
    let _turn = in_turn();
    count_on_the_team();
    for spec in specs() {
        let mut rng = StdRng::seed_from_u64(22);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let mut ctx = model.try_new_context().expect("context allocates");
        let serial = model.try_infer(&mut ctx, &input).expect("serial");
        ctx.parallel = true;
        two_threads(|| {
            let warm = model.try_infer(&mut ctx, &input).expect("warm-up");
            assert_eq!(warm, serial, "{}", spec.name);
            let (allocs, out) = count_allocs(|| model.try_infer(&mut ctx, &input));
            assert_eq!(out.expect("measured"), serial, "{}", spec.name);
            assert_eq!(allocs, 1, "{}", spec.name);
        });
    }
}

#[test]
fn fanned_out_batch_builds_a_context_per_thread_not_per_item() {
    let _turn = in_turn();
    let threads = count_on_the_team() as u64;
    let spec = tiered_cnn();
    let mut rng = StdRng::seed_from_u64(23);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    let inputs: Vec<Tensor> = (0..32)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    let items: Vec<BatchItem<'_>> = inputs.iter().map(BatchItem::new).collect();
    let (per_context, ctx) = count_allocs(|| model.try_new_context());
    let mut ctx = ctx.expect("context allocates");
    assert!(per_context >= 5, "a context is a buffer per slot");
    two_threads(|| {
        // 16 of these are the batch the repo benchmark fans out.
        for n in [16, 32] {
            model.run_batch(&mut ctx, &items[..n]);
            let (allocs, results) = count_allocs(|| model.run_batch(&mut ctx, &items[..n]));
            assert!(results.iter().all(Result::is_ok));
            // The results and the pool of contexts, each item's logits,
            // and the buffers of the contexts `ctx` does not cover.
            let most = 2 + n as u64 + (threads - 1) * per_context;
            assert!(
                (n as u64..=most).contains(&allocs),
                "{n} items on {threads} threads: {allocs} allocations, at most {most}"
            );
        }
    });
}
