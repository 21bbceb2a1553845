//! Allocation guard for the engine's hot path.
//!
//! The serving contract is that `run` performs exactly one heap allocation
//! per request — the returned logits vector — and that enabling telemetry
//! adds **zero** further allocations: metric recording is all relaxed
//! atomics, and spans are built only for a request that carries a trace. A
//! one-item `run_batch` runs in the caller's context, so it adds the result
//! vector and nothing else. A counting global allocator pins these facts so
//! an accidental `Vec`/`String`/boxing on the request path fails loudly.

use bitflow_graph::models::{small_cnn, tiered_cnn};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::{BatchItem, CompiledModel, NetworkSpec};
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

thread_local! {
    // const-init so reading the counter never itself allocates.
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn bump() {
        COUNTING.with(|on| {
            if on.get() {
                on.set(false);
                let n = ALLOC_COUNT.with(|c| {
                    c.set(c.get() + 1);
                    c.get()
                });
                if n >= 1 && std::env::var_os("ALLOC_TRACE").is_some() {
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

/// Runs `f` with allocation counting enabled on this thread and returns how
/// many heap allocations it performed.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOC_COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let n = ALLOC_COUNT.with(|c| c.get());
    (n, out)
}

/// A channel-pressed and a window-pressed first layer.
fn specs() -> [NetworkSpec; 2] {
    [small_cnn(), tiered_cnn()]
}

/// Allocations of one warm `run` of a bare item, and of a one-item
/// `run_batch` in the same context.
fn alloc_counts(spec: &NetworkSpec, enable_telemetry: bool) -> (u64, u64) {
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
