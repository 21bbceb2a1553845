//! Thread-count invariance: every parallel kernel and the serving path must
//! be bit-identical under thread-count scopes of 1, 2, and N threads.
//!
//! BitFlow's multi-core partitioning is fixed-chunk by design (the FC's
//! `PAR_K_CHUNK` split of its outputs, `team::for_chunks_mut` over
//! output-row bands in PressedConv, over output rows in the binary pool)
//! precisely so the work decomposition — and therefore every intermediate
//! integer — does not depend on how many threads drain the chunks, nor on
//! which of them takes which. These tests pin that contract for the
//! chunked operators the engine runs (the conv with its sign epilogue, the
//! FC's `forward_into_parallel`, the binary pool), and the end-to-end
//! `try_infer` / `try_infer_batch` serving calls — also when two callers
//! want the one worker team at once — and the compile's press step, whose
//! jobs the team deals out.

use bitflow_graph::models::{mlp, small_cnn, tiered_cnn};
use bitflow_graph::weights::{BnParams, NetworkWeights};
use bitflow_graph::{CompiledModel, LayerSpec, NetworkSpec};
use bitflow_ops::binary::{
    binary_max_pool, binary_max_pool_parallel, pressed_conv_sign_into, BinaryFcWeights,
    SignThresholds,
};
use bitflow_ops::params::ConvParams;
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::team;
use bitflow_simd::VectorScheduler;
use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Pool sizes under test: serial-equivalent, minimal parallelism, and more
/// than this container's cores — which the worker team caps at its own
/// size (the machine's), so 8 runs on as many threads as there are CPUs.
const POOLS: [usize; 3] = [1, 2, 8];

fn pm1_vec(rng: &mut impl Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.gen::<bool>() { 1.0f32 } else { -1.0 })
        .collect()
}

fn in_pool<T>(threads: usize, f: impl FnOnce() -> T + Send) -> T
where
    T: Send,
{
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn host_level(c: usize) -> SimdLevel {
    VectorScheduler::new().select(c).level
}

#[test]
fn fused_conv_sign_invariant_across_pools() {
    // The fused Conv→BN→Sign kernel writes pressed words directly; its
    // parallel variant splits on output rows, so the packed bits must be
    // identical regardless of pool width.
    let mut rng = StdRng::seed_from_u64(16);
    let shape = Shape::hwc(9, 9, 128);
    let fshape = FilterShape::new(70, 3, 3, 128);
    let input = Tensor::from_vec(pm1_vec(&mut rng, shape.numel()), shape, Layout::Nhwc);
    let weights = pm1_vec(&mut rng, fshape.numel());
    let pressed = BitTensor::from_tensor_padded(&input, 1);
    let bank = BitFilterBank::from_floats(&weights, fshape);
    let level = VectorScheduler::new().streaming_level();
    let bn = BnParams::random(70, &mut rng);
    let st = SignThresholds::from_fold(&bn.fold(), 3 * 3 * 128);

    let mut serial = BitTensor::zeros(11, 11, 70);
    pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut serial, 1, false, None);
    for threads in POOLS {
        let got = in_pool(threads, || {
            let mut out = BitTensor::zeros(11, 11, 70);
            pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut out, 1, true, None);
            out
        });
        assert_eq!(
            got.words(),
            serial.words(),
            "fused conv+sign diverges at {threads} threads"
        );
    }
}

#[test]
fn binary_fc_invariant_across_pools() {
    // 4096 input neurons × 1000 outputs: wide enough that PAR_K_CHUNK
    // actually splits the K axis across workers. The engine's FC call.
    let mut rng = StdRng::seed_from_u64(12);
    let (n, k) = (4096, 1000);
    let mut input = vec![0u64; n / 64];
    bitflow_simd::pack::pack_f32(&pm1_vec(&mut rng, n), &mut input);
    let weights = BinaryFcWeights::pack(&pm1_vec(&mut rng, n * k), n, k);
    let level = VectorScheduler::new().streaming_level();

    let mut serial = vec![f32::NAN; k];
    weights.forward_into(level, &input, &mut serial);
    for threads in POOLS {
        let got = in_pool(threads, || {
            let mut out = vec![f32::NAN; k];
            weights.forward_into_parallel(level, &input, &mut out);
            out
        });
        assert_eq!(got, serial, "binary FC diverges at {threads} threads");
    }
}

#[test]
fn binary_pool_invariant_across_pools() {
    let mut rng = StdRng::seed_from_u64(13);
    let shape = Shape::hwc(12, 12, 256);
    let input = Tensor::from_vec(pm1_vec(&mut rng, shape.numel()), shape, Layout::Nhwc);
    let pressed = BitTensor::from_tensor(&input);
    let level = host_level(256);

    let serial = binary_max_pool(level, &pressed, 2, 2, 2);
    for threads in POOLS {
        let got = in_pool(threads, || {
            binary_max_pool_parallel(level, &pressed, 2, 2, 2)
        });
        assert_eq!(
            got.words(),
            serial.words(),
            "binary pool diverges at {threads} threads"
        );
    }
}

#[test]
fn engine_infer_invariant_across_pools() {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(14);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);

    let mut ctx = model.try_new_context().expect("context allocates");
    let serial = model.try_infer(&mut ctx, &input).expect("serial infer");

    for threads in POOLS {
        let got = in_pool(threads, || {
            let mut ctx = model.try_new_context().expect("context allocates");
            ctx.parallel = true;
            model.try_infer(&mut ctx, &input).expect("parallel infer")
        });
        assert_eq!(got, serial, "try_infer diverges at {threads} threads");
    }
}

#[test]
fn engine_batch_invariant_across_pools() {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(15);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    let inputs: Vec<Tensor> = (0..6)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();

    let mut ctx = model.try_new_context().expect("context allocates");
    let serial: Vec<Vec<f32>> = inputs
        .iter()
        .map(|i| model.try_infer(&mut ctx, i).expect("serial infer"))
        .collect();

    for threads in POOLS {
        let batch = in_pool(threads, || model.try_infer_batch(&inputs));
        for (i, (got, want)) in batch.iter().zip(&serial).enumerate() {
            let got = got.as_ref().expect("batch item ok");
            assert_eq!(
                got, want,
                "try_infer_batch item {i} diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn two_callers_share_the_one_team_without_deadlock() {
    // A parallel `try_infer` and a fanned-out `try_infer_batch` (16
    // `tiered_cnn` images a call are over the fan-out floor), started
    // together and repeated: whenever both want the team, one gets it and
    // the other runs its chunks on its own thread. Both must come out as
    // the serial logits, and both must come out.
    let spec = tiered_cnn();
    let mut rng = StdRng::seed_from_u64(18);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    let inputs: Vec<Tensor> = (0..16)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    let mut ctx = model.try_new_context().expect("context allocates");
    let serial: Vec<Vec<f32>> = inputs
        .iter()
        .map(|i| model.try_infer(&mut ctx, i).expect("serial infer"))
        .collect();

    // Detached threads and a timed wait: a deadlock fails the test instead
    // of hanging it in a join.
    const ROUNDS: usize = 40;
    let shared = std::sync::Arc::new((model, inputs, serial, std::sync::Barrier::new(2)));
    let (done, finished) = std::sync::mpsc::channel();
    let (single, batch) = (std::sync::Arc::clone(&shared), shared);
    let single_done = done.clone();
    std::thread::spawn(move || {
        let (model, inputs, serial, start) = &*single;
        in_pool(2, || {
            let mut ctx = model.try_new_context().expect("context allocates");
            ctx.parallel = true;
            start.wait();
            for round in 0..ROUNDS {
                let i = round % inputs.len();
                let got = model.try_infer(&mut ctx, &inputs[i]);
                assert_eq!(got.expect("parallel infer"), serial[i], "round {round}");
            }
        });
        single_done.send("try_infer").expect("test is waiting");
    });
    std::thread::spawn(move || {
        let (model, inputs, serial, start) = &*batch;
        in_pool(2, || {
            start.wait();
            for round in 0..ROUNDS {
                for (i, got) in model.try_infer_batch(inputs).into_iter().enumerate() {
                    assert_eq!(got.expect("batch item"), serial[i], "round {round}");
                }
            }
        });
        done.send("try_infer_batch").expect("test is waiting");
    });
    for _ in 0..2 {
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a caller failed, or is stuck behind the team");
    }
}

#[test]
fn compiled_weights_invariant_across_pools_and_nesting() {
    // The press step deals its jobs — FC bands, conv banks and their AMX
    // copies — over the team. Every word must be the same at every pool
    // size, and from a compile nested in a team chunk (busy ⇒ inline).
    // The MLP's n is no multiple of 512 and its 1 500-row Bᵀ is two bands;
    // the 16×16×128 → 256 conv runs the AMX body where the host has one.
    let amx_net = NetworkSpec {
        name: "amx-conv".into(),
        input: Shape::hwc(16, 16, 128),
        layers: vec![
            LayerSpec::Conv {
                name: "conv".into(),
                k: 256,
                params: ConvParams::VGG_CONV,
            },
            LayerSpec::Fc {
                name: "fc".into(),
                k: 10,
            },
        ],
    };
    let mut rng = StdRng::seed_from_u64(43);
    for spec in [tiered_cnn(), mlp(700, 1500), amx_net] {
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let compile = || CompiledModel::try_compile(&spec, &weights).expect("model compiles");
        let serial = in_pool(1, compile);
        if spec.name == "amx-conv" && bitflow_simd::features().amx_int8 {
            assert_eq!(serial.amx_banks().len(), 1, "the conv runs the AMX body");
        }
        let mut nested: [Option<CompiledModel>; 2] = [None, None];
        team::for_chunks_mut(&mut nested, 1, |_, slot| slot[0] = Some(compile()));
        let pooled = POOLS.map(|threads| (format!("{threads} threads"), in_pool(threads, compile)));
        let nested = nested.map(|m| ("nested".to_string(), m.expect("chunk ran")));
        for (how, model) in pooled.iter().chain(&nested) {
            assert_eq!(
                model.packed_weights(),
                serial.packed_weights(),
                "{}: packed words diverge, {how}",
                spec.name
            );
            let (got, want) = (model.amx_banks(), serial.amx_banks());
            assert!(got == want, "{}: AMX copies diverge, {how}", spec.name);
        }
    }
}
