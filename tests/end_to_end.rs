//! Cross-crate integration tests: the compiled engine against the integer
//! oracle, parallel determinism, and a VGG-topology network end-to-end.

#[path = "common/oracle.rs"]
mod oracle;

use bitflow::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// A VGG-shaped network small enough for CI: same layer pattern
/// (conv-conv-pool blocks, channel doubling, FC head) on a 32×32 input.
fn mini_vgg() -> NetworkSpec {
    NetworkSpec {
        name: "MiniVGG".into(),
        input: Shape::hwc(32, 32, 3),
        layers: vec![
            LayerSpec::Conv {
                name: "conv1.1".into(),
                k: 64,
                params: ConvParams::VGG_CONV,
            },
            LayerSpec::Conv {
                name: "conv1.2".into(),
                k: 64,
                params: ConvParams::VGG_CONV,
            },
            LayerSpec::Pool {
                name: "pool1".into(),
                params: ConvParams::VGG_POOL,
            },
            LayerSpec::Conv {
                name: "conv2.1".into(),
                k: 128,
                params: ConvParams::VGG_CONV,
            },
            LayerSpec::Pool {
                name: "pool2".into(),
                params: ConvParams::VGG_POOL,
            },
            LayerSpec::Fc {
                name: "fc1".into(),
                k: 256,
            },
            LayerSpec::Fc {
                name: "fc2".into(),
                k: 10,
            },
        ],
    }
}

/// Compiles `spec` and opens one inference session on it.
fn engine(spec: &NetworkSpec, weights: &NetworkWeights) -> (CompiledModel, InferenceContext) {
    let model = CompiledModel::try_compile(spec, weights).expect("model compiles");
    let ctx = model.try_new_context().expect("context allocates");
    (model, ctx)
}

#[test]
fn mini_vgg_compiles_and_infers() {
    let spec = mini_vgg();
    let mut rng = StdRng::seed_from_u64(1);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let (model, mut ctx) = engine(&spec, &weights);
    let img = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let logits = model.try_infer(&mut ctx, &img).expect("inference");
    assert_eq!(logits.len(), 10);
    assert!(logits.iter().all(|x| x.is_finite()));
    // FC counts have the same parity as their reduction width.
    for &l in &logits {
        assert_eq!(l.fract(), 0.0, "binary FC logits are integer counts");
    }
}

#[test]
fn serial_and_parallel_engines_bit_identical() {
    let spec = mini_vgg();
    let mut rng = StdRng::seed_from_u64(2);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let (model, mut ctx) = engine(&spec, &weights);
    let img = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let serial = model.try_infer(&mut ctx, &img).expect("inference");
    ctx.parallel = true;
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(|| model.try_infer(&mut ctx, &img).expect("inference"));
        assert_eq!(serial, got, "threads={threads}");
    }
}

#[test]
fn engine_matches_the_oracle_on_one_vgg_block() {
    // One conv-pool block of mini_vgg and an FC head over the pooled words
    // (128 channels are word-tight, so they are the flattened input).
    let mut rng = StdRng::seed_from_u64(3);
    let spec = NetworkSpec {
        name: "OneBlock".into(),
        input: Shape::hwc(16, 16, 64),
        layers: vec![
            LayerSpec::Conv {
                name: "c".into(),
                k: 128,
                params: ConvParams::VGG_CONV,
            },
            LayerSpec::Pool {
                name: "p".into(),
                params: ConvParams::VGG_POOL,
            },
            LayerSpec::Fc {
                name: "f".into(),
                k: 16,
            },
        ],
    };
    let weights = NetworkWeights::random(&spec, &mut rng);
    let (model, mut ctx) = engine(&spec, &weights);
    let img = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let got = model.try_infer(&mut ctx, &img).expect("inference");
    assert_eq!(got, oracle::logits(&spec, &weights, &img));
}

#[test]
fn every_scheduler_tier_runs_in_one_network() {
    // tiered_cnn walks channels 3 → 64 → 128 → 256 → 512: padded-scalar,
    // scalar, SSE, AVX2, AVX-512 tiers all execute in one inference.
    let spec = tiered_cnn();
    let mut rng = StdRng::seed_from_u64(4);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let (model, mut ctx) = engine(&spec, &weights);
    let img = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let a = model.try_infer(&mut ctx, &img).expect("inference");
    let b = model.try_infer(&mut ctx, &img).expect("inference");
    assert_eq!(a, b);
    assert_eq!(a.len(), 10);
}

#[test]
fn float_and_binary_engines_share_spec_and_weights() {
    let spec = mini_vgg();
    let mut rng = StdRng::seed_from_u64(5);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let (bin, mut ctx) = engine(&spec, &weights);
    let float = FloatNetwork::compile(&spec, &weights);
    let img = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let lb = bin.try_infer(&mut ctx, &img).expect("inference");
    let lf = float.infer(&img);
    assert_eq!(lb.len(), lf.len());
    assert!(lf.iter().all(|x| x.is_finite()));
}

#[test]
fn repeated_inference_is_stable_over_many_runs() {
    // Zero-cost padding depends on margins never being dirtied; hammer the
    // engine with alternating inputs and verify outputs keep matching
    // fresh single-use contexts.
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(6);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let (model, mut reused) = engine(&spec, &weights);
    let imgs: Vec<Tensor> = (0..6)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    for round in 0..3 {
        for (i, img) in imgs.iter().enumerate() {
            let got = model.try_infer(&mut reused, img).expect("inference");
            let mut fresh = model.try_new_context().expect("context allocates");
            let want = model.try_infer(&mut fresh, img).expect("inference");
            assert_eq!(got, want, "round {round}, image {i}");
        }
    }
}
