//! Whole-network differential harness: the engine ≡ the integer oracle
//! (`tests/common/oracle.rs`) on the things only a whole graph exercises.
//!
//! The operator-level suites pin each kernel; these cases pin what the
//! engine adds on top of them — the slot plan (padding margins written by
//! one layer for the next, the repack before an FC that cannot read its map
//! flat), the hidden FC's sign of its dots, the press of every float class,
//! a deep chain over every scheduler tier, and batches fanned out over the
//! worker team. Every case stays at or below `tiered_cnn` size: the oracle
//! runs at the test profile's opt-level 0.

#[path = "common/adversarial.rs"]
mod adversarial;
#[path = "common/oracle.rs"]
mod oracle;

use bitflow::graph::models::{mlp, small_cnn, tiered_cnn};
use bitflow::graph::spec::{LayerSpec, NetworkSpec};
use bitflow::graph::weights::{BnParams, LayerWeights, NetworkWeights};
use bitflow::graph::{BatchItem, CompiledModel};
use bitflow::ops::ConvParams;
use bitflow::tensor::{Layout, Shape, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn conv(name: &str, k: usize, params: ConvParams) -> LayerSpec {
    LayerSpec::Conv {
        name: name.into(),
        k,
        params,
    }
}

fn pool(name: &str, params: ConvParams) -> LayerSpec {
    LayerSpec::Pool {
        name: name.into(),
        params,
    }
}

fn fc(name: &str, k: usize) -> LayerSpec {
    LayerSpec::Fc {
        name: name.into(),
        k,
    }
}

/// Compiles `spec` and asserts its logits on `input` are the oracle's, on
/// a serial and a parallel context.
fn assert_engine_is_oracle(spec: &NetworkSpec, weights: &NetworkWeights, input: &Tensor) {
    let want = oracle::logits(spec, weights, input);
    let model = CompiledModel::try_compile(spec, weights).expect("compile");
    let mut ctx = model.try_new_context().expect("context allocates");
    for parallel in [false, true] {
        ctx.parallel = parallel;
        let got = model.try_infer(&mut ctx, input).expect("infer");
        assert_eq!(got, want, "{} parallel={parallel}", spec.name);
    }
}

#[test]
fn engine_matches_the_oracle_on_tiered_cnn() {
    // Channels 3 → 64 → 128 → 256 → 512: a window-pressed first conv, a
    // conv at every scheduler tier, four pools, a word-tight flatten into a
    // hidden FC and the head.
    let spec = tiered_cnn();
    let mut rng = StdRng::seed_from_u64(0x71E2);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    assert_engine_is_oracle(&spec, &weights, &input);
}

#[test]
fn hidden_fc_signs_match_the_oracle_under_adversarial_bn() {
    // An MLP's hidden FCs take the sign of their dots through the folded
    // compare; their thresholds are drawn against the dots each layer
    // really produces, so ties land on both compare directions.
    let spec = mlp(200, 96);
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xFC00 + seed);
        let mut weights = NetworkWeights::random(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let mut a = oracle::signs(input.data());
        let hidden = spec.layers.len() - 1;
        for lw in &mut weights.layers[..hidden] {
            let LayerWeights::Fc { w, n, k, bn } = lw else {
                unreachable!("an MLP is FCs")
            };
            let dots = oracle::dense(&a, &oracle::signs(w), *k);
            let fold = adversarial::fold(&mut rng, &dots, *k, *n);
            a = (0..*k)
                .map(|j| {
                    if oracle::folded(&fold, j, dots[j]) {
                        1
                    } else {
                        -1
                    }
                })
                .collect();
            *bn = adversarial::bn_folding_to(fold);
        }
        assert_engine_is_oracle(&spec, &weights, &input);
    }
}

#[test]
fn inner_strides_pads_and_windows_match_the_oracle() {
    // Past the first layer a conv reads the margin its producer left
    // around its output: stride 2, no padding, a 1×1, a non-square kernel
    // two pixels deep in margin, an overlapping 3×3 pool, and an FC over a
    // 3×3×96 map that is not word-tight.
    let spec = NetworkSpec {
        name: "inner-geometry".into(),
        input: Shape::hwc(11, 11, 5),
        layers: vec![
            conv("conv1", 40, ConvParams::VGG_CONV),
            conv("conv2", 70, ConvParams::new(3, 3, 2, 1)),
            conv("conv3", 33, ConvParams::new(1, 1, 1, 0)),
            pool("pool1", ConvParams::new(3, 3, 1, 0)),
            conv("conv4", 96, ConvParams::new(2, 3, 1, 2)),
            pool("pool2", ConvParams::VGG_POOL),
            fc("fc1", 65),
            fc("fc2", 10),
        ],
    };
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x1E0 + seed);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        assert_engine_is_oracle(&spec, &weights, &input);
    }
}

#[test]
fn fc_over_a_map_matches_the_oracle_at_every_width() {
    // An FC reads a map flat when its pixels are word-tight (C a multiple
    // of 64, or a single pixel) and from a repacked copy otherwise: both
    // sides of that rule, at one, four and six pixels.
    let mut rng = StdRng::seed_from_u64(0xF1A7);
    for c in [1usize, 3, 32, 63, 64, 65, 96, 128] {
        for (h, w) in [(1usize, 1usize), (2, 2), (2, 3)] {
            let spec = NetworkSpec {
                name: format!("flatten-{h}x{w}x{c}"),
                input: Shape::hwc(h, w, 3),
                layers: vec![
                    conv("conv1", c, ConvParams::new(1, 1, 1, 0)),
                    fc("fc1", 7),
                    fc("fc2", 4),
                ],
            };
            let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
            let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
            assert_engine_is_oracle(&spec, &weights, &input);
        }
    }
}

#[test]
fn every_float_class_signs_as_the_oracle_does() {
    // `x >= 0.0` is +1: NaN of either sign and −∞ are −1, −0.0 is +1 like
    // +0.0, and a subnormal has the sign of its value. Weights carry every
    // class; the image carries the finite ones (a request with NaN or ∞ is
    // refused before any operator runs).
    const WEIGHT_SALT: [u32; 8] = [
        0x7FC0_0000, // NaN
        0xFFC0_0000, // −NaN
        0x0000_0000, // +0.0
        0x8000_0000, // −0.0
        0x7F80_0000, // +∞
        0xFF80_0000, // −∞
        0x0000_0001, // smallest subnormal
        0x8000_0001, // its negative
    ];
    const INPUT_SALT: [u32; 4] = [0x0000_0000, 0x8000_0000, 0x0000_0001, 0x8000_0001];
    let spec = NetworkSpec {
        name: "float-classes".into(),
        input: Shape::hwc(5, 5, 3),
        layers: vec![
            conv("conv1", 96, ConvParams::VGG_CONV),
            conv("conv2", 160, ConvParams::VGG_CONV),
            conv("conv3", 13, ConvParams::VGG_CONV),
            fc("fc1", 21),
            fc("fc2", 10),
        ],
    };
    let mut rng = StdRng::seed_from_u64(0x5A18);
    let mut weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    for lw in &mut weights.layers {
        if let LayerWeights::Conv { w, .. } | LayerWeights::Fc { w, .. } = lw {
            for x in w.iter_mut() {
                if rng.gen_range(0..3u32) == 0 {
                    *x = f32::from_bits(WEIGHT_SALT[rng.gen_range(0..WEIGHT_SALT.len())]);
                }
            }
        }
    }
    let mut input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    for x in input.data_mut() {
        if rng.gen_range(0..3u32) == 0 {
            *x = f32::from_bits(INPUT_SALT[rng.gen_range(0..INPUT_SALT.len())]);
        }
    }
    assert_engine_is_oracle(&spec, &weights, &input);
}

#[test]
fn padding_reads_minus_one_at_the_input_and_between_layers() {
    // One pixel, one channel, all-+1 3×3 filters: the window holds the
    // pixel and eight margin taps, so its dot is `v − 8` — not `v`, as it
    // would be if the margin read 0. A threshold `t` on that dot, then a
    // +1 FC weight, turns it into a logit of ±1 that can be worked by hand.
    let pad_conv = |name: &str| conv(name, 1, ConvParams::VGG_CONV);
    let specs = [
        // The margin of the pressed image (a window-pressed first layer).
        vec![pad_conv("conv1"), fc("fc1", 1)],
        // The margin a 1×1 conv leaves around its output for the next.
        vec![
            conv("conv0", 1, ConvParams::new(1, 1, 1, 0)),
            pad_conv("conv1"),
            fc("fc1", 1),
        ],
    ];
    for layers in specs {
        let spec = NetworkSpec {
            name: format!("margin-{}", layers.len()),
            input: Shape::hwc(1, 1, 1),
            layers,
        };
        let mut weights = NetworkWeights::random(&spec, &mut StdRng::seed_from_u64(0));
        for lw in &mut weights.layers {
            if let LayerWeights::Conv { w, .. } | LayerWeights::Fc { w, .. } = lw {
                w.fill(1.0);
            }
        }
        let model_with = |t: f32| {
            let mut weights = weights.clone();
            let conv1 = spec.layers.len() - 2;
            let LayerWeights::Conv { bn, .. } = &mut weights.layers[conv1] else {
                unreachable!("conv1 is a conv")
            };
            // γ = 1, β = 0: the folded threshold is μ.
            *bn = BnParams {
                mean: vec![t],
                ..BnParams::identity(1)
            };
            weights
        };
        // (threshold, logit for v = +1, logit for v = −1): dots −7 and −9.
        for (t, plus, minus) in [
            (-6.5, -1.0, -1.0),
            (-7.0, 1.0, -1.0),
            (-8.0, 1.0, -1.0),
            (-9.0, 1.0, 1.0),
        ] {
            let weights = model_with(t);
            let model = CompiledModel::try_compile(&spec, &weights).expect("compile");
            let mut ctx = model.try_new_context().expect("context allocates");
            for (v, want) in [(1.0f32, plus), (-1.0, minus)] {
                let input = Tensor::from_vec(vec![v], spec.input, Layout::Nhwc);
                let what = format!("{} t={t} v={v}", spec.name);
                assert_eq!(oracle::logits(&spec, &weights, &input), [want], "{what}");
                let got = model.try_infer(&mut ctx, &input).expect("infer");
                assert_eq!(got, [want], "{what}");
            }
        }
    }
}

#[test]
fn batch_items_match_the_oracle_one_by_one() {
    // Sixteen `tiered_cnn` images a call are over the fan-out floor, so
    // the batch goes over the worker team where there is more than one
    // CPU; a `small_cnn` batch runs on the caller. Each item, whichever
    // thread and context it ran in, is the oracle's. The items alternate
    // between two images (the oracle takes about a second a `tiered_cnn`
    // image at opt-level 0), so a context that kept anything of its last
    // item would show.
    for (spec, n) in [(tiered_cnn(), 16usize), (small_cnn(), 8)] {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let images: Vec<(Tensor, Vec<f32>)> = (0..2)
            .map(|_| {
                let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
                let want = oracle::logits(&spec, &weights, &image);
                (image, want)
            })
            .collect();
        let model = CompiledModel::try_compile(&spec, &weights).expect("compile");
        let items: Vec<BatchItem<'_>> = (0..n).map(|i| BatchItem::new(&images[i % 2].0)).collect();
        let mut ctx = model.try_new_context().expect("context allocates");
        let got = model.run_batch(&mut ctx, &items);
        assert_eq!(got.len(), n);
        for (i, got) in got.into_iter().enumerate() {
            let want = &images[i % 2].1;
            assert_eq!(&got.expect("batch item"), want, "{} item {i}", spec.name);
        }
    }
}
