//! Sign-epilogue differential harness: the engine's one conv lowering
//! decides Conv→BN→Sign as an integer bound on the popcount, and must be
//! **bit-identical** to the float threshold compare of the folded
//! batch-norm on every input — including the adversarial corners where the
//! two could plausibly split:
//!
//! * negative γ (comparison direction flips),
//! * γ ≈ 0 and γ = 0 (degenerate constant channels),
//! * non-default ε (PR 6's fix must reach the integer bound),
//! * β pushing the threshold outside the reachable popcount range
//!   (saturation to always-+1 / always-−1),
//! * exact integer ties (dot == threshold — where the old
//!   `(x >= t) ^ flip` semantics were wrong for flipped channels).
//!
//! Two tiers, both against the integer oracle (`tests/common/oracle.rs`):
//! operator-level proptests over every §III-B channel width (the oracle's
//! dots through the folded compare), and whole-graph logit equality.

#[path = "common/adversarial.rs"]
mod adversarial;
#[path = "common/oracle.rs"]
mod oracle;

use bitflow::graph::spec::{LayerSpec, NetworkSpec};
use bitflow::graph::weights::{BnParams, LayerWeights, NetworkWeights};
use bitflow::graph::CompiledModel;
use bitflow::ops::binary::{pressed_conv_sign_into, SignThresholds};
use bitflow::ops::{ConvParams, SimdLevel};
use bitflow::tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The §III-B channel widths: one per scheduler rule (3 pads, 32/64/128
/// hit the SSE/AVX2/AVX-512 single-word tiers, 160/256 the multi-word
/// paths).
const SECTION_3B_WIDTHS: [usize; 6] = [3, 32, 64, 128, 160, 256];

fn pm1(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Operator level: the integer epilogue's bits are the oracle's folded
    /// signs for every §III-B channel width, under the fold of adversarial
    /// BN statistics and under adversarial thresholds (ties at real dots
    /// among them).
    #[test]
    fn fused_epilogue_matches_the_oracle(
        c_idx in 0usize..SECTION_3B_WIDTHS.len(),
        k in 1usize..48,
        h in 3usize..6,
        w in 3usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let c = SECTION_3B_WIDTHS[c_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let fshape = FilterShape::new(k, 3, 3, c);
        let input = Tensor::from_vec(pm1(&mut rng, h * w * c), Shape::hwc(h, w, c), Layout::Nhwc);
        let weights = pm1(&mut rng, fshape.numel());
        let (dots, ..) = oracle::conv(
            &oracle::signs(input.data()), (h, w, c), &oracle::signs(&weights), (k, 3, 3), 1, 1,
        );
        let pressed = BitTensor::from_tensor_padded(&input, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let folds = [adversarial::bn(k, &mut rng).fold(), adversarial::fold(&mut rng, &dots, k, 9 * c)];
        for fold in folds {
            let st = SignThresholds::from_fold(&fold, 3 * 3 * c);
            let mut got = BitTensor::zeros(h + 2, w + 2, k);
            pressed_conv_sign_into(SimdLevel::Avx512, &pressed, &bank, 1, &st, &mut got, 1, false, None);
            let want = oracle::threshold(&fold, k, &dots);
            prop_assert_eq!(&oracle::Act::unpress(&got, 1).v, &want, "c={}, k={}", c, k);
            prop_assert!(got.tail_is_zero());
        }
    }

    /// Whole graph: the engine's logits are the oracle's, with adversarial
    /// BN on the conv layer, on serial and parallel contexts.
    #[test]
    fn engine_matches_the_oracle_under_adversarial_bn(
        c_idx in 0usize..SECTION_3B_WIDTHS.len(),
        k_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let c = SECTION_3B_WIDTHS[c_idx];
        let k = [32usize, 64, 128][k_idx];
        let spec = NetworkSpec {
            name: "epilogue-diff".into(),
            input: Shape::hwc(6, 6, c),
            layers: vec![
                LayerSpec::Conv {
                    name: "conv1".into(),
                    k,
                    params: ConvParams::VGG_CONV,
                },
                LayerSpec::Pool {
                    name: "pool1".into(),
                    params: ConvParams::VGG_POOL,
                },
                LayerSpec::Fc { name: "fc1".into(), k: 10 },
            ],
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        // Replace the conv's BN with adversarial statistics.
        if let LayerWeights::Conv { bn, .. } = &mut weights.layers[0] {
            *bn = adversarial::bn(k, &mut rng);
        }
        let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let want = oracle::logits(&spec, &weights, &image);

        let model = CompiledModel::try_compile(&spec, &weights).expect("compile");
        let mut ctx = model.try_new_context().expect("context allocates");
        for parallel in [false, true] {
            ctx.parallel = parallel;
            let got = model.try_infer(&mut ctx, &image).expect("infer");
            prop_assert_eq!(&got, &want, "c={} k={} parallel={}", c, k, parallel);
        }
    }
}

/// Deterministic tie regression: with γ < 0 the folded compare is
/// `x <= t`, equality included — an integer dot landing exactly on the
/// threshold must binarize to +1 (sign(BN(x)) = sign(0) = +1). The old
/// `(x >= t) ^ flip` encoding got this corner wrong.
#[test]
fn flipped_tie_lands_on_plus_one() {
    // 3×3×1 window (n = 9), all-+1 filter. Input row pattern chosen so the
    // center window has 6 ones / 3 minus-ones: dot = 3.
    let h = 3;
    let w = 3;
    let vals = vec![
        1.0, 1.0, 1.0, //
        1.0, 1.0, 1.0, //
        -1.0, -1.0, -1.0,
    ];
    let input = Tensor::from_vec(vals.clone(), Shape::hwc(h, w, 1), Layout::Nhwc);
    let fshape = FilterShape::new(1, 3, 3, 1);
    let bank = BitFilterBank::from_floats(&[1.0f32; 9], fshape);
    let pressed = BitTensor::from_tensor(&input);
    let (dots, ..) = oracle::conv(&oracle::signs(&vals), (h, w, 1), &[1; 9], (1, 3, 3), 1, 0);
    assert_eq!(dots, [3], "window dot is the tie value");

    // γ = −1, σ² = 1 − ε ⇒ s = −1, t = mean − β/s = 3 exactly.
    let bn = BnParams {
        gamma: vec![-1.0],
        beta: vec![0.0],
        mean: vec![3.0],
        var: vec![1.0 - bitflow::graph::weights::DEFAULT_BN_EPS],
        eps: bitflow::graph::weights::DEFAULT_BN_EPS,
    };
    let fold = bn.fold();
    assert_eq!(fold.thresholds, vec![3.0]);
    assert_eq!(fold.flip, vec![true]);

    // Explicit float reference: BN(3) = −1·(3−3)/1 + 0 = 0, sign(0) = +1.
    let st = SignThresholds::from_fold(&fold, 9);
    let mut fused = BitTensor::zeros(1, 1, 1);
    pressed_conv_sign_into(
        SimdLevel::Scalar,
        &pressed,
        &bank,
        1,
        &st,
        &mut fused,
        0,
        false,
        None,
    );
    assert_eq!(fused.get(0, 0, 0), 1, "epilogue: tie must be +1");
    assert!(oracle::folded(&fold, 0, 3), "oracle: tie must be +1");
}
