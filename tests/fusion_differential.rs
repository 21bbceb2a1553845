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
//! Two tiers: operator-level proptests over every §III-B channel width
//! against the two-pass reference (float dots, then the threshold
//! compare), and whole-graph logit equality with the integer oracle.

#[path = "common/oracle.rs"]
mod oracle;

use bitflow::graph::spec::{LayerSpec, NetworkSpec};
use bitflow::graph::weights::{BnParams, LayerWeights, NetworkWeights};
use bitflow::graph::CompiledModel;
use bitflow::ops::binary::{
    binarize_threshold_padded, pressed_conv, pressed_conv_sign_into, SignThresholds,
};
use bitflow::ops::{ConvParams, SimdLevel};
use bitflow::tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The §III-B channel widths: one per scheduler rule (3 pads, 32/64/128
/// hit the SSE/AVX2/AVX-512 single-word tiers, 160/256 the multi-word
/// paths).
const SECTION_3B_WIDTHS: [usize; 6] = [3, 32, 64, 128, 160, 256];

/// Draws adversarial BN statistics for `k` channels: mixed-sign γ with
/// mass near zero and exactly zero, β occasionally huge (threshold leaves
/// the reachable dot range), non-default ε half the time.
fn adversarial_bn(k: usize, rng: &mut StdRng) -> BnParams {
    let eps = if rng.gen::<bool>() { 1e-5 } else { 1e-1 };
    let gamma = (0..k)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => rng.gen_range(-1e-4f32..1e-4),
            2..=4 => -rng.gen_range(0.05f32..2.0),
            _ => rng.gen_range(0.05f32..2.0),
        })
        .collect();
    let beta = (0..k)
        .map(|_| {
            if rng.gen_range(0u32..8) == 0 {
                rng.gen_range(-1e6f32..1e6)
            } else {
                rng.gen_range(-3.0f32..3.0)
            }
        })
        .collect();
    BnParams {
        gamma,
        beta,
        mean: (0..k).map(|_| rng.gen_range(-4.0f32..4.0)).collect(),
        var: (0..k).map(|_| rng.gen_range(0.05f32..3.0)).collect(),
        eps,
    }
}

fn pm1(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Operator level: the integer epilogue equals the two-pass reference
    /// (float counts, then folded float threshold compare) for every
    /// §III-B channel width under adversarial BN.
    #[test]
    fn fused_epilogue_matches_unfused_reference(
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
        let bn = adversarial_bn(k, &mut rng);
        let fold = bn.fold();

        let pressed = BitTensor::from_tensor_padded(&input, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);

        // Two-pass reference: float count map, then the folded float
        // threshold compare.
        let counts = pressed_conv(SimdLevel::Avx512, &pressed, &bank, 1);
        let want = binarize_threshold_padded(&counts, &fold.thresholds, &fold.flip, 1);

        // One pass: integer popcount-domain compare inside the conv.
        let st = SignThresholds::from_fold(&fold, 3 * 3 * c);
        let mut got = BitTensor::zeros(h + 2, w + 2, k);
        pressed_conv_sign_into(SimdLevel::Avx512, &pressed, &bank, 1, &st, &mut got, 1, false, None);

        prop_assert_eq!(got.words(), want.words(), "epilogue != two-pass (c={}, k={})", c, k);
        prop_assert!(got.tail_is_zero());
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
            *bn = adversarial_bn(k, &mut rng);
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
    let input = Tensor::from_vec(vals, Shape::hwc(h, w, 1), Layout::Nhwc);
    let fshape = FilterShape::new(1, 3, 3, 1);
    let bank = BitFilterBank::from_floats(&[1.0f32; 9], fshape);
    let pressed = BitTensor::from_tensor(&input);

    let counts = pressed_conv(SimdLevel::Scalar, &pressed, &bank, 1);
    assert_eq!(counts.at(0, 0, 0, 0), 3.0, "window dot is the tie value");

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

    let two_pass = binarize_threshold_padded(&counts, &fold.thresholds, &fold.flip, 0);
    assert_eq!(two_pass.get(0, 0, 0), 1, "two-pass: tie must be +1");
    assert!(oracle::folded(&fold, 0, 3), "oracle: tie must be +1");
}
