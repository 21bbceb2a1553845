//! Fusion differential harness: the fused Conv→BN→Sign integer-threshold
//! epilogue must be **bit-identical** to the unfused reference dataflow
//! (float count map → float threshold compare) on every input — including
//! the adversarial batch-norm corners where the two could plausibly split:
//!
//! * negative γ (comparison direction flips),
//! * γ ≈ 0 and γ = 0 (degenerate constant channels),
//! * non-default ε (PR 6's fix must reach the integer bound),
//! * β pushing the threshold outside the reachable popcount range
//!   (saturation to always-+1 / always-−1),
//! * exact integer ties (dot == threshold — where the old
//!   `(x >= t) ^ flip` semantics were wrong for flipped channels).
//!
//! Three tiers: operator-level proptests over every §III-B channel width,
//! whole-graph fused-vs-unfused logit equality, and plan introspection
//! pinning exactly which chains fused.

use bitflow::graph::plan::{PlanNode, PlanOptions};
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

    /// Operator level: the fused integer epilogue equals the unfused
    /// two-pass (float counts, then folded float threshold compare) for
    /// every §III-B channel width under adversarial BN.
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

        // Unfused reference: float count map, then the folded float
        // threshold compare (the exact dataflow `BITFLOW_FUSE=0` runs).
        let counts = pressed_conv(SimdLevel::Avx512, &pressed, &bank, 1);
        let want = binarize_threshold_padded(&counts, &fold.thresholds, &fold.flip, 1);

        // Fused: integer popcount-domain compare inside the conv.
        let st = SignThresholds::from_fold(&fold, 3 * 3 * c);
        let mut got = BitTensor::zeros(h + 2, w + 2, k);
        pressed_conv_sign_into(SimdLevel::Avx512, &pressed, &bank, 1, &st, &mut got, 1, false, None);

        prop_assert_eq!(got.words(), want.words(), "fused != unfused (c={}, k={})", c, k);
        prop_assert!(got.tail_is_zero());
    }

    /// Whole graph: a fused compile and an unfused compile of the same
    /// spec + weights produce bit-identical logits, with adversarial BN on
    /// the conv layer.
    #[test]
    fn fused_and_unfused_plans_agree_on_logits(
        c_idx in 0usize..SECTION_3B_WIDTHS.len(),
        k_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let c = SECTION_3B_WIDTHS[c_idx];
        let k = [32usize, 64, 128][k_idx];
        let spec = NetworkSpec {
            name: "fusion-diff".into(),
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

        let fused = CompiledModel::try_compile_with(&spec, &weights, &PlanOptions::default())
            .expect("fused compile");
        let unfused = CompiledModel::try_compile_with(&spec, &weights, &PlanOptions::unfused())
            .expect("unfused compile");
        prop_assert_eq!(fused.fused_conv_names(), vec!["conv1"]);
        prop_assert!(unfused.fused_conv_names().is_empty());

        let a = fused
            .try_infer(&mut fused.try_new_context().expect("context allocates"), &image)
            .expect("fused infer");
        let b = unfused
            .try_infer(&mut unfused.try_new_context().expect("context allocates"), &image)
            .expect("unfused infer");
        prop_assert_eq!(&a, &b, "fused and unfused logits diverge (c={}, k={})", c, k);

        // The parallel fused kernel must also agree.
        let mut ctx = fused.try_new_context().expect("context allocates");
        ctx.parallel = true;
        let p = fused.try_infer(&mut ctx, &image).expect("parallel fused infer");
        prop_assert_eq!(&a, &p, "parallel fused kernel diverges");
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
    assert_eq!(fused.get(0, 0, 0), 1, "fused: tie must be +1");

    let unfused = binarize_threshold_padded(&counts, &fold.thresholds, &fold.flip, 0);
    assert_eq!(unfused.get(0, 0, 0), 1, "unfused: tie must be +1");
}

/// Plan introspection: the quickstart recipe fuses exactly its one conv.
#[test]
fn quickstart_plan_fuses_exactly_conv1() {
    let spec = bitflow::graph::models::small_cnn();
    let mut rng = StdRng::seed_from_u64(11);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = CompiledModel::try_compile_with(&spec, &weights, &PlanOptions::default())
        .expect("compile small_cnn");
    assert_eq!(model.fused_conv_names(), vec!["conv1"]);
    let nodes = model.plan().nodes();
    assert!(
        !nodes.iter().any(|n| matches!(n, PlanNode::BnSign { .. })),
        "no standalone BN+sign remains in the fused plan"
    );
    // The softmax tail stays a float FcOut — never a fusion candidate.
    assert!(matches!(nodes.last(), Some(PlanNode::FcOut { name }) if name == "fc1"));
}

/// Plan introspection: VGG-16 fuses all 13 convs; the FC tail is left
/// alone (fc6/fc7 sign via the integer epilogue *as FC ops*, fc8 emits
/// float logits).
#[test]
fn vgg16_plan_fuses_all_convs() {
    let spec = bitflow::graph::models::vgg16();
    let opts = PlanOptions::default();
    let plan = bitflow::graph::plan::ExecPlan::build(&spec, &opts);
    assert_eq!(plan.fused_convs().len(), 13);
    assert!(plan.unfused_convs().is_empty());
    assert!(
        !plan
            .nodes()
            .iter()
            .any(|n| matches!(n, PlanNode::BnSign { .. })),
        "no unfused BN+sign nodes in the default VGG-16 plan"
    );
    assert!(matches!(plan.nodes().last(), Some(PlanNode::FcOut { name }) if name == "fc8"));

    // A float-tapped conv is excluded from fusion — its float map has a
    // second consumer — while every other chain still fuses.
    let mut tapped = PlanOptions::default();
    tapped.float_taps.insert("conv3.2".into());
    let plan = bitflow::graph::plan::ExecPlan::build(&spec, &tapped);
    assert_eq!(plan.unfused_convs(), vec!["conv3.2"]);
    assert_eq!(plan.fused_convs().len(), 12);
}

/// A float-tapped compile still produces bit-identical logits — fusion is
/// a pure dataflow optimization, never a numerics change.
#[test]
fn float_tap_keeps_logits_bit_identical() {
    let spec = bitflow::graph::models::small_cnn();
    let mut rng = StdRng::seed_from_u64(12);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);

    let fused = CompiledModel::try_compile_with(&spec, &weights, &PlanOptions::default())
        .expect("fused compile");
    let mut tapped_opts = PlanOptions::default();
    tapped_opts.float_taps.insert("conv1".into());
    let tapped =
        CompiledModel::try_compile_with(&spec, &weights, &tapped_opts).expect("tapped compile");
    assert!(tapped.fused_conv_names().is_empty());

    let a = fused
        .try_infer(
            &mut fused.try_new_context().expect("context allocates"),
            &image,
        )
        .expect("fused");
    let b = tapped
        .try_infer(
            &mut tapped.try_new_context().expect("context allocates"),
            &image,
        )
        .expect("tapped");
    assert_eq!(a, b);
}

/// Telemetry honesty: on the Table IV workload (VGG-16) every fused conv
/// row must report strictly fewer bytes moved than the unfused
/// ConvFloat + BnSign pair it replaced — the roofline attribution sees
/// the float count map disappear.
#[test]
fn vgg16_fused_convs_move_strictly_fewer_bytes() {
    let spec = bitflow::graph::models::vgg16();
    let mut rng = StdRng::seed_from_u64(13);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let fused = CompiledModel::try_compile_with(&spec, &weights, &PlanOptions::default())
        .expect("fused compile");
    let unfused = CompiledModel::try_compile_with(&spec, &weights, &PlanOptions::unfused())
        .expect("unfused compile");

    let fused_rows = fused.op_descriptors();
    let unfused_rows = unfused.op_descriptors();
    let conv_names: Vec<String> = spec
        .layers
        .iter()
        .filter_map(|l| match l {
            LayerSpec::Conv { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(conv_names.len(), 13);

    for name in &conv_names {
        let f = fused_rows
            .iter()
            .find(|d| &d.name == name)
            .unwrap_or_else(|| panic!("fused row for {name}"));
        let u_conv = unfused_rows
            .iter()
            .find(|d| &d.name == name)
            .unwrap_or_else(|| panic!("unfused conv row for {name}"));
        let bnsign = format!("{name}:bnsign");
        let u_bn = unfused_rows
            .iter()
            .find(|d| d.name == bnsign)
            .unwrap_or_else(|| panic!("unfused bnsign row for {name}"));
        let fused_bytes = f.cost.bytes_read + f.cost.bytes_written;
        let unfused_bytes = u_conv.cost.bytes_read
            + u_conv.cost.bytes_written
            + u_bn.cost.bytes_read
            + u_bn.cost.bytes_written;
        assert!(
            fused_bytes < unfused_bytes,
            "{name}: fused moves {fused_bytes} B, unfused {unfused_bytes} B"
        );
        // The arithmetic is identical — only the data movement shrinks.
        assert_eq!(f.cost.bit_ops, u_conv.cost.bit_ops);
    }
}
