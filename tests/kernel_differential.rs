//! Differential kernel-correctness harness (paper §III-B).
//!
//! For every kernel width the vector execution scheduler can select on this
//! host — scalar u64, SSE-128, AVX2-256, AVX-512, plus the channel-padding
//! fallback of rule 5 — force the `VectorScheduler` choice by capping the
//! detected feature set, run the engine's operators — PressedConv with its
//! sign epilogue, the binary FC's `forward_into`, binary max-pool — at the
//! forced level, and assert the results are the integer oracle's
//! (`tests/common/oracle.rs`): the conv's bits under adversarial thresholds
//! (`tests/common/adversarial.rs`: ties at real dots, ±∞, NaN, saturation,
//! both directions), the FC's dots exactly, the pool's words against the
//! scalar level and the float max-pool.
//!
//! Shapes are randomized with proptest; every case exercises the whole
//! width ladder so a regression in any one tier fails the same property.
//!
//! The filter-lane conv core is not selected by channel width (the engine
//! runs it at the widest tier for every C), so it is additionally swept
//! deterministically: every level × every channel width — including pairs
//! like (AVX-512, C = 64) that `select(c)` never produces — over group and
//! word tails of K, every kernel/stride/tile-remainder shape, padded and
//! unpadded outputs and adversarial thresholds, against the integer oracle
//! (`tests/common/oracle.rs`), which shares no code with the packing or the
//! kernels.
//!
//! The first layer has two lowerings — window-pressed when `kh·kw·C ≤ 64`,
//! channel-pressed otherwise — and both are held to the oracle: at the
//! operator level at every level, and through the engine (where the plan
//! alone chooses) on serial and parallel contexts, with windows of 63, 64
//! and 65 bits pinning the rule's edge from both sides.

#[path = "common/adversarial.rs"]
mod adversarial;
#[path = "common/oracle.rs"]
mod oracle;

use bitflow_ops::binary::{
    binarize_windows_into, binary_max_pool, pressed_conv_sign_into, BinaryFcWeights, BnFold,
    SignThresholds, WindowPress,
};
use bitflow_ops::float::max_pool;
use bitflow_ops::ConvParams;
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::{features, VectorScheduler};
use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The width ladder of §III-B: feature caps (in bits) paired with the
/// level the scheduler must pick for a channel count divisible by that
/// width. Only tiers the host actually supports are exercised — on this
/// ladder a missing ISA demotes, which is itself asserted separately.
fn host_ladder() -> Vec<(usize, SimdLevel)> {
    let f = features();
    let mut ladder = vec![(64usize, SimdLevel::Scalar)];
    if f.sse2 {
        ladder.push((128, SimdLevel::Sse));
    }
    if f.avx2 {
        ladder.push((256, SimdLevel::Avx2));
    }
    if f.avx512f {
        ladder.push((512, SimdLevel::Avx512));
    }
    ladder
}

/// Every level selectable on this host, via capped schedulers, for a given
/// channel count. Returns (level, cap_bits) pairs; levels repeat when the
/// channel count is not divisible by a wider tier (demotion), which is fine
/// — running the same level twice is cheap and keeps the forcing logic
/// honest.
fn forced_levels(c: usize) -> Vec<(SimdLevel, usize)> {
    host_ladder()
        .into_iter()
        .map(|(bits, _)| {
            let sched = VectorScheduler::with_features(features().capped(bits));
            let choice = sched.select(c);
            assert!(
                width_bits(choice.level) <= bits,
                "cap {bits} must bound the selected level {:?}",
                choice.level
            );
            (choice.level, bits)
        })
        .collect()
}

fn width_bits(level: SimdLevel) -> usize {
    match level {
        SimdLevel::Avx512 => 512,
        SimdLevel::Avx2 => 256,
        SimdLevel::Sse => 128,
        _ => 64,
    }
}

fn pm1_vec(rng: &mut impl Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.gen::<bool>() { 1.0f32 } else { -1.0 })
        .collect()
}

/// Channel counts covering every scheduler rule: multiples of each vector
/// width, word-multiples, and the padding fallback (rule 5).
const CHANNELS: [usize; 8] = [3, 17, 33, 64, 96, 128, 256, 512];

#[test]
fn scheduler_forcing_selects_each_host_width() {
    // The harness only proves anything if the capped schedulers really do
    // force distinct kernels: for a 512-multiple channel count, each cap on
    // the ladder must select exactly its own tier.
    for (bits, want_level) in host_ladder() {
        let sched = VectorScheduler::with_features(features().capped(bits));
        assert_eq!(sched.select(512).level, want_level, "cap={bits}");
    }
    // The padding fallback: a non-multiple-of-32 width pads to 64 and runs
    // scalar words regardless of cap.
    for (bits, _) in host_ladder() {
        let sched = VectorScheduler::with_features(features().capped(bits));
        let choice = sched.select(3);
        assert!(choice.padded);
        assert_eq!(choice.c_padded, 64);
        assert_eq!(choice.level, SimdLevel::Scalar, "cap={bits}");
    }
}

const ALL_LEVELS: [SimdLevel; 5] = [
    SimdLevel::Unvectorized,
    SimdLevel::Scalar,
    SimdLevel::Sse,
    SimdLevel::Avx2,
    SimdLevel::Avx512,
];

/// The oracle's folded sign of element `i` of a `k`-channel map of dots.
fn folded_bit(fold: &BnFold, k: usize, dots: &[i32], i: usize) -> bool {
    oracle::folded(fold, i % k, dots[i])
}

#[test]
fn conv_core_matches_integer_reference_at_every_level_and_width() {
    const KS: [usize; 9] = [1, 5, 7, 8, 9, 63, 64, 65, 70];
    const KERNELS: [(usize, usize); 4] = [(1, 1), (3, 3), (5, 5), (2, 3)];
    const OUT_WS: [usize; 6] = [1, 4, 7, 8, 9, 17];
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for c in [3usize, 32, 64, 96, 128, 160, 256, 512] {
        // 36 cases walk K × kernel exhaustively (9 and 4 are coprime) and
        // meet every stride and every out_w several times.
        for case in 0..36usize {
            let (k, (kh, kw)) = (KS[case % 9], KERNELS[case % 4]);
            let (stride, out_w) = (1 + case % 3, OUT_WS[case % 6]);
            // 1–2 output rows: with out_w ∤ 8 the tiles cross the row end.
            let out_h = 1 + (case / 2) % 2;
            // Input margins (logical −1) under half the kernels that have
            // room for them.
            let pad = if kh >= 3 { (case / 4) % 2 } else { 0 };
            let h = (out_h - 1) * stride + kh - 2 * pad;
            let w = (out_w - 1) * stride + kw - 2 * pad;
            let shape = Shape::hwc(h, w, c);
            let fshape = FilterShape::new(k, kh, kw, c);
            let input = Tensor::from_vec(pm1_vec(&mut rng, shape.numel()), shape, Layout::Nhwc);
            let weights = pm1_vec(&mut rng, fshape.numel());
            let (dots, oh, ow) = oracle::conv(
                &oracle::signs(input.data()),
                (h, w, c),
                &oracle::signs(&weights),
                (k, kh, kw),
                stride,
                pad,
            );
            assert_eq!((oh, ow), (out_h, out_w), "case geometry");
            let fold = adversarial::fold(&mut rng, &dots, k, kh * kw * c);
            let st = SignThresholds::from_fold(&fold, kh * kw * c);
            let want_bit = |px: usize, kk: usize| folded_bit(&fold, k, &dots, px * k + kk);

            let pressed = BitTensor::from_tensor_padded(&input, pad);
            let bank = BitFilterBank::from_floats(&weights, fshape);
            for level in ALL_LEVELS {
                let what = format!("{level:?} c={c} k={k} {kh}x{kw} s={stride} out={oh}x{ow}");
                for out_pad in [0usize, 1] {
                    // Every bit pre-set: margins must keep theirs, interior
                    // pixels (press tail included) must be overwritten.
                    let mut out = BitTensor::zeros(oh + 2 * out_pad, ow + 2 * out_pad, k);
                    let tail = !0u64 >> (out.c_words() * 64 - k);
                    for px in out.words_mut().chunks_mut(k.div_ceil(64)) {
                        px.fill(!0);
                        *px.last_mut().unwrap() = tail;
                    }
                    pressed_conv_sign_into(
                        level, &pressed, &bank, stride, &st, &mut out, out_pad, false, None,
                    );
                    assert!(out.tail_is_zero(), "{what} pad={out_pad}: press tail");
                    for y in 0..out.h() {
                        for x in 0..out.w() {
                            let margin = y < out_pad
                                || y >= oh + out_pad
                                || x < out_pad
                                || x >= ow + out_pad;
                            for kk in 0..k {
                                let want =
                                    margin || want_bit((y - out_pad) * ow + (x - out_pad), kk);
                                assert_eq!(
                                    out.get(y, x, kk) == 1,
                                    want,
                                    "{what} pad={out_pad}: ({y},{x},{kk}) margin={margin}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Filter counts the first-layer cases cycle through: group and word tails.
const FIRST_LAYER_KS: [usize; 6] = [1, 5, 8, 9, 64, 70];

/// First-layer geometries: C × kernel × stride × pad × odd map sizes, plus
/// windows of exactly 63, 64 and 65 bits. `(c, kh, kw, stride, pad, h, w)`.
fn first_layer_cases() -> Vec<(usize, usize, usize, usize, usize, usize, usize)> {
    let mut cases = Vec::new();
    for c in [1usize, 2, 3, 4, 7] {
        for (kh, kw) in [(1usize, 1usize), (3, 3), (5, 5), (2, 3)] {
            for stride in 1..=2usize {
                for pad in 0..=2usize {
                    let (h, w) = [(5usize, 7usize), (9, 5), (7, 11)][cases.len() % 3];
                    cases.push((c, kh, kw, stride, pad, h, w));
                }
            }
        }
    }
    for (c, kh, kw) in [
        (7usize, 3usize, 3usize),
        (16, 2, 2),
        (64, 1, 1),
        (13, 1, 5),
        (13, 5, 1),
    ] {
        cases.push((c, kh, kw, 1, 1, 5, 7));
        cases.push((c, kh, kw, 2, 0, 7, 9));
    }
    cases
}

#[test]
fn window_pressed_conv_is_the_channel_pressed_conv_at_every_level() {
    let mut rng = StdRng::seed_from_u64(0x1F1E);
    let cases = first_layer_cases();
    let pressable = cases.iter().filter(|&&(c, kh, kw, ..)| kh * kw * c <= 64);
    for (case, &(c, kh, kw, stride, pad, h, w)) in pressable.enumerate() {
        let k = FIRST_LAYER_KS[case % FIRST_LAYER_KS.len()];
        let what = format!("c={c} k={k} {kh}x{kw} s={stride} p={pad} {h}x{w}");
        let shape = Shape::hwc(h, w, c);
        let fshape = FilterShape::new(k, kh, kw, c);
        let input = Tensor::from_vec(pm1_vec(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = pm1_vec(&mut rng, fshape.numel());
        let (dots, oh, ow) = oracle::conv(
            &oracle::signs(input.data()),
            (h, w, c),
            &oracle::signs(&weights),
            (k, kh, kw),
            stride,
            pad,
        );
        let fold = adversarial::fold(&mut rng, &dots, k, kh * kw * c);
        let st = SignThresholds::from_fold(&fold, kh * kw * c);

        // Channel-pressed: a padded map under the kh×kw bank.
        let by_channel = BitTensor::from_tensor_padded(&input, pad);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        // Window-pressed: one word a pixel under the same floats as 1×1.
        let wp = WindowPress::new(shape, ConvParams::new(kh, kw, stride, pad));
        assert_eq!((wp.out_h(), wp.out_w()), (oh, ow), "{what}");
        let mut by_window = BitTensor::zeros(oh, ow, kh * kw * c);
        binarize_windows_into(
            &input,
            &wp,
            &mut vec![0; wp.scratch_words()],
            &mut by_window,
        );
        let bank_1x1 = BitFilterBank::from_floats(&weights, FilterShape::new(k, 1, 1, kh * kw * c));

        for level in ALL_LEVELS {
            for (press, map, bank, stride) in [
                ("channel", &by_channel, &bank, stride),
                ("window", &by_window, &bank_1x1, 1),
            ] {
                for parallel in [false, true] {
                    let mut out = BitTensor::zeros(oh + 2, ow + 2, k);
                    pressed_conv_sign_into(
                        level, map, bank, stride, &st, &mut out, 1, parallel, None,
                    );
                    assert!(out.tail_is_zero(), "{what} {level:?} {press}");
                    for i in 0..oh * ow * k {
                        let got = out.get(i / k / ow + 1, i / k % ow + 1, i % k) == 1;
                        let want = folded_bit(&fold, k, &dots, i);
                        assert_eq!(got, want, "{what} {level:?} {press} element {i}");
                    }
                }
            }
        }
    }
}

#[test]
fn both_first_layer_lowerings_match_the_integer_reference_through_the_engine() {
    use bitflow::graph::plan::input_windows;
    use bitflow::graph::{CompiledModel, LayerSpec, LayerWeights, NetworkSpec, NetworkWeights};
    let mut rng = StdRng::seed_from_u64(0xF125);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    for (case, (c, kh, kw, stride, pad, h, w)) in first_layer_cases().into_iter().enumerate() {
        let k = FIRST_LAYER_KS[case % FIRST_LAYER_KS.len()];
        let what = format!("c={c} k={k} {kh}x{kw} s={stride} p={pad} {h}x{w}");
        let spec = NetworkSpec {
            name: "first-layer".into(),
            input: Shape::hwc(h, w, c),
            layers: vec![
                LayerSpec::Conv {
                    name: "conv1".into(),
                    k,
                    params: ConvParams::new(kh, kw, stride, pad),
                },
                LayerSpec::Fc {
                    name: "fc1".into(),
                    k: 5,
                },
            ],
        };
        assert_eq!(
            input_windows(&spec).is_some(),
            kh * kw * c <= 64,
            "{what}: the rule"
        );
        let mut weights = NetworkWeights::random(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        // Thresholds drawn against the dots this map really produces, and
        // batch-norm statistics that fold to exactly them: γ = ±1, β = 0
        // leave `t = μ`, whatever μ is.
        let LayerWeights::Conv { w: conv_w, bn, .. } = &mut weights.layers[0] else {
            unreachable!("conv first")
        };
        let (dots, ..) = oracle::conv(
            &oracle::signs(input.data()),
            (h, w, c),
            &oracle::signs(conv_w),
            (k, kh, kw),
            stride,
            pad,
        );
        let fold = adversarial::fold(&mut rng, &dots, k, kh * kw * c);
        *bn = adversarial::bn_folding_to(fold);
        let want = oracle::logits(&spec, &weights, &input);

        let model = CompiledModel::try_compile(&spec, &weights).expect("compile");
        let mut ctx = model.try_new_context().expect("context");
        for parallel in [false, true] {
            ctx.parallel = parallel;
            let got = pool
                .install(|| model.try_infer(&mut ctx, &input))
                .expect("infer");
            assert_eq!(got, want, "{what} parallel={parallel}");
        }
    }
}

/// VGG-16's twelve 3×3 convs after the first, at full size through the
/// engine at the widest tier, each on the body the plan chose — the AMX
/// tile loop on a host with the matrix unit. The reference is the same conv
/// at operator level on the filter-lane loop, with the oracle's FC head
/// over its sign map: a small head turns every output bit into logits,
/// which must be equal, on serial and two-thread contexts alike.
#[test]
fn vgg16_conv_geometries_agree_on_every_body_through_the_engine() {
    use bitflow::graph::{CompiledModel, LayerSpec, LayerWeights, NetworkSpec, NetworkWeights};
    use bitflow_simd::conv::ConvBody;
    const VGG: [(&str, usize, usize, usize); 12] = [
        ("conv1.2", 224, 64, 64),
        ("conv2.1", 112, 64, 128),
        ("conv2.2", 112, 128, 128),
        ("conv3.1", 56, 128, 256),
        ("conv3.2", 56, 256, 256),
        ("conv3.3", 56, 256, 256),
        ("conv4.1", 28, 256, 512),
        ("conv4.2", 28, 512, 512),
        ("conv4.3", 28, 512, 512),
        ("conv5.1", 14, 512, 512),
        ("conv5.2", 14, 512, 512),
        ("conv5.3", 14, 512, 512),
    ];
    if !features().amx_int8 {
        println!(
            "vgg16 conv geometries: host lacks amx-int8, the engine runs the filter-lane loop too"
        );
    }
    let level = VectorScheduler::new().streaming_level();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    for (i, (name, hw, c, k)) in VGG.into_iter().enumerate() {
        let spec = NetworkSpec {
            name: name.into(),
            input: Shape::hwc(hw, hw, c),
            layers: vec![
                LayerSpec::Conv {
                    name: name.into(),
                    k,
                    params: ConvParams::VGG_CONV,
                },
                LayerSpec::Fc {
                    name: "head".into(),
                    k: 3,
                },
            ],
        };
        let mut rng = StdRng::seed_from_u64(0x0A3E + i as u64);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let LayerWeights::Conv { w, fshape, bn } = &weights.layers[0] else {
            unreachable!("conv first")
        };
        let mut map = BitTensor::zeros(hw, hw, k);
        pressed_conv_sign_into(
            level,
            &BitTensor::from_tensor_padded(&input, 1),
            &BitFilterBank::from_floats(w, *fshape),
            1,
            &SignThresholds::from_fold(&bn.fold(), 9 * c),
            &mut map,
            0,
            false,
            None,
        );
        let want = oracle::run(&spec, &weights, 1, oracle::Act::of(&map.to_tensor()));

        let model = CompiledModel::try_compile(&spec, &weights).expect("compile");
        let body = model.op_descriptors()[1]
            .body
            .expect("a conv names its body");
        assert_eq!(
            body.body == ConvBody::Amx,
            features().amx_int8,
            "{name}: {body}"
        );
        let mut ctx = model.try_new_context().expect("context");
        for parallel in [false, true] {
            ctx.parallel = parallel;
            let got = pool
                .install(|| model.try_infer(&mut ctx, &input))
                .expect("infer");
            assert_eq!(got, want, "{name} ({body}) parallel={parallel}");
        }
    }
}

/// The compile path presses with the vector kernel (`bitflow_simd::pack`
/// through `pack_rows`/`pack_transposed`); the bit-field loops of
/// `BitFilterBank::from_floats` and `pack_b_fused_columnwise` are the
/// reference. A model whose weights carry every value class of the
/// `x >= 0.0` contract — NaN of both signs, ±0.0, ±∞, subnormals — must hold
/// exactly the reference's banks and FC rows: C ∈ {3, 96, 160} covers the
/// sub-strip (window-pressed: one 27-bit tap a filter), word-and-a-half and
/// two-and-a-half-word taps, K = 13 the zero-padded lane group, and fc1's
/// N = 325 a press tail in every row.
#[test]
fn compiled_weights_are_the_reference_press() {
    use bitflow::graph::{CompiledModel, LayerSpec, LayerWeights, NetworkSpec, NetworkWeights};
    use bitflow_gemm::pack::pack_b_fused_columnwise;

    const SALT: [u32; 8] = [
        0x7FC0_0000, // NaN
        0xFFC0_0000, // −NaN
        0x0000_0000, // +0.0
        0x8000_0000, // −0.0
        0x7F80_0000, // +∞
        0xFF80_0000, // −∞
        0x0000_0001, // smallest subnormal
        0x8000_0001, // its negative
    ];
    let conv = |name: &str, k| LayerSpec::Conv {
        name: name.into(),
        k,
        params: ConvParams::VGG_CONV,
    };
    let fc = |name: &str, k| LayerSpec::Fc {
        name: name.into(),
        k,
    };
    let spec = NetworkSpec {
        name: "press-diff".into(),
        input: Shape::hwc(5, 5, 3),
        layers: vec![
            conv("conv1", 96),
            conv("conv2", 160),
            conv("conv3", 13),
            fc("fc1", 21),
            fc("fc2", 10),
        ],
    };
    let mut rng = StdRng::seed_from_u64(0x5A17);
    let mut weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    for lw in &mut weights.layers {
        if let LayerWeights::Conv { w, .. } | LayerWeights::Fc { w, .. } = lw {
            for x in w.iter_mut() {
                if rng.gen_range(0..4u32) == 0 {
                    *x = f32::from_bits(SALT[rng.gen_range(0..SALT.len())]);
                }
            }
        }
    }
    let model = CompiledModel::try_compile(&spec, &weights).expect("compile");
    let got = model.packed_weights();
    assert_eq!(got.len(), 5, "three banks and two FC matrices");
    for ((layer, lw), (name, words)) in spec.layers.iter().zip(&weights.layers).zip(got) {
        assert_eq!(name, layer.name());
        match lw {
            LayerWeights::Conv { w, fshape, .. } => {
                // conv1's 3×3×3 window is pressed whole: its floats,
                // in the same order, are one 27-bit tap.
                let pressed_as = match name {
                    "conv1" => FilterShape::new(fshape.k, 1, 1, 27),
                    _ => *fshape,
                };
                let want = BitFilterBank::from_floats(w, pressed_as);
                assert_eq!(words, want.lane_words(), "{name} bank");
            }
            LayerWeights::Fc { w, n, k, .. } => {
                let want = pack_b_fused_columnwise(w, *n, *k);
                assert_eq!(words, want.words.as_slice(), "{name} rows");
            }
            LayerWeights::Pool => unreachable!("no pool in this spec"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    fn pressed_conv_differential(
        (h, w) in (3usize..7, 3usize..7),
        c_idx in 0usize..CHANNELS.len(),
        k in 1usize..16,
        ksz in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let c = CHANNELS[c_idx];
        prop_assume!(h + 2 * pad >= ksz && w + 2 * pad >= ksz);
        let shape = Shape::hwc(h, w, c);
        let fshape = FilterShape::new(k, ksz, ksz, c);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor::from_vec(pm1_vec(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = pm1_vec(&mut rng, fshape.numel());
        let (dots, oh, ow) = oracle::conv(
            &oracle::signs(input.data()),
            (h, w, c),
            &oracle::signs(&weights),
            (k, ksz, ksz),
            stride,
            pad,
        );
        let fold = adversarial::fold(&mut rng, &dots, k, ksz * ksz * c);
        let want = oracle::threshold(&fold, k, &dots);
        let st = SignThresholds::from_fold(&fold, ksz * ksz * c);

        let pressed = BitTensor::from_tensor_padded(&input, pad);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        for (level, cap) in forced_levels(c) {
            let mut out = BitTensor::zeros(oh, ow, k);
            pressed_conv_sign_into(level, &pressed, &bank, stride, &st, &mut out, 0, false, None);
            prop_assert_eq!(
                &oracle::Act::unpress(&out, 0).v, &want,
                "conv c={} {:?} (cap {}) diverges from the oracle", c, level, cap
            );
        }
    }

    fn binary_fc_differential(
        n in 1usize..600,
        k in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let wfloat: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let weights = BinaryFcWeights::pack(&wfloat, n, k);
        let want: Vec<f32> = oracle::dense(&oracle::signs(&input), &oracle::signs(&wfloat), k)
            .into_iter()
            .map(|d| d as f32)
            .collect();
        let mut words = vec![0u64; n.div_ceil(64)];
        bitflow_simd::pack::pack_f32(&input, &mut words);
        for level in ALL_LEVELS {
            let mut got = vec![f32::NAN; k];
            weights.forward_into(level, &words, &mut got);
            prop_assert_eq!(&got, &want, "fc n={} {:?} diverges from the oracle", n, level);
        }
    }

    fn binary_pool_differential(
        (h, w) in (2usize..8, 2usize..8),
        c_idx in 0usize..CHANNELS.len(),
        ksz in 1usize..3,
        stride in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let c = CHANNELS[c_idx];
        prop_assume!(h >= ksz && w >= ksz);
        let shape = Shape::hwc(h, w, c);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor::from_vec(pm1_vec(&mut rng, shape.numel()), shape, Layout::Nhwc);

        // Float reference: max over the ±1 window is sign-exact.
        let float_ref = max_pool(&input, ConvParams::new(ksz, ksz, stride, 0));
        let pressed = BitTensor::from_tensor(&input);
        // Binary reference: scalar level.
        let reference = binary_max_pool(SimdLevel::Scalar, &pressed, ksz, ksz, stride);
        prop_assert_eq!(
            reference.to_tensor().max_abs_diff(&float_ref), 0.0,
            "scalar binary pool vs float reference c={}", c
        );

        for (level, cap) in forced_levels(c) {
            let got = binary_max_pool(level, &pressed, ksz, ksz, stride);
            prop_assert_eq!(
                got.words(), reference.words(),
                "pool c={} {:?} (cap {}) diverges bitwise", c, level, cap
            );
        }
    }
}
