//! Property tests for the operator level: float reference agreement across
//! arbitrary geometry, and the binary/float equivalences the engine rests on.

use bitflow_ops::binary::{
    binary_conv_im2col, binary_max_pool, pressed_conv_sign_into, BnFold, SignThresholds,
};
use bitflow_ops::float::{conv_direct, conv_im2col, max_pool};
use bitflow_ops::{ConvParams, SimdLevel};
use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use proptest::prelude::*;

fn pm1_tensor(seed: u64, h: usize, w: usize, c: usize) -> Tensor {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape::hwc(h, w, c), Layout::Nhwc, |_, _, _, _| {
        if rng.gen::<bool>() {
            1.0
        } else {
            -1.0
        }
    })
}

fn pm1_weights(seed: u64, f: FilterShape) -> Vec<f32> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..f.numel())
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect()
}

/// −1-padded float reference convolution.
fn reference_conv(
    input: &Tensor,
    weights: &[f32],
    f: FilterShape,
    stride: usize,
    pad: usize,
) -> Tensor {
    let s = input.shape();
    let padded = Tensor::from_fn(
        Shape::hwc(s.h + 2 * pad, s.w + 2 * pad, s.c),
        Layout::Nhwc,
        |_, y, x, c| {
            if y < pad || y >= s.h + pad || x < pad || x >= s.w + pad {
                -1.0
            } else {
                input.at(0, y - pad, x - pad, c)
            }
        },
    );
    conv_direct(&padded, weights, f, ConvParams::new(f.kh, f.kw, stride, 0))
}

/// Thresholds for a map of integer dots, in both compare directions: a tie
/// with one of the channel's own dots (so a popcount off by one either way
/// flips a bit), or a fraction in ±10.
fn fold_for(seed: u64, dots: &Tensor) -> BnFold {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let k = dots.shape().c;
    let pixels = dots.data().len() / k;
    BnFold {
        thresholds: (0..k)
            .map(|kk| match rng.gen_range(0..3u32) {
                0 => rng.gen_range(-10.0f32..10.0),
                _ => dots.data()[rng.gen_range(0..pixels) * k + kk],
            })
            .collect(),
        flip: (0..k).map(|_| rng.gen()).collect(),
    }
}

/// The sign conv at `level`, into an `out_pad`-padded map, is the folded
/// compare of the reference `dots`; margins and the press tail stay zero.
fn sign_conv_matches(
    level: SimdLevel,
    (pressed, bank, stride): (&BitTensor, &BitFilterBank, usize),
    dots: &Tensor,
    fold: &BnFold,
    out_pad: usize,
) -> Result<(), TestCaseError> {
    let (s, f) = (dots.shape(), bank.shape());
    let st = SignThresholds::from_fold(fold, f.kh * f.kw * f.c);
    let mut got = BitTensor::zeros(s.h + 2 * out_pad, s.w + 2 * out_pad, s.c);
    pressed_conv_sign_into(
        level, pressed, bank, stride, &st, &mut got, out_pad, false, None,
    );
    let mut want = BitTensor::zeros(s.h + 2 * out_pad, s.w + 2 * out_pad, s.c);
    for (i, &x) in dots.data().iter().enumerate() {
        if fold.sign(i % s.c, x) {
            want.set(i / s.c / s.w + out_pad, i / s.c % s.w + out_pad, i % s.c, 1);
        }
    }
    prop_assert_eq!(got.words(), want.words(), "{}", level);
    Ok(())
}

/// Geometries the property below draws rarely, at every level: each
/// scheduler tier's channel width with K = 70 (a partial output word),
/// strides 2–3 with and without padding, and a 1×1 kernel.
#[test]
fn fixed_geometries_match_the_reference() {
    let mut cases = Vec::new();
    for c in [3usize, 32, 64, 128, 160, 256] {
        cases.push((
            Shape::hwc(5, 6, c),
            FilterShape::new(70, 3, 3, c),
            1,
            1,
            c % 2,
        ));
    }
    for (stride, pad) in [(1usize, 0usize), (2, 0), (2, 1), (3, 0)] {
        let f = FilterShape::new(4, 3, 3, 64);
        cases.push((Shape::hwc(9, 9, 64), f, stride, pad, 1));
    }
    cases.push((Shape::hwc(3, 3, 64), FilterShape::new(2, 1, 1, 64), 1, 0, 0));
    for (case, (s, f, stride, pad, out_pad)) in cases.into_iter().enumerate() {
        let seed = 90 + case as u64;
        let input = pm1_tensor(seed, s.h, s.w, s.c);
        let weights = pm1_weights(seed ^ 1, f);
        let dots = reference_conv(&input, &weights, f, stride, pad);
        let fold = fold_for(seed ^ 4, &dots);
        let pressed = BitTensor::from_tensor_padded(&input, pad);
        let bank = BitFilterBank::from_floats(&weights, f);
        for level in [
            SimdLevel::Unvectorized,
            SimdLevel::Scalar,
            SimdLevel::Sse,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ] {
            sign_conv_matches(level, (&pressed, &bank, stride), &dots, &fold, out_pad)
                .unwrap_or_else(|e| panic!("case {case} {s:?} {f:?} stride {stride}: {e:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Float im2col conv equals direct conv for arbitrary kernel/stride/pad.
    #[test]
    fn float_im2col_matches_direct(
        h in 3usize..8,
        w in 3usize..8,
        c in 1usize..8,
        k in 1usize..5,
        kh in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        prop_assume!(kh <= h + 2 * pad && kh <= w + 2 * pad);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor::random(Shape::hwc(h, w, c), Layout::Nhwc, &mut rng);
        let f = FilterShape::new(k, kh, kh, c);
        let weights: Vec<f32> = (0..f.numel()).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
        let params = ConvParams::new(kh, kh, stride, pad);
        let a = conv_direct(&input, &weights, f, params);
        let b = conv_im2col(&input, &weights, f, params);
        prop_assert!(a.max_abs_diff(&b) < 1e-3);
    }

    /// PressedConv's signs are the folded compare of the −1-padded float
    /// reference for any geometry the engine can produce, at every level,
    /// into padded and unpadded outputs, with partial output words.
    #[test]
    fn pressed_conv_equals_reference(
        h in 3usize..7,
        w in 3usize..7,
        c_idx in 0usize..4,
        k in 1usize..70,
        stride in 1usize..3,
        pad in 0usize..2,
        out_pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        let c = [3usize, 33, 64, 100][c_idx];
        let input = pm1_tensor(seed, h, w, c);
        let f = FilterShape::new(k, 3, 3, c);
        prop_assume!(3 <= h + 2 * pad && 3 <= w + 2 * pad);
        let weights = pm1_weights(seed ^ 1, f);
        let dots = reference_conv(&input, &weights, f, stride, pad);
        let fold = fold_for(seed ^ 4, &dots);
        let pressed = BitTensor::from_tensor_padded(&input, pad);
        let bank = BitFilterBank::from_floats(&weights, f);
        for level in [SimdLevel::Unvectorized, SimdLevel::Scalar, SimdLevel::Avx512] {
            sign_conv_matches(level, (&pressed, &bank, stride), &dots, &fold, out_pad)?;
        }
    }

    /// The im2col binary conv's counts, thresholded, are PressedConv's
    /// signs (two algorithms, one function).
    #[test]
    fn binary_algorithms_agree(
        h in 3usize..7,
        w in 3usize..7,
        c in 1usize..50,
        k in 1usize..4,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        let input = pm1_tensor(seed, h, w, c);
        let f = FilterShape::new(k, 3, 3, c);
        prop_assume!(3 <= h + 2 * pad && 3 <= w + 2 * pad);
        let weights = pm1_weights(seed ^ 2, f);
        let params = ConvParams::new(3, 3, 1, pad);
        let counts = binary_conv_im2col(SimdLevel::Scalar, &input, &weights, f, params);
        let fold = fold_for(seed ^ 3, &counts);
        let pressed = BitTensor::from_tensor_padded(&input, pad);
        let bank = BitFilterBank::from_floats(&weights, f);
        sign_conv_matches(SimdLevel::Avx2, (&pressed, &bank, 1), &counts, &fold, 0)?;
    }

    /// Binary OR-pool equals float max-pool on ±1 data for any window.
    #[test]
    fn binary_pool_equals_float(
        h in 2usize..9,
        w in 2usize..9,
        c in 1usize..70,
        win in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(win <= h && win <= w);
        let t = pm1_tensor(seed, h, w, c);
        let want = max_pool(&t, ConvParams::new(win, win, win, 0));
        let pressed = BitTensor::from_tensor(&t);
        let got = binary_max_pool(SimdLevel::Avx512, &pressed, win, win, win).to_tensor();
        prop_assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    /// AIT formulas: intrinsic ≥ im2col-achievable always; fraction in (0,1].
    #[test]
    fn ait_ordering(
        h in 4usize..64,
        c in 1usize..512,
        k in 1usize..512,
    ) {
        use bitflow_ops::ait::ConvAit;
        prop_assume!(h >= 3);
        let a = ConvAit::full_precision(Shape::hwc(h, h, c), FilterShape::new(k, 3, 3, c));
        prop_assert!(a.im2col() <= a.intrinsic());
        let f = a.im2col_fraction();
        prop_assert!(f > 0.0 && f <= 1.0);
    }
}
