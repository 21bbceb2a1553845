//! Property tests for the operator level: float reference agreement across
//! arbitrary geometry, and the binary/float equivalences the engine rests on.

use bitflow_ops::binary::{
    binarize_threshold_padded, binary_conv_im2col, binary_max_pool, pressed_conv,
    pressed_conv_sign_into, BnFold, SignThresholds,
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

    /// PressedConv equals the −1-padded float reference for any geometry
    /// the engine can produce, at every level.
    #[test]
    fn pressed_conv_equals_reference(
        h in 3usize..7,
        w in 3usize..7,
        c_idx in 0usize..4,
        k in 1usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        let c = [3usize, 33, 64, 100][c_idx];
        let input = pm1_tensor(seed, h, w, c);
        let f = FilterShape::new(k, 3, 3, c);
        prop_assume!(3 <= h + 2 * pad && 3 <= w + 2 * pad);
        let weights = pm1_weights(seed ^ 1, f);
        let want = reference_conv(&input, &weights, f, stride, pad);
        let pressed = BitTensor::from_tensor_padded(&input, pad);
        let bank = BitFilterBank::from_floats(&weights, f);
        for level in [SimdLevel::Unvectorized, SimdLevel::Scalar, SimdLevel::Avx512] {
            let got = pressed_conv(level, &pressed, &bank, stride);
            prop_assert_eq!(got.max_abs_diff(&want), 0.0, "{}", level);
        }
    }

    /// The im2col binary conv agrees with PressedConv (two algorithms, one
    /// function).
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
        let a = binary_conv_im2col(SimdLevel::Scalar, &input, &weights, f, params);
        let pressed = BitTensor::from_tensor_padded(&input, pad);
        let bank = BitFilterBank::from_floats(&weights, f);
        let b = pressed_conv(SimdLevel::Avx2, &pressed, &bank, 1);
        prop_assert_eq!(a.max_abs_diff(&b), 0.0);
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

    /// Fused conv+sign equals counts-then-threshold, including flipped
    /// channels and padded outputs.
    #[test]
    fn fused_conv_sign_equals_two_pass(
        h in 3usize..6,
        w in 3usize..6,
        c_idx in 0usize..3,
        k in 1usize..70,
        out_pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        let c = [16usize, 64, 96][c_idx];
        let input = pm1_tensor(seed, h, w, c);
        let f = FilterShape::new(k, 3, 3, c);
        let weights = pm1_weights(seed ^ 3, f);
        let pressed = BitTensor::from_tensor_padded(&input, 1);
        let bank = BitFilterBank::from_floats(&weights, f);
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 4);
        let thresholds: Vec<f32> = (0..k).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let flip: Vec<bool> = (0..k).map(|_| rng.gen()).collect();

        let counts = pressed_conv(SimdLevel::Avx512, &pressed, &bank, 1);
        let want = binarize_threshold_padded(&counts, &thresholds, &flip, out_pad);

        let st = SignThresholds::from_fold(&BnFold { thresholds, flip }, 3 * 3 * c);
        let mut got = BitTensor::zeros(h + 2 * out_pad, w + 2 * out_pad, k);
        pressed_conv_sign_into(SimdLevel::Avx512, &pressed, &bank, 1, &st, &mut got, out_pad, false, None);
        prop_assert_eq!(got.words(), want.words());
        prop_assert!(got.tail_is_zero());
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
