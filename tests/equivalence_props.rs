//! Property-based cross-crate equivalence tests: the operators the engine
//! runs must agree exactly with the integer oracle (`tests/common/oracle.rs`)
//! over the full input space, for all SIMD levels, arbitrary shapes, and
//! both padding conventions.

#[path = "common/adversarial.rs"]
mod adversarial;
#[path = "common/oracle.rs"]
mod oracle;

use bitflow::prelude::*;
use proptest::prelude::*;

fn sign(x: f32) -> f32 {
    if x >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// Strategy: a ±1 tensor of the given size.
fn pm1_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(prop_oneof![Just(-1.0f32), Just(1.0f32)], len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// PressedConv's sign bits are the oracle's folded signs of its dots
    /// (−1 padding) under adversarial thresholds, for random geometry,
    /// channels across all scheduler tiers, and every SIMD level.
    #[test]
    fn pressed_conv_signs_equal_the_oracle(
        h in 3usize..8,
        w in 3usize..8,
        c_idx in 0usize..5,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let c = [3usize, 32, 64, 96, 130][c_idx];
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n_in = h * w * c;
        let input_v: Vec<f32> = (0..n_in).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let fshape = FilterShape::new(k, 3, 3, c);
        let weights: Vec<f32> = (0..fshape.numel()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let input = Tensor::from_vec(input_v, Shape::hwc(h, w, c), Layout::Nhwc);
        let (dots, ..) = oracle::conv(
            &oracle::signs(input.data()), (h, w, c), &oracle::signs(&weights), (k, 3, 3), 1, 1,
        );
        let fold = adversarial::fold(&mut rng, &dots, k, 9 * c);
        let want = oracle::threshold(&fold, k, &dots);
        let st = SignThresholds::from_fold(&fold, 9 * c);

        let pressed = BitTensor::from_tensor_padded(&input, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        for level in [SimdLevel::Scalar, SimdLevel::Sse, SimdLevel::Avx2, SimdLevel::Avx512] {
            let mut out = BitTensor::zeros(h + 2, w + 2, k);
            pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut out, 1, false, None);
            prop_assert_eq!(&oracle::Act::unpress(&out, 1).v, &want, "level {}", level);
        }
    }

    /// The binary FC's dots are the oracle's for arbitrary (non-±1) float
    /// inputs and weights, serial and over the worker team.
    #[test]
    fn binary_fc_equals_the_oracle(
        n in 1usize..300,
        k in 1usize..20,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let weights: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let packed = BinaryFcWeights::pack(&weights, n, k);
        let mut words = vec![0u64; n.div_ceil(64)];
        bitflow::simd::pack::pack_f32(&input, &mut words);
        let want = oracle::dense(&oracle::signs(&input), &oracle::signs(&weights), k);
        let (mut serial, mut parallel) = (vec![f32::NAN; k], vec![f32::NAN; k]);
        packed.forward_into(SimdLevel::Avx512, &words, &mut serial);
        packed.forward_into_parallel(SimdLevel::Avx512, &words, &mut parallel);
        for kk in 0..k {
            prop_assert_eq!(serial[kk], want[kk] as f32);
            prop_assert_eq!(parallel[kk], want[kk] as f32);
        }
    }

    /// Binary max-pool equals float max-pool on ±1 data for any window
    /// geometry that fits.
    #[test]
    fn binary_pool_equals_float_pool(
        h in 2usize..9,
        w in 2usize..9,
        c_idx in 0usize..4,
        win in 1usize..3,
        data in pm1_vec(8 * 8 * 96), // upper-bound size, sliced below
    ) {
        let c = [1usize, 33, 64, 96][c_idx];
        let needed = h * w * c;
        prop_assume!(needed <= data.len());
        prop_assume!(win <= h && win <= w);
        let stride = win; // non-overlapping windows
        let t = Tensor::from_vec(data[..needed].to_vec(), Shape::hwc(h, w, c), Layout::Nhwc);
        let want = bitflow::ops::float::max_pool(&t, ConvParams::new(win, win, stride, 0));
        let pressed = BitTensor::from_tensor(&t);
        let got = binary_max_pool(SimdLevel::Avx512, &pressed, win, win, stride).to_tensor();
        prop_assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    /// bgemm (via the facade's binary FC weights) matches sgemm over signed
    /// matrices: the gemm-level contract.
    #[test]
    fn bgemm_matches_sgemm_on_signs(
        m in 1usize..4,
        n in 1usize..150,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut got = vec![0.0f32; m * k];
        bitflow::gemm::bgemm_f32(SimdLevel::Avx2, &a, &b, &mut got, m, n, k);
        let sa: Vec<f32> = a.iter().copied().map(sign).collect();
        let sb: Vec<f32> = b.iter().copied().map(sign).collect();
        let mut want = vec![0.0f32; m * k];
        bitflow::gemm::sgemm_naive(&sa, &sb, &mut want, m, n, k);
        prop_assert_eq!(got, want);
    }

    /// Packing is involutive: pack → unpack → pack is the identity on the
    /// packed form (press-tail invariant holds throughout).
    #[test]
    fn pack_unpack_pack_identity(
        h in 1usize..5,
        w in 1usize..5,
        c in 1usize..130,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::from_fn(Shape::hwc(h, w, c), Layout::Nhwc, |_, _, _, _| {
            rng.gen_range(-1.0f32..1.0)
        });
        let packed = BitTensor::from_tensor(&t);
        prop_assert!(packed.tail_is_zero());
        let unpacked = packed.to_tensor();
        let repacked = BitTensor::from_tensor(&unpacked);
        prop_assert_eq!(packed.words(), repacked.words());
    }
}
