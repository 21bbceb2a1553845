//! Property tests for the SIMD kernel substrate: every vectorized kernel
//! must agree bit-exactly with the portable SWAR reference on arbitrary
//! inputs, lengths and geometries.

use bitflow_simd::conv::{conv_rows, ConvGeom, ConvSink, LANES};
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::pack::{pack_f32, pack_rows, pack_transposed};
use bitflow_simd::popcount::popcount_swar;
use bitflow_simd::{binary_dot, or_accumulate, xor_popcount};
use proptest::prelude::*;

const LEVELS: [SimdLevel; 5] = [
    SimdLevel::Unvectorized,
    SimdLevel::Scalar,
    SimdLevel::Sse,
    SimdLevel::Avx2,
    SimdLevel::Avx512,
];

fn reference_pop(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| popcount_swar(x ^ y) as u64)
        .sum()
}

/// Floats with every value class the `x >= 0.0` contract names mixed in:
/// NaN of both signs, ±0.0, ±∞, subnormals of both signs.
fn salted(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<f32> {
    use rand::Rng;
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
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => f32::from_bits(SALT[rng.gen_range(0..SALT.len())]),
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect()
}

/// The press grid: row-stripe (512), block (64), column-tile (256) and
/// strip (8/16) edges and their neighbours on both axes.
const PRESS_NS: [usize; 9] = [0, 1, 63, 64, 65, 511, 512, 513, 1030];
const PRESS_KS: [usize; 11] = [0, 1, 7, 8, 15, 16, 17, 255, 256, 257, 300];

#[test]
fn pack_transposed_is_the_sign_reference_at_every_level_and_tail() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E3);
    for n in PRESS_NS {
        for k in PRESS_KS {
            let b = salted(&mut rng, n * k);
            let wpr = n.div_ceil(64);
            // Pure reference, press tail zero by construction.
            let mut want = vec![0u64; k * wpr];
            for (i, &x) in b.iter().enumerate() {
                if x >= 0.0 {
                    want[(i % k) * wpr + i / k / 64] |= 1 << (i / k % 64);
                }
            }
            for level in LEVELS {
                // Poisoned: every word, press tails included, is written.
                let mut out = vec![!0u64; k * wpr];
                pack_transposed(level, &b, n, k, &mut out);
                assert_eq!(out, want, "{level} n={n} k={k}");
            }
        }
    }
}

#[test]
fn pack_rows_is_the_sign_reference_at_every_level_and_tail() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E2);
    // Rows of a ragged matrix: the PRESS_KS as row lengths.
    for rows in [1usize, 3] {
        for row_len in PRESS_KS.into_iter().chain([63, 64, 65, 1030]) {
            let src = salted(&mut rng, rows * row_len);
            let wpr = row_len.div_ceil(64);
            let mut want = vec![0u64; rows * wpr];
            for (i, &x) in src.iter().enumerate() {
                if x >= 0.0 {
                    want[i / row_len * wpr + i % row_len / 64] |= 1 << (i % row_len % 64);
                }
            }
            for level in LEVELS {
                let mut out = vec![!0u64; rows * wpr];
                pack_rows(level, &src, rows, row_len, &mut out);
                assert_eq!(out, want, "{level} rows={rows} row_len={row_len}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "matrix size")]
fn pack_transposed_rejects_a_short_matrix_before_the_kernel() {
    let mut out = vec![0u64; 300 * 2];
    pack_transposed(
        SimdLevel::Avx512,
        &vec![0.0; 100 * 300 - 1],
        100,
        300,
        &mut out,
    );
}

#[test]
#[should_panic(expected = "output word count")]
fn pack_transposed_rejects_a_short_output_before_the_kernel() {
    let mut out = vec![0u64; 300 * 2 - 1];
    pack_transposed(SimdLevel::Avx512, &vec![0.0; 100 * 300], 100, 300, &mut out);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn xor_popcount_matches_reference(
        words in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..600),
    ) {
        let a: Vec<u64> = words.iter().map(|w| w.0).collect();
        let b: Vec<u64> = words.iter().map(|w| w.1).collect();
        let want = reference_pop(&a, &b);
        for level in LEVELS {
            prop_assert_eq!(xor_popcount(level, &a, &b), want, "{}", level);
        }
    }

    #[test]
    fn or_accumulate_matches_reference(
        words in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..300),
    ) {
        let base: Vec<u64> = words.iter().map(|w| w.0).collect();
        let src: Vec<u64> = words.iter().map(|w| w.1).collect();
        let want: Vec<u64> = base.iter().zip(&src).map(|(&x, &y)| x | y).collect();
        for level in LEVELS {
            let mut acc = base.clone();
            or_accumulate(level, &mut acc, &src);
            prop_assert_eq!(&acc, &want, "{}", level);
        }
    }

    #[test]
    fn binary_dot_bounds_and_parity(
        words in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..100),
        tail_bits in 1usize..=64,
    ) {
        // Mask the final word so n_logical is honest and tails are zero in
        // both operands (the press-tail invariant the kernels rely on).
        let mut a: Vec<u64> = words.iter().map(|w| w.0).collect();
        let mut b: Vec<u64> = words.iter().map(|w| w.1).collect();
        let mask = if tail_bits == 64 { !0u64 } else { (1u64 << tail_bits) - 1 };
        let last = a.len() - 1;
        a[last] &= mask;
        b[last] &= mask;
        let n = (a.len() - 1) * 64 + tail_bits;
        for level in LEVELS {
            let dot = binary_dot(level, &a, &b, n);
            // |dot| ≤ n and dot ≡ n (mod 2).
            prop_assert!(dot.unsigned_abs() as usize <= n);
            prop_assert_eq!((n as i32 - dot).rem_euclid(2), 0);
        }
    }

    #[test]
    fn pack_matches_sign_reference(
        xs in proptest::collection::vec(-2.0f32..2.0, 0..400),
    ) {
        let mut out = vec![0u64; xs.len().div_ceil(64)];
        pack_f32(&xs, &mut out);
        for (i, &x) in xs.iter().enumerate() {
            let bit = (out[i / 64] >> (i % 64)) & 1;
            prop_assert_eq!(bit == 1, x >= 0.0, "element {}", i);
        }
        // Tail bits zero.
        if xs.len() % 64 != 0 {
            prop_assert_eq!(out[xs.len() / 64] >> (xs.len() % 64), 0);
        }
    }

    #[test]
    fn conv_rows_matches_swar_reference_everywhere(
        (kh, kw) in (1usize..4, 1usize..4),
        c_words in 1usize..5,
        stride in 1usize..3,
        (out_h, out_w) in (1usize..4, 1usize..11),
        slack in 0usize..3,
        k in 1usize..20,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let in_w = (out_w - 1) * stride + kw + slack;
        let in_h = (out_h - 1) * stride + kh;
        let g = ConvGeom { c_words, in_w, kh, kw, stride, out_w, k };
        let input: Vec<u64> = (0..in_h * in_w * c_words).map(|_| rng.gen()).collect();
        let per_filter = kh * kw * c_words;
        let flat: Vec<u64> = (0..k * per_filter).map(|_| rng.gen()).collect();
        let mut bank = vec![0u64; k.div_ceil(LANES) * per_filter * LANES];
        for kk in 0..k {
            for t in 0..per_filter {
                bank[((kk / LANES) * per_filter + t) * LANES + kk % LANES] = flat[kk * per_filter + t];
            }
        }
        let mut pops = vec![0i64; out_h * out_w * k];
        for (o, pop) in pops.iter_mut().enumerate() {
            let (kk, ox, oy) = (o % k, o / k % out_w, o / k / out_w);
            for r in 0..kh {
                for i in 0..kw * c_words {
                    let a = input[((oy * stride + r) * in_w + ox * stride) * c_words + i];
                    *pop += popcount_swar(a ^ flat[(kk * kh + r) * kw * c_words + i]) as i64;
                }
            }
        }
        // Every lane's bound is the popcount of one of its pixels, or one
        // below it: a popcount off by one either way flips that pixel's bit.
        let mut bounds = vec![-1i64; k.div_ceil(LANES) * LANES];
        for (kk, b) in bounds[..k].iter_mut().enumerate() {
            *b = pops[rng.gen_range(0..out_h * out_w) * k + kk] - rng.gen_range(0..2i64);
        }
        // Flip bits past K are the caller's to keep zero.
        let ocw = k.div_ceil(64);
        let mut flips: Vec<u64> = (0..ocw).map(|_| rng.gen()).collect();
        if k % 64 != 0 {
            flips[ocw - 1] &= !0 >> (64 - k % 64);
        }
        let mut want = vec![0u64; out_h * out_w * ocw];
        for (o, &pop) in pops.iter().enumerate() {
            let kk = o % k;
            if (pop <= bounds[kk]) ^ ((flips[kk / 64] >> (kk % 64)) & 1 == 1) {
                want[o / k * ocw + kk / 64] |= 1 << (kk % 64);
            }
        }
        for level in LEVELS {
            let mut out = vec![!0u64; want.len()];
            let sink = ConvSink { bounds: &bounds, flips: &flips, out: &mut out, origin: 0, row_stride: out_w * ocw, amx: None };
            conv_rows(level, &input, &bank, &g, 0..out_h, sink);
            prop_assert_eq!(&out, &want, "{}", level);
        }
    }

    #[test]
    fn xor_popcount_self_is_zero(ws in proptest::collection::vec(any::<u64>(), 0..200)) {
        for level in LEVELS {
            prop_assert_eq!(xor_popcount(level, &ws, &ws), 0);
        }
    }

    #[test]
    fn xor_popcount_complement_is_full(ws in proptest::collection::vec(any::<u64>(), 0..200)) {
        let inv: Vec<u64> = ws.iter().map(|w| !w).collect();
        for level in LEVELS {
            prop_assert_eq!(xor_popcount(level, &ws, &inv), ws.len() as u64 * 64);
        }
    }
}
