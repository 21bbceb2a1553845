//! Property tests for the gemm level: the optimized kernels against naive
//! references, and algebraic identities of binary GEMM.

use bitflow_gemm::bgemm::{bgemm_f32, bgemm_packed};
use bitflow_gemm::pack::{pack_a_rows, pack_b_fused, pack_b_fused_columnwise, pack_b_staged};
use bitflow_gemm::sgemm::{sgemm_naive, sgemm_opt, sgemm_parallel, transpose};
use bitflow_simd::kernels::SimdLevel;
use proptest::prelude::*;

fn sign(x: f32) -> f32 {
    if x >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

fn mat(seed: u64, len: usize) -> Vec<f32> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Like [`mat`], with every value class of the `x >= 0.0` contract mixed
/// in: NaN of both signs, ±0.0, ±∞, subnormals of both signs.
fn salted_mat(seed: u64, len: usize) -> Vec<f32> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    const SALT: [u32; 8] = [
        0x7FC0_0000,
        0xFFC0_0000,
        0x0000_0000,
        0x8000_0000,
        0x7F80_0000,
        0xFF80_0000,
        0x0000_0001,
        0x8000_0001,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => f32::from_bits(SALT[rng.gen_range(0..SALT.len())]),
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect()
}

/// The tiled press against both references on every tile edge: row stripe
/// (512), transpose block (64), column tile (256), compare strip (8/16) and
/// their neighbours, on both axes.
#[test]
fn pack_variants_identical_on_every_tile_tail() {
    for n in [0usize, 1, 63, 64, 65, 511, 512, 513, 1030] {
        for k in [0usize, 1, 7, 8, 15, 16, 17, 255, 256, 257, 300] {
            let b = salted_mat((n * 1000 + k) as u64, n * k);
            let fused = pack_b_fused(&b, n, k);
            assert_eq!(fused, pack_b_fused_columnwise(&b, n, k), "n={n} k={k}");
            assert_eq!(fused, pack_b_staged(&b, n, k), "n={n} k={k}");
            assert_eq!((fused.rows, fused.n_logical), (k, n));
            for kj in 0..k {
                let row = fused.row(kj);
                for (i, x) in b.iter().skip(kj).step_by(k).enumerate() {
                    assert_eq!((row[i / 64] >> (i % 64)) & 1 == 1, *x >= 0.0);
                }
                if n % 64 != 0 {
                    assert_eq!(row[n / 64] >> (n % 64), 0, "press tail n={n} k={k}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "B is not n×k")]
fn pack_b_fused_rejects_a_wrong_length_before_the_kernel() {
    pack_b_fused(&[0.0; 100 * 30 - 1], 100, 30);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn sgemm_opt_matches_naive(
        m in 1usize..5,
        n in 1usize..300,
        k in 1usize..20,
        seed in any::<u64>(),
    ) {
        let a = mat(seed, m * n);
        let b = mat(seed ^ 1, n * k);
        let mut want = vec![0.0f32; m * k];
        let mut got = vec![0.0f32; m * k];
        sgemm_naive(&a, &b, &mut want, m, n, k);
        sgemm_opt(&a, &b, &mut got, m, n, k);
        let tol = 1e-4 * n as f32;
        for (x, y) in want.iter().zip(&got) {
            prop_assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn sgemm_parallel_matches_opt(
        m in 1usize..4,
        n in 1usize..200,
        k in 1usize..16,
        seed in any::<u64>(),
    ) {
        let a = mat(seed, m * n);
        let b = mat(seed ^ 2, n * k);
        let mut x = vec![0.0f32; m * k];
        let mut y = vec![0.0f32; m * k];
        sgemm_opt(&a, &b, &mut x, m, n, k);
        sgemm_parallel(&a, &b, &mut y, m, n, k);
        let tol = 1e-4 * n as f32;
        for (p, q) in x.iter().zip(&y) {
            prop_assert!((p - q).abs() <= tol);
        }
    }

    #[test]
    fn transpose_involution(n in 1usize..20, k in 1usize..20, seed in any::<u64>()) {
        let b = mat(seed, n * k);
        prop_assert_eq!(transpose(&transpose(&b, n, k), k, n), b);
    }

    #[test]
    fn all_pack_variants_identical(n in 1usize..260, k in 1usize..80, seed in any::<u64>()) {
        let b = mat(seed, n * k);
        let fused = pack_b_fused(&b, n, k);
        prop_assert_eq!(&fused, &pack_b_staged(&b, n, k));
        prop_assert_eq!(&fused, &pack_b_fused_columnwise(&b, n, k));
    }

    #[test]
    fn bgemm_matches_sign_sgemm(
        m in 1usize..3,
        n in 1usize..200,
        k in 1usize..12,
        seed in any::<u64>(),
    ) {
        let a = mat(seed, m * n);
        let b = mat(seed ^ 3, n * k);
        let sa: Vec<f32> = a.iter().copied().map(sign).collect();
        let sb: Vec<f32> = b.iter().copied().map(sign).collect();
        let mut want = vec![0.0f32; m * k];
        sgemm_naive(&sa, &sb, &mut want, m, n, k);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            let mut got = vec![0.0f32; m * k];
            bgemm_f32(level, &a, &b, &mut got, m, n, k);
            prop_assert_eq!(&got, &want, "{}", level);
        }
    }

    #[test]
    fn bgemm_negating_b_negates_c(n in 1usize..150, k in 1usize..10, seed in any::<u64>()) {
        // sign(-x) = -sign(x) except at exact zero; avoid zeros.
        let a: Vec<f32> = mat(seed, n).iter().map(|x| x + 1e-3).collect();
        let b: Vec<f32> = mat(seed ^ 4, n * k).iter().map(|x| x + 1e-3).collect();
        let neg_b: Vec<f32> = b.iter().map(|x| -x).collect();
        let mut c1 = vec![0.0f32; k];
        let mut c2 = vec![0.0f32; k];
        bgemm_f32(SimdLevel::Avx512, &a, &b, &mut c1, 1, n, k);
        bgemm_f32(SimdLevel::Avx512, &a, &neg_b, &mut c2, 1, n, k);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert_eq!(*x, -y);
        }
    }

    #[test]
    fn bgemm_packed_rowwise_consistency(
        n in 1usize..150,
        k in 1usize..10,
        seed in any::<u64>(),
    ) {
        // Computing rows one at a time equals the all-at-once product.
        let m = 3usize;
        let a = mat(seed, m * n);
        let b = mat(seed ^ 5, n * k);
        let pa = pack_a_rows(&a, m, n);
        let pb = pack_b_fused(&b, n, k);
        let mut full = vec![0.0f32; m * k];
        bgemm_packed(SimdLevel::Avx512, &pa, &pb, &mut full);
        for mi in 0..m {
            let row_a = pack_a_rows(&a[mi * n..(mi + 1) * n], 1, n);
            let mut row_c = vec![0.0f32; k];
            bgemm_packed(SimdLevel::Avx512, &row_a, &pb, &mut row_c);
            prop_assert_eq!(&full[mi * k..(mi + 1) * k], row_c.as_slice());
        }
    }
}
