//! Single-precision GEMM baselines.
//!
//! BitFlow is compared against "counterpart full-precision operators"; those
//! baselines must themselves be competently optimized or the reported
//! speedups would be inflated. [`sgemm_opt`] applies the standard CPU sgemm
//! techniques the paper references (§IV, citing BLIS/BLASX): transpose B
//! for unit-stride reads, block for cache, unroll the inner loop so LLVM
//! autovectorizes to FMA.

use crate::bgemm::PAR_K_CHUNK;
use bitflow_simd::team;

/// Cache-block size along the reduction dimension (f32 elements).
const BLOCK_N: usize = 256;
/// Cache-block size along the output-column dimension.
const BLOCK_K: usize = 64;

/// Naive triple-loop reference: `C[m][k] = Σ_n A[m][n] · B[n][k]`.
///
/// Used as the correctness oracle; never benchmarked as "the" float
/// baseline.
pub fn sgemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * k);
    for mi in 0..m {
        for ki in 0..k {
            let mut acc = 0.0f32;
            for ni in 0..n {
                acc += a[mi * n + ni] * b[ni * k + ki];
            }
            c[mi * k + ki] = acc;
        }
    }
}

/// Transposes row-major `b` (n×k) into row-major k×n.
pub fn transpose(b: &[f32], n: usize, k: usize) -> Vec<f32> {
    assert_eq!(b.len(), n * k);
    let mut bt = vec![0.0f32; n * k];
    for ni in 0..n {
        for ki in 0..k {
            bt[ki * n + ni] = b[ni * k + ki];
        }
    }
    bt
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Four independent accumulators break the FP dependency chain so LLVM
    // vectorizes and pipelines the loop (tiling + unrolling per paper §IV).
    let mut acc = [0.0f32; 4];
    let chunks = a.chunks_exact(4).zip(b.chunks_exact(4));
    for (ca, cb) in chunks {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let rem = a.len() / 4 * 4;
    let mut tail = 0.0f32;
    for i in rem..a.len() {
        tail += a[i] * b[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Optimized single-thread sgemm: B transposed once, then blocked
/// unit-stride dot products.
pub fn sgemm_opt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * k);
    let bt = transpose(b, n, k);
    sgemm_pretransposed(a, &bt, c, m, n, k);
}

/// Optimized sgemm over an already-transposed B (k×n row-major). Lets
/// callers hoist the transpose out of the timed region, the same way BitFlow
/// hoists weight packing to network initialization.
pub fn sgemm_pretransposed(a: &[f32], bt: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n);
    assert_eq!(bt.len(), n * k);
    assert_eq!(c.len(), m * k);
    for mi in 0..m {
        let arow = &a[mi * n..(mi + 1) * n];
        let crow = &mut c[mi * k..(mi + 1) * k];
        for k0 in (0..k).step_by(BLOCK_K) {
            let k1 = (k0 + BLOCK_K).min(k);
            for n0 in (0..n).step_by(BLOCK_N) {
                let n1 = (n0 + BLOCK_N).min(n);
                for ki in k0..k1 {
                    let brow = &bt[ki * n + n0..ki * n + n1];
                    let partial = dot(&arow[n0..n1], brow);
                    if n0 == 0 {
                        crow[ki] = partial;
                    } else {
                        crow[ki] += partial;
                    }
                }
            }
        }
    }
}

/// Multi-threaded sgemm: rows of C in parallel when M > 1, otherwise columns
/// of C in parallel (the batch-1 inference case), over the worker team —
/// benchmark harnesses install a sized thread-count scope per measurement.
pub fn sgemm_parallel(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * k);
    let bt = transpose(b, n, k);
    if m > 1 {
        team::for_chunks_mut(c, k, |mi, crow| {
            let arow = &a[mi * n..(mi + 1) * n];
            for ki in 0..k {
                crow[ki] = dot(arow, &bt[ki * n..(ki + 1) * n]);
            }
        });
    } else {
        team::for_chunks_mut(c, PAR_K_CHUNK, |ci, outs| {
            for (ki, out) in (ci * PAR_K_CHUNK..).zip(outs) {
                *out = dot(a, &bt[ki * n..(ki + 1) * n]);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn opt_matches_naive() {
        let mut rng = StdRng::seed_from_u64(30);
        for (m, n, k) in [
            (1, 4, 4),
            (3, 5, 7),
            (2, 300, 70),
            (1, 1000, 33),
            (4, 64, 64),
        ] {
            let a = random_mat(&mut rng, m * n);
            let b = random_mat(&mut rng, n * k);
            let mut c1 = vec![0.0; m * k];
            let mut c2 = vec![0.0; m * k];
            sgemm_naive(&a, &b, &mut c1, m, n, k);
            sgemm_opt(&a, &b, &mut c2, m, n, k);
            assert_close(&c1, &c2, 1e-3 * n as f32);
        }
    }

    #[test]
    fn parallel_matches_naive() {
        let mut rng = StdRng::seed_from_u64(31);
        for (m, n, k) in [(1, 128, 64), (5, 50, 50), (1, 513, 17)] {
            let a = random_mat(&mut rng, m * n);
            let b = random_mat(&mut rng, n * k);
            let mut c1 = vec![0.0; m * k];
            let mut c2 = vec![0.0; m * k];
            sgemm_naive(&a, &b, &mut c1, m, n, k);
            sgemm_parallel(&a, &b, &mut c2, m, n, k);
            assert_close(&c1, &c2, 1e-3 * n as f32);
        }
    }

    #[test]
    fn transpose_correct() {
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let bt = transpose(&b, 2, 3);
        assert_eq!(bt, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // 3x2
    }

    #[test]
    fn pretransposed_skips_transpose() {
        let mut rng = StdRng::seed_from_u64(32);
        let (m, n, k) = (2, 70, 30);
        let a = random_mat(&mut rng, m * n);
        let b = random_mat(&mut rng, n * k);
        let bt = transpose(&b, n, k);
        let mut c1 = vec![0.0; m * k];
        let mut c2 = vec![0.0; m * k];
        sgemm_opt(&a, &b, &mut c1, m, n, k);
        sgemm_pretransposed(&a, &bt, &mut c2, m, n, k);
        assert_close(&c1, &c2, 1e-5);
    }

    #[test]
    fn identity_matrix() {
        let n = 8;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(33);
        let a = random_mat(&mut rng, 3 * n);
        let mut c = vec![0.0; 3 * n];
        sgemm_opt(&a, &eye, &mut c, 3, n, n);
        assert_close(&c, &a, 1e-6);
    }

    #[test]
    fn degenerate_dims() {
        // k = 1 column, n = 1 reduction.
        let a = vec![2.0, 3.0];
        let b = vec![4.0];
        let mut c = vec![0.0; 2];
        sgemm_opt(&a, &b, &mut c, 2, 1, 1);
        assert_eq!(c, vec![8.0, 12.0]);
    }
}
