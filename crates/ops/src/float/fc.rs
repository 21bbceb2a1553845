//! Float fully-connected operator (single-precision GEMM).

use bitflow_gemm::bgemm::PAR_K_CHUNK;
use bitflow_gemm::sgemm::sgemm_pretransposed;
use bitflow_simd::team;

/// Fully-connected, `out = input · W` for input 1×N, with the transposed
/// weight matrix Wᵀ (K×N row-major) — the transpose hoisted to set-up, as
/// a production float engine does.
pub fn fc_pretransposed(input: &[f32], wt: &[f32], n: usize, k: usize) -> Vec<f32> {
    assert_eq!(input.len(), n);
    assert_eq!(wt.len(), n * k);
    let mut out = vec![0.0f32; k];
    sgemm_pretransposed(input, wt, &mut out, 1, n, k);
    out
}

/// Multi-threaded fully-connected: output neurons over the worker team.
pub fn fc_parallel(input: &[f32], wt: &[f32], n: usize, k: usize) -> Vec<f32> {
    assert_eq!(input.len(), n);
    assert_eq!(wt.len(), n * k);
    let mut out = vec![0.0f32; k];
    team::for_chunks_mut(&mut out, PAR_K_CHUNK, |ci, outs| {
        for (ki, o) in (ci * PAR_K_CHUNK..).zip(outs) {
            let row = &wt[ki * n..(ki + 1) * n];
            *o = input.iter().zip(row).map(|(a, b)| a * b).sum();
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitflow_gemm::sgemm::transpose;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn fc_matches_manual_dot() {
        let input = vec![1.0, 2.0, 3.0];
        // W 3x2 (n x k): columns are [1,0,1] and [0,1,-1].
        let weights = vec![1.0, 0.0, 0.0, 1.0, 1.0, -1.0];
        let out = fc_pretransposed(&input, &transpose(&weights, 3, 2), 3, 2);
        assert_eq!(out, vec![4.0, -1.0]);
    }

    #[test]
    fn variants_agree() {
        let mut rng = StdRng::seed_from_u64(70);
        let (n, k) = (300usize, 17usize);
        let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let weights: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let wt = transpose(&weights, n, k);
        let a = fc_pretransposed(&input, &wt, n, k);
        let b = fc_parallel(&input, &wt, n, k);
        for i in 0..k {
            assert!((a[i] - b[i]).abs() < 1e-4);
        }
    }
}
