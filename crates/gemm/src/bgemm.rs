//! Binary GEMM: xor+popcount matrix multiplication over packed operands.
//!
//! `C[m][k] = dot(A_row_m, B_col_k)` with the binary inner product of paper
//! Eq. 1. Parallelism assignment follows §III-C: **vector parallelism over
//! the N (reduction) dimension** — that's the packed-word stream each
//! [`bitflow_simd::binary_dot`] call consumes — and **multi-core parallelism
//! over the K (output-neuron) dimension**.
//!
//! The 4-way unrolled micro-kernel reuses each loaded A-row against four
//! B-rows, the bgemm analogue of the register-tiling the paper borrows from
//! the sgemm literature.

use crate::pack::{pack_a_rows, pack_b_fused, PackedMatrix};
use bitflow_simd::binary_dot;
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::team;

/// Binary GEMM over pre-packed operands: `a` holds M packed rows of N bits,
/// `bt` holds K packed rows of N bits (B already fused-transposed).
/// Writes the M×K integer dot products as `f32` into `c`.
///
/// # Panics
/// If the logical widths of `a` and `bt` differ or `c` is mis-sized.
pub fn bgemm_packed(level: SimdLevel, a: &PackedMatrix, bt: &PackedMatrix, c: &mut [f32]) {
    assert_eq!(a.n_logical, bt.n_logical, "reduction widths differ");
    assert_eq!(c.len(), a.rows * bt.rows, "output size");
    let n = a.n_logical;
    for mi in 0..a.rows {
        let arow = a.row(mi);
        let crow = &mut c[mi * bt.rows..(mi + 1) * bt.rows];
        bgemm_row(level, arow, bt, n, crow);
    }
}

/// One output row: A-row against all K packed B-rows, unrolled by 4.
#[inline]
fn bgemm_row(level: SimdLevel, arow: &[u64], bt: &PackedMatrix, n: usize, crow: &mut [f32]) {
    bgemm_block(level, arow, bt, 0, n, crow);
}

/// The shared micro-kernel: A-row against B-rows `kbase..kbase + out.len()`,
/// unrolled by 4. Both the serial row loop and the parallel chunk tasks land
/// here, so the two paths execute identical per-element code.
#[inline]
fn bgemm_block(
    level: SimdLevel,
    arow: &[u64],
    bt: &PackedMatrix,
    kbase: usize,
    n: usize,
    out: &mut [f32],
) {
    let quads = out.len() / 4;
    for q in 0..quads {
        let k0 = kbase + 4 * q;
        // Four independent popcount streams: the A-row words stay hot in
        // registers/L1 across all four (loop unrolling per paper §IV).
        let d0 = binary_dot(level, arow, bt.row(k0), n);
        let d1 = binary_dot(level, arow, bt.row(k0 + 1), n);
        let d2 = binary_dot(level, arow, bt.row(k0 + 2), n);
        let d3 = binary_dot(level, arow, bt.row(k0 + 3), n);
        out[4 * q] = d0 as f32;
        out[4 * q + 1] = d1 as f32;
        out[4 * q + 2] = d2 as f32;
        out[4 * q + 3] = d3 as f32;
    }
    for (j, o) in out.iter_mut().enumerate().skip(quads * 4) {
        *o = binary_dot(level, arow, bt.row(kbase + j), n) as f32;
    }
}

/// K-dimension chunk granted to each parallel task. Fixed (not derived from
/// the pool size) so the work partition — and thus the exact sequence of
/// kernel calls per chunk — is identical for every thread count. A multiple
/// of 4 keeps every full chunk on the unrolled quad path of
/// [`bgemm_block`].
pub const PAR_K_CHUNK: usize = 32;

/// Micro-kernel tile geometry of one bgemm call with M×K outputs reducing
/// over N bits, in the paper's convention (N = reduction / vector axis,
/// K = output / multi-core axis). Pure arithmetic over the problem shape —
/// telemetry uses it to attach tile stats to GEMM-backed operators without
/// touching the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BgemmTileStats {
    /// M dimension (rows / output pixels).
    pub m: usize,
    /// K dimension (output columns / neurons).
    pub k: usize,
    /// N (reduction) dimension in packed 64-bit words.
    pub n_words: usize,
    /// Full 4-way-unrolled quads per output row in [`bgemm_block`].
    pub quads: usize,
    /// Remainder outputs per row on the non-unrolled tail.
    pub tail: usize,
    /// Output-column chunk granted to each parallel task
    /// ([`PAR_K_CHUNK`]).
    pub par_k_chunk: usize,
}

/// Tile geometry for a serial bgemm of `m`×`k` outputs over `n` reduction
/// bits.
pub fn tile_stats(m: usize, n: usize, k: usize) -> BgemmTileStats {
    BgemmTileStats {
        m,
        k,
        n_words: n.div_ceil(64),
        quads: k / 4,
        tail: k % 4,
        par_k_chunk: PAR_K_CHUNK,
    }
}

/// Multi-threaded binary GEMM: output columns (K) are distributed over the
/// worker team in contiguous chunks — the paper's multi-core
/// parallelism over the K dimension for binary FC operators. Each chunk
/// runs the same 4-way unrolled micro-kernel as [`bgemm_packed`], and the
/// chunk boundaries are deterministic (independent of the pool size), so
/// output is bit-identical to the serial path.
pub fn bgemm_packed_parallel(level: SimdLevel, a: &PackedMatrix, bt: &PackedMatrix, c: &mut [f32]) {
    assert_eq!(a.n_logical, bt.n_logical, "reduction widths differ");
    assert_eq!(c.len(), a.rows * bt.rows, "output size");
    let n = a.n_logical;
    let k = bt.rows;
    for mi in 0..a.rows {
        let arow = a.row(mi);
        let crow = &mut c[mi * k..(mi + 1) * k];
        team::for_chunks_mut(crow, PAR_K_CHUNK, |ci, out| {
            bgemm_block(level, arow, bt, ci * PAR_K_CHUNK, n, out);
        });
    }
}

/// Convenience entry point: binarize+pack both float matrices, then run
/// binary GEMM. `a` is M×N, `b` is N×K (both row-major floats). This is the
/// whole-operator path benchmarked against [`crate::sgemm::sgemm_opt`];
/// production inference instead packs B once at init and calls
/// [`bgemm_packed`].
pub fn bgemm_f32(
    level: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * n);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * k);
    let pa = pack_a_rows(a, m, n);
    let pb = pack_b_fused(b, n, k);
    bgemm_packed(level, &pa, &pb, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgemm::sgemm_naive;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sign(x: f32) -> f32 {
        if x >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Float reference: sgemm over sign(A), sign(B) gives the exact integer
    /// binary dot products (values small enough for exact f32).
    fn reference(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let sa: Vec<f32> = a.iter().copied().map(sign).collect();
        let sb: Vec<f32> = b.iter().copied().map(sign).collect();
        let mut c = vec![0.0f32; m * k];
        sgemm_naive(&sa, &sb, &mut c, m, n, k);
        c
    }

    fn levels() -> [SimdLevel; 4] {
        [
            SimdLevel::Scalar,
            SimdLevel::Sse,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ]
    }

    #[test]
    fn bgemm_matches_float_reference() {
        let mut rng = StdRng::seed_from_u64(50);
        for (m, n, k) in [
            (1usize, 64usize, 8usize),
            (1, 63, 5),
            (1, 65, 7),
            (3, 128, 16),
            (2, 500, 9),
            (1, 1024, 33),
        ] {
            let a: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let want = reference(&a, &b, m, n, k);
            for level in levels() {
                let mut c = vec![0.0f32; m * k];
                bgemm_f32(level, &a, &b, &mut c, m, n, k);
                assert_eq!(c, want, "{level} m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(51);
        let (m, n, k) = (2usize, 300usize, 37usize);
        let a: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let pa = pack_a_rows(&a, m, n);
        let pb = pack_b_fused(&b, n, k);
        let mut c1 = vec![0.0f32; m * k];
        let mut c2 = vec![0.0f32; m * k];
        bgemm_packed(SimdLevel::Avx512, &pa, &pb, &mut c1);
        bgemm_packed_parallel(SimdLevel::Avx512, &pa, &pb, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn parallel_bit_exact_across_pool_sizes() {
        // The chunk partition must not depend on the installed pool, and
        // every chunk shares the serial micro-kernel — so any thread count
        // yields the serial result bit-for-bit. K values probe chunk
        // boundaries: below one chunk, exactly one, straddling, and a
        // non-multiple-of-4 tail inside the last chunk.
        let mut rng = StdRng::seed_from_u64(52);
        for k in [1usize, 31, 32, 33, 64, 70, 129] {
            let (m, n) = (3usize, 200usize);
            let a: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let pa = pack_a_rows(&a, m, n);
            let pb = pack_b_fused(&b, n, k);
            let mut serial = vec![0.0f32; m * k];
            bgemm_packed(SimdLevel::Avx512, &pa, &pb, &mut serial);
            for threads in [1usize, 2, 5] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let mut par = vec![0.0f32; m * k];
                pool.install(|| bgemm_packed_parallel(SimdLevel::Avx512, &pa, &pb, &mut par));
                assert_eq!(serial, par, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn all_plus_one_inputs() {
        // A, B all +1: every dot product equals N exactly.
        let (m, n, k) = (1usize, 200usize, 6usize);
        let a = vec![1.0f32; m * n];
        let b = vec![1.0f32; n * k];
        let mut c = vec![0.0f32; m * k];
        bgemm_f32(SimdLevel::Avx512, &a, &b, &mut c, m, n, k);
        assert!(c.iter().all(|&x| x == n as f32));
    }

    #[test]
    fn orthogonal_inputs() {
        // A = +1s, B column alternating ±1 over even N: dot = 0.
        let (n, k) = (64usize, 1usize);
        let a = vec![1.0f32; n];
        let b: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut c = vec![0.0f32; 1];
        bgemm_f32(SimdLevel::Scalar, &a, &b, &mut c, 1, n, k);
        assert_eq!(c[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "reduction widths")]
    fn width_mismatch_panics() {
        let a = PackedMatrix::zeros(1, 64);
        let b = PackedMatrix::zeros(1, 128);
        let mut c = vec![0.0f32; 1];
        bgemm_packed(SimdLevel::Scalar, &a, &b, &mut c);
    }
}
