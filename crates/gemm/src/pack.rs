//! Matrix binarization and packing, including the paper's Table III fusion.
//!
//! For `C = A·B` with A of M×N and B of N×K, the binary kernel wants:
//!
//! * each **row of A** packed along N (unit stride — cheap), and
//! * each **column of B** packed along N (stride K — this is where the
//!   paper fuses binarization, bit-packing and *implicit transposition*
//!   into one pass: walking a column with stride K and depositing bits
//!   LSB-first produces the transposed packed layout directly).
//!
//! Both presses are thin callers of the one kernel family in
//! `bitflow_simd::pack`. The paper's own column walk
//! ([`pack_b_fused_columnwise`]) and the staged alternative (transpose
//! floats, then pack rows: [`pack_b_staged`]) are kept as the references the
//! tests, the paper report's Table III and the `ablation` bench compare
//! against.

use bitflow_simd::pack::{pack_rows, pack_transposed};
use bitflow_simd::VectorScheduler;

/// A bit-packed matrix: `rows` packed bit-vectors of `n_logical` bits each,
/// stored as `words_per_row` `u64`s per row (press-tail zeros).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedMatrix {
    /// Packed storage, row-major.
    pub words: Vec<u64>,
    /// Number of packed rows.
    pub rows: usize,
    /// Logical bits per row (the reduction length N).
    pub n_logical: usize,
    /// `u64` words per row.
    pub words_per_row: usize,
}

impl PackedMatrix {
    /// Allocates an all-zero packed matrix.
    pub fn zeros(rows: usize, n_logical: usize) -> Self {
        let words_per_row = n_logical.div_ceil(64);
        Self {
            words: vec![0u64; rows * words_per_row],
            rows,
            n_logical,
            words_per_row,
        }
    }

    /// Packed words of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Mutable packed words of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Packed size in bytes (for compression-ratio accounting).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Packs the M rows of a row-major M×N float matrix (activations):
/// fused binarize + pack along the unit-stride N dimension.
pub fn pack_a_rows(a: &[f32], m: usize, n: usize) -> PackedMatrix {
    assert_eq!(a.len(), m * n);
    let mut out = PackedMatrix::zeros(m, n);
    pack_rows(
        VectorScheduler::new().streaming_level(),
        a,
        m,
        n,
        &mut out.words,
    );
    out
}

/// Paper Table III: fused binarization + bit-packing + implicit
/// transposition of the N×K weight matrix `b`. Output row `k` holds the
/// packed bits of B's column `k` (length N), i.e. `Bᵀ` in packed form,
/// produced in one pass with no float transpose and no intermediate buffer.
///
/// The pass itself is [`bitflow_simd::pack::pack_transposed`]: the paper's
/// bit-field loop walks one column at a time (stride K between the 64
/// elements of a word), touching each of B's cache lines K/16 times from
/// cold; the kernel reads every line once, in 1 KB runs of a 512-row ×
/// 256-column tile, and transposes 64 row masks at a time in registers.
/// Bit-for-bit identical to the two references below (tests compare all
/// three), strictly a traversal-order change.
pub fn pack_b_fused(b: &[f32], n: usize, k: usize) -> PackedMatrix {
    assert_eq!(b.len(), n * k, "B is not n×k");
    let mut out = PackedMatrix::zeros(k, n);
    pack_transposed(
        VectorScheduler::new().streaming_level(),
        b,
        n,
        k,
        &mut out.words,
    );
    out
}

/// The paper's original single-column traversal (strided bit-field loop,
/// `bit64.b.bI = p[I*k] >= 0.0f`), kept for the packing ablation.
pub fn pack_b_fused_columnwise(b: &[f32], n: usize, k: usize) -> PackedMatrix {
    assert_eq!(b.len(), n * k);
    let mut out = PackedMatrix::zeros(k, n);
    let wpr = out.words_per_row;
    for kj in 0..k {
        let row = &mut out.words[kj * wpr..(kj + 1) * wpr];
        for (wi, word) in row.iter_mut().enumerate() {
            let base = wi * 64;
            let len = 64.min(n - base);
            let mut w = 0u64;
            for bit in 0..len {
                let x = b[(base + bit) * k + kj];
                w |= ((x >= 0.0) as u64) << bit;
            }
            *word = w;
        }
    }
    out
}

/// Staged baseline for the fusion ablation: float-transpose B, then binarize
/// and pack each row. Produces bit-identical output to [`pack_b_fused`] at
/// the cost of an extra N×K float pass and buffer.
pub fn pack_b_staged(b: &[f32], n: usize, k: usize) -> PackedMatrix {
    assert_eq!(b.len(), n * k);
    let bt = crate::sgemm::transpose(b, n, k);
    pack_a_rows(&bt, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn fused_equals_staged() {
        let mut rng = StdRng::seed_from_u64(40);
        for (n, k) in [
            (1usize, 1usize),
            (64, 4),
            (65, 3),
            (128, 10),
            (100, 7),
            (513, 2),
        ] {
            let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let fused = pack_b_fused(&b, n, k);
            let staged = pack_b_staged(&b, n, k);
            assert_eq!(fused, staged, "n={n} k={k}");
        }
    }

    #[test]
    fn degenerate_shapes_yield_well_formed_empties() {
        // n == 0: rows exist but carry zero words each.
        let p = pack_b_fused(&[], 0, 3);
        assert_eq!(
            (p.rows, p.n_logical, p.words_per_row, p.words.len()),
            (3, 0, 0, 0)
        );
        assert_eq!(p.row(2), &[] as &[u64]);
        assert_eq!(p, pack_b_staged(&[], 0, 3));
        assert_eq!(p, pack_b_fused_columnwise(&[], 0, 3));

        // k == 0: no rows at all.
        let p = pack_b_fused(&[], 5, 0);
        assert_eq!(
            (p.rows, p.n_logical, p.words_per_row, p.words.len()),
            (0, 5, 1, 0)
        );
        assert_eq!(p, pack_b_staged(&[], 5, 0));

        // pack_a_rows mirrors both cases.
        let p = pack_a_rows(&[], 0, 5);
        assert_eq!((p.rows, p.words.len()), (0, 0));
        let p = pack_a_rows(&[], 2, 0);
        assert_eq!((p.rows, p.words_per_row, p.words.len()), (2, 0, 0));
        assert_eq!(p.row(1), &[] as &[u64]);

        // zeros with no rows still records the row geometry.
        let p = PackedMatrix::zeros(0, 128);
        assert_eq!(
            (p.rows, p.n_logical, p.words_per_row, p.words.len()),
            (0, 128, 2, 0)
        );
        assert_eq!(p.bytes(), 0);
    }

    #[test]
    fn fused_bit_semantics() {
        // B 3x2: column 0 = [1, -1, 1], column 1 = [-1, -1, 0].
        let b = vec![1.0f32, -1.0, -1.0, -1.0, 1.0, 0.0];
        let p = pack_b_fused(&b, 3, 2);
        assert_eq!(p.rows, 2);
        assert_eq!(p.row(0), &[0b101]);
        assert_eq!(p.row(1), &[0b100]); // sign(0) = +1 at bit 2
    }

    #[test]
    fn pack_a_rows_unit_stride() {
        let a = vec![1.0f32, -1.0, 1.0, /* row 2 */ -1.0, -1.0, -1.0];
        let p = pack_a_rows(&a, 2, 3);
        assert_eq!(p.row(0), &[0b101]);
        assert_eq!(p.row(1), &[0b000]);
        assert_eq!(p.n_logical, 3);
    }

    #[test]
    fn blocked_equals_columnwise() {
        let mut rng = StdRng::seed_from_u64(45);
        for (n, k) in [
            (1usize, 1usize),
            (64, 64),
            (65, 63),
            (100, 70),
            (200, 130),
            (513, 5),
        ] {
            let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            assert_eq!(
                pack_b_fused(&b, n, k),
                pack_b_fused_columnwise(&b, n, k),
                "n={n} k={k}"
            );
        }
    }

    #[test]
    fn press_tail_zero() {
        let mut rng = StdRng::seed_from_u64(41);
        let (n, k) = (70usize, 3usize);
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let p = pack_b_fused(&b, n, k);
        assert_eq!(p.words_per_row, 2);
        for kj in 0..k {
            assert_eq!(p.row(kj)[1] >> (70 - 64), 0, "tail bits must be zero");
        }
    }

    #[test]
    fn packed_matrix_geometry() {
        let p = PackedMatrix::zeros(3, 130);
        assert_eq!(p.words_per_row, 3);
        assert_eq!(p.row(2).len(), 3);
        assert_eq!(p.bytes(), 3 * 3 * 8);
    }

    #[test]
    fn compression_ratio_is_32x() {
        // Float N×K bytes vs packed K rows of N bits.
        let (n, k) = (4096usize, 64usize);
        let p = PackedMatrix::zeros(k, n);
        assert_eq!((n * k * 4) / p.bytes(), 32);
    }
}
