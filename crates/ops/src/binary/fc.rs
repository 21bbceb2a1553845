//! Binary fully-connected operator (paper §III-C).
//!
//! "Binary fully connected operator is in essence doing binary matrix
//! matrix multiplication" — the operator wraps `bitflow-gemm`'s bgemm with
//! weights packed once at construction (network-level optimization:
//! binarize + pack + transpose weights during initialization, once and for
//! all). Vector parallelism runs over the N (input-neuron) dimension,
//! multi-core parallelism over the K (output-neuron) dimension.

use bitflow_gemm::bgemm::PAR_K_CHUNK;
use bitflow_gemm::pack::{pack_b_fused, PackedMatrix};
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::team;

/// Pre-packed binary FC weights: the fused binarize+pack+transpose product
/// of an N×K float weight matrix (paper Table III).
#[derive(Clone, Debug)]
pub struct BinaryFcWeights {
    packed: PackedMatrix,
    /// Input width.
    pub n: usize,
    /// Output width.
    pub k: usize,
}

impl BinaryFcWeights {
    /// Packs an N×K row-major float weight matrix.
    pub fn pack(weights: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(weights.len(), n * k);
        Self {
            packed: pack_b_fused(weights, n, k),
            n,
            k,
        }
    }

    /// All-zero weights of an N×K layer: the destination a press fills
    /// band by band ([`Self::bands_mut`]).
    pub fn zeros(n: usize, k: usize) -> Self {
        Self {
            packed: PackedMatrix::zeros(k, n),
            n,
            k,
        }
    }

    /// The packed rows in bands of `rows` (the last may be shorter), each
    /// with the output neuron — the float column — it starts at: disjoint
    /// runs of words that [`bitflow_simd::pack::pack_transposed_band`]
    /// presses one at a time, on any thread.
    pub fn bands_mut(&mut self, rows: usize) -> impl Iterator<Item = (usize, &mut [u64])> {
        let band = rows * self.packed.words_per_row;
        // An N = 0 layer has no words, so no bands.
        self.packed
            .words
            .chunks_mut(band.max(1))
            .enumerate()
            .map(move |(i, words)| (i * rows, words))
    }

    /// The packed matrix: row `j` is column `j` of the float weights.
    pub fn packed(&self) -> &PackedMatrix {
        &self.packed
    }

    /// Packed bytes (for model-size accounting).
    pub fn packed_bytes(&self) -> usize {
        self.packed.bytes()
    }

    /// Forward pass over an already-packed input given as raw words
    /// (length `ceil(n/64)`, press-tail zeros), writing the K dot products
    /// into `out`. Allocation-free — the engine's hot path.
    pub fn forward_into(&self, level: SimdLevel, input_words: &[u64], out: &mut [f32]) {
        self.check(input_words, out);
        self.dots(level, input_words, 0, out);
    }

    /// Multi-threaded [`Self::forward_into`]: output neurons over the
    /// worker team, [`PAR_K_CHUNK`] to a chunk like the binary GEMM's.
    pub fn forward_into_parallel(&self, level: SimdLevel, input_words: &[u64], out: &mut [f32]) {
        self.check(input_words, out);
        team::for_chunks_mut(out, PAR_K_CHUNK, |ci, outs| {
            self.dots(level, input_words, ci * PAR_K_CHUNK, outs)
        });
    }

    fn check(&self, input_words: &[u64], out: &[f32]) {
        assert_eq!(
            input_words.len(),
            self.packed.words_per_row,
            "input word count"
        );
        assert_eq!(out.len(), self.k, "output width");
    }

    /// The dots of output neurons `first..first + out.len()`.
    #[inline]
    fn dots(&self, level: SimdLevel, input_words: &[u64], first: usize, out: &mut [f32]) {
        for (kk, o) in (first..).zip(out) {
            *o = bitflow_simd::binary_dot(level, input_words, self.packed.row(kk), self.n) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sign(x: f32) -> f32 {
        if x >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// The input pressed as the engine hands it over: `⌈n/64⌉` words.
    fn press(input: &[f32]) -> Vec<u64> {
        let mut words = vec![0u64; input.len().div_ceil(64)];
        bitflow_simd::pack::pack_f32(input, &mut words);
        words
    }

    #[test]
    fn matches_float_reference() {
        let mut rng = StdRng::seed_from_u64(110);
        for (n, k) in [(64usize, 10usize), (100, 7), (512, 32), (25088 / 49, 16)] {
            let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let weights: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let packed = BinaryFcWeights::pack(&weights, n, k);
            let mut got = vec![f32::NAN; k];
            packed.forward_into(SimdLevel::Avx512, &press(&input), &mut got);
            for kk in 0..k {
                let want: f32 = (0..n)
                    .map(|i| sign(input[i]) * sign(weights[i * k + kk]))
                    .sum();
                assert_eq!(got[kk], want, "n={n} k={k} kk={kk}");
            }
        }
    }

    #[test]
    fn parallel_variant_agrees() {
        let mut rng = StdRng::seed_from_u64(111);
        // K over several PAR_K_CHUNKs, the last one short.
        let (n, k) = (300usize, 2 * PAR_K_CHUNK + 21);
        let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let weights: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let packed = BinaryFcWeights::pack(&weights, n, k);
        let words = press(&input);
        let (mut a, mut b) = (vec![f32::NAN; k], vec![f32::NAN; k]);
        packed.forward_into(SimdLevel::Scalar, &words, &mut a);
        packed.forward_into_parallel(SimdLevel::Avx2, &words, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn weight_compression() {
        let (n, k) = (4096usize, 4096usize);
        let packed = BinaryFcWeights::pack(&vec![0.5f32; n * k], n, k);
        assert_eq!((n * k * 4) / packed.packed_bytes(), 32);
    }
}
