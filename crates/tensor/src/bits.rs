//! Binarization primitives — the Rust counterpart of the paper's
//! `bit64_t` / `bit64_u` data structures (paper Table II).
//!
//! The C implementation uses a 64-member bit-field struct unioned with a
//! `uint64_t` so that 64 comparisons `p[i] >= 0.0f` assemble a packed word
//! with no explicit shifting. In Rust the idiomatic equivalent is a
//! newtype over `u64` with `set_bit`; the optimizer lowers the
//! comparison+or chain to the same branch-free code. [`Bit64::pack64`]
//! is the fused binarize+pack step used throughout the engine.

use serde::{Deserialize, Serialize};

/// Binarizes one `f32` with the paper's activation function (Eq. 3):
/// `sign(x) = +1 if x >= 0 else −1`, encoded as a single bit
/// (+1 → 1, −1 → 0).
#[inline(always)]
pub fn binarize_f32(x: f32) -> u64 {
    // `>= 0.0` is true for +0.0 and -0.0 per IEEE-754 compare, matching the
    // paper's `p[i] >= 0.0f` (sign(0) = +1).
    (x >= 0.0) as u64
}

/// A 64-bit packed word of binarized values; bit `i` holds the encoding of
/// logical element `i` (LSB-first).
///
/// Equivalent to the paper's `bit64_u` union: build the word bit by bit from
/// float comparisons, read it out as one `u64`, which is all it holds.
///
/// ```
/// assert_eq!(std::mem::size_of::<bitflow_tensor::Bit64>(), 8);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Bit64(pub u64);

impl Bit64 {
    /// The all-(−1) word (all bits clear).
    pub const ZERO: Bit64 = Bit64(0);

    /// Sets bit `i` (0..64) to `v`.
    #[inline(always)]
    pub fn set_bit(&mut self, i: usize, v: bool) {
        debug_assert!(i < 64);
        self.0 = (self.0 & !(1u64 << i)) | ((v as u64) << i);
    }

    /// Reads bit `i`.
    #[inline(always)]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 64);
        (self.0 >> i) & 1 == 1
    }

    /// Decodes bit `i` back to the logical value +1 / −1.
    #[inline(always)]
    pub fn value(&self, i: usize) -> i32 {
        if self.bit(i) {
            1
        } else {
            -1
        }
    }

    /// Fused binarization + bit-packing of exactly 64 contiguous floats
    /// (paper Table II/III): bit `i` = `xs[i] >= 0`.
    ///
    /// ```
    /// use bitflow_tensor::Bit64;
    /// let mut xs = [-0.5f32; 64];
    /// xs[0] = 1.0;
    /// xs[63] = 0.0; // sign(0) = +1
    /// let word = Bit64::pack64(&xs);
    /// assert!(word.bit(0) && word.bit(63) && !word.bit(1));
    /// assert_eq!(word.0, 1 | (1 << 63));
    /// ```
    #[inline]
    pub fn pack64(xs: &[f32; 64]) -> Bit64 {
        let mut w = 0u64;
        // The loop compiles to 64 branch-free cmp+or operations; on AVX-512
        // targets LLVM further vectorizes it into compare-into-mask ops.
        for (i, &x) in xs.iter().enumerate() {
            w |= binarize_f32(x) << i;
        }
        Bit64(w)
    }

    /// Fused binarization + packing of up to 64 floats with a stride between
    /// consecutive logical elements. A stride of `k` walking down a column
    /// performs the paper's *implicit transposition* (Table III): values that
    /// are `k` apart in memory land in adjacent bits of the packed word.
    ///
    /// `len` may be < 64; the remaining high bits are left 0, i.e. padded
    /// elements encode −1 — callers that pad must pad *both* operands so
    /// that pad bits xor to 0 (see crate docs on padding correctness).
    #[inline]
    pub fn pack_strided(xs: &[f32], stride: usize, len: usize) -> Bit64 {
        debug_assert!(len <= 64);
        debug_assert!(len == 0 || (len - 1) * stride < xs.len());
        let mut w = 0u64;
        for i in 0..len {
            w |= binarize_f32(xs[i * stride]) << i;
        }
        Bit64(w)
    }

    /// Unpacks into logical {−1,+1} values (first `len` bits).
    pub fn unpack(&self, len: usize) -> Vec<i32> {
        (0..len).map(|i| self.value(i)).collect()
    }
}

/// Binarizes a float slice into packed `u64` words, LSB-first within each
/// word; the final partial word (if any) is zero-padded high.
pub fn pack_slice(xs: &[f32], out: &mut [u64]) {
    assert_eq!(out.len(), xs.len().div_ceil(64), "output word count");
    let mut chunks = xs.chunks_exact(64);
    let mut wi = 0;
    for chunk in chunks.by_ref() {
        let arr: &[f32; 64] = chunk.try_into().expect("chunk of 64");
        out[wi] = Bit64::pack64(arr).0;
        wi += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        out[wi] = Bit64::pack_strided(rem, 1, rem.len()).0;
    }
}

/// Decodes packed words back to {−1.0, +1.0} floats (for testing and for
/// layers that mix binary and float domains).
pub fn unpack_slice(words: &[u64], len: usize, out: &mut [f32]) {
    assert!(len <= words.len() * 64);
    assert_eq!(out.len(), len);
    for (i, o) in out.iter_mut().enumerate() {
        let bit = (words[i / 64] >> (i % 64)) & 1;
        *o = if bit == 1 { 1.0 } else { -1.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binarize_sign_convention() {
        assert_eq!(binarize_f32(3.2), 1);
        assert_eq!(binarize_f32(0.0), 1, "sign(0) = +1 per paper Eq. 3");
        assert_eq!(binarize_f32(-0.0), 1, "-0.0 >= 0.0 in IEEE-754");
        assert_eq!(binarize_f32(-1e-30), 0);
        assert_eq!(binarize_f32(f32::INFINITY), 1);
        assert_eq!(binarize_f32(f32::NEG_INFINITY), 0);
    }

    #[test]
    fn set_and_get_bits() {
        let mut b = Bit64::ZERO;
        b.set_bit(0, true);
        b.set_bit(63, true);
        assert!(b.bit(0) && b.bit(63) && !b.bit(32));
        assert_eq!(b.0, 1 | (1 << 63));
        b.set_bit(63, false);
        assert_eq!(b.0, 1);
        assert_eq!(b.value(0), 1);
        assert_eq!(b.value(1), -1);
    }

    #[test]
    fn pack64_lsb_first() {
        let mut xs = [-1.0f32; 64];
        xs[0] = 1.0;
        xs[5] = 0.0; // sign(0) = +1
        let w = Bit64::pack64(&xs);
        assert_eq!(w.0, (1 << 0) | (1 << 5));
    }

    #[test]
    fn pack_strided_transposes() {
        // 4 columns of stride 4: packing column 1 takes elements 1, 5, 9.
        let xs = [
            -1.0f32, 1.0, -1.0, -1.0, //
            -1.0, -1.0, -1.0, -1.0, //
            -1.0, 1.0, -1.0, -1.0,
        ];
        let w = Bit64::pack_strided(&xs[1..], 4, 3);
        assert_eq!(w.0, (1 << 0) | (1 << 2));
    }

    #[test]
    fn pack_unpack_slice_round_trip() {
        let xs: Vec<f32> = (0..150)
            .map(|i| if (i * 7) % 3 == 0 { 0.5 } else { -0.5 })
            .collect();
        let mut words = vec![0u64; 150usize.div_ceil(64)];
        pack_slice(&xs, &mut words);
        let mut decoded = vec![0.0f32; 150];
        unpack_slice(&words, 150, &mut decoded);
        for (x, d) in xs.iter().zip(&decoded) {
            assert_eq!(*d, if *x >= 0.0 { 1.0 } else { -1.0 });
        }
        // Padding bits of the last word are zero.
        assert_eq!(words[2] >> (150 - 128), 0);
    }

    #[test]
    fn unpack_via_bit64() {
        let w = Bit64(0b1011);
        assert_eq!(w.unpack(4), vec![1, 1, -1, 1]);
    }
}
