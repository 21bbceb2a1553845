//! Pressed (bit-packed) tensors — the data structure behind PressedConv.
//!
//! A [`BitTensor`] stores a binarized NHWC activation map with the channel
//! dimension packed into `u64` words (paper Fig. 3: a H×W×C tensor is
//! *pressed* by 32–64× along C). A [`BitFilterBank`] stores a bank of
//! binarized convolution filters packed the same way, so that the inner
//! loop of a binary convolution is a straight run of xor+popcount over two
//! parallel word arrays.

use crate::alloc::AlignedVec;
use crate::bits::pack_slice;
use crate::shape::{FilterShape, Layout, Shape};
use crate::tensor::Tensor;
use crate::{words_for, WORD_BITS};

/// A binarized activation tensor, batch 1, NHWC with channels packed into
/// `u64` words.
///
/// Storage: word `j` of pixel (h, w) lives at `(h·W + w)·c_words + j` and
/// holds channels `[64j, 64j+64)` LSB-first. Channels beyond `c_logical`
/// (the zero-padded press tail) are always 0; the packing and arithmetic
/// layers preserve this invariant so that `dot = N_logical − 2·popcount`
/// holds exactly (see crate docs).
#[derive(Clone, Debug)]
pub struct BitTensor {
    words: AlignedVec<u64>,
    h: usize,
    w: usize,
    c_logical: usize,
    c_words: usize,
}

impl BitTensor {
    /// Allocates an all-zero (all −1) pressed tensor.
    pub fn zeros(h: usize, w: usize, c: usize) -> Self {
        let c_words = words_for(c);
        Self {
            words: AlignedVec::zeroed(h * w * c_words),
            h,
            w,
            c_logical: c,
            c_words,
        }
    }

    /// Packs a float NHWC tensor (batch 1) into pressed form: fused
    /// binarization + bit-packing along the channel dimension.
    pub fn from_tensor(t: &Tensor) -> Self {
        assert_eq!(t.layout(), Layout::Nhwc, "pressing requires NHWC");
        let s = t.shape();
        assert_eq!(s.n, 1, "BitTensor is batch-1 (latency-oriented inference)");
        let mut bt = Self::zeros(s.h, s.w, s.c);
        for h in 0..s.h {
            for w in 0..s.w {
                let src = t.pixel_channels(0, h, w);
                let row = bt.pixel_words_index(h, w);
                pack_slice(src, &mut bt.words[row..row + bt.c_words]);
            }
        }
        bt
    }

    /// Packs a flat **NCHW** float buffer into pressed NHWC form. The
    /// channel values of one pixel are `h·w` floats apart in NCHW, so every
    /// packed bit is a strided gather — this is the layout ablation's
    /// counter-example to the locality-aware NHWC layout (paper §III-B:
    /// packing "would have not been possible [efficiently] if either height
    /// or width dimension has been chosen" as the innermost).
    pub fn from_nchw(data: &[f32], h: usize, w: usize, c: usize) -> Self {
        assert_eq!(data.len(), h * w * c, "NCHW buffer size");
        let mut bt = Self::zeros(h, w, c);
        let plane = h * w;
        for y in 0..h {
            for x in 0..w {
                let base = bt.pixel_words_index(y, x);
                let px = y * w + x;
                for cc in 0..c {
                    if data[cc * plane + px] >= 0.0 {
                        bt.words[base + cc / WORD_BITS] |= 1 << (cc % WORD_BITS);
                    }
                }
            }
        }
        bt
    }

    /// Packs a float tensor into the **interior** of a spatially padded
    /// pressed tensor of shape (h+2p)×(w+2p). The margin stays all-zero —
    /// this is the paper's zero-cost padding (Fig. 5) on the input side.
    pub fn from_tensor_padded(t: &Tensor, pad: usize) -> Self {
        assert_eq!(t.layout(), Layout::Nhwc);
        let s = t.shape();
        assert_eq!(s.n, 1);
        let mut bt = Self::zeros(s.h + 2 * pad, s.w + 2 * pad, s.c);
        for h in 0..s.h {
            for w in 0..s.w {
                let src = t.pixel_channels(0, h, w);
                let row = bt.pixel_words_index(h + pad, w + pad);
                pack_slice(src, &mut bt.words[row..row + bt.c_words]);
            }
        }
        bt
    }

    /// Height (including any padding baked into this buffer).
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width (including any padding baked into this buffer).
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Logical channel count (bits per pixel that carry data).
    #[inline]
    pub fn c(&self) -> usize {
        self.c_logical
    }

    /// Packed words per pixel.
    #[inline]
    pub fn c_words(&self) -> usize {
        self.c_words
    }

    /// Flat packed storage, pixel-major.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable flat packed storage.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Word offset of pixel (h, w).
    #[inline]
    pub fn pixel_words_index(&self, h: usize, w: usize) -> usize {
        debug_assert!(h < self.h && w < self.w);
        (h * self.w + w) * self.c_words
    }

    /// Packed channel words of pixel (h, w).
    #[inline]
    pub fn pixel_words(&self, h: usize, w: usize) -> &[u64] {
        let i = self.pixel_words_index(h, w);
        &self.words[i..i + self.c_words]
    }

    /// Contiguous row of pixels `[w0, w1)` at height `h` — the unit the
    /// PressedConv inner loop consumes (w and c are adjacent in memory).
    #[inline]
    pub fn row_words(&self, h: usize, w0: usize, w1: usize) -> &[u64] {
        debug_assert!(w0 <= w1 && w1 <= self.w);
        let start = self.pixel_words_index(h, w0);
        &self.words[start..start + (w1 - w0) * self.c_words]
    }

    /// Reads the logical {−1,+1} value of channel `c` at (h, w).
    #[inline]
    pub fn get(&self, h: usize, w: usize, c: usize) -> i32 {
        debug_assert!(c < self.c_logical);
        let word = self.pixel_words(h, w)[c / WORD_BITS];
        if (word >> (c % WORD_BITS)) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Sets channel `c` at (h, w) from a logical sign (+1 ↦ bit 1).
    pub fn set(&mut self, h: usize, w: usize, c: usize, v: i32) {
        assert!(c < self.c_logical);
        let i = self.pixel_words_index(h, w) + c / WORD_BITS;
        let bit = 1u64 << (c % WORD_BITS);
        if v >= 0 {
            self.words[i] |= bit;
        } else {
            self.words[i] &= !bit;
        }
    }

    /// Decodes back to a float NHWC tensor of {−1.0, +1.0}.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_fn(
            Shape::hwc(self.h, self.w, self.c_logical),
            Layout::Nhwc,
            |_, h, w, c| self.get(h, w, c) as f32,
        )
    }

    /// Verifies the press-tail invariant: all bits above `c_logical` in
    /// every pixel word are zero. Used by tests and debug assertions.
    pub fn tail_is_zero(&self) -> bool {
        let tail_bits = self.c_words * WORD_BITS - self.c_logical;
        if tail_bits == 0 {
            return true;
        }
        let mask = !0u64 << (WORD_BITS - tail_bits);
        (0..self.h)
            .all(|h| (0..self.w).all(|w| self.pixel_words(h, w)[self.c_words - 1] & mask == 0))
    }
}

/// Filters per lane group of a [`BitFilterBank`]: eight `u64` lanes fill
/// one 64-byte vector register / cache line (`bitflow_simd::conv::LANES`,
/// which checks the bank's length against it on every call).
const FILTER_LANES: usize = 8;

/// A bank of binarized convolution filters, channel-packed like the
/// activations they convolve with and **filter-interleaved** for the
/// filter-lane conv core (`bitflow_simd::conv`).
///
/// Storage is `[⌈K/8⌉][kh·kw·c_words][8]`: the eight filters of a group
/// share each 64-byte line, one `u64` lane per filter, and the lines of a
/// group follow the (kh, kw, c_words) order of a [`BitTensor`] window. One
/// vector load therefore fetches window word `t` of eight filters at once,
/// to be xored against the broadcast input word. Lanes `K..⌈K/8⌉·8` of the
/// last group are all-zero filters the conv core masks out.
#[derive(Clone, Debug)]
pub struct BitFilterBank {
    words: AlignedVec<u64>,
    shape: FilterShape,
    c_words: usize,
}

impl BitFilterBank {
    /// Allocates an all-zero bank.
    pub fn zeros(shape: FilterShape) -> Self {
        let c_words = words_for(shape.c);
        let groups = shape.k.div_ceil(FILTER_LANES);
        Self {
            words: AlignedVec::zeroed(groups * shape.kh * shape.kw * c_words * FILTER_LANES),
            shape,
            c_words,
        }
    }

    /// Packs a float filter bank given as one flat slice in (k, kh, kw, c)
    /// order. This is the **reference press** — the paper's bit-field loop
    /// ([`pack_slice`]) tap by tap, then [`Self::from_pressed`] — that tests
    /// and tools compare against; the engine presses its banks with the
    /// vector kernel (`bitflow_simd::pack`) and calls `from_pressed` itself.
    pub fn from_floats(weights: &[f32], shape: FilterShape) -> Self {
        assert_eq!(weights.len(), shape.numel(), "weight count vs shape");
        if weights.is_empty() {
            return Self::zeros(shape);
        }
        let c_words = words_for(shape.c);
        let mut pressed = vec![0u64; shape.k * shape.kh * shape.kw * c_words];
        for (tap, words) in weights
            .chunks_exact(shape.c)
            .zip(pressed.chunks_exact_mut(c_words))
        {
            pack_slice(tap, words);
        }
        Self::from_pressed(&pressed, shape)
    }

    /// Builds the bank from already-pressed **filter-major** words,
    /// `[k][kh·kw·c_words]` — each tap's `C` sign bits LSB-first in its
    /// `c_words` words, taps in (k, kh, kw) order, i.e. the float layout
    /// pressed tap by tap — interleaving them into the
    /// `[⌈K/8⌉][kh·kw·c_words][8]` lanes in one pass. This is the
    /// network-initialization-time packing (paper's network-level
    /// optimization: binarize + pack weights once, before inference).
    ///
    /// # Panics
    /// If `pressed` is not exactly `K·kh·kw·c_words` words, or a tap's press
    /// tail (bits `C..64·c_words`) is not zero — the conv core's
    /// `dot = N − 2·popcount` identity depends on it.
    pub fn from_pressed(pressed: &[u64], shape: FilterShape) -> Self {
        let mut bank = Self::zeros(shape);
        bank.set_pressed(pressed);
        bank
    }

    /// [`Self::from_pressed`] into this bank's own words: the filters'
    /// lanes are overwritten, the all-zero lanes past K left as they are.
    ///
    /// # Panics
    /// As [`Self::from_pressed`].
    pub fn set_pressed(&mut self, pressed: &[u64]) {
        let shape = self.shape;
        let per_filter = shape.kh * shape.kw * self.c_words;
        assert_eq!(pressed.len(), shape.k * per_filter, "pressed word count");
        if pressed.is_empty() {
            return;
        }
        let tail_bits = shape.c % WORD_BITS;
        if tail_bits != 0 {
            let clean = pressed
                .iter()
                .skip(self.c_words - 1)
                .step_by(self.c_words)
                .all(|w| w >> tail_bits == 0);
            assert!(clean, "press tail of a filter tap is not zero");
        }
        for (k, filter) in pressed.chunks_exact(per_filter).enumerate() {
            let at = (k / FILTER_LANES) * per_filter * FILTER_LANES + k % FILTER_LANES;
            for (t, &w) in filter.iter().enumerate() {
                self.words[at + t * FILTER_LANES] = w;
            }
        }
    }

    /// Filter-bank shape.
    #[inline]
    pub fn shape(&self) -> FilterShape {
        self.shape
    }

    /// Packed words per channel vector.
    #[inline]
    pub fn c_words(&self) -> usize {
        self.c_words
    }

    /// Offset of channel word `cw` of tap (k, i, j) in the interleaved
    /// storage.
    #[inline]
    fn word_index(&self, k: usize, i: usize, j: usize, cw: usize) -> usize {
        debug_assert!(k < self.shape.k && i < self.shape.kh && j < self.shape.kw);
        let per_filter = self.shape.kh * self.shape.kw * self.c_words;
        let t = (i * self.shape.kw + j) * self.c_words + cw;
        ((k / FILTER_LANES) * per_filter + t) * FILTER_LANES + k % FILTER_LANES
    }

    /// The whole interleaved bank, `[⌈K/8⌉][kh·kw·c_words][8]` — the
    /// operand of `bitflow_simd::conv::conv_rows`.
    #[inline]
    pub fn lane_words(&self) -> &[u64] {
        &self.words
    }

    /// Logical {−1,+1} weight at (k, i, j, c).
    pub fn get(&self, k: usize, i: usize, j: usize, c: usize) -> i32 {
        assert!(c < self.shape.c);
        let w = self.words[self.word_index(k, i, j, c / WORD_BITS)];
        if (w >> (c % WORD_BITS)) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Total packed size in bytes, including the zero filters that pad K
    /// to a whole lane group.
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn pack_round_trip_exact_multiple() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::random(Shape::hwc(3, 4, 128), Layout::Nhwc, &mut rng);
        let bt = BitTensor::from_tensor(&t);
        assert_eq!(bt.c_words(), 2);
        assert!(bt.tail_is_zero());
        let back = bt.to_tensor();
        assert_eq!(back.max_abs_diff(&t.sign()), 0.0);
    }

    #[test]
    fn pack_round_trip_ragged_channels() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in [1usize, 3, 31, 63, 65, 100] {
            let t = Tensor::random(Shape::hwc(2, 2, c), Layout::Nhwc, &mut rng);
            let bt = BitTensor::from_tensor(&t);
            assert!(bt.tail_is_zero(), "c={c}");
            assert_eq!(bt.to_tensor().max_abs_diff(&t.sign()), 0.0, "c={c}");
        }
    }

    #[test]
    fn from_nchw_matches_nhwc_pack() {
        let mut rng = StdRng::seed_from_u64(14);
        for c in [1usize, 64, 70, 129] {
            let t = Tensor::random(Shape::hwc(4, 5, c), Layout::Nhwc, &mut rng);
            let nchw = crate::layout::nhwc_to_nchw(&t);
            let a = BitTensor::from_tensor(&t);
            let b = BitTensor::from_nchw(&nchw, 4, 5, c);
            assert_eq!(a.words(), b.words(), "c={c}");
            assert!(b.tail_is_zero());
        }
    }

    #[test]
    fn padded_pack_leaves_margin_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::random(Shape::hwc(3, 3, 64), Layout::Nhwc, &mut rng);
        let bt = BitTensor::from_tensor_padded(&t, 1);
        assert_eq!((bt.h(), bt.w()), (5, 5));
        for w in 0..5 {
            assert!(bt.pixel_words(0, w).iter().all(|&x| x == 0));
            assert!(bt.pixel_words(4, w).iter().all(|&x| x == 0));
        }
        for h in 0..5 {
            assert!(bt.pixel_words(h, 0).iter().all(|&x| x == 0));
            assert!(bt.pixel_words(h, 4).iter().all(|&x| x == 0));
        }
        // Interior matches the unpadded packing.
        let plain = BitTensor::from_tensor(&t);
        for h in 0..3 {
            for w in 0..3 {
                assert_eq!(bt.pixel_words(h + 1, w + 1), plain.pixel_words(h, w));
            }
        }
    }

    #[test]
    fn set_get_round_trip() {
        let mut bt = BitTensor::zeros(2, 2, 70);
        bt.set(1, 1, 69, 1);
        bt.set(0, 1, 3, -1);
        assert_eq!(bt.get(1, 1, 69), 1);
        assert_eq!(bt.get(0, 1, 3), -1);
        assert_eq!(bt.get(1, 1, 68), -1);
        assert!(bt.tail_is_zero());
    }

    #[test]
    fn row_words_is_contiguous() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor::random(Shape::hwc(2, 5, 64), Layout::Nhwc, &mut rng);
        let bt = BitTensor::from_tensor(&t);
        let row = bt.row_words(1, 1, 4);
        assert_eq!(row.len(), 3 * bt.c_words());
        assert_eq!(&row[..1], bt.pixel_words(1, 1));
        assert_eq!(&row[2..3], bt.pixel_words(1, 3));
    }

    #[test]
    fn filter_bank_pack_and_get() {
        let shape = FilterShape::new(2, 3, 3, 5);
        let weights: Vec<f32> = (0..shape.numel())
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let bank = BitFilterBank::from_floats(&weights, shape);
        for k in 0..2 {
            for i in 0..3 {
                for j in 0..3 {
                    for c in 0..5 {
                        let flat = ((k * 3 + i) * 3 + j) * 5 + c;
                        let expect = if flat % 3 == 0 { 1 } else { -1 };
                        assert_eq!(bank.get(k, i, j, c), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn filter_bank_round_trips_when_k_is_not_a_lane_multiple() {
        let mut rng = StdRng::seed_from_u64(5);
        for (k, c) in [(1usize, 3usize), (5, 64), (9, 70), (13, 130)] {
            let shape = FilterShape::new(k, 2, 3, c);
            let weights: Vec<f32> = (0..shape.numel())
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let bank = BitFilterBank::from_floats(&weights, shape);
            let groups = k.div_ceil(FILTER_LANES);
            let per_filter = 2 * 3 * bank.c_words();
            assert_eq!(bank.packed_bytes(), groups * per_filter * FILTER_LANES * 8);
            for kk in 0..k {
                for i in 0..2 {
                    for j in 0..3 {
                        for cc in 0..c {
                            let flat = ((kk * 2 + i) * 3 + j) * c + cc;
                            let want = if weights[flat] >= 0.0 { 1 } else { -1 };
                            assert_eq!(bank.get(kk, i, j, cc), want, "k={k} c={c}");
                        }
                    }
                }
            }
            // The lanes padding K to a whole group are zero filters.
            for (at, &w) in bank.lane_words().iter().enumerate() {
                let lane_k = at / (per_filter * FILTER_LANES) * FILTER_LANES + at % FILTER_LANES;
                assert!(
                    lane_k < k || w == 0,
                    "pad lane {lane_k} of k={k} is not zero"
                );
            }
        }
    }

    #[test]
    fn from_pressed_interleaves_filter_major_words() {
        // K = 9 (a second, mostly empty lane group), 2 taps, C = 70 (2 words
        // a tap, 6 live bits in the second).
        let shape = FilterShape::new(9, 1, 2, 70);
        let per_filter = 2 * 2;
        let pressed: Vec<u64> = (0..9 * per_filter as u64)
            .map(|i| if i % 2 == 1 { i & 0x3F } else { i << 32 | i })
            .collect();
        let bank = BitFilterBank::from_pressed(&pressed, shape);
        assert_eq!(bank.lane_words().len(), 2 * per_filter * FILTER_LANES);
        for (at, &w) in bank.lane_words().iter().enumerate() {
            let k = at / (per_filter * FILTER_LANES) * FILTER_LANES + at % FILTER_LANES;
            let t = at / FILTER_LANES % per_filter;
            let want = if k < 9 {
                pressed[k * per_filter + t]
            } else {
                0
            };
            assert_eq!(w, want, "lane word {at} = filter {k} word {t}");
        }
    }

    #[test]
    #[should_panic(expected = "press tail")]
    fn from_pressed_rejects_a_dirty_press_tail() {
        // C = 3: bit 3 of a tap word is past the logical channels.
        BitFilterBank::from_pressed(&[0b0111, 0b1000], FilterShape::new(2, 1, 1, 3));
    }

    #[test]
    #[should_panic(expected = "pressed word count")]
    fn from_pressed_rejects_a_wrong_word_count() {
        BitFilterBank::from_pressed(&[0; 5], FilterShape::new(2, 1, 1, 130));
    }

    #[test]
    fn compression_is_32x_or_better() {
        // 512-channel 3x3 bank: float bytes = numel*4; packed = numel/64*8.
        let shape = FilterShape::new(512, 3, 3, 512);
        let bank = BitFilterBank::zeros(shape);
        let float_bytes = shape.numel() * 4;
        assert_eq!(float_bytes / bank.packed_bytes(), 32);
    }
}
