//! The press: fused binarize + bit-pack (+ transpose) kernels.
//!
//! Binarization (`x >= 0.0`) and packing into words happen in one pass
//! (paper Tables II/III). Every float→bit conversion of the engine — weight
//! matrices, filter banks, activations, the input image — is one kernel
//! family here, monomorphized per SIMD tier the way [`crate::conv`] is: a
//! `PressBody` turns a strip of floats into a strip of sign bits
//! (`VCMPPS` into a k-mask on AVX-512, `VCMPPS` + `VMOVMSKPS` on AVX2, a
//! word loop otherwise) and transposes a 64-row bit matrix in registers; the
//! two loops below are shared by all tiers.
//!
//! * [`pack_rows`] / [`pack_f32`] — the unit-stride **row form**: bit `i` of
//!   a row's words is the sign of its `i`-th float.
//! * [`pack_transposed`] — the **transposed form** of paper Table III: the
//!   N×K float matrix becomes K packed rows of N bits, `Bᵀ` in packed form,
//!   with no float transpose and no intermediate matrix.
//!   [`pack_transposed_band`] presses one band of its packed rows, so the
//!   compile step can hand the bands of one matrix to several threads.
//!
//! The contract is exactly `x >= 0.0` at every tier: NaN of either sign
//! presses to 0, `-0.0` to 1, ±∞ by sign, and bits past the logical length
//! of a row (the press tail) are 0. The tier changes speed only.
//!
//! ## Why the transposed form walks 512 × 256 tiles
//!
//! A packed output word needs 64 floats that are a whole row of B (K floats,
//! 16 KB for VGG-16's FC layers — a new page each) apart. Walking one column,
//! or one narrow column block, down the matrix therefore touches a new page
//! per row for a few dozen useful bytes, and sweeps the matrix many times.
//! The tile instead reads `TILE_COLS` = 256 adjacent floats of each row —
//! a 1 KB sequential run, 16 whole cache lines, each read exactly once —
//! and covers `TILE_ROWS` = 512 rows, which are exactly the 8 consecutive
//! words (one 64-byte line) of each of the 256 packed rows it produces, so
//! every output line is filled while it is still in L1 and written back
//! once. The tile's floats are 512 KB, inside L2, so what the hardware
//! prefetcher runs ahead into the next tile of the same row stripe is still
//! there when that tile starts; tiles go column-first within a stripe so
//! the stripe's pages stay in the TLB.

use crate::kernels::SimdLevel;
use std::ops::Range;

/// Float rows per transposed tile: 8 output words, one 64-byte line of every
/// packed row the tile produces.
const TILE_ROWS: usize = 512;

/// Float columns per transposed tile: a 1 KB sequential run per input row.
const TILE_COLS: usize = 256;

/// Rows per in-register bit-matrix transpose: one output word.
const BLOCK_ROWS: usize = 64;

/// Widest [`PressBody::STRIP`].
const MAX_STRIP: usize = 16;

/// The sign bits of one 64-row × [`TILE_COLS`] block, strip-major: the 64
/// row masks of strip `s` (`STRIP/8` bytes each) start at byte `s·STRIP·8`,
/// whatever the strip width.
#[repr(align(64))]
struct Masks([u8; BLOCK_ROWS * TILE_COLS / 8]);

/// How one SIMD tier presses: floats to sign bits, and the bit-matrix
/// transpose of 64 such masks. Masks are little-endian byte strings, so a
/// mask stored at byte `i·STRIP/8` of a `u64` is bits `[i·STRIP, (i+1)·STRIP)`
/// of that word (x86 bodies rely on the target's byte order; [`Words`]
/// builds bytes explicitly).
///
/// # Safety
/// Every method requires the tier's CPU features to be available, plus the
/// pointer validity each one names.
trait PressBody {
    /// Floats per compare: a multiple of 8 that divides 64, at most
    /// [`MAX_STRIP`].
    const STRIP: usize;
    /// Writes bit `i` = `src[i] >= 0.0` for the `STRIP` floats at `src` as
    /// `STRIP/8` bytes at `dst`.
    unsafe fn mask(src: *const f32, dst: *mut u8);
    /// [`PressBody::mask`] of the first `len < STRIP` floats: reads no float
    /// past `len`, writes all `STRIP/8` bytes, bits from `len` up zero.
    unsafe fn mask_tail(src: *const f32, len: usize, dst: *mut u8);
    /// Transposes the 64 row masks (`64·STRIP/8` readable bytes) at `masks`:
    /// bit `r` of `words[j]` = bit `j` of row mask `r`, for `j < STRIP`.
    unsafe fn transpose(masks: *const u8, words: &mut [u64; MAX_STRIP]);
}

/// Eight floats per mask byte in plain Rust: the Scalar/SSE/Unvectorized
/// tiers, and the body every level demotes to without AVX2.
struct Words;

impl PressBody for Words {
    const STRIP: usize = 8;
    #[inline(always)]
    unsafe fn mask(src: *const f32, dst: *mut u8) {
        // SAFETY: forwarded; `STRIP` floats are readable.
        unsafe { Self::mask_tail(src, Self::STRIP, dst) }
    }
    #[inline(always)]
    unsafe fn mask_tail(src: *const f32, len: usize, dst: *mut u8) {
        let mut m = 0u8;
        for i in 0..len {
            // SAFETY: `i < len` floats are readable (caller contract).
            m |= ((unsafe { *src.add(i) } >= 0.0) as u8) << i;
        }
        // SAFETY: `STRIP/8` = 1 byte is writable at `dst`.
        unsafe { *dst = m };
    }
    #[inline(always)]
    unsafe fn transpose(masks: *const u8, words: &mut [u64; MAX_STRIP]) {
        words[..Self::STRIP].fill(0);
        for r in 0..BLOCK_ROWS {
            // SAFETY: 64 mask bytes are readable at `masks`.
            let m = unsafe { *masks.add(r) } as u64;
            for (j, w) in words[..Self::STRIP].iter_mut().enumerate() {
                *w |= ((m >> j) & 1) << r;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `VCMPPS` + `VMOVMSKPS`, eight floats per mask byte; the transpose peels
/// one bit plane per `VPMOVMSKB` off two ymm of 32 row bytes each, doubling
/// the bytes (`VPADDB`) to bring the next plane to the top.
#[cfg(target_arch = "x86_64")]
struct Ymm;

#[cfg(target_arch = "x86_64")]
impl PressBody for Ymm {
    const STRIP: usize = 8;
    #[inline(always)]
    unsafe fn mask(src: *const f32, dst: *mut u8) {
        // SAFETY: 8 floats readable at `src`, 1 byte writable at `dst`.
        unsafe {
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_loadu_ps(src), _mm256_setzero_ps());
            *dst = _mm256_movemask_ps(ge) as u8;
        }
    }
    #[inline(always)]
    unsafe fn mask_tail(src: *const f32, len: usize, dst: *mut u8) {
        // SAFETY: `VMASKMOVPS` reads (and can fault on) only the lanes below
        // `len`; the others load as +0.0 and are cleared from the result.
        unsafe {
            let lanes = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(len as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let x = _mm256_maskload_ps(src, lanes);
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_setzero_ps());
            *dst = _mm256_movemask_ps(_mm256_and_ps(ge, _mm256_castsi256_ps(lanes))) as u8;
        }
    }
    #[inline(always)]
    unsafe fn transpose(masks: *const u8, words: &mut [u64; MAX_STRIP]) {
        // SAFETY: 64 mask bytes are readable at `masks`.
        unsafe {
            let mut lo = _mm256_loadu_si256(masks as *const __m256i);
            let mut hi = _mm256_loadu_si256(masks.add(32) as *const __m256i);
            for w in words[..Self::STRIP].iter_mut().rev() {
                let (l, h) = (_mm256_movemask_epi8(lo), _mm256_movemask_epi8(hi));
                *w = l as u32 as u64 | (h as u32 as u64) << 32;
                lo = _mm256_add_epi8(lo, lo);
                hi = _mm256_add_epi8(hi, hi);
            }
        }
    }
}

/// `VCMPPS` straight into a k-mask, sixteen floats per 16-bit mask, masked
/// loads on tails; the transpose peels one bit plane per `VPMOVW2M` off two
/// zmm of 32 row masks each, doubling the lanes (`VPADDW`) in between.
#[cfg(target_arch = "x86_64")]
struct Zmm;

#[cfg(target_arch = "x86_64")]
impl PressBody for Zmm {
    const STRIP: usize = 16;
    #[inline(always)]
    unsafe fn mask(src: *const f32, dst: *mut u8) {
        // SAFETY: 16 floats readable at `src`, 2 bytes writable at `dst`.
        unsafe {
            let m = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_loadu_ps(src), _mm512_setzero_ps());
            dst.cast::<u16>().write_unaligned(m);
        }
    }
    #[inline(always)]
    unsafe fn mask_tail(src: *const f32, len: usize, dst: *mut u8) {
        // SAFETY: the masked load reads (and can fault on) only the lanes
        // below `len`, and the masked compare reports only those.
        unsafe {
            let lanes: __mmask16 = (1 << len) - 1;
            let x = _mm512_maskz_loadu_ps(lanes, src);
            let m = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(lanes, x, _mm512_setzero_ps());
            dst.cast::<u16>().write_unaligned(m);
        }
    }
    #[inline(always)]
    unsafe fn transpose(masks: *const u8, words: &mut [u64; MAX_STRIP]) {
        // SAFETY: 128 mask bytes are readable at `masks`.
        unsafe {
            let mut lo = _mm512_loadu_si512(masks as *const _);
            let mut hi = _mm512_loadu_si512(masks.add(64) as *const _);
            for w in words.iter_mut().rev() {
                *w = _mm512_movepi16_mask(lo) as u64 | (_mm512_movepi16_mask(hi) as u64) << 32;
                lo = _mm512_add_epi16(lo, lo);
                hi = _mm512_add_epi16(hi, hi);
            }
        }
    }
}

/// The row form, monomorphized per tier: `rows` consecutive rows of
/// `row_len` floats become consecutive rows of `⌈row_len/64⌉` words.
///
/// # Safety
/// `B`'s CPU features must be available, and [`pack_rows`]'s length checks
/// must have passed: `src.len() == rows·row_len`,
/// `out.len() == rows·⌈row_len/64⌉`.
#[inline(always)]
unsafe fn rows<B: PressBody>(src: &[f32], rows: usize, row_len: usize, out: &mut [u64]) {
    let wpr = row_len.div_ceil(64);
    let (strips, tail) = (row_len / B::STRIP, row_len % B::STRIP);
    let partial_word = !row_len.is_multiple_of(64);
    for r in 0..rows {
        // SAFETY: row `r < rows` is floats `[r·row_len, (r+1)·row_len)` of
        // `src` and words `[r·wpr, (r+1)·wpr)` of `out`. Strip `i` reads
        // floats `[i·STRIP, (i+1)·STRIP)` of the row (the tail strip only its
        // first `tail`), all below `row_len`, and writes bits of the same
        // positions: `STRIP` divides 64, so a strip never straddles a word,
        // and its word holds a bit below `row_len`, so it is one of the
        // row's `wpr`.
        unsafe {
            let s = src.as_ptr().add(r * row_len);
            let words = out.as_mut_ptr().add(r * wpr);
            if partial_word {
                // The strips below cover only part of the last word.
                *words.add(wpr - 1) = 0;
            }
            let d = words.cast::<u8>();
            for i in 0..strips {
                B::mask(s.add(i * B::STRIP), d.add(i * B::STRIP / 8));
            }
            if tail != 0 {
                B::mask_tail(s.add(strips * B::STRIP), tail, d.add(strips * B::STRIP / 8));
            }
        }
    }
}

/// The transposed form of columns `cols` of `b`, monomorphized per tier
/// (module docs: tile shape): packed rows `cols` of the whole press,
/// written from `out[0]` on. The 512-row stripe loop is outermost, so a
/// band of columns sweeps each stripe's pages once.
///
/// # Safety
/// `B`'s CPU features must be available, and [`pack_transposed_band`]'s
/// checks must have passed: `b.len() == n·k`, `cols.end ≤ k`,
/// `out.len() == cols.len()·⌈n/64⌉`.
#[inline(always)]
unsafe fn transposed<B: PressBody>(
    b: &[f32],
    n: usize,
    k: usize,
    cols: Range<usize>,
    out: &mut [u64],
) {
    let wpr = n.div_ceil(64);
    let mut masks = Masks([0; BLOCK_ROWS * TILE_COLS / 8]);
    let mut words = [0u64; MAX_STRIP];
    for n0 in (0..n).step_by(TILE_ROWS) {
        for k0 in cols.clone().step_by(TILE_COLS) {
            let tile_cols = TILE_COLS.min(cols.end - k0);
            let (strips, tail) = (tile_cols / B::STRIP, tile_cols % B::STRIP);
            for r0 in (n0..n.min(n0 + TILE_ROWS)).step_by(BLOCK_ROWS) {
                let block_rows = BLOCK_ROWS.min(n - r0);
                if block_rows < BLOCK_ROWS {
                    // Rows past N press to 0: the press tail.
                    masks.0.fill(0);
                }
                let m = masks.0.as_mut_ptr();
                for r in 0..block_rows {
                    // SAFETY: row `r0 + r < n` and columns `[k0, k0 + tile_cols)`
                    // are inside the `n·k` floats; strip `s < TILE_COLS/STRIP`
                    // and row `r < 64` address `STRIP/8` bytes inside `masks`.
                    unsafe {
                        let src = b.as_ptr().add((r0 + r) * k + k0);
                        let dst = m.add(r * B::STRIP / 8);
                        for s in 0..strips {
                            B::mask(src.add(s * B::STRIP), dst.add(s * B::STRIP * 8));
                        }
                        if tail != 0 {
                            let (src, dst) =
                                (src.add(strips * B::STRIP), dst.add(strips * B::STRIP * 8));
                            B::mask_tail(src, tail, dst);
                        }
                    }
                }
                for s in 0..tile_cols.div_ceil(B::STRIP) {
                    // SAFETY: strip `s` is inside `masks` as above.
                    unsafe { B::transpose(m.add(s * B::STRIP * 8), &mut words) };
                    let c0 = k0 + s * B::STRIP;
                    let row0 = (c0 - cols.start) * wpr + r0 / BLOCK_ROWS;
                    for (j, &w) in words[..B::STRIP.min(cols.end - c0)].iter().enumerate() {
                        out[row0 + j * wpr] = w;
                    }
                }
            }
        }
    }
}

type RowsFn = unsafe fn(&[f32], usize, usize, &mut [u64]);
type TransposedFn = unsafe fn(&[f32], usize, usize, Range<usize>, &mut [u64]);

/// [`rows`] and [`transposed`] compiled with a tier's CPU features enabled.
macro_rules! tier {
    ($rows:ident, $transposed:ident, $body:ty, $features:literal) => {
        /// # Safety
        /// As [`rows`], whose `B` is this tier's body.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn $rows(src: &[f32], n: usize, row_len: usize, out: &mut [u64]) {
            // SAFETY: forwarded contract; the features are enabled on this fn.
            unsafe { rows::<$body>(src, n, row_len, out) }
        }
        /// # Safety
        /// As [`transposed`], whose `B` is this tier's body.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn $transposed(b: &[f32], n: usize, k: usize, cols: Range<usize>, out: &mut [u64]) {
            // SAFETY: forwarded contract; the features are enabled on this fn.
            unsafe { transposed::<$body>(b, n, k, cols, out) }
        }
    };
}
tier!(rows_avx512, transposed_avx512, Zmm, "avx512f,avx512bw");
tier!(rows_avx2, transposed_avx2, Ymm, "avx2");

/// The two loops for `level`: a level the host lacks demotes to the widest
/// body it has.
fn body_for(level: SimdLevel) -> (RowsFn, TransposedFn) {
    #[cfg(target_arch = "x86_64")]
    {
        let f = crate::detect::features();
        match level {
            SimdLevel::Avx512 if f.avx512f && f.avx512bw => {
                return (rows_avx512, transposed_avx512)
            }
            SimdLevel::Avx512 | SimdLevel::Avx2 if f.avx2 => return (rows_avx2, transposed_avx2),
            _ => {}
        }
    }
    (rows::<Words>, transposed::<Words>)
}

/// Presses `rows` consecutive rows of `row_len` floats into consecutive rows
/// of `⌈row_len/64⌉` words at the requested SIMD level: bit `i % 64` of word
/// `i / 64` of a row is `x >= 0.0` of its float `i`, the press tail zero.
/// The body is resolved once per call, so callers with many short rows
/// (one pixel's channels, one filter tap) pass them all at once.
///
/// # Panics
/// If `src.len() != rows·row_len` or `out.len() != rows·⌈row_len/64⌉`.
pub fn pack_rows(level: SimdLevel, src: &[f32], rows: usize, row_len: usize, out: &mut [u64]) {
    assert_eq!(Some(src.len()), rows.checked_mul(row_len), "matrix size");
    assert_eq!(out.len(), rows * row_len.div_ceil(64), "output word count");
    let (run, _) = body_for(level);
    // SAFETY: lengths asserted above; `body_for` only returns bodies whose
    // CPU features the detector verified.
    unsafe { run(src, rows, row_len, out) }
}

/// Paper Table III at the requested SIMD level: presses the row-major N×K
/// float matrix `b` into K packed rows of `⌈n/64⌉` words, row `j` holding
/// column `j` of `b` — bit `i % 64` of its word `i / 64` is
/// `b[i·k + j] >= 0.0`, the press tail zero. Every word of `out` is written.
///
/// # Panics
/// If `b.len() != n·k` or `out.len() != k·⌈n/64⌉`.
pub fn pack_transposed(level: SimdLevel, b: &[f32], n: usize, k: usize, out: &mut [u64]) {
    pack_transposed_band(level, b, n, k, 0..k, out);
}

/// Packed rows `cols` of [`pack_transposed`], word for word, into `out`:
/// one band of the press. Bands of one matrix are disjoint runs of its
/// packed rows, so each can be pressed on a thread of its own.
///
/// # Panics
/// If `b.len() != n·k`, `cols` is not inside `0..k`, or
/// `out.len() != cols.len()·⌈n/64⌉`.
pub fn pack_transposed_band(
    level: SimdLevel,
    b: &[f32],
    n: usize,
    k: usize,
    cols: Range<usize>,
    out: &mut [u64],
) {
    assert_eq!(Some(b.len()), n.checked_mul(k), "matrix size");
    assert!(
        cols.start <= cols.end && cols.end <= k,
        "columns {cols:?} of {k}"
    );
    assert_eq!(out.len(), cols.len() * n.div_ceil(64), "output word count");
    let (_, run) = body_for(level);
    // SAFETY: lengths asserted above; `body_for` only returns bodies whose
    // CPU features the detector verified.
    unsafe { run(b, n, k, cols, out) }
}

/// Fused binarize+pack of one slice with the widest kernel of the running
/// CPU: bit `i` of `out[i/64]` = `src[i] >= 0.0`.
pub fn pack_f32(src: &[f32], out: &mut [u64]) {
    let level = SimdLevel::best_for(crate::detect::features());
    pack_rows(level, src, 1, src.len(), out);
}

/// The bit-at-a-time reference every tier is tested against: bit `i` of
/// `out[i/64]` = `src[i] >= 0.0`, the final partial word zero-padded high.
pub fn pack_f32_scalar(src: &[f32], out: &mut [u64]) {
    assert_eq!(out.len(), src.len().div_ceil(64), "output word count");
    for (wi, chunk) in src.chunks(64).enumerate() {
        let mut w = 0u64;
        for (i, &x) in chunk.iter().enumerate() {
            w |= ((x >= 0.0) as u64) << i;
        }
        out[wi] = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn reference(src: &[f32]) -> Vec<u64> {
        let mut out = vec![0u64; src.len().div_ceil(64)];
        for (i, &x) in src.iter().enumerate() {
            if x >= 0.0 {
                out[i / 64] |= 1 << (i % 64);
            }
        }
        out
    }

    #[test]
    fn scalar_matches_reference() {
        let mut rng = StdRng::seed_from_u64(20);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 1000] {
            let src: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut out = vec![0u64; len.div_ceil(64)];
            pack_f32_scalar(&src, &mut out);
            assert_eq!(out, reference(&src), "len={len}");
        }
    }

    #[test]
    fn dispatching_pack_matches_reference() {
        let mut rng = StdRng::seed_from_u64(22);
        let src: Vec<f32> = (0..777).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![0u64; 777usize.div_ceil(64)];
        pack_f32(&src, &mut out);
        assert_eq!(out, reference(&src));
        pack_f32(&[], &mut []);
    }

    #[test]
    fn zero_is_positive() {
        let src = vec![0.0f32, -0.0, -1.0, 1.0];
        let mut out = vec![0u64; 1];
        pack_f32(&src, &mut out);
        // +0.0 and -0.0 both compare >= 0.0 → bits 0,1 set; -1 clear; +1 set.
        assert_eq!(out[0], 0b1011);
    }

    #[test]
    fn every_band_is_its_rows_of_the_whole_press() {
        // Bands of 1, 255 and 1024 columns (the compile press's) from
        // every offset the cut yields, so band edges meet every strip,
        // tile and press tail.
        let mut rng = StdRng::seed_from_u64(43);
        for n in [1usize, 63, 65, 511, 513, 1025] {
            for k in [1usize, 255, 257, 1023, 1025, 2049] {
                let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let wpr = n.div_ceil(64);
                for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                    let mut whole = vec![0u64; k * wpr];
                    pack_transposed(level, &b, n, k, &mut whole);
                    for band in [1usize, 255, 1024] {
                        let mut out = vec![!0u64; k * wpr];
                        for (i, rows) in out.chunks_mut(band * wpr).enumerate() {
                            let cols = i * band..(i * band + band).min(k);
                            pack_transposed_band(level, &b, n, k, cols, rows);
                        }
                        assert_eq!(out, whole, "n={n} k={k} band={band} {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn a_band_past_the_matrix_is_rejected_before_the_kernel() {
        pack_transposed_band(SimdLevel::Avx512, &[0.0; 6], 2, 3, 2..4, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "matrix size")]
    fn ragged_rows_are_rejected_before_the_kernel() {
        pack_rows(SimdLevel::Avx512, &[0.0; 7], 3, 3, &mut [0; 3]);
    }
}
