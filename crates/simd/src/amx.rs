//! The conv core's second body: the AMX int8 tile loop.
//!
//! [`crate::conv::conv_rows`] runs this body instead of the filter-lane
//! loop for a `Sign` call at [`crate::kernels::SimdLevel::Avx512`] when the host can run
//! AMX and the geometry qualifies ([`crate::conv::body_choice`]). Bits
//! stay the storage and interchange format on both sides: the call reads
//! the same packed input words and writes the same packed sign bits, word
//! for word, as the Zmm body would.
//!
//! The matrix unit has no 1-bit mode, so a bit `b` travels as the int8
//! `2b − 1` and a ±1 product is exact: over a window of `N = kh·kw·c_words·64`
//! bit positions the `tdpbssd` sum is `dot = N − 2·popcount(window ⊕ filter)`
//! — press-tail bits are 0 in both operands and expand to (−1)·(−1) = +1,
//! exactly what a 0 ⊕ 0 contributes to `N − 2·pop`. So the sink's popcount
//! bound `pop ≤ bound` is `dot ≥ N − 2·bound`, one `vpcmpd` on the int32
//! accumulators.
//!
//! * **Filters** ([`AmxBank`]) are expanded once, at compile, from the
//!   lane-interleaved bank words into VNNI-4 tiles: for every block of 16
//!   filters and every window word (a K-step), one 16 × 64-byte B tile
//!   whose row `r` holds channels `4r..4r+4` of the 16 filters.
//! * **Input** is expanded per call, one band of output rows at a time, into
//!   a strip ([`AmxStrip`], scratch the caller owns): the band's input rows,
//!   laid out exactly like the packed map (pixel-major, `C = c_words·64`
//!   bytes a pixel), one `vpblendmb` per word. The band is the whole map
//!   when it fits in [`STRIP_BYTES`].
//! * **The tile loop** is a 2 × 2 block: two A tiles of 16 consecutive
//!   positions of the *padded* grid (row stride `C` bytes), two B tiles of
//!   16 filters, four accumulators. Position `p = y·in_w + x` of the band
//!   reads its window at `p + r·in_w` for window row `r`, `kw·c_words`
//!   consecutive 64-byte steps; the `kw − 1` positions of each row whose
//!   windows wrap past the row end (`x ≥ out_w`) are computed and never
//!   stored, as are the ones past the band. Within a band the filter pair
//!   is the outer loop, so its `2·steps` B tiles stay in cache while every
//!   position block streams past.
//! * **The epilogue** compares each accumulator row — one position, 16
//!   filters — against the 16 thresholds, xors in the flips and stores the
//!   16 sign bits as a `u16` of the output word (the first 16 of a word as
//!   the whole zero-extended word, which writes the press tail). It runs one
//!   block behind the tile loop, so it overlaps the next block's `tdpbssd`.
//!
//! Every call configures the tiles on entry (`ldtilecfg`) and releases them
//! on exit (`tilerelease`), so a thread is never switched out holding live
//! tile state between calls.

use crate::conv::{ConvGeom, SignSink};
use std::ops::Range;

/// Bytes of one tile row: 64 int8 channels of one position (A), or four
/// channels of each of 16 filters (B).
const ROW: usize = 64;

/// Rows of every tile: 16 positions (A, accumulators) or 16 groups of
/// four channels (B).
const ROWS: usize = 16;

/// Filters of one B tile, and sign bits of one epilogue store.
pub(crate) const FILTERS: usize = 16;

/// Bytes of one K-step of one filter block: a whole B tile.
const B_STEP: usize = ROWS * ROW;

/// Positions of one 2 × 2 block: two A tiles.
const BLOCK: usize = 2 * ROWS;

/// Most expanded input bytes one band occupies. The band is the whole map
/// when it fits: all of VGG-16's conv4.x (30 × 30 × 512) and conv5.x.
pub const STRIP_BYTES: usize = 512 << 10;

/// One 64-byte line: a tile row, aligned so no tile row straddles two
/// cache lines.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Line([i8; ROW]);

const ZERO_LINE: Line = Line([0; ROW]);

/// A filter bank's ±1 bytes for the matrix unit,
/// `[⌈K/32⌉·2][kh·kw·c_words][16 rows][16 filters][4 channels]` — each
/// (filter block, window word) pair one VNNI-4 B tile, and a zero block
/// after an odd count so the tile loop always multiplies a pair. Built once
/// from the bank's packed words and kept beside them; never serialised.
pub struct AmxBank {
    lines: Vec<Line>,
    k: usize,
    steps: usize,
}

impl AmxBank {
    /// Expands `k` filters of `steps` window words each from the
    /// lane-interleaved layout of [`crate::conv`] (`[⌈K/8⌉][steps][8]`):
    /// one `vpblendmb` per word, scattered into the VNNI rows.
    ///
    /// # Panics
    /// If `k` is not a whole number of 16-filter blocks, `words` does not
    /// hold `⌈K/8⌉·steps·8` words, or the host cannot run AMX int8.
    pub fn from_lane_words(words: &[u64], k: usize, steps: usize) -> Self {
        assert!(
            k > 0 && k.is_multiple_of(FILTERS),
            "K = {k} is not whole 16-filter blocks"
        );
        assert_eq!(
            words.len(),
            k.div_ceil(crate::conv::LANES) * steps * crate::conv::LANES,
            "lane-interleaved bank size"
        );
        let f = crate::detect::features();
        assert!(
            f.amx_int8 && f.avx512f && f.avx512bw,
            "host cannot run AMX int8"
        );
        let mut lines = vec![ZERO_LINE; k.div_ceil(2 * FILTERS) * 2 * steps * ROWS];
        // SAFETY: AVX-512 F/BW and the sizes are asserted above.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            expand_bank(words, k, steps, &mut lines)
        };
        Self { lines, k, steps }
    }

    /// Filters K.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Window words (K-steps) per filter.
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Bytes held.
    pub fn bytes(&self) -> usize {
        self.lines.len() * ROW
    }
}

/// Scratch of one body call: the ±1 int8 copy of a band of input rows plus
/// the slack the last position block's A tiles read into. One per thread
/// that may run a conv call at once (the inference context holds one per
/// team part).
pub struct AmxStrip {
    lines: Vec<Line>,
}

impl AmxStrip {
    /// A zeroed strip of at least `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        Self {
            lines: vec![ZERO_LINE; bytes.div_ceil(ROW)],
        }
    }

    /// The strip a call over an `in_h`-row input with geometry `g` uses
    /// whole: the map, or as many whole rows as [`STRIP_BYTES`] holds, plus
    /// the slack — whole 64-byte lines, so `new(bytes).bytes() == bytes`.
    pub fn bytes_for(g: &ConvGeom, in_h: usize) -> usize {
        let row = g.in_w * g.c_words * ROW;
        in_h.min(STRIP_BYTES / row) * row + slack(g)
    }

    /// Bytes held.
    pub fn bytes(&self) -> usize {
        self.lines.len() * ROW
    }
}

/// Strip bytes past the expanded band that the last position block's A
/// tiles may read: at most `BLOCK − 1` positions (see [`tiles`]).
fn slack(g: &ConvGeom) -> usize {
    BLOCK * g.c_words * ROW
}

/// Output rows of one band in a strip of `strip_bytes`; 0 if not even one
/// fits.
pub(crate) fn band_rows(g: &ConvGeom, strip_bytes: usize) -> usize {
    let row = g.in_w * g.c_words * ROW;
    let room = strip_bytes.saturating_sub(slack(g)).min(STRIP_BYTES);
    (room / row).saturating_sub(g.kh - 1)
}

/// Strip bytes the A-tile loads of a band of `rows` output rows reach: the
/// last position block's last tile row, at its last window step. At most
/// the band's expanded rows plus [`slack`], since `out_w + kw − 1 ≤ in_w`.
pub(crate) fn reach(g: &ConvGeom, rows: usize) -> usize {
    let blocks = ((rows - 1) * g.in_w + g.out_w).div_ceil(BLOCK);
    (blocks * BLOCK + (g.kh - 1) * g.in_w + g.kw - 1) * g.c_words * ROW
}

#[cfg(target_arch = "x86_64")]
pub(crate) use body::tiles;

/// The body and its instructions.
///
/// # Safety
/// Every `unsafe fn` here needs AVX-512 F/BW; the tile instructions also
/// need AMX int8, the tile-data permission, and the configuration
/// [`tiles`] loads on entry; and every pointer must stay inside the
/// operands whose bounds `conv_rows` asserted for the call (restated where
/// the pointers are formed).
#[cfg(target_arch = "x86_64")]
mod body {
    use super::*;
    use std::arch::asm;
    use std::arch::x86_64::*;

    /// The 64-byte tile configuration: palette 1, tiles 0–7 all 16 rows ×
    /// 64 bytes. tmm0–3 accumulate, tmm4–5 hold A, tmm6–7 hold B.
    #[repr(C, align(64))]
    struct TileConfig {
        palette: u8,
        start_row: u8,
        reserved: [u8; 14],
        colsb: [u16; 16],
        rows: [u8; 16],
    }

    impl TileConfig {
        fn new() -> Self {
            let mut cfg = Self {
                palette: 1,
                start_row: 0,
                reserved: [0; 14],
                colsb: [0; 16],
                rows: [0; 16],
            };
            cfg.colsb[..8].fill(ROW as u16);
            cfg.rows[..8].fill(ROWS as u8);
            cfg
        }
    }

    /// Bit `b` of `w` → byte `b` = `2b − 1`.
    #[inline(always)]
    unsafe fn pm1(w: u64) -> __m512i {
        _mm512_mask_blend_epi8(w, _mm512_set1_epi8(-1), _mm512_set1_epi8(1))
    }

    /// The VNNI expansion behind [`AmxBank::from_lane_words`]: filter `f`
    /// of a block, window word `t`, becomes 64 bytes whose dword `r` is
    /// channels `4r..4r+4` — scattered to row `r`, column `f` of tile
    /// (block, `t`).
    ///
    /// # Safety
    /// AVX-512 F/BW; `words` and `lines` sized as that function asserts.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn expand_bank(words: &[u64], k: usize, steps: usize, lines: &mut [Line]) {
        let rows = _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(FILTERS as i32),
        );
        let dst = lines.as_mut_ptr().cast::<i32>();
        for kk in 0..k {
            let (block, f) = (kk / FILTERS, kk % FILTERS);
            let lane =
                (kk / crate::conv::LANES) * steps * crate::conv::LANES + kk % crate::conv::LANES;
            let idx = _mm512_add_epi32(rows, _mm512_set1_epi32(f as i32));
            for t in 0..steps {
                let w = *words.get_unchecked(lane + t * crate::conv::LANES);
                let tile = dst.add((block * steps + t) * B_STEP / 4);
                _mm512_i32scatter_epi32::<4>(tile, idx, pm1(w));
            }
        }
    }

    /// `words` expanded into consecutive lines at `dst`.
    #[inline(always)]
    unsafe fn expand_rows(words: &[u64], dst: *mut Line) {
        for (i, &w) in words.iter().enumerate() {
            _mm512_store_si512(dst.add(i).cast(), pm1(w));
        }
    }

    /// Zeroes the four accumulators.
    #[inline(always)]
    unsafe fn zero_acc() {
        asm!(
            "tilezero tmm0",
            "tilezero tmm1",
            "tilezero tmm2",
            "tilezero tmm3",
            options(nostack, nomem, preserves_flags)
        );
    }

    // The K-steps of a block are software-pipelined: a step's products
    // and the next step's tile loads are one asm block, each load placed
    // right after the last product that reads the tile it overwrites
    // (tile registers are not renamed), so the loads run under the
    // remaining products instead of between steps.

    /// The tiles of a 2 × 2 block's first step: A at `a` and
    /// `a + 16·pitch` (row pitch `pitch`), B at `b` and `b + b_next`.
    #[inline(always)]
    unsafe fn load_2x2(a: *const i8, pitch: usize, b: *const i8, b_next: usize) {
        asm!(
            "tileloadd tmm4, [{a0} + {pitch}*1]",
            "tileloadd tmm6, [{b0} + {row}*1]",
            "tileloadd tmm7, [{b1} + {row}*1]",
            "tileloadd tmm5, [{a1} + {pitch}*1]",
            a0 = in(reg) a,
            a1 = in(reg) a.add(ROWS * pitch),
            pitch = in(reg) pitch,
            b0 = in(reg) b,
            b1 = in(reg) b.add(b_next),
            row = in(reg) ROW,
            options(nostack, readonly, preserves_flags)
        );
    }

    /// The loaded step's four products, and the next step's tiles.
    #[inline(always)]
    unsafe fn mul_load_2x2(a: *const i8, pitch: usize, b: *const i8, b_next: usize) {
        asm!(
            "tdpbssd tmm0, tmm4, tmm6",
            "tdpbssd tmm1, tmm4, tmm7",
            "tileloadd tmm4, [{a0} + {pitch}*1]",
            "tdpbssd tmm2, tmm5, tmm6",
            "tileloadd tmm6, [{b0} + {row}*1]",
            "tdpbssd tmm3, tmm5, tmm7",
            "tileloadd tmm7, [{b1} + {row}*1]",
            "tileloadd tmm5, [{a1} + {pitch}*1]",
            a0 = in(reg) a,
            a1 = in(reg) a.add(ROWS * pitch),
            pitch = in(reg) pitch,
            b0 = in(reg) b,
            b1 = in(reg) b.add(b_next),
            row = in(reg) ROW,
            options(nostack, readonly, preserves_flags)
        );
    }

    /// The last step's four products.
    #[inline(always)]
    unsafe fn mul_2x2() {
        asm!(
            "tdpbssd tmm0, tmm4, tmm6",
            "tdpbssd tmm1, tmm4, tmm7",
            "tdpbssd tmm2, tmm5, tmm6",
            "tdpbssd tmm3, tmm5, tmm7",
            options(nostack, nomem, preserves_flags)
        );
    }

    /// The four accumulators of a block, `[2·position tile + filter tile]
    /// [position][filter]`.
    type Acc = [[[i32; FILTERS]; ROWS]; 4];

    /// Stores the accumulators to `acc`.
    #[inline(always)]
    unsafe fn store_acc(acc: &mut Acc) {
        asm!(
            "tilestored [{p} + {row}*1], tmm0",
            "tilestored [{p1} + {row}*1], tmm1",
            "tilestored [{p2} + {row}*1], tmm2",
            "tilestored [{p3} + {row}*1], tmm3",
            p = in(reg) acc[0].as_mut_ptr(),
            p1 = in(reg) acc[1].as_mut_ptr(),
            p2 = in(reg) acc[2].as_mut_ptr(),
            p3 = in(reg) acc[3].as_mut_ptr(),
            row = in(reg) ROW,
            options(nostack, preserves_flags)
        );
    }

    /// Thresholds and flips of the (one or two) filter blocks of a pair.
    struct Pair {
        /// First filter of the pair.
        n0: usize,
        /// Filter blocks of the pair that hold filters: 1 or 2. The last
        /// pair of an odd count multiplies the bank's zero block too; those
        /// accumulators are never stored.
        blocks: usize,
        /// `dot ≥ thr` ⟺ `pop ≤ bound`, per filter.
        thr: [__m512i; 2],
        /// The flip bits of each block's 16 filters.
        flip: [u16; 2],
    }

    impl Pair {
        /// Filter blocks `nb` and (if it exists) `nb + 1` of a window of
        /// `window` bits.
        #[inline(always)]
        unsafe fn new(sink: &SignSink<'_>, nb: usize, k_blocks: usize, window: i64) -> Self {
            let n0 = nb * FILTERS;
            let blocks = (k_blocks - nb).min(2);
            let mut thr = [_mm512_setzero_si512(); 2];
            let mut flip = [0u16; 2];
            for j in 0..blocks {
                let n = n0 + j * FILTERS;
                let mut t = [0i32; FILTERS];
                for (t, &bound) in t.iter_mut().zip(&sink.bounds[n..n + FILTERS]) {
                    // pop ∈ [0, window], so a bound outside [−1, window]
                    // decides the same as its clamp, and the threshold fits
                    // in [−window, window + 2].
                    *t = (window - 2 * bound.clamp(-1, window)) as i32;
                }
                thr[j] = _mm512_loadu_si512(t.as_ptr().cast());
                flip[j] = (sink.flips[n / 64] >> (n % 64)) as u16;
            }
            Self {
                n0,
                blocks,
                thr,
                flip,
            }
        }
    }

    /// Where a band's positions land: band-relative position → sink word.
    struct Band {
        /// Output row of the band's first row, relative to the call's rows.
        first: usize,
        /// Output rows in the band.
        rows: usize,
    }

    /// The epilogue of the block whose first position is `p0`: sign bits of
    /// every stored position, straight into the packed output.
    #[inline(always)]
    unsafe fn epilogue(
        acc: &Acc,
        p0: usize,
        pair: &Pair,
        band: &Band,
        g: &ConvGeom,
        row_stride: usize,
        sink: &mut SignSink<'_>,
    ) {
        let ocw = g.k.div_ceil(64);
        let slot0 = pair.n0 % 64 / FILTERS;
        let out = sink.out.as_mut_ptr();
        let (mut y, mut x) = (p0 / g.in_w, p0 % g.in_w);
        // Accumulator 2·half + j holds position tile `half` × filter tile j.
        for tiles in acc.chunks_exact(2) {
            for row in 0..ROWS {
                if y < band.rows && x < g.out_w {
                    let word = out
                        .add(sink.origin + (band.first + y) * row_stride + x * ocw + pair.n0 / 64);
                    for (j, tile) in tiles[..pair.blocks].iter().enumerate() {
                        let dots = _mm512_loadu_si512(tile[row].as_ptr().cast());
                        let bits = _mm512_cmpge_epi32_mask(dots, pair.thr[j]) ^ pair.flip[j];
                        match slot0 + j {
                            // The word's first 16 bits, zero-extended: the
                            // rest of the word (the press tail, past K) is
                            // zero unless a later block writes it.
                            0 => word.write(u64::from(bits)),
                            slot => word.cast::<u16>().add(slot).write_unaligned(bits),
                        }
                    }
                }
                x += 1;
                if x == g.in_w {
                    (x, y) = (0, y + 1);
                }
            }
        }
    }

    /// The body: output rows `rows` of `g` into `sink`, band by band.
    ///
    /// # Safety
    /// AMX int8 with AVX-512 F/BW available and this thread's tile-data
    /// permission granted; `conv_rows`' checks passed, plus those of its
    /// AMX arm: `bank` holds `g.k` filters of `kh·kw·c_words` steps,
    /// `g.stride == 1`, `g.k % 16 == 0`, `band_rows(g, strip) ≥ 1`, and the
    /// [`reach`] of a band within the strip.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(crate) unsafe fn tiles(
        input: &[u64],
        bank: &AmxBank,
        strip: &mut AmxStrip,
        g: &ConvGeom,
        rows: Range<usize>,
        row_stride: usize,
        sink: &mut SignSink<'_>,
    ) {
        let pitch = g.c_words * ROW;
        let in_row = g.in_w * pitch;
        let run = g.kw * g.c_words;
        let steps = g.kh * run;
        let k_blocks = g.k / FILTERS;
        let window = (steps * ROW) as i64;
        let band_rows = band_rows(g, strip.bytes());
        let cfg = TileConfig::new();
        asm!(
            "ldtilecfg [{}]",
            in(reg) std::ptr::from_ref(&cfg),
            options(nostack, readonly, preserves_flags)
        );
        let mut acc: [Acc; 2] = [[[[0; FILTERS]; ROWS]; 4]; 2];
        let s = strip.lines.as_mut_ptr();
        for start in rows.clone().step_by(band_rows) {
            let band = Band {
                first: start - rows.start,
                rows: band_rows.min(rows.end - start),
            };
            // The band's input rows, kh − 1 of halo included: inside the
            // map by conv_rows' window check, inside the strip by
            // `band_rows`.
            let px = g.in_w * g.c_words;
            let words = input.get_unchecked(start * px..(start + band.rows + g.kh - 1) * px);
            expand_rows(words, s);
            // The last stored position is (rows − 1, out_w − 1); its block
            // reads at most BLOCK − 1 positions past it, plus its window:
            // inside the expanded rows + the strip's slack, since
            // out_w + kw − 1 ≤ in_w.
            let blocks = ((band.rows - 1) * g.in_w + g.out_w).div_ceil(BLOCK);
            for nb in (0..k_blocks).step_by(2) {
                let pair = Pair::new(sink, nb, k_blocks, window);
                let b = bank.lines.as_ptr().add(nb * steps * ROWS).cast::<i8>();
                let b_next = steps * B_STEP;
                for pb in 0..blocks {
                    zero_acc();
                    // Step t reads window row t / run at column step
                    // t % run: `run` consecutive lines a row, rows `in_row`
                    // bytes apart; its B tiles are consecutive.
                    let (mut ap, mut bp) = (s.add(pb * BLOCK * g.c_words).cast::<i8>(), b);
                    let mut col = 0;
                    load_2x2(ap, pitch, bp, b_next);
                    for _ in 1..steps {
                        col += 1;
                        ap = ap.add(if col == run {
                            in_row - (run - 1) * ROW
                        } else {
                            ROW
                        });
                        col %= run;
                        bp = bp.add(B_STEP);
                        mul_load_2x2(ap, pitch, bp, b_next);
                    }
                    mul_2x2();
                    // The previous block's epilogue, behind this block's
                    // tile loop; then this block's accumulators.
                    if pb > 0 {
                        let prev = pb - 1;
                        epilogue(
                            &acc[prev % 2],
                            prev * BLOCK,
                            &pair,
                            &band,
                            g,
                            row_stride,
                            sink,
                        );
                    }
                    store_acc(&mut acc[pb % 2]);
                }
                let last = blocks - 1;
                epilogue(
                    &acc[last % 2],
                    last * BLOCK,
                    &pair,
                    &band,
                    g,
                    row_stride,
                    sink,
                );
            }
        }
        asm!("tilerelease", options(nostack, nomem, preserves_flags));
    }
}

#[cfg(target_arch = "x86_64")]
use body::expand_bank;
