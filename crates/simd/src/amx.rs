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
//! * **The tile loop** is a 2 × 2 block: two A tiles, output columns
//!   `x0..x0 + 16` of band rows `y` and `y + 1` (tile row = one position,
//!   row pitch `C` bytes), two B tiles of 16 filters, four accumulators.
//!   Position (y, x) reads its window at `(y + r)·in_w + x` for window row
//!   `r`, `kw·c_words` consecutive 64-byte steps. The walk goes one column
//!   strip at a time (`x0` outer, `y` in steps of 2 inner), so consecutive
//!   blocks share `kh − 1` of their `kh + 1` input rows in L1. Columns past
//!   `out_w` (the last tile of a row reads up to 15 positions past it) and
//!   a missing row `y + 1` (an odd band; its tile re-reads row `y`) are
//!   computed and never stored. Within a band the filter pair is the outer
//!   loop, so its `2·steps` B tiles stay in cache while every block
//!   streams past; an odd count of 16-filter blocks multiplies the bank's
//!   zero block as the pair's second.
//! * **The steps** are software-pipelined across blocks: a block's last
//!   step loads the next block's first tiles, and the next block's first
//!   step stores the finished accumulators one at a time, each followed by
//!   its first product, so the matrix unit is not idle while they drain.
//!   Two accumulator sets alternate, interleaved line by line, so the
//!   epilogue's loads of one never 4K-alias the pending stores of the other.
//! * **The epilogue** takes one base pointer per tile run (16 positions of
//!   one row) and compares each accumulator row — one position, 16 filters
//!   — against the 16 thresholds, for both blocks of the pair, xors in the
//!   flips, and stores the pair's 32 sign bits in one store: 32 bits, or
//!   the whole word zero-extended for a word's first pair (which writes the
//!   press tail). A block's epilogue runs while the block after next
//!   computes, in slices of a few positions, one after each of its K-steps:
//!   its loads then trickle in between the tile loads instead of arriving
//!   as one burst that holds them up.
//! * **Reach**: a band of `rows` rows reads up to `⌈out_w/16⌉·16 + kw − 1`
//!   columns into its last input row ([`reach`]), at most 15 positions past
//!   the expanded rows; the strip holds 16 positions of slack after them.
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

/// Filters of one B tile: half the sign bits of one epilogue store.
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
/// the slack the last row's last column tile reads into. One per thread
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

/// Strip bytes past the expanded band that the last row's last column
/// tile may read: at most `ROWS − 1` positions (see [`reach`]).
fn slack(g: &ConvGeom) -> usize {
    ROWS * g.c_words * ROW
}

/// Output rows of one band in a strip of `strip_bytes`; 0 if not even one
/// fits.
pub(crate) fn band_rows(g: &ConvGeom, strip_bytes: usize) -> usize {
    let row = g.in_w * g.c_words * ROW;
    let room = strip_bytes.saturating_sub(slack(g)).min(STRIP_BYTES);
    (room / row).saturating_sub(g.kh - 1)
}

/// Strip bytes the A-tile loads of a band of `rows` output rows reach: the
/// last row's last column tile (output columns up to `⌈out_w/16⌉·16 − 1`),
/// at its last window step. At most the band's expanded rows plus
/// [`slack`], since `out_w + kw − 1 ≤ in_w`: that tile reads at most 15
/// positions past the last row.
pub(crate) fn reach(g: &ConvGeom, rows: usize) -> usize {
    let cols = g.out_w.div_ceil(ROWS) * ROWS;
    ((rows + g.kh - 2) * g.in_w + cols + g.kw - 1) * g.c_words * ROW
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

    /// Where one K-step of a 2 × 2 block reads its tiles: A at `a` and
    /// `a + a_next`, B at `b` and `b + steps·B_STEP` (the pair's second
    /// block).
    #[derive(Clone, Copy)]
    struct Step {
        a: *const i8,
        a_next: usize,
        b: *const i8,
        /// The step's window column step, `t % run`.
        col: usize,
    }

    impl Step {
        /// The block's next K-step: window row `t / run`, column step
        /// `t % run` — `run` consecutive lines a row, rows `in_row` bytes
        /// apart; its B tiles are the next ones.
        #[inline(always)]
        fn next(self, run: usize, in_row: usize) -> Self {
            let col = self.col + 1;
            let (a, col) = if col == run {
                (self.a.wrapping_add(in_row - (run - 1) * ROW), 0)
            } else {
                (self.a.wrapping_add(ROW), col)
            };
            Self {
                a,
                b: self.b.wrapping_add(B_STEP),
                col,
                ..self
            }
        }
    }

    // The K-steps are software-pipelined: a step's products and the
    // following step's tile loads are one asm block, each load placed
    // right after the last product that reads the tile it overwrites
    // (tile registers are not renamed), so the loads run under the
    // remaining products instead of between steps. A block's last step
    // loads the next block's first tiles, and the next block's first
    // products run between the stores of the previous accumulators.

    /// The tiles of the first block's first step.
    #[inline(always)]
    unsafe fn load_2x2(s: Step, pitch: usize, b_next: usize) {
        asm!(
            "tileloadd tmm4, [{a0} + {pitch}*1]",
            "tileloadd tmm6, [{b0} + {row}*1]",
            "tileloadd tmm7, [{b1} + {row}*1]",
            "tileloadd tmm5, [{a1} + {pitch}*1]",
            a0 = in(reg) s.a,
            a1 = in(reg) s.a.add(s.a_next),
            pitch = in(reg) pitch,
            b0 = in(reg) s.b,
            b1 = in(reg) s.b.add(b_next),
            row = in(reg) ROW,
            options(nostack, readonly, preserves_flags)
        );
    }

    /// The loaded step's four products, and the following step's tiles.
    #[inline(always)]
    unsafe fn mul_load_2x2(s: Step, pitch: usize, b_next: usize) {
        asm!(
            "tdpbssd tmm0, tmm4, tmm6",
            "tdpbssd tmm1, tmm4, tmm7",
            "tileloadd tmm4, [{a0} + {pitch}*1]",
            "tdpbssd tmm2, tmm5, tmm6",
            "tileloadd tmm6, [{b0} + {row}*1]",
            "tdpbssd tmm3, tmm5, tmm7",
            "tileloadd tmm7, [{b1} + {row}*1]",
            "tileloadd tmm5, [{a1} + {pitch}*1]",
            a0 = in(reg) s.a,
            a1 = in(reg) s.a.add(s.a_next),
            pitch = in(reg) pitch,
            b0 = in(reg) s.b,
            b1 = in(reg) s.b.add(b_next),
            row = in(reg) ROW,
            options(nostack, readonly, preserves_flags)
        );
    }

    /// A block's first step after another block: the previous block's
    /// accumulators stored to set `set` of `acc` and zeroed one by one,
    /// each followed by this step's product into it, and the following
    /// step's tiles.
    #[inline(always)]
    unsafe fn store_mul_load_2x2(acc: &mut Acc, set: usize, s: Step, pitch: usize, b_next: usize) {
        asm!(
            "tilestored [{p0} + {arow}*1], tmm0",
            "tilezero tmm0",
            "tdpbssd tmm0, tmm4, tmm6",
            "tilestored [{p1} + {arow}*1], tmm1",
            "tilezero tmm1",
            "tdpbssd tmm1, tmm4, tmm7",
            "tileloadd tmm4, [{a0} + {pitch}*1]",
            "tilestored [{p2} + {arow}*1], tmm2",
            "tilezero tmm2",
            "tdpbssd tmm2, tmm5, tmm6",
            "tileloadd tmm6, [{b0} + {row}*1]",
            "tilestored [{p3} + {arow}*1], tmm3",
            "tilezero tmm3",
            "tdpbssd tmm3, tmm5, tmm7",
            "tileloadd tmm7, [{b1} + {row}*1]",
            "tileloadd tmm5, [{a1} + {pitch}*1]",
            p0 = in(reg) acc.0[0].as_mut_ptr().cast::<u8>().add(set * ROW),
            p1 = in(reg) acc.0[1].as_mut_ptr().cast::<u8>().add(set * ROW),
            p2 = in(reg) acc.0[2].as_mut_ptr().cast::<u8>().add(set * ROW),
            p3 = in(reg) acc.0[3].as_mut_ptr().cast::<u8>().add(set * ROW),
            arow = in(reg) 2 * ROW,
            a0 = in(reg) s.a,
            a1 = in(reg) s.a.add(s.a_next),
            pitch = in(reg) pitch,
            b0 = in(reg) s.b,
            b1 = in(reg) s.b.add(b_next),
            row = in(reg) ROW,
            options(nostack, preserves_flags)
        );
    }

    /// Two sets of a block's four accumulators, interleaved line by line:
    /// `[2·row tile + filter tile][column][set][filter]`. A set's tiles are
    /// stored with a 128-byte row stride at offset `64·set`, so the
    /// epilogue's loads from one set never share the low 12 address bits of
    /// the other set's pending tile stores (no 4K aliasing), as two
    /// separate 4 KB sets would.
    #[repr(C, align(64))]
    struct Acc([[[[i32; FILTERS]; 2]; ROWS]; 4]);

    /// Stores the last block's accumulators to set `set` of `acc`.
    #[inline(always)]
    unsafe fn store_acc(acc: &mut Acc, set: usize) {
        asm!(
            "tilestored [{p} + {row}*1], tmm0",
            "tilestored [{p1} + {row}*1], tmm1",
            "tilestored [{p2} + {row}*1], tmm2",
            "tilestored [{p3} + {row}*1], tmm3",
            p = in(reg) acc.0[0].as_mut_ptr().cast::<u8>().add(set * ROW),
            p1 = in(reg) acc.0[1].as_mut_ptr().cast::<u8>().add(set * ROW),
            p2 = in(reg) acc.0[2].as_mut_ptr().cast::<u8>().add(set * ROW),
            p3 = in(reg) acc.0[3].as_mut_ptr().cast::<u8>().add(set * ROW),
            row = in(reg) 2 * ROW,
            options(nostack, preserves_flags)
        );
    }

    /// Thresholds and flips of the (one or two) filter blocks of a pair.
    struct Pair {
        /// First filter of the pair: a multiple of 32, so the pair's 32
        /// sign bits are one half of an output word.
        n0: usize,
        /// `dot ≥ thr` ⟺ `pop ≤ bound`, per filter. The missing second
        /// block of an odd count — the bank's zero block, every dot 0 —
        /// gets `i32::MAX`, so its 16 bits are 0: the press tail.
        thr: [__m512i; 2],
        /// The flip bits of the pair's 32 filters.
        flip: u32,
    }

    impl Pair {
        /// Filter blocks `nb` and (if it exists) `nb + 1` of a window of
        /// `window` bits.
        #[inline(always)]
        unsafe fn new(sink: &SignSink<'_>, nb: usize, k_blocks: usize, window: i64) -> Self {
            let n0 = nb * FILTERS;
            let mut thr = [_mm512_set1_epi32(i32::MAX); 2];
            for (j, thr) in thr.iter_mut().enumerate().take(k_blocks - nb) {
                let n = n0 + j * FILTERS;
                let mut t = [0i32; FILTERS];
                for (t, &bound) in t.iter_mut().zip(&sink.bounds[n..n + FILTERS]) {
                    // pop ∈ [0, window], so a bound outside [−1, window]
                    // decides the same as its clamp, and the threshold fits
                    // in [−window, window + 2].
                    *t = (window - 2 * bound.clamp(-1, window)) as i32;
                }
                *thr = _mm512_loadu_si512(t.as_ptr().cast());
            }
            // Bits past K are 0 in the flips (the sink's contract).
            let flip = (sink.flips[n0 / 64] >> (n0 % 64)) as u32;
            Self { n0, thr, flip }
        }
    }

    /// A band's output rows and where they land in the sink.
    struct Band {
        /// Output row of the band's first row, relative to the call's rows.
        first: usize,
        /// Output rows in the band.
        rows: usize,
        /// Output columns of a row.
        out_w: usize,
        /// Sink words between consecutive output rows.
        row_stride: usize,
        /// Sink words of one position, `⌈K/64⌉`.
        ocw: usize,
    }

    /// The epilogue of positions `span` of the block at output columns
    /// `x0..x0 + 16` of band rows `y` and `y + 1` (position `p` is column
    /// `x0 + p % 16` of row `y + p / 16`), whose accumulators are set `set`
    /// of `acc`: one store of the pair's 32 sign bits per stored position,
    /// straight into the packed output. Columns past `out_w` and a row past
    /// the band are not stored.
    #[inline(always)]
    unsafe fn epilogue(
        acc: &Acc,
        set: usize,
        (x0, y): (usize, usize),
        span: Range<usize>,
        pair: &Pair,
        band: &Band,
        sink: &mut SignSink<'_>,
    ) {
        let ocw = band.ocw;
        let (cols, rows) = ((band.out_w - x0).min(ROWS), (band.rows - y).min(2));
        let base = sink.origin + (band.first + y) * band.row_stride + x0 * ocw + pair.n0 / 64;
        let high = !pair.n0.is_multiple_of(64);
        let out = sink.out.as_mut_ptr();
        for p in span.start..span.end.min(BLOCK) {
            let (t, x) = (p / ROWS, p % ROWS);
            if x >= cols || t >= rows {
                continue;
            }
            // Accumulator 2·t + j holds row tile t × filter tile j.
            let [lo, hi] = [0, 1].map(|j| {
                let dots = _mm512_loadu_si512(acc.0[2 * t + j][x][set].as_ptr().cast());
                u32::from(_mm512_cmpge_epi32_mask(dots, pair.thr[j]))
            });
            let bits = (lo | hi << 16) ^ pair.flip;
            let word = out.add(base + t * band.row_stride + x * ocw);
            if high {
                word.cast::<u32>().add(1).write(bits);
            } else {
                // A word's first pair writes the whole word, zero-extended:
                // the rest of it (the press tail, past K) is zero unless the
                // next pair writes it.
                word.write(u64::from(bits));
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
        let mut acc = Acc([[[[0; FILTERS]; 2]; ROWS]; 4]);
        let s = strip.lines.as_mut_ptr();
        for start in rows.clone().step_by(band_rows) {
            let band = Band {
                first: start - rows.start,
                rows: band_rows.min(rows.end - start),
                out_w: g.out_w,
                row_stride,
                ocw: g.k.div_ceil(64),
            };
            // The band's input rows, kh − 1 of halo included: inside the
            // map by conv_rows' window check, inside the strip by
            // `band_rows`.
            let px = g.in_w * g.c_words;
            let words = input.get_unchecked(start * px..(start + band.rows + g.kh - 1) * px);
            expand_rows(words, s);
            for nb in (0..k_blocks).step_by(2) {
                let pair = Pair::new(sink, nb, k_blocks, window);
                let b = bank.lines.as_ptr().add(nb * steps * ROWS).cast::<i8>();
                let b_next = steps * B_STEP;
                // Step 0 of the block at output columns x0.. of band rows
                // y and y + 1. A missing row y + 1 re-reads row y. The last
                // column tile of the band's last row reads at most 15
                // positions past the expanded rows: the slack.
                let first = |(x0, y): (usize, usize)| Step {
                    a: s.add((y * g.in_w + x0) * g.c_words).cast::<i8>(),
                    a_next: if y + 1 < band.rows { in_row } else { 0 },
                    b,
                    col: 0,
                };
                // Column strips of 16 outer, row pairs inner: consecutive
                // blocks share kh − 1 of their kh + 1 input rows.
                let mut walk = (0..g.out_w)
                    .step_by(ROWS)
                    .flat_map(|x0| (0..band.rows).step_by(2).map(move |y| (x0, y)));
                let Some(mut at) = walk.next() else { continue };
                zero_acc();
                load_2x2(first(at), pitch, b_next);
                // The two blocks behind this one: `stored`, whose
                // accumulators this block's first step stores to set
                // `parity`, and `done`, stored to the other set one block
                // earlier. Done's epilogue runs in slices of `per`
                // positions, one after each of this block's later steps, so
                // its loads trickle in between the tile loads: as one burst
                // of 32 positions they delay the tile loads behind them and
                // the matrix unit waits.
                let (mut stored, mut done) = (None, None);
                let per = BLOCK.div_ceil(steps.saturating_sub(2).max(1));
                let mut parity = 0;
                loop {
                    let next = walk.next();
                    // What this block's last step loads: the next block's
                    // first tiles, or (after the last block) its own again.
                    let after = first(next.unwrap_or(at));
                    // What the first step loads: the second step's tiles,
                    // or `after` for a one-step window.
                    let mut step = if steps > 1 {
                        first(at).next(run, in_row)
                    } else {
                        after
                    };
                    if stored.is_some() {
                        store_mul_load_2x2(&mut acc, parity, step, pitch, b_next);
                        parity ^= 1;
                    } else {
                        mul_load_2x2(step, pitch, b_next);
                    }
                    let mut pos = 0;
                    for _ in 2..steps {
                        step = step.next(run, in_row);
                        mul_load_2x2(step, pitch, b_next);
                        if let Some(d) = done.filter(|_| pos < BLOCK) {
                            epilogue(&acc, parity, d, pos..pos + per, &pair, &band, sink);
                        }
                        pos += per;
                    }
                    if steps > 1 {
                        mul_load_2x2(after, pitch, b_next);
                    }
                    if let Some(d) = done.filter(|_| pos < BLOCK) {
                        epilogue(&acc, parity, d, pos..BLOCK, &pair, &band, sink);
                    }
                    (done, stored) = (stored, Some(at));
                    match next {
                        Some(n) => at = n,
                        None => break,
                    }
                }
                store_acc(&mut acc, parity);
                if let Some(d) = done {
                    epilogue(&acc, parity ^ 1, d, 0..BLOCK, &pair, &band, sink);
                }
                epilogue(&acc, parity, at, 0..BLOCK, &pair, &band, sink);
            }
        }
        asm!("tilerelease", options(nostack, nomem, preserves_flags));
    }
}

#[cfg(target_arch = "x86_64")]
use body::expand_bank;

#[cfg(test)]
mod tests {
    use super::*;

    /// `(map side, c_words, K)` of every 3×3 conv of VGG-16 and
    /// `tiered_cnn`, the input padded by one on each side; a channel-pressed
    /// first conv takes one word a pixel.
    const CONVS: [(usize, usize, usize); 12] = [
        (224, 1, 64),
        (112, 1, 128),
        (112, 2, 128),
        (56, 2, 256),
        (56, 4, 256),
        (28, 4, 512),
        (28, 8, 512),
        (14, 8, 512),
        (32, 1, 64),
        (16, 1, 128),
        (8, 2, 256),
        (4, 4, 512),
    ];

    #[test]
    fn every_band_reads_inside_its_strip() {
        for (hw, c_words, k) in CONVS {
            let g = ConvGeom {
                c_words,
                in_w: hw + 2,
                kh: 3,
                kw: 3,
                stride: 1,
                out_w: hw,
                k,
            };
            let in_h = hw + 2;
            // Strips sized for bands of 1..=5 rows, and for the whole map.
            for strip_rows in (1..=5).map(|rows| rows + g.kh - 1).chain([in_h]) {
                let bytes = AmxStrip::bytes_for(&g, strip_rows);
                assert_eq!(AmxStrip::new(bytes).bytes(), bytes, "{g:?}");
                let most = band_rows(&g, bytes);
                assert!(most >= 1, "{g:?}: strip {strip_rows} holds no band");
                for rows in 1..=most.min(in_h - g.kh + 1) {
                    assert!(
                        reach(&g, rows) <= bytes,
                        "{g:?}: a band of {rows} rows reads {} bytes of a {bytes}-byte strip",
                        reach(&g, rows)
                    );
                }
            }
        }
    }
}
