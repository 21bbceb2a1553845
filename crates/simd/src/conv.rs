//! The filter-lane tiled convolution core.
//!
//! PressedConv's whole inner computation lives here as **one** loop whose
//! vector lanes are eight output *filters*, not channel words — the
//! register-blocked pixels × filters micro-kernel shape daBNN uses for its
//! binary direct convolution, integer end to end:
//!
//! * the filter bank is stored filter-interleaved,
//!   `[⌈K/8⌉][kh·kw·c_words][8]` (`bitflow_tensor::BitFilterBank`), so one
//!   64-byte load fetches window word `t` of the eight filters of a group;
//! * the loop walks (tile of [`TILE`] adjacent output pixels) × (filter
//!   group): per window word it loads one group, xors it against the
//!   **broadcast** input word of each tile pixel, popcounts, and adds into
//!   that pixel's accumulator — eight pixels × eight filters of running
//!   popcounts held in registers, each filter word loaded once per tile. The
//!   window is one flat run of `kh·kw·c_words` steps over a running input
//!   offset, and its first step *is* the accumulator (no zeroing, no add),
//!   so a one-word window — the window-pressed first layer — is a xor and a
//!   popcount per pixel and nothing else;
//! * after the window the sink ([`ConvSink`]) compares the eight popcounts
//!   of a pixel against the group's eight bounds in one vector compare,
//!   yielding eight output **bits** — one byte of the pixel's output word,
//!   stored as a byte into the tile's 64-byte block of words; after eight
//!   groups the words are read back whole, the word's flip mask is xored in
//!   once, and they are stored. The popcounts never leave the registers: no
//!   float accumulator, no dot scratch, no horizontal reduction, no
//!   transposition, and no count map — the output is the next layer's
//!   pressed input.
//!
//! Because the lane axis is K, the same loop serves every channel width,
//! kernel size and stride. It is monomorphized over the SIMD tier,
//! dispatched once per call: the tier decides how a 64-byte group is
//! processed ([`GroupBody`]: one zmm with `VPOPCNTQ`, two ymm with the
//! nibble-lookup popcount, or eight scalar words).
//!
//! A call that carries the matrix unit's operands runs the second body
//! instead, the AMX int8 tile loop of [`crate::amx`]: same operands and
//! output, word for word. [`body_choice`] is the one rule that says which
//! convs get those operands, from the host and the map alone.
//!
//! Layout contract (established by `bitflow-tensor`):
//!
//! * `input` — packed words of the whole (padded) input map, pixel-major:
//!   pixel (y, x) starts at `(y·in_w + x)·c_words`, so the `kw` pixels of a
//!   window row are one contiguous run of `kw·c_words` words.
//! * `filters` — the interleaved bank described above; lanes beyond K hold
//!   zero filters.
//! * `pop = popcount(window ⊕ filter)`; `dot = window_bits − 2·pop`.

use crate::amx::{self, AmxBank, AmxStrip};
use crate::kernels::SimdLevel;
use std::fmt;
use std::ops::Range;

/// Filters per lane group (`u64` lanes of one 64-byte line).
pub const LANES: usize = 8;

/// Lane groups per 64-bit output word.
const WORD_GROUPS: usize = 64 / LANES;

/// Adjacent output pixels per tile. A shorter remainder tile runs the same
/// loop: its missing pixels repeat the last real one and are never stored.
pub const TILE: usize = 8;

/// Geometry of one convolution call (all sizes in pixels or `u64` words).
#[derive(Clone, Copy, Debug)]
pub struct ConvGeom {
    /// Packed words per input pixel.
    pub c_words: usize,
    /// Input width in pixels, baked-in padding included.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Output width in pixels.
    pub out_w: usize,
    /// Logical output features K.
    pub k: usize,
}

/// What the core does with the popcounts of a finished window: threshold-sign
/// them in the popcount domain and store pressed bits. Bit `k % 64` of output
/// word `k / 64` is `(pop ≤ bounds[k]) ^ bit k % 64 of flips[k / 64]`. Output
/// pixel (y, x) of the call's row range occupies the `⌈K/64⌉` words at
/// `origin + (y − rows.start)·row_stride + x·⌈K/64⌉` of `out`; words outside
/// those pixels (padding margins) are not touched. Lanes beyond K must carry
/// `bounds = −1`, `flip = 0` so the press tail stays zero.
pub struct ConvSink<'a> {
    /// `⌈K/8⌉·8` popcount bounds.
    pub bounds: &'a [i64],
    /// `⌈K/64⌉` xor masks, one per output word of a pixel.
    pub flips: &'a [u64],
    /// Destination words.
    pub out: &'a mut [u64],
    /// Word offset of the first output pixel of the row range.
    pub origin: usize,
    /// Words between consecutive output rows.
    pub row_stride: usize,
    /// The matrix unit's operands, when the caller has them: the bank's
    /// int8 copy and a strip to expand the input into. The call then runs
    /// the AMX body if it can ([`amx_can_run`]); without them it runs the
    /// filter-lane loop. Both write the same words.
    pub amx: Option<(&'a AmxBank, &'a mut AmxStrip)>,
}

/// How one SIMD tier processes a 64-byte filter group. `Acc` holds the eight
/// running popcounts of one output pixel, `Bounds` a group's eight popcount
/// bounds, loaded once per (tile, group).
///
/// # Safety
/// Every method requires the tier's CPU features to be available; `load` and
/// `bounds` additionally require [`LANES`] readable words at their pointer.
trait GroupBody {
    type Group: Copy;
    type Acc: Copy;
    type Bounds: Copy;
    unsafe fn load(f: *const u64) -> Self::Group;
    /// `popcount(f ⊕ broadcast(x))`, lane-wise: a window's first step.
    unsafe fn first(f: Self::Group, x: u64) -> Self::Acc;
    /// `acc + popcount(f ⊕ broadcast(x))`, lane-wise.
    unsafe fn step(acc: Self::Acc, f: Self::Group, x: u64) -> Self::Acc;
    unsafe fn bounds(b: *const i64) -> Self::Bounds;
    /// Bit `l` = `pops[l] ≤ bounds[l]`; bits 8 and up are zero.
    unsafe fn le_mask(acc: Self::Acc, bounds: Self::Bounds) -> u64;
}

/// Eight scalar words per group: the Scalar/SSE tier (SSE has no vector
/// popcount to offer), and with `OPAQUE` the `Unvectorized` paper baseline
/// — [`std::hint::black_box`] on every xor result defeats
/// auto-vectorization, leaving one `XOR` + one `POPCNT` per word.
struct Words<const OPAQUE: bool>;

impl<const OPAQUE: bool> GroupBody for Words<OPAQUE> {
    type Group = [u64; LANES];
    type Acc = [u64; LANES];
    type Bounds = [i64; LANES];
    #[inline(always)]
    unsafe fn load(f: *const u64) -> Self::Group {
        f.cast::<[u64; LANES]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn first(f: Self::Group, x: u64) -> Self::Acc {
        Self::step([0; LANES], f, x)
    }
    #[inline(always)]
    unsafe fn step(mut acc: Self::Acc, f: Self::Group, x: u64) -> Self::Acc {
        for (a, &w) in acc.iter_mut().zip(&f) {
            let v = if OPAQUE {
                std::hint::black_box(w ^ x)
            } else {
                w ^ x
            };
            *a += v.count_ones() as u64;
        }
        acc
    }
    #[inline(always)]
    unsafe fn bounds(b: *const i64) -> Self::Bounds {
        b.cast::<[i64; LANES]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn le_mask(acc: Self::Acc, bounds: Self::Bounds) -> u64 {
        let mut m = 0u64;
        for (l, (&pop, &bound)) in acc.iter().zip(&bounds).enumerate() {
            m |= ((pop as i64 <= bound) as u64) << l;
        }
        m
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Two ymm halves per group with the nibble-lookup popcount: the AVX2 tier,
/// and AVX-512 hosts without VPOPCNTDQ. The sign compare is two `VPCMPGTQ`
/// whose sign bits `VMOVMSKPD` collects.
#[cfg(target_arch = "x86_64")]
struct Ymm2;

#[cfg(target_arch = "x86_64")]
impl GroupBody for Ymm2 {
    type Group = [__m256i; 2];
    type Acc = [__m256i; 2];
    type Bounds = [__m256i; 2];
    #[inline(always)]
    unsafe fn load(f: *const u64) -> Self::Group {
        [
            _mm256_loadu_si256(f as *const __m256i),
            _mm256_loadu_si256(f.add(4) as *const __m256i),
        ]
    }
    #[inline(always)]
    unsafe fn first(f: Self::Group, x: u64) -> Self::Acc {
        use crate::popcount::popcount_m256_lookup as popcount;
        let x = _mm256_set1_epi64x(x as i64);
        [
            popcount(_mm256_xor_si256(f[0], x)),
            popcount(_mm256_xor_si256(f[1], x)),
        ]
    }
    #[inline(always)]
    unsafe fn step(acc: Self::Acc, f: Self::Group, x: u64) -> Self::Acc {
        let pop = Self::first(f, x);
        [
            _mm256_add_epi64(acc[0], pop[0]),
            _mm256_add_epi64(acc[1], pop[1]),
        ]
    }
    #[inline(always)]
    unsafe fn bounds(b: *const i64) -> Self::Bounds {
        Self::load(b as *const u64)
    }
    #[inline(always)]
    unsafe fn le_mask(acc: Self::Acc, bounds: Self::Bounds) -> u64 {
        // Popcounts are far below 2⁶³, so the signed compare is exact.
        let gt0 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(acc[0], bounds[0])));
        let gt1 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(acc[1], bounds[1])));
        (gt0 | gt1 << 4) as u64 ^ 0xFF
    }
}

/// One zmm per group with native `VPOPCNTQ`; the sign compare is a single
/// `VPCMPQ` into a mask register.
#[cfg(target_arch = "x86_64")]
struct Zmm;

#[cfg(target_arch = "x86_64")]
impl GroupBody for Zmm {
    type Group = __m512i;
    type Acc = __m512i;
    type Bounds = __m512i;
    #[inline(always)]
    unsafe fn load(f: *const u64) -> Self::Group {
        _mm512_loadu_si512(f as *const _)
    }
    #[inline(always)]
    unsafe fn first(f: Self::Group, x: u64) -> Self::Acc {
        _mm512_popcnt_epi64(_mm512_xor_si512(f, _mm512_set1_epi64(x as i64)))
    }
    #[inline(always)]
    unsafe fn step(acc: Self::Acc, f: Self::Group, x: u64) -> Self::Acc {
        _mm512_add_epi64(acc, Self::first(f, x))
    }
    #[inline(always)]
    unsafe fn bounds(b: *const i64) -> Self::Bounds {
        _mm512_loadu_si512(b as *const _)
    }
    #[inline(always)]
    unsafe fn le_mask(acc: Self::Acc, bounds: Self::Bounds) -> u64 {
        _mm512_cmple_epi64_mask(acc, bounds) as u64
    }
}

/// The eight output words of a tile, a byte per lane group.
type TileWords = [[u8; WORD_GROUPS]; TILE];

/// [`ConvSink`] inside the tile loop: a group's eight sign bits are byte
/// `gi % 8` of its pixel's output word, written there as a byte — a store,
/// which leaves the popcount and compare ports alone — so after eight groups
/// the tile's eight words are complete. A last word of fewer groups keeps
/// the zero bytes it started with: the press tail. The AMX body writes the
/// same fields its own way.
pub(crate) struct SignSink<'a> {
    pub(crate) bounds: &'a [i64],
    pub(crate) flips: &'a [u64],
    pub(crate) out: &'a mut [u64],
    pub(crate) origin: usize,
}

impl SignSink<'_> {
    /// Takes the popcounts of filter group `gi` of a tile.
    ///
    /// # Safety
    /// `B`'s CPU features must be available and `gi < ⌈K/8⌉`.
    #[inline(always)]
    unsafe fn group<B: GroupBody>(&self, gi: usize, acc: &[B::Acc; TILE], word: &mut TileWords) {
        // SAFETY: `gi < ⌈K/8⌉` and conv_rows asserted `⌈K/8⌉·8` bounds; B's
        // features are available (caller contract).
        unsafe {
            let b = B::bounds(self.bounds.as_ptr().add(gi * LANES));
            for (w, &a) in word.iter_mut().zip(acc) {
                w[gi % WORD_GROUPS] = B::le_mask(a, b) as u8;
            }
        }
    }

    /// Stores output word `wi` of the tile; `dst[p]` is the offset of tile
    /// pixel `p` relative to the first pixel of the row range, in
    /// output-pixel words.
    #[inline(always)]
    fn word(&mut self, wi: usize, word: TileWords, dst: &[usize]) {
        let flip = self.flips[wi];
        for (&d, &w) in dst.iter().zip(&word) {
            self.out[self.origin + d + wi] = u64::from_le_bytes(w) ^ flip;
        }
    }
}

/// The tile loop, monomorphized per tier. `dst_row` is the word distance
/// between output rows (see [`SignSink::word`]).
///
/// # Safety
/// `B`'s CPU features must be available, and the geometry must have passed
/// the bounds checks of [`conv_rows`]: every window word of every pixel of
/// `rows` lies inside `input`, and `filters` holds `⌈K/8⌉` whole groups.
#[inline(always)]
unsafe fn tiles<B: GroupBody>(
    input: &[u64],
    filters: &[u64],
    g: &ConvGeom,
    rows: Range<usize>,
    dst_row: usize,
    sink: &mut SignSink<'_>,
) {
    let row_len = g.kw * g.c_words;
    // From the last word of a window row to the first of the next.
    let row_skip = g.in_w * g.c_words - row_len;
    let steps = g.kh * row_len;
    let groups = g.k.div_ceil(LANES);
    let out_c_words = g.k.div_ceil(64);
    let px_pitch = g.stride * g.c_words;
    let n_px = rows.len() * g.out_w;
    let (inp, fil) = (input.as_ptr(), filters.as_ptr());
    // Window origin in `input`, and sink offset, of the next pixel and of
    // the first pixel of its row.
    let mut row_at = (rows.start * g.stride * g.in_w * g.c_words, 0usize);
    let mut at = row_at;
    let mut ox = 0usize;
    for px0 in (0..n_px).step_by(TILE) {
        let valid = TILE.min(n_px - px0);
        let mut base = [0usize; TILE];
        let mut dst = [0usize; TILE];
        for p in 0..TILE {
            if p < valid {
                (base[p], dst[p]) = at;
                ox += 1;
                if ox == g.out_w {
                    ox = 0;
                    row_at = (row_at.0 + g.in_w * px_pitch, row_at.1 + dst_row);
                    at = row_at;
                } else {
                    at = (at.0 + px_pitch, at.1 + out_c_words);
                }
            } else {
                base[p] = base[valid - 1];
            }
        }
        for g0 in (0..groups).step_by(WORD_GROUPS) {
            let mut word = [[0; WORD_GROUPS]; TILE];
            for gi in g0..groups.min(g0 + WORD_GROUPS) {
                // SAFETY: `gi < groups` and `t < steps`, so the LANES words
                // at `(gi·steps + t)·LANES` are inside the `groups·steps·
                // LANES` filter words conv_rows asserted; `base[p] + off`
                // walks the `kh` runs of `row_len` window words of a pixel
                // of `rows`, asserted inside `input`. B's features are
                // available (caller contract).
                unsafe {
                    let mut f = fil.add(gi * steps * LANES);
                    let f0 = B::load(f);
                    let mut acc = [B::first(f0, *inp.add(base[0])); TILE];
                    for p in 1..TILE {
                        acc[p] = B::first(f0, *inp.add(base[p]));
                    }
                    // The rest of the window: `kh` runs of `row_len` words,
                    // the first one short of the step taken above.
                    let (mut off, mut run) = (1usize, row_len - 1);
                    for _ in 0..g.kh {
                        for _ in 0..run {
                            f = f.add(LANES);
                            let ft = B::load(f);
                            for (a, &b) in acc.iter_mut().zip(&base) {
                                *a = B::step(*a, ft, *inp.add(b + off));
                            }
                            off += 1;
                        }
                        off += row_skip;
                        run = row_len;
                    }
                    sink.group::<B>(gi, &acc, &mut word);
                }
            }
            sink.word(g0 / WORD_GROUPS, word, &dst[..valid]);
        }
    }
}

type TileFn = unsafe fn(&[u64], &[u64], &ConvGeom, Range<usize>, usize, &mut SignSink<'_>);

/// [`tiles`] compiled with a tier's CPU features enabled.
macro_rules! tier {
    ($name:ident, $body:ty, $features:literal) => {
        /// # Safety
        /// As [`tiles`], whose `B` is this tier's body.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn $name(
            input: &[u64],
            filters: &[u64],
            g: &ConvGeom,
            rows: Range<usize>,
            dst_row: usize,
            sink: &mut SignSink<'_>,
        ) {
            // SAFETY: forwarded contract; the features are enabled on this fn.
            unsafe { tiles::<$body>(input, filters, g, rows, dst_row, sink) }
        }
    };
}
tier!(tiles_avx512, Zmm, "avx512f,avx512vpopcntdq");
tier!(tiles_avx2, Ymm2, "avx2");
// Without `popcnt` enabled, `count_ones` lowers to the SWAR sequence.
tier!(tiles_popcnt, Words<false>, "popcnt");
tier!(tiles_popcnt_opaque, Words<true>, "popcnt");

/// Which loop runs a call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvBody {
    /// The AMX int8 tile loop ([`crate::amx`]).
    Amx,
    /// The filter-lane loop on one zmm per group (`VPOPCNTQ`).
    Zmm,
    /// The filter-lane loop on two ymm per group (nibble lookup).
    Ymm,
    /// The filter-lane loop on eight scalar words per group.
    Words,
}

/// The clauses of the AMX eligibility rule, in the order [`body_choice`]
/// checks them: the first that fails keeps a call on the filter-lane loop.
/// The first five say whether the AMX body *can* run a call
/// ([`amx_can_run`]); the last three whether it *pays*, read off the
/// per-layer and per-workload Zmm-vs-AMX measurements (DESIGN.md §5.9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmxRule {
    /// The host cannot run AMX int8 (`HwFeatures::amx_int8`).
    Host,
    /// The call's tier is below AVX-512, whose registers the epilogue uses.
    Tier,
    /// Stride ≠ 1: a tile row of positions must be a row of the grid.
    Stride,
    /// K is not whole 16-filter B tiles.
    Filters,
    /// `kh` input rows overflow [`amx::STRIP_BYTES`]: no band fits.
    Strip,
    /// Fewer than [`AMX_MIN_STEPS`] K-steps (`kh·kw·c_words`) a window:
    /// the tile set-up and the strip expansion are not paid back (1×1
    /// convs, the window-pressed first layer).
    Depth,
    /// Fewer than [`AMX_MIN_OUT_W`] output columns: the `kw − 1` wrapped
    /// positions a row computes and discards outweigh the gain
    /// (`tiered_cnn` conv4, 4 × 4: ×1.00 on one thread).
    Width,
    /// Under [`AMX_MIN_MACS`] multiply-accumulates a map: the Zmm code
    /// that runs after an AMX call runs ≈10% slower for a while, which
    /// eats a gain of a few µs (`tiered_cnn` conv2/conv3, `small_cnn`).
    Work,
    /// Every clause holds: the AMX body.
    Eligible,
}

impl AmxRule {
    /// The clause as a short phrase.
    pub fn describe(self) -> &'static str {
        match self {
            AmxRule::Host => "host lacks amx-int8",
            AmxRule::Tier => "tier below avx512",
            AmxRule::Stride => "stride != 1",
            AmxRule::Filters => "K % 16 != 0",
            AmxRule::Strip => "kh rows > strip",
            AmxRule::Depth => "kh*kw*c_words < 9",
            AmxRule::Width => "out_w < 8",
            AmxRule::Work => "map < 2^26 MACs",
            AmxRule::Eligible => "eligible",
        }
    }
}

/// Least K-steps (`kh·kw·c_words`) a window must have for the AMX body.
pub const AMX_MIN_STEPS: usize = 9;

/// Least output columns a map must have for the AMX body.
pub const AMX_MIN_OUT_W: usize = 8;

/// Least multiply-accumulates (`out_h·out_w·K·kh·kw·c_words·64`) a map must
/// take for the AMX body: ≈80 µs on the Zmm tier. `tiered_cnn`'s convs are
/// 1.9·10⁷, VGG-16's smallest (conv5.x) 4.6·10⁸.
pub const AMX_MIN_MACS: usize = 1 << 26;

/// The body a call runs and the clause of the AMX rule that decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BodyChoice {
    /// The loop.
    pub body: ConvBody,
    /// The first failing clause, or [`AmxRule::Eligible`].
    pub rule: AmxRule,
}

impl fmt::Display for BodyChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = match self.body {
            ConvBody::Amx => "amx",
            ConvBody::Zmm => "zmm",
            ConvBody::Ymm => "ymm",
            ConvBody::Words => "words",
        };
        write!(f, "{body} ({})", self.rule.describe())
    }
}

/// The one rule behind every conv: the AMX body for a conv at
/// [`SimdLevel::Avx512`] over an `in_h`-row map when the host can run AMX
/// and the geometry qualifies — stride 1, `K % 16 == 0`, a band within the
/// strip, at least [`AMX_MIN_STEPS`] K-steps, [`AMX_MIN_OUT_W`] output
/// columns and [`AMX_MIN_MACS`] — and the filter-lane loop of `level`
/// otherwise. A pure function of the host and the map, never of the rows
/// a call covers. The engine asks it once per conv, at compile, and hands
/// the AMX operands only to the convs it picks.
pub fn body_choice(level: SimdLevel, g: &ConvGeom, in_h: usize) -> BodyChoice {
    let steps = g.kh * g.kw * g.c_words;
    let macs = (in_h + 1).saturating_sub(g.kh) * g.out_w * g.k * steps * 64;
    let rule = match amx_refusal(level, g) {
        Some(rule) => rule,
        None if steps < AMX_MIN_STEPS => AmxRule::Depth,
        None if g.out_w < AMX_MIN_OUT_W => AmxRule::Width,
        None if macs < AMX_MIN_MACS => AmxRule::Work,
        None => AmxRule::Eligible,
    };
    BodyChoice {
        body: match rule {
            AmxRule::Eligible => ConvBody::Amx,
            _ => lane_body(level),
        },
        rule,
    }
}

/// Whether the AMX body can run a call: what [`conv_rows`] checks before
/// it runs that body on the operands a caller hands it — whether it pays
/// was the caller's question ([`body_choice`]).
pub fn amx_can_run(level: SimdLevel, g: &ConvGeom) -> bool {
    amx_refusal(level, g).is_none()
}

/// The first clause that makes a call impossible for the AMX body.
fn amx_refusal(level: SimdLevel, g: &ConvGeom) -> Option<AmxRule> {
    let f = crate::detect::features();
    if !f.amx_int8 {
        Some(AmxRule::Host)
    } else if level != SimdLevel::Avx512 || !(f.avx512f && f.avx512bw) {
        Some(AmxRule::Tier)
    } else if g.stride != 1 {
        Some(AmxRule::Stride)
    } else if !g.k.is_multiple_of(amx::FILTERS) {
        Some(AmxRule::Filters)
    } else if amx::band_rows(g, usize::MAX) == 0 {
        Some(AmxRule::Strip)
    } else {
        None
    }
}

/// The filter-lane body that runs `level`: a level the host lacks demotes
/// to the widest body it has.
fn lane_body(level: SimdLevel) -> ConvBody {
    #[cfg(target_arch = "x86_64")]
    {
        let f = crate::detect::features();
        match level {
            SimdLevel::Avx512 if f.avx512f && f.avx512vpopcntdq => return ConvBody::Zmm,
            SimdLevel::Avx512 | SimdLevel::Avx2 if f.avx2 => return ConvBody::Ymm,
            _ => {}
        }
    }
    ConvBody::Words
}

/// The filter-lane tile loop for `level` ([`lane_body`]).
fn body_for(level: SimdLevel) -> TileFn {
    let opaque = level == SimdLevel::Unvectorized;
    #[cfg(target_arch = "x86_64")]
    {
        let popcnt = crate::detect::features().popcnt;
        match lane_body(level) {
            ConvBody::Zmm => return tiles_avx512,
            ConvBody::Ymm => return tiles_avx2,
            _ if popcnt && opaque => return tiles_popcnt_opaque,
            _ if popcnt => return tiles_popcnt,
            _ => {}
        }
    }
    if opaque {
        tiles::<Words<true>>
    } else {
        tiles::<Words<false>>
    }
}

/// Product of geometry factors, refusing to wrap.
fn words(factors: &[usize]) -> usize {
    factors
        .iter()
        .try_fold(1usize, |a, &x| a.checked_mul(x))
        .expect("conv geometry overflows usize")
}

/// Convolves output rows `rows` of the map described by `g` at the
/// requested SIMD level and hands every finished window to `sink`. A level
/// the host lacks demotes to the widest body it has; a sink with AMX
/// operands runs the AMX body when it can ([`amx_can_run`]).
///
/// All bounds are checked here, once per call, before the unchecked tile
/// loop is entered.
///
/// # Panics
/// If the geometry is degenerate, a window of `rows` or the last filter
/// group would fall outside its slice, or the sink's slices do not match
/// the geometry — or, on the AMX body, the AMX bank is not this geometry's
/// or the strip cannot hold one band.
pub fn conv_rows(
    level: SimdLevel,
    input: &[u64],
    filters: &[u64],
    g: &ConvGeom,
    rows: Range<usize>,
    sink: ConvSink<'_>,
) {
    assert!(
        g.c_words > 0 && g.kh > 0 && g.kw > 0 && g.stride > 0 && g.out_w > 0 && g.k > 0,
        "degenerate conv geometry {g:?}"
    );
    if rows.is_empty() {
        return;
    }
    let groups = g.k.div_ceil(LANES);
    // The rightmost window stays inside its input row …
    assert!(
        g.kw <= g.in_w && words(&[g.out_w - 1, g.stride]) <= g.in_w - g.kw,
        "window overruns the input row"
    );
    // … and the last window row of the last pixel inside the map: every
    // window word of every pixel of `rows` is then below
    // `in_h·in_w·c_words ≤ input.len()`.
    let in_h = input.len() / words(&[g.in_w, g.c_words]);
    assert!(
        g.kh <= in_h && words(&[rows.end - 1, g.stride]) <= in_h - g.kh,
        "last window row out of bounds"
    );
    assert_eq!(
        filters.len(),
        words(&[groups, g.kh, g.kw, g.c_words, LANES]),
        "filter bank is not ⌈K/8⌉ whole lane groups"
    );
    let ConvSink {
        bounds,
        flips,
        out,
        origin,
        row_stride,
        amx,
    } = sink;
    let out_c_words = g.k.div_ceil(64);
    assert_eq!(bounds.len(), groups * LANES, "one bound per filter lane");
    assert_eq!(flips.len(), out_c_words, "one flip mask per output word");
    let last = origin + (rows.len() - 1) * row_stride + g.out_w * out_c_words;
    assert!(last <= out.len(), "last output pixel out of bounds");
    let mut sink = SignSink {
        bounds,
        flips,
        out,
        origin,
    };
    // SAFETY (both arms): bounds asserted above and in the arm; `body_for`
    // only returns bodies whose CPU features the detector verified.
    match amx {
        #[cfg(target_arch = "x86_64")]
        Some((bank, strip)) if amx_can_run(level, g) => {
            // The B tiles of every filter block and K-step, and a strip with
            // room for one band and for what its last A tiles read (smaller
            // bands read less); the rule guaranteed stride 1 and whole
            // 16-filter blocks.
            assert_eq!(
                (bank.k(), bank.steps()),
                (g.k, g.kh * g.kw * g.c_words),
                "AMX bank of another geometry"
            );
            let band = amx::band_rows(g, strip.bytes()).min(rows.len());
            assert!(
                band > 0 && amx::reach(g, band) <= strip.bytes(),
                "strip cannot hold one band"
            );
            unsafe { amx::tiles(input, bank, strip, g, rows, row_stride, &mut sink) }
        }
        _ => unsafe { body_for(level)(input, filters, g, rows, row_stride, &mut sink) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const LEVELS: [SimdLevel; 5] = [
        SimdLevel::Unvectorized,
        SimdLevel::Scalar,
        SimdLevel::Sse,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ];

    /// Interleaves filter-major words `[k][per_filter]` into lane groups.
    fn interleave(flat: &[u64], k: usize, per_filter: usize) -> Vec<u64> {
        let mut bank = vec![0u64; k.div_ceil(LANES) * per_filter * LANES];
        for kk in 0..k {
            for t in 0..per_filter {
                bank[((kk / LANES) * per_filter + t) * LANES + kk % LANES] =
                    flat[kk * per_filter + t];
            }
        }
        bank
    }

    /// Pure-integer reference: the popcount of every output pixel and
    /// filter of `out_h` rows, `[(oy·out_w + ox)·K + kk]`.
    fn ref_pops(input: &[u64], flat: &[u64], g: &ConvGeom, out_h: usize) -> Vec<i64> {
        let row_len = g.kw * g.c_words;
        let pop = |o: usize| {
            let (kk, ox, oy) = (o % g.k, o / g.k % g.out_w, o / g.k / g.out_w);
            let mut pop = 0i64;
            for r in 0..g.kh {
                for i in 0..row_len {
                    let a = input[((oy * g.stride + r) * g.in_w + ox * g.stride) * g.c_words + i];
                    pop += (a ^ flat[(kk * g.kh + r) * row_len + i]).count_ones() as i64;
                }
            }
            pop
        };
        (0..out_h * g.out_w * g.k).map(pop).collect()
    }

    /// Bounds mixing both directions, saturated lanes and ties: a lane
    /// bounded at the popcount of one of its real pixels, or one below it,
    /// so a popcount off by one either way flips that pixel's bit.
    fn lane_bounds(
        rng: &mut StdRng,
        k: usize,
        window_bits: i64,
        pops: &[i64],
    ) -> (Vec<i64>, Vec<u64>) {
        let mut bounds = vec![-1i64; k.div_ceil(LANES) * LANES];
        let mut flips = vec![0u64; k.div_ceil(64)];
        for kk in 0..k {
            let tie = pops[rng.gen_range(0..pops.len() / k) * k + kk];
            bounds[kk] = match rng.gen_range(0..5u32) {
                0 => -1,              // never ≤
                1 => window_bits + 1, // always ≤
                2 => tie,
                3 => tie - 1,
                _ => rng.gen_range(window_bits / 4..window_bits * 3 / 4 + 1),
            };
            if rng.gen::<bool>() {
                flips[kk / 64] |= 1 << (kk % 64);
            }
        }
        (bounds, flips)
    }

    /// Runs one geometry at every level, `out_pad` 0 and 1, against
    /// [`ref_pops`].
    fn check_geometry(rng: &mut StdRng, g: &ConvGeom, out_h: usize) {
        let in_h = (out_h - 1) * g.stride + g.kh;
        let input: Vec<u64> = (0..in_h * g.in_w * g.c_words).map(|_| rng.gen()).collect();
        let per_filter = g.kh * g.kw * g.c_words;
        let flat: Vec<u64> = (0..g.k * per_filter).map(|_| rng.gen()).collect();
        let bank = interleave(&flat, g.k, per_filter);
        let pops = ref_pops(&input, &flat, g, out_h);
        let (bounds, flips) = lane_bounds(rng, g.k, (per_filter * 64) as i64, &pops);
        let ocw = g.k.div_ceil(64);
        let n_px = out_h * g.out_w;
        for out_pad in [0usize, 1] {
            let row_stride = (g.out_w + 2 * out_pad) * ocw;
            let origin = out_pad * row_stride + out_pad * ocw;
            // Poisoned destination: margins must survive, pixel words must
            // be overwritten whole (zero press tail included).
            let poison = vec![!0u64; (out_h + 2 * out_pad) * row_stride];
            let mut want = poison.clone();
            for px in 0..n_px {
                let at = origin + px / g.out_w * row_stride + px % g.out_w * ocw;
                want[at..at + ocw].fill(0);
                for kk in 0..g.k {
                    let flip = (flips[kk / 64] >> (kk % 64)) & 1 == 1;
                    if (pops[px * g.k + kk] <= bounds[kk]) ^ flip {
                        want[at + kk / 64] |= 1 << (kk % 64);
                    }
                }
            }
            for level in LEVELS {
                let what = format!("{level} {g:?} out_h={out_h} pad={out_pad}");
                let mut out = poison.clone();
                let sink = ConvSink {
                    bounds: &bounds,
                    flips: &flips,
                    out: &mut out,
                    origin,
                    row_stride,
                    amx: None,
                };
                conv_rows(level, &input, &bank, g, 0..out_h, sink);
                assert_eq!(out, want, "{what}");
            }
            if !amx_can_run(SimdLevel::Avx512, g) {
                continue;
            }
            // The AMX body on the same inputs: in one band, and in bands of
            // one row (a strip of kh rows), each against the reference and
            // directly against the Zmm body's words.
            let amx_bank = AmxBank::from_lane_words(&bank, g.k, per_filter);
            let mut zmm = poison.clone();
            let sink = ConvSink {
                bounds: &bounds,
                flips: &flips,
                out: &mut zmm,
                origin,
                row_stride,
                amx: None,
            };
            conv_rows(SimdLevel::Avx512, &input, &bank, g, 0..out_h, sink);
            for strip_rows in [in_h, g.kh] {
                let mut strip = AmxStrip::new(AmxStrip::bytes_for(g, strip_rows));
                let mut out = poison.clone();
                let sink = ConvSink {
                    bounds: &bounds,
                    flips: &flips,
                    out: &mut out,
                    origin,
                    row_stride,
                    amx: Some((&amx_bank, &mut strip)),
                };
                conv_rows(SimdLevel::Avx512, &input, &bank, g, 0..out_h, sink);
                let what = format!("amx {g:?} out_h={out_h} pad={out_pad} strip={strip_rows}");
                assert_eq!(out, zmm, "{what}: against the Zmm body");
                assert_eq!(out, want, "{what}");
            }
        }
    }

    /// Whether this host runs the AMX body; says why not when it does not.
    fn amx_host(test: &str) -> bool {
        let amx = crate::detect::features().amx_int8;
        if !amx {
            println!("{test}: AMX body not exercised: host lacks amx-int8");
        }
        amx
    }

    #[test]
    fn every_level_matches_the_integer_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut case = 0usize;
        // c_words of C ∈ {3, 32, 64}, {96, 128}, 160, 256, 512.
        for c_words in [1usize, 2, 3, 4, 8] {
            for k in [1usize, 5, 7, 8, 9, 63, 64, 65, 70] {
                for (kh, kw) in [(1usize, 1usize), (3, 3), (5, 5), (2, 3)] {
                    for stride in 1..=3usize {
                        // 2 and 3: the maps a window-pressed first layer
                        // of a tiny input leaves, narrower than half a tile.
                        for out_w in [1usize, 2, 3, 4, 7, 8, 9, 17] {
                            case += 1;
                            let g = ConvGeom {
                                c_words,
                                in_w: (out_w - 1) * stride + kw + case % 2,
                                kh,
                                kw,
                                stride,
                                out_w,
                                k,
                            };
                            // 1–3 rows: tiles cross row ends when out_w ∤ 8.
                            check_geometry(&mut rng, &g, 1 + case % 3);
                        }
                    }
                }
            }
        }
        // The AMX body's geometries: C ∈ {64, 128, 256, 512}, whole and
        // odd 16-filter blocks, position blocks that end mid-row and
        // mid-tile, against the same reference and the Zmm body.
        amx_host("every_level_matches_the_integer_reference");
        for c_words in [1usize, 2, 4, 8] {
            for k in [16usize, 48, 64, 128] {
                for out_w in [8usize, 9, 14, 17, 28] {
                    case += 1;
                    let g = ConvGeom {
                        c_words,
                        in_w: out_w + 2 + case % 2,
                        kh: 3,
                        kw: 3,
                        stride: 1,
                        out_w,
                        k,
                    };
                    assert_eq!(
                        amx_can_run(SimdLevel::Avx512, &g),
                        crate::detect::features().amx_int8,
                        "{g:?}"
                    );
                    check_geometry(&mut rng, &g, 1 + case % 3);
                }
            }
        }
    }

    #[test]
    fn the_amx_rule_names_the_clause_that_decided() {
        let g = ConvGeom {
            c_words: 1,
            in_w: 10,
            kh: 3,
            kw: 3,
            stride: 1,
            out_w: 8,
            k: 128,
        };
        // A 224-row map: enough work for every geometry below.
        let choice = |level, g: ConvGeom| body_choice(level, &g, 224).rule;
        if !crate::detect::features().amx_int8 {
            assert_eq!(choice(SimdLevel::Avx512, g), AmxRule::Host);
            println!("the_amx_rule_names_the_clause_that_decided: host lacks amx-int8");
            return;
        }
        assert_eq!(choice(SimdLevel::Avx512, g), AmxRule::Eligible);
        assert_eq!(choice(SimdLevel::Avx2, g), AmxRule::Tier);
        let stride2 = ConvGeom {
            stride: 2,
            in_w: 17,
            ..g
        };
        assert_eq!(choice(SimdLevel::Avx512, stride2), AmxRule::Stride);
        assert_eq!(
            choice(SimdLevel::Avx512, ConvGeom { k: 40, ..g }),
            AmxRule::Filters
        );
        // A 1×1 over 512 channels has 8 steps.
        let one_by_one = ConvGeom {
            c_words: 8,
            kh: 1,
            kw: 1,
            in_w: 8,
            ..g
        };
        assert_eq!(choice(SimdLevel::Avx512, one_by_one), AmxRule::Depth);
        let narrow = ConvGeom {
            out_w: 7,
            in_w: 9,
            ..g
        };
        assert_eq!(choice(SimdLevel::Avx512, narrow), AmxRule::Width);
        let wide = ConvGeom {
            c_words: 8,
            in_w: 1000,
            out_w: 998,
            ..g
        };
        assert_eq!(choice(SimdLevel::Avx512, wide), AmxRule::Strip);
        // The maps of the benchmark models: tiered_cnn's conv2 (16 × 16 ×
        // 64 → 128) and small_cnn's conv (8 × 8 × 16 → 32) are too little
        // work; VGG-16's conv5.x (14 × 14 × 512 → 512) is not.
        let map = |hw: usize, c_words, k| ConvGeom {
            c_words,
            in_w: hw + 2,
            out_w: hw,
            k,
            ..g
        };
        let rule =
            |hw, c_words, k| body_choice(SimdLevel::Avx512, &map(hw, c_words, k), hw + 2).rule;
        assert_eq!(rule(16, 1, 128), AmxRule::Work);
        assert_eq!(rule(8, 1, 32), AmxRule::Work);
        assert_eq!(rule(14, 8, 512), AmxRule::Eligible);
        assert_eq!(
            body_choice(SimdLevel::Avx512, &narrow, 224).to_string(),
            "zmm (out_w < 8)"
        );
        assert_eq!(
            body_choice(SimdLevel::Avx512, &g, 224).to_string(),
            "amx (eligible)"
        );
    }

    /// A seeded AMX-eligible sign call: input, lane bank, AMX bank, bounds,
    /// flips, and the Zmm body's output words.
    struct AmxCase {
        g: ConvGeom,
        out_h: usize,
        input: Vec<u64>,
        bank: Vec<u64>,
        amx_bank: AmxBank,
        bounds: Vec<i64>,
        flips: Vec<u64>,
        zmm: Vec<u64>,
    }

    impl AmxCase {
        fn new(seed: u64, g: ConvGeom, out_h: usize) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let in_h = out_h + g.kh - 1;
            let input: Vec<u64> = (0..in_h * g.in_w * g.c_words).map(|_| rng.gen()).collect();
            let per_filter = g.kh * g.kw * g.c_words;
            let flat: Vec<u64> = (0..g.k * per_filter).map(|_| rng.gen()).collect();
            let bank = interleave(&flat, g.k, per_filter);
            let pops = ref_pops(&input, &flat, &g, out_h);
            let (bounds, flips) = lane_bounds(&mut rng, g.k, (per_filter * 64) as i64, &pops);
            let amx_bank = AmxBank::from_lane_words(&bank, g.k, per_filter);
            let mut case = Self {
                g,
                out_h,
                input,
                bank,
                amx_bank,
                bounds,
                flips,
                zmm: Vec::new(),
            };
            case.zmm = case.run(0..out_h, None);
            case
        }

        /// Output words of rows `rows` (the whole map's layout), through the
        /// AMX body with `strip`, or the Zmm body without.
        fn run(&self, rows: Range<usize>, strip: Option<&mut AmxStrip>) -> Vec<u64> {
            let row_stride = self.g.out_w * self.g.k.div_ceil(64);
            let mut out = vec![!0u64; self.out_h * row_stride];
            let sink = ConvSink {
                bounds: &self.bounds,
                flips: &self.flips,
                out: &mut out[rows.start * row_stride..],
                origin: 0,
                row_stride,
                amx: strip.map(|s| (&self.amx_bank, s)),
            };
            conv_rows(
                SimdLevel::Avx512,
                &self.input,
                &self.bank,
                &self.g,
                rows,
                sink,
            );
            out
        }
    }

    #[test]
    fn amx_row_ranges_and_bands_compose_to_the_whole_map() {
        if !amx_host("amx_row_ranges_and_bands_compose_to_the_whole_map") {
            return;
        }
        // 28 × 28 × 512 → 64 (conv4-like rows, cut short), and a map of 226-wide rows.
        for (seed, g, out_h) in [
            (
                80,
                ConvGeom {
                    c_words: 8,
                    in_w: 30,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    out_w: 28,
                    k: 48,
                },
                9,
            ),
            (
                81,
                ConvGeom {
                    c_words: 1,
                    in_w: 226,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    out_w: 224,
                    k: 64,
                },
                7,
            ),
        ] {
            let case = AmxCase::new(seed, g, out_h);
            let in_h = out_h + g.kh - 1;
            let row_stride = g.out_w * g.k.div_ceil(64);
            for strip_rows in [in_h, g.kh, g.kh + 2] {
                let mut strip = AmxStrip::new(AmxStrip::bytes_for(&g, strip_rows));
                assert_eq!(
                    case.run(0..out_h, Some(&mut strip)),
                    case.zmm,
                    "strip {strip_rows}"
                );
                // Row ranges of a parallel split, each run on its own.
                let mut parts = vec![!0u64; case.zmm.len()];
                for rows in [0..1, 1..5, 5..out_h] {
                    let got = case.run(rows.clone(), Some(&mut strip));
                    let words = rows.start * row_stride..rows.end * row_stride;
                    parts[words.clone()].copy_from_slice(&got[words]);
                }
                assert_eq!(parts, case.zmm, "split, strip {strip_rows}");
            }
        }
    }

    #[test]
    fn amx_bounds_decide_at_both_ends_of_the_window() {
        if !amx_host("amx_bounds_decide_at_both_ends_of_the_window") {
            return;
        }
        // All-zero filters over an all-zero map (every pop 0, every dot
        // +N) and an all-ones map (every pop N, every dot −N), against
        // bounds just inside and outside both ends — the saturated lanes
        // every real layer has, met exactly.
        let g = ConvGeom {
            c_words: 2,
            in_w: 10,
            kh: 3,
            kw: 3,
            stride: 1,
            out_w: 8,
            k: 64,
        };
        let n = (g.kh * g.kw * g.c_words * 64) as i64;
        let per_filter = g.kh * g.kw * g.c_words;
        let bank = vec![0u64; g.k * per_filter];
        let amx_bank = AmxBank::from_lane_words(&bank, g.k, per_filter);
        let bounds: Vec<i64> = (0..g.k as i64)
            .map(|kk| [-2, -1, 0, 1, n - 1, n, n + 1][kk as usize % 7])
            .collect();
        let flips = [0x00FF_0000_FF00_00FFu64];
        let mut strip = AmxStrip::new(AmxStrip::bytes_for(&g, 3));
        for (fill, pop) in [(0u64, 0i64), (!0, n)] {
            let input = vec![fill; 3 * g.in_w * g.c_words];
            let want: u64 =
                (0..g.k).fold(0, |w, kk| w | u64::from(pop <= bounds[kk]) << kk) ^ flips[0];
            let mut out = vec![0x5A5A_5A5Au64; g.out_w];
            let sink = ConvSink {
                bounds: &bounds,
                flips: &flips,
                out: &mut out,
                origin: 0,
                row_stride: g.out_w,
                amx: Some((&amx_bank, &mut strip)),
            };
            conv_rows(SimdLevel::Avx512, &input, &bank, &g, 0..1, sink);
            assert_eq!(out, vec![want; g.out_w], "pop {pop}");
        }
    }

    #[test]
    fn two_fresh_threads_run_the_amx_body_at_once() {
        if !amx_host("two_fresh_threads_run_the_amx_body_at_once") {
            return;
        }
        let g = ConvGeom {
            c_words: 2,
            in_w: 16,
            kh: 3,
            kw: 3,
            stride: 1,
            out_w: 14,
            k: 128,
        };
        let case = AmxCase::new(82, g, 14);
        let both_in = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        // A thread's first tile configuration happens here.
                        let mut strip = AmxStrip::new(AmxStrip::bytes_for(&g, 16));
                        both_in.wait();
                        (0..20)
                            .map(|_| case.run(0..14, Some(&mut strip)))
                            .all(|out| out == case.zmm)
                    })
                })
                .collect();
            for t in threads {
                assert!(t.join().expect("AMX thread"), "a thread diverged");
            }
        });
    }

    #[test]
    fn row_ranges_compose_to_the_whole_map() {
        let mut rng = StdRng::seed_from_u64(78);
        // 13 filters: one partial lane group.
        let g = ConvGeom {
            c_words: 2,
            in_w: 9,
            kh: 3,
            kw: 3,
            stride: 1,
            out_w: 7,
            k: 13,
        };
        let (in_h, out_h, per_filter) = (8usize, 6usize, 18usize);
        let input: Vec<u64> = (0..in_h * g.in_w * g.c_words).map(|_| rng.gen()).collect();
        let flat: Vec<u64> = (0..g.k * per_filter).map(|_| rng.gen()).collect();
        let bank = interleave(&flat, g.k, per_filter);
        let pops = ref_pops(&input, &flat, &g, out_h);
        let (bounds, flips) = lane_bounds(&mut rng, g.k, (per_filter * 64) as i64, &pops);
        let row_stride = g.out_w;
        let run = |rows: Range<usize>, out: &mut [u64]| {
            let sink = ConvSink {
                bounds: &bounds,
                flips: &flips,
                out,
                origin: 0,
                row_stride,
                amx: None,
            };
            conv_rows(SimdLevel::Avx512, &input, &bank, &g, rows, sink);
        };
        let mut whole = vec![!0u64; out_h * row_stride];
        run(0..out_h, &mut whole);
        let mut parts = vec![!0u64; whole.len()];
        for rows in [0..1, 1..5, 5..out_h] {
            let words = rows.start * row_stride..rows.end * row_stride;
            run(rows, &mut parts[words]);
        }
        assert_eq!(parts, whole);
    }

    /// A 3×3 conv of three filters over a 4 × 4 map, and a sign sink for it.
    fn tiny(out: &mut [u64]) -> (ConvGeom, Vec<u64>, Vec<u64>, ConvSink<'_>) {
        let g = ConvGeom {
            c_words: 1,
            in_w: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            out_w: 2,
            k: 3,
        };
        let sink = ConvSink {
            bounds: &[-1; LANES],
            flips: &[0],
            out,
            origin: 0,
            row_stride: 2,
            amx: None,
        };
        (g, vec![0u64; 4 * 4], vec![0u64; 9 * LANES], sink)
    }

    #[test]
    #[should_panic(expected = "strip cannot hold one band")]
    fn a_strip_short_of_one_band_is_rejected_before_the_kernel() {
        if !crate::detect::features().amx_int8 {
            panic!("strip cannot hold one band (host lacks amx-int8; nothing to check)");
        }
        let g = ConvGeom {
            c_words: 1,
            in_w: 10,
            kh: 3,
            kw: 3,
            stride: 1,
            out_w: 8,
            k: 16,
        };
        let case = AmxCase::new(83, g, 2);
        let mut strip = AmxStrip::new(AmxStrip::bytes_for(&g, g.kh) - 64);
        case.run(0..2, Some(&mut strip));
    }

    #[test]
    #[should_panic(expected = "last window row out of bounds")]
    fn rows_past_the_input_are_rejected_before_the_kernel() {
        let mut out = [0u64; 3 * 2];
        let (g, input, bank, sink) = tiny(&mut out);
        conv_rows(SimdLevel::Avx512, &input, &bank, &g, 0..3, sink);
    }

    #[test]
    #[should_panic(expected = "whole lane groups")]
    fn a_filter_major_bank_is_rejected_before_the_kernel() {
        let mut out = [0u64; 2 * 2];
        let (g, input, _, sink) = tiny(&mut out);
        conv_rows(SimdLevel::Avx512, &input, &[0u64; 9 * 3], &g, 0..2, sink);
    }
}
