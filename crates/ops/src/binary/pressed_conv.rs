//! PressedConv — efficient binary convolution with locality-aware layout
//! and vector parallelism (paper §III-B, Algorithm 1).
//!
//! The input arrives as a [`BitTensor`]: NHWC, channels pressed ×64 into
//! `u64` words, spatial padding pre-baked as all-zero margins (paper
//! Fig. 5). Filters arrive as a [`BitFilterBank`], pressed the same way at
//! network initialization and interleaved eight filters to a cache line. A
//! convolution window then reduces to `kh` *contiguous* input runs of
//! `kw·c_words` words — because width and pressed channels are adjacent in
//! memory — each word xored against a line of eight filters. That
//! contiguity is the entire point of the locality-aware layout: no
//! unfolding, no gather, no layout change on the output.
//!
//! The arithmetic itself is [`bitflow_simd::conv`]'s filter-lane tile loop,
//! or — for a call given the matrix unit's operands on a host and geometry
//! that qualify — its AMX body ([`bitflow_simd::amx`]). Either way the
//! popcounts are decided against the next layer's folded batch-norm in
//! registers and leave as pressed sign bits: the engine's only conv, and
//! this module's only entry ([`pressed_conv_sign_into`]). It validates the
//! tensor-level geometry and, when asked, splits the output rows over the
//! worker team ([`bitflow_simd::team`]; Algorithm 1, step 3: multi-core
//! parallelism over the output pixels), each thread expanding into a strip
//! of its own.

use crate::binary::epilogue::SignThresholds;
use bitflow_simd::amx::{AmxBank, AmxStrip};
use bitflow_simd::conv::{body_choice, conv_rows, BodyChoice, ConvBody, ConvGeom, ConvSink};
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::team;
use bitflow_tensor::{BitFilterBank, BitTensor};
use std::ops::Range;

/// Output rows per parallel work item. Fixed, so the split (and with it
/// every output bit) is the same at every pool size; four rows of an
/// even-width map are a whole number of 8-pixel tiles. Each thread starts
/// on a contiguous run of bands, so only the runs' ends share a halo.
const PAR_ROWS: usize = 4;

/// Validates operand geometry and returns the core's view of it plus
/// `out_h`.
pub fn conv_geometry(
    input: &BitTensor,
    filters: &BitFilterBank,
    stride: usize,
) -> (ConvGeom, usize) {
    let f = filters.shape();
    assert_eq!(input.c(), f.c, "channel mismatch");
    assert_eq!(
        input.c_words(),
        filters.c_words(),
        "press width mismatch between input and filters"
    );
    assert!(stride > 0, "stride must be positive");
    assert!(
        f.kh <= input.h() && f.kw <= input.w(),
        "kernel larger than (padded) input"
    );
    let g = ConvGeom {
        c_words: input.c_words(),
        in_w: input.w(),
        kh: f.kh,
        kw: f.kw,
        stride,
        out_w: (input.w() - f.kw) / stride + 1,
        k: f.k,
    };
    (g, (input.h() - f.kh) / stride + 1)
}

/// What a conv of geometry `g` over `in_h` input rows is given at `level`:
/// the body [`body_choice`] picks and, when that is the AMX body, the
/// bank's int8 copy and the bytes of one strip per team part.
pub fn amx_operands(
    level: SimdLevel,
    g: &ConvGeom,
    in_h: usize,
    filters: &BitFilterBank,
) -> (BodyChoice, Option<(AmxBank, usize)>) {
    let body = body_choice(level, g, in_h);
    let amx = (body.body == ConvBody::Amx).then(|| {
        let steps = g.kh * g.kw * g.c_words;
        let bank = AmxBank::from_lane_words(filters.lane_words(), g.k, steps);
        (bank, AmxStrip::bytes_for(g, in_h))
    });
    (body, amx)
}

/// Runs `band(rows, chunk, strip)` over `out` cut into bands of `row_len`
/// words per output row: one band covering all `out_h` rows, or
/// [`PAR_ROWS`]-row bands over the worker team. `out` must start at output
/// row 0. Each thread's bands get the strip of its part, while `strips`
/// lasts (none when it is empty).
fn for_row_bands(
    out: &mut [u64],
    row_len: usize,
    out_h: usize,
    parallel: bool,
    strips: &mut [AmxStrip],
    band: impl Fn(Range<usize>, &mut [u64], Option<&mut AmxStrip>) + Sync,
) {
    let rows = |i: usize| i * PAR_ROWS..out_h.min((i + 1) * PAR_ROWS);
    match (parallel, strips) {
        (false, strips) => band(0..out_h, out, strips.first_mut()),
        (true, []) => {
            team::for_chunks_mut(out, PAR_ROWS * row_len, |i, chunk| {
                band(rows(i), chunk, None)
            });
        }
        (true, strips) => {
            team::for_chunks_mut_with(out, PAR_ROWS * row_len, strips, |strip, i, chunk| {
                band(rows(i), chunk, Some(strip))
            });
        }
    }
}

/// Fused PressedConv + integer-threshold sign epilogue, writing packed
/// bits straight into the **interior** of a pre-zeroed padded output
/// [`BitTensor`] — the producer side of zero-cost padding (paper Fig. 5):
/// the next layer reads `out` directly, margins already "padded", and no
/// float intermediate map is ever materialized.
///
/// For output feature k the sign bit is decided on the popcount accumulator
/// against [`SignThresholds`] — an exact integer compare derived from the
/// folded batch-norm (negative scales flip the comparison direction, see
/// [`crate::binary::epilogue`]). With `parallel` the output rows are split
/// over the worker team; the result is bit-identical either way and at
/// every pool size.
///
/// `amx` offers the matrix unit's operands — the bank's AMX copy and one
/// strip per team part ([`bitflow_simd::team::max_parts`]) — which the core
/// uses whenever it can run the AMX body on this geometry
/// ([`bitflow_simd::conv::amx_can_run`]); whether that pays is the caller's
/// question ([`amx_operands`]). The output is the same
/// words either way.
#[allow(clippy::too_many_arguments)]
pub fn pressed_conv_sign_into(
    level: SimdLevel,
    input: &BitTensor,
    filters: &BitFilterBank,
    stride: usize,
    st: &SignThresholds,
    out: &mut BitTensor,
    out_pad: usize,
    parallel: bool,
    amx: Option<(&AmxBank, &mut [AmxStrip])>,
) {
    let (g, out_h) = conv_geometry(input, filters, stride);
    let f = filters.shape();
    assert_eq!(st.len(), f.k, "one threshold per output feature");
    assert_eq!(
        st.window_bits(),
        f.kh * f.kw * f.c,
        "threshold window width must match the filter window"
    );
    assert_eq!(out.c(), f.k, "output channel count");
    assert_eq!(out.h(), out_h + 2 * out_pad, "output height incl. padding");
    assert_eq!(out.w(), g.out_w + 2 * out_pad, "output width incl. padding");
    let row_stride = out.w() * out.c_words();
    let origin = out_pad * out.c_words();
    // Margin rows stay all-zero (logical −1 padding): hand out the interior
    // rows only.
    let interior = &mut out.words_mut()[out_pad * row_stride..][..out_h * row_stride];
    let (bank, strips) = match amx {
        Some((bank, strips)) => (Some(bank), strips),
        None => (None, &mut [][..]),
    };
    for_row_bands(
        interior,
        row_stride,
        out_h,
        parallel,
        strips,
        |rows, out, strip| {
            let sink = ConvSink {
                bounds: st.lane_bounds(),
                flips: st.flip_words(),
                out,
                origin,
                row_stride,
                amx: bank.zip(strip),
            };
            conv_rows(level, input.words(), filters.lane_words(), &g, rows, sink);
        },
    );
}

/// Source-compatibility shim for callers written against the scratch-taking
/// signature: [`pressed_conv_sign_into`], single-threaded, on the
/// filter-lane loop. `_dots` is ignored — the integer core compares
/// popcounts in registers.
#[allow(clippy::too_many_arguments)]
pub fn pressed_conv_sign_scratch_into(
    level: SimdLevel,
    input: &BitTensor,
    filters: &BitFilterBank,
    stride: usize,
    st: &SignThresholds,
    _dots: &mut [f32],
    out: &mut BitTensor,
    out_pad: usize,
) {
    pressed_conv_sign_into(level, input, filters, stride, st, out, out_pad, false, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::binarize::BnFold;
    use bitflow_tensor::{FilterShape, Layout, Shape, Tensor};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rand_pm1(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn all_margin_window_gives_full_anticorrelation() {
        // 1x1 input padded by 1, 3x3 all-(+1) filter: window at (0,0) sees
        // 8 margin pixels (−1) and the single real pixel, so its dot is
        // 8·4·(−1) + 4·(+1) = −28: +1 against a threshold of −28 (the
        // tie), −1 against −27.
        let raw = Tensor::from_vec(vec![1.0; 4], Shape::hwc(1, 1, 4), Layout::Nhwc);
        let fshape = FilterShape::new(2, 3, 3, 4);
        let weights = vec![1.0f32; fshape.numel()];
        let pressed = BitTensor::from_tensor_padded(&raw, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let fold = BnFold {
            thresholds: vec![-28.0, -27.0],
            flip: vec![false; 2],
        };
        let st = SignThresholds::from_fold(&fold, 3 * 3 * 4);
        let mut out = BitTensor::zeros(1, 1, 2);
        let level = SimdLevel::Scalar;
        pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut out, 0, false, None);
        assert_eq!((out.get(0, 0, 0), out.get(0, 0, 1)), (1, -1));
    }

    #[test]
    fn parallel_sign_matches_serial() {
        let mut rng = StdRng::seed_from_u64(95);
        let shape = Shape::hwc(7, 5, 64);
        let k = 70usize;
        let fshape = FilterShape::new(k, 3, 3, 64);
        let raw = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = rand_pm1(&mut rng, fshape.numel());
        let pressed = BitTensor::from_tensor_padded(&raw, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let fold = BnFold {
            thresholds: (0..k).map(|i| (i as f32) - 35.0).collect(),
            flip: (0..k).map(|i| i % 7 == 0).collect(),
        };
        let st = SignThresholds::from_fold(&fold, 3 * 3 * 64);
        let mut serial = BitTensor::zeros(7 + 2, 5 + 2, k);
        let level = SimdLevel::Avx512;
        pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut serial, 1, false, None);
        let mut par = BitTensor::zeros(7 + 2, 5 + 2, k);
        pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut par, 1, true, None);
        assert_eq!(serial.words(), par.words());
        assert!(par.tail_is_zero());
    }

    #[test]
    fn amx_operands_change_no_bit_serial_or_parallel() {
        use bitflow_simd::conv::amx_can_run;
        let mut rng = StdRng::seed_from_u64(96);
        let shape = Shape::hwc(13, 11, 128);
        let k = 48usize;
        let fshape = FilterShape::new(k, 3, 3, 128);
        let raw = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = rand_pm1(&mut rng, fshape.numel());
        let pressed = BitTensor::from_tensor_padded(&raw, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let fold = BnFold {
            thresholds: (0..k).map(|i| (i as f32) * 9.0 - 200.0).collect(),
            flip: (0..k).map(|i| i % 5 == 0).collect(),
        };
        let st = SignThresholds::from_fold(&fold, 3 * 3 * 128);
        let level = SimdLevel::Avx512;
        let mut zmm = BitTensor::zeros(13 + 2, 11 + 2, k);
        pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut zmm, 1, false, None);
        let (g, _) = conv_geometry(&pressed, &bank, 1);
        if !amx_can_run(level, &g) {
            println!("AMX body not exercised: host lacks amx-int8");
            return;
        }
        let amx = AmxBank::from_lane_words(bank.lane_words(), k, 3 * 3 * 2);
        let mut strips: Vec<AmxStrip> = (0..team::max_parts())
            .map(|_| AmxStrip::new(AmxStrip::bytes_for(&g, pressed.h())))
            .collect();
        for parallel in [false, true] {
            let mut out = BitTensor::zeros(13 + 2, 11 + 2, k);
            let operands = Some((&amx, &mut strips[..]));
            pressed_conv_sign_into(
                level, &pressed, &bank, 1, &st, &mut out, 1, parallel, operands,
            );
            assert_eq!(out.words(), zmm.words(), "parallel={parallel}");
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_rejected() {
        let input = BitTensor::zeros(4, 4, 64);
        let bank = BitFilterBank::zeros(FilterShape::new(2, 3, 3, 128));
        let fold = BnFold {
            thresholds: vec![0.0; 2],
            flip: vec![false; 2],
        };
        let st = SignThresholds::from_fold(&fold, 3 * 3 * 128);
        let mut out = BitTensor::zeros(2, 2, 2);
        let level = SimdLevel::Scalar;
        pressed_conv_sign_into(level, &input, &bank, 1, &st, &mut out, 0, false, None);
    }
}
