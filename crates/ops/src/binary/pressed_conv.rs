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
//! or — for a sign call given the matrix unit's operands on a host and
//! geometry that qualify — its AMX body ([`bitflow_simd::amx`]); this
//! module validates the tensor-level geometry, picks the sink (float dots
//! for [`pressed_conv`], threshold-sign bits for [`pressed_conv_sign_into`])
//! and, when asked, splits the output rows over the worker team
//! ([`bitflow_simd::team`]; Algorithm 1, step 3: multi-core parallelism
//! over the output pixels), each thread expanding into a strip of its own.

use crate::binary::epilogue::SignThresholds;
use bitflow_simd::amx::{AmxBank, AmxStrip};
use bitflow_simd::conv::{conv_rows, ConvGeom, ConvSink};
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::team;
use bitflow_tensor::{BitFilterBank, BitTensor, Layout, Shape, Tensor};
use std::ops::Range;

/// Output rows per parallel work item. Fixed, so the split (and with it
/// every output bit) is the same at every pool size; four rows of an
/// even-width map are a whole number of 8-pixel tiles. Each thread starts
/// on a contiguous run of bands, so only the runs' ends share a halo.
const PAR_ROWS: usize = 4;

/// Validates operand geometry and returns the core's view of it plus
/// `out_h`.
fn geometry(input: &BitTensor, filters: &BitFilterBank, stride: usize) -> (ConvGeom, usize) {
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

/// Runs `band(rows, chunk, strip)` over `out` cut into bands of `row_len`
/// elements per output row: one band covering all `out_h` rows, or
/// [`PAR_ROWS`]-row bands over the worker team. `out` must start at output
/// row 0. Each thread's bands get the strip of its part, while `strips`
/// lasts (none when it is empty).
fn for_row_bands<T: Send>(
    out: &mut [T],
    row_len: usize,
    out_h: usize,
    parallel: bool,
    strips: &mut [AmxStrip],
    band: impl Fn(Range<usize>, &mut [T], Option<&mut AmxStrip>) + Sync,
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

/// PressedConv: binary convolution of a pressed input against a pressed
/// filter bank, returning the integer dot products as a freshly allocated
/// f32 NHWC tensor of shape (out_h, out_w, K) — the allocating,
/// single-threaded convenience over [`pressed_conv_into`] for tests and
/// benches.
///
/// Spatial padding must be pre-baked into `input`
/// ([`BitTensor::from_tensor_padded`] or the graph memory planner); pad
/// pixels are all-zero words, i.e. logical −1 (see module docs of
/// [`crate::binary`]).
pub fn pressed_conv(
    level: SimdLevel,
    input: &BitTensor,
    filters: &BitFilterBank,
    stride: usize,
) -> Tensor {
    let (g, out_h) = geometry(input, filters, stride);
    let mut out = Tensor::zeros(Shape::hwc(out_h, g.out_w, g.k), Layout::Nhwc);
    pressed_conv_into(level, input, filters, stride, &mut out, false);
    out
}

/// PressedConv with the `FloatOut` epilogue, writing the integer dot
/// products into a pre-allocated output tensor. With `parallel` the output
/// rows are split over the worker team; the result is bit-identical either
/// way and at every pool size.
pub fn pressed_conv_into(
    level: SimdLevel,
    input: &BitTensor,
    filters: &BitFilterBank,
    stride: usize,
    out: &mut Tensor,
    parallel: bool,
) {
    let (g, out_h) = geometry(input, filters, stride);
    assert_eq!(out.shape(), Shape::hwc(out_h, g.out_w, g.k), "output shape");
    let f = filters.shape();
    let window_bits = (f.kh * f.kw * f.c) as i32;
    for_row_bands(
        out.data_mut(),
        g.out_w * g.k,
        out_h,
        parallel,
        &mut [],
        |rows, out, _| {
            let sink = ConvSink::Dots { window_bits, out };
            conv_rows(level, input.words(), filters.lane_words(), &g, rows, sink);
        },
    );
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
/// question ([`bitflow_simd::conv::body_choice`]). The output is the same
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
    let (g, out_h) = geometry(input, filters, stride);
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
            let sink = ConvSink::Sign {
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
    use crate::float::conv::conv_direct;
    use crate::params::ConvParams;
    use bitflow_tensor::FilterShape;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rand_pm1(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect()
    }

    /// Float reference with −1 padding: pre-pad the ±1 input with −1.0 and
    /// run the direct convolution with pad 0.
    fn reference(
        input: &Tensor,
        weights: &[f32],
        fshape: FilterShape,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let s = input.shape();
        let padded = Tensor::from_fn(
            Shape::hwc(s.h + 2 * pad, s.w + 2 * pad, s.c),
            Layout::Nhwc,
            |_, h, w, c| {
                if h < pad || h >= s.h + pad || w < pad || w >= s.w + pad {
                    -1.0
                } else {
                    input.at(0, h - pad, w - pad, c)
                }
            },
        );
        conv_direct(
            &padded,
            weights,
            fshape,
            ConvParams::new(fshape.kh, fshape.kw, stride, 0),
        )
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
    fn matches_float_reference_across_channel_widths() {
        let mut rng = StdRng::seed_from_u64(90);
        // Channel widths hitting every scheduler tier incl. the padded one.
        for c in [3usize, 32, 64, 128, 160, 256] {
            let shape = Shape::hwc(5, 6, c);
            let fshape = FilterShape::new(7, 3, 3, c);
            let raw = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
            let weights = rand_pm1(&mut rng, fshape.numel());
            let want = reference(&raw, &weights, fshape, 1, 1);
            let pressed = BitTensor::from_tensor_padded(&raw, 1);
            let bank = BitFilterBank::from_floats(&weights, fshape);
            for level in levels() {
                let got = pressed_conv(level, &pressed, &bank, 1);
                assert_eq!(got.max_abs_diff(&want), 0.0, "c={c} {level}");
            }
        }
    }

    #[test]
    fn matches_reference_no_padding_and_strides() {
        let mut rng = StdRng::seed_from_u64(91);
        for (stride, pad) in [(1usize, 0usize), (2, 0), (2, 1), (3, 0)] {
            let shape = Shape::hwc(9, 9, 64);
            let fshape = FilterShape::new(4, 3, 3, 64);
            let raw = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
            let weights = rand_pm1(&mut rng, fshape.numel());
            let want = reference(&raw, &weights, fshape, stride, pad);
            let pressed = BitTensor::from_tensor_padded(&raw, pad);
            let bank = BitFilterBank::from_floats(&weights, fshape);
            let got = pressed_conv(SimdLevel::Avx512, &pressed, &bank, stride);
            assert_eq!(got.max_abs_diff(&want), 0.0, "stride={stride} pad={pad}");
        }
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(92);
        let shape = Shape::hwc(8, 8, 128);
        let fshape = FilterShape::new(16, 3, 3, 128);
        let raw = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = rand_pm1(&mut rng, fshape.numel());
        let pressed = BitTensor::from_tensor_padded(&raw, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let a = pressed_conv(SimdLevel::Avx2, &pressed, &bank, 1);
        let mut b = Tensor::zeros(a.shape(), Layout::Nhwc);
        pressed_conv_into(SimdLevel::Avx2, &pressed, &bank, 1, &mut b, true);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn one_by_one_kernel_is_channel_dot() {
        let mut rng = StdRng::seed_from_u64(93);
        let shape = Shape::hwc(3, 3, 64);
        let fshape = FilterShape::new(2, 1, 1, 64);
        let raw = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = rand_pm1(&mut rng, fshape.numel());
        let pressed = BitTensor::from_tensor(&raw);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let got = pressed_conv(SimdLevel::Scalar, &pressed, &bank, 1);
        for h in 0..3 {
            for w in 0..3 {
                for k in 0..2 {
                    let want: f32 = (0..64)
                        .map(|c| raw.at(0, h, w, c) * weights[k * 64 + c])
                        .sum();
                    assert_eq!(got.at(0, h, w, k), want);
                }
            }
        }
    }

    #[test]
    fn all_margin_window_gives_full_anticorrelation() {
        // 1x1 input padded by 1, 3x3 all-(+1) filter: window at (0,0) sees
        // 8 margin pixels (−1) and the single real pixel.
        let raw = Tensor::from_vec(vec![1.0; 4], Shape::hwc(1, 1, 4), Layout::Nhwc);
        let fshape = FilterShape::new(1, 3, 3, 4);
        let weights = vec![1.0f32; fshape.numel()];
        let pressed = BitTensor::from_tensor_padded(&raw, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let got = pressed_conv(SimdLevel::Scalar, &pressed, &bank, 1);
        // dot = 8·4·(−1) + 4·(+1) = −28.
        assert_eq!(got.at(0, 0, 0, 0), -28.0);
    }

    #[test]
    fn sign_into_matches_threshold_on_counts() {
        let mut rng = StdRng::seed_from_u64(94);
        let shape = Shape::hwc(6, 6, 64);
        let k = 70usize; // non-multiple of 64 exercises partial out words
        let fshape = FilterShape::new(k, 3, 3, 64);
        let raw = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = rand_pm1(&mut rng, fshape.numel());
        let pressed = BitTensor::from_tensor_padded(&raw, 1);
        let bank = BitFilterBank::from_floats(&weights, fshape);
        let thresholds: Vec<f32> = (0..k).map(|i| (i as f32) - 35.0).collect();
        let flip: Vec<bool> = (0..k).map(|i| i % 7 == 0).collect();
        let fold = BnFold {
            thresholds: thresholds.clone(),
            flip: flip.clone(),
        };
        let st = SignThresholds::from_fold(&fold, 3 * 3 * 64);
        let counts = pressed_conv(SimdLevel::Avx512, &pressed, &bank, 1);
        let mut out = BitTensor::zeros(6 + 2, 6 + 2, k);
        pressed_conv_sign_into(
            SimdLevel::Avx512,
            &pressed,
            &bank,
            1,
            &st,
            &mut out,
            1,
            false,
            None,
        );
        assert!(out.tail_is_zero());
        for h in 0..6 {
            for w in 0..6 {
                for kk in 0..k {
                    let x = counts.at(0, h, w, kk);
                    let bit = if flip[kk] {
                        x <= thresholds[kk]
                    } else {
                        x >= thresholds[kk]
                    };
                    let want = if bit { 1 } else { -1 };
                    assert_eq!(out.get(h + 1, w + 1, kk), want, "({h},{w},{kk})");
                }
            }
        }
        // Margins untouched.
        for w in 0..8 {
            assert!(out.pixel_words(0, w).iter().all(|&x| x == 0));
            assert!(out.pixel_words(7, w).iter().all(|&x| x == 0));
        }
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
        let (g, _) = geometry(&pressed, &bank, 1);
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
        let _ = pressed_conv(SimdLevel::Scalar, &input, &bank, 1);
    }
}
