//! Binary max-pooling: bitwise OR over pressed words (paper §III-C).
//!
//! In the {−1,+1} domain with the +1 ↦ 1 encoding, `max` of a window is 1
//! exactly when any element is 1 — a bitwise OR. The operator keeps the
//! NHWC pressed layout and works an output row at a time: each of the
//! `kh·kw` window taps is one pass that ORs a strided run of input pixels
//! into the row's words, a plain word loop the compiler vectorizes, so it
//! runs at memory speed at every channel width.

use crate::params::ConvParams;
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::scheduler::ConvGeometry;
use bitflow_simd::team;
use bitflow_tensor::{BitTensor, Shape};

/// Output geometry of a `kh×kw` pool at `stride` over `input`.
///
/// # Panics
/// If the window does not fit the map.
fn pool_out(input: &BitTensor, kh: usize, kw: usize, stride: usize) -> ConvGeometry {
    ConvParams::new(kh, kw, stride, 0).pool_out(Shape::hwc(input.h(), input.w(), input.c()))
}

/// Binary max-pool with a `kh×kw` window and `stride`.
pub fn binary_max_pool(
    level: SimdLevel,
    input: &BitTensor,
    kh: usize,
    kw: usize,
    stride: usize,
) -> BitTensor {
    let g = pool_out(input, kh, kw, stride);
    let mut out = BitTensor::zeros(g.out_h, g.out_w, input.c());
    binary_max_pool_into(level, input, kh, kw, stride, &mut out, 0);
    out
}

/// Binary max-pool into the interior of a pre-allocated (optionally padded)
/// output tensor — the allocation-free engine path, with zero-cost padding
/// for the following convolution baked into `out`. The OR is a word loop at
/// every `level`, which is kept for the callers that carry one.
pub fn binary_max_pool_into(
    _level: SimdLevel,
    input: &BitTensor,
    kh: usize,
    kw: usize,
    stride: usize,
    out: &mut BitTensor,
    out_pad: usize,
) {
    let g = pool_out(input, kh, kw, stride);
    assert_eq!(out.c(), input.c(), "channel count");
    assert_eq!(
        out.h(),
        g.out_h + 2 * out_pad,
        "output height incl. padding"
    );
    assert_eq!(out.w(), g.out_w + 2 * out_pad, "output width incl. padding");
    let row_words = g.out_w * input.c_words();
    for oy in 0..g.out_h {
        let at = out.pixel_words_index(oy + out_pad, out_pad);
        let orow = &mut out.words_mut()[at..at + row_words];
        pool_row(input, (kh, kw, stride), oy, orow);
    }
}

/// Multi-threaded binary max-pool (output rows over the worker team).
/// Bit-identical to the serial version.
pub fn binary_max_pool_parallel(
    _level: SimdLevel,
    input: &BitTensor,
    kh: usize,
    kw: usize,
    stride: usize,
) -> BitTensor {
    let ConvGeometry { out_h, out_w, .. } = pool_out(input, kh, kw, stride);
    let mut out = BitTensor::zeros(out_h, out_w, input.c());
    team::for_chunks_mut(out.words_mut(), out_w * input.c_words(), |oy, orow| {
        pool_row(input, (kh, kw, stride), oy, orow)
    });
    out
}

/// Output row `oy` of the pool into `orow` (whole pixels, `out_w·c_words`
/// words): one pass per window tap, the first copied, the others ORed on
/// top. Output pixel ox reads input pixel `ox·stride + j` of the tap's row.
/// A pixel of four words or more is ORed as the contiguous run it is; a
/// narrower one is all loop overhead that way, so its passes go down one
/// word column at a time, a strided loop as long as the row.
fn pool_row(
    input: &BitTensor,
    (kh, kw, stride): (usize, usize, usize),
    oy: usize,
    orow: &mut [u64],
) {
    let cw = input.c_words();
    let (out_w, pitch) = (orow.len() / cw, stride * cw);
    for i in 0..kh {
        let irow = input.row_words(oy * stride + i, 0, input.w());
        for j in 0..kw {
            let (taps, first) = (&irow[j * cw..], i == 0 && j == 0);
            if cw >= 4 {
                for ox in 0..out_w {
                    let (o, t) = (&mut orow[ox * cw..][..cw], &taps[ox * pitch..][..cw]);
                    if first {
                        o.copy_from_slice(t);
                    } else {
                        o.iter_mut().zip(t).for_each(|(o, t)| *o |= t);
                    }
                }
            } else {
                for w in 0..cw {
                    for ox in 0..out_w {
                        let t = taps[ox * pitch + w];
                        let o = &mut orow[ox * cw + w];
                        *o = if first { t } else { *o | t };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::pool::max_pool;
    use bitflow_tensor::{Layout, Tensor};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rand_pm1_tensor(rng: &mut StdRng, h: usize, w: usize, c: usize) -> Tensor {
        Tensor::from_fn(Shape::hwc(h, w, c), Layout::Nhwc, |_, _, _, _| {
            if rng.gen::<bool>() {
                1.0
            } else {
                -1.0
            }
        })
    }

    #[test]
    fn matches_float_max_pool_on_pm1() {
        let mut rng = StdRng::seed_from_u64(120);
        for c in [1usize, 33, 64, 130, 512] {
            let t = rand_pm1_tensor(&mut rng, 8, 8, c);
            let want = max_pool(&t, ConvParams::VGG_POOL);
            let pressed = BitTensor::from_tensor(&t);
            for level in [
                SimdLevel::Scalar,
                SimdLevel::Sse,
                SimdLevel::Avx2,
                SimdLevel::Avx512,
            ] {
                let got = binary_max_pool(level, &pressed, 2, 2, 2).to_tensor();
                assert_eq!(got.max_abs_diff(&want), 0.0, "c={c} {level}");
            }
        }
    }

    #[test]
    fn parallel_bit_identical() {
        let mut rng = StdRng::seed_from_u64(121);
        let t = rand_pm1_tensor(&mut rng, 14, 14, 256);
        let pressed = BitTensor::from_tensor(&t);
        let a = binary_max_pool(SimdLevel::Avx512, &pressed, 2, 2, 2);
        let b = binary_max_pool_parallel(SimdLevel::Avx512, &pressed, 2, 2, 2);
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn all_minus_one_window_stays_minus_one() {
        let t = Tensor::from_vec(vec![-1.0; 4 * 4 * 64], Shape::hwc(4, 4, 64), Layout::Nhwc);
        let pressed = BitTensor::from_tensor(&t);
        let out = binary_max_pool(SimdLevel::Scalar, &pressed, 2, 2, 2);
        assert!(out.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn single_plus_one_dominates_window() {
        let mut t = Tensor::from_vec(vec![-1.0; 2 * 2 * 64], Shape::hwc(2, 2, 64), Layout::Nhwc);
        *t.at_mut(0, 1, 1, 63) = 1.0;
        let pressed = BitTensor::from_tensor(&t);
        let out = binary_max_pool(SimdLevel::Scalar, &pressed, 2, 2, 2);
        assert_eq!(out.get(0, 0, 63), 1);
        assert_eq!(out.get(0, 0, 62), -1);
    }

    #[test]
    fn overlapping_stride_1_windows() {
        let mut rng = StdRng::seed_from_u64(122);
        let t = rand_pm1_tensor(&mut rng, 5, 5, 64);
        let want = max_pool(&t, ConvParams::new(2, 2, 1, 0));
        let pressed = BitTensor::from_tensor(&t);
        let got = binary_max_pool(SimdLevel::Avx2, &pressed, 2, 2, 1).to_tensor();
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }
}
