//! Binary convolution via the conventional image-to-column method — the
//! algorithmic baseline PressedConv replaces (paper §III-A).
//!
//! The float input is unfolded exactly as in the float path (one row of
//! `kh·kw·C` values per output pixel), then each row is binarized and
//! packed, the filter bank is packed to matching rows, and the convolution
//! becomes a binary GEMM. The paper's two criticisms are visible directly
//! in this code:
//!
//! 1. the unfolded matrix `U` is materialized (≈ `kh·kw`× the input) and
//!    written+read once each, collapsing arithmetic intensity (Eq. 8); and
//! 2. the packed row length `kh·kw·C` is rarely a multiple of the SIMD
//!    width, so the kernel spends time in tails.
//!
//! With `level = SimdLevel::Scalar` this operator *is* the paper's
//! "unoptimized BNN implementation": bitwise xor+popcount binary
//! convolution with no vector parallelism. Sharing no code with the
//! filter-lane core, it is also the integer reference PressedConv's unit
//! tests check the sign conv against. (The figure-7 harness uses the
//! scalar **PressedConv** as the unvectorized baseline so that exactly one
//! variable — vectorization — changes; this operator additionally changes
//! the algorithm, which is what the `ablation` bench quantifies.)

use crate::float::conv::im2col;
use crate::params::ConvParams;
use bitflow_gemm::pack::{pack_a_rows, PackedMatrix};
use bitflow_simd::binary_dot;
use bitflow_simd::kernels::SimdLevel;
use bitflow_tensor::{FilterShape, Layout, Shape, Tensor};

/// Packs the filter bank as rows of `kh·kw·C` bits, matching the unfolded
/// row layout `(i, j, c)`. Weights come in (K, kh, kw, C) order, which is
/// already `(i, j, c)`-major per filter, so each filter packs contiguously.
pub fn pack_filters_as_rows(weights: &[f32], fshape: FilterShape) -> PackedMatrix {
    assert_eq!(weights.len(), fshape.numel());
    pack_a_rows(weights, fshape.k, fshape.per_filter())
}

/// Image-to-column binary convolution.
///
/// Note the **−1 padding** semantics difference from the float path: the
/// unfolded matrix zero-fills out-of-bounds taps with the float 0.0, which
/// binarizes to **+1** (sign(0) = +1, paper Eq. 3). To keep the same
/// padding semantics as PressedConv (pad = −1), out-of-bounds taps are
/// re-filled with −1.0 before binarization.
pub fn binary_conv_im2col(
    level: SimdLevel,
    input: &Tensor,
    weights: &[f32],
    fshape: FilterShape,
    params: ConvParams,
) -> Tensor {
    assert_eq!(input.layout(), Layout::Nhwc);
    let s = input.shape();
    assert_eq!(s.c, fshape.c, "channel mismatch");
    let g = params.conv_out(s, fshape.k);
    let cols = fshape.per_filter();

    // Unfold with −1 fill so padding matches the pressed path.
    let mut u = if params.pad > 0 {
        im2col_fill(input, params, fshape.kh, fshape.kw, -1.0)
    } else {
        im2col(input, params, fshape.kh, fshape.kw)
    };
    debug_assert_eq!(u.len(), g.out_h * g.out_w * cols);

    // Binarize + pack the unfolded rows (this pass over the full U is the
    // AIT overhead the paper analyzes).
    let pu = pack_a_rows(&u, g.out_h * g.out_w, cols);
    u.clear();
    let pw = pack_filters_as_rows(weights, fshape);

    let mut out = Tensor::zeros(Shape::hwc(g.out_h, g.out_w, fshape.k), Layout::Nhwc);
    let k = fshape.k;
    for px in 0..g.out_h * g.out_w {
        let urow = pu.row(px);
        let orow = &mut out.data_mut()[px * k..(px + 1) * k];
        for (kk, o) in orow.iter_mut().enumerate() {
            *o = binary_dot(level, urow, pw.row(kk), cols) as f32;
        }
    }
    out
}

/// `im2col` with a custom fill value for out-of-bounds taps.
fn im2col_fill(input: &Tensor, params: ConvParams, kh: usize, kw: usize, fill: f32) -> Vec<f32> {
    let s = input.shape();
    let g = params.conv_out(s, 1);
    let cols = kh * kw * s.c;
    let mut u = vec![fill; g.out_h * g.out_w * cols];
    let (ih, iw) = (s.h as isize, s.w as isize);
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            let row = &mut u[(oy * g.out_w + ox) * cols..][..cols];
            for i in 0..kh {
                let y = (oy * params.stride + i) as isize - params.pad as isize;
                if y < 0 || y >= ih {
                    continue;
                }
                for j in 0..kw {
                    let x = (ox * params.stride + j) as isize - params.pad as isize;
                    if x < 0 || x >= iw {
                        continue;
                    }
                    let src = input.pixel_channels(0, y as usize, x as usize);
                    row[(i * kw + j) * s.c..][..s.c].copy_from_slice(src);
                }
            }
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rand_pm1(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn all_levels_agree() {
        let mut rng = StdRng::seed_from_u64(101);
        let shape = Shape::hwc(5, 5, 32);
        let fshape = FilterShape::new(3, 3, 3, 32);
        let input = Tensor::from_vec(rand_pm1(&mut rng, shape.numel()), shape, Layout::Nhwc);
        let weights = rand_pm1(&mut rng, fshape.numel());
        let base = binary_conv_im2col(
            SimdLevel::Scalar,
            &input,
            &weights,
            fshape,
            ConvParams::VGG_CONV,
        );
        for level in [SimdLevel::Sse, SimdLevel::Avx2, SimdLevel::Avx512] {
            let got = binary_conv_im2col(level, &input, &weights, fshape, ConvParams::VGG_CONV);
            assert_eq!(base.max_abs_diff(&got), 0.0, "{level}");
        }
    }

    #[test]
    fn filter_row_packing_matches_bank() {
        let mut rng = StdRng::seed_from_u64(102);
        let fshape = FilterShape::new(4, 3, 3, 8);
        let weights = rand_pm1(&mut rng, fshape.numel());
        let rows = pack_filters_as_rows(&weights, fshape);
        assert_eq!(rows.rows, 4);
        assert_eq!(rows.n_logical, 72);
        // Spot-check bit (k=2, i=1, j=2, c=5) → row 2, bit (1*3+2)*8+5 = 45.
        let flat = ((2 * 3 + 1) * 3 + 2) * 8 + 5;
        let want = weights[flat] >= 0.0;
        assert_eq!((rows.row(2)[0] >> 45) & 1 == 1, want);
    }
}
