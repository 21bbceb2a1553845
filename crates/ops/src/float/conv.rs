//! Float convolution: direct reference and image-to-column production path.
//!
//! The image-to-column method (paper §II-B, Fig. 2) unfolds each input
//! window into a row of a matrix `U` of (out_h·out_w) × (kh·kw·C), builds a
//! weight matrix `W` of K × (kh·kw·C), and computes the convolution as the
//! GEMM `U · Wᵀ`. This is the conventional approach BitFlow keeps for the
//! *float* baseline while abandoning it for binary convolution.

use crate::params::ConvParams;
use bitflow_gemm::sgemm::sgemm_pretransposed;
use bitflow_simd::team;
use bitflow_tensor::{FilterShape, Layout, Shape, Tensor};

/// Direct (seven-loop) convolution over NHWC input, used as the correctness
/// oracle for every other convolution in the workspace (paper Eq. 2).
///
/// `weights` are in (K, kh, kw, C) order. Output is NHWC (out_h, out_w, K).
pub fn conv_direct(
    input: &Tensor,
    weights: &[f32],
    fshape: FilterShape,
    params: ConvParams,
) -> Tensor {
    assert_eq!(input.layout(), Layout::Nhwc);
    let s = input.shape();
    assert_eq!(s.n, 1, "batch-1 inference engine");
    assert_eq!(s.c, fshape.c, "channel mismatch");
    assert_eq!(weights.len(), fshape.numel());
    assert_eq!((fshape.kh, fshape.kw), (params.kh, params.kw));
    let g = params.conv_out(s, fshape.k);
    let mut out = Tensor::zeros(Shape::hwc(g.out_h, g.out_w, g.out_c), Layout::Nhwc);
    let (ih, iw) = (s.h as isize, s.w as isize);
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            for k in 0..fshape.k {
                let mut acc = 0.0f32;
                for i in 0..fshape.kh {
                    for j in 0..fshape.kw {
                        let y = (oy * params.stride + i) as isize - params.pad as isize;
                        let x = (ox * params.stride + j) as isize - params.pad as isize;
                        if y < 0 || y >= ih || x < 0 || x >= iw {
                            continue; // zero padding contributes nothing
                        }
                        for c in 0..fshape.c {
                            acc += input.at(0, y as usize, x as usize, c)
                                * weights[((k * fshape.kh + i) * fshape.kw + j) * fshape.c + c];
                        }
                    }
                }
                *out.at_mut(0, oy, ox, k) = acc;
            }
        }
    }
    out
}

/// The unfold step of image-to-column (paper Fig. 2b): each output position
/// becomes one row of `(kh·kw·C)` values, zero-filled where the window
/// hangs over the border. Returns the unfolded matrix, row-major.
pub fn im2col(input: &Tensor, params: ConvParams, kh: usize, kw: usize) -> Vec<f32> {
    assert_eq!(input.layout(), Layout::Nhwc);
    let s = input.shape();
    let g = params.conv_out(s, 1);
    let cols = kh * kw * s.c;
    let mut u = vec![0.0f32; g.out_h * g.out_w * cols];
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

/// Image-to-column convolution: unfold + tiled sgemm — the float production
/// baseline of all performance figures.
pub fn conv_im2col(
    input: &Tensor,
    weights: &[f32],
    fshape: FilterShape,
    params: ConvParams,
) -> Tensor {
    let (u, g, cols) = unfold_for(input, weights, fshape, params);
    // Weight matrix W is K×cols; `U · Wᵀ` wants B = Wᵀ of cols×K, i.e. the
    // sgemm-with-pretransposed-B path can take W rows directly.
    let mut out = Tensor::zeros(Shape::hwc(g.0, g.1, fshape.k), Layout::Nhwc);
    sgemm_pretransposed(&u, weights, out.data_mut(), g.0 * g.1, cols, fshape.k);
    out
}

/// Multi-threaded image-to-column convolution: the GEMM's M dimension
/// (output pixels) is split over the worker team, an output row to a chunk.
pub fn conv_im2col_parallel(
    input: &Tensor,
    weights: &[f32],
    fshape: FilterShape,
    params: ConvParams,
) -> Tensor {
    let (u, g, cols) = unfold_for(input, weights, fshape, params);
    let mut out = Tensor::zeros(Shape::hwc(g.0, g.1, fshape.k), Layout::Nhwc);
    let k = fshape.k;
    team::for_chunks_mut(out.data_mut(), g.1 * k, |oy, orow| {
        for (px, crow) in (oy * g.1..).zip(orow.chunks_mut(k)) {
            let urow = &u[px * cols..(px + 1) * cols];
            sgemm_pretransposed(urow, weights, crow, 1, cols, k);
        }
    });
    out
}

fn unfold_for(
    input: &Tensor,
    weights: &[f32],
    fshape: FilterShape,
    params: ConvParams,
) -> (Vec<f32>, (usize, usize), usize) {
    assert_eq!(input.shape().c, fshape.c, "channel mismatch");
    assert_eq!(weights.len(), fshape.numel());
    assert_eq!((fshape.kh, fshape.kw), (params.kh, params.kw));
    let g = params.conv_out(input.shape(), fshape.k);
    let cols = fshape.per_filter();
    let u = im2col(input, params, fshape.kh, fshape.kw);
    (u, (g.out_h, g.out_w), cols)
}

/// Size in floats of the unfolded matrix — the `|U|` term of the paper's
/// arithmetic-intensity analysis (Eq. 8).
pub fn unfolded_size(input: Shape, fshape: FilterShape, params: ConvParams) -> usize {
    let g = params.conv_out(input, fshape.k);
    g.out_h * g.out_w * fshape.per_filter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitflow_gemm::sgemm::{sgemm_naive, transpose};
    use rand::{rngs::StdRng, SeedableRng};

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        assert!(
            a.max_abs_diff(b) <= tol,
            "max diff {} > {tol}",
            a.max_abs_diff(b)
        );
    }

    #[test]
    fn im2col_matches_direct_no_pad() {
        let mut rng = StdRng::seed_from_u64(60);
        let input = Tensor::random(Shape::hwc(6, 7, 5), Layout::Nhwc, &mut rng);
        let fshape = FilterShape::new(4, 3, 3, 5);
        let weights: Vec<f32> = (0..fshape.numel())
            .map(|i| ((i % 13) as f32 - 6.0) / 6.0)
            .collect();
        let params = ConvParams::new(3, 3, 1, 0);
        let a = conv_direct(&input, &weights, fshape, params);
        let b = conv_im2col(&input, &weights, fshape, params);
        close(&a, &b, 1e-4);
    }

    #[test]
    fn im2col_matches_direct_with_pad_and_stride() {
        let mut rng = StdRng::seed_from_u64(61);
        for (params, hw) in [
            (ConvParams::new(3, 3, 1, 1), (5usize, 5usize)),
            (ConvParams::new(3, 3, 2, 1), (7, 9)),
            (ConvParams::new(2, 2, 2, 0), (8, 8)),
            (ConvParams::new(1, 1, 1, 0), (4, 4)),
            (ConvParams::new(5, 5, 1, 2), (9, 9)),
        ] {
            let input = Tensor::random(Shape::hwc(hw.0, hw.1, 3), Layout::Nhwc, &mut rng);
            let fshape = FilterShape::new(2, params.kh, params.kw, 3);
            let weights: Vec<f32> = (0..fshape.numel())
                .map(|i| ((i % 7) as f32 - 3.0) / 3.0)
                .collect();
            let a = conv_direct(&input, &weights, fshape, params);
            let b = conv_im2col(&input, &weights, fshape, params);
            close(&a, &b, 1e-4);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(62);
        let input = Tensor::random(Shape::hwc(10, 10, 16), Layout::Nhwc, &mut rng);
        let fshape = FilterShape::new(8, 3, 3, 16);
        let weights: Vec<f32> = (0..fshape.numel())
            .map(|i| ((i % 5) as f32 - 2.0) / 2.0)
            .collect();
        let a = conv_im2col(&input, &weights, fshape, ConvParams::VGG_CONV);
        let b = conv_im2col_parallel(&input, &weights, fshape, ConvParams::VGG_CONV);
        close(&a, &b, 1e-4);
    }

    #[test]
    fn unfold_geometry() {
        // Paper Fig. 2b: 3x3 input, 2x2 kernel → 4 rows of kh·kw·C.
        let input = Tensor::from_fn(Shape::hwc(3, 3, 2), Layout::Nhwc, |_, h, w, c| {
            (h * 10 + w + c * 100) as f32
        });
        let params = ConvParams::new(2, 2, 1, 0);
        let u = im2col(&input, params, 2, 2);
        assert_eq!(u.len(), 4 * 8);
        // First row = window at (0,0): pixels (0,0),(0,1),(1,0),(1,1), channels interleaved.
        assert_eq!(&u[..8], &[0.0, 100.0, 1.0, 101.0, 10.0, 110.0, 11.0, 111.0]);
    }

    #[test]
    fn im2col_gemm_identity_vs_naive_gemm() {
        // The unfolded formulation must equal a plain gemm on U and Wᵀ.
        let mut rng = StdRng::seed_from_u64(63);
        let input = Tensor::random(Shape::hwc(4, 4, 3), Layout::Nhwc, &mut rng);
        let fshape = FilterShape::new(5, 3, 3, 3);
        let weights: Vec<f32> = (0..fshape.numel()).map(|i| (i as f32).sin()).collect();
        let params = ConvParams::new(3, 3, 1, 1);
        let u = im2col(&input, params, 3, 3);
        let cols = fshape.per_filter();
        let wt = transpose(&weights, fshape.k, cols); // K×cols -> cols×K
        let mut c = vec![0.0f32; 16 * fshape.k];
        sgemm_naive(&u, &wt, &mut c, 16, cols, fshape.k);
        let conv = conv_im2col(&input, &weights, fshape, params);
        for (x, y) in c.iter().zip(conv.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn unfolded_size_matches_paper_eq8() {
        // |U| = (H−h+1)(W−w+1)·C·h·w for stride 1, no pad.
        let input = Shape::hwc(10, 12, 7);
        let fshape = FilterShape::new(3, 3, 3, 7);
        let sz = unfolded_size(input, fshape, ConvParams::new(3, 3, 1, 0));
        assert_eq!(sz, 8 * 10 * 7 * 9);
    }
}
