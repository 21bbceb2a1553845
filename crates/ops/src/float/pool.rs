//! Float max-pooling over NHWC tensors.

use crate::params::ConvParams;
use bitflow_simd::team;
use bitflow_tensor::{Layout, Shape, Tensor};

/// Max-pool with window `params.kh × params.kw` and `params.stride`.
pub fn max_pool(input: &Tensor, params: ConvParams) -> Tensor {
    assert_eq!(input.layout(), Layout::Nhwc);
    let s = input.shape();
    assert_eq!(s.n, 1);
    let g = params.pool_out(s);
    let mut out = Tensor::zeros(Shape::hwc(g.out_h, g.out_w, g.out_c), Layout::Nhwc);
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            pool_window(input, params, oy, ox, {
                let start = (oy * g.out_w + ox) * s.c;
                &mut out.data_mut()[start..start + s.c]
            });
        }
    }
    out
}

/// Multi-threaded max-pool: output rows over the worker team.
pub fn max_pool_parallel(input: &Tensor, params: ConvParams) -> Tensor {
    assert_eq!(input.layout(), Layout::Nhwc);
    let s = input.shape();
    assert_eq!(s.n, 1);
    let g = params.pool_out(s);
    let mut out = Tensor::zeros(Shape::hwc(g.out_h, g.out_w, g.out_c), Layout::Nhwc);
    team::for_chunks_mut(out.data_mut(), g.out_w * s.c, |oy, orow| {
        for (ox, px) in orow.chunks_mut(s.c).enumerate() {
            pool_window(input, params, oy, ox, px);
        }
    });
    out
}

#[inline]
fn pool_window(input: &Tensor, params: ConvParams, oy: usize, ox: usize, orow: &mut [f32]) {
    orow.fill(f32::NEG_INFINITY);
    for i in 0..params.kh {
        for j in 0..params.kw {
            let src = input.pixel_channels(0, oy * params.stride + i, ox * params.stride + j);
            for (o, &x) in orow.iter_mut().zip(src) {
                *o = o.max(x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn pool_2x2_known_values() {
        let input = Tensor::from_fn(Shape::hwc(4, 4, 1), Layout::Nhwc, |_, h, w, _| {
            (h * 4 + w) as f32
        });
        let out = max_pool(&input, ConvParams::VGG_POOL);
        assert_eq!(out.shape(), Shape::hwc(2, 2, 1));
        assert_eq!(out.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn pool_keeps_channels_independent() {
        let input = Tensor::from_fn(Shape::hwc(2, 2, 3), Layout::Nhwc, |_, h, w, c| {
            ((h * 2 + w) as f32) * if c == 1 { -1.0 } else { 1.0 }
        });
        let out = max_pool(&input, ConvParams::VGG_POOL);
        assert_eq!(out.data(), &[3.0, 0.0, 3.0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(80);
        let input = Tensor::random(Shape::hwc(14, 14, 64), Layout::Nhwc, &mut rng);
        let a = max_pool(&input, ConvParams::VGG_POOL);
        let b = max_pool_parallel(&input, ConvParams::VGG_POOL);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn overlapping_windows_stride_1() {
        let input = Tensor::from_fn(Shape::hwc(3, 3, 1), Layout::Nhwc, |_, h, w, _| {
            (h * 3 + w) as f32
        });
        let out = max_pool(&input, ConvParams::new(2, 2, 1, 0));
        assert_eq!(out.shape(), Shape::hwc(2, 2, 1));
        assert_eq!(out.data(), &[4.0, 5.0, 7.0, 8.0]);
    }
}
