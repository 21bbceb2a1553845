//! The integer oracle: a whole-network reference interpreter that holds
//! the engine to the arithmetic of the paper and nothing else.
//!
//! Every value is an `i32`. Activations and weights are their signs, ±1
//! (`x >= 0.0` is +1, so a NaN weight is −1). A convolution or FC output is
//! the plain sum of products `Σ aᵢ·wᵢ` that paper Eq. 1 computes as
//! `N − 2·popcount(a ⊕ w)`. Padding reads −1 (ARCHITECTURE §1.3).
//! Batch-norm + sign is the folded compare `dot ≥ t`, or `dot ≤ t` on a
//! channel whose negative γ flipped it. Max-pool takes the largest ±1 of a
//! window, and an FC reads its map in NHWC order. The last FC's dots are
//! the logits.
//!
//! No packing, no SIMD, no window press, no popcount epilogue: suites
//! assert "the engine, configured so, ≡ oracle".

#![allow(dead_code)]

use bitflow::graph::spec::{LayerSpec, NetworkSpec};
use bitflow::graph::weights::{LayerWeights, NetworkWeights};
use bitflow::ops::binary::BnFold;
use bitflow::tensor::{BitTensor, Tensor};

/// ±1 of every value as the engine presses it: `x >= 0.0` is +1.
pub fn signs(xs: &[f32]) -> Vec<i32> {
    xs.iter().map(|&x| if x >= 0.0 { 1 } else { -1 }).collect()
}

/// A ±1 activation in NHWC order; a vector is a 1×1×n map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Act {
    pub h: usize,
    pub w: usize,
    pub c: usize,
    pub v: Vec<i32>,
}

impl Act {
    /// The signs of an image (or of any map of ±1 floats).
    pub fn of(t: &Tensor) -> Self {
        let s = t.shape();
        Self {
            h: s.h,
            w: s.w,
            c: s.c,
            v: signs(t.data()),
        }
    }

    /// The ±1 of a pressed map's interior, `pad` pixels in from each edge.
    pub fn unpress(map: &BitTensor, pad: usize) -> Self {
        let (h, w, c) = (map.h() - 2 * pad, map.w() - 2 * pad, map.c());
        let v = (0..h * w * c)
            .map(|i| map.get(i / c / w + pad, i / c % w + pad, i % c))
            .collect();
        Self { h, w, c, v }
    }
}

/// Integer dot products of a ±1 `h×w×c` map with ±1 filters in
/// (k, kh, kw, c) order, the map read as −1 beyond its edge, `pad` pixels
/// deep: `[(oy·out_w + ox)·k + kk]`, with the output height and width.
pub fn conv(
    input: &[i32],
    (h, w, c): (usize, usize, usize),
    weights: &[i32],
    (k, kh, kw): (usize, usize, usize),
    stride: usize,
    pad: usize,
) -> (Vec<i32>, usize, usize) {
    let (out_h, out_w) = (
        (h + 2 * pad - kh) / stride + 1,
        (w + 2 * pad - kw) / stride + 1,
    );
    let mut dots = Vec::with_capacity(out_h * out_w * k);
    for oy in 0..out_h {
        for ox in 0..out_w {
            for kk in 0..k {
                let mut dot = 0i32;
                for i in 0..kh {
                    for j in 0..kw {
                        let (y, x) = (oy * stride + i, ox * stride + j);
                        let inside = y >= pad && y < h + pad && x >= pad && x < w + pad;
                        let wrow = &weights[((kk * kh + i) * kw + j) * c..][..c];
                        dot += if inside {
                            let px = &input[((y - pad) * w + (x - pad)) * c..][..c];
                            px.iter().zip(wrow).map(|(a, b)| a * b).sum::<i32>()
                        } else {
                            -wrow.iter().sum::<i32>()
                        };
                    }
                }
                dots.push(dot);
            }
        }
    }
    (dots, out_h, out_w)
}

/// The folded batch-norm sign of `dot` on channel `c`: `dot ≥ t`, or
/// `dot ≤ t` where γ < 0 flipped the compare, so a tie is +1 either way.
pub fn folded(fold: &BnFold, c: usize, dot: i32) -> bool {
    fold.sign(c, dot as f32)
}

/// `dots` of a `k`-channel output through the folded sign, as ±1.
pub fn threshold(fold: &BnFold, k: usize, dots: &[i32]) -> Vec<i32> {
    let sign = |(i, &dot)| if folded(fold, i % k, dot) { 1 } else { -1 };
    dots.iter().enumerate().map(sign).collect()
}

/// Max-pool of a ±1 map with a `kh×kw` window at `stride`, no padding.
pub fn max_pool(a: &Act, kh: usize, kw: usize, stride: usize) -> Act {
    let (h, w) = ((a.h - kh) / stride + 1, (a.w - kw) / stride + 1);
    let mut v = Vec::with_capacity(h * w * a.c);
    for oy in 0..h {
        for ox in 0..w {
            for ch in 0..a.c {
                let mut max = -1;
                for i in 0..kh {
                    for j in 0..kw {
                        let (y, x) = (oy * stride + i, ox * stride + j);
                        max = max.max(a.v[(y * a.w + x) * a.c + ch]);
                    }
                }
                v.push(max);
            }
        }
    }
    Act { h, w, c: a.c, v }
}

/// FC dots of the ±1 vector `a` with `N×K` row-major ±1 weights:
/// `dots[j] = Σᵢ a[i]·w[i·K + j]`.
pub fn dense(a: &[i32], w: &[i32], k: usize) -> Vec<i32> {
    let mut dots = vec![0i32; k];
    for (i, &x) in a.iter().enumerate() {
        for (j, dot) in dots.iter_mut().enumerate() {
            *dot += x * w[i * k + j];
        }
    }
    dots
}

/// The logits of `spec` with `weights` on `input`.
pub fn logits(spec: &NetworkSpec, weights: &NetworkWeights, input: &Tensor) -> Vec<f32> {
    run(spec, weights, 0, Act::of(input))
}

/// Layers `from..` of the network over the activation `a` they read, to the
/// logits.
pub fn run(spec: &NetworkSpec, weights: &NetworkWeights, from: usize, mut a: Act) -> Vec<f32> {
    let last = spec.layers.len() - 1;
    let layers = spec.layers.iter().zip(&weights.layers).enumerate();
    for (i, (layer, lw)) in layers.skip(from) {
        a = match (layer, lw) {
            (LayerSpec::Conv { k, params, .. }, LayerWeights::Conv { w, bn, .. }) => {
                let (dots, h, w) = conv(
                    &a.v,
                    (a.h, a.w, a.c),
                    &signs(w),
                    (*k, params.kh, params.kw),
                    params.stride,
                    params.pad,
                );
                let v = threshold(&bn.fold(), *k, &dots);
                Act { h, w, c: *k, v }
            }
            (LayerSpec::Pool { params, .. }, LayerWeights::Pool) => {
                max_pool(&a, params.kh, params.kw, params.stride)
            }
            (LayerSpec::Fc { k, .. }, LayerWeights::Fc { w, bn, .. }) => {
                let dots = dense(&a.v, &signs(w), *k);
                if i == last {
                    return dots.into_iter().map(|d| d as f32).collect();
                }
                let v = threshold(&bn.fold(), *k, &dots);
                Act {
                    h: 1,
                    w: 1,
                    c: *k,
                    v,
                }
            }
            (l, _) => panic!("spec and weights disagree at {}", l.name()),
        };
    }
    panic!("{} does not end in an FC", spec.name)
}
