//! Fused binarize+pack operators and batch-norm folding.
//!
//! The binarization stage between BNN layers — `sign(BN(x))` — collapses to
//! a per-channel threshold compare at inference time, and the compare fuses
//! with bit-packing. These operators are the network-level glue: a float
//! feature map (e.g. a binary conv's integer counts) becomes the next
//! layer's pressed input in one pass, optionally written into the interior
//! of a pre-zeroed padded buffer (zero-cost padding).

use bitflow_simd::pack::pack_rows;
use bitflow_simd::VectorScheduler;
use bitflow_tensor::{BitTensor, Layout, Tensor};

/// Binarize+pack a float NHWC tensor (threshold 0, no padding). Same result
/// as [`BitTensor::from_tensor`], through the vector press kernel
/// (`bitflow_simd::pack`) instead of the bit-field reference.
pub fn binarize_pack(t: &Tensor) -> BitTensor {
    binarize_pack_padded(t, 0)
}

/// Binarize+pack into the interior of a pre-zeroed padded pressed tensor.
pub fn binarize_pack_padded(t: &Tensor, pad: usize) -> BitTensor {
    let s = t.shape();
    let mut out = BitTensor::zeros(s.h + 2 * pad, s.w + 2 * pad, s.c);
    binarize_pack_into(t, &mut out, pad);
    out
}

/// Binarize+pack into a pre-allocated padded pressed tensor (allocation-free
/// engine path). Margins of `out` are assumed already zero and left alone.
pub fn binarize_pack_into(t: &Tensor, out: &mut BitTensor, pad: usize) {
    assert_eq!(t.layout(), Layout::Nhwc);
    let s = t.shape();
    assert_eq!(s.n, 1);
    assert_eq!(out.c(), s.c, "channel count");
    assert_eq!(out.h(), s.h + 2 * pad, "height incl. padding");
    assert_eq!(out.w(), s.w + 2 * pad, "width incl. padding");
    if t.data().is_empty() {
        return;
    }
    // The pixels of an image row are consecutive rows of C floats in `t` and
    // consecutive pixels of `out`: one press call per image row, so the
    // kernel is resolved and bounds-checked per row, not per pixel (C is 3
    // for an RGB input — a per-pixel call would be all overhead).
    let level = VectorScheduler::new().streaming_level();
    let (row_floats, row_words) = (s.w * s.c, s.w * out.c_words());
    for h in 0..s.h {
        let base = out.pixel_words_index(h + pad, pad);
        pack_rows(
            level,
            &t.data()[h * row_floats..][..row_floats],
            s.w,
            s.c,
            &mut out.words_mut()[base..base + row_words],
        );
    }
}

/// Per-channel threshold binarization: bit c = `x_c >= thresholds[c]`, or
/// `x_c <= thresholds[c]` for flipped (negative-scale) channels, packed
/// into the interior of a padded pressed tensor. This is `sign∘BN` after
/// [`fold_bn_into_thresholds`].
pub fn binarize_threshold_padded(
    t: &Tensor,
    thresholds: &[f32],
    flip: &[bool],
    pad: usize,
) -> BitTensor {
    let s = t.shape();
    let mut out = BitTensor::zeros(s.h + 2 * pad, s.w + 2 * pad, s.c);
    binarize_threshold_into(t, thresholds, flip, &mut out, pad);
    out
}

/// Per-channel threshold binarization into a pre-allocated padded pressed
/// tensor (allocation-free engine path).
pub fn binarize_threshold_into(
    t: &Tensor,
    thresholds: &[f32],
    flip: &[bool],
    out: &mut BitTensor,
    pad: usize,
) {
    assert_eq!(t.layout(), Layout::Nhwc);
    let s = t.shape();
    assert_eq!(s.n, 1);
    assert_eq!(thresholds.len(), s.c);
    assert_eq!(flip.len(), s.c);
    assert_eq!(out.c(), s.c, "channel count");
    assert_eq!(out.h(), s.h + 2 * pad, "height incl. padding");
    assert_eq!(out.w(), s.w + 2 * pad, "width incl. padding");
    let cw = out.c_words();
    for h in 0..s.h {
        for w in 0..s.w {
            let src = t.pixel_channels(0, h, w);
            let base = out.pixel_words_index(h + pad, w + pad);
            let words = &mut out.words_mut()[base..base + cw];
            for (wi, word) in words.iter_mut().enumerate() {
                let lo = wi * 64;
                let hi = (lo + 64).min(s.c);
                let mut v = 0u64;
                for c in lo..hi {
                    let bit = if flip[c] {
                        src[c] <= thresholds[c]
                    } else {
                        src[c] >= thresholds[c]
                    };
                    v |= (bit as u64) << (c - lo);
                }
                *word = v;
            }
        }
    }
}

/// The result of folding inference-time batch normalization into the sign
/// activation that follows it.
#[derive(Clone, Debug, PartialEq)]
pub struct BnFold {
    /// Per-channel thresholds `t_c` such that `sign(BN(x)) = +1 ⇔
    /// x >= t_c` (or `x <= t_c` for flipped channels).
    pub thresholds: Vec<f32>,
    /// Channels whose BN scale is negative, inverting the comparison
    /// direction: the activation is +1 iff `x <= t_c`, equality included
    /// (sign(0) = +1 on both sides of the fold).
    pub flip: Vec<bool>,
}

/// Folds `sign(gamma·(x−mean)/sqrt(var+eps) + beta)` into a per-channel
/// threshold compare:
///
/// with `s = gamma/sqrt(var+eps)` the activation is +1 iff
/// `s·x + (beta − s·mean) >= 0`, i.e. `x >= (s·mean − beta)/s` when `s > 0`
/// and `x <= …` (flipped) when `s < 0`. A zero scale degenerates to the
/// constant `sign(beta)`, encoded as threshold ∓∞.
pub fn fold_bn_into_thresholds(
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    eps: f32,
) -> BnFold {
    let c = gamma.len();
    assert_eq!(beta.len(), c);
    assert_eq!(mean.len(), c);
    assert_eq!(var.len(), c);
    let mut thresholds = Vec::with_capacity(c);
    let mut flip = Vec::with_capacity(c);
    for i in 0..c {
        let s = gamma[i] / (var[i] + eps).sqrt();
        if s > 0.0 {
            thresholds.push(mean[i] - beta[i] / s);
            flip.push(false);
        } else if s < 0.0 {
            // s·x + b >= 0  ⇔  x <= −b/s + mean = mean − beta/s. The
            // consumer compares `x <= t` for flipped channels, so equality
            // lands on the +1 side exactly like the unflipped case — the
            // tie matters for the integer dot products BNN layers produce,
            // where `x == t` is reachable whenever t is an integer.
            thresholds.push(mean[i] - beta[i] / s);
            flip.push(true);
        } else {
            // Constant activation: sign(beta).
            if beta[i] >= 0.0 {
                thresholds.push(f32::NEG_INFINITY);
                flip.push(false);
            } else {
                thresholds.push(f32::INFINITY);
                flip.push(false);
            }
        }
    }
    BnFold { thresholds, flip }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::activation::batch_norm;
    use bitflow_tensor::Shape;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn binarize_pack_matches_tensor_pack() {
        let mut rng = StdRng::seed_from_u64(130);
        for c in [1usize, 64, 100, 300] {
            let t = Tensor::random(Shape::hwc(4, 5, c), Layout::Nhwc, &mut rng);
            let a = binarize_pack(&t);
            let b = BitTensor::from_tensor(&t);
            assert_eq!(a.words(), b.words(), "c={c}");
        }
    }

    #[test]
    fn padded_variant_matches_tensor_padded_pack() {
        let mut rng = StdRng::seed_from_u64(131);
        let t = Tensor::random(Shape::hwc(3, 3, 70), Layout::Nhwc, &mut rng);
        let a = binarize_pack_padded(&t, 1);
        let b = BitTensor::from_tensor_padded(&t, 1);
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn threshold_binarize_semantics() {
        let t = Tensor::from_vec(
            vec![0.5, -0.5, 3.0, 1.0, -1.0],
            Shape::hwc(1, 1, 5),
            Layout::Nhwc,
        );
        let out = binarize_threshold_padded(
            &t,
            &[0.0, -1.0, 5.0, 1.0, -1.0],
            &[false, true, false, false, true],
            0,
        );
        assert_eq!(out.get(0, 0, 0), 1); // 0.5 >= 0
        assert_eq!(out.get(0, 0, 1), -1); // -0.5 > -1, flipped: not <=
        assert_eq!(out.get(0, 0, 2), -1); // 3 < 5
        assert_eq!(out.get(0, 0, 3), 1); // 1 >= 1: tie is +1
        assert_eq!(out.get(0, 0, 4), 1); // -1 <= -1 flipped: tie is +1 too
    }

    #[test]
    fn bn_fold_matches_explicit_bn_then_sign() {
        let mut rng = StdRng::seed_from_u64(132);
        let c = 32usize;
        let gamma: Vec<f32> = (0..c)
            .map(|_| rng.gen_range(0.1f32..2.0) * if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let beta: Vec<f32> = (0..c).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mean: Vec<f32> = (0..c).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let var: Vec<f32> = (0..c).map(|_| rng.gen_range(0.1f32..3.0)).collect();
        let fold = fold_bn_into_thresholds(&gamma, &beta, &mean, &var, 1e-5);

        let t = Tensor::random(Shape::hwc(6, 6, c), Layout::Nhwc, &mut rng);
        // Explicit path: BN then sign.
        let mut explicit = t.clone();
        batch_norm(&mut explicit, &gamma, &beta, &mean, &var, 1e-5);
        let want = explicit.sign();
        // Folded path.
        let got = binarize_threshold_padded(&t, &fold.thresholds, &fold.flip, 0).to_tensor();
        // Ties (BN output exactly 0) are measure-zero for random floats;
        // allow zero mismatches here.
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn bn_fold_zero_scale_is_constant() {
        let fold =
            fold_bn_into_thresholds(&[0.0, 0.0], &[1.0, -1.0], &[0.0, 0.0], &[1.0, 1.0], 0.0);
        let t = Tensor::from_vec(
            vec![5.0, 5.0, -5.0, -5.0],
            Shape::hwc(2, 1, 2),
            Layout::Nhwc,
        );
        let out = binarize_threshold_padded(&t, &fold.thresholds, &fold.flip, 0);
        assert_eq!(out.get(0, 0, 0), 1);
        assert_eq!(out.get(0, 0, 1), -1);
        assert_eq!(out.get(1, 0, 0), 1);
        assert_eq!(out.get(1, 0, 1), -1);
    }

    #[test]
    fn press_tail_invariant_held() {
        let mut rng = StdRng::seed_from_u64(133);
        let t = Tensor::random(Shape::hwc(2, 2, 65), Layout::Nhwc, &mut rng);
        let out = binarize_threshold_padded(&t, &vec![0.0; 65], &[false; 65], 1);
        assert!(out.tail_is_zero());
    }
}
