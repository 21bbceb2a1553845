//! Fused binarize+pack operators and batch-norm folding.
//!
//! The binarization stage between BNN layers — `sign(BN(x))` — collapses to
//! a per-channel threshold compare at inference time ([`BnFold`]), which the
//! conv and FC epilogues then decide on the popcount
//! ([`crate::binary::epilogue`]): no float map exists between layers. What
//! is pressed from floats here is the network's input, once per image —
//! by channel ([`binarize_pack_into`]), optionally into the interior of a
//! pre-zeroed padded buffer (zero-cost padding), or by window
//! ([`binarize_windows_into`]).

use crate::params::ConvParams;
use bitflow_simd::pack::pack_rows;
use bitflow_simd::VectorScheduler;
use bitflow_tensor::{BitTensor, Layout, Shape, Tensor};

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

/// Geometry of a **window-pressed** input: a first-layer convolution whose
/// whole `kh·kw·C` window fits one word has its input pressed by window
/// instead of by channel ([`binarize_windows_into`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowPress {
    input: Shape,
    params: ConvParams,
}

impl WindowPress {
    /// The window press of `input` (batch 1, unpadded) for a convolution
    /// with `params`.
    ///
    /// # Panics
    /// If a window does not fit one word.
    pub fn new(input: Shape, params: ConvParams) -> Self {
        let wp = Self { input, params };
        assert!(
            (1..=64).contains(&wp.window_bits()),
            "window of {} bits",
            wp.window_bits()
        );
        wp
    }

    /// Logical bits per window, `kh·kw·C`: the channel count of the pressed
    /// output, whose convolution is 1×1 at stride 1.
    pub fn window_bits(&self) -> usize {
        self.params.kh * self.params.kw * self.input.c
    }

    /// Output height: one window word per output pixel of the convolution.
    ///
    /// # Panics
    /// On a geometry no convolution can run on (as [`ConvParams::conv_out`]).
    pub fn out_h(&self) -> usize {
        self.params.conv_out(self.input, 1).out_h
    }

    /// Output width (panics as [`Self::out_h`]).
    pub fn out_w(&self) -> usize {
        self.params.conv_out(self.input, 1).out_w
    }

    /// Whole zero words ahead of a dense row's image bits: room for the
    /// left margin's `pad·C` bits.
    fn lead_words(&self) -> usize {
        (self.params.pad * self.input.c).div_ceil(64)
    }

    /// Words per dense row of the scratch: the lead, the image and right
    /// margin bits, and one more so a field can always be read as two words.
    fn row_words(&self) -> usize {
        self.lead_words() + ((self.input.w + self.params.pad) * self.input.c).div_ceil(64) + 1
    }

    /// Words of row scratch [`binarize_windows_into`] needs: `h + 2·pad`
    /// dense rows. Must start out zero; the margins are never written.
    pub fn scratch_words(&self) -> usize {
        (self.input.h + 2 * self.params.pad) * self.row_words()
    }
}

/// Window press — an im2row done once, on bits. Every input row of `W·C`
/// floats is pressed once into a dense bit stream in `rows` (pixel x at bit
/// `x·C`), then one word is written per *output* pixel (y, x) of the
/// convolution: window row r is the field of `kw·C` contiguous bits at bit
/// offset `(x·stride − pad)·C` of input row `y·stride + r − pad`, placed at
/// bit `r·kw·C`; bits beyond the map's edge are zero, the logical −1 of the
/// padding margin. A filter's `kh·kw·C` floats are in exactly that order, so
/// the same floats pressed as a `1×1×(kh·kw·C)` filter convolve `out` at
/// stride 1 into what the channel-pressed `kh×kw` convolution produces, in
/// one window step instead of `kh·kw`.
///
/// `rows` is [`WindowPress::scratch_words`] words that were zero before
/// their first use here and are otherwise only passed to this function.
pub fn binarize_windows_into(t: &Tensor, wp: &WindowPress, rows: &mut [u64], out: &mut BitTensor) {
    assert_eq!(t.layout(), Layout::Nhwc);
    assert_eq!(t.shape(), wp.input, "input shape");
    assert_eq!(rows.len(), wp.scratch_words(), "row scratch size");
    assert_eq!(
        (out.h(), out.w(), out.c()),
        (wp.out_h(), wp.out_w(), wp.window_bits()),
        "one window word per output pixel"
    );
    let (
        Shape { h, w, c, .. },
        ConvParams {
            kh, stride, pad, ..
        },
    ) = (wp.input, wp.params);
    let level = VectorScheduler::new().streaming_level();
    let (lead, row_words, image_words) = (wp.lead_words(), wp.row_words(), (w * c).div_ceil(64));
    for (y, row) in rows
        .chunks_exact_mut(row_words)
        .skip(pad)
        .take(h)
        .enumerate()
    {
        let floats = &t.data()[y * w * c..][..w * c];
        pack_rows(level, floats, 1, w * c, &mut row[lead..lead + image_words]);
    }
    // Bit 0 of output column 0's field: the left margin ends where the
    // image bits begin, at word `lead`.
    let origin = lead * 64 - pad * c;
    let field_bits = wp.params.kw * c;
    let mask = !0u64 >> (64 - field_bits);
    for (y, out_row) in out.words_mut().chunks_exact_mut(wp.out_w()).enumerate() {
        for r in 0..kh {
            let row = &rows[(y * stride + r) * row_words..][..row_words];
            for (x, o) in out_row.iter_mut().enumerate() {
                let bit = origin + x * stride * c;
                let pair = row[bit / 64] as u128 | (row[bit / 64 + 1] as u128) << 64;
                let field = ((pair >> (bit % 64)) as u64 & mask) << (r * field_bits);
                *o = if r == 0 { field } else { *o | field };
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

impl BnFold {
    /// Whether channel `c`'s activation of the pre-BN value `x` is +1: the
    /// float compare that [`crate::binary::SignThresholds::from_fold`] moves
    /// into the popcount domain.
    pub fn sign(&self, c: usize, x: f32) -> bool {
        let t = self.thresholds[c];
        if self.flip[c] {
            x <= t
        } else {
            x >= t
        }
    }
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

    /// The folded compare of `x` on channel `c`, as ±1.
    fn folded(fold: &BnFold, c: usize, x: f32) -> f32 {
        if fold.sign(c, x) {
            1.0
        } else {
            -1.0
        }
    }

    #[test]
    fn binarize_pack_matches_tensor_pack() {
        let mut rng = StdRng::seed_from_u64(130);
        for (c, pad) in [(1usize, 0usize), (64, 1), (70, 1), (100, 0), (300, 2)] {
            let t = Tensor::random(Shape::hwc(4, 5, c), Layout::Nhwc, &mut rng);
            let mut a = BitTensor::zeros(4 + 2 * pad, 5 + 2 * pad, c);
            binarize_pack_into(&t, &mut a, pad);
            let b = BitTensor::from_tensor_padded(&t, pad);
            assert_eq!(a.words(), b.words(), "c={c} pad={pad}");
        }
    }

    #[test]
    fn window_press_is_the_window_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(134);
        // (c, kh, kw): windows of 1 … 64 bits, fields that straddle words.
        for (c, kh, kw) in [
            (1usize, 1usize, 1usize),
            (3, 3, 3),
            (7, 3, 3),
            (4, 2, 3),
            (2, 5, 5),
            (64, 1, 1),
            (21, 1, 3),
            (16, 2, 2),
        ] {
            for stride in 1..=2usize {
                for pad in 0..=2usize {
                    for (h, w) in [(5usize, 7usize), (9, 23), (3, 45)] {
                        if kh > h + 2 * pad || kw > w + 2 * pad {
                            continue;
                        }
                        let what = format!("c={c} {kh}x{kw} s={stride} p={pad} {h}x{w}");
                        let t = Tensor::random(Shape::hwc(h, w, c), Layout::Nhwc, &mut rng);
                        let wp = WindowPress::new(t.shape(), ConvParams::new(kh, kw, stride, pad));
                        let mut rows = vec![0u64; wp.scratch_words()];
                        let mut out = BitTensor::zeros(wp.out_h(), wp.out_w(), wp.window_bits());
                        // Twice through the same scratch, poisoned output:
                        // every word is written whole, the margins stay zero.
                        for _ in 0..2 {
                            out.words_mut().fill(!0);
                            binarize_windows_into(&t, &wp, &mut rows, &mut out);
                        }
                        assert!(out.tail_is_zero(), "{what}");
                        for y in 0..wp.out_h() {
                            for x in 0..wp.out_w() {
                                for (bit, (r, j, ch)) in (0..kh)
                                    .flat_map(|r| {
                                        (0..kw).flat_map(move |j| (0..c).map(move |ch| (r, j, ch)))
                                    })
                                    .enumerate()
                                {
                                    let (iy, ix) = (y * stride + r, x * stride + j);
                                    let inside =
                                        iy >= pad && iy < h + pad && ix >= pad && ix < w + pad;
                                    let want = inside && t.at(0, iy - pad, ix - pad, ch) >= 0.0;
                                    assert_eq!(
                                        out.get(y, x, bit) == 1,
                                        want,
                                        "{what} ({y},{x}) bit {bit}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "window of 65 bits")]
    fn a_window_wider_than_a_word_is_refused() {
        WindowPress::new(Shape::hwc(4, 4, 13), ConvParams::new(1, 5, 1, 0));
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
        // Folded path. Ties (BN output exactly 0) are measure-zero for
        // random floats; allow zero mismatches here.
        let got: Vec<f32> = (t.data().iter().enumerate())
            .map(|(i, &x)| folded(&fold, i % c, x))
            .collect();
        assert_eq!(got, want.data());
    }

    #[test]
    fn bn_fold_zero_scale_is_constant() {
        let fold =
            fold_bn_into_thresholds(&[0.0, 0.0], &[1.0, -1.0], &[0.0, 0.0], &[1.0, 1.0], 0.0);
        for x in [5.0, -5.0] {
            assert_eq!([folded(&fold, 0, x), folded(&fold, 1, x)], [1.0, -1.0]);
        }
    }
}
