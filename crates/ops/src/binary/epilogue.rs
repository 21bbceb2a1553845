//! Conv/bgemm epilogues: integer-threshold sign in the popcount domain.
//!
//! Every binary reduction in BitFlow — a PressedConv window or a binary FC
//! row — is `dot = n − 2·pop`, where `n` is the number of logical bits in
//! the window and `pop = popcount(a ⊕ b)`. The dot product is therefore an
//! exact integer with the same parity as `n`, and the folded batch-norm
//! sign activation `(dot ≥ t)` / `(dot ≤ t)` (see
//! [`crate::binary::binarize::fold_bn_into_thresholds`]) can be decided
//! directly on the **popcount accumulator** with an integer compare:
//!
//! * `γ > 0` (no flip): `bit ⇔ dot ≥ t ⇔ dot ≥ ⌈t⌉ ⇔ pop ≤ ⌊(n − ⌈t⌉)/2⌋`
//! * `γ < 0` (flip):   `bit ⇔ dot ≤ t ⇔ dot ≤ ⌊t⌋ ⇔ pop ≥ ⌈(n − ⌊t⌋)/2⌉`
//!
//! Rounding through `⌈t⌉`/`⌊t⌋` is *exact* for integer dots — no float
//! compare survives into the fused inner loop — and the negative-γ case is
//! handled by flipping the comparison **direction** ([`PopCmp`]), not by
//! negating operands. Thresholds outside the reachable popcount range
//! `[0, n]` saturate naturally into always-+1 / always-−1 channels
//! (`β` pushing the boundary out of range, or the degenerate γ = 0 fold,
//! which encodes `sign(β)` as a ∓∞ threshold).
//!
//! Every conv the engine runs and every hidden FC decide their signs this
//! way, so no float map is ever written between layers; only the network's
//! final FC stores its dots, as the logits.

use crate::binary::binarize::BnFold;
use bitflow_simd::conv::LANES;

/// Comparison direction applied to the popcount accumulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopCmp {
    /// `bit = pop ≤ bound` — the positive-scale (γ > 0) direction.
    Le,
    /// `bit = pop ≥ bound` — the flipped, negative-scale (γ < 0) direction.
    Ge,
}

/// Per-channel integer sign thresholds over the popcount domain, derived
/// once at compile time from a [`BnFold`] and the reduction width.
///
/// The equivalence with the float threshold compare is exact (see module
/// docs), so a conv or FC deciding its signs with these bounds is
/// bit-identical to thresholding its float dots.
///
/// Stored **lane-ready** for the filter-lane conv core
/// (`bitflow_simd::conv`): every channel is normalised to the single
/// compare `pop ≤ bound`, with `pop ≥ b` kept as `pop ≤ b − 1` plus a flip
/// bit, so eight channels are decided by one vector compare and the flip
/// bits of 64 channels are one xor mask for the output word they fill. The
/// bounds are padded to whole groups of [`LANES`] with never-set lanes
/// (`bound = −1`) and the masks to whole words with no flip, which is what
/// keeps the press tail of a conv output zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignThresholds {
    /// `bit = (pop ≤ lane_bounds[c]) ^ flip bit c`; `⌈len/8⌉·8` entries.
    lane_bounds: Vec<i64>,
    /// Bit `c % 64` of word `c / 64` is set for [`PopCmp::Ge`] channels.
    flip_words: Vec<u64>,
    len: usize,
    /// Logical bits per reduction (`kh·kw·c` for a conv window, `n` for an
    /// FC row): `dot = window_bits − 2·pop`.
    window_bits: i64,
}

impl SignThresholds {
    /// Derives the integer popcount bounds for a reduction of
    /// `window_bits` logical bits from folded batch-norm thresholds.
    pub fn from_fold(fold: &BnFold, window_bits: usize) -> Self {
        assert_eq!(fold.thresholds.len(), fold.flip.len());
        let n = window_bits as i64;
        let len = fold.thresholds.len();
        let mut lane_bounds = vec![-1i64; len.div_ceil(LANES) * LANES];
        let mut flip_words = vec![0u64; len.div_ceil(64)];
        for (c, (&t, &flip)) in fold.thresholds.iter().zip(&fold.flip).enumerate() {
            if t.is_nan() {
                // `x ≥ NaN` and `x ≤ NaN` are both false: constant −1,
                // which is the padding lane's encoding.
            } else if !flip {
                // bit ⇔ dot ≥ ⌈t⌉ ⇔ pop ≤ ⌊(n − ⌈t⌉)/2⌋. The cast
                // saturates ±∞; clamping to ±(n+2) keeps the subtraction
                // in range without changing the decision for any
                // reachable dot ∈ [−n, n].
                let d = (t.ceil() as i64).clamp(-(n + 2), n + 2);
                lane_bounds[c] = (n - d).div_euclid(2);
            } else {
                // bit ⇔ dot ≤ ⌊t⌋ ⇔ pop ≥ ⌈(n − ⌊t⌋)/2⌉ ⇔ ¬(pop ≤ that − 1).
                let d = (t.floor() as i64).clamp(-(n + 2), n + 2);
                lane_bounds[c] = (n - d + 1).div_euclid(2) - 1;
                flip_words[c / 64] |= 1 << (c % 64);
            }
        }
        Self {
            lane_bounds,
            flip_words,
            len,
            window_bits: n,
        }
    }

    /// Number of output channels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no channels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical bits per reduction window.
    pub fn window_bits(&self) -> usize {
        self.window_bits as usize
    }

    /// The `pop ≤ bound` bounds of every lane, padded to whole groups.
    pub fn lane_bounds(&self) -> &[i64] {
        &self.lane_bounds
    }

    /// One xor mask per 64 channels (see the type docs).
    pub fn flip_words(&self) -> &[u64] {
        &self.flip_words
    }

    /// The popcount bound of channel `c`, in its own [`Self::direction`].
    pub fn bound(&self, c: usize) -> i64 {
        match self.direction(c) {
            PopCmp::Le => self.lane_bounds[c],
            PopCmp::Ge => self.lane_bounds[c] + 1,
        }
    }

    /// Whether channel `c`'s flip bit is set.
    #[inline]
    fn flipped(&self, c: usize) -> bool {
        (self.flip_words[c / 64] >> (c % 64)) & 1 == 1
    }

    /// The comparison direction of channel `c`.
    pub fn direction(&self, c: usize) -> PopCmp {
        assert!(c < self.len, "channel {c} of {}", self.len);
        if self.flipped(c) {
            PopCmp::Ge
        } else {
            PopCmp::Le
        }
    }

    /// The sign bit of channel `c` for popcount accumulator `pop`.
    #[inline]
    pub fn bit_from_pop(&self, c: usize, pop: i64) -> bool {
        (pop <= self.lane_bounds[c]) ^ self.flipped(c)
    }

    /// The sign bit of channel `c` for integer dot product `dot`
    /// (`pop = (window_bits − dot)/2`, an exact integer by parity).
    #[inline]
    pub fn bit_from_dot(&self, c: usize, dot: i64) -> bool {
        self.bit_from_pop(c, (self.window_bits - dot) >> 1)
    }

    /// Channel `c` is +1 for every reachable popcount (threshold saturated
    /// below the range, or the γ = 0, β ≥ 0 fold).
    pub fn always_pos(&self, c: usize) -> bool {
        match self.direction(c) {
            PopCmp::Le => self.bound(c) >= self.window_bits,
            PopCmp::Ge => self.bound(c) <= 0,
        }
    }

    /// Channel `c` is −1 for every reachable popcount (threshold saturated
    /// above the range, a NaN threshold, or the γ = 0, β < 0 fold).
    pub fn always_neg(&self, c: usize) -> bool {
        match self.direction(c) {
            PopCmp::Le => self.bound(c) < 0,
            PopCmp::Ge => self.bound(c) > self.window_bits,
        }
    }
}

/// Sign-threshold + pack a vector of integer-valued dot products (the
/// bgemm/FC epilogue): bit `i` of `out` is `st.bit_from_dot(i, dots[i])`.
/// `out` must hold `⌈len/64⌉` words; press-tail bits are zeroed.
pub fn pack_signed_dots_into(dots: &[f32], st: &SignThresholds, out: &mut [u64]) {
    assert_eq!(dots.len(), st.len(), "one threshold per output");
    assert_eq!(out.len(), dots.len().div_ceil(64), "output word count");
    out.fill(0);
    for (i, &x) in dots.iter().enumerate() {
        if st.bit_from_dot(i, x as i64) {
            out[i / 64] |= 1 << (i % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(thresholds: Vec<f32>, flip: Vec<bool>) -> BnFold {
        BnFold { thresholds, flip }
    }

    /// Exhaustive equivalence with the (tie-exact) float compare over every
    /// reachable dot value, for a spread of thresholds in and out of range.
    #[test]
    fn integer_bounds_match_float_compare_exhaustively() {
        for n in [9usize, 16, 27, 576] {
            let ts: Vec<f32> = vec![
                0.0,
                0.5,
                -0.5,
                3.0,
                -3.0,
                (n as f32) - 1.0,
                n as f32,
                (n as f32) + 10.5,
                -(n as f32) - 10.5,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ];
            for flip in [false, true] {
                let f = fold(ts.clone(), vec![flip; ts.len()]);
                let st = SignThresholds::from_fold(&f, n);
                // dot runs over every parity-consistent integer in [−n, n].
                let mut dot = -(n as i64);
                while dot <= n as i64 {
                    for (c, &t) in ts.iter().enumerate() {
                        assert_eq!(
                            st.bit_from_dot(c, dot),
                            f.sign(c, dot as f32),
                            "n={n} t={t} flip={flip} dot={dot}"
                        );
                    }
                    dot += 2;
                }
            }
        }
    }

    #[test]
    fn tie_goes_to_plus_one_in_both_directions() {
        // dot == t exactly: sign(0) = +1 must hold for γ > 0 (x ≥ t) and
        // for γ < 0 (x ≤ t) — the flipped side owns equality too.
        let n = 9usize;
        let st_pos = SignThresholds::from_fold(&fold(vec![3.0], vec![false]), n);
        let st_neg = SignThresholds::from_fold(&fold(vec![3.0], vec![true]), n);
        assert!(st_pos.bit_from_dot(0, 3));
        assert!(st_neg.bit_from_dot(0, 3));
        assert!(!st_pos.bit_from_dot(0, 1));
        assert!(st_neg.bit_from_dot(0, 1));
        assert!(st_pos.bit_from_dot(0, 5));
        assert!(!st_neg.bit_from_dot(0, 5));
        assert_eq!(st_pos.direction(0), PopCmp::Le);
        assert_eq!(st_neg.direction(0), PopCmp::Ge);
    }

    #[test]
    fn out_of_range_thresholds_saturate() {
        let n = 16usize;
        // Below the reachable dot range: always +1 (γ > 0).
        let lo = SignThresholds::from_fold(&fold(vec![-100.0], vec![false]), n);
        assert!(lo.always_pos(0) && !lo.always_neg(0));
        // Above the range: always −1 (γ > 0).
        let hi = SignThresholds::from_fold(&fold(vec![100.0], vec![false]), n);
        assert!(hi.always_neg(0) && !hi.always_pos(0));
        // Flipped directions invert the saturation side.
        let lo_f = SignThresholds::from_fold(&fold(vec![-100.0], vec![true]), n);
        assert!(lo_f.always_neg(0));
        let hi_f = SignThresholds::from_fold(&fold(vec![100.0], vec![true]), n);
        assert!(hi_f.always_pos(0));
        // The γ = 0 fold encodes sign(β) as ∓∞.
        let z = SignThresholds::from_fold(&fold(vec![f32::NEG_INFINITY], vec![false]), n);
        assert!(z.always_pos(0));
        let z = SignThresholds::from_fold(&fold(vec![f32::INFINITY], vec![false]), n);
        assert!(z.always_neg(0));
        // NaN thresholds compare false either way: constant −1.
        let nan = SignThresholds::from_fold(&fold(vec![f32::NAN], vec![false]), n);
        assert!(nan.always_neg(0));
        let nan = SignThresholds::from_fold(&fold(vec![f32::NAN], vec![true]), n);
        assert!(nan.always_neg(0));
    }

    #[test]
    fn pack_signed_dots_matches_scalar_bits() {
        let n = 64usize;
        let k = 70usize; // partial final word
        let thresholds: Vec<f32> = (0..k).map(|i| i as f32 - 35.0).collect();
        let flip: Vec<bool> = (0..k).map(|i| i % 3 == 0).collect();
        let f = fold(thresholds, flip);
        let st = SignThresholds::from_fold(&f, n);
        let dots: Vec<f32> = (0..k)
            .map(|i| ((i as i64 * 7) % 65 - 32) * 2) // even dots
            .map(|d| d as f32)
            .collect();
        let mut out = vec![u64::MAX; k.div_ceil(64)];
        pack_signed_dots_into(&dots, &st, &mut out);
        for (i, &d) in dots.iter().enumerate() {
            let want = f.sign(i, d);
            assert_eq!((out[i / 64] >> (i % 64)) & 1 == 1, want, "i={i}");
        }
        // Press tail zeroed.
        assert_eq!(out[1] >> (k - 64), 0);
    }
}
