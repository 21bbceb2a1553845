//! The adversarial draws the differential suites share: folded thresholds
//! and batch-norm statistics at every edge of the popcount-domain sign.

#![allow(dead_code)]

use bitflow::graph::weights::BnParams;
use bitflow::ops::binary::BnFold;
use rand::{rngs::StdRng, Rng};

/// Thresholds over the `k` channels of a map of `window_bits`-term dots
/// (`dots[pixel·k + channel]`) at every edge of the folded compare: ±∞
/// (the γ = 0 fold), NaN, out of reach on either side, an exact tie with a
/// dot some pixel of the channel really produces, and the reachable middle
/// — each under both compare directions. The seven cases start at a drawn
/// offset, so a map of fewer than seven channels meets each of them across
/// draws.
pub fn fold(rng: &mut StdRng, dots: &[i32], k: usize, window_bits: usize) -> BnFold {
    let n = window_bits as f32;
    let first = rng.gen_range(0..7usize);
    let thresholds = (0..k)
        .map(|kk| match (first + kk) % 7 {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => f32::NAN,
            3 => n + 10.5,
            4 => -n - 10.5,
            5 => dots[rng.gen_range(0..dots.len() / k) * k + kk] as f32,
            _ => rng.gen_range(-n / 4.0..n / 4.0),
        })
        .collect();
    BnFold {
        thresholds,
        flip: (0..k).map(|_| rng.gen()).collect(),
    }
}

/// Batch-norm statistics that fold to exactly `fold`: γ = ±1 and β = 0
/// leave `t = μ`, whatever μ is, and γ < 0 flips the compare.
pub fn bn_folding_to(fold: BnFold) -> BnParams {
    let k = fold.thresholds.len();
    BnParams {
        gamma: fold
            .flip
            .iter()
            .map(|&f| if f { -1.0 } else { 1.0 })
            .collect(),
        mean: fold.thresholds,
        ..BnParams::identity(k)
    }
}

/// Batch-norm statistics for `k` channels: mixed-sign γ with mass near zero
/// and exactly zero, β occasionally huge (the threshold leaves the
/// reachable dot range), a non-default ε half the time.
pub fn bn(k: usize, rng: &mut StdRng) -> BnParams {
    let eps = if rng.gen::<bool>() { 1e-5 } else { 1e-1 };
    let gamma = (0..k)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => rng.gen_range(-1e-4f32..1e-4),
            2..=4 => -rng.gen_range(0.05f32..2.0),
            _ => rng.gen_range(0.05f32..2.0),
        })
        .collect();
    let beta = (0..k)
        .map(|_| {
            if rng.gen_range(0u32..8) == 0 {
                rng.gen_range(-1e6f32..1e6)
            } else {
                rng.gen_range(-3.0f32..3.0)
            }
        })
        .collect();
    BnParams {
        gamma,
        beta,
        mean: (0..k).map(|_| rng.gen_range(-4.0f32..4.0)).collect(),
        var: (0..k).map(|_| rng.gen_range(0.05f32..3.0)).collect(),
        eps,
    }
}
