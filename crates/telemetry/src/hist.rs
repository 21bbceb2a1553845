//! Lock-free latency histogram.
//!
//! Fixed-size logarithmic bucketing (16 linear sub-buckets per power of
//! two), every bucket an [`AtomicU64`]: recording is one relaxed
//! `fetch_add`, safe from any number of threads, and never allocates. The
//! bucket width bounds the relative quantile error at 1/16 ≈ 6.25%; the
//! reported representative value is the bucket midpoint, halving the
//! worst-case error again.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::HistBucket;

/// Linear sub-buckets per octave (power of two). 16 sub-buckets bound the
/// relative resolution error at 6.25% of the value.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered above the exact range. With 60 octaves the histogram
/// tracks up to 2^64 ns without saturating in practice (the last bucket
/// absorbs any overflow).
const OCTAVES: usize = 60;
/// Total bucket count: the first `SUB` values get exact buckets, then
/// `SUB` linear sub-buckets per octave.
pub const BUCKETS: usize = SUB + OCTAVES * SUB;

/// Maps a value to its bucket index. Values `< 16` are exact; larger
/// values land in the sub-bucket of their octave.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // position of the highest set bit, ≥ SUB_BITS
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (SUB + octave * SUB + sub).min(BUCKETS - 1)
}

/// The midpoint of a bucket's value range — the representative value
/// reported for quantiles that land in the bucket.
fn bucket_midpoint(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = ((idx - SUB) / SUB) as u32;
    let sub = ((idx - SUB) % SUB) as u64;
    let width = 1u64 << octave; // each sub-bucket spans 2^octave values
    let lo = (1u64 << (octave + SUB_BITS)) + sub * width;
    lo + width / 2
}

/// The largest value a bucket can hold (inclusive) — the `le` bound the
/// Prometheus exporter publishes for the bucket.
pub fn bucket_upper_edge(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    if idx >= BUCKETS - 1 {
        // The final bucket absorbs everything up to u64::MAX.
        return u64::MAX;
    }
    let octave = ((idx - SUB) / SUB) as u32;
    let sub = ((idx - SUB) % SUB) as u64;
    let width = 1u64 << octave;
    (1u64 << (octave + SUB_BITS)) + (sub + 1) * width - 1
}

/// A concurrent histogram of `u64` samples (nanoseconds, by convention).
///
/// All operations are lock-free; [`LatencyHistogram::record`] is the only
/// thing on the hot path and costs one relaxed atomic add.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHistogram({} samples)", self.count())
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` has no const array init through Box; build via Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let boxed: Box<[AtomicU64; BUCKETS]> = match v.into_boxed_slice().try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("constructed with BUCKETS elements"),
        };
        Self { buckets: boxed }
    }

    /// Records one sample. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples (relaxed sum — exact once writers
    /// are quiescent, a consistent-enough estimate while they are not).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Copies the bucket counts out (for snapshots and quantile queries).
    pub fn snapshot_buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `p`-th percentile (0 < p ≤ 100) of the recorded samples, as the
    /// midpoint of the bucket holding the rank-`⌈p/100·n⌉` sample. Returns
    /// 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_of(&self.snapshot_buckets(), p)
    }

    /// Resets every bucket to zero.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The occupied entries of a bucket-count vector, each with its inclusive
/// upper edge — the sparse, non-cumulative form snapshots carry.
pub(crate) fn sparse(buckets: &[u64]) -> Vec<HistBucket> {
    buckets
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(idx, &count)| HistBucket {
            le_ns: bucket_upper_edge(idx),
            count,
        })
        .collect()
}

/// Percentile over a bucket-count vector (shared by the live histogram and
/// deserialized snapshots).
pub fn percentile_of(buckets: &[u64], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    // Rank of the target sample, 1-based: ceil(p/100 · total), at least 1.
    let rank = ((p / 100.0 * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (idx, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_midpoint(idx);
        }
    }
    bucket_midpoint(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        // Indices never decrease with the value, and successive values move
        // at most one bucket forward (no gaps).
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1u64..100_000 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "v={v}");
            assert!(idx - prev <= 1, "v={v} jumped {prev}->{idx}");
            prev = idx;
        }
    }

    #[test]
    fn midpoint_lands_in_own_bucket() {
        for idx in 0..BUCKETS - 1 {
            let mid = bucket_midpoint(idx);
            assert_eq!(bucket_index(mid), idx, "idx={idx} mid={mid}");
        }
    }

    #[test]
    fn upper_edges_are_tight_and_strictly_increasing() {
        let mut prev = None;
        for idx in 0..BUCKETS - 1 {
            let hi = bucket_upper_edge(idx);
            // The edge itself belongs to the bucket; the next value does not.
            assert_eq!(bucket_index(hi), idx, "idx={idx} hi={hi}");
            assert_eq!(bucket_index(hi + 1), idx + 1, "idx={idx} hi={hi}");
            assert!(bucket_midpoint(idx) <= hi);
            if let Some(p) = prev {
                assert!(hi > p);
            }
            prev = Some(hi);
        }
        assert_eq!(bucket_upper_edge(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_error_is_bounded_on_adversarial_distributions() {
        // The 6.25% bound must hold even on distributions built to stress
        // the bucketing: values just past bucket edges, heavy point masses,
        // two far-apart modes, and a geometric tail spanning many octaves.
        let adversarial: Vec<Vec<u64>> = vec![
            // Just-past-the-edge values: worst case for midpoint error.
            (4..20).map(|o| (1u64 << o) + 1).collect(),
            // Point mass + far outlier: quantiles snap between modes.
            std::iter::repeat_n(999u64, 1000)
                .chain([1_000_000])
                .collect(),
            // Two modes at a 1000× distance.
            (0..500)
                .map(|i| if i % 2 == 0 { 1_500 } else { 1_500_000 })
                .collect(),
            // Geometric tail: one sample per octave across 40 octaves.
            (0..40).map(|o| 3u64 << o).collect(),
        ];
        for (case, values) in adversarial.iter().enumerate() {
            let h = LatencyHistogram::new();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &v in values {
                h.record(v);
            }
            for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1] as f64;
                let got = h.percentile(p) as f64;
                let rel = (got - exact).abs() / exact.max(1.0);
                assert!(
                    rel <= 0.0625,
                    "case {case} p{p}: got {got}, exact {exact}, rel {rel:.4}"
                );
            }
        }
    }

    #[test]
    fn exact_range_is_exact() {
        let h = LatencyHistogram::new();
        for v in [0u64, 1, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(25.0), 0);
        assert_eq!(h.percentile(100.0), 15);
    }

    #[test]
    fn percentiles_of_uniform_distribution() {
        // 1..=10_000: p-th percentile of the true distribution is 100·p.
        let h = LatencyHistogram::new();
        for v in 1u64..=10_000 {
            h.record(v);
        }
        for p in [50.0, 90.0, 95.0, 99.0] {
            let got = h.percentile(p) as f64;
            let want = 100.0 * p;
            let rel = (got - want).abs() / want;
            assert!(rel <= 0.0625, "p{p}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn percentile_bounds_and_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        h.record(1_000);
        // A single sample is every percentile.
        let v = h.percentile(1.0);
        assert_eq!(v, h.percentile(99.9));
        let rel = (v as f64 - 1_000.0).abs() / 1_000.0;
        assert!(rel <= 0.0625, "single-sample representative {v}");
    }

    #[test]
    fn reset_clears_counts() {
        let h = LatencyHistogram::new();
        h.record(5);
        h.record(500);
        assert_eq!(h.count(), 2);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 977);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn huge_values_saturate_without_panic() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(50.0) > 0);
    }
}
