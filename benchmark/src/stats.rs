//! Percentiles, window medians and spreads. Pure arithmetic, no clock.

/// Sorts ascending (NaN-free inputs).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`·n samples at or below it. `p` in (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// How a run reduces the per-window values of one metric to the value it
/// reports. Which one a workload uses follows from the kind of noise this
/// shared 2-vCPU host adds to it, measured over eight sets of ten runs (see
/// README.md, "How a run reduces samples to one value").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Over {
    /// The least disturbed window: lowest latency, highest rate. For phases
    /// the host only ever slows and that mostly run undisturbed, so that
    /// every run has such a window: the one-CPU HTTP phases and the calm
    /// open-loop rung.
    Best,
    /// The middle window: the state the host is in most of the time. For
    /// phases whose speed has a fast and a slow mode, each lasting seconds
    /// (VGG-16 on one thread: ~155 ms when the neighbours go quiet, ~205 ms
    /// usually, 240-300 ms in a loud spell; `tiered_batch`: 14.2 ms with
    /// both vCPUs free, 19 ms while a neighbour keeps one busy): a window
    /// in the rare mode is there in some runs and not in others, so the
    /// best window and either quartile jump between modes from run to run
    /// where the median stays.
    /// Also for throughput under overload and for set-up repetitions.
    Median,
}

impl Over {
    /// Reduces `values`; `lower_is_better` says which end is the best.
    pub fn reduce(self, values: &[f64], lower_is_better: bool) -> f64 {
        match self {
            Over::Median => median(values),
            Over::Best => {
                let best = if lower_is_better { f64::min } else { f64::max };
                values.iter().copied().reduce(best).unwrap_or(f64::NAN)
            }
        }
    }
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond it
/// (choosing-metrics §1), as (label, quantile).
pub fn highest_supported_tail(n: usize) -> (&'static str, f64) {
    if n >= 1000 {
        ("p99", 0.99)
    } else if n >= 100 {
        ("p90", 0.90)
    } else {
        ("p50", 0.50)
    }
}

/// Interquartile range over the median, the spread the acceptance check
/// uses (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: f64| {
        // Python's exclusive method: position k·(n+1)/4, 1-based, clamped.
        let pos = (k * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        if lo >= n {
            s[n - 1]
        } else {
            s[lo - 1] + frac * (s[lo] - s[lo - 1])
        }
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    (q(3.0) - q(1.0)) / med.abs()
}

/// One window of a timed phase: consecutive completions and the wall time
/// they took.
#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    /// The samples' values (whatever the phase measures, e.g. latency ms).
    pub values: Vec<f64>,
    /// Wall time from the previous window's last completion (or the phase
    /// start) to this window's last completion, seconds.
    pub span_s: f64,
}

/// Cuts a phase into `count` windows of equal sample count. `samples` are
/// (completion time in seconds since the phase started, value) in
/// completion order. Each end-to-end metric is computed per window and
/// reported as the median over windows, so one host hiccup moves at most
/// one window. Cutting by count with the exact completion times as
/// boundaries keeps rates free of the ±1-sample quantisation a fixed time
/// grid would add (VGG-16 completes only ~30 inferences per window).
pub fn split_windows(samples: &[(f64, f64)], count: usize) -> Vec<Window> {
    let n = samples.len();
    let mut out = Vec::with_capacity(count);
    let mut prev_end = 0.0;
    for w in 0..count {
        let (lo, hi) = (w * n / count, (w + 1) * n / count);
        if hi <= lo {
            continue;
        }
        let end = samples[hi - 1].0;
        out.push(Window {
            values: samples[lo..hi].iter().map(|s| s.1).collect(),
            span_s: end - prev_end,
        });
        prev_end = end;
    }
    out
}

/// Per-window `p`-quantile of the values.
pub fn window_quantiles(windows: &[Window], p: f64) -> Vec<f64> {
    windows
        .iter()
        .map(|w| percentile(&sorted(w.values.clone()), p))
        .collect()
}

/// Per-window completions per second, each completion counting `units`.
pub fn window_rates(windows: &[Window], units: f64) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| w.span_s > 0.0)
        .map(|w| w.values.len() as f64 * units / w.span_s)
        .collect()
}
