//! Statistical bench-regression gate.
//!
//! `cargo run --release -p bitflow-bench --bin regress` re-times the
//! Table IV workloads on the BitFlow path, compares each operator's median
//! latency and sustained GOPS against the checked-in
//! `results/baseline.json`, and exits non-zero when an operator regressed.
//! Every run — pass or fail — is appended to `results/history/bench.jsonl`
//! first, so the history is complete even for runs the gate rejects.
//!
//! ## The statistics
//!
//! Plain threshold gates (`>15% slower → fail`) flake on noisy machines;
//! pure significance gates (`>3σ → fail`) flag microscopic-but-real 0.1%
//! shifts nobody cares about. The gate requires **both**:
//!
//! * median latency regressed iff
//!   `cur > base × (1 + 0.15)` **and** `cur > base + 3σ`, where
//!   `σ = 1.4826 × max(MAD_base, MAD_cur)` (MAD scaled to the normal
//!   consistency constant), floored at 1% of the baseline median (so a
//!   degenerate zero-MAD baseline cannot make the test infinitely strict)
//!   and at an absolute 100 ns (so sub-microsecond operators, whose
//!   run-to-run jitter is tens of percent, cannot flake the gate);
//! * GOPS regressed analogously (`cur < base × 0.85` and
//!   `cur < base − 3σ_g`), only for operators with a non-zero bit-op count.
//!
//! ## Baseline lifecycle
//!
//! The baseline is re-blessed (rewritten, gate skipped) when it is
//! missing, when the machine fingerprint (ISA features + core count —
//! deliberately *not* frequency, which drifts with thermals) changed, when
//! the quick/full mode differs, or when `BITFLOW_BLESS=1` forces it.
//!
//! ## Fault injection
//!
//! `BITFLOW_REGRESS_INJECT="conv3.1:2.0"` multiplies conv3.1's measured
//! samples by 2× (`"2.0"` slows every operator) — a synthetic regression
//! for testing that the gate actually fires and names the operator.

use crate::runners::{run_once, Impl};
use crate::timing::with_pool;
use crate::workloads::{prepare, table_iv, OpKind, Prepared, Workload};
use bitflow_telemetry::{roofline, MachineSnapshot, SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::time::Instant;

/// One operator's measured distribution in a bench run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpBench {
    /// Workload name (Table IV), e.g. `"conv3.1"`.
    pub name: String,
    /// Median per-call latency, nanoseconds.
    pub median_ns: u64,
    /// Median absolute deviation of the per-call latency, nanoseconds.
    pub mad_ns: u64,
    /// Number of timed samples behind the statistics.
    pub samples: u64,
    /// Effective xor+popcount bit-operations per call (static, from the
    /// workload geometry; 0 for pooling).
    pub bit_ops: u64,
    /// Sustained throughput at the median: `bit_ops / median_ns`, GOPS.
    pub gops: f64,
    /// Share of the machine's peak xor+popcount throughput, percent.
    pub pct_of_peak_compute: f64,
}

/// A complete regression-bench run: what `results/baseline.json` stores
/// and what each `results/history/bench.jsonl` line contains.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchRun {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Unix timestamp (seconds) the run finished.
    pub timestamp_unix: u64,
    /// Quick (shrunken-workload) mode.
    pub quick: bool,
    /// Threads used (the gate times single-threaded for stability).
    pub threads: u64,
    /// Machine description + roofline peaks.
    pub machine: MachineSnapshot,
    /// One entry per Table IV workload.
    pub ops: Vec<OpBench>,
}

impl BenchRun {
    /// The identity of the machine for baseline-compatibility purposes:
    /// ISA features and core count. Frequency is excluded on purpose — it
    /// drifts with thermals and governors, and the relative gate absorbs
    /// moderate frequency shifts.
    pub fn fingerprint(&self) -> String {
        format!("{}/{}c", self.machine.features, self.machine.logical_cores)
    }
}

/// Median of a sample set (the slice is sorted in place).
pub fn median(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median absolute deviation around `med`.
pub fn mad(samples: &[u64], med: u64) -> u64 {
    let mut devs: Vec<u64> = samples.iter().map(|&s| s.abs_diff(med)).collect();
    median(&mut devs)
}

/// Parsed `BITFLOW_REGRESS_INJECT`: an optional operator filter and a
/// latency multiplier.
#[derive(Clone, Debug, PartialEq)]
pub struct Injection {
    /// Operator to slow down; `None` slows every operator.
    pub op: Option<String>,
    /// Latency multiplier (>1 slows, <1 speeds up).
    pub factor: f64,
}

impl Injection {
    /// Parses `"op:factor"` or `"factor"`. Returns `None` for unset,
    /// empty, or unparseable values.
    pub fn parse(spec: &str) -> Option<Injection> {
        let spec = spec.trim();
        if spec.is_empty() {
            return None;
        }
        let (op, factor) = match spec.split_once(':') {
            Some((op, f)) => (Some(op.trim().to_string()), f),
            None => (None, spec),
        };
        let factor: f64 = factor.trim().parse().ok()?;
        (factor.is_finite() && factor > 0.0).then_some(Injection { op, factor })
    }

    /// The injection requested by the environment, if any.
    pub fn from_env() -> Option<Injection> {
        Self::parse(&std::env::var("BITFLOW_REGRESS_INJECT").ok()?)
    }

    /// The multiplier for one operator.
    pub fn factor_for(&self, op: &str) -> f64 {
        match &self.op {
            Some(target) if target != op => 1.0,
            _ => self.factor,
        }
    }
}

/// Static bit-op cost of one call of a workload (the paper's 2 bit-ops per
/// evaluated xor+popcount position).
pub fn workload_bit_ops(w: &Workload) -> u64 {
    match w.kind {
        OpKind::Conv { k } => {
            let oh = (w.h + 2 * w.params.pad - w.params.kh) / w.params.stride + 1;
            let ow = (w.w + 2 * w.params.pad - w.params.kw) / w.params.stride + 1;
            (2 * oh * ow * k * w.params.kh * w.params.kw * w.c) as u64
        }
        OpKind::Fc { k } => (2 * k * w.flat_n()) as u64,
        OpKind::Pool => 0,
    }
}

/// Times one prepared workload: `n_samples` wall-clock samples (with inner
/// repetitions so each sample is long enough to time reliably), in ns.
fn sample_workload(p: &Prepared, n_samples: usize) -> Vec<u64> {
    // Warm caches and the frequency governor.
    run_once(Impl::BitFlow, p, 1);
    run_once(Impl::BitFlow, p, 1);
    // Size inner repetitions for ≥200 µs per sample.
    let t0 = Instant::now();
    run_once(Impl::BitFlow, p, 1);
    let once_ns = t0.elapsed().as_nanos().max(1) as u64;
    let reps = (200_000 / once_ns).clamp(1, 1_000) as usize;
    let mut samples = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let t0 = Instant::now();
        for _ in 0..reps {
            run_once(Impl::BitFlow, p, 1);
        }
        samples.push(t0.elapsed().as_nanos() as u64 / reps as u64);
    }
    samples
}

/// Runs the full regression workload sweep and assembles a [`BenchRun`].
///
/// Single-threaded on purpose: the gate wants the most repeatable number,
/// not the fastest one, and single-thread medians have far lower MAD than
/// pool-scheduled runs on shared machines.
///
/// Samples are collected in **round-robin sweeps** over the whole workload
/// set, with a fresh [`prepare`] per sweep. Taking all of an operator's
/// samples consecutively yields deceptively tight MADs: they capture
/// microsecond-scale jitter but none of the seconds-scale drift
/// (frequency governors, allocator layout, neighbours on shared machines)
/// that the gate actually compares across runs. Spreading each operator's
/// samples over sweeps seconds apart makes the MAD an honest estimate of
/// the dispersion the baseline comparison is exposed to.
pub fn collect_run(quick: bool) -> BenchRun {
    let injection = Injection::from_env();
    const SWEEPS: usize = 3;
    let per_sweep = if quick { 3 } else { 6 };
    let roof = roofline::current();
    let workloads: Vec<Workload> = table_iv()
        .into_iter()
        .map(|w| if quick { w.shrunk(4) } else { w })
        .collect();
    let mut samples_by_op: Vec<Vec<u64>> = vec![Vec::new(); workloads.len()];
    for _ in 0..SWEEPS {
        for (i, w) in workloads.iter().enumerate() {
            let p = prepare(w, 42);
            samples_by_op[i].extend(with_pool(1, || sample_workload(&p, per_sweep)));
        }
    }
    let mut ops = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        let mut samples = std::mem::take(&mut samples_by_op[i]);
        if let Some(inj) = &injection {
            let f = inj.factor_for(w.name);
            if f != 1.0 {
                for s in &mut samples {
                    *s = (*s as f64 * f) as u64;
                }
            }
        }
        let med = median(&mut samples);
        let mad_ns = mad(&samples, med);
        let bit_ops = workload_bit_ops(w);
        let gops = bit_ops as f64 / med.max(1) as f64;
        ops.push(OpBench {
            name: w.name.to_string(),
            median_ns: med,
            mad_ns,
            samples: samples.len() as u64,
            bit_ops,
            gops,
            pct_of_peak_compute: if roof.peak_gops > 0.0 {
                100.0 * gops / roof.peak_gops
            } else {
                0.0
            },
        });
    }
    BenchRun {
        schema_version: SCHEMA_VERSION,
        timestamp_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        threads: 1,
        machine: roof.to_snapshot(),
        ops,
    }
}

/// The gate's verdict for one operator.
#[derive(Clone, Debug, Serialize)]
pub struct OpVerdict {
    /// Operator name.
    pub name: String,
    /// Baseline median latency, ns.
    pub base_median_ns: u64,
    /// Current median latency, ns.
    pub cur_median_ns: u64,
    /// Latency change, percent (positive = slower).
    pub latency_delta_pct: f64,
    /// Baseline GOPS.
    pub base_gops: f64,
    /// Current GOPS.
    pub cur_gops: f64,
    /// Median latency regressed (both the 15% and the 3σ test fired).
    pub latency_regressed: bool,
    /// GOPS regressed (both the 15% and the 3σ test fired).
    pub gops_regressed: bool,
}

impl OpVerdict {
    /// True when either gate fired.
    pub fn regressed(&self) -> bool {
        self.latency_regressed || self.gops_regressed
    }
}

/// MAD → σ under the normal consistency constant.
const MAD_TO_SIGMA: f64 = 1.4826;
/// Relative regression threshold (15%).
const REL_THRESHOLD: f64 = 0.15;
/// Significance multiple.
const N_SIGMA: f64 = 3.0;
/// Absolute σ floor, nanoseconds. Sub-microsecond operators (the shrunken
/// pools run in ~200 ns) see run-to-run shifts of tens of percent from
/// frequency and cache state alone; a 100 ns floor (so a 3σ excess needs
/// ≥300 ns) keeps them from flaking the gate while leaving µs-and-above
/// operators governed by their measured MAD.
const SIGMA_FLOOR_NS: f64 = 100.0;

/// Compares one operator pair. Public for tests; [`compare`] drives it.
pub fn compare_op(base: &OpBench, cur: &OpBench) -> OpVerdict {
    let base_med = base.median_ns as f64;
    let cur_med = cur.median_ns as f64;
    // σ from the noisier of the two runs, floored at 1% of the baseline
    // median (a zero-MAD run cannot make the significance test vacuous)
    // and at the absolute [`SIGMA_FLOOR_NS`].
    let sigma = (MAD_TO_SIGMA * base.mad_ns.max(cur.mad_ns) as f64)
        .max(0.01 * base_med)
        .max(SIGMA_FLOOR_NS);
    let latency_regressed =
        cur_med > base_med * (1.0 + REL_THRESHOLD) && cur_med > base_med + N_SIGMA * sigma;
    // GOPS is bit_ops/median, so its σ follows from the latency σ by the
    // usual first-order propagation: σ_g ≈ gops × σ/median.
    let gops_regressed = if base.bit_ops > 0 && base_med > 0.0 {
        let sigma_g = base.gops * sigma / base_med;
        cur.gops < base.gops * (1.0 - REL_THRESHOLD) && cur.gops < base.gops - N_SIGMA * sigma_g
    } else {
        false
    };
    OpVerdict {
        name: cur.name.clone(),
        base_median_ns: base.median_ns,
        cur_median_ns: cur.median_ns,
        latency_delta_pct: if base_med > 0.0 {
            100.0 * (cur_med - base_med) / base_med
        } else {
            0.0
        },
        base_gops: base.gops,
        cur_gops: cur.gops,
        latency_regressed,
        gops_regressed,
    }
}

/// Compares a current run against the baseline, operator by operator.
/// Operators present in only one of the runs are skipped (a workload-set
/// change should re-bless, which [`needs_bless`] handles via mode and
/// fingerprint checks).
pub fn compare(base: &BenchRun, cur: &BenchRun) -> Vec<OpVerdict> {
    cur.ops
        .iter()
        .filter_map(|c| {
            let b = base.ops.iter().find(|b| b.name == c.name)?;
            Some(compare_op(b, c))
        })
        .collect()
}

/// True when the baseline cannot be compared against and must be
/// re-blessed instead: missing, different machine, different mode, or an
/// explicit `BITFLOW_BLESS=1`.
pub fn needs_bless(base: Option<&BenchRun>, cur: &BenchRun) -> Option<&'static str> {
    if std::env::var("BITFLOW_BLESS").is_ok_and(|v| v == "1") {
        return Some("BITFLOW_BLESS=1");
    }
    let Some(base) = base else {
        return Some("no baseline");
    };
    if base.fingerprint() != cur.fingerprint() {
        return Some("machine fingerprint changed");
    }
    if base.quick != cur.quick {
        return Some("quick/full mode changed");
    }
    None
}

/// Loads `results/baseline.json`, if present and parseable.
pub fn load_baseline() -> Option<BenchRun> {
    let path = crate::results_dir().join("baseline.json");
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Appends one compact-JSON line for `run` to
/// `results/history/bench.jsonl`. Returns the path on success.
pub fn append_history(run: &BenchRun) -> std::io::Result<std::path::PathBuf> {
    let dir = crate::results_dir().join("history");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("bench.jsonl");
    let line = serde_json::to_string(run)
        .map_err(|e| std::io::Error::other(format!("serialize history line: {e}")))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{line}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str, median_ns: u64, mad_ns: u64, bit_ops: u64) -> OpBench {
        OpBench {
            name: name.to_string(),
            median_ns,
            mad_ns,
            samples: 9,
            bit_ops,
            gops: bit_ops as f64 / median_ns.max(1) as f64,
            pct_of_peak_compute: 1.0,
        }
    }

    fn run_with(ops: Vec<OpBench>, quick: bool, features: &str, cores: u64) -> BenchRun {
        BenchRun {
            schema_version: SCHEMA_VERSION,
            timestamp_unix: 0,
            quick,
            threads: 1,
            machine: MachineSnapshot {
                features: features.to_string(),
                simd_width_bits: 256,
                logical_cores: cores,
                freq_ghz: 2.0,
                freq_source: "cpuinfo".to_string(),
                peak_gops: 4096.0,
                peak_gb_per_s: 10.0,
                bw_source: "env".to_string(),
            },
            ops,
        }
    }

    #[test]
    fn median_and_mad() {
        let mut s = vec![5, 1, 9, 3, 7];
        assert_eq!(median(&mut s), 5);
        assert_eq!(mad(&s, 5), 2);
        let mut one = vec![42];
        assert_eq!(median(&mut one), 42);
        assert_eq!(mad(&one, 42), 0);
    }

    #[test]
    fn injection_parsing() {
        assert_eq!(
            Injection::parse("conv3.1:2.0"),
            Some(Injection {
                op: Some("conv3.1".to_string()),
                factor: 2.0
            })
        );
        assert_eq!(
            Injection::parse("1.5"),
            Some(Injection {
                op: None,
                factor: 1.5
            })
        );
        assert_eq!(Injection::parse(""), None);
        assert_eq!(Injection::parse("conv:abc"), None);
        assert_eq!(Injection::parse("conv:-1"), None);
        let inj = Injection::parse("fc6:3.0").unwrap();
        assert_eq!(inj.factor_for("fc6"), 3.0);
        assert_eq!(inj.factor_for("conv2.1"), 1.0);
        let all = Injection::parse("2.0").unwrap();
        assert_eq!(all.factor_for("anything"), 2.0);
    }

    #[test]
    fn bit_ops_match_geometry() {
        let ws = table_iv();
        let conv31 = ws.iter().find(|w| w.name == "conv3.1").unwrap();
        // 56×56 out, 256 filters, 3×3×128 window, ×2 bit-ops.
        assert_eq!(workload_bit_ops(conv31), 2 * 56 * 56 * 256 * 3 * 3 * 128);
        let fc7 = ws.iter().find(|w| w.name == "fc7").unwrap();
        assert_eq!(workload_bit_ops(fc7), 2 * 4096 * 4096);
        let pool4 = ws.iter().find(|w| w.name == "pool4").unwrap();
        assert_eq!(workload_bit_ops(pool4), 0);
    }

    #[test]
    fn stable_run_passes_the_gate() {
        // 5% jitter is well inside both the 15% and the 3σ envelope.
        let base = op("conv2.1", 100_000, 2_000, 1_000_000_000);
        let cur = op("conv2.1", 105_000, 2_000, 1_000_000_000);
        let v = compare_op(&base, &cur);
        assert!(!v.regressed(), "{v:?}");
    }

    #[test]
    fn two_x_slowdown_fails_both_gates() {
        let base = op("conv2.1", 100_000, 2_000, 1_000_000_000);
        let cur = op("conv2.1", 200_000, 2_000, 1_000_000_000);
        let v = compare_op(&base, &cur);
        assert!(v.latency_regressed);
        assert!(v.gops_regressed);
        assert!((v.latency_delta_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn large_but_insignificant_shift_passes() {
        // 20% over the relative threshold, but MAD is huge: 3σ says noise.
        let base = op("fc6", 100_000, 20_000, 1_000_000_000);
        let cur = op("fc6", 120_000, 20_000, 1_000_000_000);
        let v = compare_op(&base, &cur);
        assert!(!v.latency_regressed, "{v:?}");
    }

    #[test]
    fn significant_but_small_shift_passes() {
        // 3% shift on a near-zero-MAD pair: significant, but under 15%.
        let base = op("fc6", 100_000, 0, 1_000_000_000);
        let cur = op("fc6", 103_000, 0, 1_000_000_000);
        let v = compare_op(&base, &cur);
        assert!(!v.latency_regressed, "{v:?}");
    }

    #[test]
    fn pool_ops_never_fail_the_gops_gate() {
        let base = op("pool4", 10_000, 100, 0);
        let cur = op("pool4", 10_000, 100, 0);
        assert!(!compare_op(&base, &cur).gops_regressed);
    }

    #[test]
    fn nanosecond_scale_jitter_passes_the_gate() {
        // A 36% shift at 200 ns scale is timer/frequency jitter, not a
        // regression — the absolute σ floor absorbs it.
        let base = op("pool5", 159, 3, 0);
        let cur = op("pool5", 216, 12, 0);
        assert!(!compare_op(&base, &cur).regressed());
        // But a shift past 3× the floor still fails.
        let bad = op("pool5", 600, 12, 0);
        assert!(compare_op(&base, &bad).latency_regressed);
    }

    #[test]
    fn compare_matches_ops_by_name() {
        let base = run_with(
            vec![op("a", 100, 1, 1_000), op("b", 100, 1, 1_000)],
            true,
            "avx2",
            4,
        );
        let cur = run_with(
            vec![op("b", 500, 1, 1_000), op("c", 100, 1, 1_000)],
            true,
            "avx2",
            4,
        );
        let verdicts = compare(&base, &cur);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].name, "b");
        assert!(verdicts[0].regressed());
    }

    #[test]
    fn bless_conditions() {
        let base = run_with(vec![], true, "avx2", 4);
        let cur = run_with(vec![], true, "avx2", 4);
        assert_eq!(needs_bless(Some(&base), &cur), None);
        assert_eq!(needs_bless(None, &cur), Some("no baseline"));
        let other_machine = run_with(vec![], true, "avx512", 4);
        assert_eq!(
            needs_bless(Some(&other_machine), &cur),
            Some("machine fingerprint changed")
        );
        let full = run_with(vec![], false, "avx2", 4);
        assert_eq!(
            needs_bless(Some(&full), &cur),
            Some("quick/full mode changed")
        );
    }

    #[test]
    fn fingerprint_ignores_frequency() {
        let mut a = run_with(vec![], true, "avx2", 4);
        let mut b = run_with(vec![], true, "avx2", 4);
        a.machine.freq_ghz = 2.0;
        b.machine.freq_ghz = 3.5;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn bench_run_round_trips_through_json() {
        let run = run_with(
            vec![op("conv2.1", 100_000, 2_000, 1_000_000_000)],
            true,
            "avx2",
            4,
        );
        let line = serde_json::to_string(&run).unwrap();
        let back: BenchRun = serde_json::from_str(&line).unwrap();
        assert_eq!(back.ops.len(), 1);
        assert_eq!(back.ops[0].name, "conv2.1");
        assert_eq!(back.ops[0].median_ns, 100_000);
        assert_eq!(back.fingerprint(), run.fingerprint());
    }
}
