//! `--compare a.jsonl b.jsonl`: applies each end-to-end metric's bound to
//! every (workload, metric) row of two saved run sets.

use std::collections::BTreeMap;

use crate::contract::{Better, END_TO_END};
use crate::report::SavedRun;
use crate::stats::{iqr_share, median};

/// Verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The spread within a set is wider than the bound, and `b`'s values
    /// are not all better than all of `a`'s: the rows cannot be told apart.
    Unresolved,
}

impl Verdict {
    /// The word printed.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median of set `a` (the base of the ratio).
    pub a: f64,
    /// Median of set `b`.
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The wider of the two sets' interquartile range over its median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// What a set contributes for one row: each run's reported value, and the
/// sample its spread is taken over (the run values when the set has at
/// least three runs, otherwise every window of the runs it has).
fn values(runs: &[&SavedRun], metric: &str) -> (Vec<f64>, Vec<f64>) {
    let found: Vec<_> = runs
        .iter()
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
        .collect();
    let per_run: Vec<f64> = found.iter().map(|m| m.value).collect();
    let spread_over = if per_run.len() >= 3 {
        per_run.clone()
    } else {
        found
            .iter()
            .flat_map(|m| m.windows.iter().copied())
            .collect()
    };
    (per_run, spread_over)
}

/// Judges one row: `a` and `b` are the two sets' per-run values, `spread`
/// the wider of their spreads. Returns (median a, median b, verdict).
pub fn judge(a: &[f64], b: &[f64], spread: f64, better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let all_better = a.iter().all(|x| {
        b.iter().all(|y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, verdict)
}

/// A set's untraced runs, grouped by workload.
fn by_workload(set: &[SavedRun]) -> BTreeMap<&str, Vec<&SavedRun>> {
    let mut map: BTreeMap<&str, Vec<&SavedRun>> = BTreeMap::new();
    for r in set.iter().filter(|r| !r.trace) {
        map.entry(r.workload.as_str()).or_default().push(r);
    }
    map
}

/// Compares two run sets (untraced runs only), one row per (workload,
/// end-to-end metric) present in both.
pub fn compare(a: &[SavedRun], b: &[SavedRun]) -> Vec<Row> {
    let (wa, wb) = (by_workload(a), by_workload(b));
    let mut rows = Vec::new();
    for (workload, ra) in &wa {
        let Some(rb) = wb.get(workload) else { continue };
        for m in &END_TO_END {
            let ((va, sa), (vb, sb)) = (values(ra, m.name), values(rb, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let spread = iqr_share(&sa).max(iqr_share(&sb));
            let (ma, mb, verdict) = judge(&va, &vb, spread, m.better, m.bound);
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                a: ma,
                b: mb,
                ratio: mb / ma,
                bound: m.bound,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// Reads a file of saved-run lines.
pub fn load(path: &str) -> Result<Vec<SavedRun>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(SavedRun::parse)
        .collect()
}

/// The table `--compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<18} {:>12} {:>12} {:>14} {:>6} {:>7}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<18} {:>12.5} {:>12.5} {:>7.4} of a {:>5.0}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.ratio,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.word()
        ));
    }
    out
}
