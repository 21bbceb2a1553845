//! The paper report's one row format, its one printer, and `paper.json`.
//!
//! Every row of every paper artifact is `{artifact, row, metric, unit,
//! paper, ours, ratio, provenance, threads}`. `paper` holds only a value
//! the repo records (the paper's tables and text as quoted in
//! EXPERIMENTS.md), else `null`; `ratio` is `ours / paper`, and is left out
//! of quick runs, whose shrunk workloads are not the paper's shape.

use bitflow_telemetry::SCHEMA_VERSION;
use serde::{Serialize, Value};
use std::path::PathBuf;
use Provenance::{Measured, Modelled, NotHere};

/// Where a row's `ours` comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum Provenance {
    /// Timed, counted or detected on this host.
    Measured,
    /// From an analytical model, not timed: the `bitflow-gpumodel` GTX 1080
    /// series of Figs. 10–11 and the §III-A AIT equations.
    Modelled,
    /// Not measurable on this host, for the reason given; `ours` is null.
    NotHere(String),
}

impl Provenance {
    fn label(&self) -> String {
        match self {
            Measured => "measured".into(),
            Modelled => "modelled".into(),
            NotHere(why) => format!("not-here: {why}"),
        }
    }
}

impl Serialize for Provenance {
    fn to_value(&self) -> Value {
        Value::Str(self.label())
    }
}

/// One metric of one row of one paper artifact.
#[derive(Debug, Serialize)]
pub struct Row {
    /// "Table I" … "Fig. 11", "§III-A AIT".
    pub artifact: &'static str,
    /// The artifact's row: an operator, a dataset, a model.
    pub row: String,
    /// What is compared.
    pub metric: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The paper's value, where the repo records one.
    pub paper: Option<f64>,
    /// This repo's value.
    pub ours: Option<f64>,
    /// `ours / paper`, in full runs only.
    pub ratio: Option<f64>,
    /// Where `ours` comes from.
    pub provenance: Provenance,
    /// Threads the measurement ran on, where threads apply: never more
    /// than the host's CPUs, since the worker team runs no more.
    pub threads: Option<usize>,
}

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// The rows of one run, each printed as it is added under the current
/// artifact and row.
#[derive(Default)]
pub struct Report {
    quick: bool,
    artifact: &'static str,
    row: String,
    threads: Option<usize>,
    rows: Vec<Row>,
}

impl Report {
    /// An empty report; `quick` marks shrunk workloads.
    pub fn new(quick: bool) -> Self {
        let header = [
            "artifact", "row", "metric", "unit", "paper", "ours", "ratio", "thr",
        ];
        print_line(header, "provenance");
        Self {
            quick,
            ..Self::default()
        }
    }

    /// Starts the rows of `artifact`.
    pub fn artifact(&mut self, artifact: &'static str) {
        self.artifact = artifact;
    }

    /// Starts a row, measured on `threads` threads where threads apply.
    pub fn row(&mut self, row: impl Into<String>, threads: Option<usize>) {
        (self.row, self.threads) = (row.into(), threads);
    }

    /// A metric timed, counted or detected here.
    pub fn measured(&mut self, metric: Metric, paper: Option<f64>, ours: f64) {
        self.push(metric, paper, Some(ours), Measured, self.threads);
    }

    /// A metric from an analytical model.
    pub fn modelled(&mut self, metric: Metric, paper: Option<f64>, ours: f64) {
        self.push(metric, paper, Some(ours), Modelled, None);
    }

    /// Figs. 8–9 for the current row: the speed-up over one-thread float,
    /// `accel(n)`, at each of `counts` the host can run, and a `not-here`
    /// metric for each it cannot. `accel` is never called past `host`.
    pub fn scaling(
        &mut self,
        counts: &[usize],
        host: usize,
        paper: impl Fn(usize) -> Option<f64>,
        mut accel: impl FnMut(usize) -> f64,
    ) {
        const ACCEL: Metric = ("accel", "x float1t");
        for &n in counts {
            if n <= host {
                self.push(ACCEL, paper(n), Some(accel(n)), Measured, Some(n));
            } else {
                let why = NotHere(format!("{n} threads; host has {host} CPUs"));
                self.push(ACCEL, paper(n), None, why, None);
            }
        }
    }

    fn push(
        &mut self,
        (metric, unit): Metric,
        paper: Option<f64>,
        ours: Option<f64>,
        provenance: Provenance,
        threads: Option<usize>,
    ) {
        let ratio = match (self.quick, ours, paper) {
            (false, Some(o), Some(p)) => Some(o / p),
            _ => None,
        };
        let cell = |x: Option<f64>| x.map_or("-".into(), sig);
        let shown_ratio = ratio.map_or("-".into(), |r| format!("{r:.2}"));
        let thr = threads.map_or("-".into(), |t| t.to_string());
        let (artifact, row) = (self.artifact, &self.row);
        let cells = [
            artifact,
            row,
            metric,
            unit,
            &cell(paper),
            &cell(ours),
            &shown_ratio,
            &thr,
        ];
        print_line(cells, &provenance.label());
        let row = self.row.clone();
        self.rows.push(Row {
            artifact,
            row,
            metric,
            unit,
            paper,
            ours,
            ratio,
            provenance,
            threads,
        });
    }

    /// Writes `paper.json` under `BITFLOW_RESULTS_DIR` (default
    /// `results/`): the schema version, the mode, the host's fingerprint
    /// and the rows.
    pub fn write(&self) -> std::io::Result<()> {
        let features = bitflow_simd::features().to_string();
        let host = Value::Object(vec![
            ("machine".into(), bitflow_simd::machine().to_value()),
            ("features".into(), Value::Str(features)),
        ]);
        let report = Value::Object(vec![
            ("schema_version".into(), SCHEMA_VERSION.to_value()),
            ("quick".into(), self.quick.to_value()),
            ("host".into(), host),
            ("rows".into(), self.rows.to_value()),
        ]);
        let dir = std::env::var_os("BITFLOW_RESULTS_DIR").map_or("results".into(), PathBuf::from);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("paper.json");
        let json = serde_json::to_string_pretty(&report).map_err(std::io::Error::other)?;
        std::fs::write(&path, json)?;
        eprintln!("[results written to {}]", path.display());
        Ok(())
    }
}

/// One line of the report's table: eight cells, then the provenance.
fn print_line(cells: [&str; 8], provenance: &str) {
    let [artifact, row, metric, unit, paper, ours, ratio, thr] = cells;
    println!(
        "{artifact:<10} {row:<44} {metric:<14} {unit:<9} {paper:>10} {ours:>10} {ratio:>7} {thr:>3}  \
         {provenance}"
    );
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let digits = 3 - x.abs().log10().floor().clamp(-3.0, 3.0) as i32;
    format!("{x:.*}", digits.max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_past_the_host_are_not_here_and_never_timed() {
        let mut r = Report::new(false);
        r.artifact("Fig. 9");
        r.row("conv2.1", None);
        let mut timed = Vec::new();
        let paper = |n| (n == 64).then_some(49.3);
        r.scaling(&[1, 2, 4, 16, 64], 2, paper, |n| {
            timed.push(n);
            7.0
        });
        assert_eq!(timed, [1, 2], "only counts the host can run are timed");
        let rows = &r.rows;
        assert_eq!(rows.len(), 5);
        assert_eq!((rows[1].ours, rows[1].threads), (Some(7.0), Some(2)));
        for row in &rows[2..] {
            let NotHere(why) = &row.provenance else {
                panic!("{row:?} should be not-here");
            };
            assert!(why.ends_with("host has 2 CPUs"), "{why}");
            assert_eq!((row.ours, row.ratio, row.threads), (None, None, None));
        }
        assert_eq!(rows[4].paper, Some(49.3));
    }

    #[test]
    fn quick_rows_carry_no_ratio() {
        for quick in [false, true] {
            let mut r = Report::new(quick);
            r.measured(("fused", "ms"), Some(2.0), 3.0);
            assert_eq!(r.rows[0].ratio, (!quick).then_some(1.5));
        }
    }
}
