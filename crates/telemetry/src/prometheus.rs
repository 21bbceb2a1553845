//! Prometheus text exposition of one or more [`MetricsSnapshot`]s.
//!
//! [`to_prometheus`] renders the version-0.0.4 text format: one
//! `# HELP`/`# TYPE` header per metric family, all series of a family
//! contiguous (every tenant's series under the one header, told apart by
//! the `model` label), label values escaped, histogram buckets cumulative
//! and terminated with `le="+Inf"`. The output is a plain `String`; the
//! network front-end serves it verbatim at `GET /metrics`.
//!
//! Nothing here names a serving metric: those families are the descriptor
//! rows of [`crate::table`]. What is declared in this file is what has no
//! live cell behind it — the model-level and per-operator values a
//! snapshot derives — as rows of the same [`Family`] shape, and one
//! renderer prints every row, scalar or histogram (per-operator latency,
//! batch size and the stage timers are one shape).
//!
//! Counter families use the `_total` suffix convention; achieved rates and
//! roofline percentages are gauges (they can go down); per-operator
//! latency is a native histogram family derived from the log2-octave
//! buckets, with each bucket's inclusive upper edge as its `le` bound.

use std::fmt::Write;

use crate::snapshot::{MetricsSnapshot, OpBound};
use crate::table::{
    Family, Kind, Section, Source, Value, BATCH_FAMILIES, GOVERN_FAMILIES, SERVE_FAMILIES,
};

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// [`Family`] rows in the shape of a `cells!` row, for values with no cell.
macro_rules! derived {
    ($($name:literal, $kind:ident, $section:ident, $help:literal, $source:ident($get:expr);)*) => {
        [$(Family {
            name: $name,
            help: $help,
            kind: Kind::$kind,
            label: None,
            section: Section::$section,
            get: Source::$source($get),
        },)*]
    };
}

/// The model-level and per-operator families.
static DERIVED_FAMILIES: [Family; 13] = derived! {
    "bitflow_requests_total", Counter, Requests,
        "Requests that have entered the engine (including in-flight).",
        Model(|m| Value::Int(m.requests));
    "bitflow_op_calls_total", Counter, Ops, "Recorded operator invocations.",
        Op(|op| Some(Value::Int(op.calls)));
    "bitflow_op_time_ns_total", Counter, Ops,
        "Wall time attributed to the operator, nanoseconds.",
        Op(|op| Some(Value::Int(op.total_ns)));
    "bitflow_op_gops", Gauge, Ops, "Sustained xor+popcount throughput, GOPS.",
        Op(|op| Some(Value::Float(op.gops)));
    "bitflow_op_gb_per_s", Gauge, Ops, "Sustained memory traffic, GB/s.",
        Op(|op| Some(Value::Float(op.gb_per_s)));
    "bitflow_op_pct_of_peak_compute", Gauge, Ops,
        "Achieved share of the machine's peak xor+popcount throughput, percent.",
        Op(|op| Some(Value::Float(op.pct_of_peak_compute)));
    "bitflow_op_pct_of_peak_bandwidth", Gauge, Ops,
        "Achieved share of the machine's peak memory bandwidth, percent.",
        Op(|op| Some(Value::Float(op.pct_of_peak_bandwidth)));
    "bitflow_op_memory_bound", Gauge, Ops,
        "Roofline verdict: 1 memory-bound, 0 compute-bound, absent idle.",
        Op(|op| match op.bound {
            OpBound::Memory => Some(Value::Int(1)),
            OpBound::Compute => Some(Value::Int(0)),
            OpBound::Idle => None,
        });
    "bitflow_op_latency_ns", Histogram, Ops,
        "Per-call operator latency, nanoseconds (log2-octave buckets).",
        Op(|op| Some(Value::latency_hist(&op.hist, op.calls, op.total_ns)));
    "bitflow_machine_peak_gops", Gauge, Machine,
        "Theoretical peak xor+popcount throughput, GOPS.",
        Model(|m| Value::Float(m.machine.peak_gops));
    "bitflow_machine_peak_gb_per_s", Gauge, Machine, "Peak streaming memory bandwidth, GB/s.",
        Model(|m| Value::Float(m.machine.peak_gb_per_s));
    "bitflow_machine_freq_ghz", Gauge, Machine, "Estimated sustained core frequency, GHz.",
        Model(|m| Value::Float(m.machine.freq_ghz));
    "bitflow_machine_logical_cores", Gauge, Machine, "Logical cores visible to the process.",
        Model(|m| Value::Int(m.machine.logical_cores));
};

/// Every descriptor row, in print order: by section, rows of one section
/// in declaration order.
fn families() -> Vec<&'static Family> {
    let cells = [BATCH_FAMILIES, SERVE_FAMILIES, GOVERN_FAMILIES];
    let mut rows: Vec<&Family> = (DERIVED_FAMILIES.iter())
        .chain(cells.into_iter().flatten())
        .collect();
    rows.sort_by_key(|row| row.section);
    rows
}

/// One snapshot with its label sets rendered once: `model="…"`, and per
/// operator `model="…",op="…",kind="…"`.
struct Tenant<'a> {
    snap: &'a MetricsSnapshot,
    labels: String,
    op_labels: Vec<String>,
}

impl Tenant<'_> {
    /// The series `row` contributes for this tenant, each with its labels.
    fn series(&self, row: &Family) -> Vec<(String, Value)> {
        match row.get {
            Source::Model(get) => {
                let labels = match row.label {
                    Some((key, fixed)) => format!("{},{key}=\"{fixed}\"", self.labels),
                    None => self.labels.clone(),
                };
                vec![(labels, get(self.snap))]
            }
            Source::Op(get) => (self.snap.ops.iter().zip(&self.op_labels))
                .filter_map(|(op, labels)| Some((labels.clone(), get(op)?)))
                .collect(),
        }
    }
}

/// One family: the header, then one line per scalar series; for
/// histograms cumulative `le` buckets per series — closed by `+Inf` at the
/// series' count unless its own overflow bucket already closed it — and
/// then `_sum`/`_count` per series.
fn render(out: &mut String, name: &str, help: &str, kind: Kind, series: &[(String, Value)]) {
    let kind = match kind {
        Kind::Counter => "counter",
        Kind::Gauge | Kind::HighWater => "gauge",
        Kind::Histogram => "histogram",
    };
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    for (labels, value) in series {
        let _ = match value {
            Value::Int(v) => writeln!(out, "{name}{{{labels}}} {v}"),
            Value::Float(v) if v.is_nan() => writeln!(out, "{name}{{{labels}}} NaN"),
            Value::Float(v) if v.is_infinite() => {
                let sign = if *v > 0.0 { '+' } else { '-' };
                writeln!(out, "{name}{{{labels}}} {sign}Inf")
            }
            Value::Float(v) => writeln!(out, "{name}{{{labels}}} {v}"),
            Value::Hist { buckets, count, .. } => {
                let mut cumulative = 0u64;
                for &(le, n) in buckets {
                    cumulative += n;
                    let _ = match le {
                        u64::MAX => writeln!(out, "{name}{{{labels},le=\"+Inf\"}} {cumulative}"),
                        _ => writeln!(out, "{name}{{{labels},le=\"{le}\"}} {cumulative}"),
                    };
                }
                match buckets.last() {
                    Some(&(u64::MAX, _)) => Ok(()),
                    _ => writeln!(out, "{name}{{{labels},le=\"+Inf\"}} {count}"),
                }
            }
        };
    }
    for (labels, value) in series {
        if let Value::Hist { count, sum, .. } = value {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
            let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
        }
    }
}

/// Renders the snapshots — one per served model name — as one Prometheus
/// text exposition. Snapshots must differ in `model`, the label that tells
/// their series apart.
pub fn to_prometheus(snapshots: &[MetricsSnapshot]) -> String {
    let tenants: Vec<Tenant<'_>> = snapshots
        .iter()
        .map(|snap| {
            let labels = format!("model=\"{}\"", escape_label(&snap.model));
            let op_labels = snap
                .ops
                .iter()
                .map(|op| {
                    format!(
                        "{labels},op=\"{}\",kind=\"{}\"",
                        escape_label(&op.name),
                        op.kind.label()
                    )
                })
                .collect();
            Tenant {
                snap,
                labels,
                op_labels,
            }
        })
        .collect();
    let mut out = String::with_capacity(4096 * snapshots.len());
    // Consecutive rows sharing a family name go under one header, every
    // tenant's series with them.
    for family in families().chunk_by(|a, b| a.name == b.name) {
        let series: Vec<(String, Value)> = tenants
            .iter()
            .flat_map(|tenant| family.iter().flat_map(|row| tenant.series(row)))
            .collect();
        let first = family[0];
        render(&mut out, first.name, first.help, first.kind, &series);
    }
    out
}

impl MetricsSnapshot {
    /// Renders this snapshot alone in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        to_prometheus(std::slice::from_ref(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::sample as snap;

    /// The descriptor table checks itself: names, the `_total` convention,
    /// one rendered series per row, and what `reset()` does to each kind
    /// of cell.
    #[test]
    fn descriptor_tables_are_consistent() {
        use crate::table::{BatchGauges, Cell, ServeGauges};
        use std::collections::HashSet;

        let rows = families();
        let mut kinds: Vec<(&str, Kind)> = Vec::new();
        let mut series = HashSet::new();
        for row in &rows {
            assert!(series.insert((row.name, row.label)), "{}", row.name);
            match kinds.iter().find(|(name, _)| *name == row.name) {
                // A second row of a family is a second label value of it.
                Some((_, kind)) => assert!(row.label.is_some() && *kind == row.kind),
                None => kinds.push((row.name, row.kind)),
            }
        }
        for (name, kind) in &kinds {
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{name}"
            );
            assert_eq!(name.ends_with("_total"), *kind == Kind::Counter, "{name}");
        }

        // Filled, every cell reads 7; after `reset()` exactly the live
        // gauges still do, and every histogram is empty.
        let (batch, serve) = (BatchGauges::default(), ServeGauges::default());
        batch.fill(7);
        serve.fill(7);
        batch.reset();
        serve.reset();
        let mut after = MetricsSnapshot::serve_only("m", serve.snapshot());
        after.batch = batch.snapshot();
        let cells = rows.iter().filter(|row| {
            ![Section::Requests, Section::Ops, Section::Machine].contains(&row.section)
        });
        let mut live = Vec::new();
        for row in cells {
            let Source::Model(get) = row.get else {
                panic!("{} reads a cell", row.name)
            };
            let empty = Value::Hist {
                buckets: Vec::new(),
                count: 0,
                sum: 0,
            };
            match get(&after) {
                Value::Int(0) => assert_ne!(row.kind, Kind::Gauge, "{}", row.name),
                Value::Int(v) => {
                    assert_eq!((v, row.kind), (7, Kind::Gauge), "{}", row.name);
                    live.push(row.name);
                }
                value => assert_eq!((value, row.kind), (empty, Kind::Histogram), "{}", row.name),
            }
        }
        assert_eq!(
            live,
            [
                "bitflow_batch_queued_items",
                "bitflow_serve_queue_depth",
                "bitflow_mem_used_bytes",
                "bitflow_mem_budget_bytes",
                "bitflow_mem_leases",
                "bitflow_degradation_state",
            ]
        );
        assert_eq!((after.batch.batches, after.batch.max_batch), (0, 0));

        // Every row is rendered exactly once — one series for the model,
        // or one per operator — and every family has one header.
        let snap = snap();
        let text = snap.to_prometheus();
        for row in &rows {
            let (labels, want) = match (&row.get, row.label) {
                (Source::Op(_), _) => ("model=\"small-cnn\",op=".to_string(), snap.ops.len()),
                (_, Some((key, value))) => (format!("model=\"small-cnn\",{key}=\"{value}\"}} "), 1),
                (_, None) => ("model=\"small-cnn\"} ".to_string(), 1),
            };
            let line = match row.kind {
                Kind::Histogram => format!("{}_count{{{labels}", row.name),
                _ => format!("{}{{{labels}", row.name),
            };
            let found = text.lines().filter(|l| l.starts_with(&line)).count();
            assert_eq!(found, want, "{line}");
        }
        for (name, _) in &kinds {
            let header = format!("# TYPE {name} ");
            let found = text.lines().filter(|l| l.starts_with(&header)).count();
            assert_eq!(found, 1, "{header}");
        }
    }

    #[test]
    fn exposition_has_headers_and_series() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_requests_total counter"));
        assert!(text.contains("bitflow_requests_total{model=\"small-cnn\"} 8"));
        assert!(text
            .contains("bitflow_op_calls_total{model=\"small-cnn\",op=\"conv1\",kind=\"conv\"} 8"));
        assert!(text.contains("# TYPE bitflow_op_latency_ns histogram"));
        assert!(text.contains("le=\"+Inf\"} 8"));
        assert!(text.contains("bitflow_op_latency_ns_sum"));
        assert!(text.contains("bitflow_op_latency_ns_count"));
    }

    #[test]
    fn serve_families_render() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_serve_submitted_total counter"));
        assert!(text.contains("bitflow_serve_submitted_total{model=\"small-cnn\"} 20"));
        assert!(text.contains("bitflow_serve_accepted_total{model=\"small-cnn\"} 17"));
        assert!(text
            .contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"queue_full\"} 2"));
        assert!(text
            .contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"shedding\"} 1"));
        assert!(text
            .contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"draining\"} 0"));
        assert!(text.contains("# TYPE bitflow_serve_queue_depth gauge"));
        assert!(text.contains("bitflow_serve_queue_depth{model=\"small-cnn\"} 3"));
        assert!(text.contains("bitflow_serve_queue_depth_max{model=\"small-cnn\"} 6"));
        assert!(text.contains("bitflow_serve_breaker_trips_total{model=\"small-cnn\"} 1"));
        assert!(
            text.contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"quota\"} 3")
        );
        assert!(
            text.contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"memory\"} 4")
        );
    }

    #[test]
    fn governance_families_render() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_mem_used_bytes gauge"));
        assert!(text.contains("bitflow_mem_used_bytes{model=\"small-cnn\"} 2097152"));
        assert!(text.contains("bitflow_mem_budget_bytes{model=\"small-cnn\"} 8388608"));
        assert!(text.contains("bitflow_mem_leases{model=\"small-cnn\"} 5"));
        assert!(text.contains("# TYPE bitflow_degradation_state gauge"));
        assert!(text.contains("bitflow_degradation_state{model=\"small-cnn\"} 2"));
        assert!(text.contains("# TYPE bitflow_net_accept_errors_total counter"));
        assert!(text.contains("bitflow_net_accept_errors_total{model=\"small-cnn\"} 3"));
        assert!(text.contains("bitflow_net_spawn_sheds_total{model=\"small-cnn\"} 2"));
    }

    #[test]
    fn net_families_render() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_net_accepted_conns_total counter"));
        assert!(text.contains("bitflow_net_accepted_conns_total{model=\"small-cnn\"} 9"));
        assert!(text.contains("bitflow_net_rejected_conns_total{model=\"small-cnn\"} 2"));
        assert!(text.contains("bitflow_net_timeouts_read_total{model=\"small-cnn\"} 4"));
        assert!(text.contains("bitflow_net_timeouts_write_total{model=\"small-cnn\"} 1"));
        assert!(text.contains("bitflow_net_malformed_requests_total{model=\"small-cnn\"} 5"));
        assert!(text.contains("bitflow_net_bytes_in_total{model=\"small-cnn\"} 123456"));
        assert!(text.contains("bitflow_net_bytes_out_total{model=\"small-cnn\"} 65432"));
    }

    #[test]
    fn batch_size_histogram_is_cumulative_with_inf_terminator() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_serve_batch_size histogram"));
        assert!(text.contains("bitflow_serve_batch_size{model=\"small-cnn\",le=\"1\"} 2"));
        assert!(text.contains("bitflow_serve_batch_size{model=\"small-cnn\",le=\"4\"} 6"));
        assert!(text.contains("bitflow_serve_batch_size{model=\"small-cnn\",le=\"+Inf\"} 6"));
        assert!(text.contains("bitflow_serve_batch_size_sum{model=\"small-cnn\"} 14"));
        assert!(text.contains("bitflow_serve_batch_size_count{model=\"small-cnn\"} 6"));
        assert!(text.contains("bitflow_serve_batch_size_max{model=\"small-cnn\"} 4"));
    }

    #[test]
    fn stage_histograms_render_cumulative_with_inf_terminator() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_stage_queue_wait_ns histogram"));
        assert!(text.contains("bitflow_stage_queue_wait_ns{model=\"small-cnn\",le=\"2047\"} 7"));
        assert!(text.contains("bitflow_stage_queue_wait_ns{model=\"small-cnn\",le=\"8191\"} 12"));
        assert!(text.contains("bitflow_stage_queue_wait_ns{model=\"small-cnn\",le=\"+Inf\"} 12"));
        assert!(text.contains("bitflow_stage_queue_wait_ns_sum{model=\"small-cnn\"} 48000"));
        assert!(text.contains("bitflow_stage_queue_wait_ns_count{model=\"small-cnn\"} 12"));
        assert!(text.contains("# TYPE bitflow_stage_batch_wait_ns histogram"));
        assert!(text.contains("# TYPE bitflow_stage_exec_ns histogram"));
        assert!(text.contains("bitflow_stage_exec_ns_sum{model=\"small-cnn\"} 96000"));
        // An idle stage still renders an empty histogram with +Inf = 0.
        assert!(text.contains("bitflow_stage_write_ns{model=\"small-cnn\",le=\"+Inf\"} 0"));
        assert!(text.contains("bitflow_stage_write_ns_count{model=\"small-cnn\"} 0"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = snap().to_prometheus();
        let c1023 = text
            .lines()
            .find(|l| l.contains("le=\"1023\""))
            .expect("first bucket");
        let c1535 = text
            .lines()
            .find(|l| l.contains("le=\"1535\""))
            .expect("second bucket");
        assert!(c1023.ends_with(" 5"), "{c1023}");
        assert!(c1535.ends_with(" 8"), "{c1535}");
    }

    #[test]
    fn label_escaping() {
        let mut s = snap();
        s.model = "a\"b\\c\nd".to_string();
        let text = s.to_prometheus();
        assert!(text.contains("model=\"a\\\"b\\\\c\\nd\""));
    }
}
