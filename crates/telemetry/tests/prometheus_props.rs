//! Property tests for the Prometheus text exposition.
//!
//! Two invariants, over randomized snapshots (including label values with
//! quotes, backslashes, and newlines), rendered alone and as the first of
//! two tenants in one exposition:
//!
//! 1. **Format validity** — every line of the exposition is a comment
//!    header or a parseable series (`name{labels} value`), every `# TYPE`
//!    precedes its family's series, families are contiguous, no series
//!    appears twice, histogram buckets are cumulative with strictly
//!    increasing `le` edges terminated by `+Inf`, and
//!    `+Inf == _count == calls`.
//! 2. **Counter round-trip** — each tenant's integer counters in the text
//!    equal the same counters read back from the serde-JSON form of its
//!    snapshot, so the two exporters can never drift apart silently.

use bitflow_telemetry::{
    to_prometheus, BatchSnapshot, HistBucket, MachineSnapshot, MetricsSnapshot, OpBound, OpKind,
    OpSnapshot, ServeSnapshot, SizeBucket, StageSnapshot, BATCH_SIZE_EDGES, SCHEMA_VERSION,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

/// One parsed series line.
#[derive(Debug, Clone)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn metric_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses one series line, validating the grammar strictly. Returns an
/// error message describing the first violation.
fn parse_series(line: &str) -> Result<Series, String> {
    let brace = line.find('{');
    let (name, rest) = match brace {
        Some(i) => (&line[..i], &line[i..]),
        None => {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("no value separator: {line}"))?;
            let value = value
                .parse::<f64>()
                .map_err(|_| format!("bad value: {line}"))?;
            return Ok(Series {
                name: name.to_string(),
                labels: vec![],
                value,
            });
        }
    };
    if !metric_name_ok(name) {
        return Err(format!("bad metric name `{name}`"));
    }
    // Parse `{k="v",k="v"} value` with escape handling.
    let mut chars = rest.chars();
    if chars.next() != Some('{') {
        return Err(format!("expected `{{`: {line}"));
    }
    let mut labels = Vec::new();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if !metric_name_ok(&key) {
            return Err(format!("bad label name `{key}` in {line}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label value not quoted: {line}"));
        }
        let mut val = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    Some('n') => val.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {line}")),
                },
                Some('"') => break,
                Some(c) => val.push(c),
                None => return Err(format!("unterminated label value: {line}")),
            }
        }
        labels.push((key, val));
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("bad label separator {other:?}: {line}")),
        }
    }
    let value_text: String = chars.collect();
    let value_text = value_text.trim();
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| format!("bad value: {line}"))?,
    };
    Ok(Series {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses the whole exposition, checking header/series structure, and
/// returns the series list. Panics (via Err) on any format violation.
fn parse_exposition(text: &str) -> Result<Vec<Series>, String> {
    let mut series = Vec::new();
    let mut typed: std::collections::HashMap<String, String> = Default::default();
    let mut seen_families: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            if !metric_name_ok(name) {
                return Err(format!("bad family name in header: {line}"));
            }
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                if !["counter", "gauge", "histogram"].contains(&kind) {
                    return Err(format!("bad TYPE kind: {line}"));
                }
                typed.insert(name.to_string(), kind.to_string());
            } else if keyword != "HELP" {
                return Err(format!("unknown comment keyword: {line}"));
            }
            continue;
        }
        let s = parse_series(line)?;
        // Strip histogram suffixes to find the owning family.
        let family = s
            .name
            .strip_suffix("_sum")
            .or_else(|| s.name.strip_suffix("_count"))
            .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&s.name)
            .to_string();
        if !typed.contains_key(&family) {
            return Err(format!("series before its TYPE header: {line}"));
        }
        // Families must be contiguous: once we move on, never come back.
        match seen_families.last() {
            Some(last) if *last == family => {}
            _ => {
                if seen_families.contains(&family) {
                    return Err(format!("family `{family}` is not contiguous"));
                }
                seen_families.push(family);
            }
        }
        if series
            .iter()
            .any(|t: &Series| t.name == s.name && t.labels == s.labels)
        {
            return Err(format!("series appears twice: {line}"));
        }
        series.push(s);
    }
    Ok(series)
}

/// The series carrying `model="<model>"`: one tenant's share of an
/// exposition.
fn tenant_series(series: &[Series], model: &str) -> Vec<Series> {
    series
        .iter()
        .filter(|s| s.labels.iter().any(|(k, v)| k == "model" && v == model))
        .cloned()
        .collect()
}

/// A random stage-latency snapshot: a sparse histogram with increasing
/// edges whose bucket counts sum to exactly `count`.
fn random_stage(rng: &mut StdRng) -> StageSnapshot {
    let count = rng.gen_range(0..10_000u64);
    let mut remaining = count;
    let mut le = 0u64;
    let mut buckets = Vec::new();
    for _ in 0..rng.gen_range(0..5usize) {
        le += rng.gen_range(1..100_000u64);
        let c = rng.gen_range(0..=remaining);
        remaining -= c;
        if c > 0 {
            buckets.push(HistBucket {
                le_ns: le,
                count: c,
            });
        }
    }
    if remaining > 0 {
        le += rng.gen_range(1..100_000u64);
        buckets.push(HistBucket {
            le_ns: le,
            count: remaining,
        });
    }
    StageSnapshot {
        count,
        total_ns: count * rng.gen_range(1..100_000u64),
        buckets,
    }
}

/// Replaces every integer leaf of a serde tree with a random one.
fn randomize(v: &mut Value, rng: &mut StdRng) {
    match v {
        Value::UInt(n) => *n = rng.gen_range(0..u32::MAX as u64),
        Value::Object(fields) => fields.iter_mut().for_each(|(_, f)| randomize(f, rng)),
        _ => {}
    }
}

/// Builds a randomized snapshot from a seed: tricky label values, sparse
/// histograms.
fn random_snapshot(seed: u64) -> MetricsSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let tricky = ["plain", "qu\"ote", "back\\slash", "new\nline", "sp ace"];
    let model = tricky[rng.gen_range(0..tricky.len())].to_string();
    let n_ops = rng.gen_range(0..4usize);
    let ops = (0..n_ops)
        .map(|i| {
            let calls = rng.gen_range(0..1000u64);
            // Sparse histogram: increasing edges, bucket counts that sum
            // to at most `calls` (the +Inf row absorbs the rest).
            let mut hist = Vec::new();
            let mut le = 0u64;
            let mut remaining = calls;
            for _ in 0..rng.gen_range(0..4usize) {
                le += rng.gen_range(1..1_000u64);
                let c = rng.gen_range(0..=remaining);
                remaining -= c;
                if c > 0 {
                    hist.push(HistBucket {
                        le_ns: le,
                        count: c,
                    });
                }
            }
            let total_ns = calls * rng.gen_range(1..10_000u64);
            OpSnapshot {
                name: format!("{}_{i}", tricky[rng.gen_range(0..tricky.len())]),
                kind: [OpKind::Conv, OpKind::Fc, OpKind::Pool][rng.gen_range(0..3usize)],
                calls,
                total_ns,
                mean_ns: rng.gen_range(0.0..1e6),
                max_ns: rng.gen_range(0..1_000_000),
                p50_ns: rng.gen_range(0..1_000_000),
                p95_ns: rng.gen_range(0..1_000_000),
                p99_ns: rng.gen_range(0..1_000_000),
                bit_ops_per_call: rng.gen_range(0..u32::MAX as u64),
                bytes_read_per_call: rng.gen_range(0..1_000_000),
                bytes_written_per_call: rng.gen_range(0..1_000_000),
                gops: rng.gen_range(0.0..5_000.0),
                gb_per_s: rng.gen_range(0.0..100.0),
                pct_of_peak_compute: rng.gen_range(0.0..100.0),
                pct_of_peak_bandwidth: rng.gen_range(0.0..100.0),
                bound: [OpBound::Compute, OpBound::Memory, OpBound::Idle][rng.gen_range(0..3usize)],
                hist,
                tile: None,
            }
        })
        .collect();
    MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        model,
        requests: rng.gen_range(0..100_000),
        machine: MachineSnapshot {
            features: "sse2+ssse3+popcnt+avx2".to_string(),
            simd_width_bits: 256,
            logical_cores: rng.gen_range(1..128),
            freq_ghz: rng.gen_range(0.5..6.0),
            freq_source: "calibrated".to_string(),
            peak_gops: rng.gen_range(1.0..100_000.0),
            peak_gb_per_s: rng.gen_range(1.0..500.0),
            bw_source: "measured".to_string(),
        },
        ops,
        batch: BatchSnapshot {
            batches: rng.gen_range(0..1000),
            items: rng.gen_range(0..10_000),
            failed_items: rng.gen_range(0..100),
            chunks: rng.gen_range(0..1000),
            max_batch: rng.gen_range(0..64),
            queued_items: rng.gen_range(0..64),
        },
        serve: {
            // Sparse batch-size histogram consistent with `batches`: the
            // +Inf row the renderer emits absorbs the remainder.
            let batches = rng.gen_range(0..10_000u64);
            let mut remaining = batches;
            let mut batch_size_hist = Vec::new();
            for &le in &BATCH_SIZE_EDGES {
                let c = rng.gen_range(0..=remaining);
                remaining -= c;
                if c > 0 {
                    batch_size_hist.push(SizeBucket { le, count: c });
                }
            }
            // Every scalar of the snapshot, whatever the metric table lists
            // today, gets a random value through the serde tree; the
            // histograms are then set to consistent shapes.
            let mut tree = ServeSnapshot::default().to_value();
            randomize(&mut tree, &mut rng);
            ServeSnapshot {
                batches,
                batch_size_hist,
                stage_queue_wait: random_stage(&mut rng),
                stage_batch_wait: random_stage(&mut rng),
                stage_exec: random_stage(&mut rng),
                stage_write: random_stage(&mut rng),
                ..ServeSnapshot::from_value(&tree).expect("same shape")
            }
        },
    }
}

/// The value of the unique `bitflow_serve_rejected_total` series with the
/// given `reason` label.
fn rejected_value(series: &[Series], reason: &str) -> Option<f64> {
    let mut it = series.iter().filter(|s| {
        s.name == "bitflow_serve_rejected_total"
            && s.labels.iter().any(|(k, v)| k == "reason" && v == reason)
    });
    let found = it.next()?;
    assert!(
        it.next().is_none(),
        "duplicate rejected series for {reason}"
    );
    Some(found.value)
}

/// The value of the unique series `name` restricted to label `op="..."`.
fn series_value(series: &[Series], name: &str, op: Option<&str>) -> Option<f64> {
    let mut it = series.iter().filter(|s| {
        s.name == name
            && match op {
                Some(op) => s.labels.iter().any(|(k, v)| k == "op" && v == op),
                None => true,
            }
    });
    let found = it.next()?;
    assert!(it.next().is_none(), "duplicate series for {name}");
    Some(found.value)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn exposition_is_valid_and_round_trips_counters(seed in any::<u64>()) {
        let snap = random_snapshot(seed);
        check_tenant(&snap.to_prometheus(), &snap)?;

        // The same snapshot as one of two tenants: every family still
        // contiguous under one header, and each tenant's series equal to
        // its own JSON.
        let mut other = random_snapshot(!seed);
        other.model = format!("{}/2", snap.model);
        let both = [snap, other];
        let text = to_prometheus(&both);
        for tenant in &both {
            check_tenant(&text, tenant)?;
        }
    }
}

/// Parses `text` strictly and checks `snap`'s share of it — the series
/// labelled with its model — against the snapshot's JSON form.
fn check_tenant(text: &str, snap: &MetricsSnapshot) -> Result<(), TestCaseError> {
    let series = parse_exposition(text).map_err(TestCaseError::fail)?;
    let series = tenant_series(&series, &snap.model);

    // Counter round-trip goes through the *JSON* exporter, so the two
    // serialization paths are checked against each other.
    let json = serde_json::to_string(snap).expect("serialize");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");

    prop_assert_eq!(
        series_value(&series, "bitflow_requests_total", None),
        Some(back.requests as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_batch_items_total", None),
        Some(back.batch.items as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_machine_logical_cores", None),
        Some(back.machine.logical_cores as f64)
    );

    // Serving counters round-trip through both exporters too.
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_submitted_total", None),
        Some(back.serve.submitted as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_accepted_total", None),
        Some(back.serve.accepted as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_completed_total", None),
        Some(back.serve.completed as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_deadline_shed_total", None),
        Some(back.serve.shed_deadline as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_worker_restarts_total", None),
        Some(back.serve.worker_restarts as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_queue_depth", None),
        Some(back.serve.queue_depth as f64)
    );
    prop_assert_eq!(
        rejected_value(&series, "queue_full"),
        Some(back.serve.rejected_queue_full as f64)
    );
    prop_assert_eq!(
        rejected_value(&series, "shedding"),
        Some(back.serve.rejected_shedding as f64)
    );
    prop_assert_eq!(
        rejected_value(&series, "draining"),
        Some(back.serve.rejected_draining as f64)
    );
    prop_assert_eq!(
        rejected_value(&series, "quota"),
        Some(back.serve.rejected_quota as f64)
    );
    prop_assert_eq!(
        rejected_value(&series, "memory"),
        Some(back.serve.govern.rejected_memory as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_batch_size_count", None),
        Some(back.serve.batches as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_serve_batch_size_sum", None),
        Some(back.serve.batch_items as f64)
    );

    // Network front-end counters round-trip through both exporters.
    prop_assert_eq!(
        series_value(&series, "bitflow_net_accepted_conns_total", None),
        Some(back.serve.net_accepted_conns as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_net_rejected_conns_total", None),
        Some(back.serve.net_rejected_conns as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_net_timeouts_read_total", None),
        Some(back.serve.net_timeouts_read as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_net_timeouts_write_total", None),
        Some(back.serve.net_timeouts_write as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_net_malformed_requests_total", None),
        Some(back.serve.net_malformed_requests as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_net_bytes_in_total", None),
        Some(back.serve.net_bytes_in as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_net_bytes_out_total", None),
        Some(back.serve.net_bytes_out as f64)
    );

    // Resource-governance counters and gauges round-trip too.
    prop_assert_eq!(
        series_value(&series, "bitflow_net_accept_errors_total", None),
        Some(back.serve.govern.net_accept_errors as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_net_spawn_sheds_total", None),
        Some(back.serve.govern.net_spawn_sheds as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_mem_used_bytes", None),
        Some(back.serve.govern.mem_used_bytes as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_mem_budget_bytes", None),
        Some(back.serve.govern.mem_budget_bytes as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_mem_leases", None),
        Some(back.serve.govern.mem_leases as f64)
    );
    prop_assert_eq!(
        series_value(&series, "bitflow_degradation_state", None),
        Some(back.serve.govern.degradation_state as f64)
    );

    // Stage histograms: cumulative buckets terminated by +Inf, with
    // _sum/_count round-tripping through both exporters.
    let stages: [(&str, &StageSnapshot); 4] = [
        ("bitflow_stage_queue_wait_ns", &back.serve.stage_queue_wait),
        ("bitflow_stage_batch_wait_ns", &back.serve.stage_batch_wait),
        ("bitflow_stage_exec_ns", &back.serve.stage_exec),
        ("bitflow_stage_write_ns", &back.serve.stage_write),
    ];
    for (name, stage) in stages {
        let buckets: Vec<&Series> = series.iter().filter(|s| s.name == name).collect();
        let mut prev_le = -1.0f64;
        let mut prev_cum = -1.0f64;
        for b in &buckets {
            let le = &b
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .expect("bucket has le")
                .1;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>().expect("numeric le")
            };
            prop_assert!(le > prev_le, "le not increasing for {}", name);
            prop_assert!(b.value >= prev_cum, "buckets not cumulative for {}", name);
            prev_le = le;
            prev_cum = b.value;
        }
        let last = buckets.last().expect("+Inf bucket always present");
        prop_assert!(prev_le.is_infinite(), "{} not terminated by +Inf", name);
        prop_assert_eq!(last.value, stage.count as f64, "{} +Inf != count", name);
        prop_assert_eq!(
            series_value(&series, &format!("{name}_count"), None),
            Some(stage.count as f64)
        );
        prop_assert_eq!(
            series_value(&series, &format!("{name}_sum"), None),
            Some(stage.total_ns as f64)
        );
    }

    for op in &back.ops {
        prop_assert_eq!(
            series_value(&series, "bitflow_op_calls_total", Some(&op.name)),
            Some(op.calls as f64),
            "op {}",
            op.name
        );
        prop_assert_eq!(
            series_value(&series, "bitflow_op_time_ns_total", Some(&op.name)),
            Some(op.total_ns as f64)
        );

        // Histogram invariants: cumulative counts monotone over
        // strictly increasing le edges, +Inf == _count == calls.
        let buckets: Vec<&Series> = series
            .iter()
            .filter(|s| {
                s.name == "bitflow_op_latency_ns"
                    && s.labels.iter().any(|(k, v)| k == "op" && v == &op.name)
            })
            .collect();
        let mut prev_le = -1.0f64;
        let mut prev_cum = -1.0f64;
        for b in &buckets {
            let le = &b
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .expect("bucket has le")
                .1;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>().expect("numeric le")
            };
            prop_assert!(le > prev_le, "le not increasing for {}", op.name);
            prop_assert!(
                b.value >= prev_cum,
                "buckets not cumulative for {}",
                op.name
            );
            prev_le = le;
            prev_cum = b.value;
        }
        let last = buckets.last().expect("+Inf bucket always present");
        prop_assert_eq!(last.value, op.calls as f64);
        prop_assert_eq!(
            series_value(&series, "bitflow_op_latency_ns_count", Some(&op.name)),
            Some(op.calls as f64)
        );
        prop_assert_eq!(
            series_value(&series, "bitflow_op_latency_ns_sum", Some(&op.name)),
            Some(op.total_ns as f64)
        );
    }
    Ok(())
}
