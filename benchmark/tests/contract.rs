//! `BENCHMARK.json` and the code agree, and every name is well formed.

use bitflow_benchmark::check::{fnv1a64, logits_checksum, Golden, DATA_SEEDS};
use bitflow_benchmark::compare::{compare, judge, Verdict};
use bitflow_benchmark::contract::{self, Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use bitflow_benchmark::fingerprint::{bench_dir, check_profiles, release_profile};
use bitflow_benchmark::report::{result_line, Metric, SavedRun};
use bitflow_benchmark::spans::SpanLog;
use bitflow_benchmark::stats::Over;
use bitflow_benchmark::sut::ModelKind;
use bitflow_benchmark::workloads::{self, E2eResult, Series};

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_units_and_limits() {
    let mut seen = std::collections::BTreeSet::new();
    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in &WORKLOADS {
        assert!(well_formed(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
        assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    for m in &END_TO_END {
        assert!(well_formed(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25);
        assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let layers = contract::per_layer();
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    for m in &layers {
        assert!(well_formed(&m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
    }
    assert!((1..=60).contains(&RUN_SECONDS));
}

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    let path = bench_dir().join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        contract::benchmark_json(),
        "regenerate with --contract > BENCHMARK.json"
    );
    assert!(on_disk.len() <= 64 * 1024);
    // It parses, and has exactly the keys the contract asks for.
    let v: serde::Value = serde_json::from_str(&on_disk).expect("valid JSON");
    let serde::Value::Object(fields) = v else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn every_workload_runs_and_every_end_to_end_metric_is_emitted() {
    for w in &WORKLOADS {
        assert!(
            workloads::runner(w.name).is_some(),
            "{} has no runner",
            w.name
        );
    }
    assert!(workloads::runner("nope").is_none());
    let one = |x: f64| Series::new(vec![x], Over::Median);
    let result = E2eResult {
        setup_s: one(1.0),
        latency_p50_ms: one(2.0),
        throughput_per_s: one(3.0),
        tally: Default::default(),
        notes: Vec::new(),
    };
    for m in &END_TO_END {
        assert!(
            result.series(m.name).is_some(),
            "{} is never emitted",
            m.name
        );
    }
    // ...and nothing is emitted that BENCHMARK.json does not name.
    for name in ["setup_s", "latency_p50_ms", "throughput_per_s"] {
        assert!(END_TO_END.iter().any(|m| m.name == name));
    }
    assert!(result.series("latency_p99_ms").is_none());
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let metrics = [Metric {
        name: "latency_p50_ms".into(),
        value: 1.2034,
        unit: "ms".into(),
        windows: vec![1.0, 1.2034, 2.0],
    }];
    let line = result_line(true, 1000, 0, &metrics).unwrap();
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.2034, "unit": "ms"}}}"#
    );
    assert!(result_line(
        true,
        1,
        0,
        &[Metric {
            value: f64::NAN,
            ..metrics[0].clone()
        }]
    )
    .is_err());
    let saved = SavedRun {
        workload: "vgg16_latency".into(),
        seed: 7,
        trace: false,
        rev: "abc".into(),
        metrics: metrics.to_vec(),
    };
    assert_eq!(SavedRun::parse(&saved.render().unwrap()).unwrap(), saved);
}

#[test]
fn golden_pins_cover_every_data_seed_and_catch_corruption() {
    let path = bench_dir().join("golden.json");
    let golden = Golden::load(&path).expect("golden.json");
    for kind in [ModelKind::Vgg16, ModelKind::TieredCnn, ModelKind::SmallCnn] {
        for seed in 0..DATA_SEEDS {
            golden
                .pins(kind.key(), seed)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
    assert!(golden.pins("vgg16", DATA_SEEDS).is_err());
    assert_eq!(Golden::parse(&golden.render()).unwrap(), golden);

    let logits = [1.5f32, -2.0, 0.0];
    let mut g = Golden::default();
    g.set("m", 0, vec![logits_checksum(&logits)]);
    let pins = g.pins("m", 0).unwrap();
    assert!(pins.matches(0, &logits));
    assert!(!pins.matches(0, &[1.5, -2.0, f32::from_bits(1)]));
    assert!(
        !pins.matches(1, &logits),
        "an input without a pin never matches"
    );
    let body: Vec<u8> = logits.iter().flat_map(|x| x.to_le_bytes()).collect();
    assert!(pins.matches_bytes(0, &body));
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn compare_verdicts() {
    let a = [100.0, 101.0, 99.0, 100.5];
    let tight = 0.02;
    // 5% worse on a 10% bound: ok. 20% worse: regressed.
    assert_eq!(
        judge(
            &a,
            &[105.0, 106.0, 104.0, 105.5],
            tight,
            Better::Lower,
            0.10
        )
        .2,
        Verdict::Ok
    );
    assert_eq!(
        judge(
            &a,
            &[120.0, 121.0, 119.0, 120.5],
            tight,
            Better::Lower,
            0.10
        )
        .2,
        Verdict::Regressed
    );
    // For a higher-is-better metric the same numbers read the other way.
    assert_eq!(
        judge(
            &a,
            &[120.0, 121.0, 119.0, 120.5],
            tight,
            Better::Higher,
            0.10
        )
        .2,
        Verdict::Ok
    );
    assert_eq!(
        judge(&a, &[80.0, 81.0, 79.0, 80.5], tight, Better::Higher, 0.10).2,
        Verdict::Regressed
    );
    // Spread wider than the bound: unresolved, unless every b beats every a.
    let noisy = [100.0, 140.0, 70.0, 120.0];
    assert_eq!(
        judge(
            &noisy,
            &[100.0, 130.0, 75.0, 110.0],
            0.4,
            Better::Lower,
            0.10
        )
        .2,
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&noisy, &[50.0, 60.0, 40.0, 69.0], 0.4, Better::Lower, 0.10).2,
        Verdict::Ok
    );

    // Whole sets: three runs a side, one row per end-to-end metric.
    let run = |latency: f64| SavedRun {
        workload: "vgg16_latency".into(),
        seed: 1,
        trace: false,
        rev: "r".into(),
        metrics: vec![Metric {
            name: "latency_p50_ms".into(),
            value: latency,
            unit: "ms".into(),
            windows: vec![latency; 3],
        }],
    };
    let base: Vec<SavedRun> = [200.0, 201.0, 199.0].map(run).to_vec();
    let slow: Vec<SavedRun> = [260.0, 261.0, 259.0].map(run).to_vec();
    let rows = compare(&base, &slow);
    assert_eq!(rows.len(), 1);
    assert_eq!(
        (rows[0].metric, rows[0].verdict),
        ("latency_p50_ms", Verdict::Regressed)
    );
    assert!((rows[0].ratio - 1.3).abs() < 1e-9);
    assert_eq!(compare(&base, &base)[0].verdict, Verdict::Ok);
}

#[test]
fn span_self_time_is_duration_minus_children() {
    let mut log = SpanLog::new(std::time::Instant::now(), 0);
    let parent = log.push_ns("request", "graph", 0, 1000, None, 1);
    log.push_ns("a", "ops", 100, 400, Some(parent), 1);
    log.push_ns("b", "ops", 300, 600, Some(parent), 1); // overlaps a
    log.push_ns("c", "ops", 900, 1200, Some(parent), 1); // sticks out
    assert_eq!(log.self_times_ns(), vec![1000 - 500 - 100, 300, 300, 300]);
    let json = log.to_chrome_json("test");
    let v: serde::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    let serde::Value::Array(events) = v.field("traceEvents").unwrap() else {
        panic!()
    };
    assert_eq!(events.len(), 1 + 4);
}

#[test]
fn release_profile_is_the_roots() {
    check_profiles(&bench_dir()).unwrap();
    let p = release_profile("[package]\nname = \"x\"\n\n[profile.release]\n# c\nopt-level = 3\n\nlto = \"thin\"\n[profile.bench]\nopt-level = 1\n");
    assert_eq!(p, ["opt-level = 3", "lto = \"thin\""]);
    assert!(release_profile("[package]\n").is_empty());
}
