//! Operator-level telemetry report: drives requests through a
//! telemetry-enabled engine, prints the per-operator metrics table
//! (p50/p95/p99 latency, effective xor+popcount GOPS, bandwidth), measures
//! the enabled-vs-disabled overhead, and writes everything to
//! `results/telemetry.json`.
//!
//! The overhead measurement compiles the same weights into two models — one
//! plain, one with telemetry enabled — and interleaves their inference
//! iterations so both see identical machine conditions.
//! It always runs on the small CNN: its microsecond-scale requests give the
//! min-of estimator thousands of interleaved rounds (a large model yields a
//! handful of noisy 100ms+ samples where scheduler jitter dwarfs the
//! effect), and short requests are the *worst case* for relative overhead —
//! the per-operator cost is constant, so the smaller the operators, the
//! larger its share. The telemetry contract is that the enabled path stays
//! within a few percent of the plain path even there (two `Instant` reads
//! and a handful of relaxed atomics per operator).
//!
//! Quick mode (`--quick` / `BITFLOW_QUICK=1` / `BITFLOW_BENCH_QUICK=1`)
//! switches the snapshot model from VGG-16 to the small CNN and shortens
//! the budgets.

use bitflow_bench::timing::measure_interleaved;
use bitflow_bench::{quick_mode, write_json};
use bitflow_graph::models::{small_cnn, vgg16};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::CompiledModel;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct OverheadReport {
    plain_ns: u64,
    telemetry_ns: u64,
    overhead_pct: f64,
}

#[derive(Serialize)]
struct TelemetryReport {
    snapshot: bitflow_telemetry::MetricsSnapshot,
    overhead: OverheadReport,
}

fn main() {
    let quick = quick_mode();
    let spec = if quick { small_cnn() } else { vgg16() };
    let requests = if quick { 32 } else { 64 };
    eprintln!(
        "Telemetry report — {} over {requests} requests, plus disabled-vs-enabled A/B",
        spec.name
    );

    let mut rng = StdRng::seed_from_u64(23);

    // A/B overhead on the small CNN (see module docs: precise and
    // worst-case-relative), interleaved so both sides share conditions.
    let ab_spec = small_cnn();
    let ab_weights = NetworkWeights::random_with_bn(&ab_spec, &mut rng);
    let plain = CompiledModel::try_compile(&ab_spec, &ab_weights).expect("model compiles");
    let ab_recorded = CompiledModel::try_compile(&ab_spec, &ab_weights).expect("model compiles");
    ab_recorded.enable_telemetry();
    let ab_input = Tensor::random(ab_spec.input, Layout::Nhwc, &mut rng);
    let mut ctx_a = plain.try_new_context().expect("context allocates");
    let mut ctx_b = ab_recorded.try_new_context().expect("context allocates");
    let budget = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(2)
    };
    let (t_plain, t_rec) = measure_interleaved(
        || {
            std::hint::black_box(plain.try_infer(&mut ctx_a, &ab_input).expect("inference"));
        },
        || {
            std::hint::black_box(
                ab_recorded
                    .try_infer(&mut ctx_b, &ab_input)
                    .expect("inference"),
            );
        },
        budget,
        1000,
        200_000,
    );
    let overhead_pct = (t_rec.as_secs_f64() / t_plain.as_secs_f64() - 1.0) * 100.0;
    eprintln!(
        "[overhead, {} A/B] plain {:?} vs telemetry {:?} -> {overhead_pct:+.2}%",
        ab_spec.name, t_plain, t_rec
    );

    // Per-operator snapshot on the selected model: drive a batch of
    // requests through a telemetry-enabled engine, plus the batch path
    // once for the queue gauges.
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let recorded = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    recorded.enable_telemetry();
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let mut ctx = recorded.try_new_context().expect("context allocates");
    for _ in 0..requests {
        std::hint::black_box(recorded.try_infer(&mut ctx, &input).expect("inference"));
    }
    let batch: Vec<Tensor> = (0..4)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    for r in recorded.try_infer_batch(&batch) {
        r.expect("batch inference");
    }

    let snapshot = recorded
        .metrics_snapshot()
        .expect("telemetry was enabled above");

    println!(
        "{:<16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>7} {:>7}",
        "op", "calls", "mean µs", "p50 µs", "p95 µs", "p99 µs", "GOPS", "GB/s", "%peak", "bound"
    );
    for op in &snapshot.ops {
        println!(
            "{:<16} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.1} {:>8.2} {:>6.2}% {:>7}",
            op.name,
            op.calls,
            op.mean_ns / 1e3,
            op.p50_ns as f64 / 1e3,
            op.p95_ns as f64 / 1e3,
            op.p99_ns as f64 / 1e3,
            op.gops,
            op.gb_per_s,
            op.pct_of_peak_compute,
            match op.bound {
                bitflow_telemetry::OpBound::Compute => "compute",
                bitflow_telemetry::OpBound::Memory => "memory",
                bitflow_telemetry::OpBound::Idle => "idle",
            },
        );
    }
    let total: u64 = snapshot.total_op_ns();
    if let Some(hot) = snapshot.hottest_op() {
        println!(
            "hottest operator: {} ({:.0}% of {:.1} ms total op time)",
            hot.name,
            100.0 * hot.total_ns as f64 / total.max(1) as f64,
            total as f64 / 1e6,
        );
    }
    // One-line roofline summary: where this machine's ceilings are, how
    // close the hottest operator gets, and whether counters were live.
    let m = &snapshot.machine;
    let best = snapshot
        .ops
        .iter()
        .filter(|o| o.bit_ops_per_call > 0)
        .max_by(|a, b| {
            a.pct_of_peak_compute
                .partial_cmp(&b.pct_of_peak_compute)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    println!(
        "roofline: peak {:.0} GOPS ({} b SIMD × {} cores @ {:.2} GHz [{}]), {:.1} GB/s [{}]{}",
        m.peak_gops,
        m.simd_width_bits,
        m.logical_cores,
        m.freq_ghz,
        m.freq_source,
        m.peak_gb_per_s,
        m.bw_source,
        best.map(|o| format!(
            " | best op {} at {:.2}% of compute peak ({})",
            o.name,
            o.pct_of_peak_compute,
            match o.bound {
                bitflow_telemetry::OpBound::Compute => "compute-bound",
                bitflow_telemetry::OpBound::Memory => "memory-bound",
                bitflow_telemetry::OpBound::Idle => "idle",
            }
        ))
        .unwrap_or_default(),
    );

    write_json(
        "telemetry",
        &TelemetryReport {
            snapshot,
            overhead: OverheadReport {
                plain_ns: t_plain.as_nanos() as u64,
                telemetry_ns: t_rec.as_nanos() as u64,
                overhead_pct,
            },
        },
    );
}
