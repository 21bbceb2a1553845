//! Goodput comparison for the serving runtime: continuous micro-batching
//! versus single-request serving, same model, same traffic.
//!
//! ```text
//! cargo run --release -p bitflow-bench --bin goodput [--quick]
//! ```
//!
//! Two phases per configuration:
//!
//! * **Calm** — one request in flight at a time; reports p50/p99 latency.
//!   The batched configuration (default zero coalesce window) must not
//!   regress calm p50: an empty queue serves singletons immediately. The
//!   third configuration prices the opt-in max-wait window, which trades
//!   exactly this latency for fuller batches on sparse bursty traffic.
//! * **Saturation** — every request submitted up front with a deadline;
//!   goodput is deadline-met completions per second of wall time. This is
//!   where coalescing pays: one pop/wake/dispatch per batch instead of
//!   per request.
//!
//! Appends one compact-JSON line to `results/history/goodput.jsonl`
//! (`BITFLOW_RESULTS_DIR` moves it) and prints a comparison table. The
//! binary is informational — it exits 0 unless the runtime itself fails —
//! but it warns loudly when batching regresses calm p50 by more than 2x.

use bitflow_bench::{quick_mode, results_dir};
use bitflow_graph::models::small_cnn;
use bitflow_graph::{CompiledModel, NetworkWeights};
use bitflow_serve::{BreakerConfig, Server, ServerConfig, ShedPolicy};
use bitflow_telemetry::SCHEMA_VERSION;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DISTINCT_INPUTS: usize = 16;

#[derive(Serialize)]
struct PhaseStats {
    calm_p50_ns: u64,
    calm_p99_ns: u64,
    sat_wall_ms: u64,
    sat_completed: u64,
    sat_expired: u64,
    goodput_rps: f64,
}

#[derive(Serialize)]
struct GoodputRun {
    schema_version: u64,
    quick: bool,
    workers: usize,
    max_batch: usize,
    calm_requests: usize,
    sat_requests: usize,
    unbatched: PhaseStats,
    batched: PhaseStats,
    windowed: PhaseStats,
}

fn model() -> (Arc<CompiledModel>, Vec<Tensor>) {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let inputs = (0..DISTINCT_INPUTS)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    (
        Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles")),
        inputs,
    )
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn run_config(
    model: &Arc<CompiledModel>,
    inputs: &[Tensor],
    max_batch: usize,
    coalesce_window: Duration,
    calm_n: usize,
    sat_n: usize,
    deadline: Duration,
) -> PhaseStats {
    let server = Server::start(
        Arc::clone(model),
        ServerConfig {
            workers: 2,
            queue_capacity: sat_n.max(1),
            shed_policy: ShedPolicy::DeadlineAware,
            max_batch,
            coalesce_window,
            breaker: BreakerConfig {
                fault_threshold: u32::MAX,
                cooldown: Duration::from_millis(1),
            },
            chaos: None,
            default_deadline: None,
            recorder: None,
            ..ServerConfig::default()
        },
    );

    // Calm phase: one request in flight, so every measurement is pure
    // serving latency (queueing excluded by construction).
    let mut calm_ns: Vec<u64> = Vec::with_capacity(calm_n);
    for i in 0..calm_n {
        let started = Instant::now();
        let handle = server
            .submit(inputs[i % DISTINCT_INPUTS].clone())
            .expect("calm submit rejected with an empty queue");
        handle.wait().expect("calm request failed");
        calm_ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    calm_ns.sort_unstable();

    // Saturation phase: the whole batch submitted up front, all with the
    // same deadline budget; goodput is what resolves in time.
    let started = Instant::now();
    let handles: Vec<_> = (0..sat_n)
        .map(|i| {
            server
                .submit_with_deadline(inputs[i % DISTINCT_INPUTS].clone(), deadline)
                .expect("saturation submit rejected below queue capacity")
        })
        .collect();
    let mut completed = 0u64;
    let mut expired = 0u64;
    for handle in handles {
        match handle.wait() {
            Ok(_) => completed += 1,
            Err(bitflow_graph::BitFlowError::DeadlineExceeded) => expired += 1,
            Err(e) => panic!("saturation request failed: {e}"),
        }
    }
    let wall = started.elapsed();
    drop(server.shutdown());

    PhaseStats {
        calm_p50_ns: percentile(&calm_ns, 0.50),
        calm_p99_ns: percentile(&calm_ns, 0.99),
        sat_wall_ms: u64::try_from(wall.as_millis()).unwrap_or(u64::MAX),
        sat_completed: completed,
        sat_expired: expired,
        goodput_rps: completed as f64 / wall.as_secs_f64().max(1e-9),
    }
}

fn append_history(run: &GoodputRun) -> std::io::Result<std::path::PathBuf> {
    let dir = results_dir().join("history");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("goodput.jsonl");
    let line = serde_json::to_string(run)
        .map_err(|e| std::io::Error::other(format!("serialize goodput line: {e}")))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{line}")?;
    Ok(path)
}

fn main() {
    let quick = quick_mode();
    let (calm_n, sat_n) = if quick { (50, 400) } else { (200, 2000) };
    let deadline = Duration::from_millis(if quick { 250 } else { 500 });
    let max_batch = 8;
    let (model, inputs) = model();
    eprintln!(
        "[goodput] {} mode: {calm_n} calm + {sat_n} saturated requests per configuration…",
        if quick { "quick" } else { "full" }
    );

    let unbatched = run_config(&model, &inputs, 1, Duration::ZERO, calm_n, sat_n, deadline);
    let batched = run_config(
        &model,
        &inputs,
        max_batch,
        Duration::ZERO,
        calm_n,
        sat_n,
        deadline,
    );
    let windowed = run_config(
        &model,
        &inputs,
        max_batch,
        Duration::from_micros(100),
        calm_n,
        sat_n,
        deadline,
    );

    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "config", "calm p50", "calm p99", "completed", "expired", "goodput"
    );
    for (name, s) in [
        ("unbatched", &unbatched),
        ("batched", &batched),
        ("+window", &windowed),
    ] {
        println!(
            "{:<12} {:>10}us {:>10}us {:>10} {:>10} {:>9.0}rps",
            name,
            s.calm_p50_ns / 1_000,
            s.calm_p99_ns / 1_000,
            s.sat_completed,
            s.sat_expired,
            s.goodput_rps
        );
    }
    let speedup = batched.goodput_rps / unbatched.goodput_rps.max(1e-9);
    println!("goodput at saturation: batched is {speedup:.2}x unbatched");
    if batched.calm_p50_ns > unbatched.calm_p50_ns.saturating_mul(2) {
        eprintln!(
            "WARNING: batched calm p50 ({}us) is more than 2x the unbatched p50 ({}us)",
            batched.calm_p50_ns / 1_000,
            unbatched.calm_p50_ns / 1_000
        );
    }

    let run = GoodputRun {
        schema_version: SCHEMA_VERSION as u64,
        quick,
        workers: 2,
        max_batch,
        calm_requests: calm_n,
        sat_requests: sat_n,
        unbatched,
        batched,
        windowed,
    };
    match append_history(&run) {
        Ok(path) => eprintln!("[history appended to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot append history: {e}"),
    }
}
