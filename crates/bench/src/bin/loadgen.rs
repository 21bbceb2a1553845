//! Load-to-failure harness for the HTTP front-end (`bitflow-net`).
//!
//! ```text
//! cargo run --release -p bitflow-bench --bin loadgen [--quick]
//! ```
//!
//! Real TCP clients drive `POST /v1/infer` against a loopback listener:
//!
//! * **Closed loop** — a fixed client pool sends back-to-back keep-alive
//!   requests; the sustained completion rate is the capacity probe that
//!   anchors the sweep.
//! * **Open loop** — offered load is swept across fractions of the probed
//!   capacity, deliberately past saturation (up to 1.5×). Each sender
//!   follows a fixed schedule regardless of completions, so queueing
//!   delay shows up as latency instead of hiding as back-pressure. Per
//!   point: offered vs achieved rps, rejections, p50/p99 of the 200s.
//! * **SLO capacity** — the highest achieved rps among sweep points whose
//!   p99 stayed within the 10 ms SLO. This is the headline number, and
//!   the gated one.
//!
//! Every run appends one compact-JSON line (`LoadRun`) to
//! `results/history/load.jsonl`. The gate compares `slo_capacity_rps`
//! against `results/load_baseline.json` — re-blessed when missing, when
//! the machine fingerprint or mode changed, or under `BITFLOW_BLESS=1` —
//! and exits non-zero when capacity dropped more than 30%.
//! `BITFLOW_REGRESS_INJECT="slo_capacity:2.0"` (or a bare factor)
//! divides the measured capacity — a synthetic regression proving the
//! gate fires.

use bitflow_bench::regress::Injection;
use bitflow_bench::{quick_mode, results_dir};
use bitflow_graph::models::small_cnn;
use bitflow_graph::{CompiledModel, NetworkWeights};
use bitflow_net::{NetConfig, NetServer};
use bitflow_serve::{BreakerConfig, Server, ServerConfig, ShedPolicy};
use bitflow_telemetry::{roofline, SCHEMA_VERSION};
use bitflow_tensor::io::encode_tensor;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DISTINCT_INPUTS: usize = 16;
/// The latency SLO the capacity number is conditioned on.
const SLO_P99_MS: u64 = 10;
/// Capacity may drop this far (fraction) before the gate fires. Wider
/// than the 15% operator gate: end-to-end rps on a loopback socket stack
/// carries scheduler and TCP noise that per-op medians do not. Quick
/// mode measures over windows 4× shorter, so back-to-back runs have been
/// observed ~30% apart on a shared host — its gate opens up accordingly
/// (baselines never cross modes; the fingerprint embeds `quick`).
const CAPACITY_DROP_THRESHOLD: f64 = 0.30;
const CAPACITY_DROP_THRESHOLD_QUICK: f64 = 0.50;

fn drop_threshold(quick: bool) -> f64 {
    if quick {
        CAPACITY_DROP_THRESHOLD_QUICK
    } else {
        CAPACITY_DROP_THRESHOLD
    }
}
/// Offered-load fractions of the probed closed-loop capacity; the tail
/// is deliberately past saturation.
const SWEEP_FRACTIONS: [f64; 7] = [0.25, 0.50, 0.75, 0.90, 1.00, 1.25, 1.50];

/// One point of the offered-load sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LoadPoint {
    /// Scheduled request rate, requests/second.
    offered_rps: f64,
    /// Completed 200s per second of wall time (goodput).
    achieved_rps: f64,
    /// Completed 200 responses.
    ok: u64,
    /// Typed admission rejections (429/503 on the wire).
    rejected: u64,
    /// Anything else: 5xx, timeouts, broken connections.
    errors: u64,
    /// Median latency of the 200s, microseconds.
    p50_us: u64,
    /// p99 latency of the 200s, microseconds.
    p99_us: u64,
}

/// One appended line of `results/history/load.jsonl`, and the baseline
/// format of `results/load_baseline.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LoadRun {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    schema_version: u32,
    /// Unix timestamp (seconds) the run finished.
    timestamp_unix: u64,
    /// Quick (shrunken) mode.
    quick: bool,
    /// ISA features of the machine (fingerprint component).
    features: String,
    /// Logical core count (fingerprint component).
    logical_cores: u64,
    /// Serving workers behind the listener.
    workers: usize,
    /// Concurrent load-generating clients.
    clients: usize,
    /// The p99 SLO the capacity is conditioned on, milliseconds.
    slo_p99_ms: u64,
    /// Sustained closed-loop completion rate (the sweep anchor), rps.
    closed_loop_rps: f64,
    /// The offered-load sweep, in offered-rate order.
    points: Vec<LoadPoint>,
    /// Max achieved rps among points meeting the SLO — the gated number.
    slo_capacity_rps: f64,
}

impl LoadRun {
    /// Same identity rule as the operator gate: features + core count,
    /// frequency excluded.
    fn fingerprint(&self) -> String {
        format!("{}/{}c", self.features, self.logical_cores)
    }
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

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Reads one full HTTP response; `None` on a dead connection. Returns
/// the status and whether the server asked to close.
fn read_response(stream: &mut TcpStream) -> Option<(u16, bool)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head.split("\r\n").next()?.split(' ').nth(1)?.parse().ok()?;
    let mut close = false;
    let mut content_length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim().to_ascii_lowercase();
            let v = v.trim();
            if k == "content-length" {
                content_length = v.parse().unwrap_or(0);
            } else if k == "connection" && v.eq_ignore_ascii_case("close") {
                close = true;
            }
        }
    }
    let mut have = buf.len() - head_end;
    while have < content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => have += n,
        }
    }
    Some((status, close))
}

/// One load-generating client: sends its stripe of the schedule over a
/// keep-alive connection (reconnecting as needed), returns
/// (latencies_ns_of_200s, rejected, errors).
#[allow(clippy::too_many_arguments)]
fn client_thread(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    stripe: Vec<usize>,
    start: Instant,
    interval: Option<Duration>,
) -> (Vec<u64>, u64, u64) {
    let mut latencies = Vec::with_capacity(stripe.len());
    let mut rejected = 0u64;
    let mut errors = 0u64;
    let mut conn: Option<TcpStream> = None;
    for (k, &req_idx) in stripe.iter().enumerate() {
        // Open loop: request k of this stripe fires at its scheduled
        // instant whether or not the previous one finished. (A blocked
        // thread can't truly overlap, but it never sleeps while behind
        // schedule, which is the property the sweep needs.)
        if let Some(interval) = interval {
            let due = start + interval * u32::try_from(k).unwrap_or(u32::MAX);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let stream = match conn.take() {
            Some(s) => s,
            None => match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                    s
                }
                Err(_) => {
                    errors += 1;
                    continue;
                }
            },
        };
        let mut stream = stream;
        let body = &requests[req_idx % requests.len()];
        let t0 = Instant::now();
        if stream.write_all(body).is_err() {
            errors += 1;
            continue; // reconnect next iteration
        }
        match read_response(&mut stream) {
            Some((200, close)) => {
                latencies.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                if !close {
                    conn = Some(stream);
                }
            }
            Some((429 | 503, close)) => {
                rejected += 1;
                if !close {
                    conn = Some(stream);
                }
            }
            Some((_, close)) => {
                errors += 1;
                if !close {
                    conn = Some(stream);
                }
            }
            None => errors += 1,
        }
    }
    (latencies, rejected, errors)
}

/// Runs `n` requests across `clients` threads at `offered` rps
/// (`None` = closed loop, as fast as completions allow).
fn run_phase(
    addr: SocketAddr,
    requests: &Arc<Vec<Vec<u8>>>,
    clients: usize,
    n: usize,
    offered: Option<f64>,
) -> LoadPoint {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let requests = Arc::clone(requests);
            let stripe: Vec<usize> = (t..n).step_by(clients).collect();
            // Each thread paces its own stripe: thread-local interval =
            // clients / offered, staggered by the thread index.
            let interval = offered.map(|rps| Duration::from_secs_f64(clients as f64 / rps));
            let stagger = offered.map_or(Duration::ZERO, |rps| {
                Duration::from_secs_f64(t as f64 / rps)
            });
            std::thread::spawn(move || {
                client_thread(addr, &requests, stripe, start + stagger, interval)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(n);
    let mut rejected = 0u64;
    let mut errors = 0u64;
    for handle in handles {
        let (lat, rej, err) = handle.join().expect("client thread");
        latencies.extend(lat);
        rejected += rej;
        errors += err;
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    LoadPoint {
        offered_rps: offered.unwrap_or(n as f64 / wall),
        achieved_rps: latencies.len() as f64 / wall,
        ok: latencies.len() as u64,
        rejected,
        errors,
        p50_us: percentile(&latencies, 0.50) / 1_000,
        p99_us: percentile(&latencies, 0.99) / 1_000,
    }
}

fn append_history(run: &LoadRun) -> std::io::Result<std::path::PathBuf> {
    let dir = results_dir().join("history");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("load.jsonl");
    let line = serde_json::to_string(run)
        .map_err(|e| std::io::Error::other(format!("serialize load line: {e}")))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{line}")?;
    Ok(path)
}

fn baseline_path() -> std::path::PathBuf {
    results_dir().join("load_baseline.json")
}

fn load_baseline() -> Option<LoadRun> {
    let text = std::fs::read_to_string(baseline_path()).ok()?;
    serde_json::from_str(&text).ok()
}

fn needs_bless(base: Option<&LoadRun>, cur: &LoadRun) -> Option<&'static str> {
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

fn main() {
    let quick = quick_mode();
    let (probe_n, point_n_cap, clients, workers) = if quick {
        (400, 400, 4, 2)
    } else {
        (2000, 2000, 4, 2)
    };
    let (model, inputs) = model();
    let requests: Arc<Vec<Vec<u8>>> = Arc::new(
        inputs
            .iter()
            .map(|input| {
                let body = encode_tensor(input).to_vec();
                let mut req = format!(
                    "POST /v1/infer HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                req.extend_from_slice(&body);
                req
            })
            .collect(),
    );

    let server = Arc::new(Server::start(
        Arc::clone(&model),
        ServerConfig {
            workers,
            queue_capacity: 64,
            shed_policy: ShedPolicy::DeadlineAware,
            max_batch: 8,
            coalesce_window: Duration::ZERO,
            breaker: BreakerConfig {
                fault_threshold: u32::MAX,
                cooldown: Duration::from_millis(1),
            },
            chaos: None,
            default_deadline: None,
            recorder: None,
            ..ServerConfig::default()
        },
    ));
    let net = NetServer::bind(Arc::clone(&server), NetConfig::default()).expect("bind loopback");
    let addr = net.local_addr();
    eprintln!(
        "[loadgen] {} mode: {clients} clients -> {addr} ({workers} workers)",
        if quick { "quick" } else { "full" }
    );

    // Closed-loop capacity probe (with a small warmup to settle caches,
    // the EWMA, and the frequency governor).
    let _ = run_phase(addr, &requests, clients, probe_n / 4, None);
    let closed = run_phase(addr, &requests, clients, probe_n, None);
    eprintln!(
        "[loadgen] closed loop: {:.0} rps (p99 {} us)",
        closed.achieved_rps, closed.p99_us
    );

    // Open-loop sweep past saturation.
    let mut points = Vec::with_capacity(SWEEP_FRACTIONS.len());
    for f in SWEEP_FRACTIONS {
        let offered = (closed.achieved_rps * f).max(1.0);
        // Enough requests for roughly a one-second window at this rate
        // (quarter-second in quick mode), bounded for pathological rates.
        let n = ((offered * if quick { 0.25 } else { 1.0 }) as usize).clamp(40, point_n_cap);
        let point = run_phase(addr, &requests, clients, n, Some(offered));
        eprintln!(
            "[loadgen] offered {:>7.0} rps -> achieved {:>7.0} rps, ok {} rej {} err {}, p99 {} us",
            point.offered_rps,
            point.achieved_rps,
            point.ok,
            point.rejected,
            point.errors,
            point.p99_us
        );
        points.push(point);
    }
    assert!(
        net.shutdown(),
        "listener must drain cleanly after the sweep"
    );

    let mut slo_capacity_rps = points
        .iter()
        .filter(|p| p.p99_us <= SLO_P99_MS * 1_000 && p.ok > 0)
        .map(|p| p.achieved_rps)
        .fold(0.0f64, f64::max);
    if let Some(injection) = Injection::from_env() {
        let factor = injection.factor_for("slo_capacity");
        if factor != 1.0 {
            eprintln!("[loadgen] INJECTING capacity regression: /{factor}");
            slo_capacity_rps /= factor;
        }
    }

    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>9}",
        "offered", "achieved", "ok", "rejected", "errors", "p50", "p99"
    );
    for p in &points {
        println!(
            "{:<10.0} {:>10.0} {:>10} {:>8} {:>8} {:>6}us {:>7}us",
            p.offered_rps, p.achieved_rps, p.ok, p.rejected, p.errors, p.p50_us, p.p99_us
        );
    }
    println!("max goodput at p99 <= {SLO_P99_MS} ms SLO: {slo_capacity_rps:.0} rps");

    let roof = roofline::current();
    let machine = roof.to_snapshot();
    let run = LoadRun {
        schema_version: SCHEMA_VERSION,
        timestamp_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        features: machine.features,
        logical_cores: machine.logical_cores,
        workers,
        clients,
        slo_p99_ms: SLO_P99_MS,
        closed_loop_rps: closed.achieved_rps,
        points,
        slo_capacity_rps,
    };
    match append_history(&run) {
        Ok(path) => eprintln!("[history appended to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot append history: {e}"),
    }

    // The capacity gate.
    let baseline = load_baseline();
    if let Some(reason) = needs_bless(baseline.as_ref(), &run) {
        match serde_json::to_string(&run) {
            Ok(text) => {
                if let Err(e) = std::fs::create_dir_all(results_dir())
                    .and_then(|()| std::fs::write(baseline_path(), text + "\n"))
                {
                    eprintln!("warning: cannot write baseline: {e}");
                } else {
                    eprintln!(
                        "[loadgen] baseline re-blessed ({reason}): {}",
                        baseline_path().display()
                    );
                }
            }
            Err(e) => eprintln!("warning: cannot serialize baseline: {e}"),
        }
        return;
    }
    let base = baseline.unwrap_or_else(|| unreachable!("needs_bless returned None"));
    let threshold = drop_threshold(quick);
    let floor = base.slo_capacity_rps * (1.0 - threshold);
    if run.slo_capacity_rps < floor {
        eprintln!(
            "REGRESSION: SLO capacity {:.0} rps fell below {:.0} rps \
             (baseline {:.0} rps - {:.0}%)",
            run.slo_capacity_rps,
            floor,
            base.slo_capacity_rps,
            threshold * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "capacity gate: {:.0} rps vs baseline {:.0} rps — ok",
        run.slo_capacity_rps, base.slo_capacity_rps
    );
}
