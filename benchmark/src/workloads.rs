//! The four workloads of the untraced run. Each sets up several times
//! (the set-up times feed `setup_s`), runs its timed phases for `--seconds`
//! in total, checks every response against the pinned logits, and returns
//! per-window values of the end-to-end metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::check::{Golden, Pins, DATA_SEEDS};
use crate::fingerprint;
use crate::httpclient::{infer_request, Client};
use crate::openloop::{self, Target, Verdict};
use crate::stats::{self, split_windows, window_quantiles, window_rates, Over};
use crate::sut::{self, Http, Model, ModelKind, Outcome, Pending, Serving, Source};

/// Windows per timed phase. Ten short windows rather than three long ones:
/// host hiccups come in bursts, and the median of many short windows is the
/// rate of an undisturbed window, where every long window would carry its
/// share of the bursts.
pub const WINDOWS: usize = 10;

/// Images per `try_infer_batch` call in `tiered_batch`.
pub const BATCH: usize = 16;

/// Latency budget handed to the server with every request of the traced
/// run's rate ladder.
pub const OPEN_DEADLINE: Duration = Duration::from_millis(50);

/// Calm and overload rates of `tiered_serve_open`, requests per second.
pub const OPEN_CALM_RPS: f64 = 400.0;
/// About twice what two workers sustain on this model.
pub const OPEN_OVERLOAD_RPS: f64 = 2000.0;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// `--seed`: picks the weight-and-input set and the request order.
    pub seed: u64,
    /// `--seconds`: total length of the timed phases.
    pub seconds: f64,
    /// Generator threads, connections, workers and rayon pool size: the
    /// host's `available_parallelism()`.
    pub threads: usize,
}

impl RunCfg {
    /// The pinned weight-and-input set this seed selects.
    pub fn data_seed(&self) -> u64 {
        self.seed % DATA_SEEDS
    }
}

/// Operations attempted, failed, and answered wrongly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed or were refused where none should be.
    pub failed: u64,
    /// Answers that were not bit-identical to the pinned logits.
    pub mismatched: u64,
}

impl Tally {
    /// Counts one checked answer.
    pub fn answer(&mut self, matches: bool) {
        self.attempted += 1;
        if !matches {
            self.mismatched += 1;
        }
    }

    /// Counts one failed operation.
    pub fn failure(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }
}

/// The per-window values of one metric and how the run reduces them.
#[derive(Clone, Debug)]
pub struct Series {
    /// One value per window (or per repetition).
    pub windows: Vec<f64>,
    /// The reduction this workload uses for them.
    pub over: Over,
}

impl Series {
    /// `windows` reduced by `over`.
    pub fn new(windows: Vec<f64>, over: Over) -> Self {
        Self { windows, over }
    }

    /// The value the run reports.
    pub fn value(&self, lower_is_better: bool) -> f64 {
        self.over.reduce(&self.windows, lower_is_better)
    }
}

/// The end-to-end metrics of one untraced run.
#[derive(Clone, Debug)]
pub struct E2eResult {
    /// One value per set-up repetition, seconds.
    pub setup_s: Series,
    /// Per-window median latency, ms.
    pub latency_p50_ms: Series,
    /// Per-window completions per second.
    pub throughput_per_s: Series,
    /// Outcome counts over set-up warm-ups and timed phases.
    pub tally: Tally,
    /// Human-readable lines: what each metric means here, sample counts,
    /// the highest supported tail percentile.
    pub notes: Vec<String>,
}

impl E2eResult {
    /// The series behind the end-to-end metric `name`.
    pub fn series(&self, name: &str) -> Option<&Series> {
        match name {
            "latency_p50_ms" => Some(&self.latency_p50_ms),
            "throughput_per_s" => Some(&self.throughput_per_s),
            "setup_s" => Some(&self.setup_s),
            _ => None,
        }
    }
}

/// A seeded request order: a shuffled cycle over `n` inputs.
pub fn request_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0DDE_2025));
    order
}

/// The inputs of batch `k`: the next [`BATCH`] of the cycled order.
pub fn batch_indices(order: &[usize], k: usize) -> Vec<usize> {
    (0..BATCH)
        .map(|j| order[(k * BATCH + j) % order.len()])
        .collect()
}

/// Runs `setup` `times` times, timing each; returns the times and the last
/// product (earlier ones are dropped before the next starts).
fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    last.map(|t| (secs, t))
        .ok_or_else(|| "no set-up ran".to_string())
}

fn tail_note(what: &str, all_sorted: &[f64], unit: &str) -> String {
    let (label, q) = stats::highest_supported_tail(all_sorted.len());
    format!(
        "{what}: n={} p50={:.4}{unit} {label}={:.4}{unit}",
        all_sorted.len(),
        stats::percentile(all_sorted, 0.5),
        stats::percentile(all_sorted, q),
    )
}

/// Closed loop of one caller on the calling thread: calls `op(k)` back to
/// back for `seconds`, returning (completion time s, latency ms) samples.
fn closed_loop(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<(f64, f64)>, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut k = 0usize;
    loop {
        let t0 = start.elapsed().as_secs_f64();
        if t0 >= seconds {
            return Ok(samples);
        }
        op(k)?;
        let t1 = start.elapsed().as_secs_f64();
        samples.push((t1, (t1 - t0) * 1e3));
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// vgg16_latency
// ---------------------------------------------------------------------------

/// Binary VGG-16, batch 1, one thread, one closed-loop caller.
pub fn vgg16_latency(cfg: &RunCfg, golden: &Golden) -> Result<E2eResult, String> {
    let pins = golden.pins(ModelKind::Vgg16.key(), cfg.data_seed())?;
    let mut tally = Tally::default();
    let source = Source::generate(ModelKind::Vgg16, cfg.data_seed());
    let (setup_s, (model, mut ctx)) = repeat_setup(5, || {
        let model = source.compile()?;
        let mut ctx = model.new_context(false)?;
        for i in 0..2 {
            tally.answer(pins.matches(i, &model.infer(&mut ctx, i)?));
        }
        Ok((model, ctx))
    })?;
    drop(source);
    let order = request_order(cfg.seed, model.input_count());
    let samples = closed_loop(cfg.seconds, |k| {
        let i = order[k % order.len()];
        let logits = model.infer(&mut ctx, i)?;
        tally.answer(pins.matches(i, &logits));
        Ok(())
    })?;
    let windows = split_windows(&samples, WINDOWS);
    let all = stats::sorted(samples.iter().map(|s| s.1).collect());
    Ok(E2eResult {
        setup_s: Series::new(setup_s, Over::Median),
        latency_p50_ms: Series::new(window_quantiles(&windows, 0.5), Over::Median),
        throughput_per_s: Series::new(window_rates(&windows, 1.0), Over::Median),
        tally,
        notes: vec![
            "latency_p50_ms = one try_infer, 224x224x3, 1 thread; throughput_per_s = images/s"
                .into(),
            tail_note("infer", &all, "ms"),
        ],
    })
}

// ---------------------------------------------------------------------------
// tiered_batch
// ---------------------------------------------------------------------------

/// `tiered_cnn`, 16 images per `try_infer_batch` call on a pool of
/// `threads` rayon threads.
pub fn tiered_batch(cfg: &RunCfg, golden: &Golden) -> Result<E2eResult, String> {
    let pins = golden.pins(ModelKind::TieredCnn.key(), cfg.data_seed())?;
    let mut tally = Tally::default();
    let order = request_order(cfg.seed, ModelKind::TieredCnn.input_count());
    let run_batch = |model: &Model, k: usize, tally: &mut Tally| {
        let idx = batch_indices(&order, k);
        for (i, r) in idx.iter().zip(model.infer_batch(&idx)) {
            match r {
                Ok(logits) => tally.answer(pins.matches(*i, &logits)),
                Err(_) => tally.failure(),
            }
        }
    };
    let source = Source::generate(ModelKind::TieredCnn, cfg.data_seed());
    sut::with_pool(cfg.threads, || {
        let (setup_s, model) = repeat_setup(15, || {
            let model = source.compile()?;
            for k in 0..3 {
                run_batch(&model, k, &mut tally);
            }
            Ok(model)
        })?;
        let samples = closed_loop(cfg.seconds, |k| {
            run_batch(&model, k, &mut tally);
            Ok(())
        })?;
        let windows = split_windows(&samples, WINDOWS);
        let all = stats::sorted(samples.iter().map(|s| s.1).collect());
        Ok(E2eResult {
            setup_s: Series::new(setup_s, Over::Median),
            latency_p50_ms: Series::new(window_quantiles(&windows, 0.5), Over::Median),
            throughput_per_s: Series::new(window_rates(&windows, BATCH as f64), Over::Median),
            tally,
            notes: vec![
                format!(
                    "latency_p50_ms = one try_infer_batch of {BATCH} 32x32x3 images on {} threads; throughput_per_s = images/s",
                    cfg.threads
                ),
                tail_note("batch call", &all, "ms"),
            ],
        })
    })
}

// ---------------------------------------------------------------------------
// small_http_closed
// ---------------------------------------------------------------------------

/// A served `small_cnn` behind the loopback HTTP front-end. Field order is
/// drop order: the listener drains before the pool it feeds.
pub struct HttpStack {
    /// The model (for request bodies and pins).
    pub model: Arc<Model>,
    /// The listener's loopback address.
    pub addr: std::net::SocketAddr,
    /// Ready-to-send requests, one per input.
    pub requests: Vec<Vec<u8>>,
    http: Http,
    /// The serving runtime behind the listener.
    pub serving: Serving,
}

impl HttpStack {
    /// Compiles the model, starts `workers` workers and binds the listener.
    pub fn start(source: &Source, workers: usize, telemetry: bool) -> Result<Self, String> {
        let model = Arc::new(source.compile()?);
        if telemetry {
            model.enable_telemetry();
        }
        let serving = Serving::start(&model, workers, telemetry);
        let http = Http::bind(&serving)?;
        let requests = (0..model.input_count())
            .map(|i| infer_request(&model.encode_input(i)))
            .collect();
        Ok(Self {
            model,
            addr: http.addr,
            requests,
            http,
            serving,
        })
    }

    /// Drains the listener, then the pool. A connection that did not drain
    /// in time is an error: the run must leave nothing behind.
    pub fn shutdown(self) -> Result<(), String> {
        if !self.http.shutdown() {
            return Err("HTTP listener did not drain".into());
        }
        self.serving.shutdown()
    }
}

/// (completion time in s since the phase started, latency in ms) samples of
/// a closed-loop phase, and the outcome counts that go with them.
pub type PhaseSamples = (Vec<(f64, f64)>, Tally);

/// One closed-loop HTTP client: back-to-back requests for `seconds`,
/// starting `offset` places into the request order.
pub fn http_client_loop(
    stack: &HttpStack,
    pins: &Pins,
    order: &[usize],
    offset: usize,
    seconds: f64,
) -> Result<PhaseSamples, String> {
    let mut client = Client::connect(stack.addr)?;
    let mut tally = Tally::default();
    let samples = closed_loop(seconds, |k| {
        let i = order[(k + offset) % order.len()];
        let reply = client.roundtrip(&stack.requests[i])?;
        if reply.status == 200 {
            tally.answer(pins.matches_bytes(i, &reply.body));
        } else {
            tally.failure();
        }
        Ok(())
    })?;
    Ok((samples, tally))
}

/// `clients` concurrent closed-loop HTTP clients for `seconds`; samples of
/// all clients merged in completion order.
pub fn http_phase(
    stack: &HttpStack,
    pins: &Pins,
    order: &[usize],
    clients: usize,
    seconds: f64,
) -> Result<PhaseSamples, String> {
    let results: Vec<Result<PhaseSamples, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || http_client_loop(stack, pins, order, c * 7, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("HTTP client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for r in results {
        let (s, t) = r?;
        samples.extend(s);
        tally.add(t);
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok((samples, tally))
}

/// `small_cnn` over loopback HTTP: phase A one keep-alive client (wire
/// latency), phase B `threads` clients (requests per second).
pub fn small_http_closed(cfg: &RunCfg, golden: &Golden) -> Result<E2eResult, String> {
    let pins = golden.pins(ModelKind::SmallCnn.key(), cfg.data_seed())?;
    let order = request_order(cfg.seed, ModelKind::SmallCnn.input_count());
    let mut tally = Tally::default();
    let source = Source::generate(ModelKind::SmallCnn, cfg.data_seed());
    // Every thread of the stack and of the clients starts below, so all of
    // them share the one CPU until the workload returns.
    let pinned = fingerprint::pin_to_one_cpu();
    let (setup_s, stack) = repeat_setup(31, || {
        let stack = HttpStack::start(&source, 2, false)?;
        let mut client = Client::connect(stack.addr)?;
        for &i in order.iter().cycle().take(50) {
            let reply = client.roundtrip(&stack.requests[i])?;
            tally.answer(reply.status == 200 && pins.matches_bytes(i, &reply.body));
        }
        Ok(stack)
    })?;
    let (one, t) = http_phase(&stack, &pins, &order, 1, cfg.seconds / 2.0)?;
    tally.add(t);
    let (many, t) = http_phase(&stack, &pins, &order, cfg.threads, cfg.seconds / 2.0)?;
    tally.add(t);
    let exec_p50_us = stack.serving.stats().exec_p50_us;
    stack.shutdown()?;
    let wire = stats::sorted(one.iter().map(|s| s.1 * 1e3).collect());
    Ok(E2eResult {
        setup_s: Series::new(setup_s, Over::Median),
        latency_p50_ms: Series::new(
            window_quantiles(&split_windows(&one, WINDOWS), 0.5),
            Over::Best,
        ),
        throughput_per_s: Series::new(
            window_rates(&split_windows(&many, WINDOWS), 1.0),
            Over::Best,
        ),
        tally,
        notes: vec![
            format!(
                "latency_p50_ms = wire time of one POST /v1/infer, 1 keep-alive client; throughput_per_s = 200s/s with {} clients; all threads on one CPU: {}",
                cfg.threads,
                pinned.is_some()
            ),
            tail_note("wire (1 client)", &wire, "us"),
            format!("server-side exec p50 = {exec_p50_us:.1}us (kernels' share of the wire time)"),
        ],
    })
}

// ---------------------------------------------------------------------------
// tiered_serve_open
// ---------------------------------------------------------------------------

/// The open-loop target: non-blocking submits into a `bitflow-serve`
/// server, answers checked against the pins.
pub struct ServeTarget<'a> {
    /// The server.
    pub serving: &'a Serving,
    /// Pins of the served model.
    pub pins: &'a Pins,
    /// Request order (input index per sequence number, cycled).
    pub order: &'a [usize],
    /// Latency budget handed to the server with every request.
    pub deadline: Option<Duration>,
}

impl Target for ServeTarget<'_> {
    type Ticket = Pending;

    fn submit(&self, seq: u64) -> Result<Pending, Verdict> {
        let i = self.order[seq as usize % self.order.len()];
        self.serving.submit(i, self.deadline).map_err(|o| match o {
            Outcome::Refused(_) => Verdict::Refused,
            _ => Verdict::Failed,
        })
    }

    fn wait(&self, seq: u64, ticket: Pending) -> Verdict {
        let i = self.order[seq as usize % self.order.len()];
        match ticket.wait() {
            Outcome::Ok(logits) if self.pins.matches(i, &logits) => Verdict::Ok,
            Outcome::Ok(_) => Verdict::Mismatch,
            Outcome::Deadline => Verdict::Deadline,
            Outcome::Refused(_) => Verdict::Refused,
            Outcome::Failed(_) => Verdict::Failed,
        }
    }
}

/// Starts `workers` workers over `model` and warms the pool up.
pub fn start_server(model: &Arc<Model>, workers: usize, pins: &Pins, tally: &mut Tally) -> Serving {
    let serving = Serving::start(model, workers, false);
    for i in 0..20 {
        match serving.submit(i, None).map(Pending::wait) {
            Ok(Outcome::Ok(logits)) => tally.answer(pins.matches(i, &logits)),
            _ => tally.failure(),
        }
    }
    serving
}

/// `tiered_cnn` in process behind `Server::submit`, open loop: a calm rung
/// (latency from due time) and an overload rung (answers per second while
/// the full queue refuses the excess).
///
/// No latency budget is attached here. With one, a single host stall
/// longer than the budget expires a run of queued requests, the server's
/// deadline-miss average crosses its shed threshold, and from then on it
/// refuses everything: nothing completes, so the average never falls
/// again. The traced run's rate ladder does attach the 50 ms budget and
/// reports that behaviour; the gated numbers must not depend on whether
/// the host hiccuped.
pub fn tiered_serve_open(cfg: &RunCfg, golden: &Golden) -> Result<E2eResult, String> {
    let pins = golden.pins(ModelKind::TieredCnn.key(), cfg.data_seed())?;
    let order = request_order(cfg.seed, ModelKind::TieredCnn.input_count());
    let mut tally = Tally::default();
    let source = Source::generate(ModelKind::TieredCnn, cfg.data_seed());
    let (setup_s, serving) = repeat_setup(15, || {
        let model = Arc::new(source.compile()?);
        Ok(start_server(&model, cfg.threads, &pins, &mut tally))
    })?;
    let target = ServeTarget {
        serving: &serving,
        pins: &pins,
        order: &order,
        deadline: None,
    };
    let phase = Duration::from_secs_f64(cfg.seconds / 2.0);
    let calm = openloop::summarise(
        &openloop::run_rung(&target, OPEN_CALM_RPS, phase, 0),
        OPEN_CALM_RPS,
        phase,
        WINDOWS,
    );
    let over = openloop::summarise(
        &openloop::run_rung(&target, OPEN_OVERLOAD_RPS, phase, calm.offered as u64),
        OPEN_OVERLOAD_RPS,
        phase,
        WINDOWS,
    );
    serving.shutdown()?;
    // A refusal is the typed answer a full queue is built to give: under
    // overload by design, and on the calm rung when a host stall makes the
    // generator catch up in a burst longer than the queue. Only untyped
    // failures, drops (no budget was attached) and wrong answers count
    // against the run, unless the calm rung refused more than a tenth of
    // its requests, which a stall does not explain.
    tally.attempted += (calm.offered + over.offered) as u64;
    tally.failed += (calm.deadline + calm.failed + over.deadline + over.failed) as u64;
    if calm.refused * 10 > calm.offered {
        tally.failed += calm.refused as u64;
    }
    tally.mismatched += (calm.mismatched + over.mismatched) as u64;
    Ok(E2eResult {
        setup_s: Series::new(setup_s, Over::Median),
        latency_p50_ms: Series::new(calm.p50_ms.clone(), Over::Best),
        throughput_per_s: Series::new(over.ok_per_s.clone(), Over::Median),
        tally,
        notes: vec![
            format!(
                "latency_p50_ms = due time -> answer at {OPEN_CALM_RPS:.0} rps offered; throughput_per_s = Ok answers/s at {OPEN_OVERLOAD_RPS:.0} rps offered (open loop, {} workers, queue 64, no budget)",
                cfg.threads
            ),
            tail_note(&format!("r{OPEN_CALM_RPS:.0} from due"), &calm.ok_latency_ms, "ms"),
            format!(
                "r{:.0}: within {}ms of due: {:.4} (median window); generator late p50 {:.3}ms max {:.3}ms",
                OPEN_CALM_RPS,
                openloop::SLO_MS,
                stats::median(&calm.within_slo_share),
                stats::median(&calm.late_ms),
                calm.late_ms.last().copied().unwrap_or(0.0),
            ),
            tail_note(&format!("r{OPEN_OVERLOAD_RPS:.0} from due"), &over.ok_latency_ms, "ms"),
            format!(
                "r{:.0}: offered {} ok {} refused {} failed {}; generator late p50 {:.3}ms max {:.3}ms",
                OPEN_OVERLOAD_RPS,
                over.offered,
                over.ok_latency_ms.len(),
                over.refused,
                over.failed + over.deadline,
                stats::median(&over.late_ms),
                over.late_ms.last().copied().unwrap_or(0.0),
            ),
        ],
    })
}

/// A workload's entry point.
pub type Runner = fn(&RunCfg, &Golden) -> Result<E2eResult, String>;

/// The entry point of the workload named `name`.
pub fn runner(name: &str) -> Option<Runner> {
    match name {
        "vgg16_latency" => Some(vgg16_latency),
        "tiered_batch" => Some(tiered_batch),
        "small_http_closed" => Some(small_http_closed),
        "tiered_serve_open" => Some(tiered_serve_open),
        _ => None,
    }
}
