//! Chaos soak for the serving runtime (`bitflow-serve`).
//!
//! One `Server` over a shared `small_cnn` model takes a few thousand
//! requests with a mixed deadline profile while seed-deterministic chaos
//! injects slow operators, panicking operators, queue stalls, and worker
//! kills. The assertions are the serving contract:
//!
//! * **No deadlock, no lost request** — every submission resolves exactly
//!   once (admission rejections resolve at `submit`; admitted requests
//!   resolve through their handle, polled with a watchdog timeout so a
//!   hang fails fast instead of wedging the suite).
//! * **Counters conserve** — the gauge totals equal the per-request
//!   outcomes tallied caller-side, and the `ServeSnapshot` conservation
//!   law holds: `submitted == accepted + rejected_*` and
//!   `accepted == completed + failed + shed_deadline + deadline_missed +
//!   cancelled`, with the queue empty after drain.
//! * **Successes are bit-identical to serial inference** — panics,
//!   cancellations, context replacement, and worker restarts must never
//!   perturb the logits of the requests that do complete.
//!
//! Two kinds of client drive both chaos soaks at once: the main thread
//! `submit`s and collects handles (the open-loop shape), and a few
//! blocking clients go through `ModelClient::call`, which serves a request
//! on its calling thread whenever the queue is empty and a worker is
//! parked — so the stalls, kills, panics, cancellations and the hot swap
//! land on the caller path too, under the same seeds and the same
//! assertions.
//!
//! The multi-model variant runs the same contract per tenant: two models
//! behind one server (one quota-metered), continuous micro-batching on,
//! and a mid-stream hot swap to bit-identical weights — each tenant's
//! gauges must conserve independently and every success must match that
//! tenant's oracle.
//!
//! Sizing: `BITFLOW_QUICK=1` runs a few hundred requests (CI gate);
//! `BITFLOW_SOAK_REQUESTS=N` overrides; the default sits in between. The
//! chaos seed comes from `BITFLOW_CHAOS` when set, so a failing seed can
//! be replayed verbatim.

use bitflow::prelude::*;
use bitflow_graph::BitFlowError;
use bitflow_serve::{ModelClient, ResponseHandle};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct inputs cycled over the request stream (request `i` sends
/// input `i % DISTINCT_INPUTS`, so each success has a precomputed oracle).
const DISTINCT_INPUTS: usize = 16;

fn soak_requests() -> usize {
    if let Ok(v) = std::env::var("BITFLOW_SOAK_REQUESTS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    if std::env::var_os("BITFLOW_QUICK").is_some_and(|v| v == "1") {
        300
    } else {
        1500
    }
}

fn compiled_small_cnn(seed: u64) -> (Arc<CompiledModel>, Vec<Tensor>) {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let inputs: Vec<Tensor> = (0..DISTINCT_INPUTS)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    (Arc::new(model), inputs)
}

/// Waits for a handle with a watchdog: a request that does not resolve
/// within `timeout` is a deadlock, reported as a failure rather than a
/// hung test process.
fn wait_with_watchdog(
    handle: &ResponseHandle,
    timeout: Duration,
) -> Result<Vec<f32>, BitFlowError> {
    let start = Instant::now();
    loop {
        if let Some(result) = handle.try_wait() {
            return result;
        }
        assert!(
            start.elapsed() < timeout,
            "request {} did not resolve within {timeout:?}: serving runtime deadlocked",
            handle.id()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Per-request outcomes tallied caller-side, to be reconciled against the
/// server's gauges.
#[derive(Default)]
struct Tally {
    submitted: u64,
    completed: u64,
    failed: u64,
    deadline: u64, // shed before running or cut mid-run: same client error
    cancelled: u64,
    rejected: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.deadline += other.deadline;
        self.cancelled += other.cancelled;
        self.rejected += other.rejected;
    }

    /// Books one resolved request, checking a success against its oracle.
    fn resolved(&mut self, i: usize, result: Result<Vec<f32>, BitFlowError>, oracle: &[Vec<f32>]) {
        match result {
            Ok(logits) => {
                assert_eq!(
                    logits,
                    oracle[i % DISTINCT_INPUTS],
                    "request {i} completed with logits differing from serial inference"
                );
                self.completed += 1;
            }
            Err(BitFlowError::DeadlineExceeded) => self.deadline += 1,
            Err(BitFlowError::Cancelled) => self.cancelled += 1,
            Err(BitFlowError::Internal(msg)) => {
                assert!(
                    msg.contains("chaos"),
                    "request {i}: only injected panics may fail here, got: {msg}"
                );
                self.failed += 1;
            }
            Err(other) => panic!("request {i}: unexpected typed error {other}"),
        }
    }
}

/// The soaks' deadline profile: most requests unbounded, some generous,
/// some hopeless (they exercise shedding and mid-run expiry).
fn budget_for(i: usize) -> Option<Duration> {
    match i % 10 {
        9 => Some(Duration::from_micros(50)),
        7 | 8 => Some(Duration::from_millis(500)),
        _ => None,
    }
}

/// Blocking clients per tenant beside the submitting main thread, and the
/// share of the submitter's request count each of them sends.
const BLOCKING_CLIENTS: usize = 3;
const BLOCKING_SHARE: usize = 8;

/// One blocking client: requests `first..first + count` through `call`,
/// with the submitter's deadline profile and its slice of client
/// cancellations (the token is cancelled before the call — nobody else
/// holds it once the thread blocks — so those arrive dead).
fn blocking_client(
    client: &ModelClient<'_>,
    inputs: &[Tensor],
    oracle: &[Vec<f32>],
    first: usize,
    count: usize,
) -> Tally {
    let mut tally = Tally::default();
    for i in first..first + count {
        let token = budget_for(i).map_or_else(CancelToken::new, CancelToken::with_budget);
        if i % 37 == 0 {
            token.cancel();
        }
        tally.submitted += 1;
        match client.call(Submission {
            token: Some(token),
            ..Submission::new(inputs[i % DISTINCT_INPUTS].clone())
        }) {
            Err(BitFlowError::Rejected(_)) => tally.rejected += 1,
            result => tally.resolved(i, result, oracle),
        }
    }
    tally
}

#[test]
fn chaos_soak_conserves_every_request_and_preserves_logits() {
    let n = soak_requests();
    let (model, inputs) = compiled_small_cnn(42);

    // Serial oracle, computed before any chaos hook is installed on the
    // model (the hook only fires on serving threads, but computing the
    // oracle first also keeps this test meaningful if that ever changes).
    let mut oracle_ctx = model.try_new_context().expect("context allocates");
    let oracle: Vec<Vec<f32>> = inputs
        .iter()
        .map(|img| model.try_infer(&mut oracle_ctx, img).expect("inference"))
        .collect();

    let chaos = ChaosConfig::from_env().unwrap_or_else(|| ChaosConfig::with_seed(0xB17F));
    let server = Server::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 4,
            queue_capacity: 32,
            shed_policy: ShedPolicy::DeadlineAware,
            // Single-request serving: the batched path has its own soak
            // (`multi_model_batched_chaos_soak_conserves_per_model`).
            max_batch: 1,
            coalesce_window: Duration::ZERO,
            breaker: BreakerConfig {
                // High threshold: the soak wants sustained admission, not
                // a shedding wall; the breaker has its own unit tests.
                fault_threshold: 64,
                cooldown: Duration::from_millis(10),
            },
            chaos: Some(chaos),
            default_deadline: None,
            recorder: None,
            ..ServerConfig::default()
        },
    );

    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let blocking: Vec<_> = (0..BLOCKING_CLIENTS)
            .map(|t| {
                let (server, inputs, oracle) = (&server, &inputs, &oracle);
                let count = n / BLOCKING_SHARE;
                s.spawn(move || {
                    blocking_client(&server.default_client(), inputs, oracle, t * count, count)
                })
            })
            .collect();

        let mut pending: Vec<(usize, ResponseHandle)> = Vec::with_capacity(n);
        for i in 0..n {
            // Pace the submitter in bursts: an unthrottled loop finishes in
            // microseconds and admits only ~2 queue-fulls of work, so almost
            // no request id ever reaches the chaos streams. Bursts of 8 keep
            // the queue pressured (overload still observed) while hundreds of
            // requests actually run.
            if i % 8 == 7 {
                std::thread::sleep(Duration::from_micros(100));
            }
            let input = inputs[i % DISTINCT_INPUTS].clone();
            tally.submitted += 1;
            let submitted = match budget_for(i) {
                Some(budget) => server.submit_with_deadline(input, budget),
                None => server.submit(input),
            };
            match submitted {
                Ok(handle) => {
                    // A slice of explicit client cancellations.
                    if i % 37 == 0 {
                        handle.cancel();
                    }
                    pending.push((i, handle));
                }
                Err(_reason) => tally.rejected += 1,
            }
        }

        for (i, handle) in pending {
            let result = wait_with_watchdog(&handle, Duration::from_secs(60));
            tally.resolved(i, result, &oracle);
        }
        for client in blocking {
            tally.add(&client.join().expect("blocking client"));
        }
    });

    let snap = server.shutdown();

    // Caller-side tallies reconcile exactly with the server's gauges.
    assert_eq!(snap.submitted, tally.submitted, "every submission counted");
    assert_eq!(snap.completed, tally.completed);
    assert_eq!(snap.failed, tally.failed);
    assert_eq!(snap.cancelled, tally.cancelled);
    assert_eq!(
        snap.shed_deadline + snap.deadline_missed,
        tally.deadline,
        "deadline outcomes split across shed/missed must sum to the client view"
    );
    assert_eq!(
        snap.rejected_queue_full
            + snap.rejected_shedding
            + snap.rejected_draining
            + snap.govern.rejected_memory,
        tally.rejected
    );

    // The ServeSnapshot conservation law (rejected_* includes the
    // resource governor's memory column).
    assert_eq!(
        snap.submitted,
        snap.accepted
            + snap.rejected_queue_full
            + snap.rejected_shedding
            + snap.rejected_draining
            + snap.govern.rejected_memory
    );
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.shed_deadline + snap.deadline_missed + snap.cancelled
    );
    assert_eq!(snap.queue_depth, 0, "drain leaves the queue empty");

    // All inputs are well-formed, so the only failures are isolated
    // panics — and each one was counted as exactly one worker fault.
    assert_eq!(snap.worker_panics, snap.failed);

    // The soak must actually exercise the machinery it claims to: chaos
    // panics fire at ~2% of requests and the single-threaded submitter
    // outruns the pool, so a healthy run sees faults and overload.
    assert!(snap.completed > 0, "no request completed");
    if n >= 1000 {
        assert!(
            snap.served_on_caller > 0,
            "no blocking client ever found a parked worker: the caller path went unexercised"
        );
        assert!(snap.worker_panics > 0, "chaos panics never fired");
        assert!(
            snap.rejected_queue_full + snap.shed_deadline + snap.deadline_missed > 0,
            "no overload behaviour observed"
        );
    }
}

/// A model compiled from `seed` without fresh inputs (for tenants that
/// share the input set of [`compiled_small_cnn`]).
fn compiled_model_only(seed: u64) -> Arc<CompiledModel> {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles"))
}

/// The multi-tenant, micro-batched variant of the chaos soak: two models
/// behind one server (one quota-metered), mixed-deadline traffic
/// interleaved across them, continuous micro-batching on, and a
/// zero-downtime hot swap to bit-identical replacement weights
/// mid-stream. Each tenant's gauges must obey the conservation law
/// independently, every success must match that tenant's serial oracle,
/// and the coalescer must have formed real batches under saturation.
#[test]
fn multi_model_batched_chaos_soak_conserves_per_model() {
    let n = soak_requests();
    let (model_a, inputs) = compiled_small_cnn(42);
    let model_b = compiled_model_only(7);
    // The hot-swap replacement: same weights as `model_a`, recompiled —
    // logits stay bit-identical, so the oracle survives the swap while
    // the swap machinery (Arc flip under live load) is fully exercised.
    let model_a2 = compiled_small_cnn(42).0;

    let mut ctx_a = model_a.try_new_context().expect("context allocates");
    let mut ctx_b = model_b.try_new_context().expect("context allocates");
    let oracle_a: Vec<Vec<f32>> = inputs
        .iter()
        .map(|i| model_a.try_infer(&mut ctx_a, i).expect("inference"))
        .collect();
    let oracle_b: Vec<Vec<f32>> = inputs
        .iter()
        .map(|i| model_b.try_infer(&mut ctx_b, i).expect("inference"))
        .collect();

    let chaos = ChaosConfig::from_env().unwrap_or_else(|| ChaosConfig::with_seed(0xB17F));
    let mut registry = ModelRegistry::new();
    registry.register("a", Arc::clone(&model_a), None);
    registry.register("b", Arc::clone(&model_b), Some(8));
    let server = Server::start_multi(
        registry,
        ServerConfig {
            workers: 4,
            queue_capacity: 32,
            shed_policy: ShedPolicy::DeadlineAware,
            max_batch: 8,
            coalesce_window: Duration::from_micros(50),
            breaker: BreakerConfig {
                fault_threshold: 64,
                cooldown: Duration::from_millis(10),
            },
            chaos: Some(chaos),
            default_deadline: None,
            recorder: None,
            ..ServerConfig::default()
        },
    );
    let gauges_b = server.client("b").expect("registered").entry().gauges();

    // (model index 0 = a, 1 = b) → caller-side tallies and pending sets.
    let mut tallies = [Tally::default(), Tally::default()];
    std::thread::scope(|s| {
        // Blocking clients on both tenants, for the whole stream: the hot
        // swap below happens under them.
        let blocking: Vec<_> = (0..BLOCKING_CLIENTS * 2)
            .map(|t| {
                let which = t % 2;
                let oracle = if which == 0 { &oracle_a } else { &oracle_b };
                let (server, inputs) = (&server, &inputs);
                let count = n / BLOCKING_SHARE;
                s.spawn(move || {
                    let name = if which == 0 { "a" } else { "b" };
                    let client = server.client(name).expect("registered");
                    let tally = blocking_client(&client, inputs, oracle, t * count, count);
                    (which, tally)
                })
            })
            .collect();

        let mut pending: Vec<(usize, usize, ResponseHandle)> = Vec::with_capacity(n);
        for i in 0..n {
            if i == n / 2 {
                let displaced = server
                    .client("a")
                    .expect("registered")
                    .swap(Arc::clone(&model_a2));
                assert!(
                    Arc::ptr_eq(&displaced, &model_a),
                    "swap must return the model it displaced"
                );
            }
            let which = usize::from(i % 3 == 0); // a, a, b, a, a, b, ...
            let name = if which == 0 { "a" } else { "b" };
            let client = server.client(name).expect("registered");
            let input = inputs[i % DISTINCT_INPUTS].clone();
            let result = client.submit(Submission {
                token: budget_for(i).map(CancelToken::with_budget),
                ..Submission::new(input)
            });
            tallies[which].submitted += 1;
            match result {
                Ok(handle) => {
                    if i % 37 == 0 {
                        handle.cancel();
                    }
                    pending.push((which, i, handle));
                }
                Err(_reason) => tallies[which].rejected += 1,
            }
        }

        for (which, i, handle) in pending {
            let oracle = if which == 0 { &oracle_a } else { &oracle_b };
            let result = wait_with_watchdog(&handle, Duration::from_secs(60));
            tallies[which].resolved(i, result, oracle);
        }
        for client in blocking {
            let (which, tally) = client.join().expect("blocking client");
            tallies[which].add(&tally);
        }
    });

    assert_eq!(
        server.client("a").expect("registered").entry().swaps(),
        1,
        "the mid-stream hot swap must be recorded"
    );
    let snap_a = server.shutdown(); // "a" registered first: the default entry
    let snap_b = gauges_b.snapshot();

    for (which, snap) in [(0usize, &snap_a), (1usize, &snap_b)] {
        let tally = &tallies[which];
        let rejected = snap.rejected_queue_full
            + snap.rejected_shedding
            + snap.rejected_draining
            + snap.rejected_quota
            + snap.govern.rejected_memory;
        assert_eq!(snap.submitted, tally.submitted, "model {which} submitted");
        assert_eq!(snap.completed, tally.completed, "model {which} completed");
        assert_eq!(snap.failed, tally.failed, "model {which} failed");
        assert_eq!(snap.cancelled, tally.cancelled, "model {which} cancelled");
        assert_eq!(
            snap.shed_deadline + snap.deadline_missed,
            tally.deadline,
            "model {which} deadline outcomes"
        );
        assert_eq!(rejected, tally.rejected, "model {which} rejections");
        // The conservation law, independently per tenant.
        assert_eq!(snap.submitted, snap.accepted + rejected, "model {which}");
        assert_eq!(
            snap.accepted,
            snap.completed
                + snap.failed
                + snap.shed_deadline
                + snap.deadline_missed
                + snap.cancelled,
            "model {which} admitted requests all resolved exactly once"
        );
        assert_eq!(snap.worker_panics, snap.failed, "model {which} panics");
        assert!(snap.completed > 0, "model {which} starved");
        assert!(snap.batches > 0, "model {which} never served a batch");
        assert!(
            snap.batch_items >= snap.completed,
            "model {which}: every completed request went through a batch"
        );
    }
    assert_eq!(snap_a.queue_depth, 0, "drain leaves the queue empty");

    if n >= 1000 {
        assert!(
            snap_a.batch_size_max > 1,
            "saturation must coalesce multi-request batches"
        );
        assert!(
            snap_b.rejected_quota > 0,
            "the metered tenant must hit its quota under saturation"
        );
    }
}

/// The same pipeline with chaos off: everything completes, nothing is
/// shed, and the fault counters stay at zero — the chaos soak's control
/// group, guarding against the runtime injecting failures of its own.
#[test]
fn calm_soak_completes_everything() {
    let n = soak_requests().min(500);
    let (model, inputs) = compiled_small_cnn(43);
    let mut oracle_ctx = model.try_new_context().expect("context allocates");
    let oracle: Vec<Vec<f32>> = inputs
        .iter()
        .map(|img| model.try_infer(&mut oracle_ctx, img).expect("inference"))
        .collect();

    let server = Server::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 2,
            queue_capacity: n.max(1),
            ..ServerConfig::default()
        },
    );
    let handles: Vec<(usize, ResponseHandle)> = (0..n)
        .map(|i| {
            let handle = server
                .submit(inputs[i % DISTINCT_INPUTS].clone())
                .unwrap_or_else(|r| panic!("request {i} rejected ({r}) with an unbounded queue"));
            (i, handle)
        })
        .collect();
    for (i, handle) in handles {
        let logits = match wait_with_watchdog(&handle, Duration::from_secs(60)) {
            Ok(l) => l,
            Err(e) => panic!("request {i} failed without chaos: {e}"),
        };
        assert_eq!(logits, oracle[i % DISTINCT_INPUTS], "request {i} diverged");
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, n as u64);
    assert_eq!(snap.accepted, n as u64);
    assert_eq!(
        snap.failed + snap.worker_panics + snap.worker_restarts + snap.breaker_trips,
        0,
        "calm soak must be fault-free"
    );
}
