//! Exhaustion soak for the resource governor (`bitflow-serve`).
//!
//! Two tenants at different priorities share one server while
//! seed-deterministic chaos fails every Nth accounted memory reservation
//! — as if the allocator refused the bytes — and slow/stall chaos keeps
//! the admission queue pressured enough to drive the brownout state
//! machine. The assertions are the governance contract:
//!
//! * **No aborts, ever.** Every injected allocation failure surfaces as a
//!   typed outcome — a `MemoryPressure` rejection at `submit` or a
//!   `ResourceExhausted` request failure — never a process abort, and
//!   `worker_panics` stays at zero (a reservation failure is not a
//!   fault).
//! * **Counters conserve, per tenant, including the new column.** Each
//!   tenant's gauges reconcile exactly with caller-side tallies and obey
//!   `submitted == accepted + rejected_*` with `rejected_memory` in the
//!   sum, and `accepted == completed + failed + shed + missed +
//!   cancelled` after drain.
//! * **Leases balance.** After shutdown the only accounted bytes left per
//!   tenant are its pinned model weights: exactly one live lease, sized
//!   `float_model_bytes + packed_model_bytes`.
//! * **Successes stay bit-identical.** A request that completes under
//!   exhaustion chaos returns the same logits as serial inference.
//! * **Recovery is autonomous.** Once load stops and the queue drains,
//!   polling the degradation state (each poll re-evaluates the signals)
//!   walks the server back to `Normal` without any reset call.
//!
//! The ballast test drives the state machine deterministically: a forced
//! lease pins memory pressure into the brownout band, Low-priority
//! traffic is shed while High-priority traffic still completes, and
//! releasing the ballast recovers `Shed → Brownout → Normal` through the
//! calm-evaluation hysteresis.
//!
//! Sizing: `BITFLOW_QUICK=1` runs a few hundred requests (CI gate);
//! `BITFLOW_SOAK_REQUESTS=N` overrides; the default sits in between.

use bitflow::prelude::*;
use bitflow_graph::BitFlowError;
use bitflow_serve::{DegradationState, GovernorConfig, Priority, ResponseHandle};
use bitflow_telemetry::ServeGauges;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct inputs cycled over the request stream (request `i` sends
/// input `i % DISTINCT_INPUTS`, so each success has a precomputed oracle).
const DISTINCT_INPUTS: usize = 16;

/// Every Nth accounted reservation fails under chaos. Low enough that
/// even the quick gate sees dozens of injected failures.
const ALLOC_FAIL_NTH: u64 = 7;

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
    (
        Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles")),
        inputs,
    )
}

fn compiled_model_only(seed: u64) -> Arc<CompiledModel> {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles"))
}

/// Allocation-failure chaos only: no panics (so `worker_panics` must stay
/// zero) plus a slice of slow ops and pop-stalls to keep the queue deep
/// enough that the brownout signals actually move.
fn exhaustion_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        panic_ppm: 0,
        kill_ppm: 0,
        conn_kill_ppm: 0,
        read_stall_ppm: 0,
        trunc_write_ppm: 0,
        slow_ppm: 20_000,
        stall_ppm: 30_000,
        alloc_fail_nth: ALLOC_FAIL_NTH,
        ..ChaosConfig::with_seed(seed)
    }
}

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

/// Polls the degradation state (each poll re-evaluates the governor's
/// signals) until it reaches `want` or the watchdog expires.
fn poll_until_state(server: &Server, want: DegradationState, timeout: Duration) {
    let start = Instant::now();
    loop {
        let state = server.degradation_state();
        if state == want {
            return;
        }
        assert!(
            start.elapsed() < timeout,
            "governor stuck in {state:?}, expected autonomous return to {want:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Per-request outcomes tallied caller-side, reconciled against gauges.
#[derive(Default)]
struct Tally {
    completed: u64,
    failed: u64,
    rejected: u64,
}

/// The weight bytes a tenant's model pins for the server's lifetime.
fn weight_bytes(model: &CompiledModel) -> u64 {
    (model.float_model_bytes() + model.packed_model_bytes()) as u64
}

#[test]
fn exhaustion_soak_conserves_every_request_and_recovers() {
    let n = soak_requests();
    let (model_hi, inputs) = compiled_small_cnn(42);
    let model_lo = compiled_model_only(7);

    let mut ctx_hi = model_hi.try_new_context().expect("context allocates");
    let mut ctx_lo = model_lo.try_new_context().expect("context allocates");
    let oracle_hi: Vec<Vec<f32>> = inputs
        .iter()
        .map(|i| model_hi.try_infer(&mut ctx_hi, i).expect("inference"))
        .collect();
    let oracle_lo: Vec<Vec<f32>> = inputs
        .iter()
        .map(|i| model_lo.try_infer(&mut ctx_lo, i).expect("inference"))
        .collect();

    let mut registry = ModelRegistry::new();
    registry.register_with_priority("hi", Arc::clone(&model_hi), None, Priority::High);
    registry.register_with_priority("lo", Arc::clone(&model_lo), None, Priority::Low);
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
            chaos: Some(exhaustion_chaos(0xE8A5)),
            govern: GovernorConfig {
                // Generous: steady state fits comfortably, so every
                // memory outcome in this soak is chaos-injected (the
                // budget-refusal path has the ballast test below).
                global_budget: Some(64 << 20),
                tenant_budget: Some(48 << 20),
            },
            ..ServerConfig::default()
        },
    );
    let gauges_lo = server.client("lo").expect("registered").entry().gauges();

    // (tenant index 0 = hi, 1 = lo) → caller-side tallies.
    let mut tallies = [Tally::default(), Tally::default()];
    let mut submitted = [0u64, 0u64];
    let mut pending: Vec<(usize, usize, ResponseHandle)> = Vec::with_capacity(n);
    let mut max_state_seen = DegradationState::Normal;
    for i in 0..n {
        // Unthrottled submission: the single-threaded submitter outruns
        // the batched pool, so the queue saturates and the brownout
        // signals actually move. Sampling the state (itself an
        // evaluation) every few requests records how far they moved.
        if i % 8 == 7 {
            let state = server.degradation_state();
            if state.as_u64() > max_state_seen.as_u64() {
                max_state_seen = state;
            }
        }
        let which = usize::from(i % 3 == 0); // hi, hi, lo, hi, hi, lo, ...
        let name = if which == 0 { "hi" } else { "lo" };
        let client = server.client(name).expect("registered");
        submitted[which] += 1;
        match client.submit(Submission::new(inputs[i % DISTINCT_INPUTS].clone())) {
            Ok(handle) => pending.push((which, i, handle)),
            Err(_reason) => tallies[which].rejected += 1,
        }
    }

    for (which, i, handle) in pending {
        let oracle = if which == 0 { &oracle_hi } else { &oracle_lo };
        let tally = &mut tallies[which];
        match wait_with_watchdog(&handle, Duration::from_secs(60)) {
            Ok(logits) => {
                assert_eq!(
                    logits,
                    oracle[i % DISTINCT_INPUTS],
                    "request {i} (tenant {which}) completed under exhaustion chaos \
                     with logits differing from serial inference"
                );
                tally.completed += 1;
            }
            // An injected allocation failure (or a budget refusal) while
            // building the worker's inference context fails the one
            // request that needed it; the worker lives.
            Err(BitFlowError::ResourceExhausted { .. }) | Err(BitFlowError::Rejected(_)) => {
                tally.failed += 1;
            }
            Err(other) => panic!("request {i}: unexpected typed error {other}"),
        }
    }

    // Load has stopped and the queue is drained: polling the state must
    // walk the governor back to Normal on its own.
    poll_until_state(&server, DegradationState::Normal, Duration::from_secs(10));

    // `shutdown` snapshots the default entry ("hi") after workers join
    // but before the server value drops, so hi still holds its weight
    // lease; `snap_lo` is read after the drop, when every lease —
    // weights included — must have been returned.
    let snap_hi = server.shutdown(); // "hi" registered first: the default entry
    let snap_lo = gauges_lo.snapshot();

    for (which, snap) in [(0usize, &snap_hi), (1usize, &snap_lo)] {
        let tally = &tallies[which];
        let rejected = snap.rejected_queue_full
            + snap.rejected_shedding
            + snap.rejected_draining
            + snap.rejected_quota
            + snap.govern.rejected_memory;
        assert_eq!(snap.submitted, submitted[which], "tenant {which} submitted");
        assert_eq!(snap.completed, tally.completed, "tenant {which} completed");
        assert_eq!(snap.failed, tally.failed, "tenant {which} failed");
        assert_eq!(rejected, tally.rejected, "tenant {which} rejections");
        // The conservation law with the memory column included.
        assert_eq!(snap.submitted, snap.accepted + rejected, "tenant {which}");
        assert_eq!(
            snap.accepted,
            snap.completed
                + snap.failed
                + snap.shed_deadline
                + snap.deadline_missed
                + snap.cancelled,
            "tenant {which} admitted requests all resolved exactly once"
        );
        // Allocation failures are typed outcomes, not faults: nothing
        // panicked, nothing tripped the breaker.
        assert_eq!(snap.worker_panics, 0, "tenant {which} panicked");
        assert_eq!(snap.breaker_trips, 0, "tenant {which} tripped the breaker");
        assert!(snap.completed > 0, "tenant {which} starved");
    }
    assert_eq!(snap_hi.queue_depth, 0, "drain leaves the queue empty");

    // Lease balance. While the server value still lived (hi's snapshot):
    // workers joined (context leases dropped), queue drained (payload
    // leases dropped), so the one remaining charge was the pinned
    // weights. After the drop (lo's snapshot): everything, weights
    // included, was returned — no leak, no double release.
    assert_eq!(
        snap_hi.govern.mem_leases, 1,
        "hi: only the weight lease survives drain while the server lives"
    );
    assert_eq!(
        snap_hi.govern.mem_used_bytes,
        weight_bytes(&model_hi),
        "hi: accounted bytes after drain are exactly the weights"
    );
    assert_eq!(
        snap_lo.govern.mem_leases, 0,
        "lo: every lease returned once the server is gone"
    );
    assert_eq!(
        snap_lo.govern.mem_used_bytes, 0,
        "lo: accounted bytes return to zero once the server is gone"
    );

    // The chaos domain must actually have fired: injected reservation
    // failures surface as memory rejections (payload path) or request
    // failures (context path).
    let injected = snap_hi.govern.rejected_memory
        + snap_lo.govern.rejected_memory
        + snap_hi.failed
        + snap_lo.failed;
    assert!(injected > 0, "allocation-failure chaos never fired");

    if n >= 1000 {
        assert!(
            max_state_seen != DegradationState::Normal,
            "sustained overload never left Normal: the soak is not exercising brownout"
        );
        assert!(
            snap_lo.govern.rejected_memory > 0,
            "the Low-priority tenant was never shed under pressure"
        );
    }
}

/// Deterministic brownout walk: a forced ballast lease pins memory
/// pressure into each band, Low-priority traffic is shed while
/// High-priority traffic completes bit-identically, and releasing the
/// ballast recovers `Shed → Brownout → Normal` purely through polled
/// evaluations.
#[test]
fn ballast_drives_brownout_sheds_low_priority_and_recovers() {
    let (model_hi, inputs) = compiled_small_cnn(42);
    let model_lo = compiled_model_only(7);
    let mut oracle_ctx = model_hi.try_new_context().expect("context allocates");
    let oracle = model_hi
        .try_infer(&mut oracle_ctx, &inputs[0])
        .expect("inference");

    const BUDGET: u64 = 1_000_000_000;
    let mut registry = ModelRegistry::new();
    registry.register_with_priority("hi", Arc::clone(&model_hi), None, Priority::High);
    registry.register_with_priority("lo", Arc::clone(&model_lo), None, Priority::Low);
    let server = Server::start_multi(
        registry,
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            govern: GovernorConfig {
                global_budget: Some(BUDGET),
                tenant_budget: None,
            },
            ..ServerConfig::default()
        },
    );
    assert_eq!(server.degradation_state(), DegradationState::Normal);

    // 80% of budget: inside the brownout band, below the shed band.
    let ballast_gauges = Arc::new(ServeGauges::default());
    let account = server.governor().tenant("ballast", &ballast_gauges);
    let brownout_ballast = server.governor().reserve_forced(&account, BUDGET / 10 * 8);
    assert_eq!(server.degradation_state(), DegradationState::Brownout);

    let submit_lo = |expect: &str| {
        let r = server
            .client("lo")
            .expect("registered")
            .submit(Submission::new(inputs[0].clone()));
        assert!(
            r.is_err(),
            "Low-priority submission must be shed in {expect}"
        );
    };
    let submit_hi_ok = |expect: &str| {
        let handle = server
            .client("hi")
            .expect("registered")
            .submit(Submission::new(inputs[0].clone()))
            .unwrap_or_else(|r| panic!("High-priority rejected ({r}) in {expect}"));
        let logits = wait_with_watchdog(&handle, Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("High-priority failed ({e}) in {expect}"));
        assert_eq!(logits, oracle, "logits diverged in {expect}");
    };
    submit_lo("Brownout");
    submit_hi_ok("Brownout");
    assert_eq!(
        server
            .client("hi")
            .expect("registered")
            .entry()
            .gauges()
            .snapshot()
            .govern
            .degradation_state,
        DegradationState::Brownout.as_u64(),
        "state gauge mirrors to every tenant"
    );

    // +15%: total 95% of budget, at the shed threshold. High priority
    // still floats above a full Shed.
    let shed_ballast = server.governor().reserve_forced(&account, BUDGET / 20 * 3);
    assert_eq!(server.degradation_state(), DegradationState::Shed);
    submit_lo("Shed");
    submit_hi_ok("Shed");

    // Release the pressure: hysteresis walks back one level per run of
    // calm evaluations, with no reset call.
    drop(brownout_ballast);
    drop(shed_ballast);
    poll_until_state(&server, DegradationState::Normal, Duration::from_secs(10));

    let snap_lo = server
        .client("lo")
        .expect("registered")
        .entry()
        .gauges()
        .snapshot();
    assert_eq!(
        snap_lo.govern.rejected_memory, 2,
        "both shed Low-priority submissions counted as memory rejections"
    );
    assert_eq!(
        snap_lo.submitted,
        snap_lo.accepted
            + snap_lo.rejected_queue_full
            + snap_lo.rejected_shedding
            + snap_lo.rejected_draining
            + snap_lo.rejected_quota
            + snap_lo.govern.rejected_memory,
        "Low tenant conserves with the memory column"
    );
    drop(server);
}
