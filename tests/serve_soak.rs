//! Chaos soak for the serving runtime (`bitflow-serve`) under real threads:
//! what the seeded simulator (`crates/serve/tests/sim.rs`), which owns the
//! decisions and the byte balance, cannot show.
//!
//! Three tenants — `a`, `b` (quota-metered) and `lo` (Low priority) — share
//! one byte-budgeted server with micro-batching on and a mid-stream hot
//! swap of `a` to bit-identical weights, while seeded chaos injects slow and
//! panicking operators, stalls, worker kills and every Nth reservation an
//! allocation failure. The main thread `submit`s (open loop) while blocking
//! clients `call`, so every fault lands on the caller path too. Checked:
//! every submission resolves exactly once (a watchdog turns a hang into a
//! failure); each tenant's gauges equal its callers' tallies and conserve
//! with the memory column, one worker fault per injected panic and none
//! per allocation failure; every success is bit-identical to serial
//! inference; and after a real shutdown the default tenant holds only its
//! weights under one lease, the others nothing. `BITFLOW_CHAOS` replays a
//! seed verbatim.

#[path = "common/soak.rs"]
mod soak;

use bitflow::prelude::*;
use bitflow_graph::BitFlowError;
use bitflow_serve::{GovernorConfig, ModelClient, Priority, ResponseHandle};
use bitflow_telemetry::ServeSnapshot;
use soak::{
    compiled_small_cnn, serial_oracle, wait_with_watchdog, Tally, DISTINCT_INPUTS, SOAK_REQUESTS,
};
use std::sync::Arc;
use std::time::Duration;

/// The soak's deadline profile: most requests unbounded, some generous,
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
fn multi_tenant_chaos_soak_conserves_per_tenant_and_balances_leases() {
    let n = SOAK_REQUESTS;
    const NAMES: [&str; 3] = ["a", "b", "lo"];
    let (model_a, inputs) = compiled_small_cnn(42);
    let model_b = compiled_small_cnn(7).0;
    let model_lo = compiled_small_cnn(9).0;
    // The hot-swap replacement: same weights as `model_a`, recompiled —
    // logits stay bit-identical, so the oracle survives the swap while
    // the swap machinery (Arc flip under live load) is fully exercised.
    let model_a2 = compiled_small_cnn(42).0;
    let oracles = [&model_a, &model_b, &model_lo].map(|m| serial_oracle(m, &inputs));

    let chaos = ChaosConfig::from_env().unwrap_or_else(|| ChaosConfig {
        alloc_fail_nth: 7,
        ..ChaosConfig::with_seed(0xB17F)
    });
    let mut registry = ModelRegistry::new();
    registry.register("a", Arc::clone(&model_a), None);
    registry.register("b", Arc::clone(&model_b), Some(8));
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
            chaos: Some(chaos.clone()),
            // Generous: the steady state fits, so the memory outcomes here
            // are injected or brownout sheds; budget refusals are the
            // simulator's.
            govern: GovernorConfig {
                global_budget: Some(64 << 20),
                tenant_budget: Some(48 << 20),
            },
            ..ServerConfig::default()
        },
    );
    let gauges = NAMES.map(|name| server.client(name).expect("registered").entry().gauges());

    let mut tallies: [Tally; 3] = Default::default();
    std::thread::scope(|s| {
        // Blocking clients on `a` and `b`, for the whole stream: the hot
        // swap below happens under them.
        let blocking: Vec<_> = (0..BLOCKING_CLIENTS * 2)
            .map(|t| {
                let which = t % 2;
                let (server, inputs, oracle) = (&server, &inputs, &oracles[which]);
                let count = n / BLOCKING_SHARE;
                s.spawn(move || {
                    let client = server.client(NAMES[which]).expect("registered");
                    (
                        which,
                        blocking_client(&client, inputs, oracle, t * count, count),
                    )
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
            let which = i % 3;
            let client = server.client(NAMES[which]).expect("registered");
            let result = client.submit(Submission {
                token: budget_for(i).map(CancelToken::with_budget),
                ..Submission::new(inputs[i % DISTINCT_INPUTS].clone())
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
            let result = wait_with_watchdog(&handle, Duration::from_secs(60));
            tallies[which].resolved(i, result, &oracles[which]);
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
    // `shutdown` joins the workers and drops the server; the default
    // entry ("a", registered first) outlives it, so its snapshot still
    // holds the weight lease, while the other tenants' entries are gone.
    let snap_a = server.shutdown();
    let snaps = [snap_a, gauges[1].snapshot(), gauges[2].snapshot()];

    for (which, (snap, t)) in snaps.iter().zip(&tallies).enumerate() {
        let rejected = snap.rejected_queue_full
            + snap.rejected_shedding
            + snap.rejected_draining
            + snap.rejected_quota
            + snap.govern.rejected_memory;
        let deadline = snap.shed_deadline + snap.deadline_missed;
        // The gauges against the callers' tally: one worker fault per
        // injected panic and none per allocation failure.
        assert_eq!(
            [
                snap.submitted,
                snap.completed,
                snap.failed,
                snap.worker_panics
            ],
            [t.submitted, t.completed, t.failed + t.exhausted, t.failed],
            "tenant {which}: submitted, completed, failed, panics"
        );
        assert_eq!(
            [snap.cancelled, deadline, rejected],
            [t.cancelled, t.deadline, t.rejected],
            "tenant {which}: cancelled, deadline, rejected"
        );
        // The conservation law, per tenant: every submission admitted or
        // refused, every admitted request resolved exactly once.
        let resolved = snap.completed + snap.failed + deadline + snap.cancelled;
        assert_eq!(
            (snap.submitted, snap.accepted),
            (snap.accepted + rejected, resolved),
            "tenant {which}: conservation"
        );
        assert!(snap.completed > 0, "tenant {which} starved");
        assert!(
            snap.batches > 0 && snap.batch_items >= snap.completed,
            "tenant {which}: every completed request went through a batch"
        );
    }
    let [snap_a, snap_b, snap_lo] = &snaps;
    assert_eq!(snap_a.queue_depth, 0, "drain leaves the queue empty");

    // Lease balance after a real shutdown: workers joined (context leases
    // dropped) and every request resolved (payload leases dropped), the
    // live default tenant holds exactly its weights, the dropped tenants
    // nothing — no leak, no double release.
    assert_eq!(
        (snap_a.govern.mem_leases, snap_a.govern.mem_used_bytes),
        (
            1,
            (model_a2.float_model_bytes() + model_a2.packed_model_bytes()) as u64
        ),
        "a: only the weight lease survives while its entry lives"
    );
    for (name, g) in [("b", &snap_b.govern), ("lo", &snap_lo.govern)] {
        assert_eq!(
            (g.mem_leases, g.mem_used_bytes),
            (0, 0),
            "{name}: leases left"
        );
    }

    // The soak must exercise what it claims to.
    let sum = |f: fn(&ServeSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
    assert!(
        sum(|s| s.served_on_caller) > 0,
        "no blocking client ever found a parked worker: the caller path went unexercised"
    );
    assert!(sum(|s| s.worker_panics) > 0, "chaos panics never fired");
    if chaos.alloc_fail_nth > 0 {
        let exhausted: u64 = tallies.iter().map(|t| t.exhausted).sum();
        assert!(
            sum(|s| s.govern.rejected_memory) + exhausted > 0,
            "allocation-failure chaos never fired"
        );
    }
    assert!(
        sum(|s| s.rejected_queue_full + s.shed_deadline + s.deadline_missed) > 0,
        "no overload behaviour observed"
    );
    assert!(
        snap_a.batch_size_max > 1,
        "saturation must coalesce multi-request batches"
    );
    assert!(
        snap_b.rejected_quota > 0,
        "the metered tenant must hit its quota under saturation"
    );
}

/// The same pipeline with chaos off: everything completes, nothing is
/// shed, and the fault counters stay at zero — the chaos soak's control
/// group, guarding against the runtime injecting failures of its own.
#[test]
fn calm_soak_completes_everything() {
    const N: usize = 500;
    let (model, inputs) = compiled_small_cnn(43);
    let oracle = serial_oracle(&model, &inputs);
    let server = Server::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 2,
            queue_capacity: N,
            ..ServerConfig::default()
        },
    );
    let handles: Vec<(usize, ResponseHandle)> = (0..N)
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
    assert_eq!(snap.completed, N as u64);
    assert_eq!(snap.accepted, N as u64);
    assert_eq!(
        snap.failed + snap.worker_panics + snap.worker_restarts + snap.breaker_trips,
        0,
        "calm soak must be fault-free"
    );
}
