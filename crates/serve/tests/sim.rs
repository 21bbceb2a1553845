//! A seeded, single-threaded simulation of `bitflow_serve::policy::Policy`
//! and the real `ResourceGovernor` on the harness's virtual clock, so a
//! schedule replays exactly from its seed. Open-loop arrivals come at a
//! multiple of a modelled capacity to three tenants (High, Normal, Low) of
//! the runtime modelled in `sim/runtime.rs` (which the front-end's
//! simulator, `crates/net/tests/sim.rs`, drives too): `workers` step
//! machines pop through `Policy::batch`; chaos comes from `ChaosConfig`:
//! its pop stream (a stall-range pop starts late, a kill-range pop panics
//! in every request it serves) and its allocation failures. Every modelled
//! byte is a real `MemoryLease` on its tenant's `ServeGauges`: weights,
//! payloads, worker contexts, a ballast lease that takes the pressure into
//! Brownout and Shed and drops, and a hot swap.
//! After every step it checks: (i) one terminal class per submission;
//! (ii) at most `workers` pops in flight; (iii) immediate escalation (misses,
//! queue or pressure), a step down only after `RECOVERY_EVALS` calm ticks;
//! (iv) once arrivals, chaos and the ballast stop and the work drains,
//! `Normal` and a Normal-priority admission within 1 s (plus any cooldown);
//! (v) no EWMA decay while busy; (vi) per-tenant conservation with the
//! memory column (`rejected_memory` included); (vii) each tenant's
//! `mem_used_bytes`/`mem_leases` equal the leases held for it, `gov.used()`
//! their sum — at the end, weights alone under one lease each; (viii) no Low
//! admission at `BROWNOUT_PRESSURE`, only High at `SHED_PRESSURE`, High never
//! shed; (x) injections land on exactly every `alloc_fail_nth`-th fallible
//! reservation and never feed the breaker; and each tenant's submissions
//! counted on its gauges. It runs on the shared harness
//! (`tests/common/sim.rs`); `cargo test` runs 256 seeds, the `#[ignore]`d
//! sweep 10 000.

use std::time::Duration;

use bitflow_serve::policy::DegradationState;
use bitflow_serve::{BreakerConfig, ChaosConfig, GovernorConfig, ServerConfig};

#[path = "../../../tests/common/sim.rs"]
#[macro_use]
mod harness;
#[path = "sim/runtime.rs"]
mod runtime;
use harness::run_seeds;
use runtime::{
    scenario, Arrival, End, Scenario, Sim, CONTEXT, PAYLOAD, PROBE, PROBE_EVERY, US, WEIGHTS,
};

/// Runs a scenario through its schedule, a drain and the liveness probe.
/// Returns whether it reached `Shed`, tripped the breaker, shed a request,
/// missed one mid-run, had a budget refuse a reservation, injected an
/// allocation failure and shed a Low submission at brownout pressure.
fn run(sc: &Scenario) -> Result<[bool; 7], String> {
    let mut sim = Sim::new(sc);
    for (id, a) in sc.arrivals.iter().enumerate() {
        sim.advance(sim.clock.at(a.at))?;
        sim.event(id);
        sim.submit(a, id)?;
    }
    // Chaos and deadline'd arrivals stop, a late ballast drops, and the
    // work drains.
    sim.event(sc.arrivals.len());
    sim.chaos_on = false;
    sim.drain()?;
    let quiet = sim.clock.now;
    let cooldown = sc.config.breaker.cooldown * u32::from(sim.c.tripped);
    let bound = Duration::from_secs(1) + cooldown;
    for id in sc.arrivals.len().. {
        sim.advance(sim.clock.now + PROBE_EVERY)?;
        if sim.submit(&PROBE, id)? && sim.policy.state() == DegradationState::Normal {
            break;
        }
        let (state, miss) = (sim.policy.state(), sim.policy.miss_ewma_permille());
        let after = sim.clock.now - quiet;
        ensure!(
            after <= bound,
            "no recovery {after:?} after draining: {state:?}, miss {miss}"
        );
    }
    sim.drain()?;
    // Contexts dropped, each tenant's gauges must read its weights under
    // one lease.
    sim.ctx.iter_mut().for_each(|c| *c = None);
    sim.check()?;
    ensure!(
        sim.c.ends.iter().all(|&n| n == 1),
        "a submission never ended"
    );
    let class = |c: End| sim.c.classes.iter().map(|k| k[c as usize]).sum::<u64>();
    Ok([
        sim.c.peak == DegradationState::Shed,
        sim.c.tripped,
        class(End::Shed) > 0,
        class(End::Missed) > 0,
        sim.c.refused_memory,
        sim.c.injected,
        sim.c.low_shed,
    ])
}

/// `run`'s outcomes, each to be reached by at least one seed in twenty.
const OUTCOMES: [&str; 7] = [
    "Shed",
    "a breaker trip",
    "a shed request",
    "a mid-run miss",
    "a budget refusal",
    "an injected failure",
    "a Low shed under pressure",
];

fn run_seed(seed: u64) -> Result<[bool; 7], String> {
    run(&scenario(seed))
}

#[test]
fn simulated_schedules_keep_the_serving_invariants() {
    run_seeds(0..256, OUTCOMES, run_seed);
}

#[test]
#[ignore = "the 10 000-seed sweep; scripts/check.sh --serve runs it"]
fn simulated_sweep_keeps_the_serving_invariants() {
    run_seeds(256..10_256, OUTCOMES, run_seed);
}

/// `run` over a calm one-worker scenario whose breaker trips on the second
/// fault: `n` arrivals `gap` apart, the `i`-th shaped by `arrival`, under
/// `chaos` and `govern`.
fn run_calm(
    chaos: ChaosConfig,
    govern: GovernorConfig,
    n: u32,
    gap: Duration,
    arrival: impl Fn(u32) -> Arrival,
) -> [bool; 7] {
    let sc = Scenario {
        config: ServerConfig {
            workers: 1,
            breaker: BreakerConfig {
                fault_threshold: 2,
                ..BreakerConfig::default()
            },
            govern,
            ..ServerConfig::default()
        },
        chaos,
        service: 300 * US,
        arrivals: (0..n)
            .map(|i| Arrival {
                at: gap * i,
                ..arrival(i)
            })
            .collect(),
        quota: None,
        ballast: [6, 12, 18],
    };
    run(&sc).unwrap_or_else(|e| panic!("{e}"))
}

/// One worker, every pop stalling past every budget: the misses take the
/// state to `Shed`, which refuses every Normal-priority request — so only
/// idle time can bring the miss EWMA, and the server, back.
#[test]
fn a_stall_longer_than_the_budgets_does_not_lock_the_server_in_shed() {
    let chaos = ChaosConfig {
        seed: 1,
        stall_ppm: 1_000_000,
        stall: Duration::from_millis(20),
        ..ChaosConfig::default()
    };
    let budget = Some(Duration::from_millis(1));
    let reached = run_calm(chaos, GovernorConfig::default(), 24, 10 * US, |_| Arrival {
        budget,
        ..PROBE
    });
    assert!(reached[0], "the scenario must reach Shed");
}

/// The ballast walk: a forced lease takes the pressure into the Brownout
/// band and then the Shed band while the three tenants take turns, and
/// drops; (viii) and the liveness probe hold throughout.
#[test]
fn a_ballast_sheds_by_priority_and_the_server_recovers_when_it_drops() {
    let govern = GovernorConfig {
        global_budget: Some(10_000),
        tenant_budget: None,
    };
    let turns = |i: u32| Arrival {
        tenant: i as usize % 3,
        ..PROBE
    };
    let reached = run_calm(ChaosConfig::default(), govern, 24, 1000 * US, turns);
    assert!(
        reached[0] && reached[6],
        "Shed, and a Low shed under pressure"
    );
}

/// Every second fallible reservation is injected: a payload, then the
/// context build its pop needs, so every build is refused and every
/// request fails typed — and a breaker that trips on the second fault never
/// trips.
#[test]
fn injected_allocation_failures_never_trip_the_breaker() {
    let chaos = ChaosConfig {
        alloc_fail_nth: 2,
        ..ChaosConfig::default()
    };
    let govern = GovernorConfig::default();
    let reached = run_calm(chaos, govern, 24, 1000 * US, |_| PROBE);
    assert!(reached[5] && !reached[1], "injected, and no trip");
}

/// A burst against a tenant budget with room for its weights, one context
/// and four payloads: the budget refuses the rest, and once the burst is
/// served every byte is back.
#[test]
fn a_tight_tenant_budget_refuses_and_every_byte_comes_back() {
    let govern = GovernorConfig {
        global_budget: None,
        tenant_budget: Some(WEIGHTS[1] + CONTEXT[1] + 4 * PAYLOAD),
    };
    let reached = run_calm(ChaosConfig::default(), govern, 40, 10 * US, |_| PROBE);
    assert!(reached[4], "a budget refusal");
}
