//! A seeded, single-threaded simulation of `bitflow_serve::policy::Policy`
//! and the real `ResourceGovernor` on a virtual clock (one base `Instant`
//! plus offsets), so a schedule replays exactly from its seed. Open-loop
//! arrivals come at a multiple of a modelled capacity to three tenants (High,
//! Normal, Low); `workers` step machines pop through `Policy::batch`; chaos
//! comes from `ChaosConfig`: its pop stream (a stall-range pop starts late, a
//! kill-range pop panics in every request it serves) and its allocation
//! failures. Every modelled byte is a real `MemoryLease` on its tenant's
//! `ServeGauges`: weights, payloads, worker contexts, a ballast lease that
//! takes the pressure into Brownout and Shed and drops, and a hot swap.
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
//! reservation and never feed the breaker. `cargo test` runs 256 seeds; the
//! `#[ignore]`d sweep 10 000.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitflow_graph::{BitFlowError, RejectReason};
use bitflow_serve::policy::{
    DegradationState, Outcome, Policy, Priority, Queued, Verdict, BROWNOUT_MISS, BROWNOUT_PRESSURE,
    CALM_MARGIN, RECOVERY_EVALS, SHED_MISS, SHED_PRESSURE,
};
use bitflow_serve::{
    BreakerConfig, ChaosConfig, GovernorConfig, MemoryLease, ResourceGovernor, ServerConfig,
};
use bitflow_telemetry::ServeGauges;
use rand::{rngs::StdRng, Rng, SeedableRng};

const US: Duration = Duration::from_micros(1);
const PROBE_EVERY: Duration = Duration::from_millis(10);
/// Tenant `t` has priority `PRIORITIES[t]` and serves model `t`, until
/// arrival `SWAP_AT` swaps tenant 0 to model 3.
const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
const SWAP_AT: usize = 100;
/// Modelled bytes: a request's payload, and per model its weights and one
/// inference context.
const PAYLOAD: u64 = 50;
const WEIGHTS: [u64; 4] = [1000, 1000, 1000, 1200];
const CONTEXT: [u64; 4] = [400, 300, 400, 500];
/// A fresh deadline-less submission to the Normal-priority tenant.
const PROBE: Arrival = Arrival {
    at: Duration::ZERO,
    budget: None,
    cancelled: false,
    tenant: 1,
};

struct Req {
    id: usize,
    deadline: Option<Instant>,
    cancelled: bool,
    tenant: usize,
    model: usize,
    /// Its payload's charge, held until it ends.
    _lease: MemoryLease,
}

impl Queued for Req {
    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
    fn cancelled(&self) -> bool {
        self.cancelled
    }
    fn batches_with(&self, head: &Self) -> bool {
        self.model == head.model
    }
}

/// Whether `r` is dead at `t`: it is skipped, not run.
fn dead_at(r: &Req, t: Instant) -> bool {
    r.cancelled || r.deadline.is_some_and(|d| t >= d)
}

/// One submission of the schedule, `at` from the virtual origin.
struct Arrival {
    at: Duration,
    budget: Option<Duration>,
    cancelled: bool,
    tenant: usize,
}

struct Scenario {
    config: ServerConfig,
    chaos: ChaosConfig,
    /// Modelled engine time of a singleton; each further item adds half.
    service: Duration,
    arrivals: Vec<Arrival>,
    /// Every tenant's admission quota.
    quota: Option<u64>,
    /// Arrival indices at which a ballast lease takes the pressure to 850‰
    /// and then to 970‰ of the global budget, and at which both drop
    /// (`arrivals.len()`: after the last arrival).
    ballast: [usize; 3],
}

/// The soaks' deadline profile (`tests/serve_soak.rs`): most requests
/// unbounded, some generous, some hopeless.
fn budget_for(i: usize) -> Option<Duration> {
    match i % 10 {
        9 => Some(Duration::from_micros(50)),
        7 | 8 => Some(Duration::from_millis(500)),
        _ => None,
    }
}

fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = ServerConfig {
        workers: rng.gen_range(1..=4),
        queue_capacity: pick(&mut rng, &[4, 32]),
        max_batch: pick(&mut rng, &[1, 4, 8]),
        coalesce_window: pick(&mut rng, &[Duration::ZERO, 200 * US]),
        breaker: BreakerConfig {
            fault_threshold: pick(&mut rng, &[2, 5, 64]),
            cooldown: Duration::from_millis(100),
        },
        ..ServerConfig::default()
    };
    let mut chaos = ChaosConfig {
        seed,
        stall_ppm: pick(&mut rng, &[0, 20_000, 200_000]),
        kill_ppm: pick(&mut rng, &[0, 5_000, 100_000]),
        stall: Duration::from_millis(pick(&mut rng, &[1, 50, 700])),
        ..ChaosConfig::default()
    };
    let service = Duration::from_micros(rng.gen_range(200..2000));
    // Offered load as a multiple of the pool's singleton capacity.
    let load = pick(&mut rng, &[0.25, 0.5, 1.0, 2.0, 4.0]);
    let gap = service.div_f64(config.workers as f64 * load);
    // The soaks' profile, or — as in the benchmark's traced ladder, where
    // the lock-up was found — one budget on every request.
    let every = pick(&mut rng, &[None, Some(3), Some(30)]).map(|k| service * k);
    let mut at = Duration::ZERO;
    let arrivals: Vec<Arrival> = (0..200)
        .map(|i| Arrival {
            at: {
                at += gap.mul_f64(rng.gen_range(0.5..1.5));
                at
            },
            budget: every.or_else(|| budget_for(i)),
            cancelled: i % 37 == 0,
            tenant: match i % 11 {
                0 => 0,
                5 => 2,
                _ => 1,
            },
        })
        .collect();
    // Unmetered to tight enough to refuse; weights and contexts alone stay
    // calm even under the 10 000-byte global budget.
    config.govern = GovernorConfig {
        global_budget: pick(&mut rng, &[None, Some(10_000), Some(20_000)]),
        tenant_budget: pick(&mut rng, &[None, Some(3_000), Some(8_000)]),
    };
    chaos.alloc_fail_nth = pick(&mut rng, &[0, 7, 31]);
    Scenario {
        config,
        chaos,
        service,
        quota: pick(&mut rng, &[None, Some(4), Some(16)]),
        ballast: [50, 80, pick(&mut rng, &[120, arrivals.len()])],
        arrivals,
    }
}

/// Where a worker step machine is.
enum Worker {
    Idle,
    /// Popped; the batch may still grow until `until`.
    Forming {
        batch: Vec<Req>,
        popped: Instant,
        until: Instant,
    },
    /// Serving from `start` (a stall pushes it back) to `done`; its first
    /// `failed.len()` live requests found no context.
    Running {
        batch: Vec<Req>,
        start: Instant,
        done: Instant,
        panics: bool,
        failed: Vec<BitFlowError>,
    },
}

impl Worker {
    fn batch(&self) -> &[Req] {
        match self {
            Worker::Idle => &[],
            Worker::Forming { batch, .. } | Worker::Running { batch, .. } => batch,
        }
    }
}

/// Terminal classes: refused for memory pressure, refused otherwise, then
/// the ends of admitted requests.
#[derive(Clone, Copy)]
enum End {
    Refused,
    Memory,
    Completed,
    Failed,
    Missed,
    Shed,
    Cancelled,
}

/// What the simulation counts as it goes.
#[derive(Default)]
struct Counts {
    /// Ends per submission id, and per tenant submissions and ends by
    /// terminal class.
    ends: Vec<u8>,
    submitted: [u64; 3],
    classes: [[u64; 7]; 3],
    pops: u64,
    in_flight: usize,
    tripped: bool,
    peak: DegradationState,
    calm_run: u64,
    since_change: u64,
    /// Fallible reservations made; whether a budget refused one, chaos
    /// injected one, and a Low submission was shed at brownout pressure.
    reservations: u64,
    refused_memory: bool,
    injected: bool,
    low_shed: bool,
}

/// A tenant: its gauges (its byte ledger), its model, and that model's
/// weight lease.
struct Tenant {
    gauges: Arc<ServeGauges>,
    model: usize,
    _weights: MemoryLease,
}

struct Sim<'a> {
    sc: &'a Scenario,
    now: Instant,
    policy: Policy,
    queue: VecDeque<Req>,
    workers: Vec<Worker>,
    /// Each worker's cached context: its model and its charge.
    ctx: Vec<Option<(usize, MemoryLease)>>,
    gov: Arc<ResourceGovernor>,
    tenants: Vec<Tenant>,
    ballast_gauges: Arc<ServeGauges>,
    ballast: Vec<MemoryLease>,
    chaos_on: bool,
    c: Counts,
}

type Check = Result<(), String>;
type Reserved = Result<MemoryLease, BitFlowError>;

/// Fails the check with a formatted message unless `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(format!($($msg)+));
        }
    };
}

impl<'a> Sim<'a> {
    fn new(sc: &'a Scenario) -> Self {
        let gov = ResourceGovernor::new(sc.config.govern, sc.chaos.alloc_fail_nth);
        let tenants = (0..PRIORITIES.len())
            .map(|model| {
                let gauges = Arc::new(ServeGauges::default());
                let _weights = gov.reserve_forced(&gauges, WEIGHTS[model]);
                Tenant {
                    gauges,
                    model,
                    _weights,
                }
            })
            .collect();
        Self {
            sc,
            now: Instant::now(),
            policy: Policy::new(&sc.config),
            queue: VecDeque::new(),
            workers: (0..sc.config.workers).map(|_| Worker::Idle).collect(),
            ctx: (0..sc.config.workers).map(|_| None).collect(),
            gov,
            tenants,
            ballast_gauges: Arc::default(),
            ballast: Vec::new(),
            chaos_on: true,
            c: Counts::default(),
        }
    }

    fn end(&mut self, id: usize, tenant: usize, class: End) -> Check {
        if id >= self.c.ends.len() {
            self.c.ends.resize(id + 1, 0);
        }
        self.c.ends[id] += 1;
        self.c.classes[tenant][class as usize] += 1;
        ensure!(self.c.ends[id] == 1, "request {id} ended twice");
        Ok(())
    }

    /// A refusal, counted on the tenant's gauges as the server counts it.
    fn refuse(&mut self, id: usize, tenant: usize, reason: RejectReason) -> Result<bool, String> {
        self.tenants[tenant].gauges.rejected(reason.label());
        let memory = reason == RejectReason::MemoryPressure;
        let class = if memory { End::Memory } else { End::Refused };
        self.end(id, tenant, class).map(|()| false)
    }

    /// One fallible reservation for `tenant`, checking that chaos injects
    /// exactly every `alloc_fail_nth`-th one.
    fn reserve(&mut self, tenant: usize, bytes: u64) -> Result<Reserved, String> {
        self.c.reservations += 1;
        let nth = self.sc.chaos.alloc_fail_nth;
        let due = nth != 0 && self.c.reservations.is_multiple_of(nth);
        let got = self.gov.reserve(&self.tenants[tenant].gauges, bytes, "sim");
        let injected = matches!(got, Err(BitFlowError::ResourceExhausted { .. }));
        let k = self.c.reservations;
        ensure!(
            injected == due,
            "reservation {k}: {got:?}, every {nth}th injected"
        );
        self.c.injected |= injected;
        self.c.refused_memory |= got.is_err() && !injected;
        Ok(got)
    }

    /// Ticks as the server does before a verdict, checking hysteresis,
    /// immediate escalation, and no decay while busy. Returns the pressure
    /// it ticked with.
    fn tick(&mut self) -> Result<u64, String> {
        let (before, ewma) = (self.policy.state(), self.policy.miss_ewma_permille());
        let busy = !self.queue.is_empty() || self.c.in_flight > 0;
        let pressure = self.gov.pressure_permille();
        self.policy.tick(self.now, pressure, self.queue.len());
        let (after, miss) = (self.policy.state(), self.policy.miss_ewma_permille());
        ensure!(
            !busy || miss == ewma,
            "miss EWMA {ewma} → {miss} while busy"
        );
        let capacity = self.sc.config.queue_capacity;
        let queue = if capacity >= 16 {
            self.queue.len() as u64 * 1000 / capacity as u64
        } else {
            0
        };
        let load = queue.max(pressure);
        let floor = if miss >= SHED_MISS || pressure >= SHED_PRESSURE {
            DegradationState::Shed
        } else if miss >= BROWNOUT_MISS || load >= BROWNOUT_PRESSURE {
            DegradationState::Brownout
        } else {
            DegradationState::Normal
        };
        ensure!(
            after >= floor,
            "{after:?} under miss {miss}, queue {queue}‰, pressure {pressure}‰"
        );
        let calm = miss < BROWNOUT_MISS - CALM_MARGIN && load < BROWNOUT_PRESSURE - CALM_MARGIN;
        self.c.calm_run = if calm { self.c.calm_run + 1 } else { 0 };
        if after < before {
            let ok = after.as_u64() + 1 == before.as_u64()
                && self.c.calm_run >= RECOVERY_EVALS
                && self.c.since_change + 1 >= RECOVERY_EVALS;
            ensure!(
                ok,
                "{before:?} → {after:?} after {} calm ticks",
                self.c.calm_run
            );
        }
        self.c.since_change = if after == before {
            self.c.since_change + 1
        } else {
            0
        };
        self.c.peak = self.c.peak.max(after);
        Ok(pressure)
    }

    /// One admission as `ModelClient::admit` makes it: tick, verdict, the
    /// payload lease, the quota. Returns whether it was admitted.
    fn submit(&mut self, a: &Arrival, id: usize) -> Result<bool, String> {
        let (t, priority) = (a.tenant, PRIORITIES[a.tenant]);
        self.c.submitted[t] += 1;
        let pressure = self.tick()?;
        let verdict = self.policy.admit(priority, &self.queue, false, self.now);
        let (refused, shed) = match verdict {
            Verdict::Refuse(r) => (true, r == RejectReason::MemoryPressure),
            _ => (false, false),
        };
        let ok = match priority {
            Priority::Low => refused || pressure < BROWNOUT_PRESSURE,
            Priority::Normal => refused || pressure < SHED_PRESSURE,
            Priority::High => !shed,
        };
        ensure!(ok, "{priority:?}: {verdict:?} at pressure {pressure}‰");
        self.c.low_shed |= shed && priority == Priority::Low && pressure >= BROWNOUT_PRESSURE;
        match verdict {
            Verdict::Refuse(reason) => return self.refuse(id, t, reason),
            Verdict::Evict(i) => {
                let victim = self.queue.remove(i).ok_or("evicted a missing entry")?;
                let class = if victim.cancelled {
                    End::Cancelled
                } else {
                    End::Shed
                };
                self.end(victim.id, victim.tenant, class)?;
            }
            Verdict::Admit => {}
        }
        let Ok(lease) = self.reserve(t, PAYLOAD)? else {
            return self.refuse(id, t, RejectReason::MemoryPressure);
        };
        if self.open()[t] >= self.sc.quota.unwrap_or(u64::MAX) {
            drop(lease);
            return self.refuse(id, t, RejectReason::QuotaExceeded);
        }
        self.queue.push_back(Req {
            id,
            deadline: a.budget.map(|b| self.now + b),
            cancelled: a.cancelled,
            tenant: t,
            model: self.tenants[t].model,
            _lease: lease,
        });
        self.step().map(|()| true)
    }

    /// The events scheduled at arrival index `i`: the ballast taken or
    /// dropped, and tenant 0's hot swap (the new weights charged before the
    /// old lease drops, as `ModelClient::swap` does).
    fn event(&mut self, i: usize) {
        let [brownout, shed, gone] = self.sc.ballast;
        if let Some(budget) = self.sc.config.govern.global_budget {
            for (at, permille) in [(brownout, 850), (shed, 970)] {
                if i == at {
                    let bytes = (budget * permille / 1000).saturating_sub(self.gov.used());
                    self.ballast
                        .push(self.gov.reserve_forced(&self.ballast_gauges, bytes));
                }
            }
        }
        if i == gone {
            self.ballast.clear();
        }
        if i == SWAP_AT {
            let tenant = &mut self.tenants[0];
            tenant._weights = self.gov.reserve_forced(&tenant.gauges, WEIGHTS[3]);
            tenant.model = 3;
        }
    }

    /// Runs every worker that can move at `now` until none can.
    fn step(&mut self) -> Check {
        let mut moved = true;
        while moved {
            moved = false;
            for w in 0..self.workers.len() {
                moved |= self.step_worker(w)?;
            }
            self.check()?;
        }
        Ok(())
    }

    fn step_worker(&mut self, w: usize) -> Result<bool, String> {
        let now = self.now;
        let next = match std::mem::replace(&mut self.workers[w], Worker::Idle) {
            Worker::Idle => {
                let Some(head) = self.queue.pop_front() else {
                    return Ok(false);
                };
                self.policy.begin();
                self.c.in_flight += 1;
                Worker::Forming {
                    batch: vec![head],
                    popped: now,
                    until: now,
                }
            }
            Worker::Forming {
                mut batch, popped, ..
            } => {
                let est = self.sc.service.as_nanos() as u64;
                let wait = self
                    .policy
                    .batch(&mut self.queue, &mut batch, est, popped, now);
                if let Some(until) = wait {
                    self.workers[w] = Worker::Forming {
                        batch,
                        popped,
                        until,
                    };
                    return Ok(false);
                }
                let pop = self.c.pops;
                self.c.pops += 1;
                let chaos = &self.sc.chaos;
                let stall = self.chaos_on && chaos.stall_hit(w as u64, pop);
                let start = now + if stall { chaos.stall } else { Duration::ZERO };
                let extra = self.sc.service / 2 * (batch.len() as u32 - 1);
                let panics = self.chaos_on && chaos.kill_hit(w as u64, pop);
                Worker::Running {
                    failed: self.build_context(w, &batch, start)?,
                    panics,
                    done: start + self.sc.service + extra,
                    start,
                    batch,
                }
            }
            Worker::Running {
                batch,
                start,
                done,
                panics,
                failed,
            } if done <= now => {
                self.finish(&batch, start, done, panics, failed)?;
                Worker::Idle
            }
            running => {
                self.workers[w] = running;
                return Ok(false);
            }
        };
        self.workers[w] = next;
        Ok(true)
    }

    /// `ctx_for` over the batch's live requests in turn: a cached context
    /// of the batch's model serves them all; otherwise the cached one's
    /// charge drops and a build is charged to the request's tenant, a
    /// refused build failing that one request. Returns those refusals.
    fn build_context(
        &mut self,
        w: usize,
        batch: &[Req],
        start: Instant,
    ) -> Result<Vec<BitFlowError>, String> {
        let mut failed = Vec::new();
        for r in batch.iter().filter(|r| !dead_at(r, start)) {
            if matches!(&self.ctx[w], Some((m, _)) if *m == r.model) {
                break;
            }
            self.ctx[w] = None;
            match self.reserve(r.tenant, CONTEXT[r.model])? {
                Ok(lease) => {
                    self.ctx[w] = Some((r.model, lease));
                    break;
                }
                Err(e) => failed.push(e),
            }
        }
        Ok(failed)
    }

    /// Resolves a served pop the way `serve_batch` does: the dead first,
    /// then the run, every outcome to the policy at once.
    fn finish(
        &mut self,
        batch: &[Req],
        start: Instant,
        done: Instant,
        panics: bool,
        failed: Vec<BitFlowError>,
    ) -> Check {
        let (dead, live): (Vec<&Req>, Vec<&Req>) = batch.iter().partition(|r| dead_at(r, start));
        let mut outcomes = Vec::new();
        for r in dead {
            let (outcome, class) = if r.cancelled {
                (Outcome::Other, End::Cancelled)
            } else {
                (Outcome::Missed, End::Shed)
            };
            outcomes.push(outcome);
            self.end(r.id, r.tenant, class)?;
        }
        let mut failed = failed.into_iter();
        for r in live {
            let (outcome, class) = if let Some(e) = failed.next() {
                (Outcome::of(&Err(e)), End::Failed)
            } else if panics {
                (Outcome::Fault, End::Failed)
            } else if dead_at(r, done) {
                (Outcome::Missed, End::Missed)
            } else {
                (Outcome::Completed, End::Completed)
            };
            outcomes.push(outcome);
            self.end(r.id, r.tenant, class)?;
        }
        let tripped = self.policy.on_outcomes(outcomes, done);
        ensure!(!tripped || panics, "a non-panic tripped the breaker");
        self.c.tripped |= tripped;
        self.c.in_flight -= 1;
        Ok(())
    }

    /// Per tenant, its admitted requests still queued or in a worker's
    /// batch.
    fn open(&self) -> [u64; 3] {
        let mut open = [0; 3];
        let batches = self.workers.iter().flat_map(Worker::batch);
        for r in self.queue.iter().chain(batches) {
            open[r.tenant] += 1;
        }
        open
    }

    /// At most `workers` pops in flight; per tenant, conservation with the
    /// memory column and gauges that hold exactly the leases the
    /// simulation holds for it; the governor's total is theirs plus the
    /// ballast's.
    fn check(&self) -> Check {
        ensure!(
            self.c.in_flight <= self.sc.config.workers,
            "{} in flight",
            self.c.in_flight
        );
        let open = self.open();
        let mut held: [(u64, u64); 3] = std::array::from_fn(|t| {
            let weights = WEIGHTS[self.tenants[t].model];
            (1 + open[t], weights + PAYLOAD * open[t])
        });
        for (model, _) in self.ctx.iter().flatten() {
            held[model % 3].0 += 1;
            held[model % 3].1 += CONTEXT[*model];
        }
        let mut total = self.ballast_gauges.govern.snapshot().mem_used_bytes;
        for (t, tenant) in self.tenants.iter().enumerate() {
            let g = tenant.gauges.govern.snapshot();
            ensure!(
                (g.mem_leases, g.mem_used_bytes) == held[t],
                "tenant {t}: gauges read (leases, bytes) {:?}, the leases held are {:?}",
                (g.mem_leases, g.mem_used_bytes),
                held[t]
            );
            let k = &self.c.classes[t];
            let admitted = self.c.submitted[t] - k[End::Refused as usize] - k[End::Memory as usize];
            let resolved: u64 = k[End::Completed as usize..].iter().sum();
            let memory = k[End::Memory as usize];
            ensure!(
                (admitted, g.rejected_memory) == (resolved + open[t], memory),
                "tenant {t}: {admitted} in, {resolved} out, {} open; memory {memory}, {:?}",
                open[t],
                g
            );
            total += g.mem_used_bytes;
        }
        let used = self.gov.used();
        ensure!(used == total, "governor {used} bytes, gauges {total}");
        Ok(())
    }

    /// Moves the clock to `until`, stepping at every worker event on the way.
    fn advance(&mut self, until: Instant) -> Check {
        loop {
            let next = self.workers.iter().filter_map(|w| match w {
                Worker::Forming { until, .. } => Some(*until),
                Worker::Running { done, .. } => Some(*done),
                Worker::Idle => None,
            });
            let Some(t) = next.min().filter(|&t| t <= until) else {
                break;
            };
            self.now = self.now.max(t);
            self.step()?;
        }
        self.now = until;
        self.step()
    }

    /// Advances in probe steps until no work is queued or running.
    fn drain(&mut self) -> Check {
        while !(self.queue.is_empty() && self.workers.iter().all(|w| matches!(w, Worker::Idle))) {
            self.advance(self.now + PROBE_EVERY)?;
        }
        Ok(())
    }
}

/// Runs a scenario through its schedule, a drain and the liveness probe.
/// Returns whether it reached `Shed`, tripped the breaker, shed a request,
/// missed one mid-run, had a budget refuse a reservation, injected an
/// allocation failure and shed a Low submission at brownout pressure.
fn run(sc: &Scenario) -> Result<[bool; 7], String> {
    let mut sim = Sim::new(sc);
    let base = sim.now;
    for (id, a) in sc.arrivals.iter().enumerate() {
        sim.advance(base + a.at)?;
        sim.event(id);
        sim.submit(a, id)?;
    }
    // Chaos and deadline'd arrivals stop, a late ballast drops, and the
    // work drains.
    sim.event(sc.arrivals.len());
    sim.chaos_on = false;
    sim.drain()?;
    let quiet = sim.now;
    let cooldown = sc.config.breaker.cooldown * u32::from(sim.c.tripped);
    let bound = Duration::from_secs(1) + cooldown;
    for id in sc.arrivals.len().. {
        sim.advance(sim.now + PROBE_EVERY)?;
        if sim.submit(&PROBE, id)? && sim.policy.state() == DegradationState::Normal {
            break;
        }
        let (state, miss) = (sim.policy.state(), sim.policy.miss_ewma_permille());
        let after = sim.now - quiet;
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

/// Runs every seed, and checks that at least one in twenty reached each of
/// `run`'s outcomes.
fn run_seeds(seeds: std::ops::Range<u64>) {
    let n = seeds.end - seeds.start;
    let mut seen = [0u64; 7];
    for seed in seeds {
        let reached = run(&scenario(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (count, hit) in seen.iter_mut().zip(reached) {
            *count += u64::from(hit);
        }
    }
    assert!(
        seen.iter().all(|&k| k * 20 >= n),
        "seeds reaching Shed, a trip, a shed request, a mid-run miss, a budget refusal, \
         an injected failure, a Low shed under pressure: {seen:?} of {n}"
    );
}

#[test]
fn simulated_schedules_keep_the_serving_invariants() {
    run_seeds(0..256);
}

#[test]
#[ignore = "the 10 000-seed sweep; scripts/check.sh --serve runs it"]
fn simulated_sweep_keeps_the_serving_invariants() {
    run_seeds(256..10_256);
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
