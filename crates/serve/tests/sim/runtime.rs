//! The modelled serving runtime both seeded simulators drive: the real
//! `Policy` and `ResourceGovernor` behind `ModelClient::admit`'s order
//! (tick, verdict, payload lease, quota) and `workers` step machines that
//! pop through `Policy::batch`, build contexts and serve a batch in the
//! scenario's modelled time, with `ChaosConfig`'s pop stream (a stall-range
//! pop starts late, a kill-range pop panics in every request it serves)
//! and its allocation failures. Every modelled byte is a real
//! `MemoryLease` on its tenant's `ServeGauges`. `Sim::submit` admits or
//! refuses; every submission's end is checked (see `crates/serve/tests/sim.rs`
//! for the properties) and handed out in `Sim::verdicts`, as a caller of
//! the real runtime would get it. Included by `crates/serve/tests/sim.rs`
//! and, by `#[path]`, by the front-end's `crates/net/tests/sim.rs`.

#![allow(dead_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
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

use super::harness::{pick, Check, Clock};

pub const US: Duration = Duration::from_micros(1);
pub const PROBE_EVERY: Duration = Duration::from_millis(10);
/// Tenant `t` has priority `PRIORITIES[t]` and serves model `t`, until
/// arrival `SWAP_AT` swaps tenant 0 to model 3.
pub const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
pub const SWAP_AT: usize = 100;
/// Modelled bytes: a request's payload, and per model its weights and one
/// inference context.
pub const PAYLOAD: u64 = 50;
pub const WEIGHTS: [u64; 4] = [1000, 1000, 1000, 1200];
pub const CONTEXT: [u64; 4] = [400, 300, 400, 500];
/// A fresh deadline-less submission to the Normal-priority tenant.
pub const PROBE: Arrival = Arrival {
    at: Duration::ZERO,
    budget: None,
    cancelled: false,
    tenant: 1,
};

pub struct Req {
    pub id: usize,
    pub deadline: Option<Instant>,
    pub cancelled: bool,
    pub tenant: usize,
    pub model: usize,
    /// Its payload's charge, held until it ends.
    pub _lease: MemoryLease,
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
pub fn dead_at(r: &Req, t: Instant) -> bool {
    r.cancelled || r.deadline.is_some_and(|d| t >= d)
}

/// One submission of the schedule, `at` from the virtual origin.
pub struct Arrival {
    pub at: Duration,
    pub budget: Option<Duration>,
    pub cancelled: bool,
    pub tenant: usize,
}

pub struct Scenario {
    pub config: ServerConfig,
    pub chaos: ChaosConfig,
    /// Modelled engine time of a singleton; each further item adds half.
    pub service: Duration,
    pub arrivals: Vec<Arrival>,
    /// Every tenant's admission quota.
    pub quota: Option<u64>,
    /// Arrival indices at which a ballast lease takes the pressure to 850‰
    /// and then to 970‰ of the global budget, and at which both drop
    /// (`arrivals.len()`: after the last arrival).
    pub ballast: [usize; 3],
}

/// The chaos soak's deadline profile (`tests/soak.rs`): most requests
/// unbounded, some generous, some hopeless.
pub fn budget_for(i: usize) -> Option<Duration> {
    match i % 10 {
        9 => Some(Duration::from_micros(50)),
        7 | 8 => Some(Duration::from_millis(500)),
        _ => None,
    }
}

pub fn scenario(seed: u64) -> Scenario {
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
pub enum Worker {
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
#[derive(Clone, Copy, Debug)]
pub enum End {
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
pub struct Counts {
    /// Ends per submission id, and per tenant submissions and ends by
    /// terminal class.
    pub ends: Vec<u8>,
    pub submitted: [u64; 3],
    pub classes: [[u64; 7]; 3],
    pub pops: u64,
    pub in_flight: usize,
    pub tripped: bool,
    pub peak: DegradationState,
    pub calm_run: u64,
    pub since_change: u64,
    /// Whether a budget refused a reservation, and a worker's context in
    /// particular; chaos injected one, and a Low submission was shed at
    /// brownout pressure.
    pub refused_memory: bool,
    pub refused_context: bool,
    pub injected: bool,
    pub low_shed: bool,
}

/// A tenant: its gauges (its byte ledger), its model, and that model's
/// weight lease.
pub struct Tenant {
    pub gauges: Arc<ServeGauges>,
    pub model: usize,
    pub _weights: MemoryLease,
}

pub struct Sim<'a> {
    pub sc: &'a Scenario,
    pub clock: Clock,
    pub policy: Policy,
    pub queue: VecDeque<Req>,
    pub workers: Vec<Worker>,
    /// Each worker's cached context: its model and its charge.
    pub ctx: Vec<Option<(usize, MemoryLease)>>,
    pub gov: Arc<ResourceGovernor>,
    pub tenants: Vec<Tenant>,
    pub ballast_gauges: Arc<ServeGauges>,
    pub ballast: Vec<MemoryLease>,
    pub chaos_on: bool,
    /// Admissions refused as `Draining`.
    pub draining: bool,
    pub c: Counts,
    /// Fallible reservations made, here or by anyone else charging these
    /// tenants (a front-end's body leases).
    pub reservations: Rc<Cell<u64>>,
    /// Leases held for each tenant outside the runtime: (count, bytes).
    pub held_elsewhere: [(u64, u64); 3],
    /// Each submission's end, as its caller gets it, until taken.
    pub verdicts: Vec<(usize, Result<(), BitFlowError>)>,
}

pub type Reserved = Result<MemoryLease, BitFlowError>;

impl<'a> Sim<'a> {
    pub fn new(sc: &'a Scenario) -> Self {
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
            clock: Clock::new(),
            policy: Policy::new(&sc.config),
            queue: VecDeque::new(),
            workers: (0..sc.config.workers).map(|_| Worker::Idle).collect(),
            ctx: (0..sc.config.workers).map(|_| None).collect(),
            gov,
            tenants,
            ballast_gauges: Arc::default(),
            ballast: Vec::new(),
            chaos_on: true,
            draining: false,
            c: Counts::default(),
            reservations: Rc::default(),
            held_elsewhere: [(0, 0); 3],
            verdicts: Vec::new(),
        }
    }

    fn end(
        &mut self,
        id: usize,
        tenant: usize,
        class: End,
        ended: Result<(), BitFlowError>,
    ) -> Check {
        // One verdict, one reading: a `Rejected` answer is an admission
        // refusal, and an admitted request never gets one.
        let refused = matches!(ended, Err(BitFlowError::Rejected(_)));
        ensure!(
            refused == matches!(class, End::Refused | End::Memory),
            "request {id} ended {class:?} as {ended:?}"
        );
        self.verdicts.push((id, ended));
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
        let refused = Err(BitFlowError::Rejected(reason));
        self.end(id, tenant, class, refused).map(|()| false)
    }

    /// One fallible reservation for `tenant`, checking that chaos injects
    /// exactly every `alloc_fail_nth`-th one.
    fn reserve(&mut self, tenant: usize, bytes: u64) -> Result<Reserved, String> {
        let k = self.reservations.get() + 1;
        self.reservations.set(k);
        let nth = self.sc.chaos.alloc_fail_nth;
        let due = nth != 0 && k.is_multiple_of(nth);
        let got = self.gov.reserve(&self.tenants[tenant].gauges, bytes, "sim");
        let injected = matches!(got, Err(BitFlowError::ResourceExhausted { .. }));
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
        self.policy.tick(self.clock.now, pressure, self.queue.len());
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
    pub fn submit(&mut self, a: &Arrival, id: usize) -> Result<bool, String> {
        let (t, priority) = (a.tenant, PRIORITIES[a.tenant]);
        self.c.submitted[t] += 1;
        self.tenants[t].gauges.submitted.inc();
        let pressure = self.tick()?;
        let now = self.clock.now;
        let verdict = self.policy.admit(priority, &self.queue, self.draining, now);
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
                let (class, ended) = if victim.cancelled {
                    (End::Cancelled, BitFlowError::Cancelled)
                } else {
                    (End::Shed, BitFlowError::DeadlineExceeded)
                };
                self.end(victim.id, victim.tenant, class, Err(ended))?;
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
            deadline: a.budget.map(|b| self.clock.now + b),
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
    pub fn event(&mut self, i: usize) {
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
    pub fn step(&mut self) -> Check {
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
        let now = self.clock.now;
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
            let bytes = CONTEXT[r.model];
            match self.reserve(r.tenant, bytes)? {
                Ok(lease) => {
                    self.ctx[w] = Some((r.model, lease));
                    break;
                }
                Err(e) => {
                    let injected = matches!(e, BitFlowError::ResourceExhausted { .. });
                    self.c.refused_context |= !injected;
                    failed.push(BitFlowError::ResourceExhausted {
                        what: "inference context",
                        bytes,
                    });
                }
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
            let (outcome, class, ended) = if r.cancelled {
                (Outcome::Other, End::Cancelled, BitFlowError::Cancelled)
            } else {
                (Outcome::Missed, End::Shed, BitFlowError::DeadlineExceeded)
            };
            outcomes.push(outcome);
            self.end(r.id, r.tenant, class, Err(ended))?;
        }
        let mut failed = failed.into_iter();
        for r in live {
            let panic = || BitFlowError::Internal("chaos: injected panic".into());
            let (class, ended) = match failed.next() {
                Some(e) => (End::Failed, Err(e)),
                None if panics => (End::Failed, Err(panic())),
                None if dead_at(r, done) => (End::Missed, Err(BitFlowError::DeadlineExceeded)),
                None => (End::Completed, Ok(Vec::new())),
            };
            outcomes.push(Outcome::of(&ended));
            self.end(r.id, r.tenant, class, ended.map(drop))?;
        }
        let tripped = self.policy.on_outcomes(outcomes, done);
        ensure!(!tripped || panics, "a non-panic tripped the breaker");
        self.c.tripped |= tripped;
        self.c.in_flight -= 1;
        Ok(())
    }

    /// Per tenant, its admitted requests still queued or in a worker's
    /// batch.
    pub fn open(&self) -> [u64; 3] {
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
    pub fn check(&self) -> Check {
        ensure!(
            self.c.in_flight <= self.sc.config.workers,
            "{} in flight",
            self.c.in_flight
        );
        let open = self.open();
        let mut held: [(u64, u64); 3] = std::array::from_fn(|t| {
            let weights = WEIGHTS[self.tenants[t].model];
            let (leases, bytes) = self.held_elsewhere[t];
            (1 + open[t] + leases, weights + PAYLOAD * open[t] + bytes)
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
            let submitted = tenant.gauges.submitted.get();
            ensure!(
                submitted == self.c.submitted[t],
                "tenant {t}: {submitted} submissions counted, {} made",
                self.c.submitted[t]
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
    pub fn advance(&mut self, until: Instant) -> Check {
        while let Some(t) = self.next_event().filter(|&t| t <= until) {
            self.clock.advance(t);
            self.step()?;
        }
        self.clock.advance(until);
        self.step()
    }

    /// The next instant a worker moves at.
    pub fn next_event(&self) -> Option<Instant> {
        let next = self.workers.iter().filter_map(|w| match w {
            Worker::Forming { until, .. } => Some(*until),
            Worker::Running { done, .. } => Some(*done),
            Worker::Idle => None,
        });
        next.min()
    }

    /// Advances in probe steps until no work is queued or running.
    pub fn drain(&mut self) -> Check {
        while !(self.queue.is_empty() && self.workers.iter().all(|w| matches!(w, Worker::Idle))) {
            self.advance(self.clock.now + PROBE_EVERY)?;
        }
        Ok(())
    }
}
