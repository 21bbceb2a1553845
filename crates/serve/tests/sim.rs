//! A seeded, single-threaded simulation of `bitflow_serve::policy::Policy`
//! on a virtual clock (one base `Instant` plus offsets), so a schedule
//! replays exactly from its seed. Open-loop arrivals come at a multiple of
//! a modelled capacity; `workers` step machines pop through
//! `Policy::batch`; chaos comes from `ChaosConfig`'s pop stream as
//! scheduled events (a stall-range pop starts late, a kill-range pop
//! panics in every request it serves). After every step it checks:
//! (i) every submission ends in exactly one terminal class and the
//! `ServeSnapshot` conservation law holds; (ii) at most `workers` pops are
//! in flight; (iii) escalation is immediate and a step down is one level
//! after `RECOVERY_EVALS` calm ticks; (iv) once chaos and arrivals stop
//! and the work drains, the state reaches `Normal` and a Normal-priority
//! submission is admitted within 1 s (plus the cooldown if the breaker
//! tripped); (v) a tick while work is queued or running leaves the miss
//! EWMA alone, so a busy server whose requests keep missing stays
//! degraded. `cargo test` runs 256 seeds; the `#[ignore]`d sweep 10 000.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bitflow_serve::policy::{
    DegradationState, Outcome, Policy, Priority, Queued, Verdict, BROWNOUT_MISS, BROWNOUT_PRESSURE,
    CALM_MARGIN, RECOVERY_EVALS, SHED_MISS,
};
use bitflow_serve::{BreakerConfig, ChaosConfig, ServerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

const US: Duration = Duration::from_micros(1);
const PROBE_EVERY: Duration = Duration::from_millis(10);
/// A fresh deadline-less Normal-priority submission.
const PROBE: Arrival = Arrival {
    at: Duration::ZERO,
    budget: None,
    cancelled: false,
    priority: Priority::Normal,
    model: 0,
};

struct Req {
    id: usize,
    deadline: Option<Instant>,
    cancelled: bool,
    model: u8,
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

/// One submission of the schedule, `at` from the virtual origin.
struct Arrival {
    at: Duration,
    budget: Option<Duration>,
    cancelled: bool,
    priority: Priority,
    model: u8,
}

struct Scenario {
    config: ServerConfig,
    chaos: ChaosConfig,
    /// Modelled engine time of a singleton; each further item adds half.
    service: Duration,
    arrivals: Vec<Arrival>,
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
    let config = ServerConfig {
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
    let chaos = ChaosConfig {
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
    let arrivals = (0..200)
        .map(|i| Arrival {
            at: {
                at += gap.mul_f64(rng.gen_range(0.5..1.5));
                at
            },
            budget: every.or_else(|| budget_for(i)),
            cancelled: i % 37 == 0,
            priority: match i % 11 {
                0 => Priority::High,
                5 => Priority::Low,
                _ => Priority::Normal,
            },
            model: u8::from(i % 3 == 0),
        })
        .collect();
    Scenario {
        config,
        chaos,
        service,
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
    /// Serving from `start` (a stall pushes it back) to `done`.
    Running {
        batch: Vec<Req>,
        start: Instant,
        done: Instant,
        panics: bool,
    },
}

/// Terminal classes.
#[derive(Clone, Copy)]
enum End {
    Refused,
    Completed,
    Failed,
    Missed,
    Shed,
    Cancelled,
}

/// What the simulation counts as it goes.
#[derive(Default)]
struct Counts {
    /// Ends per submission id, and submissions per terminal class.
    ends: Vec<u8>,
    classes: [u64; 6],
    submitted: u64,
    pops: u64,
    in_flight: usize,
    tripped: bool,
    peak: DegradationState,
    calm_run: u64,
    since_change: u64,
}

struct Sim<'a> {
    sc: &'a Scenario,
    now: Instant,
    policy: Policy,
    queue: VecDeque<Req>,
    workers: Vec<Worker>,
    chaos_on: bool,
    c: Counts,
}

type Check = Result<(), String>;

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
        Self {
            sc,
            now: Instant::now(),
            policy: Policy::new(&sc.config),
            queue: VecDeque::new(),
            workers: (0..sc.config.workers).map(|_| Worker::Idle).collect(),
            chaos_on: true,
            c: Counts::default(),
        }
    }

    fn end(&mut self, id: usize, class: End) -> Check {
        if id >= self.c.ends.len() {
            self.c.ends.resize(id + 1, 0);
        }
        self.c.ends[id] += 1;
        self.c.classes[class as usize] += 1;
        ensure!(self.c.ends[id] == 1, "request {id} ended twice");
        Ok(())
    }

    /// Ticks as the server does before a verdict, checking hysteresis,
    /// immediate escalation, and no decay while busy.
    fn tick(&mut self) -> Check {
        let (before, ewma) = (self.policy.state(), self.policy.miss_ewma_permille());
        let busy = !self.queue.is_empty() || self.c.in_flight > 0;
        self.policy.tick(self.now, 0, self.queue.len());
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
        let floor = if miss >= SHED_MISS {
            DegradationState::Shed
        } else if miss >= BROWNOUT_MISS || queue >= BROWNOUT_PRESSURE {
            DegradationState::Brownout
        } else {
            DegradationState::Normal
        };
        ensure!(
            after >= floor,
            "{after:?} under miss {miss}, queue {queue}‰"
        );
        let calm = miss < BROWNOUT_MISS - CALM_MARGIN && queue < BROWNOUT_PRESSURE - CALM_MARGIN;
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
        Ok(())
    }

    /// One admission: tick, verdict, and (admitted) a queued request.
    fn submit(&mut self, a: &Arrival, id: usize) -> Check {
        self.c.submitted += 1;
        self.tick()?;
        match self.policy.admit(a.priority, &self.queue, false, self.now) {
            Verdict::Refuse(_) => return self.end(id, End::Refused),
            Verdict::Evict(i) => {
                let victim = self.queue.remove(i).ok_or("evicted a missing entry")?;
                let class = if victim.cancelled {
                    End::Cancelled
                } else {
                    End::Shed
                };
                self.end(victim.id, class)?;
            }
            Verdict::Admit => {}
        }
        self.queue.push_back(Req {
            id,
            deadline: a.budget.map(|b| self.now + b),
            cancelled: a.cancelled,
            model: a.model,
        });
        self.step()
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
                Worker::Running {
                    panics: self.chaos_on && chaos.kill_hit(w as u64, pop),
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
            } if done <= now => {
                self.finish(&batch, start, done, panics)?;
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

    /// Resolves a served pop the way `serve_batch` does: the dead first,
    /// then the run, every outcome to the policy at once.
    fn finish(&mut self, batch: &[Req], start: Instant, done: Instant, panics: bool) -> Check {
        let passed = |r: &Req, t: Instant| r.deadline.is_some_and(|d| t >= d);
        let (dead, live): (Vec<&Req>, Vec<&Req>) =
            batch.iter().partition(|r| r.cancelled || passed(r, start));
        let mut outcomes = Vec::new();
        for r in dead {
            let (outcome, class) = if r.cancelled {
                (Outcome::Other, End::Cancelled)
            } else {
                (Outcome::Missed, End::Shed)
            };
            outcomes.push(outcome);
            self.end(r.id, class)?;
        }
        for r in live {
            let (outcome, class) = if panics {
                (Outcome::Fault, End::Failed)
            } else if passed(r, done) {
                (Outcome::Missed, End::Missed)
            } else {
                (Outcome::Completed, End::Completed)
            };
            outcomes.push(outcome);
            self.end(r.id, class)?;
        }
        self.c.tripped |= self.policy.on_outcomes(outcomes, done);
        self.c.in_flight -= 1;
        Ok(())
    }

    /// Conservation, and at most `workers` pops in flight.
    fn check(&self) -> Check {
        let held: usize = self
            .workers
            .iter()
            .map(|w| match w {
                Worker::Idle => 0,
                Worker::Forming { batch, .. } | Worker::Running { batch, .. } => batch.len(),
            })
            .sum();
        let admitted = self.c.submitted - self.c.classes[End::Refused as usize];
        let resolved: u64 = self.c.classes[1..].iter().sum();
        let open = (self.queue.len() + held) as u64;
        ensure!(
            admitted == resolved + open,
            "{admitted} in, {resolved} out, {open} open"
        );
        ensure!(
            self.c.in_flight <= self.sc.config.workers,
            "{} in flight",
            self.c.in_flight
        );
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
/// Returns whether it reached `Shed`, tripped the breaker, shed a request
/// and missed one mid-run.
fn run(sc: &Scenario) -> Result<[bool; 4], String> {
    let mut sim = Sim::new(sc);
    let base = sim.now;
    for (id, a) in sc.arrivals.iter().enumerate() {
        sim.advance(base + a.at)?;
        sim.submit(a, id)?;
    }
    // Chaos and deadline'd arrivals stop; the work drains.
    sim.chaos_on = false;
    sim.drain()?;
    let quiet = sim.now;
    let cooldown = sc.config.breaker.cooldown * u32::from(sim.c.tripped);
    let bound = Duration::from_secs(1) + cooldown;
    for id in sc.arrivals.len().. {
        sim.advance(sim.now + PROBE_EVERY)?;
        let refused = sim.c.classes[End::Refused as usize];
        sim.submit(&PROBE, id)?;
        let admitted = sim.c.classes[End::Refused as usize] == refused;
        if admitted && sim.policy.state() == DegradationState::Normal {
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
    ensure!(
        sim.c.ends.iter().all(|&n| n == 1),
        "a submission never ended"
    );
    Ok([
        sim.c.peak == DegradationState::Shed,
        sim.c.tripped,
        sim.c.classes[End::Shed as usize] > 0,
        sim.c.classes[End::Missed as usize] > 0,
    ])
}

/// Runs every seed, and checks that at least one in twenty reached each of
/// `Shed`, a tripped breaker, a shed request and a mid-run miss.
fn run_seeds(seeds: std::ops::Range<u64>) {
    let n = seeds.end - seeds.start;
    let mut seen = [0u64; 4];
    for seed in seeds {
        let reached = run(&scenario(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (count, hit) in seen.iter_mut().zip(reached) {
            *count += u64::from(hit);
        }
    }
    assert!(
        seen.iter().all(|&k| k * 20 >= n),
        "seeds reaching Shed, a trip, a shed request, a mid-run miss: {seen:?} of {n}"
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

/// One worker, every pop stalling past every budget: the misses take the
/// state to `Shed`, which refuses every Normal-priority request — so only
/// idle time can bring the miss EWMA, and the server, back.
#[test]
fn a_stall_longer_than_the_budgets_does_not_lock_the_server_in_shed() {
    let sc = Scenario {
        config: ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        chaos: ChaosConfig {
            seed: 1,
            stall_ppm: 1_000_000,
            stall: Duration::from_millis(20),
            ..ChaosConfig::default()
        },
        service: 300 * US,
        arrivals: (0..24u32)
            .map(|i| Arrival {
                at: i * 10 * US,
                budget: Some(Duration::from_millis(1)),
                ..PROBE
            })
            .collect(),
    };
    let reached = run(&sc).unwrap_or_else(|e| panic!("lock-up: {e}"));
    assert!(reached[0], "the scenario must reach Shed");
}
