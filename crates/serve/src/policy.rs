//! Every decision the serving runtime makes — admission, batch formation,
//! the brownout state machine and the circuit breaker — as one plain value
//! with no lock, no atomic, no thread and no clock read: `now` is always an
//! argument. The server keeps [`Policy`] in its queue state, under the
//! mutex admission already holds; `tests/sim.rs` drives the same value
//! through seeded schedules on a virtual clock.
//!
//! ```text
//!            pressure ≥ 75% | queue ≥ 75% | miss-EWMA ≥ 50%
//!   Normal ────────────────────────────────────────────────▶ Brownout
//!      ▲                                                        │
//!      │ calm × 3                                     escalation│
//!      │ (one level per                                         ▼
//!      │  3 calm ticks)          pressure ≥ 95% | miss-EWMA ≥ 90%
//!   Brownout ◀──────────────────────────────────────────────▶ Shed
//! ```
//!
//! Queue depth alone escalates at most to `Brownout`: without memory
//! pressure or misses a deep queue is ordinary backpressure. The miss EWMA
//! folds one sample per resolved request and one calm sample per
//! [`IDLE_DECAY`] of idle time (queue empty, nothing running). Without the
//! idle samples one host stall longer than the budgets locked a server in
//! `Shed`: it refused every Normal-priority request, so nothing resolved to
//! fold the EWMA down. There is no decay while work is queued or running.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bitflow_graph::{BitFlowError, RejectReason};

use crate::config::{BreakerConfig, ServerConfig};

/// Scheduling class of a tenant under degradation: `Low` is shed in
/// `Brownout` and `Shed`, `Normal` in `Shed` only, `High` never.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Shed first.
    Low,
    /// Shed in `Shed`.
    #[default]
    Normal,
    /// Never shed: the capacity freed by shedding exists for this class.
    High,
}

/// The server's service level, exported as the
/// `bitflow_degradation_state` gauge (`0`/`1`/`2`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationState {
    /// Full service.
    #[default]
    Normal,
    /// Sustained pressure: low-priority work is shed, coalesce windows
    /// shrink to a quarter, debug endpoints go dark.
    Brownout,
    /// Exhaustion: only high-priority tenants are admitted, no window.
    Shed,
}

impl DegradationState {
    /// Gauge encoding (`Normal = 0`, `Brownout = 1`, `Shed = 2`).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self as u64
    }
}

/// Escalation thresholds, permille: memory pressure of the global budget
/// (queue depth of its capacity shares the brownout one), and miss EWMA.
pub const BROWNOUT_PRESSURE: u64 = 750;
/// See [`BROWNOUT_PRESSURE`].
pub const SHED_PRESSURE: u64 = 950;
/// See [`BROWNOUT_PRESSURE`].
pub const BROWNOUT_MISS: u64 = 500;
/// See [`BROWNOUT_PRESSURE`].
pub const SHED_MISS: u64 = 900;
/// A tick is calm when every signal sits this far below its brownout
/// threshold; the state steps down one level on [`RECOVERY_EVALS`]
/// consecutive calm ticks.
pub const CALM_MARGIN: u64 = 150;
/// See [`CALM_MARGIN`].
pub const RECOVERY_EVALS: u64 = 3;
/// Idle time worth one calm sample of the miss EWMA.
pub const IDLE_DECAY: Duration = Duration::from_millis(50);
/// Queues smaller than this give no depth signal: one submission flips
/// them from empty to full.
const MIN_QUEUE_SIGNAL_CAPACITY: usize = 16;

/// What the policy reads of a queued request.
pub trait Queued {
    /// Its absolute deadline, if any.
    fn deadline(&self) -> Option<Instant>;
    /// Whether its caller cancelled it.
    fn cancelled(&self) -> bool;
    /// Whether it may share one engine call with `head` (same model).
    fn batches_with(&self, head: &Self) -> bool;
}

/// The answer to one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Admit it.
    Admit,
    /// Evict the dead entry at this queue index, then admit.
    Evict(usize),
    /// Refuse it.
    Refuse(RejectReason),
}

/// How an admitted request resolved, as far as the policy cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Logits: a calm sample, and the fault streak resets.
    Completed,
    /// Its deadline passed, before or during its run: a miss sample.
    Missed,
    /// A panic isolated inside inference: one more for the breaker.
    Fault,
    /// Cancelled, or failed another typed way: no signal.
    Other,
}

impl Outcome {
    /// What a served request's result means to the policy.
    #[must_use]
    pub fn of(result: &Result<Vec<f32>, BitFlowError>) -> Self {
        match result {
            Ok(_) => Self::Completed,
            Err(BitFlowError::DeadlineExceeded) => Self::Missed,
            // A panic isolated inside inference: the only outcome that
            // feeds the breaker; a refused allocation is `Other`.
            Err(BitFlowError::Internal(_)) => Self::Fault,
            Err(_) => Self::Other,
        }
    }
}

/// The serving runtime's decisions and the state they depend on.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    queue_capacity: usize,
    max_batch: usize,
    coalesce_window: Duration,
    breaker: BreakerConfig,
    state: DegradationState,
    calm_ticks: u64,
    /// Deadline-miss EWMA, permille: `new = old + (sample − old) / 8`.
    miss_ewma: u64,
    /// Consecutive faults; the breaker is open while `now < open_until`.
    faults: u32,
    open_until: Option<Instant>,
    /// Pops (a worker's batch, or a caller's own request) executing.
    running: usize,
    /// Idle time not yet folded into the EWMA starts here.
    idle_since: Option<Instant>,
}

impl Policy {
    /// A calm policy for `config`.
    #[must_use]
    pub fn new(config: &ServerConfig) -> Self {
        Self {
            queue_capacity: config.queue_capacity.max(1),
            max_batch: config.max_batch.max(1),
            coalesce_window: config.coalesce_window,
            breaker: config.breaker,
            ..Self::default()
        }
    }

    /// The state as of the last tick.
    #[must_use]
    pub fn state(&self) -> DegradationState {
        self.state
    }

    /// The deadline-miss EWMA, permille.
    #[must_use]
    pub fn miss_ewma_permille(&self) -> u64 {
        self.miss_ewma
    }

    /// Whether the breaker sheds admissions at `now`.
    #[must_use]
    pub fn breaker_open(&self, now: Instant) -> bool {
        self.open_until.is_some_and(|until| now < until)
    }

    /// Re-evaluates the state machine at `now` against the governor's
    /// memory pressure (permille) and the queue's length, after closing an
    /// expired breaker and folding idle time into the miss EWMA. Returns
    /// the new state when it changed.
    pub fn tick(
        &mut self,
        now: Instant,
        pressure: u64,
        queue_len: usize,
    ) -> Option<DegradationState> {
        self.expire_breaker(now);
        if queue_len > 0 || self.running > 0 {
            self.idle_since = None;
        } else {
            let since = *self.idle_since.get_or_insert(now);
            let idle = now.saturating_duration_since(since).as_nanos() / IDLE_DECAY.as_nanos();
            // 64 calm samples take any EWMA to zero.
            let samples = idle.min(64) as u32;
            (0..samples).for_each(|_| self.fold(false));
            self.idle_since = Some(since + IDLE_DECAY * samples);
        }
        let queue = if self.queue_capacity >= MIN_QUEUE_SIGNAL_CAPACITY {
            (queue_len as u64).saturating_mul(1000) / self.queue_capacity as u64
        } else {
            0
        };
        let miss = self.miss_ewma;
        let target = if pressure >= SHED_PRESSURE || miss >= SHED_MISS {
            DegradationState::Shed
        } else if pressure.max(queue) >= BROWNOUT_PRESSURE || miss >= BROWNOUT_MISS {
            DegradationState::Brownout
        } else {
            DegradationState::Normal
        };
        let calm = pressure.max(queue) < BROWNOUT_PRESSURE - CALM_MARGIN
            && miss < BROWNOUT_MISS - CALM_MARGIN;
        let before = self.state;
        self.calm_ticks = if target < before && calm {
            self.calm_ticks + 1
        } else {
            0
        };
        if target > before {
            self.state = target;
        } else if self.calm_ticks >= RECOVERY_EVALS {
            self.calm_ticks = 0;
            self.state = if before == DegradationState::Shed {
                DegradationState::Brownout
            } else {
                DegradationState::Normal
            };
        }
        (self.state != before).then_some(self.state)
    }

    /// Admission, in order: breaker, draining, brownout by `priority`, and
    /// the queue cap, where a full queue first gives up one dead entry
    /// (folding its miss) and otherwise refuses. The payload lease and the
    /// quota come after, in the server, because they charge.
    pub fn admit<T: Queued>(
        &mut self,
        priority: Priority,
        queue: &VecDeque<T>,
        draining: bool,
        now: Instant,
    ) -> Verdict {
        let shed = match self.state {
            DegradationState::Normal => false,
            DegradationState::Brownout => priority == Priority::Low,
            DegradationState::Shed => priority < Priority::High,
        };
        let dead = |r: &T| r.cancelled() || r.deadline().is_some_and(|d| now >= d);
        if self.breaker_open(now) {
            Verdict::Refuse(RejectReason::Shedding)
        } else if draining {
            Verdict::Refuse(RejectReason::Draining)
        } else if shed {
            Verdict::Refuse(RejectReason::MemoryPressure)
        } else if queue.len() < self.queue_capacity {
            Verdict::Admit
        } else if let Some(i) = queue.iter().position(dead) {
            if !queue[i].cancelled() {
                self.fold(true);
            }
            Verdict::Evict(i)
        } else {
            Verdict::Refuse(RejectReason::QueueFull)
        }
    }

    /// Grows `batch` (its head popped at `popped`) with the queued requests
    /// that may join it — same model, and a deadline that absorbs the batch
    /// latency estimate `est_ns` (no estimate yet: every deadline fits) —
    /// in queue order, up to `max_batch`. Returns how long an under-full
    /// batch may wait for more: the coalesce window (scaled by the state)
    /// from `popped`, capped by what the head's deadline can absorb.
    pub fn batch<T: Queued>(
        &self,
        queue: &mut VecDeque<T>,
        batch: &mut Vec<T>,
        est_ns: u64,
        popped: Instant,
        now: Instant,
    ) -> Option<Instant> {
        let est = Duration::from_nanos(est_ns);
        let mut i = 0;
        while batch.len() < self.max_batch && i < queue.len() {
            let fits = queue[i].batches_with(&batch[0])
                && (est_ns == 0 || queue[i].deadline().is_none_or(|d| now + est <= d));
            if fits {
                batch.extend(queue.remove(i));
            } else {
                i += 1;
            }
        }
        let window = self.window();
        if batch.len() >= self.max_batch || window.is_zero() {
            return None;
        }
        let cap = popped + window;
        let until = batch[0].deadline().map_or(cap, |d| {
            d.checked_sub(est).map_or(cap, |latest| latest.min(cap))
        });
        (now < until).then_some(until)
    }

    /// A pop starts executing: a worker's batch, or a caller's own request.
    pub fn begin(&mut self) {
        self.running += 1;
        self.idle_since = None;
    }

    /// Folds a finished pop's outcomes, in order. Returns whether they
    /// tripped the breaker: open for `cooldown` after `fault_threshold`
    /// consecutive faults, then closed with the streak reset.
    pub fn on_outcomes(
        &mut self,
        outcomes: impl IntoIterator<Item = Outcome>,
        now: Instant,
    ) -> bool {
        self.expire_breaker(now);
        let mut tripped = false;
        for outcome in outcomes {
            match outcome {
                Outcome::Completed => {
                    self.faults = 0;
                    self.fold(false);
                }
                Outcome::Missed => self.fold(true),
                Outcome::Fault => {
                    self.faults = self.faults.saturating_add(1);
                    if self.faults >= self.breaker.fault_threshold && self.open_until.is_none() {
                        self.open_until = Some(now + self.breaker.cooldown);
                        tripped = true;
                    }
                }
                Outcome::Other => {}
            }
        }
        self.running = self.running.saturating_sub(1);
        if self.running == 0 {
            self.idle_since = Some(now);
        }
        tripped
    }

    fn expire_breaker(&mut self, now: Instant) {
        if self.open_until.is_some_and(|until| now >= until) {
            (self.open_until, self.faults) = (None, 0);
        }
    }

    fn fold(&mut self, missed: bool) {
        let (old, sample) = (self.miss_ewma as i64, if missed { 1000 } else { 0 });
        self.miss_ewma = (old + ((sample - old) >> 3)).clamp(0, 1000) as u64;
    }

    /// The coalesce window under the current state.
    fn window(&self) -> Duration {
        match self.state {
            DegradationState::Normal => self.coalesce_window,
            DegradationState::Brownout => self.coalesce_window / 4,
            DegradationState::Shed => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// A queued request as the policy sees it.
    struct Req {
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

    fn req(model: u8, deadline: Option<Instant>) -> Req {
        Req {
            deadline,
            cancelled: false,
            model,
        }
    }

    const COOLDOWN: Duration = Duration::from_millis(100);

    /// A test's virtual origin — the one clock read in this file; the
    /// policy itself only ever sees instants it is handed.
    fn origin() -> Instant {
        Instant::now()
    }

    fn policy() -> Policy {
        Policy::new(&ServerConfig {
            queue_capacity: 64,
            max_batch: 4,
            coalesce_window: Duration::from_millis(8),
            breaker: BreakerConfig {
                fault_threshold: 3,
                cooldown: COOLDOWN,
            },
            ..ServerConfig::default()
        })
    }

    fn sheds(p: &mut Policy, priority: Priority, now: Instant) -> bool {
        let queue: VecDeque<Req> = VecDeque::new();
        p.admit(priority, &queue, false, now) != Verdict::Admit
    }

    #[test]
    fn brownout_escalates_immediately_and_recovers_with_hysteresis() {
        let (mut p, t) = (policy(), origin());
        assert_eq!(p.tick(t, 0, 0), None);
        assert_eq!(p.tick(t, 800, 0), Some(DegradationState::Brownout));
        assert!(sheds(&mut p, Priority::Low, t));
        assert!(!sheds(&mut p, Priority::Normal, t));
        assert_eq!(p.tick(t, 960, 0), Some(DegradationState::Shed));
        assert!(sheds(&mut p, Priority::Normal, t));
        assert!(!sheds(&mut p, Priority::High, t));
        // Calm now, but recovery steps down one level per three calm
        // ticks — never straight to Normal.
        for _ in 0..RECOVERY_EVALS - 1 {
            assert_eq!(p.tick(t, 0, 0), None);
        }
        assert_eq!(p.tick(t, 0, 0), Some(DegradationState::Brownout));
        for _ in 0..RECOVERY_EVALS - 1 {
            assert_eq!(p.tick(t, 0, 0), None);
        }
        assert_eq!(p.tick(t, 0, 0), Some(DegradationState::Normal));
        assert!(!sheds(&mut p, Priority::Low, t));
    }

    #[test]
    fn forced_overcommit_sheds() {
        let (mut p, t) = (policy(), origin());
        assert_eq!(p.tick(t, 1500, 0), Some(DegradationState::Shed));
    }

    #[test]
    fn queue_depth_and_miss_ewma_also_escalate() {
        let (mut p, t) = (policy(), origin());
        assert_eq!(p.tick(t, 0, 48), Some(DegradationState::Brownout));
        // A hard-full queue alone never escalates past Brownout: dropping
        // Normal-priority work requires memory pressure or misses.
        assert_eq!(p.tick(t, 0, 64), None);
        let mut p2 = policy();
        p2.on_outcomes([Outcome::Missed; 32], t);
        assert!(p2.miss_ewma_permille() >= BROWNOUT_MISS);
        assert_ne!(p2.tick(t, 0, 0), None);
        // Successful resolutions decay the EWMA back down.
        p2.on_outcomes([Outcome::Completed; 64], t);
        assert!(p2.miss_ewma_permille() < BROWNOUT_MISS - CALM_MARGIN);
    }

    #[test]
    fn outcomes_fold_to_the_exact_ewma() {
        let mut p = policy();
        let seq = [
            Outcome::Missed,    // 0 + 1000/8 → 125
            Outcome::Missed,    // 125 + 875/8 → 234
            Outcome::Completed, // 234 − ⌈234/8⌉ → 204
            Outcome::Other,     // no signal
            Outcome::Fault,     // breaker only
            Outcome::Missed,    // 204 + 796/8 → 303
        ];
        p.on_outcomes(seq, origin());
        assert_eq!(p.miss_ewma_permille(), 303);
    }

    #[test]
    fn scaled_window_shrinks_under_degradation() {
        let mut p = policy();
        let w = Duration::from_millis(8);
        assert_eq!(p.window(), w);
        p.state = DegradationState::Brownout;
        assert_eq!(p.window(), w / 4);
        p.state = DegradationState::Shed;
        assert_eq!(p.window(), Duration::ZERO);
    }

    #[test]
    fn breaker_trips_exactly_at_the_threshold_and_closes_at_open_until() {
        let (mut p, t) = (policy(), origin());
        assert!(!p.on_outcomes([Outcome::Fault, Outcome::Fault], t));
        assert!(!p.breaker_open(t));
        assert!(p.on_outcomes([Outcome::Fault], t), "third fault trips");
        let open_until = t + COOLDOWN;
        assert!(p.breaker_open(open_until - Duration::from_nanos(1)));
        assert!(sheds(
            &mut p,
            Priority::High,
            open_until - Duration::from_nanos(1)
        ));
        assert!(!p.breaker_open(open_until), "closed at exactly open_until");
        assert_eq!(p.tick(open_until, 0, 0), None);
        assert!(!sheds(&mut p, Priority::Normal, open_until));
        // Closing reset the streak: two more faults do not re-trip.
        assert!(!p.on_outcomes([Outcome::Fault, Outcome::Fault], open_until));
        assert!(p.on_outcomes([Outcome::Fault], open_until));
    }

    #[test]
    fn a_success_resets_the_fault_streak() {
        let (mut p, t) = (policy(), origin());
        let seq = [
            Outcome::Fault,
            Outcome::Fault,
            Outcome::Completed,
            Outcome::Fault,
            Outcome::Fault,
        ];
        assert!(!p.on_outcomes(seq, t));
        assert!(!p.breaker_open(t));
    }

    #[test]
    fn an_idle_server_decays_the_miss_ewma_and_a_busy_one_does_not() {
        let (mut p, t) = (policy(), origin());
        p.begin();
        p.on_outcomes([Outcome::Missed; 24], t);
        assert_eq!(p.miss_ewma_permille(), 957);
        assert_eq!(p.tick(t, 0, 0), Some(DegradationState::Shed));
        // Busy: a pop running, or a request queued — no decay, however long.
        p.begin();
        assert_eq!(p.tick(t + Duration::from_secs(10), 0, 0), None);
        let t1 = t + Duration::from_secs(11);
        p.on_outcomes([], t1);
        assert_eq!(p.tick(t1 + Duration::from_secs(10), 0, 1), None);
        assert_eq!(p.miss_ewma_permille(), 957);
        // Idle from here: one calm sample per whole IDLE_DECAY.
        let t2 = t1 + Duration::from_secs(20);
        p.tick(t2, 0, 0);
        p.tick(t2 + IDLE_DECAY - Duration::from_nanos(1), 0, 0);
        assert_eq!(p.miss_ewma_permille(), 957);
        p.tick(t2 + IDLE_DECAY, 0, 0);
        assert_eq!(p.miss_ewma_permille(), 957 - 120);
        // Long idle brings the server back to Normal, through hysteresis.
        let mut now = t2 + IDLE_DECAY;
        while p.state() != DegradationState::Normal {
            now += Duration::from_millis(10);
            p.tick(now, 0, 0);
        }
        assert!(
            now - t2 < Duration::from_secs(1),
            "Normal after {:?}",
            now - t2
        );
    }

    #[test]
    fn batch_takes_compatible_followers_and_caps_the_wait_by_the_head() {
        let (p, t) = (policy(), origin());
        let ms = Duration::from_millis;
        let mut queue: VecDeque<Req> = [
            req(1, None),
            req(2, None),            // another model
            req(1, Some(t + ms(1))), // cannot absorb a 2 ms estimate
            req(1, Some(t + ms(9))),
            req(1, None),
        ]
        .into();
        let mut batch = vec![req(1, Some(t + ms(5)))];
        let until = p.batch(&mut queue, &mut batch, 2_000_000, t, t);
        assert_eq!(batch.len(), 4, "max_batch caps the take");
        assert_eq!(queue.len(), 2);
        assert!(queue
            .iter()
            .all(|r| r.model == 2 || r.deadline == Some(t + ms(1))));
        assert_eq!(until, None, "a full batch does not wait");
        // Under-full: the window (8 ms) is capped by the head's deadline
        // less the estimate (5 − 2 ms).
        let mut queue: VecDeque<Req> = VecDeque::new();
        let mut batch = vec![req(1, Some(t + ms(5)))];
        assert_eq!(
            p.batch(&mut queue, &mut batch, 2_000_000, t, t),
            Some(t + ms(3))
        );
        assert_eq!(
            p.batch(&mut queue, &mut batch, 2_000_000, t, t + ms(3)),
            None
        );
    }

    #[test]
    fn a_full_queue_evicts_a_dead_entry_and_folds_its_miss() {
        let mut p = Policy::new(&ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let t = origin();
        let mut queue: VecDeque<Req> = [req(1, None), req(1, Some(t))].into();
        assert_eq!(
            p.admit(Priority::Normal, &queue, false, t),
            Verdict::Evict(1)
        );
        assert_eq!(p.miss_ewma_permille(), 125);
        queue[1].deadline = None;
        assert_eq!(
            p.admit(Priority::Normal, &queue, false, t),
            Verdict::Refuse(RejectReason::QueueFull)
        );
        queue[0].cancelled = true;
        assert_eq!(
            p.admit(Priority::Normal, &queue, false, t),
            Verdict::Evict(0)
        );
        assert_eq!(p.miss_ewma_permille(), 125, "a cancellation is no miss");
        assert_eq!(
            p.admit(Priority::High, &queue, true, t),
            Verdict::Refuse(RejectReason::Draining)
        );
    }
}
