//! Resource governance: byte budgets with RAII leases, and a brownout
//! state machine that degrades service *before* the allocator fails.
//!
//! Three consumers are accounted: registered model weights (charged for
//! the server's lifetime), per-worker inference contexts (charged while
//! cached), and admitted request payloads (charged admission → resolve).
//! Each charge is a [`MemoryLease`] acquired from the
//! [`ResourceGovernor`]; dropping the lease releases the bytes, so no
//! code path can leak budget — the same RAII discipline the admission
//! quota already uses.
//!
//! Budgets come in two scopes. The **global** budget bounds the sum of
//! all accounted bytes; the **per-tenant** budget bounds each registered
//! name independently, so one tenant's giant payloads cannot starve the
//! others even when the global budget still has room. A reservation that
//! would exceed either scope is refused with
//! [`RejectReason::MemoryPressure`] — a typed, retryable rejection, not
//! an abort. Weight registrations are *forced* (the server must be able
//! to start): they always charge, and overcommit simply drives the
//! pressure ratio past 1.0, which the brownout machine then answers.
//!
//! ## Brownout
//!
//! ```text
//!            pressure ≥ 75% | queue ≥ 75% | miss-EWMA ≥ 50%
//!   Normal ────────────────────────────────────────────────▶ Brownout
//!      ▲                                                        │
//!      │ calm × 3                                     escalation│
//!      │ (one level per                                         ▼
//!      │  3 calm evals)          pressure ≥ 95% | miss-EWMA ≥ 90%
//!   Brownout ◀──────────────────────────────────────────────▶ Shed
//! ```
//!
//! [`ResourceGovernor::evaluate`] folds three signals — the global
//! memory-pressure ratio, the admission-queue depth ratio, and an EWMA
//! of deadline misses — into a [`DegradationState`]. Escalation is
//! immediate; de-escalation steps down one level only after three
//! consecutive calm evaluations (hysteresis, so the state cannot flap on
//! a noisy boundary). Queue depth escalates at most to `Brownout`: a
//! deep queue without memory pressure or deadline misses is ordinary
//! backpressure, already owned by the bounded queue's shed policy.
//! In `Brownout` the server sheds [`Priority::Low`]
//! submissions and shrinks its coalesce window; in `Shed` only
//! [`Priority::High`] tenants are admitted. The current state is
//! mirrored to every tenant's `bitflow_degradation_state` gauge.
//!
//! Chaos: when [`crate::ChaosConfig::alloc_fail_nth`] is non-zero, every
//! Nth *fallible* reservation fails as if the allocator refused it —
//! the deterministic domain `tests/exhaustion_soak.rs` uses to prove
//! the conservation law survives injected allocation failure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bitflow_graph::{BitFlowError, RejectReason};
use bitflow_telemetry::ServeGauges;

/// Scheduling class of a tenant under degradation: who is shed first
/// when the governor browns out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Shed first: rejected in `Brownout` and `Shed`.
    Low,
    /// Shed in `Shed` only.
    #[default]
    Normal,
    /// Admitted in every state — the capacity freed by shedding the
    /// other classes exists for this one.
    High,
}

/// The governor's service level, exported as the
/// `bitflow_degradation_state` gauge (`0`/`1`/`2`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationState {
    /// Full service.
    #[default]
    Normal,
    /// Sustained pressure: low-priority work is shed, coalesce windows
    /// shrink, debug endpoints go dark.
    Brownout,
    /// Exhaustion: only high-priority tenants are admitted.
    Shed,
}

impl DegradationState {
    /// Gauge encoding (`Normal = 0`, `Brownout = 1`, `Shed = 2`).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        match self {
            Self::Normal => 0,
            Self::Brownout => 1,
            Self::Shed => 2,
        }
    }

    fn from_u64(v: u64) -> Self {
        match v {
            0 => Self::Normal,
            1 => Self::Brownout,
            _ => Self::Shed,
        }
    }

    /// Human label for health endpoints and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Normal => "normal",
            Self::Brownout => "brownout",
            Self::Shed => "shed",
        }
    }
}

/// Byte-budget configuration. `None` leaves that scope unmetered; the
/// governor still accounts usage (the `bitflow_mem_*` gauges stay
/// truthful) but never refuses for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Bound on the sum of all accounted bytes across tenants.
    pub global_budget: Option<u64>,
    /// Bound on each tenant's accounted bytes, applied uniformly.
    pub tenant_budget: Option<u64>,
}

/// Escalation thresholds, in permille of the relevant capacity.
const BROWNOUT_PRESSURE: u64 = 750;
const SHED_PRESSURE: u64 = 950;
const BROWNOUT_MISS: u64 = 500;
const SHED_MISS: u64 = 900;
/// De-escalation: every signal must sit below its brownout threshold
/// minus this margin...
const CALM_MARGIN: u64 = 150;
/// ...for this many consecutive evaluations before the state steps down
/// one level.
const RECOVERY_EVALS: u64 = 3;

/// Deadline-miss EWMA weight: `new = old + (sample - old) / 8`, sample
/// ∈ {0, 1000}.
const MISS_EWMA_SHIFT: u32 = 3;

/// Queues smaller than this contribute no pressure signal: a queue of a
/// handful of slots flips from empty to full on one submission, so its
/// depth ratio says nothing about *sustained* backlog — and the
/// `QueueFull` shed policy already owns the hard-full case.
const MIN_QUEUE_SIGNAL_CAPACITY: usize = 16;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tenant's accounted-byte ledger. Created by
/// [`ResourceGovernor::tenant`] and pinned to the tenant's
/// [`ServeGauges`], so `bitflow_mem_used_bytes` is per served name.
pub struct TenantAccount {
    name: String,
    used: AtomicU64,
    gauges: Arc<ServeGauges>,
}

impl TenantAccount {
    /// The tenant this account meters.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This tenant's accounted bytes right now.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for TenantAccount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantAccount")
            .field("name", &self.name)
            .field("used", &self.used())
            .finish_non_exhaustive()
    }
}

/// RAII charge against the governor's budgets. Dropping it returns the
/// bytes to both scopes and decrements the tenant's gauges — whatever
/// path drops it (served, shed, cancelled, panicked worker unwinding a
/// request).
pub struct MemoryLease {
    gov: Arc<ResourceGovernor>,
    tenant: Arc<TenantAccount>,
    bytes: u64,
}

impl MemoryLease {
    /// The bytes this lease holds.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Debug for MemoryLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryLease")
            .field("tenant", &self.tenant.name)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl Drop for MemoryLease {
    fn drop(&mut self) {
        self.gov
            .global_used
            .fetch_sub(self.bytes, Ordering::Relaxed);
        self.tenant.used.fetch_sub(self.bytes, Ordering::Relaxed);
        self.tenant.gauges.mem_released(self.bytes);
    }
}

/// Adds `bytes` to `counter` only if the sum stays within `budget`.
fn try_charge(counter: &AtomicU64, budget: u64, bytes: u64) -> bool {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let Some(next) = cur.checked_add(bytes) else {
            return false;
        };
        if next > budget {
            return false;
        }
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

/// The byte-budget authority and brownout state machine shared by the
/// serving runtime and its network front-end.
pub struct ResourceGovernor {
    global_budget: u64,
    tenant_budget: u64,
    global_used: AtomicU64,
    tenants: Mutex<Vec<Arc<TenantAccount>>>,
    /// Fallible reservations granted or refused so far — the chaos
    /// domain's deterministic clock.
    reservations: AtomicU64,
    alloc_fail_nth: u64,
    state: AtomicU64,
    calm_evals: AtomicU64,
    /// Deadline-miss EWMA, permille (0 = no misses, 1000 = every
    /// resolution missed).
    miss_ewma: AtomicU64,
}

impl std::fmt::Debug for ResourceGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceGovernor")
            .field("global_budget", &self.global_budget)
            .field("tenant_budget", &self.tenant_budget)
            .field("global_used", &self.global_used.load(Ordering::Relaxed))
            .field("state", &self.state())
            .finish_non_exhaustive()
    }
}

impl ResourceGovernor {
    /// A governor with the given budgets; `alloc_fail_nth` wires the
    /// chaos allocation-failure domain (0 = never inject).
    #[must_use]
    pub fn new(config: GovernorConfig, alloc_fail_nth: u64) -> Arc<Self> {
        Arc::new(Self {
            global_budget: config.global_budget.unwrap_or(u64::MAX),
            tenant_budget: config.tenant_budget.unwrap_or(u64::MAX),
            global_used: AtomicU64::new(0),
            tenants: Mutex::new(Vec::new()),
            reservations: AtomicU64::new(0),
            alloc_fail_nth,
            state: AtomicU64::new(0),
            calm_evals: AtomicU64::new(0),
            miss_ewma: AtomicU64::new(0),
        })
    }

    /// Find-or-create the account metering `name`, pinning it to that
    /// tenant's gauges (also sets the tenant's `bitflow_mem_budget_bytes`
    /// gauge — 0 when both scopes are unmetered).
    pub fn tenant(&self, name: &str, gauges: &Arc<ServeGauges>) -> Arc<TenantAccount> {
        let mut tenants = lock(&self.tenants);
        if let Some(t) = tenants.iter().find(|t| t.name == name) {
            return Arc::clone(t);
        }
        let effective = self.tenant_budget.min(self.global_budget);
        let cells = &gauges.govern;
        cells
            .mem_budget_bytes
            .set(if effective == u64::MAX { 0 } else { effective });
        cells
            .degradation_state
            .set(self.state.load(Ordering::Relaxed));
        let account = Arc::new(TenantAccount {
            name: name.to_string(),
            used: AtomicU64::new(0),
            gauges: Arc::clone(gauges),
        });
        tenants.push(Arc::clone(&account));
        account
    }

    /// Fallibly charges `bytes` against both scopes. Refusals are typed:
    /// budget refusal is [`RejectReason::MemoryPressure`] (retry later),
    /// a chaos-injected failure is [`BitFlowError::ResourceExhausted`]
    /// (the allocator said no). Either way the bytes were never charged.
    pub fn reserve(
        self: &Arc<Self>,
        tenant: &Arc<TenantAccount>,
        bytes: u64,
        what: &'static str,
    ) -> Result<MemoryLease, BitFlowError> {
        let nth = self.reservations.fetch_add(1, Ordering::Relaxed) + 1;
        if self.alloc_fail_nth != 0 && nth.is_multiple_of(self.alloc_fail_nth) {
            return Err(BitFlowError::ResourceExhausted { what, bytes });
        }
        if !try_charge(&self.global_used, self.global_budget, bytes) {
            return Err(BitFlowError::Rejected(RejectReason::MemoryPressure));
        }
        if !try_charge(&tenant.used, self.tenant_budget, bytes) {
            self.global_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(BitFlowError::Rejected(RejectReason::MemoryPressure));
        }
        tenant.gauges.mem_reserved(bytes);
        Ok(MemoryLease {
            gov: Arc::clone(self),
            tenant: Arc::clone(tenant),
            bytes,
        })
    }

    /// Unconditionally charges `bytes` — the weight-registration path,
    /// which must not be able to fail (a server that cannot start is
    /// worse than one that starts browned out). Overcommit pushes the
    /// pressure ratio past 1.0 and the state machine takes it from
    /// there. Forced charges do not tick the chaos reservation clock:
    /// they cannot fail, so injecting into them would only skew the
    /// stream.
    pub fn reserve_forced(
        self: &Arc<Self>,
        tenant: &Arc<TenantAccount>,
        bytes: u64,
    ) -> MemoryLease {
        self.global_used.fetch_add(bytes, Ordering::Relaxed);
        tenant.used.fetch_add(bytes, Ordering::Relaxed);
        tenant.gauges.mem_reserved(bytes);
        MemoryLease {
            gov: Arc::clone(self),
            tenant: Arc::clone(tenant),
            bytes,
        }
    }

    /// Global accounted bytes right now.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.global_used.load(Ordering::Relaxed)
    }

    /// Global memory pressure in permille of the budget (0 when
    /// unmetered; may exceed 1000 under forced overcommit).
    #[must_use]
    pub fn pressure_permille(&self) -> u64 {
        if self.global_budget == u64::MAX {
            return 0;
        }
        let used = self.global_used.load(Ordering::Relaxed) as u128;
        (used * 1000 / (self.global_budget.max(1) as u128)).min(u64::MAX as u128) as u64
    }

    /// Folds one resolution into the deadline-miss EWMA (`true` for a
    /// missed/shed deadline, `false` for a completion).
    pub fn record_outcome(&self, deadline_missed: bool) {
        let sample: i64 = if deadline_missed { 1000 } else { 0 };
        // Racy read-modify-write is fine: the EWMA steers degradation,
        // not accounting.
        let old = self.miss_ewma.load(Ordering::Relaxed) as i64;
        let new = old + ((sample - old) >> MISS_EWMA_SHIFT);
        self.miss_ewma
            .store(new.clamp(0, 1000) as u64, Ordering::Relaxed);
    }

    /// The deadline-miss EWMA, permille.
    #[must_use]
    pub fn miss_ewma_permille(&self) -> u64 {
        self.miss_ewma.load(Ordering::Relaxed)
    }

    /// Re-evaluates the state machine against the three signals and
    /// returns the (possibly new) state. Escalation is immediate;
    /// de-escalation needs [`RECOVERY_EVALS`] consecutive calm
    /// evaluations per level. Called on every submission and by the
    /// health/state accessors, so a server left alone recovers on its
    /// own as soon as anything looks at it.
    pub fn evaluate(&self, queue_depth: usize, queue_capacity: usize) -> DegradationState {
        let pressure = self.pressure_permille();
        let queue = if queue_capacity >= MIN_QUEUE_SIGNAL_CAPACITY {
            (queue_depth as u64).saturating_mul(1000) / (queue_capacity as u64)
        } else {
            0
        };
        let miss = self.miss_ewma.load(Ordering::Relaxed);
        // Queue depth escalates at most to Brownout: a saturated queue
        // without memory pressure or deadline misses is ordinary
        // backpressure, and the bounded queue's shed policy already owns
        // the hard-full case. Dropping Normal-priority work (`Shed`)
        // requires a genuine resource signal.
        let target = if pressure >= SHED_PRESSURE || miss >= SHED_MISS {
            DegradationState::Shed
        } else if pressure >= BROWNOUT_PRESSURE
            || queue >= BROWNOUT_PRESSURE
            || miss >= BROWNOUT_MISS
        {
            DegradationState::Brownout
        } else {
            DegradationState::Normal
        };
        let current = DegradationState::from_u64(self.state.load(Ordering::Relaxed));
        let next = if target > current {
            self.calm_evals.store(0, Ordering::Relaxed);
            target
        } else if target < current {
            let calm = pressure < BROWNOUT_PRESSURE - CALM_MARGIN
                && queue < BROWNOUT_PRESSURE - CALM_MARGIN
                && miss < BROWNOUT_MISS - CALM_MARGIN;
            if calm && self.calm_evals.fetch_add(1, Ordering::Relaxed) + 1 >= RECOVERY_EVALS {
                self.calm_evals.store(0, Ordering::Relaxed);
                DegradationState::from_u64(current.as_u64() - 1)
            } else {
                if !calm {
                    self.calm_evals.store(0, Ordering::Relaxed);
                }
                current
            }
        } else {
            self.calm_evals.store(0, Ordering::Relaxed);
            current
        };
        if next != current {
            self.state.store(next.as_u64(), Ordering::Relaxed);
            for t in lock(&self.tenants).iter() {
                t.gauges.govern.degradation_state.set(next.as_u64());
            }
        }
        next
    }

    /// The state as of the last evaluation (no re-evaluation).
    #[must_use]
    pub fn state(&self) -> DegradationState {
        DegradationState::from_u64(self.state.load(Ordering::Relaxed))
    }

    /// Whether the current state sheds a submission of `priority`.
    #[must_use]
    pub fn sheds(&self, priority: Priority) -> bool {
        match self.state() {
            DegradationState::Normal => false,
            DegradationState::Brownout => priority == Priority::Low,
            DegradationState::Shed => priority < Priority::High,
        }
    }

    /// The coalesce window under the current state: full in `Normal`,
    /// quartered in `Brownout` (throughput still matters, added latency
    /// does not help a pressured server), zero in `Shed` (serve and
    /// free, nothing else).
    #[must_use]
    pub fn scaled_window(&self, window: Duration) -> Duration {
        match self.state() {
            DegradationState::Normal => window,
            DegradationState::Brownout => window / 4,
            DegradationState::Shed => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn gauges() -> Arc<ServeGauges> {
        Arc::new(ServeGauges::default())
    }

    #[test]
    fn lease_charges_and_releases_both_scopes() {
        let gov = ResourceGovernor::new(
            GovernorConfig {
                global_budget: Some(1000),
                tenant_budget: Some(600),
            },
            0,
        );
        let g = gauges();
        let t = gov.tenant("a", &g);
        assert_eq!(g.snapshot().govern.mem_budget_bytes, 600);
        let lease = gov.reserve(&t, 500, "test").expect("fits both scopes");
        assert_eq!(lease.bytes(), 500);
        assert_eq!(gov.used(), 500);
        assert_eq!(t.used(), 500);
        assert_eq!(g.snapshot().govern.mem_used_bytes, 500);
        assert_eq!(g.snapshot().govern.mem_leases, 1);
        drop(lease);
        assert_eq!(gov.used(), 0);
        assert_eq!(t.used(), 0);
        assert_eq!(g.snapshot().govern.mem_used_bytes, 0);
        assert_eq!(g.snapshot().govern.mem_leases, 0);
    }

    #[test]
    fn tenant_budget_refuses_before_global() {
        let gov = ResourceGovernor::new(
            GovernorConfig {
                global_budget: Some(1000),
                tenant_budget: Some(300),
            },
            0,
        );
        let t = gov.tenant("a", &gauges());
        let held = gov.reserve(&t, 300, "test").expect("exactly the budget");
        match gov.reserve(&t, 1, "test") {
            Err(BitFlowError::Rejected(RejectReason::MemoryPressure)) => {}
            other => panic!("expected MemoryPressure, got {other:?}"),
        }
        // A refused tenant charge must roll the global charge back.
        assert_eq!(gov.used(), 300);
        drop(held);
        assert!(gov.reserve(&t, 300, "test").is_ok(), "budget is reusable");
    }

    #[test]
    fn global_budget_spans_tenants() {
        let gov = ResourceGovernor::new(
            GovernorConfig {
                global_budget: Some(500),
                tenant_budget: None,
            },
            0,
        );
        let a = gov.tenant("a", &gauges());
        let b = gov.tenant("b", &gauges());
        let _la = gov.reserve(&a, 400, "test").expect("a fits");
        match gov.reserve(&b, 200, "test") {
            Err(BitFlowError::Rejected(RejectReason::MemoryPressure)) => {}
            other => panic!("expected MemoryPressure, got {other:?}"),
        }
        assert!(gov.reserve(&b, 100, "test").is_ok(), "remainder admits b");
    }

    #[test]
    fn unmetered_governor_never_refuses_but_still_accounts() {
        let gov = ResourceGovernor::new(GovernorConfig::default(), 0);
        let g = gauges();
        let t = gov.tenant("a", &g);
        assert_eq!(g.snapshot().govern.mem_budget_bytes, 0, "0 = unmetered");
        let lease = gov.reserve(&t, u64::MAX / 2, "test").expect("unmetered");
        assert_eq!(gov.used(), u64::MAX / 2);
        assert_eq!(gov.pressure_permille(), 0, "no budget, no pressure");
        drop(lease);
    }

    #[test]
    fn forced_reservation_overcommits_and_raises_pressure() {
        let gov = ResourceGovernor::new(
            GovernorConfig {
                global_budget: Some(100),
                tenant_budget: None,
            },
            0,
        );
        let t = gov.tenant("a", &gauges());
        let lease = gov.reserve_forced(&t, 150);
        assert_eq!(gov.pressure_permille(), 1500, "overcommit exceeds 1000");
        assert!(matches!(gov.evaluate(0, 64), DegradationState::Shed));
        drop(lease);
    }

    #[test]
    fn chaos_fails_every_nth_fallible_reservation() {
        let gov = ResourceGovernor::new(GovernorConfig::default(), 3);
        let t = gov.tenant("a", &gauges());
        let mut outcomes = Vec::new();
        for _ in 0..9 {
            outcomes.push(gov.reserve(&t, 1, "test").is_ok());
        }
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
        match gov.reserve(&t, 1, "test") {
            Ok(_) => {}
            other => panic!("10th reservation must succeed, got {other:?}"),
        }
        // Forced charges must not consume the chaos stream.
        let _w = gov.reserve_forced(&t, 1);
        let _w2 = gov.reserve_forced(&t, 1);
        assert!(gov.reserve(&t, 1, "test").is_ok(), "11th");
        match gov.reserve(&t, 1, "test") {
            Err(BitFlowError::ResourceExhausted { what, bytes }) => {
                assert_eq!(what, "test");
                assert_eq!(bytes, 1);
            }
            other => panic!("12th must be injected, got {other:?}"),
        }
    }

    #[test]
    fn brownout_escalates_immediately_and_recovers_with_hysteresis() {
        let gov = ResourceGovernor::new(
            GovernorConfig {
                global_budget: Some(1000),
                tenant_budget: None,
            },
            0,
        );
        let t = gov.tenant("a", &gauges());
        assert_eq!(gov.evaluate(0, 64), DegradationState::Normal);
        let big = gov.reserve(&t, 800, "test").expect("fits");
        assert_eq!(gov.evaluate(0, 64), DegradationState::Brownout);
        assert!(gov.sheds(Priority::Low));
        assert!(!gov.sheds(Priority::Normal));
        let more = gov.reserve(&t, 160, "test").expect("fits");
        assert_eq!(gov.evaluate(0, 64), DegradationState::Shed);
        assert!(gov.sheds(Priority::Normal));
        assert!(!gov.sheds(Priority::High));
        drop(more);
        drop(big);
        // Calm now, but recovery steps down one level per three calm
        // evaluations — never straight to Normal.
        for _ in 0..RECOVERY_EVALS - 1 {
            assert_eq!(gov.evaluate(0, 64), DegradationState::Shed);
        }
        assert_eq!(gov.evaluate(0, 64), DegradationState::Brownout);
        for _ in 0..RECOVERY_EVALS - 1 {
            assert_eq!(gov.evaluate(0, 64), DegradationState::Brownout);
        }
        assert_eq!(gov.evaluate(0, 64), DegradationState::Normal);
        assert!(!gov.sheds(Priority::Low));
    }

    #[test]
    fn queue_depth_and_miss_ewma_also_escalate() {
        let gov = ResourceGovernor::new(GovernorConfig::default(), 0);
        let _t = gov.tenant("a", &gauges());
        assert_eq!(gov.evaluate(48, 64), DegradationState::Brownout);
        // A hard-full queue alone never escalates past Brownout: dropping
        // Normal-priority work requires memory pressure or misses.
        assert_eq!(gov.evaluate(64, 64), DegradationState::Brownout);
        let gov2 = ResourceGovernor::new(GovernorConfig::default(), 0);
        for _ in 0..32 {
            gov2.record_outcome(true);
        }
        assert!(gov2.miss_ewma_permille() >= BROWNOUT_MISS);
        assert_ne!(gov2.evaluate(0, 64), DegradationState::Normal);
        // Successful resolutions decay the EWMA back down.
        for _ in 0..64 {
            gov2.record_outcome(false);
        }
        assert!(gov2.miss_ewma_permille() < BROWNOUT_MISS - CALM_MARGIN);
    }

    #[test]
    fn scaled_window_shrinks_under_degradation() {
        let gov = ResourceGovernor::new(GovernorConfig::default(), 0);
        let w = Duration::from_millis(8);
        assert_eq!(gov.scaled_window(w), w);
        gov.state.store(1, Ordering::Relaxed);
        assert_eq!(gov.scaled_window(w), w / 4);
        gov.state.store(2, Ordering::Relaxed);
        assert_eq!(gov.scaled_window(w), Duration::ZERO);
    }

    #[test]
    fn state_changes_mirror_to_every_tenant_gauge() {
        let gov = ResourceGovernor::new(
            GovernorConfig {
                global_budget: Some(100),
                tenant_budget: None,
            },
            0,
        );
        let ga = gauges();
        let gb = gauges();
        let a = gov.tenant("a", &ga);
        let _b = gov.tenant("b", &gb);
        let lease = gov.reserve(&a, 90, "test").expect("fits");
        gov.evaluate(0, 64);
        assert_eq!(ga.govern.degradation_state.get(), 1);
        assert_eq!(gb.govern.degradation_state.get(), 1);
        drop(lease);
        for _ in 0..RECOVERY_EVALS {
            gov.evaluate(0, 64);
        }
        assert_eq!(ga.govern.degradation_state.get(), 0);
        assert_eq!(gb.govern.degradation_state.get(), 0);
    }
}
