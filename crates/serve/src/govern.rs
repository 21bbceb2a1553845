//! Resource governance: byte budgets with RAII leases, whose pressure
//! ratio feeds the brownout state machine ([`crate::policy`]) so service
//! degrades *before* the allocator fails.
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
//! A tenant's byte ledger is its `bitflow_mem_used_bytes` gauge, held to
//! the per-tenant budget by one compare-and-swap
//! ([`ServeGauges::try_mem_reserve`]); the governor keeps the global one.
//!
//! Chaos: when [`crate::ChaosConfig::alloc_fail_nth`] is non-zero, every
//! Nth *fallible* reservation fails as if the allocator refused it — a
//! deterministic domain: `tests/sim.rs` checks that injections land on
//! exactly that stream and never feed the breaker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bitflow_graph::{BitFlowError, RejectReason};
use bitflow_telemetry::ServeGauges;

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

/// RAII charge against the governor's budgets. Dropping it returns the
/// bytes to both scopes and decrements the tenant's gauges — whatever
/// path drops it (served, shed, cancelled, panicked worker unwinding a
/// request).
pub struct MemoryLease {
    gov: Arc<ResourceGovernor>,
    gauges: Arc<ServeGauges>,
    bytes: u64,
}

impl std::fmt::Debug for MemoryLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryLease")
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl Drop for MemoryLease {
    fn drop(&mut self) {
        self.gov
            .global_used
            .fetch_sub(self.bytes, Ordering::Relaxed);
        self.gauges.mem_released(self.bytes);
    }
}

/// The byte-budget authority shared by the serving runtime and its
/// network front-end.
#[derive(Debug)]
pub struct ResourceGovernor {
    global_budget: u64,
    tenant_budget: u64,
    global_used: AtomicU64,
    /// Fallible reservations granted or refused so far — the chaos
    /// domain's deterministic clock.
    reservations: AtomicU64,
    alloc_fail_nth: u64,
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
            reservations: AtomicU64::new(0),
            alloc_fail_nth,
        })
    }

    /// The budget each tenant is held to — the per-tenant scope capped by
    /// the global one — as its `bitflow_mem_budget_bytes` gauge reads it
    /// (0 when both scopes are unmetered).
    #[must_use]
    pub fn tenant_budget(&self) -> u64 {
        match self.tenant_budget.min(self.global_budget) {
            u64::MAX => 0,
            budget => budget,
        }
    }

    /// Fallibly charges `bytes` to the global scope and to the tenant
    /// whose gauges are `tenant`. Refusals are typed: budget refusal is
    /// [`RejectReason::MemoryPressure`] (retry later), a chaos-injected
    /// failure is [`BitFlowError::ResourceExhausted`] (the allocator said
    /// no). Either way the bytes were never charged.
    pub fn reserve(
        self: &Arc<Self>,
        tenant: &Arc<ServeGauges>,
        bytes: u64,
        what: &'static str,
    ) -> Result<MemoryLease, BitFlowError> {
        let nth = self.reservations.fetch_add(1, Ordering::Relaxed) + 1;
        if self.alloc_fail_nth != 0 && nth.is_multiple_of(self.alloc_fail_nth) {
            return Err(BitFlowError::ResourceExhausted { what, bytes });
        }
        let global = self
            .global_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(bytes)
                    .filter(|&next| next <= self.global_budget)
            });
        if global.is_err() {
            return Err(BitFlowError::Rejected(RejectReason::MemoryPressure));
        }
        if !tenant.try_mem_reserve(bytes, self.tenant_budget) {
            self.global_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(BitFlowError::Rejected(RejectReason::MemoryPressure));
        }
        Ok(self.lease(tenant, bytes))
    }

    /// Unconditionally charges `bytes` — the weight-registration path,
    /// which must not be able to fail (a server that cannot start is
    /// worse than one that starts browned out). Overcommit pushes the
    /// pressure ratio past 1.0 and the state machine takes it from
    /// there. Forced charges do not tick the chaos reservation clock:
    /// they cannot fail, so injecting into them would only skew the
    /// stream.
    pub fn reserve_forced(self: &Arc<Self>, tenant: &Arc<ServeGauges>, bytes: u64) -> MemoryLease {
        self.global_used.fetch_add(bytes, Ordering::Relaxed);
        tenant.mem_reserved(bytes);
        self.lease(tenant, bytes)
    }

    /// The lease for `bytes` already charged to both scopes.
    fn lease(self: &Arc<Self>, tenant: &Arc<ServeGauges>, bytes: u64) -> MemoryLease {
        MemoryLease {
            gov: Arc::clone(self),
            gauges: Arc::clone(tenant),
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
        assert_eq!(gov.tenant_budget(), 600);
        let lease = gov.reserve(&g, 500, "test").expect("fits both scopes");
        assert_eq!(gov.used(), 500);
        assert_eq!(g.snapshot().govern.mem_used_bytes, 500);
        assert_eq!(g.snapshot().govern.mem_leases, 1);
        drop(lease);
        assert_eq!(gov.used(), 0);
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
        let t = gauges();
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
        let (a, b) = (gauges(), gauges());
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
        let t = gauges();
        assert_eq!(gov.tenant_budget(), 0, "0 = unmetered");
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
        let t = gauges();
        let lease = gov.reserve_forced(&t, 150);
        assert_eq!(gov.pressure_permille(), 1500, "overcommit exceeds 1000");
        drop(lease);
    }

    #[test]
    fn chaos_fails_every_nth_fallible_reservation() {
        let gov = ResourceGovernor::new(GovernorConfig::default(), 3);
        let t = gauges();
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
}
