//! Multi-model tenancy: a named registry of hot-swappable compiled
//! models, each with its own serving gauges and admission quota.
//!
//! A [`ModelRegistry`] is built up front and handed to
//! [`crate::Server::start_multi`]; the entry set is fixed for the
//! server's lifetime, but each entry's model is behind a lock and can be
//! **hot-swapped** with zero downtime: load the replacement, flip the
//! `Arc` ([`ModelEntry::swap_model`]), and let in-flight work drain on
//! the old model. Requests capture their model `Arc` at admission, so a
//! swap never changes the weights a queued request runs against — the
//! old model stays alive (and bit-exact) until its last request
//! resolves, then drops with the final `Arc`.
//!
//! **Quota semantics**: an entry's quota bounds how many of its requests
//! may be *admitted but unresolved* (queued or running) at once. The
//! quota is charged at admission and released when the request resolves
//! — complete, failed, shed, expired, or cancelled — so one noisy tenant
//! can saturate neither the shared queue nor the worker pool. `None`
//! means unmetered.
//!
//! Per-entry gauges come from the initial model's telemetry when it is
//! enabled (so serving counters land in that model's snapshot and
//! Prometheus exposition) and are standalone otherwise. They stay with
//! the *entry* across swaps: counters are a property of the served name,
//! and resetting them mid-serve would break the conservation law.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bitflow_graph::CompiledModel;
use bitflow_telemetry::ServeGauges;

use crate::govern::MemoryLease;
use crate::policy::Priority;
use crate::server::lock;

/// Name under which [`ModelRegistry::single`] registers its only model
/// (the single-model [`crate::Server::start`] path).
pub const DEFAULT_MODEL: &str = "default";

/// Exponential-moving-average weight for the per-entry batch-latency
/// estimate: `new = old + (sample - old) / 4`.
const EWMA_SHIFT: u32 = 2;

/// One tenant of a multi-model server: a hot-swappable model handle, the
/// entry's serving gauges, its admission quota, and the live admission
/// count the quota meters.
pub struct ModelEntry {
    name: String,
    model: Mutex<Arc<CompiledModel>>,
    gauges: Arc<ServeGauges>,
    quota: Option<u64>,
    priority: Priority,
    in_flight: AtomicU64,
    swaps: AtomicU64,
    ewma_batch_ns: AtomicU64,
    /// The forced charge for the weights currently served under this
    /// name; replaced on hot swap (the displaced model's bytes are
    /// released when its lease drops).
    weight_lease: Mutex<Option<MemoryLease>>,
}

impl ModelEntry {
    fn new(
        name: String,
        model: Arc<CompiledModel>,
        quota: Option<u64>,
        priority: Priority,
    ) -> Self {
        let gauges = match model.telemetry() {
            Some(t) => t.serve(),
            None => Arc::new(ServeGauges::default()),
        };
        Self {
            name,
            model: Mutex::new(model),
            gauges,
            quota,
            priority,
            in_flight: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            ewma_batch_ns: AtomicU64::new(0),
            weight_lease: Mutex::new(None),
        }
    }

    /// The name this entry serves under.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model currently serving this name. New submissions capture
    /// this `Arc`; a concurrent swap does not affect them once captured.
    #[must_use]
    pub fn current(&self) -> Arc<CompiledModel> {
        Arc::clone(&lock(&self.model))
    }

    /// This entry's serving gauges (stable across hot swaps).
    #[must_use]
    pub fn gauges(&self) -> Arc<ServeGauges> {
        Arc::clone(&self.gauges)
    }

    /// Borrow of the gauges for hot accounting paths (no `Arc` clone);
    /// their used-bytes gauge is this tenant's byte ledger.
    pub(crate) fn counters(&self) -> &Arc<ServeGauges> {
        &self.gauges
    }

    /// The admission quota, if any.
    #[must_use]
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// This tenant's shedding class under brownout.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Installs the forced weight charge for the currently served model,
    /// returning the displaced model's lease (dropped by the caller,
    /// releasing its bytes).
    pub(crate) fn set_weight_lease(&self, lease: MemoryLease) -> Option<MemoryLease> {
        lock(&self.weight_lease).replace(lease)
    }

    /// Requests admitted for this entry and not yet resolved.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// How many times this entry's model has been hot-swapped.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Replaces the served model and returns the previous one. In-flight
    /// and queued requests keep the `Arc` they were admitted with; only
    /// subsequent admissions see the replacement.
    pub fn swap_model(&self, new: Arc<CompiledModel>) -> Arc<CompiledModel> {
        let old = std::mem::replace(&mut *lock(&self.model), new);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        old
    }

    /// Charges one admission against the quota; `false` leaves the count
    /// untouched (the submission must be rejected).
    pub(crate) fn try_admit(&self) -> bool {
        let quota = self.quota.unwrap_or(u64::MAX);
        self.in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < quota).then_some(n + 1)
            })
            .is_ok()
    }

    /// Releases one admission (the request resolved, whatever the
    /// outcome).
    pub(crate) fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Folds one served batch's wall time into the latency estimate the
    /// coalescer uses for deadline-fit decisions.
    pub(crate) fn record_batch_ns(&self, ns: u64) {
        // Racy read-modify-write is fine: the estimate steers batching
        // heuristics, not correctness.
        let old = self.ewma_batch_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            ns
        } else {
            old - (old >> EWMA_SHIFT) + (ns >> EWMA_SHIFT)
        };
        self.ewma_batch_ns.store(new.max(1), Ordering::Relaxed);
    }

    /// Estimated wall time of the next served batch (0 before the first
    /// sample — the coalescer then assumes every deadline fits).
    pub(crate) fn est_batch_ns(&self) -> u64 {
        self.ewma_batch_ns.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("name", &self.name)
            .field("quota", &self.quota)
            .field("in_flight", &self.in_flight())
            .field("swaps", &self.swaps())
            .finish_non_exhaustive()
    }
}

/// The tenant set of a multi-model server. Built before
/// [`crate::Server::start_multi`]; the set of names is fixed thereafter,
/// while each name's model can be hot-swapped at any time.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: Vec<Arc<ModelEntry>>,
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry holding one model under [`DEFAULT_MODEL`], unmetered —
    /// what the single-model [`crate::Server::start`] path builds.
    #[must_use]
    pub fn single(model: Arc<CompiledModel>) -> Self {
        let mut reg = Self::new();
        reg.register(DEFAULT_MODEL, model, None);
        reg
    }

    /// Registers `model` under `name` with an optional admission quota
    /// and [`Priority::Normal`] brownout class.
    ///
    /// # Panics
    /// If `name` is already registered — tenancy names must be unique.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        model: Arc<CompiledModel>,
        quota: Option<u64>,
    ) -> Arc<ModelEntry> {
        self.register_with_priority(name, model, quota, Priority::Normal)
    }

    /// [`ModelRegistry::register`] with an explicit brownout priority
    /// class: under degradation, [`Priority::Low`] tenants are shed
    /// first and [`Priority::High`] tenants last.
    ///
    /// # Panics
    /// If `name` is already registered — tenancy names must be unique.
    pub fn register_with_priority(
        &mut self,
        name: impl Into<String>,
        model: Arc<CompiledModel>,
        quota: Option<u64>,
        priority: Priority,
    ) -> Arc<ModelEntry> {
        let name = name.into();
        assert!(
            self.get(&name).is_none(),
            "model `{name}` is already registered"
        );
        let entry = Arc::new(ModelEntry::new(name, model, quota, priority));
        self.entries.push(Arc::clone(&entry));
        entry
    }

    /// The entry serving `name`, if registered.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Arc<ModelEntry>> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Every entry, in registration order (the first is the default the
    /// single-model API paths use).
    #[must_use]
    pub fn entries(&self) -> &[Arc<ModelEntry>] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use bitflow_graph::{small_cnn, NetworkWeights};
    use rand::{rngs::StdRng, SeedableRng};

    fn model(seed: u64) -> Arc<CompiledModel> {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        Arc::new(CompiledModel::try_compile(&spec, &weights).expect("seed model compiles"))
    }

    #[test]
    fn quota_meters_admissions() {
        let mut reg = ModelRegistry::new();
        let entry = reg.register("a", model(1), Some(2));
        assert!(entry.try_admit());
        assert!(entry.try_admit());
        assert!(!entry.try_admit(), "third admission exceeds the quota");
        assert_eq!(entry.in_flight(), 2);
        entry.release();
        assert!(entry.try_admit(), "released capacity is reusable");
    }

    #[test]
    fn swap_flips_the_arc_and_keeps_old_requests_valid() {
        let mut reg = ModelRegistry::new();
        let m1 = model(1);
        let entry = reg.register("a", Arc::clone(&m1), None);
        let captured = entry.current();
        assert!(Arc::ptr_eq(&captured, &m1));
        let m2 = model(2);
        let old = entry.swap_model(Arc::clone(&m2));
        assert!(Arc::ptr_eq(&old, &m1), "swap returns the displaced model");
        assert!(Arc::ptr_eq(&entry.current(), &m2));
        // The pre-swap capture still points at the old weights.
        assert!(Arc::ptr_eq(&captured, &m1));
        assert_eq!(entry.swaps(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_are_rejected() {
        let mut reg = ModelRegistry::new();
        reg.register("a", model(1), None);
        reg.register("a", model(2), None);
    }

    #[test]
    fn priority_defaults_to_normal_and_is_settable() {
        let mut reg = ModelRegistry::new();
        let plain = reg.register("plain", model(1), None);
        assert_eq!(plain.priority(), Priority::Normal);
        let low = reg.register_with_priority("batchy", model(2), None, Priority::Low);
        assert_eq!(low.priority(), Priority::Low);
        let high = reg.register_with_priority("paying", model(3), None, Priority::High);
        assert_eq!(high.priority(), Priority::High);
    }

    #[test]
    fn ewma_tracks_batch_latency() {
        let mut reg = ModelRegistry::new();
        let entry = reg.register("a", model(1), None);
        assert_eq!(entry.est_batch_ns(), 0, "no estimate before a sample");
        entry.record_batch_ns(1000);
        assert_eq!(entry.est_batch_ns(), 1000, "first sample seeds the EWMA");
        entry.record_batch_ns(2000);
        let est = entry.est_batch_ns();
        assert!(
            (1000..2000).contains(&est),
            "EWMA moves toward the new sample, got {est}"
        );
    }
}
