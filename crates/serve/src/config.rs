//! Serving-runtime configuration: pool size, queue bound, default
//! deadline, micro-batching, circuit breaker, chaos, request tracing.

use std::sync::Arc;
use std::time::Duration;

use bitflow_telemetry::FlightRecorder;

use crate::chaos::ChaosConfig;
use crate::govern::GovernorConfig;

/// What `submit` does when the admission queue is at capacity. There is
/// one behaviour; the type stays because callers name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Evict one queued request that is already dead — deadline passed or
    /// caller-cancelled — resolve it with its typed error, and admit the
    /// new request in its place; with no dead entry, reject the new one
    /// with [`bitflow_graph::RejectReason::QueueFull`].
    #[default]
    DeadlineAware,
}

/// Circuit breaker: after `fault_threshold` *consecutive* worker faults
/// (panics isolated from inference), the server sheds all new submissions
/// for `cooldown` while queued work keeps draining.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive faults that trip the breaker.
    pub fault_threshold: u32,
    /// How long admissions stay shed once tripped.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            fault_threshold: 5,
            cooldown: Duration::from_millis(500),
        }
    }
}

/// Full server configuration. `Default` is a small sane pool; see
/// [`ServerConfig::from_env`] for the environment knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (each owns one inference context). Clamped to ≥ 1.
    pub workers: usize,
    /// Admission-queue bound. Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without an explicit one.
    /// `None`: such requests never expire.
    pub default_deadline: Option<Duration>,
    /// Behaviour at queue capacity.
    pub shed_policy: ShedPolicy,
    /// Largest micro-batch a worker may coalesce into one engine call.
    /// `1` disables batching (every request is served individually).
    /// Clamped to ≥ 1.
    pub max_batch: usize,
    /// How long a worker with an under-full batch may wait for more
    /// compatible requests to arrive before serving what it has.
    /// `Duration::ZERO` (the default) never waits: under calm traffic a
    /// lone request is served immediately and p50 latency is unchanged;
    /// batches then only form when the queue is already deep.
    pub coalesce_window: Duration,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Memory budgets for the resource governor
    /// ([`crate::ResourceGovernor`]). The default is unmetered in both
    /// scopes: usage is still accounted (gauges stay truthful) but
    /// nothing is refused for it.
    pub govern: GovernorConfig,
    /// Fault injection; `None` serves faithfully.
    pub chaos: Option<ChaosConfig>,
    /// Request-lifecycle tracing sink. `None` (the default) disables
    /// tracing entirely: no [`bitflow_telemetry::TraceBuilder`] is ever
    /// built and the submit path stays allocation-free. With a recorder,
    /// every request is traced (admit/queue/batch/exec stages plus the
    /// engine's operator spans) and finished traces are offered to the
    /// recorder's tail-sampling policy.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            shed_policy: ShedPolicy::default(),
            max_batch: 8,
            coalesce_window: Duration::ZERO,
            breaker: BreakerConfig::default(),
            govern: GovernorConfig::default(),
            chaos: None,
            recorder: None,
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by the environment:
    ///
    /// * `BITFLOW_SERVE_WORKERS` — pool size.
    /// * `BITFLOW_SERVE_QUEUE` — admission-queue bound.
    /// * `BITFLOW_SERVE_DEADLINE_MS` — default per-request deadline in
    ///   milliseconds; `0` means no default deadline.
    /// * `BITFLOW_SERVE_MAX_BATCH` — largest coalesced micro-batch;
    ///   `1` disables batching.
    /// * `BITFLOW_SERVE_COALESCE_US` — max wait for an under-full batch,
    ///   microseconds; `0` (default) never waits.
    /// * `BITFLOW_MEM_BUDGET` — global byte budget for the resource
    ///   governor; `0` (default) leaves it unmetered.
    /// * `BITFLOW_MEM_TENANT_BUDGET` — per-tenant byte budget; `0`
    ///   (default) unmetered.
    /// * `BITFLOW_CHAOS` — fault injection, up to nine `:`-separated
    ///   fields (see [`ChaosConfig::from_env`]).
    /// * `BITFLOW_TRACE` (with `BITFLOW_TRACE_SAMPLE` /
    ///   `BITFLOW_TRACE_BYTES`) — request tracing into a bounded flight
    ///   recorder (see [`FlightRecorder::from_env`]).
    ///
    /// Malformed values are ignored (the default stands): configuration
    /// must never take the server down.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(v) = env_u64("BITFLOW_SERVE_WORKERS") {
            cfg.workers = v as usize;
        }
        if let Some(v) = env_u64("BITFLOW_SERVE_QUEUE") {
            cfg.queue_capacity = v as usize;
        }
        if let Some(v) = env_u64("BITFLOW_SERVE_DEADLINE_MS") {
            cfg.default_deadline = (v > 0).then(|| Duration::from_millis(v));
        }
        if let Some(v) = env_u64("BITFLOW_SERVE_MAX_BATCH") {
            cfg.max_batch = (v as usize).max(1);
        }
        if let Some(v) = env_u64("BITFLOW_SERVE_COALESCE_US") {
            cfg.coalesce_window = Duration::from_micros(v);
        }
        if let Some(v) = env_u64("BITFLOW_MEM_BUDGET") {
            cfg.govern.global_budget = (v > 0).then_some(v);
        }
        if let Some(v) = env_u64("BITFLOW_MEM_TENANT_BUDGET") {
            cfg.govern.tenant_budget = (v > 0).then_some(v);
        }
        cfg.chaos = ChaosConfig::from_env();
        cfg.recorder = FlightRecorder::from_env();
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_capacity >= 1);
        assert!(cfg.default_deadline.is_none());
        assert_eq!(cfg.shed_policy, ShedPolicy::DeadlineAware);
        assert!(cfg.chaos.is_none());
        assert_eq!(cfg.govern, GovernorConfig::default(), "unmetered default");
        assert!(cfg.breaker.fault_threshold >= 1);
        assert!(cfg.max_batch >= 1);
        assert_eq!(
            cfg.coalesce_window,
            Duration::ZERO,
            "calm-traffic latency must not regress by default"
        );
    }
}
