//! # bitflow-serve
//!
//! Overload-safe serving runtime in front of a
//! [`bitflow_graph::CompiledModel`]: a bounded admission queue feeding a
//! persistent pool of worker threads, each with one slot holding the
//! [`bitflow_graph::engine::InferenceContext`] it serves in — a slot a
//! parked worker lends to a blocking caller ([`ModelClient::call`]).
//!
//! Design goals, in priority order (ARCHITECTURE §7 has the detail):
//!
//! 1. **Explicit backpressure.** [`Server::submit`] never blocks and never
//!    silently drops: it admits or returns a typed
//!    [`bitflow_graph::RejectReason`]. At capacity an already-dead queued
//!    request is evicted first; only a queue of live requests refuses.
//! 2. **Deadlines end-to-end**, as a [`bitflow_graph::CancelToken`] the
//!    engine checks at every operator boundary.
//! 3. **Fault isolation.** A panicking operator takes down one request,
//!    not the server; repeated faults trip a circuit breaker that sheds
//!    new work for a cooldown while queued work drains.
//! 4. **Goodput under load.** A deep queue coalesces into batched engine
//!    calls; a calm one is served a request at a time with no added wait.
//! 5. **Multi-model tenancy**: per-tenant quotas and gauges, and
//!    [`ModelClient::swap`] to hot-swap a tenant's model.
//! 6. **Resource governance.** A [`ResourceGovernor`] meters weights,
//!    contexts and payloads through RAII [`MemoryLease`]s, each tenant's
//!    bytes on its own `bitflow_mem_used_bytes` gauge; sustained pressure
//!    degrades service ([`DegradationState`], shedding [`Priority::Low`]
//!    first) instead of letting the allocator abort.
//! 7. **Seed-deterministic chaos** ([`ChaosConfig`]) reaches every failure
//!    path above, inside coalesced batches too.
//!
//! Every decision behind goals 1, 3, 4 and 6 is one [`policy::Policy`]
//! value the server holds under its queue lock. Every admitted request
//! resolves exactly once, and each tenant's counters obey the conservation
//! law documented on [`bitflow_telemetry::ServeSnapshot`].
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod config;
pub mod govern;
pub mod policy;
pub mod registry;
pub mod server;

pub use chaos::ChaosConfig;
pub use config::{BreakerConfig, ServerConfig, ShedPolicy};
pub use govern::{GovernorConfig, MemoryLease, ResourceGovernor};
pub use policy::{DegradationState, Priority};
pub use registry::{ModelEntry, ModelRegistry, DEFAULT_MODEL};
pub use server::{ModelClient, ResponseHandle, Server, Submission};
