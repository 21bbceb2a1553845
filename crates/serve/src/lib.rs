//! # bitflow-serve
//!
//! Overload-safe serving runtime in front of a
//! [`bitflow_graph::CompiledModel`]: a bounded admission queue feeding a
//! persistent pool of worker threads, each with one slot holding the
//! [`bitflow_graph::engine::InferenceContext`] it serves in — a slot a
//! parked worker lends to a blocking caller ([`ModelClient::call`]), who
//! then runs its own request without crossing the queue.
//!
//! Design goals, in priority order:
//!
//! 1. **Explicit backpressure.** [`Server::submit`] never blocks and never
//!    silently drops: it either admits the request or returns a typed
//!    [`bitflow_graph::RejectReason`] (`QueueFull`, `Shedding`,
//!    `Draining`). The shedding policy is configurable: reject the newest
//!    submission, or evict an already-dead queued request first
//!    ([`ShedPolicy::DeadlineAware`]).
//! 2. **Deadlines end-to-end.** A per-request deadline becomes a
//!    [`bitflow_graph::CancelToken`] checked at every operator boundary
//!    inside the engine, so an expired request stops within one operator's
//!    latency instead of wasting a worker on a response nobody will read.
//! 3. **Fault isolation.** A panicking operator takes down one request,
//!    not the server: the engine catches panics per request, rebuilds the
//!    scratch context it ran in, and the worker keeps serving. A panic that escapes the
//!    per-request backstop restarts the worker loop (the watchdog).
//!    Repeated faults trip a circuit breaker into graceful degradation:
//!    queued work drains, new work is rejected with `Shedding` until a
//!    cooldown elapses.
//! 4. **Goodput under load.** Workers practice *continuous
//!    micro-batching*: a deep queue is coalesced into batched engine
//!    calls ([`ServerConfig::max_batch`], deadline-aware, same model
//!    only), amortising dispatch overhead exactly when throughput
//!    matters; a calm queue is served one request at a time with zero
//!    added latency (the default [`ServerConfig::coalesce_window`] is
//!    zero).
//! 5. **Multi-model tenancy.** One queue and one pool serve every entry
//!    of a [`ModelRegistry`]; per-tenant admission quotas and per-tenant
//!    [`bitflow_telemetry::ServeGauges`] keep tenants isolated and
//!    accountable, and [`ModelClient::swap`] hot-swaps a tenant's model
//!    with zero downtime (in-flight requests finish on the weights they
//!    were admitted with).
//! 6. **Resource governance.** A [`ResourceGovernor`] meters the bytes
//!    behind registered weights, worker contexts, and admitted request
//!    payloads against global and per-tenant budgets, each charge held
//!    by an RAII [`MemoryLease`]. Sustained pressure degrades service
//!    through a brownout state machine ([`DegradationState`]) — shed
//!    [`Priority::Low`] tenants first, shrink coalesce windows, report
//!    the state on every health surface — instead of letting the
//!    allocator abort the process.
//! 7. **Chaos is a first-class citizen.** [`ChaosConfig`] injects
//!    seed-deterministic slow operators, panicking operators, queue
//!    stalls, and worker kills, so the soak tests exercise every failure
//!    path above without wall-clock flakiness deciding *which* path —
//!    including inside coalesced batches, where the engine's per-request
//!    tags carry the chaos stream onto the worker team's threads.
//!
//! Every admitted request resolves exactly once; each tenant's
//! [`bitflow_telemetry::ServeGauges`] counters independently obey the
//! conservation law documented on [`bitflow_telemetry::ServeSnapshot`].
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod config;
pub mod govern;
pub mod registry;
pub mod server;

pub use chaos::ChaosConfig;
pub use config::{BreakerConfig, ServerConfig, ShedPolicy};
pub use govern::{DegradationState, GovernorConfig, MemoryLease, Priority, ResourceGovernor};
pub use registry::{ModelEntry, ModelRegistry, DEFAULT_MODEL};
pub use server::{ModelClient, ResponseHandle, Server, Submission};
