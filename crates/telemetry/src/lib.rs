//! # bitflow-telemetry
//!
//! Operator-level telemetry for the BitFlow serving path.
//!
//! The paper's speedups (Figs. 7–9) come from knowing exactly where cycles
//! go inside the three-level hierarchy (bgemm → PressedConv → graph). This
//! crate makes that visible in production without slowing the hot path:
//!
//! * [`ModelTelemetry`] — one shared, lock-free handle per compiled model:
//!   per-operator call counts, latency histograms (p50/p95/p99), a static
//!   cost model (bit-ops, bytes moved, bgemm tile shape) from which GOPS
//!   and bandwidth are derived at snapshot time, and batch-queue gauges.
//! * [`MetricsSnapshot`] — a plain-data, `serde`-serializable copy of every
//!   counter, written by the bench bins to `results/telemetry.json`.
//! * [`TraceBuilder`] / [`FlightRecorder`] — request-scoped lifecycle
//!   tracing across net → serve → engine, with tail-based sampling (every
//!   error plus the slowest N per window) under a hard byte budget, and
//!   [`to_chrome_trace`] to export retained traces for Perfetto.
//!
//! ## Overhead contract
//!
//! Telemetry is *opt-in per model*. When not enabled the engine holds an
//! empty `OnceLock` and pays one pointer check per request. When enabled,
//! recording one operator costs an `Instant` pair plus four relaxed
//! `fetch_add`s — no locks, no allocation — which keeps the measured
//! end-to-end overhead below 3% on the Table IV workloads. Request traces
//! allocate, but only for a request that carries a [`TraceBuilder`].
#![forbid(unsafe_code)]

mod chrome;
mod hist;
mod metrics;
mod prometheus;
mod recorder;
pub mod roofline;
mod snapshot;
mod span;

pub use chrome::to_chrome_trace;
pub use hist::{bucket_upper_edge, percentile_of, LatencyHistogram};
pub use metrics::{
    BatchGauges, ModelTelemetry, OpCost, OpDescriptor, OpKind, ServeGauges, StageTimer, TileStats,
};
pub use recorder::{FlightRecorder, RecorderConfig, RecorderStats};
pub use roofline::{BwSource, Roofline};
pub use snapshot::{
    BatchSnapshot, GovernSnapshot, HistBucket, MachineSnapshot, MetricsSnapshot, OpBound,
    OpSnapshot, PerfSnapshot, ServeSnapshot, SizeBucket, StageSnapshot, BATCH_SIZE_EDGES,
    SCHEMA_VERSION,
};
pub use span::{OpSpan, RequestTrace, Stage, StageSpan, TraceBuilder};
