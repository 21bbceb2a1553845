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
//! * [`ServeGauges`] / [`BatchGauges`] — the serving, network, governance
//!   and batch cells, generated with their snapshot structs and Prometheus
//!   descriptors from the one metric table (`table.rs`): a new counter is
//!   one row there plus the call site that bumps it.
//! * [`MetricsSnapshot`] — a plain-data, `serde`-serializable copy of every
//!   counter, written by the bench bins to `results/telemetry.json`, and
//!   [`to_prometheus`] — one text exposition of any number of snapshots.
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
mod table;

pub use chrome::to_chrome_trace;
pub use hist::{bucket_upper_edge, percentile_of, LatencyHistogram};
pub use metrics::{ModelTelemetry, OpCost, OpDescriptor, OpKind, TileStats};
pub use prometheus::to_prometheus;
pub use recorder::{FlightRecorder, RecorderConfig, RecorderStats};
pub use roofline::{BwSource, Roofline};
pub use snapshot::{
    HistBucket, MachineSnapshot, MetricsSnapshot, OpBound, OpSnapshot, SizeBucket, StageSnapshot,
    BATCH_SIZE_EDGES, SCHEMA_VERSION,
};
pub use span::{OpSpan, RequestTrace, Stage, StageSpan, TraceBuilder};
pub use table::{
    BatchGauges, BatchSnapshot, Counter, Gauge, GovernGauges, GovernSnapshot, HighWater,
    ServeGauges, ServeSnapshot, StageTimer,
};
