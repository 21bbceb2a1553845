//! Lock-free per-operator metrics and batch-queue gauges.
//!
//! A [`ModelTelemetry`] is built once per compiled model from a list of
//! [`OpDescriptor`]s (name, kind, static cost model) and shared behind an
//! `Arc` by every serving thread. Recording a sample touches only relaxed
//! atomics — no locks, no allocation — so enabled-telemetry overhead is a
//! `Instant` pair plus a handful of `fetch_add`s per operator.
//!
//! The *cost model* ([`OpCost`]) is computed at compile time from the
//! operator's geometry: how many effective xor+popcount bit-operations one
//! call performs, how many bytes it moves, and (for GEMM-backed operators)
//! the tile shape. The hot path records only latency; rates like GOPS and
//! bandwidth fall out at snapshot time as `cost × calls / total_ns`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bitflow_simd::perf::{self, PerfSample};
use serde::{Deserialize, Serialize};

use std::sync::Arc;

use crate::hist::{bucket_upper_edge, LatencyHistogram};
use crate::snapshot::{
    BatchSnapshot, GovernSnapshot, HistBucket, MetricsSnapshot, OpBound, OpSnapshot, PerfSnapshot,
    ServeSnapshot, SizeBucket, StageSnapshot, BATCH_SIZE_EDGES, SCHEMA_VERSION,
};

/// Coarse operator category, mirroring the engine's runtime op set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Float input → sign bits (first-layer binarization).
    Binarize,
    /// PressedConv binary convolution.
    Conv,
    /// Binary max-pool (OR over packed words).
    Pool,
    /// Spatial-to-row reflattening between conv and FC stages.
    Flatten,
    /// Binary fully-connected layer with sign activation.
    Fc,
    /// Final fully-connected layer producing integer logits.
    FcOut,
}

impl OpKind {
    /// Stable lower-case label used in snapshots.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Binarize => "binarize",
            OpKind::Conv => "conv",
            OpKind::Pool => "pool",
            OpKind::Flatten => "flatten",
            OpKind::Fc => "fc",
            OpKind::FcOut => "fc-out",
        }
    }
}

/// bgemm micro-kernel tile geometry for a GEMM-backed operator, following
/// the paper's M×N×K convention (§III-C): N is the reduction / vector axis,
/// K the output-neuron / multi-core axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileStats {
    /// GEMM M dimension (rows / output pixels).
    pub m: usize,
    /// GEMM K dimension (output channels / neurons) — the multi-core axis.
    pub k: usize,
    /// GEMM N (reduction) dimension in packed 64-bit words — the vector axis.
    pub n_words: usize,
    /// 4-way-unrolled output quads per row in the micro-kernel.
    pub quads: usize,
    /// Remainder outputs per row handled by the non-unrolled tail.
    pub tail: usize,
    /// Output-column chunk granted to each parallel task.
    pub par_k_chunk: usize,
}

/// Static per-call cost of one operator, derived from its geometry at
/// compile time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCost {
    /// Effective xor+popcount bit-operations per call: 2 ops (one xor, one
    /// popcount-accumulate) for every weight·activation bit position the
    /// operator evaluates. This is the numerator of the paper's
    /// "binary GOPS" throughput metric.
    pub bit_ops: u64,
    /// Bytes read per call (packed activations + packed weights).
    pub bytes_read: u64,
    /// Bytes written per call.
    pub bytes_written: u64,
    /// Micro-kernel tile geometry, for GEMM-backed operators.
    pub tile: Option<TileStats>,
}

/// Compile-time description of one operator channel.
#[derive(Clone, Debug)]
pub struct OpDescriptor {
    /// Operator name (layer name or builtin step name like "binarize-input").
    pub name: String,
    /// Operator category.
    pub kind: OpKind,
    /// Static per-call cost.
    pub cost: OpCost,
}

/// Live counters for one operator. All fields are relaxed atomics.
struct OpMetrics {
    calls: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: LatencyHistogram,
}

impl OpMetrics {
    fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            hist: LatencyHistogram::new(),
        }
    }

    #[inline]
    fn record(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.hist.record(ns);
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.hist.reset();
    }
}

struct OpChannel {
    name: String,
    kind: OpKind,
    cost: OpCost,
    metrics: OpMetrics,
}

/// Batch-serving gauges updated by `try_infer_batch`.
#[derive(Default)]
pub struct BatchGauges {
    batches: AtomicU64,
    items: AtomicU64,
    failed_items: AtomicU64,
    chunks: AtomicU64,
    max_batch: AtomicU64,
    queued_items: AtomicU64,
}

impl BatchGauges {
    /// Called once when a batch of `items` requests is accepted, split into
    /// `chunks` per-thread chunks. Raises the queued-items gauge.
    pub fn batch_started(&self, items: u64, chunks: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.chunks.fetch_add(chunks, Ordering::Relaxed);
        self.max_batch.fetch_max(items, Ordering::Relaxed);
        self.queued_items.fetch_add(items, Ordering::Relaxed);
    }

    /// Called per completed item. Lowers the queued-items gauge; counts the
    /// item as failed when `ok` is false.
    pub fn item_finished(&self, ok: bool) {
        self.queued_items.fetch_sub(1, Ordering::Relaxed);
        if !ok {
            self.failed_items.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Items currently in flight inside `try_infer_batch` (0 when idle).
    pub fn queued(&self) -> u64 {
        self.queued_items.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> BatchSnapshot {
        BatchSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            failed_items: self.failed_items.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queued_items: self.queued_items.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.batches.store(0, Ordering::Relaxed);
        self.items.store(0, Ordering::Relaxed);
        self.failed_items.store(0, Ordering::Relaxed);
        self.chunks.store(0, Ordering::Relaxed);
        self.max_batch.store(0, Ordering::Relaxed);
        // queued_items is a live gauge, not a counter: leave it alone.
    }
}

/// One always-on request-lifecycle stage timer: a lock-free latency
/// histogram plus a running nanosecond sum, so the Prometheus exposition
/// can render a real histogram family (`_bucket`/`_sum`/`_count`).
/// Recording is two relaxed `fetch_add`s — cheap enough to leave on even
/// when tracing is off.
#[derive(Default)]
pub struct StageTimer {
    hist: LatencyHistogram,
    total_ns: AtomicU64,
}

impl StageTimer {
    /// Records one stage duration.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.hist.record(ns);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StageSnapshot {
        let buckets = self.hist.snapshot_buckets();
        StageSnapshot {
            count: self.hist.count(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(idx, &count)| HistBucket {
                    le_ns: bucket_upper_edge(idx),
                    count,
                })
                .collect(),
        }
    }

    fn reset(&self) {
        self.hist.reset();
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for StageTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageTimer")
            .field("count", &self.hist.count())
            .field("total_ns", &self.total_ns.load(Ordering::Relaxed))
            .finish()
    }
}

/// Serving-runtime counters updated by `bitflow-serve`: admission,
/// shedding, deadlines, worker health. All relaxed atomics — the serving
/// hot path records into these lock-free, and the server shares one handle
/// with [`ModelTelemetry`] so the counters surface in
/// [`MetricsSnapshot::serve`] and the Prometheus exposition.
#[derive(Debug, Default)]
pub struct ServeGauges {
    submitted: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shedding: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_quota: AtomicU64,
    shed_deadline: AtomicU64,
    deadline_missed: AtomicU64,
    cancelled: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    breaker_trips: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_max: AtomicU64,
    batches: AtomicU64,
    batch_items: AtomicU64,
    batch_size_max: AtomicU64,
    // One counter per BATCH_SIZE_EDGES bucket plus the overflow bucket.
    batch_size_hist: [AtomicU64; BATCH_SIZE_EDGES.len() + 1],
    net_accepted_conns: AtomicU64,
    net_rejected_conns: AtomicU64,
    net_timeouts_read: AtomicU64,
    net_timeouts_write: AtomicU64,
    net_malformed_requests: AtomicU64,
    net_bytes_in: AtomicU64,
    net_bytes_out: AtomicU64,
    rejected_memory: AtomicU64,
    net_accept_errors: AtomicU64,
    net_spawn_sheds: AtomicU64,
    mem_used_bytes: AtomicU64,
    mem_budget_bytes: AtomicU64,
    mem_leases: AtomicU64,
    degradation_state: AtomicU64,
    stage_queue_wait: StageTimer,
    stage_batch_wait: StageTimer,
    stage_exec: StageTimer,
    stage_write: StageTimer,
}

impl ServeGauges {
    /// A request was offered to `submit` (admitted or not).
    pub fn submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request entered the admission queue. Raises the depth gauge.
    pub fn enqueued(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// A request left the admission queue (picked up or shed). Lowers the
    /// depth gauge.
    pub fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A submission was refused with the given rejection label
    /// (`"queue_full"`, `"shedding"`, `"draining"`, `"quota"`,
    /// `"memory"` — anything else counts as queue-full, the conservative
    /// bucket).
    pub fn rejected(&self, label: &str) {
        match label {
            "shedding" => &self.rejected_shedding,
            "draining" => &self.rejected_draining,
            "quota" => &self.rejected_quota,
            "memory" => &self.rejected_memory,
            _ => &self.rejected_queue_full,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// A worker served one coalesced micro-batch of `size` requests in a
    /// single engine call (`size == 1` is the unbatched fast path).
    pub fn batch_served(&self, size: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(size, Ordering::Relaxed);
        self.batch_size_max.fetch_max(size, Ordering::Relaxed);
        let idx = BATCH_SIZE_EDGES
            .iter()
            .position(|&edge| size <= edge)
            .unwrap_or(BATCH_SIZE_EDGES.len());
        self.batch_size_hist[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request completed with logits.
    pub fn completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request resolved to a typed inference error.
    pub fn failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request was dropped before running: its deadline budget
    /// was already unmeetable.
    pub fn shed_deadline(&self) {
        self.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request was cancelled mid-run by its deadline.
    pub fn deadline_missed(&self) {
        self.deadline_missed.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request was cancelled by its caller.
    pub fn cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker caught and isolated a panic.
    pub fn worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker loop was restarted after a panic escaped the per-request
    /// backstop.
    pub fn worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// The circuit breaker tripped into the shedding state.
    pub fn breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests waiting in the admission queue right now.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The network front-end accepted a TCP connection.
    pub fn conn_accepted(&self) {
        self.net_accepted_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// The accept loop refused a TCP connection (connection cap).
    pub fn conn_rejected(&self) {
        self.net_rejected_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was dropped because a read deadline expired (slowloris
    /// header drip or stalled body).
    pub fn read_timeout(&self) {
        self.net_timeouts_read.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was dropped because a response write stalled past its
    /// deadline.
    pub fn write_timeout(&self) {
        self.net_timeouts_write.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused as malformed before reaching admission.
    pub fn malformed_request(&self) {
        self.net_malformed_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` request bytes were read off the wire.
    pub fn add_bytes_in(&self, n: u64) {
        self.net_bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` response bytes were written to the wire.
    pub fn add_bytes_out(&self, n: u64) {
        self.net_bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// The accept loop's `accept(2)` returned a non-transient error
    /// (EMFILE/ENFILE descriptor exhaustion included).
    pub fn accept_error(&self) {
        self.net_accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was shed because its handler thread could not be
    /// spawned — counted apart from cap rejections so descriptor/thread
    /// exhaustion is visible as its own failure mode.
    pub fn spawn_shed(&self) {
        self.net_spawn_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// The resource governor granted a lease of `bytes`. Raises the
    /// used-bytes and live-lease gauges.
    pub fn mem_reserved(&self, bytes: u64) {
        self.mem_used_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.mem_leases.fetch_add(1, Ordering::Relaxed);
    }

    /// A memory lease of `bytes` was released. Lowers the used-bytes and
    /// live-lease gauges.
    pub fn mem_released(&self, bytes: u64) {
        self.mem_used_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.mem_leases.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes the governor's global byte budget (0 = unbudgeted).
    pub fn set_mem_budget(&self, bytes: u64) {
        self.mem_budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Publishes the brownout state machine's current state
    /// (0 = Normal, 1 = Brownout, 2 = Shed).
    pub fn set_degradation_state(&self, state: u64) {
        self.degradation_state.store(state, Ordering::Relaxed);
    }

    /// The brownout state machine's last published state.
    pub fn degradation_state(&self) -> u64 {
        self.degradation_state.load(Ordering::Relaxed)
    }

    /// A request spent `ns` in the admission queue before a worker popped
    /// it.
    #[inline]
    pub fn record_queue_wait_ns(&self, ns: u64) {
        self.stage_queue_wait.record(ns);
    }

    /// A request spent `ns` between being popped and its micro-batch
    /// starting execution (coalescing window plus dispatch).
    #[inline]
    pub fn record_batch_wait_ns(&self, ns: u64) {
        self.stage_batch_wait.record(ns);
    }

    /// A request spent `ns` executing inside the engine.
    #[inline]
    pub fn record_exec_ns(&self, ns: u64) {
        self.stage_exec.record(ns);
    }

    /// A response spent `ns` being written to the wire.
    #[inline]
    pub fn record_write_ns(&self, ns: u64) {
        self.stage_write.record(ns);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_shedding: self.rejected_shedding.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_items: self.batch_items.load(Ordering::Relaxed),
            batch_size_max: self.batch_size_max.load(Ordering::Relaxed),
            batch_size_hist: self
                .batch_size_hist
                .iter()
                .enumerate()
                .filter(|(_, c)| c.load(Ordering::Relaxed) > 0)
                .map(|(idx, c)| SizeBucket {
                    le: BATCH_SIZE_EDGES.get(idx).copied().unwrap_or(u64::MAX),
                    count: c.load(Ordering::Relaxed),
                })
                .collect(),
            net_accepted_conns: self.net_accepted_conns.load(Ordering::Relaxed),
            net_rejected_conns: self.net_rejected_conns.load(Ordering::Relaxed),
            net_timeouts_read: self.net_timeouts_read.load(Ordering::Relaxed),
            net_timeouts_write: self.net_timeouts_write.load(Ordering::Relaxed),
            net_malformed_requests: self.net_malformed_requests.load(Ordering::Relaxed),
            net_bytes_in: self.net_bytes_in.load(Ordering::Relaxed),
            net_bytes_out: self.net_bytes_out.load(Ordering::Relaxed),
            govern: GovernSnapshot {
                rejected_memory: self.rejected_memory.load(Ordering::Relaxed),
                net_accept_errors: self.net_accept_errors.load(Ordering::Relaxed),
                net_spawn_sheds: self.net_spawn_sheds.load(Ordering::Relaxed),
                mem_used_bytes: self.mem_used_bytes.load(Ordering::Relaxed),
                mem_budget_bytes: self.mem_budget_bytes.load(Ordering::Relaxed),
                mem_leases: self.mem_leases.load(Ordering::Relaxed),
                degradation_state: self.degradation_state.load(Ordering::Relaxed),
            },
            stage_queue_wait: self.stage_queue_wait.snapshot(),
            stage_batch_wait: self.stage_batch_wait.snapshot(),
            stage_exec: self.stage_exec.snapshot(),
            stage_write: self.stage_write.snapshot(),
        }
    }

    fn reset(&self) {
        for c in [
            &self.submitted,
            &self.accepted,
            &self.completed,
            &self.failed,
            &self.rejected_queue_full,
            &self.rejected_shedding,
            &self.rejected_draining,
            &self.rejected_quota,
            &self.shed_deadline,
            &self.deadline_missed,
            &self.cancelled,
            &self.worker_panics,
            &self.worker_restarts,
            &self.breaker_trips,
            &self.queue_depth_max,
            &self.batches,
            &self.batch_items,
            &self.batch_size_max,
            &self.net_accepted_conns,
            &self.net_rejected_conns,
            &self.net_timeouts_read,
            &self.net_timeouts_write,
            &self.net_malformed_requests,
            &self.net_bytes_in,
            &self.net_bytes_out,
            &self.rejected_memory,
            &self.net_accept_errors,
            &self.net_spawn_sheds,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.batch_size_hist {
            c.store(0, Ordering::Relaxed);
        }
        for t in [
            &self.stage_queue_wait,
            &self.stage_batch_wait,
            &self.stage_exec,
            &self.stage_write,
        ] {
            t.reset();
        }
        // queue_depth, mem_used_bytes, mem_budget_bytes, mem_leases, and
        // degradation_state are live gauges, not counters: leave them
        // alone.
    }
}

/// Hardware-counter totals accumulated across sampled requests. All
/// relaxed atomics; the optional events track how many samples actually
/// carried them so absence is never reported as zero.
#[derive(Default)]
struct PerfTotals {
    sampled_requests: AtomicU64,
    cycles: AtomicU64,
    instructions: AtomicU64,
    llc_misses: AtomicU64,
    llc_samples: AtomicU64,
    branch_misses: AtomicU64,
    branch_samples: AtomicU64,
}

/// Whether BITFLOW_PERF explicitly disables counter sampling.
fn perf_disabled_by_env() -> bool {
    std::env::var_os("BITFLOW_PERF").is_some_and(|v| v.as_os_str() == "0")
}

/// All telemetry state for one compiled model: per-operator channels,
/// batch gauges, and perf-counter totals. Shared behind `Arc` by every
/// thread serving the model.
pub struct ModelTelemetry {
    model: String,
    ops: Vec<OpChannel>,
    batch: BatchGauges,
    requests: AtomicU64,
    perf_sampling: AtomicBool,
    perf: PerfTotals,
    serve: Arc<ServeGauges>,
}

impl ModelTelemetry {
    /// Telemetry for a model with the given operator channels.
    pub fn new(model: impl Into<String>, descriptors: Vec<OpDescriptor>) -> Self {
        let ops = descriptors
            .into_iter()
            .map(|d| OpChannel {
                name: d.name,
                kind: d.kind,
                cost: d.cost,
                metrics: OpMetrics::new(),
            })
            .collect();
        // Sampling defaults to on whenever the machine can deliver it;
        // BITFLOW_PERF=0 opts out. Probing here (construction happens at
        // enable-telemetry time, off the hot path) keeps the per-request
        // check a single relaxed load.
        let sampling = !perf_disabled_by_env() && perf::probe().is_ok();
        Self {
            model: model.into(),
            ops,
            batch: BatchGauges::default(),
            requests: AtomicU64::new(0),
            perf_sampling: AtomicBool::new(sampling),
            perf: PerfTotals::default(),
            serve: Arc::new(ServeGauges::default()),
        }
    }

    /// Handle to the serving-runtime counters. The serving layer clones
    /// this so its admission/deadline/worker events land in the same
    /// snapshot and Prometheus exposition as the operator metrics.
    pub fn serve(&self) -> Arc<ServeGauges> {
        Arc::clone(&self.serve)
    }

    /// Number of operator channels.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Name of operator channel `idx`.
    pub fn op_name(&self, idx: usize) -> Option<&str> {
        self.ops.get(idx).map(|c| c.name.as_str())
    }

    /// Records one sample for operator channel `idx`. Out-of-range indices
    /// are ignored (telemetry must never panic the serving path).
    #[inline]
    pub fn record_op(&self, idx: usize, ns: u64) {
        if let Some(ch) = self.ops.get(idx) {
            ch.metrics.record(ns);
        }
    }

    /// Counts one request entering the operator loop (the snapshot's
    /// `requests`).
    #[inline]
    pub fn request_started(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Batch-serving gauges.
    pub fn batch(&self) -> &BatchGauges {
        &self.batch
    }

    /// Whether per-request hardware-counter sampling is active.
    #[inline]
    pub fn perf_sampling(&self) -> bool {
        self.perf_sampling.load(Ordering::Relaxed)
    }

    /// Turns hardware-counter sampling on or off at runtime. Turning it on
    /// on a machine without counter access is harmless: every request
    /// degrades to the uncounted path.
    pub fn set_perf_sampling(&self, on: bool) {
        self.perf_sampling.store(on, Ordering::Relaxed);
    }

    /// Accumulates one request's counter sample.
    pub fn record_perf_sample(&self, s: &PerfSample) {
        self.perf.sampled_requests.fetch_add(1, Ordering::Relaxed);
        self.perf.cycles.fetch_add(s.cycles, Ordering::Relaxed);
        self.perf
            .instructions
            .fetch_add(s.instructions, Ordering::Relaxed);
        if let Some(v) = s.llc_misses {
            self.perf.llc_misses.fetch_add(v, Ordering::Relaxed);
            self.perf.llc_samples.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(v) = s.branch_misses {
            self.perf.branch_misses.fetch_add(v, Ordering::Relaxed);
            self.perf.branch_samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `f` with this thread's hardware-counter group counting, and
    /// accumulates the sample into the model totals. When sampling is off
    /// or counters are unavailable, `f` runs directly — the only cost is
    /// one relaxed load. Allocation-free in every steady-state path.
    #[inline]
    pub fn perf_request_scope<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.perf_sampling.load(Ordering::Relaxed) {
            return f();
        }
        perf::with_thread_group(|g| match g {
            Some(g) => {
                let (r, sample) = g.measure(f);
                if let Some(s) = sample {
                    self.record_perf_sample(&s);
                }
                r
            }
            None => f(),
        })
    }

    fn perf_snapshot(&self) -> PerfSnapshot {
        let status = if perf_disabled_by_env() {
            "disabled".to_string()
        } else {
            match perf::probe() {
                Ok(_) => "ok".to_string(),
                Err(reason) => format!("unavailable: {reason}"),
            }
        };
        let sampled = self.perf.sampled_requests.load(Ordering::Relaxed);
        let cycles = (sampled > 0).then(|| self.perf.cycles.load(Ordering::Relaxed));
        let instructions = (sampled > 0).then(|| self.perf.instructions.load(Ordering::Relaxed));
        let ipc = match (cycles, instructions) {
            (Some(c), Some(i)) if c > 0 => Some(i as f64 / c as f64),
            _ => None,
        };
        PerfSnapshot {
            status,
            sampled_requests: sampled,
            cycles,
            instructions,
            llc_misses: (self.perf.llc_samples.load(Ordering::Relaxed) > 0)
                .then(|| self.perf.llc_misses.load(Ordering::Relaxed)),
            branch_misses: (self.perf.branch_samples.load(Ordering::Relaxed) > 0)
                .then(|| self.perf.branch_misses.load(Ordering::Relaxed)),
            ipc,
        }
    }

    /// Consistent point-in-time copy of every counter, with percentiles,
    /// rates (GOPS, bandwidth), and roofline attribution computed from the
    /// static cost model and the cached machine roofline.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ops = self.ops.iter().map(op_snapshot).collect();
        let roofline = crate::roofline::current();
        let mut snap = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            model: self.model.clone(),
            requests: self.requests.load(Ordering::Relaxed),
            machine: roofline.to_snapshot(),
            perf: self.perf_snapshot(),
            ops,
            batch: self.batch.snapshot(),
            serve: self.serve.snapshot(),
        };
        roofline.annotate(&mut snap);
        snap
    }

    /// Zeroes all counters and histograms (the queued-items gauge and the
    /// request counter keep their live values).
    pub fn reset(&self) {
        for ch in &self.ops {
            ch.metrics.reset();
        }
        self.batch.reset();
        for c in [
            &self.perf.sampled_requests,
            &self.perf.cycles,
            &self.perf.instructions,
            &self.perf.llc_misses,
            &self.perf.llc_samples,
            &self.perf.branch_misses,
            &self.perf.branch_samples,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.serve.reset();
    }
}

impl std::fmt::Debug for ModelTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelTelemetry")
            .field("model", &self.model)
            .field("ops", &self.ops.len())
            .finish_non_exhaustive()
    }
}

fn op_snapshot(ch: &OpChannel) -> OpSnapshot {
    let calls = ch.metrics.calls.load(Ordering::Relaxed);
    let total_ns = ch.metrics.total_ns.load(Ordering::Relaxed);
    let max_ns = ch.metrics.max_ns.load(Ordering::Relaxed);
    let mean_ns = if calls > 0 {
        total_ns as f64 / calls as f64
    } else {
        0.0
    };
    // 1 bit-op per ns == 1e9 bit-ops per second == 1 GOPS, so the ratio of
    // totals is directly in GOPS.
    let gops = if total_ns > 0 {
        (ch.cost.bit_ops.saturating_mul(calls)) as f64 / total_ns as f64
    } else {
        0.0
    };
    let gb_per_s = if total_ns > 0 {
        (ch.cost.bytes_read + ch.cost.bytes_written).saturating_mul(calls) as f64 / total_ns as f64
    } else {
        0.0
    };
    let buckets = ch.metrics.hist.snapshot_buckets();
    let hist = buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(idx, &count)| HistBucket {
            le_ns: bucket_upper_edge(idx),
            count,
        })
        .collect();
    OpSnapshot {
        name: ch.name.clone(),
        kind: ch.kind,
        calls,
        total_ns,
        mean_ns,
        max_ns,
        p50_ns: crate::hist::percentile_of(&buckets, 50.0),
        p95_ns: crate::hist::percentile_of(&buckets, 95.0),
        p99_ns: crate::hist::percentile_of(&buckets, 99.0),
        bit_ops_per_call: ch.cost.bit_ops,
        bytes_read_per_call: ch.cost.bytes_read,
        bytes_written_per_call: ch.cost.bytes_written,
        gops,
        gb_per_s,
        // Roofline attribution is stamped by `Roofline::annotate`.
        pct_of_peak_compute: 0.0,
        pct_of_peak_bandwidth: 0.0,
        bound: OpBound::Idle,
        hist,
        tile: ch.cost.tile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptors() -> Vec<OpDescriptor> {
        vec![
            OpDescriptor {
                name: "binarize-input".to_string(),
                kind: OpKind::Binarize,
                cost: OpCost::default(),
            },
            OpDescriptor {
                name: "conv1".to_string(),
                kind: OpKind::Conv,
                cost: OpCost {
                    bit_ops: 2_000,
                    bytes_read: 512,
                    bytes_written: 128,
                    tile: Some(TileStats {
                        m: 64,
                        k: 32,
                        n_words: 9,
                        quads: 8,
                        tail: 0,
                        par_k_chunk: 32,
                    }),
                },
            },
        ]
    }

    #[test]
    fn record_and_snapshot() {
        let t = ModelTelemetry::new("test-net", descriptors());
        assert_eq!(t.op_count(), 2);
        assert_eq!(t.op_name(1), Some("conv1"));
        for ns in [100u64, 200, 300, 400] {
            t.record_op(1, ns);
        }
        let snap = t.snapshot();
        let conv = &snap.ops[1];
        assert_eq!(conv.calls, 4);
        assert_eq!(conv.total_ns, 1_000);
        assert!((conv.mean_ns - 250.0).abs() < 1e-9);
        assert_eq!(conv.max_ns, 400);
        // 2000 bit-ops × 4 calls / 1000 ns = 8 GOPS exactly.
        assert!((conv.gops - 8.0).abs() < 1e-9, "gops {}", conv.gops);
        // (512+128) bytes × 4 calls / 1000 ns = 2.56 GB/s.
        assert!((conv.gb_per_s - 2.56).abs() < 1e-9);
        assert_eq!(conv.tile.map(|s| s.n_words), Some(9));
        // Untouched channel stays zero.
        assert_eq!(snap.ops[0].calls, 0);
        assert_eq!(snap.ops[0].gops, 0.0);
    }

    #[test]
    fn out_of_range_record_is_ignored() {
        let t = ModelTelemetry::new("test-net", descriptors());
        t.record_op(99, 1); // must not panic
        assert_eq!(t.snapshot().ops[0].calls, 0);
    }

    #[test]
    fn started_requests_are_counted() {
        let t = ModelTelemetry::new("test-net", vec![]);
        t.request_started();
        t.request_started();
        assert_eq!(t.snapshot().requests, 2);
    }

    #[test]
    fn batch_gauges_track_in_flight_items() {
        let t = ModelTelemetry::new("test-net", vec![]);
        t.batch().batch_started(4, 2);
        assert_eq!(t.batch().queued(), 4);
        t.batch().item_finished(true);
        t.batch().item_finished(false);
        assert_eq!(t.batch().queued(), 2);
        t.batch().item_finished(true);
        t.batch().item_finished(true);
        let snap = t.snapshot();
        assert_eq!(snap.batch.batches, 1);
        assert_eq!(snap.batch.items, 4);
        assert_eq!(snap.batch.failed_items, 1);
        assert_eq!(snap.batch.chunks, 2);
        assert_eq!(snap.batch.max_batch, 4);
        assert_eq!(snap.batch.queued_items, 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let t = ModelTelemetry::new("test-net", descriptors());
        t.record_op(0, 10);
        t.batch().batch_started(2, 1);
        t.batch().item_finished(true);
        t.batch().item_finished(true);
        t.reset();
        let snap = t.snapshot();
        assert_eq!(snap.ops[0].calls, 0);
        assert_eq!(snap.ops[0].p50_ns, 0);
        assert_eq!(snap.batch.batches, 0);
        assert_eq!(snap.batch.items, 0);
    }

    #[test]
    fn serve_gauges_track_quota_and_batch_sizes() {
        let g = ServeGauges::default();
        g.rejected("quota");
        g.batch_served(1);
        g.batch_served(3);
        g.batch_served(40);
        let snap = g.snapshot();
        assert_eq!(snap.rejected_quota, 1);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batch_items, 44);
        assert_eq!(snap.batch_size_max, 40);
        // 1 lands in le=1, 3 in le=4, 40 overflows past the last edge.
        assert_eq!(
            snap.batch_size_hist,
            vec![
                SizeBucket { le: 1, count: 1 },
                SizeBucket { le: 4, count: 1 },
                SizeBucket {
                    le: u64::MAX,
                    count: 1
                },
            ]
        );
        g.reset();
        let snap = g.snapshot();
        assert_eq!(snap.rejected_quota, 0);
        assert_eq!(snap.batches, 0);
        assert!(snap.batch_size_hist.is_empty());
    }

    #[test]
    fn serve_gauges_track_net_counters() {
        let g = ServeGauges::default();
        g.conn_accepted();
        g.conn_accepted();
        g.conn_rejected();
        g.read_timeout();
        g.write_timeout();
        g.malformed_request();
        g.add_bytes_in(1_024);
        g.add_bytes_out(256);
        g.add_bytes_out(256);
        let snap = g.snapshot();
        assert_eq!(snap.net_accepted_conns, 2);
        assert_eq!(snap.net_rejected_conns, 1);
        assert_eq!(snap.net_timeouts_read, 1);
        assert_eq!(snap.net_timeouts_write, 1);
        assert_eq!(snap.net_malformed_requests, 1);
        assert_eq!(snap.net_bytes_in, 1_024);
        assert_eq!(snap.net_bytes_out, 512);
        g.reset();
        let snap = g.snapshot();
        assert_eq!(snap.net_accepted_conns, 0);
        assert_eq!(snap.net_bytes_in, 0);
        assert_eq!(snap.net_bytes_out, 0);
    }

    #[test]
    fn serve_gauges_track_stage_timings() {
        let g = ServeGauges::default();
        g.record_queue_wait_ns(1_000);
        g.record_queue_wait_ns(3_000);
        g.record_batch_wait_ns(500);
        g.record_exec_ns(10_000);
        g.record_write_ns(200);
        let snap = g.snapshot();
        assert_eq!(snap.stage_queue_wait.count, 2);
        assert_eq!(snap.stage_queue_wait.total_ns, 4_000);
        assert_eq!(snap.stage_batch_wait.count, 1);
        assert_eq!(snap.stage_exec.total_ns, 10_000);
        assert_eq!(snap.stage_write.count, 1);
        // Bucket counts reconcile with the stage count.
        let bucketed: u64 = snap.stage_queue_wait.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucketed, 2);
        g.reset();
        let snap = g.snapshot();
        assert_eq!(snap.stage_queue_wait.count, 0);
        assert_eq!(snap.stage_exec.total_ns, 0);
        assert!(snap.stage_write.buckets.is_empty());
    }
}
