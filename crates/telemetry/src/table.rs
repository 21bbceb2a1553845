//! The metric table: every batch, serving, network and governance metric
//! declared once.
//!
//! One row of a [`cells!`] block names a metric's field (which is also its
//! JSON key), its cell type — [`Counter`], [`Gauge`], [`HighWater`],
//! [`StageTimer`] or [`SizeHistogram`], which decides the Prometheus type,
//! the `_total` suffix and what `reset()` does to it — and, when it is
//! exposed as a family of its own, the family name, an optional fixed
//! label, the [`Section`] of the exposition it is printed in, and its help
//! text (which is also the field's documentation; a `///` line under it
//! adds what the help does not say). The macro derives from the rows the
//! live storage (`*Gauges`), its `snapshot()` and `reset()`, the serde
//! snapshot struct and the [`Family`] descriptors the Prometheus renderer
//! walks. Adding a counter or a stage timer is one row here plus the call
//! site that records into it.
//!
//! Recording stays what it was: one relaxed atomic operation per event, no
//! locks, no allocation.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use serde::{Deserialize, Serialize};

use crate::hist::{sparse, LatencyHistogram};
use crate::snapshot::{
    HistBucket, MetricsSnapshot, OpSnapshot, SizeBucket, StageSnapshot, BATCH_SIZE_EDGES,
};

/// What a metric means, which fixes its Prometheus type, the suffix of its
/// family name and what `reset()` does to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Monotone event count: `counter`, name ends in `_total`, zeroed.
    Counter,
    /// Live level that goes up and down with the system (queue depth,
    /// leased bytes): `gauge`, left alone by `reset()`.
    Gauge,
    /// Largest value seen since the last `reset()`: `gauge`, zeroed.
    HighWater,
    /// Distribution: `histogram` (`_bucket`/`_sum`/`_count`), zeroed.
    Histogram,
}

/// What one series of a family reads out of a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value {
    /// A counter or an integer gauge.
    Int(u64),
    /// A rate, percentage or other derived gauge.
    Float(f64),
    /// A histogram in the sparse non-cumulative form snapshots carry:
    /// `(inclusive upper edge, count)` per occupied bucket, an edge of
    /// `u64::MAX` being the overflow bucket.
    Hist {
        buckets: Vec<(u64, u64)>,
        count: u64,
        sum: u64,
    },
}

impl Value {
    /// The histogram value of a latency distribution.
    pub(crate) fn latency_hist(buckets: &[HistBucket], count: u64, sum: u64) -> Value {
        Value::Hist {
            buckets: buckets.iter().map(|b| (b.le_ns, b.count)).collect(),
            count,
            sum,
        }
    }
}

/// Live storage behind one snapshot field.
pub trait Cell {
    /// The plain-data form the cell takes in a snapshot.
    type Snap;
    /// Point-in-time copy.
    fn snapshot(&self) -> Self::Snap;
    /// Zeroes what accumulates; live levels keep their value.
    fn reset(&self);
    /// Puts a non-zero reading in every atomic of the cell, so the table's
    /// self-check can see what `reset()` does to it.
    #[cfg(test)]
    fn fill(&self, v: u64);
}

/// A [`Cell`] that can be a Prometheus family of its own. `S` is the
/// snapshot struct the cell's field sits in, for the one cell (the
/// batch-size histogram) whose `_count` and `_sum` are sibling fields.
pub(crate) trait Exposed<S>: Cell {
    const KIND: Kind;
    /// The series value of the cell's snapshot `snap`, a field of `owner`.
    fn value(snap: &Self::Snap, owner: &S) -> Value;
}

/// A one-`u64` cell named after the [`Kind`] it is exposed as.
macro_rules! scalar_cell {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name(AtomicU64);

        impl $name {
            /// The current value.
            #[inline]
            pub fn get(&self) -> u64 {
                self.0.load(Relaxed)
            }
        }

        impl Cell for $name {
            type Snap = u64;
            fn snapshot(&self) -> u64 {
                self.get()
            }
            fn reset(&self) {
                if Kind::$name != Kind::Gauge {
                    self.0.store(0, Relaxed);
                }
            }
            #[cfg(test)]
            fn fill(&self, v: u64) {
                self.0.store(v, Relaxed);
            }
        }

        impl<S> Exposed<S> for $name {
            const KIND: Kind = Kind::$name;
            fn value(snap: &u64, _: &S) -> Value {
                Value::Int(*snap)
            }
        }
    };
}

scalar_cell!(
    /// A monotone event counter.
    Counter
);
scalar_cell!(
    /// A live level: raised and lowered by the events it tracks, never
    /// reset.
    Gauge
);
scalar_cell!(
    /// The largest value observed since the last reset.
    HighWater
);

impl Counter {
    /// Counts one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events (or `n` bytes, items, …).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }
}

impl Gauge {
    /// Raises the level by `n` and returns the new level.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Relaxed) + n
    }

    /// Raises the level by `n` only if the new level stays within `limit`;
    /// `false` leaves it untouched.
    #[inline]
    pub fn try_add(&self, n: u64, limit: u64) -> bool {
        self.0
            .fetch_update(Relaxed, Relaxed, |cur| {
                cur.checked_add(n).filter(|&next| next <= limit)
            })
            .is_ok()
    }

    /// Lowers the level by `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Publishes a level computed elsewhere.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }
}

impl HighWater {
    /// Raises the mark to `v` if `v` is above it.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }
}

/// One always-on request-lifecycle stage timer: a lock-free latency
/// histogram plus a running nanosecond sum, so the Prometheus exposition
/// can render a real histogram family (`_bucket`/`_sum`/`_count`).
/// Recording is two relaxed `fetch_add`s — cheap enough to leave on even
/// when tracing is off.
#[derive(Debug, Default)]
pub struct StageTimer {
    hist: LatencyHistogram,
    total_ns: AtomicU64,
}

impl StageTimer {
    /// Records one stage duration.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.hist.record(ns);
        self.total_ns.fetch_add(ns, Relaxed);
    }
}

impl Cell for StageTimer {
    type Snap = StageSnapshot;

    fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            count: self.hist.count(),
            total_ns: self.total_ns.load(Relaxed),
            buckets: sparse(&self.hist.snapshot_buckets()),
        }
    }

    fn reset(&self) {
        self.hist.reset();
        self.total_ns.store(0, Relaxed);
    }

    #[cfg(test)]
    fn fill(&self, v: u64) {
        self.record(v);
    }
}

impl<S> Exposed<S> for StageTimer {
    const KIND: Kind = Kind::Histogram;
    fn value(snap: &StageSnapshot, _: &S) -> Value {
        Value::latency_hist(&snap.buckets, snap.count, snap.total_ns)
    }
}

/// Served-batch-size histogram: one counter per [`BATCH_SIZE_EDGES`] bucket
/// plus the overflow bucket.
#[derive(Debug, Default)]
pub struct SizeHistogram([AtomicU64; BATCH_SIZE_EDGES.len() + 1]);

impl SizeHistogram {
    fn record(&self, size: u64) {
        let idx = BATCH_SIZE_EDGES
            .iter()
            .position(|&edge| size <= edge)
            .unwrap_or(BATCH_SIZE_EDGES.len());
        self.0[idx].fetch_add(1, Relaxed);
    }
}

impl Cell for SizeHistogram {
    type Snap = Vec<SizeBucket>;

    fn snapshot(&self) -> Vec<SizeBucket> {
        self.0
            .iter()
            .enumerate()
            .map(|(idx, c)| SizeBucket {
                le: BATCH_SIZE_EDGES.get(idx).copied().unwrap_or(u64::MAX),
                count: c.load(Relaxed),
            })
            .filter(|b| b.count > 0)
            .collect()
    }

    fn reset(&self) {
        for c in &self.0 {
            c.store(0, Relaxed);
        }
    }

    #[cfg(test)]
    fn fill(&self, v: u64) {
        self.record(v);
    }
}

impl Exposed<ServeSnapshot> for SizeHistogram {
    const KIND: Kind = Kind::Histogram;
    fn value(snap: &Vec<SizeBucket>, serve: &ServeSnapshot) -> Value {
        Value::Hist {
            buckets: snap.iter().map(|b| (b.le, b.count)).collect(),
            count: serve.batches,
            sum: serve.batch_items,
        }
    }
}

/// The blocks of the exposition, in print order. A row's section places
/// its family; rows of one section keep their table order, which is the
/// JSON key order (the two orders differ, and both are pinned).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Section {
    Requests,
    Ops,
    Machine,
    Batch,
    Lifecycle,
    Rejected,
    /// Queue depth and, after it, the batch-size histogram.
    Queue,
    /// The largest served batch: a JSON key before the histogram's, a
    /// family after it.
    BatchMax,
    Stages,
    Net,
    Govern,
}

/// Where the series of a family are read from.
pub(crate) enum Source {
    /// One series per snapshot.
    Model(fn(&MetricsSnapshot) -> Value),
    /// One series per operator; `None` leaves the operator out.
    Op(fn(&OpSnapshot) -> Option<Value>),
}

/// One row of a metric family: the descriptor the Prometheus renderer
/// walks. Rows that share a `name` (and differ in `label`) are printed
/// under one header.
pub(crate) struct Family {
    /// Prometheus family name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    pub kind: Kind,
    /// A fixed `key="value"` label beside `model`, e.g. `reason="quota"`.
    pub label: Option<(&'static str, &'static str)>,
    pub section: Section,
    pub get: Source,
}

/// Emits, from one list of rows, a `*Gauges` struct of live [`Cell`]s, the
/// matching serde snapshot struct, the [`Cell`] impl that snapshots and
/// resets field by field (so a generated struct nests as a cell of another)
/// and the [`Family`] descriptors of the rows that name one.
macro_rules! cells {
    (
        $(#[$gauges_meta:meta])*
        gauges $gauges:ident;
        $(#[$snapshot_meta:meta])*
        snapshot $snapshot:ident = |$m:ident| $root:expr;
        families $table:ident;
        $(
            $(#[$doc:meta])*
            $vis:vis $field:ident: $cell:ty
            $(= $family:literal $([$label_key:literal = $label_value:literal])?, $section:ident, $help:expr)?;
        )*
    ) => {
        $(#[$gauges_meta])*
        #[derive(Debug, Default)]
        pub struct $gauges {
            $( $(#[doc = $help])? $(#[$doc])* $vis $field: $cell, )*
        }

        $(#[$snapshot_meta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct $snapshot {
            $( $(#[doc = $help])? $(#[$doc])* pub $field: <$cell as Cell>::Snap, )*
        }

        impl $gauges {
            /// Point-in-time copy of every cell.
            pub fn snapshot(&self) -> $snapshot {
                Cell::snapshot(self)
            }
        }

        impl Cell for $gauges {
            type Snap = $snapshot;

            fn snapshot(&self) -> $snapshot {
                $snapshot { $( $field: self.$field.snapshot(), )* }
            }

            fn reset(&self) {
                $( self.$field.reset(); )*
            }

            #[cfg(test)]
            fn fill(&self, v: u64) {
                $( self.$field.fill(v); )*
            }
        }

        pub(crate) static $table: &[Family] = &[
            $($(
                Family {
                    name: $family,
                    help: $help,
                    kind: <$cell as Exposed<$snapshot>>::KIND,
                    label: cells!(@label $($label_key, $label_value)?),
                    section: Section::$section,
                    get: Source::Model(|$m| {
                        <$cell as Exposed<$snapshot>>::value(&$root.$field, &$root)
                    }),
                },
            )?)*
        ];
    };
    (@label) => { None };
    (@label $key:literal, $value:literal) => { Some(($key, $value)) };
}

cells! {
    /// Batch-serving gauges updated by `try_infer_batch`.
    gauges BatchGauges;
    /// Batch-serving counters from `try_infer_batch`.
    snapshot BatchSnapshot = |m| m.batch;
    families BATCH_FAMILIES;

    /// Batches accepted.
    batches: Counter;
    items: Counter = "bitflow_batch_items_total", Batch, "Items accepted across all batches.";
    failed_items: Counter
        = "bitflow_batch_failed_items_total", Batch, "Items that returned an error.";
    /// Threads the batches ran on, summed: a batch on the caller adds 1.
    chunks: Counter;
    /// Largest single batch seen.
    max_batch: HighWater;
    /// 0 when idle.
    queued_items: Gauge
        = "bitflow_batch_queued_items", Batch, "Items currently in flight inside try_infer_batch.";
}

impl BatchGauges {
    /// Called once when a batch of `items` requests is accepted. Raises
    /// the queued-items gauge.
    pub fn batch_started(&self, items: u64) {
        self.batches.inc();
        self.items.add(items);
        self.max_batch.observe(items);
        self.queued_items.add(items);
    }

    /// Called once per batch with the number of threads that took part in
    /// it — known only once it has run: a busy team runs the batch on its
    /// caller, and a worker that never woke is not counted.
    pub fn batch_ran_on(&self, threads: u64) {
        self.chunks.add(threads);
    }

    /// Called per completed item. Lowers the queued-items gauge; counts the
    /// item as failed when `ok` is false.
    pub fn item_finished(&self, ok: bool) {
        self.queued_items.sub(1);
        if !ok {
            self.failed_items.inc();
        }
    }
}

/// Help text of the `reason`-labelled refusal family.
macro_rules! rejected_help {
    () => {
        "Submissions refused at admission, by reason."
    };
}

cells! {
    /// Resource-governance cells of [`ServeGauges`].
    gauges GovernGauges;
    /// Resource-governance counters and gauges: the memory-budget and
    /// degradation-state face of the serving runtime, plus the accept-loop
    /// failure counters.
    snapshot GovernSnapshot = |m| m.serve.govern;
    families GOVERN_FAMILIES;

    /// A byte budget (global or per-tenant) could not cover the request.
    rejected_memory: Counter
        = "bitflow_serve_rejected_total" ["reason" = "memory"], Rejected, rejected_help!();
    /// EMFILE/ENFILE included.
    pub net_accept_errors: Counter
        = "bitflow_net_accept_errors_total", Net,
          "Accept-loop accept(2) errors (descriptor exhaustion included).";
    /// Counted apart from cap rejections, so descriptor/thread exhaustion
    /// is visible as its own failure mode.
    pub net_spawn_sheds: Counter
        = "bitflow_net_spawn_sheds_total", Net,
          "Connections shed because a handler thread could not be spawned.";
    mem_used_bytes: Gauge
        = "bitflow_mem_used_bytes", Govern, "Bytes currently held by live memory leases.";
    pub mem_budget_bytes: Gauge
        = "bitflow_mem_budget_bytes", Govern,
          "The byte budget this tenant is held to: the per-tenant budget, capped by the global one (0 = unbudgeted).";
    mem_leases: Gauge = "bitflow_mem_leases", Govern, "Live memory leases outstanding.";
    pub degradation_state: Gauge
        = "bitflow_degradation_state", Govern,
          "Brownout state machine: 0 Normal, 1 Brownout, 2 Shed.";
}

cells! {
    /// Serving-runtime cells updated by `bitflow-serve` and `bitflow-net`:
    /// admission, shedding, deadlines, worker health, wire traffic. The
    /// server shares one handle with [`crate::ModelTelemetry`], so the
    /// counters surface in [`MetricsSnapshot::serve`] and the Prometheus
    /// exposition. Plain events bump their public cell directly
    /// (`gauges.completed.inc()`); the events that move more than one cell
    /// are the methods below.
    gauges ServeGauges;
    /// Serving-runtime counters from `bitflow-serve`: admission, shedding,
    /// deadlines, and worker health. All zero for a model served without
    /// the runtime.
    ///
    /// Conservation law (checked by the soak test): `submitted` equals
    /// `accepted` plus the five `rejected_*` counters (`govern`'s
    /// `rejected_memory` included), and — once the server has drained —
    /// `accepted` equals `completed + failed + shed_deadline +
    /// deadline_missed + cancelled`. In a multi-model server each model's
    /// gauges obey the law independently.
    snapshot ServeSnapshot = |m| m.serve;
    families SERVE_FAMILIES;

    /// Admitted or not.
    pub submitted: Counter
        = "bitflow_serve_submitted_total", Lifecycle,
          "Requests offered to the serving admission queue.";
    accepted: Counter
        = "bitflow_serve_accepted_total", Lifecycle, "Requests admitted into the serving queue.";
    pub completed: Counter
        = "bitflow_serve_completed_total", Lifecycle, "Admitted requests that returned logits.";
    /// Caught worker panics included.
    pub failed: Counter
        = "bitflow_serve_failed_total", Lifecycle,
          "Admitted requests that resolved to an inference error.";
    /// The queue was at capacity.
    rejected_queue_full: Counter
        = "bitflow_serve_rejected_total" ["reason" = "queue_full"], Rejected, rejected_help!();
    /// The circuit breaker was shedding load.
    rejected_shedding: Counter
        = "bitflow_serve_rejected_total" ["reason" = "shedding"], Rejected, rejected_help!();
    /// The server was draining for shutdown.
    rejected_draining: Counter
        = "bitflow_serve_rejected_total" ["reason" = "draining"], Rejected, rejected_help!();
    /// The target model's admission quota was exhausted (multi-model
    /// tenancy).
    rejected_quota: Counter
        = "bitflow_serve_rejected_total" ["reason" = "quota"], Rejected, rejected_help!();
    pub shed_deadline: Counter
        = "bitflow_serve_deadline_shed_total", Lifecycle,
          "Admitted requests dropped before running: deadline unmeetable.";
    pub deadline_missed: Counter
        = "bitflow_serve_deadline_missed_total", Lifecycle,
          "Admitted requests cancelled mid-run by their deadline.";
    pub cancelled: Counter
        = "bitflow_serve_cancelled_total", Lifecycle,
          "Admitted requests cancelled by their caller.";
    pub worker_panics: Counter
        = "bitflow_serve_worker_panics_total", Lifecycle,
          "Panics caught and isolated by serving workers.";
    /// The panic had escaped the per-request backstop.
    pub worker_restarts: Counter
        = "bitflow_serve_worker_restarts_total", Lifecycle,
          "Worker loops restarted after an escaped panic.";
    pub breaker_trips: Counter
        = "bitflow_serve_breaker_trips_total", Lifecycle,
          "Circuit-breaker transitions into the shedding state.";
    /// A blocking caller found the queue empty and a worker parked, and
    /// ran its own request in that worker's context (never queued).
    served_on_caller: Counter
        = "bitflow_serve_served_on_caller_total", Lifecycle,
          "Admitted requests served on their calling thread in a parked worker's context.";
    queue_depth: Gauge
        = "bitflow_serve_queue_depth", Queue,
          "Requests waiting in the admission queue right now.";
    queue_depth_max: HighWater
        = "bitflow_serve_queue_depth_max", Queue,
          "High-water mark of the admission queue since the last reset.";
    /// Coalesced micro-batches served (a batch of one is the unbatched
    /// fast path). Exposed as the batch-size histogram's `_count`.
    batches: Counter;
    /// Requests served across all micro-batches (`batch_items / batches`
    /// is the mean served batch size). Exposed as the batch-size
    /// histogram's `_sum`.
    batch_items: Counter;
    batch_size_max: HighWater
        = "bitflow_serve_batch_size_max", BatchMax,
          "Largest micro-batch served since the last reset.";
    /// Over [`BATCH_SIZE_EDGES`] (sparse, non-cumulative; `le == u64::MAX`
    /// is the overflow bucket).
    batch_size_hist: SizeHistogram
        = "bitflow_serve_batch_size", Queue,
          "Requests per served micro-batch (1 is the unbatched path).";
    pub net_accepted_conns: Counter
        = "bitflow_net_accepted_conns_total", Net,
          "TCP connections accepted by the network front-end.";
    pub net_rejected_conns: Counter
        = "bitflow_net_rejected_conns_total", Net,
          "TCP connections refused at the accept loop (connection cap).";
    pub net_timeouts_read: Counter
        = "bitflow_net_timeouts_read_total", Net,
          "Connections dropped by an expired read deadline (slowloris included).";
    pub net_timeouts_write: Counter
        = "bitflow_net_timeouts_write_total", Net,
          "Connections dropped by a stalled response write.";
    /// Bad request line, oversized headers or body, undecodable tensor.
    pub net_malformed_requests: Counter
        = "bitflow_net_malformed_requests_total", Net,
          "Requests refused as malformed before reaching admission.";
    /// Headers and bodies.
    pub net_bytes_in: Counter
        = "bitflow_net_bytes_in_total", Net, "Request bytes read off the wire.";
    /// Partial writes included.
    pub net_bytes_out: Counter
        = "bitflow_net_bytes_out_total", Net, "Response bytes written to the wire.";
    /// Resource-governance counters and gauges (memory budgets, brownout
    /// state, accept-loop failures).
    pub govern: GovernGauges;
    /// Enqueue → worker pop.
    pub stage_queue_wait: StageTimer
        = "bitflow_stage_queue_wait_ns", Stages, "Admission-queue wait per request, nanoseconds.";
    /// Pop → micro-batch exec start.
    pub stage_batch_wait: StageTimer
        = "bitflow_stage_batch_wait_ns", Stages,
          "Batch-formation wait per request (coalescing + dispatch), nanoseconds.";
    /// Inside the request's micro-batch.
    pub stage_exec: StageTimer
        = "bitflow_stage_exec_ns", Stages, "Engine execution time per request, nanoseconds.";
    /// Serialize + write to the wire.
    pub stage_write: StageTimer
        = "bitflow_stage_write_ns", Stages, "Response write time per request, nanoseconds.";
}

impl ServeGauges {
    /// A request entered the admission queue. Raises the depth gauge and,
    /// with it, the high-water mark.
    pub fn enqueued(&self) {
        self.accepted.inc();
        self.queue_depth_max.observe(self.queue_depth.add(1));
    }

    /// A blocking caller was admitted straight into a free worker slot:
    /// accepted, but never queued.
    pub fn admitted_on_caller(&self) {
        self.accepted.inc();
        self.served_on_caller.inc();
    }

    /// A request left the admission queue (picked up or shed). Lowers the
    /// depth gauge.
    pub fn dequeued(&self) {
        self.queue_depth.sub(1);
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
            "memory" => &self.govern.rejected_memory,
            _ => &self.rejected_queue_full,
        }
        .inc();
    }

    /// A worker served one coalesced micro-batch of `size` requests in a
    /// single engine call (`size == 1` is the unbatched fast path).
    pub fn batch_served(&self, size: u64) {
        self.batches.inc();
        self.batch_items.add(size);
        self.batch_size_max.observe(size);
        self.batch_size_hist.record(size);
    }

    /// The resource governor granted a lease of `bytes`. Raises the
    /// used-bytes and live-lease gauges.
    pub fn mem_reserved(&self, bytes: u64) {
        self.govern.mem_used_bytes.add(bytes);
        self.govern.mem_leases.add(1);
    }

    /// Grants a lease of `bytes` only if the used-bytes gauge — the
    /// tenant's byte ledger — stays within `limit`; `false` moves nothing.
    pub fn try_mem_reserve(&self, bytes: u64, limit: u64) -> bool {
        let granted = self.govern.mem_used_bytes.try_add(bytes, limit);
        if granted {
            self.govern.mem_leases.add(1);
        }
        granted
    }

    /// A memory lease of `bytes` was released. Lowers the used-bytes and
    /// live-lease gauges.
    pub fn mem_released(&self, bytes: u64) {
        self.govern.mem_used_bytes.sub(bytes);
        self.govern.mem_leases.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn queue_depth_is_live_and_its_high_water_mark_resets() {
        let g = ServeGauges::default();
        g.enqueued();
        g.enqueued();
        g.dequeued();
        let snap = g.snapshot();
        assert_eq!(
            (snap.accepted, snap.queue_depth, snap.queue_depth_max),
            (2, 1, 2)
        );
        g.reset();
        let snap = g.snapshot();
        assert_eq!(
            (snap.accepted, snap.queue_depth, snap.queue_depth_max),
            (0, 1, 0)
        );
    }

    #[test]
    fn serve_gauges_track_net_counters() {
        let g = ServeGauges::default();
        g.net_accepted_conns.inc();
        g.net_accepted_conns.inc();
        g.net_rejected_conns.inc();
        g.net_timeouts_read.inc();
        g.net_timeouts_write.inc();
        g.net_malformed_requests.inc();
        g.net_bytes_in.add(1_024);
        g.net_bytes_out.add(256);
        g.net_bytes_out.add(256);
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
        g.stage_queue_wait.record(1_000);
        g.stage_queue_wait.record(3_000);
        g.stage_batch_wait.record(500);
        g.stage_exec.record(10_000);
        g.stage_write.record(200);
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
