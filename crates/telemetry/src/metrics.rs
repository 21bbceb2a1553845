//! Lock-free per-operator metrics.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bitflow_simd::conv::BodyChoice;
use serde::{Deserialize, Serialize};

use crate::hist::LatencyHistogram;
use crate::snapshot::{MetricsSnapshot, OpBound, OpSnapshot, SCHEMA_VERSION};
use crate::table::{BatchGauges, Cell, Counter, HighWater, ServeGauges};

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
    /// For a conv: the body the conv core runs (AMX tile loop or a
    /// filter-lane loop) and the clause of the eligibility rule that
    /// decided it. Plan introspection only: not part of the snapshot.
    pub body: Option<BodyChoice>,
}

/// One operator: its description and its live counters, all relaxed
/// atomics.
struct OpChannel {
    desc: OpDescriptor,
    calls: Counter,
    total_ns: Counter,
    max_ns: HighWater,
    hist: LatencyHistogram,
}

/// All telemetry state for one compiled model: per-operator channels,
/// batch gauges and the serving cells. Shared behind `Arc` by every thread
/// serving the model.
pub struct ModelTelemetry {
    model: String,
    ops: Vec<OpChannel>,
    batch: BatchGauges,
    requests: AtomicU64,
    serve: Arc<ServeGauges>,
}

impl ModelTelemetry {
    /// Telemetry for a model with the given operator channels.
    pub fn new(model: impl Into<String>, descriptors: Vec<OpDescriptor>) -> Self {
        let ops = descriptors
            .into_iter()
            .map(|desc| OpChannel {
                desc,
                calls: Counter::default(),
                total_ns: Counter::default(),
                max_ns: HighWater::default(),
                hist: LatencyHistogram::new(),
            })
            .collect();
        Self {
            model: model.into(),
            ops,
            batch: BatchGauges::default(),
            requests: AtomicU64::new(0),
            serve: Arc::new(ServeGauges::default()),
        }
    }

    /// Handle to the serving-runtime counters. The serving layer clones
    /// this so its admission/deadline/worker events land in the same
    /// snapshot and Prometheus exposition as the operator metrics.
    pub fn serve(&self) -> Arc<ServeGauges> {
        Arc::clone(&self.serve)
    }

    /// Name of operator channel `idx`.
    pub fn op_name(&self, idx: usize) -> Option<&str> {
        self.ops.get(idx).map(|c| c.desc.name.as_str())
    }

    /// Records one sample for operator channel `idx`. Out-of-range indices
    /// are ignored (telemetry must never panic the serving path).
    #[inline]
    pub fn record_op(&self, idx: usize, ns: u64) {
        if let Some(ch) = self.ops.get(idx) {
            ch.calls.inc();
            ch.total_ns.add(ns);
            ch.max_ns.observe(ns);
            ch.hist.record(ns);
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
            ch.calls.reset();
            ch.total_ns.reset();
            ch.max_ns.reset();
            ch.hist.reset();
        }
        self.batch.reset();
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
    let cost = ch.desc.cost;
    let (calls, total_ns) = (ch.calls.get(), ch.total_ns.get());
    let mean_ns = if calls > 0 {
        total_ns as f64 / calls as f64
    } else {
        0.0
    };
    // 1 bit-op per ns == 1e9 bit-ops per second == 1 GOPS, so the ratio of
    // totals is directly in GOPS.
    let gops = if total_ns > 0 {
        cost.bit_ops.saturating_mul(calls) as f64 / total_ns as f64
    } else {
        0.0
    };
    let gb_per_s = if total_ns > 0 {
        (cost.bytes_read + cost.bytes_written).saturating_mul(calls) as f64 / total_ns as f64
    } else {
        0.0
    };
    let buckets = ch.hist.snapshot_buckets();
    OpSnapshot {
        name: ch.desc.name.clone(),
        kind: ch.desc.kind,
        calls,
        total_ns,
        mean_ns,
        max_ns: ch.max_ns.get(),
        p50_ns: crate::hist::percentile_of(&buckets, 50.0),
        p95_ns: crate::hist::percentile_of(&buckets, 95.0),
        p99_ns: crate::hist::percentile_of(&buckets, 99.0),
        bit_ops_per_call: cost.bit_ops,
        bytes_read_per_call: cost.bytes_read,
        bytes_written_per_call: cost.bytes_written,
        gops,
        gb_per_s,
        // Roofline attribution is stamped by `Roofline::annotate`.
        pct_of_peak_compute: 0.0,
        pct_of_peak_bandwidth: 0.0,
        bound: OpBound::Idle,
        hist: crate::hist::sparse(&buckets),
        tile: cost.tile,
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
                body: None,
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
                body: None,
            },
        ]
    }

    #[test]
    fn record_and_snapshot() {
        let t = ModelTelemetry::new("test-net", descriptors());
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
        t.batch().batch_started(4);
        assert_eq!(t.batch().snapshot().queued_items, 4);
        t.batch().item_finished(true);
        t.batch().item_finished(false);
        assert_eq!(t.batch().snapshot().queued_items, 2);
        t.batch().item_finished(true);
        t.batch().item_finished(true);
        t.batch().batch_ran_on(2);
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
        t.batch().batch_started(2);
        t.batch().batch_ran_on(1);
        t.batch().item_finished(true);
        t.batch().item_finished(true);
        t.reset();
        let snap = t.snapshot();
        assert_eq!(snap.ops[0].calls, 0);
        assert_eq!(snap.ops[0].p50_ns, 0);
        assert_eq!(snap.batch.batches, 0);
        assert_eq!(snap.batch.items, 0);
    }
}
