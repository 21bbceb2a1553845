//! Serializable point-in-time copies of the live telemetry state.
//!
//! Snapshots carry plain integers and floats only — they round-trip
//! through `serde_json` and are what the bench bins write to
//! `results/telemetry.json`.

use serde::{Deserialize, Serialize};

use crate::metrics::{OpKind, TileStats};
use crate::table::{BatchSnapshot, ServeSnapshot};

/// Schema version written into every [`MetricsSnapshot`] (and, via the
/// bench crate, every `results/*.json` artifact); bumped whenever a JSON
/// key is added, removed or renamed (v8 removed the `perf` object).
/// Readers must refuse to overwrite files written by a *newer* schema.
pub const SCHEMA_VERSION: u32 = 8;

/// Upper edges of the served-batch-size histogram buckets. Batches larger
/// than the last edge land in the implicit overflow bucket
/// (`le == u64::MAX` in [`SizeBucket`] terms).
pub const BATCH_SIZE_EDGES: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// One non-empty batch-size-histogram bucket: `count` served micro-batches
/// of `≤ le` requests (and more than the previous bucket's edge). Sparse
/// and non-cumulative, like [`HistBucket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeBucket {
    /// Inclusive upper edge of the bucket (requests per batch);
    /// `u64::MAX` marks the overflow bucket.
    pub le: u64,
    /// Batches that landed in this bucket.
    pub count: u64,
}

/// One non-empty latency-histogram bucket: `count` samples with values
/// `≤ le_ns` (and greater than the previous bucket's edge). Sparse — only
/// occupied buckets are stored — and non-cumulative; the Prometheus
/// exporter accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistBucket {
    /// Inclusive upper edge of the bucket, nanoseconds.
    pub le_ns: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// One request-lifecycle stage's latency distribution: how many requests
/// passed through the stage, the summed nanoseconds, and the occupied
/// histogram buckets (sparse, non-cumulative, same bucketing as
/// [`HistBucket`] op histograms). Always on — the serving runtime records
/// these whether or not tracing is enabled.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Requests that passed through the stage.
    pub count: u64,
    /// Summed stage time, nanoseconds.
    pub total_ns: u64,
    /// Occupied latency-histogram buckets (sparse, non-cumulative).
    pub buckets: Vec<HistBucket>,
}

/// Roofline verdict for one operator: which peak it is closer to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpBound {
    /// Closer to peak xor+popcount throughput than to peak bandwidth.
    Compute,
    /// Closer to peak memory bandwidth.
    Memory,
    /// No calls recorded — nothing to attribute.
    Idle,
}

/// The machine the snapshot was taken on, plus its roofline peaks. Flat
/// strings/numbers so the schema is self-describing in JSON.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineSnapshot {
    /// Detected ISA features, e.g. `"sse2+ssse3+popcnt+avx2"`.
    pub features: String,
    /// Widest usable xor+popcount path, bits.
    pub simd_width_bits: u64,
    /// Logical cores visible to the process.
    pub logical_cores: u64,
    /// Estimated sustained core frequency, GHz.
    pub freq_ghz: f64,
    /// Where the frequency came from: `"cpuinfo"`, `"calibrated"`, `"assumed"`.
    pub freq_source: String,
    /// Theoretical peak xor+popcount throughput, GOPS (2 bit-ops per
    /// evaluated position × SIMD width × frequency × cores).
    pub peak_gops: f64,
    /// Peak memory bandwidth used as the roofline's slanted ceiling, GB/s.
    pub peak_gb_per_s: f64,
    /// Where the bandwidth peak came from: `"measured"` or `"env"`.
    pub bw_source: String,
}

/// Point-in-time counters for one operator, with derived percentiles and
/// rates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpSnapshot {
    /// Operator name (layer name or builtin step name).
    pub name: String,
    /// Operator category.
    pub kind: OpKind,
    /// Number of recorded calls.
    pub calls: u64,
    /// Sum of per-call wall times, nanoseconds.
    pub total_ns: u64,
    /// Mean per-call wall time, nanoseconds.
    pub mean_ns: f64,
    /// Maximum observed per-call wall time, nanoseconds (exact).
    pub max_ns: u64,
    /// Median per-call latency (histogram estimate, ≤6.25% relative error).
    pub p50_ns: u64,
    /// 95th-percentile per-call latency (histogram estimate).
    pub p95_ns: u64,
    /// 99th-percentile per-call latency (histogram estimate).
    pub p99_ns: u64,
    /// Effective xor+popcount bit-operations one call performs (static).
    pub bit_ops_per_call: u64,
    /// Bytes read per call (static).
    pub bytes_read_per_call: u64,
    /// Bytes written per call (static).
    pub bytes_written_per_call: u64,
    /// Sustained binary-op throughput: `bit_ops × calls / total_ns`, in
    /// giga-ops per second.
    pub gops: f64,
    /// Sustained memory traffic in GB/s (bytes moved / total time).
    pub gb_per_s: f64,
    /// Achieved share of the machine's peak xor+popcount throughput, in
    /// percent (`100 × gops / peak_gops`). 0 when idle.
    pub pct_of_peak_compute: f64,
    /// Achieved share of the machine's peak memory bandwidth, in percent.
    pub pct_of_peak_bandwidth: f64,
    /// Roofline verdict: compute-bound, memory-bound, or idle.
    pub bound: OpBound,
    /// Occupied latency-histogram buckets (sparse, non-cumulative).
    pub hist: Vec<HistBucket>,
    /// bgemm tile geometry for GEMM-backed operators.
    pub tile: Option<TileStats>,
}

/// Everything a model's telemetry knows, frozen at one instant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Snapshot schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Model name the telemetry was built for.
    pub model: String,
    /// Requests that have entered the engine (including in-flight).
    pub requests: u64,
    /// The machine and its roofline peaks.
    pub machine: MachineSnapshot,
    /// One entry per operator, in execution order.
    pub ops: Vec<OpSnapshot>,
    /// Batch-serving counters.
    pub batch: BatchSnapshot,
    /// Serving-runtime counters (zero without `bitflow-serve`).
    pub serve: ServeSnapshot,
}

impl MetricsSnapshot {
    /// A snapshot carrying only serving-runtime counters, for exposing a
    /// model served without operator telemetry: no ops, and a zeroed
    /// machine section (building the real one would run the roofline
    /// bandwidth probe, far too expensive for a metrics scrape).
    pub fn serve_only(model: impl Into<String>, serve: ServeSnapshot) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            model: model.into(),
            requests: 0,
            machine: MachineSnapshot {
                freq_source: "unavailable".to_string(),
                bw_source: "unavailable".to_string(),
                ..MachineSnapshot::default()
            },
            ops: Vec::new(),
            batch: BatchSnapshot::default(),
            serve,
        }
    }

    /// Total time attributed to operators, nanoseconds.
    pub fn total_op_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.total_ns).sum()
    }

    /// The operator with the largest total time, if any time was recorded.
    pub fn hottest_op(&self) -> Option<&OpSnapshot> {
        self.ops
            .iter()
            .filter(|o| o.total_ns > 0)
            .max_by_key(|o| o.total_ns)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::table::GovernSnapshot;

    /// A populated snapshot: the fixture of the unit tests here and in
    /// `prometheus.rs`.
    pub(crate) fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            model: "small-cnn".to_string(),
            requests: 8,
            machine: MachineSnapshot {
                features: "sse2+avx2".to_string(),
                simd_width_bits: 256,
                logical_cores: 2,
                freq_ghz: 2.1,
                freq_source: "cpuinfo".to_string(),
                peak_gops: 2150.4,
                peak_gb_per_s: 11.5,
                bw_source: "measured".to_string(),
            },
            ops: vec![
                OpSnapshot {
                    name: "conv1".to_string(),
                    kind: OpKind::Conv,
                    calls: 8,
                    total_ns: 8_000,
                    mean_ns: 1_000.0,
                    max_ns: 1_500,
                    p50_ns: 1_008,
                    p95_ns: 1_488,
                    p99_ns: 1_488,
                    bit_ops_per_call: 1_000_000,
                    bytes_read_per_call: 4_096,
                    bytes_written_per_call: 1_024,
                    gops: 1_000.0,
                    gb_per_s: 5.12,
                    pct_of_peak_compute: 46.5,
                    pct_of_peak_bandwidth: 44.5,
                    bound: OpBound::Compute,
                    hist: vec![
                        HistBucket {
                            le_ns: 1_023,
                            count: 5,
                        },
                        HistBucket {
                            le_ns: 1_535,
                            count: 3,
                        },
                    ],
                    tile: Some(TileStats {
                        m: 1024,
                        k: 64,
                        n_words: 9,
                        quads: 16,
                        tail: 0,
                        par_k_chunk: 32,
                    }),
                },
                OpSnapshot {
                    name: "pool1".to_string(),
                    kind: OpKind::Pool,
                    calls: 3,
                    total_ns: 600,
                    mean_ns: 200.0,
                    max_ns: 250,
                    p50_ns: 200,
                    p95_ns: 248,
                    p99_ns: 248,
                    bit_ops_per_call: 0,
                    bytes_read_per_call: 2_048,
                    bytes_written_per_call: 512,
                    gops: 0.0,
                    gb_per_s: 12.8,
                    pct_of_peak_compute: 0.0,
                    pct_of_peak_bandwidth: 100.0,
                    bound: OpBound::Memory,
                    hist: vec![HistBucket {
                        le_ns: 255,
                        count: 3,
                    }],
                    tile: None,
                },
            ],
            batch: BatchSnapshot {
                batches: 1,
                items: 3,
                failed_items: 0,
                chunks: 1,
                max_batch: 3,
                queued_items: 0,
            },
            serve: ServeSnapshot {
                submitted: 20,
                accepted: 17,
                completed: 12,
                failed: 1,
                rejected_queue_full: 2,
                rejected_shedding: 1,
                rejected_draining: 0,
                rejected_quota: 3,
                shed_deadline: 2,
                deadline_missed: 1,
                cancelled: 1,
                worker_panics: 1,
                worker_restarts: 1,
                breaker_trips: 1,
                served_on_caller: 5,
                queue_depth: 3,
                queue_depth_max: 6,
                batches: 6,
                batch_items: 14,
                batch_size_max: 4,
                batch_size_hist: vec![
                    SizeBucket { le: 1, count: 2 },
                    SizeBucket { le: 4, count: 4 },
                ],
                net_accepted_conns: 9,
                net_rejected_conns: 2,
                net_timeouts_read: 4,
                net_timeouts_write: 1,
                net_malformed_requests: 5,
                net_bytes_in: 123_456,
                net_bytes_out: 65_432,
                govern: GovernSnapshot {
                    rejected_memory: 4,
                    net_accept_errors: 3,
                    net_spawn_sheds: 2,
                    mem_used_bytes: 2_097_152,
                    mem_budget_bytes: 8_388_608,
                    mem_leases: 5,
                    degradation_state: 2,
                },
                stage_queue_wait: StageSnapshot {
                    count: 12,
                    total_ns: 48_000,
                    buckets: vec![
                        HistBucket {
                            le_ns: 2_047,
                            count: 7,
                        },
                        HistBucket {
                            le_ns: 8_191,
                            count: 5,
                        },
                    ],
                },
                stage_batch_wait: StageSnapshot {
                    count: 12,
                    total_ns: 6_000,
                    buckets: vec![HistBucket {
                        le_ns: 1_023,
                        count: 12,
                    }],
                },
                stage_exec: StageSnapshot {
                    count: 12,
                    total_ns: 96_000,
                    buckets: vec![HistBucket {
                        le_ns: 16_383,
                        count: 12,
                    }],
                },
                stage_write: StageSnapshot::default(),
            },
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let snap = sample();
        let json = serde_json::to_string_pretty(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.model, snap.model);
        assert_eq!(back.requests, snap.requests);
        assert_eq!(back.machine, snap.machine);
        assert_eq!(back.batch, snap.batch);
        assert_eq!(back.serve, snap.serve);
        assert_eq!(back.ops.len(), snap.ops.len());
        for (a, b) in back.ops.iter().zip(snap.ops.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.calls, b.calls);
            assert_eq!(a.total_ns, b.total_ns);
            assert_eq!(a.max_ns, b.max_ns);
            assert_eq!(a.p50_ns, b.p50_ns);
            assert_eq!(a.p95_ns, b.p95_ns);
            assert_eq!(a.p99_ns, b.p99_ns);
            assert_eq!(a.bit_ops_per_call, b.bit_ops_per_call);
            assert!((a.mean_ns - b.mean_ns).abs() < 1e-9);
            assert!((a.gops - b.gops).abs() < 1e-9);
            assert!((a.gb_per_s - b.gb_per_s).abs() < 1e-9);
            assert!((a.pct_of_peak_compute - b.pct_of_peak_compute).abs() < 1e-9);
            assert!((a.pct_of_peak_bandwidth - b.pct_of_peak_bandwidth).abs() < 1e-9);
            assert_eq!(a.bound, b.bound);
            assert_eq!(a.hist, b.hist);
            assert_eq!(a.tile, b.tile);
        }
    }

    #[test]
    fn aggregates() {
        let snap = sample();
        assert_eq!(snap.total_op_ns(), 8_600);
        assert_eq!(snap.hottest_op().map(|o| o.name.as_str()), Some("conv1"));
    }

    #[test]
    fn hottest_op_empty_when_idle() {
        let mut snap = sample();
        for op in &mut snap.ops {
            op.total_ns = 0;
        }
        assert!(snap.hottest_op().is_none());
    }
}
