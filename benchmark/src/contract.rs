//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is rendered from these tables (`--contract`), and a self-test keeps
//! the file and the tables identical.

use crate::spans::json_string;

/// How long one run measures, seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 20;

/// One workload and why it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and what must not move on it.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "vgg16_latency",
        why: "Paper Fig. 11: binary VGG-16 224x224x3, batch 1, one thread, closed loop. graph+ops+simd do all the work and serve/net none, so kernel and inter-layer dataflow changes must show here.",
    },
    Workload {
        name: "tiered_batch",
        why: "Same engine, other regime: 16-image try_infer_batch of 32x32 tiered_cnn on nproc threads. Tiny L2-resident maps, fresh contexts: per-call overhead dominates; VGG-tuned tiles must not cost here.",
    },
    Workload {
        name: "small_http_closed",
        why: "small_cnn over loopback HTTP, all threads on one CPU, 1 then nproc keep-alive clients. net+serve are half of the ~40 us wire time (elsewhere kernels are ~all), so their overhead shows here.",
    },
    Workload {
        name: "tiered_serve_open",
        why: "tiered_cnn behind Server::submit, open loop timed from due time: 400 rps calm, then 2000 rps (2x capacity). Queueing, micro-batching and refusal at a full queue do the work.",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. Every workload reports every one of them; what
/// each means on a workload is in that workload's `why` and in README.md.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric of the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The 22 runtime operators of compiled VGG-16, in execution order, as
/// `try_infer_profiled` names them.
pub const VGG_OPS: [&str; 22] = [
    "binarize-input",
    "conv1.1",
    "conv1.2",
    "pool1",
    "conv2.1",
    "conv2.2",
    "pool2",
    "conv3.1",
    "conv3.2",
    "conv3.3",
    "pool3",
    "conv4.1",
    "conv4.2",
    "conv4.3",
    "pool4",
    "conv5.1",
    "conv5.2",
    "conv5.3",
    "pool5",
    "fc6",
    "fc7",
    "fc8",
];

/// The ten full-size geometries also timed in isolation.
pub const ISOLATED_OPS: [&str; 10] = [
    "conv1.1", "conv2.1", "conv2.2", "conv3.1", "conv4.1", "conv5.1", "fc6", "fc7", "pool4",
    "pool5",
];

/// The kernel tiers `simd.xor_popcount_gbitops_s.*` names.
pub const SIMD_TIERS: [&str; 4] = ["scalar", "sse", "avx2", "avx512"];

/// The open-loop rate ladder of the traced run, requests per second.
pub const LADDER_RPS: [u32; 8] = [200, 400, 600, 800, 1000, 1300, 1600, 2000];

/// Every per-layer metric, grouped by layer.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better })
    };
    for tier in SIMD_TIERS {
        add(
            format!("simd.xor_popcount_gbitops_s.{tier}"),
            "Gbitop/s",
            Higher,
        );
    }
    add("simd.pack_f32_gb_s".into(), "GB/s", Higher);
    add("simd.or_accumulate_gb_s".into(), "GB/s", Higher);
    add("gemm.bgemm_fc6_ms".into(), "ms", Lower);
    add("gemm.bgemm_fc7_ms".into(), "ms", Lower);
    add("gemm.pack_b_fc6_ms".into(), "ms", Lower);
    add("tensor.encode_mb_s".into(), "MB/s", Higher);
    add("tensor.decode_mb_s".into(), "MB/s", Higher);
    for op in ISOLATED_OPS {
        add(format!("ops.{op}_ms"), "ms", Lower);
        add(format!("ops.{op}_pct_peak"), "%", Higher);
    }
    for op in VGG_OPS {
        add(format!("graph.op_ms.{op}"), "ms", Lower);
    }
    add("graph.ops_sum_ms".into(), "ms", Lower);
    add("graph.residual_ms".into(), "ms", Lower);
    add("graph.ops_share".into(), "share", Higher);
    for op in ISOLATED_OPS {
        add(format!("graph.in_net_vs_isolated.{op}"), "ratio", Lower);
    }
    add("graph.infer_p50_ms".into(), "ms", Lower);
    add("graph.compile_ms".into(), "ms", Lower);
    add("graph.context_bytes".into(), "bytes", Lower);
    add("graph.packed_model_bytes".into(), "bytes", Lower);
    add("graph.batch_scaling".into(), "ratio", Higher);
    add("graph.parallel_speedup".into(), "ratio", Higher);
    add("serve.roundtrip_p50_us".into(), "us", Lower);
    add("serve.overhead_p50_us".into(), "us", Lower);
    add("serve.queue_wait_p50_us".into(), "us", Lower);
    add("serve.batch_wait_p50_us".into(), "us", Lower);
    add("serve.exec_p50_us".into(), "us", Lower);
    add("serve.batch_size_mean".into(), "count", Higher);
    add("serve.exec_share_of_wire".into(), "share", Lower);
    add("serve.open_queue_wait_p50_us".into(), "us", Lower);
    add("serve.open_batch_size_mean".into(), "count", Higher);
    add("serve.p50_ms_r400".into(), "ms", Lower);
    add("serve.p90_ms_r400".into(), "ms", Lower);
    add("serve.within_slo_share_r600".into(), "share", Higher);
    add("serve.within_slo_share_r2000".into(), "share", Higher);
    add("serve.slo_rate_rps".into(), "1/s", Higher);
    add("serve.ok_per_s_r2000".into(), "1/s", Higher);
    add("serve.refused_share_r2000".into(), "share", Lower);
    add("serve.late_ok_share_r2000".into(), "share", Lower);
    add("net.overhead_p50_us".into(), "us", Lower);
    add("net.wire_p50_us".into(), "us", Lower);
    add("net.wire_p99_us".into(), "us", Lower);
    add("net.rps".into(), "1/s", Higher);
    add("net.connect_us".into(), "us", Lower);
    add("net.parse_head_ns".into(), "ns", Lower);
    add("net.client_write_us".into(), "us", Lower);
    add("net.client_wait_first_byte_us".into(), "us", Lower);
    add("net.client_read_body_us".into(), "us", Lower);
    add("telemetry.overhead_pct".into(), "%", Lower);
    add("telemetry.snapshot_us".into(), "us", Lower);
    for r in [400, 600, 2000] {
        add(format!("loadgen.late_p90_ms_r{r}"), "ms", Lower);
    }
    add("loadgen.late_max_ms".into(), "ms", Lower);
    add("bench.trace_overhead_pct.infer".into(), "%", Lower);
    add("bench.trace_overhead_pct.wire".into(), "%", Lower);
    out
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.word()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(&m.name),
                json_string(m.unit),
                json_string(m.better.word())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
