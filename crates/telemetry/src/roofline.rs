//! Roofline model: how close each operator runs to the machine's peaks.
//!
//! The paper reports speedups relative to a float baseline; a roofline
//! additionally says how much headroom is *left*. Two ceilings bound any
//! kernel:
//!
//! * **Compute roof** — theoretical xor+popcount throughput. One SIMD lane
//!   sweep evaluates `width` bit positions with one xor and one
//!   popcount-accumulate, i.e. 2 bit-ops per position per cycle if the
//!   pipeline issued one fused pair per cycle:
//!   `peak_gops = 2 × simd_width_bits × freq_GHz × cores`.
//!   This is deliberately optimistic (real cores need extra instructions
//!   for loads and reduction), which keeps `pct_of_peak_compute` a
//!   conservative "you are at most this efficient" number.
//! * **Bandwidth roof** — measured once per process with a streaming
//!   read of a 16 MiB buffer (far beyond L2, usually beyond L3 slices),
//!   overridable with `BITFLOW_PEAK_BW_GBPS` for machines where the
//!   measurement is known-bad (noisy neighbours, tiny containers).
//!
//! An operator achieving a higher fraction of the compute roof than of the
//! bandwidth roof is **compute-bound**, otherwise **memory-bound**; an
//! operator with no recorded calls is **idle**.

use std::sync::OnceLock;

use bitflow_simd::{machine, FreqSource, MachineInfo};

use crate::snapshot::{MachineSnapshot, MetricsSnapshot, OpBound, OpSnapshot};

/// Where the bandwidth roof came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BwSource {
    /// Streaming-read measurement on this process.
    Measured,
    /// `BITFLOW_PEAK_BW_GBPS` override.
    Env,
}

/// The machine's two roofline ceilings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Roofline {
    /// Hardware the peaks were derived from.
    pub machine: MachineInfo,
    /// Peak xor+popcount throughput, GOPS.
    pub peak_gops: f64,
    /// Peak streaming bandwidth, GB/s.
    pub peak_gb_per_s: f64,
    /// Where the bandwidth number came from.
    pub bw_source: BwSource,
}

impl Roofline {
    /// Builds the roofline from an explicit machine description and
    /// bandwidth peak (used by tests; production code calls [`current`]).
    pub fn from_parts(machine: MachineInfo, peak_gb_per_s: f64, bw_source: BwSource) -> Self {
        let width = machine.features.max_width_bits() as f64;
        let peak_gops = 2.0 * width * machine.freq_ghz * machine.logical_cores as f64;
        Self {
            machine,
            peak_gops,
            peak_gb_per_s,
            bw_source,
        }
    }

    /// Detects the running machine's roofline. Expensive on first call
    /// (frequency estimate + bandwidth sweep); use [`current`] for the
    /// cached copy.
    pub fn detect() -> Self {
        let (bw, src) = match env_bw_override() {
            Some(bw) => (bw, BwSource::Env),
            None => (measure_stream_gb_per_s(), BwSource::Measured),
        };
        Self::from_parts(machine(), bw, src)
    }

    /// Flattens into the serializable form embedded in snapshots.
    pub fn to_snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            features: self.machine.features.to_string(),
            simd_width_bits: self.machine.features.max_width_bits() as u64,
            logical_cores: self.machine.logical_cores as u64,
            freq_ghz: self.machine.freq_ghz,
            freq_source: match self.machine.freq_source {
                FreqSource::Cpuinfo => "cpuinfo",
                FreqSource::Calibrated => "calibrated",
                FreqSource::Assumed => "assumed",
            }
            .to_string(),
            peak_gops: self.peak_gops,
            peak_gb_per_s: self.peak_gb_per_s,
            bw_source: match self.bw_source {
                BwSource::Measured => "measured",
                BwSource::Env => "env",
            }
            .to_string(),
        }
    }

    /// Fills one operator row's roofline fields from its achieved rates.
    pub fn annotate_op(&self, op: &mut OpSnapshot) {
        if op.calls == 0 || op.total_ns == 0 {
            op.pct_of_peak_compute = 0.0;
            op.pct_of_peak_bandwidth = 0.0;
            op.bound = OpBound::Idle;
            return;
        }
        op.pct_of_peak_compute = if self.peak_gops > 0.0 {
            100.0 * op.gops / self.peak_gops
        } else {
            0.0
        };
        op.pct_of_peak_bandwidth = if self.peak_gb_per_s > 0.0 {
            100.0 * op.gb_per_s / self.peak_gb_per_s
        } else {
            0.0
        };
        op.bound = if op.pct_of_peak_compute >= op.pct_of_peak_bandwidth {
            OpBound::Compute
        } else {
            OpBound::Memory
        };
    }

    /// Annotates every operator row and stamps the machine block.
    pub fn annotate(&self, snap: &mut MetricsSnapshot) {
        snap.machine = self.to_snapshot();
        for op in &mut snap.ops {
            self.annotate_op(op);
        }
    }
}

/// Process-wide cached roofline (machine detection and the bandwidth sweep
/// run once).
pub fn current() -> Roofline {
    static CACHE: OnceLock<Roofline> = OnceLock::new();
    *CACHE.get_or_init(Roofline::detect)
}

fn env_bw_override() -> Option<f64> {
    let v = std::env::var("BITFLOW_PEAK_BW_GBPS").ok()?;
    let bw: f64 = v.trim().parse().ok()?;
    (bw > 0.0).then_some(bw)
}

/// Best-of-3 streaming read of a 16 MiB `u64` buffer, single-threaded.
/// Single-threaded is the honest roof for this engine: inference requests
/// run one thread per request chunk, so per-operator `gb_per_s` is also a
/// (mostly) single-stream number.
fn measure_stream_gb_per_s() -> f64 {
    use std::time::Instant;
    const WORDS: usize = 2 * 1024 * 1024; // 16 MiB
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let bytes = (WORDS * 8) as f64;
    let mut best = f64::INFINITY;
    let mut sum = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        for &w in &buf {
            sum = sum.wrapping_add(w);
        }
        std::hint::black_box(sum);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    if best <= 0.0 || !best.is_finite() {
        return 0.0;
    }
    bytes / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitflow_simd::HwFeatures;

    fn test_machine() -> MachineInfo {
        MachineInfo {
            features: HwFeatures {
                sse2: true,
                ssse3: true,
                popcnt: true,
                avx2: true,
                avx512f: false,
                avx512bw: false,
                avx512vpopcntdq: false,
                amx_int8: false,
            },
            logical_cores: 4,
            freq_ghz: 2.0,
            freq_source: FreqSource::Cpuinfo,
        }
    }

    fn op(calls: u64, total_ns: u64, gops: f64, gb_per_s: f64) -> OpSnapshot {
        OpSnapshot {
            name: "op".to_string(),
            kind: crate::metrics::OpKind::Conv,
            calls,
            total_ns,
            mean_ns: 0.0,
            max_ns: 0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            bit_ops_per_call: 0,
            bytes_read_per_call: 0,
            bytes_written_per_call: 0,
            gops,
            gb_per_s,
            pct_of_peak_compute: -1.0,
            pct_of_peak_bandwidth: -1.0,
            bound: OpBound::Idle,
            hist: vec![],
            tile: None,
        }
    }

    #[test]
    fn peak_formula() {
        // 2 × 256 bits × 2.0 GHz × 4 cores = 4096 GOPS.
        let r = Roofline::from_parts(test_machine(), 10.0, BwSource::Env);
        assert!((r.peak_gops - 4096.0).abs() < 1e-9, "{}", r.peak_gops);
        assert_eq!(r.peak_gb_per_s, 10.0);
    }

    #[test]
    fn verdicts() {
        let r = Roofline::from_parts(test_machine(), 10.0, BwSource::Env);
        // 50% of compute peak, 10% of bandwidth peak → compute-bound.
        let mut compute = op(4, 1_000, 2048.0, 1.0);
        r.annotate_op(&mut compute);
        assert!((compute.pct_of_peak_compute - 50.0).abs() < 1e-9);
        assert!((compute.pct_of_peak_bandwidth - 10.0).abs() < 1e-9);
        assert_eq!(compute.bound, OpBound::Compute);
        // 1% of compute peak, 80% of bandwidth peak → memory-bound.
        let mut memory = op(4, 1_000, 40.96, 8.0);
        r.annotate_op(&mut memory);
        assert_eq!(memory.bound, OpBound::Memory);
        // No calls → idle, percentages zeroed.
        let mut idle = op(0, 0, 0.0, 0.0);
        r.annotate_op(&mut idle);
        assert_eq!(idle.bound, OpBound::Idle);
        assert_eq!(idle.pct_of_peak_compute, 0.0);
    }

    #[test]
    fn machine_snapshot_is_flat_and_labelled() {
        let r = Roofline::from_parts(test_machine(), 10.0, BwSource::Env);
        let m = r.to_snapshot();
        assert_eq!(m.simd_width_bits, 256);
        assert_eq!(m.logical_cores, 4);
        assert_eq!(m.freq_source, "cpuinfo");
        assert_eq!(m.bw_source, "env");
        assert!(m.features.contains("avx2"));
    }

    #[test]
    fn current_is_cached_and_positive() {
        let a = current();
        let b = current();
        assert_eq!(a, b);
        assert!(a.peak_gops > 0.0);
        assert!(a.peak_gb_per_s > 0.0, "bw {}", a.peak_gb_per_s);
    }
}
