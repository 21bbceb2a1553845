//! # bitflow-gpumodel
//!
//! Analytical cost model of a **GTX 1080 running full-precision VGG
//! operators** (cuDNN under Keras/TensorFlow 1.2), standing in for the
//! physical GPU of the paper's Figs. 10–11.
//!
//! ## Why a model is a faithful substitute here
//!
//! In the paper, the GPU series is a *fixed comparator line*: BitFlow's CPU
//! numbers are measured, the GPU numbers are whatever a stock
//! Keras/TF/cuDNN stack does on a GTX 1080. No GPU is available in this
//! reproduction environment, but the paper itself publishes the end-to-end
//! line (12.87 ms VGG-16, 14.92 ms VGG-19), so the comparator can be
//! reconstructed from first principles and *validated against the paper's
//! own numbers* — which the unit tests here do.
//!
//! ## The model
//!
//! A two-ceiling roofline with a per-kernel launch/framework overhead:
//!
//! ```text
//! t_op = max( flops / (eff_c · peak_flops),  bytes / (eff_b · mem_bw) ) + overhead
//! ```
//!
//! GTX 1080: 8.87 TFLOP/s peak fp32, 320 GB/s GDDR5X. Batch-1 cuDNN conv
//! achieves roughly a third of peak (small GEMMs, no batching to amortize
//! over); FC layers at batch 1 are pure GEMV — memory-bound on the weight
//! matrix; pooling is bandwidth-bound. The three efficiency constants are
//! calibrated once so that VGG-16 lands on the paper's 12.87 ms, then
//! VGG-19 (14.92 ms) serves as the held-out check.
#![forbid(unsafe_code)]

use bitflow_graph::spec::{LayerIo, LayerSpec, NetworkSpec};
use bitflow_ops::ConvParams;
use bitflow_tensor::{FilterShape, Shape};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Roofline parameters of a modeled GPU.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Peak fp32 throughput, FLOP/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Fraction of peak compute reached by batch-1 conv kernels.
    pub eff_compute: f64,
    /// Fraction of peak bandwidth reached by streaming kernels.
    pub eff_bandwidth: f64,
    /// Per-kernel launch + framework overhead, seconds.
    pub launch_overhead: f64,
}

impl GpuModel {
    /// GTX 1080 under Keras/TF 1.2, calibrated to the paper's Fig. 11.
    pub fn gtx1080() -> Self {
        Self {
            peak_flops: 8.87e12,
            mem_bw: 320.0e9,
            eff_compute: 0.33,
            eff_bandwidth: 0.75,
            launch_overhead: 55e-6,
        }
    }

    fn roofline(&self, flops: f64, bytes: f64) -> Duration {
        let t_compute = flops / (self.eff_compute * self.peak_flops);
        let t_memory = bytes / (self.eff_bandwidth * self.mem_bw);
        Duration::from_secs_f64(t_compute.max(t_memory) + self.launch_overhead)
    }

    /// Modeled time of one full-precision convolution (batch 1).
    pub fn conv_time(&self, input: Shape, f: FilterShape, params: ConvParams) -> Duration {
        let g = params.conv_out(input, f.k);
        let flops = 2.0 * (g.out_h * g.out_w) as f64 * (f.k * f.kh * f.kw * f.c) as f64;
        let bytes = 4.0 * (input.numel() + f.numel() + g.out_h * g.out_w * f.k) as f64;
        self.roofline(flops, bytes)
    }

    /// Modeled time of one full-precision FC layer (batch-1 GEMV).
    pub fn fc_time(&self, n: usize, k: usize) -> Duration {
        let flops = 2.0 * (n * k) as f64;
        let bytes = 4.0 * (n * k + n + k) as f64;
        self.roofline(flops, bytes)
    }

    /// Modeled time of one max-pool (bandwidth-bound).
    pub fn pool_time(&self, input: Shape, params: ConvParams) -> Duration {
        let g = params.pool_out(input);
        // One compare per window element plus the streamed input/output.
        let flops = (g.out_h * g.out_w * g.out_c * params.kh * params.kw) as f64;
        let bytes = 4.0 * (input.numel() + g.out_h * g.out_w * g.out_c) as f64;
        self.roofline(flops, bytes)
    }

    /// Modeled per-layer times for a whole network spec (the GPU series of
    /// Fig. 10 for the Table IV operators, and of Fig. 11 end-to-end).
    pub fn network_times(&self, spec: &NetworkSpec) -> Vec<(String, Duration)> {
        let shapes = spec.infer_shapes();
        let mut out = Vec::with_capacity(spec.layers.len());
        for (i, layer) in spec.layers.iter().enumerate() {
            let in_io = if i == 0 {
                LayerIo::Map {
                    h: spec.input.h,
                    w: spec.input.w,
                    c: spec.input.c,
                }
            } else {
                shapes[i - 1]
            };
            let t = match (layer, in_io) {
                (LayerSpec::Conv { k, params, .. }, LayerIo::Map { h, w, c }) => self.conv_time(
                    Shape::hwc(h, w, c),
                    FilterShape::new(*k, params.kh, params.kw, c),
                    *params,
                ),
                (LayerSpec::Pool { params, .. }, LayerIo::Map { h, w, c }) => {
                    self.pool_time(Shape::hwc(h, w, c), *params)
                }
                (LayerSpec::Fc { k, .. }, io) => self.fc_time(io.numel(), *k),
                _ => unreachable!("spatial layer after FC"),
            };
            out.push((layer.name().to_string(), t));
        }
        out
    }

    /// Modeled end-to-end time for a network.
    pub fn network_time(&self, spec: &NetworkSpec) -> Duration {
        self.network_times(spec).iter().map(|(_, t)| *t).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitflow_graph::models::{vgg16, vgg19};

    /// The paper's Fig. 11 numbers for GTX 1080.
    const PAPER_VGG16_MS: f64 = 12.87;
    const PAPER_VGG19_MS: f64 = 14.92;

    #[test]
    fn calibrated_to_paper_vgg16() {
        let t = GpuModel::gtx1080().network_time(&vgg16()).as_secs_f64() * 1e3;
        let err = (t - PAPER_VGG16_MS).abs() / PAPER_VGG16_MS;
        assert!(
            err < 0.15,
            "VGG16 model {t:.2} ms vs paper {PAPER_VGG16_MS} ms"
        );
    }

    #[test]
    fn held_out_check_vgg19() {
        let t = GpuModel::gtx1080().network_time(&vgg19()).as_secs_f64() * 1e3;
        let err = (t - PAPER_VGG19_MS).abs() / PAPER_VGG19_MS;
        assert!(
            err < 0.15,
            "VGG19 model {t:.2} ms vs paper {PAPER_VGG19_MS} ms"
        );
    }

    #[test]
    fn vgg19_slower_than_vgg16_by_right_margin() {
        let m = GpuModel::gtx1080();
        let t16 = m.network_time(&vgg16()).as_secs_f64();
        let t19 = m.network_time(&vgg19()).as_secs_f64();
        assert!(t19 > t16);
        // Paper: 14.92/12.87 ≈ 1.16.
        let ratio = t19 / t16;
        assert!((1.05..1.30).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        let m = GpuModel::gtx1080();
        // fc6: 25088×4096 — weight traffic dominates.
        let t = m.fc_time(25088, 4096).as_secs_f64();
        let pure_bw = (25088.0 * 4096.0 * 4.0) / (m.eff_bandwidth * m.mem_bw);
        assert!(t >= pure_bw, "fc time below bandwidth floor");
        assert!(t < pure_bw * 1.5, "fc should be near the bandwidth floor");
    }

    #[test]
    fn conv_layers_are_compute_bound() {
        let m = GpuModel::gtx1080();
        let input = Shape::hwc(56, 56, 128);
        let f = FilterShape::new(256, 3, 3, 128);
        let t = m.conv_time(input, f, ConvParams::VGG_CONV).as_secs_f64();
        let pure_compute =
            (2.0 * 56.0 * 56.0 * 256.0 * 9.0 * 128.0) / (m.eff_compute * m.peak_flops);
        assert!(t >= pure_compute);
        assert!(t < pure_compute + 2.0 * m.launch_overhead);
    }

    #[test]
    fn overhead_floors_tiny_ops() {
        let m = GpuModel::gtx1080();
        let t = m.pool_time(Shape::hwc(14, 14, 512), ConvParams::VGG_POOL);
        assert!(t.as_secs_f64() >= m.launch_overhead);
        assert!(t.as_secs_f64() < 10.0 * m.launch_overhead);
    }

    #[test]
    fn per_layer_inventory_complete() {
        let times = GpuModel::gtx1080().network_times(&vgg16());
        assert_eq!(times.len(), 21);
        assert_eq!(times[0].0, "conv1.1");
        assert_eq!(times.last().unwrap().0, "fc8");
    }
}
