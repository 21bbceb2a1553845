//! # bitflow
//!
//! Root package of the BitFlow workspace — a full Rust reproduction of
//! *"BitFlow: Exploiting Vector Parallelism for Binary Neural Networks on
//! CPU"* (Hu et al., IPDPS 2018), and its public API: one facade over the
//! workspace crates. See README.md for the tour and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology; the runnable examples
//! live under `examples/` and the cross-crate integration tests under
//! `tests/`.
//!
//! ```
//! use bitflow::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Build a binarized VGG-16 with random weights and run one inference.
//! let spec = vgg16();
//! let mut rng = StdRng::seed_from_u64(0);
//! let weights = NetworkWeights::random(&spec, &mut rng);
//! let model = CompiledModel::try_compile(&spec, &weights)?;
//! let mut ctx = model.try_new_context()?;
//! let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
//! let logits = model.run(&mut ctx, &BatchItem::new(&image))?;
//! assert_eq!(logits.len(), 1000);
//! # Ok::<(), BitFlowError>(())
//! ```
//!
//! The three-level structure of the paper maps onto the re-exported crates:
//!
//! | level | crate | highlights |
//! |---|---|---|
//! | gemm | [`gemm`] | `bgemm`, fused binarize+pack+transpose (Table III) |
//! | operator | [`ops`] | **PressedConv**, binary FC, binary OR-pool |
//! | network | [`graph`] | static-graph engine, weight pre-packing, zero-cost padding |
//!
//! plus the substrates: [`tensor`] (NHWC pressed tensors), [`simd`]
//! (xor+popcount kernels and the vector execution scheduler), [`gpumodel`]
//! (the calibrated GTX 1080 comparator of Figs. 10–11).
#![forbid(unsafe_code)]

pub use bitflow_gemm as gemm;
pub use bitflow_gpumodel as gpumodel;
pub use bitflow_graph as graph;
pub use bitflow_net as net;
pub use bitflow_ops as ops;
pub use bitflow_serve as serve;
pub use bitflow_simd as simd;
pub use bitflow_telemetry as telemetry;
pub use bitflow_tensor as tensor;

// The observability entry points, importable straight off the root crate:
// `bitflow::CompiledModel::enable_telemetry` returns a handle whose
// `snapshot()` is a `bitflow::MetricsSnapshot`, exportable with
// `MetricsSnapshot::to_prometheus`; per-request traces land in a
// `bitflow::FlightRecorder`.
pub use bitflow_graph::CompiledModel;
pub use bitflow_telemetry::{
    FlightRecorder, MetricsSnapshot, ModelTelemetry, Roofline, SCHEMA_VERSION,
};

// The serving runtime, importable straight off the root crate: wrap a
// `CompiledModel` in a `bitflow::Server` for bounded admission, deadlines,
// panic isolation, and load shedding.
pub use bitflow_serve::{Server, ServerConfig};

// The network front-end, importable straight off the root crate: bind a
// `bitflow::NetServer` over a `Server` to speak HTTP/1.1 with hostile-client
// hardening (header/read/write deadlines, connection caps, bounded bodies).
pub use bitflow_net::{NetConfig, NetServer};

/// Everything a typical user needs, one import away.
pub mod prelude {
    pub use bitflow_gpumodel::GpuModel;
    pub use bitflow_graph::models::{mlp, small_cnn, tiered_cnn, vgg16, vgg19};
    pub use bitflow_graph::spec::{LayerSpec, NetworkSpec};
    pub use bitflow_graph::weights::{BnParams, LayerWeights, NetworkWeights};
    pub use bitflow_graph::{
        BatchItem, BitFlowError, CancelToken, CompiledModel, FloatNetwork, InferenceContext,
    };
    pub use bitflow_net::{NetConfig, NetServer};
    pub use bitflow_ops::binary::{
        binary_conv_im2col, binary_max_pool, pressed_conv_sign_into, BinaryFcWeights, BnFold,
        PopCmp, SignThresholds,
    };
    pub use bitflow_ops::{ConvParams, SimdLevel};
    pub use bitflow_serve::{
        BreakerConfig, ChaosConfig, ModelClient, ModelEntry, ModelRegistry, ResponseHandle, Server,
        ServerConfig, ShedPolicy, Submission,
    };
    pub use bitflow_simd::{features, HwFeatures, VectorScheduler};
    pub use bitflow_telemetry::{
        FlightRecorder, MachineSnapshot, MetricsSnapshot, ModelTelemetry, OpBound, RecorderConfig,
        RequestTrace, Roofline, TraceBuilder, SCHEMA_VERSION,
    };
    pub use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn facade_end_to_end_small() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(1);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
        let mut ctx = model.try_new_context().expect("context allocates");
        let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let logits = model.run(&mut ctx, &BatchItem::new(&image));
        assert_eq!(logits.expect("inference").len(), 10);
    }

    #[test]
    fn facade_exposes_scheduler() {
        let s = VectorScheduler::new();
        let k = s.select(512);
        assert_eq!(k.c_words, 8);
        let _ = features();
    }

    #[test]
    fn facade_exposes_gpu_model() {
        let t = GpuModel::gtx1080().network_time(&vgg16());
        assert!(t.as_secs_f64() > 0.0);
    }

    #[test]
    fn facade_exposes_net_front_end() {
        // The network names resolve at the crate root and the whole
        // bind/shutdown lifecycle works through the facade alone.
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(3);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = crate::CompiledModel::try_compile(&spec, &weights).expect("model compiles");
        let server = std::sync::Arc::new(crate::Server::start(
            std::sync::Arc::new(model),
            ServerConfig::default(),
        ));
        let net =
            crate::NetServer::bind(server, crate::NetConfig::default()).expect("bind loopback");
        assert_ne!(net.local_addr().port(), 0);
        assert!(net.shutdown());
    }

    #[test]
    fn root_exposes_telemetry_entry_points() {
        // The observability names resolve at the crate root, without
        // reaching into the `telemetry` module.
        fn _takes_recorder(_: &crate::FlightRecorder) {}
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(2);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = crate::CompiledModel::try_compile(&spec, &weights).expect("model compiles");
        let t = model.enable_telemetry();
        let snap: crate::MetricsSnapshot = t.snapshot();
        assert_eq!(snap.schema_version, crate::SCHEMA_VERSION);
        assert!(snap.machine.peak_gops > 0.0);
        let _ = snap.to_prometheus();
    }
}
