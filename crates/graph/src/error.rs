//! Typed errors for the serving path.
//!
//! The contract (documented in ARCHITECTURE.md §"Panic-free serving path"):
//!
//! * [`crate::spec::NetworkSpec::validate`] rejects every malformed spec as
//!   a [`SpecError`];
//! * [`crate::weights::NetworkWeights::validate_against`] rejects every
//!   spec/weight disagreement as a [`WeightMismatch`];
//! * [`crate::engine::CompiledModel::try_compile`] runs both and only then
//!   builds the engine — a compiled model is geometry-safe by construction;
//! * [`crate::engine::CompiledModel::try_infer`] /
//!   [`crate::engine::CompiledModel::try_infer_batch`] check the request
//!   (input shape, finiteness, context provenance) and report problems as
//!   [`InputGeometry`] values instead of aborting the worker.
//!
//! Everything converges on [`BitFlowError`], the per-subsystem sum type the
//! serving path returns end to end.

use bitflow_simd::scheduler::UnsupportedKernel;
use bitflow_tensor::{FilterShape, Shape};
use serde::{Serialize, Value};
use std::fmt;

/// What a runtime buffer slot holds (the typed face of the engine's
/// internal `Slot` enum, used in diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// Pressed (bit-packed) activation map.
    Bit,
    /// Float vector.
    Vec,
    /// Packed activation vector.
    Packed,
}

impl fmt::Display for SlotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotKind::Bit => write!(f, "pressed map"),
            SlotKind::Vec => write!(f, "float vector"),
            SlotKind::Packed => write!(f, "packed vector"),
        }
    }
}

/// A runtime buffer held a different kind of data than the operator
/// expected — the typed replacement for the engine's old
/// `panic!("slot is not a ...")` accessors, carrying enough context to
/// diagnose *which* layer tripped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotTypeError {
    /// Layer (or pseudo-op) whose operand was wrong.
    pub layer: String,
    /// Slot kind the operator needed.
    pub expected: SlotKind,
    /// Slot kind actually present.
    pub actual: SlotKind,
}

impl fmt::Display for SlotTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer {}: slot holds a {} where a {} was expected",
            self.layer, self.actual, self.expected
        )
    }
}

impl std::error::Error for SlotTypeError {}

/// A malformed [`crate::spec::NetworkSpec`]: rejected by
/// [`crate::spec::NetworkSpec::validate`] before any kernel is chosen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The layer chain is empty.
    EmptyNetwork,
    /// The engine serves batch-1 inference; the spec asked for another n.
    Batch {
        /// Requested batch size.
        n: usize,
    },
    /// A zero-sized dimension somewhere in the chain.
    ZeroDim {
        /// Layer name (or "input").
        layer: String,
        /// Which dimension was zero.
        what: &'static str,
    },
    /// A spatial (conv/pool) layer appears after an FC flattened the map.
    SpatialAfterFc {
        /// The offending layer.
        layer: String,
    },
    /// The binary engine emits logits from a final FC layer.
    LastLayerNotFc {
        /// The actual last layer.
        layer: String,
    },
    /// The §III-B kernel selector cannot schedule this layer's geometry.
    Kernel {
        /// The offending layer.
        layer: String,
        /// Why the geometry is unschedulable.
        source: UnsupportedKernel,
    },
    /// A size computation (buffer elements, weight counts) overflows
    /// `usize` — no such network can be materialised.
    Overflow {
        /// The offending layer.
        layer: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyNetwork => write!(f, "network has no layers"),
            SpecError::Batch { n } => {
                write!(f, "engine serves batch-1 inference (spec input has n={n})")
            }
            SpecError::ZeroDim { layer, what } => {
                write!(f, "layer {layer}: zero-sized {what}")
            }
            SpecError::SpatialAfterFc { layer } => {
                write!(f, "spatial layer {layer} after FC")
            }
            SpecError::LastLayerNotFc { layer } => {
                write!(
                    f,
                    "binary engine requires a final FC layer (last is {layer})"
                )
            }
            SpecError::Kernel { layer, source } => {
                write!(f, "layer {layer}: {source}")
            }
            SpecError::Overflow { layer } => {
                write!(f, "layer {layer}: size arithmetic overflows")
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Kernel { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A disagreement between a spec and the weights meant to populate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WeightMismatch {
    /// Different layer counts.
    LayerCount {
        /// Layers in the spec.
        spec: usize,
        /// Layers in the weights.
        weights: usize,
    },
    /// A layer's weight kind does not match its spec kind.
    LayerKind {
        /// Layer name.
        layer: String,
        /// Kind the spec demands.
        expected: &'static str,
        /// Kind the weights carry.
        actual: &'static str,
    },
    /// Conv filter-bank geometry disagrees with the spec.
    FilterShape {
        /// Layer name.
        layer: String,
        /// Shape the spec demands.
        expected: FilterShape,
        /// Shape the weights carry.
        actual: FilterShape,
    },
    /// FC (n, k) geometry disagrees with the spec's flatten width / output.
    FcGeometry {
        /// Layer name.
        layer: String,
        /// (n, k) the spec demands.
        expected: (usize, usize),
        /// (n, k) the weights carry.
        actual: (usize, usize),
    },
    /// Flat weight vector has the wrong length for its declared geometry.
    WeightLen {
        /// Layer name.
        layer: String,
        /// Element count the geometry demands.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
    /// Batch-norm statistic vectors have the wrong per-channel length.
    BnLen {
        /// Layer name.
        layer: String,
        /// Channel count the geometry demands.
        expected: usize,
        /// Actual statistic length.
        actual: usize,
    },
}

impl fmt::Display for WeightMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightMismatch::LayerCount { spec, weights } => {
                write!(f, "spec has {spec} layers, weights have {weights}")
            }
            WeightMismatch::LayerKind {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer}: spec is a {expected} layer, weights are {actual}"
            ),
            WeightMismatch::FilterShape {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer}: filter shape {actual:?} (spec demands {expected:?})"
            ),
            WeightMismatch::FcGeometry {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer}: fc geometry {actual:?} (spec demands {expected:?})"
            ),
            WeightMismatch::WeightLen {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer}: {actual} weight elements ({expected} expected)"
            ),
            WeightMismatch::BnLen {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer}: batch-norm statistics over {actual} channels ({expected} expected)"
            ),
        }
    }
}

impl std::error::Error for WeightMismatch {}

/// A malformed inference request: the compiled model is fine, the caller's
/// input (or session context) is not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputGeometry {
    /// Input tensor shape differs from the spec's input shape.
    ShapeMismatch {
        /// Shape the model was compiled for.
        expected: Shape,
        /// Shape the caller passed.
        actual: Shape,
    },
    /// Input contains a NaN or infinite value.
    NonFinite {
        /// Index of the first offending element.
        index: usize,
    },
    /// The [`crate::engine::InferenceContext`] was created by a different
    /// model (buffer plan mismatch).
    ContextMismatch {
        /// Slot count of this model's plan.
        expected: usize,
        /// Slot count of the context.
        actual: usize,
    },
}

impl fmt::Display for InputGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputGeometry::ShapeMismatch { expected, actual } => {
                write!(f, "input shape {actual:?} (model expects {expected:?})")
            }
            InputGeometry::NonFinite { index } => {
                write!(f, "input element {index} is NaN or infinite")
            }
            InputGeometry::ContextMismatch { expected, actual } => write!(
                f,
                "inference context has {actual} buffers, model plans {expected} \
                 (context from a different model?)"
            ),
        }
    }
}

impl std::error::Error for InputGeometry {}

/// Why the serving runtime refused to admit a request. Produced by
/// `bitflow-serve`'s `submit`, carried here so the whole request lifecycle
/// resolves to one [`BitFlowError`] value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RejectReason {
    /// The admission queue is at capacity and the shedding policy found no
    /// request it could drop instead.
    QueueFull,
    /// The server is deliberately shedding load (circuit breaker open
    /// after repeated worker faults).
    Shedding,
    /// The server is draining for shutdown and accepts no new work.
    Draining,
    /// The target model's admission quota is exhausted: as many of its
    /// requests are already queued or in flight as its tenancy config
    /// allows.
    QuotaExceeded,
    /// The resource governor's byte budget (global or per-tenant) cannot
    /// cover the request; admitting it would risk an allocator abort.
    MemoryPressure,
}

impl RejectReason {
    /// Stable snake-case label, used as a metric label and error code.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::Shedding => "shedding",
            RejectReason::Draining => "draining",
            RejectReason::QuotaExceeded => "quota",
            RejectReason::MemoryPressure => "memory",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "admission queue full"),
            RejectReason::Shedding => {
                write!(f, "shedding load (circuit breaker open)")
            }
            RejectReason::Draining => write!(f, "server draining"),
            RejectReason::QuotaExceeded => {
                write!(f, "model admission quota exhausted")
            }
            RejectReason::MemoryPressure => {
                write!(f, "memory budget exhausted")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

/// The per-subsystem error sum type the serving path returns end to end.
#[derive(Debug)]
pub enum BitFlowError {
    /// Malformed network spec (shape inference / §III-B selectability).
    Spec(SpecError),
    /// Spec/weights disagreement.
    WeightMismatch(WeightMismatch),
    /// Malformed inference request.
    InputGeometry(InputGeometry),
    /// Corrupt or truncated serialized model.
    ModelCorrupt(crate::model_io::ModelIoError),
    /// Unschedulable kernel geometry outside spec validation.
    UnsupportedKernel(UnsupportedKernel),
    /// Runtime buffer held the wrong kind of data.
    SlotType(SlotTypeError),
    /// The request's deadline passed before inference completed; the run
    /// was abandoned at an operator boundary.
    DeadlineExceeded,
    /// The request's [`crate::cancel::CancelToken`] was cancelled (caller
    /// gone) before inference completed.
    Cancelled,
    /// The serving runtime refused to admit the request.
    Rejected(RejectReason),
    /// A fallible allocation failed: the allocator (or an injected fault)
    /// refused the bytes a large untrusted-size path asked for. An error
    /// value instead of an abort, so one oversized request cannot kill
    /// every tenant at once.
    ResourceExhausted {
        /// What was being allocated (e.g. "model payload",
        /// "inference context").
        what: &'static str,
        /// Bytes the failed reservation asked for.
        bytes: u64,
    },
    /// A panic caught by the batch backstop, converted to a value so one
    /// poisoned request cannot abort a worker.
    Internal(String),
}

impl BitFlowError {
    /// Stable snake-case error code, suitable for wire responses and
    /// metric labels. One code per variant; [`BitFlowError::Rejected`]
    /// refines it with the rejection reason.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            BitFlowError::Spec(_) => "spec",
            BitFlowError::WeightMismatch(_) => "weight_mismatch",
            BitFlowError::InputGeometry(_) => "input_geometry",
            BitFlowError::ModelCorrupt(_) => "model_corrupt",
            BitFlowError::UnsupportedKernel(_) => "unsupported_kernel",
            BitFlowError::SlotType(_) => "slot_type",
            BitFlowError::DeadlineExceeded => "deadline_exceeded",
            BitFlowError::Cancelled => "cancelled",
            BitFlowError::Rejected(RejectReason::QueueFull) => "rejected_queue_full",
            BitFlowError::Rejected(RejectReason::Shedding) => "rejected_shedding",
            BitFlowError::Rejected(RejectReason::Draining) => "rejected_draining",
            BitFlowError::Rejected(RejectReason::QuotaExceeded) => "rejected_quota",
            BitFlowError::Rejected(RejectReason::MemoryPressure) => "rejected_memory",
            BitFlowError::ResourceExhausted { .. } => "resource_exhausted",
            BitFlowError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for BitFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitFlowError::Spec(e) => write!(f, "invalid spec: {e}"),
            BitFlowError::WeightMismatch(e) => write!(f, "spec/weights mismatch: {e}"),
            BitFlowError::InputGeometry(e) => write!(f, "bad inference input: {e}"),
            BitFlowError::ModelCorrupt(e) => write!(f, "corrupt model: {e}"),
            BitFlowError::UnsupportedKernel(e) => write!(f, "unsupported kernel: {e}"),
            BitFlowError::SlotType(e) => write!(f, "slot type error: {e}"),
            BitFlowError::DeadlineExceeded => {
                write!(f, "deadline exceeded before inference completed")
            }
            BitFlowError::Cancelled => write!(f, "request cancelled"),
            BitFlowError::Rejected(reason) => write!(f, "request rejected: {reason}"),
            BitFlowError::ResourceExhausted { what, bytes } => {
                write!(f, "allocation failed: {bytes} bytes for {what}")
            }
            BitFlowError::Internal(msg) => write!(f, "internal inference failure: {msg}"),
        }
    }
}

// Serialized as `{"code": ..., "message": ...}`: the stable machine face
// (code) plus the human rendering, so a serving frontend can return typed
// errors without a parallel error schema.
impl Serialize for BitFlowError {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("code".to_string(), Value::Str(self.code().to_string())),
            ("message".to_string(), Value::Str(self.to_string())),
        ])
    }
}

impl std::error::Error for BitFlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BitFlowError::Spec(e) => Some(e),
            BitFlowError::WeightMismatch(e) => Some(e),
            BitFlowError::InputGeometry(e) => Some(e),
            BitFlowError::ModelCorrupt(e) => Some(e),
            BitFlowError::UnsupportedKernel(e) => Some(e),
            BitFlowError::SlotType(e) => Some(e),
            BitFlowError::Rejected(e) => Some(e),
            BitFlowError::DeadlineExceeded | BitFlowError::Cancelled => None,
            BitFlowError::ResourceExhausted { .. } => None,
            BitFlowError::Internal(_) => None,
        }
    }
}

impl From<RejectReason> for BitFlowError {
    fn from(e: RejectReason) -> Self {
        BitFlowError::Rejected(e)
    }
}

impl From<SpecError> for BitFlowError {
    fn from(e: SpecError) -> Self {
        BitFlowError::Spec(e)
    }
}

impl From<WeightMismatch> for BitFlowError {
    fn from(e: WeightMismatch) -> Self {
        BitFlowError::WeightMismatch(e)
    }
}

impl From<InputGeometry> for BitFlowError {
    fn from(e: InputGeometry) -> Self {
        BitFlowError::InputGeometry(e)
    }
}

impl From<crate::model_io::ModelIoError> for BitFlowError {
    fn from(e: crate::model_io::ModelIoError) -> Self {
        BitFlowError::ModelCorrupt(e)
    }
}

impl From<UnsupportedKernel> for BitFlowError {
    fn from(e: UnsupportedKernel) -> Self {
        BitFlowError::UnsupportedKernel(e)
    }
}

impl From<SlotTypeError> for BitFlowError {
    fn from(e: SlotTypeError) -> Self {
        BitFlowError::SlotType(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = BitFlowError::SlotType(SlotTypeError {
            layer: "conv3.1".into(),
            expected: SlotKind::Bit,
            actual: SlotKind::Vec,
        });
        let msg = e.to_string();
        assert!(msg.contains("conv3.1"), "{msg}");
        assert!(msg.contains("pressed map"), "{msg}");
        assert!(msg.contains("float vector"), "{msg}");
    }

    #[test]
    fn overload_variants_display_and_code() {
        assert_eq!(BitFlowError::DeadlineExceeded.code(), "deadline_exceeded");
        assert!(BitFlowError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert_eq!(BitFlowError::Cancelled.code(), "cancelled");
        assert!(BitFlowError::Cancelled.to_string().contains("cancelled"));
        for (reason, code) in [
            (RejectReason::QueueFull, "rejected_queue_full"),
            (RejectReason::Shedding, "rejected_shedding"),
            (RejectReason::Draining, "rejected_draining"),
            (RejectReason::QuotaExceeded, "rejected_quota"),
            (RejectReason::MemoryPressure, "rejected_memory"),
        ] {
            let e = BitFlowError::Rejected(reason);
            assert_eq!(e.code(), code);
            assert!(e.to_string().contains("rejected"), "{e}");
            assert!(e.to_string().contains(&reason.to_string()), "{e}");
        }
    }

    #[test]
    fn errors_serialize_as_code_and_message() {
        let json = serde_json::to_string(&BitFlowError::Rejected(RejectReason::QueueFull)).unwrap();
        assert!(json.contains("\"code\""), "{json}");
        assert!(json.contains("rejected_queue_full"), "{json}");
        assert!(json.contains("admission queue full"), "{json}");
        let json = serde_json::to_string(&BitFlowError::DeadlineExceeded).unwrap();
        assert!(json.contains("deadline_exceeded"), "{json}");
    }

    #[test]
    fn resource_exhausted_carries_size_context() {
        let e = BitFlowError::ResourceExhausted {
            what: "model payload",
            bytes: 1 << 40,
        };
        assert_eq!(e.code(), "resource_exhausted");
        let msg = e.to_string();
        assert!(msg.contains("model payload"), "{msg}");
        assert!(msg.contains(&(1u64 << 40).to_string()), "{msg}");
    }

    #[test]
    fn source_chain_reaches_kernel_error() {
        use std::error::Error;
        let e = BitFlowError::Spec(SpecError::Kernel {
            layer: "conv1".into(),
            source: UnsupportedKernel::ZeroStride,
        });
        let spec_err = e.source().expect("spec source");
        assert!(spec_err.source().is_some(), "kernel source reachable");
    }
}
