//! # bitflow-graph
//!
//! The **network level** of BitFlow's three-level hierarchy (paper §IV):
//! a static-computational-graph inference engine.
//!
//! Network-level optimizations from the paper, all implemented here:
//!
//! * **Weight pre-binarization**: weights are constant during inference, so
//!   binarization + bit-packing (+ the fused transposition of Table III)
//!   happen once in [`engine::CompiledModel::try_compile`], never on the hot
//!   path.
//! * **Memory pre-allocation**: every activation, scratch and output buffer
//!   is sized by static shape inference over the graph and allocated before
//!   inference ([`engine::CompiledModel::try_new_context`]);
//!   [`engine::CompiledModel::run`] allocates nothing but the logits it
//!   returns.
//! * **Zero-cost padding** (paper Fig. 5): each layer's output buffer is
//!   allocated at the *padded* size required by its consumer, pre-zeroed;
//!   producers write only the interior, so the next convolution reads a
//!   padded tensor that nobody ever spent time padding.
//!
//! The same [`spec::NetworkSpec`] compiles to either a **binary** engine
//! (PressedConv / binary FC / binary pool, with batch-norm folded into
//! per-channel sign thresholds) or a **float** engine (im2col conv + sgemm,
//! the "counterpart full-precision network" baseline).
//!
//! [`models`] provides VGG-16 / VGG-19 (paper Table IV geometry) and small
//! test networks.

//! ## Robustness contract
//!
//! The serving path is panic-free end to end: [`spec::NetworkSpec::validate`]
//! → [`engine::CompiledModel::try_compile`] →
//! [`engine::CompiledModel::try_new_context`] →
//! [`engine::CompiledModel::run`] / [`engine::CompiledModel::run_batch`]
//! report every failure as a typed [`error::BitFlowError`]; there are no
//! panicking twins.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod engine;
pub mod error;
pub mod model_io;
pub mod models;
pub mod plan;
pub mod spec;
pub mod weights;

pub use cancel::CancelToken;
pub use engine::{BatchItem, CompiledModel, FaultHook, FloatNetwork, InferenceContext, UNTAGGED};
pub use error::{
    BitFlowError, InputGeometry, RejectReason, SlotKind, SlotTypeError, SpecError, WeightMismatch,
};
pub use model_io::{load_model, save_model, ModelIoError};
pub use models::{small_cnn, vgg16, vgg19};
pub use plan::{MemoryPlan, PlanOptions};
pub use spec::{LayerSpec, NetworkSpec};
pub use weights::{BnParams, LayerWeights, NetworkWeights, DEFAULT_BN_EPS};
