//! Binary operators — the paper's contribution.
//!
//! * [`pressed_conv`] — PressedConv (paper §III-B, Algorithm 1), fused
//!   with the next layer's batch-norm + sign: pressed bits in, pressed bits
//!   out. The engine's only conv.
//! * [`im2col_conv`] — binary convolution via the conventional
//!   image-to-column route (paper §III-A), kept as the algorithmic
//!   baseline whose low arithmetic intensity PressedConv fixes. Run at
//!   [`bitflow_simd::kernels::SimdLevel::Scalar`] this doubles as the
//!   paper's "unoptimized BNN implementation".
//! * [`fc`] — binary fully-connected: pre-packed weight rows, a pressed
//!   input vector, K binary dot products (serial or over the worker team).
//! * [`pool`] — binary max-pool: OR over pressed words (§III-C).
//! * [`binarize`] — the press of the network's float input, and batch-norm
//!   folding.
//! * [`epilogue`] — integer-threshold epilogues: the folded BN+sign moved
//!   into the popcount domain, so no operator materializes a float map
//!   between layers.
//!
//! ## Padding semantics
//!
//! Zero-cost padding stores all-zero words in the margin. In the bit
//! encoding (+1 ↦ 1, −1 ↦ 0) an all-zero pixel *is* the all-(−1) pixel:
//! binary convolution pads with **−1**, not with the float 0 (which does
//! not exist in the {−1,+1} domain). This matches standard BNN practice
//! and training in `bitflow-train` uses the same convention, so training
//! and inference agree. Float references in the tests pad their input with
//! −1.0 explicitly.

pub mod binarize;
pub mod epilogue;
pub mod fc;
pub mod im2col_conv;
pub mod pool;
pub mod pressed_conv;

pub use binarize::{
    binarize_pack_into, binarize_windows_into, fold_bn_into_thresholds, BnFold, WindowPress,
};
pub use epilogue::{pack_signed_dots_into, PopCmp, SignThresholds};
pub use fc::BinaryFcWeights;
pub use im2col_conv::binary_conv_im2col;
pub use pool::{binary_max_pool, binary_max_pool_into, binary_max_pool_parallel};
pub use pressed_conv::{
    amx_operands, conv_geometry, pressed_conv_sign_into, pressed_conv_sign_scratch_into,
};
