//! Binary operators — the paper's contribution.
//!
//! * [`pressed_conv`] — PressedConv (paper §III-B, Algorithm 1).
//! * [`im2col_conv`] — binary convolution via the conventional
//!   image-to-column route (paper §III-A), kept as the algorithmic
//!   baseline whose low arithmetic intensity PressedConv fixes. Run at
//!   [`bitflow_simd::kernels::SimdLevel::Scalar`] this doubles as the
//!   paper's "unoptimized BNN implementation".
//! * [`fc`] — binary fully-connected over `bitflow-gemm`'s bgemm.
//! * [`pool`] — binary max-pool: OR over pressed words (§III-C).
//! * [`binarize`] — fused sign+pack operators and batch-norm folding.
//! * [`epilogue`] — integer-threshold conv epilogues: the folded BN+sign
//!   moved into the popcount domain so convs never materialize a float
//!   map.
//!
//! ## Padding semantics
//!
//! Zero-cost padding stores all-zero words in the margin. In the bit
//! encoding (+1 ↦ 1, −1 ↦ 0) an all-zero pixel *is* the all-(−1) pixel:
//! binary convolution pads with **−1**, not with the float 0 (which does
//! not exist in the {−1,+1} domain). This matches standard BNN practice
//! and training in `bitflow-train` uses the same convention, so training
//! and inference agree. Float-vs-binary equivalence tests pad the float
//! reference input with −1.0 explicitly.

pub mod binarize;
pub mod epilogue;
pub mod fc;
pub mod im2col_conv;
pub mod pool;
pub mod pressed_conv;

pub use binarize::{
    binarize_pack, binarize_pack_into, binarize_pack_padded, binarize_threshold_into,
    binarize_threshold_padded, binarize_windows_into, fold_bn_into_thresholds, BnFold, WindowPress,
};
pub use epilogue::{pack_signed_dots_into, PopCmp, SignThresholds};
pub use fc::{binary_fc, binary_fc_parallel, BinaryFcWeights};
pub use im2col_conv::binary_conv_im2col;
pub use pool::{binary_max_pool, binary_max_pool_into, binary_max_pool_parallel};
pub use pressed_conv::{
    pressed_conv, pressed_conv_into, pressed_conv_sign_into, pressed_conv_sign_scratch_into,
};
