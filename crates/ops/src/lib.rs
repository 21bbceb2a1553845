//! # bitflow-ops
//!
//! The **operator level** of BitFlow's three-level hierarchy (paper §III).
//!
//! Two operator families over the `bitflow-tensor` types:
//!
//! * [`float`] — full-precision baseline operators: direct and
//!   image-to-column (im2col + sgemm) convolution, fully-connected,
//!   max-pool, ReLU, batch-norm, softmax. These are the "counterpart
//!   full-precision operators" every figure normalizes against.
//! * [`binary`] — the paper's contribution: **PressedConv** (§III-B,
//!   Algorithm 1), binary fully-connected (bgemm), binary max-pool
//!   (bitwise OR over pressed words), fused binarize+pack operators, and
//!   the image-to-column *binary* convolution whose poor arithmetic
//!   intensity motivates PressedConv (§III-A) — with a scalar variant
//!   serving as the paper's "unoptimized BNN implementation" baseline.
//!
//! Operators are plain functions over tensors: stateless, allocation-free
//! where an output buffer is supplied, deterministic across thread counts.
//! Layer objects with parameter state live one level up in `bitflow-graph`.
#![forbid(unsafe_code)]

pub mod ait;
pub mod binary;
pub mod float;
pub mod params;

pub use bitflow_simd::kernels::SimdLevel;
pub use params::ConvParams;
