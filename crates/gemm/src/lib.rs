//! # bitflow-gemm
//!
//! The **gemm level** of BitFlow's three-level optimization hierarchy
//! (paper §IV).
//!
//! * [`sgemm`] — single-precision GEMM: a naive reference, a
//!   transpose+tile+unroll optimized kernel (the techniques the paper cites
//!   from the sgemm literature: tiling, loop unrolling, B-transposition for
//!   friendly memory access), and a multi-threaded variant. These are the
//!   full-precision *baselines* of every figure.
//! * [`pack`] — binarization/packing for matrices, including the paper's
//!   Table III trick: **fused binarization + bit-packing + implicit
//!   transposition** of the weight matrix in a single pass.
//! * [`bgemm`] — binary GEMM: xor+popcount inner products over packed rows,
//!   vector parallelism along the reduction (N) dimension and multi-core
//!   parallelism along the output (K) dimension, exactly as the paper
//!   assigns them for binary fully-connected operators (§III-C).
//!
//! Matrix convention throughout: row-major; `A` is M×N, `B` is N×K,
//! `C = A·B` is M×K.
#![forbid(unsafe_code)]

pub mod bgemm;
pub mod pack;
pub mod sgemm;

pub use bgemm::{
    bgemm_f32, bgemm_packed, bgemm_packed_parallel, tile_stats, BgemmTileStats, PAR_K_CHUNK,
};
pub use pack::{pack_a_rows, pack_b_fused, pack_b_fused_columnwise, pack_b_staged, PackedMatrix};
pub use sgemm::{sgemm_naive, sgemm_opt, sgemm_parallel};
