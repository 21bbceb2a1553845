//! # bitflow
//!
//! Root package of the BitFlow workspace — a full Rust reproduction of
//! *"BitFlow: Exploiting Vector Parallelism for Binary Neural Networks on
//! CPU"* (Hu et al., IPDPS 2018). See README.md for the tour and
//! DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
//!
//! This crate simply re-exports the public API facade
//! ([`bitflow_core`]); the runnable examples live under `examples/` and
//! the cross-crate integration tests under `tests/`.
#![forbid(unsafe_code)]

pub use bitflow_core::*;

/// Convenience re-export of the prelude at the root.
pub use bitflow_core::prelude;
