//! # bitflow-bench
//!
//! Benchmark harness for the BitFlow reproduction. One report regenerates
//! the paper's evaluation — Tables I–V, Figs. 7–11 and the §III-A AIT
//! analysis — with the paper's value beside ours on every row
//! ([`report`]): `cargo run --release -p bitflow-bench --bin paper [--
//! --quick]` prints one table and writes `paper.json` under `results/`
//! (override the directory with `BITFLOW_RESULTS_DIR`).
//!
//! `cargo bench -p bitflow-bench --bench ablation` times the design choices
//! beyond the paper's figures (EXPERIMENTS.md, "Ablations").
//!
//! End-to-end and per-layer regressions are the repo benchmark's to catch
//! (`benchmark/`, `scripts/pairs.sh`), not this crate's.
//!
//! Measurement conventions (documented deviations in EXPERIMENTS.md):
//!
//! * Per-operator binary measurements time the *kernel* with pre-packed
//!   weights (packing is a network-initialization cost in BitFlow) and,
//!   for convolution, pre-packed inputs (inter-layer activations stay
//!   packed inside a BNN; the binarize+pack of the previous layer's output
//!   is fused there). A conv is the engine's call: sign bits into a padded
//!   map allocated once, on the body the engine would pick
//!   (`workloads::ConvOperands`). Binary FC timings include input packing —
//!   its input arrives flattened from pooling in VGG.
//! * The float baseline is the optimized im2col+sgemm path with weight
//!   transposition hoisted, i.e. a fair production-style float operator.
//! * Multi-thread runs install a sized thread-count scope per measurement
//!   (`timing::with_pool`); the threads are `bitflow_simd::team`'s.
#![forbid(unsafe_code)]

pub mod report;
pub mod runners;
pub mod timing;
pub mod workloads;

/// True when `--quick` is on the command line: the one trigger of the
/// `paper` bin's and the `ablation` bench's shrunk smoke runs (each says
/// what it shrinks).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
