//! # bitflow-train
//!
//! Training substrate for BitFlow's accuracy experiment (paper Table V:
//! full-precision vs binarized VGG on MNIST/CIFAR-10/ImageNet).
//!
//! This reproduction has no GPU cluster and no licensed datasets, so the
//! experiment is scaled down *preserving its structure* (see DESIGN.md §3):
//! identical small architectures are trained twice — full-precision and
//! binarized with the straight-through estimator (STE) of
//! BinaryConnect/BinaryNet — on two synthetic datasets of different
//! difficulty ([`data::glyphs`] ≈ MNIST-easy, [`data::textures`] ≈
//! CIFAR-hard). The binarized model is architected so its inference pass
//! maps *exactly* onto the BitFlow engine (`bitflow-graph`): conv → folded
//! BN+sign → OR-pool, binary FC, all through the same PressedConv/bgemm
//! kernels — and the export test asserts the engine reproduces the trained
//! model's predictions bit-for-bit.
//!
//! ## Training rules (BinaryConnect/BinaryNet)
//!
//! * Forward: weights and activations pass through `sign` (+1 ↦ bit 1).
//! * Backward: `d sign(x)/dx ≈ 1{|x| ≤ 1}` (clipped identity — the STE).
//! * Float "shadow" weights receive the gradients and are clipped to
//!   [−1, 1] after each update.
//! * Batch-norm keeps activations centred so sign retains information.
#![forbid(unsafe_code)]

pub mod data;
pub mod export;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;

pub use data::Dataset;
pub use model::{Model, TrainConfig, TrainReport};
