//! Full-precision baseline operators.
//!
//! These implement the "counterpart full-precision operators" of the
//! paper's evaluation: convolution via the conventional image-to-column
//! method backed by the tiled sgemm of `bitflow-gemm` (paper §II-B,
//! Fig. 2), plus FC, pooling and the pointwise layers a VGG needs.

pub mod activation;
pub mod conv;
pub mod fc;
pub mod pool;

pub use activation::{batch_norm, relu, softmax};
pub use conv::{conv_direct, conv_im2col, conv_im2col_parallel, im2col};
pub use fc::{fc_parallel, fc_pretransposed};
pub use pool::{max_pool, max_pool_parallel};
