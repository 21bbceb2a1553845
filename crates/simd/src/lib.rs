//! # bitflow-simd
//!
//! SIMD kernel substrate for BitFlow (IPDPS 2018 reproduction).
//!
//! This crate owns everything that touches `std::arch`:
//!
//! * [`amx`] — the conv core's second body: the AMX int8 tile loop that
//!   [`conv::conv_rows`] runs for qualifying sign calls on hosts with the
//!   matrix unit, bits in and bits out.
//! * [`detect`] — the **hardware detector** of the paper's vector execution
//!   scheduler (§III-B): runtime discovery of SSE/AVX2/AVX-512 (+VPOPCNTDQ).
//! * [`kernels`] — xor+popcount inner kernels at every vector width
//!   (scalar `u64`, 128-bit SSE, 256-bit AVX2, 512-bit AVX-512), plus
//!   OR-reduction kernels for binary max-pooling.
//! * [`pack`] — the **press**: the one fused binarize + bit-pack kernel
//!   family behind every float→bit conversion, in a unit-stride row form
//!   and the transposed form of paper Table III.
//! * [`scheduler`] — the **vector execution scheduler**: given the channel
//!   width of an operator and the detected hardware, select the optimal
//!   computing kernel using the paper's rules (C ≡ 0 mod 512 → AVX-512,
//!   mod 256 → AVX2, mod 128 → SSE, mod 32/64 → scalar words, else pad).
//! * [`team`] — the parked **worker team** behind every multi-core call
//!   (paper Algorithm 1, step 3): fixed chunks, claimed by whichever core
//!   is free.
//! * [`vec_u`] — Rust counterparts of the paper's `m128_u`/`m256_u`/`m512_u`
//!   unions (Table II).
//! * [`popcount`] — portable and SIMD population-count building blocks,
//!   including the AVX2 nibble-lookup (Muła) algorithm used where the
//!   AVX-512 `VPOPCNTDQ` instruction of paper Table I is unavailable.
//!
//! All kernels operate on plain `&[u64]` slices so the crate has no
//! dependency on the tensor layer; correctness contracts (press-tail zeros,
//! equal lengths) are asserted at the boundary.
//!
//! ## The core identity
//!
//! For two {−1,+1} vectors encoded as bits (+1 ↦ 1), packed into words
//! `a[i]`, `b[i]` with `n_logical` meaningful bits and zero press-tails in
//! *both* operands (paper Eq. 1):
//!
//! ```text
//! dot(a, b) = n_logical − 2 · Σᵢ popcount(a[i] ⊕ b[i])
//! ```
//!
//! Pad bits are 0 in both operands, xor to 0, and contribute nothing to the
//! popcount, so the identity holds with no correction term.

pub mod amx;
pub mod conv;
pub mod detect;
pub mod kernels;
pub mod pack;
pub mod popcount;
pub mod scheduler;
pub mod team;
pub mod vec_u;

pub use detect::{features, machine, FreqSource, HwFeatures, MachineInfo};
pub use kernels::{binary_dot, or_accumulate, xor_popcount};
pub use scheduler::{KernelChoice, UnsupportedKernel, VectorScheduler};
