//! The repo benchmark (see `README.md` and the root `BENCHMARK.json`).
//!
//! The binary is `src/main.rs`; everything else is a library so the
//! self-tests in `tests/` can drive the arithmetic, the open-loop scheduler
//! and the contract tables without starting the system under test.

pub mod check;
pub mod compare;
pub mod contract;
pub mod fingerprint;
pub mod httpclient;
pub mod ledger;
pub mod openloop;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sut;
pub mod workloads;
