//! What the chaos soak (`tests/soak.rs`) stands on: the `small_cnn` models
//! and inputs it serves with serial-oracle logits, a watchdog wait, and the
//! caller-side tally reconciled against a tenant's gauges.

#![allow(dead_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use bitflow::prelude::*;
use bitflow_graph::BitFlowError;
use bitflow_serve::ResponseHandle;
use rand::{rngs::StdRng, SeedableRng};

/// Distinct inputs cycled over the request stream (request `i` sends
/// input `i % DISTINCT_INPUTS`, so each success has a precomputed oracle).
pub const DISTINCT_INPUTS: usize = 16;

/// A `small_cnn` compiled from `seed`, and `DISTINCT_INPUTS` inputs drawn
/// after its weights.
pub fn compiled_small_cnn(seed: u64) -> (Arc<CompiledModel>, Vec<Tensor>) {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let inputs = (0..DISTINCT_INPUTS)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    (Arc::new(model), inputs)
}

/// `model`'s logits for each input on a fresh context, computed before any
/// chaos hook is installed on it.
pub fn serial_oracle(model: &CompiledModel, inputs: &[Tensor]) -> Vec<Vec<f32>> {
    let mut ctx = model.try_new_context().expect("context allocates");
    inputs
        .iter()
        .map(|input| model.try_infer(&mut ctx, input).expect("inference"))
        .collect()
}

/// Waits for a handle with a watchdog: a request that does not resolve
/// within `timeout` is a deadlock, reported as a failure rather than a
/// hung test process.
pub fn wait_with_watchdog(
    handle: &ResponseHandle,
    timeout: Duration,
) -> Result<Vec<f32>, BitFlowError> {
    let start = Instant::now();
    loop {
        if let Some(result) = handle.try_wait() {
            return result;
        }
        assert!(
            start.elapsed() < timeout,
            "request {} did not resolve within {timeout:?}: serving runtime deadlocked",
            handle.id()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Per-request outcomes tallied caller-side, to be reconciled against the
/// server's gauges.
#[derive(Default)]
pub struct Tally {
    pub submitted: u64,
    pub completed: u64,
    /// Injected panics.
    pub failed: u64,
    /// Injected allocation failures: a context the request needed could
    /// not be built.
    pub exhausted: u64,
    /// Shed before running or cut mid-run: the same client error.
    pub deadline: u64,
    pub cancelled: u64,
    pub rejected: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.exhausted += other.exhausted;
        self.deadline += other.deadline;
        self.cancelled += other.cancelled;
        self.rejected += other.rejected;
    }

    /// Books one resolved request, checking a success against its oracle.
    pub fn resolved(
        &mut self,
        i: usize,
        result: Result<Vec<f32>, BitFlowError>,
        oracle: &[Vec<f32>],
    ) {
        match result {
            Ok(logits) => {
                assert_eq!(
                    logits,
                    oracle[i % DISTINCT_INPUTS],
                    "request {i} completed with logits differing from serial inference"
                );
                self.completed += 1;
            }
            Err(BitFlowError::DeadlineExceeded) => self.deadline += 1,
            Err(BitFlowError::Cancelled) => self.cancelled += 1,
            Err(BitFlowError::ResourceExhausted { .. }) => self.exhausted += 1,
            Err(BitFlowError::Internal(msg)) => {
                assert!(
                    msg.contains("chaos"),
                    "request {i}: only injected panics may fail here, got: {msg}"
                );
                self.failed += 1;
            }
            Err(other) => panic!("request {i}: unexpected typed error {other}"),
        }
    }
}
