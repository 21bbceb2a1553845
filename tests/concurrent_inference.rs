//! Concurrency integration tests: one `Arc<CompiledModel>` shared across
//! threads, each with its own `InferenceContext`, must reproduce the serial
//! single-context results bit-for-bit — the serving scenario the
//! model/context split exists for.

use bitflow::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn compiled_small_cnn(seed: u64) -> (Arc<CompiledModel>, Vec<Tensor>) {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let inputs: Vec<Tensor> = (0..8)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    (
        Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles")),
        inputs,
    )
}

#[test]
fn arc_model_shared_across_threads_is_bit_identical() {
    let (model, inputs) = compiled_small_cnn(21);

    // Serial reference: every input through one context, in order.
    let mut ctx = model.try_new_context().expect("context allocates");
    let serial: Vec<Vec<f32>> = inputs
        .iter()
        .map(|img| model.try_infer(&mut ctx, img).expect("inference"))
        .collect();

    // 4 threads, each owning a private context, each running the full
    // input set repeatedly against the shared model.
    let results: Vec<Vec<Vec<f32>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let model = Arc::clone(&model);
                let inputs = &inputs;
                s.spawn(move || {
                    let mut ctx = model.try_new_context().expect("context allocates");
                    let mut out = Vec::new();
                    for _ in 0..3 {
                        out.clear();
                        out.extend(
                            inputs
                                .iter()
                                .map(|img| model.try_infer(&mut ctx, img).expect("inference")),
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    for (t, got) in results.iter().enumerate() {
        assert_eq!(got, &serial, "thread {t} diverged from serial reference");
    }
}

#[test]
fn infer_batch_matches_serial_across_pool_sizes() {
    let (model, inputs) = compiled_small_cnn(22);
    let mut ctx = model.try_new_context().expect("context allocates");
    let serial: Vec<Vec<f32>> = inputs
        .iter()
        .map(|img| model.try_infer(&mut ctx, img).expect("inference"))
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let batch: Vec<Vec<f32>> = pool
            .install(|| model.try_infer_batch(&inputs))
            .into_iter()
            .map(|r| r.expect("inference"))
            .collect();
        assert_eq!(batch, serial, "threads={threads}");
    }
}
