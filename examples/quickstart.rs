//! Quickstart: build a small binarized CNN, compile it into the BitFlow
//! engine, and classify a random image.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bitflow::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() -> Result<(), BitFlowError> {
    // 1. Hardware: what did the vector execution scheduler find?
    println!("SIMD features detected: {}", features());
    let scheduler = VectorScheduler::new();
    for c in [3usize, 64, 128, 256, 512] {
        let k = scheduler.select(c);
        println!("  channels {c:>3} -> kernel {}", k.level);
    }

    // 2. Define a network (conv -> pool -> fc chain, like a tiny VGG).
    let spec = small_cnn();
    println!("\nmodel: {} / input {}", spec.name, spec.input);

    // 3. Weights: random here; `bitflow-train` produces real ones.
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random(&spec, &mut rng);
    println!(
        "weights: {:.1} KiB float -> {:.1} KiB packed ({}x smaller)",
        weights.float_bytes() as f64 / 1024.0,
        weights.packed_bytes() as f64 / 1024.0,
        weights.float_bytes() / weights.packed_bytes().max(1)
    );

    // 4. Compile: binarize+pack weights, fold batch-norm into sign
    //    thresholds, plan every buffer (zero-cost padding baked in). The
    //    model is immutable and shareable; a context is one session's
    //    pre-allocated buffers.
    let model = CompiledModel::try_compile(&spec, &weights)?;
    let mut ctx = model.try_new_context()?;
    println!(
        "engine compiled: {:.1} KiB activation memory pre-allocated",
        ctx.activation_bytes() as f64 / 1024.0
    );

    // 5. Infer — allocation-free, xor+popcount all the way down. A
    //    `BatchItem` is the request: the input plus, optionally, a cancel
    //    token, a chaos tag and a trace.
    let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let logits = model.run(&mut ctx, &BatchItem::new(&image))?;
    let best = logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!("\nlogits: {logits:?}");
    println!("predicted class: {} (score {})", best.0, best.1);

    // 6. Per-layer profile.
    let (_, times) = model.try_infer_profiled(&mut ctx, &image)?;
    println!("\nper-layer time:");
    for (name, t) in times {
        println!("  {name:<16} {:>8.1} µs", t.as_secs_f64() * 1e6);
    }
    Ok(())
}
