//! Binarized VGG-16 end-to-end inference — the paper's flagship scenario
//! (Fig. 11): latency-oriented (batch 1) classification on CPU, compared
//! against the calibrated GTX 1080 full-precision comparator.
//!
//! ```sh
//! cargo run --release --example vgg_inference          # VGG-16
//! cargo run --release --example vgg_inference -- vgg19 # VGG-19
//! ```

use bitflow::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn main() -> Result<(), BitFlowError> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "vgg16".into());
    let spec = match which.as_str() {
        "vgg19" => vgg19(),
        _ => vgg16(),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "model: {} | input {} | host threads: {threads}",
        spec.name, spec.input
    );

    let mut rng = StdRng::seed_from_u64(7);
    println!("generating random weights (inference speed is weight-independent)…");
    let weights = NetworkWeights::random(&spec, &mut rng);
    println!(
        "model size: {:.1} MB float -> {:.1} MB packed",
        weights.float_bytes() as f64 / 1048576.0,
        weights.packed_bytes() as f64 / 1048576.0
    );

    let t0 = Instant::now();
    let model = CompiledModel::try_compile(&spec, &weights)?;
    let mut ctx = model.try_new_context()?;
    let compile_s = t0.elapsed().as_secs_f64();
    ctx.parallel = threads > 1;
    println!(
        "compile (binarize+pack weights, fold BN, pre-allocate {:.1} MB activations): {:.0} ms, {:.1} GB/s of float weights",
        ctx.activation_bytes() as f64 / 1048576.0,
        compile_s * 1e3,
        weights.float_bytes() as f64 / compile_s / 1e9
    );

    let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    // Warm-up, then a few timed runs.
    let _ = model.try_infer(&mut ctx, &image)?;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let _ = model.try_infer(&mut ctx, &image)?;
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!("\nBitFlow end-to-end: {:.2} ms (best of 5)", best * 1e3);

    let gpu = GpuModel::gtx1080().network_time(&spec).as_secs_f64();
    println!(
        "GTX 1080 full-precision (calibrated model): {:.2} ms",
        gpu * 1e3
    );
    println!(
        "paper reference (64-core Xeon Phi vs GTX 1080): {} ",
        if spec.name == "VGG16" {
            "11.82 ms vs 12.87 ms"
        } else {
            "13.68 ms vs 14.92 ms"
        }
    );

    let (_, times) = model.try_infer_profiled(&mut ctx, &image)?;
    println!("\nslowest layers:");
    let mut sorted: Vec<_> = times.iter().collect();
    sorted.sort_by_key(|e| std::cmp::Reverse(e.1));
    for (name, t) in sorted.iter().take(8) {
        println!("  {name:<16} {:>9.2} ms", t.as_secs_f64() * 1e3);
    }
    Ok(())
}
