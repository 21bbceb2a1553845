//! `bitflow` — command-line front end for the BitFlow engine.
//!
//! ```text
//! bitflow info                          host SIMD + scheduler mapping
//! bitflow models                        built-in model specs
//! bitflow plan <model>                  static memory plan for a model
//! bitflow bench <model> [threads]       end-to-end inference timing
//! bitflow train [epochs] [out.btfm]     train a small BNN, report accuracy,
//!                                       optionally save the model
//! bitflow classify <model.btfm>         load a saved model and evaluate it
//!                                       on a fresh synthetic test set
//! ```

use bitflow::prelude::*;
use bitflow_graph::model_io::{load_model, save_model};
use bitflow_graph::plan::MemoryPlan;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn model_by_name(name: &str) -> Option<NetworkSpec> {
    match name {
        "vgg16" => Some(vgg16()),
        "vgg19" => Some(vgg19()),
        "small" | "small_cnn" => Some(small_cnn()),
        "tiered" | "tiered_cnn" => Some(tiered_cnn()),
        _ => None,
    }
}

fn cmd_info() {
    println!("BitFlow host report");
    println!("  SIMD features : {}", features());
    println!(
        "  hardware threads: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let s = VectorScheduler::new();
    println!("  scheduler mapping (channel width -> kernel):");
    for c in [3usize, 32, 64, 128, 192, 256, 384, 512, 1024] {
        let k = s.select(c);
        println!(
            "    C={c:<5} -> {:<12} ({} words/pixel{})",
            k.level.to_string(),
            k.c_words,
            if k.padded { ", padded" } else { "" }
        );
    }
}

fn cmd_models() {
    for name in ["vgg16", "vgg19", "small_cnn", "tiered_cnn"] {
        let spec = model_by_name(name).unwrap();
        let convs = spec
            .layers
            .iter()
            .filter(|l| matches!(l, LayerSpec::Conv { .. }))
            .count();
        let fcs = spec
            .layers
            .iter()
            .filter(|l| matches!(l, LayerSpec::Fc { .. }))
            .count();
        println!(
            "{:<11} input {:<14} {:>2} conv, {:>2} fc, {:>2} layers total",
            name,
            spec.input.to_string(),
            convs,
            fcs,
            spec.layers.len()
        );
    }
}

fn cmd_plan(name: &str) {
    let Some(spec) = model_by_name(name) else {
        eprintln!("unknown model '{name}' (try: vgg16, vgg19, small_cnn, tiered_cnn)");
        std::process::exit(2);
    };
    let plan = MemoryPlan::for_binary(&spec);
    println!("memory plan for {} (binary engine):", spec.name);
    println!(
        "{:<12} {:<12} {:>14} {:>12}",
        "producer", "kind", "logical elems", "bytes"
    );
    for b in &plan.buffers {
        println!(
            "{:<12} {:<12} {:>14} {:>12}",
            b.producer,
            format!("{:?}", b.kind),
            b.logical_elems,
            b.bytes
        );
    }
    println!(
        "\ntotal pre-allocated: {:.2} MB (float-equivalent activations: {:.2} MB)",
        plan.total_bytes() as f64 / 1048576.0,
        plan.float_equivalent_bytes() as f64 / 1048576.0
    );
}

/// Unwraps an engine result, or reports the typed error and exits 2 like
/// every other bad-input path of this tool.
fn or_exit<T>(result: Result<T, BitFlowError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn cmd_bench(name: &str, threads: usize) {
    let Some(spec) = model_by_name(name) else {
        eprintln!("unknown model '{name}'");
        std::process::exit(2);
    };
    println!("benchmarking {} at {} thread(s)…", spec.name, threads);
    let mut rng = StdRng::seed_from_u64(0);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = or_exit(CompiledModel::try_compile(&spec, &weights));
    let mut ctx = or_exit(model.try_new_context());
    ctx.parallel = threads > 1;
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        or_exit(model.try_infer(&mut ctx, &input)); // warm-up
        let mut best = f64::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            or_exit(model.try_infer(&mut ctx, &input));
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!("end-to-end: {:.3} ms (best of 5)", best * 1e3);
    });
}

fn cmd_train(epochs: usize, save_path: Option<&str>) {
    use bitflow_train::data::{glyphs, SIDE};
    use bitflow_train::export::export;
    use bitflow_train::layers::Mode;
    use bitflow_train::model::{Model, TrainConfig};
    let train = glyphs(1000, 0.2, 1);
    let test = glyphs(300, 0.2, 2);
    println!("training binarized conv-net on glyphs for {epochs} epochs…");
    let mut rng = StdRng::seed_from_u64(3);
    let mut model = Model::conv_net(SIDE, 1, &[16], 10, Mode::Binary, &mut rng);
    let report = model.fit(
        &train,
        &TrainConfig {
            epochs,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    println!(
        "loss {:.3} -> {:.3}; test accuracy {:.1}%",
        report.loss_history.first().unwrap_or(&0.0),
        report.loss_history.last().unwrap_or(&0.0),
        model.evaluate(&test) * 100.0
    );
    if let Some(path) = save_path {
        let (spec, weights) = export(&model);
        save_model(path, &spec, &weights).expect("save model");
        println!("saved to {path}");
    }
}

fn cmd_classify(path: &str) {
    use bitflow_train::data::glyphs;
    let (spec, weights) = match load_model(path) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(2);
        }
    };
    println!("loaded {} ({} layers)", spec.name, spec.layers.len());
    let model = or_exit(CompiledModel::try_compile(&spec, &weights));
    let mut ctx = or_exit(model.try_new_context());
    let test = glyphs(300, 0.2, 99);
    let mut correct = 0usize;
    for i in 0..test.len() {
        let img = Tensor::from_vec(test.image(i).to_vec(), spec.input, Layout::Nhwc);
        let logits = or_exit(model.try_infer(&mut ctx, &img));
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        if pred == test.labels[i] {
            correct += 1;
        }
    }
    println!(
        "accuracy on a fresh synthetic test set: {:.1}%",
        correct as f64 / test.len() as f64 * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads_default = std::thread::available_parallelism().map_or(1, |n| n.get());
    match args.first().map(String::as_str) {
        Some("info") => cmd_info(),
        Some("models") => cmd_models(),
        Some("plan") => cmd_plan(args.get(1).map(String::as_str).unwrap_or("vgg16")),
        Some("bench") => cmd_bench(
            args.get(1).map(String::as_str).unwrap_or("vgg16"),
            args.get(2)
                .and_then(|t| t.parse().ok())
                .unwrap_or(threads_default),
        ),
        Some("train") => cmd_train(
            args.get(1).and_then(|e| e.parse().ok()).unwrap_or(10),
            args.get(2).map(String::as_str),
        ),
        Some("classify") => match args.get(1) {
            Some(p) => cmd_classify(p),
            None => {
                eprintln!("usage: bitflow classify <model.btfm>");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: bitflow <info|models|plan|bench|train|classify> [...]");
            eprintln!("see `src/bin/bitflow.rs` docs for details");
            std::process::exit(2);
        }
    }
}
