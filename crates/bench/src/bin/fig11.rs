//! Fig. 11 — VGG end-to-end inference time: BitFlow (binarized VGG on this
//! CPU) vs full-precision VGG on GTX 1080 (calibrated model).
//!
//! The paper reports 12.87 ms (VGG-16) / 14.92 ms (VGG-19) on the GPU and
//! 11.82 / 13.68 ms for BitFlow on the 64-core Xeon Phi. This host has
//! fewer cores; the *shape* to check is that binarized VGG on a CPU lands
//! in the same order of magnitude as a GPU running the float network. Both
//! ends of what this host can do are reported: one thread, and every CPU
//! through the worker team (`ctx.parallel`).

use bitflow_bench::timing::{measure, with_pool};
use bitflow_bench::write_json;
use bitflow_gpumodel::GpuModel;
use bitflow_graph::models::{vgg16, vgg19};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::{BitFlowError, CompiledModel};
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    model: String,
    gpu_model_ms: f64,
    paper_gpu_ms: f64,
    bitflow_ms: f64,
    bitflow_threads: usize,
    bitflow_1_thread_ms: f64,
    per_layer_ms: Vec<(String, f64)>,
}

fn main() -> Result<(), BitFlowError> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "Fig. 11 reproduction — VGG end-to-end, BitFlow ({threads} threads) vs GTX 1080 model"
    );
    let gpu = GpuModel::gtx1080();
    let mut rows = Vec::new();
    println!(
        "{:<7} {:>16} {:>12} {:>12} {:>12}",
        "model",
        "GTX1080(model)",
        "paper GPU",
        "BitFlow 1t",
        format!("BitFlow {threads}t")
    );
    for (spec, paper_gpu_ms) in [(vgg16(), 12.87f64), (vgg19(), 14.92f64)] {
        let mut rng = StdRng::seed_from_u64(7);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = CompiledModel::try_compile(&spec, &weights)?;
        let mut ctx = model.try_new_context()?;
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let mut time = |parallel: bool| {
            ctx.parallel = parallel;
            measure(
                || {
                    std::hint::black_box(model.try_infer(&mut ctx, &input).expect("inference"));
                },
                Duration::from_secs(2),
                3,
                30,
            )
        };
        let t1 = time(false);
        let t = with_pool(threads, || time(threads > 1));
        let (_, layer_times) = with_pool(threads, || model.try_infer_profiled(&mut ctx, &input))?;
        let tg = gpu.network_time(&spec).as_secs_f64() * 1e3;
        let (tb1, tb) = (t1.as_secs_f64() * 1e3, t.as_secs_f64() * 1e3);
        println!(
            "{:<7} {:>14.2}ms {:>10.2}ms {:>10.2}ms {:>10.2}ms",
            spec.name, tg, paper_gpu_ms, tb1, tb
        );
        rows.push(Row {
            model: spec.name.clone(),
            gpu_model_ms: tg,
            paper_gpu_ms,
            bitflow_ms: tb,
            bitflow_threads: threads,
            bitflow_1_thread_ms: tb1,
            per_layer_ms: layer_times
                .iter()
                .map(|(n, d)| (n.clone(), d.as_secs_f64() * 1e3))
                .collect(),
        });
    }
    write_json("fig11", &rows);
    Ok(())
}
