//! Serving throughput: images/sec vs thread count for one shared
//! `CompiledModel` driving a batch through `infer_batch`.
//!
//! This is the serving scenario the model/context split exists for: the
//! packed weights are compiled once, then N worker threads each binarize
//! and run their own slice of the batch with a private `InferenceContext`.
//! Before timing, the batch output is checked bit-for-bit against the
//! serial single-context reference.
//!
//! `--quick` / `BITFLOW_QUICK=1` switches from VGG-16 to the small CNN for
//! smoke runs.

use bitflow_bench::timing::{measure, with_pool};
use bitflow_bench::{quick_mode, write_json};
use bitflow_graph::models::{small_cnn, vgg16};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::CompiledModel;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    model: String,
    threads: usize,
    batch: usize,
    images_per_sec: f64,
    ms_per_image: f64,
    scaling_vs_1: f64,
}

fn thread_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1usize];
    while counts.last().copied().unwrap_or(1) * 2 <= max {
        counts.push(counts.last().unwrap() * 2);
    }
    if counts.last().copied() != Some(max) {
        counts.push(max);
    }
    counts
}

fn main() {
    let quick = quick_mode();
    let spec = if quick { small_cnn() } else { vgg16() };
    let max_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "Serving throughput — {} batches over one shared CompiledModel, 1..{max_threads} threads",
        spec.name
    );

    let mut rng = StdRng::seed_from_u64(17);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    let batch = if quick {
        2 * max_threads
    } else {
        4 * max_threads
    };
    let inputs: Vec<Tensor> = (0..batch)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();

    // Bit-identity gate before any timing: the fan-out must reproduce the
    // serial single-context results exactly.
    let mut ctx = model.try_new_context().expect("context allocates");
    let serial: Vec<Vec<f32>> = inputs
        .iter()
        .map(|img| model.try_infer(&mut ctx, img).expect("inference"))
        .collect();
    let fanned: Vec<Vec<f32>> = with_pool(max_threads.min(4), || model.try_infer_batch(&inputs))
        .into_iter()
        .map(|r| r.expect("batch inference"))
        .collect();
    assert_eq!(
        fanned, serial,
        "try_infer_batch diverged from serial inference"
    );
    eprintln!("[bit-identity check passed: batch == serial]");

    let budget = if quick {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    };
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<8} {:>8} {:>8} {:>12} {:>12} {:>10}",
        "model", "threads", "batch", "img/s", "ms/img", "scaling"
    );
    for threads in thread_counts(max_threads) {
        let t = with_pool(threads, || {
            measure(
                || {
                    std::hint::black_box(model.try_infer_batch(&inputs));
                },
                budget,
                2,
                20,
            )
        });
        let secs = t.as_secs_f64();
        let ips = batch as f64 / secs;
        let base = rows.first().map_or(ips, |r: &Row| r.images_per_sec);
        let row = Row {
            model: spec.name.clone(),
            threads,
            batch,
            images_per_sec: ips,
            ms_per_image: secs * 1e3 / batch as f64,
            scaling_vs_1: ips / base,
        };
        println!(
            "{:<8} {:>8} {:>8} {:>12.1} {:>12.3} {:>9.2}x",
            row.model,
            row.threads,
            row.batch,
            row.images_per_sec,
            row.ms_per_image,
            row.scaling_vs_1
        );
        rows.push(row);
    }
    write_json("throughput", &rows);

    // Post-sweep telemetry snapshot: enabling telemetry only now keeps the
    // timed rows above on the zero-overhead path, then one more batch
    // populates the per-operator histograms and queue gauges.
    model.enable_telemetry();
    for r in model.try_infer_batch(&inputs) {
        r.expect("telemetry batch inference");
    }
    let snapshot = model.metrics_snapshot().expect("telemetry enabled above");
    if let Some(hot) = snapshot.hottest_op() {
        eprintln!(
            "[telemetry] hottest operator: {} (p95 {:.1} µs over {} calls)",
            hot.name,
            hot.p95_ns as f64 / 1e3,
            hot.calls
        );
    }
    write_json("throughput_telemetry", &snapshot);
}
