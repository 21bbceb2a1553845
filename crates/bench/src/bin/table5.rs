//! Table V — accuracy and model size: full-precision vs binarized.
//!
//! Scaled-down substitute (DESIGN.md §3): identical architectures trained
//! float vs binary (STE) on two synthetic datasets of different difficulty,
//! with the binary model evaluated **through the BitFlow engine** (exported
//! weights, PressedConv/bgemm kernels). Model size is reported for the real
//! VGG-16: float weights vs BitFlow's packed weights.

use bitflow_bench::write_json;
use bitflow_graph::models::vgg16;
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::{CompiledModel, NetworkSpec};
use bitflow_tensor::{Layout, Tensor};
use bitflow_train::data::{glyphs, textures, Dataset, SIDE};
use bitflow_train::export::export;
use bitflow_train::layers::Mode;
use bitflow_train::model::{Model, TrainConfig};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;

#[derive(Serialize)]
struct AccuracyRow {
    dataset: String,
    float_acc: f32,
    binary_acc: f32,
    binary_engine_acc: f32,
    gap_points: f32,
}

#[derive(Serialize)]
struct Results {
    accuracy: Vec<AccuracyRow>,
    vgg16_float_mb: f64,
    vgg16_packed_mb: f64,
    compression: f64,
}

fn engine_accuracy(spec: &NetworkSpec, weights: &NetworkWeights, data: &Dataset) -> f32 {
    let model = CompiledModel::try_compile(spec, weights).expect("exported model compiles");
    let mut ctx = model.try_new_context().expect("context allocates");
    let mut correct = 0usize;
    for i in 0..data.len() {
        let img = Tensor::from_vec(data.image(i).to_vec(), spec.input, Layout::Nhwc);
        let logits = model.try_infer(&mut ctx, &img).expect("inference");
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        if pred == data.labels[i] {
            correct += 1;
        }
    }
    correct as f32 / data.len() as f32
}

/// Trains float and binary models on `reps` independent seed-pairs and
/// averages the accuracies (single training runs of small models are noisy;
/// the paper's VGG runs are effectively averaged by scale).
fn run_dataset(
    name: &str,
    make: impl Fn(u64) -> (Dataset, Dataset),
    epochs: usize,
    reps: u64,
) -> AccuracyRow {
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let (mut float_sum, mut bin_sum, mut eng_sum) = (0.0f32, 0.0f32, 0.0f32);
    for rep in 0..reps {
        let (train, test) = make(rep);
        eprintln!("[{name}] rep {}/{}: training float model…", rep + 1, reps);
        let mut rng = StdRng::seed_from_u64(100 + rep);
        let mut float_model = Model::conv_net(SIDE, 1, &[16], 10, Mode::Float, &mut rng);
        let _ = float_model.fit(&train, &cfg);
        float_sum += float_model.evaluate(&test);

        eprintln!("[{name}] rep {}/{}: training binary model…", rep + 1, reps);
        let mut rng = StdRng::seed_from_u64(200 + rep);
        let mut bin_model = Model::conv_net(SIDE, 1, &[16], 10, Mode::Binary, &mut rng);
        let _ = bin_model.fit(&train, &cfg);
        let bin_acc = bin_model.evaluate(&test);
        bin_sum += bin_acc;

        let (spec, weights) = export(&bin_model);
        let eng_acc = engine_accuracy(&spec, &weights, &test);
        assert_eq!(bin_acc, eng_acc, "engine must reproduce the trained model");
        eng_sum += eng_acc;
    }
    let n = reps as f32;
    AccuracyRow {
        dataset: name.to_string(),
        float_acc: float_sum / n,
        binary_acc: bin_sum / n,
        binary_engine_acc: eng_sum / n,
        gap_points: (float_sum - bin_sum) / n * 100.0,
    }
}

fn main() {
    println!("Table V reproduction — accuracy & model size, float vs binarized\n");
    // Three difficulty rungs mirroring the paper's MNIST / CIFAR-10 /
    // ImageNet columns — the noise level controls how much the *input
    // binarization* destroys (float models keep amplitude information) —
    // plus a structurally different texture dataset. The gap should widen
    // monotonically across the rungs, as in the paper's 1.2 → 4.7 → 11.6
    // points. Each row averages `REPS` independent seed-pairs.
    const REPS: u64 = 2;
    let rows = vec![
        run_dataset(
            "glyphs n=0.45 (MNIST analog)",
            |rep| {
                (
                    glyphs(2000, 0.45, 1 + 10 * rep),
                    glyphs(500, 0.45, 2 + 10 * rep),
                )
            },
            12,
            REPS,
        ),
        run_dataset(
            "glyphs n=0.60 (CIFAR analog)",
            |rep| {
                (
                    glyphs(2000, 0.6, 3 + 10 * rep),
                    glyphs(500, 0.6, 4 + 10 * rep),
                )
            },
            12,
            REPS,
        ),
        run_dataset(
            "glyphs n=0.70 (ImageNet analog)",
            |rep| {
                (
                    glyphs(2000, 0.7, 5 + 10 * rep),
                    glyphs(500, 0.7, 6 + 10 * rep),
                )
            },
            12,
            REPS,
        ),
        run_dataset(
            "block textures (alt. dataset)",
            |rep| {
                (
                    textures(2000, 0.33, 0.47, 3000 + 1000 * rep),
                    textures(500, 0.33, 0.47, 3001 + 1000 * rep),
                )
            },
            12,
            REPS,
        ),
    ];
    println!(
        "\n{:<32} {:>10} {:>10} {:>14} {:>10}",
        "dataset", "float", "binary", "binary(engine)", "gap(pts)"
    );
    for r in &rows {
        println!(
            "{:<32} {:>9.1}% {:>9.1}% {:>13.1}% {:>10.1}",
            r.dataset,
            r.float_acc * 100.0,
            r.binary_acc * 100.0,
            r.binary_engine_acc * 100.0,
            r.gap_points
        );
    }

    // Model size: the real VGG-16 (paper: ~528 MB float, ~16.5 MB binary).
    let spec = vgg16();
    let mut rng = StdRng::seed_from_u64(0);
    let w = NetworkWeights::random(&spec, &mut rng);
    let float_mb = w.float_bytes() as f64 / (1024.0 * 1024.0);
    let packed_mb = w.packed_bytes() as f64 / (1024.0 * 1024.0);
    println!("\nVGG-16 model size: float {:.1} MB -> packed {:.1} MB ({:.1}x compression; paper: 528 MB -> 16.5 MB)",
        float_mb, packed_mb, float_mb / packed_mb);

    write_json(
        "table5",
        &Results {
            accuracy: rows,
            vgg16_float_mb: float_mb,
            vgg16_packed_mb: packed_mb,
            compression: float_mb / packed_mb,
        },
    );
}
