//! The accuracy experiment in miniature (paper Table V): train the same
//! small conv-net in full precision and binarized (straight-through
//! estimator), evaluate both, and run the binarized model through the
//! actual BitFlow engine to show training → inference transfer is exact.
//!
//! ```sh
//! cargo run --release --example train_accuracy
//! ```

use bitflow::prelude::*;
use bitflow_train::data::{glyphs, SIDE};
use bitflow_train::export::export;
use bitflow_train::layers::Mode;
use bitflow_train::model::{Model, TrainConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() -> Result<(), BitFlowError> {
    let train = glyphs(1000, 0.2, 1);
    let test = glyphs(300, 0.2, 2);
    println!(
        "dataset: glyphs (MNIST analog), {} train / {} test, {}x{} px",
        train.len(),
        test.len(),
        SIDE,
        SIDE
    );
    let cfg = TrainConfig {
        epochs: 10,
        batch_size: 32,
        ..TrainConfig::default()
    };

    println!("\n[1/3] training full-precision conv-net…");
    let mut rng = StdRng::seed_from_u64(100);
    let mut float_model = Model::conv_net(SIDE, 1, &[16], 10, Mode::Float, &mut rng);
    let report = float_model.fit(&train, &cfg);
    println!(
        "  loss {:.3} -> {:.3}; test accuracy {:.1}%",
        report.loss_history[0],
        report.loss_history.last().unwrap(),
        float_model.evaluate(&test) * 100.0
    );

    println!("\n[2/3] training binarized conv-net (STE)…");
    let mut rng = StdRng::seed_from_u64(101);
    let mut bin_model = Model::conv_net(SIDE, 1, &[16], 10, Mode::Binary, &mut rng);
    let report = bin_model.fit(&train, &cfg);
    let bin_acc = bin_model.evaluate(&test);
    println!(
        "  loss {:.3} -> {:.3}; test accuracy {:.1}%",
        report.loss_history[0],
        report.loss_history.last().unwrap(),
        bin_acc * 100.0
    );

    println!("\n[3/3] exporting to the BitFlow engine and re-evaluating…");
    let (spec, weights) = export(&bin_model);
    let engine = CompiledModel::try_compile(&spec, &weights)?;
    let mut ctx = engine.try_new_context()?;
    let mut correct = 0;
    for i in 0..test.len() {
        let img = Tensor::from_vec(test.image(i).to_vec(), spec.input, Layout::Nhwc);
        let logits = engine.try_infer(&mut ctx, &img)?;
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
    let engine_acc = correct as f32 / test.len() as f32;
    println!(
        "  engine accuracy {:.1}% (trained model: {:.1}%) — must match exactly",
        engine_acc * 100.0,
        bin_acc * 100.0
    );
    assert_eq!(
        engine_acc, bin_acc,
        "engine must reproduce the trained model"
    );
    println!(
        "\nmodel size through the engine: {:.1} KiB float -> {:.1} KiB packed",
        engine.float_model_bytes() as f64 / 1024.0,
        engine.packed_model_bytes() as f64 / 1024.0
    );
    Ok(())
}
