//! Criterion bench for the Table V experiment's moving parts: one training
//! epoch of the binarized model (STE) and classification throughput of the
//! exported model through the BitFlow engine. (The accuracy numbers
//! themselves come from the `table5` binary, which trains to convergence.)

use bitflow_graph::CompiledModel;
use bitflow_tensor::{Layout, Tensor};
use bitflow_train::data::{glyphs, SIDE};
use bitflow_train::export::export;
use bitflow_train::layers::Mode;
use bitflow_train::model::{Model, TrainConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

fn bench_table5(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let train_set = glyphs(200, 0.2, 1);
    group.bench_function("ste-train-epoch/binary-convnet", |b| {
        b.iter_batched(
            || {
                let mut rng = StdRng::seed_from_u64(100);
                Model::conv_net(SIDE, 1, &[8], 10, Mode::Binary, &mut rng)
            },
            |mut model| {
                let cfg = TrainConfig {
                    epochs: 1,
                    batch_size: 32,
                    ..TrainConfig::default()
                };
                std::hint::black_box(model.fit(&train_set, &cfg));
            },
            criterion::BatchSize::LargeInput,
        );
    });

    // Engine inference throughput on the exported trained model.
    let mut rng = StdRng::seed_from_u64(101);
    let mut model = Model::conv_net(SIDE, 1, &[8], 10, Mode::Binary, &mut rng);
    let _ = model.fit(
        &train_set,
        &TrainConfig {
            epochs: 2,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    let (spec, weights) = export(&model);
    let engine = CompiledModel::try_compile(&spec, &weights).expect("exported model compiles");
    let mut ctx = engine.try_new_context().expect("context allocates");
    let img = Tensor::from_vec(train_set.image(0).to_vec(), spec.input, Layout::Nhwc);
    group.bench_function("engine-classify/exported-convnet", |b| {
        b.iter(|| std::hint::black_box(engine.try_infer(&mut ctx, &img).expect("inference")));
    });
    group.finish();
}

criterion_group!(benches, bench_table5);
criterion_main!(benches);
