//! Criterion bench for Fig. 11's measured series: binarized VGG-16/19
//! end-to-end inference through the BitFlow engine (the GPU comparator is
//! analytical — printed by the `fig11` binary).

use bitflow_bench::timing::with_pool;
use bitflow_graph::models::{vgg16, vgg19};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::CompiledModel;
use bitflow_tensor::{Layout, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

fn bench_fig11(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut group = c.benchmark_group("fig11");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for spec in [vgg16(), vgg19()] {
        let mut rng = StdRng::seed_from_u64(7);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
        let mut ctx = model.try_new_context().expect("context allocates");
        ctx.parallel = threads > 1;
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        group.bench_function(format!("{}/binarized-e2e", spec.name), |b| {
            with_pool(threads, || {
                b.iter(|| {
                    std::hint::black_box(model.try_infer(&mut ctx, &input).expect("inference"))
                });
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
