//! Criterion bench for Table III: fused binarize+pack+transpose vs the
//! staged float-transpose-then-pack alternative, on the three VGG-16 FC
//! weight matrices at full size (fc6 is 411 MB of floats, and as much again
//! for the staged side's transposed copy). The `table3` bin prints the same
//! comparison with GB/s against a sequential read.

use bitflow_gemm::pack::{pack_b_fused, pack_b_staged};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

fn bench_table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300));
    let mut rng = StdRng::seed_from_u64(50);
    for (name, n, k) in [
        ("fc6-25088x4096", 25088usize, 4096usize),
        ("fc7-4096x4096", 4096, 4096),
        ("fc8-4096x1000", 4096, 1000),
    ] {
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        group.bench_function(format!("{name}/fused"), |bch| {
            bch.iter(|| std::hint::black_box(pack_b_fused(&b, n, k)));
        });
        group.bench_function(format!("{name}/staged"), |bch| {
            bch.iter(|| std::hint::black_box(pack_b_staged(&b, n, k)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
