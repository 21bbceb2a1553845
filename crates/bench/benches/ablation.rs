//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **kernel-width sweep** — PressedConv on conv5.1 with every SIMD tier
//!   forced (the per-ISA deltas behind Fig. 7's per-operator gains);
//! * **pressed vs image-to-column binary conv** — the §III-A algorithmic
//!   claim, same operator both ways;
//! * **fused conv+sign vs two-pass** — the engine's serial fusion;
//! * **popcount implementations** — native VPOPCNTDQ vs AVX2 nibble lookup
//!   vs scalar POPCNT on a bgemm-sized stream;
//! * **zero-cost padding vs copy-padding** — pre-padded buffer reuse vs
//!   explicitly re-packing into a padded tensor each time.

use bitflow_bench::workloads::{prepare, table_iv};
use bitflow_ops::binary::{
    binarize_pack_padded, binary_conv_im2col, pressed_conv, pressed_conv_sign_into, BnFold,
    SignThresholds,
};
use bitflow_ops::SimdLevel;
use bitflow_simd::xor_popcount;
use bitflow_tensor::BitTensor;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn bench_kernel_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-kernel-width");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(300));
    let w = table_iv()[3]; // conv5.1, C=512 divides every tier
    let p = prepare(&w, 60);
    let bank = p.bank.as_ref().unwrap();
    for level in [
        SimdLevel::Scalar,
        SimdLevel::Sse,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        group.bench_function(format!("conv5.1/{level}"), |b| {
            b.iter(|| black_box(pressed_conv(level, &p.bit_input, bank, 1)));
        });
    }
    group.finish();
}

fn bench_pressed_vs_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-algorithm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300));
    for w in [table_iv()[1], table_iv()[3]] {
        // conv3.1, conv5.1
        let p = prepare(&w, 61);
        let bank = p.bank.as_ref().unwrap();
        let f = p.fshape.unwrap();
        group.bench_function(format!("{}/pressed", w.name), |b| {
            b.iter(|| black_box(pressed_conv(SimdLevel::Avx512, &p.bit_input, bank, 1)));
        });
        group.bench_function(format!("{}/binary-im2col", w.name), |b| {
            b.iter(|| {
                black_box(binary_conv_im2col(
                    SimdLevel::Avx512,
                    &p.input,
                    &p.weights,
                    f,
                    w.params,
                ))
            });
        });
    }
    group.finish();
}

fn bench_fused_conv_sign(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-conv-sign-fusion");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(300));
    let w = table_iv()[2]; // conv4.1
    let p = prepare(&w, 62);
    let bank = p.bank.as_ref().unwrap();
    let k = bank.shape().k;
    let thresholds = vec![0.0f32; k];
    let flip = vec![false; k];
    let f = bank.shape();
    let st = SignThresholds::from_fold(
        &BnFold {
            thresholds: thresholds.clone(),
            flip: flip.clone(),
        },
        f.kh * f.kw * f.c,
    );
    let g = w.params.conv_out(w.input_shape(), k);
    group.bench_function("conv4.1/fused-conv-sign-pack", |b| {
        let mut out = BitTensor::zeros(g.out_h + 2, g.out_w + 2, k);
        b.iter(|| {
            pressed_conv_sign_into(
                SimdLevel::Avx512,
                &p.bit_input,
                bank,
                1,
                &st,
                &mut out,
                1,
                false,
                None,
            );
            black_box(&out);
        });
    });
    group.bench_function("conv4.1/two-pass-counts-then-pack", |b| {
        b.iter(|| {
            let counts = pressed_conv(SimdLevel::Avx512, &p.bit_input, bank, 1);
            black_box(bitflow_ops::binary::binarize_threshold_padded(
                &counts,
                &thresholds,
                &flip,
                1,
            ));
        });
    });
    group.finish();
}

fn bench_popcount_impls(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-popcount");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(1000))
        .warm_up_time(Duration::from_millis(200));
    let mut rng = StdRng::seed_from_u64(63);
    let a: Vec<u64> = (0..1 << 16).map(|_| rng.gen()).collect();
    let b: Vec<u64> = (0..1 << 16).map(|_| rng.gen()).collect();
    for level in [
        SimdLevel::Scalar,
        SimdLevel::Sse,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        group.bench_function(format!("xor-popcount-512KiB/{level}"), |bch| {
            bch.iter(|| black_box(xor_popcount(level, &a, &b)));
        });
    }
    group.finish();
}

fn bench_layout_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-layout");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1000))
        .warm_up_time(Duration::from_millis(200));
    // conv2.1-sized activation map: 112x112x64.
    let w = table_iv()[0];
    let p = prepare(&w, 65);
    let nchw = bitflow_tensor::layout::nhwc_to_nchw(&p.input);
    group.bench_function("pack-112x112x64/from-NHWC", |b| {
        b.iter(|| black_box(BitTensor::from_tensor(&p.input)));
    });
    group.bench_function("pack-112x112x64/from-NCHW-gather", |b| {
        b.iter(|| black_box(BitTensor::from_nchw(&nchw, w.h, w.w, w.c)));
    });
    // Fused pack+transpose traversal orders (Table III deep-dive).
    let (n, k) = (4096usize, 1024usize);
    let mut rng = StdRng::seed_from_u64(66);
    let bmat: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    group.bench_function("pack-b-fused/tiled", |b| {
        b.iter(|| black_box(bitflow_gemm::pack::pack_b_fused(&bmat, n, k)));
    });
    group.bench_function("pack-b-fused/columnwise-paper", |b| {
        b.iter(|| black_box(bitflow_gemm::pack::pack_b_fused_columnwise(&bmat, n, k)));
    });
    group.finish();
}

fn bench_padding_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-padding");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1000))
        .warm_up_time(Duration::from_millis(200));
    let w = table_iv()[0]; // conv2.1: biggest spatial extent → biggest pad cost
    let p = prepare(&w, 64);
    // Zero-cost: the padded pressed input already exists (built once by the
    // network plan); convolving it directly is the whole cost.
    let bank = p.bank.as_ref().unwrap();
    group.bench_function("conv2.1/zero-cost-padding", |b| {
        b.iter(|| black_box(pressed_conv(SimdLevel::Avx512, &p.bit_input, bank, 1)));
    });
    // Copy-padding: re-binarize+pack the float map into a fresh padded
    // tensor every inference (first-convolution-then-padding convention).
    group.bench_function("conv2.1/copy-padding-then-conv", |b| {
        b.iter(|| {
            let padded = binarize_pack_padded(&p.input, 1);
            black_box(pressed_conv(SimdLevel::Avx512, &padded, bank, 1));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_width,
    bench_pressed_vs_im2col,
    bench_fused_conv_sign,
    bench_popcount_impls,
    bench_layout_packing,
    bench_padding_strategy
);
criterion_main!(benches);
