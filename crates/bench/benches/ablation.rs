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
//!
//! `cargo bench -p bitflow-bench --bench ablation` prints the fastest of
//! repeated calls per configuration (`timing::measure`); the two sides of an
//! A/B comparison are timed interleaved (`timing::measure_interleaved`) so
//! both see the same machine load. `-- --quick` (or `BITFLOW_QUICK=1`) runs
//! each configuration once.

use bitflow_bench::quick_mode;
use bitflow_bench::timing::{fmt_duration, measure, measure_interleaved};
use bitflow_bench::workloads::{prepare, table_iv};
use bitflow_ops::binary::{
    binarize_pack_padded, binary_conv_im2col, pressed_conv, pressed_conv_sign_into, BnFold,
    SignThresholds,
};
use bitflow_ops::SimdLevel;
use bitflow_simd::xor_popcount;
use bitflow_tensor::BitTensor;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

const TIERS: [SimdLevel; 4] = [
    SimdLevel::Scalar,
    SimdLevel::Sse,
    SimdLevel::Avx2,
    SimdLevel::Avx512,
];

/// Measurement budget shared by every configuration.
struct Budget {
    time: Duration,
    min_iters: usize,
    max_iters: usize,
}

impl Budget {
    fn new() -> Self {
        if quick_mode() {
            Budget {
                time: Duration::ZERO,
                min_iters: 1,
                max_iters: 1,
            }
        } else {
            Budget {
                time: Duration::from_secs(1),
                min_iters: 3,
                max_iters: 200,
            }
        }
    }

    /// One configuration of a sweep.
    fn one(&self, name: &str, f: impl FnMut()) {
        let t = measure(f, self.time, self.min_iters, self.max_iters);
        println!("{name:<60} {:>12}", fmt_duration(t));
    }

    /// Two configurations of one operator, A/B.
    fn pair(&self, group: &str, (a, fa): (&str, impl FnMut()), (b, fb): (&str, impl FnMut())) {
        let (ta, tb) = measure_interleaved(fa, fb, self.time, self.min_iters, self.max_iters);
        println!("{:<60} {:>12}", format!("{group}/{a}"), fmt_duration(ta));
        println!(
            "{:<60} {:>12}  ({:.2}x of {a})",
            format!("{group}/{b}"),
            fmt_duration(tb),
            tb.as_secs_f64() / ta.as_secs_f64()
        );
    }
}

fn kernel_width(budget: &Budget) {
    let w = table_iv()[3]; // conv5.1, C=512 divides every tier
    let p = prepare(&w, 60);
    let bank = p.bank.as_ref().unwrap();
    for level in TIERS {
        budget.one(&format!("ablation-kernel-width/conv5.1/{level}"), || {
            black_box(pressed_conv(level, &p.bit_input, bank, 1));
        });
    }
}

fn pressed_vs_im2col(budget: &Budget) {
    for w in [table_iv()[1], table_iv()[3]] {
        // conv3.1, conv5.1
        let p = prepare(&w, 61);
        let bank = p.bank.as_ref().unwrap();
        let f = p.fshape.unwrap();
        budget.pair(
            &format!("ablation-algorithm/{}", w.name),
            ("pressed", || {
                black_box(pressed_conv(SimdLevel::Avx512, &p.bit_input, bank, 1));
            }),
            ("binary-im2col", || {
                black_box(binary_conv_im2col(
                    SimdLevel::Avx512,
                    &p.input,
                    &p.weights,
                    f,
                    w.params,
                ));
            }),
        );
    }
}

fn fused_conv_sign(budget: &Budget) {
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
    let mut out = BitTensor::zeros(g.out_h + 2, g.out_w + 2, k);
    budget.pair(
        "ablation-conv-sign-fusion/conv4.1",
        ("fused-conv-sign-pack", || {
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
        }),
        ("two-pass-counts-then-pack", || {
            let counts = pressed_conv(SimdLevel::Avx512, &p.bit_input, bank, 1);
            black_box(bitflow_ops::binary::binarize_threshold_padded(
                &counts,
                &thresholds,
                &flip,
                1,
            ));
        }),
    );
}

fn popcount_impls(budget: &Budget) {
    let mut rng = StdRng::seed_from_u64(63);
    let a: Vec<u64> = (0..1 << 16).map(|_| rng.gen()).collect();
    let b: Vec<u64> = (0..1 << 16).map(|_| rng.gen()).collect();
    for level in TIERS {
        budget.one(
            &format!("ablation-popcount/xor-popcount-512KiB/{level}"),
            || {
                black_box(xor_popcount(level, &a, &b));
            },
        );
    }
}

fn layout_packing(budget: &Budget) {
    // conv2.1-sized activation map: 112x112x64.
    let w = table_iv()[0];
    let p = prepare(&w, 65);
    let nchw = bitflow_tensor::layout::nhwc_to_nchw(&p.input);
    budget.pair(
        "ablation-layout/pack-112x112x64",
        ("from-NHWC", || {
            black_box(BitTensor::from_tensor(&p.input));
        }),
        ("from-NCHW-gather", || {
            black_box(BitTensor::from_nchw(&nchw, w.h, w.w, w.c));
        }),
    );
    // Fused pack+transpose traversal orders (Table III deep-dive).
    let (n, k) = (4096usize, 1024usize);
    let mut rng = StdRng::seed_from_u64(66);
    let bmat: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    budget.pair(
        "ablation-layout/pack-b-fused",
        ("tiled", || {
            black_box(bitflow_gemm::pack::pack_b_fused(&bmat, n, k));
        }),
        ("columnwise-paper", || {
            black_box(bitflow_gemm::pack::pack_b_fused_columnwise(&bmat, n, k));
        }),
    );
}

fn padding_strategy(budget: &Budget) {
    let w = table_iv()[0]; // conv2.1: biggest spatial extent → biggest pad cost
    let p = prepare(&w, 64);
    let bank = p.bank.as_ref().unwrap();
    budget.pair(
        "ablation-padding/conv2.1",
        // Zero-cost: the padded pressed input already exists (built once by
        // the network plan); convolving it directly is the whole cost.
        ("zero-cost-padding", || {
            black_box(pressed_conv(SimdLevel::Avx512, &p.bit_input, bank, 1));
        }),
        // Copy-padding: re-binarize+pack the float map into a fresh padded
        // tensor every inference (first-convolution-then-padding convention).
        ("copy-padding-then-conv", || {
            let padded = binarize_pack_padded(&p.input, 1);
            black_box(pressed_conv(SimdLevel::Avx512, &padded, bank, 1));
        }),
    );
}

fn main() {
    let budget = Budget::new();
    kernel_width(&budget);
    pressed_vs_im2col(&budget);
    fused_conv_sign(&budget);
    popcount_impls(&budget);
    layout_packing(&budget);
    padding_strategy(&budget);
}
