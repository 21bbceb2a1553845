//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **kernel-width sweep** — the engine's conv (PressedConv + sign, pressed
//!   bits out) on conv5.1 with every SIMD tier forced on the filter-lane
//!   loop (the per-ISA deltas behind Fig. 7's per-operator gains);
//! * **pressed vs image-to-column binary conv** — the §III-A algorithmic
//!   claim, same operator and same output bits both ways;
//! * **popcount implementations** — native VPOPCNTDQ vs AVX2 nibble lookup
//!   vs scalar POPCNT on a bgemm-sized stream;
//! * **zero-cost padding vs copy-padding** — pre-padded buffer reuse vs
//!   explicitly re-packing into a padded tensor each time.
//!
//! Every conv row writes sign bits into a prepared padded map
//! (`workloads::ConvOperands`), as the engine does.
//!
//! `cargo bench -p bitflow-bench --bench ablation` prints the fastest of
//! repeated calls per configuration (`timing::measure`); the two sides of an
//! A/B comparison are timed interleaved (`timing::measure_interleaved`) so
//! both see the same machine load. `-- --quick` runs
//! each configuration once.

use bitflow_bench::quick_mode;
use bitflow_bench::timing::{fmt_duration, measure, measure_interleaved};
use bitflow_bench::workloads::{prepare, table_iv, Prepared};
use bitflow_ops::binary::{
    binarize_pack_into, binary_conv_im2col, pack_signed_dots_into, pressed_conv_sign_into,
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

/// The engine's conv of `input` under a prepared workload's bank and
/// thresholds, on the filter-lane loop at `level`, into its prepared
/// destination.
fn sign_conv(p: &Prepared, input: &BitTensor, level: SimdLevel) {
    let conv = p.conv.as_ref().unwrap();
    let out = &mut conv.scratch.lock().expect("a timed conv panicked").0;
    let (bank, st) = (p.bank.as_ref().unwrap(), &conv.st);
    pressed_conv_sign_into(level, input, bank, 1, st, out, 1, false, None);
    black_box(out);
}

fn kernel_width(budget: &Budget) {
    let w = table_iv()[3]; // conv5.1, C=512 divides every tier
    let p = prepare(&w, 60);
    for level in TIERS {
        budget.one(&format!("ablation-kernel-width/conv5.1/{level}"), || {
            sign_conv(&p, &p.bit_input, level);
        });
    }
}

fn pressed_vs_im2col(budget: &Budget) {
    for w in [table_iv()[1], table_iv()[3]] {
        // conv3.1, conv5.1
        let p = prepare(&w, 61);
        let f = p.fshape.unwrap();
        let out_w = w.params.conv_out(w.input_shape(), f.k).out_w;
        budget.pair(
            &format!("ablation-algorithm/{}", w.name),
            ("pressed", || sign_conv(&p, &p.bit_input, SimdLevel::Avx512)),
            // The same bits: im2col counts, then each pixel's dots through
            // the same thresholds into the same padded map.
            ("binary-im2col", || {
                let counts =
                    binary_conv_im2col(SimdLevel::Avx512, &p.input, &p.weights, f, w.params);
                let conv = p.conv.as_ref().unwrap();
                let out = &mut conv.scratch.lock().expect("a timed conv panicked").0;
                let c_words = out.c_words();
                for (px, dots) in counts.data().chunks_exact(f.k).enumerate() {
                    let at = out.pixel_words_index(px / out_w + 1, px % out_w + 1);
                    pack_signed_dots_into(dots, &conv.st, &mut out.words_mut()[at..][..c_words]);
                }
                black_box(out);
            }),
        );
    }
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
    budget.pair(
        "ablation-padding/conv2.1",
        // Zero-cost: the padded pressed input already exists (built once by
        // the network plan); convolving it directly is the whole cost.
        ("zero-cost-padding", || {
            sign_conv(&p, &p.bit_input, SimdLevel::Avx512)
        }),
        // Copy-padding: re-binarize+pack the float map into a fresh padded
        // tensor every inference (first-convolution-then-padding convention).
        ("copy-padding-then-conv", || {
            let mut padded = BitTensor::zeros(w.h + 2, w.w + 2, w.c);
            binarize_pack_into(&p.input, &mut padded, 1);
            sign_conv(&p, &padded, SimdLevel::Avx512)
        }),
    );
}

fn main() {
    let budget = Budget::new();
    kernel_width(&budget);
    pressed_vs_im2col(&budget);
    popcount_impls(&budget);
    layout_packing(&budget);
    padding_strategy(&budget);
}
