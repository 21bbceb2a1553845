//! Operator explorer: run one binary convolution at every SIMD tier and
//! watch the vector execution scheduler's decisions pay off — a live,
//! single-operator slice of the paper's Fig. 7.
//!
//! ```sh
//! cargo run --release --example operator_explorer            # conv4.1 geometry
//! cargo run --release --example operator_explorer -- 56 128 256  # H C K
//! ```

use bitflow::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn parse(args: &[String]) -> (usize, usize, usize) {
    match args {
        [h, c, k] => (
            h.parse().expect("H"),
            c.parse().expect("C"),
            k.parse().expect("K"),
        ),
        _ => (28, 256, 512), // conv4.1
    }
}

fn time_best(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (h, c, k) = parse(&args);
    println!("binary 3x3 convolution: {h}x{h}x{c} -> {k} filters");
    println!("host SIMD: {}\n", features());

    let mut rng = StdRng::seed_from_u64(0);
    let input = Tensor::random(Shape::hwc(h, h, c), Layout::Nhwc, &mut rng);
    let fshape = FilterShape::new(k, 3, 3, c);
    let weights = Tensor::random(Shape::vec(fshape.numel()), Layout::Nhwc, &mut rng);
    let pressed = BitTensor::from_tensor_padded(&input, 1);
    let bank = BitFilterBank::from_floats(weights.data(), fshape);

    let scheduler = VectorScheduler::new();
    let pick = scheduler.select(c);
    println!(
        "§III-B channel rule for C={c}: {} ({} packed words/pixel{}) — packing and pools",
        pick.level,
        pick.c_words,
        if pick.padded { ", channel-padded" } else { "" }
    );
    // The conv core's lanes are output filters: widest tier at every C.
    let conv_level = scheduler.streaming_level();

    println!("\n{:<14} {:>12} {:>10}", "kernel", "time", "vs unvec");
    let mut scalar_time = 0.0;
    for level in [
        SimdLevel::Unvectorized,
        SimdLevel::Scalar,
        SimdLevel::Sse,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        let t = time_best(|| {
            std::hint::black_box(pressed_conv(level, &pressed, &bank, 1));
        });
        if level == SimdLevel::Unvectorized {
            scalar_time = t;
        }
        let marker = if level == conv_level {
            "  <- scheduled"
        } else {
            ""
        };
        println!(
            "{:<14} {:>10.2}ms {:>9.2}x{}",
            level.to_string(),
            t * 1e3,
            scalar_time / t,
            marker
        );
    }

    // Correctness cross-check against the float reference on ±1 data.
    let signed = input.sign();
    let pressed2 = BitTensor::from_tensor_padded(&signed, 1);
    let a = pressed_conv(SimdLevel::Scalar, &pressed2, &bank, 1);
    let b = pressed_conv(conv_level, &pressed2, &bank, 1);
    assert_eq!(a.max_abs_diff(&b), 0.0, "all kernels agree bit-exactly");
    println!("\nall kernel widths produce identical results ✔");
}
