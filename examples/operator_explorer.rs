//! Operator explorer: run one binary convolution at every SIMD tier and
//! watch the vector execution scheduler's decisions pay off — a live,
//! single-operator slice of the paper's Fig. 7.
//!
//! The conv is the engine's: pressed bits in, the sign of each dot against
//! the next layer's batch-norm (an identity one here) decided on the
//! popcount, pressed bits out into a padded map.
//!
//! ```sh
//! cargo run --release --example operator_explorer            # conv4.1 geometry
//! cargo run --release --example operator_explorer -- 56 128 256  # H C K
//! ```

use bitflow::ops::binary::{amx_operands, conv_geometry};
use bitflow::prelude::*;
use bitflow::simd::amx::{AmxBank, AmxStrip};
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
    println!("binary 3x3 convolution + sign: {h}x{h}x{c} -> {k} filters");
    println!("host SIMD: {}\n", features());

    let mut rng = StdRng::seed_from_u64(0);
    let input = Tensor::random(Shape::hwc(h, h, c), Layout::Nhwc, &mut rng);
    let fshape = FilterShape::new(k, 3, 3, c);
    let weights = Tensor::random(Shape::vec(fshape.numel()), Layout::Nhwc, &mut rng);
    let pressed = BitTensor::from_tensor_padded(&input, 1);
    let bank = BitFilterBank::from_floats(weights.data(), fshape);
    let fold = BnFold {
        thresholds: vec![0.0; k],
        flip: vec![false; k],
    };
    let st = SignThresholds::from_fold(&fold, 9 * c);

    let scheduler = VectorScheduler::new();
    let pick = scheduler.select(c);
    println!(
        "§III-B channel rule for C={c}: {} ({} packed words/pixel{}) — packing and pools",
        pick.level,
        pick.c_words,
        if pick.padded { ", channel-padded" } else { "" }
    );
    // The conv core's lanes are output filters: widest tier at every C,
    // and the AMX body where the engine's rule picks it.
    let conv_level = scheduler.streaming_level();
    let (g, _) = conv_geometry(&pressed, &bank, 1);
    let (body, amx) = amx_operands(conv_level, &g, pressed.h(), &bank);
    println!("the engine's body for this conv: {body}");

    let run = |level, amx: Option<(&AmxBank, &mut [AmxStrip])>, out: &mut BitTensor| {
        pressed_conv_sign_into(level, &pressed, &bank, 1, &st, out, 1, false, amx);
    };
    let mut reference = BitTensor::zeros(h + 2, h + 2, k);
    run(SimdLevel::Unvectorized, None, &mut reference);

    println!("\n{:<14} {:>12} {:>10}", "kernel", "time", "vs unvec");
    let mut unvec_time = 0.0;
    let mut check = |name: String, t: f64, out: &BitTensor, scheduled: bool| {
        assert_eq!(out.words(), reference.words(), "{name} disagrees");
        if unvec_time == 0.0 {
            unvec_time = t;
        }
        let marker = if scheduled { "  <- scheduled" } else { "" };
        println!(
            "{name:<14} {:>10.2}ms {:>9.2}x{marker}",
            t * 1e3,
            unvec_time / t
        );
    };
    let lane_loop_scheduled = amx.is_none();
    for level in [
        SimdLevel::Unvectorized,
        SimdLevel::Scalar,
        SimdLevel::Sse,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        let mut out = BitTensor::zeros(h + 2, h + 2, k);
        let t = time_best(|| run(level, None, &mut out));
        let scheduled = lane_loop_scheduled && level == conv_level;
        check(level.to_string(), t, &out, scheduled);
    }
    if let Some((amx, strip_bytes)) = &amx {
        let mut strip = [AmxStrip::new(*strip_bytes)];
        let mut out = BitTensor::zeros(h + 2, h + 2, k);
        let t = time_best(|| run(conv_level, Some((amx, &mut strip)), &mut out));
        check("amx".to_string(), t, &out, true);
    }
    println!("\nevery kernel produces the same sign bits ✔");
}
