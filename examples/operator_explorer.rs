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
//! cargo run --release --example operator_explorer -- --probe  # the host's phase
//! ```
//!
//! Each row prints the best of five calls in ms and as TMAC/s (one
//! multiply-accumulate per output pixel, filter and window bit), so a
//! per-layer table is one run per geometry.
//!
//! `--probe` prints one JSON line in well under 0.3 s: the CPU it ran on
//! (`/proc/thread-self/stat` field 39, `-1` where unreadable) and three
//! best-of-five times — the AMX body (`null` on a host without one) and
//! the Zmm body on the conv4.1 geometry, and a dependent-ALU chain. Some
//! hosts have phases in which the AMX body runs ×3–3.8 slower, the Zmm body
//! ×1.3–1.6 and the chain not at all, and each vCPU enters and leaves them
//! on its own, often within a second: a probe before and after a measured
//! run says which phase its vCPU was in at either end.

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

/// The CPU the calling thread last ran on: field 39 of its `stat`, counted
/// from after the parenthesised name (which may hold spaces).
fn current_cpu() -> i64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after_name
        .split_whitespace()
        .nth(39 - 3)
        .and_then(|f| f.parse().ok())
        .unwrap_or(-1)
}

/// A dependent chain of multiply, rotate and xor: one core's clock, with no
/// memory and no vector unit in it.
fn alu_chain() {
    let mut x = std::hint::black_box(1u64);
    for _ in 0..std::hint::black_box(1_000_000) {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ 1;
    }
    std::hint::black_box(x);
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

/// A 3×3 conv of `h`×`h`×`c` → `k` filters with random operands: the
/// pressed input, the bank and identity thresholds.
fn operands(h: usize, c: usize, k: usize) -> (BitTensor, BitFilterBank, SignThresholds) {
    let mut rng = StdRng::seed_from_u64(0);
    let input = Tensor::random(Shape::hwc(h, h, c), Layout::Nhwc, &mut rng);
    let fshape = FilterShape::new(k, 3, 3, c);
    let weights = Tensor::random(Shape::vec(fshape.numel()), Layout::Nhwc, &mut rng);
    let fold = BnFold {
        thresholds: vec![0.0; k],
        flip: vec![false; k],
    };
    (
        BitTensor::from_tensor_padded(&input, 1),
        BitFilterBank::from_floats(weights.data(), fshape),
        SignThresholds::from_fold(&fold, 9 * c),
    )
}

/// `--probe`: see the module docs.
fn probe() {
    let (h, c, k) = parse(&[]);
    let (pressed, bank, st) = operands(h, c, k);
    let level = SimdLevel::Avx512;
    let (g, _) = conv_geometry(&pressed, &bank, 1);
    let (_, amx) = amx_operands(level, &g, pressed.h(), &bank);
    let mut out = BitTensor::zeros(h + 2, h + 2, k);
    let mut conv = |amx: Option<(&AmxBank, &mut [AmxStrip])>| {
        pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut out, 1, false, amx);
    };
    let amx_ms = amx.map(|(amx, strip_bytes)| {
        let mut strip = [AmxStrip::new(strip_bytes)];
        time_best(|| conv(Some((&amx, &mut strip)))) * 1e3
    });
    let zmm_ms = time_best(|| conv(None)) * 1e3;
    let alu_ms = time_best(alu_chain) * 1e3;
    let amx_ms = amx_ms.map_or("null".to_string(), |ms| format!("{ms:.3}"));
    println!(
        "{{\"cpu\":{},\"amx_ms\":{amx_ms},\"zmm_ms\":{zmm_ms:.3},\"alu_ms\":{alu_ms:.3}}}",
        current_cpu()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--probe") {
        return probe();
    }
    let (h, c, k) = parse(&args);
    println!("binary 3x3 convolution + sign: {h}x{h}x{c} -> {k} filters");
    println!("host SIMD: {}\n", features());

    let (pressed, bank, st) = operands(h, c, k);

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

    // Multiply-accumulates of the conv: one per output pixel, filter and
    // window bit.
    let macs = (h * h * k * 9 * c) as f64;
    println!(
        "\n{:<14} {:>12} {:>8} {:>10}",
        "kernel", "time", "TMAC/s", "vs unvec"
    );
    let mut unvec_time = 0.0;
    let mut check = |name: String, t: f64, out: &BitTensor, scheduled: bool| {
        assert_eq!(out.words(), reference.words(), "{name} disagrees");
        if unvec_time == 0.0 {
            unvec_time = t;
        }
        let marker = if scheduled { "  <- scheduled" } else { "" };
        println!(
            "{name:<14} {:>10.3}ms {:>8.2} {:>9.2}x{marker}",
            t * 1e3,
            macs / t / 1e12,
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
