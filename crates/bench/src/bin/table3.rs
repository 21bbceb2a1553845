//! Table III — fused binarization + bit-packing + transposition vs the
//! staged alternative (float transpose, then binarize+pack), on the three
//! VGG-16 FC weight matrices at full size.
//!
//! The paper fuses the three steps into one pass over the weight matrix.
//! That pass reads every float once and writes 1/32 of it, so its roof is
//! the host's sequential read bandwidth: each row prints the GB/s of float
//! input the press sustains beside a plain sequential read of the same
//! matrix, timed in this process. Outputs are verified bit-identical.
//!
//! fc6 is 25088×4096 — 411 MB of floats, and as much again for the staged
//! side's transposed copy.

use bitflow_bench::timing::{fmt_duration, measure, measure_interleaved};
use bitflow_bench::write_json;
use bitflow_gemm::pack::{pack_b_fused, pack_b_staged};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    matrix: String,
    n: usize,
    k: usize,
    fused_ms: f64,
    staged_ms: f64,
    speedup: f64,
    fused_gb_s: f64,
    sequential_read_gb_s: f64,
}

/// Reads every float of `b` once, in order (a wrapping integer sum LLVM
/// vectorizes, so the loop is bound by memory, not by a float add chain).
fn sequential_read(b: &[f32]) -> u32 {
    b.iter().fold(0u32, |s, x| s.wrapping_add(x.to_bits()))
}

fn main() {
    println!("Table III reproduction — fused binarize+pack+transpose vs staged\n");
    let mut rng = StdRng::seed_from_u64(50);
    let mut rows = Vec::new();
    println!(
        "{:<18} {:>11} {:>11} {:>8} {:>12} {:>12}",
        "weight matrix", "fused", "staged", "speedup", "fused GB/s", "read GB/s"
    );
    for (name, n, k) in [
        ("fc6 (25088x4096)", 25088usize, 4096usize),
        ("fc7 (4096x4096)", 4096, 4096),
        ("fc8 (4096x1000)", 4096, 1000),
    ] {
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        assert_eq!(
            pack_b_fused(&b, n, k),
            pack_b_staged(&b, n, k),
            "fused and staged packing must agree"
        );
        let (tf, ts) = measure_interleaved(
            || {
                black_box(pack_b_fused(&b, n, k));
            },
            || {
                black_box(pack_b_staged(&b, n, k));
            },
            Duration::from_millis(1600),
            3,
            50,
        );
        let tr = measure(
            || {
                black_box(sequential_read(black_box(&b)));
            },
            Duration::from_millis(400),
            3,
            50,
        );
        let gb = (n * k * 4) as f64 / 1e9;
        let row = Row {
            matrix: name.to_string(),
            n,
            k,
            fused_ms: tf.as_secs_f64() * 1e3,
            staged_ms: ts.as_secs_f64() * 1e3,
            speedup: ts.as_secs_f64() / tf.as_secs_f64(),
            fused_gb_s: gb / tf.as_secs_f64(),
            sequential_read_gb_s: gb / tr.as_secs_f64(),
        };
        println!(
            "{:<18} {:>11} {:>11} {:>7.2}x {:>12.1} {:>12.1}",
            name,
            fmt_duration(tf),
            fmt_duration(ts),
            row.speedup,
            row.fused_gb_s,
            row.sequential_read_gb_s
        );
        rows.push(row);
    }
    println!("\n(fused avoids the float transpose pass and its N*K intermediate buffer;");
    println!(" GB/s are of float input — the press writes 1/32 of what it reads)");
    write_json("table3", &rows);
}
