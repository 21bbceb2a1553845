//! Fig. 7 — Performance improvement brought by vectorization over
//! unoptimized BNN implementations, float-value operators = 1×, single
//! core (paper: Intel Xeon Phi 7210; here: the host CPU).
//!
//! Prints, per Table IV operator, the acceleration of the unoptimized
//! (scalar) binary kernel and of BitFlow's call over the optimized float
//! baseline, plus the vectorization speedup whose average the paper
//! headlines as 83%: unoptimized / the same lane loop at the scheduled
//! SIMD tier, so that only vectorization differs. Where the engine runs a
//! conv on the AMX body, the BitFlow column times that body and the lane
//! column the vector loop it replaces.

use bitflow_bench::runners::{kernel, scheduled_level, time_default, Impl};
use bitflow_bench::workloads::{prepare, table_iv};
use bitflow_bench::{quick_mode, write_json};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    op: String,
    kernel: String,
    float_ms: f64,
    unopt_ms: f64,
    lane_ms: f64,
    bitflow_ms: f64,
    unopt_accel: f64,
    bitflow_accel: f64,
    vectorization_speedup: f64,
}

fn main() {
    let quick = quick_mode();
    eprintln!(
        "Fig. 7 reproduction — single-thread operators, float = 1x{}",
        if quick {
            " (quick mode, 4x smaller)"
        } else {
            ""
        }
    );
    eprintln!("host SIMD: {}", bitflow_simd::features());
    let mut rows = Vec::new();
    println!(
        "{:<9} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}  kernel",
        "op",
        "float",
        "unopt-bin",
        "lane-loop",
        "bitflow",
        "unopt-acc",
        "bitflow-acc",
        "vec-speedup"
    );
    for w in table_iv() {
        let w = if quick { w.shrunk(4) } else { w };
        let p = prepare(&w, 42);
        let tf = time_default(Impl::Float, &p, 1).as_secs_f64();
        let tu = time_default(Impl::BinaryUnopt, &p, 1).as_secs_f64();
        let tb = time_default(Impl::BitFlow, &p, 1).as_secs_f64();
        let tl = match p.conv.as_ref().and_then(|c| c.amx.as_ref()) {
            Some(_) => time_default(Impl::BitFlowForced(scheduled_level(&p)), &p, 1).as_secs_f64(),
            None => tb,
        };
        let row = Row {
            op: w.name.to_string(),
            kernel: kernel(&p),
            float_ms: tf * 1e3,
            unopt_ms: tu * 1e3,
            lane_ms: tl * 1e3,
            bitflow_ms: tb * 1e3,
            unopt_accel: tf / tu,
            bitflow_accel: tf / tb,
            vectorization_speedup: tu / tl,
        };
        println!(
            "{:<9} {:>10.3}ms {:>10.3}ms {:>10.3}ms {:>10.3}ms {:>11.1}x {:>11.1}x {:>9.2}x  {}",
            row.op,
            row.float_ms,
            row.unopt_ms,
            row.lane_ms,
            row.bitflow_ms,
            row.unopt_accel,
            row.bitflow_accel,
            row.vectorization_speedup,
            row.kernel
        );
        rows.push(row);
    }
    let avg_vec: f64 =
        rows.iter().map(|r| r.vectorization_speedup).sum::<f64>() / rows.len() as f64;
    println!(
        "\naverage vectorization speedup over unoptimized binary: {:.0}% (paper: 83%)",
        (avg_vec - 1.0) * 100.0
    );
    write_json("fig7", &rows);
}
