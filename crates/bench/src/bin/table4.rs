//! Table IV — the VGG benchmark operators, with the shape inferer's output
//! geometry, the vector execution scheduler's kernel choice per operator
//! (also reproducing the Fig. 6 operator→kernel mapping) and the body the
//! conv core runs a fused conv on, with the clause of the AMX rule that
//! decided it.

use bitflow_bench::workloads::{table_iv, OpKind};
use bitflow_simd::conv::{body_choice, ConvGeom};
use bitflow_simd::VectorScheduler;

fn main() {
    println!("Table IV reproduction — benchmark operators + scheduler decisions\n");
    let s = VectorScheduler::new();
    println!(
        "{:<9} {:>5} {:>5} {:>5} {:>6} {:>7} {:>12} {:>14}  body",
        "op", "H", "W", "C", "K", "stride", "out (HxWxC)", "kernel"
    );
    for w in table_iv() {
        let (k_str, out, kernel, body) = match w.kind {
            OpKind::Conv { k } => {
                let g = w.params.conv_out(w.input_shape(), k);
                let geom = ConvGeom {
                    c_words: w.c.div_ceil(64),
                    in_w: w.w + 2 * w.params.pad,
                    kh: w.params.kh,
                    kw: w.params.kw,
                    stride: w.params.stride,
                    out_w: g.out_w,
                    k,
                };
                (
                    k.to_string(),
                    format!("{}x{}x{}", g.out_h, g.out_w, g.out_c),
                    // Filter-lane core: the widest tier at every C.
                    s.streaming_level().to_string(),
                    body_choice(s.streaming_level(), &geom, w.h + 2 * w.params.pad).to_string(),
                )
            }
            OpKind::Fc { k } => (
                k.to_string(),
                format!("1x1x{k}"),
                s.streaming_level().to_string(),
                "-".to_string(),
            ),
            OpKind::Pool => {
                let g = w.params.pool_out(w.input_shape());
                (
                    "-".to_string(),
                    format!("{}x{}x{}", g.out_h, g.out_w, g.out_c),
                    s.select(w.c).level.to_string(),
                    "-".to_string(),
                )
            }
        };
        println!(
            "{:<9} {:>5} {:>5} {:>5} {:>6} {:>7} {:>12} {:>14}  {body}",
            w.name, w.h, w.w, w.c, k_str, w.params.stride, out, kernel
        );
    }
    println!("\nFig. 6 mapping check (paper, Xeon Phi): C=3→pad+scalar, 64→scalar,");
    println!("128→SSE, 256→AVX2, 512→AVX-512; on this host: ");
    for c in [3usize, 64, 128, 256, 512] {
        let k = s.select(c);
        println!(
            "  C={c:<4} -> {} (packed to {} channel bits{})",
            k.level,
            k.c_padded,
            if k.padded { ", zero-padded" } else { "" }
        );
    }
}
