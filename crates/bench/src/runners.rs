//! Operator runners: one timed closure per (implementation, workload).

use crate::timing::{measure, with_pool};
use crate::workloads::{OpKind, Prepared};
use bitflow_ops::binary::{binary_max_pool, pressed_conv_sign_into};
use bitflow_ops::float::{conv_im2col, fc_pretransposed, max_pool};
use bitflow_ops::SimdLevel;
use bitflow_simd::VectorScheduler;
use std::hint::black_box;
use std::time::Duration;

/// Implementation under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Impl {
    /// Optimized full-precision operator (the 1× baseline).
    Float,
    /// Binary operator without vectorization (scalar u64 kernel) — the
    /// paper's "unoptimized BNN implementation".
    BinaryUnopt,
    /// BitFlow: binary operator with the scheduler-selected SIMD kernel.
    BitFlow,
    /// BitFlow's lane loop at a forced kernel width (Fig. 7's lane column).
    BitFlowForced(SimdLevel),
}

/// The level the engine runs a prepared workload at on this machine: the
/// §III-B channel rule for pools, the widest tier for FC rows and — its
/// vector lanes being output filters, not channel words — the conv core.
pub fn scheduled_level(p: &Prepared) -> SimdLevel {
    let s = VectorScheduler::new();
    match p.workload.kind {
        OpKind::Pool => s.select(p.workload.c).level,
        OpKind::Conv { .. } | OpKind::Fc { .. } => s.streaming_level(),
    }
}

/// What a prepared workload runs on under [`Impl::BitFlow`]: the conv body
/// the engine would pick (and the clause of the rule that picked it), or
/// the kernel level of the other operators.
pub fn kernel(p: &Prepared) -> String {
    match &p.conv {
        Some(conv) => conv.body.to_string(),
        None => scheduled_level(p).to_string(),
    }
}

/// Runs one (impl, workload) configuration once; the float baseline
/// always on one thread.
pub fn run_once(imp: Impl, p: &Prepared, threads: usize) {
    match (imp, p.workload.kind) {
        (Impl::Float, OpKind::Conv { .. }) => {
            let f = p.fshape.unwrap();
            black_box(conv_im2col(&p.input, &p.weights, f, p.workload.params));
        }
        (Impl::Float, OpKind::Fc { k }) => {
            let n = p.workload.flat_n();
            black_box(fc_pretransposed(&p.input_flat, &p.weights_t, n, k));
        }
        (Impl::Float, OpKind::Pool) => {
            black_box(max_pool(&p.input, p.workload.params));
        }
        (imp, kind) => {
            let level = match imp {
                Impl::BinaryUnopt => SimdLevel::Unvectorized,
                Impl::BitFlow => scheduled_level(p),
                Impl::BitFlowForced(l) => l,
                Impl::Float => unreachable!(),
            };
            match kind {
                OpKind::Conv { .. } => {
                    // The engine's call: sign bits into the next layer's
                    // padded input; the AMX body only where the engine
                    // would run it, the forced tiers on the lane loop.
                    let conv = p.conv.as_ref().unwrap();
                    let mut scratch = conv.scratch.lock().expect("a timed conv panicked");
                    let (out, strips) = &mut *scratch;
                    let amx = match imp {
                        Impl::BitFlow => conv.amx.as_ref().map(|bank| (bank, &mut strips[..])),
                        _ => None,
                    };
                    pressed_conv_sign_into(
                        level,
                        &p.bit_input,
                        p.bank.as_ref().unwrap(),
                        p.workload.params.stride,
                        &conv.st,
                        out,
                        p.workload.params.pad,
                        threads != 1,
                        amx,
                    );
                    black_box(out);
                }
                OpKind::Fc { .. } => {
                    let w = p.fc_weights.as_ref().unwrap();
                    let mut out = vec![0.0f32; w.k];
                    // Input packing inline (see crate docs); K-dim is the
                    // multi-core axis.
                    let mut packed = vec![0u64; p.workload.flat_n().div_ceil(64)];
                    bitflow_simd::pack::pack_f32(&p.input_flat, &mut packed);
                    if threads == 1 {
                        w.forward_into(level, &packed, &mut out);
                    } else {
                        w.forward_into_parallel(level, &packed, &mut out);
                    }
                    black_box(out);
                }
                OpKind::Pool => {
                    let (kh, kw, s) = (
                        p.workload.params.kh,
                        p.workload.params.kw,
                        p.workload.params.stride,
                    );
                    if threads == 1 {
                        black_box(binary_max_pool(level, &p.bit_input, kh, kw, s));
                    } else {
                        black_box(bitflow_ops::binary::binary_max_pool_parallel(
                            level,
                            &p.bit_input,
                            kh,
                            kw,
                            s,
                        ));
                    }
                }
            }
        }
    }
}

/// Times one configuration inside a sized pool, for up to 600 ms.
pub fn time_default(imp: Impl, p: &Prepared, threads: usize) -> Duration {
    let budget = Duration::from_millis(600);
    with_pool(threads, || {
        measure(|| run_once(imp, p, threads), budget, 3, 200)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::measure_interleaved;
    use crate::workloads::{prepare, table_iv};

    /// Two implementations on one thread, their iterations interleaved so
    /// both see the same machine load.
    fn pair(a: Impl, b: Impl, p: &Prepared) -> (Duration, Duration) {
        let budget = Duration::from_millis(300);
        measure_interleaved(|| run_once(a, p, 1), || run_once(b, p, 1), budget, 3, 200)
    }

    /// Smoke: every impl×op combination runs on shrunken workloads.
    #[test]
    fn all_configurations_run() {
        for w in table_iv() {
            let w = w.shrunk(4);
            let p = prepare(&w, 3);
            for imp in [
                Impl::Float,
                Impl::BinaryUnopt,
                Impl::BitFlow,
                Impl::BitFlowForced(SimdLevel::Sse),
            ] {
                for threads in [1usize, 2] {
                    run_once(imp, &p, threads);
                }
            }
        }
    }

    #[test]
    fn binary_faster_than_float_on_conv() {
        // The headline claim, at reduced scale: BitFlow binary conv beats
        // the float baseline comfortably on one thread.
        let w = table_iv()[1].shrunk(2); // conv3.1 at 28x28
        let p = prepare(&w, 4);
        let (tf, tb) = pair(Impl::Float, Impl::BitFlow, &p);
        assert!(
            tb < tf,
            "binary {:?} should beat float {:?} on conv",
            tb,
            tf
        );
    }

    #[test]
    fn unopt_is_not_faster_than_bitflow_wide_channels() {
        let w = table_iv()[3]; // conv5.1 (C=512) at full size — small anyway
        let p = prepare(&w, 5);
        let (tu, tb) = pair(Impl::BinaryUnopt, Impl::BitFlow, &p);
        // SIMD should not lose; allow 10% jitter head-room.
        assert!(
            tb.as_secs_f64() <= tu.as_secs_f64() * 1.10,
            "bitflow {tb:?} vs unopt {tu:?}"
        );
    }
}
