//! The traced run: every per-layer metric, measured from outside by timing
//! calls into each layer's public functions, plus in-memory spans around
//! those calls for the four workloads.
//!
//! One traced run measures the whole ledger whatever `--workload` names
//! (the contract wants every per-layer metric from every traced run); the
//! workload only selects which span trace is written to `out/`.
//! `--seconds` is shared out over the sections by the `SHARE_*` constants.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check::Golden;
use crate::contract::{ISOLATED_OPS, LADDER_RPS, SIMD_TIERS, VGG_OPS};
use crate::httpclient::{infer_head, Client};
use crate::openloop::{self, Record, RungSummary, Verdict};
use crate::spans::SpanLog;
use crate::stats::{self, median, percentile, sorted};
use crate::sut::{
    self, FcGemm, IsolatedOp, Model, ModelKind, Outcome, Pending, Source, WireTensor,
};
use crate::workloads::{
    batch_indices, http_phase, request_order, start_server, HttpStack, RunCfg, ServeTarget, Tally,
    BATCH, OPEN_DEADLINE,
};

const SHARE_MICRO: f64 = 0.06;
const SHARE_ISOLATED: f64 = 0.10;
const SHARE_VGG: f64 = 0.30;
const SHARE_VGG_PARALLEL: f64 = 0.04;
const SHARE_TIERED: f64 = 0.06;
const SHARE_DIRECT: f64 = 0.02;
const SHARE_SERVE: f64 = 0.02;
const SHARE_WIRE: f64 = 0.06;
const SHARE_TELEMETRY: f64 = 0.12;
const SHARE_RUNG: f64 = 0.06;

/// Windows per ladder rung (rungs are short: three windows, as the rung
/// rule's "median window" needs at least).
const LADDER_WINDOWS: usize = 3;

/// What the traced run produced.
pub struct Ledger {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// One span log per workload name.
    pub traces: Vec<(&'static str, SpanLog)>,
    /// Outcome counts over every checked answer.
    pub tally: Tally,
    /// Human-readable lines (sample counts, what ran where).
    pub notes: Vec<String>,
}

/// One timed call: when it started and when it returned.
type Call = (Instant, Instant);

/// Calls `op(k)` back to back for about `budget_s` (at least `min` calls).
fn timed(
    budget_s: f64,
    min: usize,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<Call>, String> {
    let mut calls = Vec::new();
    let start = Instant::now();
    while calls.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        op(calls.len())?;
        calls.push((t0, Instant::now()));
    }
    Ok(calls)
}

/// The calls' durations times `scale` (1e3 for ms, 1e6 for µs).
fn durations(calls: &[Call], scale: f64) -> Vec<f64> {
    calls
        .iter()
        .map(|(t0, t1)| (*t1 - *t0).as_secs_f64() * scale)
        .collect()
}

/// [`timed`] for a kernel that cannot fail, after one warm-up call: the
/// per-call seconds, ascending.
fn time_calls(budget_s: f64, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let calls = timed(budget_s, min, |_| {
        f();
        Ok(())
    });
    sorted(durations(&calls.unwrap_or_default(), 1.0))
}

fn p50(sorted_values: &[f64]) -> f64 {
    percentile(sorted_values, 0.5)
}

struct Run<'a> {
    cfg: &'a RunCfg,
    golden: &'a Golden,
    origin: Instant,
    metrics: BTreeMap<String, f64>,
    tally: Tally,
    notes: Vec<String>,
}

impl Run<'_> {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn budget(&self, share: f64) -> f64 {
        self.cfg.seconds * share
    }
}

/// simd, gemm and tensor: isolated kernels on operands sized as the
/// metric's name says. Hands the two FC fixtures on as `ops`-level
/// operators, so their 400 MB of float weights are generated once.
fn micro(run: &mut Run) -> Vec<IsolatedOp> {
    let each = run.budget(SHARE_MICRO) / 12.0;
    // L1-resident: two 2 KiB operands.
    let a: Vec<u64> = (0..256u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let b: Vec<u64> = a.iter().map(|x| x.rotate_left(17) ^ 0xA5A5).collect();
    const INNER: usize = 2000;
    let mut sink = 0u64;
    for (tier, (_, level)) in SIMD_TIERS.iter().zip(sut::simd_tiers()) {
        let secs = time_calls(each, 10, || {
            for _ in 0..INNER {
                sink = sink.wrapping_add(sut::xor_popcount(
                    level,
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                ));
            }
        });
        let bit_ops = (2 * 64 * a.len() * INNER) as f64;
        run.set(
            format!("simd.xor_popcount_gbitops_s.{tier}"),
            bit_ops / p50(&secs) / 1e9,
        );
    }
    std::hint::black_box(sink);

    let floats: Vec<f32> = (0..16 * 1024)
        .map(|i| ((i * 37 % 101) as f32) - 50.0)
        .collect();
    let mut packed = vec![0u64; floats.len() / 64];
    let secs = time_calls(each, 10, || {
        for _ in 0..100 {
            sut::pack_f32(std::hint::black_box(&floats), &mut packed);
        }
    });
    run.set(
        "simd.pack_f32_gb_s",
        (floats.len() * 4 * 100) as f64 / p50(&secs) / 1e9,
    );

    let src: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .collect();
    let mut acc = vec![0u64; src.len()];
    let secs = time_calls(each, 10, || {
        for _ in 0..100 {
            sut::or_accumulate(&mut acc, std::hint::black_box(&src));
        }
    });
    run.set(
        "simd.or_accumulate_gb_s",
        (src.len() * 8 * 100) as f64 / p50(&secs) / 1e9,
    );

    let mut fc7 = FcGemm::new(4096, 4096, run.cfg.data_seed() + 7);
    let secs = time_calls(each, 10, || {
        std::hint::black_box(fc7.bgemm());
    });
    run.set("gemm.bgemm_fc7_ms", p50(&secs) * 1e3);
    let mut fc6 = FcGemm::new(25088, 4096, run.cfg.data_seed() + 6);
    let secs = time_calls(each, 10, || {
        std::hint::black_box(fc6.bgemm());
    });
    run.set("gemm.bgemm_fc6_ms", p50(&secs) * 1e3);
    let secs = time_calls(each, 3, || {
        std::hint::black_box(fc6.pack_b());
    });
    run.set("gemm.pack_b_fc6_ms", p50(&secs) * 1e3);

    let wire = WireTensor::new(run.cfg.data_seed());
    let mb = wire.encoded.len() as f64 / 1e6;
    let secs = time_calls(each, 10, || {
        std::hint::black_box(wire.encode());
    });
    run.set("tensor.encode_mb_s", mb / p50(&secs));
    let secs = time_calls(each, 10, || {
        std::hint::black_box(wire.decode());
    });
    run.set("tensor.decode_mb_s", mb / p50(&secs));
    vec![fc6.into_isolated("fc6"), fc7.into_isolated("fc7")]
}

/// ops: the ten full-size VGG geometries, each called alone on one thread.
/// Returns the median ms per op for `graph.in_net_vs_isolated.*`.
fn isolated(run: &mut Run, fc_ops: Vec<IsolatedOp>) -> BTreeMap<&'static str, f64> {
    let host = sut::host();
    // Single-thread compute roof, as the repo's roofline defines it: one
    // xor and one popcount per bit position per cycle at the widest tier.
    let peak_bitops_per_s = 2.0 * host.simd_bits as f64 * host.ghz * 1e9;
    let each = run.budget(SHARE_ISOLATED) / ISOLATED_OPS.len() as f64;
    let mut ms = BTreeMap::new();
    for mut op in sut::isolated_ops(run.cfg.data_seed())
        .into_iter()
        .chain(fc_ops)
    {
        let secs = time_calls(each, 10, || op.run());
        let med = p50(&secs);
        run.set(format!("ops.{}_ms", op.name), med * 1e3);
        run.set(
            format!("ops.{}_pct_peak", op.name),
            100.0 * op.bit_ops as f64 / med / peak_bitops_per_s,
        );
        ms.insert(op.name, med * 1e3);
    }
    run.notes.push(format!(
        "ops.*_pct_peak: exact bit-op counts over a single-thread roof of 2 x {} bits x {:.2} GHz",
        host.simd_bits, host.ghz
    ));
    ms
}

/// graph on VGG-16: compile cost, sizes, per-op time inside the network,
/// the engine's own residual, and what tracing the calls costs.
fn vgg(run: &mut Run, isolated_ms: &BTreeMap<&'static str, f64>) -> Result<SpanLog, String> {
    let pins = run
        .golden
        .pins(ModelKind::Vgg16.key(), run.cfg.data_seed())?;
    let source = Source::generate(ModelKind::Vgg16, run.cfg.data_seed());
    let t0 = Instant::now();
    let model = source.compile()?;
    run.set("graph.compile_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(source);
    run.set("graph.context_bytes", model.context_bytes() as f64);
    run.set(
        "graph.packed_model_bytes",
        model.packed_model_bytes() as f64,
    );
    let order = request_order(run.cfg.seed, model.input_count());
    let mut ctx = model.new_context(false)?;
    let mut log = SpanLog::new(run.origin, 0);
    run.tally
        .answer(pins.matches(order[0], &model.infer(&mut ctx, order[0])?));

    // Untraced and profiled calls interleave in the order P T T P, so both
    // see the same host and neither always runs in the other's wake.
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); VGG_OPS.len()];
    // Per profiled call: what its operators sum to, and what is left of the
    // call's wall time (the engine's own dispatch: its self time).
    let (mut ops_sum_ms, mut residual_ms, mut ops_share) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut call = 0usize;
    while call < 8
        || !call.is_multiple_of(4)
        || start.elapsed().as_secs_f64() < run.budget(SHARE_VGG)
    {
        let i = order[call % order.len()];
        let request = call as u64;
        if matches!(call % 4, 0 | 3) {
            let t0 = Instant::now();
            let logits = model.infer(&mut ctx, i)?;
            let t1 = Instant::now();
            plain_ms.push((t1 - t0).as_secs_f64() * 1e3);
            run.tally.answer(pins.matches(i, &logits));
            log.push("try_infer", "graph", t0, t1, None, request);
        } else {
            let t0 = Instant::now();
            let (logits, ops) = model.infer_profiled(&mut ctx, i)?;
            let t1 = Instant::now();
            let wall_ms = (t1 - t0).as_secs_f64() * 1e3;
            let sum_ms: f64 = ops.iter().map(|(_, d)| d.as_secs_f64() * 1e3).sum();
            traced_ms.push(wall_ms);
            ops_sum_ms.push(sum_ms);
            residual_ms.push(wall_ms - sum_ms);
            ops_share.push(sum_ms / wall_ms);
            run.tally.answer(pins.matches(i, &logits));
            if ops.len() != VGG_OPS.len()
                || ops
                    .iter()
                    .zip(VGG_OPS)
                    .any(|((name, _), want)| name != want)
            {
                return Err(
                    "compiled VGG-16 no longer has the 22 operators the ledger names".into(),
                );
            }
            let parent = log.push("try_infer_profiled", "graph", t0, t1, None, request);
            // The engine reports durations only; operators run back to
            // back, so each starts where the previous one ended.
            let mut at = log.ns(t0);
            for (slot, (name, d)) in per_op.iter_mut().zip(&ops) {
                let ns = d.as_nanos() as u64;
                slot.push(d.as_secs_f64() * 1e3);
                log.push_ns(name, "ops", at, at + ns, Some(parent), request);
                at += ns;
            }
        }
        call += 1;
    }
    let plain_p50 = median(&plain_ms);
    let traced_p50 = median(&traced_ms);
    for (name, samples) in VGG_OPS.iter().zip(&per_op) {
        let med = median(samples);
        run.set(format!("graph.op_ms.{name}"), med);
        if let Some(alone) = isolated_ms.get(name) {
            run.set(format!("graph.in_net_vs_isolated.{name}"), med / alone);
        }
    }
    run.set("graph.infer_p50_ms", plain_p50);
    run.set("graph.ops_sum_ms", median(&ops_sum_ms));
    run.set("graph.residual_ms", median(&residual_ms));
    run.set("graph.ops_share", median(&ops_share));
    run.set(
        "bench.trace_overhead_pct.infer",
        100.0 * (traced_p50 - plain_p50) / plain_p50,
    );
    run.notes.push(format!(
        "vgg16: {} untraced + {} profiled inferences, interleaved P T T P",
        plain_ms.len(),
        traced_ms.len()
    ));

    let mut par = model.new_context(true)?;
    let par_calls = sut::with_pool(run.cfg.threads, || {
        timed(run.budget(SHARE_VGG_PARALLEL), 3, |k| {
            let i = order[k % order.len()];
            let logits = model.infer(&mut par, i)?;
            run.tally.answer(pins.matches(i, &logits));
            Ok(())
        })
    })?;
    let par_ms = durations(&par_calls, 1e3);
    run.set("graph.parallel_speedup", plain_p50 / median(&par_ms));
    Ok(log)
}

/// graph on tiered_cnn: what batching over `threads` buys over one thread.
fn tiered(run: &mut Run) -> Result<SpanLog, String> {
    let pins = run
        .golden
        .pins(ModelKind::TieredCnn.key(), run.cfg.data_seed())?;
    let model = Model::build(ModelKind::TieredCnn, run.cfg.data_seed())?;
    let order = request_order(run.cfg.seed, model.input_count());
    let half = run.budget(SHARE_TIERED) / 2.0;
    let mut ctx = model.new_context(false)?;
    let mut log = SpanLog::new(run.origin, 0);
    let single = timed(half, 10, |k| {
        let i = order[k % order.len()];
        let logits = model.infer(&mut ctx, i)?;
        run.tally.answer(pins.matches(i, &logits));
        Ok(())
    })?;
    let single_per_s = 1.0 / median(&durations(&single, 1.0));
    let batches = sut::with_pool(run.cfg.threads, || {
        timed(half, 10, |k| {
            let idx = batch_indices(&order, k);
            for (i, r) in idx.iter().zip(model.infer_batch(&idx)) {
                match r {
                    Ok(logits) => run.tally.answer(pins.matches(*i, &logits)),
                    Err(_) => run.tally.failure(),
                }
            }
            Ok(())
        })
    })?;
    for (k, (t0, t1)) in batches.iter().enumerate() {
        log.push("try_infer_batch", "graph", *t0, *t1, None, k as u64);
    }
    let batch_s = durations(&batches, 1.0);
    run.set(
        "graph.batch_scaling",
        BATCH as f64 / median(&batch_s) / single_per_s,
    );
    Ok(log)
}

/// serve, net and telemetry on small_cnn: the direct -> serve -> wire
/// ladder with one caller and the same inputs, then `threads` clients with
/// telemetry and a flight recorder on and off, interleaved.
fn small_ladder(run: &mut Run) -> Result<SpanLog, String> {
    let pins = run
        .golden
        .pins(ModelKind::SmallCnn.key(), run.cfg.data_seed())?;
    let order = request_order(run.cfg.seed, ModelKind::SmallCnn.input_count());
    let source = Source::generate(ModelKind::SmallCnn, run.cfg.data_seed());
    let stack = HttpStack::start(&source, 2, false)?;
    let mut log = SpanLog::new(run.origin, 0);

    // Rung 1: the engine called directly.
    let mut ctx = stack.model.new_context(false)?;
    let direct = timed(run.budget(SHARE_DIRECT), 10, |k| {
        let i = order[k % order.len()];
        let logits = stack.model.infer(&mut ctx, i)?;
        run.tally.answer(pins.matches(i, &logits));
        Ok(())
    })?;
    let direct_us = durations(&direct, 1e6);

    // Rung 2: the same call through the serving runtime.
    let served = timed(run.budget(SHARE_SERVE), 10, |k| {
        let i = order[k % order.len()];
        match stack.serving.submit(i, None).map(Pending::wait) {
            Ok(Outcome::Ok(logits)) => run.tally.answer(pins.matches(i, &logits)),
            _ => run.tally.failure(),
        }
        Ok(())
    })?;
    let serve_us = durations(&served, 1e6);
    let mut request = 0u64;
    for (name, layer, calls) in [
        ("try_infer", "graph", &direct),
        ("submit+wait", "serve", &served),
    ] {
        for (t0, t1) in calls {
            log.push(name, layer, *t0, *t1, None, request);
            request += 1;
        }
    }

    // Rung 3: the same call over the wire, in alternating blocks with and
    // without client-side spans.
    let mut client = Client::connect(stack.addr)?;
    let (mut wire_us, mut traced_us) = (Vec::new(), Vec::new());
    let (mut write_us, mut wait_us, mut read_us) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut block = 0usize;
    while start.elapsed().as_secs_f64() < run.budget(SHARE_WIRE) {
        let traced = block % 2 == 1;
        for _ in 0..200 {
            let i = order[request as usize % order.len()];
            let t0 = Instant::now();
            let reply = client.roundtrip(&stack.requests[i])?;
            let us = (reply.done - t0).as_secs_f64() * 1e6;
            if traced {
                let parent = log.push("POST /v1/infer", "net", t0, reply.done, None, request);
                log.push(
                    "write",
                    "net.client",
                    t0,
                    reply.written,
                    Some(parent),
                    request,
                );
                log.push(
                    "wait_first_byte",
                    "net.client",
                    reply.written,
                    reply.first_byte,
                    Some(parent),
                    request,
                );
                log.push(
                    "read_body",
                    "net.client",
                    reply.first_byte,
                    reply.done,
                    Some(parent),
                    request,
                );
                write_us.push((reply.written - t0).as_secs_f64() * 1e6);
                wait_us.push((reply.first_byte - reply.written).as_secs_f64() * 1e6);
                read_us.push((reply.done - reply.first_byte).as_secs_f64() * 1e6);
                traced_us.push((Instant::now() - t0).as_secs_f64() * 1e6);
            } else {
                wire_us.push(us);
            }
            run.tally
                .answer(reply.status == 200 && pins.matches_bytes(i, &reply.body));
            request += 1;
        }
        block += 1;
    }
    if traced_us.is_empty() {
        return Err("--seconds too short for the wire ladder".into());
    }
    let wire_sorted = sorted(wire_us);
    let (direct_p50, serve_p50, wire_p50) =
        (median(&direct_us), median(&serve_us), p50(&wire_sorted));
    run.set("serve.roundtrip_p50_us", serve_p50);
    run.set("serve.overhead_p50_us", serve_p50 - direct_p50);
    run.set("net.overhead_p50_us", wire_p50 - serve_p50);
    run.set("net.wire_p50_us", wire_p50);
    let (tail, q) = stats::highest_supported_tail(wire_sorted.len());
    run.set("net.wire_p99_us", percentile(&wire_sorted, 0.99));
    run.notes.push(format!(
        "small_cnn ladder, 1 caller: direct p50 {direct_p50:.1}us (n={}), serve {serve_p50:.1}us (n={}), wire {wire_p50:.1}us (n={}, highest supported tail {tail}={:.1}us)",
        direct_us.len(),
        serve_us.len(),
        wire_sorted.len(),
        percentile(&wire_sorted, q),
    ));
    run.set("net.client_write_us", median(&write_us));
    run.set("net.client_wait_first_byte_us", median(&wait_us));
    run.set("net.client_read_body_us", median(&read_us));
    run.set(
        "bench.trace_overhead_pct.wire",
        100.0 * (median(&traced_us) - wire_p50) / wire_p50,
    );
    drop(client);

    let connects = sorted(
        (0..20)
            .map(|_| {
                let t0 = Instant::now();
                Client::connect(stack.addr).map(|_| t0.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<Result<Vec<f64>, String>>()?,
    );
    run.set("net.connect_us", p50(&connects));
    let head = infer_head(stack.requests[0].len()).into_bytes();
    let secs = time_calls(0.02, 10, || {
        for _ in 0..1000 {
            std::hint::black_box(sut::parse_head(std::hint::black_box(&head)));
        }
    });
    run.set("net.parse_head_ns", p50(&secs) * 1e9 / 1000.0);

    let stats = stack.serving.stats();
    run.set("serve.queue_wait_p50_us", stats.queue_wait_p50_us);
    run.set("serve.batch_wait_p50_us", stats.batch_wait_p50_us);
    run.set("serve.exec_p50_us", stats.exec_p50_us);
    run.set("serve.batch_size_mean", stats.batch_size_mean);
    run.set("serve.exec_share_of_wire", stats.exec_p50_us / wire_p50);

    // Telemetry cost: model telemetry + flight recorder on (A) against the
    // plain stack (B), `threads` closed-loop clients, in the order A B B A A B.
    let with = HttpStack::start(&source, 2, true)?;
    let block_s = run.budget(SHARE_TELEMETRY) / 6.0;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pair in 0..3 {
        let mut sides = [(&with, &mut on), (&stack, &mut off)];
        if pair % 2 == 1 {
            sides.reverse();
        }
        for (side, rates) in sides {
            let (samples, tally) = http_phase(side, &pins, &order, run.cfg.threads, block_s)?;
            run.tally.add(tally);
            rates.push(samples.len() as f64 / block_s);
        }
    }
    run.set("net.rps", median(&off));
    run.set(
        "telemetry.overhead_pct",
        100.0 * (median(&off) - median(&on)) / median(&off),
    );
    let snaps = sorted((0..20).filter_map(|_| with.model.snapshot_us()).collect());
    run.set("telemetry.snapshot_us", p50(&snaps));
    with.shutdown()?;
    stack.shutdown()?;
    Ok(log)
}

fn record_spans(log: &mut SpanLog, rung_start: Instant, records: &[Record]) {
    let base = log.ns(rung_start);
    let at = |s: f64| base + (s * 1e9) as u64;
    for r in records {
        let due = at(r.due_s);
        let sent = at(r.due_s + r.late_ms / 1e3);
        let done = at(r.due_s + r.latency_ms / 1e3);
        let name = match r.verdict {
            Verdict::Ok => "request ok",
            Verdict::Mismatch => "request mismatch",
            Verdict::Refused => "request refused",
            Verdict::Deadline => "request deadline",
            Verdict::Failed => "request failed",
        };
        let parent = log.push_ns(name, "serve", due, done, None, r.seq);
        log.push_ns("generator_late", "loadgen", due, sent, Some(parent), r.seq);
    }
}

/// serve under open-loop load: the whole rate ladder, every rung always
/// run, each timed from due time.
fn open_ladder(run: &mut Run) -> Result<SpanLog, String> {
    let pins = run
        .golden
        .pins(ModelKind::TieredCnn.key(), run.cfg.data_seed())?;
    let order = request_order(run.cfg.seed, ModelKind::TieredCnn.input_count());
    let mut tally = Tally::default();
    let model = Arc::new(Model::build(ModelKind::TieredCnn, run.cfg.data_seed())?);
    let mut log = SpanLog::new(run.origin, 0);
    let rung_len = Duration::from_secs_f64(run.budget(SHARE_RUNG));
    let mut rungs: Vec<(RungSummary, Vec<Record>)> = Vec::new();
    let mut seq = 0u64;
    for rate in LADDER_RPS {
        // A fresh server per rung: once an overloaded server starts
        // shedding on deadline misses it never recovers (see
        // `workloads::tiered_serve_open`), and every later rung would
        // measure that instead of its own rate.
        let serving = start_server(&model, run.cfg.threads, &pins, &mut tally);
        let target = ServeTarget {
            serving: &serving,
            pins: &pins,
            order: &order,
            deadline: Some(OPEN_DEADLINE),
        };
        let rung_start = Instant::now();
        let records = openloop::run_rung(&target, f64::from(rate), rung_len, seq);
        seq += records.len() as u64;
        record_spans(&mut log, rung_start, &records);
        rungs.push((
            openloop::summarise(&records, f64::from(rate), rung_len, LADDER_WINDOWS),
            records,
        ));
        if rate == 600 {
            let stats = serving.stats();
            run.set("serve.open_queue_wait_p50_us", stats.queue_wait_p50_us);
            run.set("serve.open_batch_size_mean", stats.batch_size_mean);
        }
        serving.shutdown()?;
    }

    let rung = |rate: u32| -> &(RungSummary, Vec<Record>) {
        rungs
            .iter()
            .find(|(s, _)| s.rate_rps == f64::from(rate))
            .unwrap_or_else(|| unreachable!("rate {rate} is on the ladder"))
    };
    let (r400, _) = rung(400);
    run.set("serve.p50_ms_r400", percentile(&r400.ok_latency_ms, 0.5));
    run.set("serve.p90_ms_r400", percentile(&r400.ok_latency_ms, 0.9));
    run.set(
        "serve.within_slo_share_r600",
        median(&rung(600).0.within_slo_share),
    );
    let (r2000, records_2000) = rung(2000);
    run.set(
        "serve.within_slo_share_r2000",
        median(&r2000.within_slo_share),
    );
    run.set("serve.ok_per_s_r2000", median(&r2000.ok_per_s));
    run.set(
        "serve.refused_share_r2000",
        r2000.refused as f64 / r2000.offered.max(1) as f64,
    );
    // An `Ok` that took longer than its budget from the moment it was
    // submitted: the server answered a request it had promised to drop.
    let oks: Vec<&Record> = records_2000
        .iter()
        .filter(|r| r.verdict == Verdict::Ok)
        .collect();
    let late_ok = oks
        .iter()
        .filter(|r| r.latency_ms - r.late_ms > OPEN_DEADLINE.as_secs_f64() * 1e3)
        .count();
    run.set(
        "serve.late_ok_share_r2000",
        late_ok as f64 / oks.len().max(1) as f64,
    );
    let summaries: Vec<RungSummary> = rungs.iter().map(|(s, _)| s.clone()).collect();
    run.set("serve.slo_rate_rps", openloop::slo_rate(&summaries));
    let mut late_max: f64 = 0.0;
    for (s, _) in &rungs {
        late_max = late_max.max(s.late_ms.last().copied().unwrap_or(0.0));
        // A refusal or a deadline drop is the typed answer the 50 ms budget
        // asks for, on a calm rung too when the host stalls or runs slow:
        // the rung's `within_slo_share` measures it. Only an untyped
        // failure or a wrong answer counts against the run.
        tally.attempted += s.offered as u64;
        tally.mismatched += s.mismatched as u64;
        tally.failed += s.failed as u64;
        run.notes.push(format!(
            "open r{:<4.0} offered {:>5} ok {:>5} refused {:>5} deadline {:>4} within{}ms {:.4} p50 {:>7.3}ms late_p50 {:.3}ms pass={}",
            s.rate_rps,
            s.offered,
            s.ok_latency_ms.len(),
            s.refused,
            s.deadline,
            openloop::SLO_MS,
            median(&s.within_slo_share),
            percentile(&s.ok_latency_ms, 0.5),
            median(&s.late_ms),
            openloop::rung_passes(&s.within_slo_share, &s.late_p50_ms),
        ));
    }
    for rate in [400, 600, 2000] {
        run.set(
            format!("loadgen.late_p90_ms_r{rate}"),
            percentile(&rung(rate).0.late_ms, 0.9),
        );
    }
    run.set("loadgen.late_max_ms", late_max);
    run.tally.add(tally);
    Ok(log)
}

/// Runs the whole ledger.
pub fn run(cfg: &RunCfg, golden: &Golden) -> Result<Ledger, String> {
    let mut run = Run {
        cfg,
        golden,
        origin: Instant::now(),
        metrics: BTreeMap::new(),
        tally: Tally::default(),
        notes: Vec::new(),
    };
    let fc_ops = micro(&mut run);
    let isolated_ms = isolated(&mut run, fc_ops);
    let vgg_log = vgg(&mut run, &isolated_ms)?;
    let tiered_log = tiered(&mut run)?;
    let http_log = small_ladder(&mut run)?;
    let open_log = open_ladder(&mut run)?;
    Ok(Ledger {
        metrics: run.metrics,
        traces: vec![
            ("vgg16_latency", vgg_log),
            ("tiered_batch", tiered_log),
            ("small_http_closed", http_log),
            ("tiered_serve_open", open_log),
        ],
        tally: run.tally,
        notes: run.notes,
    })
}
