//! The paper's evaluation as one report: Tables I–V, Figs. 7–11 and the
//! §III-A AIT analysis, each row with the paper's value beside ours,
//! printed as one table and written to `results/paper.json`.
//!
//! `cargo run --release -p bitflow-bench --bin paper [-- --quick]`.
//! `--quick` shrinks the workloads (operator maps 4× smaller, a shorter
//! training run, no fc6 press), so its rows carry no ratio.

use bitflow_bench::report::Report;
use bitflow_bench::runners::{kernel, scheduled_level, time_default, Impl};
use bitflow_bench::timing::{measure, measure_interleaved, with_pool};
use bitflow_bench::workloads::{prepare, table_iv, OpKind, Workload};
use bitflow_gemm::pack::{pack_b_fused, pack_b_staged};
use bitflow_gpumodel::GpuModel;
use bitflow_graph::models::{vgg16, vgg19};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::{CompiledModel, NetworkSpec};
use bitflow_ops::ait::ConvAit;
use bitflow_ops::ConvParams;
use bitflow_simd::scheduler::ConvGeometry;
use bitflow_simd::{features, VectorScheduler};
use bitflow_tensor::{Bit64, FilterShape, Layout, Tensor};
use bitflow_train::data::{glyphs, textures, Dataset, SIDE};
use bitflow_train::export::export;
use bitflow_train::layers::Mode;
use bitflow_train::model::{Model, TrainConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::mem::size_of;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let quick = bitflow_bench::quick_mode();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut r = Report::new(quick);
    types(&mut r);
    table3(&mut r, quick);
    operators(&mut r, quick, host);
    table5(&mut r, quick);
    fig11(&mut r, quick, host);
    ait(&mut r);
    r.write()
}

/// Tables I–II. Table I's instructions are `bitflow_simd::kernels`' module
/// docs, and which of them this host has is `paper.json`'s fingerprint;
/// its row is the widest xor+popcount path. Table II's types are
/// doc-tested in `bitflow_simd::vec_u` and on `Bit64`; its rows are their
/// sizes against the paper's unions.
fn types(r: &mut Report) {
    r.artifact("Table I");
    r.row("widest xor+popcount", None);
    let widest = features().max_width_bits() as f64;
    r.measured(("width", "bits"), Some(512.0), widest);
    r.artifact("Table II");
    let mut size = |name: &str, paper: f64, bytes: usize| {
        r.row(name, None);
        r.measured(("size", "bytes"), Some(paper), bytes as f64);
    };
    size("Bit64 (bit64_u)", 8.0, size_of::<Bit64>());
    #[cfg(target_arch = "x86_64")]
    {
        use bitflow_simd::vec_u::{M128U, M256U, M512U};
        size("M128U (m128_u)", 16.0, size_of::<M128U>());
        size("M256U (m256_u)", 32.0, size_of::<M256U>());
        size("M512U (m512_u)", 64.0, size_of::<M512U>());
    }
}

/// Table III: the fused press of a VGG-16 FC matrix against the staged
/// transpose-then-pack, alternated, and a sequential read of the same
/// floats, whose bandwidth is the press's roof. fc6 (411 MB of floats, as
/// much again for the staged copy) runs in full mode only.
fn table3(r: &mut Report, quick: bool) {
    r.artifact("Table III");
    let mut rng = StdRng::seed_from_u64(50);
    let budget = Duration::from_millis(if quick { 300 } else { 1600 });
    let matrices = [
        ("fc6", 25088, 4096),
        ("fc7", 4096, 4096),
        ("fc8", 4096, 1000),
    ];
    for &(name, n, k) in &matrices[usize::from(quick)..] {
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        assert_eq!(pack_b_fused(&b, n, k), pack_b_staged(&b, n, k), "{name}");
        let fused = || _ = black_box(pack_b_fused(&b, n, k));
        let staged = || _ = black_box(pack_b_staged(&b, n, k));
        let (fused, staged) = measure_interleaved(fused, staged, budget, 3, 50);
        // A wrapping integer sum LLVM vectorizes: bound by memory, not by
        // a float add chain.
        let sum = || {
            black_box(&b)
                .iter()
                .fold(0u32, |s, x| s.wrapping_add(x.to_bits()))
        };
        let read = measure(|| _ = black_box(sum()), budget / 4, 3, 50);
        let gb = (n * k * 4) as f64 / 1e9;
        r.row(format!("{name} {n}x{k}"), Some(1));
        r.measured(("fused", "ms"), None, ms(fused));
        let speedup = staged.as_secs_f64() / fused.as_secs_f64();
        r.measured(("speedup", "x staged"), None, speedup);
        r.measured(("fused", "GB/s"), None, gb / fused.as_secs_f64());
        r.measured(("read", "GB/s"), None, gb / read.as_secs_f64());
    }
}

/// One Table IV operator, timed once for Figs. 7–10.
struct Op {
    w: Workload,
    kernel: String,
    float: f64,
    unopt: f64,
    lane: f64,
    /// (threads, ms) of the engine's call, at each count the host can run.
    bitflow: Vec<(usize, f64)>,
}

/// Table IV and Figs. 7–10, from one timing of each operator: float and
/// the unvectorized binary kernel on one thread, the engine's call at each
/// thread count Figs. 8–9 ask for that the host can run, and — where the
/// engine runs a conv on the AMX body — the vector lane loop it replaces,
/// so that Fig. 7's speed-up compares vectorization alone.
fn operators(r: &mut Report, quick: bool, host: usize) {
    let counts = |paper: &[usize]| Vec::from_iter(BTreeSet::from_iter([paper, &[host]].concat()));
    let (fig8, fig9) = (counts(&[1, 4]), counts(&[1, 4, 16, 64]));
    let time = |w: Workload| {
        let w = if quick { w.shrunk(4) } else { w };
        eprintln!("[timing {}]", w.name);
        let p = prepare(&w, 42);
        let t = |imp, threads| ms(time_default(imp, &p, threads));
        let runs = fig9.iter().filter(|&&n| n <= host);
        let bitflow: Vec<_> = runs.map(|&n| (n, t(Impl::BitFlow, n))).collect();
        let lane = match p.conv.as_ref().and_then(|c| c.amx.as_ref()) {
            Some(_) => t(Impl::BitFlowForced(scheduled_level(&p)), 1),
            None => bitflow[0].1,
        };
        let (float, unopt) = (t(Impl::Float, 1), t(Impl::BinaryUnopt, 1));
        Op {
            w,
            kernel: kernel(&p),
            float,
            unopt,
            lane,
            bitflow,
        }
    };
    let ops: Vec<Op> = table_iv().into_iter().map(time).collect();

    r.artifact("Table IV");
    let numel = |g: ConvGeometry| (g.out_h * g.out_w * g.out_c) as f64;
    for Op { w, kernel, .. } in &ops {
        let out = match w.kind {
            OpKind::Conv { k } => numel(w.params.conv_out(w.input_shape(), k)),
            OpKind::Fc { k } => k as f64,
            OpKind::Pool => numel(w.params.pool_out(w.input_shape())),
        };
        r.row(format!("{} {}x{}x{} {kernel}", w.name, w.h, w.w, w.c), None);
        r.measured(("out", "elements"), None, out);
    }
    // Fig. 6: the register the scheduler picks for C channels; on the
    // paper's Xeon Phi, C bits wide, and C = 3 padded to a 64-bit word.
    let s = VectorScheduler::new();
    for c in [3, 64, 128, 256, 512] {
        let bits = s.select(c).level.bits() as f64;
        r.row(format!("Fig. 6 mapping, C={c}"), None);
        r.measured(("register", "bits"), Some(c.max(64) as f64), bits);
    }

    r.artifact("Fig. 7");
    for op in &ops {
        let paper = match op.w.name {
            "conv2.1" => Some(1.0),
            "conv3.1" => Some(1.4),
            "conv4.1" => Some(1.9),
            "conv5.1" => Some(2.5),
            "fc6" | "fc7" => Some(2.3),
            _ => None,
        };
        r.row(format!("{} on {}", op.w.name, op.kernel), Some(1));
        r.measured(("float", "ms"), None, op.float);
        r.measured(("unopt", "ms"), None, op.unopt);
        r.measured(("lane", "ms"), None, op.lane);
        r.measured(("bitflow", "ms"), None, op.bitflow[0].1);
        r.measured(("accel", "x float"), None, op.float / op.bitflow[0].1);
        r.measured(("vec_speedup", "x unopt"), paper, op.unopt / op.lane);
    }
    let mean = ops.iter().map(|op| op.unopt / op.lane).sum::<f64>() / ops.len() as f64;
    r.row("mean of the eight", Some(1));
    r.measured(("vec_gain", "%"), Some(83.0), (mean - 1.0) * 100.0);

    for (artifact, counts) in [("Fig. 8", &fig8), ("Fig. 9", &fig9)] {
        r.artifact(artifact);
        for op in &ops {
            let name = op.w.name;
            let paper = |n| (artifact == "Fig. 9" && name == "conv2.1" && n == 64).then_some(49.3);
            let at = |n| op.bitflow.iter().find(|t| t.0 == n).map(|t| t.1);
            let note = (name == "conv5.1").then_some(" (paper: saturates after 4)");
            r.row(format!("{name}{}", note.unwrap_or_default()), None);
            r.scaling(counts, host, paper, |n| op.float / at(n).expect("timed"));
        }
    }

    // The GPU model prices the operator's measured geometry, shrunk or not.
    r.artifact("Fig. 10");
    let gpu = GpuModel::gtx1080();
    for Op { w, bitflow, .. } in &ops {
        let modelled = match w.kind {
            OpKind::Conv { k } => {
                let f = FilterShape::new(k, 3, 3, w.c);
                gpu.conv_time(w.input_shape(), f, ConvParams::VGG_CONV)
            }
            OpKind::Fc { k } => gpu.fc_time(w.flat_n(), k),
            OpKind::Pool => gpu.pool_time(w.input_shape(), ConvParams::VGG_POOL),
        };
        let &(threads, t) = bitflow.last().expect("one thread always runs");
        r.row(w.name, Some(threads));
        r.modelled(("gtx1080", "ms"), None, ms(modelled));
        r.measured(("bitflow", "ms"), None, t);
    }
}

/// Table V, scaled down (DESIGN.md §3): one small conv-net trained float
/// and binary (STE) on synthetic sets, each rung averaged over seed-pairs,
/// the binary model also run through the engine; and the real VGG-16's
/// size, float and packed.
fn table5(r: &mut Report, quick: bool) {
    r.artifact("Table V");
    let (n_train, n_test, epochs, reps) = if quick {
        (500, 200, 3, 1)
    } else {
        (2000, 500, 12, 2)
    };
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        ..TrainConfig::default()
    };
    // Glyph noise sets how much input binarization destroys (float models
    // keep amplitude): three rungs for the paper's MNIST / CIFAR-10 /
    // ImageNet top-5 columns, then a structurally different texture set.
    let data = |rung: usize, n, rep: u64, test: u64| {
        let seed = 10 * rep + test;
        match rung {
            0..=2 => glyphs(n, [0.45, 0.6, 0.7][rung], 1 + 2 * rung as u64 + seed),
            _ => textures(n, 0.33, 0.47, 3000 + 1000 * rep + test),
        }
    };
    let rungs = [
        ("glyphs n=0.45 (MNIST)", Some((99.4, 98.2))),
        ("glyphs n=0.60 (CIFAR-10)", Some((92.5, 87.8))),
        ("glyphs n=0.70 (ImageNet top-5)", Some((88.4, 76.8))),
        ("block textures (no paper column)", None),
    ];
    for (rung, (name, paper)) in rungs.into_iter().enumerate() {
        eprintln!("[training {name}]");
        let (mut float, mut binary) = (0.0, 0.0);
        for rep in 0..reps {
            let (train, test) = (data(rung, n_train, rep, 0), data(rung, n_test, rep, 1));
            let fit = |mode, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut model = Model::conv_net(SIDE, 1, &[16], 10, mode, &mut rng);
                let _ = model.fit(&train, &cfg);
                model
            };
            float += fit(Mode::Float, 100 + rep).evaluate(&test) as f64;
            let mut model = fit(Mode::Binary, 200 + rep);
            let acc = model.evaluate(&test);
            let (spec, weights) = export(&model);
            let engine = engine_accuracy(&spec, &weights, &test);
            assert_eq!(acc, engine, "engine must reproduce the trained model");
            binary += acc as f64;
        }
        let (float, binary) = (float / reps as f64 * 100.0, binary / reps as f64 * 100.0);
        r.row(name, None);
        r.measured(("float", "%"), paper.map(|p| p.0), float);
        r.measured(("binary", "%"), paper.map(|p| p.1), binary);
        r.measured(("gap", "points"), paper.map(|p| p.0 - p.1), float - binary);
    }
    let w = NetworkWeights::random(&vgg16(), &mut StdRng::seed_from_u64(0));
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    r.row("VGG-16 weights", None);
    r.measured(("float", "MB"), Some(528.0), mb(w.float_bytes()));
    r.measured(("packed", "MB"), Some(16.5), mb(w.packed_bytes()));
}

/// The share of `data` the compiled engine classifies correctly.
fn engine_accuracy(spec: &NetworkSpec, weights: &NetworkWeights, data: &Dataset) -> f32 {
    let model = CompiledModel::try_compile(spec, weights).expect("exported model compiles");
    let mut ctx = model.try_new_context().expect("context allocates");
    let correct = (0..data.len()).filter(|&i| {
        let img = Tensor::from_vec(data.image(i).to_vec(), spec.input, Layout::Nhwc);
        let logits = model.try_infer(&mut ctx, &img).expect("inference");
        let best = (0..logits.len()).max_by(|&a, &b| logits[a].total_cmp(&logits[b]));
        best == Some(data.labels[i])
    });
    correct.count() as f32 / data.len() as f32
}

/// Fig. 11: binarized VGG-16/19 end to end on one thread and on every CPU,
/// beside the GTX 1080 model and the paper's 64-core Xeon Phi.
fn fig11(r: &mut Report, quick: bool, host: usize) {
    r.artifact("Fig. 11");
    let gpu = GpuModel::gtx1080();
    let budget = Duration::from_millis(if quick { 300 } else { 2000 });
    for (spec, paper_gpu, paper_phi) in [(vgg16(), 12.87, 11.82), (vgg19(), 14.92, 13.68)] {
        let mut rng = StdRng::seed_from_u64(7);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = CompiledModel::try_compile(&spec, &weights).expect("VGG compiles");
        let mut ctx = model.try_new_context().expect("context allocates");
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let mut time = |threads: usize| {
            ctx.parallel = threads > 1;
            let infer = || _ = black_box(model.try_infer(&mut ctx, &input).expect("inference"));
            ms(with_pool(threads, || measure(infer, budget, 3, 30)))
        };
        let modelled = ms(gpu.network_time(&spec));
        r.row(&spec.name, Some(1));
        r.modelled(("gtx1080", "ms"), Some(paper_gpu), modelled);
        r.measured(("bitflow", "ms"), None, time(1));
        r.row(format!("{} (paper: 64 Phi cores)", spec.name), Some(host));
        r.measured(("bitflow", "ms"), Some(paper_phi), time(host));
    }
}

/// §III-A: the paper's Eqs. 4–8 for the four Table IV convs: image-to-
/// column reaches only part of a conv's intrinsic intensity, and less
/// again after 64× packing.
fn ait(r: &mut Report) {
    r.artifact("§III-A AIT");
    for w in table_iv() {
        let OpKind::Conv { k } = w.kind else { continue };
        let f = FilterShape::new(k, 3, 3, w.c);
        let fp = ConvAit::full_precision(w.input_shape(), f);
        r.row(w.name, None);
        r.modelled(("ait_intrinsic", "op/elem"), None, fp.intrinsic());
        r.modelled(("ait_im2col", "op/elem"), None, fp.im2col());
        let binary = ConvAit::binary(w.input_shape(), f, 64.0);
        r.modelled(("bin_ait_im2col", "op/elem"), None, binary.im2col());
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
