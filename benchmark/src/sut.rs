//! The system under test: **every** call into a `bitflow-*` crate lives in
//! this file, so a later change to the repo's API (ROADMAP: "collapse the
//! API and config surface") is a one-file change to the benchmark.
//!
//! Nothing here reads the environment: `PlanOptions`, `ServerConfig` and
//! `NetConfig` are built field by field (never `from_env`), and `main`
//! removes every `BITFLOW_*` variable before the first call.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use bitflow_graph::models::{small_cnn, tiered_cnn, vgg16};
use bitflow_graph::{
    BitFlowError, CompiledModel, InferenceContext, NetworkSpec, NetworkWeights, PlanOptions,
};
use bitflow_net::{NetConfig, NetServer};
use bitflow_ops::binary::{
    binary_max_pool_into, fold_bn_into_thresholds, pressed_conv_sign_scratch_into, BinaryFcWeights,
    SignThresholds,
};
use bitflow_serve::{
    BreakerConfig, GovernorConfig, ResponseHandle, Server, ServerConfig, ShedPolicy,
};
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::VectorScheduler;
use bitflow_telemetry::{FlightRecorder, RecorderConfig, StageSnapshot};
use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three models the workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Binary VGG-16, 224×224×3 (paper Fig. 11).
    Vgg16,
    /// 32×32×3, C 64→128→256→512: one conv per scheduler tier.
    TieredCnn,
    /// 8×8×16, one conv, one pool, one FC: ≈20 µs of engine time.
    SmallCnn,
}

impl ModelKind {
    /// Key used in `golden.json`.
    pub fn key(self) -> &'static str {
        match self {
            ModelKind::Vgg16 => "vgg16",
            ModelKind::TieredCnn => "tiered_cnn",
            ModelKind::SmallCnn => "small_cnn",
        }
    }

    fn spec(self) -> NetworkSpec {
        match self {
            ModelKind::Vgg16 => vgg16(),
            ModelKind::TieredCnn => tiered_cnn(),
            ModelKind::SmallCnn => small_cnn(),
        }
    }

    /// Distinct inputs each workload cycles through.
    pub fn input_count(self) -> usize {
        match self {
            ModelKind::Vgg16 | ModelKind::SmallCnn => 16,
            ModelKind::TieredCnn => 64,
        }
    }
}

/// One per-operator timing of a profiled inference.
pub type OpTimes = Vec<(String, Duration)>;

/// Seeded weights and inputs of one model: the benchmark's generated
/// input, made once per run and handed to the program under test.
pub struct Source {
    /// Which network this is.
    pub kind: ModelKind,
    spec: NetworkSpec,
    weights: NetworkWeights,
    inputs: Arc<Vec<Tensor>>,
}

impl Source {
    /// Generates weights (random batch-norm, so threshold folding is
    /// exercised) and inputs from `data_seed`.
    pub fn generate(kind: ModelKind, data_seed: u64) -> Self {
        let spec = kind.spec();
        let mut rng = StdRng::seed_from_u64(data_seed ^ 0xB17F_10A5);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let inputs = (0..kind.input_count())
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        Self {
            kind,
            spec,
            weights,
            inputs: Arc::new(inputs),
        }
    }

    /// `try_compile_with` explicit default plan options: binarize, pack and
    /// fold everything the engine prepares ahead of the first request.
    /// Callers time this for `setup_s` / `graph.compile_ms`.
    pub fn compile(&self) -> Result<Model, String> {
        let compiled =
            CompiledModel::try_compile_with(&self.spec, &self.weights, &PlanOptions::default())
                .map_err(|e| format!("compile {}: {e}", self.kind.key()))?;
        Ok(Model {
            compiled: Arc::new(compiled),
            inputs: Arc::clone(&self.inputs),
        })
    }
}

/// A compiled model plus its seeded inputs.
pub struct Model {
    compiled: Arc<CompiledModel>,
    inputs: Arc<Vec<Tensor>>,
}

/// A per-caller inference session.
pub struct Ctx(InferenceContext);

impl Model {
    /// [`Source::generate`] then [`Source::compile`], for callers that do
    /// not time set-up.
    pub fn build(kind: ModelKind, data_seed: u64) -> Result<Self, String> {
        Source::generate(kind, data_seed).compile()
    }

    /// Number of distinct inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// A fresh session; `parallel` selects the intra-op rayon variants.
    pub fn new_context(&self, parallel: bool) -> Result<Ctx, String> {
        let mut ctx = self
            .compiled
            .try_new_context()
            .map_err(|e| format!("context: {e}"))?;
        ctx.parallel = parallel;
        Ok(Ctx(ctx))
    }

    /// Direct path: one inference of input `i`.
    pub fn infer(&self, ctx: &mut Ctx, i: usize) -> Result<Vec<f32>, String> {
        self.compiled
            .try_infer(&mut ctx.0, &self.inputs[i])
            .map_err(|e| e.to_string())
    }

    /// Direct path with the engine's own per-operator wall-clock timings.
    pub fn infer_profiled(&self, ctx: &mut Ctx, i: usize) -> Result<(Vec<f32>, OpTimes), String> {
        self.compiled
            .try_infer_profiled(&mut ctx.0, &self.inputs[i])
            .map_err(|e| e.to_string())
    }

    /// Batch path: inputs `idx` in one `try_infer_batch` call over the
    /// installed rayon pool (see [`with_pool`]).
    pub fn infer_batch(&self, idx: &[usize]) -> Vec<Result<Vec<f32>, String>> {
        let batch: Vec<Tensor> = idx.iter().map(|&i| self.inputs[i].clone()).collect();
        self.compiled
            .try_infer_batch(&batch)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect()
    }

    /// Activation/scratch bytes of one session.
    pub fn context_bytes(&self) -> usize {
        self.compiled.context_bytes()
    }

    /// Packed weight bytes held by the compiled model.
    pub fn packed_model_bytes(&self) -> usize {
        self.compiled.packed_model_bytes()
    }

    /// The request body the HTTP front-end expects for input `i`.
    pub fn encode_input(&self, i: usize) -> Vec<u8> {
        bitflow_tensor::io::encode_tensor(&self.inputs[i]).to_vec()
    }

    /// Enables per-operator telemetry on this model (idempotent, cannot be
    /// turned off again: build a second model for the "without" side).
    pub fn enable_telemetry(&self) {
        let _ = self.compiled.enable_telemetry();
    }

    /// Microseconds one `metrics_snapshot` + `to_prometheus` takes, or
    /// `None` while telemetry is off.
    pub fn snapshot_us(&self) -> Option<f64> {
        let t0 = std::time::Instant::now();
        let snap = self.compiled.metrics_snapshot()?;
        let text = snap.to_prometheus();
        std::hint::black_box(text.len());
        Some(t0.elapsed().as_secs_f64() * 1e6)
    }
}

/// Runs `f` with a rayon pool of `threads` installed.
pub fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(pool) => pool.install(f),
        Err(_) => f(),
    }
}

/// Logical cores visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Serving runtime
// ---------------------------------------------------------------------------

/// How a submitted request ended.
#[derive(Debug)]
pub enum Outcome {
    /// Logits came back.
    Ok(Vec<f32>),
    /// Refused at admission (queue full, shedding, draining, quota, memory).
    Refused(String),
    /// Admitted, then dropped or cancelled by its deadline.
    Deadline,
    /// Any other typed error.
    Failed(String),
}

/// An admitted request.
pub struct Pending(ResponseHandle);

impl Pending {
    /// Blocks until the request resolves.
    pub fn wait(self) -> Outcome {
        match self.0.wait() {
            Ok(logits) => Outcome::Ok(logits),
            Err(BitFlowError::DeadlineExceeded) => Outcome::Deadline,
            Err(e) => Outcome::Failed(e.to_string()),
        }
    }
}

/// Serving counters read back after a run.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Median admission-queue wait, µs.
    pub queue_wait_p50_us: f64,
    /// Median batch-formation wait, µs.
    pub batch_wait_p50_us: f64,
    /// Median engine execution time per request, µs.
    pub exec_p50_us: f64,
    /// Mean served micro-batch size.
    pub batch_size_mean: f64,
}

/// Median of a sparse stage histogram: the upper edge of the bucket that
/// holds the middle sample, in µs.
fn stage_p50_us(s: &StageSnapshot) -> f64 {
    let total: u64 = s.buckets.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = total.div_ceil(2);
    let mut seen = 0u64;
    for b in &s.buckets {
        seen += b.count;
        if seen >= rank {
            return b.le_ns as f64 / 1e3;
        }
    }
    0.0
}

/// A running `bitflow-serve` server over one model.
pub struct Serving {
    server: Arc<Server>,
    model: Arc<Model>,
}

impl Serving {
    /// Starts `workers` workers with the explicit configuration every
    /// served workload uses: queue of 64, micro-batches of up to 8 with no
    /// coalescing wait, deadline-aware shedding, breaker and budgets off,
    /// no chaos. `recorder` attaches a flight recorder (request tracing on).
    pub fn start(model: &Arc<Model>, workers: usize, recorder: bool) -> Self {
        let config = ServerConfig {
            workers,
            queue_capacity: 64,
            default_deadline: None,
            shed_policy: ShedPolicy::DeadlineAware,
            max_batch: 8,
            coalesce_window: Duration::ZERO,
            breaker: BreakerConfig {
                fault_threshold: u32::MAX,
                cooldown: Duration::from_millis(1),
            },
            govern: GovernorConfig::default(),
            chaos: None,
            recorder: recorder.then(|| Arc::new(FlightRecorder::new(RecorderConfig::default()))),
        };
        Self {
            server: Arc::new(Server::start(Arc::clone(&model.compiled), config)),
            model: Arc::clone(model),
        }
    }

    /// Non-blocking submit of input `i`, with an optional latency budget.
    pub fn submit(&self, i: usize, deadline: Option<Duration>) -> Result<Pending, Outcome> {
        let input = self.model.inputs[i].clone();
        let r = match deadline {
            Some(budget) => self.server.submit_with_deadline(input, budget),
            None => self.server.submit(input),
        };
        r.map(Pending)
            .map_err(|reason| Outcome::Refused(reason.to_string()))
    }

    /// Counters and stage medians so far.
    pub fn stats(&self) -> ServeStats {
        let m = self.server.metrics();
        ServeStats {
            queue_wait_p50_us: stage_p50_us(&m.stage_queue_wait),
            batch_wait_p50_us: stage_p50_us(&m.stage_batch_wait),
            exec_p50_us: stage_p50_us(&m.stage_exec),
            batch_size_mean: if m.batches == 0 {
                0.0
            } else {
                m.batch_items as f64 / m.batches as f64
            },
        }
    }

    /// Drains and joins the pool. A front-end that was just shut down may
    /// still be letting go of its handle on the server (its connection
    /// threads exit on their own), so this waits briefly for the last one.
    pub fn shutdown(self) -> Result<(), String> {
        let mut server = self.server;
        for _ in 0..400 {
            match Arc::try_unwrap(server) {
                Ok(owned) => {
                    let _ = owned.shutdown();
                    return Ok(());
                }
                Err(shared) => {
                    server = shared;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        Err("server still shared two seconds after shutdown".into())
    }
}

/// A loopback HTTP front-end over a [`Serving`].
pub struct Http {
    net: NetServer,
    /// The bound loopback address.
    pub addr: SocketAddr,
}

impl Http {
    /// Binds an ephemeral loopback port with explicit limits.
    pub fn bind(serving: &Serving) -> Result<Self, String> {
        let config = NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 64,
            max_body_bytes: 4 << 20,
            header_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
            debug_endpoints: false,
            server_timing: false,
        };
        let net = NetServer::bind(Arc::clone(&serving.server), config)
            .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = net.local_addr();
        Ok(Self { net, addr })
    }

    /// Graceful drain; `true` when every connection finished in time.
    pub fn shutdown(self) -> bool {
        self.net.shutdown()
    }
}

/// `net::http::parse_head` on `head`; `true` when it parsed.
pub fn parse_head(head: &[u8]) -> bool {
    bitflow_net::http::parse_head(head).is_ok()
}

// ---------------------------------------------------------------------------
// Isolated layer calls (traced run)
// ---------------------------------------------------------------------------

/// The host as the repo's own detection sees it.
pub struct Host {
    /// SIMD feature string, e.g. `sse2+avx2+avx512f`.
    pub features: String,
    /// Widest SIMD tier, bits.
    pub simd_bits: usize,
    /// Estimated core clock, GHz.
    pub ghz: f64,
}

/// Detects the host once (cached by `bitflow-simd`).
pub fn host() -> Host {
    let m = bitflow_simd::machine();
    Host {
        features: m.features.to_string(),
        simd_bits: m.features.max_width_bits(),
        ghz: m.freq_ghz,
    }
}

/// The four kernel tiers the per-layer metrics name, each mapped to the
/// tier that actually runs on this host (an unavailable tier falls back to
/// the widest available one, as dispatch would).
pub fn simd_tiers() -> [(&'static str, SimdLevel); 4] {
    let f = bitflow_simd::features();
    let avail = |l: SimdLevel| {
        if l.available(f) {
            l
        } else {
            SimdLevel::best_for(f)
        }
    };
    [
        ("scalar", SimdLevel::Scalar),
        ("sse", avail(SimdLevel::Sse)),
        ("avx2", avail(SimdLevel::Avx2)),
        ("avx512", avail(SimdLevel::Avx512)),
    ]
}

/// `xor_popcount` over two equal slices at `level`.
pub fn xor_popcount(level: SimdLevel, a: &[u64], b: &[u64]) -> u64 {
    bitflow_simd::xor_popcount(level, a, b)
}

/// `pack_f32`: binarize + pack `src` into `out` (64 floats per word).
pub fn pack_f32(src: &[f32], out: &mut [u64]) {
    bitflow_simd::pack::pack_f32(src, out);
}

/// `or_accumulate` at the widest available tier.
pub fn or_accumulate(acc: &mut [u64], src: &[u64]) {
    let level = SimdLevel::best_for(bitflow_simd::features());
    bitflow_simd::or_accumulate(level, acc, src);
}

/// The wire tensor encoding on a 224×224×3 body, each direction callable
/// alone.
pub struct WireTensor {
    tensor: Tensor,
    /// The encoded body.
    pub encoded: Vec<u8>,
}

impl WireTensor {
    /// A seeded 224×224×3 tensor and its encoding.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = Tensor::random(Shape::hwc(224, 224, 3), Layout::Nhwc, &mut rng);
        let encoded = bitflow_tensor::io::encode_tensor(&tensor).to_vec();
        Self { tensor, encoded }
    }

    /// `tensor::io::encode_tensor`; returns the body length.
    pub fn encode(&self) -> usize {
        bitflow_tensor::io::encode_tensor(&self.tensor).len()
    }

    /// `tensor::io::decode_tensor`; returns whether it decoded.
    pub fn decode(&self) -> bool {
        bitflow_tensor::io::decode_tensor(&self.encoded).is_ok()
    }
}

/// The two big FC GEMMs of VGG-16 at the `bitflow-gemm` level.
pub struct FcGemm {
    weights_f32: Vec<f32>,
    n: usize,
    k: usize,
    a: bitflow_gemm::pack::PackedMatrix,
    bt: bitflow_gemm::pack::PackedMatrix,
    c: Vec<f32>,
    level: SimdLevel,
}

impl FcGemm {
    /// Seeded N×K weights and a 1×N input, both packed.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights_f32: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let a = bitflow_gemm::pack::pack_a_rows(&input, 1, n);
        let bt = bitflow_gemm::pack::pack_b_fused(&weights_f32, n, k);
        Self {
            weights_f32,
            n,
            k,
            a,
            bt,
            c: vec![0.0; k],
            level: VectorScheduler::new().streaming_level(),
        }
    }

    /// One `bgemm_packed` (1×N · N×K).
    pub fn bgemm(&mut self) -> f32 {
        bitflow_gemm::bgemm::bgemm_packed(self.level, &self.a, &self.bt, &mut self.c);
        self.c[0]
    }

    /// One `pack_b_fused` of the float weights (compile-time work).
    pub fn pack_b(&self) -> usize {
        bitflow_gemm::pack::pack_b_fused(&self.weights_f32, self.n, self.k).bytes()
    }

    /// The same weights and input as the `bitflow-ops` layer runs them:
    /// `BinaryFcWeights::forward_into`, the engine's FC call.
    pub fn into_isolated(self, name: &'static str) -> IsolatedOp {
        let weights = BinaryFcWeights::pack(&self.weights_f32, self.n, self.k);
        let words = self.a.row(0).to_vec();
        let (level, mut out) = (self.level, self.c);
        IsolatedOp {
            name,
            bit_ops: 2 * (self.k * words.len() * 64) as u64,
            run: Box::new(move || {
                weights.forward_into(level, &words, &mut out);
                std::hint::black_box(out[0]);
            }),
        }
    }
}

/// One full-size VGG-16 operator, called in isolation on one thread the
/// way the engine calls it (same kernel, same tier, padded output).
pub struct IsolatedOp {
    /// VGG layer name, e.g. `conv2.1`.
    pub name: &'static str,
    /// Exact bit-operations per call: one xor and one popcount per
    /// evaluated bit position for conv and FC (the engine's own cost
    /// model), one OR per input bit for pools.
    pub bit_ops: u64,
    run: Box<dyn FnMut()>,
}

impl IsolatedOp {
    /// Runs the operator once.
    pub fn run(&mut self) {
        (self.run)();
    }
}

fn identity_thresholds(k: usize, window_bits: usize) -> SignThresholds {
    let fold = fold_bn_into_thresholds(
        &vec![1.0; k],
        &vec![0.0; k],
        &vec![0.0; k],
        &vec![1.0; k],
        1e-5,
    );
    SignThresholds::from_fold(&fold, window_bits)
}

fn isolated_conv(
    name: &'static str,
    hw: usize,
    c: usize,
    k: usize,
    rng: &mut StdRng,
) -> IsolatedOp {
    let level = VectorScheduler::new().select(c).level;
    let fshape = FilterShape::new(k, 3, 3, c);
    let w: Vec<f32> = (0..fshape.numel())
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let bank = BitFilterBank::from_floats(&w, fshape);
    let input =
        BitTensor::from_tensor_padded(&Tensor::random(Shape::hwc(hw, hw, c), Layout::Nhwc, rng), 1);
    let st = identity_thresholds(k, 9 * c);
    let mut dots = vec![0.0f32; k];
    let mut out = BitTensor::zeros(hw + 2, hw + 2, k);
    let window_bits = (9 * bank.c_words() * 64) as u64;
    IsolatedOp {
        name,
        bit_ops: 2 * (hw * hw * k) as u64 * window_bits,
        run: Box::new(move || {
            pressed_conv_sign_scratch_into(level, &input, &bank, 1, &st, &mut dots, &mut out, 1);
            std::hint::black_box(out.words()[0]);
        }),
    }
}

fn isolated_pool(name: &'static str, hw: usize, c: usize, rng: &mut StdRng) -> IsolatedOp {
    let level = VectorScheduler::new().select(c).level;
    let input = BitTensor::from_tensor(&Tensor::random(Shape::hwc(hw, hw, c), Layout::Nhwc, rng));
    let mut out = BitTensor::zeros(hw / 2, hw / 2, c);
    IsolatedOp {
        name,
        bit_ops: (hw * hw * c) as u64,
        run: Box::new(move || {
            binary_max_pool_into(level, &input, 2, 2, 2, &mut out, 0);
            std::hint::black_box(out.words()[0]);
        }),
    }
}

/// The conv and pool geometries of the per-layer ledger at full VGG-16
/// size; the two FC ones come from [`FcGemm::into_isolated`].
pub fn isolated_ops(seed: u64) -> Vec<IsolatedOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let r = &mut rng;
    vec![
        isolated_conv("conv1.1", 224, 3, 64, r),
        isolated_conv("conv2.1", 112, 64, 128, r),
        isolated_conv("conv2.2", 112, 128, 128, r),
        isolated_conv("conv3.1", 56, 128, 256, r),
        isolated_conv("conv4.1", 28, 256, 512, r),
        isolated_conv("conv5.1", 14, 512, 512, r),
        isolated_pool("pool4", 28, 512, r),
        isolated_pool("pool5", 14, 512, r),
    ]
}
