//! The BitFlow inference engine.
//!
//! [`CompiledModel::try_compile`] turns a [`NetworkSpec`] +
//! [`NetworkWeights`] into a ready-to-run binary engine, performing the
//! paper's network-level work up front:
//!
//! * weights → [`BitFilterBank`]/[`BinaryFcWeights`] (binarize + pack +
//!   fused transpose, once);
//! * batch-norm → per-channel sign thresholds (folded);
//! * every activation/scratch buffer *planned* (sized at the padded
//!   geometry its consumer requires — zero-cost padding);
//! * per-layer SIMD kernels chosen by the vector execution scheduler.
//!
//! The compiled model is **immutable and `Send + Sync`**: one
//! `Arc<CompiledModel>` serves any number of request threads. The mutable
//! half — the pre-allocated activation/scratch buffers the plan describes —
//! lives in a per-session [`InferenceContext`]
//! ([`CompiledModel::try_new_context`]). [`CompiledModel::run`] then runs
//! one [`BatchItem`] — the input plus everything else a request carries:
//! cancel token, chaos tag, trace — through the chain with **zero
//! allocation** apart from the returned logits, and
//! [`CompiledModel::run_batch`] runs many, fanning a heavy batch out over
//! the worker team ([`bitflow_simd::team`]) with one context per
//! participating thread (bit-identical to running the items serially).
//!
//! [`FloatNetwork`] compiles the same spec into the full-precision baseline
//! engine (im2col conv + sgemm, float max-pool, sgemm FC).

use crate::cancel::CancelToken;
use crate::error::{BitFlowError, InputGeometry, SlotKind, SlotTypeError};
use crate::plan::{self, InputPress, PlanOptions, SlotSpec};
use crate::spec::{LayerSpec, NetworkSpec};
use crate::weights::{LayerWeights, NetworkWeights};
use bitflow_gemm::pack::PackedMatrix;
use bitflow_gemm::sgemm::transpose;
use bitflow_ops::binary::{
    binarize_pack_into, binarize_windows_into, binary_max_pool_into, pack_signed_dots_into,
    pressed_conv_sign_into, BinaryFcWeights, SignThresholds,
};
use bitflow_ops::float::{conv_im2col_parallel, fc_parallel, max_pool_parallel, relu};
use bitflow_simd::amx::{AmxBank, AmxStrip};
use bitflow_simd::conv::{body_choice, BodyChoice, ConvBody, ConvGeom};
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::pack::{pack_rows, pack_transposed_band};
use bitflow_simd::scheduler::VectorScheduler;
use bitflow_simd::team;
use bitflow_telemetry::{
    MetricsSnapshot, ModelTelemetry, OpCost, OpDescriptor, OpKind, OpSpan, TileStats, TraceBuilder,
};
use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Tensor};
use std::cell::Cell;
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A fault-injection hook called at every operator boundary with the
/// operator's index, name, and the [`BatchItem::tag`] of the item being run
/// ([`UNTAGGED`] by default). Installed per model by the chaos layer
/// (`BITFLOW_CHAOS` via `bitflow-serve`); the hook may sleep (slow-op) or
/// panic (panic-op). The tag is an argument of the run, so it reaches hooks
/// on whatever thread [`CompiledModel::run_batch`] runs the item. Disabled
/// cost: one `OnceLock::get` per operator.
pub type FaultHook = Arc<dyn Fn(usize, &str, u64) + Send + Sync>;

/// The request tag a [`FaultHook`] sees for an item that carries none.
pub const UNTAGGED: u64 = u64::MAX;

/// Least single-thread work, in bit-ops ([`OpCost::bit_ops`] summed over
/// the model), a thread's share of a batch must hold before
/// [`CompiledModel::run_batch`] fans the batch out: 2²⁹ ≈ 0.35 ms at the
/// ≈1.5 Tbit-op/s the conv core sustains, so the one thing a hand-off to
/// the parked team can cost — a cold 25–40 µs cross-CPU futex wake-up —
/// is about a tenth of the share, and a warm one (the team spins 50 µs
/// for its next call) is nothing. Under it the batch runs on the calling
/// thread. On the 2-vCPU reference host: 16 `tiered_cnn` images are
/// 9.6·10⁸ bit-ops a share and fan out (0.64 ms a call against 1.24 on the
/// caller); the 8 a serve batch coalesces by default are 4.8·10⁸ and do not,
/// nor does any `small_cnn` batch; one VGG-16 image is 3.1·10¹⁰ and always
/// does. (The floor was 2³² while a hand-off was a thread spawn and join.)
const FAN_OUT_MIN_SHARE_BIT_OPS: u64 = 1 << 29;

thread_local! {
    /// Index of the operator currently executing on this thread, or
    /// `usize::MAX` when none is. Lets the `catch_unwind` backstops name
    /// the operator that panicked without any hot-path allocation.
    static CURRENT_OP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A pre-allocated runtime buffer.
enum Slot {
    /// Pressed activation map (possibly with padding margins).
    Bit(BitTensor),
    /// Float vector (FC counts / logits).
    Vec(Vec<f32>),
    /// Packed activation vector between FC layers.
    Packed(PackedMatrix),
}

impl Slot {
    /// The buffer [`SlotSpec`] plans.
    fn allocate(spec: &SlotSpec) -> Self {
        match *spec {
            SlotSpec::Bit { h, w, c, pad } => {
                Slot::Bit(BitTensor::zeros(h + 2 * pad, w + 2 * pad, c))
            }
            SlotSpec::Vec { len } => Slot::Vec(vec![0.0f32; len]),
            SlotSpec::Packed { n } => Slot::Packed(PackedMatrix::zeros(1, n)),
        }
    }
    /// What this slot holds (diagnostic face of the enum).
    fn kind(&self) -> SlotKind {
        match self {
            Slot::Bit(_) => SlotKind::Bit,
            Slot::Vec(_) => SlotKind::Vec,
            Slot::Packed(_) => SlotKind::Packed,
        }
    }
    // The typed accessors: a mismatch yields the actual kind, and the
    // operator dispatch turns it into a `SlotTypeError` carrying the layer
    // name — one diagnosable path instead of anonymous panics.
    fn bit(&self) -> Result<&BitTensor, SlotKind> {
        match self {
            Slot::Bit(t) => Ok(t),
            other => Err(other.kind()),
        }
    }
    fn bit_mut(&mut self) -> Result<&mut BitTensor, SlotKind> {
        match self {
            Slot::Bit(t) => Ok(t),
            other => Err(other.kind()),
        }
    }
    fn vec(&self) -> Result<&Vec<f32>, SlotKind> {
        match self {
            Slot::Vec(v) => Ok(v),
            other => Err(other.kind()),
        }
    }
    fn vec_mut(&mut self) -> Result<&mut Vec<f32>, SlotKind> {
        match self {
            Slot::Vec(v) => Ok(v),
            other => Err(other.kind()),
        }
    }
    fn packed_mut(&mut self) -> Result<&mut PackedMatrix, SlotKind> {
        match self {
            Slot::Packed(p) => Ok(p),
            other => Err(other.kind()),
        }
    }
    /// Approximate buffer size in bytes (for the memory plan).
    fn bytes(&self) -> usize {
        match self {
            Slot::Bit(t) => t.words().len() * 8,
            Slot::Vec(v) => v.len() * 4,
            Slot::Packed(p) => p.bytes(),
        }
    }
}

/// Logits plus the per-operator wall-clock times of the run that produced
/// them.
pub type ProfiledLogits = (Vec<f32>, Vec<(String, Duration)>);

/// One inference request as the engine sees it: the input tensor plus
/// everything that travels with it. [`CompiledModel::run`] and
/// [`CompiledModel::run_batch`] take nothing else, so a request's context
/// reaches every operator — on the calling thread or a team worker — as a
/// plain argument.
pub struct BatchItem<'a> {
    /// Input image.
    pub input: &'a Tensor,
    /// Cooperative cancellation for this item only, checked at every
    /// operator boundary.
    pub cancel: &'a CancelToken,
    /// Request tag reported to the installed [`FaultHook`].
    pub tag: u64,
    /// Request trace this item's operator spans are pushed into (`None`
    /// when tracing is off).
    pub trace: Option<Arc<TraceBuilder>>,
}

impl<'a> BatchItem<'a> {
    /// A bare request: never cancelled, [`UNTAGGED`], untraced.
    #[must_use]
    pub fn new(input: &'a Tensor) -> Self {
        static NEVER: CancelToken = CancelToken::none();
        Self {
            input,
            cancel: &NEVER,
            tag: UNTAGGED,
            trace: None,
        }
    }
}

/// Attaches layer context to a slot-kind mismatch, making it a
/// [`BitFlowError::SlotType`].
fn slot_type(layer: &str, expected: SlotKind) -> impl FnOnce(SlotKind) -> BitFlowError + '_ {
    move |actual| {
        BitFlowError::SlotType(SlotTypeError {
            layer: layer.to_string(),
            expected,
            actual,
        })
    }
}

/// One compiled runtime operation.
enum RtOp {
    /// Float input map → pressed input buffer.
    BinarizeInput { out: usize, press: InputPress },
    /// PressedConv with the integer-threshold sign epilogue → pressed
    /// (padded) output: popcounts are compared in registers, so neither a
    /// float count map nor a dot scratch exists.
    ConvSign {
        name: String,
        bank: BitFilterBank,
        /// The bank's int8 copy, when `body` is the AMX body.
        amx: Option<AmxBank>,
        /// The body the conv core runs, and why.
        body: BodyChoice,
        st: SignThresholds,
        stride: usize,
        level: SimdLevel,
        input: usize,
        out: usize,
        out_pad: usize,
    },
    /// Binary max-pool → pressed (padded) output.
    Pool {
        name: String,
        kh: usize,
        kw: usize,
        stride: usize,
        level: SimdLevel,
        input: usize,
        out: usize,
        out_pad: usize,
    },
    /// Repack a pressed map into a flat packed vector (flatten with a
    /// non-word-aligned channel count — the rare general path).
    Reflatten { input: usize, out: usize },
    /// Binary FC + folded BN + integer-threshold sign → packed vector.
    FcSign {
        name: String,
        weights: BinaryFcWeights,
        st: SignThresholds,
        level: SimdLevel,
        input: usize,
        scratch: usize,
        out: usize,
    },
    /// Final binary FC producing float logits.
    FcOut {
        name: String,
        weights: BinaryFcWeights,
        level: SimdLevel,
        input: usize,
        out: usize,
    },
}

impl RtOp {
    fn name(&self) -> &str {
        match self {
            RtOp::BinarizeInput { .. } => "binarize-input",
            RtOp::Reflatten { .. } => "flatten",
            RtOp::ConvSign { name, .. }
            | RtOp::Pool { name, .. }
            | RtOp::FcSign { name, .. }
            | RtOp::FcOut { name, .. } => name,
        }
    }
}

/// Presses a conv layer's float filters, (k, kh, kw, c) order, into
/// `bank` with the vector press kernel: the K·kh·kw taps are consecutive
/// rows of C floats, so the whole bank is one [`pack_rows`] call, and
/// [`BitFilterBank::set_pressed`] interleaves the filter-major words.
/// Bit-identical to the reference [`BitFilterBank::from_floats`].
fn press_bank(level: SimdLevel, w: &[f32], bank: &mut BitFilterBank) {
    let fshape = bank.shape();
    let taps = fshape.k * fshape.kh * fshape.kw;
    let mut pressed = vec![0u64; taps * bank.c_words()];
    pack_rows(level, w, taps, fshape.c, &mut pressed);
    bank.set_pressed(&pressed);
}

/// Packed `Bᵀ` rows (output neurons) per FC press job: VGG-16's fc6 and
/// fc7 are four bands each, fc8 one. A band reads 4 KB of every float row
/// of fc6, one page; narrower bands each sweep the pages of all 25 088
/// rows. Pressing fc6 alone over two cores, 256 rows a band read 32–35 ms,
/// 1024 rows 29–32 and 2048 rows 29–31, against 52–58 on one core; over a
/// whole VGG-16 compile 256 to 2048 rows are within noise of each other.
const FC_BAND_ROWS: usize = 1024;

/// One job of the compile's press step: one disjoint output, the floats it
/// is pressed from, and a serial kernel.
enum Press<'a> {
    /// Packed rows `cols` of an FC layer's `Bᵀ` (paper Table III).
    FcBand {
        level: SimdLevel,
        b: &'a [f32],
        n: usize,
        k: usize,
        cols: Range<usize>,
        out: &'a mut [u64],
    },
    /// A conv layer's bank and, when it runs the AMX body, the bank's int8
    /// copy, expanded from the pressed words.
    Conv {
        level: SimdLevel,
        w: &'a [f32],
        bank: &'a mut BitFilterBank,
        amx: Option<&'a mut Option<AmxBank>>,
    },
}

impl Press<'_> {
    /// Bytes the job moves: the floats it reads, and an int8 copy's byte a
    /// weight. What the press step orders its jobs by, largest first.
    fn bytes(&self) -> usize {
        match self {
            Press::FcBand { n, cols, .. } => 4 * n * cols.len(),
            Press::Conv { w, amx, .. } => w.len() * if amx.is_some() { 5 } else { 4 },
        }
    }

    fn run(&mut self) {
        match self {
            Press::FcBand {
                level,
                b,
                n,
                k,
                cols,
                out,
            } => pack_transposed_band(*level, b, *n, *k, cols.clone(), out),
            Press::Conv {
                level,
                w,
                bank,
                amx,
            } => {
                press_bank(*level, w, bank);
                if let Some(amx) = amx {
                    let f = bank.shape();
                    let steps = f.kh * f.kw * bank.c_words();
                    **amx = Some(AmxBank::from_lane_words(bank.lane_words(), f.k, steps));
                }
            }
        }
    }
}

/// The press step of [`CompiledModel::try_compile`]: every weight of
/// `ops`, pressed from `weights` into the destination the plan allocated
/// for it, as one list of jobs in one call over the worker team — FC
/// bands and conv banks together, largest first, so the last jobs the
/// threads pick up are the small ones. Each job writes only its own output
/// with a serial kernel, so the words are the same at every team size; a
/// process on one CPU, or a compile inside a team call, runs the list
/// inline.
fn press(ops: &mut [RtOp], weights: &NetworkWeights) {
    let floats = weights.layers.iter().filter_map(|lw| match lw {
        LayerWeights::Conv { w, .. } | LayerWeights::Fc { w, .. } => Some(w.as_slice()),
        LayerWeights::Pool => None,
    });
    let weighted = ops.iter_mut().filter(|op| {
        matches!(
            op,
            RtOp::ConvSign { .. } | RtOp::FcSign { .. } | RtOp::FcOut { .. }
        )
    });
    let mut jobs = Vec::new();
    for (op, w) in weighted.zip(floats) {
        match op {
            RtOp::ConvSign {
                bank,
                amx,
                body,
                level,
                ..
            } => jobs.push(Press::Conv {
                level: *level,
                w,
                bank,
                amx: (body.body == ConvBody::Amx).then_some(amx),
            }),
            RtOp::FcSign { weights, level, .. } | RtOp::FcOut { weights, level, .. } => {
                let (n, k) = (weights.n, weights.k);
                let bands = weights
                    .bands_mut(FC_BAND_ROWS)
                    .map(|(c0, out)| Press::FcBand {
                        level: *level,
                        b: w,
                        n,
                        k,
                        cols: c0..k.min(c0 + FC_BAND_ROWS),
                        out,
                    });
                jobs.extend(bands);
            }
            _ => unreachable!("only weighted operators are pressed"),
        }
    }
    jobs.sort_by_key(|job| Reverse(job.bytes()));
    team::for_chunks_mut(&mut jobs, 1, |_, job| job[0].run());
}

/// The conv core's view of a conv from the pressed map planned as `input`
/// to the one planned as `out`, and the input map's height.
fn conv_geom(
    input: &SlotSpec,
    out: &SlotSpec,
    fshape: FilterShape,
    stride: usize,
) -> (ConvGeom, usize) {
    let (&SlotSpec::Bit { h, w, pad, .. }, &SlotSpec::Bit { w: out_w, .. }) = (input, out) else {
        unreachable!("a conv maps a pressed map to a pressed map")
    };
    let g = ConvGeom {
        c_words: fshape.c.div_ceil(64),
        in_w: w + 2 * pad,
        kh: fshape.kh,
        kw: fshape.kw,
        stride,
        out_w,
        k: fshape.k,
    };
    (g, h + 2 * pad)
}

/// The immutable compiled binary inference engine: packed weights, folded
/// batch-norm thresholds, per-layer kernel choices, and the activation
/// buffer plan. `Send + Sync` by construction — share one instance across
/// request threads via `Arc`, giving each thread its own
/// [`InferenceContext`].
pub struct CompiledModel {
    spec: NetworkSpec,
    ops: Vec<RtOp>,
    slot_specs: Vec<SlotSpec>,
    logits_slot: usize,
    float_bytes: usize,
    packed_bytes: usize,
    /// Bytes of one AMX strip — the most any conv on the AMX body uses —
    /// or 0 when none is; a context holds one per team part.
    strip_bytes: usize,
    /// Σ `bit_ops` of [`CompiledModel::op_descriptors`]: one inference's
    /// work, what the batch paths weigh a worker's share with.
    item_bit_ops: u64,
    /// Telemetry is opt-in per model: empty until
    /// [`CompiledModel::enable_telemetry`], after which every serving
    /// thread records into the shared handle. The disabled cost is one
    /// `OnceLock::get` pointer check per request.
    telemetry: OnceLock<Arc<ModelTelemetry>>,
    /// Fault-injection hook, empty in production. Same first-caller-wins
    /// `OnceLock` discipline as telemetry.
    fault_hook: OnceLock<FaultHook>,
}

// Compile-enforced: an `Arc<CompiledModel>` must be usable from any thread.
// If a future weight/op representation picks up interior mutability or raw
// pointers without the matching guarantees, this line stops the build.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<CompiledModel>();

/// The mutable half of an inference session: the pre-allocated
/// activation/scratch buffers one in-flight request needs. Cheap to create
/// (a handful of zeroed buffers, no weight work) and tied to the
/// [`CompiledModel`] that produced it — a context from a different model is
/// refused as [`InputGeometry::ContextMismatch`].
pub struct InferenceContext {
    /// One buffer per slot of the model's plan. Empty means *not built*:
    /// [`CompiledModel::run_batch`] drops the buffers after a caught panic
    /// and (re)builds them, fallibly, for the next item that needs them.
    slots: Vec<Slot>,
    /// The AMX body's input strips, one per team part (none when no conv
    /// runs that body). Scratch only: nothing in them outlives a call.
    strips: Vec<AmxStrip>,
    /// Use the multi-threaded operator variants (over the worker team) for
    /// this session. Results are bit-identical either way.
    pub parallel: bool,
}

impl InferenceContext {
    /// A context whose buffers are not built yet.
    fn unbuilt() -> Self {
        Self {
            slots: Vec::new(),
            strips: Vec::new(),
            parallel: false,
        }
    }

    /// Total pre-allocated activation/scratch memory in bytes.
    pub fn activation_bytes(&self) -> usize {
        self.slots.iter().map(Slot::bytes).sum::<usize>()
            + self.strips.iter().map(AmxStrip::bytes).sum::<usize>()
    }
}

impl CompiledModel {
    /// Compiles a spec + weights into a ready engine (paper: all
    /// "pre-processions to save run time cost" happen here), reporting
    /// every malformed spec, spec/weight disagreement, or unschedulable
    /// kernel as a typed [`BitFlowError`] instead of panicking. Runs
    /// [`NetworkSpec::validate`] and
    /// [`NetworkWeights::validate_against`] first, so the build below
    /// works on geometry-checked data only. Two steps: the plan — every
    /// operator, slot, kernel and body choice, with each weight's
    /// destination allocated and unpressed — then one press step over the
    /// worker team that fills them all ([`press`]).
    pub fn try_compile(spec: &NetworkSpec, weights: &NetworkWeights) -> Result<Self, BitFlowError> {
        let shapes = spec.validate()?;
        weights.validate_against(spec, &shapes)?;
        let slots = plan::slots(spec, &shapes);
        let slot_specs: Vec<SlotSpec> = slots.specs.into_iter().map(|(_, s)| s).collect();
        let scheduler = VectorScheduler::new();
        let mut ops = vec![RtOp::BinarizeInput {
            out: slots.layers[0].input,
            press: slots.press,
        }];
        let mut strip_bytes = 0;
        let layers = spec.layers.iter().zip(&weights.layers).zip(&slots.layers);
        for (i, ((layer, lw), at)) in layers.enumerate() {
            let (input, out) = (at.input, at.out);
            let out_pad = match slot_specs[out] {
                SlotSpec::Bit { pad, .. } => pad,
                SlotSpec::Vec { .. } | SlotSpec::Packed { .. } => 0,
            };
            match (layer, lw) {
                (LayerSpec::Conv { name, k, params }, LayerWeights::Conv { fshape, bn, .. }) => {
                    // The conv core's vector lanes are output filters, so
                    // it runs at the widest tier for every C; §III-B's
                    // channel rule (checked by `spec.validate`) governs
                    // the packing width only.
                    let level = scheduler.streaming_level();
                    let st =
                        SignThresholds::from_fold(&bn.fold(), params.kh * params.kw * fshape.c);
                    // Over a window-pressed input the filter's kh·kw·C
                    // floats, already in window order, are one 1×1 tap.
                    let (fshape, stride) = match slots.press {
                        InputPress::Windows { wp, .. } if i == 0 => {
                            (FilterShape::new(*k, 1, 1, wp.window_bits()), 1)
                        }
                        _ => (*fshape, params.stride),
                    };
                    let (g, in_h) = conv_geom(&slot_specs[input], &slot_specs[out], fshape, stride);
                    // Conv→BN→Sign in one pass: the sign epilogue compares
                    // the popcount against the folded threshold and writes
                    // the output already pressed — on the AMX body when
                    // the rule picks it, from int8 filters the press step
                    // expands, once.
                    let body = body_choice(level, &g, in_h);
                    if body.body == ConvBody::Amx {
                        strip_bytes = strip_bytes.max(AmxStrip::bytes_for(&g, in_h));
                    }
                    ops.push(RtOp::ConvSign {
                        name: name.clone(),
                        bank: BitFilterBank::zeros(fshape),
                        amx: None,
                        body,
                        st,
                        stride,
                        level,
                        input,
                        out,
                        out_pad,
                    });
                }
                (LayerSpec::Pool { name, params }, LayerWeights::Pool) => {
                    ops.push(RtOp::Pool {
                        name: name.clone(),
                        kh: params.kh,
                        kw: params.kw,
                        stride: params.stride,
                        level: scheduler.try_select(spec.input_width(i, &shapes))?.level,
                        input,
                        out,
                        out_pad,
                    });
                }
                (LayerSpec::Fc { name, .. }, LayerWeights::Fc { n, k, bn, .. }) => {
                    let input = match at.flat {
                        Some(flat) => {
                            ops.push(RtOp::Reflatten { input, out: flat });
                            flat
                        }
                        None => input,
                    };
                    let weights = BinaryFcWeights::zeros(*n, *k);
                    let level = scheduler.streaming_level();
                    let name = name.clone();
                    ops.push(match at.dots {
                        // The FC dots are integer-valued (n − 2·popcount),
                        // so the same popcount-domain epilogue applies with
                        // window width n.
                        Some(scratch) => RtOp::FcSign {
                            name,
                            weights,
                            st: SignThresholds::from_fold(&bn.fold(), *n),
                            level,
                            input,
                            scratch,
                            out,
                        },
                        None => RtOp::FcOut {
                            name,
                            weights,
                            level,
                            input,
                            out,
                        },
                    });
                }
                // validate_against() already rejected kind disagreements.
                (l, _) => unreachable!("spec/weights mismatch at layer {}", l.name()),
            }
        }

        press(&mut ops, weights);
        let mut model = Self {
            spec: spec.clone(),
            ops,
            logits_slot: slot_specs.len() - 1,
            slot_specs,
            float_bytes: weights.float_bytes(),
            packed_bytes: weights.packed_bytes(),
            strip_bytes,
            item_bit_ops: 0,
            telemetry: OnceLock::new(),
            fault_hook: OnceLock::new(),
        };
        model.item_bit_ops = model.op_descriptors().iter().map(|d| d.cost.bit_ops).sum();
        // The AMX copies are weights this engine holds, as resident as the
        // words they were expanded from.
        model.packed_bytes += model
            .amx_banks()
            .iter()
            .map(|(_, b)| b.bytes())
            .sum::<usize>();
        Ok(model)
    }

    /// [`CompiledModel::try_compile`]: [`PlanOptions`] has nothing left to
    /// choose.
    pub fn try_compile_with(
        spec: &NetworkSpec,
        weights: &NetworkWeights,
        _opts: &PlanOptions,
    ) -> Result<Self, BitFlowError> {
        Self::try_compile(spec, weights)
    }

    /// The pressed weights this engine holds, `(operator name, words)` in
    /// execution order: a conv's filter-interleaved bank
    /// ([`BitFilterBank::lane_words`]), an FC's packed `Bᵀ` rows. For tools
    /// and tests that hold the compile-time press against a reference.
    pub fn packed_weights(&self) -> Vec<(&str, &[u64])> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                RtOp::ConvSign { name, bank, .. } => Some((name.as_str(), bank.lane_words())),
                RtOp::FcSign { name, weights, .. } | RtOp::FcOut { name, weights, .. } => {
                    Some((name.as_str(), weights.packed().words.as_slice()))
                }
                _ => None,
            })
            .collect()
    }

    /// The int8 copies of the banks of the convs that run the AMX body,
    /// `(operator name, copy)` in execution order — none on a host without
    /// one: the rest of the weights this engine holds beside
    /// [`CompiledModel::packed_weights`].
    pub fn amx_banks(&self) -> Vec<(&str, &AmxBank)> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                RtOp::ConvSign {
                    name,
                    amx: Some(bank),
                    ..
                } => Some((name.as_str(), bank)),
                _ => None,
            })
            .collect()
    }

    /// Allocates a fresh inference session — every activation/scratch
    /// buffer the plan describes, zeroed; one context per concurrent
    /// request — probing the allocator with `try_reserve` for each buffer
    /// before materialising it, so a context the machine cannot afford
    /// comes back as [`BitFlowError::ResourceExhausted`] instead of an
    /// allocator abort. The probe is freed before the real allocation, so
    /// the transient overhead is one slot's bytes.
    pub fn try_new_context(&self) -> Result<InferenceContext, BitFlowError> {
        let exhausted = |bytes: usize| BitFlowError::ResourceExhausted {
            what: "inference context",
            bytes: bytes as u64,
        };
        let probe = |bytes: usize| {
            let mut probe: Vec<u8> = Vec::new();
            probe.try_reserve_exact(bytes).map_err(|_| exhausted(bytes))
        };
        let mut slots: Vec<Slot> = Vec::new();
        slots
            .try_reserve_exact(self.slot_specs.len())
            .map_err(|_| exhausted(self.slot_specs.len() * std::mem::size_of::<Slot>()))?;
        for spec in &self.slot_specs {
            probe(spec.bytes())?;
            slots.push(Slot::allocate(spec));
        }
        let parts = self.strip_parts();
        let mut strips = Vec::new();
        strips
            .try_reserve_exact(parts)
            .map_err(|_| exhausted(parts * size_of::<AmxStrip>()))?;
        for _ in 0..parts {
            probe(self.strip_bytes)?;
            strips.push(AmxStrip::new(self.strip_bytes));
        }
        Ok(InferenceContext {
            slots,
            strips,
            parallel: false,
        })
    }

    /// The spec this engine was compiled from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Float model size in bytes (what a full-precision network ships).
    pub fn float_model_bytes(&self) -> usize {
        self.float_bytes
    }

    /// Packed model size in bytes (what this engine holds): the pressed
    /// weights of Table V, plus the int8 copies of the banks of convs that
    /// run the AMX body (none on a host without one).
    pub fn packed_model_bytes(&self) -> usize {
        self.packed_bytes
    }

    /// Activation/scratch bytes each [`InferenceContext`] pre-allocates:
    /// the planned buffers plus [`CompiledModel::conv_scratch_bytes`].
    pub fn context_bytes(&self) -> usize {
        self.slot_specs.iter().map(SlotSpec::bytes).sum::<usize>() + self.conv_scratch_bytes()
    }

    /// Bytes of a context's AMX strips (one per team part): scratch of the
    /// conv core's AMX body that the activation plan does not describe,
    /// because it exists only on hosts that run that body.
    pub fn conv_scratch_bytes(&self) -> usize {
        self.strip_parts() * self.strip_bytes
    }

    /// Strips a context holds: one per team part, when any conv runs the
    /// AMX body.
    fn strip_parts(&self) -> usize {
        if self.strip_bytes == 0 {
            0
        } else {
            team::max_parts()
        }
    }

    /// Enables per-operator telemetry and returns the shared handle.
    /// Idempotent: once enabled, later calls return the existing handle.
    pub fn enable_telemetry(&self) -> Arc<ModelTelemetry> {
        self.telemetry
            .get_or_init(|| Arc::new(ModelTelemetry::new(&self.spec.name, self.op_descriptors())))
            .clone()
    }

    /// The telemetry handle, if [`CompiledModel::enable_telemetry`] ran.
    pub fn telemetry(&self) -> Option<&Arc<ModelTelemetry>> {
        self.telemetry.get()
    }

    /// Point-in-time copy of every telemetry counter, or `None` while
    /// telemetry is disabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.telemetry.get().map(|t| t.snapshot())
    }

    /// Builds the static per-operator cost model: for each runtime op, how
    /// many effective xor+popcount bit-operations one call performs, how
    /// many bytes it moves, and (for GEMM-backed ops) the bgemm tile shape.
    /// Pure geometry — computed once here so the serving hot path records
    /// nothing but latency. Public so roofline gates can read bytes moved
    /// without enabling telemetry.
    pub fn op_descriptors(&self) -> Vec<OpDescriptor> {
        let bytes = |slot: usize| self.slot_specs[slot].bytes();
        // An op that reads one slot and writes another, computing nothing.
        let moves = |input: usize, out: usize| OpCost {
            bit_ops: 0,
            bytes_read: bytes(input) as u64,
            bytes_written: bytes(out) as u64,
            tile: None,
        };
        self.ops
            .iter()
            .map(|op| {
                let (kind, cost, body) = match op {
                    RtOp::BinarizeInput { out, press } => {
                        // A window press writes its dense rows and reads
                        // them back for the gather.
                        let rows = match press {
                            InputPress::Windows { rows, .. } => bytes(*rows),
                            InputPress::Channels { .. } => 0,
                        };
                        let cost = OpCost {
                            bit_ops: 0,
                            bytes_read: (self.spec.input.numel() * 4 + rows) as u64,
                            bytes_written: (rows + bytes(*out)) as u64,
                            tile: None,
                        };
                        (OpKind::Binarize, cost, None)
                    }
                    RtOp::ConvSign {
                        bank,
                        body,
                        input,
                        out,
                        ..
                    } => {
                        let f = bank.shape();
                        let SlotSpec::Bit { h, w, .. } = self.slot_specs[*out] else {
                            unreachable!("a conv writes a pressed map")
                        };
                        // One output element = one binary dot over the
                        // kh·kw window of pressed words; every evaluated
                        // bit position costs one xor + one
                        // popcount-accumulate.
                        let window_bits = (f.kh * f.kw * bank.c_words() * 64) as u64;
                        let cost = OpCost {
                            bit_ops: 2 * (h * w * f.k) as u64 * window_bits,
                            bytes_read: (bytes(*input) + bank.packed_bytes()) as u64,
                            bytes_written: bytes(*out) as u64,
                            tile: None,
                        };
                        (OpKind::Conv, cost, Some(*body))
                    }
                    RtOp::Pool { input, out, .. } => (OpKind::Pool, moves(*input, *out), None),
                    RtOp::Reflatten { input, out } => (OpKind::Flatten, moves(*input, *out), None),
                    RtOp::FcSign { weights, out, .. } => {
                        (OpKind::Fc, fc_cost(weights, Some(bytes(*out))), None)
                    }
                    RtOp::FcOut { weights, .. } => (OpKind::FcOut, fc_cost(weights, None), None),
                };
                OpDescriptor {
                    name: op.name().to_string(),
                    kind,
                    cost,
                    body,
                }
            })
            .collect()
    }

    /// Checks one inference request against this model: input geometry,
    /// finiteness, and context provenance. Everything [`Self::run`] needs
    /// to guarantee the operator chain below cannot fault.
    fn check_request(&self, ctx: &InferenceContext, input: &Tensor) -> Result<(), InputGeometry> {
        if input.shape() != self.spec.input {
            return Err(InputGeometry::ShapeMismatch {
                expected: self.spec.input,
                actual: input.shape(),
            });
        }
        if let Some(index) = first_non_finite(input.data()) {
            return Err(InputGeometry::NonFinite { index });
        }
        if ctx.slots.len() != self.slot_specs.len() {
            return Err(InputGeometry::ContextMismatch {
                expected: self.slot_specs.len(),
                actual: ctx.slots.len(),
            });
        }
        Ok(())
    }

    /// Runs one request in `ctx` and returns its logits — the engine's one
    /// operator loop; every other run entry point is a caller of this.
    /// Allocation-free apart from the returned vector. A malformed request
    /// (wrong input shape, NaN/Inf values, a context from a different
    /// model) comes back as a typed error before any operator runs.
    ///
    /// At every operator boundary the item's [`CancelToken`] is checked (a
    /// cancelled token surfaces as [`BitFlowError::Cancelled`], a passed
    /// deadline as [`BitFlowError::DeadlineExceeded`]) and its tag goes to
    /// the installed [`FaultHook`]. Abandoning a run between operators does
    /// not poison `ctx` — every operator fully overwrites its output
    /// interior and padding margins are never written, so the next complete
    /// run through the same context stays bit-identical to a fresh one.
    ///
    /// Operators are timed only when someone is looking: with telemetry
    /// enabled or a trace attached each costs one `Instant` pair, fed
    /// straight to [`ModelTelemetry::record_op`] and/or
    /// [`TraceBuilder::push_op`] (start offsets on the trace's own origin).
    pub fn run(
        &self,
        ctx: &mut InferenceContext,
        item: &BatchItem<'_>,
    ) -> Result<Vec<f32>, BitFlowError> {
        self.check_request(ctx, item.input)?;
        let telemetry = self.telemetry.get();
        let trace = item.trace.as_deref();
        let timed = telemetry.is_some() || trace.is_some();
        if let Some(t) = telemetry {
            t.request_started();
        }
        for i in 0..self.ops.len() {
            item.cancel.check()?;
            let t0 = timed.then(Instant::now);
            self.run_op(ctx, i, item.input, item.tag)?;
            let Some(t0) = t0 else { continue };
            // The span's name is built before the clock is read: an
            // allocation right after a kernel has swept the caches is
            // not free, and a trace charges it to the operator it
            // describes, not to the loop around the operators.
            let name = trace.map(|_| self.ops[i].name().to_string());
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(t) = telemetry {
                t.record_op(i, ns);
            }
            if let (Some(tb), Some(name)) = (trace, name) {
                tb.push_op(OpSpan {
                    op_index: i as u64,
                    name,
                    start_ns: tb.offset_ns(t0),
                    duration_ns: ns,
                });
            }
        }
        Ok(ctx.slots[self.logits_slot]
            .vec()
            .map_err(slot_type("logits", SlotKind::Vec))?
            .clone())
    }

    /// [`CompiledModel::run`] on a bare input (no token, tag or trace).
    pub fn try_infer(
        &self,
        ctx: &mut InferenceContext,
        input: &Tensor,
    ) -> Result<Vec<f32>, BitFlowError> {
        self.run(ctx, &BatchItem::new(input))
    }

    /// [`CompiledModel::run`] plus per-operator wall-clock times, read back
    /// from the operator spans of a trace attached for this one call.
    pub fn try_infer_profiled(
        &self,
        ctx: &mut InferenceContext,
        input: &Tensor,
    ) -> Result<ProfiledLogits, BitFlowError> {
        let trace = Arc::new(TraceBuilder::new(String::new()));
        let item = BatchItem {
            trace: Some(Arc::clone(&trace)),
            ..BatchItem::new(input)
        };
        let logits = self.run(ctx, &item)?;
        let times = trace
            .finish()
            .spans
            .into_iter()
            .map(|s| (s.name, Duration::from_nanos(s.duration_ns)))
            .collect();
        Ok((logits, times))
    }

    /// Runs a batch of requests with per-item results: the items go over
    /// the worker team ([`bitflow_simd::team`]) one at a time — each thread
    /// starts on its own contiguous share and takes from the others' when
    /// it runs out — every participating thread works in an
    /// [`InferenceContext`] of its own, and every item runs
    /// [`CompiledModel::run`] with its own token, tag and trace, so
    /// per-request cancellation, chaos decisions and operator spans keep
    /// working when requests are coalesced.
    ///
    /// **Small batches are not fanned out.** When a thread's share is
    /// under `FAN_OUT_MIN_SHARE_BIT_OPS` of work the whole batch runs on
    /// the calling thread, in `ctx`, and the team is not entered: waking a
    /// parked worker for a fraction of a millisecond of work costs a
    /// wake-up that is neither small nor steady next to it. A fanned-out
    /// batch runs in `ctx` too — it is the first of the contexts the
    /// threads take from — and builds the others, at most one per further
    /// thread, with [`CompiledModel::try_new_context`].
    ///
    /// **Graceful degradation:** a malformed item (wrong shape, NaN) yields
    /// its own `Err` without poisoning the rest of the batch — every other
    /// item's logits are bit-identical to running it through
    /// [`CompiledModel::run`] serially. As a backstop, a panic inside an
    /// item is caught (`catch_unwind`), reported as
    /// [`BitFlowError::Internal`] for that item only, and the session
    /// buffers it ran in are dropped and rebuilt before the next item runs
    /// there; while the rebuild fails, items fail typed
    /// ([`BitFlowError::ResourceExhausted`]).
    pub fn run_batch(
        &self,
        ctx: &mut InferenceContext,
        items: &[BatchItem<'_>],
    ) -> Vec<Result<Vec<f32>, BitFlowError>> {
        self.run_chunks(ctx, items, self.fans_out(items.len()))
    }

    /// [`CompiledModel::run_batch`] over bare inputs, in a context of its
    /// own that is built only if the batch runs on the caller.
    pub fn try_infer_batch(&self, inputs: &[Tensor]) -> Vec<Result<Vec<f32>, BitFlowError>> {
        let items: Vec<BatchItem<'_>> = inputs.iter().map(BatchItem::new).collect();
        self.run_batch(&mut InferenceContext::unbuilt(), &items)
    }

    /// Whether an `n`-item batch goes over the team: when more than one
    /// thread would take part and an equal share of the items is enough
    /// work to hand to another thread.
    fn fans_out(&self, n: usize) -> bool {
        let threads = team::parts(n);
        let share = n.div_ceil(threads) as u64;
        threads > 1 && share.saturating_mul(self.item_bit_ops) >= FAN_OUT_MIN_SHARE_BIT_OPS
    }

    /// [`CompiledModel::run_batch`], on the calling thread and in `ctx`, or
    /// with `fan_out` over the team.
    fn run_chunks(
        &self,
        ctx: &mut InferenceContext,
        items: &[BatchItem<'_>],
        fan_out: bool,
    ) -> Vec<Result<Vec<f32>, BitFlowError>> {
        if items.is_empty() {
            return Vec::new();
        }
        let batch = self.telemetry.get().map(|t| t.batch());
        if let Some(b) = batch {
            b.batch_started(items.len() as u64);
        }
        let threads = if fan_out { team::parts(items.len()) } else { 1 };
        let (out, ran_on) = if threads == 1 {
            (
                items.iter().map(|item| self.run_item(ctx, item)).collect(),
                1,
            )
        } else {
            self.run_fanned_out(ctx, items, threads)
        };
        if let Some(b) = batch {
            b.batch_ran_on(ran_on as u64);
        }
        out
    }

    /// The items over the team, one per chunk, and the number of threads
    /// that took part. The threads take their contexts from a pool of
    /// `threads` — `ctx` first, so the calling thread, which starts before
    /// any worker has woken, runs in it — and hold one for the length of an
    /// item.
    fn run_fanned_out(
        &self,
        ctx: &mut InferenceContext,
        items: &[BatchItem<'_>],
        threads: usize,
    ) -> (Vec<Result<Vec<f32>, BitFlowError>>, usize) {
        // Placeholders nobody sees (every chunk runs, or the call unwinds),
        // so they had better not allocate.
        let mut out: Vec<Result<Vec<f32>, BitFlowError>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || Err(BitFlowError::Internal(String::new())));
        let mut pool: Vec<Mutex<InferenceContext>> = Vec::with_capacity(threads);
        pool.push(Mutex::new(std::mem::replace(
            ctx,
            InferenceContext::unbuilt(),
        )));
        pool.resize_with(threads, || Mutex::new(InferenceContext::unbuilt()));
        let ran_on = team::for_chunks_mut(&mut out, 1, |i, out| {
            // At most `threads` threads are in here and each holds one
            // context, so a scan finds a free one; `run_item` catches the
            // panics that would poison a lock.
            let mut ctx = loop {
                match pool.iter().find_map(|ctx| ctx.try_lock().ok()) {
                    Some(ctx) => break ctx,
                    None => std::hint::spin_loop(),
                }
            };
            out[0] = self.run_item(&mut ctx, &items[i]);
        });
        *ctx = pool
            .swap_remove(0)
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (out, ran_on)
    }

    /// One item of a batch: [`CompiledModel::run`] under
    /// [`CompiledModel::catch_fault`], in buffers known to be whole —
    /// built here if `ctx` holds none, dropped here if the run panicked.
    fn run_item(
        &self,
        ctx: &mut InferenceContext,
        item: &BatchItem<'_>,
    ) -> Result<Vec<f32>, BitFlowError> {
        let result = self.catch_fault(|| {
            if ctx.slots.is_empty() {
                let built = self.try_new_context()?;
                (ctx.slots, ctx.strips) = (built.slots, built.strips);
            }
            self.run(ctx, item)
        });
        if matches!(result, Err(BitFlowError::Internal(_))) {
            // A panic may have left the session buffers partially written;
            // without them the next item here rebuilds, and so stays
            // bit-identical to a serial run.
            ctx.slots.clear();
            ctx.strips.clear();
        }
        if let Some(t) = self.telemetry.get() {
            t.batch().item_finished(result.is_ok());
        }
        result
    }

    /// Runs `f`, converting any panic into a typed
    /// [`BitFlowError::Internal`] whose message names the operator that
    /// was executing when the panic unwound (tracked in a thread-local the
    /// operator dispatch maintains). The backstop behind
    /// [`CompiledModel::run_batch`].
    fn catch_fault<R>(
        &self,
        f: impl FnOnce() -> Result<R, BitFlowError>,
    ) -> Result<R, BitFlowError> {
        CURRENT_OP.with(|c| c.set(usize::MAX));
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(payload) => {
                // `&*payload`, not `&payload`: the latter would unsize the
                // `Box` itself into the `dyn Any` and every downcast of
                // the actual message would miss.
                let msg = panic_message(&*payload);
                let ctxd = match CURRENT_OP.with(Cell::get) {
                    usize::MAX => msg,
                    i => match self.ops.get(i) {
                        Some(op) => format!("operator `{}` (#{i}): {msg}", op.name()),
                        None => msg,
                    },
                };
                CURRENT_OP.with(|c| c.set(usize::MAX));
                Err(BitFlowError::Internal(ctxd))
            }
        }
    }

    /// Installs a [`FaultHook`] called at every operator boundary (chaos
    /// injection: the hook may sleep or panic). First caller wins, like
    /// [`CompiledModel::enable_telemetry`]; returns `false` when a hook
    /// was already installed. Disabled cost is one `OnceLock::get` per
    /// operator.
    pub fn install_fault_hook(&self, hook: FaultHook) -> bool {
        self.fault_hook.set(hook).is_ok()
    }

    fn run_op(
        &self,
        ctx: &mut InferenceContext,
        i: usize,
        input: &Tensor,
        tag: u64,
    ) -> Result<(), BitFlowError> {
        let (slots, parallel) = (&mut ctx.slots[..], ctx.parallel);
        let op_name = self.ops[i].name();
        // Record which operator this thread is in, so the catch_unwind
        // backstops can name it if a panic unwinds out of the kernels.
        CURRENT_OP.with(|c| c.set(i));
        if let Some(hook) = self.fault_hook.get() {
            hook(i, op_name, tag);
        }
        match &self.ops[i] {
            RtOp::BinarizeInput { out, press } => match press {
                InputPress::Channels { pad } => binarize_pack_into(
                    input,
                    slots[*out]
                        .bit_mut()
                        .map_err(slot_type(op_name, SlotKind::Bit))?,
                    *pad,
                ),
                InputPress::Windows { wp, rows } => {
                    let (rows, dst) = two_slots(slots, *rows, *out);
                    binarize_windows_into(
                        input,
                        wp,
                        rows.packed_mut()
                            .map_err(slot_type(op_name, SlotKind::Packed))?
                            .row_mut(0),
                        dst.bit_mut().map_err(slot_type(op_name, SlotKind::Bit))?,
                    );
                }
            },
            RtOp::ConvSign {
                bank,
                amx,
                st,
                stride,
                level,
                input: in_slot,
                out,
                out_pad,
                ..
            } => {
                // Fused single pass (conv + integer threshold + sign +
                // pack); output rows go over the worker team when
                // the context is parallel, each thread expanding into the
                // strip of its part on the AMX body.
                let (inp, dst) = two_slots(slots, *in_slot, *out);
                pressed_conv_sign_into(
                    *level,
                    inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?,
                    bank,
                    *stride,
                    st,
                    dst.bit_mut().map_err(slot_type(op_name, SlotKind::Bit))?,
                    *out_pad,
                    parallel,
                    amx.as_ref().map(|bank| (bank, &mut ctx.strips[..])),
                );
            }
            RtOp::Pool {
                kh,
                kw,
                stride,
                level,
                input: in_slot,
                out,
                out_pad,
                ..
            } => {
                let (inp, dst) = two_slots(slots, *in_slot, *out);
                binary_max_pool_into(
                    *level,
                    inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?,
                    *kh,
                    *kw,
                    *stride,
                    dst.bit_mut().map_err(slot_type(op_name, SlotKind::Bit))?,
                    *out_pad,
                );
            }
            RtOp::Reflatten {
                input: in_slot,
                out,
            } => {
                let (inp, dst) = two_slots(slots, *in_slot, *out);
                reflatten(
                    inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?,
                    dst.packed_mut()
                        .map_err(slot_type(op_name, SlotKind::Packed))?,
                );
            }
            RtOp::FcSign {
                weights,
                st,
                level,
                input,
                scratch,
                out,
                ..
            } => {
                run_fc_into(op_name, slots, *input, weights, *level, *scratch, parallel)?;
                let (scr, dst) = two_slots(slots, *scratch, *out);
                let packed = dst
                    .packed_mut()
                    .map_err(slot_type(op_name, SlotKind::Packed))?;
                pack_signed_dots_into(
                    scr.vec().map_err(slot_type(op_name, SlotKind::Vec))?,
                    st,
                    packed.row_mut(0),
                );
            }
            RtOp::FcOut {
                weights,
                level,
                input,
                out,
                ..
            } => {
                run_fc_into(op_name, slots, *input, weights, *level, *out, parallel)?;
            }
        }
        Ok(())
    }
}

/// Static cost of one binary FC call: a 1×K bgemm reducing over N bits.
/// `packed_out_bytes` is the extra packed-activation write of the
/// sign-repack stage (FcSign only).
fn fc_cost(weights: &BinaryFcWeights, packed_out_bytes: Option<usize>) -> OpCost {
    let n_words = weights.n.div_ceil(64);
    let g = bitflow_gemm::tile_stats(1, weights.n, weights.k);
    OpCost {
        // Every output neuron evaluates n_words·64 bit positions, one xor +
        // one popcount-accumulate each.
        bit_ops: 2 * (weights.k * n_words * 64) as u64,
        bytes_read: ((1 + weights.k) * n_words * 8) as u64,
        bytes_written: (weights.k * 4 + packed_out_bytes.unwrap_or(0)) as u64,
        tile: Some(TileStats {
            m: g.m,
            k: g.k,
            n_words: g.n_words,
            quads: g.quads,
            tail: g.tail,
            par_k_chunk: g.par_k_chunk,
        }),
    }
}

/// Two distinct mutable slot borrows.
fn two_slots(slots: &mut [Slot], a: usize, b: usize) -> (&mut Slot, &mut Slot) {
    assert_ne!(a, b, "aliasing slots");
    if a < b {
        let (lo, hi) = slots.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = slots.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Runs the binary FC matmul allocation-free, reading from slot `input`,
/// either a flattened pressed map (whose word array, for word-tight channel
/// counts, *is* the packed activation vector) or a packed vector, writing
/// the K dot products into the vec slot `out`.
fn run_fc_into(
    op_name: &str,
    slots: &mut [Slot],
    input: usize,
    weights: &BinaryFcWeights,
    level: SimdLevel,
    out: usize,
    parallel: bool,
) -> Result<(), BitFlowError> {
    let (inp, dst) = two_slots(slots, input, out);
    let words: &[u64] = match inp {
        Slot::Bit(t) => t.words(),
        Slot::Packed(p) => p.row(0),
        other => return Err(slot_type(op_name, SlotKind::Packed)(other.kind())),
    };
    let dst = dst.vec_mut().map_err(slot_type(op_name, SlotKind::Vec))?;
    if parallel {
        weights.forward_into_parallel(level, words, dst);
    } else {
        weights.forward_into(level, words, dst);
    }
    Ok(())
}

/// Renders a `catch_unwind` payload as a message for
/// [`BitFlowError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

/// Repacks a pressed map into a flat packed vector (general flatten path for
/// non-word-aligned channel counts): every pixel's `C`-bit field is appended
/// to the stream a word at a time, straddling two destination words where
/// it must. Relies on the map's press tail being zero.
fn reflatten(src: &BitTensor, dst: &mut PackedMatrix) {
    assert_eq!(dst.n_logical, src.h() * src.w() * src.c());
    let row = dst.row_mut(0);
    row.fill(0);
    let mut bit = 0usize;
    for px in src.words().chunks_exact(src.c_words()) {
        let mut left = src.c();
        for &word in px {
            let (i, shift) = (bit / 64, bit % 64);
            let n = left.min(64);
            row[i] |= word << shift;
            if shift + n > 64 {
                row[i + 1] |= word >> (64 - shift);
            }
            bit += n;
            left -= n;
        }
    }
}

/// Index of the first NaN or ±∞ of `data`. Whole chunks are tested without
/// a branch per element (an all-ones exponent is the only non-finite
/// encoding), so a clean input is scanned at memory speed; the exact index
/// is looked for only inside a chunk that failed.
fn first_non_finite(data: &[f32]) -> Option<usize> {
    const CHUNK: usize = 64;
    const EXP: u32 = 0x7F80_0000;
    let bad = |x: &f32| x.to_bits() & EXP == EXP;
    let any_bad = |chunk: &[f32]| chunk.iter().fold(false, |any, x| any | bad(x));
    let from = data.chunks(CHUNK).position(any_bad)? * CHUNK;
    data[from..].iter().position(bad).map(|i| from + i)
}

// ---------------------------------------------------------------------------
// Float baseline engine
// ---------------------------------------------------------------------------

/// The full-precision counterpart network: im2col conv + ReLU, float
/// max-pool, sgemm FC (+ ReLU between FCs). Weight transposes are hoisted
/// to compile time, mirroring what any production float engine does.
pub struct FloatNetwork {
    spec: NetworkSpec,
    layers: Vec<FloatRt>,
}

enum FloatRt {
    Conv {
        name: String,
        w: Vec<f32>,
        fshape: FilterShape,
        params: bitflow_ops::ConvParams,
    },
    Pool {
        name: String,
        params: bitflow_ops::ConvParams,
    },
    Fc {
        name: String,
        wt: Vec<f32>,
        n: usize,
        k: usize,
        last: bool,
    },
}

impl FloatNetwork {
    /// Compiles the float baseline from the same spec/weights as the binary
    /// engine (batch-norm statistics are ignored: the float VGG baseline is
    /// conv+ReLU, as in the original architecture).
    pub fn compile(spec: &NetworkSpec, weights: &NetworkWeights) -> Self {
        assert_eq!(spec.layers.len(), weights.layers.len());
        let n_layers = spec.layers.len();
        let layers = spec
            .layers
            .iter()
            .zip(&weights.layers)
            .enumerate()
            .map(|(i, (l, w))| match (l, w) {
                (LayerSpec::Conv { name, params, .. }, LayerWeights::Conv { w, fshape, .. }) => {
                    FloatRt::Conv {
                        name: name.clone(),
                        w: w.clone(),
                        fshape: *fshape,
                        params: *params,
                    }
                }
                (LayerSpec::Pool { name, params }, LayerWeights::Pool) => FloatRt::Pool {
                    name: name.clone(),
                    params: *params,
                },
                (LayerSpec::Fc { name, .. }, LayerWeights::Fc { w, n, k, .. }) => FloatRt::Fc {
                    name: name.clone(),
                    wt: transpose(w, *n, *k),
                    n: *n,
                    k: *k,
                    last: i + 1 == n_layers,
                },
                (l, _) => panic!("spec/weights mismatch at {}", l.name()),
            })
            .collect();
        Self {
            spec: spec.clone(),
            layers,
        }
    }

    /// Runs float inference (uses the parallel operator variants; install a
    /// 1-thread pool for single-core numbers).
    pub fn infer(&self, input: &Tensor) -> Vec<f32> {
        self.infer_profiled(input).0
    }

    /// Float inference with per-layer timings.
    pub fn infer_profiled(&self, input: &Tensor) -> (Vec<f32>, Vec<(String, Duration)>) {
        assert_eq!(input.shape(), self.spec.input);
        let mut times = Vec::with_capacity(self.layers.len());
        let mut map: Option<Tensor> = Some(input.clone());
        let mut vec: Option<Vec<f32>> = None;
        for layer in &self.layers {
            let t0 = Instant::now();
            match layer {
                FloatRt::Conv {
                    name,
                    w,
                    fshape,
                    params,
                } => {
                    let m = match map.as_ref() {
                        Some(m) => m,
                        None => panic!("conv after FC"),
                    };
                    let mut out = conv_im2col_parallel(m, w, *fshape, *params);
                    relu(&mut out);
                    map = Some(out);
                    times.push((name.clone(), t0.elapsed()));
                }
                FloatRt::Pool { name, params } => {
                    let m = match map.as_ref() {
                        Some(m) => m,
                        None => panic!("pool after FC"),
                    };
                    map = Some(max_pool_parallel(m, *params));
                    times.push((name.clone(), t0.elapsed()));
                }
                FloatRt::Fc {
                    name,
                    wt,
                    n,
                    k,
                    last,
                } => {
                    let flat: Vec<f32> = match (&map, &vec) {
                        (Some(m), _) => m.data().to_vec(),
                        (None, Some(v)) => v.clone(),
                        _ => unreachable!(),
                    };
                    assert_eq!(flat.len(), *n, "fc input width");
                    let mut out = fc_parallel(&flat, wt, *n, *k);
                    if !*last {
                        for x in &mut out {
                            if *x < 0.0 {
                                *x = 0.0;
                            }
                        }
                    }
                    map = None;
                    vec = Some(out);
                    times.push((name.clone(), t0.elapsed()));
                }
            }
        }
        let vec = match vec {
            Some(v) => v,
            None => panic!("network must end with FC"),
        };
        (vec, times)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::models::{mlp, small_cnn, tiered_cnn};
    use bitflow_tensor::{Layout, Shape};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Mutex;

    proptest! {
        #[test]
        fn reflatten_appends_every_pixels_bits_in_order(
            c_idx in 0usize..7,
            (h, w) in (1usize..6, 1usize..8),
            seed in any::<u64>(),
        ) {
            let c = [1usize, 31, 32, 33, 63, 65, 100][c_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let map = BitTensor::from_tensor(&Tensor::random(
                Shape::hwc(h, w, c),
                Layout::Nhwc,
                &mut rng,
            ));
            let mut want = PackedMatrix::zeros(1, h * w * c);
            let bits = (0..h * w * c).filter(|i| map.get(i / c / w, i / c % w, i % c) > 0);
            for bit in bits {
                want.words[bit / 64] |= 1 << (bit % 64);
            }
            // Stale bits in the destination must not survive.
            let mut got = PackedMatrix::zeros(1, h * w * c);
            got.words.fill(!0);
            reflatten(&map, &mut got);
            prop_assert_eq!(got, want);
        }
    }

    fn setup() -> (NetworkSpec, NetworkWeights, Tensor) {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(7);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        (spec, weights, input)
    }

    fn compile(spec: &NetworkSpec, weights: &NetworkWeights) -> CompiledModel {
        CompiledModel::try_compile(spec, weights).expect("compiles")
    }

    fn fresh(model: &CompiledModel) -> InferenceContext {
        model.try_new_context().expect("context")
    }

    /// Logits of one bare run in a fresh context.
    fn infer(model: &CompiledModel, input: &Tensor) -> Vec<f32> {
        model.try_infer(&mut fresh(model), input).expect("infer")
    }

    fn random_inputs(spec: &NetworkSpec, n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect()
    }

    fn oks(results: Vec<Result<Vec<f32>, BitFlowError>>) -> Vec<Vec<f32>> {
        results.into_iter().map(|r| r.expect("item")).collect()
    }

    fn two_threads() -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool")
    }

    #[test]
    fn compile_and_infer() {
        let (spec, weights, input) = setup();
        let logits = infer(&compile(&spec, &weights), &input);
        assert_eq!(logits.len(), 10);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn inference_is_deterministic_and_repeatable() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = fresh(&model);
        let a = model.try_infer(&mut ctx, &input).expect("first");
        let b = model.try_infer(&mut ctx, &input).expect("second");
        assert_eq!(a, b, "second inference over reused buffers must agree");
        // Contexts are independent sessions of one compiled model.
        assert_eq!(infer(&model, &input), a);
    }

    #[test]
    fn parallel_matches_serial_bit_exactly() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = fresh(&model);
        let serial = model.try_infer(&mut ctx, &input).expect("serial");
        ctx.parallel = true;
        let parallel = model.try_infer(&mut ctx, &input).expect("parallel");
        assert_eq!(serial, parallel);
    }

    fn calls(model: &CompiledModel) -> Vec<u64> {
        let snap = model.metrics_snapshot().expect("telemetry enabled");
        snap.ops.iter().map(|o| o.calls).collect()
    }

    #[test]
    fn every_observer_sees_the_same_run() {
        for spec in [small_cnn(), tiered_cnn(), mlp(256, 128)] {
            let case = &spec.name;
            let mut rng = StdRng::seed_from_u64(31);
            let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
            let inputs = random_inputs(&spec, 5, 32);
            let input = &inputs[0];
            // Telemetry is per model and stays on once enabled, so the
            // same weights are compiled twice: one model nobody watches,
            // one with telemetry.
            let bare = compile(&spec, &weights);
            let watched = compile(&spec, &weights);
            watched.enable_telemetry();
            let names: Vec<String> = bare.op_descriptors().into_iter().map(|d| d.name).collect();
            let want = infer(&bare, input);

            let traced = |model: &CompiledModel| {
                let tb = Arc::new(TraceBuilder::new("req"));
                let item = BatchItem {
                    trace: Some(Arc::clone(&tb)),
                    ..BatchItem::new(input)
                };
                let logits = model.run(&mut fresh(model), &item).expect("traced");
                let spans = tb.finish().spans;
                for w in spans.windows(2) {
                    assert!(
                        w[0].start_ns + w[0].duration_ns <= w[1].start_ns,
                        "{case}: op spans run in sequence on one timeline"
                    );
                }
                (
                    logits,
                    spans.into_iter().map(|s| s.name).collect::<Vec<_>>(),
                )
            };
            assert_eq!(
                traced(&bare),
                (want.clone(), names.clone()),
                "{case}: trace"
            );
            assert_eq!(infer(&watched, input), want, "{case}: telemetry");
            assert_eq!(
                traced(&watched),
                (want.clone(), names.clone()),
                "{case}: both"
            );
            let (profiled, times) = bare
                .try_infer_profiled(&mut fresh(&bare), input)
                .expect("profiled");
            assert_eq!(profiled, want, "{case}: profiled");
            let timed: Vec<String> = times.into_iter().map(|(name, _)| name).collect();
            assert_eq!(timed, names, "{case}: profiled ops");
            let snap = watched.metrics_snapshot().expect("enabled");
            assert_eq!(snap.requests, 2, "{case}");
            let channels: Vec<&str> = snap.ops.iter().map(|o| o.name.as_str()).collect();
            assert_eq!(channels, names, "{case}: telemetry channels");
            assert!(snap.ops.iter().all(|o| o.calls == 2), "{case}");
            assert!(
                bare.metrics_snapshot().is_none(),
                "{case}: running enables nothing"
            );

            // Batches, on the caller and (forced) over the team,
            // watched or not, are the serial runs.
            let mut ctx = fresh(&bare);
            let serial: Vec<Vec<f32>> = inputs
                .iter()
                .map(|img| bare.try_infer(&mut ctx, img).expect("serial"))
                .collect();
            let items: Vec<BatchItem<'_>> = inputs.iter().map(BatchItem::new).collect();
            let pool = two_threads();
            for model in [&bare, &watched] {
                for fan_out in [false, true] {
                    let got = pool.install(|| model.run_chunks(&mut fresh(model), &items, fan_out));
                    assert_eq!(oks(got), serial, "{case}: fan_out={fan_out}");
                }
            }

            // A token that fires at operator boundary k: the hook
            // cancels it as operator k − 1 starts, that operator runs
            // to completion, and the check before operator k trips.
            let armed: Arc<Mutex<Option<(usize, CancelToken)>>> = Arc::default();
            let hook_armed = Arc::clone(&armed);
            assert!(watched.install_fault_hook(Arc::new(move |i, _, _| {
                if let Some((k, token)) = &*hook_armed.lock().expect("hook lock") {
                    if i + 1 == *k {
                        token.cancel();
                    }
                }
            })));
            let mut ctx = fresh(&watched);
            for k in 0..names.len() {
                let token = CancelToken::new();
                if k == 0 {
                    token.cancel();
                }
                *armed.lock().expect("lock") = Some((k, token.clone()));
                let before = calls(&watched);
                let tb = Arc::new(TraceBuilder::new("cut"));
                let item = BatchItem {
                    cancel: &token,
                    trace: Some(Arc::clone(&tb)),
                    ..BatchItem::new(input)
                };
                let cut = watched.run(&mut ctx, &item);
                assert!(
                    matches!(cut, Err(BitFlowError::Cancelled)),
                    "{case}: k={k} got {cut:?}"
                );
                let spans: Vec<String> = tb.finish().spans.into_iter().map(|s| s.name).collect();
                assert_eq!(spans, names[..k], "{case}: k={k} spans");
                let ran: Vec<u64> = calls(&watched)
                    .iter()
                    .zip(&before)
                    .map(|(after, before)| after - before)
                    .collect();
                let expect: Vec<u64> = (0..names.len()).map(|j| u64::from(j < k)).collect();
                assert_eq!(ran, expect, "{case}: k={k} telemetry calls");
                *armed.lock().expect("lock") = None;
                assert_eq!(
                    watched.try_infer(&mut ctx, input).expect("full run"),
                    want,
                    "{case}: k={k} the abandoned run must not poison its context"
                );
            }
        }
    }

    #[test]
    fn small_cnn_op_sequence() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let (_, times) = model
            .try_infer_profiled(&mut fresh(&model), &input)
            .expect("profiled");
        // input binarize + conv + pool + flatten (32-channel non-aligned
        // flatten inserts a repack op) + fc.
        assert_eq!(times.len(), spec.layers.len() + 2);
        assert_eq!(times[0].0, "binarize-input");
        assert_eq!(times[1].0, "conv1");
        assert!(times.iter().any(|(n, _)| n == "flatten"));
    }

    /// `small_cnn` by hand from integer references: the conv's im2col
    /// counts (−1 padding), each made ±1 by `sign(channel, count)`, the
    /// float max-pool of those ±1, and the FC's dots as sums of ±1 products.
    fn small_cnn_by_hand(
        weights: &NetworkWeights,
        input: &Tensor,
        sign: impl Fn(usize, f32) -> bool,
    ) -> Vec<f32> {
        use bitflow_ops::binary::binary_conv_im2col;
        use bitflow_ops::ConvParams;
        let (LayerWeights::Conv { w, fshape, .. }, LayerWeights::Fc { w: fw, n, k, .. }) =
            (&weights.layers[0], &weights.layers[2])
        else {
            unreachable!("small_cnn is conv, pool, fc")
        };
        let params = ConvParams::VGG_CONV;
        let mut map = binary_conv_im2col(SimdLevel::Scalar, input, w, *fshape, params);
        for (i, x) in map.data_mut().iter_mut().enumerate() {
            *x = if sign(i % fshape.k, *x) { 1.0 } else { -1.0 };
        }
        let pooled = bitflow_ops::float::max_pool(&map, ConvParams::VGG_POOL);
        let pm1 = |x: f32| if x >= 0.0 { 1.0 } else { -1.0 };
        (0..*k)
            .map(|j| {
                (0..*n)
                    .map(|i| pm1(pooled.data()[i]) * pm1(fw[i * k + j]))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn engine_matches_direct_op_chain() {
        // The same small network by hand, its conv signs the folded compare.
        let (spec, weights, input) = setup();
        let got = infer(&compile(&spec, &weights), &input);
        let LayerWeights::Conv { bn, .. } = &weights.layers[0] else {
            unreachable!("conv first")
        };
        let fold = bn.fold();
        let want = small_cnn_by_hand(&weights, &input, |c, x| fold.sign(c, x));
        assert_eq!(got, want);
    }

    #[test]
    fn float_network_runs_and_differs_from_binary() {
        let (spec, weights, input) = setup();
        let fnet = FloatNetwork::compile(&spec, &weights);
        let (logits, times) = fnet.infer_profiled(&input);
        assert_eq!(logits.len(), 10);
        assert_eq!(times.len(), spec.layers.len());
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn model_size_accounting() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        assert_eq!(model.float_model_bytes(), weights.float_bytes());
        assert_eq!(model.packed_model_bytes(), weights.packed_bytes());
        assert!(model.context_bytes() > 0);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let mut rng = StdRng::seed_from_u64(9);
        let bad = Tensor::random(Shape::hwc(4, 4, 3), Layout::Nhwc, &mut rng);
        let result = model.try_infer(&mut fresh(&model), &bad);
        assert!(matches!(
            result,
            Err(BitFlowError::InputGeometry(
                InputGeometry::ShapeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn infer_batch_bit_identical_to_serial() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let inputs = random_inputs(&spec, 7, 13);
        let mut ctx = fresh(&model);
        let serial: Vec<Vec<f32>> = inputs
            .iter()
            .map(|img| model.try_infer(&mut ctx, img).expect("serial"))
            .collect();
        let items: Vec<BatchItem<'_>> = inputs.iter().map(BatchItem::new).collect();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let batch = pool.install(|| model.try_infer_batch(&inputs));
            assert_eq!(oks(batch), serial, "threads={threads}");
            // This model is far under the fan-out floor, so the call above
            // ran on one thread; a heavy model's batch goes over the team.
            assert!(!pool.install(|| model.fans_out(inputs.len())));
            let fanned = pool.install(|| model.run_chunks(&mut ctx, &items, true));
            assert_eq!(oks(fanned), serial, "fanned out, threads={threads}");
            assert_eq!(ctx.activation_bytes(), model.context_bytes());
        }
        assert!(model.try_infer_batch(&[]).is_empty());
        assert!(model.run_batch(&mut ctx, &[]).is_empty());
    }

    #[test]
    fn batch_fans_out_only_when_a_share_is_worth_a_wake_up() {
        let (spec, weights, _) = setup();
        let mut model = compile(&spec, &weights);
        let pool = two_threads();
        // On a one-CPU host the team has nobody to hand a share to.
        let cores = pool.install(|| team::parts(2)) == 2;
        let fans_out = |model: &CompiledModel, n| pool.install(|| model.fans_out(n));
        assert!(model.item_bit_ops > 0, "cost model counts this net's work");
        assert!(!fans_out(&model, 64), "{}", spec.name);
        model.item_bit_ops = FAN_OUT_MIN_SHARE_BIT_OPS / 8;
        assert!(!fans_out(&model, 14), "share just under");
        assert_eq!(fans_out(&model, 16), cores, "share at the floor");
        model.item_bit_ops = u64::MAX;
        assert_eq!(fans_out(&model, 3), cores);
        assert!(!fans_out(&model, 1), "one item is one thread's");

        // The real models, with the window-pressed first layer counted at
        // the 64 bits of a window it evaluates, not the kh·kw·64 of a padded
        // channel press: one VGG-16 image a thread always fans out;
        // tiered_cnn does at the 16 images the benchmark batches and not
        // at the 8 a serve batch is capped at.
        let real = |spec: NetworkSpec, conv1_outputs: u64| {
            let weights = NetworkWeights::random(&spec, &mut StdRng::seed_from_u64(8));
            let model = compile(&spec, &weights);
            let conv1 = model.op_descriptors()[1].cost.bit_ops;
            assert_eq!(conv1, 2 * conv1_outputs * 64, "{}", spec.name);
            model
        };
        let vgg = real(crate::models::vgg16(), 224 * 224 * 64);
        assert!((3.0e10..3.2e10).contains(&(vgg.item_bit_ops as f64)));
        assert_eq!(fans_out(&vgg, 2), cores);
        let tiered = real(tiered_cnn(), 32 * 32 * 64);
        assert!((1.1e8..1.3e8).contains(&(tiered.item_bit_ops as f64)));
        assert_eq!(fans_out(&tiered, 16), cores);
        assert!(!fans_out(&tiered, 8));
    }

    #[test]
    fn window_pressed_ops_report_their_real_slots() {
        let spec = tiered_cnn();
        let weights = NetworkWeights::random(&spec, &mut StdRng::seed_from_u64(8));
        let model = compile(&spec, &weights);
        let wp = plan::input_windows(&spec).expect("3×3×3 is window-pressed");
        let (rows, map) = (wp.scratch_words() as u64 * 8, 32 * 32 * 8);
        let ops = model.op_descriptors();
        assert_eq!(ops[0].name, "binarize-input");
        assert_eq!(ops[0].cost.bytes_read, 32 * 32 * 3 * 4 + rows);
        assert_eq!(ops[0].cost.bytes_written, rows + map);
        // conv1 reads the window map and a bank of one word a filter.
        assert_eq!(ops[1].cost.bytes_read, map + 64 * 8);
    }

    #[test]
    fn non_finite_values_are_found_at_their_exact_index() {
        // Lengths around the scan's 64-float chunks, and every position a
        // chunk boundary makes special.
        for len in [1usize, 63, 64, 65, 127, 128, 129, 200, 1024] {
            let clean: Vec<f32> = (0..len).map(|i| i as f32 - 7.5).collect();
            assert_eq!(first_non_finite(&clean), None, "len={len}");
            let edges = (0..len).filter(|i| i % 64 == 0 || i % 64 == 63 || i + 1 == len);
            for at in edges {
                for poison in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut data = clean.clone();
                    data[at] = poison;
                    assert_eq!(first_non_finite(&data), Some(at), "len={len}");
                    // The first one wins.
                    data[len - 1] = f32::NAN;
                    assert_eq!(first_non_finite(&data), Some(at), "len={len}");
                }
            }
        }
        // Extremes that are finite: the largest float, subnormals, −0.0.
        let finite = [f32::MAX, f32::MIN, f32::MIN_POSITIVE / 2.0, -0.0];
        assert_eq!(first_non_finite(&finite), None);
        assert_eq!(first_non_finite(&[]), None);
    }

    #[test]
    fn a_non_finite_input_is_refused_before_any_operator_runs() {
        for spec in [small_cnn(), tiered_cnn()] {
            let mut rng = StdRng::seed_from_u64(41);
            let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
            let model = compile(&spec, &weights);
            model.enable_telemetry();
            let good = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
            let last = spec.input.numel() - 1;
            for (at, poison) in [
                (0, f32::NAN),
                (last, f32::INFINITY),
                (65, f32::NEG_INFINITY),
            ] {
                let mut data = good.data().to_vec();
                data[at] = poison;
                let bad = Tensor::from_vec(data, spec.input, Layout::Nhwc);
                match model.try_infer(&mut fresh(&model), &bad) {
                    Err(BitFlowError::InputGeometry(InputGeometry::NonFinite { index })) => {
                        assert_eq!(index, at, "{}", spec.name)
                    }
                    other => panic!("{}: expected NonFinite, got {other:?}", spec.name),
                }
            }
            assert!(calls(&model).iter().all(|&n| n == 0), "{}", spec.name);
        }
    }

    #[test]
    fn a_panicking_item_costs_only_itself_and_its_buffers() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let inputs = random_inputs(&spec, 4, 29);
        let serial: Vec<Vec<f32>> = inputs.iter().map(|img| infer(&model, img)).collect();
        assert!(model.install_fault_hook(Arc::new(|i, _, tag| {
            if tag == 1 && i == 2 {
                panic!("injected");
            }
        })));
        let items: Vec<BatchItem<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| BatchItem {
                tag: i as u64,
                ..BatchItem::new(input)
            })
            .collect();
        let pool = two_threads();
        for fan_out in [false, true] {
            let mut ctx = fresh(&model);
            ctx.parallel = true;
            let results = pool.install(|| model.run_chunks(&mut ctx, &items, fan_out));
            for (i, r) in results.iter().enumerate() {
                match (i, r) {
                    (1, Err(BitFlowError::Internal(msg))) => {
                        assert!(
                            msg.contains("injected") && msg.contains("operator `"),
                            "{msg}"
                        );
                    }
                    (1, other) => panic!("expected the caught panic, got {other:?}"),
                    (_, r) => assert_eq!(r.as_ref().expect("bystander"), &serial[i]),
                }
            }
            assert!(ctx.parallel, "a rebuilt context keeps the caller's choice");
            // Rebuilt by the next item that ran in it — on the caller there
            // always is one; over the team it may have been the last there.
            let bytes = ctx.activation_bytes();
            assert!(bytes == model.context_bytes() || (fan_out && bytes == 0));
            // The team, and whatever is left of `ctx`, serve the next batch.
            let bystanders = [&items[0], &items[2], &items[3]].map(|item| BatchItem {
                tag: item.tag,
                ..BatchItem::new(item.input)
            });
            let next = pool.install(|| model.run_chunks(&mut ctx, &bystanders, fan_out));
            assert_eq!(
                oks(next),
                [&serial[0], &serial[2], &serial[3]].map(Vec::clone)
            );
        }
        // The panic ends a batch: the caller's buffers are dropped, a
        // direct run refuses them typed, the next batch rebuilds them.
        let mut ctx = fresh(&model);
        let last = model.run_batch(&mut ctx, &items[..2]);
        assert!(matches!(last[1], Err(BitFlowError::Internal(_))));
        assert_eq!(ctx.activation_bytes(), 0);
        assert!(matches!(
            model.try_infer(&mut ctx, &inputs[0]),
            Err(BitFlowError::InputGeometry(
                InputGeometry::ContextMismatch { .. }
            ))
        ));
        assert_eq!(oks(model.run_batch(&mut ctx, &items[..1])), serial[..1]);
    }

    #[test]
    fn telemetry_counts_ops_and_derives_rates() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = fresh(&model);
        assert!(model.telemetry().is_none(), "telemetry is opt-in");
        let before = model.try_infer(&mut ctx, &input).expect("before");
        model.enable_telemetry();
        let after = model.try_infer(&mut ctx, &input).expect("after");
        assert_eq!(before, after, "telemetry must not change logits");
        model.try_infer(&mut ctx, &input).expect("again");

        let snap = model.metrics_snapshot().expect("enabled");
        assert_eq!(snap.model, spec.name);
        assert_eq!(snap.requests, 2);
        for op in &snap.ops {
            assert_eq!(op.calls, 2, "{}", op.name);
            assert!(op.total_ns > 0, "{}", op.name);
            assert!(op.p50_ns <= op.p95_ns && op.p95_ns <= op.p99_ns);
            assert!(op.max_ns as f64 >= op.mean_ns, "{}", op.name);
        }
        let conv = &snap.ops[1];
        assert!(conv.bit_ops_per_call > 0);
        assert!(conv.gops > 0.0);
        let fc = snap.ops.last().expect("ops");
        assert_eq!(fc.kind, bitflow_telemetry::OpKind::FcOut);
        let tile = fc.tile.expect("fc has tile stats");
        assert_eq!(tile.m, 1);
        assert_eq!(tile.k, 10);
        assert_eq!(tile.n_words, 8); // 512 flattened bits
    }

    #[test]
    fn telemetry_batch_gauges() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        model.enable_telemetry();
        let mut rng = StdRng::seed_from_u64(21);
        let mut inputs = random_inputs(&spec, 5, 21);
        inputs[3] = Tensor::random(Shape::hwc(2, 2, 3), Layout::Nhwc, &mut rng); // malformed
        let results = model.try_infer_batch(&inputs);
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        let snap = model.metrics_snapshot().expect("enabled");
        assert_eq!(snap.batch.batches, 1);
        assert_eq!(snap.batch.items, 5);
        assert_eq!(snap.batch.failed_items, 1);
        assert_eq!(snap.batch.max_batch, 5);
        assert_eq!(snap.batch.queued_items, 0, "gauge returns to idle");
        assert!(snap.batch.chunks >= 1);
    }

    #[test]
    fn batch_items_carry_their_traces_onto_workers() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        model.enable_telemetry();
        let inputs = random_inputs(&spec, 4, 23);
        let pool = two_threads();
        for fan_out in [false, true] {
            let builders: Vec<Arc<TraceBuilder>> = (0..4)
                .map(|i| Arc::new(TraceBuilder::new(format!("req-{i}"))))
                .collect();
            let items: Vec<BatchItem<'_>> = inputs
                .iter()
                .zip(&builders)
                .map(|(input, tb)| BatchItem {
                    trace: Some(Arc::clone(tb)),
                    ..BatchItem::new(input)
                })
                .collect();
            let results = pool.install(|| model.run_chunks(&mut fresh(&model), &items, fan_out));
            assert!(results.iter().all(Result::is_ok));
            for (i, tb) in builders.iter().enumerate() {
                let trace = tb.finish();
                assert_eq!(trace.id, format!("req-{i}"));
                assert_eq!(
                    trace.spans.len(),
                    spec.layers.len() + 2,
                    "fan_out={fan_out}: item {i} must collect exactly its own op spans"
                );
            }
        }
    }

    #[test]
    fn enable_telemetry_is_idempotent() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let a = model.enable_telemetry();
        let b = model.enable_telemetry();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn batch_cancellable_matches_serial_and_honours_tokens() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let inputs = random_inputs(&spec, 6, 17);
        let serial: Vec<Vec<f32>> = inputs.iter().map(|img| infer(&model, img)).collect();
        let tokens: Vec<CancelToken> = (0..6).map(|_| CancelToken::new()).collect();
        tokens[3].cancel();
        let items: Vec<BatchItem<'_>> = inputs
            .iter()
            .zip(&tokens)
            .map(|(input, cancel)| BatchItem {
                cancel,
                ..BatchItem::new(input)
            })
            .collect();
        let results = model.run_batch(&mut fresh(&model), &items);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                assert!(
                    matches!(r, Err(BitFlowError::Cancelled)),
                    "cancelled item must abort, got {r:?}"
                );
            } else {
                assert_eq!(
                    r.as_ref().expect("uncancelled item"),
                    &serial[i],
                    "item {i} diverged from serial inference"
                );
            }
        }
    }

    #[test]
    fn batch_items_report_their_tags_to_fault_hooks() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let sink = Arc::clone(&seen);
        assert!(model.install_fault_hook(Arc::new(move |_, _, tag| {
            sink.lock().expect("hook lock").insert(tag);
        })));
        let inputs = random_inputs(&spec, 5, 19);
        let pool = two_threads();
        for (base, fan_out) in [(100, false), (200, true)] {
            let items: Vec<BatchItem<'_>> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| BatchItem {
                    tag: base + i as u64,
                    ..BatchItem::new(input)
                })
                .collect();
            let results = pool.install(|| model.run_chunks(&mut fresh(&model), &items, fan_out));
            assert!(results.iter().all(Result::is_ok));
            // Scoped: the hook locks this same mutex on this thread during
            // the next round.
            let seen = seen.lock().expect("lock");
            for i in 0..5u64 {
                assert!(
                    seen.contains(&(base + i)),
                    "fan_out={fan_out}: tag {} never reached the fault hook — the tag \
                     must travel with the item onto whatever thread runs it",
                    base + i
                );
            }
        }
        // A bare run reports UNTAGGED, not a stale batch tag.
        infer(&model, &inputs[0]);
        assert!(seen.lock().expect("lock").contains(&UNTAGGED));
    }

    #[test]
    fn nondefault_bn_epsilon_matches_float_reference() {
        // A model whose BN layers use ε = 1e-1 over deliberately small
        // variances (so ε dominates the denominator), with β amplified so
        // the ε-induced threshold shift spans several integer count
        // levels: the engine must fold with the layer's own ε. The
        // reference computes the explicit float BN + sign path; a second
        // compile with the old hardcoded default shows the bug this
        // guards against.
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(77);
        let mut weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        for lw in &mut weights.layers {
            if let LayerWeights::Conv { bn, .. } | LayerWeights::Fc { bn, .. } = lw {
                bn.eps = 1e-1;
                for v in &mut bn.var {
                    *v *= 1e-3;
                }
                for b in &mut bn.beta {
                    *b *= 20.0;
                }
            }
        }
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let got = infer(&compile(&spec, &weights), &input);

        // Hand-executed chain with explicit BN: y = γ·(x−μ)/√(σ²+ε) + β,
        // bit = y ≥ 0 — no folding anywhere.
        let LayerWeights::Conv { bn, .. } = &weights.layers[0] else {
            unreachable!("conv first")
        };
        let want = small_cnn_by_hand(&weights, &input, |c, x| {
            bn.gamma[c] * (x - bn.mean[c]) / (bn.var[c] + bn.eps).sqrt() + bn.beta[c] >= 0.0
        });
        assert_eq!(got, want, "engine must fold with the layer's ε");

        // Regression half: the old behavior (hardcoded 1e-5) folds
        // different thresholds, and with ε-dominated variances the logits
        // actually diverge.
        let mut old = weights.clone();
        for lw in &mut old.layers {
            if let LayerWeights::Conv { bn, .. } | LayerWeights::Fc { bn, .. } = lw {
                bn.eps = 1e-5;
            }
        }
        let old_logits = infer(&compile(&spec, &old), &input);
        assert_ne!(
            got, old_logits,
            "folding with the default ε must be observable on this model \
             (otherwise this test cannot catch the bug)"
        );
    }

    #[test]
    fn random_inputs_give_varied_logits() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let inputs = random_inputs(&spec, 2, 11);
        assert_ne!(
            infer(&model, &inputs[0]),
            infer(&model, &inputs[1]),
            "different inputs should give different logits"
        );
    }
}
