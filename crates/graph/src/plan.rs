//! Static memory planning report.
//!
//! The paper's network-level optimization pre-allocates "all the memory
//! needed for storing the output and intermediate results by analysis of
//! the neural network as a static computational graph". The engine does
//! that at compile time — the plan lives in the shared
//! [`crate::engine::CompiledModel`], and every
//! [`crate::engine::InferenceContext`] allocates one copy of these buffers.
//! This module derives the same numbers *without* compiling, so tools and
//! docs can report a model's runtime footprint from its spec alone; for a
//! concurrent deployment, total activation memory is
//! [`MemoryPlan::contexts_bytes`] for the chosen session count on top of the
//! one shared packed-weight copy.

use crate::spec::{LayerIo, LayerSpec, NetworkSpec};
use bitflow_ops::binary::WindowPress;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Compile-time planning options, shared by [`MemoryPlan`] and
/// [`crate::engine::CompiledModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Fuse Conv→BN→Sign chains into a single integer-threshold node
    /// (default). When false every conv materializes its float count map
    /// and a separate BN+sign pass re-reads it — the paper's unfused
    /// reference dataflow, kept as an A/B and debugging path.
    pub fuse: bool,
    /// Conv layers whose float output is observed by something other than
    /// the following BN+sign (e.g. a profiling tap). Fusion would make the
    /// float map unobservable, so these chains are never fused.
    pub float_taps: BTreeSet<String>,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            fuse: true,
            float_taps: BTreeSet::new(),
        }
    }
}

impl PlanOptions {
    /// Options honoring the `BITFLOW_FUSE` environment variable
    /// (`0`/`false`/`off`/`no` disable fusion; anything else, or unset,
    /// enables it).
    pub fn from_env() -> Self {
        Self {
            fuse: fuse_enabled_from(std::env::var("BITFLOW_FUSE").ok().as_deref()),
            ..Self::default()
        }
    }

    /// The unfused reference plan (equivalent to `BITFLOW_FUSE=0`).
    pub fn unfused() -> Self {
        Self {
            fuse: false,
            ..Self::default()
        }
    }
}

/// Interprets a `BITFLOW_FUSE` value: unset means fused; only explicit
/// `0`/`false`/`off`/`no` (case-insensitive) disable it.
pub fn fuse_enabled_from(v: Option<&str>) -> bool {
    match v {
        None => true,
        Some(s) => !matches!(
            s.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
    }
}

/// One node of the compiled execution plan — the introspectable shape of
/// what [`crate::engine::CompiledModel`] will run, before slot assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanNode {
    /// Binarize + press the float input tensor: by channel into a map
    /// padded for the first layer, or — when `windows` is set — by window,
    /// one word per output pixel of the first convolution, which then runs
    /// as a stride-1 1×1 convolution over that map (see
    /// [`ExecPlan::build`] for the rule).
    BinarizeInput {
        /// The window press of the first layer, if the plan chose it.
        windows: Option<WindowPress>,
    },
    /// Binary convolution. `fused_sign == true` means the BN+sign epilogue
    /// runs inside the conv on the integer dot products and the output is
    /// written already pressed; `false` means the conv writes a float count
    /// map consumed by a separate [`PlanNode::BnSign`].
    Conv {
        /// Layer name from the spec.
        name: String,
        /// Whether the sign epilogue is fused into the conv.
        fused_sign: bool,
    },
    /// Standalone BN-threshold + sign + pack pass over a float count map
    /// (only present in unfused plans or behind float taps).
    BnSign {
        /// Name of the conv layer whose counts this binarizes.
        name: String,
    },
    /// Binary max-pool.
    Pool {
        /// Layer name from the spec.
        name: String,
    },
    /// Hidden fully-connected layer: binary GEMV + BN+sign back to bits.
    FcSign {
        /// Layer name from the spec.
        name: String,
    },
    /// Final fully-connected layer emitting float logits (the softmax
    /// tail). Never fused: its float output *is* the network's result.
    FcOut {
        /// Layer name from the spec.
        name: String,
    },
}

impl PlanNode {
    /// The spec layer this node belongs to, if any.
    pub fn layer_name(&self) -> Option<&str> {
        match self {
            PlanNode::BinarizeInput { .. } => None,
            PlanNode::Conv { name, .. }
            | PlanNode::BnSign { name }
            | PlanNode::Pool { name }
            | PlanNode::FcSign { name }
            | PlanNode::FcOut { name } => Some(name),
        }
    }
}

/// The execution plan: the op chain after the fusion pass, exposed for
/// plan introspection (tests assert exactly which chains fused).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    nodes: Vec<PlanNode>,
}

impl ExecPlan {
    /// Builds the plan for `spec`: expands every conv into the unfused
    /// Conv+BnSign pair, then (when `opts.fuse`) collapses each legal
    /// Conv→BN→Sign chain into a fused conv node.
    ///
    /// Fusion legality: the chain's float count map must have exactly one
    /// consumer — the BN+sign that immediately follows it. Convs named in
    /// `opts.float_taps` keep their float map observable and stay unfused;
    /// the final FC (softmax tail) is never a candidate because its float
    /// output is the network's result.
    ///
    /// Window press: a first-layer conv whose whole window fits one word
    /// (`kh·kw·C ≤ 64`: an RGB 3×3 is 27 bits) gets its input pressed by
    /// window, so its `kh·kw` window steps — each a 64-bit word holding `C`
    /// real bits, §III-B's "else pad channels" — become one. A pure function
    /// of the first layer's geometry; every other layer, and every wider
    /// first layer, is channel-pressed.
    pub fn build(spec: &NetworkSpec, opts: &PlanOptions) -> Self {
        let windows = match spec.layers.first() {
            Some(LayerSpec::Conv { params, .. }) => {
                let taps = params.kh.checked_mul(params.kw);
                let bits = taps.and_then(|t| t.checked_mul(spec.input.c));
                matches!(bits, Some(1..=64)).then(|| WindowPress::new(spec.input, *params))
            }
            _ => None,
        };
        let mut nodes = vec![PlanNode::BinarizeInput { windows }];
        let last = spec.layers.len().saturating_sub(1);
        for (i, layer) in spec.layers.iter().enumerate() {
            match layer {
                LayerSpec::Conv { name, .. } => {
                    nodes.push(PlanNode::Conv {
                        name: name.clone(),
                        fused_sign: false,
                    });
                    nodes.push(PlanNode::BnSign { name: name.clone() });
                }
                LayerSpec::Pool { name, .. } => {
                    nodes.push(PlanNode::Pool { name: name.clone() });
                }
                LayerSpec::Fc { name, .. } => {
                    if i == last {
                        nodes.push(PlanNode::FcOut { name: name.clone() });
                    } else {
                        nodes.push(PlanNode::FcSign { name: name.clone() });
                    }
                }
            }
        }
        let mut plan = Self { nodes };
        if opts.fuse {
            plan.fuse(&opts.float_taps);
        }
        plan
    }

    /// The fusion pass: rewrites each `Conv{fused_sign: false}` directly
    /// followed by its own `BnSign` into `Conv{fused_sign: true}`, unless
    /// the conv's float output has another consumer (`float_taps`).
    fn fuse(&mut self, float_taps: &BTreeSet<String>) {
        let mut fused = Vec::with_capacity(self.nodes.len());
        let nodes = std::mem::take(&mut self.nodes);
        let mut iter = nodes.into_iter().peekable();
        while let Some(node) = iter.next() {
            match node {
                PlanNode::Conv {
                    name,
                    fused_sign: false,
                } if !float_taps.contains(&name)
                    && matches!(iter.peek(), Some(PlanNode::BnSign { name: bn }) if *bn == name) =>
                {
                    iter.next(); // consume the BnSign — it runs inside the conv now
                    fused.push(PlanNode::Conv {
                        name,
                        fused_sign: true,
                    });
                }
                other => fused.push(other),
            }
        }
        self.nodes = fused;
    }

    /// The node chain, in execution order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The window press of the first layer, if the plan chose it.
    pub fn input_windows(&self) -> Option<WindowPress> {
        match self.nodes.first() {
            Some(PlanNode::BinarizeInput { windows }) => *windows,
            _ => None,
        }
    }

    /// Names of convs whose sign epilogue fused, in execution order.
    pub fn fused_convs(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                PlanNode::Conv {
                    name,
                    fused_sign: true,
                } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Names of convs still running the two-pass float dataflow.
    pub fn unfused_convs(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                PlanNode::Conv {
                    name,
                    fused_sign: false,
                } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// One planned buffer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedBuffer {
    /// Producing layer (or "input").
    pub producer: String,
    /// Buffer kind.
    pub kind: BufferKind,
    /// Logical activation elements (h·w·c or n), before padding/pressing.
    pub logical_elems: usize,
    /// Allocated bytes, including padding margins and press-tail.
    pub bytes: usize,
}

/// What a planned buffer holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferKind {
    /// Pressed (bit-packed) activation map, padded for its consumer.
    PressedMap,
    /// Float scratch map (conv counts).
    FloatMap,
    /// Packed or float vector.
    Vector,
}

/// The complete activation-memory plan of a binary network.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Buffers in execution order.
    pub buffers: Vec<PlannedBuffer>,
}

impl MemoryPlan {
    /// Plans the binary engine's buffers for `spec` (mirrors
    /// [`crate::engine::CompiledModel::try_new_context`]'s allocations) under the
    /// environment's planning options (`BITFLOW_FUSE`).
    pub fn for_binary(spec: &NetworkSpec) -> Self {
        Self::for_binary_with(spec, &PlanOptions::from_env())
    }

    /// Plans the binary engine's buffers for `spec` under explicit options.
    pub fn for_binary_with(spec: &NetworkSpec, opts: &PlanOptions) -> Self {
        let shapes = spec.infer_shapes();
        let plan = ExecPlan::build(spec, opts);
        let fused: BTreeSet<&str> = plan.fused_convs().into_iter().collect();
        let mut buffers = Vec::new();
        let mut input = |logical_elems, bytes| {
            buffers.push(PlannedBuffer {
                producer: "input".into(),
                kind: BufferKind::PressedMap,
                logical_elems,
                bytes,
            });
        };
        match plan.input_windows() {
            // Window-pressed: the dense rows, then one word per output
            // pixel of layer 0.
            Some(wp) => {
                input(spec.input.numel(), wp.scratch_words() * 8);
                let px = wp.out_h() * wp.out_w();
                input(px * wp.window_bits(), px * 8);
            }
            // Channel-pressed, padded for layer 0.
            None => {
                let pad0 = spec.layers.first().map_or(0, LayerSpec::input_pad);
                let s = spec.input;
                input(s.numel(), pressed_bytes(s.h, s.w, s.c, pad0));
            }
        }
        for (i, layer) in spec.layers.iter().enumerate() {
            let out_pad = spec.layers.get(i + 1).map_or(0, LayerSpec::input_pad);
            match (layer, shapes[i]) {
                (LayerSpec::Conv { name, k, .. }, LayerIo::Map { h, w, .. }) => {
                    // Float count map (unfused only) + pressed signed
                    // output. A fused conv thresholds its popcounts in
                    // registers: no float buffer at all.
                    if !fused.contains(name.as_str()) {
                        buffers.push(PlannedBuffer {
                            producer: name.clone(),
                            kind: BufferKind::FloatMap,
                            logical_elems: h * w * k,
                            bytes: h * w * k * 4,
                        });
                    }
                    buffers.push(PlannedBuffer {
                        producer: name.clone(),
                        kind: BufferKind::PressedMap,
                        logical_elems: h * w * k,
                        bytes: pressed_bytes(h, w, *k, out_pad),
                    });
                }
                (LayerSpec::Pool { name, .. }, LayerIo::Map { h, w, c }) => {
                    buffers.push(PlannedBuffer {
                        producer: name.clone(),
                        kind: BufferKind::PressedMap,
                        logical_elems: h * w * c,
                        bytes: pressed_bytes(h, w, c, out_pad),
                    });
                }
                (LayerSpec::Fc { name, k }, _) => {
                    let is_last = i + 1 == spec.layers.len();
                    // Counts vector (+ packed output when not last).
                    buffers.push(PlannedBuffer {
                        producer: name.clone(),
                        kind: BufferKind::Vector,
                        logical_elems: *k,
                        bytes: k * 4 + if is_last { 0 } else { k.div_ceil(64) * 8 },
                    });
                }
                (l, _) => panic!("inconsistent plan at {}", l.name()),
            }
        }
        Self { buffers }
    }

    /// Total planned bytes for one inference session (one
    /// [`crate::engine::InferenceContext`]).
    pub fn total_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.bytes).sum()
    }

    /// Activation bytes for `n` concurrent sessions sharing one compiled
    /// model: contexts scale linearly, the packed weights do not.
    pub fn contexts_bytes(&self, n: usize) -> usize {
        n * self.total_bytes()
    }

    /// Bytes a naive float engine would hold for the same activations
    /// (4 bytes/element, no pressing) — the compression the pressed layout
    /// buys at run time, on top of the 32× weight compression.
    pub fn float_equivalent_bytes(&self) -> usize {
        self.buffers
            .iter()
            .filter(|b| b.kind != BufferKind::FloatMap)
            .map(|b| b.logical_elems * 4)
            .sum()
    }
}

fn pressed_bytes(h: usize, w: usize, c: usize, pad: usize) -> usize {
    (h + 2 * pad) * (w + 2 * pad) * c.div_ceil(64) * 8
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::engine::CompiledModel;
    use crate::models::{mlp, small_cnn, tiered_cnn, vgg16, vgg19};
    use crate::weights::NetworkWeights;
    use bitflow_ops::ConvParams;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn plan_matches_compiled_engine() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(3);
        let weights = NetworkWeights::random(&spec, &mut rng);
        let model = CompiledModel::try_compile(&spec, &weights).unwrap();
        let plan = MemoryPlan::for_binary(&spec);
        // The engine adds a Reflatten packed buffer for the non-aligned
        // flatten; the plan's total must match within that one buffer.
        let flatten_bytes = (4 * 4 * 32usize).div_ceil(64) * 8;
        assert_eq!(plan.total_bytes() + flatten_bytes, model.context_bytes());
        assert_eq!(plan.contexts_bytes(3), 3 * plan.total_bytes());
    }

    #[test]
    fn context_bytes_is_what_a_context_allocates() {
        for spec in [small_cnn(), tiered_cnn(), mlp(256, 128), vgg16()] {
            let mut rng = StdRng::seed_from_u64(4);
            let weights = NetworkWeights::random(&spec, &mut rng);
            let model = CompiledModel::try_compile(&spec, &weights).unwrap();
            let ctx = model.try_new_context().unwrap();
            assert_eq!(
                model.context_bytes(),
                ctx.activation_bytes(),
                "{}",
                spec.name
            );
            // The two slots of a window-pressed input are in the plan as the
            // context allocates them (these specs flatten word-tight, so
            // nothing else is apart either, bar the AMX strips the plan
            // leaves to the host).
            if let Some(wp) = model.plan().input_windows() {
                let plan = MemoryPlan::for_binary(&spec);
                assert_eq!(plan.buffers[0].bytes, wp.scratch_words() * 8);
                assert_eq!(plan.buffers[1].bytes, wp.out_h() * wp.out_w() * 8);
                assert_eq!(
                    plan.total_bytes() + model.conv_scratch_bytes(),
                    model.context_bytes(),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn window_press_is_chosen_from_the_first_layer_alone() {
        let first_conv = |c: usize, kh: usize, kw: usize| NetworkSpec {
            name: format!("first-{kh}x{kw}x{c}"),
            input: bitflow_tensor::Shape::hwc(9, 9, c),
            layers: vec![
                LayerSpec::Conv {
                    name: "conv1".into(),
                    k: 8,
                    params: ConvParams::new(kh, kw, 1, 1),
                },
                LayerSpec::Fc {
                    name: "fc1".into(),
                    k: 10,
                },
            ],
        };
        let bits = |spec: &NetworkSpec| {
            // Fusion has no say in it.
            let plan = ExecPlan::build(spec, &PlanOptions::default());
            let unfused = ExecPlan::build(spec, &PlanOptions::unfused());
            assert_eq!(
                plan.input_windows(),
                unfused.input_windows(),
                "{}",
                spec.name
            );
            plan.input_windows().map(|wp| wp.window_bits())
        };
        for spec in [vgg16(), vgg19(), tiered_cnn()] {
            assert_eq!(bits(&spec), Some(27), "{}", spec.name);
        }
        // 3×3×16 = 144 bits, no conv at all, 5×5×3 = 75 bits.
        for spec in [small_cnn(), mlp(256, 128), first_conv(3, 5, 5)] {
            assert_eq!(bits(&spec), None, "{}", spec.name);
        }
        // The rule's edge, from both sides.
        assert_eq!(bits(&first_conv(7, 3, 3)), Some(63));
        assert_eq!(bits(&first_conv(16, 2, 2)), Some(64));
        assert_eq!(bits(&first_conv(13, 1, 5)), None, "65 bits");
    }

    #[test]
    fn vgg16_activation_memory_reasonable() {
        let plan = MemoryPlan::for_binary_with(&vgg16(), &PlanOptions::unfused());
        let mb = plan.total_bytes() as f64 / (1024.0 * 1024.0);
        // Unfused: dominated by the conv scratch float maps (largest:
        // 112·112·128 floats ≈ 6.1 MB) plus pressed maps ≈ a few hundred
        // KB each.
        assert!(mb < 64.0, "plan too large: {mb} MB");
        assert!(plan.total_bytes() > 0);
        assert!(plan.float_equivalent_bytes() > plan.total_bytes() / 4);
        // Fused: the h·w·k count maps disappear — the plan must shrink
        // substantially.
        let fused = MemoryPlan::for_binary_with(&vgg16(), &PlanOptions::default());
        assert!(fused.total_bytes() * 2 < plan.total_bytes());
    }

    #[test]
    fn buffer_inventory_names() {
        let names = |opts: &PlanOptions| -> Vec<String> {
            let plan = MemoryPlan::for_binary_with(&small_cnn(), opts);
            plan.buffers.into_iter().map(|b| b.producer).collect()
        };
        assert_eq!(
            names(&PlanOptions::unfused()),
            ["input", "conv1", "conv1", "pool1", "fc1"]
        );
        // A fused conv owns its pressed output only.
        assert_eq!(
            names(&PlanOptions::default()),
            ["input", "conv1", "pool1", "fc1"]
        );
    }

    #[test]
    fn fuse_env_parsing() {
        assert!(fuse_enabled_from(None));
        assert!(fuse_enabled_from(Some("1")));
        assert!(fuse_enabled_from(Some("yes")));
        assert!(fuse_enabled_from(Some("")));
        assert!(!fuse_enabled_from(Some("0")));
        assert!(!fuse_enabled_from(Some("false")));
        assert!(!fuse_enabled_from(Some(" OFF ")));
        assert!(!fuse_enabled_from(Some("no")));
    }

    #[test]
    fn exec_plan_fuses_linear_chain() {
        let spec = small_cnn();
        let fused = ExecPlan::build(&spec, &PlanOptions::default());
        assert_eq!(fused.fused_convs(), vec!["conv1"]);
        assert!(fused.unfused_convs().is_empty());
        assert!(!fused
            .nodes()
            .iter()
            .any(|n| matches!(n, PlanNode::BnSign { .. })));

        let unfused = ExecPlan::build(&spec, &PlanOptions::unfused());
        assert!(unfused.fused_convs().is_empty());
        assert_eq!(unfused.unfused_convs(), vec!["conv1"]);
        assert!(unfused
            .nodes()
            .iter()
            .any(|n| matches!(n, PlanNode::BnSign { name } if name == "conv1")));
    }

    #[test]
    fn float_tap_blocks_fusion_of_that_conv_only() {
        let spec = vgg16();
        let mut opts = PlanOptions::default();
        opts.float_taps.insert("conv2.1".into());
        let plan = ExecPlan::build(&spec, &opts);
        assert_eq!(plan.unfused_convs(), vec!["conv2.1"]);
        assert_eq!(plan.fused_convs().len(), 12);
        // The tapped conv keeps its standalone BnSign consumer.
        assert!(plan
            .nodes()
            .iter()
            .any(|n| matches!(n, PlanNode::BnSign { name } if name == "conv2.1")));
    }
}
