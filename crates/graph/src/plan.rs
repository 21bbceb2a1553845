//! Static memory planning.
//!
//! The paper's network-level optimization pre-allocates "all the memory
//! needed for storing the output and intermediate results by analysis of
//! the neural network as a static computational graph". [`slots`] is that
//! analysis: from the spec alone — no weights — it lays out every buffer
//! the binary engine reads and writes, each sized at the padded geometry
//! its consumer requires, and [`crate::engine::CompiledModel::try_compile`]
//! lowers the layers onto exactly those buffers. [`MemoryPlan`] reports
//! the same buffers, so tools and docs can give a model's runtime footprint
//! without compiling; for a concurrent deployment, total activation memory
//! is [`MemoryPlan::contexts_bytes`] for the chosen session count on top of
//! the one shared packed-weight copy.

use crate::spec::{LayerIo, LayerSpec, NetworkSpec};
use bitflow_ops::binary::WindowPress;
use serde::{Deserialize, Serialize};

/// Compile-time planning options: none are left, since every spec has one
/// lowering. Kept for [`crate::engine::CompiledModel::try_compile_with`]'s
/// callers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanOptions;

/// The window press of the first layer, if it gets one: a first conv whose
/// whole window fits one word (`kh·kw·C ≤ 64`: an RGB 3×3 is 27 bits) has
/// its input pressed by window, so its `kh·kw` window steps — each a 64-bit
/// word holding `C` real bits, §III-B's "else pad channels" — become one.
/// A pure function of the first layer's geometry; every other layer, and
/// every wider first layer, is channel-pressed.
pub fn input_windows(spec: &NetworkSpec) -> Option<WindowPress> {
    match spec.layers.first() {
        Some(LayerSpec::Conv { params, .. }) => {
            let taps = params.kh.checked_mul(params.kw);
            let bits = taps.and_then(|t| t.checked_mul(spec.input.c));
            matches!(bits, Some(1..=64)).then(|| WindowPress::new(spec.input, *params))
        }
        _ => None,
    }
}

/// One runtime buffer, as every [`crate::engine::InferenceContext`]
/// allocates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SlotSpec {
    /// Pressed `h×w×c` activation map inside a margin of `pad` pixels.
    Bit {
        h: usize,
        w: usize,
        c: usize,
        pad: usize,
    },
    /// Float vector.
    Vec { len: usize },
    /// Single-row packed vector of `n` logical bits.
    Packed { n: usize },
}

impl SlotSpec {
    /// Elements held, before padding and pressing.
    fn logical_elems(&self) -> usize {
        match *self {
            SlotSpec::Bit { h, w, c, .. } => h * w * c,
            SlotSpec::Vec { len } => len,
            SlotSpec::Packed { n } => n,
        }
    }

    /// Bytes allocated, padding margins and press tail included.
    pub(crate) fn bytes(&self) -> usize {
        match *self {
            SlotSpec::Bit { h, w, c, pad } => (h + 2 * pad) * (w + 2 * pad) * c.div_ceil(64) * 8,
            SlotSpec::Vec { len } => len * 4,
            SlotSpec::Packed { n } => n.div_ceil(64) * 8,
        }
    }
}

/// How the input stage presses the image.
#[derive(Clone, Copy, Debug)]
pub(crate) enum InputPress {
    /// By channel, into a map padded by `pad` for the first layer.
    Channels { pad: usize },
    /// By window ([`input_windows`]), through the dense-row scratch in slot
    /// `rows`; the first conv then runs 1×1 at stride 1.
    Windows { wp: WindowPress, rows: usize },
}

/// The slots one layer reads and writes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LayerSlots {
    /// The activation it reads: a pressed map, or a packed vector.
    pub(crate) input: usize,
    /// FC over a map that is not word-tight: the packed vector the map is
    /// repacked into first, and what the FC reads instead.
    pub(crate) flat: Option<usize>,
    /// Hidden FC: the float dots its sign is taken from.
    pub(crate) dots: Option<usize>,
    /// What it writes: a padded pressed map, a packed vector, or (last
    /// layer) the logits.
    pub(crate) out: usize,
}

/// Every buffer of the binary engine for one spec, and which of them each
/// layer reads and writes.
pub(crate) struct Slots {
    /// The buffers in allocation order, each with its producer's name.
    pub(crate) specs: Vec<(String, SlotSpec)>,
    /// How the input stage presses the image into `layers[0].input`.
    pub(crate) press: InputPress,
    /// Index-aligned with the spec's layers.
    pub(crate) layers: Vec<LayerSlots>,
}

/// Plans the binary engine's buffers for `spec`, whose output geometry per
/// layer is `shapes`: the input press, then per layer its output padded
/// for the next one (zero-cost padding), a repack before an FC that cannot
/// read its map flat, and an FC's dots and packed signs.
pub(crate) fn slots(spec: &NetworkSpec, shapes: &[LayerIo]) -> Slots {
    let mut specs = Vec::new();
    let push = |specs: &mut Vec<(String, SlotSpec)>, producer: &str, slot| {
        specs.push((producer.to_string(), slot));
        specs.len() - 1
    };
    let press = match input_windows(spec) {
        // The dense rows, as one run of words, then the window map.
        Some(wp) => {
            let n = wp.scratch_words() * 64;
            let rows = push(&mut specs, "input", SlotSpec::Packed { n });
            let (h, w, c) = (wp.out_h(), wp.out_w(), wp.window_bits());
            push(&mut specs, "input", SlotSpec::Bit { h, w, c, pad: 0 });
            InputPress::Windows { wp, rows }
        }
        None => {
            let pad = spec.layers.first().map_or(0, LayerSpec::input_pad);
            let (h, w, c) = (spec.input.h, spec.input.w, spec.input.c);
            push(&mut specs, "input", SlotSpec::Bit { h, w, c, pad });
            InputPress::Channels { pad }
        }
    };
    let mut input = specs.len() - 1;
    let mut layers = Vec::with_capacity(spec.layers.len());
    for (i, (layer, io)) in spec.layers.iter().zip(shapes).enumerate() {
        let name = layer.name();
        let at = match *io {
            LayerIo::Map { h, w, c } => {
                let pad = spec.layers.get(i + 1).map_or(0, LayerSpec::input_pad);
                let out = push(&mut specs, name, SlotSpec::Bit { h, w, c, pad });
                LayerSlots {
                    input,
                    flat: None,
                    dots: None,
                    out,
                }
            }
            LayerIo::Vector { n: k } => {
                // A map is a packed vector as it lies when its pixels are
                // word-tight (no press-tail gaps between them); an FC reads
                // no padded map, since it asks for no padding.
                let flat = match specs[input].1 {
                    SlotSpec::Bit { h, w, c, .. } if c % 64 != 0 && h * w > 1 => {
                        let n = h * w * c;
                        Some(push(&mut specs, "flatten", SlotSpec::Packed { n }))
                    }
                    _ => None,
                };
                let dots = push(&mut specs, name, SlotSpec::Vec { len: k });
                let last = i + 1 == spec.layers.len();
                LayerSlots {
                    input,
                    flat,
                    dots: (!last).then_some(dots),
                    out: if last {
                        dots
                    } else {
                        push(&mut specs, name, SlotSpec::Packed { n: k })
                    },
                }
            }
        };
        input = at.out;
        layers.push(at);
    }
    Slots {
        specs,
        press,
        layers,
    }
}

/// One planned buffer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedBuffer {
    /// Producing operator: a layer, "input" or "flatten".
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
    /// The binary engine's buffers for `spec`: the slots every
    /// [`crate::engine::CompiledModel::try_new_context`] allocates, read
    /// off the same plan the engine compiles to. A context also holds
    /// [`crate::engine::CompiledModel::conv_scratch_bytes`] on a host that
    /// runs the AMX body.
    ///
    /// # Panics
    /// On a spec [`NetworkSpec::validate`] rejects.
    pub fn for_binary(spec: &NetworkSpec) -> Self {
        let buffers = slots(spec, &spec.infer_shapes())
            .specs
            .into_iter()
            .map(|(producer, slot)| PlannedBuffer {
                producer,
                kind: match slot {
                    SlotSpec::Bit { .. } => BufferKind::PressedMap,
                    SlotSpec::Vec { .. } | SlotSpec::Packed { .. } => BufferKind::Vector,
                },
                logical_elems: slot.logical_elems(),
                bytes: slot.bytes(),
            })
            .collect();
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
        self.buffers.iter().map(|b| b.logical_elems * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::engine::CompiledModel;
    use crate::models::{mlp, small_cnn, tiered_cnn, vgg16, vgg19};
    use crate::weights::{BnParams, LayerWeights, NetworkWeights};
    use bitflow_ops::ConvParams;
    use bitflow_tensor::FilterShape;

    /// Weights of `spec`'s geometry that cost no memory until written:
    /// zeroed allocations, which the press reads from the zero page.
    fn zero_weights(spec: &NetworkSpec) -> NetworkWeights {
        let shapes = spec.infer_shapes();
        let layers = spec.layers.iter().enumerate().map(|(i, layer)| {
            let c = spec.input_width(i, &shapes);
            match *layer {
                LayerSpec::Conv { k, params, .. } => {
                    let fshape = FilterShape::new(k, params.kh, params.kw, c);
                    let (w, bn) = (vec![0.0; fshape.numel()], BnParams::identity(k));
                    LayerWeights::Conv { w, fshape, bn }
                }
                LayerSpec::Pool { .. } => LayerWeights::Pool,
                LayerSpec::Fc { k, .. } => {
                    let n = if i == 0 { c } else { shapes[i - 1].numel() };
                    let (w, bn) = (vec![0.0; n * k], BnParams::identity(k));
                    LayerWeights::Fc { w, n, k, bn }
                }
            }
        });
        NetworkWeights {
            layers: layers.collect(),
        }
    }

    #[test]
    fn plan_matches_compiled_engine() {
        for spec in [small_cnn(), tiered_cnn(), mlp(256, 128), vgg16(), vgg19()] {
            let model = CompiledModel::try_compile(&spec, &zero_weights(&spec)).unwrap();
            let plan = MemoryPlan::for_binary(&spec);
            assert_eq!(
                plan.total_bytes() + model.conv_scratch_bytes(),
                model.context_bytes(),
                "{}",
                spec.name
            );
            let ctx = model.try_new_context().unwrap();
            assert_eq!(
                ctx.activation_bytes(),
                model.context_bytes(),
                "{}",
                spec.name
            );
            assert_eq!(plan.contexts_bytes(3), 3 * plan.total_bytes());
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
        let bits = |spec: &NetworkSpec| input_windows(spec).map(|wp| wp.window_bits());
        for spec in [vgg16(), vgg19(), tiered_cnn()] {
            assert_eq!(bits(&spec), Some(27), "{}", spec.name);
            // The dense rows, then one word per output pixel of layer 0.
            let wp = input_windows(&spec).unwrap();
            let plan = MemoryPlan::for_binary(&spec);
            assert_eq!(plan.buffers[0].bytes, wp.scratch_words() * 8);
            assert_eq!(plan.buffers[1].bytes, wp.out_h() * wp.out_w() * 8);
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
        let plan = MemoryPlan::for_binary(&vgg16());
        // Pressed maps, padded for their consumer: the largest is conv1.2's
        // 226·226·64 bits ≈ 400 KB.
        let mb = plan.total_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb < 4.0, "plan too large: {mb} MB");
        assert!(plan.float_equivalent_bytes() > 16 * plan.total_bytes());
    }

    #[test]
    fn buffer_inventory_names() {
        let plan = MemoryPlan::for_binary(&small_cnn());
        let names: Vec<String> = plan.buffers.into_iter().map(|b| b.producer).collect();
        // pool1's 4×4×32 map is not word-tight, so it is repacked for fc1.
        assert_eq!(names, ["input", "conv1", "pool1", "flatten", "fc1"]);
    }
}
