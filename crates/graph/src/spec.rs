//! Network specifications: the static graph the engine compiles.

use crate::error::SpecError;
use bitflow_ops::ConvParams;
use bitflow_simd::scheduler::VectorScheduler;
use bitflow_tensor::Shape;
use serde::{Deserialize, Serialize};

/// One layer of a (chain-structured) network. VGG-class networks — the
/// paper's evaluation target — are chains; the engine exploits that for
/// its padding and buffer planning.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Convolution with `k` filters. In binary networks each conv is
    /// followed by (folded) batch-norm + sign.
    Conv {
        /// Display name, e.g. "conv3.1".
        name: String,
        /// Number of filters.
        k: usize,
        /// Kernel/stride/padding geometry.
        params: ConvParams,
    },
    /// Max-pooling.
    Pool {
        /// Display name, e.g. "pool4".
        name: String,
        /// Window/stride geometry (pad must be 0).
        params: ConvParams,
    },
    /// Fully-connected with `k` output neurons; the first FC after a
    /// spatial layer implicitly flattens (h, w, c) → h·w·c.
    Fc {
        /// Display name, e.g. "fc6".
        name: String,
        /// Output width.
        k: usize,
    },
}

impl LayerSpec {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            LayerSpec::Conv { name, .. }
            | LayerSpec::Pool { name, .. }
            | LayerSpec::Fc { name, .. } => name,
        }
    }

    /// Spatial padding this layer requires on its *input* buffer — what the
    /// zero-cost-padding planner bakes into the producer's output buffer.
    pub fn input_pad(&self) -> usize {
        match self {
            LayerSpec::Conv { params, .. } => params.pad,
            _ => 0,
        }
    }
}

/// A whole network: input geometry plus a chain of layers.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Model name (e.g. "VGG16").
    pub name: String,
    /// Input activation shape (batch 1).
    pub input: Shape,
    /// Layer chain.
    pub layers: Vec<LayerSpec>,
}

/// The inferred geometry of one layer boundary (output of layer i).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerIo {
    /// Spatial activation map.
    Map {
        /// Height (unpadded).
        h: usize,
        /// Width (unpadded).
        w: usize,
        /// Channels.
        c: usize,
    },
    /// Flat vector (after FC layers).
    Vector {
        /// Width.
        n: usize,
    },
}

impl LayerIo {
    /// Total element count.
    pub fn numel(&self) -> usize {
        match *self {
            LayerIo::Map { h, w, c } => h * w * c,
            LayerIo::Vector { n } => n,
        }
    }
}

/// Checked element count of a layer boundary (`None` on overflow).
fn checked_numel(io: LayerIo) -> Option<usize> {
    match io {
        LayerIo::Map { h, w, c } => h.checked_mul(w)?.checked_mul(c),
        LayerIo::Vector { n } => Some(n),
    }
}

/// Checked size of a pressed buffer of geometry (h, w, c) with symmetric
/// spatial margin `pad`, in `u64` words (`None` on overflow). Mirrors what
/// each [`crate::engine::InferenceContext`] allocates.
fn checked_pressed_words(h: usize, w: usize, c: usize, pad: usize) -> Option<usize> {
    let margin = pad.checked_mul(2)?;
    h.checked_add(margin)?
        .checked_mul(w.checked_add(margin)?)?
        .checked_mul(c.div_ceil(64))
}

impl NetworkSpec {
    /// Validates the spec for the binary serving path: full shape inference
    /// with overflow-checked arithmetic, chain-structure rules (no spatial
    /// layer after FC, final layer is FC), and §III-B kernel-selectability
    /// of every layer's channel width. Returns the output geometry of every
    /// layer, index-aligned with `self.layers` — exactly what
    /// [`NetworkSpec::infer_shapes`] returns on the happy path.
    ///
    /// A spec that passes `validate` compiles and infers without error on
    /// any hardware: a missing ISA only demotes the kernel choice (the
    /// scheduler's cascade), never rejects the network.
    pub fn validate(&self) -> Result<Vec<LayerIo>, SpecError> {
        if self.layers.is_empty() {
            return Err(SpecError::EmptyNetwork);
        }
        if self.input.n != 1 {
            return Err(SpecError::Batch { n: self.input.n });
        }
        for (what, v) in [
            ("input height", self.input.h),
            ("input width", self.input.w),
            ("input channels", self.input.c),
        ] {
            if v == 0 {
                return Err(SpecError::ZeroDim {
                    layer: "input".into(),
                    what,
                });
            }
        }
        let scheduler = VectorScheduler::new();
        let kernel_err = |layer: &str| {
            let layer = layer.to_string();
            move |source| SpecError::Kernel { layer, source }
        };
        let overflow = |layer: &str| SpecError::Overflow {
            layer: layer.to_string(),
        };
        // The input buffer the engine allocates (padded for layer 0).
        let in_pad = self.layers[0].input_pad();
        checked_pressed_words(self.input.h, self.input.w, self.input.c, in_pad)
            .ok_or_else(|| overflow("input"))?;

        let mut cur = LayerIo::Map {
            h: self.input.h,
            w: self.input.w,
            c: self.input.c,
        };
        let mut out = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let name = layer.name();
            let out_pad = self.layers.get(i + 1).map_or(0, LayerSpec::input_pad);
            cur = match (layer, cur) {
                (LayerSpec::Conv { k, params, .. }, LayerIo::Map { h, w, c }) => {
                    if *k == 0 {
                        return Err(SpecError::ZeroDim {
                            layer: name.into(),
                            what: "filter count",
                        });
                    }
                    // Kernel selectability of the input channel width
                    // (§III-B rules 1–5; rule 5 pads, so only zero and
                    // overflow widths are unservable).
                    scheduler.try_select(c).map_err(kernel_err(name))?;
                    let g = params
                        .try_conv_out(Shape::hwc(h, w, c), *k)
                        .map_err(kernel_err(name))?;
                    // Filter bank: k·kh·kw·c float weights, packed rows.
                    k.checked_mul(params.kh)
                        .and_then(|x| x.checked_mul(params.kw))
                        .and_then(|x| x.checked_mul(c))
                        .ok_or_else(|| overflow(name))?;
                    // Output elements + padded pressed output.
                    g.out_h
                        .checked_mul(g.out_w)
                        .and_then(|x| x.checked_mul(*k))
                        .ok_or_else(|| overflow(name))?;
                    checked_pressed_words(g.out_h, g.out_w, *k, out_pad)
                        .ok_or_else(|| overflow(name))?;
                    LayerIo::Map {
                        h: g.out_h,
                        w: g.out_w,
                        c: *k,
                    }
                }
                (LayerSpec::Pool { params, .. }, LayerIo::Map { h, w, c }) => {
                    scheduler.try_select(c).map_err(kernel_err(name))?;
                    let g = params
                        .try_pool_out(Shape::hwc(h, w, c))
                        .map_err(kernel_err(name))?;
                    checked_pressed_words(g.out_h, g.out_w, c, out_pad)
                        .ok_or_else(|| overflow(name))?;
                    LayerIo::Map {
                        h: g.out_h,
                        w: g.out_w,
                        c,
                    }
                }
                (LayerSpec::Fc { k, .. }, prev) => {
                    if *k == 0 {
                        return Err(SpecError::ZeroDim {
                            layer: name.into(),
                            what: "output width",
                        });
                    }
                    // Flatten width and the N×K weight matrix must exist.
                    let n = checked_numel(prev).ok_or_else(|| overflow(name))?;
                    n.checked_mul(*k).ok_or_else(|| overflow(name))?;
                    // Packed rows: k rows of ⌈n/64⌉ words.
                    k.checked_mul(n.div_ceil(64))
                        .ok_or_else(|| overflow(name))?;
                    LayerIo::Vector { n: *k }
                }
                (l, LayerIo::Vector { .. }) => {
                    return Err(SpecError::SpatialAfterFc {
                        layer: l.name().to_string(),
                    })
                }
            };
            out.push(cur);
        }
        // The binary engine emits logits from a final FC layer. Checked
        // last so mid-chain structure errors (spatial-after-FC) win.
        match self.layers.last() {
            Some(LayerSpec::Fc { .. }) => Ok(out),
            Some(l) => Err(SpecError::LastLayerNotFc {
                layer: l.name().to_string(),
            }),
            None => Err(SpecError::EmptyNetwork),
        }
    }

    /// Runs shape inference over the chain (the shape-inferer component of
    /// the vector execution scheduler, applied network-wide). Returns the
    /// output geometry of every layer, index-aligned with `self.layers`.
    /// Panicking wrapper over [`NetworkSpec::validate`] for the trusted
    /// path (serving code uses `validate`).
    ///
    /// # Panics
    /// On malformed chains (spatial layer after FC, windows that don't fit).
    pub fn infer_shapes(&self) -> Vec<LayerIo> {
        match self.validate() {
            Ok(shapes) => shapes,
            Err(e) => panic!("{e}"),
        }
    }

    /// Input channel/vector width of layer `i` (what the scheduler's kernel
    /// selector sees).
    pub fn input_width(&self, i: usize, shapes: &[LayerIo]) -> usize {
        let io = if i == 0 {
            LayerIo::Map {
                h: self.input.h,
                w: self.input.w,
                c: self.input.c,
            }
        } else {
            shapes[i - 1]
        };
        match io {
            LayerIo::Map { c, .. } => c,
            LayerIo::Vector { n } => n,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn toy() -> NetworkSpec {
        NetworkSpec {
            name: "toy".into(),
            input: Shape::hwc(8, 8, 16),
            layers: vec![
                LayerSpec::Conv {
                    name: "conv1".into(),
                    k: 32,
                    params: ConvParams::VGG_CONV,
                },
                LayerSpec::Pool {
                    name: "pool1".into(),
                    params: ConvParams::VGG_POOL,
                },
                LayerSpec::Fc {
                    name: "fc1".into(),
                    k: 10,
                },
            ],
        }
    }

    #[test]
    fn shapes_flow_through_chain() {
        let spec = toy();
        let shapes = spec.infer_shapes();
        assert_eq!(shapes[0], LayerIo::Map { h: 8, w: 8, c: 32 });
        assert_eq!(shapes[1], LayerIo::Map { h: 4, w: 4, c: 32 });
        assert_eq!(shapes[2], LayerIo::Vector { n: 10 });
    }

    #[test]
    fn input_widths() {
        let spec = toy();
        let shapes = spec.infer_shapes();
        assert_eq!(spec.input_width(0, &shapes), 16);
        assert_eq!(spec.input_width(1, &shapes), 32);
        assert_eq!(spec.input_width(2, &shapes), 32); // flatten sees c
    }

    #[test]
    fn input_pad_only_for_conv() {
        let spec = toy();
        assert_eq!(spec.layers[0].input_pad(), 1);
        assert_eq!(spec.layers[1].input_pad(), 0);
        assert_eq!(spec.layers[2].input_pad(), 0);
    }

    #[test]
    #[should_panic(expected = "after FC")]
    fn spatial_after_fc_rejected() {
        let mut spec = toy();
        spec.layers.push(LayerSpec::Pool {
            name: "bad".into(),
            params: ConvParams::VGG_POOL,
        });
        let _ = spec.infer_shapes();
    }

    #[test]
    fn validate_accepts_valid_chain_and_matches_infer_shapes() {
        let spec = toy();
        let shapes = spec.validate().expect("toy spec is valid");
        assert_eq!(shapes, spec.infer_shapes());
    }

    #[test]
    fn validate_rejects_hostile_specs_with_typed_errors() {
        use crate::error::SpecError;

        let mut empty = toy();
        empty.layers.clear();
        assert_eq!(empty.validate(), Err(SpecError::EmptyNetwork));

        let mut zero_input = toy();
        zero_input.input = Shape::hwc(0, 8, 16);
        assert!(matches!(
            zero_input.validate(),
            Err(SpecError::ZeroDim { .. })
        ));

        let mut batched = toy();
        batched.input = Shape::new(4, 8, 8, 16);
        assert_eq!(batched.validate(), Err(SpecError::Batch { n: 4 }));

        let mut fc_first = toy();
        fc_first.layers.insert(
            0,
            LayerSpec::Fc {
                name: "fc0".into(),
                k: 32,
            },
        );
        assert!(matches!(
            fc_first.validate(),
            Err(SpecError::SpatialAfterFc { .. })
        ));

        let mut no_head = toy();
        no_head.layers.pop();
        assert!(matches!(
            no_head.validate(),
            Err(SpecError::LastLayerNotFc { .. })
        ));

        let mut zero_stride = toy();
        zero_stride.layers[0] = LayerSpec::Conv {
            name: "conv1".into(),
            k: 32,
            params: ConvParams::new(3, 3, 0, 1),
        };
        assert!(matches!(
            zero_stride.validate(),
            Err(SpecError::Kernel { .. })
        ));

        let mut overflow_fc = toy();
        overflow_fc.layers.push(LayerSpec::Fc {
            name: "fc-huge".into(),
            k: usize::MAX / 2,
        });
        // Pushed after the old head: spatial-after-FC does not apply (both
        // are FC); the N×K weight count must overflow instead.
        assert!(matches!(
            overflow_fc.validate(),
            Err(SpecError::Overflow { .. })
        ));

        let mut window_too_big = toy();
        window_too_big.layers[1] = LayerSpec::Pool {
            name: "pool1".into(),
            params: ConvParams::new(64, 64, 2, 0),
        };
        assert!(matches!(
            window_too_big.validate(),
            Err(SpecError::Kernel { .. })
        ));
    }
}
