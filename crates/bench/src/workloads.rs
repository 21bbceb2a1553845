//! The paper's benchmark operators (Table IV) and their prepared inputs.
//!
//! Eight operators from VGG: conv2.1, conv3.1, conv4.1, conv5.1 (3×3,
//! stride 1, pad 1), fc6, fc7, and pool4, pool5 (2×2, stride 2). These
//! cover every tier of the vector execution scheduler: C = 64 (scalar
//! words), 128 (SSE), 256 (AVX2), 512 (AVX-512).

use bitflow_ops::binary::{amx_operands, conv_geometry, BnFold, SignThresholds};
use bitflow_ops::ConvParams;
use bitflow_simd::amx::{AmxBank, AmxStrip};
use bitflow_simd::conv::BodyChoice;
use bitflow_simd::{team, VectorScheduler};
use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Operator category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Convolution with K filters.
    Conv {
        /// Filters.
        k: usize,
    },
    /// Fully connected with K outputs (input is the flattened h·w·c).
    Fc {
        /// Output neurons.
        k: usize,
    },
    /// Max pooling.
    Pool,
}

/// One Table IV workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Paper name, e.g. "conv3.1".
    pub name: &'static str,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Input channels.
    pub c: usize,
    /// Category + output width.
    pub kind: OpKind,
    /// Kernel geometry.
    pub params: ConvParams,
}

impl Workload {
    /// Input shape.
    pub fn input_shape(&self) -> Shape {
        Shape::hwc(self.h, self.w, self.c)
    }

    /// Flattened input width (FC).
    pub fn flat_n(&self) -> usize {
        self.h * self.w * self.c
    }

    /// A spatially shrunken copy for quick smoke runs.
    pub fn shrunk(mut self, factor: usize) -> Workload {
        if matches!(self.kind, OpKind::Fc { .. }) {
            // Shrink the flattened width via h (keep w, c intact).
            self.h = (self.h / factor).max(1);
        } else {
            self.h = (self.h / factor).max(4);
            self.w = (self.w / factor).max(4);
        }
        self
    }
}

/// The paper's eight benchmark operators (Table IV).
pub fn table_iv() -> Vec<Workload> {
    vec![
        Workload {
            name: "conv2.1",
            h: 112,
            w: 112,
            c: 64,
            kind: OpKind::Conv { k: 128 },
            params: ConvParams::VGG_CONV,
        },
        Workload {
            name: "conv3.1",
            h: 56,
            w: 56,
            c: 128,
            kind: OpKind::Conv { k: 256 },
            params: ConvParams::VGG_CONV,
        },
        Workload {
            name: "conv4.1",
            h: 28,
            w: 28,
            c: 256,
            kind: OpKind::Conv { k: 512 },
            params: ConvParams::VGG_CONV,
        },
        Workload {
            name: "conv5.1",
            h: 14,
            w: 14,
            c: 512,
            kind: OpKind::Conv { k: 512 },
            params: ConvParams::VGG_CONV,
        },
        // fc6 consumes pool5's flattened 7·7·512 = 25088 activations.
        Workload {
            name: "fc6",
            h: 7,
            w: 7,
            c: 512,
            kind: OpKind::Fc { k: 4096 },
            params: ConvParams::new(1, 1, 1, 0),
        },
        Workload {
            name: "fc7",
            h: 1,
            w: 1,
            c: 4096,
            kind: OpKind::Fc { k: 4096 },
            params: ConvParams::new(1, 1, 1, 0),
        },
        Workload {
            name: "pool4",
            h: 28,
            w: 28,
            c: 512,
            kind: OpKind::Pool,
            params: ConvParams::VGG_POOL,
        },
        Workload {
            name: "pool5",
            h: 14,
            w: 14,
            c: 512,
            kind: OpKind::Pool,
            params: ConvParams::VGG_POOL,
        },
    ]
}

/// Prepared operands for one workload: everything both the float and the
/// binary paths need, built once outside the timed region.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Float input (NHWC).
    pub input: Tensor,
    /// Flat float input (FC view).
    pub input_flat: Vec<f32>,
    /// Float conv/fc weights ((K,kh,kw,C) order / N×K).
    pub weights: Vec<f32>,
    /// Pre-transposed FC weights (K×N) — float production form.
    pub weights_t: Vec<f32>,
    /// Conv filter shape.
    pub fshape: Option<FilterShape>,
    /// Pre-packed (padded) binary input for conv/pool.
    pub bit_input: BitTensor,
    /// Pre-packed conv filter bank.
    pub bank: Option<BitFilterBank>,
    /// What else the engine's conv call takes.
    pub conv: Option<ConvOperands>,
    /// Pre-packed FC weights.
    pub fc_weights: Option<bitflow_ops::binary::BinaryFcWeights>,
}

/// The rest of the engine's conv call (`pressed_conv_sign_into`): the sign
/// thresholds of an identity batch-norm, the body the engine would pick at
/// the widest tier, and, when that is the AMX body, the bank's int8 copy.
/// The destination (padded for a next conv) and one AMX strip per team
/// part are a context's, allocated once here and reused by every call.
pub struct ConvOperands {
    /// Popcount bounds and flip masks.
    pub st: SignThresholds,
    /// The body the engine runs this conv on, and the rule's clause.
    pub body: BodyChoice,
    /// The AMX copy of the bank, when `body` is the AMX body.
    pub amx: Option<AmxBank>,
    /// Destination map and per-part strips.
    pub scratch: Mutex<(BitTensor, Vec<AmxStrip>)>,
}

impl ConvOperands {
    fn new(w: &Workload, bit_input: &BitTensor, bank: &BitFilterBank) -> Self {
        let f = bank.shape();
        let (g, out_h) = conv_geometry(bit_input, bank, w.params.stride);
        let level = VectorScheduler::new().streaming_level();
        let (body, amx) = amx_operands(level, &g, bit_input.h(), bank);
        let (amx, strips) = match amx {
            Some((amx, bytes)) => {
                let strips = (0..team::max_parts()).map(|_| AmxStrip::new(bytes));
                (Some(amx), strips.collect())
            }
            None => (None, Vec::new()),
        };
        let fold = BnFold {
            thresholds: vec![0.0; f.k],
            flip: vec![false; f.k],
        };
        let pad = w.params.pad;
        let dst = BitTensor::zeros(out_h + 2 * pad, g.out_w + 2 * pad, f.k);
        Self {
            st: SignThresholds::from_fold(&fold, f.kh * f.kw * f.c),
            body,
            amx,
            scratch: Mutex::new((dst, strips)),
        }
    }
}

/// Builds the operands for a workload, seeded deterministically.
pub fn prepare(w: &Workload, seed: u64) -> Prepared {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor::random(w.input_shape(), Layout::Nhwc, &mut rng);
    let input_flat = input.data().to_vec();
    match w.kind {
        OpKind::Conv { k } => {
            let fshape = FilterShape::new(k, w.params.kh, w.params.kw, w.c);
            let weights = Tensor::random(Shape::vec(fshape.numel()), Layout::Nhwc, &mut rng)
                .data()
                .to_vec();
            let bank = BitFilterBank::from_floats(&weights, fshape);
            let bit_input = BitTensor::from_tensor_padded(&input, w.params.pad);
            let conv = Some(ConvOperands::new(w, &bit_input, &bank));
            Prepared {
                workload: *w,
                input,
                input_flat,
                weights,
                weights_t: Vec::new(),
                fshape: Some(fshape),
                bit_input,
                bank: Some(bank),
                conv,
                fc_weights: None,
            }
        }
        OpKind::Fc { k } => {
            let n = w.flat_n();
            let weights = Tensor::random(Shape::vec(n * k), Layout::Nhwc, &mut rng)
                .data()
                .to_vec();
            let weights_t = bitflow_gemm::sgemm::transpose(&weights, n, k);
            let fc_weights = bitflow_ops::binary::BinaryFcWeights::pack(&weights, n, k);
            Prepared {
                workload: *w,
                bit_input: BitTensor::from_tensor(&input),
                input,
                input_flat,
                weights,
                weights_t,
                fshape: None,
                bank: None,
                conv: None,
                fc_weights: Some(fc_weights),
            }
        }
        OpKind::Pool => Prepared {
            workload: *w,
            bit_input: BitTensor::from_tensor(&input),
            input,
            input_flat,
            weights: Vec::new(),
            weights_t: Vec::new(),
            fshape: None,
            bank: None,
            conv: None,
            fc_weights: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_matches_paper() {
        let ws = table_iv();
        assert_eq!(ws.len(), 8);
        let by_name = |n: &str| *ws.iter().find(|w| w.name == n).unwrap();
        let c21 = by_name("conv2.1");
        assert_eq!((c21.h, c21.w, c21.c), (112, 112, 64));
        assert!(matches!(c21.kind, OpKind::Conv { k: 128 }));
        let f6 = by_name("fc6");
        assert_eq!(f6.flat_n(), 25088);
        assert!(matches!(f6.kind, OpKind::Fc { k: 4096 }));
        let p5 = by_name("pool5");
        assert_eq!((p5.h, p5.c), (14, 512));
    }

    #[test]
    fn prepare_conv_operands_consistent() {
        let w = table_iv()[3]; // conv5.1, small enough for a unit test
        let p = prepare(&w, 1);
        let f = p.fshape.unwrap();
        assert_eq!(f.c, 512);
        assert_eq!(p.bit_input.h(), 14 + 2);
        assert_eq!(p.bank.as_ref().unwrap().shape().k, 512);
        assert_eq!(p.weights.len(), f.numel());
    }

    #[test]
    fn prepare_fc_operands_consistent() {
        let w = table_iv()[5]; // fc7
        let p = prepare(&w, 2);
        assert_eq!(p.input_flat.len(), 4096);
        assert_eq!(p.fc_weights.as_ref().unwrap().k, 4096);
        assert_eq!(p.weights_t.len(), 4096 * 4096);
    }

    #[test]
    fn shrink_preserves_channels() {
        let w = table_iv()[0].shrunk(4);
        assert_eq!((w.h, w.w, w.c), (28, 28, 64));
        let f = table_iv()[4].shrunk(7);
        assert_eq!(f.flat_n(), 25088 / 7);
    }

    #[test]
    fn deterministic_by_seed() {
        let w = table_iv()[3];
        let a = prepare(&w, 9);
        let b = prepare(&w, 9);
        assert_eq!(a.input.data(), b.input.data());
        assert_eq!(a.weights, b.weights);
    }
}
