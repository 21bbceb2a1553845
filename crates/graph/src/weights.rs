//! Network parameters: float master weights plus batch-norm statistics.
//!
//! The float weights are the "shadow" parameters a BNN trains; the engine
//! binarizes+packs them once at compile time. Model-size accounting for the
//! paper's Table V compares the float form (what a full-precision VGG
//! ships) against the packed form (what BitFlow ships).

use crate::error::WeightMismatch;
use crate::spec::{LayerIo, LayerSpec, NetworkSpec};
use bitflow_tensor::FilterShape;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The normalization epsilon used when none was recorded: the BatchNorm
/// default, and what every pre-`eps` model container implicitly used.
pub const DEFAULT_BN_EPS: f32 = 1e-5;

/// Inference-time batch-norm statistics for one layer (per output channel).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BnParams {
    /// Scale.
    pub gamma: Vec<f32>,
    /// Shift.
    pub beta: Vec<f32>,
    /// Running mean.
    pub mean: Vec<f32>,
    /// Running variance.
    pub var: Vec<f32>,
    /// Normalization epsilon (`y = γ·(x−μ)/√(σ²+ε) + β`). Part of the
    /// trained model: folding with a different ε than training used shifts
    /// every sign threshold, so it must survive export and persistence.
    pub eps: f32,
}

impl BnParams {
    /// Identity batch-norm (γ=1, β=0, μ=0, σ²=1): sign thresholds collapse
    /// to 0 — the configuration used by all performance experiments.
    pub fn identity(c: usize) -> Self {
        Self {
            gamma: vec![1.0; c],
            beta: vec![0.0; c],
            mean: vec![0.0; c],
            var: vec![1.0; c],
            eps: DEFAULT_BN_EPS,
        }
    }

    /// Random-but-plausible statistics (positive variance, mixed-sign γ).
    pub fn random(c: usize, rng: &mut impl Rng) -> Self {
        Self {
            gamma: (0..c).map(|_| rng.gen_range(0.2f32..2.0)).collect(),
            beta: (0..c).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            mean: (0..c).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
            var: (0..c).map(|_| rng.gen_range(0.2f32..2.0)).collect(),
            eps: DEFAULT_BN_EPS,
        }
    }

    /// Folds these statistics into per-channel sign thresholds using this
    /// layer's own ε — the single fold entry point for the engine, so the
    /// epsilon can never diverge between call sites again.
    pub fn fold(&self) -> bitflow_ops::binary::BnFold {
        bitflow_ops::binary::fold_bn_into_thresholds(
            &self.gamma,
            &self.beta,
            &self.mean,
            &self.var,
            self.eps,
        )
    }
}

/// Parameters of one layer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LayerWeights {
    /// Convolution weights in (K, kh, kw, C) order + batch-norm.
    Conv {
        /// Flat weights.
        w: Vec<f32>,
        /// Filter-bank geometry.
        fshape: FilterShape,
        /// Batch-norm statistics over the K output features.
        bn: BnParams,
    },
    /// FC weights, N×K row-major + batch-norm over K.
    Fc {
        /// Flat weights.
        w: Vec<f32>,
        /// Input width.
        n: usize,
        /// Output width.
        k: usize,
        /// Batch-norm statistics over the K outputs.
        bn: BnParams,
    },
    /// Pooling has no parameters.
    Pool,
}

impl LayerWeights {
    /// Float parameter bytes (4 per weight; BN folds away at compile time
    /// and is negligible either way, matching the paper's 500 MB vs 16 MB
    /// accounting which is weight-dominated).
    pub fn float_bytes(&self) -> usize {
        match self {
            LayerWeights::Conv { w, .. } | LayerWeights::Fc { w, .. } => w.len() * 4,
            LayerWeights::Pool => 0,
        }
    }

    /// Packed (1 bit/weight, padded to whole words) parameter bytes.
    pub fn packed_bytes(&self) -> usize {
        match self {
            LayerWeights::Conv { fshape, .. } => {
                fshape.k * fshape.kh * fshape.kw * fshape.c.div_ceil(64) * 8
            }
            LayerWeights::Fc { n, k, .. } => k * n.div_ceil(64) * 8,
            LayerWeights::Pool => 0,
        }
    }
}

/// All parameters of a network, index-aligned with its spec's layers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkWeights {
    /// Per-layer parameters.
    pub layers: Vec<LayerWeights>,
}

impl NetworkWeights {
    /// Draws random weights matching `spec` (uniform in [−1, 1), identity
    /// batch-norm). Inference *speed* is weight-independent, so this is what
    /// every performance experiment uses.
    pub fn random(spec: &NetworkSpec, rng: &mut impl Rng) -> Self {
        Self::generate(spec, rng, false)
    }

    /// Random weights with random (non-identity) batch-norm — used by tests
    /// that must exercise threshold folding.
    pub fn random_with_bn(spec: &NetworkSpec, rng: &mut impl Rng) -> Self {
        Self::generate(spec, rng, true)
    }

    fn generate(spec: &NetworkSpec, rng: &mut impl Rng, random_bn: bool) -> Self {
        let shapes = spec.infer_shapes();
        let mut layers = Vec::with_capacity(spec.layers.len());
        for (i, layer) in spec.layers.iter().enumerate() {
            let in_width = spec.input_width(i, &shapes);
            let lw = match layer {
                LayerSpec::Conv { k, params, .. } => {
                    let fshape = FilterShape::new(*k, params.kh, params.kw, in_width);
                    let w = (0..fshape.numel())
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect();
                    let bn = if random_bn {
                        BnParams::random(*k, rng)
                    } else {
                        BnParams::identity(*k)
                    };
                    LayerWeights::Conv { w, fshape, bn }
                }
                LayerSpec::Pool { .. } => LayerWeights::Pool,
                LayerSpec::Fc { k, .. } => {
                    // Flatten: vector width is h·w·c of the producing map.
                    let n = if i == 0 {
                        spec.input.numel()
                    } else {
                        shapes[i - 1].numel()
                    };
                    let w = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let bn = if random_bn {
                        BnParams::random(*k, rng)
                    } else {
                        BnParams::identity(*k)
                    };
                    LayerWeights::Fc { w, n, k: *k, bn }
                }
            };
            layers.push(lw);
        }
        Self { layers }
    }

    /// Total float model size in bytes.
    pub fn float_bytes(&self) -> usize {
        self.layers.iter().map(LayerWeights::float_bytes).sum()
    }

    /// Total packed model size in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.layers.iter().map(LayerWeights::packed_bytes).sum()
    }

    /// Checks that these weights can populate `spec` (whose `validate`
    /// already produced `shapes`): layer counts and kinds line up, filter
    /// banks and FC matrices have the spec's geometry, flat weight vectors
    /// have the right length, and batch-norm statistics cover every output
    /// channel. Any disagreement is a typed [`WeightMismatch`] — the
    /// serving path surfaces it from
    /// [`crate::engine::CompiledModel::try_compile`] instead of panicking.
    pub fn validate_against(
        &self,
        spec: &NetworkSpec,
        shapes: &[LayerIo],
    ) -> Result<(), WeightMismatch> {
        if spec.layers.len() != self.layers.len() {
            return Err(WeightMismatch::LayerCount {
                spec: spec.layers.len(),
                weights: self.layers.len(),
            });
        }
        let kind = |lw: &LayerWeights| match lw {
            LayerWeights::Conv { .. } => "conv",
            LayerWeights::Fc { .. } => "fc",
            LayerWeights::Pool => "pool",
        };
        for (i, (layer, lw)) in spec.layers.iter().zip(&self.layers).enumerate() {
            let name = layer.name();
            let in_width = spec.input_width(i, shapes);
            match (layer, lw) {
                (LayerSpec::Conv { k, params, .. }, LayerWeights::Conv { w, fshape, bn }) => {
                    let expected = FilterShape::new(*k, params.kh, params.kw, in_width);
                    if *fshape != expected {
                        return Err(WeightMismatch::FilterShape {
                            layer: name.into(),
                            expected,
                            actual: *fshape,
                        });
                    }
                    // Geometry was overflow-checked by spec.validate().
                    let want = k * params.kh * params.kw * in_width;
                    if w.len() != want {
                        return Err(WeightMismatch::WeightLen {
                            layer: name.into(),
                            expected: want,
                            actual: w.len(),
                        });
                    }
                    check_bn(name, bn, *k)?;
                }
                (LayerSpec::Pool { .. }, LayerWeights::Pool) => {}
                (LayerSpec::Fc { k, .. }, LayerWeights::Fc { w, n, k: wk, bn }) => {
                    let want_n = if i == 0 {
                        spec.input.numel()
                    } else {
                        shapes[i - 1].numel()
                    };
                    if (*n, *wk) != (want_n, *k) {
                        return Err(WeightMismatch::FcGeometry {
                            layer: name.into(),
                            expected: (want_n, *k),
                            actual: (*n, *wk),
                        });
                    }
                    let want = want_n * k;
                    if w.len() != want {
                        return Err(WeightMismatch::WeightLen {
                            layer: name.into(),
                            expected: want,
                            actual: w.len(),
                        });
                    }
                    check_bn(name, bn, *k)?;
                }
                (l, lw) => {
                    return Err(WeightMismatch::LayerKind {
                        layer: l.name().into(),
                        expected: match l {
                            LayerSpec::Conv { .. } => "conv",
                            LayerSpec::Pool { .. } => "pool",
                            LayerSpec::Fc { .. } => "fc",
                        },
                        actual: kind(lw),
                    })
                }
            }
        }
        Ok(())
    }
}

/// Batch-norm statistic lengths must cover every output channel.
fn check_bn(layer: &str, bn: &BnParams, c: usize) -> Result<(), WeightMismatch> {
    for len in [bn.gamma.len(), bn.beta.len(), bn.mean.len(), bn.var.len()] {
        if len != c {
            return Err(WeightMismatch::BnLen {
                layer: layer.into(),
                expected: c,
                actual: len,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use bitflow_ops::ConvParams;
    use bitflow_tensor::Shape;
    use rand::{rngs::StdRng, SeedableRng};

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
    fn random_weights_match_spec() {
        let spec = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let w = NetworkWeights::random(&spec, &mut rng);
        match &w.layers[0] {
            LayerWeights::Conv { w, fshape, bn } => {
                assert_eq!(*fshape, FilterShape::new(32, 3, 3, 16));
                assert_eq!(w.len(), 32 * 9 * 16);
                assert_eq!(bn.gamma.len(), 32);
            }
            _ => panic!("expected conv"),
        }
        match &w.layers[2] {
            LayerWeights::Fc { n, k, w, .. } => {
                assert_eq!((*n, *k), (4 * 4 * 32, 10));
                assert_eq!(w.len(), 4 * 4 * 32 * 10);
            }
            _ => panic!("expected fc"),
        }
    }

    #[test]
    fn size_accounting_32x() {
        let spec = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let w = NetworkWeights::random(&spec, &mut rng);
        // conv: c=16 → padded to one word per 16 channels… packed words
        // round 16 bits up to 64, so the conv ratio here is 8×, while the
        // fc (n = 512, a multiple of 64) achieves the full 32×.
        let fc = &w.layers[2];
        assert_eq!(fc.float_bytes() / fc.packed_bytes(), 32);
        assert!(w.float_bytes() > w.packed_bytes());
    }

    #[test]
    fn validate_against_accepts_generated_weights() {
        let spec = toy();
        let mut rng = StdRng::seed_from_u64(5);
        let w = NetworkWeights::random_with_bn(&spec, &mut rng);
        let shapes = spec.validate().expect("valid spec");
        assert_eq!(w.validate_against(&spec, &shapes), Ok(()));
    }

    #[test]
    fn validate_against_catches_disagreements() {
        let spec = toy();
        let shapes = spec.validate().expect("valid spec");
        let mut rng = StdRng::seed_from_u64(6);

        let mut short = NetworkWeights::random(&spec, &mut rng);
        short.layers.pop();
        assert!(matches!(
            short.validate_against(&spec, &shapes),
            Err(WeightMismatch::LayerCount { .. })
        ));

        let mut swapped = NetworkWeights::random(&spec, &mut rng);
        swapped.layers.swap(1, 2);
        assert!(matches!(
            swapped.validate_against(&spec, &shapes),
            Err(WeightMismatch::LayerKind { .. })
        ));

        let mut wrong_fshape = NetworkWeights::random(&spec, &mut rng);
        if let LayerWeights::Conv { fshape, .. } = &mut wrong_fshape.layers[0] {
            fshape.c += 1;
        }
        assert!(matches!(
            wrong_fshape.validate_against(&spec, &shapes),
            Err(WeightMismatch::FilterShape { .. })
        ));

        let mut truncated = NetworkWeights::random(&spec, &mut rng);
        if let LayerWeights::Conv { w, .. } = &mut truncated.layers[0] {
            w.pop();
        }
        assert!(matches!(
            truncated.validate_against(&spec, &shapes),
            Err(WeightMismatch::WeightLen { .. })
        ));

        let mut bad_bn = NetworkWeights::random(&spec, &mut rng);
        if let LayerWeights::Fc { bn, .. } = &mut bad_bn.layers[2] {
            bn.mean.pop();
        }
        assert!(matches!(
            bad_bn.validate_against(&spec, &shapes),
            Err(WeightMismatch::BnLen { .. })
        ));

        let mut wrong_n = NetworkWeights::random(&spec, &mut rng);
        if let LayerWeights::Fc { n, .. } = &mut wrong_n.layers[2] {
            *n += 64;
        }
        assert!(matches!(
            wrong_n.validate_against(&spec, &shapes),
            Err(WeightMismatch::FcGeometry { .. })
        ));
    }

    #[test]
    fn identity_bn_thresholds_are_zero() {
        let bn = BnParams::identity(4);
        let fold = bn.fold();
        assert!(fold.thresholds.iter().all(|&t| t == 0.0));
        assert!(fold.flip.iter().all(|&f| !f));
    }

    #[test]
    fn fold_uses_the_layers_own_epsilon() {
        // A coarse ε (1e-1) against a small variance moves the threshold
        // visibly; folding with the default ε instead would be wrong.
        let bn = BnParams {
            gamma: vec![1.0],
            beta: vec![1.0],
            mean: vec![0.0],
            var: vec![0.01],
            eps: 1e-1,
        };
        let fold = bn.fold();
        let expected = bitflow_ops::binary::fold_bn_into_thresholds(
            &bn.gamma, &bn.beta, &bn.mean, &bn.var, 1e-1,
        );
        assert_eq!(fold.thresholds, expected.thresholds);
        let wrong = bitflow_ops::binary::fold_bn_into_thresholds(
            &bn.gamma,
            &bn.beta,
            &bn.mean,
            &bn.var,
            DEFAULT_BN_EPS,
        );
        assert_ne!(
            fold.thresholds, wrong.thresholds,
            "ε must actually reach the fold"
        );
    }

    #[test]
    fn negative_gamma_flips_comparison_direction() {
        use bitflow_ops::binary::{PopCmp, SignThresholds};
        // γ = −1, σ² = 1 − ε ⇒ s = −1 exactly ⇒ t = mean − β/s = mean + β.
        // With β = 0 the threshold is exactly the (integer) mean, making
        // the tie reachable by an integer dot product.
        let bn = BnParams {
            gamma: vec![-1.0],
            beta: vec![0.0],
            mean: vec![3.0],
            var: vec![1.0 - DEFAULT_BN_EPS],
            eps: DEFAULT_BN_EPS,
        };
        let fold = bn.fold();
        assert_eq!(fold.thresholds, vec![3.0]);
        assert_eq!(fold.flip, vec![true]);
        // Fold semantics: +1 iff x <= t, equality included — BN(3) = 0 and
        // sign(0) = +1.
        let n = 9usize; // window of 9 bits: dots in {−9,−7,…,7,9} ∪ parity
        let st = SignThresholds::from_fold(&fold, n);
        assert_eq!(st.direction(0), PopCmp::Ge, "negative γ compares downward");
        assert!(st.bit_from_dot(0, 3), "tie x == t is +1");
        assert!(st.bit_from_dot(0, 1), "below t is +1 when flipped");
        assert!(!st.bit_from_dot(0, 5), "above t is −1 when flipped");
    }

    #[test]
    fn out_of_range_thresholds_saturate_to_constant_channels() {
        use bitflow_ops::binary::SignThresholds;
        let n = 27usize;
        // β so large the threshold leaves the reachable dot range [−n, n]
        // in both directions, for both signs of γ.
        let bn = BnParams {
            gamma: vec![1.0, 1.0, -1.0, -1.0],
            beta: vec![1e6, -1e6, 1e6, -1e6],
            mean: vec![0.0; 4],
            var: vec![1.0 - DEFAULT_BN_EPS; 4],
            eps: DEFAULT_BN_EPS,
        };
        let st = SignThresholds::from_fold(&bn.fold(), n);
        // BN(x) = s·x + β − s·mean: once |β| dwarfs the reachable dot
        // range the activation is sign(β) for every input, whatever γ's
        // sign — the integer bound must saturate to a constant channel.
        assert!(st.always_pos(0) && !st.always_neg(0), "γ>0, β≫0: always +1");
        assert!(st.always_neg(1) && !st.always_pos(1), "γ>0, β≪0: never +1");
        assert!(st.always_pos(2) && !st.always_neg(2), "γ<0, β≫0: always +1");
        assert!(st.always_neg(3) && !st.always_pos(3), "γ<0, β≪0: never +1");
        for dot in [-(n as i64), -1, 0, 1, n as i64] {
            assert!(st.bit_from_dot(0, dot));
            assert!(!st.bit_from_dot(1, dot));
            assert!(st.bit_from_dot(2, dot));
            assert!(!st.bit_from_dot(3, dot));
        }
    }

    #[test]
    fn zero_gamma_is_constant_sign_of_beta() {
        use bitflow_ops::binary::SignThresholds;
        let bn = BnParams {
            gamma: vec![0.0, 0.0, 0.0],
            beta: vec![2.5, -2.5, 0.0],
            mean: vec![7.0; 3],
            var: vec![1.0; 3],
            eps: DEFAULT_BN_EPS,
        };
        let fold = bn.fold();
        // Zero scale degenerates to sign(β); sign(0) = +1.
        let st = SignThresholds::from_fold(&fold, 9);
        for dot in [-9i64, -3, 0, 3, 9] {
            assert!(st.bit_from_dot(0, dot), "β>0 is always +1");
            assert!(!st.bit_from_dot(1, dot), "β<0 is always −1");
            assert!(st.bit_from_dot(2, dot), "β=0 is +1 (sign(0) = +1)");
        }
    }
}
