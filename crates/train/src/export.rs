//! Export a trained binary model into the BitFlow inference engine.
//!
//! The conv-net/MLP architectures of [`crate::model::Model`] are designed
//! to map 1:1 onto [`bitflow_graph`] specs:
//!
//! | trained block | engine layers |
//! |---|---|
//! | `BinaryConv → Pool → BN` | `Conv{w, bn}` (folded-threshold sign) + `Pool` |
//! | `BinaryDense → BN` | `Fc{w, bn}` (FcSign) |
//! | `BinaryDense` head | `Fc{w, identity BN}` (FcOut) |
//!
//! Exactness argument: the engine computes `pool(sign(BN(conv(x))))` while
//! the trained model computes `sign(BN(pool(conv(x))))` at the next layer's
//! input; with strictly positive γ (enforced during training) BN is a
//! per-channel increasing map, and `max` commutes with increasing maps, so
//! the two orders produce identical bits. The test below asserts the
//! end-to-end predictions agree exactly.

use crate::layers::Mode;
use crate::model::{Model, ModelLayer};
use bitflow_graph::spec::{LayerSpec, NetworkSpec};
use bitflow_graph::weights::{BnParams, LayerWeights, NetworkWeights};
use bitflow_ops::ConvParams;
use bitflow_tensor::{FilterShape, Shape};

/// Converts a trained binary model into an engine spec + weights.
///
/// # Panics
/// If the model is not in binary mode or does not follow one of the
/// engine-compatible layer patterns.
pub fn export(model: &Model) -> (NetworkSpec, NetworkWeights) {
    assert_eq!(model.mode, Mode::Binary, "only binary models export");
    let input = match model.input {
        crate::layers::batch::SampleShape::Map { h, w, c } => Shape::hwc(h, w, c),
        crate::layers::batch::SampleShape::Vec { n } => Shape::vec(n),
    };
    let mut layers = Vec::new();
    let mut weights = Vec::new();
    let mut conv_count = 0usize;
    let mut fc_count = 0usize;
    let mut i = 0;
    let n_layers = model.layers.len();
    while i < n_layers {
        match &model.layers[i] {
            ModelLayer::Conv(conv) => {
                // Expect Conv → Pool → BN.
                let pool_ok = matches!(model.layers.get(i + 1), Some(ModelLayer::Pool(_)));
                let bn = match model.layers.get(i + 2) {
                    Some(ModelLayer::Bn(bn)) => bn,
                    _ => panic!("binary conv must be followed by Pool, BN"),
                };
                assert!(pool_ok, "binary conv must be followed by Pool, BN");
                assert!(
                    bn.gamma.iter().all(|&g| g > 0.0),
                    "export requires strictly positive BN scales"
                );
                conv_count += 1;
                layers.push(LayerSpec::Conv {
                    name: format!("conv{conv_count}"),
                    k: conv.k,
                    params: ConvParams::VGG_CONV,
                });
                weights.push(LayerWeights::Conv {
                    w: conv.w.clone(),
                    fshape: FilterShape::new(conv.k, 3, 3, conv.c),
                    bn: BnParams {
                        gamma: bn.gamma.clone(),
                        beta: bn.beta.clone(),
                        mean: bn.running_mean.clone(),
                        var: bn.running_var.clone(),
                        eps: bn.eps(),
                    },
                });
                layers.push(LayerSpec::Pool {
                    name: format!("pool{conv_count}"),
                    params: ConvParams::VGG_POOL,
                });
                weights.push(LayerWeights::Pool);
                i += 3;
            }
            ModelLayer::Dense(dense) => {
                fc_count += 1;
                // Head (last layer) gets identity BN; hidden FCs take the
                // following BN layer.
                let bn = match model.layers.get(i + 1) {
                    Some(ModelLayer::Bn(bn)) => {
                        assert!(
                            bn.gamma.iter().all(|&g| g > 0.0),
                            "export requires strictly positive BN scales"
                        );
                        i += 2;
                        BnParams {
                            gamma: bn.gamma.clone(),
                            beta: bn.beta.clone(),
                            mean: bn.running_mean.clone(),
                            var: bn.running_var.clone(),
                            eps: bn.eps(),
                        }
                    }
                    _ => {
                        i += 1;
                        BnParams::identity(dense.k)
                    }
                };
                layers.push(LayerSpec::Fc {
                    name: format!("fc{fc_count}"),
                    k: dense.k,
                });
                weights.push(LayerWeights::Fc {
                    w: dense.w.clone(),
                    n: dense.n,
                    k: dense.k,
                    bn,
                });
            }
            ModelLayer::Flatten => {
                i += 1; // implicit in the engine
            }
            other => panic!(
                "layer not representable in the binary engine: {}",
                match other {
                    ModelLayer::Relu(_) => "relu",
                    ModelLayer::Bn(_) => "dangling batch-norm",
                    ModelLayer::Pool(_) => "dangling pool",
                    _ => "unknown",
                }
            ),
        }
    }
    (
        NetworkSpec {
            name: "exported".into(),
            input,
            layers,
        },
        NetworkWeights { layers: weights },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{glyphs, SIDE};
    use crate::model::TrainConfig;
    use bitflow_graph::CompiledModel;
    use bitflow_tensor::{Layout, Tensor};
    use rand::{rngs::StdRng, SeedableRng};

    /// The compiled engine's logits for every image of `data`.
    fn engine_logits(
        spec: &NetworkSpec,
        weights: &NetworkWeights,
        data: &crate::data::Dataset,
    ) -> Vec<Vec<f32>> {
        let model = CompiledModel::try_compile(spec, weights).unwrap();
        let mut ctx = model.try_new_context().unwrap();
        (0..data.len())
            .map(|i| {
                let img = Tensor::from_vec(data.image(i).to_vec(), spec.input, Layout::Nhwc);
                model.try_infer(&mut ctx, &img).unwrap()
            })
            .collect()
    }

    #[test]
    fn exported_conv_net_matches_trained_model_exactly() {
        let train = glyphs(150, 0.1, 20);
        let test = glyphs(60, 0.1, 21);
        let mut rng = StdRng::seed_from_u64(30);
        let mut model = Model::conv_net(SIDE, 1, &[8], 10, Mode::Binary, &mut rng);
        let _ = model.fit(
            &train,
            &TrainConfig {
                epochs: 4,
                batch_size: 16,
                ..TrainConfig::default()
            },
        );
        // Trained-model logits (inference mode).
        let model_logits = model.predict(&test);
        // Engine logits.
        let (spec, weights) = export(&model);
        for (i, got) in engine_logits(&spec, &weights, &test).iter().enumerate() {
            let want = model_logits.sample(i);
            assert_eq!(got.as_slice(), want, "sample {i}: engine vs trained model");
        }
    }

    #[test]
    fn exported_mlp_matches_trained_model_exactly() {
        let train = glyphs(150, 0.1, 22);
        let test = glyphs(50, 0.1, 23);
        let mut rng = StdRng::seed_from_u64(31);
        let mut model = Model::mlp(SIDE * SIDE, &[64], 10, Mode::Binary, &mut rng);
        let _ = model.fit(
            &train,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
        let model_logits = model.predict(&test);
        let (spec, weights) = export(&model);
        for (i, got) in engine_logits(&spec, &weights, &test).iter().enumerate() {
            assert_eq!(got.as_slice(), model_logits.sample(i), "sample {i}");
        }
    }

    #[test]
    fn engine_accuracy_equals_model_accuracy() {
        let train = glyphs(200, 0.15, 24);
        let test = glyphs(80, 0.15, 25);
        let mut rng = StdRng::seed_from_u64(32);
        let mut model = Model::conv_net(SIDE, 1, &[8], 10, Mode::Binary, &mut rng);
        let _ = model.fit(
            &train,
            &TrainConfig {
                epochs: 5,
                batch_size: 16,
                ..TrainConfig::default()
            },
        );
        let model_acc = model.evaluate(&test);
        let (spec, weights) = export(&model);
        let argmax = |logits: &Vec<f32>| {
            let best = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap());
            best.map(|(i, _)| i).unwrap()
        };
        let engine_acc = engine_logits(&spec, &weights, &test)
            .iter()
            .zip(&test.labels)
            .filter(|(logits, label)| argmax(logits) == **label)
            .count() as f32
            / test.len() as f32;
        assert_eq!(model_acc, engine_acc);
    }

    #[test]
    #[should_panic(expected = "only binary models")]
    fn float_model_rejected() {
        let mut rng = StdRng::seed_from_u64(33);
        let model = Model::mlp(4, &[4], 2, Mode::Float, &mut rng);
        let _ = export(&model);
    }
}
