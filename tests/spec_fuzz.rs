//! Spec fuzzer: random valid chain networks are compiled and executed, and
//! the engine's logits are compared against the integer oracle
//! (`tests/common/oracle.rs`) — for every generated topology.

#[path = "common/oracle.rs"]
mod oracle;

use bitflow::graph::spec::{LayerSpec, NetworkSpec};
use bitflow::graph::weights::{LayerWeights, NetworkWeights};
use bitflow::graph::{BitFlowError, CompiledModel};
use bitflow::ops::ConvParams;
use bitflow::tensor::{Layout, Shape, Tensor};
use proptest::prelude::*;

/// Random chain generator: [conv|pool]* then fc+, with geometry kept valid.
fn arb_spec() -> impl Strategy<Value = NetworkSpec> {
    (
        4usize..10,                                              // input side
        prop_oneof![Just(3usize), Just(16), Just(64), Just(70)], // input channels
        proptest::collection::vec(0u8..3, 0..3),                 // body layer picks
        1usize..3,                                               // fc count
    )
        .prop_map(|(side, c, body, fcs)| {
            let mut layers = Vec::new();
            let mut h = side;
            let mut cc = c;
            for (i, pick) in body.iter().enumerate() {
                match pick {
                    0 => {
                        layers.push(LayerSpec::Conv {
                            name: format!("conv{i}"),
                            k: [8usize, 32, 64][i % 3],
                            params: ConvParams::VGG_CONV,
                        });
                        cc = [8usize, 32, 64][i % 3];
                    }
                    1 if h >= 2 => {
                        layers.push(LayerSpec::Pool {
                            name: format!("pool{i}"),
                            params: ConvParams::VGG_POOL,
                        });
                        h /= 2;
                    }
                    _ => {}
                }
            }
            let _ = cc;
            for f in 0..fcs {
                layers.push(LayerSpec::Fc {
                    name: format!("fc{f}"),
                    k: if f + 1 == fcs { 10 } else { 24 },
                });
            }
            NetworkSpec {
                name: "fuzz".into(),
                input: Shape::hwc(side, side, c),
                layers,
            }
        })
}

/// Anything-goes generator: unconstrained layer chains — zero dims, giant
/// channel counts, padded pools, FC-before-conv, missing FC heads. Most
/// outputs are invalid; some are servable. Validation must sort them.
fn arb_hostile_spec() -> impl Strategy<Value = NetworkSpec> {
    let side = prop_oneof![Just(0usize), 1usize..12, Just(16usize)];
    let chan = prop_oneof![
        Just(0usize),
        Just(3usize),
        Just(32usize),
        Just(64usize),
        Just(usize::MAX / 2),
    ];
    let conv = (0usize..66, 0usize..5, 0usize..4, 0usize..3).prop_map(|(k, kh, stride, pad)| {
        LayerSpec::Conv {
            name: "c".into(),
            k,
            params: ConvParams {
                kh,
                kw: kh,
                stride,
                pad,
            },
        }
    });
    let pool = (0usize..4, 0usize..4, 0usize..2).prop_map(|(kh, stride, pad)| LayerSpec::Pool {
        name: "p".into(),
        params: ConvParams {
            kh,
            kw: kh,
            stride,
            pad,
        },
    });
    let fc =
        prop_oneof![Just(0usize), 1usize..48, Just(usize::MAX / 2)].prop_map(|k| LayerSpec::Fc {
            name: "f".into(),
            k,
        });
    let layer = prop_oneof![conv, pool, fc];
    (side, chan, proptest::collection::vec(layer, 0..5)).prop_map(|(side, c, mut layers)| {
        for (i, l) in layers.iter_mut().enumerate() {
            match l {
                LayerSpec::Conv { name, .. } => *name = format!("c{i}"),
                LayerSpec::Pool { name, .. } => *name = format!("p{i}"),
                LayerSpec::Fc { name, .. } => *name = format!("f{i}"),
            }
        }
        NetworkSpec {
            name: "hostile".into(),
            input: Shape::hwc(side, side, c),
            layers,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_the_oracle(spec in arb_spec(), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let fail = |e: BitFlowError| TestCaseError::fail(e.to_string());
        let model = CompiledModel::try_compile(&spec, &weights).map_err(fail)?;
        let mut ctx = model.try_new_context().map_err(fail)?;
        let got = model.try_infer(&mut ctx, &input).map_err(fail)?;
        prop_assert_eq!(&got, &oracle::logits(&spec, &weights, &input));

        // And the parallel path agrees.
        ctx.parallel = true;
        let par = model.try_infer(&mut ctx, &input).map_err(fail)?;
        prop_assert_eq!(par, got);
    }

    /// Container round-trip over arbitrary valid topologies and ε values:
    /// encode→decode is the identity (the v3 payload carries each layer's
    /// ε), and the legacy-version decode path accepts a v2-stamped
    /// container only when its payload has the v2 layout.
    #[test]
    fn container_round_trip_preserves_eps(
        spec in arb_spec(),
        seed in any::<u64>(),
        eps in 1e-6f32..1e-2,
    ) {
        use bitflow::graph::model_io::{decode_model, encode_model};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        for lw in &mut weights.layers {
            if let LayerWeights::Conv { bn, .. } | LayerWeights::Fc { bn, .. } = lw {
                bn.eps = eps;
            }
        }
        let bytes = encode_model(&spec, &weights);
        let (spec2, weights2) = match decode_model(&bytes) {
            Ok(pair) => pair,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
        };
        prop_assert_eq!(&spec, &spec2);
        prop_assert_eq!(&weights, &weights2);

        // Re-stamping the version as v2 without removing the ε runs makes
        // the descriptors disagree with the payload length — the decoder
        // must reject it rather than misread the runs.
        let mut v2_stamped = bytes.clone();
        v2_stamped[4..8].copy_from_slice(&2u32.to_le_bytes());
        prop_assert!(decode_model(&v2_stamped).is_err());
    }

    /// The validate → compile → infer contract: a spec that passes
    /// `validate()` must compile and serve cleanly, and a spec that fails
    /// must be rejected by `try_compile` with exactly the same variant.
    #[test]
    fn validate_agrees_with_try_compile(spec in arb_hostile_spec(), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        match spec.validate() {
            Ok(shapes) => {
                prop_assert!(!shapes.is_empty());
                let mut rng = StdRng::seed_from_u64(seed);
                let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
                let model = match CompiledModel::try_compile(&spec, &weights) {
                    Ok(m) => m,
                    Err(e) => return Err(TestCaseError::fail(format!(
                        "validate() passed but try_compile rejected: {e}"
                    ))),
                };
                let mut ctx = match model.try_new_context() {
                    Ok(ctx) => ctx,
                    Err(e) => return Err(TestCaseError::fail(format!(
                        "validate() passed but try_new_context failed: {e}"
                    ))),
                };
                let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
                let logits = match model.try_infer(&mut ctx, &input) {
                    Ok(l) => l,
                    Err(e) => return Err(TestCaseError::fail(format!(
                        "validate() passed but try_infer failed: {e}"
                    ))),
                };
                prop_assert!(logits.iter().all(|x| x.is_finite()));
            }
            Err(want) => {
                // Weights are irrelevant: spec validation runs first.
                let weights = NetworkWeights { layers: Vec::new() };
                match CompiledModel::try_compile(&spec, &weights) {
                    Err(BitFlowError::Spec(got)) => prop_assert_eq!(got, want),
                    Err(other) => return Err(TestCaseError::fail(format!(
                        "expected Spec({want}), got {other}"
                    ))),
                    Ok(_) => return Err(TestCaseError::fail(format!(
                        "validate() rejected ({want}) but try_compile accepted"
                    ))),
                }
            }
        }
    }
}
