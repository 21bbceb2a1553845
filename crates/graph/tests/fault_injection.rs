//! Fault-injection harness for the serving path: hostile specs, malformed
//! inference requests, and batch-degradation semantics. Everything here
//! must surface as a typed [`BitFlowError`] — a panic is a failed test.

use bitflow_graph::error::{BitFlowError, InputGeometry, RejectReason, SpecError};
use bitflow_graph::models::small_cnn;
use bitflow_graph::spec::{LayerSpec, NetworkSpec};
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::{BatchItem, CancelToken, CompiledModel, InferenceContext};
use bitflow_ops::ConvParams;
use bitflow_tensor::{Layout, Shape, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn compiled() -> (CompiledModel, Tensor) {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let model = match CompiledModel::try_compile(&spec, &weights) {
        Ok(m) => m,
        Err(e) => panic!("seed model must compile: {e}"),
    };
    (model, input)
}

fn fresh(model: &CompiledModel) -> InferenceContext {
    match model.try_new_context() {
        Ok(ctx) => ctx,
        Err(e) => panic!("context must allocate: {e}"),
    }
}

/// One run of `input` under `token`.
fn run_with(
    model: &CompiledModel,
    ctx: &mut InferenceContext,
    input: &Tensor,
    token: &CancelToken,
) -> Result<Vec<f32>, BitFlowError> {
    let item = BatchItem {
        cancel: token,
        ..BatchItem::new(input)
    };
    model.run(ctx, &item)
}

fn conv(name: &str, k: usize) -> LayerSpec {
    LayerSpec::Conv {
        name: name.into(),
        k,
        params: ConvParams::VGG_CONV,
    }
}

fn fc(name: &str, k: usize) -> LayerSpec {
    LayerSpec::Fc {
        name: name.into(),
        k,
    }
}

/// `try_compile` on a hostile spec must return `Err` without panicking.
fn expect_spec_error(spec: NetworkSpec) -> SpecError {
    let weights = NetworkWeights { layers: Vec::new() };
    let r = catch_unwind(AssertUnwindSafe(|| {
        CompiledModel::try_compile(&spec, &weights)
    }));
    match r {
        Ok(Err(BitFlowError::Spec(e))) => e,
        Ok(Err(other)) => panic!("expected SpecError, got {other}"),
        Ok(Ok(_)) => panic!("hostile spec compiled"),
        Err(_) => panic!("try_compile panicked on hostile spec"),
    }
}

#[test]
fn zero_dimension_specs_are_rejected() {
    let e = expect_spec_error(NetworkSpec {
        name: "zero-input".into(),
        input: Shape::hwc(0, 8, 3),
        layers: vec![conv("c0", 8), fc("f0", 10)],
    });
    assert!(matches!(e, SpecError::ZeroDim { .. }), "{e}");

    let e = expect_spec_error(NetworkSpec {
        name: "zero-filters".into(),
        input: Shape::hwc(8, 8, 3),
        layers: vec![conv("c0", 0), fc("f0", 10)],
    });
    assert!(matches!(e, SpecError::ZeroDim { .. }), "{e}");
}

#[test]
fn overflow_channel_specs_are_rejected() {
    let e = expect_spec_error(NetworkSpec {
        name: "overflow".into(),
        input: Shape::hwc(8, 8, usize::MAX / 2),
        layers: vec![conv("c0", 8), fc("f0", 10)],
    });
    assert!(
        matches!(e, SpecError::Kernel { .. } | SpecError::Overflow { .. }),
        "{e}"
    );

    let e = expect_spec_error(NetworkSpec {
        name: "overflow-fc".into(),
        input: Shape::hwc(4, 4, 3),
        layers: vec![fc("f0", usize::MAX / 2), fc("f1", 10)],
    });
    assert!(matches!(e, SpecError::Overflow { .. }), "{e}");
}

#[test]
fn spatial_after_fc_is_rejected() {
    let e = expect_spec_error(NetworkSpec {
        name: "conv-after-fc".into(),
        input: Shape::hwc(8, 8, 3),
        layers: vec![fc("f0", 32), conv("c1", 8), fc("f1", 10)],
    });
    assert!(matches!(e, SpecError::SpatialAfterFc { .. }), "{e}");
}

#[test]
fn missing_fc_head_is_rejected() {
    let e = expect_spec_error(NetworkSpec {
        name: "no-head".into(),
        input: Shape::hwc(8, 8, 3),
        layers: vec![conv("c0", 8)],
    });
    assert!(matches!(e, SpecError::LastLayerNotFc { .. }), "{e}");

    let e = expect_spec_error(NetworkSpec {
        name: "empty".into(),
        input: Shape::hwc(8, 8, 3),
        layers: vec![],
    });
    assert_eq!(e, SpecError::EmptyNetwork);
}

#[test]
fn oversized_kernel_is_rejected() {
    let e = expect_spec_error(NetworkSpec {
        name: "big-window".into(),
        input: Shape::hwc(2, 2, 32),
        layers: vec![
            LayerSpec::Pool {
                name: "p0".into(),
                params: ConvParams {
                    kh: 5,
                    kw: 5,
                    stride: 1,
                    pad: 0,
                },
            },
            fc("f0", 10),
        ],
    });
    assert!(matches!(e, SpecError::Kernel { .. }), "{e}");
}

#[test]
fn wrong_shape_input_is_a_typed_error() {
    let (model, _) = compiled();
    let mut ctx = fresh(&model);
    let mut rng = StdRng::seed_from_u64(7);
    let bad = Tensor::random(Shape::hwc(5, 5, 3), Layout::Nhwc, &mut rng);
    match model.try_infer(&mut ctx, &bad) {
        Err(BitFlowError::InputGeometry(InputGeometry::ShapeMismatch { .. })) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn nan_and_inf_inputs_are_typed_errors() {
    let (model, good) = compiled();
    let mut ctx = fresh(&model);
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut data = good.data().to_vec();
        let mid = data.len() / 2;
        data[mid] = poison;
        let bad = Tensor::from_vec(data, good.shape(), Layout::Nhwc);
        match model.try_infer(&mut ctx, &bad) {
            Err(BitFlowError::InputGeometry(InputGeometry::NonFinite { index })) => {
                assert_eq!(index, mid);
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }
}

#[test]
fn context_from_another_model_is_a_typed_error() {
    let (model, input) = compiled();
    // A context for a different network has a different slot count.
    let other_spec = NetworkSpec {
        name: "other".into(),
        input: Shape::hwc(8, 8, 3),
        layers: vec![fc("f0", 10)],
    };
    let mut rng = StdRng::seed_from_u64(3);
    let other_weights = NetworkWeights::random_with_bn(&other_spec, &mut rng);
    let other = match CompiledModel::try_compile(&other_spec, &other_weights) {
        Ok(m) => m,
        Err(e) => panic!("other model must compile: {e}"),
    };
    let mut foreign_ctx = fresh(&other);
    match model.try_infer(&mut foreign_ctx, &input) {
        Err(BitFlowError::InputGeometry(InputGeometry::ContextMismatch { .. })) => {}
        other => panic!("expected ContextMismatch, got {other:?}"),
    }
}

/// One malformed item must not poison the batch: every other item's
/// logits stay bit-identical to a serial run over a single context.
#[test]
fn bad_batch_item_degrades_gracefully() {
    let (model, _) = compiled();
    let mut rng = StdRng::seed_from_u64(11);
    let shape = model.spec().input;
    let mut inputs: Vec<Tensor> = (0..16)
        .map(|_| Tensor::random(shape, Layout::Nhwc, &mut rng))
        .collect();
    // Poison two items in different worker chunks: one wrong shape, one NaN.
    inputs[3] = Tensor::random(Shape::hwc(2, 2, 3), Layout::Nhwc, &mut rng);
    let mut poisoned = inputs[12].data().to_vec();
    poisoned[0] = f32::NAN;
    inputs[12] = Tensor::from_vec(poisoned, shape, Layout::Nhwc);

    let results = model.try_infer_batch(&inputs);
    assert_eq!(results.len(), inputs.len());

    // Serial oracle over one context.
    let mut ctx = fresh(&model);
    for (i, (input, result)) in inputs.iter().zip(&results).enumerate() {
        if i == 3 || i == 12 {
            assert!(result.is_err(), "poisoned item {i} must fail");
            continue;
        }
        let want = match model.try_infer(&mut ctx, input) {
            Ok(l) => l,
            Err(e) => panic!("serial oracle failed on good item {i}: {e}"),
        };
        match result {
            Ok(got) => assert_eq!(got, &want, "item {i} diverged from serial inference"),
            Err(e) => panic!("good item {i} failed: {e}"),
        }
    }

    // The typed variants are the ones the injector planted.
    assert!(matches!(
        results[3],
        Err(BitFlowError::InputGeometry(
            InputGeometry::ShapeMismatch { .. }
        ))
    ));
    assert!(matches!(
        results[12],
        Err(BitFlowError::InputGeometry(InputGeometry::NonFinite { .. }))
    ));
}

/// An all-bad batch returns all errors, no panics, correct length.
#[test]
fn all_bad_batch_returns_all_errors() {
    let (model, _) = compiled();
    let mut rng = StdRng::seed_from_u64(13);
    let inputs: Vec<Tensor> = (0..8)
        .map(|_| Tensor::random(Shape::hwc(1, 1, 1), Layout::Nhwc, &mut rng))
        .collect();
    let results = model.try_infer_batch(&inputs);
    assert_eq!(results.len(), 8);
    assert!(results.iter().all(Result::is_err));
}

/// Empty batches are a no-op, not an edge-case crash.
#[test]
fn empty_batch_is_empty() {
    let (model, _) = compiled();
    assert!(model.try_infer_batch(&[]).is_empty());
}

/// A cancelled token surfaces as `Err(Cancelled)` — not a panic — and the
/// abandoned context is not poisoned: the next complete run through it is
/// bit-identical to a fresh context.
#[test]
fn cancellation_is_typed_and_does_not_poison_the_context() {
    let (model, input) = compiled();
    let mut ctx = fresh(&model);
    let golden = match model.try_infer(&mut ctx, &input) {
        Ok(l) => l,
        Err(e) => panic!("golden run failed: {e}"),
    };

    let token = CancelToken::new();
    token.cancel();
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_with(&model, &mut ctx, &input, &token)
    }));
    match r {
        Ok(Err(BitFlowError::Cancelled)) => {}
        Ok(other) => panic!("expected Cancelled, got {other:?}"),
        Err(_) => panic!("cancellation panicked"),
    }

    let again = match model.try_infer(&mut ctx, &input) {
        Ok(l) => l,
        Err(e) => panic!("post-cancel run failed: {e}"),
    };
    assert_eq!(again, golden, "cancelled run poisoned the context");
}

/// A deadline in the past surfaces as `Err(DeadlineExceeded)`, and a
/// deadline crossed *mid-run* (planted via the fault hook slowing one
/// operator) aborts at the next operator boundary, again without
/// poisoning the context.
#[test]
fn deadline_exceeded_is_typed_and_does_not_poison_the_context() {
    let (model, input) = compiled();
    let mut ctx = fresh(&model);
    let golden = match model.try_infer(&mut ctx, &input) {
        Ok(l) => l,
        Err(e) => panic!("golden run failed: {e}"),
    };

    // Already-expired deadline: rejected at the first checkpoint.
    let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
    match run_with(&model, &mut ctx, &input, &expired) {
        Err(BitFlowError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Deadline that expires inside operator #0 (the hook stalls it past
    // the budget): the run must stop at the next boundary.
    assert!(model.install_fault_hook(Arc::new(|op, _name, _tag| {
        if op == 0 {
            std::thread::sleep(Duration::from_millis(30));
        }
    })));
    let tight = CancelToken::with_budget(Duration::from_millis(5));
    match run_with(&model, &mut ctx, &input, &tight) {
        Err(BitFlowError::DeadlineExceeded) => {}
        other => panic!("expected mid-run DeadlineExceeded, got {other:?}"),
    }

    let again = match model.try_infer(&mut ctx, &input) {
        Ok(l) => l,
        Err(e) => panic!("post-deadline run failed: {e}"),
    };
    assert_eq!(again, golden, "deadline-aborted run poisoned the context");
}

/// A panic planted inside one operator of a batch degrades to a typed
/// `Internal` error that names the operator; the other items survive
/// bit-identical, and the model keeps serving afterwards.
#[test]
fn batch_panic_is_attributed_to_the_operator() {
    let (model, _) = compiled();
    let mut rng = StdRng::seed_from_u64(17);
    let shape = model.spec().input;
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| Tensor::random(shape, Layout::Nhwc, &mut rng))
        .collect();

    // One-shot bomb in operator #1: exactly one invocation panics.
    let fired = Arc::new(AtomicUsize::new(0));
    let hook_fired = Arc::clone(&fired);
    assert!(model.install_fault_hook(Arc::new(move |op, name, _tag| {
        if op == 1 && hook_fired.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("planted fault in {name}");
        }
    })));

    let results = model.try_infer_batch(&inputs);
    assert_eq!(results.len(), inputs.len());
    let internals: Vec<&BitFlowError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(internals.len(), 1, "exactly one item hits the bomb");
    match internals[0] {
        BitFlowError::Internal(msg) => {
            let telemetry = model.enable_telemetry();
            let op1 = match telemetry.op_name(1) {
                Some(n) => n.to_string(),
                None => panic!("model has no operator #1"),
            };
            assert!(
                msg.contains(&format!("operator `{op1}`")) && msg.contains("#1"),
                "panic not attributed to operator `{op1}`: {msg}"
            );
            assert!(msg.contains("planted fault"), "payload text lost: {msg}");
        }
        other => panic!("expected Internal, got {other}"),
    }

    // The survivors match a serial oracle and the model still serves.
    let mut ctx = fresh(&model);
    for (input, result) in inputs.iter().zip(&results) {
        if let Ok(got) = result {
            let want = match model.try_infer(&mut ctx, input) {
                Ok(l) => l,
                Err(e) => panic!("oracle failed: {e}"),
            };
            assert_eq!(got, &want, "survivor diverged from serial inference");
        }
    }
}

/// The overload-control variants are ordinary values: Display, error
/// codes, and serde all cover them (the serving layer returns these to
/// clients, so their wire shape is part of the contract).
#[test]
fn overload_errors_are_typed_values() {
    for (reason, label) in [
        (RejectReason::QueueFull, "queue_full"),
        (RejectReason::Shedding, "shedding"),
        (RejectReason::Draining, "draining"),
    ] {
        assert_eq!(reason.label(), label);
        let err = BitFlowError::from(reason);
        assert_eq!(err.code(), format!("rejected_{label}"));
        assert!(!err.to_string().is_empty());
    }
    assert_eq!(BitFlowError::DeadlineExceeded.code(), "deadline_exceeded");
    assert_eq!(BitFlowError::Cancelled.code(), "cancelled");
}
