//! Pointwise float layers: ReLU, batch-norm (inference form), softmax.

use bitflow_tensor::Tensor;

/// In-place ReLU.
pub fn relu(t: &mut Tensor) {
    for x in t.data_mut() {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

/// Inference-time batch normalization over the channel dimension:
/// `y = gamma·(x − mean)/sqrt(var + eps) + beta`, per channel.
///
/// In BNN inference this is typically *folded* into the per-channel sign
/// threshold of the following binarization (see
/// [`crate::binary::binarize::fold_bn_into_thresholds`]); the explicit form
/// here is the float baseline and the training-side reference.
pub fn batch_norm(
    t: &mut Tensor,
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    eps: f32,
) {
    let c = t.shape().c;
    assert_eq!(gamma.len(), c);
    assert_eq!(beta.len(), c);
    assert_eq!(mean.len(), c);
    assert_eq!(var.len(), c);
    // NHWC: channels innermost, so walk flat data modulo c.
    assert_eq!(t.layout(), bitflow_tensor::Layout::Nhwc);
    let scale: Vec<f32> = (0..c).map(|i| gamma[i] / (var[i] + eps).sqrt()).collect();
    let shift: Vec<f32> = (0..c).map(|i| beta[i] - mean[i] * scale[i]).collect();
    for (i, x) in t.data_mut().iter_mut().enumerate() {
        let ci = i % c;
        *x = *x * scale[ci] + shift[ci];
    }
}

/// Numerically-stable softmax over a flat vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitflow_tensor::{Layout, Shape};

    #[test]
    fn relu_clamps() {
        let mut t = Tensor::from_vec(vec![-1.0, 0.0, 2.0], Shape::vec(3), Layout::Nhwc);
        relu(&mut t);
        assert_eq!(t.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn batch_norm_identity() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::hwc(2, 1, 2), Layout::Nhwc);
        let ones = vec![1.0, 1.0];
        let zeros = vec![0.0, 0.0];
        batch_norm(&mut t, &ones, &zeros, &zeros, &ones, 0.0);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn batch_norm_scales_per_channel() {
        let mut t = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], Shape::hwc(2, 1, 2), Layout::Nhwc);
        batch_norm(
            &mut t,
            &[2.0, 3.0],
            &[10.0, -10.0],
            &[1.0, 1.0],
            &[1.0, 1.0],
            0.0,
        );
        // x = mean → y = beta.
        assert_eq!(t.data(), &[10.0, -10.0, 10.0, -10.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }
}
