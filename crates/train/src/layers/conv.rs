//! 3×3 convolution layer (pad 1, stride 1), float or binary (STE).
//!
//! Padding semantics follow the engine: float mode pads with 0, binary mode
//! pads with −1 (the all-zero pressed word — see `bitflow-ops`' binary
//! module docs), so a trained binary conv transfers to PressedConv exactly.

use super::batch::{Batch, SampleShape};
use super::{sign, ste_gate, Mode};
use rand::Rng;

/// 3×3, stride-1, pad-1 convolution: C input channels, K filters.
/// Weights in (K, kh, kw, C) order — the engine's order.
pub struct Conv3x3 {
    /// Shadow weights.
    pub w: Vec<f32>,
    /// Bias (float mode only).
    pub bias: Vec<f32>,
    /// Input channels.
    pub c: usize,
    /// Filters.
    pub k: usize,
    /// Precision mode.
    pub mode: Mode,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    vel_w: Vec<f32>,
    vel_b: Vec<f32>,
    cache_x: Vec<f32>,
    cache_b: usize,
    cache_hw: (usize, usize),
}

impl Conv3x3 {
    /// Glorot-style initialization.
    pub fn new(c: usize, k: usize, mode: Mode, rng: &mut impl Rng) -> Self {
        let fan = (9 * c + 9 * k) as f32;
        let bound = (6.0 / fan).sqrt();
        Self {
            w: (0..k * 9 * c)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
            bias: vec![0.0; k],
            c,
            k,
            mode,
            grad_w: vec![0.0; k * 9 * c],
            grad_b: vec![0.0; k],
            vel_w: vec![0.0; k * 9 * c],
            vel_b: vec![0.0; k],
            cache_x: Vec::new(),
            cache_b: 0,
            cache_hw: (0, 0),
        }
    }

    #[inline]
    fn widx(&self, kk: usize, i: usize, j: usize, cc: usize) -> usize {
        ((kk * 3 + i) * 3 + j) * self.c + cc
    }

    /// The padding value outside the image.
    #[inline]
    fn pad_value(&self) -> f32 {
        match self.mode {
            Mode::Float => 0.0,
            Mode::Binary => -1.0,
        }
    }

    /// Effective multiplier of a cached input value (id or sign).
    #[inline]
    fn act(&self, x: f32) -> f32 {
        match self.mode {
            Mode::Float => x,
            Mode::Binary => sign(x),
        }
    }

    /// Effective weight (id or sign).
    #[inline]
    fn eff_w(&self, v: f32) -> f32 {
        match self.mode {
            Mode::Float => v,
            Mode::Binary => sign(v),
        }
    }

    /// Forward pass over an NHWC map batch; output keeps h×w (pad 1).
    pub fn forward(&mut self, x: &Batch) -> Batch {
        let (h, w, c) = match x.shape {
            SampleShape::Map { h, w, c } => (h, w, c),
            _ => panic!("conv needs a map input"),
        };
        assert_eq!(c, self.c, "conv input channels");
        self.cache_x = x.data.clone();
        self.cache_b = x.b;
        self.cache_hw = (h, w);
        let mut out = Batch::zeros(x.b, SampleShape::Map { h, w, c: self.k });
        let pad_v = self.pad_value();
        for s in 0..x.b {
            let xs = x.sample(s);
            let ys = out.sample_mut(s);
            for oy in 0..h {
                for ox in 0..w {
                    for kk in 0..self.k {
                        let mut acc = if self.mode == Mode::Float {
                            self.bias[kk]
                        } else {
                            0.0
                        };
                        for i in 0..3 {
                            for j in 0..3 {
                                let y = oy as isize + i as isize - 1;
                                let xcol = ox as isize + j as isize - 1;
                                let inside =
                                    y >= 0 && y < h as isize && xcol >= 0 && xcol < w as isize;
                                for cc in 0..c {
                                    let xv = if inside {
                                        self.act(xs[((y as usize) * w + xcol as usize) * c + cc])
                                    } else {
                                        // pad: float 0 or binary −1 (already
                                        // "activated" values).
                                        pad_v
                                    };
                                    acc += xv * self.eff_w(self.w[self.widx(kk, i, j, cc)]);
                                }
                            }
                        }
                        ys[(oy * w + ox) * self.k + kk] = acc;
                    }
                }
            }
        }
        out
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_out: &Batch) -> Batch {
        let (h, w) = self.cache_hw;
        let c = self.c;
        assert_eq!(grad_out.shape, SampleShape::Map { h, w, c: self.k });
        assert_eq!(grad_out.b, self.cache_b);
        let mut grad_in = Batch::zeros(self.cache_b, SampleShape::Map { h, w, c });
        for s in 0..self.cache_b {
            let xs = &self.cache_x[s * h * w * c..(s + 1) * h * w * c];
            let gys = grad_out.sample(s);
            let gxs = grad_in.sample_mut(s);
            for oy in 0..h {
                for ox in 0..w {
                    for kk in 0..self.k {
                        let gy = gys[(oy * w + ox) * self.k + kk];
                        if gy == 0.0 {
                            continue;
                        }
                        if self.mode == Mode::Float {
                            self.grad_b[kk] += gy;
                        }
                        for i in 0..3 {
                            for j in 0..3 {
                                let y = oy as isize + i as isize - 1;
                                let xcol = ox as isize + j as isize - 1;
                                if y < 0 || y >= h as isize || xcol < 0 || xcol >= w as isize {
                                    // Pad positions: constant input, no
                                    // input grad; weight grad still flows
                                    // (the pad value multiplies the weight).
                                    let pad_v = self.pad_value();
                                    for cc in 0..c {
                                        let wi = self.widx(kk, i, j, cc);
                                        let gate = match self.mode {
                                            Mode::Float => 1.0,
                                            Mode::Binary => ste_gate(self.w[wi]),
                                        };
                                        self.grad_w[wi] += pad_v * gy * gate;
                                    }
                                    continue;
                                }
                                let base = ((y as usize) * w + xcol as usize) * c;
                                for cc in 0..c {
                                    let xv = xs[base + cc];
                                    let wi = self.widx(kk, i, j, cc);
                                    let wv = self.w[wi];
                                    match self.mode {
                                        Mode::Float => {
                                            self.grad_w[wi] += xv * gy;
                                            gxs[base + cc] += wv * gy;
                                        }
                                        Mode::Binary => {
                                            self.grad_w[wi] += sign(xv) * gy * ste_gate(wv);
                                            gxs[base + cc] += sign(wv) * gy * ste_gate(xv);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// SGD-with-momentum step; binary mode clips shadow weights.
    pub fn step(&mut self, lr: f32, momentum: f32) {
        let scale = 1.0 / self.cache_b.max(1) as f32;
        for i in 0..self.w.len() {
            self.vel_w[i] = momentum * self.vel_w[i] - lr * self.grad_w[i] * scale;
            self.w[i] += self.vel_w[i];
            if self.mode == Mode::Binary {
                self.w[i] = self.w[i].clamp(-1.0, 1.0);
            }
            self.grad_w[i] = 0.0;
        }
        if self.mode == Mode::Float {
            for kk in 0..self.k {
                self.vel_b[kk] = momentum * self.vel_b[kk] - lr * self.grad_b[kk] * scale;
                self.bias[kk] += self.vel_b[kk];
                self.grad_b[kk] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn float_conv_matches_ops_reference() {
        use bitflow_ops::float::conv_direct;
        use bitflow_ops::ConvParams;
        use bitflow_tensor::{FilterShape, Layout, Shape, Tensor};
        let mut rng = StdRng::seed_from_u64(210);
        let (h, w, c, k) = (5usize, 4usize, 3usize, 2usize);
        let mut layer = Conv3x3::new(c, k, Mode::Float, &mut rng);
        let data: Vec<f32> = (0..h * w * c)
            .map(|i| ((i % 11) as f32 - 5.0) / 5.0)
            .collect();
        let x = Batch::new(data.clone(), 1, SampleShape::Map { h, w, c });
        let y = layer.forward(&x);
        let t = Tensor::from_vec(data, Shape::hwc(h, w, c), Layout::Nhwc);
        let want = conv_direct(
            &t,
            &layer.w,
            FilterShape::new(k, 3, 3, c),
            ConvParams::VGG_CONV,
        );
        for (a, b) in y.data.iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn binary_conv_signs_match_the_engine_conv() {
        use bitflow_ops::binary::{pressed_conv_sign_into, BnFold, SignThresholds};
        use bitflow_ops::SimdLevel;
        use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
        let mut rng = StdRng::seed_from_u64(211);
        let (h, w, c, k) = (4usize, 4usize, 8usize, 3usize);
        let mut layer = Conv3x3::new(c, k, Mode::Binary, &mut rng);
        let data: Vec<f32> = (0..h * w * c)
            .map(|_| if rng.gen::<bool>() { 0.7 } else { -0.7 })
            .collect();
        let x = Batch::new(data.clone(), 1, SampleShape::Map { h, w, c });
        let y = layer.forward(&x);
        // The engine decides signs on the popcount: threshold each channel
        // at one of its own trained-layer dots, in both directions, so a
        // dot that is off by one count flips a bit.
        let fold = BnFold {
            thresholds: (0..k).map(|kk| y.data[kk * 5 % (h * w) * k + kk]).collect(),
            flip: (0..k).map(|kk| kk % 2 == 1).collect(),
        };
        let pressed = BitTensor::from_tensor_padded(
            &Tensor::from_vec(data, Shape::hwc(h, w, c), Layout::Nhwc),
            1,
        );
        let bank = BitFilterBank::from_floats(&layer.w, FilterShape::new(k, 3, 3, c));
        let st = SignThresholds::from_fold(&fold, 9 * c);
        let mut out = BitTensor::zeros(h, w, k);
        let level = SimdLevel::Scalar;
        pressed_conv_sign_into(level, &pressed, &bank, 1, &st, &mut out, 0, false, None);
        for (i, &dot) in y.data.iter().enumerate() {
            assert_eq!(
                out.get(i / k / w, i / k % w, i % k) == 1,
                fold.sign(i % k, dot),
                "trained-layer dot {i}"
            );
        }
    }

    #[test]
    fn float_weight_grad_finite_difference() {
        let mut rng = StdRng::seed_from_u64(212);
        let (h, w, c, k) = (3usize, 3usize, 2usize, 2usize);
        let mut layer = Conv3x3::new(c, k, Mode::Float, &mut rng);
        let data: Vec<f32> = (0..h * w * c)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0)
            .collect();
        let x = Batch::new(data, 1, SampleShape::Map { h, w, c });
        let _ = layer.forward(&x);
        let ones = Batch::new(vec![1.0; h * w * k], 1, SampleShape::Map { h, w, c: k });
        let _ = layer.backward(&ones);
        let analytic = layer.grad_w.clone();
        let eps = 1e-2f32;
        for idx in [0usize, 7, layer.w.len() - 1] {
            let orig = layer.w[idx];
            layer.w[idx] = orig + eps;
            let yp: f32 = layer.forward(&x).data.iter().sum();
            layer.w[idx] = orig - eps;
            let ym: f32 = layer.forward(&x).data.iter().sum();
            layer.w[idx] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (analytic[idx] - fd).abs() < 1e-2,
                "idx {idx}: analytic {} vs fd {fd}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn float_input_grad_finite_difference() {
        let mut rng = StdRng::seed_from_u64(213);
        let (h, w, c, k) = (3usize, 3usize, 2usize, 1usize);
        let mut layer = Conv3x3::new(c, k, Mode::Float, &mut rng);
        let data: Vec<f32> = (0..h * w * c).map(|i| (i as f32).sin()).collect();
        let x = Batch::new(data.clone(), 1, SampleShape::Map { h, w, c });
        let _ = layer.forward(&x);
        let ones = Batch::new(vec![1.0; h * w * k], 1, SampleShape::Map { h, w, c: k });
        let ginput = layer.backward(&ones);
        let eps = 1e-2f32;
        for idx in [0usize, 5, 17] {
            let mut dp = data.clone();
            dp[idx] += eps;
            let yp: f32 = layer
                .forward(&Batch::new(dp, 1, SampleShape::Map { h, w, c }))
                .data
                .iter()
                .sum();
            let mut dm = data.clone();
            dm[idx] -= eps;
            let ym: f32 = layer
                .forward(&Batch::new(dm, 1, SampleShape::Map { h, w, c }))
                .data
                .iter()
                .sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (ginput.data[idx] - fd).abs() < 1e-2,
                "idx {idx}: analytic {} vs fd {fd}",
                ginput.data[idx]
            );
        }
    }
}
