//! 2-D convolution with stride, padding, and groups (depthwise support),
//! implemented as per-sample im2col + matmul, one sample of the batch at a
//! time.

use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};

use crate::act::Act;
use crate::layer::Layer;
use crate::math::{mm_nn, mm_nt, mm_tn};

/// 2-D convolution layer.
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    weight: Vec<f32>,
    bias: Option<Vec<f32>>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    vw: Vec<f32>,
    vb: Vec<f32>,
    cached_x: Option<Act>,
    out_hw: (usize, usize),
}

impl Conv2d {
    /// New convolution with Kaiming-normal initialization.
    ///
    /// # Panics
    /// Panics if channel counts are not divisible by `groups`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        bias: bool,
        rng: &mut SplitMix64,
    ) -> Self {
        assert!(
            in_ch.is_multiple_of(groups) && out_ch.is_multiple_of(groups),
            "bad group count"
        );
        let icg = in_ch / groups;
        let fan_in = icg * k * k;
        let std = (2.0 / fan_in as f64).sqrt();
        let wlen = out_ch * icg * k * k;
        let weight: Vec<f32> = (0..wlen)
            .map(|_| rng.normal_with(0.0, std) as f32)
            .collect();
        Self {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            groups,
            weight,
            bias: bias.then(|| vec![0.0; out_ch]),
            gw: vec![0.0; wlen],
            gb: vec![0.0; out_ch],
            vw: vec![0.0; wlen],
            vb: vec![0.0; out_ch],
            cached_x: None,
            out_hw: (0, 0),
        }
    }

    fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Fill `col` (`icg*k*k × oh*ow`) from one sample's channels of a group.
    #[allow(clippy::too_many_arguments)]
    fn im2col(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        group: usize,
        oh: usize,
        ow: usize,
        col: &mut [f32],
    ) {
        let icg = self.in_ch / self.groups;
        let ch0 = group * icg;
        let l = oh * ow;
        col.fill(0.0);
        for ic in 0..icg {
            let plane = &x[(ch0 + ic) * h * w..(ch0 + ic + 1) * h * w];
            for ky in 0..self.k {
                for kx in 0..self.k {
                    let row = ((ic * self.k + ky) * self.k + kx) * l;
                    for oy in 0..oh {
                        let iy = oy * self.stride + ky;
                        if iy < self.pad || iy >= h + self.pad {
                            continue;
                        }
                        let iy = iy - self.pad;
                        for ox in 0..ow {
                            let ix = ox * self.stride + kx;
                            if ix < self.pad || ix >= w + self.pad {
                                continue;
                            }
                            col[row + oy * ow + ox] = plane[iy * w + ix - self.pad];
                        }
                    }
                }
            }
        }
    }

    /// Scatter-add `col` gradients back into one sample's input gradient.
    #[allow(clippy::too_many_arguments)]
    fn col2im(
        &self,
        col: &[f32],
        h: usize,
        w: usize,
        group: usize,
        oh: usize,
        ow: usize,
        gx: &mut [f32],
    ) {
        let icg = self.in_ch / self.groups;
        let ch0 = group * icg;
        let l = oh * ow;
        for ic in 0..icg {
            let plane = &mut gx[(ch0 + ic) * h * w..(ch0 + ic + 1) * h * w];
            for ky in 0..self.k {
                for kx in 0..self.k {
                    let row = ((ic * self.k + ky) * self.k + kx) * l;
                    for oy in 0..oh {
                        let iy = oy * self.stride + ky;
                        if iy < self.pad || iy >= h + self.pad {
                            continue;
                        }
                        let iy = iy - self.pad;
                        for ox in 0..ow {
                            let ix = ox * self.stride + kx;
                            if ix < self.pad || ix >= w + self.pad {
                                continue;
                            }
                            plane[iy * w + ix - self.pad] += col[row + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Act, train: bool) -> Act {
        assert_eq!(x.c, self.in_ch, "conv input channel mismatch");
        let (oh, ow) = self.out_dims(x.h, x.w);
        self.out_hw = (oh, ow);
        let icg = self.in_ch / self.groups;
        let opg = self.out_ch / self.groups;
        let kvol = icg * self.k * self.k;
        let l = oh * ow;

        let outputs: Vec<Vec<f32>> = (0..x.n)
            .map(|i| {
                let xs = x.sample(i);
                let mut out = vec![0.0f32; self.out_ch * l];
                let mut col = vec![0.0f32; kvol * l];
                for g in 0..self.groups {
                    self.im2col(xs, x.h, x.w, g, oh, ow, &mut col);
                    let wg = &self.weight[g * opg * kvol..(g + 1) * opg * kvol];
                    let og = &mut out[g * opg * l..(g + 1) * opg * l];
                    mm_nn(wg, &col, opg, kvol, l, og);
                }
                if let Some(bias) = &self.bias {
                    for (oc, &b) in bias.iter().enumerate() {
                        for v in &mut out[oc * l..(oc + 1) * l] {
                            *v += b;
                        }
                    }
                }
                out
            })
            .collect();

        let mut data = Vec::with_capacity(x.n * self.out_ch * l);
        for o in outputs {
            data.extend_from_slice(&o);
        }
        if train {
            self.cached_x = Some(x.clone());
        }
        Act::new(data, x.n, self.out_ch, oh, ow)
    }

    fn backward(&mut self, grad: Act) -> Act {
        let x = self.cached_x.take().expect("conv backward without forward");
        let (oh, ow) = self.out_hw;
        assert_eq!((grad.c, grad.h, grad.w), (self.out_ch, oh, ow));
        let icg = self.in_ch / self.groups;
        let opg = self.out_ch / self.groups;
        let kvol = icg * self.k * self.k;
        let l = oh * ow;

        struct Partial {
            gx: Vec<f32>,
            gw: Vec<f32>,
            gb: Vec<f32>,
        }
        let partials: Vec<Partial> = (0..x.n)
            .map(|i| {
                let xs = x.sample(i);
                let gs = grad.sample(i);
                let mut gx = vec![0.0f32; x.sample_len()];
                let mut gw = vec![0.0f32; self.weight.len()];
                let mut gb = vec![0.0f32; self.out_ch];
                let mut col = vec![0.0f32; kvol * l];
                let mut gcol = vec![0.0f32; kvol * l];
                for g in 0..self.groups {
                    self.im2col(xs, x.h, x.w, g, oh, ow, &mut col);
                    let gg = &gs[g * opg * l..(g + 1) * opg * l];
                    // dW_g += G_g (opg x L) * col^T (L x kvol)
                    mm_nt(
                        gg,
                        &col,
                        opg,
                        l,
                        kvol,
                        &mut gw[g * opg * kvol..(g + 1) * opg * kvol],
                    );
                    // dcol = W_g^T (kvol x opg) * G_g (opg x L)
                    gcol.fill(0.0);
                    let wg = &self.weight[g * opg * kvol..(g + 1) * opg * kvol];
                    mm_tn(wg, gg, kvol, opg, l, &mut gcol);
                    self.col2im(&gcol, x.h, x.w, g, oh, ow, &mut gx);
                }
                if self.bias.is_some() {
                    for oc in 0..self.out_ch {
                        gb[oc] = gs[oc * l..(oc + 1) * l].iter().sum();
                    }
                }
                Partial { gx, gw, gb }
            })
            .collect();

        self.gw.fill(0.0);
        self.gb.fill(0.0);
        let mut gx_data = Vec::with_capacity(x.n * x.sample_len());
        for p in partials {
            gx_data.extend_from_slice(&p.gx);
            for (a, b) in self.gw.iter_mut().zip(&p.gw) {
                *a += b;
            }
            for (a, b) in self.gb.iter_mut().zip(&p.gb) {
                *a += b;
            }
        }
        Act::new(gx_data, x.n, x.c, x.h, x.w)
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        for ((w, v), &g) in self.weight.iter_mut().zip(&mut self.vw).zip(&self.gw) {
            *v = momentum * *v - lr * g;
            *w += *v;
        }
        if let Some(bias) = &mut self.bias {
            for ((b, v), &g) in bias.iter_mut().zip(&mut self.vb).zip(&self.gb) {
                *v = momentum * *v - lr * g;
                *b += *v;
            }
        }
    }

    fn export(&self, prefix: &str, sd: &mut StateDict) {
        let icg = self.in_ch / self.groups;
        sd.insert(
            format!("{prefix}.weight"),
            TensorKind::Weight,
            Tensor::new(vec![self.out_ch, icg, self.k, self.k], self.weight.clone()),
        );
        if let Some(bias) = &self.bias {
            sd.insert(
                format!("{prefix}.bias"),
                TensorKind::Bias,
                Tensor::from_vec(bias.clone()),
            );
        }
    }

    fn import(&mut self, prefix: &str, sd: &StateDict) {
        let w = sd
            .get(&format!("{prefix}.weight"))
            .unwrap_or_else(|| panic!("missing {prefix}.weight"));
        assert_eq!(
            w.numel(),
            self.weight.len(),
            "{prefix}.weight shape mismatch"
        );
        self.weight.copy_from_slice(w.data());
        if let Some(bias) = &mut self.bias {
            let b = sd
                .get(&format!("{prefix}.bias"))
                .unwrap_or_else(|| panic!("missing {prefix}.bias"));
            bias.copy_from_slice(b.data());
        }
        self.vw.fill(0.0);
        self.vb.fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.as_ref().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(7)
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 1, false, &mut rng());
        conv.weight[0] = 1.0;
        let x = Act::new((0..16).map(|i| i as f32).collect(), 1, 1, 4, 4);
        let y = conv.forward(x.clone(), false);
        assert_eq!(y.data, x.data);
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 1, false, &mut rng());
        conv.weight
            .copy_from_slice(&[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let x = Act::new((0..25).map(|i| i as f32).collect(), 1, 1, 5, 5);
        let y = conv.forward(x, false);
        // Center-tap kernel picks the middle of each 3x3 window.
        assert_eq!((y.h, y.w), (3, 3));
        assert_eq!(y.data, [6.0, 7.0, 8.0, 11.0, 12.0, 13.0, 16.0, 17.0, 18.0]);
    }

    #[test]
    fn padding_and_stride_shapes() {
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, 1, true, &mut rng());
        let y = conv.forward(Act::zeros(2, 3, 32, 32), false);
        assert_eq!((y.n, y.c, y.h, y.w), (2, 8, 16, 16));
    }

    #[test]
    fn depthwise_groups() {
        let mut conv = Conv2d::new(4, 4, 3, 1, 1, 4, false, &mut rng());
        assert_eq!(conv.weight.len(), 4 * 9);
        let y = conv.forward(Act::zeros(1, 4, 8, 8), false);
        assert_eq!((y.c, y.h, y.w), (4, 8, 8));
    }

    /// Finite-difference gradient check on a tiny conv.
    #[test]
    fn gradient_check() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1, true, &mut rng());
        let mut r = SplitMix64::new(99);
        let x = Act::new(
            (0..2 * 2 * 5 * 5).map(|_| r.uniform(-1.0, 1.0)).collect(),
            2,
            2,
            5,
            5,
        );
        // Loss = sum(y^2)/2 so dL/dy = y.
        let y = conv.forward(x.clone(), true);
        let gy = y.clone();
        let gx = conv.backward(gy);

        let loss = |conv: &mut Conv2d, x: &Act| -> f64 {
            let y = conv.forward(x.clone(), false);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;

        // Check a scattering of weight gradients.
        for idx in [0usize, 7, 19, 33, conv.weight.len() - 1] {
            let orig = conv.weight[idx];
            conv.weight[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = conv.gw[idx];
            assert!(
                (numeric - analytic).abs() < 0.02 * (1.0 + numeric.abs()),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check a scattering of input gradients.
        let mut x2 = x.clone();
        for idx in [0usize, 13, 49, 99] {
            let orig = x2.data[idx];
            x2.data[idx] = orig + eps;
            let lp = loss(&mut conv, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut conv, &x2);
            x2.data[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = gx.data[idx];
            assert!(
                (numeric - analytic).abs() < 0.02 * (1.0 + numeric.abs()),
                "x[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Finite-difference check for grouped (depthwise) convolution.
    #[test]
    fn depthwise_gradient_check() {
        let mut conv = Conv2d::new(4, 4, 3, 1, 1, 4, false, &mut rng());
        let mut r = SplitMix64::new(123);
        let x = Act::new(
            (0..2 * 4 * 4 * 4).map(|_| r.uniform(-1.0, 1.0)).collect(),
            2,
            4,
            4,
            4,
        );
        let y = conv.forward(x.clone(), true);
        let gx = conv.backward(y);

        let loss = |conv: &mut Conv2d, x: &Act| -> f64 {
            let y = conv.forward(x.clone(), false);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 9, 17, 35] {
            let orig = conv.weight[idx];
            conv.weight[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - conv.gw[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "dw w[{idx}]: numeric {numeric} vs analytic {}",
                conv.gw[idx]
            );
        }
        let mut x2 = x.clone();
        for idx in [0usize, 31, 77] {
            let orig = x2.data[idx];
            x2.data[idx] = orig + eps;
            let lp = loss(&mut conv, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut conv, &x2);
            x2.data[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - gx.data[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "dw x[{idx}]: numeric {numeric} vs analytic {}",
                gx.data[idx]
            );
        }
    }

    /// Finite-difference check with stride 2 and padding.
    #[test]
    fn strided_gradient_check() {
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, 1, true, &mut rng());
        let mut r = SplitMix64::new(321);
        let x = Act::new(
            (0..2 * 6 * 6).map(|_| r.uniform(-1.0, 1.0)).collect(),
            1,
            2,
            6,
            6,
        );
        let y = conv.forward(x.clone(), true);
        assert_eq!((y.h, y.w), (3, 3));
        let gx = conv.backward(y);
        let loss = |conv: &mut Conv2d, x: &Act| -> f64 {
            let y = conv.forward(x.clone(), false);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 20, 50, 71] {
            let orig = x.data[idx];
            let mut x2 = x.clone();
            x2.data[idx] = orig + eps;
            let lp = loss(&mut conv, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut conv, &x2);
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - gx.data[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "strided x[{idx}]: numeric {numeric} vs analytic {}",
                gx.data[idx]
            );
        }
    }

    #[test]
    fn export_import_round_trip() {
        let a = Conv2d::new(3, 4, 3, 1, 1, 1, true, &mut SplitMix64::new(1));
        let mut sd = StateDict::new();
        a.export("conv", &mut sd);
        let mut b = Conv2d::new(3, 4, 3, 1, 1, 1, true, &mut SplitMix64::new(2));
        b.import("conv", &sd);
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 1, true, &mut rng());
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }
}
