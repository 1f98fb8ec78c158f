//! Fully-connected layer.

use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};

use crate::act::Act;
use crate::layer::Layer;
use crate::math::{Acc, Gemm, Mat};

/// Dense (fully-connected) layer: `y = x Wᵀ + b`.
pub(crate) struct Dense {
    in_f: usize,
    out_f: usize,
    weight: Vec<f32>, // [out_f, in_f]
    bias: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    vw: Vec<f32>,
    vb: Vec<f32>,
    cached_x: Option<Act>,
}

impl Dense {
    /// New dense layer with Kaiming-normal initialization.
    pub fn new(in_f: usize, out_f: usize, rng: &mut SplitMix64) -> Self {
        let std = (2.0 / in_f as f64).sqrt();
        Self {
            in_f,
            out_f,
            weight: (0..out_f * in_f)
                .map(|_| rng.normal_with(0.0, std) as f32)
                .collect(),
            bias: vec![0.0; out_f],
            gw: vec![0.0; out_f * in_f],
            gb: vec![0.0; out_f],
            vw: vec![0.0; out_f * in_f],
            vb: vec![0.0; out_f],
            cached_x: None,
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: Act, train: bool) -> Act {
        assert_eq!(x.sample_len(), self.in_f, "dense input width mismatch");
        let n = x.n;
        let mut out = vec![0.0f32; n * self.out_f];
        // out (n x out) += x (n x in) * W^T (in x out); W is (out x in).
        let w = Mat::new(&self.weight, self.out_f, self.in_f);
        Gemm::default().mul(
            Mat::new(&x.data, n, self.in_f),
            w.t(),
            &mut out,
            Acc::FromZero,
        );
        for i in 0..n {
            for (o, &b) in out[i * self.out_f..(i + 1) * self.out_f]
                .iter_mut()
                .zip(&self.bias)
            {
                *o += b;
            }
        }
        if train {
            self.cached_x = Some(x);
        }
        Act::new(out, n, self.out_f, 1, 1)
    }

    fn backward(&mut self, grad: Act) -> Act {
        let x = self
            .cached_x
            .take()
            .expect("dense backward without forward");
        let n = x.n;
        assert_eq!(grad.sample_len(), self.out_f);
        // dW (out x in) = G^T (out x n) * X (n x in)
        self.gw.fill(0.0);
        let g = Mat::new(&grad.data, n, self.out_f);
        let mut gemm = Gemm::default();
        gemm.mul(
            g.t(),
            Mat::new(&x.data, n, self.in_f),
            &mut self.gw,
            Acc::FromC,
        );
        // db = column sums of G.
        self.gb.fill(0.0);
        for i in 0..n {
            for (b, &g) in self
                .gb
                .iter_mut()
                .zip(&grad.data[i * self.out_f..(i + 1) * self.out_f])
            {
                *b += g;
            }
        }
        // dX (n x in) = G (n x out) * W (out x in)
        let mut gx = vec![0.0f32; n * self.in_f];
        let w = Mat::new(&self.weight, self.out_f, self.in_f);
        gemm.mul(g, w, &mut gx, Acc::FromC);
        Act::new(gx, n, self.in_f, 1, 1)
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        for ((w, v), &g) in self.weight.iter_mut().zip(&mut self.vw).zip(&self.gw) {
            *v = momentum * *v - lr * g;
            *w += *v;
        }
        for ((b, v), &g) in self.bias.iter_mut().zip(&mut self.vb).zip(&self.gb) {
            *v = momentum * *v - lr * g;
            *b += *v;
        }
    }

    fn export(&self, prefix: &str, sd: &mut StateDict) {
        sd.insert(
            format!("{prefix}.weight"),
            TensorKind::Weight,
            Tensor::new(vec![self.out_f, self.in_f], self.weight.clone()),
        );
        sd.insert(
            format!("{prefix}.bias"),
            TensorKind::Bias,
            Tensor::from_vec(self.bias.clone()),
        );
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
        let b = sd
            .get(&format!("{prefix}.bias"))
            .unwrap_or_else(|| panic!("missing {prefix}.bias"));
        self.bias.copy_from_slice(b.data());
        self.vw.fill(0.0);
        self.vb.fill(0.0);
    }

    #[cfg(test)]
    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_affine_map() {
        let mut d = Dense::new(2, 2, &mut SplitMix64::new(1));
        d.weight.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        d.bias.copy_from_slice(&[0.5, -0.5]);
        let y = d.forward(Act::new(vec![1.0, 1.0], 1, 2, 1, 1), false);
        assert_eq!(y.data, [3.5, 6.5]);
    }

    #[test]
    fn gradient_check() {
        let mut d = Dense::new(5, 4, &mut SplitMix64::new(3));
        let mut r = SplitMix64::new(17);
        let x = Act::new(
            (0..3 * 5).map(|_| r.uniform(-1.0, 1.0)).collect(),
            3,
            5,
            1,
            1,
        );
        let y = d.forward(x.clone(), true);
        let gx = d.backward(y); // dL/dy = y for L = sum(y^2)/2

        let loss = |d: &mut Dense, x: &Act| -> f64 {
            let y = d.forward(x.clone(), false);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 7, 19] {
            let orig = d.weight[idx];
            d.weight[idx] = orig + eps;
            let lp = loss(&mut d, &x);
            d.weight[idx] = orig - eps;
            let lm = loss(&mut d, &x);
            d.weight[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - d.gw[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "w[{idx}]: {numeric} vs {}",
                d.gw[idx]
            );
        }
        let mut x2 = x.clone();
        for idx in [0usize, 8, 14] {
            let orig = x2.data[idx];
            x2.data[idx] = orig + eps;
            let lp = loss(&mut d, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut d, &x2);
            x2.data[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - gx.data[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "x[{idx}]: {numeric} vs {}",
                gx.data[idx]
            );
        }
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        // Minimize L = ||W x + b||^2 / 2 over (W, b) with fixed x: the
        // output should be driven toward zero.
        let mut d = Dense::new(4, 4, &mut SplitMix64::new(5));
        let x = Act::new(vec![1.0; 4], 1, 4, 1, 1);
        let loss = |d: &mut Dense| -> f32 {
            let y = d.forward(x.clone(), false);
            y.data.iter().map(|v| v * v).sum::<f32>()
        };
        let before = loss(&mut d);
        for _ in 0..50 {
            let y = d.forward(x.clone(), true);
            d.backward(y);
            d.sgd_step(0.05, 0.0);
        }
        let after = loss(&mut d);
        assert!(after < before * 0.01, "{after} vs {before}");
    }

    #[test]
    fn export_import_round_trip() {
        let a = Dense::new(6, 3, &mut SplitMix64::new(9));
        let mut sd = StateDict::new();
        a.export("fc", &mut sd);
        let mut b = Dense::new(6, 3, &mut SplitMix64::new(10));
        b.import("fc", &sd);
        assert_eq!(a.weight, b.weight);
        assert_eq!(sd.get("fc.weight").unwrap().shape(), &[3, 6]);
    }
}
