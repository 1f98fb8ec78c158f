//! Batch normalization over `[N, C, H, W]` (per-channel statistics).
//!
//! Exports the full five-entry PyTorch state: `weight`, `bias`,
//! `running_mean`, `running_var`, `num_batches_tracked`. In FedSZ terms the
//! affine parameters and running statistics are all metadata (lossless
//! partition), which is what makes them safe to aggregate.

use fedsz_tensor::{StateDict, Tensor, TensorKind};

use crate::act::Act;
use crate::layer::Layer;

const EPS: f64 = 1e-5;
const MOMENTUM: f64 = 0.1;

/// 2-D batch normalization.
pub(crate) struct BatchNorm2d {
    ch: usize,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    g_gamma: Vec<f32>,
    g_beta: Vec<f32>,
    v_gamma: Vec<f32>,
    v_beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    batches_tracked: f32,
    // Backward caches.
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// New batch norm over `ch` channels (γ = 1, β = 0).
    pub fn new(ch: usize) -> Self {
        Self {
            ch,
            gamma: vec![1.0; ch],
            beta: vec![0.0; ch],
            g_gamma: vec![0.0; ch],
            g_beta: vec![0.0; ch],
            v_gamma: vec![0.0; ch],
            v_beta: vec![0.0; ch],
            running_mean: vec![0.0; ch],
            running_var: vec![1.0; ch],
            batches_tracked: 0.0,
            x_hat: Vec::new(),
            inv_std: Vec::new(),
        }
    }
}

/// Channel `c`'s plane of every sample, in sample order: the elements one
/// channel's statistics run over, as slices.
fn planes(data: &[f32], ch: usize, plane: usize, c: usize) -> impl Iterator<Item = &[f32]> {
    data.chunks_exact(ch * plane)
        .map(move |sample| &sample[c * plane..(c + 1) * plane])
}

/// [`planes`], mutably.
fn planes_mut(
    data: &mut [f32],
    ch: usize,
    plane: usize,
    c: usize,
) -> impl Iterator<Item = &mut [f32]> {
    data.chunks_exact_mut(ch * plane)
        .map(move |sample| &mut sample[c * plane..(c + 1) * plane])
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, mut x: Act, train: bool) -> Act {
        assert_eq!(x.c, self.ch, "batch norm channel mismatch");
        let m = (x.n * x.h * x.w) as f64;
        let (ch, plane) = (self.ch, x.h * x.w);
        if train {
            self.x_hat = vec![0.0; x.data.len()];
            self.inv_std = vec![0.0; self.ch];
            self.batches_tracked += 1.0;
            for c in 0..self.ch {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for xp in planes(&x.data, ch, plane, c) {
                    for &v in xp {
                        let v = v as f64;
                        sum += v;
                        sq += v * v;
                    }
                }
                let mean = sum / m;
                let var = (sq / m - mean * mean).max(0.0);
                let inv_std = 1.0 / (var + EPS).sqrt();
                self.inv_std[c] = inv_std as f32;
                self.running_mean[c] =
                    ((1.0 - MOMENTUM) * self.running_mean[c] as f64 + MOMENTUM * mean) as f32;
                self.running_var[c] =
                    ((1.0 - MOMENTUM) * self.running_var[c] as f64 + MOMENTUM * var) as f32;
                let g = self.gamma[c];
                let b = self.beta[c];
                let hats = planes_mut(&mut self.x_hat, ch, plane, c);
                for (xp, hp) in planes_mut(&mut x.data, ch, plane, c).zip(hats) {
                    for (v, h) in xp.iter_mut().zip(hp) {
                        let xh = ((*v as f64 - mean) * inv_std) as f32;
                        *h = xh;
                        *v = g * xh + b;
                    }
                }
            }
        } else {
            for c in 0..self.ch {
                let mean = self.running_mean[c] as f64;
                let inv_std = 1.0 / (self.running_var[c] as f64 + EPS).sqrt();
                let g = self.gamma[c] as f64;
                let b = self.beta[c] as f64;
                for xp in planes_mut(&mut x.data, ch, plane, c) {
                    for v in xp {
                        *v = ((*v as f64 - mean) * inv_std * g + b) as f32;
                    }
                }
            }
        }
        x
    }

    fn backward(&mut self, mut grad: Act) -> Act {
        assert_eq!(
            grad.data.len(),
            self.x_hat.len(),
            "bn backward without forward"
        );
        let m = (grad.n * grad.h * grad.w) as f64;
        let (ch, plane) = (self.ch, grad.h * grad.w);
        for c in 0..self.ch {
            let mut dbeta = 0.0f64;
            let mut dgamma = 0.0f64;
            let hats = planes(&self.x_hat, ch, plane, c);
            for (gp, hp) in planes(&grad.data, ch, plane, c).zip(hats) {
                for (&dy, &xh) in gp.iter().zip(hp) {
                    dbeta += dy as f64;
                    dgamma += dy as f64 * xh as f64;
                }
            }
            self.g_beta[c] = dbeta as f32;
            self.g_gamma[c] = dgamma as f32;
            let scale = self.gamma[c] as f64 * self.inv_std[c] as f64;
            let hats = planes(&self.x_hat, ch, plane, c);
            for (gp, hp) in planes_mut(&mut grad.data, ch, plane, c).zip(hats) {
                for (dy, &xh) in gp.iter_mut().zip(hp) {
                    let xh = xh as f64;
                    *dy = (scale * (*dy as f64 - dbeta / m - xh * dgamma / m)) as f32;
                }
            }
        }
        grad
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        for ((w, v), &g) in self
            .gamma
            .iter_mut()
            .zip(&mut self.v_gamma)
            .zip(&self.g_gamma)
        {
            *v = momentum * *v - lr * g;
            *w += *v;
        }
        for ((b, v), &g) in self.beta.iter_mut().zip(&mut self.v_beta).zip(&self.g_beta) {
            *v = momentum * *v - lr * g;
            *b += *v;
        }
    }

    fn export(&self, prefix: &str, sd: &mut StateDict) {
        sd.insert(
            format!("{prefix}.weight"),
            TensorKind::Weight,
            Tensor::from_vec(self.gamma.clone()),
        );
        sd.insert(
            format!("{prefix}.bias"),
            TensorKind::Bias,
            Tensor::from_vec(self.beta.clone()),
        );
        sd.insert(
            format!("{prefix}.running_mean"),
            TensorKind::RunningMean,
            Tensor::from_vec(self.running_mean.clone()),
        );
        sd.insert(
            format!("{prefix}.running_var"),
            TensorKind::RunningVar,
            Tensor::from_vec(self.running_var.clone()),
        );
        sd.insert(
            format!("{prefix}.num_batches_tracked"),
            TensorKind::Counter,
            Tensor::from_vec(vec![self.batches_tracked]),
        );
    }

    fn import(&mut self, prefix: &str, sd: &StateDict) {
        let get = |suffix: &str| {
            sd.get(&format!("{prefix}.{suffix}"))
                .unwrap_or_else(|| panic!("missing {prefix}.{suffix}"))
        };
        self.gamma.copy_from_slice(get("weight").data());
        self.beta.copy_from_slice(get("bias").data());
        self.running_mean
            .copy_from_slice(get("running_mean").data());
        self.running_var.copy_from_slice(get("running_var").data());
        // Running variance must stay positive even after lossy aggregation.
        for v in &mut self.running_var {
            if !v.is_finite() || *v < 1e-6 {
                *v = 1e-6;
            }
        }
        self.batches_tracked = get("num_batches_tracked").data()[0];
        self.v_gamma.fill(0.0);
        self.v_beta.fill(0.0);
    }

    #[cfg(test)]
    fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::SplitMix64;

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm2d::new(2);
        let mut r = SplitMix64::new(4);
        let x = Act::new(
            (0..2 * 2 * 8 * 8)
                .map(|_| r.normal_with(3.0, 2.0) as f32)
                .collect(),
            2,
            2,
            8,
            8,
        );
        let y = bn.forward(x, true);
        // Per-channel mean ~0, var ~1.
        for c in 0..2 {
            let vals: Vec<f32> = planes(&y.data, y.c, y.h * y.w, c)
                .flatten()
                .copied()
                .collect();
            let mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-4, "c{c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "c{c} var {var}");
        }
    }

    #[test]
    fn running_stats_converge_to_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut r = SplitMix64::new(5);
        for _ in 0..200 {
            let x = Act::new(
                (0..4 * 16)
                    .map(|_| r.normal_with(2.0, 0.5) as f32)
                    .collect(),
                4,
                1,
                4,
                4,
            );
            bn.forward(x, true);
        }
        assert!(
            (bn.running_mean[0] - 2.0).abs() < 0.1,
            "{}",
            bn.running_mean[0]
        );
        assert!(
            (bn.running_var[0] - 0.25).abs() < 0.08,
            "{}",
            bn.running_var[0]
        );
        assert_eq!(bn.batches_tracked, 200.0);
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new(2);
        let mut r = SplitMix64::new(6);
        bn.gamma.copy_from_slice(&[1.3, 0.7]);
        bn.beta.copy_from_slice(&[0.2, -0.1]);
        let x = Act::new(
            (0..3 * 2 * 2 * 2).map(|_| r.uniform(-1.0, 1.0)).collect(),
            3,
            2,
            2,
            2,
        );
        let y = bn.forward(x.clone(), true);
        let gx = bn.backward(y);

        let loss = |bn: &mut BatchNorm2d, x: &Act| -> f64 {
            let y = bn.forward(x.clone(), true);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        // Snapshot running stats: repeated forward calls perturb them, but
        // that does not affect the training-mode loss value.
        let eps = 1e-3f32;
        let mut x2 = x.clone();
        for idx in [0usize, 5, 13, 21] {
            let orig = x2.data[idx];
            x2.data[idx] = orig + eps;
            let lp = loss(&mut bn, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut bn, &x2);
            x2.data[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - gx.data[idx]).abs() < 0.05 * (1.0 + numeric.abs()),
                "x[{idx}]: numeric {numeric} vs analytic {}",
                gx.data[idx]
            );
        }
    }

    #[test]
    fn export_has_five_entries_and_import_round_trips() {
        let mut bn = BatchNorm2d::new(3);
        bn.running_mean[1] = 0.5;
        bn.batches_tracked = 7.0;
        let mut sd = StateDict::new();
        bn.export("bn", &mut sd);
        assert_eq!(sd.len(), 5);
        let mut bn2 = BatchNorm2d::new(3);
        bn2.import("bn", &sd);
        assert_eq!(bn2.running_mean[1], 0.5);
        assert_eq!(bn2.batches_tracked, 7.0);
    }

    #[test]
    fn import_repairs_nonpositive_variance() {
        let mut bn = BatchNorm2d::new(1);
        let mut sd = StateDict::new();
        bn.export("bn", &mut sd);
        for e in sd.entries_mut() {
            if e.name == "bn.running_var" {
                e.tensor.data_mut()[0] = -0.5;
            }
        }
        bn.import("bn", &sd);
        assert!(bn.running_var[0] > 0.0);
    }
}
