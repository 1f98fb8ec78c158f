//! Compression-error analysis for the differential-privacy study (§VII-D,
//! Figure 10).
//!
//! The paper observes that the pointwise error introduced by lossy
//! compression is distributed much like Laplace noise — the distribution DP
//! mechanisms inject deliberately. This module computes the error
//! distribution of a FedSZ round trip, fits a Laplace model by maximum
//! likelihood, and measures the goodness of fit with a Kolmogorov–Smirnov
//! distance.

use fedsz_tensor::{Histogram, StateDict};

use crate::partition::{route_of, Route};

/// Pointwise reconstruction errors (`decompressed - original`) over the
/// lossy partition of a state dict.
pub fn compression_errors(
    original: &StateDict,
    decompressed: &StateDict,
    threshold: usize,
) -> Vec<f32> {
    assert_eq!(
        original.len(),
        decompressed.len(),
        "state dicts must have identical structure"
    );
    let mut errors = Vec::new();
    for (a, b) in original.entries().iter().zip(decompressed.entries()) {
        assert_eq!(a.name, b.name, "entry order mismatch");
        if route_of(&a.name, a.tensor.numel(), threshold) != Route::Lossy {
            continue;
        }
        errors.extend(
            a.tensor
                .data()
                .iter()
                .zip(b.tensor.data())
                .map(|(x, y)| y - x)
                .filter(|e| e.is_finite()),
        );
    }
    errors
}

/// Maximum-likelihood Laplace fit.
#[derive(Debug, Clone, Copy, PartialEq)]
// fedsz-lint: allow(dead-pub) -- returned by `laplace_fit`, which fig10 and the privacy example call
pub struct LaplaceFit {
    /// Location (the sample median).
    pub mu: f64,
    /// Scale (mean absolute deviation from the median).
    pub b: f64,
}

impl LaplaceFit {
    /// Laplace CDF at `x`.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if self.b <= 0.0 {
            return if x < self.mu { 0.0 } else { 1.0 };
        }
        let z = (x - self.mu) / self.b;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    /// Laplace density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.b <= 0.0 {
            return 0.0;
        }
        (-((x - self.mu).abs() / self.b)).exp() / (2.0 * self.b)
    }
}

/// Fit a Laplace distribution to samples by MLE (median + mean |x - median|).
///
/// Returns a degenerate fit (`b = 0`) for fewer than two samples.
pub fn laplace_fit(samples: &[f32]) -> LaplaceFit {
    if samples.len() < 2 {
        return LaplaceFit {
            mu: samples.first().copied().unwrap_or(0.0) as f64,
            b: 0.0,
        };
    }
    let mut sorted: Vec<f32> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    let mu = if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] as f64 + sorted[mid] as f64)
    } else {
        sorted[mid] as f64
    };
    let b = samples.iter().map(|&x| (x as f64 - mu).abs()).sum::<f64>() / samples.len() as f64;
    LaplaceFit { mu, b }
}

/// Kolmogorov–Smirnov distance between the sample distribution and a fit.
pub fn ks_distance(samples: &[f32], fit: &LaplaceFit) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = fit.cdf(x as f64);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// Histogram of errors over `[-limit, limit]`, the Figure 10 plot data.
pub fn error_histogram(errors: &[f32], limit: f64, bins: usize) -> Histogram {
    let mut h = Histogram::new(-limit, limit, bins);
    h.add_all(errors);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::SplitMix64;

    #[test]
    fn laplace_fit_recovers_parameters() {
        let mut rng = SplitMix64::new(42);
        let samples: Vec<f32> = (0..100_000)
            .map(|_| (0.3 + rng.laplace(0.05)) as f32)
            .collect();
        let fit = laplace_fit(&samples);
        assert!((fit.mu - 0.3).abs() < 0.01, "mu {}", fit.mu);
        assert!((fit.b - 0.05).abs() < 0.005, "b {}", fit.b);
    }

    #[test]
    fn ks_distance_small_for_true_laplace() {
        let mut rng = SplitMix64::new(7);
        let samples: Vec<f32> = (0..50_000).map(|_| rng.laplace(1.0) as f32).collect();
        let fit = laplace_fit(&samples);
        assert!(ks_distance(&samples, &fit) < 0.02);
    }

    #[test]
    fn ks_distance_large_for_uniform_vs_laplace() {
        let mut rng = SplitMix64::new(9);
        let samples: Vec<f32> = (0..50_000).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let fit = laplace_fit(&samples);
        assert!(ks_distance(&samples, &fit) > 0.05);
    }

    #[test]
    fn cdf_properties() {
        let fit = LaplaceFit { mu: 0.0, b: 1.0 };
        assert!((fit.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(fit.cdf(-10.0) < 1e-4);
        assert!(fit.cdf(10.0) > 1.0 - 1e-4);
        // Monotone.
        assert!(fit.cdf(-1.0) < fit.cdf(0.0));
        assert!(fit.cdf(0.0) < fit.cdf(1.0));
    }

    #[test]
    fn pdf_integrates_to_one() {
        let fit = LaplaceFit { mu: 0.1, b: 0.4 };
        let mut integral = 0.0;
        let step = 0.001;
        let mut x = -10.0;
        while x < 10.0 {
            integral += fit.pdf(x) * step;
            x += step;
        }
        assert!((integral - 1.0).abs() < 1e-3, "{integral}");
    }

    #[test]
    fn degenerate_fits() {
        let fit = laplace_fit(&[]);
        assert_eq!(fit.b, 0.0);
        let fit = laplace_fit(&[1.0]);
        assert_eq!(fit.mu, 1.0);
        assert_eq!(ks_distance(&[], &fit), 0.0);
    }

    #[test]
    fn errors_round_trip_through_pipeline() {
        use crate::pipeline::{compress, decompress, FedSzConfig};
        use fedsz_tensor::{Tensor, TensorKind};

        let mut rng = SplitMix64::new(3);
        let w: Vec<f32> = (0..50_000)
            .map(|_| rng.normal_with(0.0, 0.05) as f32)
            .collect();
        let mut sd = StateDict::new();
        sd.insert("layer.weight", TensorKind::Weight, Tensor::from_vec(w));
        let cfg = FedSzConfig::default();
        let back = decompress(&compress(&sd, &cfg)).unwrap();
        let errors = compression_errors(&sd, &back, cfg.threshold);
        assert_eq!(errors.len(), 50_000);
        let fit = laplace_fit(&errors);
        assert!(fit.b > 0.0, "compression introduced no error?");
        // Errors should be roughly centred.
        assert!(fit.mu.abs() < 1e-3);
    }
}
