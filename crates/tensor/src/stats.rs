//! Summary statistics and histograms used throughout the evaluation.
//!
//! Figure 2 of the paper contrasts the *smoothness* of scientific simulation
//! data against the spikiness of model weights; [`Summary::total_variation`]
//! and [`Summary::smoothness_ratio`] quantify that. Figures 3 and 10 are
//! histograms, produced by [`Histogram`].

/// One-pass summary of a float series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Minimum value.
    pub min: f32,
    /// Maximum value.
    pub max: f32,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sum of `|x[i+1] - x[i]|` over the series.
    pub total_variation: f64,
    /// Number of elements.
    pub count: usize,
}

impl Summary {
    /// Compute the summary of `values`.
    ///
    /// Returns a degenerate all-zero summary for an empty slice.
    pub fn of(values: &[f32]) -> Self {
        if values.is_empty() {
            return Self {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std: 0.0,
                total_variation: 0.0,
                count: 0,
            };
        }
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f64;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v as f64;
        }
        let mean = sum / values.len() as f64;
        let var = values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / values.len() as f64;
        let total_variation = values
            .windows(2)
            .map(|w| (w[1] - w[0]).abs() as f64)
            .sum::<f64>();
        Self {
            min,
            max,
            mean,
            std: var.sqrt(),
            total_variation,
            count: values.len(),
        }
    }

    /// Value range (`max - min`); the quantity relative error bounds scale by.
    pub fn range(&self) -> f64 {
        (self.max - self.min) as f64
    }

    /// Mean per-step variation normalized by the value range.
    ///
    /// Smooth simulation fields score well below spiky weight data: the paper
    /// uses this contrast (Fig. 2) to motivate why FL parameters are hard to
    /// compress. A value near 0 means adjacent samples are nearly equal; a
    /// value near 0.5 means the series jumps across half its range at every
    /// step (white noise scores ≈ 1/3 in expectation for uniform data).
    pub fn smoothness_ratio(&self) -> f64 {
        if self.count < 2 || self.range() == 0.0 {
            return 0.0;
        }
        self.total_variation / ((self.count - 1) as f64 * self.range())
    }
}

/// Fixed-width histogram over a closed interval.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Samples below `lo` or above `hi`.
    outliers: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width buckets spanning `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "invalid histogram range [{lo}, {hi}]");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            outliers: 0,
            total: 0,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, value: f64) {
        self.total += 1;
        if !value.is_finite() || value < self.lo || value > self.hi {
            self.outliers += 1;
            return;
        }
        let frac = (value - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Add every sample in the slice.
    pub fn add_all(&mut self, values: &[f32]) {
        for &v in values {
            self.add(v as f64);
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Number of samples outside `[lo, hi]` (or non-finite).
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total samples offered (including outliers).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Empirical probability density at bin `i` (count / total / bin_width).
    pub fn density(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins[i] as f64 / self.total as f64 / w
    }

    /// Render as `center<TAB>count` rows, one per bin — the format the
    /// figure regenerators print.
    pub fn rows(&self) -> Vec<(f64, u64)> {
        (0..self.bins.len())
            .map(|i| (self.bin_center(i), self.bins[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_ramp() {
        let ramp: Vec<f32> = (0..101).map(|i| i as f32).collect();
        let s = Summary::of(&ramp);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.0).abs() < 1e-9);
        assert_eq!(s.total_variation, 100.0);
        // A monotone ramp is maximally smooth: TV equals the range.
        assert!((s.smoothness_ratio() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn summary_of_alternating_is_spiky() {
        let spiky: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let s = Summary::of(&spiky);
        assert!((s.smoothness_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_degenerate() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.range(), 0.0);
        assert_eq!(s.smoothness_ratio(), 0.0);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        h.add(-1.0);
        h.add(11.0);
        h.add(f64::NAN);
        assert_eq!(h.counts(), &[1u64; 10][..]);
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.total(), 13);
    }

    #[test]
    fn histogram_upper_edge_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(1.0);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.outliers(), 0);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut h = Histogram::new(-1.0, 1.0, 20);
        for i in 0..1000 {
            h.add(-1.0 + 2.0 * (i as f64 + 0.5) / 1000.0);
        }
        let w = 2.0 / 20.0;
        let integral: f64 = (0..20).map(|i| h.density(i) * w).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bin_centers() {
        let h = Histogram::new(0.0, 4.0, 4);
        assert_eq!(h.bin_center(0), 0.5);
        assert_eq!(h.bin_center(3), 3.5);
    }
}
