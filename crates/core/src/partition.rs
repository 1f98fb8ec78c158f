//! State-dictionary partitioning — Algorithm 1 of the paper.
//!
//! An entry is routed to the *lossy* partition when its name contains
//! `"weight"` **and** it has more elements than a threshold; everything else
//! (biases, batch-norm statistics, counters, small weights) is metadata and
//! must survive bit-exactly, so it goes to the *lossless* partition. Lossy
//! compression of metadata "risks significant loss of important values and
//! extreme degradation of model accuracy" (§V-C), which the test suite in
//! `crates/fl` verifies empirically.

use fedsz_tensor::StateDict;

/// Default element-count threshold. Batch-norm scale vectors top out at
/// 2048 channels in ResNet50, so 2048 keeps every BN tensor lossless while
/// routing all convolution/linear weight matrices to the lossy path.
pub const DEFAULT_THRESHOLD: usize = 2048;

/// The routing decision for one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Error-bounded lossy compression.
    Lossy,
    /// Bit-exact lossless compression.
    Lossless,
}

/// Algorithm 1, line 4: the FedSZ partitioning rule.
pub fn route_of(name: &str, numel: usize, threshold: usize) -> Route {
    if name.contains("weight") && numel > threshold {
        Route::Lossy
    } else {
        Route::Lossless
    }
}

/// Census of how a state dict splits under the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// fedsz-lint: allow(dead-pub) -- returned by `census`, which the bench figures call
pub struct PartitionCensus {
    /// Entries routed lossy.
    pub lossy_entries: usize,
    /// Entries routed lossless.
    pub lossless_entries: usize,
    /// Scalars routed lossy.
    pub lossy_values: usize,
    /// Scalars routed lossless.
    pub lossless_values: usize,
}

impl PartitionCensus {
    /// Fraction of scalar values on the lossy path — the "% Lossy Data"
    /// column of Table III.
    pub fn lossy_fraction(&self) -> f64 {
        let total = self.lossy_values + self.lossless_values;
        if total == 0 {
            return 0.0;
        }
        self.lossy_values as f64 / total as f64
    }
}

/// Compute the census for a state dict at a given threshold.
pub fn census(sd: &StateDict, threshold: usize) -> PartitionCensus {
    let mut c = PartitionCensus {
        lossy_entries: 0,
        lossless_entries: 0,
        lossy_values: 0,
        lossless_values: 0,
    };
    for e in sd.entries() {
        match route_of(&e.name, e.tensor.numel(), threshold) {
            Route::Lossy => {
                c.lossy_entries += 1;
                c.lossy_values += e.tensor.numel();
            }
            Route::Lossless => {
                c.lossless_entries += 1;
                c.lossless_values += e.tensor.numel();
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::{Tensor, TensorKind};

    #[test]
    fn rule_matches_algorithm_1() {
        assert_eq!(route_of("features.0.weight", 10_000, 2048), Route::Lossy);
        assert_eq!(route_of("features.0.bias", 10_000, 2048), Route::Lossless);
        assert_eq!(route_of("bn1.weight", 64, 2048), Route::Lossless);
        assert_eq!(route_of("bn1.running_mean", 10_000, 2048), Route::Lossless);
        // Exactly at the threshold is NOT lossy (strictly greater, line 4).
        assert_eq!(route_of("fc.weight", 2048, 2048), Route::Lossless);
        assert_eq!(route_of("fc.weight", 2049, 2048), Route::Lossy);
    }

    #[test]
    fn census_counts() {
        let mut sd = StateDict::new();
        sd.insert(
            "a.weight",
            TensorKind::Weight,
            Tensor::zeros(vec![100, 100]),
        );
        sd.insert("a.bias", TensorKind::Bias, Tensor::zeros(vec![100]));
        sd.insert("bn.weight", TensorKind::Weight, Tensor::zeros(vec![100]));
        let c = census(&sd, 2048);
        assert_eq!(c.lossy_entries, 1);
        assert_eq!(c.lossless_entries, 2);
        assert_eq!(c.lossy_values, 10_000);
        assert_eq!(c.lossless_values, 200);
        assert!((c.lossy_fraction() - 10_000.0 / 10_200.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dict_census() {
        let c = census(&StateDict::new(), 2048);
        assert_eq!(c.lossy_fraction(), 0.0);
    }
}
