//! Pretrained-*like* weight synthesis.
//!
//! Compression ratio, throughput, and error-distribution experiments depend
//! only on the shapes and value distributions of the tensors, not on what
//! the weights "mean". This module fills an architecture spec with values
//! whose per-layer distributions match what Figure 3 of the paper shows for
//! real pretrained checkpoints: zero-centred, Kaiming-scaled, heavier-tailed
//! than Gaussian, spiky along the flattened index (Figure 2).

use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};

use crate::spec::{ModelSpec, ParamSpec};

/// Fraction of heavy-tail (Laplace) samples mixed into weight tensors.
const TAIL_FRACTION: f64 = 0.03;

fn synthesize_param(spec: &ParamSpec, seed: u64) -> Tensor {
    let mut rng = SplitMix64::new(seed);
    let n = spec.numel();
    let mut data = Vec::with_capacity(n);
    match spec.kind {
        TensorKind::Weight if spec.shape.len() > 1 => {
            // Conv / linear weight: Kaiming-normal core + Laplace tails.
            let fan_in: usize = spec.shape[1..].iter().product();
            let std = (2.0 / fan_in.max(1) as f64).sqrt();
            for _ in 0..n {
                let v = if rng.next_f64() < TAIL_FRACTION {
                    rng.laplace(2.0 * std)
                } else {
                    rng.normal_with(0.0, std)
                };
                data.push(v.clamp(-1.0, 1.0) as f32);
            }
        }
        TensorKind::Weight => {
            // Batch-norm scale: near one.
            for _ in 0..n {
                data.push(rng.normal_with(1.0, 0.15) as f32);
            }
        }
        TensorKind::Bias => {
            for _ in 0..n {
                data.push(rng.normal_with(0.0, 0.02) as f32);
            }
        }
        TensorKind::RunningMean => {
            for _ in 0..n {
                data.push(rng.normal_with(0.0, 0.5) as f32);
            }
        }
        TensorKind::RunningVar => {
            for _ in 0..n {
                data.push((rng.normal_with(1.0, 0.4).abs() + 0.01) as f32);
            }
        }
        TensorKind::Counter => {
            // Mimics `num_batches_tracked` after some training.
            data.resize(n, 1000.0);
        }
    }
    Tensor::new(spec.shape.clone(), data)
}

/// Fill `spec` with pretrained-like values, deterministically from `seed`.
pub fn synthesize(spec: &ModelSpec, seed: u64) -> StateDict {
    // Independent stream per entry: decorrelate via SplitMix of the index.
    let seeded: Vec<(&ParamSpec, u64)> = (0u64..)
        .zip(&spec.params)
        .map(|(i, p)| {
            let sub_seed = SplitMix64::new(seed ^ i.wrapping_mul(0x9E3779B97F4A7C15)).next_u64();
            (p, sub_seed)
        })
        .collect();
    let nbytes = |(p, _): &(&ParamSpec, u64)| p.numel() * 4;
    rayon::par_map(&seeded, nbytes, |&(p, sub_seed)| fedsz_tensor::Entry {
        name: p.name.clone(),
        kind: p.kind,
        tensor: synthesize_param(p, sub_seed),
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use fedsz_tensor::Summary;

    #[test]
    fn synthesis_is_deterministic() {
        let spec = zoo::mobilenet_v2(10);
        let a = synthesize(&spec, 42);
        let b = synthesize(&spec, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = zoo::mobilenet_v2(10);
        let a = synthesize(&spec, 1);
        let b = synthesize(&spec, 2);
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn weights_are_zero_centred_and_in_unit_range() {
        let spec = zoo::alexnet(10);
        let sd = synthesize(&spec, 7);
        let w = sd.get("features.6.weight").unwrap();
        let s = Summary::of(w.data());
        assert!(s.mean.abs() < 0.01, "mean {}", s.mean);
        assert!(s.min >= -1.0 && s.max <= 1.0);
        // Kaiming std for fan_in = 192*9 = 1728 is ~0.034.
        assert!((s.std - 0.034).abs() < 0.02, "std {}", s.std);
    }

    #[test]
    fn weights_are_spiky_not_smooth() {
        let spec = zoo::alexnet(10);
        let sd = synthesize(&spec, 7);
        let w = sd.get("classifier.4.weight").unwrap();
        let s = Summary::of(&w.data()[..100_000]);
        // Spikiness: adjacent samples jump a large fraction of the range
        // (Fig. 2 contrast; smooth fields score far below 0.05).
        assert!(
            s.smoothness_ratio() > 0.03,
            "ratio {}",
            s.smoothness_ratio()
        );
    }

    #[test]
    fn bn_stats_have_expected_centres() {
        let spec = zoo::resnet50(10);
        let sd = synthesize(&spec, 3);
        let gamma = Summary::of(sd.get("bn1.weight").unwrap().data());
        assert!((gamma.mean - 1.0).abs() < 0.15);
        let var = Summary::of(sd.get("bn1.running_var").unwrap().data());
        assert!(var.min > 0.0, "running_var must stay positive");
        let counter = sd.get("bn1.num_batches_tracked").unwrap();
        assert_eq!(counter.data(), &[1000.0]);
    }

    #[test]
    fn full_state_dict_census_matches_spec() {
        let spec = zoo::mobilenet_v2(10);
        let sd = synthesize(&spec, 11);
        assert_eq!(sd.len(), spec.params.len());
        assert_eq!(sd.num_params(), spec.num_state_values());
    }

    #[test]
    fn heavy_tails_present() {
        let spec = zoo::alexnet(10);
        let sd = synthesize(&spec, 13);
        let w = sd.get("classifier.1.weight").unwrap().data();
        let s = Summary::of(w);
        // Gaussian kurtosis would put essentially nothing past 6 sigma.
        let six_sigma = (6.0 * s.std) as f32;
        let outliers = w.iter().filter(|v| v.abs() > six_sigma).count();
        assert!(outliers > w.len() / 10_000, "only {outliers} tail samples");
    }
}
