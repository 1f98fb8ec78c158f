//! Per-round client sampling for cross-device federated learning.
//!
//! The paper's testbed is cross-silo — four clients, all participating
//! every round — but FedSZ's compression argument is strongest in the
//! cross-device regime (Mitchell et al., PAPERS.md), where a server
//! samples a small cohort per round from a large registered population.
//! This module selects those cohorts:
//!
//! * **Deterministic**: the cohort is a pure function of
//!   `(seed, round, population, fraction)`, derived from a dedicated
//!   [`SplitMix64`] stream (salted so it never collides with the data,
//!   init, or shuffle streams). Two servers with the same config select
//!   the same cohorts — so the channel, TCP, and in-process paths stay
//!   bit-identical, and a resumed run replays the exact cohorts of the
//!   uninterrupted one. The sampling inputs are therefore part of the
//!   checkpoint config fingerprint
//!   ([`config_fingerprint`](crate::checkpoint::config_fingerprint)).
//! * **Stable within a round**: quorum retries re-broadcast to the *same*
//!   cohort; the draw depends on the round index, not the attempt.
//! * **Uniform without replacement**: a partial Fisher–Yates shuffle over
//!   the full population, truncated to the cohort size — O(population)
//!   time and memory per round, independent of the model.
//!
//! The selected ids are returned **sorted ascending**, so every path walks
//! the cohort in the same order and the full-population cohort is exactly
//! `0..population` (the seed cross-silo behaviour).

use fedsz_tensor::SplitMix64;

/// Salt separating the sampling stream from the data (`^ 0xF17E_57A7`),
/// per-client-init (`^ id + 1`), and per-round-training streams.
const SAMPLING_SALT: u64 = 0x53_414D_504C_4531; // "SAMPLE1"

/// Cohort size for `population` at `fraction`: `round(fraction × n)`,
/// clamped to `[1, population]`. Non-finite fractions select everyone.
pub fn cohort_size(population: usize, fraction: f64) -> usize {
    if population == 0 {
        return 0;
    }
    if !fraction.is_finite() {
        return population;
    }
    let k = (fraction.clamp(0.0, 1.0) * population as f64).round() as usize;
    k.clamp(1, population)
}

/// The cohort of client ids participating in `round`, sorted ascending.
///
/// A full-coverage draw (`k == population`) short-circuits to
/// `0..population` without touching the RNG, which keeps cross-silo
/// configs (`sample_fraction = 1`) byte-identical to the pre-sampling
/// behaviour.
pub fn cohort_for_round(seed: u64, round: usize, population: usize, fraction: f64) -> Vec<usize> {
    let k = cohort_size(population, fraction);
    if k == population {
        return (0..population).collect();
    }
    // One independent stream per round: mix the round index through the
    // SplitMix64 increment so consecutive rounds land far apart.
    let mut rng =
        SplitMix64::new(seed ^ SAMPLING_SALT ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Partial Fisher–Yates: after i swaps, pool[..i] is a uniform draw
    // without replacement.
    let mut pool: Vec<usize> = (0..population).collect();
    for i in 0..k {
        let j = i + rng.below(population - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_size_rounds_and_clamps() {
        assert_eq!(cohort_size(100, 0.1), 10);
        assert_eq!(cohort_size(100, 1.0), 100);
        assert_eq!(cohort_size(100, 2.5), 100); // clamped above
        assert_eq!(cohort_size(100, 0.0), 1); // never empty
        assert_eq!(cohort_size(100, -3.0), 1);
        assert_eq!(cohort_size(100, f64::NAN), 100); // non-finite: everyone
        assert_eq!(cohort_size(3, 0.5), 2); // 1.5 rounds to 2
        assert_eq!(cohort_size(0, 0.5), 0);
    }

    #[test]
    fn full_coverage_is_identity_without_rng() {
        for pop in [1usize, 4, 17] {
            let cohort = cohort_for_round(42, 3, pop, 1.0);
            assert_eq!(cohort, (0..pop).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cohorts_are_deterministic_sorted_and_unique() {
        for round in 0..20 {
            let a = cohort_for_round(7, round, 1000, 0.01);
            let b = cohort_for_round(7, round, 1000, 0.01);
            assert_eq!(a, b, "round {round} not reproducible");
            assert_eq!(a.len(), 10);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "round {round}: {a:?}");
            assert!(a.iter().all(|&id| id < 1000));
        }
    }

    #[test]
    fn distinct_rounds_and_seeds_draw_distinct_cohorts() {
        // Not a hard guarantee, but with k=10 of 1000 a collision across
        // neighbouring rounds would be a (10/1000)^10 coincidence — its
        // absence is the practical point of per-round sampling.
        let r0 = cohort_for_round(7, 0, 1000, 0.01);
        let r1 = cohort_for_round(7, 1, 1000, 0.01);
        let other_seed = cohort_for_round(8, 0, 1000, 0.01);
        assert_ne!(r0, r1);
        assert_ne!(r0, other_seed);
    }

    #[test]
    fn sampling_covers_the_population_over_time() {
        // Every client of a small population is picked eventually: the
        // draw is not stuck on a subset.
        let mut seen = vec![false; 16];
        for round in 0..200 {
            for id in cohort_for_round(3, round, 16, 0.25) {
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn sampling_is_unbiased_enough() {
        // χ²-style sanity bound: each of 32 clients should be picked
        // ~ rounds × k / population times.
        let mut counts = vec![0usize; 32];
        let rounds = 2000;
        for round in 0..rounds {
            for id in cohort_for_round(11, round, 32, 0.25) {
                counts[id] += 1;
            }
        }
        let expect = rounds / 4; // k = 8 of 32
        for (id, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "client {id} picked {c} times, expected ~{expect}"
            );
        }
    }
}
