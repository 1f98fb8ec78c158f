//! A fixed piece of work, timed between the ops of the `codec_*` workloads,
//! that tells how fast the machine is *right now*.
//!
//! The bench box is a small shared VM. For single-threaded work that misses
//! the private caches — which is what `fedsz::compress` of a 9 or 94 MB model
//! is — its speed moves in phases, tens of seconds to minutes long, by up to
//! a factor of two, with no steal time reported to the guest: ten-second
//! medians of one and the same compress call ranged from 0.16 s to 0.37 s
//! within an hour. The kernel below — difference, round, clamp and count over
//! a buffer larger than the private caches, the access pattern of the
//! codec's own hot loop — slows down and speeds up with it, so dividing an
//! op's time by the slowdown seen just before and after it takes most of the
//! weather out (same-commit spread over ten runs: 31 % → 5 % on
//! `codec_mobilenet_e4`, 16 % → 9 % on `codec_resnet50_e2`, measured in a
//! bad hour). It is the benchmark's own code, not the program's: no change
//! to the program can move it.
//!
//! The other four workloads are **not** normalised: they run two threads on
//! small working sets, follow the weather far less than this kernel does,
//! and dividing by it made their spread worse (5 % → 17–19 % on
//! `server_ingest` and `fl_comm_tcp`, same data).

use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass takes on the bench box in a quiet hour. Normalised times
/// are "seconds at this machine speed"; on another box the constant is off
/// by a fixed factor, which comparisons on that box do not see.
pub const NOMINAL_S: f64 = 0.0044;

/// How much slower than nominal the machine ran around a piece of work,
/// from the calibration samples taken right before and right after it.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / NOMINAL_S
}

/// Elements per pass: 4 MB read, 4 MB written, a 256 KB table updated.
const ELEMENTS: usize = 1 << 20;
const BUCKETS: usize = 1 << 16;

pub struct Calibrator {
    values: Vec<f32>,
    codes: Vec<u32>,
    histogram: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut state = 12345u32;
        let values = (0..ELEMENTS)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) as f32 / 16_777_216.0 - 0.5
            })
            .collect();
        let mut calibrator = Calibrator {
            values,
            codes: vec![0; ELEMENTS],
            histogram: vec![0; BUCKETS],
        };
        calibrator.sample(); // touch every page once, off the record
        calibrator
    }

    /// One pass; returns its wall seconds.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut previous = 0.0f32;
        for (&x, code) in self.values.iter().zip(self.codes.iter_mut()) {
            let q = ((x - previous) * 2000.0).round() as i32 + (BUCKETS / 2) as i32;
            *code = q.clamp(0, BUCKETS as i32 - 1) as u32;
            self.histogram[*code as usize] = self.histogram[*code as usize].wrapping_add(1);
            previous = x;
        }
        black_box((&self.codes, &self.histogram));
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_at_nominal_speed_and_scales_with_the_samples() {
        assert_eq!(slowdown(NOMINAL_S, NOMINAL_S), 1.0);
        assert!((slowdown(NOMINAL_S, 3.0 * NOMINAL_S) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_sample_is_a_positive_time_and_the_work_does_not_change() {
        let mut calibrator = Calibrator::new();
        assert!(calibrator.sample() > 0.0);
        let codes = calibrator.codes.clone();
        calibrator.sample();
        assert_eq!(calibrator.codes, codes, "every pass does the same work");
        assert!(
            codes.iter().any(|&c| c != codes[0]),
            "the codes are spread over the table"
        );
    }
}
