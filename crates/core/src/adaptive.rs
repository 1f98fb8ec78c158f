//! Error-bound scheduling across communication rounds.
//!
//! The paper's future-work §VIII-B asks how tuning might mitigate the
//! accuracy loss compression introduces. A natural knob is the error bound
//! itself: early rounds tolerate coarse updates (the model is far from an
//! optimum), late rounds benefit from fidelity. This module provides
//! round-indexed schedules for the relative bound.

/// A schedule mapping a round index to a relative error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundSchedule {
    /// The paper's setting: one bound for every round.
    Constant(f64),
    /// Geometric decay from `start` to `end` over `rounds` rounds.
    GeometricDecay {
        /// Bound at round 0.
        start: f64,
        /// Bound at the final round.
        end: f64,
        /// Total number of rounds the decay spans.
        rounds: usize,
    },
    /// Step down from `coarse` to `fine` at `switch_round`.
    Step {
        /// Bound before the switch.
        coarse: f64,
        /// Bound from the switch on.
        fine: f64,
        /// First round that uses `fine`.
        switch_round: usize,
    },
}

impl BoundSchedule {
    /// The relative bound for a round.
    pub fn bound_at(&self, round: usize) -> f64 {
        match *self {
            BoundSchedule::Constant(b) => b,
            BoundSchedule::GeometricDecay { start, end, rounds } => {
                if rounds <= 1 {
                    return end;
                }
                let t = (round as f64 / (rounds - 1) as f64).clamp(0.0, 1.0);
                start * (end / start).powf(t)
            }
            BoundSchedule::Step {
                coarse,
                fine,
                switch_round,
            } => {
                if round < switch_round {
                    coarse
                } else {
                    fine
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_is_flat() {
        let s = BoundSchedule::Constant(1e-2);
        assert_eq!(s.bound_at(0), 1e-2);
        assert_eq!(s.bound_at(100), 1e-2);
    }

    #[test]
    fn geometric_decay_hits_endpoints() {
        let s = BoundSchedule::GeometricDecay {
            start: 1e-1,
            end: 1e-3,
            rounds: 11,
        };
        assert!((s.bound_at(0) - 1e-1).abs() < 1e-12);
        assert!((s.bound_at(10) - 1e-3).abs() < 1e-12);
        // Monotone decreasing in between.
        for r in 0..10 {
            assert!(s.bound_at(r) > s.bound_at(r + 1));
        }
        // Midpoint is the geometric mean.
        assert!((s.bound_at(5) - 1e-2).abs() < 1e-6);
    }

    #[test]
    fn decay_clamps_past_the_end() {
        let s = BoundSchedule::GeometricDecay {
            start: 1e-1,
            end: 1e-3,
            rounds: 5,
        };
        assert_eq!(s.bound_at(100), s.bound_at(4));
    }

    #[test]
    fn step_schedule_switches_once() {
        let s = BoundSchedule::Step {
            coarse: 1e-1,
            fine: 1e-3,
            switch_round: 3,
        };
        assert_eq!(s.bound_at(2), 1e-1);
        assert_eq!(s.bound_at(3), 1e-3);
    }
}
