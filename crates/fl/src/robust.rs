//! Byzantine-tolerant aggregation: deterministic robust fold modes that
//! screen *statistically* poisoned updates the structural gates cannot see.
//!
//! Every earlier defense layer stops updates that are malformed — bad
//! bytes (wire CRC), bad shapes or non-finite values ([`crate::validate`]),
//! bad volume ([`crate::budget`]). A finite, well-shaped, correctly-framed
//! update that is sign-flipped, scaled 1000×, or drifted toward a target
//! passes all of them and folds exactly into the global model. This module
//! adds the statistical line of defense behind
//! [`FlConfig::aggregation`](crate::session::FlConfig::aggregation):
//!
//! * [`Aggregation::Mean`] — the default. Plain sample-weighted FedAvg via
//!   [`StreamingFedAvg`], byte-identical behavior (and checkpoints) to a
//!   build without this module.
//! * [`Aggregation::ClippedMean`] — a per-update L2 *distance-from-
//!   broadcast* screen. Norms are computed in `f64` with Neumaier-
//!   compensated accumulation (a large-magnitude but finite update cannot
//!   overflow the statistic and slip past the screen, unlike an `f32`
//!   squared norm); the threshold is the lower median of the cohort's
//!   norms × a configurable factor, resolved identically on every
//!   transport and worker count. Updates strictly above the threshold are
//!   excluded and counted as `suspected` (norm-outlier); the survivors
//!   fold through the exact [`StreamingFedAvg`] accumulator, so a round in
//!   which nothing exceeds the threshold is bit-identical to `Mean`.
//! * [`Aggregation::TrimmedMean`] — coordinate-wise trimmed mean: per
//!   model coordinate the k smallest and k largest client values are
//!   dropped and the rest are sample-weight averaged with the same exact
//!   limb arithmetic as [`StreamingFedAvg`] (`k = 0` is bit-identical to
//!   `Mean`). A client trimmed on more than halfway between the honest
//!   share of coordinates (2k/n) and all of them is counted as
//!   `suspected` (trim-eliminated).
//!
//! # Memory trade-off
//!
//! `Mean` streams: each accepted update folds and drops, O(model) server
//! memory. Both robust modes must instead buffer the attempt's decoded
//! updates — the clipped threshold is a function of *all* norms, and the
//! trimmed mean is a function of all values per coordinate — so they cost
//! O(cohort × model). That cost is surfaced, not hidden: at run start the
//! resolved ingest budget
//! ([`FlConfig::ingest_budget_bytes`](crate::session::FlConfig::ingest_budget_bytes))
//! must be disabled or at least cohort × model bytes
//! (`Aggregation::check_ingest_budget`), otherwise the run refuses to start
//! with a typed [`FlError::Aggregate`] naming the flag to raise.
//!
//! # Determinism
//!
//! Screen decisions depend only on the *set* of settled updates, never on
//! settle order. The clipped screen needs no order: each norm is a
//! function of its update, the median comes from norms totally ordered
//! with `total_cmp`, and the survivors fold exactly. The trimmed mean
//! sorts its buffered updates by client id (ids are unique per attempt —
//! first-wins admission), and its per-coordinate trim uses a stable sort
//! keyed on value, so client order breaks ties and decides who counts as
//! trimmed. The same cohort therefore produces bit-identical models and
//! identical `suspected` counters in-process, over channels, and over TCP,
//! for any ingest worker count.

use std::sync::Arc;

use fedsz::SuspectReasons;
use fedsz_tensor::StateDict;

use crate::aggregate::{accumulate, check_update, readout, StreamingFedAvg, LIMBS};
use crate::error::FlError;

/// Server-side aggregation mode: how settled updates become the next
/// global model. See the [module docs](self) for the screening semantics
/// and the memory trade-off of the robust modes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Aggregation {
    /// Plain sample-weighted FedAvg (the default): every validated update
    /// folds; streaming, O(model) server memory.
    #[default]
    Mean,
    /// Norm-screened FedAvg: updates whose L2 distance from the broadcast
    /// model strictly exceeds median-of-distances × `clip_factor` are
    /// excluded as `suspected` (norm-outlier). Buffers the cohort.
    ClippedMean {
        /// Threshold multiplier over the cohort's median distance; must be
        /// finite and ≥ 1 (a factor below 1 would reject the median
        /// itself).
        clip_factor: f64,
    },
    /// Coordinate-wise trimmed mean: per coordinate, drop the `trim_k`
    /// smallest and `trim_k` largest client values, weighted-average the
    /// rest. Buffers the cohort.
    TrimmedMean {
        /// Values trimmed from each end per coordinate, capped at
        /// `(n − 1) / 2` so at least one value always survives.
        trim_k: usize,
    },
}

impl Aggregation {
    /// Short stable name for reports, errors, and the checkpoint
    /// fingerprint.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregation::Mean => "mean",
            Aggregation::ClippedMean { .. } => "clipped-mean",
            Aggregation::TrimmedMean { .. } => "trimmed-mean",
        }
    }

    /// Validate the mode's parameters (typed, at configuration time).
    pub fn validate(&self) -> Result<(), FlError> {
        match *self {
            Aggregation::Mean | Aggregation::TrimmedMean { .. } => Ok(()),
            Aggregation::ClippedMean { clip_factor } => {
                if clip_factor.is_finite() && clip_factor >= 1.0 {
                    Ok(())
                } else {
                    Err(FlError::Aggregate(format!(
                        "clip factor {clip_factor} must be finite and >= 1"
                    )))
                }
            }
        }
    }

    /// Does this mode buffer the cohort's decoded updates (O(cohort ×
    /// model) server memory) instead of streaming them?
    pub(crate) fn buffers_cohort(&self) -> bool {
        !matches!(self, Aggregation::Mean)
    }

    /// Enforce the robust modes' buffering cost against the resolved
    /// ingest budget: a mode that holds the cohort's decoded updates needs
    /// the budget disabled or at least cohort × model bytes, or the run
    /// would admit updates it cannot afford to keep. Checked once at run
    /// start — deterministic, typed, and it names the flag to raise.
    pub(crate) fn check_ingest_budget(
        &self,
        resolved_budget: Option<usize>,
        cohort: usize,
        model_bytes: usize,
    ) -> Result<(), FlError> {
        if !self.buffers_cohort() {
            return Ok(());
        }
        let Some(budget) = resolved_budget else {
            return Ok(()); // budgeting disabled: nothing to enforce against
        };
        let need = cohort.saturating_mul(model_bytes);
        if budget < need {
            return Err(FlError::Aggregate(format!(
                "aggregation mode {} buffers the cohort's decoded updates \
                 ({cohort} clients x {model_bytes}-byte model = {need} bytes) \
                 but the ingest budget is {budget} bytes; raise \
                 --ingest-budget-bytes to at least {need}, or 0 to disable \
                 budgeting",
                self.name()
            )));
        }
        Ok(())
    }
}

/// One buffered update awaiting the end-of-attempt robust resolution.
pub(crate) struct Buffered {
    client_id: usize,
    samples: usize,
    update: Box<StateDict>,
}

/// What a robust fold resolves to: the next global model plus the
/// per-reason count of screened-out (suspected) updates.
pub(crate) struct RobustOutcome {
    pub(crate) model: StateDict,
    pub(crate) suspected: SuspectReasons,
}

/// The per-attempt aggregation accumulator behind every mode.
///
/// `Mean` wraps [`StreamingFedAvg`] verbatim — fold-and-drop, O(model).
/// The robust modes buffer `(client_id, samples, update)` and resolve at
/// [`finish`](Self::finish), after the attempt's last outcome settles.
/// Every mode applies the exact structural gate of
/// [`StreamingFedAvg::fold`] at fold time, so a refused update is a typed
/// error at the same point in the stream regardless of mode.
pub(crate) enum RobustFold {
    Mean(StreamingFedAvg),
    Clipped {
        reference: Arc<StateDict>,
        clip_factor: f64,
        total: u64,
        buffered: Vec<Buffered>,
    },
    Trimmed {
        reference: Arc<StateDict>,
        trim_k: usize,
        total: u64,
        buffered: Vec<Buffered>,
    },
}

impl RobustFold {
    /// Empty accumulator for one round attempt, expecting updates shaped
    /// like `reference` (the broadcast global model — also the clipped
    /// screen's distance reference).
    pub(crate) fn new(mode: Aggregation, reference: &Arc<StateDict>) -> Self {
        match mode {
            Aggregation::Mean => RobustFold::Mean(StreamingFedAvg::new(reference)),
            Aggregation::ClippedMean { clip_factor } => RobustFold::Clipped {
                reference: Arc::clone(reference),
                clip_factor,
                total: 0,
                buffered: Vec::new(),
            },
            Aggregation::TrimmedMean { trim_k } => RobustFold::Trimmed {
                reference: Arc::clone(reference),
                trim_k,
                total: 0,
                buffered: Vec::new(),
            },
        }
    }

    /// Number of updates accepted so far (the screen runs at `finish`).
    #[cfg(test)]
    pub(crate) fn folded(&self) -> usize {
        match self {
            RobustFold::Mean(agg) => agg.folded(),
            RobustFold::Clipped { buffered, .. } | RobustFold::Trimmed { buffered, .. } => {
                buffered.len()
            }
        }
    }

    /// Accept one validated update. `Mean` folds and drops it; the robust
    /// modes buffer it for the end-of-attempt resolution. Refusals
    /// (structure mismatch, non-finite values, hostile sample counts,
    /// total-weight overflow) are typed and leave the accumulator
    /// untouched, exactly like [`StreamingFedAvg::fold`].
    pub(crate) fn fold(
        &mut self,
        client_id: usize,
        update: Box<StateDict>,
        samples: usize,
    ) -> Result<(), FlError> {
        match self {
            RobustFold::Mean(agg) => agg.fold(&update, samples),
            RobustFold::Clipped {
                reference,
                total,
                buffered,
                ..
            }
            | RobustFold::Trimmed {
                reference,
                total,
                buffered,
                ..
            } => {
                check_update(reference, &update, samples)?;
                *total = total
                    .checked_add(samples as u64)
                    .ok_or_else(|| FlError::Aggregate("total sample count overflows u64".into()))?;
                buffered.push(Buffered {
                    client_id,
                    samples,
                    update,
                });
                Ok(())
            }
        }
    }

    /// Resolve the attempt: run the mode's screen over the accepted
    /// updates and average the survivors. Bit-identical for any fold
    /// order. Fails (typed) only when nothing was accepted.
    pub(crate) fn finish(self) -> Result<RobustOutcome, FlError> {
        match self {
            RobustFold::Mean(agg) => Ok(RobustOutcome {
                model: agg.finish()?,
                suspected: SuspectReasons::default(),
            }),
            RobustFold::Clipped {
                reference,
                clip_factor,
                buffered,
                ..
            } => clipped_finish(&reference, clip_factor, buffered),
            RobustFold::Trimmed {
                reference,
                trim_k,
                buffered,
                ..
            } => trimmed_finish(&reference, trim_k, buffered),
        }
    }
}

/// L2 distance ‖update − reference‖₂ in `f64` with Neumaier-compensated
/// summation. `f32 → f64` is exact and the squared deltas are at most
/// ~2^257 each, so the statistic is finite for *any* finite update — an
/// `f32` accumulation would overflow to `inf` near `f32::MAX` and the
/// comparison against the threshold would misbehave.
fn l2_delta_norm(update: &StateDict, reference: &StateDict) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for (u, r) in update.entries().iter().zip(reference.entries()) {
        for (&x, &g) in u.tensor.data().iter().zip(r.tensor.data()) {
            let d = x as f64 - g as f64;
            let term = d * d;
            let t = sum + term;
            comp += if sum.abs() >= term.abs() {
                (sum - t) + term
            } else {
                (term - t) + sum
            };
            sum = t;
        }
    }
    (sum + comp).sqrt()
}

/// Norm-screened FedAvg: exclude updates whose distance from the
/// broadcast model strictly exceeds lower-median × `clip_factor`, fold
/// the survivors through [`StreamingFedAvg`]. With `clip_factor ≥ 1` the
/// median update always survives, so a non-empty cohort always yields a
/// model.
fn clipped_finish(
    reference: &StateDict,
    clip_factor: f64,
    buffered: Vec<Buffered>,
) -> Result<RobustOutcome, FlError> {
    if buffered.is_empty() {
        return Err(FlError::Aggregate(
            "no updates folded: nothing to average".into(),
        ));
    }
    let norms: Vec<f64> = buffered
        .iter()
        .map(|b| l2_delta_norm(&b.update, reference))
        .collect();
    let mut sorted = norms.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[(sorted.len() - 1) / 2];
    let threshold = median * clip_factor;

    let mut agg = StreamingFedAvg::new(reference);
    let mut suspected = SuspectReasons::default();
    for (b, &norm) in buffered.iter().zip(&norms) {
        if norm > threshold {
            suspected.norm_outlier += 1;
        } else {
            agg.fold(&b.update, b.samples)?;
        }
    }
    Ok(RobustOutcome {
        model: agg.finish()?,
        suspected,
    })
}

/// Coordinate-wise trimmed mean over the buffered cohort, using the exact
/// limb arithmetic of [`StreamingFedAvg`] per coordinate so `trim_k = 0`
/// reproduces the plain mean bit for bit. A client trimmed on more than
/// halfway between the honest share of coordinates (2k/n) and all of them
/// counts as suspected.
fn trimmed_finish(
    reference: &StateDict,
    trim_k: usize,
    mut buffered: Vec<Buffered>,
) -> Result<RobustOutcome, FlError> {
    if buffered.is_empty() {
        return Err(FlError::Aggregate(
            "no updates folded: nothing to average".into(),
        ));
    }
    // Client ids are unique per attempt, so this order — hence which
    // client a tie trims — is a pure function of the update set.
    buffered.sort_by_key(|b| b.client_id);
    let n = buffered.len();
    // Cap so 2k < n: at least one value survives every coordinate.
    let k = trim_k.min((n - 1) / 2);
    let total_coords: usize = reference.entries().iter().map(|e| e.tensor.numel()).sum();

    let mut proto = reference.zeros_like();
    let mut trimmed_per_client = vec![0usize; n];
    // Scratch reused across coordinates: (value, client-order index),
    // stable-sorted by value so ties keep client order — deterministic.
    let mut slots: Vec<(f32, usize)> = Vec::with_capacity(n);
    for (ei, entry) in proto.entries_mut().iter_mut().enumerate() {
        let out = entry.tensor.data_mut();
        for (j, out_v) in out.iter_mut().enumerate() {
            slots.clear();
            for (ci, b) in buffered.iter().enumerate() {
                slots.push((b.update.entries()[ei].tensor.data()[j], ci));
            }
            slots.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, ci) in slots[..k].iter().chain(&slots[n - k..]) {
                trimmed_per_client[ci] += 1;
            }
            let mut limbs = [0u64; LIMBS];
            let mut weight = 0u64;
            for &(x, ci) in &slots[k..n - k] {
                let w = buffered[ci].samples as u64;
                weight += w; // ≤ the checked fold total: cannot overflow
                accumulate(&mut limbs, x, w);
            }
            *out_v = (readout(&limbs) / weight as f64) as f32;
        }
    }

    // An honest client is trimmed on a share of about 2k/n of the
    // coordinates; flag one trimmed beyond halfway between that share and
    // all of them: t / total > (2k/n + 1) / 2.
    let suspected = SuspectReasons {
        norm_outlier: 0,
        trim_eliminated: trimmed_per_client
            .iter()
            .filter(|&&t| 2 * n * t > total_coords * (n + 2 * k))
            .count(),
    };
    Ok(RobustOutcome {
        model: proto,
        suspected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::tests::fedavg;
    use fedsz_tensor::{Tensor, TensorKind};

    fn dict(v: f32) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![v; 4]));
        sd.insert("w.bias", TensorKind::Bias, Tensor::from_vec(vec![2.0 * v]));
        sd
    }

    fn fold_all(mode: Aggregation, updates: &[(StateDict, usize)]) -> RobustOutcome {
        let reference = Arc::new(updates[0].0.zeros_like());
        let mut fold = RobustFold::new(mode, &reference);
        for (i, (sd, n)) in updates.iter().enumerate() {
            fold.fold(i, Box::new(sd.clone()), *n).expect("fold");
        }
        assert_eq!(fold.folded(), updates.len());
        fold.finish().expect("finish")
    }

    #[test]
    fn validate_rejects_bad_clip_factors() {
        for bad in [0.0, 0.5, -3.0, f64::NAN, f64::INFINITY] {
            assert!(
                Aggregation::ClippedMean { clip_factor: bad }
                    .validate()
                    .is_err(),
                "{bad} must be refused"
            );
        }
        assert!(Aggregation::ClippedMean { clip_factor: 1.0 }
            .validate()
            .is_ok());
        assert!(Aggregation::Mean.validate().is_ok());
        assert!(Aggregation::TrimmedMean { trim_k: 7 }.validate().is_ok());
    }

    #[test]
    fn mean_mode_matches_streaming_fedavg_exactly() {
        let updates = vec![(dict(1.0), 10), (dict(3.0), 30), (dict(-0.5), 7)];
        let out = fold_all(Aggregation::Mean, &updates);
        assert_eq!(out.model, fedavg(&updates).expect("fedavg"));
        assert_eq!(out.suspected, SuspectReasons::default());
    }

    #[test]
    fn clipped_is_bit_identical_to_mean_below_threshold() {
        // All norms within factor x median: nothing screened, identical
        // fold set → identical accumulator → identical bits.
        let updates = vec![(dict(1.0), 5), (dict(1.5), 9), (dict(0.75), 3)];
        let out = fold_all(Aggregation::ClippedMean { clip_factor: 3.0 }, &updates);
        assert_eq!(out.model, fedavg(&updates).expect("fedavg"));
        assert_eq!(out.suspected.total(), 0);
    }

    #[test]
    fn clipped_excludes_the_norm_outlier() {
        // Four identical honest updates and one scaled 1000x: the median
        // norm is honest, the outlier is strictly above median x 3.
        let honest = dict(1.0);
        let updates = vec![
            (honest.clone(), 8),
            (honest.clone(), 8),
            (honest.clone(), 8),
            (honest.clone(), 8),
            (dict(1000.0), 8),
        ];
        let out = fold_all(Aggregation::ClippedMean { clip_factor: 3.0 }, &updates);
        assert_eq!(out.suspected.norm_outlier, 1);
        assert_eq!(out.suspected.trim_eliminated, 0);
        // The aggregate is exactly the honest mean.
        assert_eq!(out.model, honest);
    }

    #[test]
    fn trimmed_k0_is_bit_identical_to_mean() {
        let updates = vec![(dict(0.3), 4), (dict(-1.7), 11), (dict(9.25), 2)];
        let out = fold_all(Aggregation::TrimmedMean { trim_k: 0 }, &updates);
        assert_eq!(out.model, fedavg(&updates).expect("fedavg"));
        assert_eq!(out.suspected.total(), 0);
    }

    #[test]
    fn trimmed_discards_extremes_and_suspects_the_adversary() {
        // Five clients, one hugely scaled: with k = 1 the adversary's
        // value is the max on every coordinate, so it is trimmed on all of
        // them (majority → suspected). These constant updates make the
        // smallest honest client the per-coordinate minimum everywhere
        // too, so the symmetric trim flags it as well — the middle three
        // of the spread average per coordinate.
        let updates = vec![
            (dict(1.0), 8),
            (dict(2.0), 8),
            (dict(3.0), 8),
            (dict(4.0), 8),
            (dict(1000.0), 8),
        ];
        let out = fold_all(Aggregation::TrimmedMean { trim_k: 1 }, &updates);
        assert_eq!(out.suspected.trim_eliminated, 2);
        // Per coordinate the survivors are {2.0, 3.0, 4.0} at equal
        // weights: exactly their mean.
        assert_eq!(
            out.model,
            fedavg(&[(dict(2.0), 8), (dict(3.0), 8), (dict(4.0), 8)]).unwrap()
        );
    }

    #[test]
    fn trimmed_suspects_only_the_outlier_once_4k_reaches_n() {
        // k = 3 of 8: an honest client is trimmed on a share of 2k/n = 3/4
        // of the coordinates, so a majority rule would flag all eight.
        let mut rng = fedsz_tensor::SplitMix64::new(7);
        let mut noise = || {
            let mut sd = StateDict::new();
            let w = (0..256).map(|_| rng.normal_with(0.0, 1.0) as f32).collect();
            sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(w));
            sd
        };
        let mut updates: Vec<(StateDict, usize)> = (0..7).map(|_| (noise(), 8)).collect();
        let mut outlier = StateDict::new();
        outlier.insert(
            "w.weight",
            TensorKind::Weight,
            Tensor::from_vec(vec![1000.0; 256]),
        );
        updates.push((outlier, 8));
        let out = fold_all(Aggregation::TrimmedMean { trim_k: 3 }, &updates);
        assert_eq!(out.suspected.trim_eliminated, 1);
    }

    #[test]
    fn trim_k_is_capped_so_a_value_always_survives() {
        let updates = vec![(dict(1.0), 4), (dict(5.0), 4)];
        // k = 100 on n = 2 caps to (2-1)/2 = 0: plain mean, no suspects.
        let out = fold_all(Aggregation::TrimmedMean { trim_k: 100 }, &updates);
        assert_eq!(out.model, fedavg(&updates).expect("fedavg"));
        assert_eq!(out.suspected.total(), 0);
    }

    #[test]
    fn large_finite_update_does_not_overflow_the_norm_statistic() {
        // Regression (satellite 1): the squared norm of a near-f32::MAX
        // update overflows f32 to inf — `inf > threshold` would still
        // screen it, but `inf` as a *median* would wave every update
        // through. The f64 Neumaier statistic stays finite and exact.
        // (1.7e38 keeps every entry of the fixture — including the 2x
        // bias — finite in f32, while each squared term still overflows.)
        let huge = dict(1.7e38);
        let reference = huge.zeros_like();
        let norm = l2_delta_norm(&huge, &reference);
        assert!(norm.is_finite(), "f64 norm must not overflow: {norm}");
        assert!(norm > f32::MAX as f64, "norm must exceed the f32 range");
        // The f32 computation this replaces really does overflow.
        let sq_f32: f32 = huge
            .entries()
            .iter()
            .flat_map(|e| e.tensor.data())
            .map(|v| v * v)
            .sum();
        assert!(sq_f32.is_infinite());

        // And the screen still excludes it when honest updates dominate.
        let updates = vec![(dict(1.0), 8), (dict(1.0), 8), (dict(1.0), 8), (huge, 8)];
        let out = fold_all(Aggregation::ClippedMean { clip_factor: 3.0 }, &updates);
        assert_eq!(out.suspected.norm_outlier, 1);
    }

    #[test]
    fn screen_decisions_are_order_independent() {
        let updates = [
            (dict(1.0), 8),
            (dict(1.2), 9),
            (dict(0.9), 7),
            (dict(500.0), 8),
        ];
        let reference = Arc::new(updates[0].0.zeros_like());
        for mode in [
            Aggregation::ClippedMean { clip_factor: 3.0 },
            Aggregation::TrimmedMean { trim_k: 1 },
        ] {
            let mut fwd = RobustFold::new(mode, &reference);
            for (i, (sd, n)) in updates.iter().enumerate() {
                fwd.fold(i, Box::new(sd.clone()), *n).expect("fold");
            }
            let fwd = fwd.finish().expect("finish");
            let mut rev = RobustFold::new(mode, &reference);
            for (i, (sd, n)) in updates.iter().enumerate().rev() {
                rev.fold(i, Box::new(sd.clone()), *n).expect("fold");
            }
            let rev = rev.finish().expect("finish");
            assert_eq!(fwd.model, rev.model, "{mode:?}");
            assert_eq!(fwd.suspected, rev.suspected, "{mode:?}");
        }
    }

    #[test]
    fn robust_fold_applies_the_structural_gate() {
        let reference = Arc::new(dict(0.0));
        let mut fold = RobustFold::new(Aggregation::TrimmedMean { trim_k: 1 }, &reference);
        let mut poisoned = dict(1.0);
        poisoned.entries_mut()[0].tensor.data_mut()[0] = f32::NAN;
        assert!(fold.fold(0, Box::new(poisoned), 4).is_err());
        assert!(fold.fold(1, Box::new(dict(1.0)), 0).is_err());
        assert_eq!(fold.folded(), 0);
    }

    #[test]
    fn empty_finish_is_a_typed_error() {
        let reference = Arc::new(dict(0.0));
        for mode in [
            Aggregation::ClippedMean { clip_factor: 2.0 },
            Aggregation::TrimmedMean { trim_k: 1 },
        ] {
            let fold = RobustFold::new(mode, &reference);
            assert!(matches!(fold.finish(), Err(FlError::Aggregate(_))));
        }
    }

    #[test]
    fn budget_check_enforces_the_buffering_cost() {
        let mode = Aggregation::TrimmedMean { trim_k: 1 };
        // Disabled budget: fine.
        assert!(mode.check_ingest_budget(None, 8, 1000).is_ok());
        // Exactly cohort x model: fine.
        assert!(mode.check_ingest_budget(Some(8000), 8, 1000).is_ok());
        // One byte short: typed refusal naming the flag.
        let Err(FlError::Aggregate(msg)) = mode.check_ingest_budget(Some(7999), 8, 1000) else {
            panic!("short budget must be refused");
        };
        assert!(msg.contains("--ingest-budget-bytes"), "{msg}");
        // Mean never buffers: no constraint.
        assert!(Aggregation::Mean
            .check_ingest_budget(Some(1), 8, 1000)
            .is_ok());
    }
}
