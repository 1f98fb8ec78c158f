//! Semantic validation of decoded client updates, applied before FedAvg.
//!
//! The wire layer already rejects frames that fail their CRC and payloads
//! that fail to decode, but a payload can frame, checksum, and decode
//! perfectly and still be poison for the aggregate: a single NaN spreads to
//! every parameter of the global model in one FedAvg step, a wrongly-shaped
//! tensor panics the weighted sum, and a hostile sample count can zero out
//! (or overflow) the aggregation weights. FedZip-style codec paths treat
//! the update as untrusted end to end, and the rate–distortion FL
//! literature shows aggregation quality collapses when malformed updates
//! slip into the average — so the server validates every decoded update
//! against the model it just broadcast and quarantines mismatches
//! ([`FaultCounters::quarantined`](fedsz::FaultCounters)) instead of
//! aggregating them.

use fedsz::QuarantineReasons;
use fedsz_tensor::StateDict;

/// Upper bound on a client's declared sample count.
///
/// The streaming aggregator ([`crate::aggregate::StreamingFedAvg`]) keeps
/// each fold's `mantissa × weight` product exact in a `u64`: a 24-bit f32
/// mantissa times a weight ≤ 2^32 stays below 2^56. The bound must
/// therefore not exceed 2^32 (the aggregator `const`-asserts this), and
/// the running total is summed with `checked_add`, so even 2^32 maximal
/// clients cannot silently overflow it. 2^32 samples is orders of
/// magnitude beyond any real federated shard.
pub const MAX_SAMPLES: usize = 1 << 32;

/// Why a decoded update was refused before aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRejection {
    /// At least one tensor value is NaN or infinite.
    NonFinite,
    /// Entry count, names, kinds, or shapes differ from the broadcast
    /// global model.
    StructureMismatch,
    /// Declared sample count is zero or exceeds [`MAX_SAMPLES`].
    BadSampleCount,
}

impl UpdateRejection {
    /// Count this rejection into the matching per-reason bucket of the
    /// round's [`QuarantineReasons`] breakdown.
    pub fn tally(&self, reasons: &mut QuarantineReasons) {
        match self {
            UpdateRejection::NonFinite => reasons.non_finite += 1,
            UpdateRejection::StructureMismatch => reasons.wrong_shape += 1,
            UpdateRejection::BadSampleCount => reasons.bad_count += 1,
        }
    }
}

impl std::fmt::Display for UpdateRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateRejection::NonFinite => write!(f, "non-finite tensor values"),
            UpdateRejection::StructureMismatch => {
                write!(f, "structure mismatch against the broadcast model")
            }
            UpdateRejection::BadSampleCount => write!(f, "hostile sample count"),
        }
    }
}

/// The structural half of the gate, stated once for the ingest worker
/// ([`validate_update`]) and the collector (`aggregate::check_update`):
/// the declared sample count is in `(0, MAX_SAMPLES]` and the update has
/// exactly the reference's entries (same names, kinds, and shapes, in the
/// same order — aggregation is positional). On a mismatch of one entry
/// the error carries its index, so a caller can name it.
pub(crate) fn check_structure(
    update: &StateDict,
    reference: &StateDict,
    samples: usize,
) -> Result<(), (UpdateRejection, Option<usize>)> {
    if samples == 0 || samples > MAX_SAMPLES {
        return Err((UpdateRejection::BadSampleCount, None));
    }
    if update.len() != reference.len() {
        return Err((UpdateRejection::StructureMismatch, None));
    }
    let mismatch = update
        .entries()
        .iter()
        .zip(reference.entries())
        .position(|(u, r)| {
            u.name != r.name || u.kind != r.kind || u.tensor.shape() != r.tensor.shape()
        });
    match mismatch {
        Some(i) => Err((UpdateRejection::StructureMismatch, Some(i))),
        None => Ok(()),
    }
}

/// Validate one decoded update against the broadcast global model.
///
/// Checks, in order: the structure ([`check_structure`]: sample count,
/// then entry-by-entry names, kinds, and shapes); every value is finite.
/// Returns the first failure, or `Ok(())` for an aggregatable update.
pub fn validate_update(
    update: &StateDict,
    reference: &StateDict,
    samples: usize,
) -> Result<(), UpdateRejection> {
    check_structure(update, reference, samples).map_err(|(rejection, _)| rejection)?;
    for e in update.entries() {
        if !e.tensor.data().iter().all(|v| v.is_finite()) {
            return Err(UpdateRejection::NonFinite);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::{Tensor, TensorKind};

    fn model() -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "conv.weight",
            TensorKind::Weight,
            Tensor::new(vec![2, 3], vec![0.1; 6]),
        );
        sd.insert(
            "conv.bias",
            TensorKind::Bias,
            Tensor::from_vec(vec![0.0, 0.0]),
        );
        sd
    }

    #[test]
    fn healthy_update_passes() {
        assert_eq!(validate_update(&model(), &model(), 64), Ok(()));
        assert_eq!(validate_update(&model(), &model(), MAX_SAMPLES), Ok(()));
    }

    #[test]
    fn non_finite_values_are_rejected() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut sd = model();
            sd.entries_mut()[1].tensor.data_mut()[1] = poison;
            assert_eq!(
                validate_update(&sd, &model(), 64),
                Err(UpdateRejection::NonFinite),
                "{poison}"
            );
        }
    }

    #[test]
    fn structure_mismatches_are_rejected() {
        let reference = model();

        // Wrong shape.
        let mut sd = StateDict::new();
        sd.insert(
            "conv.weight",
            TensorKind::Weight,
            Tensor::new(vec![3, 2], vec![0.1; 6]),
        );
        sd.insert(
            "conv.bias",
            TensorKind::Bias,
            Tensor::from_vec(vec![0.0, 0.0]),
        );
        assert_eq!(
            validate_update(&sd, &reference, 64),
            Err(UpdateRejection::StructureMismatch)
        );

        // Wrong name.
        let mut sd = StateDict::new();
        sd.insert(
            "evil.weight",
            TensorKind::Weight,
            Tensor::new(vec![2, 3], vec![0.1; 6]),
        );
        sd.insert(
            "conv.bias",
            TensorKind::Bias,
            Tensor::from_vec(vec![0.0, 0.0]),
        );
        assert_eq!(
            validate_update(&sd, &reference, 64),
            Err(UpdateRejection::StructureMismatch)
        );

        // Wrong kind.
        let mut sd = StateDict::new();
        sd.insert(
            "conv.weight",
            TensorKind::Bias,
            Tensor::new(vec![2, 3], vec![0.1; 6]),
        );
        sd.insert(
            "conv.bias",
            TensorKind::Bias,
            Tensor::from_vec(vec![0.0, 0.0]),
        );
        assert_eq!(
            validate_update(&sd, &reference, 64),
            Err(UpdateRejection::StructureMismatch)
        );

        // Missing entry.
        let mut sd = StateDict::new();
        sd.insert(
            "conv.weight",
            TensorKind::Weight,
            Tensor::new(vec![2, 3], vec![0.1; 6]),
        );
        assert_eq!(
            validate_update(&sd, &reference, 64),
            Err(UpdateRejection::StructureMismatch)
        );
    }

    #[test]
    fn hostile_sample_counts_are_rejected() {
        assert_eq!(
            validate_update(&model(), &model(), 0),
            Err(UpdateRejection::BadSampleCount)
        );
        assert_eq!(
            validate_update(&model(), &model(), MAX_SAMPLES + 1),
            Err(UpdateRejection::BadSampleCount)
        );
        assert_eq!(
            validate_update(&model(), &model(), usize::MAX),
            Err(UpdateRejection::BadSampleCount)
        );
    }

    #[test]
    fn rejections_display_distinctly() {
        let texts: Vec<String> = [
            UpdateRejection::NonFinite,
            UpdateRejection::StructureMismatch,
            UpdateRejection::BadSampleCount,
        ]
        .iter()
        .map(|r| r.to_string())
        .collect();
        assert_eq!(
            texts.len(),
            texts.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }
}
