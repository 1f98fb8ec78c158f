//! FedAvg aggregation (McMahan et al. 2017) as a streaming, O(model),
//! *exactly order-independent* weighted fold.
//!
//! # Why a fixed-point superaccumulator
//!
//! The seed implementation materialized every accepted update into a
//! `Vec<(StateDict, usize)>` — O(clients × model) server memory — and
//! averaged with `f32` arithmetic in client order, which (a) blocks
//! cross-device scale, (b) silently loses weight precision once the total
//! sample count exceeds 2^24, and (c) `assert_eq!`-panicked on structure
//! mismatches inside a Rayon worker, aborting the whole server.
//!
//! [`StreamingFedAvg`] replaces all of that. Each accepted update is folded
//! into a running per-element accumulator and dropped, so server memory for
//! the aggregate is O(model) regardless of cohort size. The accumulator is
//! a Kulisch-style fixed-point superaccumulator: every `f32` is the exact
//! integer ±m·2^e (m < 2^24), so the weighted contribution `samples · m`
//! (≤ 2^56, since [`MAX_SAMPLES`] = 2^32) is added *exactly* into a 384-bit
//! two's-complement integer scaled by 2^149. Integer addition commutes, so
//! the final sum — and therefore the aggregate — is a pure function of the
//! *multiset* of `(update, samples)` pairs:
//!
//! * folds may settle in any arrival order (streaming ≡ materialized,
//!   bit for bit),
//! * any worker count, transport, or client interleaving produces the
//!   identical global model,
//! * no precision is lost at any cohort size or sample count: the per
//!   element result is `f32(f64(Σ nᵢ·xᵢ) / f64(Σ nᵢ))` with the sum
//!   *exact* and the `f64` readout correctly rounded.
//!
//! ## Headroom proof (384-bit form)
//!
//! Stored value = Σ nᵢ·xᵢ scaled by 2^149 (the smallest subnormal `f32` is
//! 2^-149, so the scaled values are integers). One contribution is
//! `n·m·2^(e+149)` with `n ≤ 2^32`, `m < 2^24`, `e + 149 ∈ [0, 253]`, so
//! its magnitude is below 2^(56+254) = 2^310. The total weight is tracked
//! in a checked `u64` and every fold adds at least 1, so at most 2^64
//! contributions can ever fold before the total errors out; the
//! accumulated magnitude therefore stays below 2^(310+64) = 2^374, inside
//! the 384-bit window (sign bit at 2^383) with 9 bits to spare. No
//! intermediate can overflow.
//!
//! # The 128-bit window
//!
//! 384 bits per parameter is what *any* finite `f32` at *any* weight needs;
//! it is not what a trained tensor needs. One contribution `n·m·2^s`
//! (`s` = the value's scaled exponent, [`ShiftRange`]) spans at most 56
//! bits above bit `s`, and the values of one tensor sit in a narrow
//! exponent band. So each tensor starts out in a **narrow** form: one
//! `i128` per parameter plus a per-tensor bit offset `base`, holding the
//! same exact integer as the 384-bit form divided by 2^`base` — 16 bytes
//! per parameter instead of 48, one `i128` add per element instead of a
//! limb walk with a sign branch and a carry loop.
//!
//! **Invariant.** For a narrow tensor with window `(base, top)`:
//! every non-zero value folded so far has `base ≤ s ≤ top`, and
//! `top + 24 + bits(total) − base ≤ 126`, where `bits(t)` is the bit
//! length of the total weight *including the fold in progress*.
//!
//! **Overflow proof.** `s ≥ base` makes every contribution a multiple of
//! 2^`base`, so the stored quotient is an integer. Every folded value has
//! magnitude below 2^(24+`top`) (scaled), so any partial sum of
//! contributions has magnitude below `total · 2^(24+top)` <
//! 2^(`bits(total)` + 24 + `top`); divided by 2^`base` that is below
//! 2^126, one bit under the `i128` sign bit. The check uses the total
//! *after* the fold, so it covers every intermediate of the fold too, and
//! a tensor an update leaves untouched (all zeros) is re-checked against
//! the then-current total the next time it folds.
//!
//! **Anchor rule.** The window is placed on a tensor's first non-zero
//! fold, at the *top*: `base = max_s + 24 + H − 126` (clamped at 0) with
//! `H` = [`ANCHOR_HEADROOM`] bits reserved above for total weight and
//! exponent growth, and all the remaining slack — 126 − 24 − `H` = 70
//! bits — spent *below* the tensor's largest exponent. It is anchored at
//! the top because that is where the hard limit is (the largest values
//! decide whether the sum fits), while the small end is where surprises
//! land: a lossy decoder reconstructs `pred + 2·eb·q` in `f64`, and
//! near-cancellations leave residues dozens of binades below the
//! tensor's typical magnitude. Anchoring at the bottom of the first
//! update would promote on the first such residue.
//!
//! **Promotion.** A fold that would break the invariant (a value below
//! `base`, or too much weight/exponent growth above) first sign-extends
//! the tensor *exactly* into the 384-bit form — `v · 2^base` written
//! with `add_mag`/`sub_mag` — and continues with `accumulate`. Promotion
//! is one-way for the life of the accumulator. All refusals (structure,
//! non-finite values, weight overflow) happen before any tensor is
//! touched, so a refused update changes neither values nor representation.
//!
//! **Why the result is still order-independent.** Which form a tensor is
//! in depends on fold order (an outlier update arriving first promotes
//! early, arriving last promotes late). The *integer* it holds does not:
//! both forms store Σ nᵢ·xᵢ exactly, promotion is exact, and both readouts
//! are the single round-to-nearest-even `f64` of that integer (narrow:
//! Rust's `i128 as f64` is RNE and the 2^(`base`−149) scale is an exact
//! power of two in the normal range). The aggregate therefore remains a
//! pure function of the update multiset.

use fedsz_tensor::StateDict;

use crate::error::FlError;
use crate::validate::{check_structure, UpdateRejection, MAX_SAMPLES};

// The exact-product bound above needs `samples · mantissa` to fit in a
// `u64`: samples ≤ 2^32 (validate.rs) times m < 2^24 is < 2^56.
const _: () = assert!(MAX_SAMPLES <= 1 << 32);

/// Limbs per element: 384 bits spanning scaled bit positions [0, 384),
/// i.e. value magnitudes up to 2^235 with the 2^-149 scale factor.
pub(crate) const LIMBS: usize = 6;

/// Bits a narrow tensor's anchor reserves above its first update's largest
/// exponent for total weight plus exponent growth; the other 70 of the
/// window's 126 − 24 spare bits lie below. Measured on the benchmark's
/// MobileNetV2 updates: 48 (54 bits below) promotes tensors whose lossy
/// reconstruction reaches 2^-55 of the tensor maximum, 32 promotes none.
const ANCHOR_HEADROOM: u32 = 32;

/// Highest bit a narrow element may reach: one below the `i128` sign bit.
const NARROW_TOP_BIT: u32 = 126;

/// Smallest and largest scaled exponent (`s` with value = m·2^(s−149),
/// m < 2^24) over a tensor's non-zero values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShiftRange {
    min: u32,
    max: u32,
}

/// Placement of a narrow tensor: stored `i128` × 2^`base` is the exact
/// scaled sum; `top` is the largest scaled exponent folded so far.
#[derive(Debug, Clone, Copy)]
struct Window {
    base: u32,
    top: u32,
}

/// One tensor's accumulator, in either exact form.
enum TensorAcc {
    /// One `i128` per element at the per-tensor offset `window.base`;
    /// `window` is `None` until the first non-zero fold anchors it.
    Narrow {
        window: Option<Window>,
        vals: Vec<i128>,
    },
    /// `numel × LIMBS` little-endian limbs of 384-bit two's-complement
    /// element accumulators — the promotion target.
    Wide(Vec<u64>),
}

/// Streaming sample-weighted FedAvg accumulator.
///
/// Fold each accepted client update with [`fold`](Self::fold) (in *any*
/// order — the result is exactly order-independent), then take the
/// aggregate with [`finish`](Self::finish). Memory is O(model),
/// independent of how many updates fold: 16 bytes per parameter for
/// tensors in the narrow window, 48 for the few that needed promotion
/// ([`accumulator_bytes`](Self::accumulator_bytes) reports the live sum).
///
/// Every entry is averaged, including batch-norm running statistics and
/// counters — matching APPFL's server-side handling of full state dicts.
pub struct StreamingFedAvg {
    /// Zeroed clone of the reference model; defines the expected
    /// structure and receives the averaged values in `finish`.
    proto: StateDict,
    /// Per entry, its exact accumulator.
    accs: Vec<TensorAcc>,
    /// Σ samples over folded updates (checked).
    total: u64,
    /// Number of updates folded so far.
    folded: usize,
}

impl StreamingFedAvg {
    /// Empty accumulator expecting updates shaped like `reference`.
    pub fn new(reference: &StateDict) -> Self {
        Self {
            proto: reference.zeros_like(),
            accs: reference
                .entries()
                .iter()
                .map(|e| TensorAcc::Narrow {
                    window: None,
                    vals: vec![0i128; e.tensor.numel()],
                })
                .collect(),
            total: 0,
            folded: 0,
        }
    }

    /// Number of updates folded so far.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Σ samples over the folded updates.
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Live bytes of the accumulator: 16 per parameter of every narrow
    /// tensor, 48 per parameter of every promoted one, plus the `f32`
    /// prototype that `finish` fills.
    pub fn accumulator_bytes(&self) -> usize {
        let accs: usize = self
            .accs
            .iter()
            .map(|acc| match acc {
                TensorAcc::Narrow { vals, .. } => std::mem::size_of_val(vals.as_slice()),
                TensorAcc::Wide(limbs) => std::mem::size_of_val(limbs.as_slice()),
            })
            .sum();
        accs + self.proto.nbytes()
    }

    /// How many tensors were promoted to the 384-bit form.
    pub fn wide_tensors(&self) -> usize {
        self.accs
            .iter()
            .filter(|acc| matches!(acc, TensorAcc::Wide(_)))
            .count()
    }

    /// Fold one client update, weighted by its sample count, and return —
    /// the caller can drop `update` immediately afterwards.
    ///
    /// Refuses (typed, never panics): sample counts outside
    /// `(0, MAX_SAMPLES]`, structure mismatches against the reference,
    /// non-finite values, and total-weight overflow. A refused update
    /// leaves the accumulator exactly as it was.
    pub fn fold(&mut self, update: &StateDict, samples: usize) -> Result<(), FlError> {
        let ranges = check_update(&self.proto, update, samples)?;
        let total = self
            .total
            .checked_add(samples as u64)
            .ok_or_else(|| FlError::Aggregate("total sample count overflows u64".into()))?;

        // All checks passed: from here the fold must complete so the
        // accumulator never holds a half-applied update.
        let weight = samples as u64;
        let total_bits = u64::BITS - total.leading_zeros();
        for ((acc, entry), range) in self.accs.iter_mut().zip(update.entries()).zip(ranges) {
            let Some(range) = range else {
                continue; // all ±0.0: contributes nothing
            };
            let data = entry.tensor.data();
            if let TensorAcc::Narrow { window, vals } = acc {
                let anchored = window.get_or_insert(Window {
                    base: (range.max + 24 + ANCHOR_HEADROOM).saturating_sub(NARROW_TOP_BIT),
                    top: range.max,
                });
                let top = anchored.top.max(range.max);
                if range.min >= anchored.base
                    && top + 24 + total_bits - anchored.base <= NARROW_TOP_BIT
                {
                    anchored.top = top;
                    fold_narrow(vals, data, weight, anchored.base);
                    continue;
                }
                *acc = TensorAcc::Wide(promote(vals, anchored.base));
            }
            if let TensorAcc::Wide(limbs) = acc {
                for (limbs, &x) in limbs.chunks_mut(LIMBS).zip(data) {
                    accumulate(limbs, x, weight);
                }
            }
        }
        self.total = total;
        self.folded += 1;
        Ok(())
    }

    /// The weighted average of every folded update, bit-identical for any
    /// fold order. Fails (typed) only when nothing was folded.
    pub fn finish(mut self) -> Result<StateDict, FlError> {
        if self.folded == 0 {
            return Err(FlError::Aggregate(
                "no updates folded: nothing to average".into(),
            ));
        }
        let total = self.total as f64;
        for (acc, entry) in self.accs.iter().zip(self.proto.entries_mut()) {
            let out = entry.tensor.data_mut();
            match acc {
                TensorAcc::Narrow { window, vals } => {
                    // `v as f64` is the one round-to-nearest-even of the
                    // stored integer; the power-of-two scale is exact
                    // (|v| < 2^126 and base − 149 ∈ [−149, 104] keep the
                    // product a normal f64).
                    let scale = pow2(window.map_or(0, |w| w.base) as i32 - 149);
                    for (&v, out) in vals.iter().zip(out) {
                        *out = (v as f64 * scale / total) as f32;
                    }
                }
                TensorAcc::Wide(limbs) => {
                    for (limbs, out) in limbs.chunks(LIMBS).zip(out) {
                        *out = (readout(limbs) / total) as f32;
                    }
                }
            }
        }
        Ok(self.proto)
    }
}

/// `vals[i] += weight · data[i] / 2^base`, exactly. The caller has checked
/// the window invariant (module docs): every non-zero value's scaled
/// exponent is ≥ `base` and the sums stay below 2^126, so the wrapping
/// add never wraps.
fn fold_narrow(vals: &mut [i128], data: &[f32], weight: u64, base: u32) {
    for (v, &x) in vals.iter_mut().zip(data) {
        let bits = x.to_bits();
        let biased = (bits >> 23) & 0xFF;
        let normal = (biased != 0) as u32;
        // Subnormals have no implicit bit and share scaled exponent 0
        // with the smallest normals.
        let mantissa = ((bits & 0x7F_FFFF) | (normal << 23)) as u64;
        let shift = biased - normal;
        // ±0.0 has mantissa 0 and may sit below `base`; masking keeps its
        // (irrelevant) shift amount in range. For every other value
        // `shift − base` ≤ 126 − 24 and the mask is a no-op.
        let term = ((mantissa * weight) as u128) << (shift.wrapping_sub(base) & 127);
        // Conditional negate without a branch: signs are a coin flip.
        let sign = -((bits >> 31) as i128);
        *v = v.wrapping_add((term as i128 ^ sign) - sign);
    }
}

/// Sign-extend a narrow tensor exactly into the 384-bit form:
/// element = `v · 2^base`.
fn promote(vals: &[i128], base: u32) -> Vec<u64> {
    let mut limbs = vec![0u64; vals.len() * LIMBS];
    for (limbs, &v) in limbs.chunks_mut(LIMBS).zip(vals) {
        let mag = v.unsigned_abs();
        // `base + 64` ≤ 253 + 64 lands in limb 4 at most, and the value is
        // below 2^374 by the 384-bit headroom proof.
        let place = if v < 0 { sub_mag } else { add_mag };
        place(limbs, base, mag as u64);
        place(limbs, base + 64, (mag >> 64) as u64);
    }
    limbs
}

/// The gate every fold passes: the structural checks of
/// [`crate::validate`] (sample count in `(0, MAX_SAMPLES]`, entry-for-entry
/// match against `reference`) as a typed [`FlError::Aggregate`], then one
/// pass over the values that both proves them finite and yields each
/// tensor's [`ShiftRange`] (`None` for a tensor of only ±0.0). Shared with
/// the buffering robust-aggregation modes in [`crate::robust`], which must
/// refuse exactly the updates [`StreamingFedAvg::fold`] would refuse.
pub(crate) fn check_update(
    reference: &StateDict,
    update: &StateDict,
    samples: usize,
) -> Result<Vec<Option<ShiftRange>>, FlError> {
    check_structure(update, reference, samples).map_err(|(rejection, at)| {
        FlError::Aggregate(match (rejection, at) {
            (UpdateRejection::BadSampleCount, _) => {
                format!("update weight {samples} outside (0, {MAX_SAMPLES}]")
            }
            (_, Some(i)) => format!(
                "entry '{}' does not match reference entry '{}'",
                update.entries()[i].name,
                reference.entries()[i].name
            ),
            (_, None) => format!(
                "update has {} entries, reference has {}",
                update.len(),
                reference.len()
            ),
        })
    })?;
    update
        .entries()
        .iter()
        .map(|e| {
            // Sign-stripped bit patterns order like magnitudes, so one
            // integer min/max finds both exponent extremes; `b − 1` wraps
            // zeros to u32::MAX so they never win the minimum.
            let (lo, hi) = e
                .tensor
                .data()
                .iter()
                .fold((u32::MAX, 0u32), |(lo, hi), v| {
                    let b = v.to_bits() & 0x7FFF_FFFF;
                    (lo.min(b.wrapping_sub(1)), hi.max(b))
                });
            if hi >= 0x7F80_0000 {
                return Err(FlError::Aggregate(format!(
                    "non-finite value in entry '{}'",
                    e.name
                )));
            }
            let shift = |b: u32| (b >> 23).saturating_sub(1);
            Ok((hi != 0).then(|| ShiftRange {
                min: shift(lo.wrapping_add(1)),
                max: shift(hi),
            }))
        })
        .collect()
}

/// Add `weight · x` exactly into a 384-bit two's-complement accumulator
/// (little-endian limbs, scaled by 2^149). Shared with the trimmed-mean
/// per-coordinate fold in [`crate::robust`], which must produce the exact
/// limb arithmetic of [`StreamingFedAvg`] so that trim k = 0 is
/// bit-identical to the plain mean.
pub(crate) fn accumulate(limbs: &mut [u64], x: f32, weight: u64) {
    let bits = x.to_bits();
    let biased = (bits >> 23) & 0xFF;
    let frac = (bits & 0x7F_FFFF) as u64;
    // Finiteness was checked at fold entry; zero contributes nothing.
    let (mantissa, shift) = if biased == 0 {
        (frac, 0u32) // subnormal: value = frac · 2^-149, scaled exponent 0
    } else {
        (frac | (1 << 23), biased - 1) // normal: frac·2^(e-23), e = biased-127
    };
    if mantissa == 0 {
        return; // ±0.0
    }
    // mantissa < 2^24 and weight ≤ 2^32, so the product is exact in u64.
    let scaled = mantissa * weight;
    if bits >> 31 == 0 {
        add_mag(limbs, shift, scaled);
    } else {
        sub_mag(limbs, shift, scaled);
    }
}

/// `limbs += m · 2^shift` (wrapping two's-complement over 384 bits; the
/// headroom proof in the module docs rules out overflow past the top).
fn add_mag(limbs: &mut [u64], shift: u32, m: u64) {
    let idx = (shift / 64) as usize;
    let bit = shift % 64;
    let wide = (m as u128) << bit;
    let (low, overflow) = limbs[idx].overflowing_add(wide as u64);
    limbs[idx] = low;
    let mut carry = (wide >> 64) as u64 + overflow as u64;
    for limb in limbs.iter_mut().skip(idx + 1) {
        if carry == 0 {
            return;
        }
        let (v, c) = limb.overflowing_add(carry);
        *limb = v;
        carry = c as u64;
    }
}

/// `limbs -= m · 2^shift` (wrapping two's-complement over 384 bits).
fn sub_mag(limbs: &mut [u64], shift: u32, m: u64) {
    let idx = (shift / 64) as usize;
    let bit = shift % 64;
    let wide = (m as u128) << bit;
    let (low, underflow) = limbs[idx].overflowing_sub(wide as u64);
    limbs[idx] = low;
    let mut borrow = (wide >> 64) as u64 + underflow as u64;
    for limb in limbs.iter_mut().skip(idx + 1) {
        if borrow == 0 {
            return;
        }
        let (v, b) = limb.overflowing_sub(borrow);
        *limb = v;
        borrow = b as u64;
    }
}

/// Exact signed value of the accumulator as a correctly-rounded `f64`
/// (round to nearest, ties to even), including the 2^-149 scale.
pub(crate) fn readout(limbs: &[u64]) -> f64 {
    let negative = limbs[LIMBS - 1] >> 63 == 1;
    let mut mag = [0u64; LIMBS];
    if negative {
        // Two's-complement negate: invert and add one.
        let mut carry = 1u64;
        for (dst, &src) in mag.iter_mut().zip(limbs) {
            let (v, c) = (!src).overflowing_add(carry);
            *dst = v;
            carry = c as u64;
        }
    } else {
        mag.copy_from_slice(limbs);
    }
    let Some(top) = (0..LIMBS).rev().find(|&k| mag[k] != 0) else {
        return 0.0;
    };
    let high_bit = top * 64 + 63 - mag[top].leading_zeros() as usize;
    let (mantissa, exp) = if high_bit <= 52 {
        (mag[0], -149i32) // ≤ 53 significant bits: exact as-is
    } else {
        let shift = high_bit - 52;
        let mut m = extract_53(&mag, shift);
        let round = bit_at(&mag, shift - 1);
        let sticky = any_bits_below(&mag, shift - 1);
        if round && (sticky || m & 1 == 1) {
            m += 1;
        }
        let mut e = shift as i32 - 149;
        if m == 1 << 53 {
            m >>= 1;
            e += 1;
        }
        (m, e)
    };
    // `mantissa` has ≤ 53 bits and the exponent stays in the normal f64
    // range (≤ 2^374 scaled by 2^-149 is far below f64::MAX), so this
    // product is exact.
    let value = mantissa as f64 * pow2(exp);
    if negative {
        -value
    } else {
        value
    }
}

/// Bits `[lo, lo + 53)` of the magnitude as a `u64`.
fn extract_53(mag: &[u64; LIMBS], lo: usize) -> u64 {
    let idx = lo / 64;
    let off = lo % 64;
    let mut v = mag[idx] >> off;
    if off != 0 && idx + 1 < LIMBS {
        v |= mag[idx + 1] << (64 - off);
    }
    v & ((1u64 << 53) - 1)
}

/// Bit `i` of the magnitude.
fn bit_at(mag: &[u64; LIMBS], i: usize) -> bool {
    (mag[i / 64] >> (i % 64)) & 1 == 1
}

/// Is any bit strictly below position `i` set?
fn any_bits_below(mag: &[u64; LIMBS], i: usize) -> bool {
    let idx = i / 64;
    let off = i % 64;
    mag.iter().take(idx).any(|&l| l != 0) || (off > 0 && mag[idx] & ((1u64 << off) - 1) != 0)
}

/// 2^e as an `f64`, for exponents in the normal range.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fedsz_tensor::{Tensor, TensorKind};

    /// Weighted average of client updates; weights are client sample
    /// counts. The materialized oracle for [`StreamingFedAvg`] — it folds the
    /// slice through the same accumulator, so `fedavg(&updates)` is
    /// bit-identical to streaming the same updates in any order.
    ///
    /// # Errors
    /// [`FlError::Aggregate`] on an empty update set, a zero or oversized
    /// sample count, mismatched structures, non-finite values, or
    /// total-weight overflow — the typed replacement for the seed
    /// implementation's panics.
    pub(crate) fn fedavg(updates: &[(StateDict, usize)]) -> Result<StateDict, FlError> {
        let Some((first, _)) = updates.first() else {
            return Err(FlError::Aggregate(
                "empty update set: nothing to average".into(),
            ));
        };
        let mut acc = StreamingFedAvg::new(first);
        for (sd, samples) in updates {
            acc.fold(sd, *samples)?;
        }
        acc.finish()
    }

    fn dict(v: f32) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![v; 4]));
        sd.insert("w.bias", TensorKind::Bias, Tensor::from_vec(vec![2.0 * v]));
        sd
    }

    /// Like `dict` but with `v` in every element — `dict`'s doubled bias
    /// overflows to infinity for `v` near `f32::MAX`.
    fn flat(v: f32) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![v; 4]));
        sd.insert("w.bias", TensorKind::Bias, Tensor::from_vec(vec![v]));
        sd
    }

    #[test]
    fn equal_weights_average() {
        let agg = fedavg(&[(dict(1.0), 10), (dict(3.0), 10)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[2.0; 4]);
        assert_eq!(agg.get("w.bias").unwrap().data(), &[4.0]);
    }

    #[test]
    fn sample_counts_weight_the_mean() {
        let agg = fedavg(&[(dict(0.0), 30), (dict(4.0), 10)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[1.0; 4]);
    }

    #[test]
    fn single_client_is_identity() {
        let agg = fedavg(&[(dict(7.0), 5)]).expect("aggregate");
        assert_eq!(agg, dict(7.0));
        // Identity holds at the extreme weights too: the f64 readout has 29
        // guard bits over f32, so n·x/n rounds back to x exactly.
        let agg = fedavg(&[(dict(-3.625), MAX_SAMPLES)]).expect("aggregate");
        assert_eq!(agg, dict(-3.625));
        let odd = MAX_SAMPLES - 1; // odd weight: n·m needs the full 56 bits
        let agg = fedavg(&[(flat(f32::MAX), odd)]).expect("aggregate");
        assert_eq!(agg, flat(f32::MAX));
    }

    #[test]
    fn subnormals_survive_exactly() {
        let tiny = f32::from_bits(1); // 2^-149, the smallest subnormal
        let agg = fedavg(&[(dict(tiny), 3)]).expect("aggregate");
        assert_eq!(agg, dict(tiny));
        // Perfect cancellation of opposite subnormals is exact.
        let agg = fedavg(&[(dict(tiny), 7), (dict(-tiny), 7)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[0.0; 4]);
    }

    #[test]
    fn opposite_values_cancel_exactly() {
        let agg = fedavg(&[(dict(1.0e30), 13), (dict(-1.0e30), 13)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[0.0; 4]);
        assert_eq!(agg.get("w.bias").unwrap().data(), &[0.0]);
    }

    #[test]
    fn streaming_fold_is_order_independent_and_matches_fedavg() {
        let updates: Vec<(StateDict, usize)> = [0.3f32, -1.7, 9.25, 1e-8, -4.5e6]
            .iter()
            .enumerate()
            .map(|(i, &v)| (dict(v), 3 * i + 1))
            .collect();
        let materialized = fedavg(&updates).expect("aggregate");

        // Forward fold.
        let mut fwd = StreamingFedAvg::new(&updates[0].0);
        for (sd, n) in &updates {
            fwd.fold(sd, *n).expect("fold");
        }
        assert_eq!(fwd.folded(), updates.len());
        assert_eq!(fwd.finish().expect("finish"), materialized);

        // Reverse fold: bit-identical, not merely close.
        let mut rev = StreamingFedAvg::new(&updates[0].0);
        for (sd, n) in updates.iter().rev() {
            rev.fold(sd, *n).expect("fold");
        }
        assert_eq!(rev.finish().expect("finish"), materialized);
    }

    #[test]
    fn weights_stay_exact_beyond_two_pow_24_total_samples() {
        // The seed computed weights as `n as f32 / total as f32`. With
        // total = 2^24 + 1 that rounds to 2^24, making client 0's weight
        // exactly 1.0 and erasing client 1 entirely. The exact accumulator
        // must produce 2^24/(2^24+1), which is strictly below 1.
        let n0 = 1usize << 24;
        let agg = fedavg(&[(dict(1.0), n0), (dict(0.0), 1)]).expect("aggregate");
        let got = agg.get("w.weight").unwrap().data()[0];
        let expected = (n0 as f64 / (n0 as f64 + 1.0)) as f32;
        assert_eq!(got, expected);
        assert!(got < 1.0, "client 1's weight was lost: {got}");

        // And far beyond: two maximal-weight clients average exactly.
        let agg = fedavg(&[(dict(1.0), MAX_SAMPLES), (dict(3.0), MAX_SAMPLES)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[2.0; 4]);
    }

    #[test]
    fn empty_update_set_is_a_typed_error() {
        let Err(FlError::Aggregate(msg)) = fedavg(&[]) else {
            panic!("empty set must be FlError::Aggregate");
        };
        assert!(msg.contains("empty"), "{msg}");
    }

    #[test]
    fn hostile_sample_counts_are_typed_errors() {
        assert!(matches!(
            fedavg(&[(dict(1.0), 0)]),
            Err(FlError::Aggregate(_))
        ));
        assert!(matches!(
            fedavg(&[(dict(1.0), MAX_SAMPLES + 1)]),
            Err(FlError::Aggregate(_))
        ));
        assert!(matches!(
            fedavg(&[(dict(1.0), usize::MAX)]),
            Err(FlError::Aggregate(_))
        ));
    }

    #[test]
    fn structure_mismatch_is_a_typed_error_not_a_panic() {
        // The seed's assert_eq! fired inside a Rayon worker here.
        let mut other = StateDict::new();
        other.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![1.0]));
        assert!(matches!(
            fedavg(&[(dict(1.0), 4), (other.clone(), 4)]),
            Err(FlError::Aggregate(_))
        ));

        // Same entry count, different name.
        let mut renamed = dict(1.0);
        renamed.entries_mut()[1].name = "w.evil".into();
        assert!(matches!(
            fedavg(&[(dict(1.0), 4), (renamed, 4)]),
            Err(FlError::Aggregate(_))
        ));

        // Same names, different shape.
        let mut reshaped = dict(1.0);
        reshaped.entries_mut()[0].tensor = Tensor::new(vec![2, 2], vec![1.0; 4]);
        assert!(matches!(
            fedavg(&[(dict(1.0), 4), (reshaped, 4)]),
            Err(FlError::Aggregate(_))
        ));
    }

    #[test]
    fn non_finite_values_are_typed_errors() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut sd = dict(1.0);
            sd.entries_mut()[0].tensor.data_mut()[2] = poison;
            assert!(
                matches!(fedavg(&[(sd, 4)]), Err(FlError::Aggregate(_))),
                "{poison} must be refused"
            );
        }
    }

    #[test]
    fn refused_fold_leaves_the_accumulator_untouched() {
        let mut acc = StreamingFedAvg::new(&dict(0.0));
        acc.fold(&dict(2.0), 8).expect("fold");
        let mut poisoned = dict(5.0);
        poisoned.entries_mut()[0].tensor.data_mut()[0] = f32::NAN;
        assert!(acc.fold(&poisoned, 8).is_err());
        assert_eq!(acc.folded(), 1);
        assert_eq!(acc.total_samples(), 8);
        assert_eq!(acc.finish().expect("finish"), dict(2.0));
    }

    #[test]
    fn finish_without_folds_is_a_typed_error() {
        let acc = StreamingFedAvg::new(&dict(0.0));
        assert!(matches!(acc.finish(), Err(FlError::Aggregate(_))));
    }

    #[test]
    fn extreme_magnitudes_do_not_overflow() {
        // Maximal values at maximal weights, repeatedly: the headroom
        // proof in action.
        let updates: Vec<(StateDict, usize)> = (0..64)
            .map(|i| {
                (
                    flat(if i % 2 == 0 { f32::MAX } else { f32::MIN }),
                    MAX_SAMPLES,
                )
            })
            .collect();
        let agg = fedavg(&updates).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[0.0; 4]);
        assert_eq!(agg.get("w.bias").unwrap().data(), &[0.0]);
    }

    #[test]
    fn readout_rounds_to_nearest_even() {
        // 2^53 + 1 is the first integer f64 cannot represent: folding
        // weights 2^30 of x=2^23+..., engineered so the exact sum needs 54
        // bits, must round like f64 does. Cross-check against the exact
        // integer arithmetic done in u128.
        let big = (1u64 << 53) + 1; // rounds to 2^53 (ties-to-even on the half case below)
        let mut limbs = vec![0u64; LIMBS];
        add_mag(&mut limbs, 149, big); // scaled by 2^149 → value = big
        assert_eq!(readout(&limbs), big as f64);
        // Explicit tie: 2^53 + 2 is representable; 2^53 + 1 ties between
        // 2^53 and 2^53 + 2 and must go to the even mantissa (2^53).
        assert_eq!(big as f64, (1u64 << 53) as f64);
        // And a sticky bit below the round bit forces rounding up.
        let mut limbs = vec![0u64; LIMBS];
        add_mag(&mut limbs, 148, (1u64 << 54) + 3); // value = 2^53 + 1.5
        assert_eq!(readout(&limbs), ((1u64 << 53) + 2) as f64);
    }

    // ---- the 128-bit window against the 384-bit reference ----

    use fedsz_tensor::SplitMix64;

    /// One dict with one entry per slice.
    fn tensors(data: &[&[f32]]) -> StateDict {
        let mut sd = StateDict::new();
        for (i, d) in data.iter().enumerate() {
            sd.insert(
                format!("t{i}.weight"),
                TensorKind::Weight,
                Tensor::from_vec(d.to_vec()),
            );
        }
        sd
    }

    /// 2^(s−149): the positive `f32` whose scaled exponent is `s`, with
    /// the low mantissa bits `frac` set.
    fn at_shift(s: u32, frac: u32) -> f32 {
        f32::from_bits(((s + 1) << 23) | (frac & 0x7F_FFFF))
    }

    /// The oracle: every coordinate through the 384-bit `accumulate` +
    /// `readout`, never through the window.
    fn reference_mean(updates: &[(StateDict, usize)]) -> StateDict {
        let mut out = updates[0].0.zeros_like();
        let total: u64 = updates.iter().map(|(_, n)| *n as u64).sum();
        for (ei, entry) in out.entries_mut().iter_mut().enumerate() {
            for (j, o) in entry.tensor.data_mut().iter_mut().enumerate() {
                let mut limbs = [0u64; LIMBS];
                for (sd, n) in updates {
                    accumulate(&mut limbs, sd.entries()[ei].tensor.data()[j], *n as u64);
                }
                *o = (readout(&limbs) / total as f64) as f32;
            }
        }
        out
    }

    /// Fold `updates` in the given order; returns the result bytes and how
    /// many tensors ended up promoted.
    fn fold_all<'a>(updates: impl IntoIterator<Item = &'a (StateDict, usize)>) -> (Vec<u8>, usize) {
        let mut updates = updates.into_iter().peekable();
        let mut acc = StreamingFedAvg::new(&updates.peek().expect("non-empty").0);
        for (sd, n) in updates {
            acc.fold(sd, *n).expect("fold");
        }
        let wide = acc.wide_tensors();
        (acc.finish().expect("finish").to_bytes(), wide)
    }

    /// Forward and reverse folds both equal the reference, bit for bit;
    /// returns the promoted-tensor counts of the two orders.
    fn assert_matches_reference(updates: &[(StateDict, usize)]) -> (usize, usize) {
        let want = reference_mean(updates).to_bytes();
        let (fwd, wide_fwd) = fold_all(updates);
        let (rev, wide_rev) = fold_all(updates.iter().rev());
        assert_eq!(
            fwd, want,
            "forward fold diverged from the 384-bit reference"
        );
        assert_eq!(
            rev, want,
            "reverse fold diverged from the 384-bit reference"
        );
        (wide_fwd, wide_rev)
    }

    /// `n` values from the bit patterns `bits` draws.
    fn draw(
        rng: &mut SplitMix64,
        n: usize,
        mut bits: impl FnMut(&mut SplitMix64) -> u32,
    ) -> Vec<f32> {
        (0..n).map(|_| f32::from_bits(bits(rng))).collect()
    }

    #[test]
    fn window_matches_the_limb_reference_on_hostile_inputs() {
        let mut rng = SplitMix64::new(0xFED52);
        let weights = [1usize, 7, 600, MAX_SAMPLES - 1, MAX_SAMPLES];
        let (mut promoted, mut kept) = (0, 0);
        for case in 0..300 {
            let n_updates = 1 + rng.below(if case % 10 == 0 { 64 } else { 6 });
            let numel = 1 + rng.below(9);
            // Tensor 0: exponents confined to a band `spread` wide
            // (0 ..= 253, low end random); tensor 1: raw bit patterns;
            // tensor 2: ±0.0 only; tensor 3: subnormals and tiny normals.
            let spread = [0, 1, 23, 69, 70, 71, 120, 253][rng.below(8)] as u32;
            let low = rng.below((254 - spread) as usize) as u32;
            let updates: Vec<(StateDict, usize)> = (0..n_updates)
                .map(|_| {
                    let banded = draw(&mut rng, numel, |r| {
                        let biased = 1 + low + r.below(spread as usize + 1) as u32;
                        (r.next_u64() as u32 & 0x807F_FFFF) | (biased << 23)
                    });
                    let raw = draw(&mut rng, numel, |r| {
                        let bits = r.next_u64() as u32;
                        if f32::from_bits(bits).is_finite() {
                            bits
                        } else {
                            bits & 0x807F_FFFF // non-finite → a subnormal
                        }
                    });
                    let zeros = draw(&mut rng, numel, |r| r.next_u64() as u32 & 0x8000_0000);
                    let tiny = draw(&mut rng, numel, |r| r.next_u64() as u32 & 0x81FF_FFFF);
                    let w = weights[rng.below(weights.len())];
                    (tensors(&[&banded, &raw, &zeros, &tiny]), w)
                })
                .collect();
            let (wide_fwd, wide_rev) = assert_matches_reference(&updates);
            promoted += wide_fwd + wide_rev;
            kept += 8 - wide_fwd - wide_rev;
        }
        // The sweep must exercise both forms, and the narrow one beyond
        // the all-zero tensor (300 × 2 of the `kept` count).
        assert!(promoted > 200, "only {promoted} tensors promoted");
        assert!(kept > 800, "only {kept} tensors stayed narrow");
    }

    #[test]
    fn values_at_the_window_base_stay_narrow_and_one_below_promotes() {
        // First fold anchors: top = 100, base = 100 + 24 + 32 − 126 = 30.
        let first = (tensors(&[&[at_shift(100, 0x12_3456), -at_shift(97, 1)]]), 5);
        for (s, expect_wide) in [(30u32, 0usize), (29, 1)] {
            let second = (tensors(&[&[-at_shift(s, 0x7F_FFFF), at_shift(100, 0)]]), 9);
            let updates = [first.clone(), second];
            let want = reference_mean(&updates).to_bytes();
            let (got, wide) = fold_all(&updates);
            assert_eq!(got, want, "shift {s}");
            assert_eq!(wide, expect_wide, "shift {s}");
        }
    }

    #[test]
    fn headroom_edge_126_stays_narrow_and_127_promotes() {
        let x = at_shift(100, 0x7F_FFFF); // anchors base = 30, 70 bits below
                                          // Weight growth: 100 + 24 + bits(total) − 30 hits 126 at 32 bits.
        let mut acc = StreamingFedAvg::new(&tensors(&[&[x]]));
        acc.fold(&tensors(&[&[x]]), (1 << 32) - 1).expect("fold");
        assert_eq!(acc.wide_tensors(), 0, "total 2^32 − 1 has 32 bits: 126");
        acc.fold(&tensors(&[&[-x]]), 1).expect("fold");
        assert_eq!(acc.wide_tensors(), 1, "total 2^32 has 33 bits: 127");
        let updates = [
            (tensors(&[&[x]]), (1usize << 32) - 1),
            (tensors(&[&[-x]]), 1),
        ];
        assert_eq!(
            acc.finish().expect("finish").to_bytes(),
            reference_mean(&updates).to_bytes()
        );

        // Exponent growth: total 15 → 16 has 5 bits, so the top may rise
        // to 30 + 126 − 24 − 5 = 127 and no further.
        for (top, expect_wide) in [(127u32, 0usize), (128, 1)] {
            let updates = [
                (tensors(&[&[x]]), 15),
                (tensors(&[&[-at_shift(top, 0x7F_FFFF)]]), 1),
            ];
            let want = reference_mean(&updates).to_bytes();
            let (got, wide) = fold_all(&updates);
            assert_eq!(got, want, "top {top}");
            assert_eq!(wide, expect_wide, "top {top}");
        }
    }

    #[test]
    fn promotion_point_does_not_change_the_bytes() {
        // Seven benign updates and one whose first tensor spans 200
        // binades; the outlier sits first, in the middle, or last.
        let mut rng = SplitMix64::new(91);
        let mut benign: Vec<(StateDict, usize)> = (0..7)
            .map(|i| {
                let a: Vec<f32> = (0..16).map(|_| rng.normal_with(0.0, 0.05) as f32).collect();
                let b: Vec<f32> = (0..4).map(|_| rng.normal_with(1.0, 0.01) as f32).collect();
                (tensors(&[&a, &b]), 10 + i)
            })
            .collect();
        let mut wide_row = vec![0.25f32; 16];
        wide_row[3] = -at_shift(10, 99);
        wide_row[9] = at_shift(210, 5);
        let outlier = (tensors(&[&wide_row, &[1.0; 4]]), 33);

        let mut all = benign.clone();
        all.push(outlier.clone());
        let want = reference_mean(&all).to_bytes();
        for at in [0, 3, 7] {
            let mut order = benign.clone();
            order.insert(at, outlier.clone());
            let (got, wide) = fold_all(&order);
            assert_eq!(got, want, "outlier folded at position {at}");
            assert_eq!(wide, 1, "only the outlier's first tensor promotes");
        }
        // Without the outlier nothing promotes.
        benign.rotate_left(2);
        assert_eq!(assert_matches_reference(&benign), (0, 0));
    }

    #[test]
    fn refused_fold_leaves_the_representation_untouched() {
        let reference = tensors(&[&[0.0; 4], &[0.0; 2]]);
        let mut acc = StreamingFedAvg::new(&reference);
        let good = tensors(&[&[0.5, -0.25, 0.125, 1.0], &[3.0, -3.0]]);
        acc.fold(&good, 8).expect("fold");
        let bytes = acc.accumulator_bytes();
        assert_eq!(bytes, 6 * 16 + reference.nbytes());

        // First tensor alone would promote; the NaN is in the last one.
        let poisoned = tensors(&[
            &[at_shift(0, 1), at_shift(250, 1), 0.0, 0.0],
            &[1.0, f32::NAN],
        ]);
        assert!(acc.fold(&poisoned, 8).is_err());
        assert_eq!(acc.wide_tensors(), 0);
        assert_eq!(acc.accumulator_bytes(), bytes);
        assert_eq!(acc.folded(), 1);
        assert_eq!(acc.finish().expect("finish").to_bytes(), good.to_bytes());
    }

    #[test]
    fn accumulator_bytes_counts_both_forms() {
        let reference = tensors(&[&[0.0; 10], &[0.0; 3]]);
        let mut acc = StreamingFedAvg::new(&reference);
        assert_eq!(acc.accumulator_bytes(), 13 * 16 + reference.nbytes());
        let mut spread = [1.0f32; 10];
        spread[0] = at_shift(49, 0); // 2^-100
        acc.fold(&tensors(&[&spread, &[1.0; 3]]), 4).expect("fold");
        assert_eq!(acc.wide_tensors(), 1);
        assert_eq!(
            acc.accumulator_bytes(),
            10 * 48 + 3 * 16 + reference.nbytes()
        );
    }

    #[test]
    fn check_update_reports_exponent_ranges_and_ignores_zeros() {
        let reference = tensors(&[&[0.0; 4], &[0.0; 2], &[0.0; 2]]);
        let update = tensors(&[
            &[0.0, -at_shift(7, 3), at_shift(200, 0), -0.0],
            &[0.0, -0.0],
            &[f32::from_bits(1), -f32::from_bits(0x7F_FFFF)], // subnormals
        ]);
        let ranges = check_update(&reference, &update, 1).expect("finite");
        assert_eq!(
            ranges,
            vec![
                Some(ShiftRange { min: 7, max: 200 }),
                None,
                Some(ShiftRange { min: 0, max: 0 }),
            ]
        );
        let max = tensors(&[
            &[f32::MAX, f32::MIN_POSITIVE, 0.0, 0.0],
            &[0.0; 2],
            &[0.0; 2],
        ]);
        let ranges = check_update(&reference, &max, 1).expect("finite");
        assert_eq!(ranges[0], Some(ShiftRange { min: 0, max: 253 }));
    }
}
