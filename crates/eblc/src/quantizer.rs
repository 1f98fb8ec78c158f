//! Error-bounded linear-scale quantization shared by the SZ2 and SZ3
//! prediction pipelines.
//!
//! Prediction errors are quantized to integer codes with bin width `2ε`,
//! guaranteeing a reconstruction within `ε` of the original. Values whose
//! code falls outside the code book (or where float rounding would break the
//! bound, or whose prediction is not finite) are flagged *unpredictable* and
//! stored as literal `f32`s.

/// Half the code-book size; codes span `1 ..= 2*RADIUS - 1`, code `0` marks
/// an unpredictable value. 2^15 matches SZ2's default `quantization_intervals`.
pub(crate) const RADIUS: i64 = 1 << 15;

/// Total number of quantization symbols (including the escape code 0).
pub(crate) const NUM_CODES: usize = (2 * RADIUS) as usize;

/// `x.round() as i64`, without the libm call that would sit inside the
/// serial Lorenzo feedback loop. The addend is the largest double below 0.5:
/// adding 0.5 itself would carry `0.49999999999999994` up to 1.
#[inline]
fn round_half_away(x: f64) -> i64 {
    (x + 0.499_999_999_999_999_94_f64.copysign(x)) as i64
}

/// Linear quantizer with bin width `2ε`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quantizer {
    abs_eb: f64,
    bin: f64,
}

impl Quantizer {
    /// Quantizer for an absolute error bound `abs_eb > 0`.
    ///
    /// # Panics
    /// Panics if the bound is not finite and positive.
    pub fn new(abs_eb: f64) -> Self {
        assert!(
            abs_eb.is_finite() && abs_eb > 0.0,
            "quantizer needs a positive finite bound, got {abs_eb}"
        );
        Self {
            abs_eb,
            bin: 2.0 * abs_eb,
        }
    }

    /// The absolute error bound.
    pub fn bound(&self) -> f64 {
        self.abs_eb
    }

    /// Quantize `value` against `pred`. On success returns the code
    /// (`1 ..= 2*RADIUS-1`) and the reconstructed value the decoder will see;
    /// `None` means the value must be stored losslessly.
    #[inline]
    pub fn quantize(&self, value: f32, pred: f32) -> Option<(u32, f32)> {
        if !value.is_finite() {
            return None;
        }
        let x = (value as f64 - pred as f64) / self.bin;
        // `x.round()` rounds to `±RADIUS` or beyond exactly when this holds.
        if x.abs() >= RADIUS as f64 - 0.5 {
            return None;
        }
        let qi = round_half_away(x);
        let recon = (pred as f64 + qi as f64 * self.bin) as f32;
        // Guard: f32 rounding of the reconstruction could exceed the bound
        // near the bin edge; fall back to literal storage when it does. The
        // test fails closed: a NaN prediction (the value after a NaN literal
        // in a Lorenzo chain) gives a NaN error, which is not within the
        // bound, so it cannot slip through as the centre code.
        let within = (recon as f64 - value as f64).abs() <= self.abs_eb;
        if !within {
            return None;
        }
        Some(((qi + RADIUS) as u32, recon))
    }

    /// Decoder-side reconstruction for a non-zero code.
    #[inline]
    pub fn reconstruct(&self, pred: f32, code: u32) -> f32 {
        let qi = code as i64 - RADIUS;
        (pred as f64 + qi as f64 * self.bin) as f32
    }

    /// Parameter block for the dispatched batch kernels.
    #[inline]
    fn params(&self) -> fedsz_simd::QuantParams {
        fedsz_simd::QuantParams {
            abs_eb: self.abs_eb,
            bin: self.bin,
            radius: RADIUS as f64,
        }
    }

    /// Batch [`Self::quantize`] over parallel slices, SIMD-dispatched.
    /// `codes[i] == 0` / `recons[i] == 0.0` marks an escape (the `None`
    /// case of the scalar form); every dispatch level is bit-identical to
    /// calling [`Self::quantize`] element by element.
    #[inline]
    pub(crate) fn quantize_slice(
        &self,
        values: &[f32],
        preds: &[f32],
        codes: &mut [u32],
        recons: &mut [f32],
    ) {
        fedsz_simd::quantize(values, preds, self.params(), codes, recons);
    }

    /// `lanes` Lorenzo chains, stored lane-major in `values_t`, quantized
    /// side by side into `codes_t` (same layout), SIMD-dispatched. Per
    /// chain this is `(code, prev) = self.quantize(v, prev).unwrap_or((0,
    /// v))` from `prev = 0`, element by element.
    #[inline]
    pub(crate) fn quantize_chains(&self, values_t: &[f32], lanes: usize, codes_t: &mut [u32]) {
        fedsz_simd::lorenzo_quantize(values_t, lanes, self.params(), codes_t);
    }

    /// `lanes` Lorenzo chains, their codes stored lane-major in `codes_t`,
    /// reconstructed side by side into `out_t` (same layout), where each
    /// zero code's slot holds its literal beforehand; SIMD-dispatched. Per
    /// chain this is `prev = if code == 0 { literal } else {
    /// self.reconstruct(prev, code) }` from `prev = 0`, element by element.
    #[inline]
    pub(crate) fn reconstruct_chains(&self, codes_t: &[u32], lanes: usize, out_t: &mut [f32]) {
        fedsz_simd::lorenzo_reconstruct(codes_t, lanes, self.params(), out_t);
    }

    /// Batch [`Self::reconstruct`], SIMD-dispatched. Escape lanes
    /// (`codes[i] == 0`) are written as `0.0` for the caller to patch from
    /// the literal stream.
    #[inline]
    pub(crate) fn reconstruct_slice(&self, preds: &[f32], codes: &[u32], out: &mut [f32]) {
        fedsz_simd::reconstruct(preds, codes, self.params(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_respects_bound() {
        let q = Quantizer::new(0.01);
        for i in -1000..1000 {
            let value = i as f32 * 0.0173;
            let pred = (i as f32 * 0.0173).mul_add(0.9, 0.001);
            if let Some((code, recon)) = q.quantize(value, pred) {
                assert!(code > 0 && (code as i64) < 2 * RADIUS);
                assert!((recon - value).abs() <= 0.01 + 1e-9, "i={i}");
                assert_eq!(q.reconstruct(pred, code), recon);
            }
        }
    }

    #[test]
    fn perfect_prediction_gives_center_code() {
        let q = Quantizer::new(0.5);
        let (code, recon) = q.quantize(3.0, 3.0).unwrap();
        assert_eq!(code as i64, RADIUS);
        assert_eq!(recon, 3.0);
    }

    #[test]
    fn far_values_are_unpredictable() {
        let q = Quantizer::new(1e-6);
        assert!(q.quantize(1.0, 0.0).is_none());
    }

    #[test]
    fn non_finite_values_are_unpredictable() {
        let q = Quantizer::new(0.1);
        assert!(q.quantize(f32::NAN, 0.0).is_none());
        assert!(q.quantize(f32::INFINITY, 0.0).is_none());
    }

    #[test]
    fn non_finite_predictions_are_unpredictable() {
        // A Lorenzo chain predicts by the previous value, which is a literal
        // NaN or infinity right after one was stored: the bound check must
        // fail closed instead of passing a NaN error.
        let q = Quantizer::new(0.1);
        for pred in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for value in [0.0f32, -0.0, 1.0, -3.5e10, f32::MIN_POSITIVE] {
                assert_eq!(q.quantize(value, pred), None, "{value} against {pred}");
            }
        }
    }

    #[test]
    fn quantize_slice_equals_quantize_element_by_element() {
        // Pins the scalar form to the dispatched batch kernel (every level
        // of which `crates/simd/tests/parity.rs` pins to its scalar twin),
        // escapes included: a non-finite value or prediction in any lane.
        let mut state = 0xA5A5_1234_5EED_0001u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e30];
        for eb in [1e-6, 3e-3, 0.5] {
            let q = Quantizer::new(eb);
            let mut draw = |spread: f32| match next() % 16 {
                0 => specials[(next() % specials.len() as u64) as usize],
                _ => ((next() >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * spread,
            };
            for len in [0usize, 1, 3, 4, 7, 8, 9, 255, 256, 1000] {
                let values: Vec<f32> = (0..len).map(|_| draw(1.0)).collect();
                let preds: Vec<f32> = (0..len).map(|_| draw(1.0 + 100.0 * eb as f32)).collect();
                let mut codes = vec![u32::MAX; len];
                let mut recons = vec![f32::NAN; len];
                q.quantize_slice(&values, &preds, &mut codes, &mut recons);
                for i in 0..len {
                    let (code, recon) = q.quantize(values[i], preds[i]).unwrap_or((0, 0.0));
                    assert_eq!(
                        (codes[i], recons[i].to_bits()),
                        (code, recon.to_bits()),
                        "eb {eb} value {:?} pred {:?}",
                        values[i],
                        preds[i]
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_chains_equals_quantize_chain_by_chain() {
        // Pins the dispatched lane-major kernel to `quantize` fed back its
        // own reconstruction, or the value after an escape, chain by chain.
        let mut state = 0x6C8E_9CF5_7093_2BD5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e30];
        for eb in [1e-6, 3e-3, 0.5] {
            let q = Quantizer::new(eb);
            for (lanes, rows) in [(1usize, 300usize), (5, 17), (32, 256), (33, 3)] {
                let mut walk = vec![0.0f32; lanes];
                let values_t: Vec<f32> = (0..lanes * rows)
                    .map(|i| match next() % 24 {
                        0 => specials[(next() % specials.len() as u64) as usize],
                        _ => {
                            let step = ((next() >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * 0.1;
                            walk[i % lanes] += step;
                            walk[i % lanes]
                        }
                    })
                    .collect();
                let mut codes_t = vec![u32::MAX; values_t.len()];
                q.quantize_chains(&values_t, lanes, &mut codes_t);
                for lane in 0..lanes {
                    let mut prev = 0.0f32;
                    for row in 0..rows {
                        let v = values_t[row * lanes + lane];
                        let code;
                        (code, prev) = q.quantize(v, prev).unwrap_or((0, v));
                        assert_eq!(
                            codes_t[row * lanes + lane],
                            code,
                            "eb {eb} lanes {lanes} lane {lane} row {row} value {v:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive finite bound")]
    fn zero_bound_rejected() {
        Quantizer::new(0.0);
    }

    #[test]
    fn encode_decode_agree_across_bins() {
        let q = Quantizer::new(0.003);
        let pred = 0.1f32;
        for k in -200i64..200 {
            let value = pred + (k as f32) * 0.006;
            let (code, recon) = q.quantize(value, pred).unwrap();
            assert_eq!(q.reconstruct(pred, code), recon);
            assert!((recon - value).abs() <= 0.003 + 1e-9);
        }
    }

    /// `Quantizer::quantize` as it was written with libm's `round`.
    fn quantize_with_libm_round(q: &Quantizer, value: f32, pred: f32) -> Option<(u32, f32)> {
        if !value.is_finite() {
            return None;
        }
        let r = ((value as f64 - pred as f64) / q.bin).round();
        if r.abs() >= RADIUS as f64 {
            return None;
        }
        let qi = r as i64;
        let recon = (pred as f64 + qi as f64 * q.bin) as f32;
        let within = (recon as f64 - value as f64).abs() <= q.abs_eb;
        if !within {
            return None;
        }
        Some(((qi + RADIUS) as u32, recon))
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn inline_rounding_equals_libm_round() {
        let edge = RADIUS as f64 - 0.5;
        let mut cases = vec![
            0.0,
            -0.0,
            next_down(0.5),
            0.5,
            next_up(0.5),
            next_down(edge),
            edge,
            next_up(edge),
            f64::MIN_POSITIVE,
            (1u64 << 51) as f64 + 0.5,
            (1u64 << 52) as f64 + 1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        // Every tie in the code book and both of its neighbours.
        for k in 0..RADIUS + 2 {
            let tie = k as f64 + 0.5;
            cases.extend([next_down(tie), tie, next_up(tie), k as f64]);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            cases.push(unit * 2.0 * RADIUS as f64);
            cases.push(unit);
        }
        for x in cases {
            for x in [x, -x] {
                assert_eq!(round_half_away(x), x.round() as i64, "x = {x:?}");
                assert_eq!(
                    x.abs() >= edge,
                    x.round().abs() >= RADIUS as f64,
                    "range test diverged at x = {x:?}"
                );
            }
        }
    }

    #[test]
    fn quantize_equals_the_libm_round_form() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32
        };
        for eb in [1e-6, 1e-4, 3e-3, 0.5] {
            let q = Quantizer::new(eb);
            let bin = (2.0 * eb) as f32;
            for i in 0..100_000i32 {
                let pred = unit() - 0.5;
                // Random offsets, exact bin ties, and the code-book edge.
                let value = match i % 4 {
                    0 => pred + (unit() - 0.5) * bin * 10.0,
                    1 => pred + ((i % 41 - 20) as f32 + 0.5) * bin,
                    2 => pred + (RADIUS as f32 - unit()) * bin,
                    _ => unit() * 1e3,
                };
                for (v, p) in [(value, pred), (pred, value), (value, f32::NAN)] {
                    let got = q.quantize(v, p).map(|(c, r)| (c, r.to_bits()));
                    let want = quantize_with_libm_round(&q, v, p).map(|(c, r)| (c, r.to_bits()));
                    assert_eq!(got, want, "eb {eb} value {v:?} pred {p:?}");
                }
            }
            for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                assert_eq!(q.quantize(v, 0.0), None);
                assert_eq!(
                    q.quantize(1.0, v).map(|(c, r)| (c, r.to_bits())),
                    quantize_with_libm_round(&q, 1.0, v).map(|(c, r)| (c, r.to_bits()))
                );
            }
        }
    }
}
