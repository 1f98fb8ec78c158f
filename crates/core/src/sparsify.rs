//! Top-K gradient sparsification, and its composition with FedSZ.
//!
//! The paper positions FedSZ as a *last step* in the communication
//! pipeline: "any method can ostensibly be used in concert with FEDSZ"
//! (§III-C), since sparsified or quantized updates are still floating-point
//! streams an EBLC can compress further. This module implements the Top-K
//! scheme the related work discusses and a combined encoder that runs the
//! surviving values through an error-bounded compressor and the indices
//! through a lossless codec — demonstrating the composition claim
//! end-to-end (see the `ablate_composition` regenerator).

use fedsz_eblc::{ErrorBound, LossyKind};
use fedsz_entropy::{reader, varint, CodecError};
use fedsz_lossless::LosslessKind;

/// Top-K sparsifier: keep the `fraction` of entries largest in magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopK {
    /// Fraction of entries to keep, in `(0, 1]`.
    pub fraction: f64,
}

impl TopK {
    /// A sparsifier keeping the given fraction.
    ///
    /// # Panics
    /// Panics unless `0 < fraction <= 1`.
    pub fn new(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "top-k fraction must be in (0, 1], got {fraction}"
        );
        Self { fraction }
    }

    /// Sparsify a dense buffer.
    pub fn sparsify(&self, values: &[f32]) -> SparseUpdate {
        if values.is_empty() {
            return SparseUpdate {
                dense_len: 0,
                indices: Vec::new(),
                values: Vec::new(),
            };
        }
        let keep = ((values.len() as f64 * self.fraction).ceil() as usize).clamp(1, values.len());
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        // Partial selection by |value| descending; NaNs sort as smallest.
        let pivot = keep.saturating_sub(1).min(values.len().saturating_sub(1));
        order.select_nth_unstable_by(pivot, |&a, &b| {
            let va = values[a as usize].abs();
            let vb = values[b as usize].abs();
            vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut indices: Vec<u32> = order[..keep].to_vec();
        indices.sort_unstable();
        let kept: Vec<f32> = indices.iter().map(|&i| values[i as usize]).collect();
        SparseUpdate {
            dense_len: values.len(),
            indices,
            values: kept,
        }
    }
}

/// A sparsified buffer: surviving values plus their positions.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseUpdate {
    /// Length of the original dense buffer.
    pub dense_len: usize,
    /// Sorted positions of the surviving entries.
    pub indices: Vec<u32>,
    /// Surviving values, aligned with `indices`.
    pub values: Vec<f32>,
}

impl SparseUpdate {
    /// Reconstruct the dense buffer (zeros where dropped).
    pub fn densify(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Bytes of the naive encoding: varint header + raw u32 indices + raw
    /// f32 values — what a sparsification-only pipeline would transmit.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * self.indices.len() + 16);
        varint::write_usize(&mut out, self.dense_len);
        varint::write_usize(&mut out, self.indices.len());
        for &i in &self.indices {
            out.extend_from_slice(&i.to_le_bytes());
        }
        for &v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// FedSZ-as-last-step: delta-varint the indices and compress them
    /// losslessly; compress the value stream with an error-bounded lossy
    /// codec. Decoded with [`SparseUpdate::from_composed_bytes`].
    pub fn to_composed_bytes(
        &self,
        lossy: LossyKind,
        eb: ErrorBound,
        lossless: LosslessKind,
    ) -> Vec<u8> {
        let mut deltas = Vec::with_capacity(self.indices.len() * 2);
        let mut prev = 0u32;
        for &i in &self.indices {
            varint::write_u64(&mut deltas, (i - prev) as u64);
            prev = i;
        }
        let idx_payload = lossless.compress(&deltas);
        let val_payload = lossy.compress(&self.values, eb);

        let mut out = Vec::with_capacity(idx_payload.len() + val_payload.len() + 24);
        varint::write_usize(&mut out, self.dense_len);
        varint::write_usize(&mut out, self.indices.len());
        out.push(lossy.tag());
        out.push(lossless.tag());
        varint::write_usize(&mut out, idx_payload.len());
        out.extend_from_slice(&idx_payload);
        out.extend_from_slice(&val_payload);
        out
    }

    /// Inverse of [`SparseUpdate::to_composed_bytes`].
    pub fn from_composed_bytes(data: &[u8]) -> Result<SparseUpdate, CodecError> {
        let mut pos = 0usize;
        let dense_len = varint::read_usize(data, &mut pos)?;
        // Indices are `u32`, so no encoder writes a longer dense vector.
        if dense_len as u64 > 1 << 32 {
            return Err(CodecError::Corrupt("sparse dense length exceeds u32"));
        }
        let count = varint::read_usize(data, &mut pos)?;
        let lossy = LossyKind::from_tag(reader::read_u8(data, &mut pos)?)?;
        let lossless = LosslessKind::from_tag(reader::read_u8(data, &mut pos)?)?;
        let idx_len = varint::read_usize(data, &mut pos)?;
        let idx_payload = reader::take(data, &mut pos, idx_len)?;
        let deltas = lossless.decompress(idx_payload)?;
        // Every index takes at least one varint byte, so the decoded deltas
        // bound the count: refuse a claim before reserving for it.
        if count > deltas.len() {
            return Err(CodecError::Corrupt("sparse index count exceeds stream"));
        }
        let mut indices = Vec::with_capacity(count);
        let mut dpos = 0usize;
        let mut prev = 0u64;
        for _ in 0..count {
            prev = prev
                .checked_add(varint::read_u64(&deltas, &mut dpos)?)
                .filter(|&i| i < dense_len as u64)
                .ok_or(CodecError::Corrupt("sparse index out of range"))?;
            indices.push(prev as u32);
        }
        let values = lossy.decompress(&data[pos..])?;
        if values.len() != count {
            return Err(CodecError::Corrupt("sparse value count mismatch"));
        }
        Ok(SparseUpdate {
            dense_len,
            indices,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::SplitMix64;

    fn gradients(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.normal_with(0.0, 0.02) as f32).collect()
    }

    #[test]
    fn topk_keeps_the_largest_magnitudes() {
        let values = vec![0.1f32, -5.0, 0.2, 4.0, -0.05, 3.0];
        let sparse = TopK::new(0.5).sparsify(&values);
        assert_eq!(sparse.indices, [1, 3, 5]);
        assert_eq!(sparse.values, [-5.0, 4.0, 3.0]);
        let dense = sparse.densify();
        assert_eq!(dense, [0.0, -5.0, 0.0, 4.0, 0.0, 3.0]);
    }

    #[test]
    fn full_fraction_is_identity() {
        let values = gradients(1000, 1);
        let sparse = TopK::new(1.0).sparsify(&values);
        assert_eq!(sparse.densify(), values);
    }

    #[test]
    fn keep_count_respects_fraction() {
        let values = gradients(1000, 2);
        for frac in [0.01, 0.1, 0.5] {
            let sparse = TopK::new(frac).sparsify(&values);
            assert_eq!(sparse.indices.len(), (1000.0 * frac).ceil() as usize);
        }
    }

    #[test]
    fn composed_encoding_round_trips_within_bound() {
        let values = gradients(50_000, 3);
        let sparse = TopK::new(0.1).sparsify(&values);
        let bytes =
            sparse.to_composed_bytes(LossyKind::Sz2, ErrorBound::Rel(1e-2), LosslessKind::Zstd);
        let back = SparseUpdate::from_composed_bytes(&bytes).unwrap();
        assert_eq!(back.indices, sparse.indices);
        assert_eq!(back.dense_len, sparse.dense_len);
        let bound = 1e-2 * fedsz_eblc::value_range(&sparse.values);
        for (a, b) in sparse.values.iter().zip(&back.values) {
            assert!(((a - b).abs() as f64) <= bound * (1.0 + 1e-6));
        }
    }

    #[test]
    fn composition_beats_naive_sparse_encoding() {
        // The paper's "last-step" claim: FedSZ further compresses a
        // sparsified update.
        let values = gradients(100_000, 4);
        let sparse = TopK::new(0.1).sparsify(&values);
        let naive = sparse.to_bytes().len();
        let composed = sparse
            .to_composed_bytes(LossyKind::Sz2, ErrorBound::Rel(1e-2), LosslessKind::Zstd)
            .len();
        assert!(
            (composed as f64) < 0.7 * naive as f64,
            "composed {composed} vs naive {naive}"
        );
    }

    #[test]
    fn corrupt_composed_stream_rejected() {
        let sparse = TopK::new(0.5).sparsify(&gradients(100, 5));
        let mut bytes =
            sparse.to_composed_bytes(LossyKind::Sz2, ErrorBound::Rel(1e-2), LosslessKind::Zstd);
        bytes.truncate(bytes.len() / 2);
        assert!(SparseUpdate::from_composed_bytes(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn zero_fraction_rejected() {
        TopK::new(0.0);
    }

    #[test]
    fn empty_input_handled() {
        let sparse = TopK::new(0.5).sparsify(&[]);
        assert!(sparse.indices.is_empty());
        assert!(sparse.densify().is_empty());
    }
}
