//! Tensor, RNG, and statistics substrate shared across the FedSZ workspace.
//!
//! This crate deliberately avoids pulling in a heavyweight ndarray dependency:
//! every consumer in the workspace (compressors, model zoo, training
//! substrate) operates on dense `f32` buffers with a known shape, so a thin
//! [`Tensor`] wrapper plus deterministic sampling utilities is all that is
//! needed.

pub mod rng;
pub mod state_dict;
pub mod stats;
pub mod tensor;

pub use rng::SplitMix64;
pub use state_dict::{DecodeError, Entry, StateDict};
pub use stats::{Histogram, Summary};
pub use tensor::{Tensor, TensorKind};

/// Convert a slice of `f32` into little-endian bytes.
pub fn f32s_to_le_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_byte_round_trip() {
        let vals = [0.0f32, -1.5, 3.25e-7, f32::MAX, f32::MIN_POSITIVE];
        let bytes = f32s_to_le_bytes(&vals);
        assert_eq!(bytes.len(), vals.len() * 4);
        let back: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        assert_eq!(back, vals);
    }
}
