//! Ordered model state dictionary — the unit FedSZ compresses.
//!
//! Mirrors PyTorch's `state_dict()`: an insertion-ordered map from parameter
//! name to tensor, where the name encodes the tensor's role
//! (`features.0.weight`, `bn1.running_mean`, ...). Order is significant:
//! FedSZ serializes and aggregates entries positionally.

use crate::tensor::{Tensor, TensorKind};

/// Why raw state-dict bytes could not be decoded.
///
/// Every failure mode of [`StateDict::from_bytes`] is a value of this type:
/// hostile or truncated input must never panic, however it was damaged.
#[derive(Debug, Clone, PartialEq, Eq)]
// fedsz-lint: allow(dead-pub) -- returned by `StateDict::from_bytes`, which fl, the CLI and the benchmark call
pub enum DecodeError {
    /// The input ended before the advertised structure was complete.
    Truncated,
    /// A structurally invalid field (hostile length, bad tag, non-UTF-8
    /// name, duplicate entry, trailing bytes, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "state dict bytes truncated"),
            DecodeError::Corrupt(m) => write!(f, "corrupt state dict bytes: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Longest entry name the raw format accepts; a hostile length above this
/// is rejected before any allocation happens.
const MAX_NAME_LEN: usize = 4096;
/// Highest tensor rank the raw format accepts (mirrors the FedSZ stream).
const MAX_NDIM: usize = 16;

/// One named entry of a state dictionary.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// PyTorch-style dotted parameter name.
    pub name: String,
    /// Role of the tensor.
    pub kind: TensorKind,
    /// The values.
    pub tensor: Tensor,
}

/// Insertion-ordered collection of named tensors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    entries: Vec<Entry>,
}

impl StateDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry.
    ///
    /// # Panics
    /// Panics if the name is already present.
    pub fn insert(&mut self, name: impl Into<String>, kind: TensorKind, tensor: Tensor) {
        self.try_insert(name, kind, tensor)
            .unwrap_or_else(|name| panic!("duplicate state-dict entry {name:?}"));
    }

    /// Append an entry, rejecting a duplicate name instead of panicking —
    /// the insert decoders of untrusted bytes must use, so a hostile stream
    /// naming the same entry twice is an error, not a crash.
    ///
    /// On conflict the offending name is returned and the dictionary is
    /// unchanged.
    pub fn try_insert(
        &mut self,
        name: impl Into<String>,
        kind: TensorKind,
        tensor: Tensor,
    ) -> Result<(), String> {
        let name = name.into();
        if self.get(&name).is_some() {
            return Err(name);
        }
        self.entries.push(Entry { name, kind, tensor });
        Ok(())
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Mutable entries in insertion order.
    pub fn entries_mut(&mut self) -> &mut [Entry] {
        &mut self.entries
    }

    /// Look up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.tensor)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.entries.iter().map(|e| e.tensor.numel()).sum()
    }

    /// Total size in bytes as uncompressed `f32`.
    pub fn nbytes(&self) -> usize {
        self.num_params() * 4
    }

    /// Zero-filled clone with the same structure.
    pub fn zeros_like(&self) -> StateDict {
        StateDict {
            entries: self
                .entries
                .iter()
                .map(|e| Entry {
                    name: e.name.clone(),
                    kind: e.kind,
                    tensor: Tensor::zeros(e.tensor.shape().to_vec()),
                })
                .collect(),
        }
    }

    /// Serialize into the raw fixed-width layout consumed by
    /// [`StateDict::from_bytes`] — the exact (bit-preserving) encoding the
    /// FL checkpoint format embeds. Unlike the FedSZ update stream this
    /// applies no compression: every `f32` is stored as its little-endian
    /// bits, so NaNs and denormals survive a round trip unchanged.
    ///
    /// Layout: `u32 n_entries`, then per entry `u32 name_len + UTF-8 name`,
    /// `u8 kind tag`, `u8 ndim`, `ndim × u64 dims`, `numel × f32` data, all
    /// little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.nbytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&(e.name.len() as u32).to_le_bytes());
            out.extend_from_slice(e.name.as_bytes());
            out.push(e.kind.tag());
            out.push(e.tensor.ndim() as u8);
            for &d in e.tensor.shape() {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for v in e.tensor.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decode the raw layout written by [`StateDict::to_bytes`].
    ///
    /// Every length is bounds-checked against the remaining input before
    /// use and element counts are computed with checked arithmetic, so
    /// truncated, oversized, or bit-flipped bytes yield a [`DecodeError`] —
    /// never a panic and never an attacker-controlled allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<StateDict, DecodeError> {
        let mut pos = 0usize;
        let n_entries = read_u32(bytes, &mut pos)? as usize;
        let mut sd = StateDict::new();
        for _ in 0..n_entries {
            let name_len = read_u32(bytes, &mut pos)? as usize;
            if name_len > MAX_NAME_LEN {
                return Err(DecodeError::Corrupt("entry name implausibly long"));
            }
            let name_bytes = take(bytes, &mut pos, name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| DecodeError::Corrupt("entry name not UTF-8"))?
                .to_owned();
            let kind = TensorKind::from_tag(read_u8(bytes, &mut pos)?)
                .ok_or(DecodeError::Corrupt("unknown tensor kind tag"))?;
            let ndim = read_u8(bytes, &mut pos)? as usize;
            if ndim > MAX_NDIM {
                return Err(DecodeError::Corrupt("implausible tensor rank"));
            }
            let mut shape = Vec::with_capacity(ndim);
            let mut numel = 1usize;
            for _ in 0..ndim {
                let d = read_u64(bytes, &mut pos)?;
                let d = usize::try_from(d)
                    .map_err(|_| DecodeError::Corrupt("tensor dimension overflows"))?;
                numel = numel
                    .checked_mul(d)
                    .ok_or(DecodeError::Corrupt("tensor shape overflows"))?;
                shape.push(d);
            }
            let nbytes = numel
                .checked_mul(4)
                .ok_or(DecodeError::Corrupt("tensor byte size overflows"))?;
            let data_bytes = take(bytes, &mut pos, nbytes)?;
            let data: Vec<f32> = data_bytes
                .chunks_exact(4)
                .map(|c| match c {
                    &[a, b, c, d] => f32::from_le_bytes([a, b, c, d]),
                    _ => 0.0,
                })
                .collect();
            sd.try_insert(name, kind, Tensor::new(shape, data))
                .map_err(|_| DecodeError::Corrupt("duplicate entry name"))?;
        }
        if pos != bytes.len() {
            return Err(DecodeError::Corrupt("trailing bytes after state dict"));
        }
        Ok(sd)
    }

    /// Maximum absolute element-wise difference to another dict with the same
    /// structure.
    pub fn max_abs_diff(&self, other: &StateDict) -> f32 {
        assert_eq!(self.len(), other.len(), "state-dict structure mismatch");
        self.entries
            .iter()
            .zip(&other.entries)
            .map(|(a, b)| a.tensor.max_abs_diff(&b.tensor))
            .fold(0.0, f32::max)
    }
}

/// Slice `n` bytes out of `bytes` at `*pos`, failing on truncation. The
/// bound check happens before anything is materialized, so a hostile length
/// can never drive an allocation larger than the input itself.
fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], DecodeError> {
    let end = pos.checked_add(n).ok_or(DecodeError::Truncated)?;
    let out = bytes.get(*pos..end).ok_or(DecodeError::Truncated)?;
    *pos = end;
    Ok(out)
}

fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, DecodeError> {
    Ok(take(bytes, pos, 1)?[0])
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    match take(bytes, pos, 4)? {
        &[a, b, c, d] => Ok(u32::from_le_bytes([a, b, c, d])),
        _ => Err(DecodeError::Truncated),
    }
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    match take(bytes, pos, 8)? {
        &[a, b, c, d, e, f, g, h] => Ok(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
        _ => Err(DecodeError::Truncated),
    }
}

impl FromIterator<Entry> for StateDict {
    fn from_iter<T: IntoIterator<Item = Entry>>(iter: T) -> Self {
        let mut sd = StateDict::new();
        for e in iter {
            sd.insert(e.name, e.kind, e.tensor);
        }
        sd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "conv.weight",
            TensorKind::Weight,
            Tensor::new(vec![2, 3], vec![1.0; 6]),
        );
        sd.insert(
            "conv.bias",
            TensorKind::Bias,
            Tensor::from_vec(vec![0.5, 0.5]),
        );
        sd
    }

    #[test]
    fn insert_and_lookup() {
        let sd = sample();
        assert_eq!(sd.len(), 2);
        assert_eq!(sd.num_params(), 8);
        assert_eq!(sd.nbytes(), 32);
        assert_eq!(sd.get("conv.bias").unwrap().numel(), 2);
        assert!(sd.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let mut sd = sample();
        sd.insert(
            "conv.weight",
            TensorKind::Weight,
            Tensor::from_vec(vec![1.0]),
        );
    }

    #[test]
    fn order_is_preserved() {
        let sd = sample();
        let names: Vec<&str> = sd.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["conv.weight", "conv.bias"]);
    }

    #[test]
    fn zeros_like_matches_structure() {
        let z = sample().zeros_like();
        assert_eq!(z.len(), 2);
        assert!(z
            .get("conv.weight")
            .unwrap()
            .data()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn try_insert_rejects_duplicates_without_panicking() {
        let mut sd = sample();
        let err = sd
            .try_insert(
                "conv.weight",
                TensorKind::Weight,
                Tensor::from_vec(vec![1.0]),
            )
            .unwrap_err();
        assert_eq!(err, "conv.weight");
        assert_eq!(sd.len(), 2, "failed insert must leave the dict unchanged");
    }

    #[test]
    fn raw_bytes_round_trip_is_bit_exact() {
        let mut sd = sample();
        // NaN and denormal payloads must survive: the checkpoint format
        // relies on this encoding being bit-preserving.
        sd.insert(
            "weird.weight",
            TensorKind::Weight,
            Tensor::from_vec(vec![f32::NAN, f32::MIN_POSITIVE, -0.0, f32::INFINITY]),
        );
        let back = StateDict::from_bytes(&sd.to_bytes()).unwrap();
        assert_eq!(back.len(), sd.len());
        for (a, b) in sd.entries().iter().zip(back.entries()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.tensor.shape(), b.tensor.shape());
            let bits_a: Vec<u32> = a.tensor.data().iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u32> = b.tensor.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
    }

    #[test]
    fn empty_dict_round_trips() {
        let sd = StateDict::new();
        assert!(StateDict::from_bytes(&sd.to_bytes()).unwrap().is_empty());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                StateDict::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn hostile_lengths_and_tags_are_rejected() {
        // Hostile entry count: claims entries the buffer does not hold.
        let mut bytes = sample().to_bytes();
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(StateDict::from_bytes(&bytes).is_err());

        // Hostile name length.
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(StateDict::from_bytes(&bytes).is_err());

        // Unknown kind tag (byte right after the first name).
        let mut bytes = sample().to_bytes();
        let kind_at = 8 + "conv.weight".len();
        bytes[kind_at] = 99;
        assert!(StateDict::from_bytes(&bytes).is_err());

        // Trailing garbage after a valid dict.
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            StateDict::from_bytes(&bytes),
            Err(DecodeError::Corrupt("trailing bytes after state dict"))
        );
    }

    #[test]
    fn duplicate_entries_in_bytes_are_an_error_not_a_panic() {
        let mut one = StateDict::new();
        one.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![1.0]));
        let encoded = one.to_bytes();
        // Splice the same entry in twice under a doubled count.
        let mut twice = Vec::new();
        twice.extend_from_slice(&2u32.to_le_bytes());
        twice.extend_from_slice(&encoded[4..]);
        twice.extend_from_slice(&encoded[4..]);
        assert_eq!(
            StateDict::from_bytes(&twice),
            Err(DecodeError::Corrupt("duplicate entry name"))
        );
    }

    #[test]
    fn max_abs_diff_works() {
        let a = sample();
        let mut b = sample();
        b.entries_mut()[1].tensor.data_mut()[0] = 1.5;
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
