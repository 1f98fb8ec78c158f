//! The FedSZ compression pipeline (Figure 1 of the paper): partition the
//! state dictionary, compress each partition with the configured lossy /
//! lossless codec, and serialize everything into one self-describing
//! bitstream for transmission.

use std::time::Instant;

use fedsz_eblc::{ErrorBound, LossyKind};
use fedsz_entropy::{reader, varint, CodecError};
use fedsz_lossless::LosslessKind;
use fedsz_tensor::{f32s_to_le_bytes, Entry, StateDict, Tensor, TensorKind};

use crate::partition::{route_of, Route, DEFAULT_THRESHOLD};
use crate::stats::{EntryStats, UpdateStats};

/// Stream magic: "FSZ" + format version 1.
const MAGIC: [u8; 4] = *b"FSZ1";

/// FedSZ configuration. The defaults are the paper's recommendation:
/// SZ2 + blosc-lz at a relative error bound of `1e-2` (§VII-A, §VIII-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedSzConfig {
    /// Lossy compressor for large weight tensors.
    pub lossy: LossyKind,
    /// Lossless compressor for metadata and non-weight tensors.
    pub lossless: LosslessKind,
    /// Error bound applied per lossy tensor.
    pub error_bound: ErrorBound,
    /// Element-count threshold for the partitioning rule (Algorithm 1).
    pub threshold: usize,
}

impl Default for FedSzConfig {
    fn default() -> Self {
        Self {
            lossy: LossyKind::Sz2,
            lossless: LosslessKind::BloscLz,
            error_bound: ErrorBound::Rel(1e-2),
            threshold: DEFAULT_THRESHOLD,
        }
    }
}

impl FedSzConfig {
    /// Paper-recommended config at a custom relative bound.
    pub fn with_rel_bound(rel: f64) -> Self {
        Self {
            error_bound: ErrorBound::Rel(rel),
            ..Self::default()
        }
    }
}

/// A serialized, transmission-ready client update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedUpdate {
    bytes: Vec<u8>,
}

impl CompressedUpdate {
    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Size on the wire.
    pub fn nbytes(&self) -> usize {
        self.bytes.len()
    }

    /// Adopt raw wire bytes (validated on decompression).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Consume into the wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

fn kind_from_tag(tag: u8) -> Result<TensorKind, CodecError> {
    TensorKind::from_tag(tag).ok_or(CodecError::Corrupt("unknown tensor kind tag"))
}

/// Compress a state dict, also returning per-entry statistics.
pub fn compress_with_stats(sd: &StateDict, cfg: &FedSzConfig) -> (CompressedUpdate, UpdateStats) {
    let t0 = Instant::now();

    // Entries are independent and every codec call builds its own scratch,
    // so they are shared out one at a time, largest first, between this
    // thread and whatever helpers the process has to spare; the payloads
    // come back in entry order, so the stream does not depend on how many
    // there were.
    let nbytes = |e: &Entry| e.tensor.nbytes();
    let compressed: Vec<(Route, Vec<u8>)> = rayon::par_map(sd.entries(), nbytes, |e| {
        let route = route_of(&e.name, e.tensor.numel(), cfg.threshold);
        let payload = match route {
            Route::Lossy => cfg.lossy.compress(e.tensor.data(), cfg.error_bound),
            Route::Lossless => cfg.lossless.compress(&f32s_to_le_bytes(e.tensor.data())),
        };
        (route, payload)
    });

    let mut out = Vec::with_capacity(sd.nbytes() / 4 + 256);
    out.extend_from_slice(&MAGIC);
    out.push(cfg.lossy.tag());
    out.push(cfg.lossless.tag());
    varint::write_usize(&mut out, sd.len());

    let mut entries = Vec::with_capacity(sd.len());
    for (e, (route, payload)) in sd.entries().iter().zip(&compressed) {
        varint::write_usize(&mut out, e.name.len());
        out.extend_from_slice(e.name.as_bytes());
        out.push(e.kind.tag());
        varint::write_usize(&mut out, e.tensor.ndim());
        for &d in e.tensor.shape() {
            varint::write_usize(&mut out, d);
        }
        out.push(match route {
            Route::Lossy => 1,
            Route::Lossless => 0,
        });
        varint::write_usize(&mut out, payload.len());
        out.extend_from_slice(payload);

        entries.push(EntryStats {
            name: e.name.clone(),
            route: *route,
            uncompressed: e.tensor.nbytes(),
            compressed: payload.len(),
        });
    }

    let stats = UpdateStats {
        entries,
        total_uncompressed: sd.nbytes(),
        total_compressed: out.len(),
        compress_seconds: t0.elapsed().as_secs_f64(),
        decompress_seconds: 0.0,
    };
    (CompressedUpdate { bytes: out }, stats)
}

/// Compress a state dict under `cfg`.
pub fn compress(sd: &StateDict, cfg: &FedSzConfig) -> CompressedUpdate {
    compress_with_stats(sd, cfg).0
}

struct FrameHeader {
    name: String,
    kind: TensorKind,
    shape: Vec<usize>,
    route: Route,
}

impl FrameHeader {
    /// The decoded size the shape announces, saturating: it sizes nothing,
    /// it only orders the frames and decides whether helpers are worth it.
    fn announced_bytes(&self) -> usize {
        self.shape
            .iter()
            .fold(4, |n: usize, &d| n.saturating_mul(d))
    }
}

/// Decompress an update, also returning timing statistics.
pub fn decompress_with_stats(update: &CompressedUpdate) -> Result<(StateDict, f64), CodecError> {
    let t0 = Instant::now();
    let data = &update.bytes;
    let mut pos = 0usize;
    let magic = reader::take(data, &mut pos, 4)?;
    if magic != MAGIC {
        return Err(CodecError::Corrupt("bad FedSZ magic"));
    }
    let lossy = LossyKind::from_tag(reader::read_u8(data, &mut pos)?)?;
    let lossless = LosslessKind::from_tag(reader::read_u8(data, &mut pos)?)?;
    let n_entries = varint::read_usize(data, &mut pos)?;
    // An entry takes at least five bytes (name length, kind, rank, route,
    // payload length), so the bytes left bound the count: refuse a claim
    // they cannot hold before anything is reserved for it.
    if n_entries > (data.len() - pos) / 5 {
        return Err(CodecError::Corrupt("entry count exceeds stream"));
    }

    // First pass: slice out the frames (cheap).
    let mut frames: Vec<(FrameHeader, &[u8])> = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let name_len = varint::read_usize(data, &mut pos)?;
        // A hostile length can overflow `pos + len`; checked arithmetic turns
        // that into a clean rejection instead of a debug-build panic.
        let name_end = pos
            .checked_add(name_len)
            .ok_or(CodecError::Corrupt("entry name length overflows"))?;
        let name_bytes = data.get(pos..name_end).ok_or(CodecError::UnexpectedEof)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| CodecError::Corrupt("entry name not UTF-8"))?
            .to_owned();
        pos += name_len;
        let kind = kind_from_tag(*data.get(pos).ok_or(CodecError::UnexpectedEof)?)?;
        pos += 1;
        let ndim = varint::read_usize(data, &mut pos)?;
        if ndim > 16 {
            return Err(CodecError::Corrupt("implausible tensor rank"));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(varint::read_usize(data, &mut pos)?);
        }
        let route = match *data.get(pos).ok_or(CodecError::UnexpectedEof)? {
            0 => Route::Lossless,
            1 => Route::Lossy,
            _ => return Err(CodecError::Corrupt("unknown route tag")),
        };
        pos += 1;
        let payload_len = varint::read_usize(data, &mut pos)?;
        let payload_end = pos
            .checked_add(payload_len)
            .ok_or(CodecError::Corrupt("payload length overflows"))?;
        let payload = data
            .get(pos..payload_end)
            .ok_or(CodecError::UnexpectedEof)?;
        pos += payload_len;
        frames.push((
            FrameHeader {
                name,
                kind,
                shape,
                route,
            },
            payload,
        ));
    }

    // Second pass: decode the payloads, shared out like the entries of
    // `compress_with_stats`, by the decoded size each shape announces. The
    // compressed length would not do: a lossless, nearly incompressible
    // 0.6 MB broadcast is as long as a 9 MB update at ratio 15. On a
    // corrupt stream the error is that of the first entry that fails to
    // decode, as in a loop over the frames.
    let announced = |(hdr, _): &(FrameHeader, &[u8])| hdr.announced_bytes();
    let decoded = rayon::try_par_map(&frames, announced, |(hdr, payload)| {
        Ok(match hdr.route {
            Route::Lossy => lossy.decompress(payload)?,
            Route::Lossless => {
                let bytes = lossless.decompress(payload)?;
                // A corrupted frame can decode to a byte count that is
                // not a whole number of f32s; reject instead of panic.
                if !bytes.len().is_multiple_of(4) {
                    return Err(CodecError::Corrupt("lossless payload not f32-aligned"));
                }
                reader::f32s_from_le_bytes(&bytes)
            }
        })
    })?;

    let mut sd = StateDict::new();
    for ((hdr, _), values) in frames.into_iter().zip(decoded) {
        let numel = hdr
            .shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CodecError::Corrupt("tensor shape overflows"))?;
        if numel != values.len() {
            return Err(CodecError::Corrupt("decoded length does not match shape"));
        }
        // A hostile stream can carry two entries with the same name;
        // `StateDict::insert` would panic on that, so use the fallible path.
        sd.try_insert(hdr.name, hdr.kind, Tensor::new(hdr.shape, values))
            .map_err(|_| CodecError::Corrupt("duplicate entry name"))?;
    }
    Ok((sd, t0.elapsed().as_secs_f64()))
}

/// Decompress an update into a state dict.
pub fn decompress(update: &CompressedUpdate) -> Result<StateDict, CodecError> {
    decompress_with_stats(update).map(|(sd, _)| sd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::SplitMix64;

    fn toy_model(seed: u64) -> StateDict {
        let mut rng = SplitMix64::new(seed);
        let mut sd = StateDict::new();
        let w: Vec<f32> = (0..40_000)
            .map(|_| rng.normal_with(0.0, 0.05) as f32)
            .collect();
        sd.insert(
            "conv.weight",
            TensorKind::Weight,
            Tensor::new(vec![100, 400], w),
        );
        let b: Vec<f32> = (0..100)
            .map(|_| rng.normal_with(0.0, 0.01) as f32)
            .collect();
        sd.insert("conv.bias", TensorKind::Bias, Tensor::from_vec(b));
        let g: Vec<f32> = (0..100).map(|_| rng.normal_with(1.0, 0.1) as f32).collect();
        sd.insert("bn.weight", TensorKind::Weight, Tensor::from_vec(g));
        let m: Vec<f32> = (0..100).map(|_| rng.normal_with(0.0, 0.5) as f32).collect();
        sd.insert(
            "bn.running_mean",
            TensorKind::RunningMean,
            Tensor::from_vec(m),
        );
        sd.insert(
            "bn.num_batches_tracked",
            TensorKind::Counter,
            Tensor::from_vec(vec![123.0]),
        );
        sd
    }

    #[test]
    fn round_trip_preserves_structure_and_bounds() {
        let sd = toy_model(1);
        let cfg = FedSzConfig::default();
        let (update, stats) = compress_with_stats(&sd, &cfg);
        let back = decompress(&update).unwrap();

        assert_eq!(back.len(), sd.len());
        // Lossless partition is bit-exact.
        assert_eq!(back.get("conv.bias"), sd.get("conv.bias"));
        assert_eq!(back.get("bn.weight"), sd.get("bn.weight"));
        assert_eq!(back.get("bn.running_mean"), sd.get("bn.running_mean"));
        assert_eq!(
            back.get("bn.num_batches_tracked"),
            sd.get("bn.num_batches_tracked")
        );
        // Lossy partition respects the bound.
        let w = sd.get("conv.weight").unwrap();
        let w2 = back.get("conv.weight").unwrap();
        let range = fedsz_eblc::value_range(w.data());
        assert!(w.max_abs_diff(w2) as f64 <= 1e-2 * range * (1.0 + 1e-6));
        assert!(w.max_abs_diff(w2) > 0.0, "compression should be lossy");

        // Stats bookkeeping adds up.
        assert_eq!(stats.entries.len(), sd.len());
        assert_eq!(stats.total_uncompressed, sd.nbytes());
        assert_eq!(stats.total_compressed, update.nbytes());
        assert!(stats.compression_ratio() > 2.0);
    }

    #[test]
    fn every_codec_combination_round_trips() {
        let sd = toy_model(2);
        for lossy in LossyKind::all() {
            for lossless in [LosslessKind::BloscLz, LosslessKind::Zstd, LosslessKind::Xz] {
                let cfg = FedSzConfig {
                    lossy,
                    lossless,
                    ..FedSzConfig::default()
                };
                let update = compress(&sd, &cfg);
                let back = decompress(&update).unwrap();
                assert_eq!(back.len(), sd.len(), "{lossy:?}/{lossless:?}");
                assert_eq!(back.get("conv.bias"), sd.get("conv.bias"));
            }
        }
    }

    #[test]
    fn names_shapes_kinds_survive() {
        let sd = toy_model(3);
        let back = decompress(&compress(&sd, &FedSzConfig::default())).unwrap();
        for (a, b) in sd.entries().iter().zip(back.entries()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.tensor.shape(), b.tensor.shape());
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let sd = toy_model(4);
        let mut bytes = compress(&sd, &FedSzConfig::default()).into_bytes();
        bytes[0] = b'X';
        assert!(decompress(&CompressedUpdate::from_bytes(bytes)).is_err());
    }

    #[test]
    fn truncated_update_rejected() {
        let sd = toy_model(5);
        let bytes = compress(&sd, &FedSzConfig::default()).into_bytes();
        for cut in [6usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decompress(&CompressedUpdate::from_bytes(bytes[..cut].to_vec())).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn empty_state_dict_round_trips() {
        let sd = StateDict::new();
        let back = decompress(&compress(&sd, &FedSzConfig::default())).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn duplicate_entry_names_rejected_not_panicked() {
        let mut sd = StateDict::new();
        sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![1.0]));
        let bytes = compress(&sd, &FedSzConfig::default()).into_bytes();
        // Header is magic(4) + lossy tag + lossless tag + varint count; for a
        // single entry the count occupies one byte at offset 6. Double the
        // count and splice the entry frame in twice.
        let mut hostile = bytes[..6].to_vec();
        hostile.push(2);
        hostile.extend_from_slice(&bytes[7..]);
        hostile.extend_from_slice(&bytes[7..]);
        let err = decompress(&CompressedUpdate::from_bytes(hostile)).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("duplicate entry name"));
    }

    #[test]
    fn tighter_bound_means_bigger_update() {
        let sd = toy_model(6);
        let loose = compress(&sd, &FedSzConfig::with_rel_bound(1e-1)).nbytes();
        let tight = compress(&sd, &FedSzConfig::with_rel_bound(1e-4)).nbytes();
        assert!(loose < tight, "{loose} vs {tight}");
    }

    #[test]
    fn default_config_is_the_papers_recommendation() {
        let cfg = FedSzConfig::default();
        assert_eq!(cfg.lossy, LossyKind::Sz2);
        assert_eq!(cfg.lossless, LosslessKind::BloscLz);
        assert_eq!(cfg.error_bound, ErrorBound::Rel(1e-2));
    }
}
