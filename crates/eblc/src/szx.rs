//! SZx analogue: ultra-fast error-bounded compression via constant-block
//! detection plus fixed-point bit packing (Yu et al., HPDC 2022).
//!
//! Two modes:
//!
//! * [`SzxMode::Strict`] — the faithful algorithm. Each block is either
//!   *constant* (its half-range fits inside the bound; store the midpoint)
//!   or *packed* (store the block minimum and `k`-bit fixed-point offsets,
//!   `k` chosen from the block range and the bound). The error bound holds
//!   for every finite value; non-finite blocks are stored raw.
//! * [`SzxMode::Paper`] — replicates the behaviour the FedSZ paper measured
//!   for SZx v1.0.0 (Table I, Fig. 4): the compression ratio is pinned near
//!   4–5 regardless of the error bound and the reconstruction error is large
//!   enough to collapse model accuracy to chance. We emulate that with
//!   byte-aligned truncation that keeps only the top byte of each float
//!   (sign + 7 of 8 exponent bits), which is the kind of aggressive
//!   "block-mean / truncation" storage the authors blame. This mode is
//!   intentionally NOT error-bounded.

use fedsz_entropy::bitio::{BitReader, BitWriter};
use fedsz_entropy::{reader, varint, CodecError};

use crate::stream::{self, raw_stream};
use crate::ErrorBound;

/// Values per block (SZx default block size is 128 floats).
const BLOCK: usize = 128;

const MODE_STRICT: u8 = 1;
const MODE_PAPER: u8 = 2;

/// Block type tags (2 bits each in the strict stream).
const BT_CONST: u64 = 0;
const BT_PACKED: u64 = 1;
const BT_RAW: u64 = 2;

/// Operating mode, see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SzxMode {
    /// Error-bounded (faithful) mode.
    Strict,
    /// Paper-pathology emulation mode (not error-bounded).
    Paper,
}

/// Compress `data` under `eb` in the given mode.
pub fn compress(data: &[f32], eb: ErrorBound, mode: SzxMode) -> Vec<u8> {
    let abs_eb = eb.absolute(data);
    let eb_valid = abs_eb.is_finite() && abs_eb > 0.0;
    if data.is_empty() || !eb_valid {
        return raw_stream(data);
    }
    match mode {
        SzxMode::Strict => compress_strict(data, abs_eb),
        SzxMode::Paper => compress_paper(data, abs_eb),
    }
}

fn compress_strict(data: &[f32], abs_eb: f64) -> Vec<u8> {
    // Reconstructed values are f32, so up to half an ULP of the largest
    // magnitude is lost to final rounding. Shrink the working bound by that
    // margin so the *total* error stays within `abs_eb`; if the bound is
    // below the representable margin, quantization cannot help — store raw.
    let gmax = data
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f64, |m, &v| m.max(v.abs() as f64));
    let eff_eb = abs_eb - (gmax + abs_eb) * f32::EPSILON as f64;
    if eff_eb <= 0.0 {
        return raw_stream(data);
    }
    let bin = 2.0 * eff_eb;

    let mut out = Vec::with_capacity(data.len() + 16);
    out.push(MODE_STRICT);
    varint::write_usize(&mut out, data.len());
    // The stored bound is the *effective* one: the decoder derives the same
    // bin width from it.
    out.extend_from_slice(&eff_eb.to_le_bytes());

    let mut w = BitWriter::with_capacity(data.len());
    // Per-block scratch for the dispatched offset-packing kernel.
    let mut code_buf = [0u32; BLOCK];
    for block in data.chunks(BLOCK) {
        // Dispatched min/max scan; `None` means a non-finite member. A ±0.0
        // minimum is canonicalised to +0.0, which only affects the sign bit
        // of the stored block minimum, never a reconstructed magnitude.
        let Some((min, max)) = fedsz_simd::minmax_finite(block) else {
            w.write_bits(BT_RAW, 2);
            for &v in block {
                w.write_u32(v.to_bits());
            }
            continue;
        };
        let range = max as f64 - min as f64;
        if range <= bin {
            // Constant block: the midpoint is within eb of every value.
            w.write_bits(BT_CONST, 2);
            let mid = (min as f64 + range * 0.5) as f32;
            w.write_u32(mid.to_bits());
            continue;
        }
        // Packed block: k-bit offsets from the block minimum.
        let max_code = (range / bin).ceil() as u64 + 1;
        let k = 64 - max_code.leading_zeros();
        if k >= 32 {
            // Bound too tight relative to the range: store raw.
            w.write_bits(BT_RAW, 2);
            for &v in block {
                w.write_u32(v.to_bits());
            }
            continue;
        }
        w.write_bits(BT_PACKED, 2);
        w.write_u32(min.to_bits());
        w.write_bits(k as u64, 6);
        let codes = &mut code_buf[..block.len()];
        fedsz_simd::pack_offsets(block, min as f64, bin, codes);
        for &code in codes.iter() {
            debug_assert!(code >> k == 0);
            w.write_bits(code as u64, k);
        }
    }
    out.extend_from_slice(&w.finish());
    out
}

fn compress_paper(data: &[f32], abs_eb: f64) -> Vec<u8> {
    let bin = 2.0 * abs_eb;
    let mut out = Vec::with_capacity(data.len() + 16);
    out.push(MODE_PAPER);
    varint::write_usize(&mut out, data.len());
    out.extend_from_slice(&abs_eb.to_le_bytes());

    let mut w = BitWriter::with_capacity(data.len());
    for block in data.chunks(BLOCK) {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in block {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        let range = if min <= max {
            (max - min) as f64
        } else {
            f64::INFINITY
        };
        if range <= bin {
            w.write_bit(true);
            let mid = min + (max - min) * 0.5;
            w.write_u32(mid.to_bits());
        } else {
            // Byte-aligned truncation: keep only the top byte of each float
            // (sign bit + 7 exponent bits). Loses the exponent LSB and the
            // entire mantissa — unbounded relative error, as observed.
            w.write_bit(false);
            for &v in block {
                w.write_bits((v.to_bits() >> 24) as u64, 8);
            }
        }
    }
    out.extend_from_slice(&w.finish());
    out
}

/// Decompress a [`compress`] stream (either mode).
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
    let (&mode, rest) = bytes.split_first().ok_or(CodecError::UnexpectedEof)?;
    let mut pos = 0usize;
    match mode {
        stream::MODE_RAW => stream::read_raw(rest),
        MODE_STRICT => {
            let n = varint::read_usize(rest, &mut pos)?;
            // A block of up to BLOCK elements costs at least one header
            // bit, so L bytes bound the element count; reject bombs
            // before `with_capacity(n)`.
            if n > rest.len().saturating_mul(8).saturating_mul(BLOCK) {
                return Err(CodecError::Corrupt("SZx element count exceeds stream"));
            }
            let abs_eb = reader::read_f64_le(rest, &mut pos)?;
            if !(abs_eb.is_finite() && abs_eb > 0.0) {
                return Err(CodecError::Corrupt("invalid SZx bound"));
            }
            let bin = 2.0 * abs_eb;
            let mut r = BitReader::new(&rest[pos..]);
            let mut out = Vec::with_capacity(n);
            let mut code_buf = [0u32; BLOCK];
            while out.len() < n {
                let m = (n - out.len()).min(BLOCK);
                match r.read_bits(2)? {
                    BT_CONST => {
                        let v = f32::from_bits(r.read_u32()?);
                        out.extend(std::iter::repeat_n(v, m));
                    }
                    BT_PACKED => {
                        let min = f32::from_bits(r.read_u32()?);
                        let k = r.read_bits(6)? as u32;
                        if k >= 32 {
                            return Err(CodecError::Corrupt("SZx pack width"));
                        }
                        let codes = &mut code_buf[..m];
                        for c in codes.iter_mut() {
                            *c = r.read_bits(k)? as u32;
                        }
                        let start = out.len();
                        out.resize(start + m, 0.0);
                        fedsz_simd::unpack_offsets(codes, min as f64, bin, &mut out[start..]);
                    }
                    BT_RAW => {
                        for _ in 0..m {
                            out.push(f32::from_bits(r.read_u32()?));
                        }
                    }
                    _ => return Err(CodecError::Corrupt("SZx block tag")),
                }
            }
            Ok(out)
        }
        MODE_PAPER => {
            let n = varint::read_usize(rest, &mut pos)?;
            if n > rest.len().saturating_mul(8).saturating_mul(BLOCK) {
                return Err(CodecError::Corrupt("SZx element count exceeds stream"));
            }
            reader::take(rest, &mut pos, 8)?; // stored bound, unused on decode
            let mut r = BitReader::new(&rest[pos..]);
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let m = (n - out.len()).min(BLOCK);
                if r.read_bit()? {
                    let v = f32::from_bits(r.read_u32()?);
                    out.extend(std::iter::repeat_n(v, m));
                } else {
                    for _ in 0..m {
                        let top = r.read_bits(8)? as u32;
                        // Reinstate the top byte; centre the lost bits.
                        out.push(f32::from_bits((top << 24) | 0x0040_0000));
                    }
                }
            }
            Ok(out)
        }
        _ => Err(CodecError::Corrupt("unknown SZx mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value_range;

    fn mixed(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let base = ((i / 500) as f32) * 0.1; // piecewise constant-ish
                let wiggle = ((i as f32) * 0.37).sin() * 0.01;
                base + wiggle
            })
            .collect()
    }

    #[test]
    fn strict_mode_respects_bound() {
        let data = mixed(10_000);
        let range = value_range(&data);
        for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
            let c = compress(&data, ErrorBound::Rel(rel), SzxMode::Strict);
            let d = decompress(&c).unwrap();
            assert_eq!(d.len(), data.len());
            let abs = rel * range;
            for (a, b) in data.iter().zip(&d) {
                assert!(
                    ((a - b).abs() as f64) <= abs * (1.0 + 1e-6),
                    "{a} vs {b} @ rel {rel}"
                );
            }
        }
    }

    #[test]
    fn constant_blocks_compress_hard() {
        let data = [[1.0f32; 500], [2.0f32; 500]].concat();
        let c = compress(&data, ErrorBound::Abs(0.01), SzxMode::Strict);
        // Two plateaus => nearly all blocks constant (~4 bytes per 128
        // values), except the one packed block straddling the step.
        assert!(c.len() < 250, "constant plateaus compressed to {}", c.len());
        let d = decompress(&c).unwrap();
        for (a, b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 0.01);
        }
    }

    #[test]
    fn non_finite_blocks_stored_raw() {
        let mut data = mixed(1000);
        data[130] = f32::NAN;
        data[140] = f32::INFINITY;
        let c = compress(&data, ErrorBound::Abs(0.001), SzxMode::Strict);
        let d = decompress(&c).unwrap();
        assert!(d[130].is_nan());
        assert_eq!(d[140], f32::INFINITY);
        // The raw block is bit-exact for every member (NaN-safe comparison).
        for (a, b) in data[128..256].iter().zip(&d[128..256]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn paper_mode_error_is_large() {
        let data: Vec<f32> = (0..5000)
            .map(|i| ((i as f32) * 0.11).sin() * 0.05)
            .collect();
        let c = compress(&data, ErrorBound::Rel(1e-2), SzxMode::Paper);
        let d = decompress(&c).unwrap();
        let range = value_range(&data);
        let max_err = data
            .iter()
            .zip(&d)
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        // The bound asked for 1e-2 * range; paper mode blows far through it.
        assert!(
            max_err > 5.0 * 1e-2 * range,
            "paper mode unexpectedly accurate: {max_err} vs bound {}",
            1e-2 * range
        );
    }

    #[test]
    fn paper_mode_ratio_independent_of_bound() {
        let data: Vec<f32> = (0..50_000)
            .map(|i| ((i as f32) * 1.7).sin() * 0.3)
            .collect();
        let sizes: Vec<usize> = [1e-2, 1e-3, 1e-4]
            .iter()
            .map(|&rel| compress(&data, ErrorBound::Rel(rel), SzxMode::Paper).len())
            .collect();
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(sizes[1], sizes[2]);
    }

    #[test]
    fn strict_is_much_smaller_on_tight_ranges() {
        // Narrow-range data with a loose bound: k is tiny, so packed blocks
        // beat a byte per value.
        let data: Vec<f32> = (0..10_000)
            .map(|i| 0.5 + ((i as f32) * 0.01).sin() * 0.001)
            .collect();
        let strict = compress(&data, ErrorBound::Abs(0.0005), SzxMode::Strict);
        assert!(strict.len() < data.len(), "{}", strict.len()); // < 1 byte/value
        let d = decompress(&strict).unwrap();
        for (a, b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 0.0005 * 1.001);
        }
    }

    #[test]
    fn partial_trailing_block() {
        for n in [1usize, 127, 128, 129, 300] {
            let data = mixed(n);
            for mode in [SzxMode::Strict, SzxMode::Paper] {
                let c = compress(&data, ErrorBound::Rel(1e-2), mode);
                assert_eq!(decompress(&c).unwrap().len(), n, "n={n} {mode:?}");
            }
        }
    }
}
