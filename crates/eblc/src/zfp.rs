//! ZFP analogue (Lindstrom 2014) for 1-D `f32` streams, fixed-precision mode.
//!
//! Pipeline per 4-value block: block-floating-point normalization to signed
//! fixed point, ZFP's orthogonal lifting transform, negabinary mapping, and
//! bit-plane coding from the most significant plane down, keeping a fixed
//! number of planes (the *precision*). The paper uses fixed-precision mode
//! as the closest analogue of a relative bound (§V-D1); precision is derived
//! here as `ceil(log2(1/rel))`.
//!
//! Fixed-precision ZFP does not guarantee a pointwise error bound — and on
//! spiky 1-D data the decorrelating transform buys little, which is exactly
//! why the paper measures ZFP's compression ratios trailing SZ2/SZ3
//! (Table I).

use fedsz_entropy::bitio::{BitReader, BitWriter};
use fedsz_entropy::{reader, varint, CodecError};

use crate::stream::{self, raw_stream};
use crate::{value_range, ErrorBound};

const MODE_NORMAL: u8 = 1;

/// Fixed-point fraction bits for block normalization (leaves i32 headroom
/// for the transform's range expansion).
const FRAC_BITS: i32 = 27;
/// Highest encoded bit plane.
const TOP_PLANE: i32 = 29;

/// Block type tags (2 bits).
const BT_ZERO: u64 = 0;
const BT_NORMAL: u64 = 1;
const BT_RAW: u64 = 2;

/// Negabinary conversion mask.
const NBMASK: u32 = 0xAAAA_AAAA;

#[inline]
fn int2uint(x: i32) -> u32 {
    ((x as u32).wrapping_add(NBMASK)) ^ NBMASK
}

#[inline]
fn uint2int(u: u32) -> i32 {
    ((u ^ NBMASK).wrapping_sub(NBMASK)) as i32
}

/// ZFP's 1-D forward lifting transform on a 4-vector.
#[inline]
fn fwd_lift(v: &mut [i32; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    *v = [x, y, z, w];
}

/// Inverse of [`fwd_lift`] (exact up to the lifting shifts' LSB rounding,
/// which the bit-plane truncation dominates anyway).
#[inline]
fn inv_lift(v: &mut [i32; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w <<= 1;
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z <<= 1;
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(w);
    *v = [x, y, z, w];
}

/// Biased exponent of |v| (f32), with denormals flattened to the minimum.
#[inline]
fn exponent_of(v: f32) -> i32 {
    let e = ((v.to_bits() >> 23) & 0xFF) as i32;
    if e == 0 {
        -126
    } else {
        e - 127
    }
}

/// Derive the bit-plane precision from the requested bound.
pub(crate) fn precision_for(eb: ErrorBound, data: &[f32]) -> u32 {
    let rel = match eb {
        ErrorBound::Rel(r) => r,
        ErrorBound::Abs(a) => {
            let range = value_range(data);
            if range > 0.0 {
                a / range
            } else {
                1e-7
            }
        }
    };
    if !(rel.is_finite() && rel > 0.0) {
        return 30;
    }
    ((1.0 / rel).log2().ceil() as i64).clamp(2, 28) as u32
}

fn encode_block(vals: &[f32; 4], planes: u32, w: &mut BitWriter) {
    if vals.iter().any(|v| !v.is_finite()) {
        w.write_bits(BT_RAW, 2);
        for v in vals {
            w.write_u32(v.to_bits());
        }
        return;
    }
    let mut emax = i32::MIN;
    let mut all_zero = true;
    for &v in vals {
        if v != 0.0 {
            all_zero = false;
            emax = emax.max(exponent_of(v));
        }
    }
    if all_zero {
        w.write_bits(BT_ZERO, 2);
        return;
    }
    w.write_bits(BT_NORMAL, 2);
    w.write_bits((emax + 127) as u64, 8);

    // Block-floating-point: scale so the largest magnitude sits near 2^FRAC_BITS.
    let scale = (FRAC_BITS - emax - 1) as f64;
    let factor = scale.exp2();
    let mut q = [0i32; 4];
    for (qi, &v) in q.iter_mut().zip(vals) {
        *qi = (v as f64 * factor).round() as i32;
    }
    fwd_lift(&mut q);
    let u: Vec<u32> = q.iter().map(|&x| int2uint(x)).collect();

    let bottom = (TOP_PLANE - planes as i32 + 1).max(0);
    for plane in (bottom..=TOP_PLANE).rev() {
        let bits4 = u.iter().enumerate().fold(0u64, |acc, (i, &x)| {
            acc | ((((x >> plane) & 1) as u64) << i)
        });
        if bits4 == 0 {
            w.write_bit(false);
        } else {
            w.write_bit(true);
            w.write_bits(bits4, 4);
        }
    }
}

fn decode_block(planes: u32, r: &mut BitReader<'_>) -> Result<[f32; 4], CodecError> {
    match r.read_bits(2)? {
        BT_ZERO => Ok([0.0; 4]),
        BT_RAW => {
            let mut out = [0.0f32; 4];
            for o in &mut out {
                *o = f32::from_bits(r.read_u32()?);
            }
            Ok(out)
        }
        BT_NORMAL => {
            let emax = r.read_bits(8)? as i32 - 127;
            let mut u = [0u32; 4];
            let bottom = (TOP_PLANE - planes as i32 + 1).max(0);
            for plane in (bottom..=TOP_PLANE).rev() {
                if r.read_bit()? {
                    let bits4 = r.read_bits(4)?;
                    for (i, ui) in u.iter_mut().enumerate() {
                        *ui |= (((bits4 >> i) & 1) as u32) << plane;
                    }
                }
            }
            let mut q = [0i32; 4];
            for (qi, &ui) in q.iter_mut().zip(&u) {
                *qi = uint2int(ui);
            }
            inv_lift(&mut q);
            let scale = (FRAC_BITS - emax - 1) as f64;
            let factor = (-scale).exp2();
            let mut out = [0.0f32; 4];
            for (o, &qi) in out.iter_mut().zip(&q) {
                *o = (qi as f64 * factor) as f32;
            }
            Ok(out)
        }
        _ => Err(CodecError::Corrupt("ZFP block tag")),
    }
}

/// Compress `data` at the precision implied by `eb`.
pub fn compress(data: &[f32], eb: ErrorBound) -> Vec<u8> {
    if data.is_empty() {
        return raw_stream(data);
    }
    let planes = precision_for(eb, data);

    // Each chunk of blocks is bit-packed independently and framed with its
    // byte length, so chunks concatenate cleanly and can be shared out
    // between threads. That serves a single large stream; inside the
    // per-tensor pipeline the helper budget is spent and this is a loop.
    const BLOCKS_PER_CHUNK: usize = 4096;
    let chunks: Vec<&[f32]> = data.chunks(BLOCKS_PER_CHUNK * 4).collect();
    let nbytes = |chunk: &&[f32]| chunk.len() * 4;
    let chunk_payloads = rayon::par_map(&chunks, nbytes, |chunk| {
        let mut w = BitWriter::with_capacity(chunk.len());
        for block in chunk.chunks(4) {
            let mut vals = [0.0f32; 4];
            vals[..block.len()].copy_from_slice(block);
            encode_block(&vals, planes, &mut w);
        }
        w.finish()
    });

    let mut out = Vec::with_capacity(data.len() + 16);
    out.push(MODE_NORMAL);
    varint::write_usize(&mut out, data.len());
    out.push(planes as u8);
    for p in &chunk_payloads {
        varint::write_usize(&mut out, p.len());
        out.extend_from_slice(p);
    }
    stream::unless_raw_is_smaller(out, data)
}

/// Decompress a [`compress`] stream.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
    let (&mode, rest) = bytes.split_first().ok_or(CodecError::UnexpectedEof)?;
    let mut pos = 0usize;
    match mode {
        stream::MODE_RAW => stream::read_raw(rest),
        MODE_NORMAL => {
            let n = varint::read_usize(rest, &mut pos)?;
            // A block of 4 values costs at least one bit, so L bytes bound
            // the element count; reject bombs before `with_capacity(n)`.
            if n > rest.len().saturating_mul(32) {
                return Err(CodecError::Corrupt("ZFP element count exceeds stream"));
            }
            let planes = reader::read_u8(rest, &mut pos)? as u32;
            if planes == 0 || planes > 30 {
                return Err(CodecError::Corrupt("ZFP precision out of range"));
            }
            const BLOCKS_PER_CHUNK: usize = 4096;
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let chunk_len = varint::read_usize(rest, &mut pos)?;
                let chunk = reader::take(rest, &mut pos, chunk_len)?;
                let mut r = BitReader::new(chunk);
                let chunk_values = (n - out.len()).min(BLOCKS_PER_CHUNK * 4);
                let mut produced = 0usize;
                while produced < chunk_values {
                    let vals = decode_block(planes, &mut r)?;
                    let take = (chunk_values - produced).min(4);
                    out.extend_from_slice(&vals[..take]);
                    produced += take;
                }
            }
            Ok(out)
        }
        _ => Err(CodecError::Corrupt("unknown ZFP mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_inverse_is_near_exact() {
        let mut state = 123u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let orig = [
                (state as i32) >> 6,
                ((state >> 16) as i32) >> 6,
                ((state >> 32) as i32) >> 6,
                ((state >> 48) as i32) >> 6,
            ];
            let mut v = orig;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            for (a, b) in orig.iter().zip(&v) {
                assert!((a - b).abs() <= 4, "{orig:?} -> {v:?}");
            }
        }
    }

    #[test]
    fn negabinary_round_trips() {
        for x in [-1000i32, -1, 0, 1, 12345, i32::MAX / 4, i32::MIN / 4] {
            assert_eq!(uint2int(int2uint(x)), x);
        }
    }

    #[test]
    fn precision_mapping_matches_paper_bounds() {
        let data = [0.0f32, 1.0];
        assert_eq!(precision_for(ErrorBound::Rel(1e-2), &data), 7);
        assert_eq!(precision_for(ErrorBound::Rel(1e-3), &data), 10);
        assert_eq!(precision_for(ErrorBound::Rel(1e-4), &data), 14);
    }

    fn relative_max_err(data: &[f32], rel: f64) -> f64 {
        let c = compress(data, ErrorBound::Rel(rel));
        let d = decompress(&c).unwrap();
        assert_eq!(d.len(), data.len());
        let range = value_range(data);
        data.iter()
            .zip(&d)
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max)
            / range
    }

    #[test]
    fn error_tracks_precision() {
        let data: Vec<f32> = (0..10_000)
            .map(|i| ((i as f32) * 0.013).sin() * 0.4)
            .collect();
        // Fixed-precision mode: no hard guarantee, but the error must track
        // the requested relative bound within a small constant factor.
        for rel in [1e-2, 1e-3, 1e-4] {
            let e = relative_max_err(&data, rel);
            assert!(e < 16.0 * rel, "rel {rel}: observed {e}");
        }
    }

    #[test]
    fn tighter_precision_costs_more() {
        let data: Vec<f32> = (0..50_000)
            .map(|i| ((i as f32) * 0.37).sin() * 0.2)
            .collect();
        let a = compress(&data, ErrorBound::Rel(1e-2)).len();
        let b = compress(&data, ErrorBound::Rel(1e-3)).len();
        let c = compress(&data, ErrorBound::Rel(1e-4)).len();
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn zero_blocks_are_two_bits() {
        let data = vec![0.0f32; 40_000];
        let c = compress(&data, ErrorBound::Rel(1e-3));
        assert!(c.len() < 40_000 / 4, "{}", c.len());
        assert!(decompress(&c).unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn non_finite_blocks_raw() {
        let mut data = vec![0.5f32; 100];
        data[50] = f32::NAN;
        let c = compress(&data, ErrorBound::Rel(1e-3));
        let d = decompress(&c).unwrap();
        assert!(d[50].is_nan());
        assert_eq!(d[48], data[48]); // same raw block
    }

    #[test]
    fn trailing_partial_block() {
        for n in [1usize, 2, 3, 5, 4095, 4097, 16_385] {
            let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).cos()).collect();
            let c = compress(&data, ErrorBound::Rel(1e-3));
            assert_eq!(decompress(&c).unwrap().len(), n, "n={n}");
        }
    }
}
