//! SZ3 analogue: multi-level spline-interpolation prediction (Zhao et al.
//! 2021), error-bounded quantization, Huffman coding, Zstd-analogue backend.
//!
//! The array is processed in chunks. Within a chunk, values are visited
//! level by level: at stride `s`, points at odd multiples of `s` are
//! predicted by linear or cubic interpolation of already-reconstructed
//! points at multiples of `2s`. Each level picks the interpolant that fits
//! better, mirroring SZ3's dynamic predictor selection (and accounting for
//! its lower throughput relative to SZ2 — the extra passes and stencil work
//! are the price Table I measures).

use fedsz_entropy::bitio::{BitReader, BitWriter};
use fedsz_entropy::huffman::{HuffmanDecoder, HuffmanEncoder};
use fedsz_entropy::{reader, varint, CodecError};

use crate::quantizer::{Quantizer, NUM_CODES};
use crate::ErrorBound;

/// Interpolation chunk size (power of two).
const CHUNK: usize = 4096;
/// Maximum interpolation levels per chunk (2^12 = 4096).
const MAX_LEVELS: usize = 12;

const MODE_RAW: u8 = 0;
const MODE_NORMAL: u8 = 1;

/// Descending strides for a chunk of length `m`.
fn strides(m: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut s = 1usize;
    while s < m {
        out.push(s);
        s *= 2;
    }
    out.reverse();
    out
}

/// Scalar reference twin of the batched `fedsz_simd::midpoint_preds` path
/// (plus the left-edge fallback); a unit test pins the two bit-for-bit.
#[cfg(test)]
#[inline]
fn linear_pred(rec: &[f32], i: usize, s: usize) -> f32 {
    let left = rec[i - s];
    match rec.get(i + s) {
        Some(&right) => 0.5 * (left + right),
        None => left,
    }
}

/// Scalar reference twin of the batched `fedsz_simd::cubic_preds` path;
/// a unit test pins the two bit-for-bit.
#[cfg(test)]
#[inline]
fn cubic_pred(rec: &[f32], i: usize, s: usize) -> f32 {
    if i >= 3 * s && i + 3 * s < rec.len() {
        // Catmull-Rom-style 4-point midpoint interpolation.
        (-(rec[i - 3 * s] as f64) * 0.0625
            + rec[i - s] as f64 * 0.5625
            + rec[i + s] as f64 * 0.5625
            - rec[i + 3 * s] as f64 * 0.0625) as f32
    } else {
        linear_pred(rec, i, s)
    }
}

/// Buffers one `compress` call reuses for every chunk and level, sized for
/// the densest (stride 1) level of a full chunk.
struct Scratch {
    /// The chunk as the decoder will reconstruct it.
    rec: Vec<f32>,
    grid: Vec<f32>,
    vals: Vec<f32>,
    lin: Vec<f32>,
    cub: Vec<f32>,
    costs: Vec<f64>,
    recons: Vec<f32>,
}

impl Scratch {
    fn new() -> Self {
        let cap = CHUNK / 2 + 1;
        Self {
            rec: vec![0.0; CHUNK],
            grid: vec![0.0; cap],
            vals: vec![0.0; cap],
            lin: vec![0.0; cap],
            cub: vec![0.0; cap],
            costs: vec![0.0; cap],
            recons: vec![0.0; cap],
        }
    }
}

/// Quantize one chunk into `codes` (one per element, in level order) and
/// append its escaped values to `literals`. Returns the cubic-level mask:
/// bit `l` set = level `l` (in stride order) uses cubic interpolation.
fn compress_chunk(
    block: &[f32],
    q: &Quantizer,
    codes: &mut [u32],
    literals: &mut Vec<f32>,
    scratch: &mut Scratch,
) -> u16 {
    let m = block.len();
    let rec = &mut scratch.rec[..m];
    let mut cubic_mask = 0u16;

    // Anchor: predict the first element by zero.
    (codes[0], rec[0]) = q.quantize(block[0], 0.0).unwrap_or_else(|| {
        literals.push(block[0]);
        (0, block[0])
    });
    let mut coded = 1usize;

    // Within a level every prediction reads only the coarse grid (even
    // multiples of `s`) while every write lands on an odd multiple, so the
    // whole level batches through the dispatched kernels with no feedback
    // hazard — the sequential loop this replaces produced the same bits.
    for (lvl, s) in strides(m).into_iter().enumerate() {
        // Targets are the odd multiples of `s` below `m`; the grid holds the
        // already-reconstructed even multiples.
        let t_cnt = (m + s - 1) / (2 * s);
        let g_cnt = m.div_ceil(2 * s);
        let grid = &mut scratch.grid[..g_cnt];
        for (j, g) in grid.iter_mut().enumerate() {
            *g = rec[2 * j * s];
        }
        let vals = &mut scratch.vals[..t_cnt];
        for (t, v) in vals.iter_mut().enumerate() {
            *v = block[(2 * t + 1) * s];
        }

        // Linear: midpoint of the neighbouring grid points; the final target
        // falls back to its left neighbour when the right one is past the
        // end (exactly `linear_pred`).
        let lin = &mut scratch.lin[..t_cnt];
        let mc = t_cnt.min(g_cnt - 1);
        fedsz_simd::midpoint_preds(grid, &mut lin[..mc]);
        if t_cnt > mc {
            lin[t_cnt - 1] = grid[t_cnt - 1];
        }

        // Cubic: 4-point stencil on the interior targets (t in 1..hi), with
        // the linear fallback at both edges (exactly `cubic_pred`). Output
        // index j of the kernel reads grid[j..j+4], i.e. target t = j + 1.
        let cub = &mut scratch.cub[..t_cnt];
        cub.copy_from_slice(lin);
        let hi = t_cnt.min(g_cnt.saturating_sub(2));
        if hi > 1 {
            fedsz_simd::cubic_preds(grid, &mut cub[1..hi]);
        }

        // Pick the interpolant with the smaller total absolute error against
        // the original values. The two accumulators of the former loop were
        // independent, so folding each batch in order preserves the bits.
        let costs = &mut scratch.costs[..t_cnt];
        fedsz_simd::abs_residuals(vals, lin, costs);
        let cost_lin = costs.iter().fold(0.0f64, |acc, &c| acc + c);
        fedsz_simd::abs_residuals(vals, cub, costs);
        let cost_cub = costs.iter().fold(0.0f64, |acc, &c| acc + c);
        let use_cubic = cost_cub < cost_lin;
        if use_cubic && lvl < MAX_LEVELS + 4 {
            cubic_mask |= 1 << lvl.min(15);
        }

        let preds: &[f32] = if use_cubic { cub } else { lin };
        let level_codes = &mut codes[coded..coded + t_cnt];
        coded += t_cnt;
        let recons = &mut scratch.recons[..t_cnt];
        q.quantize_slice(vals, preds, level_codes, recons);
        for (t, (&code, &recon)) in level_codes.iter().zip(recons.iter()).enumerate() {
            rec[(2 * t + 1) * s] = if code == 0 {
                literals.push(vals[t]);
                vals[t]
            } else {
                recon
            };
        }
    }
    cubic_mask
}

fn raw_stream(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4 + 10);
    out.push(MODE_RAW);
    varint::write_usize(&mut out, data.len());
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Compress `data` under `eb`. Self-contained byte stream.
pub fn compress(data: &[f32], eb: ErrorBound) -> Vec<u8> {
    let abs_eb = eb.absolute(data);
    let eb_valid = abs_eb.is_finite() && abs_eb > 0.0;
    if data.is_empty() || !eb_valid {
        return raw_stream(data);
    }
    let q = Quantizer::new(abs_eb);
    let n_chunks = data.len().div_ceil(CHUNK);

    let mut codes = vec![0u32; data.len()];
    let mut masks = Vec::with_capacity(2 * n_chunks);
    let mut literals = Vec::new();
    let mut freqs = vec![0u64; NUM_CODES];
    let mut scratch = Scratch::new();
    for (block, codes) in data.chunks(CHUNK).zip(codes.chunks_mut(CHUNK)) {
        let mask = compress_chunk(block, &q, codes, &mut literals, &mut scratch);
        masks.extend_from_slice(&mask.to_le_bytes());
        // The chunk's codes are still in cache.
        for &code in codes.iter() {
            freqs[code as usize] += 1;
        }
    }

    let mut payload = Vec::with_capacity(data.len() / 2 + 64);
    varint::write_usize(&mut payload, data.len());
    payload.extend_from_slice(&abs_eb.to_le_bytes());
    varint::write_usize(&mut payload, n_chunks);
    payload.extend_from_slice(&masks);
    varint::write_usize(&mut payload, literals.len());
    for v in &literals {
        payload.extend_from_slice(&v.to_le_bytes());
    }

    let enc = HuffmanEncoder::from_frequencies(&freqs);
    let mut w = BitWriter::with_capacity(data.len() / 2);
    enc.write_table(&mut w);
    enc.encode_run(&mut w, &codes);
    payload.extend_from_slice(&w.finish());

    let backend = fedsz_lossless::zstd::compress(&payload);
    let mut out = Vec::with_capacity(backend.len() + 1);
    out.push(MODE_NORMAL);
    out.extend_from_slice(&backend);
    if out.len() >= data.len() * 4 + 10 {
        return raw_stream(data);
    }
    out
}

fn decode_chunk(
    m: usize,
    cubic_mask: u16,
    codes: &[u32],
    lit_iter: &mut std::slice::Iter<'_, f32>,
    q: &Quantizer,
) -> Result<Vec<f32>, CodecError> {
    let mut rec = vec![0.0f32; m];

    let code = *codes
        .first()
        .ok_or(CodecError::Corrupt("SZ3 code underrun"))?;
    let seed = if code == 0 {
        *lit_iter
            .next()
            .ok_or(CodecError::Corrupt("missing literal"))?
    } else {
        q.reconstruct(0.0, code)
    };
    match rec.first_mut() {
        Some(first) => *first = seed,
        None => return Ok(rec),
    }
    let mut ci = 1usize;

    // Mirror of the batched encoder: per level, gather the coarse grid,
    // rebuild the predictor the encoder chose, and reconstruct the whole
    // level through the dispatched kernels.
    let cap = m / 2 + 1;
    let mut grid = vec![0.0f32; cap];
    let mut lin = vec![0.0f32; cap];
    let mut cub = vec![0.0f32; cap];
    let mut recons = vec![0.0f32; cap];

    for (lvl, s) in strides(m).into_iter().enumerate() {
        let use_cubic = cubic_mask & (1 << lvl.min(15)) != 0;
        let t_cnt = (m + s - 1) / (2 * s);
        let g_cnt = m.div_ceil(2 * s);
        let grid = &mut grid[..g_cnt];
        for (j, g) in grid.iter_mut().enumerate() {
            *g = rec[j * 2 * s];
        }

        let lin = &mut lin[..t_cnt];
        let mc = t_cnt.min(g_cnt - 1);
        fedsz_simd::midpoint_preds(grid, &mut lin[..mc]);
        if t_cnt > mc {
            let last = t_cnt - 1;
            lin[last] = grid[last];
        }
        let preds: &[f32] = if use_cubic {
            let cub = &mut cub[..t_cnt];
            cub.copy_from_slice(lin);
            let lo = 1usize;
            let hi = t_cnt.min(g_cnt.saturating_sub(2));
            if hi > lo {
                fedsz_simd::cubic_preds(grid, &mut cub[lo..hi]);
            }
            cub
        } else {
            lin
        };

        let level_codes = codes
            .get(ci..ci + t_cnt)
            .ok_or(CodecError::Corrupt("SZ3 code underrun"))?;
        ci += t_cnt;
        q.reconstruct_slice(preds, level_codes, &mut recons[..t_cnt]);
        for (t, &code) in level_codes.iter().enumerate() {
            let i = (2 * t + 1) * s;
            rec[i] = if code == 0 {
                *lit_iter
                    .next()
                    .ok_or(CodecError::Corrupt("missing literal"))?
            } else {
                recons[t]
            };
        }
    }
    Ok(rec)
}

/// Decompress a [`compress`] stream.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
    let (&mode, rest) = bytes.split_first().ok_or(CodecError::UnexpectedEof)?;
    match mode {
        MODE_RAW => {
            let mut pos = 0usize;
            let n = varint::read_usize(rest, &mut pos)?;
            let span = reader::claimed_span(n, 4, rest.len().saturating_sub(pos))?;
            let body = reader::take(rest, &mut pos, span)?;
            Ok(reader::f32s_from_le_bytes(body))
        }
        MODE_NORMAL => {
            let payload = fedsz_lossless::zstd::decompress(rest)?;
            decode_payload(&payload)
        }
        _ => Err(CodecError::Corrupt("unknown SZ3 mode")),
    }
}

/// Everything in the payload ahead of the Huffman bitstream.
struct PayloadHeader<'a> {
    n: usize,
    q: Quantizer,
    /// Cubic-level mask per chunk.
    masks: Vec<u16>,
    literals: Vec<f32>,
    /// Huffman table followed by the `n` coded symbols.
    bitstream: &'a [u8],
}

fn decode_header(payload: &[u8]) -> Result<PayloadHeader<'_>, CodecError> {
    let mut pos = 0usize;
    let n = varint::read_usize(payload, &mut pos)?;
    // L bytes cannot code more than 8·L one-bit symbols. `n` alone sizes
    // nothing in any case: it only caps a reservation made from what the
    // bitstream has really coded.
    if n > payload.len().saturating_mul(8) {
        return Err(CodecError::Corrupt("SZ3 element count exceeds stream"));
    }
    let abs_eb = reader::read_f64_le(payload, &mut pos)?;
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(CodecError::Corrupt("invalid SZ3 error bound"));
    }

    let n_chunks = varint::read_usize(payload, &mut pos)?;
    if n_chunks != n.div_ceil(CHUNK) {
        return Err(CodecError::Corrupt("SZ3 chunk count mismatch"));
    }
    let mut masks = Vec::new();
    for _ in 0..n_chunks {
        let b = reader::take_array::<2>(payload, &mut pos)?;
        masks.push(u16::from_le_bytes(b));
    }

    let n_literals = varint::read_usize(payload, &mut pos)?;
    let lit_span = reader::claimed_span(n_literals, 4, payload.len().saturating_sub(pos))?;
    let literals = reader::f32s_from_le_bytes(reader::take(payload, &mut pos, lit_span)?);
    Ok(PayloadHeader {
        n,
        q: Quantizer::new(abs_eb),
        masks,
        literals,
        bitstream: payload.get(pos..).ok_or(CodecError::UnexpectedEof)?,
    })
}

/// Fused decode: Huffman-decode one chunk's codes into a fixed scratch, then
/// interpolate that chunk onto the end of the output.
fn decode_payload(payload: &[u8]) -> Result<Vec<f32>, CodecError> {
    let h = decode_header(payload)?;
    let mut r = BitReader::new(h.bitstream);
    let dec = HuffmanDecoder::read_table(&mut r)?;
    let table_bits = r.bits_consumed();

    let mut scratch = vec![0u32; CHUNK];
    let mut out = Vec::new();
    let mut lit_iter = h.literals.iter();
    for &mask in &h.masks {
        let codes = &mut scratch[..(h.n - out.len()).min(CHUNK)];
        dec.decode_run(&mut r, codes)?;
        if out.is_empty() {
            let spent_bits = r.bits_consumed();
            out.reserve_exact(crate::decode_capacity(
                h.n,
                codes.len(),
                spent_bits - table_bits,
                h.bitstream
                    .len()
                    .saturating_mul(8)
                    .saturating_sub(spent_bits),
            ));
        }
        out.extend(decode_chunk(codes.len(), mask, codes, &mut lit_iter, &h.q)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value_range;

    fn smooth(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.003).sin() + 0.2 * ((i as f32) * 0.017).cos())
            .collect()
    }

    fn check_bound(data: &[f32], rel: f64) -> f64 {
        let c = compress(data, ErrorBound::Rel(rel));
        let d = decompress(&c).unwrap();
        assert_eq!(d.len(), data.len());
        let abs = rel * value_range(data);
        for (i, (a, b)) in data.iter().zip(&d).enumerate() {
            assert!(
                ((a - b).abs() as f64) <= abs * (1.0 + 1e-6),
                "idx {i}: {a} vs {b}, bound {abs}"
            );
        }
        (data.len() * 4) as f64 / c.len() as f64
    }

    #[test]
    fn smooth_data_interpolates_extremely_well() {
        let ratio = check_bound(&smooth(100_000), 1e-3);
        // Interpolation shines on smooth data — this is the regime where SZ3
        // beats SZ2 in the HPC literature.
        assert!(ratio > 25.0, "ratio {ratio:.1}");
    }

    #[test]
    fn various_lengths_round_trip() {
        for n in [1usize, 2, 3, 5, 100, 4095, 4096, 4097, 10_000] {
            check_bound(&smooth(n), 1e-3);
        }
    }

    #[test]
    fn spiky_data_still_bounded() {
        let data: Vec<f32> = (0..10_000)
            .map(|i: i32| {
                let x = (i.wrapping_mul(2654435761u32 as i32)) as f32 / i32::MAX as f32;
                x * 0.1
            })
            .collect();
        check_bound(&data, 1e-2);
    }

    #[test]
    fn raw_mode_for_constant_data() {
        let data = vec![3.0f32; 500];
        let c = compress(&data, ErrorBound::Rel(1e-2));
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn non_finite_values_survive() {
        let mut data = smooth(2000);
        data[7] = f32::NAN;
        data[1500] = f32::INFINITY;
        let c = compress(&data, ErrorBound::Abs(0.01));
        let d = decompress(&c).unwrap();
        assert!(d[7].is_nan());
        assert_eq!(d[1500], f32::INFINITY);
    }

    #[test]
    fn truncated_stream_rejected() {
        let c = compress(&smooth(5000), ErrorBound::Rel(1e-3));
        assert!(decompress(&c[..c.len() / 3]).is_err());
    }

    #[test]
    fn batched_predictors_match_scalar_stencils() {
        // The level-batched gather + kernel path must reproduce the scalar
        // `linear_pred`/`cubic_pred` stencils bit-for-bit at every stride,
        // including the left-fallback and edge-window cases.
        for m in [2usize, 3, 5, 64, 100, 513] {
            let rec = smooth(m);
            for s in strides(m) {
                let t_cnt = (m + s - 1) / (2 * s);
                let g_cnt = m.div_ceil(2 * s);
                let mut grid = vec![0.0f32; g_cnt];
                for (j, g) in grid.iter_mut().enumerate() {
                    *g = rec[2 * j * s];
                }
                let mut lin = vec![0.0f32; t_cnt];
                let mc = t_cnt.min(g_cnt - 1);
                fedsz_simd::midpoint_preds(&grid, &mut lin[..mc]);
                if t_cnt > mc {
                    lin[t_cnt - 1] = grid[t_cnt - 1];
                }
                let mut cub = lin.clone();
                let hi = t_cnt.min(g_cnt.saturating_sub(2));
                if hi > 1 {
                    fedsz_simd::cubic_preds(&grid, &mut cub[1..hi]);
                }
                for t in 0..t_cnt {
                    let i = (2 * t + 1) * s;
                    assert_eq!(
                        lin[t].to_bits(),
                        linear_pred(&rec, i, s).to_bits(),
                        "lin m={m} s={s} t={t}"
                    );
                    assert_eq!(
                        cub[t].to_bits(),
                        cubic_pred(&rec, i, s).to_bits(),
                        "cub m={m} s={s} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn strides_cover_every_index_once() {
        for m in [1usize, 2, 7, 64, 100, 4096] {
            let mut seen = vec![false; m];
            seen[0] = true;
            for s in strides(m) {
                let mut i = s;
                while i < m {
                    assert!(!seen[i], "index {i} visited twice (m={m})");
                    seen[i] = true;
                    i += 2 * s;
                }
            }
            assert!(seen.iter().all(|&x| x), "m={m} not fully covered");
        }
    }

    /// The decoder this module had before the chunk-fused one: every code
    /// through the per-symbol `decode` into one `n`-sized vector, then the
    /// chunks. Kept as the oracle for outputs and errors.
    fn decode_payload_reference(payload: &[u8]) -> Result<Vec<f32>, CodecError> {
        let h = decode_header(payload)?;
        let mut r = BitReader::new(h.bitstream);
        let dec = HuffmanDecoder::read_table(&mut r)?;
        let mut codes = Vec::new();
        for _ in 0..h.n {
            codes.push(dec.decode(&mut r)?);
        }
        let mut out = Vec::new();
        let mut lit_iter = h.literals.iter();
        for (chunk_codes, &mask) in codes.chunks(CHUNK).zip(&h.masks) {
            out.extend(decode_chunk(
                chunk_codes.len(),
                mask,
                chunk_codes,
                &mut lit_iter,
                &h.q,
            )?);
        }
        Ok(out)
    }

    fn assert_matches_reference(payload: &[u8], ctx: &str) -> Result<Vec<f32>, CodecError> {
        let bits = |decoded: Result<Vec<f32>, CodecError>| {
            decoded.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let fused = decode_payload(payload);
        assert_eq!(
            bits(fused.clone()),
            bits(decode_payload_reference(payload)),
            "{ctx}"
        );
        fused
    }

    /// The payload inside a NORMAL-mode stream.
    fn payload_of(stream: &[u8]) -> Vec<u8> {
        assert_eq!(stream[0], MODE_NORMAL);
        fedsz_lossless::zstd::decompress(&stream[1..]).unwrap()
    }

    #[test]
    fn fused_decode_matches_reference_around_the_chunk_size() {
        for n in [1usize, 2, 255, 4095, 4096, 4097, 8191, 8192, 8193, 20_000] {
            let mut data = smooth(n);
            // Escapes of every kind, at chunk edges among other places.
            for (k, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e30]
                .into_iter()
                .enumerate()
            {
                for at in [k, 4095 - k, 4096 + k, n.saturating_sub(k + 1)] {
                    if let Some(x) = data.get_mut(at) {
                        *x = v;
                    }
                }
            }
            let stream = compress(&data, ErrorBound::Abs(1e-3));
            if stream[0] != MODE_NORMAL {
                continue;
            }
            let payload = payload_of(&stream);
            let out = assert_matches_reference(&payload, &format!("n = {n}")).unwrap();
            assert_eq!(out.len(), n);

            // Every cut of a short payload, a seeded sample of a long one:
            // the same typed error as the reference, never a panic.
            let step = payload.len() / 300 + 1;
            for cut in (0..payload.len()).step_by(step) {
                let ctx = format!("n = {n} cut to {cut} of {}", payload.len());
                assert!(
                    assert_matches_reference(&payload[..cut], &ctx).is_err(),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn a_stream_one_literal_short_is_a_missing_literal_error() {
        let mut data = smooth(3 * CHUNK);
        data[2 * CHUNK + 77] = f32::NAN;
        let payload = payload_of(&compress(&data, ErrorBound::Abs(1e-3)));
        // Re-lay the payload with its last literal dropped.
        let h = decode_header(&payload).unwrap();
        let tail = h.bitstream.len() + 4 * h.literals.len();
        let mut count_at = payload.len() - tail - 1;
        let mut short = payload[..count_at].to_vec();
        assert_eq!(
            varint::read_usize(&payload, &mut count_at),
            Ok(h.literals.len()),
            "the literal count is a one-byte varint in this stream"
        );
        varint::write_usize(&mut short, h.literals.len() - 1);
        short.extend_from_slice(&payload[count_at..count_at + 4 * (h.literals.len() - 1)]);
        short.extend_from_slice(h.bitstream);
        assert_eq!(
            assert_matches_reference(&short, "one literal short"),
            Err(CodecError::Corrupt("missing literal"))
        );
    }

    #[test]
    fn fused_decode_matches_reference_on_model_tensors() {
        use fedsz_models::ModelKind;
        let model = ModelKind::MobileNetV2.synthesize(10, 42);
        let mut lossy = 0usize;
        for entry in model.entries() {
            let stream = compress(entry.tensor.data(), ErrorBound::Rel(1e-2));
            if stream[0] != MODE_NORMAL {
                continue;
            }
            lossy += 1;
            assert_matches_reference(&payload_of(&stream), &entry.name).unwrap();
        }
        assert!(lossy > 10, "{lossy} NORMAL-mode tensors");
    }

    // -----------------------------------------------------------------------
    // The encoder this module had before the one that shares its scratch:
    // every chunk allocates its own buffers and code vector, the value range
    // comes from an element-by-element scan, the histogram is a pass of its
    // own and every symbol goes through `encode`. Kept as the oracle:
    // `compress` must reproduce its streams byte for byte.
    // -----------------------------------------------------------------------

    struct ChunkOut {
        /// Bit `l` set = level `l` (in stride order) uses cubic interpolation.
        cubic_mask: u16,
        codes: Vec<u32>,
        literals: Vec<f32>,
    }

    fn compress_chunk_reference(block: &[f32], q: &Quantizer) -> ChunkOut {
        let m = block.len();
        let mut rec = vec![0.0f32; m];
        let mut codes = Vec::with_capacity(m);
        let mut literals = Vec::new();
        let mut cubic_mask = 0u16;

        // Anchor: predict the first element by zero.
        match q.quantize(block[0], 0.0) {
            Some((code, recon)) => {
                codes.push(code);
                rec[0] = recon;
            }
            None => {
                codes.push(0);
                literals.push(block[0]);
                rec[0] = block[0];
            }
        }

        // Per-level scratch, sized for the densest (s = 1) level. Within a
        // level every prediction reads only the coarse grid (even multiples of
        // `s`) while every write lands on an odd multiple, so the whole level
        // batches through the dispatched kernels with no feedback hazard — the
        // sequential loop this replaces produced the same bits.
        let cap = m / 2 + 1;
        let mut grid = vec![0.0f32; cap];
        let mut vals = vec![0.0f32; cap];
        let mut lin = vec![0.0f32; cap];
        let mut cub = vec![0.0f32; cap];
        let mut costs = vec![0.0f64; cap];
        let mut lcodes = vec![0u32; cap];
        let mut recons = vec![0.0f32; cap];

        for (lvl, s) in strides(m).into_iter().enumerate() {
            // Targets are the odd multiples of `s` below `m`; the grid holds the
            // already-reconstructed even multiples.
            let t_cnt = (m + s - 1) / (2 * s);
            let g_cnt = m.div_ceil(2 * s);
            let grid = &mut grid[..g_cnt];
            for (j, g) in grid.iter_mut().enumerate() {
                *g = rec[2 * j * s];
            }
            let vals = &mut vals[..t_cnt];
            for (t, v) in vals.iter_mut().enumerate() {
                *v = block[(2 * t + 1) * s];
            }

            // Linear: midpoint of the neighbouring grid points; the final target
            // falls back to its left neighbour when the right one is past the
            // end (exactly `linear_pred`).
            let lin = &mut lin[..t_cnt];
            let mc = t_cnt.min(g_cnt - 1);
            fedsz_simd::midpoint_preds(grid, &mut lin[..mc]);
            if t_cnt > mc {
                lin[t_cnt - 1] = grid[t_cnt - 1];
            }

            // Cubic: 4-point stencil on the interior targets (t in 1..hi), with
            // the linear fallback at both edges (exactly `cubic_pred`). Output
            // index j of the kernel reads grid[j..j+4], i.e. target t = j + 1.
            let cub = &mut cub[..t_cnt];
            cub.copy_from_slice(lin);
            let hi = t_cnt.min(g_cnt.saturating_sub(2));
            if hi > 1 {
                fedsz_simd::cubic_preds(grid, &mut cub[1..hi]);
            }

            // Pick the interpolant with the smaller total absolute error against
            // the original values. The two accumulators of the former loop were
            // independent, so folding each batch in order preserves the bits.
            let costs = &mut costs[..t_cnt];
            fedsz_simd::abs_residuals(vals, lin, costs);
            let cost_lin = costs.iter().fold(0.0f64, |acc, &c| acc + c);
            fedsz_simd::abs_residuals(vals, cub, costs);
            let cost_cub = costs.iter().fold(0.0f64, |acc, &c| acc + c);
            let use_cubic = cost_cub < cost_lin;
            if use_cubic && lvl < MAX_LEVELS + 4 {
                cubic_mask |= 1 << lvl.min(15);
            }

            let preds: &[f32] = if use_cubic { cub } else { lin };
            q.quantize_slice(vals, preds, &mut lcodes[..t_cnt], &mut recons[..t_cnt]);
            for t in 0..t_cnt {
                let i = (2 * t + 1) * s;
                let code = lcodes[t];
                if code == 0 {
                    codes.push(0);
                    literals.push(vals[t]);
                    rec[i] = vals[t];
                } else {
                    codes.push(code);
                    rec[i] = recons[t];
                }
            }
        }
        ChunkOut {
            cubic_mask,
            codes,
            literals,
        }
    }

    fn compress_reference(data: &[f32], eb: ErrorBound) -> Vec<u8> {
        let abs_eb = match eb {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => rel * crate::value_range_scalar(data),
        };
        let eb_valid = abs_eb.is_finite() && abs_eb > 0.0;
        if data.is_empty() || !eb_valid {
            return raw_stream(data);
        }
        let q = Quantizer::new(abs_eb);

        let chunks: Vec<ChunkOut> = data
            .chunks(CHUNK)
            .map(|c| compress_chunk_reference(c, &q))
            .collect();

        let mut payload = Vec::with_capacity(data.len() / 2 + 64);
        varint::write_usize(&mut payload, data.len());
        payload.extend_from_slice(&abs_eb.to_le_bytes());
        varint::write_usize(&mut payload, chunks.len());
        for c in &chunks {
            payload.extend_from_slice(&c.cubic_mask.to_le_bytes());
        }

        let n_literals: usize = chunks.iter().map(|c| c.literals.len()).sum();
        varint::write_usize(&mut payload, n_literals);
        for c in &chunks {
            for &v in &c.literals {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }

        let mut freqs = vec![0u64; NUM_CODES];
        for c in &chunks {
            for &code in &c.codes {
                freqs[code as usize] += 1;
            }
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let mut w = BitWriter::with_capacity(data.len() / 2);
        enc.write_table(&mut w);
        for c in &chunks {
            for &code in &c.codes {
                enc.encode(&mut w, code);
            }
        }
        payload.extend_from_slice(&w.finish());

        let backend = fedsz_lossless::zstd::compress(&payload);
        let mut out = Vec::with_capacity(backend.len() + 1);
        out.push(MODE_NORMAL);
        out.extend_from_slice(&backend);
        if out.len() >= data.len() * 4 + 10 {
            return raw_stream(data);
        }
        out
    }

    fn assert_encodes_like_reference(data: &[f32], eb: ErrorBound, ctx: &str) -> Vec<u8> {
        let stream = compress(data, eb);
        let same = stream == compress_reference(data, eb);
        assert!(same, "{ctx}: stream differs from the reference encoder's");
        stream
    }

    #[test]
    fn encoder_matches_reference_around_the_chunk_size() {
        for n in [
            1usize, 2, 3, 255, 4095, 4096, 4097, 8191, 8192, 8193, 20_000,
        ] {
            let clean = smooth(n);
            assert_encodes_like_reference(&clean, ErrorBound::Rel(1e-3), &format!("n = {n}"));
            // Escapes of every kind, at chunk edges among other places, and
            // outliers beyond the code book every few elements.
            let mut data = clean;
            for (k, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e30, -0.0]
                .into_iter()
                .enumerate()
            {
                for at in [k, 4095 - k, 4096 + k, n.saturating_sub(k + 1)] {
                    if let Some(x) = data.get_mut(at) {
                        *x = v;
                    }
                }
            }
            for x in data.iter_mut().skip(11).step_by(7) {
                *x *= 1.0e7;
            }
            for eb in [
                ErrorBound::Abs(1e-3),
                ErrorBound::Rel(1e-2),
                ErrorBound::Rel(1e-4),
                ErrorBound::Abs(0.0),
            ] {
                let ctx = format!("n = {n}, {eb:?}");
                let stream = assert_encodes_like_reference(&data, eb, &ctx);
                assert_eq!(decompress(&stream).map(|d| d.len()), Ok(n), "{ctx}");
            }
        }
    }

    #[test]
    fn encoder_matches_reference_on_hostile_floats() {
        let corpus: Vec<(&str, Vec<f32>)> = vec![
            ("empty", vec![]),
            ("single element", vec![0.37]),
            ("single NaN", vec![f32::NAN]),
            ("constant", vec![2.5; 5000]),
            ("range zero, signed zeros", [0.0f32, -0.0].repeat(2500)),
            ("all NaN", vec![f32::NAN; 600]),
            (
                "infinities only",
                [f32::INFINITY, f32::NEG_INFINITY].repeat(300),
            ),
            (
                "denormals",
                (0..9000u32)
                    .map(|i| f32::from_bits(i % 97 + 1) * if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            ),
            (
                "denormals and zeros under a normal range",
                (0..9000u32)
                    .map(|i| match i % 4 {
                        0 => f32::from_bits(i + 1),
                        1 => -0.0,
                        2 => 0.0,
                        _ => (i as f32 * 0.01).sin(),
                    })
                    .collect(),
            ),
            (
                "huge magnitudes",
                (0..5000).map(|i| (i as f32 - 2500.0) * 1.0e35).collect(),
            ),
        ];
        for (name, data) in &corpus {
            for eb in [
                ErrorBound::Rel(1e-2),
                ErrorBound::Rel(1e-4),
                ErrorBound::Abs(1e-3),
            ] {
                let ctx = format!("{name}, {eb:?}");
                let stream = assert_encodes_like_reference(data, eb, &ctx);
                assert_eq!(
                    decompress(&stream).map(|d| d.len()),
                    Ok(data.len()),
                    "{ctx}"
                );
            }
        }
    }

    /// Every tensor of MobileNetV2 and ResNet50, seed 42, at the three bounds
    /// of the paper.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes without optimisation; CI runs it by name in release"
    )]
    fn encoder_matches_reference_on_model_tensors() {
        use fedsz_models::ModelKind;
        for kind in [ModelKind::MobileNetV2, ModelKind::ResNet50] {
            let model = kind.synthesize(10, 42);
            for rel in [1e-2, 1e-3, 1e-4] {
                let mut lossy = 0usize;
                for entry in model.entries() {
                    let ctx = format!("{} {rel:e} {}", kind.name(), entry.name);
                    let stream = assert_encodes_like_reference(
                        entry.tensor.data(),
                        ErrorBound::Rel(rel),
                        &ctx,
                    );
                    lossy += usize::from(stream[0] == MODE_NORMAL);
                }
                assert!(
                    lossy > 10,
                    "{} {rel:e}: {lossy} NORMAL-mode tensors",
                    kind.name()
                );
            }
        }
    }
}
