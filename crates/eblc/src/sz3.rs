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

use fedsz_entropy::{reader, CodecError};

use crate::quantizer::Quantizer;
use crate::stream::{self, take_literals, Predictor};
use crate::ErrorBound;

/// Interpolation chunk size (power of two).
const CHUNK: usize = 4096;
/// Maximum interpolation levels per chunk (2^12 = 4096).
const MAX_LEVELS: usize = 12;

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
#[derive(Default)]
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

/// The predictions of the level at stride `s` of a chunk from the points of
/// `rec` reconstructed so far: linear into `lin`, cubic into `cub` if `cubic`
/// is set, one per target. Returns how many targets the level has.
///
/// Targets are the odd multiples of `s`; every prediction reads only the
/// coarse grid, the even multiples, so the whole level batches through the
/// dispatched kernels with no feedback hazard — a sequential loop over the
/// targets produces the same bits. Encoder and decoder both predict here;
/// inlined into each, where `cubic` is a constant for the encoder.
#[inline(always)]
fn level_preds(
    rec: &[f32],
    s: usize,
    cubic: bool,
    grid: &mut [f32],
    lin: &mut [f32],
    cub: &mut [f32],
) -> usize {
    let m = rec.len();
    let t_cnt = (m + s - 1) / (2 * s);
    let g_cnt = m.div_ceil(2 * s);
    let grid = &mut grid[..g_cnt];
    for (j, g) in grid.iter_mut().enumerate() {
        *g = rec[2 * j * s];
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
    if cubic {
        let cub = &mut cub[..t_cnt];
        cub.copy_from_slice(lin);
        let hi = t_cnt.min(g_cnt.saturating_sub(2));
        if hi > 1 {
            fedsz_simd::cubic_preds(grid, &mut cub[1..hi]);
        }
    }
    t_cnt
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

    for (lvl, s) in strides(m).into_iter().enumerate() {
        let Scratch { grid, lin, cub, .. } = scratch;
        let t_cnt = level_preds(rec, s, true, grid, lin, cub);
        let (lin, cub) = (&lin[..t_cnt], &cub[..t_cnt]);
        let vals = &mut scratch.vals[..t_cnt];
        for (t, v) in vals.iter_mut().enumerate() {
            *v = block[(2 * t + 1) * s];
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

/// Compress `data` under `eb`. Self-contained byte stream.
pub fn compress(data: &[f32], eb: ErrorBound) -> Vec<u8> {
    stream::compress::<Sz3>(data, eb)
}

/// Decompress a [`compress`] stream.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
    stream::decompress::<Sz3>(bytes)
}

/// The interpolation predictor over the shared container: block and unit are
/// both one chunk, the side info a cubic-level mask per chunk.
pub(crate) struct Sz3 {
    masks: Vec<u16>,
    /// The encoder's; a decoder's stays empty.
    scratch: Scratch,
}

impl Predictor for Sz3 {
    const BLOCK: usize = CHUNK;
    const UNIT: usize = CHUNK;
    const TOO_MANY_ELEMENTS: &'static str = "SZ3 element count exceeds stream";

    fn new(blocks: usize) -> Self {
        Sz3 {
            masks: Vec::with_capacity(blocks),
            scratch: Scratch::new(),
        }
    }

    fn encode_unit(
        &mut self,
        values: &[f32],
        q: &Quantizer,
        codes: &mut [u32],
        literals: &mut Vec<f32>,
    ) {
        let mask = compress_chunk(values, q, codes, literals, &mut self.scratch);
        self.masks.push(mask);
    }

    fn write_side_info(&self, payload: &mut Vec<u8>) {
        for mask in &self.masks {
            payload.extend_from_slice(&mask.to_le_bytes());
        }
    }

    fn read_side_info(blocks: usize, payload: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let mut masks = Vec::new();
        for _ in 0..blocks {
            let b = reader::take_array::<2>(payload, pos)?;
            masks.push(u16::from_le_bytes(b));
        }
        let scratch = Scratch::default();
        Ok(Sz3 { masks, scratch })
    }

    fn decode_unit(
        &mut self,
        index: usize,
        codes: &[u32],
        literals: &mut &[f32],
        q: &Quantizer,
        out: &mut [f32],
    ) -> Result<(), CodecError> {
        let &mask = self
            .masks
            .get(index)
            .ok_or(CodecError::Corrupt("missing SZ3 level mask"))?;
        decode_chunk(mask, codes, take_literals(literals, codes)?, q, out)
    }
}

/// Reconstruct one chunk into the zeroed `rec` from its codes, in level
/// order, and `literals`, exactly one per zero code.
fn decode_chunk(
    cubic_mask: u16,
    codes: &[u32],
    literals: &[f32],
    q: &Quantizer,
    rec: &mut [f32],
) -> Result<(), CodecError> {
    let m = rec.len();
    let mut literals = literals.iter();
    let mut literal = move || literals.next().copied().unwrap_or(0.0);

    let (Some(&code), Some(first)) = (codes.first(), rec.first_mut()) else {
        return Err(CodecError::Corrupt("SZ3 code underrun"));
    };
    *first = if code == 0 {
        literal()
    } else {
        q.reconstruct(0.0, code)
    };
    let mut ci = 1usize;

    // Mirror of the batched encoder: per level, rebuild the predictor the
    // encoder chose and reconstruct the whole level through the dispatched
    // kernels.
    let cap = m / 2 + 1;
    let mut grid = vec![0.0f32; cap];
    let mut lin = vec![0.0f32; cap];
    let mut cub = vec![0.0f32; cap];
    let mut recons = vec![0.0f32; cap];

    for (lvl, s) in strides(m).into_iter().enumerate() {
        let use_cubic = cubic_mask & (1 << lvl.min(15)) != 0;
        let t_cnt = level_preds(rec, s, use_cubic, &mut grid, &mut lin, &mut cub);
        let preds = if use_cubic { &cub } else { &lin };

        let level_codes = codes
            .get(ci..ci + t_cnt)
            .ok_or(CodecError::Corrupt("SZ3 code underrun"))?;
        ci += t_cnt;
        q.reconstruct_slice(&preds[..t_cnt], level_codes, &mut recons[..t_cnt]);
        for (t, &code) in level_codes.iter().enumerate() {
            rec[(2 * t + 1) * s] = if code == 0 { literal() } else { recons[t] };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::decode_header;
    use crate::stream::tests::{
        assert_decodes_like, assert_encodes_like, hostile_floats, on_model_tensors, payload_of,
        raw_by_hand, reference_bound, smooth, Parts,
    };
    use crate::LossyKind;
    use fedsz_entropy::bitio::BitReader;
    use fedsz_entropy::huffman::HuffmanDecoder;
    use fedsz_models::ModelKind;

    fn check_bound(data: &[f32], rel: f64) -> f64 {
        crate::stream::tests::check_bound(LossyKind::Sz3, data, rel)
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
    fn batched_predictors_match_scalar_stencils() {
        // The level-batched gather + kernel path must reproduce the scalar
        // `linear_pred`/`cubic_pred` stencils bit-for-bit at every stride,
        // including the left-fallback and edge-window cases.
        for m in [2usize, 3, 5, 64, 100, 513] {
            let rec = smooth(m);
            let cap = m / 2 + 1;
            let (mut grid, mut lin, mut cub) = (vec![0.0; cap], vec![0.0; cap], vec![0.0; cap]);
            for s in strides(m) {
                let t_cnt = level_preds(&rec, s, true, &mut grid, &mut lin, &mut cub);
                assert_eq!(t_cnt, (s..m).step_by(2 * s).count(), "m={m} s={s}");
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
    /// chunks, each into a vector of its own. Kept as the oracle for outputs
    /// and errors.
    fn decode_payload_reference(payload: &[u8]) -> Result<Vec<f32>, CodecError> {
        let h = decode_header::<Sz3>(payload)?;
        let mut r = BitReader::new(h.bitstream);
        let dec = HuffmanDecoder::read_table(&mut r)?;
        let mut codes = Vec::new();
        for _ in 0..h.n {
            codes.push(dec.decode(&mut r)?);
        }
        let mut out = Vec::new();
        let mut literals = h.literals.as_slice();
        for (chunk_codes, &mask) in codes.chunks(CHUNK).zip(&h.predictor.masks) {
            let zeros = chunk_codes.iter().filter(|&&c| c == 0).count();
            let (mine, rest) = literals
                .split_at_checked(zeros)
                .ok_or(CodecError::Corrupt("missing literal"))?;
            literals = rest;
            let mut rec = vec![0.0f32; chunk_codes.len()];
            decode_chunk(mask, chunk_codes, mine, &h.q, &mut rec)?;
            out.extend(rec);
        }
        Ok(out)
    }

    fn assert_matches_reference(payload: &[u8], ctx: &str) -> Result<Vec<f32>, CodecError> {
        assert_decodes_like::<Sz3>(decode_payload_reference, payload, ctx)
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
            let Some(payload) = payload_of(&stream) else {
                continue;
            };
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
    fn fused_decode_matches_reference_on_model_tensors() {
        on_model_tensors(&[(ModelKind::MobileNetV2, 1e-2)], 10, |data, eb, ctx| {
            let Some(payload) = payload_of(&compress(data, eb)) else {
                return false;
            };
            assert_matches_reference(&payload, ctx).unwrap();
            true
        });
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
        let Some(abs_eb) = reference_bound(data, eb) else {
            return raw_by_hand(data);
        };
        let q = Quantizer::new(abs_eb);
        let chunks: Vec<ChunkOut> = data
            .chunks(CHUNK)
            .map(|c| compress_chunk_reference(c, &q))
            .collect();

        let side = chunks.iter().flat_map(|c| c.cubic_mask.to_le_bytes());
        let literals = chunks.iter().flat_map(|c| c.literals.clone()).collect();
        let codes: Vec<u32> = chunks.iter().flat_map(|c| c.codes.clone()).collect();
        Parts::new(abs_eb, chunks.len(), side.collect(), literals, &codes).stream(data)
    }

    fn assert_encodes_like_reference(data: &[f32], eb: ErrorBound, ctx: &str) -> Vec<u8> {
        assert_encodes_like::<Sz3>(compress_reference, data, eb, ctx)
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
        let corpus = hostile_floats();
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
        let models = [ModelKind::MobileNetV2, ModelKind::ResNet50];
        let cases = models.map(|kind| [1e-2, 1e-3, 1e-4].map(|rel| (kind, rel)));
        on_model_tensors(cases.as_flattened(), 10, |data, eb, ctx| {
            payload_of(&assert_encodes_like_reference(data, eb, ctx)).is_some()
        });
    }
}
