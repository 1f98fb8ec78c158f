//! SZ2 analogue: block-wise hybrid prediction (Lorenzo vs. linear
//! regression), error-bounded quantization, Huffman coding, and a
//! Zstd-analogue lossless backend — the pipeline of Liang et al. 2018 that
//! the FedSZ paper selects as its lossy compressor.
//!
//! Model weights reach this module as flat 1-D arrays (FedSZ flattens every
//! tensor), so the Lorenzo predictor is the 1-D first-order variant and the
//! regression predictor fits `a·i + b` per block.

use fedsz_entropy::{reader, CodecError};

use crate::quantizer::Quantizer;
use crate::stream::{self, take_literals, Predictor};
use crate::ErrorBound;

/// Elements per prediction block (SZ2 uses 6^3 = 216 in 3-D; 256 is the
/// natural 1-D analogue).
const BLOCK: usize = 256;

/// Estimated bit cost of coding a residual of magnitude `d` at bin width
/// `bin`. Uses the f64 exponent field as a free floor(log2): the estimate
/// only drives the per-block predictor choice, where ±1 bit of slack is
/// irrelevant, and exact `log2` calls dominate the profile otherwise.
///
/// Kept as the scalar reference twin of `fedsz_simd::residual_costs`; the
/// production path dispatches the batched kernel and a unit test pins the
/// two bit-for-bit.
#[cfg(test)]
#[inline]
fn residual_bits(d: f64, bin: f64) -> f64 {
    let x = d / bin + 1.0;
    (((x.to_bits() >> 52) & 0x7FF) as i64 - 1023) as f64
}

/// Elements in a group of [`GROUP_BLOCKS`] blocks.
const GROUP: usize = GROUP_BLOCKS * BLOCK;

/// Blocks whose predictor choice's serial sums are stepped side by side. A
/// sum is an add latency per element; eight in flight keep the adder busy,
/// and their sixteen cache lines (blocks lie 1 KB apart, so they share few
/// L1 sets) still fit the ways of those sets.
const LANES: usize = 8;

/// Elements in [`LANES`] whole blocks: the blocks whose predictor choice's
/// serial sums are stepped side by side.
const SET: usize = LANES * BLOCK;

/// Lorenzo blocks quantized in one `quantize_chains` call (eight AVX2 or
/// sixteen SSE4.1/NEON vectors a step), or reconstructed in one
/// `reconstruct_chains` call. Lane-major in the scratch, the blocks no
/// longer lie 1 KB apart, so the L1 aliasing that caps [`LANES`] does not
/// apply.
const CHAINS: usize = 32;

/// Lanes a batch of Lorenzo blocks is decoded in a multiple of: the widest
/// register tile of the lane-major copies.
const TILE: usize = 8;

/// Least-squares fit of `x[i] ~ a*i + b` over `n` elements, from
/// `sum_x = Σ x[i]` and `sum_ix = Σ i·x[i]`.
fn regression_from_sums(n: usize, sum_x: f64, sum_ix: f64, first: f32) -> (f32, f32) {
    let n = n as f64;
    let sum_i = n * (n - 1.0) / 2.0;
    let sum_ii = n * (n - 1.0) * (2.0 * n - 1.0) / 6.0;
    let denom = n * sum_ii - sum_i * sum_i;
    if denom.abs() < 1e-30 {
        return (0.0, first);
    }
    let a = (n * sum_ix - sum_i * sum_x) / denom;
    let b = (sum_x - a * sum_i) / n;
    (a as f32, b as f32)
}

fn fit_regression(block: &[f32]) -> (f32, f32) {
    let mut sum_x = 0.0f64;
    let mut sum_ix = 0.0f64;
    for (i, &v) in block.iter().enumerate() {
        sum_x += v as f64;
        sum_ix += i as f64 * v as f64;
    }
    let first = block.first().copied().unwrap_or(0.0);
    regression_from_sums(block.len(), sum_x, sum_ix, first)
}

/// [`fit_regression`] of each block of `set`.
///
/// A fit is two serial f64 sums, an add latency per element each. In a set
/// of [`LANES`] whole blocks the blocks are stepped side by side: every sum
/// still receives its own block's terms in index order — the bits of the
/// block-at-a-time loop — while the sixteen chains overlap.
fn fit_regressions(set: &[f32]) -> [(f32, f32); LANES] {
    let mut fits = [(0.0f32, 0.0f32); LANES];
    let Ok(full) = <&[f32; SET]>::try_from(set) else {
        for (fit, block) in fits.iter_mut().zip(set.chunks(BLOCK)) {
            *fit = fit_regression(block);
        }
        return fits;
    };
    let mut sum_x = [0.0f64; LANES];
    let mut sum_ix = [0.0f64; LANES];
    for i in 0..BLOCK {
        for lane in 0..LANES {
            let v = full[lane * BLOCK + i] as f64;
            sum_x[lane] += v;
            sum_ix[lane] += i as f64 * v;
        }
    }
    for (lane, fit) in fits.iter_mut().enumerate() {
        *fit = regression_from_sums(BLOCK, sum_x[lane], sum_ix[lane], full[lane * BLOCK]);
    }
    fits
}

/// `init + costs[0] + costs[1] + …` per block of `costs`, each sum in index
/// order; the blocks of a whole set side by side, as in [`fit_regressions`].
fn fold_costs(costs: &[f64], init: f64) -> [f64; LANES] {
    let mut sums = [init; LANES];
    let Ok(full) = <&[f64; SET]>::try_from(costs) else {
        for (sum, block) in sums.iter_mut().zip(costs.chunks(BLOCK)) {
            *sum = block.iter().fold(init, |acc, &c| acc + c);
        }
        return sums;
    };
    for i in 0..BLOCK {
        for lane in 0..LANES {
            sums[lane] += full[lane * BLOCK + i];
        }
    }
    sums
}

/// Buffers one `compress` call reuses for every group.
#[derive(Default)]
struct Scratch {
    /// Regression predictions of the set being decided.
    preds: Vec<f32>,
    /// Estimated cost per element of that set, one predictor at a time.
    costs: Vec<f64>,
    /// Reconstructions `quantize_slice` hands back; the regression
    /// predictor never reads them.
    recons: Vec<f32>,
    /// A batch of Lorenzo blocks, lane-major, and their codes.
    values_t: Vec<f32>,
    codes_t: Vec<u32>,
}

impl Scratch {
    fn new() -> Self {
        Self {
            preds: vec![0.0; SET],
            costs: vec![0.0; SET],
            recons: vec![0.0; BLOCK],
            values_t: vec![0.0; CHAINS * BLOCK],
            codes_t: vec![0; CHAINS * BLOCK],
        }
    }

    /// Room in the lane-major buffers for a batch of `lanes` blocks. A
    /// decoder's scratch starts empty and grows to the largest batch its
    /// tensor has.
    fn grow_chains(&mut self, lanes: usize) {
        let len = lanes * BLOCK;
        if self.codes_t.len() < len {
            self.codes_t.resize(len, 0);
            self.values_t.resize(len, 0.0);
        }
    }
}

/// The regression fit of every block of `set` that should use it, `None`
/// for a Lorenzo block. Leaves the set's regression predictions in
/// `scratch.preds`.
///
/// Cost model: estimated payload bits per predictor; regression pays a
/// 64-bit coefficient tax. The Lorenzo estimate predicts each element by the
/// previous *original* value (0 ahead of a block's first), so it batches
/// too; only Lorenzo *encoding* feeds reconstructions back. The two cost
/// sums of a block are independent, so the order within each sum is all
/// that decides the bits of the comparison.
fn choose_predictors(set: &[f32], bin: f64, scratch: &mut Scratch) -> [Option<(f32, f32)>; LANES] {
    let n = set.len();
    let fits = fit_regressions(set);
    let preds = &mut scratch.preds[..n];
    for (block_preds, &(a, b)) in preds.chunks_mut(BLOCK).zip(&fits) {
        fedsz_simd::linear_preds(a, b, 0, block_preds);
    }
    let costs = &mut scratch.costs[..n];

    // Lorenzo: the set against itself shifted right by one, then every
    // block's first element again, against the 0 that really predicts it.
    fedsz_simd::residual_costs(&set[1..], &set[..n - 1], bin, &mut costs[1..]);
    let blocks = n.div_ceil(BLOCK);
    let mut firsts = [0.0f32; LANES];
    for (first, block) in firsts.iter_mut().zip(set.chunks(BLOCK)) {
        *first = block[0];
    }
    let mut first_costs = [0.0f64; LANES];
    fedsz_simd::residual_costs(
        &firsts[..blocks],
        &[0.0; LANES][..blocks],
        bin,
        &mut first_costs[..blocks],
    );
    for (block_costs, &cost) in costs.chunks_mut(BLOCK).zip(&first_costs) {
        block_costs[0] = cost;
    }
    let lorenzo = fold_costs(costs, 0.0);

    fedsz_simd::residual_costs(set, preds, bin, costs);
    let regression = fold_costs(costs, 64.0);

    std::array::from_fn(|lane| (regression[lane] < lorenzo[lane]).then_some(fits[lane]))
}

/// Quantize the group's Lorenzo blocks, the ones starting at `starts`,
/// [`CHAINS`] to a `quantize_chains` call.
///
/// A chain is serial — each prediction is the previous reconstruction — and
/// one step of it is a subtract, divide, round, multiply, add and two
/// conversions deep. Blocks restart from `prev = 0` and write only their own
/// codes, so chains are independent exactly as in `decode_lorenzo_blocks`.
/// Copied lane-major into the scratch, a batch's blocks take each step as
/// whole vectors, and the codes are scattered back.
fn encode_lorenzo_blocks(
    values: &[f32],
    codes: &mut [u32],
    starts: &[usize],
    q: &Quantizer,
    scratch: &mut Scratch,
) {
    // Only the tensor's last block can be short; it is a chain of its own,
    // which needs no copy.
    let (starts, short) = match starts.split_last() {
        Some((&last, rest)) if values.len() - last < BLOCK => (rest, Some(last)),
        _ => (starts, None),
    };
    for batch in starts.chunks(CHAINS) {
        let lanes = batch.len();
        let values_t = &mut scratch.values_t[..lanes * BLOCK];
        for (lane, &start) in batch.iter().enumerate() {
            let block = &values[start..start + BLOCK];
            for i in 0..BLOCK {
                values_t[i * lanes + lane] = block[i];
            }
        }
        let codes_t = &mut scratch.codes_t[..lanes * BLOCK];
        q.quantize_chains(values_t, lanes, codes_t);
        for (lane, &start) in batch.iter().enumerate() {
            let block = &mut codes[start..start + BLOCK];
            for i in 0..BLOCK {
                block[i] = codes_t[i * lanes + lane];
            }
        }
    }
    if let Some(start) = short {
        q.quantize_chains(&values[start..], 1, &mut codes[start..]);
    }
}

/// Quantize the next group of blocks into `codes`, appending each block's
/// choice of predictor to `fits`.
fn encode_group(values: &[f32], codes: &mut [u32], q: &Quantizer, predictor: &mut Sz2) {
    let Sz2 { fits, scratch } = predictor;
    let bin = 2.0 * q.bound();
    // Where each Lorenzo block of the group starts.
    let mut lorenzo = Vec::with_capacity(GROUP_BLOCKS);
    for (set_start, set) in (0..).step_by(SET).zip(values.chunks(SET)) {
        let choice = choose_predictors(set, bin, scratch);
        for ((b, block), fit) in set.chunks(BLOCK).enumerate().zip(choice) {
            let start = set_start + b * BLOCK;
            fits.push(fit);
            if fit.is_some() {
                let n = block.len();
                let preds = &scratch.preds[b * BLOCK..][..n];
                let recons = &mut scratch.recons[..n];
                q.quantize_slice(block, preds, &mut codes[start..start + n], recons);
            } else {
                lorenzo.push(start);
            }
        }
    }
    encode_lorenzo_blocks(values, codes, &lorenzo, q, scratch);
}

/// Compress `data` under `eb`. Self-contained byte stream.
pub fn compress(data: &[f32], eb: ErrorBound) -> Vec<u8> {
    stream::compress::<Sz2>(data, eb)
}

/// Decompress a [`compress`] stream.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
    stream::decompress::<Sz2>(bytes)
}

/// Blocks quantized together, and Huffman-decoded into the scratch and
/// reconstructed together: 64 KB of codes, still in L2 when the encoder's
/// histogram pass, or the decoder's reconstruct pass, reads them back.
const GROUP_BLOCKS: usize = 64;

/// The hybrid predictor over the shared container: a unit is one group, the
/// side info a bitmap of the regression blocks, then their coefficients.
pub(crate) struct Sz2 {
    /// Per block, `(a, b)` of a regression block and `None` of a Lorenzo one.
    fits: Vec<Option<(f32, f32)>>,
    /// The encoder's; a decoder's stays empty.
    scratch: Scratch,
}

impl Predictor for Sz2 {
    const BLOCK: usize = BLOCK;
    const UNIT: usize = GROUP;
    const TOO_MANY_ELEMENTS: &'static str = "SZ2 element count exceeds stream";

    fn new(blocks: usize) -> Self {
        Sz2 {
            fits: Vec::with_capacity(blocks),
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
        encode_group(values, codes, q, self);
        // Most groups have no escape at all and are not looked at twice.
        if codes.contains(&0) {
            let escaped = codes.iter().zip(values).filter(|(&code, _)| code == 0);
            literals.extend(escaped.map(|(_, &v)| v));
        }
    }

    fn write_side_info(&self, payload: &mut Vec<u8>) {
        let mut bitmap = vec![0u8; self.fits.len().div_ceil(8)];
        for (block, _) in self.fits.iter().enumerate().filter(|(_, f)| f.is_some()) {
            bitmap[block / 8] |= 1 << (block % 8);
        }
        payload.extend_from_slice(&bitmap);
        for (a, b) in self.fits.iter().flatten() {
            payload.extend_from_slice(&a.to_le_bytes());
            payload.extend_from_slice(&b.to_le_bytes());
        }
    }

    fn read_side_info(blocks: usize, payload: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let bitmap = reader::take(payload, pos, blocks.div_ceil(8))?;
        let mut fits = Vec::new();
        for block in 0..blocks {
            let byte = bitmap.get(block / 8).copied().unwrap_or(0);
            fits.push(if byte & (1 << (block % 8)) != 0 {
                let a = reader::read_f32_le(payload, pos)?;
                Some((a, reader::read_f32_le(payload, pos)?))
            } else {
                None
            });
        }
        let scratch = Scratch::default();
        Ok(Sz2 { fits, scratch })
    }

    fn decode_unit(
        &mut self,
        index: usize,
        codes: &[u32],
        literals: &mut &[f32],
        q: &Quantizer,
        out: &mut [f32],
    ) -> Result<(), CodecError> {
        let Sz2 { fits, scratch } = self;
        // Where each Lorenzo block of the unit starts, and its literals.
        let mut starts = [0usize; GROUP_BLOCKS];
        let mut block_literals = [&[][..]; GROUP_BLOCKS];
        let mut chains = 0usize;
        let fits = fits.iter().skip(index * GROUP_BLOCKS);
        let blocks = codes.chunks(BLOCK).zip(out.chunks_mut(BLOCK));
        for ((start, (codes, out)), fit) in (0..).step_by(BLOCK).zip(blocks).zip(fits) {
            let literals = take_literals(literals, codes)?;
            if let &Some((a, b)) = fit {
                decode_regression_block(codes, out, literals, a, b, q);
            } else {
                starts[chains] = start;
                block_literals[chains] = literals;
                chains += 1;
            }
        }
        let blocks = (&starts[..chains], &block_literals[..chains]);
        decode_lorenzo_blocks(codes, out, blocks, q, scratch);
        Ok(())
    }
}

fn decode_regression_block(
    codes: &[u32],
    out: &mut [f32],
    literals: &[f32],
    a: f32,
    b: f32,
    q: &Quantizer,
) {
    let mut preds = [0.0f32; BLOCK];
    let preds = &mut preds[..codes.len()];
    fedsz_simd::linear_preds(a, b, 0, preds);
    q.reconstruct_slice(preds, codes, out);
    // Escape lanes come back as 0.0; patch them from the literals in order.
    put_literals(codes, literals, |i, v| out[i] = v);
}

/// `put(i, literal)` for the `i` of every zero code of `codes`, the
/// literals taken in order: exactly as many as there are zero codes.
fn put_literals(codes: &[u32], literals: &[f32], mut put: impl FnMut(usize, f32)) {
    if literals.is_empty() {
        return;
    }
    let mut next = 0;
    for (i, &code) in codes.iter().enumerate() {
        if code == 0 {
            if let Some(&v) = literals.get(next) {
                put(i, v);
            }
            next += 1;
        }
    }
}

/// Reconstruct one Lorenzo block in place, a chain of one lane, with the
/// literals' own bits (a signaling NaN's included) in their slots.
fn decode_lorenzo_alone(codes: &[u32], out: &mut [f32], literals: &[f32], q: &Quantizer) {
    put_literals(codes, literals, |i, v| out[i] = v);
    q.reconstruct_chains(codes, 1, out);
    put_literals(codes, literals, |i, v| out[i] = v);
}

/// Reconstruct the unit's Lorenzo blocks, the ones starting at `starts`
/// with their `literals`, at most [`CHAINS`] to a `reconstruct_chains`
/// call.
///
/// A chain is serial — each prediction is the previous value — and a step
/// of it is an add, a narrowing, a widening and a select deep. Blocks
/// restart from `prev = 0` and read only their own codes and literals, so
/// the chains are independent: copied lane-major into the scratch, with
/// each literal in its escape's slot, a batch's blocks take each step as
/// whole vectors, and the values are copied back.
///
/// A batch is padded to a multiple of [`TILE`] lanes with copies of its
/// last block, so the copies move whole register tiles. A copy's chain
/// reads what its block's does and yields the same bits, so writing both
/// back leaves the block as one chain would. A block alone — the tensor's
/// short last block, or a batch of one — is a one-lane chain in place.
fn decode_lorenzo_blocks(
    codes: &[u32],
    out: &mut [f32],
    (starts, literals): (&[usize], &[&[f32]]),
    q: &Quantizer,
    scratch: &mut Scratch,
) {
    // Only the tensor's last block can be short.
    let mut whole = starts.len();
    if starts
        .last()
        .is_some_and(|&last| codes.len() - last < BLOCK)
    {
        whole -= 1;
        let start = starts[whole];
        decode_lorenzo_alone(&codes[start..], &mut out[start..], literals[whole], q);
    }
    for (starts, literals) in starts[..whole].chunks(CHAINS).zip(literals.chunks(CHAINS)) {
        if let ([start], [literals]) = (starts, literals) {
            let (codes, out) = (&codes[*start..][..BLOCK], &mut out[*start..][..BLOCK]);
            decode_lorenzo_alone(codes, out, literals, q);
            continue;
        }
        let lanes = starts.len().next_multiple_of(TILE);
        let mut padded_starts = [0usize; CHAINS];
        let mut padded_literals = [&[][..]; CHAINS];
        for lane in 0..lanes {
            let real = lane.min(starts.len() - 1);
            padded_starts[lane] = starts[real];
            padded_literals[lane] = literals[real];
        }
        let (starts, literals) = (&padded_starts[..lanes], &padded_literals[..lanes]);
        scratch.grow_chains(lanes);
        let codes_t = &mut scratch.codes_t[..lanes * BLOCK];
        let values_t = &mut scratch.values_t[..lanes * BLOCK];
        fedsz_simd::to_lane_major(codes, starts, codes_t);
        for (lane, (&start, literals)) in starts.iter().zip(literals).enumerate() {
            let codes = &codes[start..start + BLOCK];
            put_literals(codes, literals, |i, v| values_t[i * lanes + lane] = v);
        }
        q.reconstruct_chains(codes_t, lanes, values_t);
        fedsz_simd::from_lane_major(values_t, starts, out);
        // The literals' own bits, a signaling NaN's included.
        for (&start, literals) in starts.iter().zip(literals) {
            let out = &mut out[start..start + BLOCK];
            put_literals(&codes[start..start + BLOCK], literals, |i, v| out[i] = v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::decode_header;
    use crate::stream::tests::{
        assert_decodes_like, assert_encodes_like, codes_with_escapes, hostile_floats, literals_for,
        on_model_tensors, payload_of, raw_by_hand, reference_bound, smooth, xorshift, Parts,
    };
    use crate::LossyKind;
    use fedsz_entropy::bitio::BitReader;
    use fedsz_entropy::huffman::HuffmanDecoder;
    use fedsz_models::ModelKind;

    fn check_bound(data: &[f32], rel: f64) -> f64 {
        crate::stream::tests::check_bound(LossyKind::Sz2, data, rel)
    }

    #[test]
    fn smooth_data_compresses_very_well() {
        let ratio = check_bound(&smooth(100_000), 1e-3);
        assert!(ratio > 20.0, "smooth ratio {ratio:.1}");
    }

    #[test]
    fn linear_ramp_triggers_regression_blocks() {
        // A pure ramp is exactly the regression model; almost every code
        // should be the zero-residual code, compressing extremely well.
        let data: Vec<f32> = (0..50_000).map(|i| i as f32 * 0.001).collect();
        let ratio = check_bound(&data, 1e-4);
        assert!(ratio > 30.0, "ramp ratio {ratio:.1}");
    }

    #[test]
    fn absolute_bound_is_respected() {
        let data = smooth(10_000);
        let c = compress(&data, ErrorBound::Abs(0.005));
        let d = decompress(&c).unwrap();
        for (a, b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 0.005 * (1.0 + 1e-6));
        }
    }

    #[test]
    fn outliers_become_literals_and_stay_exact_enough() {
        let mut data = smooth(4096);
        data[100] = 1.0e6;
        data[2000] = -3.0e7;
        let c = compress(&data, ErrorBound::Abs(1e-4));
        let d = decompress(&c).unwrap();
        for (a, b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + 1e-6) || a == b);
        }
    }

    #[test]
    fn nan_and_inf_survive_via_literal_path() {
        let mut data = smooth(1000);
        data[10] = f32::NAN;
        data[20] = f32::INFINITY;
        data[30] = f32::NEG_INFINITY;
        let c = compress(&data, ErrorBound::Abs(0.01));
        let d = decompress(&c).unwrap();
        assert!(d[10].is_nan());
        assert_eq!(d[20], f32::INFINITY);
        assert_eq!(d[30], f32::NEG_INFINITY);
    }

    #[test]
    fn partial_final_block_handled() {
        for n in [1usize, 255, 256, 257, 511, 513] {
            let data = smooth(n);
            check_bound(&data, 1e-3);
        }
    }

    #[test]
    fn batched_cost_model_matches_scalar_residual_bits() {
        // The dispatched kernel must reproduce `residual_bits` to the bit at
        // every lane position, including the NaN/Inf saturation cases.
        let bin = 0.02f64;
        let mut data = smooth(300);
        data[7] = f32::NAN;
        data[19] = f32::INFINITY;
        let mut preds = vec![0.0f32; data.len()];
        fedsz_simd::linear_preds(0.01, -0.3, 0, &mut preds);
        let mut costs = vec![0.0f64; data.len()];
        fedsz_simd::residual_costs(&data, &preds, bin, &mut costs);
        for i in 0..data.len() {
            let d = (data[i] as f64 - preds[i] as f64).abs();
            assert_eq!(costs[i].to_bits(), residual_bits(d, bin).to_bits(), "i={i}");
        }
    }

    // -----------------------------------------------------------------------
    // The fused decoder against a naive reference: all codes first, through
    // the per-symbol `decode`, then one block at a time with a fallible
    // literal read per element — the decoder this module had before the
    // group-fused one, kept as the oracle for outputs and errors.
    // -----------------------------------------------------------------------

    fn decode_payload_reference(payload: &[u8]) -> Result<Vec<f32>, CodecError> {
        let h = decode_header::<Sz2>(payload)?;
        let mut r = BitReader::new(h.bitstream);
        let dec = HuffmanDecoder::read_table(&mut r)?;
        let mut codes = Vec::new();
        for _ in 0..h.n {
            codes.push(dec.decode(&mut r)?);
        }

        let mut out = Vec::new();
        let mut lit_iter = h.literals.iter();
        let mut literal = || {
            lit_iter
                .next()
                .copied()
                .ok_or(CodecError::Corrupt("missing literal"))
        };
        for (block_codes, fit) in codes.chunks(BLOCK).zip(&h.predictor.fits) {
            if let &Some((a, b)) = fit {
                let mut preds = vec![0.0f32; block_codes.len()];
                fedsz_simd::linear_preds(a, b, 0, &mut preds);
                for (&pred, &code) in preds.iter().zip(block_codes) {
                    out.push(if code == 0 {
                        literal()?
                    } else {
                        h.q.reconstruct(pred, code)
                    });
                }
            } else {
                let mut prev = 0.0f32;
                for &code in block_codes {
                    prev = if code == 0 {
                        literal()?
                    } else {
                        h.q.reconstruct(prev, code)
                    };
                    out.push(prev);
                }
            }
        }
        Ok(out)
    }

    fn assert_matches_reference(payload: &[u8], ctx: &str) -> Result<Vec<f32>, CodecError> {
        assert_decodes_like::<Sz2>(decode_payload_reference, payload, ctx)
    }

    /// A payload as `compress` lays it out, from parts a test chooses:
    /// which blocks are regression blocks, the codes, and the literals (one
    /// per zero code, unless the test wants the stream short).
    fn assemble(regression: &[bool], codes: &[u32], literals: &[f32]) -> Vec<u8> {
        assert_eq!(regression.len(), codes.len().div_ceil(BLOCK));
        let mut rng = xorshift(0xC0EF);
        let mut side = vec![0u8; regression.len().div_ceil(8)];
        for (i, _) in regression.iter().enumerate().filter(|(_, &r)| r) {
            side[i / 8] |= 1 << (i % 8);
        }
        for _ in regression.iter().filter(|&&r| r) {
            let a = (rng() % 2001) as f32 * 1e-3 - 1.0;
            let b = (rng() % 2001) as f32 * 1e-1 - 100.0;
            side.extend_from_slice(&a.to_le_bytes());
            side.extend_from_slice(&b.to_le_bytes());
        }
        Parts::new(0.0125, regression.len(), side, literals.to_vec(), codes).lay_out()
    }

    /// Lengths around the block, lane-set and group boundaries.
    const BOUNDARY_LENGTHS: [usize; 10] = [
        1,
        255,
        256,
        257,
        LANES * BLOCK - 1,
        LANES * BLOCK + 1,
        GROUP - 1,
        GROUP,
        GROUP + 1,
        2 * GROUP + 3 * BLOCK + 17,
    ];

    /// Which blocks use the regression predictor.
    type Mix = (&'static str, fn(usize) -> bool);
    const BLOCK_MIXES: [Mix; 4] = [
        ("all Lorenzo", |_| false),
        ("all regression", |_| true),
        ("alternating", |b| b % 2 == 1),
        // Few Lorenzo blocks per group: never a full set of lanes.
        ("sparse Lorenzo", |b| b % GROUP_BLOCKS >= 3),
    ];

    #[test]
    fn fused_decode_matches_reference_for_every_block_mix_and_length() {
        for n in BOUNDARY_LENGTHS {
            for (name, pick) in BLOCK_MIXES {
                let regression: Vec<bool> = (0..n.div_ceil(BLOCK)).map(pick).collect();
                let codes = codes_with_escapes(n, n as u64, |i| i % 97 == 5);
                let payload = assemble(&regression, &codes, &literals_for(&codes));
                let out = assert_matches_reference(&payload, &format!("{name}, n = {n}"));
                assert_eq!(out.map(|v| v.len()), Ok(n), "{name}, n = {n}");
            }
        }
    }

    #[test]
    fn fused_decode_matches_reference_on_escapes_at_block_edges() {
        // Escapes in the first and last lane of blocks, and in the same
        // lanes of LANES neighbouring Lorenzo blocks at once, where the
        // interleaved chains all take the literal branch in the same step.
        let n = 3 * LANES * BLOCK + 100;
        let edge = |i: usize| matches!(i % BLOCK, 0 | 255) || i == n - 1;
        let together = |i: usize| (BLOCK..(LANES + 1) * BLOCK).contains(&i) && i % BLOCK == 77;
        for (name, pick) in [
            ("Lorenzo", (|_| false) as fn(usize) -> bool),
            ("regression", |_| true),
            ("alternating", |b| b % 2 == 0),
        ] {
            let regression: Vec<bool> = (0..n.div_ceil(BLOCK)).map(pick).collect();
            let codes = codes_with_escapes(n, 7, |i| edge(i) || together(i));
            let payload = assemble(&regression, &codes, &literals_for(&codes));
            assert_matches_reference(&payload, name).unwrap();
        }
        // A block of nothing but escapes.
        let codes = codes_with_escapes(2 * BLOCK + 9, 3, |i| i >= BLOCK);
        let payload = assemble(&[false, true, false], &codes, &literals_for(&codes));
        assert_matches_reference(&payload, "all-escape blocks").unwrap();
    }

    #[test]
    fn truncated_payloads_fail_like_the_reference() {
        let n = GROUP + 3 * BLOCK + 40;
        let regression: Vec<bool> = (0..n.div_ceil(BLOCK)).map(|b| b % 3 == 0).collect();
        let codes = codes_with_escapes(n, 23, |i| i % 31 == 0);
        let payload = assemble(&regression, &codes, &literals_for(&codes));
        assert_matches_reference(&payload, "intact").unwrap();
        // Cut anywhere — header, coefficients, literals, table, bitstream.
        let mut rng = xorshift(0x7A11);
        let cuts = (0..400).map(|_| (rng() % payload.len() as u64) as usize);
        for cut in cuts.chain(payload.len() - 64..payload.len()) {
            let ctx = format!("cut to {cut} of {}", payload.len());
            let got = assert_matches_reference(&payload[..cut], &ctx);
            assert!(got.is_err(), "{ctx} decoded");
        }
    }

    #[test]
    fn fused_decode_matches_reference_on_model_tensors() {
        // Every tensor of the benchmark's models at its bounds, seed 42: the
        // fused decoder reproduces the block-at-a-time decoder bit for bit.
        let cases = [
            (ModelKind::ResNet50, 1e-2),
            (ModelKind::MobileNetV2, 1e-4),
            (ModelKind::MobileNetV2, 1e-2),
            (ModelKind::AlexNet, 1e-3),
        ];
        on_model_tensors(&cases, 10, |data, eb, ctx| {
            let Some(payload) = payload_of(&compress(data, eb)) else {
                return false;
            };
            assert_matches_reference(&payload, ctx).unwrap();
            true
        });
    }

    // -----------------------------------------------------------------------
    // The group encoder against the encoder this module had before it: one
    // block at a time, two `Vec`s per block, every serial loop on its own,
    // the value range from an element-by-element scan, the histogram in a
    // pass of its own and one `encode` call per symbol. Kept as the oracle:
    // `compress` must reproduce its streams byte for byte.
    // -----------------------------------------------------------------------

    struct BlockOut {
        /// `Some((a, b))` if the block chose the regression predictor.
        regression: Option<(f32, f32)>,
        codes: Vec<u32>,
        literals: Vec<f32>,
    }

    fn compress_block(block: &[f32], q: &Quantizer) -> BlockOut {
        let bin = 2.0 * q.bound();
        let (a, b) = fit_regression(block);
        let n = block.len();

        let mut reg_preds = [0.0f32; BLOCK];
        let reg_preds = &mut reg_preds[..n];
        fedsz_simd::linear_preds(a, b, 0, reg_preds);
        let mut lor_preds = [0.0f32; BLOCK];
        lor_preds[1..n].copy_from_slice(&block[..n - 1]);

        let mut costs = [0.0f64; BLOCK];
        fedsz_simd::residual_costs(block, &lor_preds[..n], bin, &mut costs[..n]);
        let lorenzo_cost = costs[..n].iter().fold(0.0f64, |acc, &c| acc + c);
        fedsz_simd::residual_costs(block, reg_preds, bin, &mut costs[..n]);
        let regression_cost = costs[..n].iter().fold(64.0f64, |acc, &c| acc + c);

        let use_regression = regression_cost < lorenzo_cost;
        let mut codes = Vec::with_capacity(block.len());
        let mut literals = Vec::new();
        if use_regression {
            codes.resize(n, 0);
            let mut recons = [0.0f32; BLOCK];
            q.quantize_slice(block, reg_preds, &mut codes, &mut recons[..n]);
            for (&code, &v) in codes.iter().zip(block) {
                if code == 0 {
                    literals.push(v);
                }
            }
        } else {
            let mut prev = 0.0f32; // block-local Lorenzo: first element predicted by 0
            for &v in block {
                match q.quantize(v, prev) {
                    Some((code, recon)) => {
                        codes.push(code);
                        prev = recon;
                    }
                    None => {
                        codes.push(0);
                        literals.push(v);
                        prev = v;
                    }
                }
            }
        }
        BlockOut {
            regression: use_regression.then_some((a, b)),
            codes,
            literals,
        }
    }

    fn compress_reference(data: &[f32], eb: ErrorBound) -> Vec<u8> {
        let Some(abs_eb) = reference_bound(data, eb) else {
            return raw_by_hand(data);
        };
        let q = Quantizer::new(abs_eb);
        let blocks: Vec<BlockOut> = data.chunks(BLOCK).map(|b| compress_block(b, &q)).collect();

        let mut side = vec![0u8; blocks.len().div_ceil(8)];
        for (i, blk) in blocks.iter().enumerate() {
            if blk.regression.is_some() {
                side[i / 8] |= 1 << (i % 8);
            }
        }
        for (a, b) in blocks.iter().filter_map(|blk| blk.regression) {
            side.extend_from_slice(&a.to_le_bytes());
            side.extend_from_slice(&b.to_le_bytes());
        }
        let literals = blocks.iter().flat_map(|b| b.literals.clone()).collect();
        let codes: Vec<u32> = blocks.iter().flat_map(|b| b.codes.clone()).collect();
        Parts::new(abs_eb, blocks.len(), side, literals, &codes).stream(data)
    }

    /// `compress` == `compress_reference` on `data`; returns the stream.
    fn assert_encodes_like_reference(data: &[f32], eb: ErrorBound, ctx: &str) -> Vec<u8> {
        assert_encodes_like::<Sz2>(compress_reference, data, eb, ctx)
    }

    /// A block the cost model gives to the regression predictor (a ramp
    /// under a little noise) or to Lorenzo (a few slow waves: each value is
    /// near the last, and far from any line).
    fn block_for(regression: bool, len: usize, rng: &mut impl FnMut() -> u64) -> Vec<f32> {
        let noise = |rng: &mut dyn FnMut() -> u64| (rng() % 2001) as f32 * 1e-6 - 1e-3;
        let slope =
            (0.05 + (rng() % 100) as f32 * 1e-3) * if rng().is_multiple_of(2) { 1.0 } else { -1.0 };
        let phase = (rng() % 628) as f32 * 0.01;
        (0..len)
            .map(|i| {
                if regression {
                    slope * i as f32 + noise(rng)
                } else {
                    (i as f32 * 0.09 + phase).sin() * 20.0 + noise(rng)
                }
            })
            .collect()
    }

    fn tensor_for(n: usize, pick: fn(usize) -> bool, seed: u64) -> Vec<f32> {
        let mut rng = xorshift(seed);
        let mut data = Vec::with_capacity(n);
        for block in 0..n.div_ceil(BLOCK) {
            let len = BLOCK.min(n - data.len());
            data.extend(block_for(pick(block), len, &mut rng));
        }
        data
    }

    #[test]
    fn encoder_matches_reference_for_every_block_mix_and_length() {
        for n in BOUNDARY_LENGTHS {
            for (name, pick) in BLOCK_MIXES {
                let ctx = format!("{name}, n = {n}");
                let data = tensor_for(n, pick, n as u64 + 1);
                let stream = assert_encodes_like_reference(&data, ErrorBound::Abs(4e-3), &ctx);
                if n < 2 * BLOCK {
                    // The table outweighs a block or two: stored raw.
                    continue;
                }
                // The generator really produces the mix it is named for (a
                // short last block may go either way).
                let payload = payload_of(&stream).unwrap();
                let h = decode_header::<Sz2>(&payload).unwrap();
                for block in 0..n / BLOCK {
                    assert_eq!(
                        h.predictor.fits[block].is_some(),
                        pick(block),
                        "{ctx}, block {block}"
                    );
                }
            }
        }
    }

    #[test]
    fn encoder_matches_reference_on_escape_heavy_data() {
        // Outliers beyond the code book every few elements, in both kinds of
        // block, at the first and last lane of blocks, in the same lane of
        // neighbouring Lorenzo chains at once, and a block of nothing else.
        let n = GROUP + 3 * LANES * BLOCK + 100;
        for (name, pick) in BLOCK_MIXES {
            let mut data = tensor_for(n, pick, 99);
            let mut rng = xorshift(0xE5CA);
            for (i, v) in data.iter_mut().enumerate() {
                let edge = matches!(i % BLOCK, 0 | 255) && (i / BLOCK).is_multiple_of(3);
                let together = (BLOCK..(LANES + 1) * BLOCK).contains(&i) && i % BLOCK == 77;
                let solid = i / BLOCK == 20;
                if edge || together || solid || rng().is_multiple_of(5) {
                    *v = ((rng() % 2_000_001) as f32 - 1.0e6) * 3.0e3;
                }
            }
            let stream = assert_encodes_like_reference(&data, ErrorBound::Abs(1e-3), name);
            if let Some(payload) = payload_of(&stream) {
                let h = decode_header::<Sz2>(&payload).unwrap();
                assert!(
                    h.literals.len() > n / 6,
                    "{name}: {} literals",
                    h.literals.len()
                );
            }
            // The relative bound is wide here (the range is the outliers'),
            // so the same data also runs with almost no escapes.
            assert_encodes_like_reference(&data, ErrorBound::Rel(1e-4), name);
        }
    }

    #[test]
    fn encoder_matches_reference_on_hostile_floats() {
        let base = tensor_for(3 * LANES * BLOCK + 57, |b| b % 3 == 0, 5);
        let mut corpus = hostile_floats();
        // One special at a time at the block, lane-set and group edges, and
        // all of them sprinkled through.
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e-45] {
            let mut data = base.clone();
            for at in [0, 1, 255, 256, 257, SET - 1, SET, SET + 1, data.len() - 1] {
                data[at] = special;
            }
            corpus.push(("special at the edges", data));
        }
        let mut sprinkled = base.clone();
        let mut rng = xorshift(0xF10A7);
        for v in sprinkled.iter_mut() {
            match rng() % 40 {
                0 => *v = f32::NAN,
                1 => *v = f32::INFINITY,
                2 => *v = f32::NEG_INFINITY,
                3 => *v = -0.0,
                4 => *v = f32::from_bits((rng() % 0x7F_FFFF) as u32 + 1),
                _ => {}
            }
        }
        corpus.push(("sprinkled specials", sprinkled));

        for (name, data) in &corpus {
            for eb in [
                ErrorBound::Rel(1e-2),
                ErrorBound::Rel(1e-4),
                ErrorBound::Abs(1e-3),
                ErrorBound::Abs(0.0),
                ErrorBound::Abs(f64::NAN),
            ] {
                let stream = assert_encodes_like_reference(data, eb, &format!("{name}, {eb:?}"));
                // And it still decodes, to the right length.
                assert_eq!(
                    decompress(&stream).map(|d| d.len()),
                    Ok(data.len()),
                    "{name}, {eb:?}"
                );
            }
        }
    }

    /// Every tensor of the benchmark's three models, seed 42, at the three
    /// bounds of the paper: ~250 M elements through both encoders.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes without optimisation; CI runs it by name in release"
    )]
    fn encoder_matches_reference_on_model_tensors() {
        let models = [
            ModelKind::ResNet50,
            ModelKind::MobileNetV2,
            ModelKind::AlexNet,
        ];
        let cases = models.map(|kind| [1e-2, 1e-3, 1e-4].map(|rel| (kind, rel)));
        on_model_tensors(cases.as_flattened(), 7, |data, eb, ctx| {
            payload_of(&assert_encodes_like_reference(data, eb, ctx)).is_some()
        });
    }
}
