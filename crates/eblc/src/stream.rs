//! The two stream formats the codecs share (docs/FORMATS.md), each written
//! and read in exactly one place.
//!
//! **RAW mode**, `[0][varint n][n × f32 LE]`: what every codec emits for an
//! input it cannot or need not code — empty, a bound that is not positive and
//! finite, a coded stream that came out no smaller — and the first arm of
//! every decoder.
//!
//! **The SZ container**, `[1][zstd(payload)]`, or `[2][payload]` where the
//! Zstd analogue would save no more than zstd's own minimum gain (a 64th of
//! the payload and two bytes), so zstd would store it raw: SZ2 and SZ3
//! differ in their *predictor* only. The payload layout, the quantizer, the
//! Huffman stage, the lossless backend and, on the way back, every guard
//! against hostile bytes are the same and live here, generic over a
//! [`Predictor`] that turns a unit of values into quantization codes and
//! back. One call per unit of at least 4 096 elements, monomorphised: the
//! predictors' inner loops are reached as directly as when each codec
//! carried its own container.

use fedsz_entropy::bitio::{BitReader, BitWriter};
use fedsz_entropy::huffman::{HuffmanDecoder, HuffmanEncoder};
use fedsz_entropy::{reader, varint, CodecError};
use fedsz_lossless::zstd;

use crate::quantizer::{Quantizer, NUM_CODES};
use crate::ErrorBound;

/// Mode byte of a RAW stream, the same in all four codecs.
pub(crate) const MODE_RAW: u8 = 0;
/// Mode byte of an SZ2 or SZ3 stream that holds the container.
const MODE_SZ: u8 = 1;
/// Mode byte of an SZ2 or SZ3 stream that holds the container's payload
/// without the lossless backend.
const MODE_SZ_STORED: u8 = 2;

/// `data` stored losslessly.
pub(crate) fn raw_stream(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4 + 10);
    out.push(MODE_RAW);
    varint::write_usize(&mut out, data.len());
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Safety valve: `coded` unless the RAW stream of `data` would be no larger.
pub(crate) fn unless_raw_is_smaller(coded: Vec<u8>, data: &[f32]) -> Vec<u8> {
    if coded.len() >= data.len() * 4 + 10 {
        return raw_stream(data);
    }
    coded
}

/// Decode what follows the mode byte of a RAW stream.
pub(crate) fn read_raw(rest: &[u8]) -> Result<Vec<f32>, CodecError> {
    let mut pos = 0usize;
    let n = varint::read_usize(rest, &mut pos)?;
    let span = reader::claimed_span(n, 4, rest.len().saturating_sub(pos))?;
    let body = reader::take(rest, &mut pos, span)?;
    Ok(reader::f32s_from_le_bytes(body))
}

/// What distinguishes SZ2 from SZ3: how values are predicted from the ones
/// already coded, and the side info a decoder needs to predict alike. A
/// value holds that side info for one tensor, either as the encoder gathers
/// it unit by unit or as the decoder has parsed it.
pub(crate) trait Predictor: Sized {
    /// Elements per block; the header stores how many there are.
    const BLOCK: usize;
    /// Elements per unit, whole blocks: a unit's codes are quantized and
    /// counted, or Huffman-decoded and reconstructed, while they are in cache.
    const UNIT: usize;
    /// What a header claiming more elements than its stream can code is
    /// refused with (`tests/hostile_bitstreams.rs` pins SZ2's wording).
    const TOO_MANY_ELEMENTS: &'static str;

    /// For encoding a tensor of `blocks` blocks: no side info yet.
    fn new(blocks: usize) -> Self;

    /// Quantize the next unit into `codes`, one per element, and append the
    /// value behind every zero code, in code order, to `literals`.
    fn encode_unit(
        &mut self,
        values: &[f32],
        q: &Quantizer,
        codes: &mut [u32],
        literals: &mut Vec<f32>,
    );

    /// Append the side info of the units encoded.
    fn write_side_info(&self, payload: &mut Vec<u8>);

    /// For decoding a tensor of `blocks` blocks: the side info parsed from
    /// `payload[*pos..]`.
    fn read_side_info(blocks: usize, payload: &[u8], pos: &mut usize) -> Result<Self, CodecError>;

    /// Reconstruct unit `index` into `out` from its codes, taking the value
    /// behind each zero code off the front of `literals` ([`take_literals`]).
    fn decode_unit(
        &mut self,
        index: usize,
        codes: &[u32],
        literals: &mut &[f32],
        q: &Quantizer,
        out: &mut [f32],
    ) -> Result<(), CodecError>;
}

/// Split the literals of `codes`, one per zero code, off the front of
/// `literals`.
///
/// Handing a reconstruct loop its own checked sub-slice keeps every literal
/// read in range, so the loops carry no per-element `Result`. A predictor
/// calls this for as many codes as it is about to read anyway: the count is
/// a pass over them, free while they are in L1 and 4–6 % of SZ2's decode time
/// when made over a whole 64 KB group ahead of its blocks.
pub(crate) fn take_literals<'a>(
    literals: &mut &'a [f32],
    codes: &[u32],
) -> Result<&'a [f32], CodecError> {
    let zeros = codes.iter().filter(|&&c| c == 0).count();
    let (taken, rest) = literals
        .split_at_checked(zeros)
        .ok_or(CodecError::Corrupt("missing literal"))?;
    *literals = rest;
    Ok(taken)
}

/// Compress `data` under `eb` with predictor `P`. Self-contained byte stream.
pub(crate) fn compress<P: Predictor>(data: &[f32], eb: ErrorBound) -> Vec<u8> {
    let abs_eb = eb.absolute(data);
    let eb_valid = abs_eb.is_finite() && abs_eb > 0.0;
    if data.is_empty() || !eb_valid {
        // Constant/degenerate data or a non-positive bound: store losslessly.
        return raw_stream(data);
    }
    let q = Quantizer::new(abs_eb);
    let blocks = data.len().div_ceil(P::BLOCK);

    // ---- quantize, a unit at a time ----
    let mut predictor = P::new(blocks);
    let mut codes = vec![0u32; data.len()];
    let mut literals = Vec::new();
    let mut freqs = vec![0u64; NUM_CODES];
    // Least and greatest quantization code, escapes (code 0) aside: the
    // Huffman build reads the counts of those codes and of code 0 only.
    // Held with the top bit flipped, as `i16`: codes are below 2^16, the
    // flip makes their order signed, and SSE2's 16-bit min and max then
    // fold them several at a time.
    let (mut least, mut greatest) = (i16::MAX, i16::MIN);
    for (values, codes) in data.chunks(P::UNIT).zip(codes.chunks_mut(P::UNIT)) {
        predictor.encode_unit(values, &q, codes, &mut literals);
        // The unit's codes are still in cache. The extremes are a loop of
        // their own, which vectorizes; beside the counts they would be a
        // chain of dependent compares.
        for &code in codes.iter() {
            freqs[code as usize] += 1;
        }
        for &code in codes.iter() {
            // Code 0 less one wraps to the top, where it lowers nothing.
            least = least.min((code.wrapping_sub(1) as u16 ^ 0x8000) as i16);
            greatest = greatest.max((code as u16 ^ 0x8000) as i16);
        }
    }
    let unflip = |code: i16| usize::from(code as u16 ^ 0x8000);
    let quantized = unflip(least) + 1..unflip(greatest) + 1;

    // ---- assemble payload, behind the mode byte that stores it as it is ----
    let mut payload = Vec::with_capacity(data.len() / 2 + 64);
    payload.push(MODE_SZ_STORED);
    varint::write_usize(&mut payload, data.len());
    payload.extend_from_slice(&abs_eb.to_le_bytes());
    varint::write_usize(&mut payload, blocks);
    predictor.write_side_info(&mut payload);
    varint::write_usize(&mut payload, literals.len());
    for v in &literals {
        payload.extend_from_slice(&v.to_le_bytes());
    }

    // Huffman-coded quantization codes.
    let enc = HuffmanEncoder::from_frequencies_in(&freqs, &[0..1, quantized]);
    let mut w = BitWriter::with_capacity(data.len() / 2);
    enc.write_table(&mut w);
    enc.encode_run(&mut w, &codes);
    payload.extend_from_slice(&w.finish());

    // ---- lossless backend (Zstd analogue, as in SZ2), where it pays ----
    let stream = match backend_if_it_pays(&payload[1..]) {
        Some(backend) => [&[MODE_SZ][..], &backend].concat(),
        None => payload,
    };
    unless_raw_is_smaller(stream, data)
}

/// The Zstd analogue's stream of `payload`, if it saves more than zstd's
/// `ZSTD_minGain` at its fast strategies, a 64th of the payload and two
/// bytes: zstd stores a block that saves less raw. The rule is handed to
/// the backend as a length limit, so a stream it would not keep is priced
/// and never written.
fn backend_if_it_pays(payload: &[u8]) -> Option<Vec<u8>> {
    let len = payload.len();
    // `backend + len / 64 + 2 < len`, solved for the backend's length.
    zstd::compress_within(payload, len.checked_sub(len / 64 + 3)?)
}

/// Decompress a [`compress`] stream of the same predictor.
pub(crate) fn decompress<P: Predictor>(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
    let (&mode, rest) = bytes.split_first().ok_or(CodecError::UnexpectedEof)?;
    match mode {
        MODE_RAW => read_raw(rest),
        MODE_SZ => decode_payload::<P>(&zstd::decompress(rest)?),
        MODE_SZ_STORED => decode_payload::<P>(rest),
        _ => Err(CodecError::Corrupt("unknown SZ mode")),
    }
}

/// Everything in the payload ahead of the Huffman bitstream.
pub(crate) struct Header<'a, P> {
    pub(crate) n: usize,
    pub(crate) q: Quantizer,
    pub(crate) predictor: P,
    pub(crate) literals: Vec<f32>,
    /// Huffman table followed by the `n` coded symbols.
    pub(crate) bitstream: &'a [u8],
}

pub(crate) fn decode_header<P: Predictor>(payload: &[u8]) -> Result<Header<'_, P>, CodecError> {
    let mut pos = 0usize;
    let n = varint::read_usize(payload, &mut pos)?;
    // A stream of L bytes cannot code more than 8·L elements (every code is
    // at least one bit). `n` alone sizes nothing in any case: it only caps
    // a reservation made from what the bitstream has really coded.
    if n > payload.len().saturating_mul(8) {
        return Err(CodecError::Corrupt(P::TOO_MANY_ELEMENTS));
    }
    let abs_eb = reader::read_f64_le(payload, &mut pos)?;
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(CodecError::Corrupt("invalid SZ error bound"));
    }

    let blocks = varint::read_usize(payload, &mut pos)?;
    if blocks != n.div_ceil(P::BLOCK) {
        return Err(CodecError::Corrupt("SZ block count mismatch"));
    }
    let predictor = P::read_side_info(blocks, payload, &mut pos)?;

    let n_literals = varint::read_usize(payload, &mut pos)?;
    let lit_span = reader::claimed_span(n_literals, 4, payload.len().saturating_sub(pos))?;
    let literals = reader::f32s_from_le_bytes(reader::take(payload, &mut pos, lit_span)?);
    Ok(Header {
        n,
        q: Quantizer::new(abs_eb),
        predictor,
        literals,
        bitstream: payload.get(pos..).ok_or(CodecError::UnexpectedEof)?,
    })
}

/// Output capacity for a decode whose first `decoded` symbols took
/// `spent_bits` of the bitstream with `left_bits` to go: the rest at that
/// density and an eighth more, capped by the header's `claimed` count.
///
/// The claim alone may be 8× the payload bytes and is attacker-set; the
/// density is what the stream has really delivered. An exact reservation
/// matters: an output grown by doubling is copied as it grows and holds up
/// to twice its length, which the server's resident set shows.
fn decode_capacity(claimed: usize, decoded: usize, spent_bits: usize, left_bits: usize) -> usize {
    let density = decoded as f64 / spent_bits.max(1) as f64;
    let projected = (left_bits as f64 * density * 1.125) as usize;
    claimed.min(decoded.saturating_add(projected))
}

/// Fused decode: per unit, Huffman-decode into a fixed scratch, then
/// reconstruct the unit into an output that has grown by exactly that many
/// elements.
fn decode_payload<P: Predictor>(payload: &[u8]) -> Result<Vec<f32>, CodecError> {
    let mut h = decode_header::<P>(payload)?;
    let mut literals = h.literals.as_slice();
    let mut r = BitReader::new(h.bitstream);
    let dec = HuffmanDecoder::read_table_for(&mut r, h.n)?;
    let table_bits = r.bits_consumed();

    let mut scratch = vec![0u32; P::UNIT];
    let mut out: Vec<f32> = Vec::new();
    for index in 0..h.n.div_ceil(P::UNIT) {
        let start = out.len();
        let codes = &mut scratch[..(h.n - start).min(P::UNIT)];
        dec.decode_run(&mut r, codes)?;
        if start == 0 {
            let spent_bits = r.bits_consumed();
            let left_bits = h.bitstream.len().saturating_mul(8);
            out.reserve_exact(decode_capacity(
                h.n,
                codes.len(),
                spent_bits - table_bits,
                left_bits.saturating_sub(spent_bits),
            ));
        }
        out.resize(start.saturating_add(codes.len()), 0.0);
        let fresh = &mut out[start..];
        h.predictor
            .decode_unit(index, codes, &mut literals, &h.q, fresh)?;
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sz2::Sz2;
    use crate::sz3::Sz3;
    use crate::{value_range, LossyKind};

    // -----------------------------------------------------------------------
    // Helpers the tests of `sz2` and `sz3` share with the ones below.
    // -----------------------------------------------------------------------

    pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    pub(crate) fn smooth(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.003).sin() + 0.2 * ((i as f32) * 0.017).cos())
            .collect()
    }

    /// Round-trip `data` through `kind` under a relative bound, check the
    /// bound at every element and return the compression ratio.
    pub(crate) fn check_bound(kind: LossyKind, data: &[f32], rel: f64) -> f64 {
        let c = kind.compress(data, ErrorBound::Rel(rel));
        let d = kind.decompress(&c).unwrap();
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

    /// Decoded values as bit patterns: NaNs compare equal to themselves.
    fn bits(decoded: Result<Vec<f32>, CodecError>) -> Result<Vec<u32>, CodecError> {
        decoded.map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    /// The payload inside a stream that holds the container; `None` for a
    /// RAW one.
    pub(crate) fn payload_of(stream: &[u8]) -> Option<Vec<u8>> {
        match stream[0] {
            MODE_SZ => Some(zstd::decompress(&stream[1..]).unwrap()),
            MODE_SZ_STORED => Some(stream[1..].to_vec()),
            _ => None,
        }
    }

    /// RAW mode laid out by hand, for the reference encoders and the tests
    /// of [`raw_stream`].
    pub(crate) fn raw_by_hand(data: &[f32]) -> Vec<u8> {
        let mut out = vec![0u8];
        varint::write_usize(&mut out, data.len());
        out.extend(data.iter().flat_map(|v| v.to_le_bytes()));
        out
    }

    /// The fields of a payload, for the by-hand layout every oracle and
    /// hostile test shares: no call into the code above, so the format stays
    /// pinned by code that does not change with it.
    #[derive(Clone)]
    pub(crate) struct Parts {
        pub(crate) n: usize,
        pub(crate) abs_eb: f64,
        pub(crate) blocks: usize,
        pub(crate) side: Vec<u8>,
        /// The literal count the header states; `literals` are those stored.
        pub(crate) claimed_literals: usize,
        pub(crate) literals: Vec<f32>,
        pub(crate) bitstream: Vec<u8>,
    }

    impl Parts {
        /// Honest parts: the literal count is the literals', the bitstream a
        /// Huffman table and then one `encode` call per code.
        pub(crate) fn new(
            abs_eb: f64,
            blocks: usize,
            side: Vec<u8>,
            literals: Vec<f32>,
            codes: &[u32],
        ) -> Parts {
            let mut freqs = vec![0u64; NUM_CODES];
            for &c in codes {
                freqs[c as usize] += 1;
            }
            let enc = HuffmanEncoder::from_frequencies(&freqs);
            let mut w = BitWriter::new();
            enc.write_table(&mut w);
            for &c in codes {
                enc.encode(&mut w, c);
            }
            Parts {
                n: codes.len(),
                abs_eb,
                blocks,
                side,
                claimed_literals: literals.len(),
                literals,
                bitstream: w.finish(),
            }
        }

        pub(crate) fn lay_out(&self) -> Vec<u8> {
            let mut payload = Vec::new();
            varint::write_usize(&mut payload, self.n);
            payload.extend_from_slice(&self.abs_eb.to_le_bytes());
            varint::write_usize(&mut payload, self.blocks);
            payload.extend_from_slice(&self.side);
            varint::write_usize(&mut payload, self.claimed_literals);
            payload.extend(self.literals.iter().flat_map(|v| v.to_le_bytes()));
            payload.extend_from_slice(&self.bitstream);
            payload
        }

        /// The stream around the payload: the backend behind mode 1 where
        /// it saves more than a 64th of the payload and two bytes, else the
        /// payload behind mode 2, and the RAW stream of `data` instead if
        /// that is no larger.
        pub(crate) fn stream(&self, data: &[f32]) -> Vec<u8> {
            let payload = self.lay_out();
            let backend = zstd::compress(&payload);
            let out = if backend.len() + payload.len() / 64 + 2 < payload.len() {
                [vec![1u8], backend].concat()
            } else {
                [vec![2u8], payload].concat()
            };
            if out.len() >= data.len() * 4 + 10 {
                return raw_by_hand(data);
            }
            out
        }
    }

    /// The absolute bound the reference encoders code `data` under, from an
    /// element-by-element range scan; `None` where they store it raw.
    pub(crate) fn reference_bound(data: &[f32], eb: ErrorBound) -> Option<f64> {
        let abs_eb = match eb {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => rel * crate::value_range_scalar(data),
        };
        (!data.is_empty() && abs_eb.is_finite() && abs_eb > 0.0).then_some(abs_eb)
    }

    /// `n` codes near the centre of the code book with a far one now and
    /// then, and a zero (an escape) wherever `escape` says so.
    pub(crate) fn codes_with_escapes(
        n: usize,
        seed: u64,
        escape: impl Fn(usize) -> bool,
    ) -> Vec<u32> {
        let centre = NUM_CODES as u64 / 2;
        let mut rng = xorshift(seed);
        (0..n)
            .map(|i| match rng() % 64 {
                _ if escape(i) => 0,
                0 => 1 + (rng() % (NUM_CODES as u64 - 1)) as u32,
                r => (centre + r % 9) as u32 - 4,
            })
            .collect()
    }

    /// One literal per zero code: NaN, the infinities, outliers, ordinary
    /// values.
    pub(crate) fn literals_for(codes: &[u32]) -> Vec<f32> {
        let pool = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e30,
            -3.5e-9,
            0.25,
        ];
        let zeros = codes.iter().filter(|&&c| c == 0).count();
        (0..zeros).map(|i| pool[i % pool.len()]).collect()
    }

    /// Inputs that are all special cases, for the encoders' identity tests;
    /// every one still has to decode to its own length.
    pub(crate) fn hostile_floats() -> Vec<(&'static str, Vec<f32>)> {
        vec![
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
        ]
    }

    /// Run `check`, which says whether it saw the tensor coded rather than
    /// stored raw, on every tensor of each model (10 classes, seed 42) at each
    /// relative bound; every model and bound must code more than `coded_over`.
    pub(crate) fn on_model_tensors(
        cases: &[(fedsz_models::ModelKind, f64)],
        coded_over: usize,
        check: impl Fn(&[f32], ErrorBound, &str) -> bool,
    ) {
        for &(kind, rel) in cases {
            let model = kind.synthesize(10, 42);
            let mut coded = 0usize;
            for entry in model.entries() {
                let ctx = format!("{} {rel:e} {}", kind.name(), entry.name);
                coded += usize::from(check(entry.tensor.data(), ErrorBound::Rel(rel), &ctx));
            }
            let name = kind.name();
            assert!(coded > coded_over, "{name} {rel:e}: {coded} coded tensors");
        }
    }

    /// The fused decoder of `P` against `reference` on `payload`: the same
    /// values bit for bit, or the same error. Returns what they agree on.
    pub(crate) fn assert_decodes_like<P: Predictor>(
        reference: fn(&[u8]) -> Result<Vec<f32>, CodecError>,
        payload: &[u8],
        ctx: &str,
    ) -> Result<Vec<f32>, CodecError> {
        let fused = decode_payload::<P>(payload);
        assert_eq!(bits(fused.clone()), bits(reference(payload)), "{ctx}");
        fused
    }

    /// `compress` of `P` against `reference` on `data`: the same stream byte
    /// for byte. Returns it.
    pub(crate) fn assert_encodes_like<P: Predictor>(
        reference: fn(&[f32], ErrorBound) -> Vec<u8>,
        data: &[f32],
        eb: ErrorBound,
        ctx: &str,
    ) -> Vec<u8> {
        let stream = compress::<P>(data, eb);
        // Compared as a flag first: a mismatch in a 10 MB stream should not
        // be printed.
        let same = stream == reference(data, eb);
        assert!(same, "{ctx}: stream differs from the reference encoder's");
        stream
    }

    // -----------------------------------------------------------------------
    // RAW mode and the mode byte, through all five codecs.
    // -----------------------------------------------------------------------

    #[test]
    fn raw_mode_round_trips_through_every_codec() {
        let mut data = smooth(100);
        data[3] = f32::NAN;
        data[50] = f32::NEG_INFINITY;
        let by_hand = raw_by_hand(&data);
        assert_eq!(raw_stream(&data), by_hand);
        for kind in LossyKind::all() {
            let name = kind.name();
            assert_eq!(
                bits(kind.decompress(&by_hand)),
                bits(Ok(data.clone())),
                "{name}"
            );
            // Every proper prefix is an error, never a shorter tensor.
            for cut in 0..by_hand.len() {
                assert!(
                    kind.decompress(&by_hand[..cut]).is_err(),
                    "{name} cut {cut}"
                );
            }
            // What each encoder does not code it stores this way.
            assert_eq!(
                kind.compress(&[], ErrorBound::Rel(1e-2)),
                raw_by_hand(&[]),
                "{name}"
            );
            if kind != LossyKind::Zfp {
                // (ZFP reads a zero bound as its highest precision.)
                assert_eq!(
                    kind.compress(&data, ErrorBound::Abs(0.0)),
                    by_hand,
                    "{name}"
                );
                let constant = [3.0f32; 500];
                assert_eq!(
                    kind.compress(&constant, ErrorBound::Rel(1e-2)),
                    raw_by_hand(&constant),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn a_coded_stream_no_smaller_than_raw_is_stored_raw() {
        let tiny = [0.37f32];
        for (kind, eb) in [
            // The Huffman table outweighs one code.
            (LossyKind::Sz2, ErrorBound::Abs(1e-3)),
            (LossyKind::Sz3, ErrorBound::Abs(1e-3)),
            // 28 bit planes of five bits each.
            (LossyKind::Zfp, ErrorBound::Rel(1e-9)),
        ] {
            let name = kind.name();
            assert_eq!(kind.compress(&tiny, eb), raw_by_hand(&tiny), "{name}");
        }
        let coded = vec![7u8; 14];
        assert_eq!(
            unless_raw_is_smaller(coded.clone(), &tiny),
            raw_by_hand(&tiny)
        );
        assert_eq!(
            unless_raw_is_smaller(coded[..13].to_vec(), &tiny),
            coded[..13]
        );
    }

    #[test]
    fn the_backend_stays_only_where_it_saves_more_than_zstds_min_gain() {
        // Noise Huffman-codes to bytes the backend cannot shrink by a 64th;
        // a flat run codes to one repeated symbol, which it can. The payload
        // is the same either way, and the other mode decodes to the same
        // values.
        let mut rng = xorshift(0x5EED_057D);
        let noise: Vec<f32> = (0..20_000).map(|_| (rng() % 1_000) as f32).collect();
        let mut flat = noise[..2_000].to_vec();
        flat.resize(20_000, 3.0);
        fn check<P: Predictor>(data: &[f32], mode: u8, ctx: &str) {
            let stream = compress::<P>(data, ErrorBound::Rel(1e-3));
            assert_eq!(stream[0], mode, "{ctx}");
            let payload = payload_of(&stream).unwrap();
            let backend = zstd::compress(&payload);
            let saved = payload.len().saturating_sub(backend.len());
            assert_eq!(saved > payload.len() / 64 + 2, mode == MODE_SZ, "{ctx}");
            let other = match mode {
                MODE_SZ => [&[MODE_SZ_STORED][..], &payload].concat(),
                _ => [&[MODE_SZ][..], &backend].concat(),
            };
            let (got, want) = (decompress::<P>(&other), decompress::<P>(&stream));
            assert_eq!(bits(got), bits(want), "{ctx}");
        }
        for (name, data, mode) in [("noise", &noise, MODE_SZ_STORED), ("flat", &flat, MODE_SZ)] {
            check::<Sz2>(data, mode, &format!("SZ2 {name}"));
            check::<Sz3>(data, mode, &format!("SZ3 {name}"));
        }
    }

    #[test]
    fn the_backend_limit_keeps_exactly_what_compress_then_compare_keeps() {
        use fedsz_lossless::LosslessKind;
        let compare = |payload: &[u8]| {
            let backend = zstd::compress(payload);
            let len = payload.len();
            (backend.len() + len / 64 + 2 < len).then_some(backend)
        };
        // Real payloads of both predictors: MobileNetV2's tensors at a tight
        // bound (mostly kept) and a loose one (mostly stored), and payloads
        // too short for any backend stream to pay.
        let model = fedsz_models::ModelKind::MobileNetV2.synthesize(10, 42);
        let mut payloads: Vec<(String, Vec<u8>)> = (0..4usize)
            .map(|n| (format!("{n} bytes"), vec![9u8; n]))
            .collect();
        for entry in model.entries().iter().step_by(5).take(24) {
            for rel in [1e-4, 1e-2] {
                let data = entry.tensor.data();
                for (codec, stream) in [
                    ("SZ2", compress::<Sz2>(data, ErrorBound::Rel(rel))),
                    ("SZ3", compress::<Sz3>(data, ErrorBound::Rel(rel))),
                ] {
                    if let Some(payload) = payload_of(&stream) {
                        payloads.push((format!("{codec} {rel:e} {}", entry.name), payload));
                    }
                }
            }
        }
        let kept = payloads
            .iter()
            .filter(|(_, p)| compare(p).is_some())
            .count();
        let stored = payloads.len() - kept;
        assert!(kept >= 4 && stored >= 4, "{kept} kept, {stored} stored");
        for (ctx, payload) in &payloads {
            assert_eq!(backend_if_it_pays(payload), compare(payload), "{ctx}");
            // The other deflate-family profiles on the same payloads: each
            // encode asserts (debug) that it wrote the length it priced.
            for kind in [LosslessKind::Zlib, LosslessKind::Gzip] {
                let back = kind.decompress(&kind.compress(payload));
                assert_eq!(back.as_ref(), Ok(payload), "{ctx}, {}", kind.name());
            }
        }
    }

    #[test]
    fn unknown_modes_empty_and_truncated_streams_are_errors() {
        let data = smooth(5000);
        for kind in LossyKind::all() {
            let name = kind.name();
            let mut c = kind.compress(&data, ErrorBound::Rel(1e-3));
            assert_eq!(
                kind.decompress(&c).map(|d| d.len()),
                Ok(data.len()),
                "{name}"
            );
            assert!(kind.decompress(&c[..c.len() / 2]).is_err(), "{name}");
            assert!(kind.decompress(&c[..c.len() / 3]).is_err(), "{name}");
            c[0] = 99;
            assert!(kind.decompress(&c).is_err(), "{name}");
            assert!(kind.decompress(&[]).is_err(), "{name}");
        }
    }

    // -----------------------------------------------------------------------
    // The container's guards, for both predictors from one table.
    // -----------------------------------------------------------------------

    /// A predictor as the guards see it.
    struct Case {
        name: &'static str,
        decode: fn(&[u8]) -> Result<Vec<f32>, CodecError>,
        block: usize,
        unit: usize,
        /// Side info for `blocks` blocks that is valid whatever the codes.
        side: fn(usize) -> Vec<u8>,
        too_many: &'static str,
    }

    fn case<P: Predictor>(name: &'static str, side: fn(usize) -> Vec<u8>) -> Case {
        Case {
            name,
            decode: decode_payload::<P>,
            block: P::BLOCK,
            unit: P::UNIT,
            side,
            too_many: P::TOO_MANY_ELEMENTS,
        }
    }

    fn cases() -> [Case; 4] {
        [
            case::<Sz2>("SZ2, Lorenzo blocks", |blocks| vec![0; blocks.div_ceil(8)]),
            case::<Sz2>("SZ2, regression blocks", |blocks| {
                let mut side = vec![0xFF; blocks.div_ceil(8)];
                for _ in 0..blocks {
                    side.extend_from_slice(&0.001f32.to_le_bytes());
                    side.extend_from_slice(&(-0.5f32).to_le_bytes());
                }
                side
            }),
            case::<Sz3>("SZ3, linear levels", |blocks| vec![0; 2 * blocks]),
            case::<Sz3>("SZ3, cubic levels", |blocks| vec![0xFF; 2 * blocks]),
        ]
    }

    /// An honest payload of `n` elements for `case`: an escape every fiftieth
    /// element and in the last place, so that every unit before the last
    /// decodes in full before a short literal section is noticed.
    fn honest(case: &Case, n: usize) -> Parts {
        let codes = codes_with_escapes(n, n as u64, |i| i % 50 == 49 || i == n - 1);
        let blocks = n.div_ceil(case.block);
        let side = (case.side)(blocks);
        Parts::new(0.0125, blocks, side, literals_for(&codes), &codes)
    }

    #[test]
    fn every_header_guard_refuses_for_both_predictors() {
        use CodecError::{Corrupt, UnexpectedEof};
        type Falsify = fn(&mut Parts);
        const BOUND: CodecError = Corrupt("invalid SZ error bound");
        const BLOCKS: CodecError = Corrupt("SZ block count mismatch");
        const LITERAL: CodecError = Corrupt("missing literal");
        let guards: [(&str, Falsify, CodecError); 10] = [
            ("NaN bound", |p| p.abs_eb = f64::NAN, BOUND),
            ("infinite bound", |p| p.abs_eb = f64::INFINITY, BOUND),
            ("zero bound", |p| p.abs_eb = 0.0, BOUND),
            ("negative bound", |p| p.abs_eb = -0.0125, BOUND),
            ("a block too many", |p| p.blocks += 1, BLOCKS),
            ("a block too few", |p| p.blocks -= 1, BLOCKS),
            (
                "literal count beyond the stream",
                |p| p.claimed_literals = 1 << 40,
                UnexpectedEof,
            ),
            (
                "literal count beyond usize",
                |p| p.claimed_literals = usize::MAX,
                Corrupt("element count overflows"),
            ),
            (
                "one literal short",
                |p| {
                    p.literals.pop();
                    p.claimed_literals -= 1;
                },
                LITERAL,
            ),
            (
                "no literals at all",
                |p| {
                    p.literals.clear();
                    p.claimed_literals = 0;
                },
                LITERAL,
            ),
        ];
        for case in &cases() {
            for n in [100, case.unit + 5 * case.block + 7] {
                let ctx = format!("{}, n = {n}", case.name);
                let honest = honest(case, n);
                let decoded = (case.decode)(&honest.lay_out());
                assert_eq!(decoded.map(|v| v.len()), Ok(n), "{ctx}");

                // More elements than the payload has bits: each predictor
                // refuses in its own words.
                let mut parts = honest.clone();
                parts.n = 1 << 40;
                let got = (case.decode)(&parts.lay_out());
                assert_eq!(got, Err(Corrupt(case.too_many)), "{ctx}");

                for (what, falsify, want) in &guards {
                    let mut parts = honest.clone();
                    falsify(&mut parts);
                    let got = (case.decode)(&parts.lay_out());
                    assert_eq!(got, Err(want.clone()), "{ctx}: {what}");
                }
            }
        }
    }

    #[test]
    fn a_payload_cut_at_any_byte_is_an_error() {
        for case in &cases() {
            let payload = honest(case, case.block + 44).lay_out();
            for cut in 0..payload.len() {
                assert!(
                    (case.decode)(&payload[..cut]).is_err(),
                    "{}: cut to {cut} of {} decoded",
                    case.name,
                    payload.len()
                );
            }
        }
    }

    #[test]
    fn decode_capacity_follows_the_stream_not_the_claim() {
        // An honest stream at a steady three bits per symbol: the claim caps
        // the eighth of slack, so the reservation is exact.
        assert_eq!(decode_capacity(100_000, 16_384, 49_152, 250_848), 100_000);
        // The same first group with nothing behind it, under a claim of 8×
        // a megabyte payload: one group is all that is reserved.
        assert_eq!(decode_capacity(8 << 20, 16_384, 49_152, 0), 16_384);
        assert_eq!(decode_capacity(8 << 20, 16_384, 49_152, 3_000), 17_509);
        // Degenerate inputs neither divide by zero nor overflow.
        assert_eq!(decode_capacity(10, 0, 0, usize::MAX), 0);
        assert_eq!(decode_capacity(usize::MAX, 1, 0, usize::MAX), usize::MAX);
    }
}
