//! xz analogue: LZ77 with an exhaustive matcher + LZMA-style adaptive binary
//! range coding. Slowest codec in the suite, best ratio — the same design
//! point the real xz occupies in Table II.

use fedsz_entropy::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use fedsz_entropy::{varint, CodecError};

use crate::lz::{copy_match, literal_runs, sequences, slot_of, unslot, MatcherParams};

const LIT_CONTEXTS: usize = 8; // previous byte's top 3 bits
const SLOT_BITS: u32 = 5;

struct Models {
    is_match: BitModel,
    /// Per-context 8-bit bit-trees (255 internal nodes each; index 1..=255).
    literal: Vec<[BitModel; 256]>,
    len_slot: [BitModel; 1 << SLOT_BITS],
    dist_slot: [BitModel; 1 << SLOT_BITS],
}

impl Models {
    fn new() -> Self {
        Self {
            is_match: BitModel::new(),
            literal: vec![[BitModel::new(); 256]; LIT_CONTEXTS],
            len_slot: [BitModel::new(); 1 << SLOT_BITS],
            dist_slot: [BitModel::new(); 1 << SLOT_BITS],
        }
    }
}

#[inline]
fn ctx_of(prev_byte: u8) -> usize {
    (prev_byte >> 5) as usize
}

fn encode_tree(enc: &mut RangeEncoder, models: &mut [BitModel], nbits: u32, value: u32) {
    let mut m = 1usize;
    for i in (0..nbits).rev() {
        let bit = ((value >> i) & 1) as u8;
        enc.encode_bit(&mut models[m], bit);
        m = (m << 1) | bit as usize;
    }
}

fn decode_tree(dec: &mut RangeDecoder<'_>, models: &mut [BitModel], nbits: u32) -> u32 {
    let mut m = 1usize;
    for _ in 0..nbits {
        let bit = dec.decode_bit(&mut models[m]);
        m = (m << 1) | bit as usize;
    }
    (m as u32) - (1 << nbits)
}

/// Compress. Format: `[varint orig_len][u8 min_match][range-coded payload]`.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let params = MatcherParams::thorough();
    let seqs = sequences(data, &params);
    let mut models = Models::new();
    let mut enc = RangeEncoder::new();
    let mut prev_byte = 0u8;
    for (literals, seq) in literal_runs(data, &seqs) {
        for &b in literals {
            enc.encode_bit(&mut models.is_match, 0);
            let ctx = ctx_of(prev_byte);
            encode_tree(&mut enc, &mut models.literal[ctx], 8, b as u32);
            prev_byte = b;
        }
        if let Some(s) = seq {
            enc.encode_bit(&mut models.is_match, 1);
            let (ls, lbits, lextra) = slot_of(s.match_len - params.min_match as u32);
            encode_tree(&mut enc, &mut models.len_slot, SLOT_BITS, ls);
            enc.encode_direct(lextra, lbits);
            let (ds, dbits, dextra) = slot_of(s.dist - 1);
            encode_tree(&mut enc, &mut models.dist_slot, SLOT_BITS, ds);
            enc.encode_direct(dextra, dbits);
            // The literal context restarts after a match; the decoder
            // mirrors this exactly, and symmetry is what matters.
            prev_byte = 0;
        }
    }
    let payload = enc.finish();
    let mut out = Vec::with_capacity(payload.len() + 10);
    varint::write_usize(&mut out, data.len());
    out.push(params.min_match as u8);
    out.extend_from_slice(&payload);
    out
}

/// Decompress a [`compress`] buffer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let orig_len = varint::read_usize(data, &mut pos)?;
    let min_match = *data.get(pos).ok_or(CodecError::UnexpectedEof)? as u32;
    pos += 1;
    if orig_len == 0 {
        return Ok(Vec::new());
    }
    let mut dec = RangeDecoder::new(&data[pos..])?;
    let mut models = Models::new();
    // Capacity is a hint, not a trust decision: a hostile `orig_len` must
    // not force a huge up-front allocation, so cap the hint by a generous
    // multiple of the input size and let the Vec grow if a legitimate
    // stream really expands further.
    let mut out = Vec::with_capacity(orig_len.min(data.len().saturating_mul(256)));
    let mut prev_byte = 0u8;
    while out.len() < orig_len {
        // The loop is driven by the attacker-controlled `orig_len`; the
        // range coder synthesizes zero bytes past its input, so without
        // this check a huge claimed length decodes "literals" forever.
        if dec.exhausted() {
            return Err(CodecError::UnexpectedEof);
        }
        if dec.decode_bit(&mut models.is_match) == 0 {
            let ctx = ctx_of(prev_byte);
            let b = decode_tree(&mut dec, &mut models.literal[ctx], 8) as u8;
            out.push(b);
            prev_byte = b;
        } else {
            let ls = decode_tree(&mut dec, &mut models.len_slot, SLOT_BITS);
            let lextra = dec.decode_direct(ls);
            let len = (unslot(ls, lextra) + min_match) as usize;
            let ds = decode_tree(&mut dec, &mut models.dist_slot, SLOT_BITS);
            let dextra = dec.decode_direct(ds);
            let dist = (unslot(ds, dextra) + 1) as usize;
            if !copy_match(&mut out, dist, len, orig_len) {
                return Err(CodecError::Corrupt("bad xz match"));
            }
            prev_byte = 0;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
        c.len()
    }

    #[test]
    fn empty_and_small() {
        round_trip(b"");
        round_trip(b"z");
        round_trip(b"hello");
    }

    #[test]
    fn text_compresses_hard() {
        let data = b"federated learning with error bounded lossy compression ".repeat(200);
        let clen = round_trip(&data);
        assert!(clen < data.len() / 8, "{clen} vs {}", data.len());
    }

    #[test]
    fn beats_or_matches_plain_deflate_on_float_bytes() {
        let mut data = Vec::new();
        for i in 0..8000 {
            let v = ((i as f32) * 0.01).sin() * 0.1;
            data.extend_from_slice(&v.to_le_bytes());
        }
        let xz_len = round_trip(&data);
        let deflate_len =
            crate::deflate::compress(&data, &crate::lz::MatcherParams::deflate(), &[], usize::MAX)
                .unwrap()
                .len();
        assert!(
            xz_len <= deflate_len + deflate_len / 20,
            "xz {xz_len} vs deflate {deflate_len}"
        );
    }

    #[test]
    fn pseudorandom_round_trip() {
        let mut state = 7u64;
        let data: Vec<u8> = (0..30_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 48) as u8
            })
            .collect();
        let clen = round_trip(&data);
        assert!(clen <= data.len() + data.len() / 10 + 64);
    }

    #[test]
    fn truncated_payload_is_detected_or_bounded() {
        // Range-coded streams degrade to garbage bytes rather than EOF, so
        // decode must either error or produce exactly orig_len bytes.
        let data = b"abcabcabcabcabcabc".repeat(50);
        let mut c = compress(&data);
        c.truncate(c.len() / 2);
        if let Ok(out) = decompress(&c) {
            assert_eq!(out.len(), data.len());
        }
    }
}
