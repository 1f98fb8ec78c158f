//! Deflate-style entropy coding of LZ77 sequences: a literal/length Huffman
//! alphabet plus a distance alphabet, with power-of-two "slots" carrying
//! extra raw bits. Shared by the zlib, gzip, and zstd analogue codecs.

use fedsz_entropy::bitio::{BitReader, BitWriter};
use fedsz_entropy::huffman::{HuffmanDecoder, HuffmanEncoder};
use fedsz_entropy::{varint, CodecError};

use crate::lz::{copy_match, literal_runs, sequences, slot_of, unslot, MatcherParams, Sequence};

/// End-of-block symbol in the literal/length alphabet.
const EOB: u32 = 256;
/// First match-length slot symbol.
const LEN_BASE: u32 = 257;
/// Number of length slots (lengths up to 2^32 would need 32; our max match
/// is 2^12 so 16 is ample, but keep 32 for safety).
const LEN_SLOTS: u32 = 32;
/// Number of distance slots.
const DIST_SLOTS: u32 = 32;

/// Compress `data` with the given matcher profile. Self-contained format:
/// `[varint orig_len][min_match u8][bit-packed tables + tokens]`.
pub(crate) fn compress(data: &[u8], params: &MatcherParams) -> Vec<u8> {
    encode(data, &sequences(data, params), params.min_match)
}

/// Entropy-code `seqs` over `data`; literal bytes are counted and coded
/// straight from the input slice.
fn encode(data: &[u8], seqs: &[Sequence], min_match: usize) -> Vec<u8> {
    let mut lit_freq = vec![0u64; (LEN_BASE + LEN_SLOTS) as usize];
    let mut dist_freq = vec![0u64; DIST_SLOTS as usize];
    for (literals, seq) in literal_runs(data, seqs) {
        for &b in literals {
            lit_freq[b as usize] += 1;
        }
        if let Some(s) = seq {
            let (ls, _, _) = slot_of(s.match_len - min_match as u32);
            lit_freq[(LEN_BASE + ls) as usize] += 1;
            let (ds, _, _) = slot_of(s.dist - 1);
            dist_freq[ds as usize] += 1;
        }
    }
    lit_freq[EOB as usize] = 1;

    let lit_enc = HuffmanEncoder::from_frequencies(&lit_freq);
    let dist_enc = HuffmanEncoder::from_frequencies(&dist_freq);

    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    varint::write_usize(&mut out, data.len());
    out.push(min_match as u8);

    let mut w = BitWriter::with_capacity(data.len() / 2);
    lit_enc.write_table(&mut w);
    dist_enc.write_table(&mut w);
    for (literals, seq) in literal_runs(data, seqs) {
        for &b in literals {
            lit_enc.encode(&mut w, b as u32);
        }
        if let Some(s) = seq {
            let (ls, lbits, lextra) = slot_of(s.match_len - min_match as u32);
            lit_enc.encode(&mut w, LEN_BASE + ls);
            w.write_bits(lextra as u64, lbits);
            let (ds, dbits, dextra) = slot_of(s.dist - 1);
            dist_enc.encode(&mut w, ds);
            w.write_bits(dextra as u64, dbits);
        }
    }
    lit_enc.encode(&mut w, EOB);
    out.extend_from_slice(&w.finish());
    out
}

/// Decompress a buffer produced by `compress`, writing literals and match
/// copies straight into the output buffer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let orig_len = varint::read_usize(data, &mut pos)?;
    let min_match = *data.get(pos).ok_or(CodecError::UnexpectedEof)? as u32;
    pos += 1;

    let mut r = BitReader::new(&data[pos..]);
    let lit_dec = HuffmanDecoder::read_table(&mut r)?;
    let dist_dec = HuffmanDecoder::read_table(&mut r)?;

    // Capacity is a hint, not a trust decision: a hostile `orig_len` must
    // not force a huge up-front allocation. The output only ever grows by
    // what the stream really codes, and never past `orig_len`.
    let mut out = Vec::with_capacity(orig_len.min(data.len().saturating_mul(256)));
    loop {
        let sym = lit_dec.decode(&mut r)?;
        if sym < 256 {
            if out.len() >= orig_len {
                return Err(CodecError::Corrupt("deflate output longer than declared"));
            }
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let ls = sym - LEN_BASE;
            if ls >= LEN_SLOTS {
                return Err(CodecError::Corrupt("length slot out of range"));
            }
            let lextra = r.read_bits(ls)? as u32;
            let len = (unslot(ls, lextra) as usize).saturating_add(min_match as usize);
            let ds = dist_dec.decode(&mut r)?;
            if ds >= DIST_SLOTS {
                return Err(CodecError::Corrupt("distance slot out of range"));
            }
            let dextra = r.read_bits(ds)? as u32;
            let dist = (unslot(ds, dextra) as usize).saturating_add(1);
            if !copy_match(&mut out, dist, len, orig_len) {
                return Err(CodecError::Corrupt("invalid LZ references"));
            }
        }
    }
    if out.len() != orig_len {
        return Err(CodecError::Corrupt("deflate output shorter than declared"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let c = compress(data, &MatcherParams::deflate());
        assert_eq!(decompress(&c).unwrap(), data);
        c.len()
    }

    #[test]
    fn empty_input() {
        assert!(round_trip(b"") > 0);
    }

    #[test]
    fn text_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let clen = round_trip(&data);
        assert!(clen < data.len() / 4, "{clen} vs {}", data.len());
    }

    #[test]
    fn incompressible_data_expands_modestly() {
        let mut state = 0xDEADBEEFu64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let clen = round_trip(&data);
        assert!(clen < data.len() + data.len() / 20 + 1024);
    }

    #[test]
    fn all_profiles_round_trip() {
        let data: Vec<u8> = (0..30_000u32)
            .flat_map(|i| ((i / 7) as u16).to_le_bytes())
            .collect();
        for p in [
            MatcherParams::deflate(),
            MatcherParams::deflate_deep(),
            MatcherParams::wide(),
            MatcherParams::thorough(),
        ] {
            let c = compress(&data, &p);
            assert_eq!(decompress(&c).unwrap(), data, "profile {p:?}");
            assert!(c.len() < data.len() / 2);
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let data = b"hello world hello world hello world".to_vec();
        let mut c = compress(&data, &MatcherParams::deflate());
        c.truncate(c.len() / 2);
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn garbage_header_errors() {
        assert!(decompress(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]).is_err());
    }

    fn xorshift_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    /// What SZ2 hands its backend: a canonical-Huffman bitstream of
    /// quantization codes that cluster around the centre of the code book.
    fn sz2_like_payload(n: usize) -> Vec<u8> {
        let mut state = 0x5EED_CAFE_F00D_1234u64;
        let codes: Vec<u32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Sum of four uniforms: bell-shaped over 0..64.
                (0..4).map(|k| (state >> (16 * k)) as u32 & 15).sum()
            })
            .collect();
        let mut freq = vec![0u64; 64];
        for &c in &codes {
            freq[c as usize] += 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freq);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        for &c in &codes {
            enc.encode(&mut w, c);
        }
        w.finish()
    }

    #[test]
    fn sparse_probing_stays_within_half_a_percent_of_the_dense_search() {
        let noise = xorshift_bytes(0xA5A5_1234_5678_9ABC, 100_000);
        let mut halves = noise.clone();
        halves.extend_from_slice(&noise);
        let periodic: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(60_000).collect();
        let p = MatcherParams::wide();
        for (name, data) in [
            ("incompressible", noise),
            ("periodic", periodic),
            ("two identical halves", halves),
            ("sz2-like payload", sz2_like_payload(400_000)),
        ] {
            let sparse = compress(&data, &p);
            assert_eq!(decompress(&sparse).unwrap(), data, "{name}");
            let dense = encode(&data, &crate::lz::sequences_dense(&data, &p), p.min_match);
            assert_eq!(decompress(&dense).unwrap(), data, "{name}");
            assert!(
                sparse.len() as f64 <= dense.len() as f64 * 1.005,
                "{name}: sparse {} vs dense {}",
                sparse.len(),
                dense.len()
            );
        }
    }

    #[test]
    fn claimed_length_is_a_bound_not_an_allocation() {
        let data = b"hello world hello world hello world".to_vec();
        let c = compress(&data, &MatcherParams::deflate());
        let mut body = 0usize;
        varint::read_usize(&c, &mut body).unwrap();
        let claiming = |claimed: usize| {
            let mut patched = Vec::new();
            varint::write_usize(&mut patched, claimed);
            patched.extend_from_slice(&c[body..]);
            decompress(&patched)
        };
        assert_eq!(claiming(data.len()).unwrap(), data);
        for claimed in [data.len() + 1, 1 << 32, 1 << 40, usize::MAX] {
            assert_eq!(
                claiming(claimed),
                Err(CodecError::Corrupt("deflate output shorter than declared"))
            );
        }
        // A claim below what the stream codes is refused at the first byte
        // past it, literal or match.
        for claimed in [0, 5, data.len() - 1] {
            assert!(claiming(claimed).is_err(), "claimed {claimed}");
        }
    }
}
