//! gzip analogue: deep-search deflate plus a gzip-style framed header and a
//! CRC-32 integrity trailer. Slightly slower than the zlib analogue (deeper
//! chains, checksum pass) for a marginal ratio difference — the same
//! relationship Table II measures between Python's gzip and zlib.

use fedsz_entropy::crc32::crc32;
use fedsz_entropy::CodecError;

use crate::deflate;
use crate::lz::MatcherParams;

const MAGIC: [u8; 3] = [0x1F, 0x8B, 0x5A];

/// Compress with the deep deflate profile and append a CRC-32 trailer.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = deflate::compress(data, &MatcherParams::deflate_deep(), &MAGIC, usize::MAX)
        .expect("a stream without a length limit is always written");
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out
}

/// Decompress and verify the CRC-32 trailer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let body = data
        .strip_prefix(&MAGIC)
        .ok_or(CodecError::Corrupt("bad gzip magic"))?;
    if body.len() < 4 {
        return Err(CodecError::UnexpectedEof);
    }
    let (payload, trailer) = body.split_at(body.len() - 4);
    let expected = match trailer {
        &[a, b, c, d] => u32::from_le_bytes([a, b, c, d]),
        _ => return Err(CodecError::UnexpectedEof),
    };
    let out = deflate::decompress(payload)?;
    if crc32(&out) != expected {
        return Err(CodecError::Corrupt("gzip CRC mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_crc() {
        let data = b"gzip integrity checked data ".repeat(50);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let data = b"some sufficiently long payload to compress".repeat(10);
        let mut c = compress(&data);
        // Flip a bit somewhere in the middle of the compressed body.
        let mid = c.len() / 2;
        c[mid] ^= 0x10;
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn truncated_trailer_errors() {
        let c = compress(b"abc");
        assert!(decompress(&c[..4]).is_err());
    }
}
