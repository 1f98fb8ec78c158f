//! zlib analogue: deflate-profile LZ77 + Huffman with a 2-byte header.

use fedsz_entropy::CodecError;

use crate::deflate;
use crate::lz::MatcherParams;

const MAGIC: [u8; 2] = [0x78, 0x5A]; // "xZ'lib'" marker for this format

/// Compress with the standard deflate profile.
pub fn compress(data: &[u8]) -> Vec<u8> {
    deflate::compress(data, &MatcherParams::deflate(), &MAGIC, usize::MAX)
        .expect("a stream without a length limit is always written")
}

/// Decompress a [`compress`] buffer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let body = data
        .strip_prefix(&MAGIC)
        .ok_or(CodecError::Corrupt("bad zlib magic"))?;
    deflate::decompress(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data = b"zlib zlib zlib zlib compression test data".repeat(20);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len());
    }

    #[test]
    fn magic_is_checked() {
        let mut c = compress(b"data");
        c[0] ^= 0xFF;
        assert_eq!(decompress(&c), Err(CodecError::Corrupt("bad zlib magic")));
    }
}
