//! zstd analogue: large-window greedy LZ77 + Huffman token coding. Faster
//! than the deflate-family analogues (shallow chains, no lazy pass) with a
//! comparable or better ratio thanks to the 1 MiB window.

use fedsz_entropy::CodecError;

use crate::deflate;
use crate::lz::MatcherParams;

const MAGIC: [u8; 2] = [0x28, 0xB5];

/// Compress with the wide-window profile.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_within(data, usize::MAX).expect("a stream without a length limit is always written")
}

/// [`compress`] if its stream takes at most `max_len` bytes, else `None`.
/// The length is known once the matcher has run and the tables are
/// built, so a stream over the limit costs no token writing.
pub fn compress_within(data: &[u8], max_len: usize) -> Option<Vec<u8>> {
    deflate::compress(data, &MatcherParams::wide(), &MAGIC, max_len)
}

/// Decompress a [`compress`] buffer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let body = data
        .strip_prefix(&MAGIC)
        .ok_or(CodecError::Corrupt("bad zstd magic"))?;
    deflate::decompress(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data: Vec<u8> = (0..60_000u32)
            .flat_map(|i| ((i / 3) as u16).to_le_bytes())
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 2);
    }

    #[test]
    fn a_limit_keeps_exactly_what_compress_then_compare_keeps() {
        let data: Vec<u8> = (0..40_000u32)
            .flat_map(|i| ((i / 5) as u16 ^ (i % 3) as u16).to_le_bytes())
            .collect();
        let full = compress(&data);
        for limit in [
            0,
            1,
            2,
            full.len() - 1,
            full.len(),
            full.len() + 1,
            usize::MAX,
        ] {
            assert_eq!(
                compress_within(&data, limit),
                (full.len() <= limit).then(|| full.clone()),
                "limit {limit} for {} bytes",
                full.len()
            );
        }
    }

    #[test]
    fn long_range_matches_found() {
        // Two identical 100 KiB halves, farther apart than a 32 KiB deflate
        // window — only the wide window exploits the repetition.
        let mut state = 0xA5A5_1234_5678_9ABCu64;
        let half: Vec<u8> = (0..100_000u32)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        let mut data = half.clone();
        data.extend_from_slice(&half);
        let zstd_len = compress(&data).len();
        let zlib_len = crate::zlib::compress(&data).len();
        assert!(
            (zstd_len as f64) < 0.8 * zlib_len as f64,
            "wide window should beat 32K window on far repeats: {zstd_len} vs {zlib_len}"
        );
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }
}
