//! Byte shuffle (transpose) filter, the trick that makes blosc effective on
//! floating-point arrays: grouping the k-th byte of every element together
//! puts the highly-correlated sign/exponent bytes side by side.

/// Transpose `data` so all byte-0s come first, then all byte-1s, etc.,
/// into a caller-owned buffer (cleared first), so hot paths can reuse one
/// scratch allocation across payloads. Elements are `typesize` bytes wide; a
/// trailing remainder (when the length is not a multiple of `typesize`) is
/// appended unshuffled. The 4-byte element case — every f32 update — runs
/// through the runtime-dispatched SIMD transpose.
pub(crate) fn shuffle_into(data: &[u8], typesize: usize, out: &mut Vec<u8>) {
    out.clear();
    if typesize <= 1 || data.len() < typesize {
        out.extend_from_slice(data);
        return;
    }
    let n = data.len() / typesize;
    let body = n * typesize;
    out.resize(data.len(), 0);
    if typesize == 4 {
        fedsz_simd::shuffle4_into(&data[..body], &mut out[..body]);
    } else {
        for b in 0..typesize {
            for e in 0..n {
                out[b * n + e] = data[e * typesize + b];
            }
        }
    }
    out[body..].copy_from_slice(&data[body..]);
}

/// Inverse of [`shuffle_into`], into a caller-owned buffer (cleared first).
pub(crate) fn unshuffle_into(data: &[u8], typesize: usize, out: &mut Vec<u8>) {
    out.clear();
    if typesize <= 1 || data.len() < typesize {
        out.extend_from_slice(data);
        return;
    }
    let n = data.len() / typesize;
    let body = n * typesize;
    out.resize(data.len(), 0);
    if typesize == 4 {
        fedsz_simd::unshuffle4_into(&data[..body], &mut out[..body]);
    } else {
        for b in 0..typesize {
            for e in 0..n {
                out[e * typesize + b] = data[b * n + e];
            }
        }
    }
    out[body..].copy_from_slice(&data[body..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffle(data: &[u8], typesize: usize) -> Vec<u8> {
        let mut out = Vec::new();
        shuffle_into(data, typesize, &mut out);
        out
    }

    fn unshuffle(data: &[u8], typesize: usize) -> Vec<u8> {
        let mut out = Vec::new();
        unshuffle_into(data, typesize, &mut out);
        out
    }

    #[test]
    fn round_trip_various_sizes() {
        for typesize in [1usize, 2, 4, 8] {
            for len in [0usize, 1, 3, 4, 7, 8, 100, 1001] {
                let data: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
                let s = shuffle(&data, typesize);
                assert_eq!(s.len(), data.len());
                assert_eq!(
                    unshuffle(&s, typesize),
                    data,
                    "typesize {typesize} len {len}"
                );
            }
        }
    }

    #[test]
    fn shuffle_groups_bytes() {
        // Two 4-byte elements: ABCD EFGH -> AE BF CG DH.
        let data = [b'A', b'B', b'C', b'D', b'E', b'F', b'G', b'H'];
        assert_eq!(shuffle(&data, 4), b"AEBFCGDH");
    }

    #[test]
    fn remainder_is_preserved() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let s = shuffle(&data, 4);
        assert_eq!(&s[8..], &[9, 10]);
        assert_eq!(unshuffle(&s, 4), data);
    }

    #[test]
    fn into_variants_reuse_dirty_scratch() {
        // The `_into` forms must fully overwrite whatever the scratch buffer
        // held, at every size class the SIMD transpose handles differently
        // (vector body, scalar tail, sub-typesize input).
        let mut scratch = vec![0xAAu8; 9999];
        for len in [0usize, 3, 4, 15, 16, 64, 67, 1001] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 % 256) as u8).collect();
            shuffle_into(&data, 4, &mut scratch);
            assert_eq!(scratch, shuffle(&data, 4), "len {len}");
            let mut back = vec![0x55u8; 1];
            unshuffle_into(&scratch, 4, &mut back);
            assert_eq!(back, data, "len {len}");
        }
    }

    #[test]
    fn typesize4_matches_generic_transpose() {
        // The dispatched 4-byte path must produce exactly the bytes of the
        // generic loop (which still serves every other typesize).
        for len in [4usize, 8, 60, 64, 68, 127, 128, 129, 4096, 4099] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let n = len / 4;
            let body = n * 4;
            let mut generic = vec![0u8; len];
            for b in 0..4 {
                for e in 0..n {
                    generic[b * n + e] = data[e * 4 + b];
                }
            }
            generic[body..].copy_from_slice(&data[body..]);
            assert_eq!(shuffle(&data, 4), generic, "len {len}");
        }
    }

    #[test]
    fn shuffle_improves_float_compressibility() {
        // Bytes of slowly-varying floats: after shuffling, exponent bytes
        // form long runs. Count adjacent equal bytes as a cheap proxy.
        let mut data = Vec::new();
        for i in 0..4096 {
            data.extend_from_slice(&(1.0f32 + i as f32 * 1e-6).to_le_bytes());
        }
        let runs = |d: &[u8]| d.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs(&shuffle(&data, 4)) > 2 * runs(&data));
    }
}
