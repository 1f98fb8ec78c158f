//! LEB128 variable-length integers, used by frame headers throughout the
//! lossless codecs and the FedSZ serialization format.

use crate::CodecError;

/// Append `value` to `out` as LEB128 (7 bits per byte, LSB first).
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes [`write_u64`] appends for `value`: one per started
/// 7-bit group.
pub fn encoded_len(mut value: u64) -> usize {
    let mut n = 1;
    while value >= 0x80 {
        value >>= 7;
        n += 1;
    }
    n
}

/// Read a LEB128 integer starting at `data[*pos]`, advancing `pos`.
pub fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint too long"));
        }
        if shift == 63 && byte > 1 {
            return Err(CodecError::Corrupt("varint overflows u64"));
        }
        value |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Convenience: write a `usize`.
pub fn write_usize(out: &mut Vec<u8>, value: usize) {
    write_u64(out, value as u64);
}

/// Convenience: read a `usize`, rejecting values that do not fit.
pub fn read_usize(data: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let v = read_u64(data, pos)?;
    usize::try_from(v).map_err(|_| CodecError::Corrupt("varint exceeds usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_edge_values() {
        for &v in &[0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn encoded_len_matches_the_writer() {
        let edges = (0..64).flat_map(|s| [(1u64 << s) - 1, 1u64 << s, (1u64 << s) + 1]);
        for v in edges.chain([u64::MAX]) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(encoded_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0u64..128 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn sequential_values_share_a_buffer() {
        let mut buf = Vec::new();
        for v in 0u64..1000 {
            write_u64(&mut buf, v * v);
        }
        let mut pos = 0;
        for v in 0u64..1000 {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v * v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_encoding_rejected() {
        // Eleven continuation bytes cannot encode a u64.
        let buf = vec![0x80u8; 10];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }
}
