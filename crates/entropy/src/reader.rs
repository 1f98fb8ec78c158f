//! Checked byte-stream reading for decode paths.
//!
//! Every decompressor in the workspace consumes attacker-controllable
//! bytes, so none of them may index, slice, or size an allocation from a
//! header field without bounds checking. These helpers centralize the
//! checked patterns: cursor-style reads that advance `pos` only on
//! success, and fail with [`CodecError::UnexpectedEof`] instead of
//! panicking when the input is truncated or a length overflows.

use crate::CodecError;

/// Take the next `n` bytes at `*pos`, advancing the cursor. Fails (without
/// moving the cursor) if `pos + n` overflows or runs past the input.
#[inline]
pub fn take<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let end = pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
    let s = data.get(*pos..end).ok_or(CodecError::UnexpectedEof)?;
    *pos = end;
    Ok(s)
}

/// Take exactly `N` bytes as a fixed array.
#[inline]
pub fn take_array<const N: usize>(data: &[u8], pos: &mut usize) -> Result<[u8; N], CodecError> {
    let s = take(data, pos, N)?;
    let mut a = [0u8; N];
    a.copy_from_slice(s);
    Ok(a)
}

/// Read one byte.
#[inline]
pub fn read_u8(data: &[u8], pos: &mut usize) -> Result<u8, CodecError> {
    let b = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    Ok(b)
}

/// Read a little-endian `u32`.
#[inline]
pub fn read_u32_le(data: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    Ok(u32::from_le_bytes(take_array::<4>(data, pos)?))
}

/// Read a little-endian `u64`.
#[inline]
pub fn read_u64_le(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(take_array::<8>(data, pos)?))
}

/// Read a little-endian `f32`.
#[inline]
pub fn read_f32_le(data: &[u8], pos: &mut usize) -> Result<f32, CodecError> {
    Ok(f32::from_le_bytes(take_array::<4>(data, pos)?))
}

/// Read a little-endian `f64`.
#[inline]
pub fn read_f64_le(data: &[u8], pos: &mut usize) -> Result<f64, CodecError> {
    Ok(f64::from_le_bytes(take_array::<8>(data, pos)?))
}

/// An element count claimed by a header, validated before allocation:
/// `count` elements of `elem_bytes` each must still be representable and
/// must not exceed `available` input bytes. Returns the byte span. This is
/// the allocation-bomb guard — a 16-byte stream must not be able to demand
/// a 4 GiB `Vec`.
#[inline]
pub fn claimed_span(
    count: usize,
    elem_bytes: usize,
    available: usize,
) -> Result<usize, CodecError> {
    let span = count
        .checked_mul(elem_bytes)
        .ok_or(CodecError::Corrupt("element count overflows"))?;
    if span > available {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(span)
}

/// Decode a little-endian `f32` from a 4-byte chunk (the shape
/// `chunks_exact(4)` yields). Shorter chunks decode as zero instead of
/// panicking, so the conversion is total.
#[inline]
pub(crate) fn f32_from_le_chunk(c: &[u8]) -> f32 {
    match c {
        &[a, b, c, d] => f32::from_le_bytes([a, b, c, d]),
        _ => 0.0,
    }
}

/// Decode a packed little-endian `f32` array; trailing bytes that do not
/// fill a chunk are ignored.
#[inline]
pub fn f32s_from_le_bytes(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(f32_from_le_chunk).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_advances_only_on_success() {
        let data = [1u8, 2, 3];
        let mut pos = 0;
        assert_eq!(take(&data, &mut pos, 2).unwrap(), &[1, 2]);
        assert_eq!(pos, 2);
        assert_eq!(take(&data, &mut pos, 2), Err(CodecError::UnexpectedEof));
        assert_eq!(pos, 2, "cursor must not move on failure");
    }

    #[test]
    fn take_rejects_overflowing_spans() {
        let data = [0u8; 4];
        let mut pos = 2;
        assert_eq!(
            take(&data, &mut pos, usize::MAX),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn fixed_reads() {
        let data = 0xDEAD_BEEFu32.to_le_bytes();
        let mut pos = 0;
        assert_eq!(read_u32_le(&data, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u32_le(&data, &mut pos), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn claimed_span_guards_allocation_bombs() {
        assert_eq!(claimed_span(4, 4, 16).unwrap(), 16);
        assert_eq!(claimed_span(5, 4, 16), Err(CodecError::UnexpectedEof));
        assert!(matches!(
            claimed_span(usize::MAX, 8, 16),
            Err(CodecError::Corrupt(_))
        ));
    }
}
