//! IEEE CRC-32 (the polynomial used by gzip/zlib), table-driven,
//! slicing-by-8: eight input bytes per step instead of one.

/// Reflected polynomial for IEEE CRC-32.
const POLY: u32 = 0xEDB8_8320;

/// Lazily built lookup tables. `tables()[0]` is the classic bytewise
/// table; `tables()[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets one step fold eight bytes with eight independent
/// lookups.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// One table lookup per byte: the tail of [`Crc32::update`], and the
/// oracle its tests compare the sliced loop against.
fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    let t = &tables()[0];
    for &b in data {
        state = (state >> 8) ^ t[((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut state = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
            state = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        self.state = update_bytewise(state, chunks.remainder());
    }

    /// Final checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    /// Bytewise CRC of a whole buffer — the pre-slicing implementation.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn streaming_splits_at_every_offset_match_the_bytewise_oracle() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let want = crc32_bytewise(&data);
        for a in 0..=16 {
            for b in 0..=16 {
                let mut c = Crc32::new();
                c.update(&data[..a]);
                c.update(&data[a..a + b]);
                c.update(&data[a + b..]);
                assert_eq!(c.finish(), want, "splits at {a} and {}", a + b);
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_over_seeded_lengths() {
        // xorshift64: seeded, no ambient entropy.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut data = Vec::with_capacity(4096);
        for len in 0..4096 {
            assert_eq!(crc32(&data), crc32_bytewise(&data), "length {len}");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push(x as u8);
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at byte {i} bit {bit} undetected");
                data[i] ^= 1 << bit;
            }
        }
    }
}
