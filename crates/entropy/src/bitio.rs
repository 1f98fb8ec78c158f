//! MSB-first bit-level I/O over byte buffers.

use crate::CodecError;

/// Accumulates bits most-significant-first into a byte vector.
///
/// Pending bits sit right-aligned in a 64-bit accumulator and leave it a
/// whole big-endian word at a time. Invariant between calls: `nbits < 64`,
/// and `acc` has no bit set at or above `nbits`.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with reserved output capacity in bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Append the low `n` bits of `value`, MSB first.
    ///
    /// The caller guarantees `n <= 57` and that `value` has no bit set at or
    /// above `n`; both are checked in debug builds only. In a release build
    /// a wider `n` or `value` corrupts the stream instead of panicking.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits supports at most 57 bits per call");
        debug_assert!(value >> n == 0, "value {value:#x} wider than {n} bits");
        debug_assert!(
            self.nbits < 64 && self.acc >> self.nbits == 0,
            "writer invariant broken: {} pending bits, acc {:#x}",
            self.nbits,
            self.acc
        );
        let free = 64 - self.nbits;
        if n < free {
            self.acc = (self.acc << n) | value;
            self.nbits += n;
        } else {
            // `free <= n <= 57`: the accumulator fills up exactly, and the
            // `n - free` low bits of `value` start the next word.
            let rest = n - free;
            let word = (self.acc << free) | (value >> rest);
            self.out.extend_from_slice(&word.to_be_bytes());
            self.acc = value & ((1u64 << rest) - 1);
            self.nbits = rest;
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Append a full 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, value: u32) {
        self.write_bits(value as u64, 32);
    }

    /// Pad the final partial byte with zeros and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let word = self.acc << (64 - self.nbits);
            let pending = self.nbits.div_ceil(8) as usize;
            self.out.extend_from_slice(&word.to_be_bytes()[..pending]);
        }
        self.out
    }
}

/// Reads bits most-significant-first from a byte slice.
///
/// The accumulator is left-aligned: its top `nbits` bits are the next
/// unread bits of the stream. Whatever sits below them is either zero or
/// the stream's own following bits (a word refill loads more than it
/// counts), so a later refill ORs the same values over them.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to load.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Start reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top the accumulator up to at least 56 bits from one big-endian
    /// 8-byte load. Returns `false`, leaving the reader untouched, when
    /// fewer than 8 bytes remain; the byte loops below serve that tail.
    #[inline]
    pub(crate) fn refill_word(&mut self) -> bool {
        debug_assert!(self.nbits < 64);
        let Some(word) = self.data.get(self.pos..).and_then(|s| s.first_chunk::<8>()) else {
            return false;
        };
        self.acc |= u64::from_be_bytes(*word) >> self.nbits;
        self.pos += ((63 - self.nbits) >> 3) as usize;
        self.nbits |= 56;
        true
    }

    /// Pull bytes until `need <= 57` bits are buffered or the input ends.
    #[inline]
    fn fill(&mut self, need: u32) {
        if self.nbits < need {
            self.refill_word();
            while self.nbits < need {
                let Some(&byte) = self.data.get(self.pos) else {
                    return;
                };
                self.pos += 1;
                self.acc |= u64::from(byte) << (56 - self.nbits);
                self.nbits += 8;
            }
        }
    }

    /// The next `n` bits (`1..=57`), zero-padded past the end of the input.
    #[inline]
    pub(crate) fn top_bits(&self, n: u32) -> u64 {
        self.acc >> (64 - n)
    }

    /// Drop `n` buffered bits (`n <= nbits`, `n < 64`).
    #[inline]
    pub(crate) fn skip(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.acc <<= n;
        self.nbits -= n;
    }

    /// Read `n` bits (`n <= 57`), MSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        if n > 57 {
            return Err(CodecError::Corrupt("bit read wider than accumulator"));
        }
        if n == 0 {
            return Ok(0);
        }
        self.fill(n);
        if self.nbits < n {
            return Err(CodecError::UnexpectedEof);
        }
        let v = self.top_bits(n);
        self.skip(n);
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Read a full 32-bit word.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        Ok(self.read_bits(32)? as u32)
    }

    /// Peek the next `n` bits without consuming them, zero-padding past the
    /// end of the input. Used by table-accelerated Huffman decoding.
    #[inline]
    pub(crate) fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!((1..=56).contains(&n));
        self.fill(n);
        self.top_bits(n)
    }

    /// Consume `n` bits previously peeked.
    #[inline]
    pub(crate) fn consume(&mut self, n: u32) -> Result<(), CodecError> {
        self.fill(n);
        if self.nbits < n {
            return Err(CodecError::UnexpectedEof);
        }
        self.skip(n);
        Ok(())
    }

    /// Bits consumed so far, counting whole bytes pulled from the input.
    pub fn bits_consumed(&self) -> usize {
        self.pos * 8 - self.nbits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bit(false);
        w.write_bits(42, 13);
        w.write_u32(0xDEAD_BEEF);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits(13).unwrap(), 42);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn finish_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn eof_is_reported() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn bits_consumed_counts_reads() {
        let mut w = BitWriter::new();
        w.write_bits(0x3FF, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.read_bits(10).unwrap();
        assert_eq!(r.bits_consumed(), 10);
    }

    #[test]
    fn many_random_values_round_trip() {
        // Deterministic pseudo-random widths/values without external crates.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut items = Vec::new();
        let mut w = BitWriter::new();
        for _ in 0..10_000 {
            let n = (next() % 57 + 1) as u32;
            let v = next() & ((1u64 << n) - 1);
            items.push((v, n));
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, n) in items {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    /// The writer this module had before the word-flush one: a byte leaves
    /// the accumulator as soon as it is complete. Kept as the oracle.
    #[derive(Default)]
    struct BytewiseWriter {
        out: Vec<u8>,
        acc: u64,
        nbits: u32,
    }

    impl BytewiseWriter {
        fn write_bits(&mut self, value: u64, n: u32) {
            self.acc = (self.acc << n) | value;
            self.nbits += n;
            while self.nbits >= 8 {
                self.nbits -= 8;
                self.out.push((self.acc >> self.nbits) as u8);
            }
        }

        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.acc <<= 8 - self.nbits;
                self.out.push(self.acc as u8);
            }
            self.out
        }
    }

    #[test]
    fn word_flush_writer_matches_the_bytewise_writer() {
        let mut state = 0x5EED_0FB1_7500u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let masked = |v: u64, n: u32| v & ((1u64 << n) - 1);
        // Random sequences: every width 0..=57, streams from empty to a few
        // words, so every fill level of the accumulator meets every width.
        for round in 0..4000 {
            let mut fast = BitWriter::new();
            let mut slow = BytewiseWriter::default();
            for _ in 0..round % 40 {
                let n = (next() % 58) as u32;
                let v = masked(next(), n);
                fast.write_bits(v, n);
                slow.write_bits(v, n);
            }
            assert_eq!(fast.finish(), slow.finish(), "round {round}");
        }
        // Every width after every pending length, all-ones so a misplaced
        // bit shows, and every final partial-byte length 0..=7.
        for lead in 0..64u32 {
            for n in 0..=57u32 {
                for tail in 0..8u32 {
                    let mut fast = BitWriter::new();
                    let mut slow = BytewiseWriter::default();
                    for (v, n) in [
                        (masked(u64::MAX, lead.min(57)), lead.min(57)),
                        (masked(u64::MAX, lead - lead.min(57)), lead - lead.min(57)),
                        (masked(0xA5A5_A5A5_A5A5_A5A5, n), n),
                        (masked(u64::MAX, tail), tail),
                    ] {
                        fast.write_bits(v, n);
                        slow.write_bits(v, n);
                    }
                    assert_eq!(fast.finish(), slow.finish(), "{lead} + {n} + {tail}");
                }
            }
        }
    }

    /// Bit-at-a-time model of the reader: no accumulator, no refill.
    struct BitwiseReader<'a> {
        data: &'a [u8],
        at: usize,
    }

    impl BitwiseReader<'_> {
        fn bit(&self, i: usize) -> u64 {
            self.data
                .get(i / 8)
                .map_or(0, |b| u64::from(b >> (7 - i % 8) & 1))
        }

        fn peek_bits(&self, n: u32) -> u64 {
            (0..n as usize).fold(0, |v, i| v << 1 | self.bit(self.at + i))
        }

        fn consume(&mut self, n: u32) -> Result<(), CodecError> {
            if self.at + n as usize > self.data.len() * 8 {
                return Err(CodecError::UnexpectedEof);
            }
            self.at += n as usize;
            Ok(())
        }

        fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
            let v = self.peek_bits(n);
            self.consume(n).map(|()| v)
        }
    }

    #[test]
    fn word_refill_matches_a_bitwise_reader_at_every_alignment() {
        // Streams from empty to well past one word, so the 8-byte load, the
        // byte-loop tail and the hand-over between them are all crossed, and
        // an initial skew of 0..=64 bits puts the first refill at every bit
        // alignment. Mixed reads, peeks and consumes must agree with the
        // model value for value and error for error, and report the same
        // position after every step.
        let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..=40usize {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            for skew in 0..=64u32 {
                let mut fast = BitReader::new(&data);
                let mut model = BitwiseReader { data: &data, at: 0 };
                let ctx = format!("len {len} skew {skew}");
                if skew > 0 {
                    let (a, b) = (skew.min(57), skew.saturating_sub(57));
                    assert_eq!(fast.read_bits(a), model.read_bits(a), "{ctx}");
                    assert_eq!(fast.read_bits(b), model.read_bits(b), "{ctx}");
                }
                // Long enough to run every stream dry: the failing steps at
                // the end must fail alike, and shorter reads after a failed
                // wide one must still succeed alike.
                for _ in 0..48 {
                    let n = (next() % 57 + 1) as u32;
                    match next() % 3 {
                        0 => assert_eq!(fast.read_bits(n), model.read_bits(n), "{ctx} read {n}"),
                        1 => {
                            let n = n.min(56);
                            assert_eq!(fast.peek_bits(n), model.peek_bits(n), "{ctx} peek {n}");
                            // Consume part of what was peeked, as a table
                            // hit does.
                            let used = (next() % u64::from(n) + 1) as u32;
                            assert_eq!(fast.consume(used), model.consume(used), "{ctx}");
                        }
                        _ => {
                            assert_eq!(fast.read_bit(), model.read_bits(1).map(|b| b == 1), "{ctx}")
                        }
                    }
                    assert_eq!(fast.bits_consumed(), model.at, "{ctx}");
                }
            }
        }
    }
}
