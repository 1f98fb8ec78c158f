//! Canonical Huffman coding over a dense `u32` alphabet.
//!
//! Used by the SZ2/SZ3 quantization-code stage and by the deflate-style
//! lossless codecs. The code-length table is serialized with run-length
//! encoding so that sparse alphabets (e.g. 2^16 quantization bins of which a
//! few hundred occur) cost little header space.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// Maximum admitted code length. Streams are decodable with a plain u64
/// accumulator and headers stay small; frequencies are flattened until the
/// implicit tree fits.
const MAX_LEN: u8 = 32;

/// Compute Huffman code lengths for `freqs` (zero-frequency symbols get
/// length 0), flattening frequencies until no code exceeds `MAX_LEN`.
fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut f: Vec<u64> = freqs.to_vec();
    loop {
        let lens = code_lengths_once(&f);
        if lens.iter().all(|&l| l <= MAX_LEN) {
            return lens;
        }
        for x in &mut f {
            if *x > 0 {
                *x = x.div_ceil(2);
            }
        }
    }
}

fn code_lengths_once(freqs: &[u64]) -> Vec<u8> {
    // Nodes: leaves first, then internal nodes appended.
    #[derive(Clone, Copy)]
    struct Node {
        parent: u32,
    }
    let mut nodes: Vec<Node> = Vec::with_capacity(freqs.len() * 2);
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
        std::collections::BinaryHeap::new();
    for (i, &f) in freqs.iter().enumerate() {
        nodes.push(Node { parent: u32::MAX });
        if f > 0 {
            heap.push(std::cmp::Reverse((f, i as u32)));
        }
    }
    let live = heap.len();
    let mut lens = vec![0u8; freqs.len()];
    if live == 0 {
        return lens;
    }
    if live == 1 {
        // A single distinct symbol still needs one bit on the wire.
        let idx = heap.pop().unwrap().0 .1;
        lens[idx as usize] = 1;
        return lens;
    }
    while heap.len() > 1 {
        let std::cmp::Reverse((fa, a)) = heap.pop().unwrap();
        let std::cmp::Reverse((fb, b)) = heap.pop().unwrap();
        let id = nodes.len() as u32;
        nodes.push(Node { parent: u32::MAX });
        nodes[a as usize].parent = id;
        nodes[b as usize].parent = id;
        heap.push(std::cmp::Reverse((fa + fb, id)));
    }
    for (i, len) in lens.iter_mut().enumerate() {
        if freqs[i] == 0 {
            continue;
        }
        let mut depth = 0u32;
        let mut n = i as u32;
        while nodes[n as usize].parent != u32::MAX {
            n = nodes[n as usize].parent;
            depth += 1;
        }
        *len = depth.min(255) as u8;
    }
    lens
}

/// Assign canonical codes given lengths. Returns `(code, len)` per symbol.
fn canonical_codes(lens: &[u8]) -> Vec<(u32, u8)> {
    let mut order: Vec<u32> = (0..lens.len() as u32)
        .filter(|&s| lens[s as usize] > 0)
        .collect();
    order.sort_unstable_by_key(|&s| (lens[s as usize], s));
    let mut codes = vec![(0u32, 0u8); lens.len()];
    let mut code: u32 = 0;
    let mut prev_len = 0u8;
    for &s in &order {
        let len = lens[s as usize];
        code <<= len - prev_len;
        codes[s as usize] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

/// Encoder side of a canonical Huffman code.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    codes: Vec<(u32, u8)>,
}

impl HuffmanEncoder {
    /// Build a code from symbol frequencies (index = symbol).
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let lens = code_lengths(freqs);
        Self {
            codes: canonical_codes(&lens),
        }
    }

    /// Serialize the code-length table (RLE of equal lengths).
    pub fn write_table(&self, w: &mut BitWriter) {
        w.write_u32(self.codes.len() as u32);
        let mut i = 0usize;
        while i < self.codes.len() {
            let len = self.codes[i].1;
            let mut run = 1usize;
            while i + run < self.codes.len() && self.codes[i + run].1 == len {
                run += 1;
            }
            let mut remaining = run;
            while remaining > 0 {
                let chunk = remaining.min(u16::MAX as usize);
                w.write_bits(len as u64, 6);
                w.write_bits(chunk as u64, 16);
                remaining -= chunk;
            }
            i += run;
        }
    }

    /// Emit one symbol.
    ///
    /// # Panics
    /// Panics (debug) if the symbol had zero frequency at build time.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: u32) {
        let (code, len) = self.codes[sym as usize];
        debug_assert!(
            len > 0,
            "encoding symbol {sym} absent from the frequency table"
        );
        w.write_bits(code as u64, len as u32);
    }

    /// Code length in bits for a symbol (0 if absent).
    pub fn len_of(&self, sym: u32) -> u8 {
        self.codes[sym as usize].1
    }

    /// Exact size in bits of encoding `freqs[sym]` occurrences of each symbol
    /// (excluding the table header). Useful for cost estimation.
    pub fn payload_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * self.codes[s].1 as u64)
            .sum()
    }
}

/// Bits resolved by the primary decode lookup table.
const LOOKUP_BITS: u32 = 12;

/// Largest alphabet [`HuffmanDecoder::read_table`] admits. No format in the
/// workspace codes more than the 2^16 SZ quantization symbols, and a table
/// header is a few bytes per 65 535-symbol run, so without a cap a
/// 150-byte stream could demand a 2^26-entry sort before being refused.
const MAX_ALPHABET: usize = 1 << 16;

/// Table hits [`HuffmanDecoder::decode_run`] takes per refill: a refilled
/// accumulator holds at least 56 bits.
const HITS_PER_REFILL: usize = (56 / LOOKUP_BITS) as usize;

/// One primary-table entry: the one or two symbols a [`LOOKUP_BITS`]-bit
/// prefix fully determines. Symbols fit 16 bits under [`MAX_ALPHABET`].
///
/// | bits   | field                                                    |
/// |--------|----------------------------------------------------------|
/// | 0..6   | bits all symbols of the entry consume; 0 = a longer code |
/// | 6..8   | symbols in the entry, 1 or 2                             |
/// | 8..16  | bits the first symbol alone consumes                     |
/// | 16..32 | first symbol                                             |
/// | 32..48 | second symbol                                            |
///
/// The total sits in the low six bits, all a 64-bit shift reads of its
/// count, so the bulk loop's shift can take the entry as loaded.
#[derive(Debug, Clone, Copy, Default)]
struct Entry(u64);

impl Entry {
    fn one(sym: u32, len: u8) -> Self {
        Self(u64::from(len) | 1 << 6 | u64::from(len) << 8 | u64::from(sym) << 16)
    }

    /// `self` followed by the single-symbol entry `next`.
    fn then(self, next: Entry) -> Self {
        let total = u64::from(self.first_len() + next.first_len());
        Self(total | 2 << 6 | (self.0 & 0xFFFF_FF00) | u64::from(next.first()) << 32)
    }

    #[inline]
    fn total_len(self) -> u32 {
        (self.0 & 63) as u32
    }

    #[inline]
    fn symbols(self) -> usize {
        (self.0 >> 6 & 3) as usize
    }

    #[inline]
    fn first_len(self) -> u8 {
        (self.0 >> 8) as u8
    }

    #[inline]
    fn first(self) -> u32 {
        u32::from((self.0 >> 16) as u16)
    }

    #[inline]
    fn second(self) -> u32 {
        u32::from((self.0 >> 32) as u16)
    }
}

/// Decoder side of a canonical Huffman code.
///
/// Decoding is table-accelerated: codes up to [`LOOKUP_BITS`] long resolve
/// with one peek + table hit; longer codes fall back to a canonical
/// length-first walk.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// Primary table, one [`Entry`] per LOOKUP_BITS-bit prefix.
    lookup: Box<[Entry; 1 << LOOKUP_BITS]>,
    /// Symbols sorted by (len, symbol).
    syms: Vec<u32>,
    /// For each length 1..=MAX_LEN: canonical code of the first symbol.
    first_code: [u32; MAX_LEN as usize + 1],
    /// For each length: index into `syms` of the first symbol.
    offset: [u32; MAX_LEN as usize + 1],
    /// For each length: number of symbols.
    count: [u32; MAX_LEN as usize + 1],
    max_len: u8,
}

impl HuffmanDecoder {
    /// Rebuild the decoder from a serialized table.
    pub fn read_table(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let n = r.read_u32()? as usize;
        if n > MAX_ALPHABET {
            return Err(CodecError::Corrupt("huffman alphabet too large"));
        }
        let mut lens = vec![0u8; n];
        let mut filled = 0usize;
        while filled < n {
            let len = r.read_bits(6)? as u8;
            let run = r.read_bits(16)? as usize;
            if run == 0 || filled + run > n {
                return Err(CodecError::Corrupt("bad huffman RLE run"));
            }
            for l in &mut lens[filled..filled + run] {
                *l = len;
            }
            filled += run;
        }
        Self::from_lengths(&lens)
    }

    /// Build directly from code lengths.
    pub fn from_lengths(lens: &[u8]) -> Result<Self, CodecError> {
        if lens.len() > MAX_ALPHABET {
            return Err(CodecError::Corrupt("huffman alphabet too large"));
        }
        let mut syms: Vec<u32> = (0..lens.len() as u32)
            .filter(|&s| lens[s as usize] > 0)
            .collect();
        syms.sort_unstable_by_key(|&s| (lens[s as usize], s));
        let mut first_code = [0u32; MAX_LEN as usize + 1];
        let mut offset = [0u32; MAX_LEN as usize + 1];
        let mut count = [0u32; MAX_LEN as usize + 1];
        let mut max_len = 0u8;
        for &s in &syms {
            let l = lens[s as usize];
            if l > MAX_LEN {
                return Err(CodecError::Corrupt("huffman length exceeds limit"));
            }
            count[l as usize] += 1;
            max_len = max_len.max(l);
        }
        let mut code = 0u32;
        let mut idx = 0u32;
        for l in 1..=max_len {
            code <<= 1;
            first_code[l as usize] = code;
            offset[l as usize] = idx;
            code = code
                .checked_add(count[l as usize])
                .ok_or(CodecError::Corrupt("huffman code overflow"))?;
            // Kraft check: the codes of this length must fit in l bits, or
            // the table is not a valid canonical code (corrupt stream).
            if u64::from(code) > 1u64 << l {
                return Err(CodecError::Corrupt("huffman lengths violate Kraft"));
            }
            idx += count[l as usize];
        }
        // Primary lookup table: first every prefix's leading short code ...
        let mut lookup = Box::new([Entry::default(); 1 << LOOKUP_BITS]);
        {
            let mut code = 0u32;
            let mut idx = 0usize;
            for l in 1..=max_len.min(LOOKUP_BITS as u8) {
                code <<= 1;
                for k in 0..count[l as usize] {
                    let sym = syms[idx + k as usize];
                    let prefix = ((code + k) as usize) << (LOOKUP_BITS - l as u32);
                    lookup[prefix..prefix + (1usize << (LOOKUP_BITS - l as u32))]
                        .fill(Entry::one(sym, l));
                }
                code += count[l as usize];
                idx += count[l as usize] as usize;
            }
        }
        // ... then the second code, where the bits left over hold all of it.
        // Shifting the prefix pads with zeros, so the padded lookup is only
        // trusted when the code it finds ends inside the real bits.
        for prefix in 0..lookup.len() {
            let first = lookup[prefix];
            let rest = (prefix << first.first_len()) & (lookup.len() - 1);
            let next = lookup[rest];
            let spare = LOOKUP_BITS as u8 - first.first_len();
            if first.symbols() == 1 && next.symbols() >= 1 && next.first_len() <= spare {
                lookup[prefix] = first.then(next);
            }
        }
        Ok(Self {
            lookup,
            syms,
            first_code,
            offset,
            count,
            max_len,
        })
    }

    /// Decode one symbol.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let entry = self.lookup[r.peek_bits(LOOKUP_BITS) as usize];
        if entry.total_len() != 0 {
            r.consume(u32::from(entry.first_len()))?;
            return Ok(entry.first());
        }
        self.decode_slow(r)
    }

    /// Decode `out.len()` symbols into `out`: the results, the error and the
    /// reader position are those of calling [`Self::decode`] once per slot.
    ///
    /// While eight input bytes remain, one word refill serves
    /// [`HITS_PER_REFILL`] table hits of one or two symbols each, with no
    /// per-symbol refill or end-of-input check. A code longer than
    /// [`LOOKUP_BITS`], and the last bytes of the stream and of `out`, go
    /// through [`Self::decode`].
    pub fn decode_run(&self, r: &mut BitReader<'_>, out: &mut [u32]) -> Result<(), CodecError> {
        let mut done = 0usize;
        // Every hit stores two slots and keeps as many as its entry holds.
        while out.len() - done >= 2 * HITS_PER_REFILL && r.refill_word() {
            for _ in 0..HITS_PER_REFILL {
                let entry = self.lookup[r.top_bits(LOOKUP_BITS) as usize];
                if entry.total_len() == 0 {
                    if let Some(slot) = out.get_mut(done) {
                        *slot = self.decode_slow(r)?;
                        done += 1;
                    }
                    break;
                }
                if let Some([a, b]) = out.get_mut(done..).and_then(|o| o.first_chunk_mut()) {
                    *a = entry.first();
                    *b = entry.second();
                }
                done += entry.symbols();
                r.skip(entry.total_len());
            }
        }
        for slot in out.iter_mut().skip(done) {
            *slot = self.decode(r)?;
        }
        Ok(())
    }

    /// Length-first canonical walk for codes longer than the lookup table.
    #[cold]
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let mut code = 0u32;
        for l in 1..=self.max_len {
            code = (code << 1) | r.read_bits(1)? as u32;
            let li = l as usize;
            if self.count[li] > 0 {
                let rel = code.wrapping_sub(self.first_code[li]);
                if rel < self.count[li] {
                    return Ok(self.syms[(self.offset[li] + rel) as usize]);
                }
            }
        }
        Err(CodecError::Corrupt("invalid huffman code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(symbols: &[u32], alphabet: usize) {
        let mut freqs = vec![0u64; alphabet];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        for &s in symbols {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let dec = HuffmanDecoder::read_table(&mut r).unwrap();
        for &s in symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn skewed_alphabet_round_trip() {
        let mut syms = Vec::new();
        for i in 0..2000u32 {
            // Heavily skewed toward small symbols, like quantization codes.
            let s = (i * i) % 37;
            syms.push(s);
        }
        round_trip(&syms, 64);
    }

    #[test]
    fn single_symbol_alphabet() {
        round_trip(&[5u32; 100], 16);
    }

    #[test]
    fn two_symbols() {
        let syms: Vec<u32> = (0..64).map(|i| i % 2).collect();
        round_trip(&syms, 2);
    }

    #[test]
    fn large_sparse_alphabet() {
        let syms: Vec<u32> = (0..3000).map(|i| (i * 7919) % 65536).collect();
        round_trip(&syms, 65536);
    }

    #[test]
    fn skewed_code_is_shorter_for_frequent_symbols() {
        let mut freqs = vec![0u64; 4];
        freqs[0] = 1000;
        freqs[1] = 10;
        freqs[2] = 10;
        freqs[3] = 10;
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        assert!(enc.len_of(0) < enc.len_of(1));
    }

    #[test]
    fn payload_bits_matches_actual_encoding() {
        let syms: Vec<u32> = (0..500).map(|i| i % 7).collect();
        let mut freqs = vec![0u64; 8];
        for &s in &syms {
            freqs[s as usize] += 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        for &s in &syms {
            enc.encode(&mut w, s);
        }
        let actual_bits = syms.iter().map(|&s| enc.len_of(s) as u64).sum::<u64>();
        assert_eq!(enc.payload_bits(&freqs), actual_bits);
        assert_eq!(w.finish().len(), actual_bits.div_ceil(8) as usize);
    }

    #[test]
    fn empty_table_round_trips() {
        let enc = HuffmanEncoder::from_frequencies(&[0u64; 10]);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let dec = HuffmanDecoder::read_table(&mut r).unwrap();
        assert_eq!(dec.max_len, 0);
    }

    #[test]
    fn corrupt_table_is_rejected() {
        // Claim a huge alphabet with no data behind it.
        let mut w = BitWriter::new();
        w.write_u32(1 << 27);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(HuffmanDecoder::read_table(&mut r).is_err());
    }

    #[test]
    fn kraft_inequality_holds() {
        let mut freqs = vec![0u64; 300];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let kraft: f64 = (0..300u32)
            .map(|s| {
                let l = enc.len_of(s);
                if l == 0 {
                    0.0
                } else {
                    2f64.powi(-(l as i32))
                }
            })
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft {kraft}");
    }

    /// Code lengths for `alphabet` symbols that force the last `deep` of
    /// them past [`LOOKUP_BITS`]: symbol 0 takes half the code space, the
    /// next a quarter, ..., and the deep symbols share the final sliver.
    fn lengths_with_long_codes(alphabet: usize, deep: usize) -> Vec<u8> {
        let shallow = alphabet - deep;
        let mut lens: Vec<u8> = (1..=shallow as u8).collect();
        // `deep` codes of equal length under the all-ones prefix.
        let extra = deep.next_power_of_two().trailing_zeros() as u8;
        lens.extend(std::iter::repeat_n(shallow as u8 + extra, deep));
        lens
    }

    /// A coded stream of `symbols` (no table), and its decoder.
    fn coded(lens: &[u8], symbols: &[u32]) -> (HuffmanDecoder, Vec<u8>) {
        let enc = HuffmanEncoder {
            codes: canonical_codes(lens),
        };
        let mut w = BitWriter::new();
        for &s in symbols {
            enc.encode(&mut w, s);
        }
        (HuffmanDecoder::from_lengths(lens).unwrap(), w.finish())
    }

    /// What calling `decode` once per slot gives: the symbols decoded before
    /// the first error, that error, and the reader position at the end.
    fn per_symbol(
        dec: &HuffmanDecoder,
        bytes: &[u8],
        count: usize,
    ) -> (Vec<u32>, Option<CodecError>, usize) {
        let mut r = BitReader::new(bytes);
        let mut out = Vec::new();
        for _ in 0..count {
            match dec.decode(&mut r) {
                Ok(s) => out.push(s),
                Err(e) => return (out, Some(e), r.bits_consumed()),
            }
        }
        (out, None, r.bits_consumed())
    }

    /// `decode_run` against `per_symbol` on one stream and slot count.
    fn assert_run_matches(dec: &HuffmanDecoder, bytes: &[u8], count: usize, ctx: &str) {
        let (want, want_err, want_at) = per_symbol(dec, bytes, count);
        let mut r = BitReader::new(bytes);
        let mut got = vec![u32::MAX; count];
        let got_err = dec.decode_run(&mut r, &mut got).err();
        assert_eq!(got_err, want_err, "{ctx}: error");
        assert_eq!(got[..want.len()], want[..], "{ctx}: decoded prefix");
        if want_err.is_none() {
            assert_eq!(r.bits_consumed(), want_at, "{ctx}: reader position");
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Symbols drawn so that short and long codes both occur: mostly the
    /// code's own probabilities, with a uniform draw mixed in.
    fn draw(lens: &[u8], count: usize, next: &mut impl FnMut() -> u64) -> Vec<u32> {
        let coded: Vec<u32> = (0..lens.len() as u32)
            .filter(|&s| lens[s as usize] > 0)
            .collect();
        (0..count)
            .map(|_| {
                if next().is_multiple_of(4) {
                    return coded[(next() % coded.len() as u64) as usize];
                }
                let depth = (next().trailing_zeros() as usize).min(coded.len() - 1);
                coded[depth]
            })
            .collect()
    }

    #[test]
    fn decode_run_equals_per_symbol_decode_on_every_alphabet_shape() {
        let mut next = xorshift(0xC0DE_D1FF);
        // One coded symbol; two; 300 with the deepest 290 past the lookup
        // table; the full 2^16 alphabet, sparse and all coded.
        let mut sparse = vec![0u8; 65_536];
        for (sym, len) in [
            (0, 1),
            (1, 2),
            (255, 3),
            (32_768, 4),
            (32_769, 5),
            (65_535, 5),
        ] {
            sparse[sym] = len;
        }
        let shapes: Vec<(&str, Vec<u8>)> = vec![
            ("one symbol", vec![0, 0, 1, 0]),
            ("two symbols", vec![1, 1]),
            ("300 symbols, long codes", lengths_with_long_codes(300, 290)),
            ("65536 sparse", sparse),
            ("65536 dense", vec![16u8; 65_536]),
        ];
        for (name, lens) in &shapes {
            for count in (0..=9).chain([11, 12, 13, 15, 16, 17, 63, 64, 65, 1000]) {
                let symbols = draw(lens, count, &mut next);
                let (dec, bytes) = coded(lens, &symbols);
                let ctx = format!("{name}, {count} symbols in {} bytes", bytes.len());
                assert_eq!(per_symbol(&dec, &bytes, count).0, symbols, "{ctx}");
                assert_run_matches(&dec, &bytes, count, &ctx);
                // Asking for more than the stream holds: both run into the
                // zero padding and then the end of input the same way.
                assert_run_matches(&dec, &bytes, count + 9, &format!("{ctx} (+9)"));
            }
        }
    }

    #[test]
    fn decode_run_equals_per_symbol_decode_at_every_truncation_point() {
        let mut next = xorshift(0x7B0C_A7ED);
        for (name, lens) in [
            ("short codes", vec![2u8, 2, 3, 3, 3, 4, 4]),
            ("long codes", lengths_with_long_codes(40, 30)),
        ] {
            let symbols = draw(&lens, 120, &mut next);
            let (dec, bytes) = coded(&lens, &symbols);
            for cut in 0..=bytes.len() {
                let ctx = format!("{name} cut to {cut} of {} bytes", bytes.len());
                assert_run_matches(&dec, &bytes[..cut], symbols.len(), &ctx);
            }
        }
    }

    #[test]
    fn decode_run_rejects_what_decode_rejects() {
        // An incomplete code: the all-ones prefix is assigned to no symbol.
        let dec = HuffmanDecoder::from_lengths(&[1, 2]).unwrap();
        for bytes in [
            vec![0xFFu8; 32],
            vec![0x00, 0x5F, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0],
        ] {
            for count in [1usize, 4, 8, 9, 40] {
                assert_run_matches(&dec, &bytes, count, &format!("{count} of {bytes:02x?}"));
            }
        }
    }

    #[test]
    fn table_bomb_alphabet_is_refused_before_anything_is_built() {
        // 2^16 symbols is the SZ code book and must stay admissible; one more
        // is refused from the four header bytes alone, with no run read.
        let mut w = BitWriter::new();
        w.write_u32(MAX_ALPHABET as u32 + 1);
        let bytes = w.finish();
        assert_eq!(
            HuffmanDecoder::read_table(&mut BitReader::new(&bytes)).err(),
            Some(CodecError::Corrupt("huffman alphabet too large"))
        );
        assert!(HuffmanDecoder::from_lengths(&vec![0u8; MAX_ALPHABET + 1]).is_err());
        assert!(HuffmanDecoder::from_lengths(&vec![16u8; MAX_ALPHABET]).is_ok());
    }
}
