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

/// Huffman code lengths for the symbols that occur, given their `weights`
/// in symbol order, flattening the weights until no code exceeds `MAX_LEN`.
fn code_lengths(mut weights: Vec<u64>) -> Vec<u8> {
    loop {
        let lens = code_lengths_once(&weights);
        if lens.iter().all(|&l| l <= MAX_LEN) {
            return lens;
        }
        for w in &mut weights {
            *w = w.div_ceil(2);
        }
    }
}

/// One Huffman construction over non-zero `weights`, one leaf each.
///
/// Node ids: leaf `i` is the `i`-th occurring symbol, internal nodes follow
/// all leaves in creation order. Each step joins the two nodes least by
/// `(weight, id)`, so equal weights break by symbol, leaves before internal
/// nodes, older internal nodes first — the order a heap over the whole
/// alphabet (absent symbols holding ids but never entering it) pops, hence
/// the same tree and lengths.
///
/// Joining the two least nodes every time creates internal nodes in
/// non-decreasing weight, so the leaves sorted once and the internal nodes
/// in creation order are two queues already in `(weight, id)` order, and
/// the least node overall is at the head of one of them.
fn code_lengths_once(weights: &[u64]) -> Vec<u8> {
    let leaves = weights.len();
    if leaves <= 1 {
        // A single distinct symbol still needs one bit on the wire.
        return vec![1; leaves];
    }
    let mut sorted: Vec<(u64, u32)> = weights.iter().copied().zip(0u32..).collect();
    sorted.sort_unstable();
    let mut sorted = sorted.into_iter().peekable();
    // Weight of internal node `leaves + k` at index `k`; `joined` counts
    // those that already have a parent.
    let mut internal: Vec<u64> = Vec::with_capacity(leaves - 1);
    let mut joined = 0usize;
    let mut parent = vec![0u32; 2 * leaves - 1];
    for id in leaves..2 * leaves - 1 {
        let mut weight = 0u64;
        for _ in 0..2 {
            // On equal weights the leaf goes first: its id is the smaller.
            let leaf = sorted.next_if(|&(w, _)| internal.get(joined).is_none_or(|&i| w <= i));
            let (w, child) = leaf.unwrap_or_else(|| {
                joined += 1;
                (internal[joined - 1], (leaves + joined - 1) as u32)
            });
            parent[child as usize] = id as u32;
            weight += w;
        }
        internal.push(weight);
    }
    // A parent is created after its children, so one backward sweep from
    // the root (the last node, depth 0) sees every parent before its child.
    let mut depth = vec![0u32; parent.len()];
    for id in (0..parent.len() - 1).rev() {
        depth[id] = depth[parent[id] as usize] + 1;
    }
    depth[..leaves].iter().map(|&d| d.min(255) as u8).collect()
}

/// Encoder side of a canonical Huffman code.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    /// Per symbol of the alphabet, the code in the low 32 bits and its
    /// length above them; 0 = no code. One integer per symbol so that the
    /// table starts as untouched zero pages and only the neighbourhood of
    /// the coded symbols is ever written.
    codes: Vec<u64>,
    /// The symbols that have a code, ascending.
    live: Vec<u32>,
    /// Longest code of the table.
    max_len: u8,
}

impl HuffmanEncoder {
    /// Build a code from symbol frequencies (index = symbol). Beyond one
    /// scan of `freqs`, the work is proportional to the symbols that occur.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        // A code book is mostly zeros: pass over those sixteen at a time.
        const STRIDE: usize = 16;
        let mut live: Vec<u32> = Vec::new();
        for (chunk, base) in freqs.chunks(STRIDE).zip((0u32..).step_by(STRIDE)) {
            if chunk.iter().fold(0, |any, &f| any | f) != 0 {
                live.extend(
                    (base..)
                        .zip(chunk)
                        .filter_map(|(s, &f)| (f > 0).then_some(s)),
                );
            }
        }
        let weights: Vec<u64> = live.iter().map(|&s| freqs[s as usize]).collect();
        let lens = code_lengths(weights);
        Self::from_live_lengths(freqs.len(), live, &lens)
    }

    /// Canonical codes for `live` symbols (ascending) of an `alphabet`-symbol
    /// code, `lens[i] > 0` being the length of `live[i]`'s code: codes of one
    /// length count up in symbol order, and each length starts where the
    /// shorter ones, extended by a zero bit, left off.
    fn from_live_lengths(alphabet: usize, live: Vec<u32>, lens: &[u8]) -> Self {
        let mut count = [0u64; MAX_LEN as usize + 1];
        for &len in lens {
            count[len as usize] += 1;
        }
        // 64 bits wide: the step past the last code of a complete code with
        // `MAX_LEN`-bit members is 2^32.
        let mut next_code = [0u64; MAX_LEN as usize + 1];
        let mut code = 0u64;
        for len in 1..=MAX_LEN as usize {
            code = (code + count[len - 1]) << 1;
            next_code[len] = code;
        }
        let mut codes = vec![0u64; alphabet];
        for (&sym, &len) in live.iter().zip(lens) {
            let code = &mut next_code[len as usize];
            codes[sym as usize] = u64::from(len) << 32 | *code & 0xFFFF_FFFF;
            *code += 1;
        }
        Self {
            codes,
            live,
            max_len: lens.iter().copied().max().unwrap_or(0),
        }
    }

    /// `(code, len)` of a symbol of the alphabet; `len == 0` = no code.
    #[inline]
    fn entry(&self, sym: usize) -> (u32, u8) {
        let packed = self.codes[sym];
        (packed as u32, (packed >> 32) as u8)
    }

    /// Serialize the code-length table (RLE of equal lengths).
    pub fn write_table(&self, w: &mut BitWriter) {
        fn run(w: &mut BitWriter, len: u8, mut count: usize) {
            while count > 0 {
                let chunk = count.min(u16::MAX as usize);
                w.write_bits(len as u64, 6);
                w.write_bits(chunk as u64, 16);
                count -= chunk;
            }
        }
        w.write_u32(self.codes.len() as u32);
        // Walk the coded symbols only: between two of them lies one run of
        // zero lengths, and neighbours of equal length share a run.
        let mut next = 0usize;
        let mut live = self.live.iter().map(|&s| s as usize).peekable();
        while let Some(first) = live.next() {
            run(w, 0, first - next);
            let len = self.entry(first).1;
            next = first + 1;
            while live
                .next_if(|&s| s == next && self.entry(s).1 == len)
                .is_some()
            {
                next += 1;
            }
            run(w, len, next - first);
        }
        run(w, 0, self.codes.len() - next);
    }

    /// Emit one symbol.
    ///
    /// # Panics
    /// Panics (debug) if the symbol had zero frequency at build time.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: u32) {
        let (code, len) = self.entry(sym as usize);
        debug_assert!(
            len > 0,
            "encoding symbol {sym} absent from the frequency table"
        );
        w.write_bits(code as u64, len as u32);
    }

    /// Emit `syms` in order: the bits of calling [`Self::encode`] once per
    /// symbol, with as many codes joined into one [`BitWriter::write_bits`]
    /// as its 57-bit limit admits for this table's longest code.
    pub fn encode_run(&self, w: &mut BitWriter, syms: &[u32]) {
        match self.max_len {
            0..=14 => self.encode_joined::<4>(w, syms),
            15..=19 => self.encode_joined::<3>(w, syms),
            20..=28 => self.encode_joined::<2>(w, syms),
            _ => self.encode_joined::<1>(w, syms),
        }
    }

    #[inline]
    fn encode_joined<const K: usize>(&self, w: &mut BitWriter, syms: &[u32]) {
        let mut chunks = syms.chunks_exact(K);
        for chunk in &mut chunks {
            let (mut bits, mut n) = (0u64, 0u32);
            for &sym in chunk {
                let (code, len) = self.entry(sym as usize);
                debug_assert!(
                    len > 0,
                    "encoding symbol {sym} absent from the frequency table"
                );
                bits = bits << len | u64::from(code);
                n += u32::from(len);
            }
            w.write_bits(bits, n);
        }
        for &sym in chunks.remainder() {
            self.encode(w, sym);
        }
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
/// Decoding is table-accelerated: codes up to `LOOKUP_BITS` long resolve
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
    pub(crate) fn from_lengths(lens: &[u8]) -> Result<Self, CodecError> {
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
        // 64 bits wide: a complete code with `MAX_LEN`-bit members steps to
        // 2^32 past its last code. The Kraft check keeps `code <= 2^l`, so a
        // first code that has any member fits 32 bits.
        let mut code = 0u64;
        let mut idx = 0u32;
        for l in 1..=max_len {
            code <<= 1;
            first_code[l as usize] = code as u32;
            offset[l as usize] = idx;
            code += u64::from(count[l as usize]);
            // Kraft check: the codes of this length must fit in l bits, or
            // the table is not a valid canonical code (corrupt stream).
            if code > 1u64 << l {
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
    /// `HITS_PER_REFILL` table hits of one or two symbols each, with no
    /// per-symbol refill or end-of-input check. A code longer than
    /// `LOOKUP_BITS`, and the last bytes of the stream and of `out`, go
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
        assert!(enc.entry(0).1 < enc.entry(1).1);
    }

    #[test]
    fn encoded_size_is_the_sum_of_the_code_lengths() {
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
        let actual_bits = syms
            .iter()
            .map(|&s| enc.entry(s as usize).1 as u64)
            .sum::<u64>();
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
                let l = enc.entry(s as usize).1;
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

    /// The encoder for a table of code lengths, one per alphabet symbol.
    fn encoder_for(lens: &[u8]) -> HuffmanEncoder {
        let live: Vec<u32> = (0..lens.len() as u32)
            .filter(|&s| lens[s as usize] > 0)
            .collect();
        let live_lens: Vec<u8> = live.iter().map(|&s| lens[s as usize]).collect();
        HuffmanEncoder::from_live_lengths(lens.len(), live, &live_lens)
    }

    /// A coded stream of `symbols` (no table), and its decoder.
    fn coded(lens: &[u8], symbols: &[u32]) -> (HuffmanDecoder, Vec<u8>) {
        let enc = encoder_for(lens);
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

    // -----------------------------------------------------------------------
    // The encoder build this module had before the one over occurring
    // symbols: every alphabet slot is a tree node, the canonical sort and
    // the table's run-length walk visit the whole alphabet. Kept as the
    // oracle for codes, lengths and table bytes.
    // -----------------------------------------------------------------------

    fn dense_code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
        let mut f: Vec<u64> = freqs.to_vec();
        loop {
            let lens = dense_code_lengths_once(&f);
            if lens.iter().all(|&l| l <= max_len) {
                return lens;
            }
            for x in &mut f {
                if *x > 0 {
                    *x = x.div_ceil(2);
                }
            }
        }
    }

    fn dense_code_lengths_once(freqs: &[u64]) -> Vec<u8> {
        use std::cmp::Reverse;
        // Nodes: leaves first, then internal nodes appended.
        let mut parent: Vec<u32> = vec![u32::MAX; freqs.len()];
        let mut heap = std::collections::BinaryHeap::new();
        for (i, &f) in freqs.iter().enumerate() {
            if f > 0 {
                heap.push(Reverse((f, i as u32)));
            }
        }
        let mut lens = vec![0u8; freqs.len()];
        if heap.len() == 1 {
            lens[heap.pop().unwrap().0 .1 as usize] = 1;
            return lens;
        }
        while heap.len() > 1 {
            let Reverse((fa, a)) = heap.pop().unwrap();
            let Reverse((fb, b)) = heap.pop().unwrap();
            let id = parent.len() as u32;
            parent.push(u32::MAX);
            parent[a as usize] = id;
            parent[b as usize] = id;
            heap.push(Reverse((fa + fb, id)));
        }
        for (i, len) in lens.iter_mut().enumerate() {
            if freqs[i] == 0 {
                continue;
            }
            let mut depth = 0u32;
            let mut n = i;
            while parent[n] != u32::MAX {
                n = parent[n] as usize;
                depth += 1;
            }
            *len = depth.min(255) as u8;
        }
        lens
    }

    fn dense_canonical_codes(lens: &[u8]) -> Vec<(u32, u8)> {
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
            // Wraps past the last 32-bit code of a complete code (the old
            // build overflowed there in debug builds).
            code = code.wrapping_add(1);
            prev_len = len;
        }
        codes
    }

    fn dense_write_table(codes: &[(u32, u8)], w: &mut BitWriter) {
        w.write_u32(codes.len() as u32);
        let mut i = 0usize;
        while i < codes.len() {
            let len = codes[i].1;
            let mut run = 1usize;
            while i + run < codes.len() && codes[i + run].1 == len {
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

    fn assert_build_matches_dense(freqs: &[u64], ctx: &str) {
        let enc = HuffmanEncoder::from_frequencies(freqs);
        let dense = dense_canonical_codes(&dense_code_lengths(freqs, MAX_LEN));
        let table: Vec<(u32, u8)> = (0..freqs.len()).map(|s| enc.entry(s)).collect();
        assert_eq!(table, dense, "{ctx}: (code, len) table");
        let longest = dense.iter().map(|&(_, l)| l).max().unwrap_or(0);
        assert_eq!(enc.max_len, longest, "{ctx}: longest code");
        let (mut got, mut want) = (BitWriter::new(), BitWriter::new());
        enc.write_table(&mut got);
        dense_write_table(&dense, &mut want);
        assert_eq!(got.finish(), want.finish(), "{ctx}: table bytes");
    }

    #[test]
    fn build_over_live_symbols_equals_the_dense_build() {
        let mut next = xorshift(0x11FE_5EED);
        assert_build_matches_dense(&[], "empty alphabet");
        assert_build_matches_dense(&[0; 10], "nothing occurs");
        assert_build_matches_dense(&[0, 0, 7, 0], "one symbol");
        assert_build_matches_dense(&[3, 3], "two symbols");
        for round in 0..300 {
            let alphabet = match round % 4 {
                0 => 2 + (next() % 30) as usize,
                1 => 300,
                2 => 4096,
                _ => 65_536,
            };
            let mut freqs = vec![0u64; alphabet];
            // Sparse to dense occupancy; weights from all-equal (nothing but
            // ties, among leaves and between leaves and internal nodes of
            // the same weight) through small integers to a wide spread.
            let occupancy = [1u64, 3, 17, 200][round / 4 % 4];
            let spread = [1u64, 2, 5, 1 << 20][round / 16 % 4];
            for f in &mut freqs {
                if next().is_multiple_of(occupancy) {
                    *f = 1 + next() % spread;
                }
            }
            // Runs of neighbours and a peak, as quantization codes have.
            let mid = alphabet / 2;
            for (d, f) in freqs[mid..].iter_mut().take(40).enumerate() {
                *f += (1u64 << 22) >> d.min(22);
            }
            assert_build_matches_dense(&freqs, &format!("round {round}, {alphabet} symbols"));
        }
    }

    #[test]
    fn flattening_loop_equals_the_dense_build() {
        // Fibonacci weights give the deepest tree there is: 60 symbols code
        // 59 deep, so the weights are halved until the tree fits MAX_LEN —
        // the same number of times, to the same lengths, as the dense build.
        let mut freqs = vec![0u64; 200];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut().skip(3).step_by(3).take(60) {
            *f = a;
            (a, b) = (b, a + b);
        }
        let once = code_lengths_once(&freqs.iter().copied().filter(|&f| f > 0).collect::<Vec<_>>());
        assert!(
            once.iter().any(|&l| l > MAX_LEN),
            "the tree must need flattening"
        );
        assert_build_matches_dense(&freqs, "fibonacci weights");
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        assert!(
            enc.max_len > 28 && enc.max_len <= MAX_LEN,
            "longest {}",
            enc.max_len
        );
    }

    #[test]
    fn encode_run_equals_per_symbol_encode_on_every_alphabet_shape() {
        let mut next = xorshift(0xE2C0_DE12);
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
        // The shapes of the `decode_run` test, plus a complete code with one
        // code of every length 1..=32 (twice 32), so every join width of
        // `encode_run` — four, three, two codes, one — is taken.
        let mut ladder: Vec<u8> = (1..=32).collect();
        ladder.push(32);
        let mut shapes: Vec<(String, Vec<u8>)> = vec![
            ("one symbol".into(), vec![0, 0, 1, 0]),
            ("two symbols".into(), vec![1, 1]),
            (
                "300 symbols, long codes".into(),
                lengths_with_long_codes(300, 290),
            ),
            ("65536 sparse".into(), sparse),
            ("65536 dense".into(), vec![16u8; 65_536]),
            ("lengths 1..=32".into(), ladder),
        ];
        for longest in [14u8, 15, 19, 20, 28, 29] {
            // `longest - 1` codes of lengths 1.., then two of `longest`.
            let mut lens: Vec<u8> = (1..longest).collect();
            lens.extend([longest, longest]);
            shapes.push((format!("longest code {longest}"), lens));
        }
        for (name, lens) in &shapes {
            let enc = encoder_for(lens);
            let dec = HuffmanDecoder::from_lengths(lens).unwrap();
            for count in (0..=HITS_PER_REFILL + 1).chain([7, 8, 9, 63, 64, 65, 1000]) {
                // Mostly the code's own probabilities, and the deepest codes
                // back to back so joined writes reach their widest.
                let mut symbols = draw(lens, count, &mut next);
                if count >= 8 {
                    let deepest = (0..lens.len() as u32)
                        .max_by_key(|&s| lens[s as usize])
                        .unwrap();
                    symbols[count / 2..count / 2 + 4].fill(deepest);
                }
                // Start at every bit offset of a byte.
                for lead in 0..8u32 {
                    let (mut run, mut single) = (BitWriter::new(), BitWriter::new());
                    run.write_bits(0, lead);
                    single.write_bits(0, lead);
                    enc.encode_run(&mut run, &symbols);
                    for &s in &symbols {
                        enc.encode(&mut single, s);
                    }
                    let bytes = run.finish();
                    assert_eq!(
                        bytes,
                        single.finish(),
                        "{name}, {count} symbols after {lead} bits"
                    );
                    // And the decoder reads it back, 32-bit codes included.
                    let mut r = BitReader::new(&bytes);
                    r.read_bits(lead).unwrap();
                    let mut back = vec![u32::MAX; count];
                    dec.decode_run(&mut r, &mut back).unwrap();
                    assert_eq!(back, symbols, "{name}, {count} symbols after {lead} bits");
                }
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
