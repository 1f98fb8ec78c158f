//! Canonical Huffman coding over a dense `u32` alphabet.
//!
//! Used by the SZ2/SZ3 quantization-code stage and by the deflate-style
//! lossless codecs. The code-length table is serialized with run-length
//! encoding so that sparse alphabets (e.g. 2^16 quantization bins of which a
//! few hundred occur) cost little header space.

use std::ops::Range;

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
        let mut longest = 0u8;
        for &len in &lens {
            longest = longest.max(len);
        }
        if longest <= MAX_LEN {
            return lens;
        }
        for weight in &mut weights {
            *weight = weight.div_ceil(2);
        }
    }
}

/// `(weight, leaf)` of every leaf in `(weight, leaf)` order: an LSD radix
/// sort on the weight, a byte a pass, of the leaves in id order. Each pass
/// is stable, so equal weights keep their ids ascending. The passes stop
/// at the highest byte a weight sets, and a pass over a byte that every
/// weight shares is skipped: the work and the tables follow the leaves,
/// whatever the alphabet they were drawn from.
fn leaves_by_weight(weights: &[u64]) -> Vec<(u64, u32)> {
    let n = weights.len();
    let mut sorted: Vec<(u64, u32)> = Vec::with_capacity(n);
    let mut any = 0u64;
    for (leaf, &weight) in (0u32..).zip(weights) {
        sorted.push((weight, leaf));
        any |= weight;
    }
    let mut spare = vec![(0u64, 0u32); n];
    let mut shift = 0u32;
    while shift < 64 && any >> shift != 0 {
        let mut start = [0usize; 256];
        for &(weight, _) in &sorted {
            start[(weight >> shift) as usize & 255] += 1;
        }
        if n > 0 && start[(sorted[0].0 >> shift) as usize & 255] < n {
            let mut at = 0usize;
            for slot in &mut start {
                (*slot, at) = (at, at + *slot);
            }
            for &leaf in &sorted {
                let digit = (leaf.0 >> shift) as usize & 255;
                spare[start[digit]] = leaf;
                start[digit] += 1;
            }
            std::mem::swap(&mut sorted, &mut spare);
        }
        shift += 8;
    }
    sorted
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
    // A weight no node has closes each queue, so the choice of queue is a
    // compare and never a branch.
    let mut sorted = leaves_by_weight(weights);
    sorted.push((u64::MAX, 0));
    // Weight of internal node `leaves + k` at index `k`, the unmade ones
    // closed; `next_leaf` and `joined` count the leaves and internal nodes
    // that have a parent.
    let mut internal = vec![u64::MAX; leaves];
    let (mut next_leaf, mut joined) = (0usize, 0usize);
    let mut parent = vec![0u32; 2 * leaves - 1];
    for k in 0..leaves - 1 {
        let mut weight = 0u64;
        for _ in 0..2 {
            let (leaf_weight, leaf) = sorted[next_leaf];
            let node_weight = internal[joined];
            // On equal weights the leaf goes first: its id is the smaller.
            let take_leaf = leaf_weight <= node_weight;
            let child = if take_leaf {
                leaf as usize
            } else {
                leaves + joined
            };
            parent[child] = (leaves + k) as u32;
            weight += leaf_weight.min(node_weight);
            next_leaf += usize::from(take_leaf);
            joined += usize::from(!take_leaf);
        }
        internal[k] = weight;
    }
    // A parent is created after its children, so one backward sweep from
    // the root (the last node, depth 0) sees every parent before its child.
    let mut depth = vec![0u32; parent.len()];
    for id in (0..parent.len() - 1).rev() {
        depth[id] = depth[parent[id] as usize] + 1;
    }
    let mut lens = vec![0u8; leaves];
    for i in 0..leaves {
        lens[i] = depth[i].min(255) as u8;
    }
    lens
}

/// Encoder side of a canonical Huffman code.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    /// Per symbol of `base..base + codes.len() - 1`, the code in the low
    /// 32 bits and its length above them; 0 = no code. The span runs from
    /// the first coded symbol to the last, so its size follows the live
    /// symbols, not the alphabet — but for a first symbol lying farther
    /// below the second than the rest span (SZ's escape code 0 beneath its
    /// quantization codes), whose entry takes the one slot past the span.
    /// Every symbol outside the span reads that slot, so a coded symbol's
    /// lookup is a clamp and a load, with no branch.
    codes: Vec<u64>,
    /// First symbol of the span.
    base: usize,
    /// The coded symbol below the span; `usize::MAX` for none.
    below: usize,
    /// Symbols of the alphabet, coded or not: what the table header states.
    alphabet: usize,
    /// The symbols that have a code, ascending.
    live: Vec<u32>,
    /// Longest code of the table.
    max_len: u8,
}

impl HuffmanEncoder {
    /// Build a code from symbol frequencies (index = symbol).
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        Self::from_frequencies_in(freqs, std::slice::from_ref(&(0..freqs.len())))
    }

    /// [`Self::from_frequencies`] for a caller that knows where its symbols
    /// occur: every non-zero frequency lies in one of `spans`, which ascend
    /// and do not overlap. Only the spans are read, and beyond them the
    /// work and the tables follow the symbols that occur.
    pub fn from_frequencies_in(freqs: &[u64], spans: &[Range<usize>]) -> Self {
        // A code book is mostly zeros: pass over those sixteen at a time.
        // In a chunk that has a count, every symbol is written and only the
        // ones that occur are kept: in a code book's thinning tails, a
        // branch on the count would be a coin toss.
        const STRIDE: usize = 16;
        let (mut live, mut weights) = (Vec::new(), Vec::new());
        let mut kept = 0usize;
        for span in spans {
            let mut at = span.start;
            while at < span.end {
                let end = span.end.min(at + STRIDE);
                let chunk = &freqs[at..end];
                let mut any = 0u64;
                for &f in chunk {
                    any |= f;
                }
                if any != 0 {
                    live.resize(kept + STRIDE, 0u32);
                    weights.resize(kept + STRIDE, 0u64);
                    for (k, &f) in chunk.iter().enumerate() {
                        live[kept] = (at + k) as u32;
                        weights[kept] = f;
                        kept += usize::from(f != 0);
                    }
                }
                at = end;
            }
        }
        live.truncate(kept);
        weights.truncate(kept);
        debug_assert!(
            live.windows(2).all(|w| w[0] < w[1]),
            "spans must ascend without overlap"
        );
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
        // The span of `codes`: all live symbols, or all but a far first one.
        let (mut base, mut end) = (0usize, 0usize);
        if let (Some(&first), Some(&last)) = (live.first(), live.last()) {
            (base, end) = (first as usize, last as usize + 1);
        }
        if live.len() >= 2 && (live[1] - live[0]) as usize > end - live[1] as usize {
            base = live[1] as usize;
        }
        let mut codes = vec![0u64; end - base + 1];
        let mut below = usize::MAX;
        let mut max_len = 0u8;
        for i in 0..live.len() {
            let (sym, len) = (live[i] as usize, lens[i]);
            let code = &mut next_code[len as usize];
            let packed = u64::from(len) << 32 | *code & 0xFFFF_FFFF;
            *code += 1;
            if sym < base {
                below = sym;
            }
            codes[sym.wrapping_sub(base).min(end - base)] = packed;
            max_len = max_len.max(len);
        }
        Self {
            codes,
            base,
            below,
            alphabet,
            live,
            max_len,
        }
    }

    /// The packed entry of a coded symbol; a symbol without a code reads 0
    /// inside the span and the slot past it outside.
    #[inline]
    fn packed(&self, sym: usize) -> u64 {
        let past = self.codes.len() - 1;
        self.codes[sym.wrapping_sub(self.base).min(past)]
    }

    /// `(code, len)` of a symbol of the alphabet; `len == 0` = no code.
    #[inline]
    fn entry(&self, sym: usize) -> (u32, u8) {
        let inside = sym.wrapping_sub(self.base) < self.codes.len() - 1;
        let packed = if inside || sym == self.below {
            self.packed(sym)
        } else {
            0
        };
        (packed as u32, (packed >> 32) as u8)
    }

    /// The runs of the serialized table, in order: `(length, symbols)`,
    /// zero lengths included, each run as long as it reaches.
    fn table_runs(&self, mut run: impl FnMut(u8, usize)) {
        // Walk the coded symbols only: between two of them lies one run of
        // zero lengths, and neighbours of equal length share a run.
        let mut next = 0usize;
        let mut i = 0usize;
        while i < self.live.len() {
            let first = self.live[i] as usize;
            run(0, first - next);
            let len = self.entry(first).1;
            next = first + 1;
            i += 1;
            while i < self.live.len() && self.live[i] as usize == next && self.entry(next).1 == len
            {
                next += 1;
                i += 1;
            }
            run(len, next - first);
        }
        run(0, self.alphabet - next);
    }

    /// Serialize the code-length table (RLE of equal lengths).
    pub fn write_table(&self, w: &mut BitWriter) {
        w.write_u32(self.alphabet as u32);
        self.table_runs(|len, mut count| {
            while count > 0 {
                let chunk = count.min(u16::MAX as usize);
                w.write_bits(len as u64, 6);
                w.write_bits(chunk as u64, 16);
                count -= chunk;
            }
        });
    }

    /// Bits that [`Self::write_table`] and then one [`Self::encode`] per
    /// counted symbol write, `freqs[s]` being the count of symbol `s`: the
    /// price of a stream, known before a bit of it is written.
    pub fn bits(&self, freqs: &[u64]) -> u64 {
        let mut bits = 32u64;
        self.table_runs(|_, count| bits += 22 * count.div_ceil(u16::MAX as usize) as u64);
        for i in 0..self.live.len() {
            let sym = self.live[i] as usize;
            bits += freqs.get(sym).copied().unwrap_or(0) * u64::from(self.entry(sym).1);
        }
        bits
    }

    /// Emit one symbol.
    ///
    /// # Panics
    /// Panics (debug) if the symbol had zero frequency at build time.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: u32) {
        debug_assert!(
            self.entry(sym as usize).1 > 0,
            "encoding symbol {sym} absent from the frequency table"
        );
        let packed = self.packed(sym as usize);
        w.write_bits(packed & 0xFFFF_FFFF, (packed >> 32) as u32);
    }

    /// Emit `syms` in order: the bits of calling [`Self::encode`] once per
    /// symbol, with as many codes joined into one [`BitWriter::write_bits`]
    /// as its 57-bit limit admits for this table's longest code.
    pub fn encode_run<S: Copy + Into<u32>>(&self, w: &mut BitWriter, syms: &[S]) {
        match self.max_len {
            0..=14 => self.encode_joined::<4, S>(w, syms),
            15..=19 => self.encode_joined::<3, S>(w, syms),
            20..=28 => self.encode_joined::<2, S>(w, syms),
            _ => self.encode_joined::<1, S>(w, syms),
        }
    }

    #[inline]
    fn encode_joined<const K: usize, S: Copy + Into<u32>>(&self, w: &mut BitWriter, syms: &[S]) {
        let mut chunks = syms.chunks_exact(K);
        for chunk in &mut chunks {
            let (mut bits, mut n) = (0u64, 0u32);
            for &sym in chunk {
                let sym: u32 = sym.into();
                debug_assert!(
                    self.entry(sym as usize).1 > 0,
                    "encoding symbol {sym} absent from the frequency table"
                );
                let packed = self.packed(sym as usize);
                bits = bits << (packed >> 32) | packed & 0xFFFF_FFFF;
                n += (packed >> 32) as u32;
            }
            w.write_bits(bits, n);
        }
        for &sym in chunks.remainder() {
            self.encode(w, sym.into());
        }
    }
}

/// Bits resolved by the primary decode lookup table.
const LOOKUP_BITS: u32 = 12;

/// Codes a stream must hold for [`HuffmanDecoder::read_table_for`] to give
/// table entries a second code. At ~3 bits a code the pair pass adds
/// ~7.5 µs to a build and saves ~1.8 ns a code in `decode_run`, so it pays
/// from ~4 000 codes; at ~10 bits a code, where few prefixes hold two codes,
/// it costs and saves next to nothing (the `huffman/short` rows of
/// `cargo bench -p fedsz-bench --bench entropy`, two-core AVX2 box).
const PAIRS_FROM: usize = 1 << 12;

/// Codes a stream must hold for [`HuffmanDecoder::read_table_for`] to give
/// table entries a third code. At ~3 bits a code the third-code work adds
/// ~5 µs to a build and saves ~0.5 ns a code in `decode_run`, so it pays
/// from ~10 000 codes; an SZ2 group is 16 384.
const THIRDS_FROM: usize = 1 << 14;

/// Entries of a table indexed by code length, `0..=MAX_LEN`.
const LENGTHS: usize = MAX_LEN as usize + 1;

/// Largest alphabet [`HuffmanDecoder::read_table`] admits. No format in the
/// workspace codes more than the 2^16 SZ quantization symbols, and a table
/// header is a few bytes per 65 535-symbol run, so without a cap a
/// 150-byte stream could demand a 2^26-entry sort before being refused.
const MAX_ALPHABET: usize = 1 << 16;

/// Table hits [`HuffmanDecoder::decode_run`] takes per refill: a refilled
/// accumulator holds at least 56 bits.
const HITS_PER_REFILL: usize = (56 / LOOKUP_BITS) as usize;

/// One primary-table entry: the one to three symbols a [`LOOKUP_BITS`]-bit
/// prefix fully determines. Symbols fit 16 bits under [`MAX_ALPHABET`].
///
/// | bits   | field                                                    |
/// |--------|----------------------------------------------------------|
/// | 0..6   | bits all symbols of the entry consume; 0 = a longer code |
/// | 6..8   | symbols in the entry, 1 to 3                             |
/// | 8..16  | bits the first symbol alone consumes                     |
/// | 16..32 | first symbol                                             |
/// | 32..48 | second symbol                                            |
/// | 48..64 | third symbol                                             |
///
/// The total sits in the low six bits, all a 64-bit shift reads of its
/// count, so the bulk loop's shift can take the entry as loaded.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct Entry(u64);

impl Entry {
    fn one(sym: u32, len: u8) -> Self {
        Self(u64::from(len) | 1 << 6 | u64::from(len) << 8 | u64::from(sym) << 16)
    }

    /// `self`, one symbol, followed by the first symbol of `next`.
    #[inline]
    fn pair(self, next: Entry) -> Self {
        let total = self.0 + u64::from(next.first_len());
        Self(total & !(3 << 6) | 2 << 6 | (next.0 & 0xFFFF_0000) << 16)
    }

    /// `self`, two symbols, followed by the first symbol of `next`.
    #[inline]
    fn triple(self, next: Entry) -> Self {
        let total = self.0 + u64::from(next.first_len());
        Self(total & !(3 << 6) | 3 << 6 | (next.0 & 0xFFFF_0000) << 32)
    }

    /// `if take { a } else { b }`, with no branch.
    #[inline]
    fn pick(take: bool, a: Entry, b: Entry) -> Entry {
        let mask = u64::from(take).wrapping_neg();
        Entry(b.0 ^ (a.0 ^ b.0) & mask)
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

    #[inline]
    fn third(self) -> u32 {
        u32::from((self.0 >> 48) as u16)
    }
}

/// Decoder side of a canonical Huffman code.
///
/// Decoding is table-accelerated: codes up to `LOOKUP_BITS` long resolve
/// with one peek + table hit; longer codes resolve from one 32-bit peek by
/// a canonical compare per length.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct HuffmanDecoder {
    /// Primary table, one [`Entry`] per LOOKUP_BITS-bit prefix.
    lookup: Box<[Entry; 1 << LOOKUP_BITS]>,
    /// Symbols sorted by (len, symbol).
    syms: Vec<u32>,
    /// For each length 1..=MAX_LEN: canonical code of the first symbol.
    first_code: [u32; LENGTHS],
    /// For each length: index into `syms` of the first symbol.
    offset: [u32; LENGTHS],
    /// For each length: number of symbols.
    count: [u32; LENGTHS],
    max_len: u8,
}

impl HuffmanDecoder {
    /// Rebuild the decoder from a serialized table.
    ///
    /// The work follows the header's runs and coded symbols, not the
    /// alphabet: the coded runs are kept and counted per length, then each
    /// symbol is placed at its (length, symbol) rank. Refusals, in order: an
    /// alphabet over 2^16 symbols, a bad run (or the input ending inside
    /// the header), a length over 32 bits, a Kraft violation.
    pub fn read_table(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        Self::read_table_for(r, usize::MAX)
    }

    /// [`Self::read_table`] for a stream of about `codes` codes: below
    /// 16 384 codes no entry is given a third code, and below 4 096 none a
    /// second. The symbols, the errors and the reader position of
    /// every decode are the same either way; a short stream just does not
    /// decode enough codes to pay for the multi-code work of the build.
    pub fn read_table_for(r: &mut BitReader<'_>, codes: usize) -> Result<Self, CodecError> {
        let n = r.read_u32()? as usize;
        if n > MAX_ALPHABET {
            return Err(CodecError::Corrupt("huffman alphabet too large"));
        }
        // Coded runs as (first symbol, run, length), ascending by symbol.
        let mut runs: Vec<(u32, u32, u8)> = Vec::new();
        let mut count = [0u32; LENGTHS];
        let mut too_long = false;
        let mut filled = 0usize;
        while filled < n {
            let len = r.read_bits(6)? as u8;
            let run = r.read_bits(16)? as usize;
            if run == 0 || filled + run > n {
                return Err(CodecError::Corrupt("bad huffman RLE run"));
            }
            // A bad run later in the header is refused first.
            if len > MAX_LEN {
                too_long = true;
            } else if len > 0 {
                count[len as usize] += run as u32;
                runs.push((filled as u32, run as u32, len));
            }
            filled += run;
        }
        if too_long {
            return Err(CodecError::Corrupt("huffman length exceeds limit"));
        }
        let most = match codes {
            THIRDS_FROM.. => 3,
            PAIRS_FROM.. => 2,
            _ => 1,
        };
        Self::from_runs(&runs, count, most)
    }

    /// Build from the coded runs, ascending by symbol, and the number of
    /// codes of each length, all at most [`MAX_LEN`]; `most` is how many
    /// codes, 1 to 3, an entry may hold.
    fn from_runs(
        runs: &[(u32, u32, u8)],
        count: [u32; LENGTHS],
        most: usize,
    ) -> Result<Self, CodecError> {
        let mut first_code = [0u32; LENGTHS];
        let mut offset = [0u32; LENGTHS];
        let max_len = (1..=MAX_LEN)
            .rev()
            .find(|&l| count[l as usize] > 0)
            .unwrap_or(0);
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
        // Counting placement: each length's symbols start at its offset, and
        // the runs ascend, so each length fills in symbol order.
        let mut syms = vec![0u32; idx as usize];
        let mut next = offset;
        for &(first, run, len) in runs {
            let at = next[len as usize];
            for k in 0..run {
                syms[(at + k) as usize] = first + k;
            }
            next[len as usize] = at + run;
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
        // ... then a second code and a third, each where the bits left over
        // hold all of it. Shifting the prefix pads with zeros, so a padded
        // lookup is only trusted when the code it finds ends inside the real
        // bits. Only a code's own fields are read at the shifted prefixes,
        // and this pass leaves those as they are.
        //
        // Left-aligned canonical codes ascend in (length, symbol) order, so
        // the prefixes each short code begins fill one range after another
        // from 0 (those past them begin a longer code and keep a 0 entry):
        // within a range the first code is fixed and the prefix shifted past
        // it steps by a constant. Every choice is a select, not a branch:
        // which prefixes take a second or a third code follows the lengths,
        // not a pattern a predictor learns. Once a first code and the
        // shortest code overfill the window, the ranges left keep one code a
        // prefix, and where the first and twice the shortest do, no third
        // code is looked for.
        let shortest = (1..=max_len).find(|&l| count[l as usize] > 0);
        let room = |used: u32, codes: u32| {
            shortest.is_some_and(|l| used + codes * u32::from(l) <= LOOKUP_BITS)
        };
        let mask = lookup.len() - 1;
        let mut start = 0usize;
        for l in 1..=max_len.min(LOOKUP_BITS as u8) {
            let used = u32::from(l);
            let width = 1usize << (LOOKUP_BITS - used);
            if most < 2 || !room(used, 1) {
                break;
            }
            let thirds = most > 2 && room(used, 2);
            for _ in 0..count[l as usize] {
                let first = lookup[start];
                for r in 0..width {
                    let rest = r << used;
                    let next = lookup[rest];
                    let two_len = used + u32::from(next.first_len());
                    let two = (next.symbols() != 0) & (two_len <= LOOKUP_BITS);
                    let pair = first.pair(next);
                    let mut entry = Entry::pick(two, pair, first);
                    if thirds {
                        let last = lookup[(rest << next.first_len()) & mask];
                        let three = two
                            & (last.symbols() != 0)
                            & (two_len + u32::from(last.first_len()) <= LOOKUP_BITS);
                        entry = Entry::pick(three, pair.triple(last), entry);
                    }
                    lookup[start + r] = entry;
                }
                start += width;
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
    /// `HITS_PER_REFILL` table hits of one to three symbols each, with no
    /// per-symbol refill or end-of-input check. A code longer than
    /// `LOOKUP_BITS` resolves from the buffered bits, once they hold the
    /// longest code, and ends the group. The last bytes of the stream and of
    /// `out` go through [`Self::decode`].
    pub fn decode_run(&self, r: &mut BitReader<'_>, out: &mut [u32]) -> Result<(), CodecError> {
        let mut done = 0usize;
        // Every hit stores three slots and keeps as many as its entry holds.
        while out.len() - done >= 3 * HITS_PER_REFILL && r.refill_word() {
            for _ in 0..HITS_PER_REFILL {
                let entry = self.lookup[r.top_bits(LOOKUP_BITS) as usize];
                if entry.total_len() == 0 {
                    // A longer code: resolved from the buffer once all of it
                    // is there, else after the refill (56 bits). The group
                    // ends either way.
                    if r.buffered() >= u32::from(self.max_len) {
                        let (sym, len) = self
                            .resolve_long(r.top_bits(u32::from(MAX_LEN)))
                            .ok_or(CodecError::Corrupt("invalid huffman code"))?;
                        if let Some(slot) = out.get_mut(done) {
                            *slot = sym;
                            done += 1;
                            r.skip(len);
                        }
                    }
                    break;
                }
                if let Some([a, b, c]) = out.get_mut(done..).and_then(|o| o.first_chunk_mut()) {
                    *a = entry.first();
                    *b = entry.second();
                    *c = entry.third();
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

    /// A code the lookup table missed, resolved from one zero-padded peek.
    /// The errors are a bit-at-a-time walk's: `UnexpectedEof` when the input
    /// ends before the code (or, for no code, `max_len` bits) completes,
    /// `Corrupt` otherwise.
    #[cold]
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        match self.resolve_long(r.peek_bits(u32::from(MAX_LEN))) {
            Some((sym, len)) => {
                r.consume(len)?;
                Ok(sym)
            }
            None => {
                r.consume(u32::from(self.max_len))?;
                Err(CodecError::Corrupt("invalid huffman code"))
            }
        }
    }

    /// Symbol and length of the code longer than [`LOOKUP_BITS`] that
    /// begins `top`, the next [`MAX_LEN`] bits, if one does: the canonical
    /// compare of each length's prefix against that length's codes.
    #[inline]
    fn resolve_long(&self, top: u64) -> Option<(u32, u32)> {
        let mut len = LOOKUP_BITS + 1;
        while len <= u32::from(self.max_len) {
            let li = len as usize;
            let rel =
                ((top >> (u32::from(MAX_LEN) - len)) as u32).wrapping_sub(self.first_code[li]);
            if rel < self.count[li] {
                return Some((self.syms[(self.offset[li] + rel) as usize], len));
            }
            len += 1;
        }
        None
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
        (decoder_for(lens).unwrap(), w.finish())
    }

    /// The serialized table of any code-length list, lengths over
    /// [`MAX_LEN`] and zero lengths included: the header `write_table` emits.
    fn table_bytes(lens: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_u32(lens.len() as u32);
        for group in lens.chunk_by(|a, b| a == b) {
            for chunk in group.chunks(u16::MAX as usize) {
                w.write_bits(u64::from(chunk[0]), 6);
                w.write_bits(chunk.len() as u64, 16);
            }
        }
        w.finish()
    }

    /// The decoder `read_table` builds for a code-length list.
    fn decoder_for(lens: &[u8]) -> Result<HuffmanDecoder, CodecError> {
        HuffmanDecoder::read_table(&mut BitReader::new(&table_bytes(lens)))
    }

    /// What calling `decode` once per slot gives: the symbols decoded before
    /// the first error, that error, and the reader position at the end.
    fn per_symbol(
        dec: &HuffmanDecoder,
        bytes: &[u8],
        count: usize,
    ) -> (Vec<u32>, Option<CodecError>, usize) {
        per_symbol_with(bytes, count, |r| dec.decode(r))
    }

    /// `per_symbol` for any one-symbol decode.
    fn per_symbol_with(
        bytes: &[u8],
        count: usize,
        decode: impl Fn(&mut BitReader<'_>) -> Result<u32, CodecError>,
    ) -> (Vec<u32>, Option<CodecError>, usize) {
        let mut r = BitReader::new(bytes);
        let mut out = Vec::new();
        for _ in 0..count {
            match decode(&mut r) {
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

    /// `count` symbols of a Gaussian of `sigma` bins around symbol 128 of a
    /// 256-symbol alphabet, as SZ's quantization codes are.
    fn gaussian_symbols(sigma: f64, count: usize, next: &mut impl FnMut() -> u64) -> Vec<u32> {
        let mut symbols = Vec::with_capacity(count);
        for _ in 0..count {
            let u = ((next() >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
            let v = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let z = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            symbols.push((128.0 + z * sigma).round().clamp(1.0, 255.0) as u32);
        }
        symbols
    }

    /// The code lengths of a Gaussian of `sigma` bins (see
    /// [`gaussian_symbols`]), built from 20 000 draws. At sigma 1 and 2.5
    /// most codes take two to four bits, so table hits of three codes form.
    fn gaussian_lengths(sigma: f64, next: &mut impl FnMut() -> u64) -> Vec<u8> {
        let mut freqs = vec![0u64; 256];
        let symbols = gaussian_symbols(sigma, 20_000, next);
        for i in 0..symbols.len() {
            freqs[symbols[i] as usize] += 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        (0..freqs.len()).map(|s| enc.entry(s).1).collect()
    }

    /// `count` symbols of `lens`'s Gaussian, redrawn until coded.
    fn gaussian_draw(
        sigma: f64,
        lens: &[u8],
        count: usize,
        next: &mut impl FnMut() -> u64,
    ) -> Vec<u32> {
        let mut symbols = Vec::with_capacity(count);
        while symbols.len() < count {
            let sym = gaussian_symbols(sigma, 1, next)[0];
            if lens[sym as usize] > 0 {
                symbols.push(sym);
            }
        }
        symbols
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
        // And SZ's narrow code books, sigma 1 and 2.5 bins, where a table
        // hit takes up to three codes.
        let shapes: Vec<(&str, Vec<u8>, Option<f64>)> = vec![
            ("one symbol", vec![0, 0, 1, 0], None),
            ("two symbols", vec![1, 1], None),
            (
                "300 symbols, long codes",
                lengths_with_long_codes(300, 290),
                None,
            ),
            ("65536 sparse", sparse, None),
            ("65536 dense", vec![16u8; 65_536], None),
            ("sigma 1", gaussian_lengths(1.0, &mut next), Some(1.0)),
            ("sigma 2.5", gaussian_lengths(2.5, &mut next), Some(2.5)),
        ];
        for (name, lens, sigma) in &shapes {
            for count in (0..=9).chain([11, 12, 13, 15, 16, 17, 63, 64, 65, 1000]) {
                let symbols = match *sigma {
                    Some(sigma) => gaussian_draw(sigma, lens, count, &mut next),
                    None => draw(lens, count, &mut next),
                };
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
        let narrow = gaussian_lengths(2.5, &mut next);
        let narrow_symbols = gaussian_draw(2.5, &narrow, 120, &mut next);
        for (name, lens) in [
            ("short codes", vec![2u8, 2, 3, 3, 3, 4, 4]),
            ("long codes", lengths_with_long_codes(40, 30)),
            ("sigma 2.5", narrow),
        ] {
            let symbols = match name {
                "sigma 2.5" => narrow_symbols.clone(),
                _ => draw(&lens, 120, &mut next),
            };
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
        let dec = decoder_for(&[1, 2]).unwrap();
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

    /// Writes the table and returns how many bits that took.
    fn dense_write_table(codes: &[(u32, u8)], w: &mut BitWriter) -> u64 {
        let mut bits = 32u64;
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
                bits += 22;
                remaining -= chunk;
            }
            i += run;
        }
        bits
    }

    /// Both builds — over the whole alphabet, and over symbol 0 plus the
    /// span from the second occurring symbol to the last, as SZ calls it —
    /// against the dense build: every symbol's code, the longest code, the
    /// table bytes, and the price of the table and one code per count.
    fn assert_build_matches_dense(freqs: &[u64], ctx: &str) {
        let dense = dense_canonical_codes(&dense_code_lengths(freqs, MAX_LEN));
        let longest = dense.iter().map(|&(_, l)| l).max().unwrap_or(0);
        let mut want = BitWriter::new();
        let table_bits = dense_write_table(&dense, &mut want);
        let want_table = want.finish();
        let occurring: Vec<usize> = (1..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        let mut spans = Vec::new();
        spans.push(0..freqs.len().min(1));
        if let (Some(&first), Some(&last)) = (occurring.first(), occurring.last()) {
            spans.push(first..last + 1);
        }
        let builds = [
            ("whole alphabet", HuffmanEncoder::from_frequencies(freqs)),
            ("spans", HuffmanEncoder::from_frequencies_in(freqs, &spans)),
        ];
        for (build, enc) in &builds {
            let ctx = format!("{ctx}, {build}");
            let table: Vec<(u32, u8)> = (0..freqs.len()).map(|s| enc.entry(s)).collect();
            assert_eq!(table, dense, "{ctx}: (code, len) table");
            assert_eq!(enc.max_len, longest, "{ctx}: longest code");
            let mut got = BitWriter::new();
            enc.write_table(&mut got);
            let got_table = got.finish();
            assert_eq!(got_table, want_table, "{ctx}: table bytes");
            let coded: u64 = (0..freqs.len())
                .map(|s| freqs[s] * u64::from(dense[s].1))
                .sum();
            assert_eq!(enc.bits(freqs), table_bits + coded, "{ctx}: priced bits");
        }
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

        // The SZ shape at rel 1e-4 and wider: 22 000 codes live, nearly all
        // tied at four small weights, a peak, and symbol 0 far below them.
        let mut wide = vec![0u64; 65_536];
        wide[0] = 977;
        for f in &mut wide[22_000..44_000] {
            *f = 1 + next() % 4;
        }
        for d in 0..200 {
            wide[32_900 + d] += (1u64 << 20) >> (d / 10);
        }
        assert_build_matches_dense(&wide, "22 000 live symbols, heavy ties");

        // Weights past 2^32, where the sort's high bytes decide: ties among
        // them, and small weights beside them.
        let mut high = vec![0u64; 4096];
        for (s, f) in high.iter_mut().enumerate() {
            *f = match s % 3 {
                0 => (1u64 << 32) * (1 + next() % 3) + next() % 3,
                1 => (1u64 << (33 + next() % 20)) + (next() & 0xFF),
                _ => next() % 5,
            };
        }
        assert_build_matches_dense(&high, "weights past 2^32");

        // 20 000 tied leaves under a Fibonacci chain up to ~2^40: deeper
        // than `MAX_LEN`, so the flattening loop runs at this size too.
        let mut deep = vec![0u64; 65_536];
        for f in &mut deep[30_000..50_000] {
            *f = 1;
        }
        let (mut a, mut b) = (1u64, 1u64);
        for f in deep.iter_mut().skip(50_001).step_by(7).take(60) {
            *f = a;
            (a, b) = (b, a + b);
        }
        let weights: Vec<u64> = deep.iter().copied().filter(|&f| f > 0).collect();
        assert!(
            code_lengths_once(&weights).iter().any(|&l| l > MAX_LEN),
            "the tree must need flattening"
        );
        assert!(a > 1 << 32, "the chain must pass 2^32");
        assert_build_matches_dense(&deep, "20 000 ties under a Fibonacci chain");
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
            let dec = decoder_for(lens).unwrap();
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
        assert!(decoder_for(&vec![0u8; MAX_ALPHABET + 1]).is_err());
        assert!(decoder_for(&vec![16u8; MAX_ALPHABET]).is_ok());
    }

    // -----------------------------------------------------------------------
    // The decoder this module had before `read_table` built from the coded
    // runs: a length per alphabet symbol, scanned and sorted, and a code
    // past the lookup table read one bit at a time. Kept as the oracle for
    // tables, symbols and errors.
    // -----------------------------------------------------------------------

    impl HuffmanDecoder {
        fn read_table_reference(r: &mut BitReader<'_>, most: usize) -> Result<Self, CodecError> {
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
            Self::from_lengths_reference(&lens, most)
        }

        fn from_lengths_reference(lens: &[u8], most: usize) -> Result<Self, CodecError> {
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
            let mut code = 0u64;
            let mut idx = 0u32;
            for l in 1..=max_len {
                code <<= 1;
                first_code[l as usize] = code as u32;
                offset[l as usize] = idx;
                code += u64::from(count[l as usize]);
                if code > 1u64 << l {
                    return Err(CodecError::Corrupt("huffman lengths violate Kraft"));
                }
                idx += count[l as usize];
            }
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
            // Every prefix walked on its own: as many codes as end inside
            // its bits, up to `most`, read from the one-code table.
            let single = lookup.clone();
            for prefix in 0..lookup.len() {
                let mut entry = single[prefix];
                while entry.symbols() >= 1 && entry.symbols() < most {
                    let used = entry.total_len();
                    let next = single[(prefix << used) & (single.len() - 1)];
                    if next.symbols() == 0 || u32::from(next.first_len()) > LOOKUP_BITS - used {
                        break;
                    }
                    entry = match entry.symbols() {
                        1 => entry.pair(next),
                        _ => entry.triple(next),
                    };
                }
                lookup[prefix] = entry;
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

        /// `decode` with the bit-at-a-time walk behind the lookup table.
        fn decode_reference(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
            let entry = self.lookup[r.peek_bits(LOOKUP_BITS) as usize];
            if entry.total_len() != 0 {
                r.consume(u32::from(entry.first_len()))?;
                return Ok(entry.first());
            }
            self.decode_slow_reference(r)
        }

        fn decode_slow_reference(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
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

    /// `read_table_for` against the reference on one header, for streams of
    /// each length on either side of [`PAIRS_FROM`] and [`THIRDS_FROM`]: the
    /// same decoder, field for field, and reader position, or the same error.
    fn assert_table_matches_reference(bytes: &[u8], ctx: &str) {
        let tables = [
            (usize::MAX, 3),
            (THIRDS_FROM, 3),
            (THIRDS_FROM - 1, 2),
            (PAIRS_FROM, 2),
            (PAIRS_FROM - 1, 1),
        ];
        for (codes, most) in tables {
            let (mut got_r, mut want_r) = (BitReader::new(bytes), BitReader::new(bytes));
            let got = HuffmanDecoder::read_table_for(&mut got_r, codes);
            let want = HuffmanDecoder::read_table_reference(&mut want_r, most);
            let ctx = format!("{ctx}, {codes} codes");
            assert!(
                got == want,
                "{ctx}: {:?} against {:?}",
                got.err(),
                want.err()
            );
            if want.is_ok() {
                assert_eq!(
                    got_r.bits_consumed(),
                    want_r.bits_consumed(),
                    "{ctx}: reader position"
                );
            }
        }
    }

    /// Code lengths of a Huffman code over `alphabet` symbols, about one in
    /// `occupancy` of them coded, with weights below `2^spread`.
    fn random_lengths(
        alphabet: usize,
        occupancy: u64,
        spread: u64,
        next: &mut impl FnMut() -> u64,
    ) -> Vec<u8> {
        let freqs: Vec<u64> = (0..alphabet)
            .map(|_| match next() % occupancy {
                0 => 1 + (next() & ((1u64 << (next() % (spread + 1))) - 1)),
                _ => 0,
            })
            .collect();
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        (0..alphabet).map(|s| enc.entry(s).1).collect()
    }

    #[test]
    fn read_table_equals_the_sort_based_reference() {
        let mut next = xorshift(0x7AB1_E5EE);
        // One code of each length 1..=32, and the last twice.
        let mut ladder: Vec<u8> = (1..=MAX_LEN).collect();
        ladder.push(MAX_LEN);
        let mut tables = vec![vec![], vec![0u8; 10], vec![1], vec![1, 1], ladder];
        for round in 0..160 {
            let alphabet = match round % 4 {
                0 => 1 + (next() % 40) as usize,
                1 => 300,
                2 => 4096,
                _ => 65_536,
            };
            let occupancy = [1u64, 2, 9, 300][round / 4 % 4];
            let spread = [0u64, 4, 20, 40][round / 16 % 4];
            let mut lens = random_lengths(alphabet, occupancy, spread, &mut next);
            let at = (next() % alphabet as u64) as usize;
            // Valid as built; an incomplete code; one length out of Kraft or
            // past `MAX_LEN`; lengths 1..=32 drawn at random.
            match round / 64 {
                0 => {}
                1 => lens[at] = 0,
                _ if round % 2 == 0 => lens[at] = lens[at].saturating_sub(1).max(1),
                _ if round % 3 == 0 => lens[at] = 33 + (next() % 31) as u8,
                _ => lens.iter_mut().for_each(|l| *l = 1 + (next() % 32) as u8),
            }
            tables.push(lens);
        }
        for (i, lens) in tables.iter().enumerate() {
            let ctx = format!("table {i}, {} symbols", lens.len());
            assert_table_matches_reference(&table_bytes(lens), &ctx);
        }

        // Hostile headers. A length over `MAX_LEN` is refused after the bad
        // run that follows it; one under it, after the runs, by Kraft.
        let header = |n: u32, runs: &[(u64, u64)]| {
            let mut w = BitWriter::new();
            w.write_u32(n);
            for &(len, run) in runs {
                w.write_bits(len, 6);
                w.write_bits(run, 16);
            }
            w.finish()
        };
        let mut hostile: Vec<(&str, Vec<u8>)> = vec![
            ("empty stream", vec![]),
            ("empty table", header(0, &[])),
            ("zero run", header(10, &[(3, 4), (3, 0)])),
            ("run past n", header(10, &[(3, 4), (3, 7)])),
            ("length 33", header(4, &[(33, 4)])),
            ("length 63", header(4, &[(1, 1), (63, 3)])),
            ("length 40 then a bad run", header(8, &[(40, 4), (2, 0)])),
            ("length 40 then Kraft", header(8, &[(1, 4), (40, 4)])),
            ("Kraft", header(3, &[(1, 3)])),
            (
                "alphabet 2^16 + 1",
                header(MAX_ALPHABET as u32 + 1, &[(16, 65_535), (16, 2)]),
            ),
            (
                "alphabet 2^16",
                header(MAX_ALPHABET as u32, &[(16, 65_535), (16, 1)]),
            ),
            ("runs cut short", header(10, &[(4, 4)])),
        ];
        let valid = table_bytes(&random_lengths(300, 2, 20, &mut next));
        for cut in [1, 4, 5, valid.len() / 2, valid.len() - 1] {
            hostile.push(("a valid table cut short", valid[..cut].to_vec()));
        }
        for (name, bytes) in &hostile {
            assert_table_matches_reference(bytes, name);
        }
        // Random bits under a random small alphabet: mostly bad runs.
        for i in 0..2000 {
            let mut bytes = (next() % 600).to_be_bytes()[4..].to_vec();
            bytes.extend((0..next() % 40).map(|_| next() as u8));
            assert_table_matches_reference(&bytes, &format!("random header {i}"));
        }
    }

    /// What the bitwise walk reads from `prefix`, [`LOOKUP_BITS`] bits
    /// followed by `pad` bytes: the symbols whose codes end inside the
    /// prefix, at most three, and where each of them ends.
    fn codes_in_prefix(dec: &HuffmanDecoder, prefix: usize, pad: u8) -> (Vec<u32>, Vec<u32>) {
        let high = (prefix >> 4) as u8;
        let low = ((prefix & 15) << 4) as u8 | pad >> 4;
        let bytes = [high, low, pad, pad, pad, pad];
        let mut r = BitReader::new(&bytes);
        let (mut symbols, mut ends) = (Vec::new(), Vec::new());
        while symbols.len() < 3 {
            let Ok(sym) = dec.decode_slow_reference(&mut r) else {
                break;
            };
            let end = r.bits_consumed() as u32;
            if end > LOOKUP_BITS {
                break;
            }
            symbols.push(sym);
            ends.push(end);
        }
        (symbols, ends)
    }

    #[test]
    fn every_table_entry_holds_what_the_bitwise_walk_reads_from_its_prefix() {
        // The walk knows nothing of the table: it reads a code a bit at a
        // time against the canonical first codes. Each prefix's entry must
        // hold the symbols whose codes end inside the prefix, up to three,
        // their total length and the first one's; a prefix that begins a
        // longer code, or none, holds an empty entry. Both paddings read
        // alike, so no entry leans on the bits past the prefix. A table
        // read for a stream too short for third codes holds up to two, and
        // one for a stream too short for second codes holds one.
        let mut next = xorshift(0xE7_7AB1E);
        let mut ladder: Vec<u8> = (1..=MAX_LEN).collect();
        ladder.push(MAX_LEN);
        let mut incomplete: Vec<u8> = (1..=12).collect();
        incomplete.extend([16; 8]);
        let mut tables: Vec<(String, Vec<u8>)> = vec![
            ("one symbol".into(), vec![0, 0, 1, 0]),
            ("two symbols".into(), vec![1, 1]),
            ("lengths 1..=32".into(), ladder),
            ("incomplete".into(), incomplete),
            (
                "300 symbols, long codes".into(),
                lengths_with_long_codes(300, 290),
            ),
            ("sigma 1".into(), gaussian_lengths(1.0, &mut next)),
            ("sigma 2.5".into(), gaussian_lengths(2.5, &mut next)),
            ("sigma 6".into(), gaussian_lengths(6.0, &mut next)),
            ("sigma 40".into(), gaussian_lengths(40.0, &mut next)),
        ];
        for round in 0..24 {
            let alphabet = [3, 20, 300, 4096][round % 4];
            let spread = [2u64, 8, 20][round / 4 % 3];
            let lens = random_lengths(alphabet, 1 + (round as u64 / 12), spread, &mut next);
            tables.push((format!("random {round}"), lens));
        }
        for (name, lens) in &tables {
            let dec = decoder_for(lens).unwrap();
            let bytes = table_bytes(lens);
            let read_for =
                |codes| HuffmanDecoder::read_table_for(&mut BitReader::new(&bytes), codes).unwrap();
            let (short, shortest) = (read_for(THIRDS_FROM - 1), read_for(PAIRS_FROM - 1));
            if name == "sigma 1" || name == "sigma 2.5" {
                let triples = dec.lookup.iter().filter(|e| e.symbols() == 3).count();
                assert!(triples > 1000, "{name}: {triples} entries of three codes");
            }
            for prefix in 0..1usize << LOOKUP_BITS {
                let ctx = format!("{name}, prefix {prefix:012b}");
                let (symbols, ends) = codes_in_prefix(&dec, prefix, 0x00);
                assert_eq!(
                    codes_in_prefix(&dec, prefix, 0xFF),
                    (symbols.clone(), ends.clone()),
                    "{ctx}: the walk depends on the padding"
                );
                for (table, most) in [(&dec, 3), (&short, 2), (&shortest, 1)] {
                    let ctx = format!("{ctx}, up to {most} codes");
                    let fit = symbols.len().min(most);
                    let entry = table.lookup[prefix];
                    let held = [entry.first(), entry.second(), entry.third()];
                    assert_eq!(&held[..entry.symbols()], &symbols[..fit], "{ctx}: symbols");
                    let total = if fit > 0 { ends[fit - 1] } else { 0 };
                    assert_eq!(entry.total_len(), total, "{ctx}: total length");
                    let first = ends.first().copied().unwrap_or(0);
                    assert_eq!(u32::from(entry.first_len()), first, "{ctx}: first length");
                }
            }
        }
    }

    #[test]
    fn truncation_inside_a_long_code_fails_as_the_bitwise_walk() {
        let mut next = xorshift(0x0C07_10F6);
        // Long codes of 19 bits; a complete code with one code of each
        // length 1..=32; an incomplete one, lengths 1..=12 and then eight
        // of 16 bits, so that a prefix of 13 ones is no code's. Its stream
        // ends in ones: a cut leaves a code unfinished (end of input), too
        // few ones to tell (end of input) or a prefix of no code (corrupt).
        let mut ladder: Vec<u8> = (1..=32).collect();
        ladder.push(32);
        let mut incomplete: Vec<u8> = (1..=12).collect();
        incomplete.extend([16; 8]);
        let shapes = [
            ("19-bit codes", lengths_with_long_codes(300, 290), 0),
            ("lengths 1..=32", ladder, 0),
            ("incomplete", incomplete, 32),
        ];
        for (name, lens, ones) in &shapes {
            let enc = encoder_for(lens);
            let dec = decoder_for(lens).unwrap();
            let deepest = (0..lens.len() as u32)
                .max_by_key(|&s| lens[s as usize])
                .unwrap();
            for count in [200usize, 201, 203, 206, 1000] {
                // The last codes are the longest, so every cut of the last
                // eight bytes lands inside one.
                let mut symbols = draw(lens, count, &mut next);
                symbols[count - 6..].fill(deepest);
                let mut w = BitWriter::new();
                enc.encode_run(&mut w, &symbols);
                w.write_bits((1 << ones) - 1, *ones);
                let bytes = w.finish();
                for cut in bytes.len() - 8..=bytes.len() {
                    let bytes = &bytes[..cut];
                    let ctx = format!("{name}, {count} symbols cut to {cut} bytes");
                    // Where a failed read leaves the reader is not part of
                    // the contract; the symbols and the error are.
                    let (want, want_err, _) =
                        per_symbol_with(bytes, count + 9, |r| dec.decode_reference(r));
                    assert!(want_err.is_some(), "{ctx}: the cut must fail");
                    let (got, got_err, _) = per_symbol(&dec, bytes, count + 9);
                    assert_eq!((&got, &got_err), (&want, &want_err), "{ctx}: decode");
                    let mut out = vec![u32::MAX; count + 9];
                    let run_err = dec.decode_run(&mut BitReader::new(bytes), &mut out).err();
                    assert_eq!(run_err, want_err, "{ctx}: decode_run");
                    assert_eq!(out[..want.len()], want[..], "{ctx}: decode_run's symbols");
                }
            }
        }
    }
}
