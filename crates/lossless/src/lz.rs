//! Shared LZ77 matcher with hash-chain match finding.
//!
//! All byte-oriented codecs in this crate (zlib/gzip/zstd/xz analogues) share
//! this matcher and differ only in their `MatcherParams` (window size,
//! chain depth, lazy evaluation) and in how sequences are entropy-coded.

/// One LZ77 sequence: a run of literal bytes taken straight from the input,
/// followed by one match. Inputs are addressed with `u32` positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sequence {
    /// Literal bytes preceding the match.
    pub lit_len: u32,
    /// Match length in bytes (`>= MatcherParams::min_match`).
    pub match_len: u32,
    /// Backwards distance of the match in bytes (`>= 1`).
    pub dist: u32,
}

/// Slot decomposition of a match length or distance for the entropy coders:
/// value `v` maps to `(slot, extra_bits, extra_value)` where
/// `slot = bitlen(v+1) - 1` and `v + 1 = 2^slot + extra_value`.
#[inline]
pub(crate) fn slot_of(v: u32) -> (u32, u32, u32) {
    let x = v + 1;
    let slot = 31 - x.leading_zeros();
    (slot, slot, x - (1 << slot))
}

/// Inverse of [`slot_of`].
#[inline]
pub(crate) fn unslot(slot: u32, extra: u32) -> u32 {
    (1u32 << slot) + extra - 1
}

/// Tuning knobs for the hash-chain matcher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatcherParams {
    /// Window size = `1 << window_log` bytes.
    pub window_log: u32,
    /// Maximum hash-chain nodes visited per position.
    pub chain_depth: u32,
    /// Minimum match length worth emitting.
    pub min_match: usize,
    /// Maximum match length.
    pub max_match: usize,
    /// One-step lazy matching (deflate-style).
    pub lazy: bool,
}

impl MatcherParams {
    /// Deflate-like profile (zlib analogue).
    pub(crate) fn deflate() -> Self {
        Self {
            window_log: 15,
            chain_depth: 16,
            min_match: 3,
            max_match: 258,
            lazy: true,
        }
    }

    /// Deeper deflate (gzip analogue at high effort).
    pub(crate) fn deflate_deep() -> Self {
        Self {
            window_log: 15,
            chain_depth: 64,
            min_match: 3,
            max_match: 258,
            lazy: true,
        }
    }

    /// Large-window, shallow-chain profile (zstd analogue).
    pub fn wide() -> Self {
        Self {
            window_log: 20,
            chain_depth: 8,
            min_match: 4,
            max_match: 1 << 12,
            lazy: false,
        }
    }

    /// Exhaustive profile (xz analogue: best ratio, slow).
    pub(crate) fn thorough() -> Self {
        Self {
            window_log: 21,
            chain_depth: 128,
            min_match: 3,
            max_match: 1 << 12,
            lazy: true,
        }
    }
}

const HASH_LOG: u32 = 16;
const NIL: u32 = u32::MAX;

#[inline]
fn hash4(data: &[u8], i: usize, min_match: usize) -> usize {
    // For min_match >= 4 hash 4 bytes, else 3.
    let v = if min_match >= 4 {
        u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]])
    } else {
        u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0])
    };
    (v.wrapping_mul(2654435761) >> (32 - HASH_LOG)) as usize
}

struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
    min_match: usize,
}

impl Chains {
    fn new(len: usize, min_match: usize) -> Self {
        Self {
            head: vec![NIL; 1 << HASH_LOG],
            prev: vec![NIL; len],
            min_match,
        }
    }

    #[inline]
    fn insert(&mut self, data: &[u8], i: usize) {
        if i + 4 <= data.len() {
            let h = hash4(data, i, self.min_match);
            self.prev[i] = self.head[h];
            self.head[h] = i as u32;
        }
    }

    /// Best `(len, dist)` at position `i`, or `None`.
    fn find(&self, data: &[u8], i: usize, p: &MatcherParams) -> Option<(u32, u32)> {
        if i + 4 > data.len() {
            return None;
        }
        let window = 1usize << p.window_log;
        let limit = i.saturating_sub(window);
        let max_len = p.max_match.min(data.len() - i);
        if max_len < p.min_match {
            return None;
        }
        let mut best_len = p.min_match - 1;
        let mut best_dist = 0u32;
        let mut cand = self.head[hash4(data, i, self.min_match)];
        let mut depth = p.chain_depth;
        while cand != NIL && (cand as usize) >= limit && depth > 0 {
            let c = cand as usize;
            if c < i {
                // Quick reject on the byte past the current best.
                if i + best_len < data.len()
                    && c + best_len < data.len()
                    && data[c + best_len] == data[i + best_len]
                {
                    let mut l = 0usize;
                    while l < max_len && data[c + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = (i - c) as u32;
                        if l >= max_len {
                            break;
                        }
                    }
                }
            }
            cand = self.prev[cand as usize];
            depth -= 1;
        }
        (best_len >= p.min_match).then_some((best_len as u32, best_dist))
    }
}

/// In the greedy profile, after `n` consecutive unmatched bytes only every
/// `1 + (n >> SEARCH_STRENGTH)`-th position is searched (zstd's
/// `kSearchStrength`): input the matcher cannot match costs one hash insert
/// per byte instead of a chain walk.
const SEARCH_STRENGTH: u32 = 8;

/// Split `data` into sequences. Bytes after the last sequence's match are
/// trailing literals.
pub(crate) fn sequences(data: &[u8], p: &MatcherParams) -> Vec<Sequence> {
    scan(data, p, !p.lazy)
}

/// `sparse == false` searches every position; the lazy profiles always do
/// (their streams are pinned byte for byte), and tests use it as the
/// reference for the greedy profile.
fn scan(data: &[u8], p: &MatcherParams, sparse: bool) -> Vec<Sequence> {
    let mut seqs = Vec::new();
    let mut chains = Chains::new(data.len(), p.min_match);
    // Start of the pending literal run.
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let Some((mut len, mut dist)) = chains.find(data, i, p) else {
            // Every skipped position still enters the chains, so a later
            // repeat of this region is found at its first probe.
            let step = if sparse {
                1 + ((i - anchor) >> SEARCH_STRENGTH)
            } else {
                1
            };
            let end = (i + step).min(data.len());
            for j in i..end {
                chains.insert(data, j);
            }
            i = end;
            continue;
        };
        chains.insert(data, i);
        if p.lazy {
            // Peek one position ahead; prefer a strictly longer match and
            // leave the current byte to the literal run.
            if let Some((len2, dist2)) = chains.find(data, i + 1, p) {
                if len2 > len + 1 {
                    i += 1;
                    (len, dist) = (len2, dist2);
                }
            }
        }
        seqs.push(Sequence {
            lit_len: (i - anchor) as u32,
            match_len: len,
            dist,
        });
        // Insert every covered position so future matches can start here.
        let end = i + len as usize;
        for j in i + 1..end {
            chains.insert(data, j);
        }
        i = end;
        anchor = end;
    }
    seqs
}

/// Walk `seqs` over `data`: one `(literals, Some(sequence))` per sequence,
/// then `(trailing literals, None)`.
pub(crate) fn literal_runs<'a>(
    data: &'a [u8],
    seqs: &'a [Sequence],
) -> impl Iterator<Item = (&'a [u8], Option<&'a Sequence>)> {
    let mut pos = 0usize;
    seqs.iter()
        .map(Some)
        .chain(std::iter::once(None))
        .map(move |s| {
            let end = s.map_or(data.len(), |s| pos + s.lit_len as usize);
            let literals = &data[pos..end];
            pos = end + s.map_or(0, |s| s.match_len as usize);
            (literals, s)
        })
}

/// Append `len` bytes to `out`, copied from `dist` bytes back in it.
///
/// Returns `false`, leaving `out` untouched, if the match reaches before the
/// start of the output or the result would exceed `max_len`.
pub(crate) fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize, max_len: usize) -> bool {
    if dist == 0 || dist > out.len() || len > max_len.saturating_sub(out.len()) {
        return false;
    }
    let start = out.len() - dist;
    // An overlapping copy (dist < len) repeats a period of `dist` bytes;
    // every chunk starts a whole number of periods in, so it can re-read
    // from `start` and double in size.
    let mut remaining = len;
    while remaining > 0 {
        let chunk = remaining.min(out.len() - start);
        out.extend_from_within(start..start + chunk);
        remaining -= chunk;
    }
    true
}

/// The every-position search the greedy profile used before sparse probing:
/// the reference its compressed size is held against.
#[cfg(test)]
pub(crate) fn sequences_dense(data: &[u8], p: &MatcherParams) -> Vec<Sequence> {
    scan(data, p, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_round_trip() {
        for v in 0u32..100_000 {
            let (s, bits, extra) = slot_of(v);
            assert!(extra < (1 << bits).max(1));
            assert_eq!(unslot(s, extra), v, "v={v}");
        }
        // Large values.
        for v in [1 << 20, (1 << 24) + 12345, u32::MAX - 1] {
            let (s, _, extra) = slot_of(v);
            assert_eq!(unslot(s, extra), v);
        }
    }

    /// Literals plus sequences: what the coder emits one symbol for.
    fn token_count(data: &[u8], seqs: &[Sequence]) -> usize {
        let matched: usize = seqs.iter().map(|s| s.match_len as usize).sum();
        data.len() - matched + seqs.len()
    }

    fn expand(data: &[u8], seqs: &[Sequence]) -> Vec<u8> {
        let mut out = Vec::new();
        for (literals, seq) in literal_runs(data, seqs) {
            out.extend_from_slice(literals);
            if let Some(s) = seq {
                assert!(
                    copy_match(&mut out, s.dist as usize, s.match_len as usize, data.len()),
                    "bad sequence {s:?}"
                );
            }
        }
        out
    }

    fn round_trip(data: &[u8], p: &MatcherParams) {
        assert_eq!(expand(data, &sequences(data, p)), data);
        assert_eq!(expand(data, &sequences_dense(data, p)), data);
    }

    fn profiles() -> Vec<MatcherParams> {
        vec![
            MatcherParams::deflate(),
            MatcherParams::deflate_deep(),
            MatcherParams::wide(),
            MatcherParams::thorough(),
        ]
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for p in profiles() {
            round_trip(b"", &p);
            round_trip(b"a", &p);
            round_trip(b"ab", &p);
            round_trip(b"abc", &p);
        }
    }

    #[test]
    fn repetitive_input_produces_matches() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(4096).collect();
        for p in profiles() {
            assert!(
                !sequences(&data, &p).is_empty(),
                "profile {p:?} found no matches in periodic data"
            );
            round_trip(&data, &p);
        }
    }

    #[test]
    fn run_of_one_byte_uses_overlapping_match() {
        let data = vec![0x42u8; 1000];
        let p = MatcherParams::deflate();
        let seqs = sequences(&data, &p);
        // A run should need only a handful of tokens (literals then one or
        // two overlapping matches).
        let tokens = token_count(&data, &seqs);
        assert!(tokens < 20, "run encoded as {tokens} tokens");
        assert!(seqs.iter().any(|s| s.dist < s.match_len));
        round_trip(&data, &p);
    }

    #[test]
    fn pseudorandom_round_trip() {
        let mut state = 1u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        for p in profiles() {
            round_trip(&data, &p);
        }
    }

    #[test]
    fn structured_float_bytes_round_trip() {
        let mut data = Vec::new();
        for i in 0..2000 {
            let v = (i as f32 * 0.001).sin();
            data.extend_from_slice(&v.to_le_bytes());
        }
        for p in profiles() {
            round_trip(&data, &p);
        }
    }

    #[test]
    fn copy_match_rejects_bad_distance() {
        let mut out = vec![1u8];
        assert!(!copy_match(&mut out, 9, 4, 5));
        assert!(!copy_match(&mut out, 0, 4, 5));
        assert_eq!(out, [1]);
    }

    #[test]
    fn copy_match_rejects_overflow() {
        let mut out = vec![1u8];
        assert!(!copy_match(&mut out, 1, 100, 5));
        assert!(!copy_match(&mut out, 1, usize::MAX, usize::MAX));
        assert_eq!(out, [1]);
        assert!(copy_match(&mut out, 1, 4, 5));
        assert_eq!(out, [1; 5]);
    }

    #[test]
    fn copy_match_handles_every_overlap() {
        // Against the byte-by-byte definition, for every period and for
        // lengths on both sides of each doubling step.
        let seed: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
        for dist in 1..=seed.len() {
            for len in 0..200 {
                let mut fast = seed.clone();
                assert!(copy_match(&mut fast, dist, len, usize::MAX));
                let mut slow = seed.clone();
                for k in 0..len {
                    slow.push(slow[seed.len() - dist + k]);
                }
                assert_eq!(fast, slow, "dist {dist} len {len}");
            }
        }
    }

    #[test]
    fn deeper_chains_do_not_worsen_token_count() {
        let data: Vec<u8> = (0..20_000u32)
            .flat_map(|i| ((i * i) % 251).to_le_bytes())
            .collect();
        let shallow = token_count(&data, &sequences(&data, &MatcherParams::deflate()));
        let deep = token_count(&data, &sequences(&data, &MatcherParams::deflate_deep()));
        assert!(deep <= shallow + shallow / 20);
    }

    #[test]
    fn sparse_probing_skips_only_inside_long_literal_runs() {
        let mut state = 9u64;
        let noise: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let p = MatcherParams::wide();
        // A far repeat is still found at its first probe, because skipped
        // positions were inserted: all but the bytes of one stride match.
        let mut data = noise.clone();
        data.extend_from_slice(&noise);
        let seqs = sequences(&data, &p);
        let matched: usize = seqs.iter().map(|s| s.match_len as usize).sum();
        let max_stride = 1 + (noise.len() >> SEARCH_STRENGTH);
        assert!(
            matched + max_stride >= noise.len(),
            "matched {matched} of {}",
            noise.len()
        );
        round_trip(&data, &p);
        // Within the first 256 literals every position is searched.
        let short = &data[..200];
        assert_eq!(sequences(short, &p), sequences_dense(short, &p));
        // The lazy profiles never skip.
        for lazy in [MatcherParams::deflate(), MatcherParams::thorough()] {
            assert_eq!(sequences(&data, &lazy), sequences_dense(&data, &lazy));
        }
    }
}
