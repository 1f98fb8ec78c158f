//! What the sparse-probing, sequence-based matcher must not change: the
//! lazy profiles' streams (byte for byte), and round trips at the lengths
//! where a skipped stride or a short tail could lose bytes.

use fedsz_entropy::crc32::crc32;
use fedsz_lossless::LosslessKind;

fn lcg(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        })
        .collect()
}

/// The inputs of the `lz` and `deflate` unit tests.
fn corpora() -> Vec<(&'static str, Vec<u8>)> {
    let mut state = 0xDEADBEEFu64;
    vec![
        ("empty", Vec::new()),
        (
            "periodic",
            b"abcdefgh".iter().copied().cycle().take(4096).collect(),
        ),
        ("run", vec![0x42u8; 1000]),
        ("lcg", lcg(1, 10_000)),
        (
            "sin_f32",
            (0..2000)
                .flat_map(|i| (i as f32 * 0.001).sin().to_le_bytes())
                .collect(),
        ),
        (
            "squares_mod_251",
            (0..20_000u32)
                .flat_map(|i| ((i * i) % 251).to_le_bytes())
                .collect(),
        ),
        (
            "text",
            b"the quick brown fox jumps over the lazy dog. ".repeat(100),
        ),
        (
            "lcg_top_byte",
            (0..50_000)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect(),
        ),
        (
            "ramp_u16",
            (0..30_000u32)
                .flat_map(|i| ((i / 7) as u16).to_le_bytes())
                .collect(),
        ),
        ("hello", b"hello world hello world hello world".to_vec()),
    ]
}

/// CRC-32 of the zlib, gzip and xz output on each input, computed at the
/// commit before the matcher emitted sequences (PR 11, 7ba9288).
const PINNED: [(&str, [u32; 3]); 10] = [
    ("empty", [0x8CD2856D, 0x911F0E7D, 0x1BF8ADD0]),
    ("periodic", [0x85A647D2, 0xC7B71B11, 0x6EC289B2]),
    ("run", [0x8EAC9365, 0x9BDB1AC1, 0x9EDA9F51]),
    ("lcg", [0x3B42C037, 0x56846987, 0x7A7011A0]),
    ("sin_f32", [0x6DFF1FB4, 0x704DCEAB, 0x49D9B02E]),
    ("squares_mod_251", [0xC2396037, 0xC2E487A3, 0xA9E0FA04]),
    ("text", [0x47FAFF94, 0x12491491, 0x895DBAA8]),
    ("lcg_top_byte", [0x54448C38, 0x5CB9E796, 0x9A876C7C]),
    ("ramp_u16", [0xF5ECB5C5, 0xF33CB712, 0xE8C0615D]),
    ("hello", [0x53FB2CFF, 0x1F7585A8, 0xC95D1499]),
];

#[test]
fn lazy_profile_streams_are_byte_identical_to_the_token_matcher() {
    let kinds = [LosslessKind::Zlib, LosslessKind::Gzip, LosslessKind::Xz];
    let corpora = corpora();
    assert_eq!(corpora.len(), PINNED.len());
    for ((name, data), (pinned_name, crcs)) in corpora.iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        for (kind, want) in kinds.iter().zip(crcs) {
            let c = kind.compress(data);
            assert_eq!(
                crc32(&c),
                want,
                "{} stream changed on {name} ({} bytes)",
                kind.name(),
                c.len()
            );
            assert_eq!(kind.decompress(&c).unwrap(), *data);
        }
    }
}

#[test]
fn every_codec_round_trips_lengths_zero_to_five() {
    let bytes = lcg(3, 5);
    for kind in LosslessKind::all() {
        for n in 0..=5 {
            for data in [bytes[..n].to_vec(), vec![7u8; n]] {
                let c = kind.compress(&data);
                assert_eq!(kind.decompress(&c).unwrap(), data, "{} n={n}", kind.name());
            }
        }
    }
}

#[test]
fn inputs_ending_inside_a_skipped_stride_round_trip() {
    // After 3000 unmatched bytes the greedy matcher probes every 12th
    // position; sweep the end of the input across more than one stride,
    // with and without a repeat of earlier bytes just before the end.
    let noise = lcg(5, 3_100);
    for kind in LosslessKind::all() {
        for end in 3_000..3_030 {
            let plain = noise[..end].to_vec();
            let mut repeat = plain.clone();
            repeat.extend_from_slice(&noise[100..100 + (end % 9)]);
            for data in [plain, repeat] {
                let c = kind.compress(&data);
                assert_eq!(
                    kind.decompress(&c).unwrap(),
                    data,
                    "{} end={end}",
                    kind.name()
                );
            }
        }
    }
}
