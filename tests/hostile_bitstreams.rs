//! Hostile-input sweeps over the three untrusted decoders: `fedsz::decompress`
//! (the update bitstream), `fedsz_fl::wire::decode` (the TCP frame codec),
//! and `fedsz_fl::checkpoint` (on-disk server state). Hundreds of seeded
//! random streams and systematically flipped bits — the decoders must
//! return `Err` (or, for flips landing in lossy payload values, at worst
//! decode different numbers) and must never panic.

use fedsz::{compress, decompress, CompressedUpdate, FedSzConfig};
use fedsz_fl::checkpoint::{self, Checkpoint};
use fedsz_fl::wire;
use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};
use std::time::{Duration, Instant};

fn sample_update() -> CompressedUpdate {
    let mut rng = SplitMix64::new(0xB17F11B);
    let mut sd = StateDict::new();
    let w: Vec<f32> = (0..4096)
        .map(|_| rng.normal_with(0.0, 0.05) as f32)
        .collect();
    sd.insert("conv.weight", TensorKind::Weight, Tensor::from_vec(w));
    let b: Vec<f32> = (0..64).map(|_| rng.normal_with(0.0, 0.01) as f32).collect();
    sd.insert(
        "bn.running_mean",
        TensorKind::RunningMean,
        Tensor::from_vec(b),
    );
    compress(
        &sd,
        &FedSzConfig {
            threshold: 128,
            ..FedSzConfig::default()
        },
    )
}

#[test]
fn hundreds_of_random_streams_never_decode_and_never_panic() {
    // 400 seeded random byte streams across a spread of lengths: none is a
    // valid FedSZ stream (the magic alone makes that astronomically
    // unlikely), so every single one must be rejected with an error.
    let mut rng = SplitMix64::new(0xDEAD_BEEF);
    for case in 0..400 {
        let len = rng.below(2048);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert!(
            decompress(&CompressedUpdate::from_bytes(junk)).is_err(),
            "random stream #{case} of {len} bytes decoded"
        );
    }
}

#[test]
fn hundreds_of_random_wire_frames_never_decode_and_never_panic() {
    let mut rng = SplitMix64::new(0xFEED_F00D);
    for case in 0..400 {
        let len = rng.below(512);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert!(wire::decode(&junk).is_err(), "random frame #{case} decoded");
    }
}

#[test]
fn seeded_bit_flips_on_a_valid_stream_never_panic() {
    // 300 random single-bit flips over a valid update. Flips in headers,
    // lengths, or lossless payloads must be detected; flips inside lossy
    // payload values may legally decode to different numbers — but nothing
    // is allowed to panic.
    let bytes = sample_update().into_bytes();
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..300 {
        let mut bad = bytes.clone();
        let pos = rng.below(bad.len());
        let bit = (rng.next_u64() % 8) as u8;
        bad[pos] ^= 1 << bit;
        let _ = decompress(&CompressedUpdate::from_bytes(bad));
    }
}

#[test]
fn every_magic_bit_flip_is_always_an_error() {
    // The self-describing header is the first line of defence: any flip in
    // the 4-byte magic must fail outright, not just "probably fail".
    let bytes = sample_update().into_bytes();
    for pos in 0..4 {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            assert!(
                decompress(&CompressedUpdate::from_bytes(bad)).is_err(),
                "magic flip at byte {pos} bit {bit} decoded"
            );
        }
    }
}

#[test]
fn truncate_then_flip_never_panics() {
    // Compound hostility: cut the stream short *and* flip a bit in what is
    // left — the recipe a dying connection plus a faulty NIC would produce.
    let bytes = sample_update().into_bytes();
    let mut rng = SplitMix64::new(0x7A1E);
    for _ in 0..300 {
        let cut = 1 + rng.below(bytes.len() - 1);
        let mut bad = bytes[..cut].to_vec();
        let pos = rng.below(bad.len());
        bad[pos] ^= 1 << (rng.next_u64() % 8);
        assert!(
            decompress(&CompressedUpdate::from_bytes(bad)).is_err(),
            "truncated-to-{cut} + flipped stream decoded"
        );
    }
}

#[test]
fn wire_frames_carrying_flipped_updates_are_caught_by_the_crc() {
    // Wrap a valid update in a wire frame, then flip one body bit: the
    // frame CRC must catch every one of them before FedSZ decoding even
    // runs — this is the transport's `rejected` path.
    let frame = wire::Frame::Update {
        round: 3,
        attempt: 0,
        client_id: 1,
        samples: 32,
        train_s: 0.5,
        compress_s: 0.125,
        raw_bytes: 16_640,
        payload: sample_update(),
    };
    let bytes = wire::encode(&frame);
    let mut rng = SplitMix64::new(0xC4C);
    for _ in 0..300 {
        let mut bad = bytes.clone();
        let pos = rng.below(bad.len());
        bad[pos] ^= 1 << (rng.next_u64() % 8);
        assert!(wire::decode(&bad).is_err(), "flipped frame decoded");
    }
}

// ---------------------------------------------------------------------------
// Checkpoint files: the server trusts nothing it reads back from disk. Every
// truncation, bit flip, and random byte stream must come back as an Err from
// the decoder — and the file-level loaders must survive the same treatment
// plus oversized and garbage-filled directories.
// ---------------------------------------------------------------------------

fn sample_checkpoint() -> Checkpoint {
    let mut rng = SplitMix64::new(0xC8EC);
    let mut global = StateDict::new();
    let w: Vec<f32> = (0..256)
        .map(|_| rng.normal_with(0.0, 0.05) as f32)
        .collect();
    global.insert("conv.weight", TensorKind::Weight, Tensor::from_vec(w));
    let rounds: Vec<fedsz_fl::RoundMetrics> = (0..3)
        .map(|r| fedsz_fl::RoundMetrics {
            round: r,
            accuracy: 0.4 + r as f64 * 0.05,
            train_s_total: 1.5,
            compress_s_total: 0.25,
            decompress_s_total: 0.125,
            bytes_on_wire: 10_000 + r,
            bytes_down_wire: 20_000,
            bytes_uncompressed: 40_000,
            faults: fedsz::FaultCounters {
                delivered: 4,
                ..fedsz::FaultCounters::default()
            },
            quarantine_reasons: fedsz::QuarantineReasons::default(),
            suspect_reasons: fedsz::SuspectReasons::default(),
        })
        .collect();
    Checkpoint {
        fingerprint: 0xFEED_5EED,
        round: 2,
        global,
        rounds,
    }
}

fn hostile_scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsz-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_checkpoint_truncation_is_rejected() {
    let bytes = sample_checkpoint().encode();
    for cut in 0..bytes.len() {
        assert!(
            Checkpoint::decode(&bytes[..cut]).is_err(),
            "checkpoint prefix of {cut} bytes accepted"
        );
    }
}

#[test]
fn seeded_checkpoint_bit_flips_are_always_rejected() {
    // Unlike the lossy update stream there is no "decodes to different
    // numbers" escape hatch here: the magic check covers the first four
    // bytes and the CRC-32 covers everything else, so every single-bit
    // flip anywhere in the file must be an outright error.
    let bytes = sample_checkpoint().encode();
    let mut rng = SplitMix64::new(0xF11F);
    for case in 0..400 {
        let mut bad = bytes.clone();
        let pos = rng.below(bad.len());
        let bit = (rng.next_u64() % 8) as u8;
        bad[pos] ^= 1 << bit;
        assert!(
            Checkpoint::decode(&bad).is_err(),
            "flip #{case} at byte {pos} bit {bit} accepted"
        );
    }
}

#[test]
fn random_streams_never_decode_as_checkpoints() {
    let mut rng = SplitMix64::new(0xBAD_C8EC);
    for case in 0..400 {
        let len = rng.below(2048);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert!(
            Checkpoint::decode(&junk).is_err(),
            "random stream #{case} of {len} bytes decoded as a checkpoint"
        );
    }
}

#[test]
fn mutated_checkpoint_files_on_disk_are_errors_not_panics() {
    // The same sweeps, through the filesystem loader: write a valid
    // checkpoint, then overwrite it with seeded truncate-and-flip variants.
    let dir = hostile_scratch("mutate");
    let ckpt = sample_checkpoint();
    let path = checkpoint::save(&dir, &ckpt).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    assert!(checkpoint::load_file(&path).is_ok());

    let mut rng = SplitMix64::new(0x70C5);
    for case in 0..200 {
        let cut = 1 + rng.below(bytes.len() - 1);
        let mut bad = bytes[..cut].to_vec();
        let pos = rng.below(bad.len());
        bad[pos] ^= 1 << (rng.next_u64() % 8);
        std::fs::write(&path, &bad).expect("write mutation");
        assert!(
            checkpoint::load_file(&path).is_err(),
            "mutation #{case} (cut {cut}) loaded"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_checkpoint_is_refused_before_it_is_read() {
    let dir = hostile_scratch("oversize");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(checkpoint::file_name(0));
    // A sparse file well past the cap: the loader must bail on the
    // metadata, not allocate for the claimed length.
    let f = std::fs::File::create(&path).expect("create");
    f.set_len(checkpoint::MAX_CHECKPOINT_BYTES + 1)
        .expect("set_len");
    drop(f);
    assert!(checkpoint::load_file(&path).is_err());
    assert_eq!(checkpoint::load_latest(&dir, 0).expect("scan"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_directory_full_of_garbage_yields_none_not_a_panic() {
    let dir = hostile_scratch("garbage");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut rng = SplitMix64::new(0xD1217);
    for i in 0..16 {
        let len = rng.below(512);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        std::fs::write(dir.join(checkpoint::file_name(i)), &junk).expect("write junk");
    }
    assert_eq!(checkpoint::load_latest(&dir, 0).expect("scan"), None);

    // Drop one valid checkpoint among the garbage: it is found.
    let ckpt = sample_checkpoint();
    checkpoint::save(&dir, &ckpt).expect("save");
    let found = checkpoint::load_latest(&dir, ckpt.fingerprint)
        .expect("scan")
        .expect("valid checkpoint among garbage");
    assert_eq!(found, ckpt);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Pinned regressions: each of these inputs used to panic (debug overflow) or
// decode without bound before the decoders were hardened. They must stay
// quick, allocation-free errors.
// ---------------------------------------------------------------------------

#[test]
fn eblc_raw_mode_element_count_bombs_are_errors() {
    // Every EBLC codec's RAW mode starts `[mode=0, varint(n), n f32s]`. A
    // hostile `n` near usize::MAX used to overflow `n * 4` (a debug-build
    // panic) or demand a bomb-sized allocation; now the claimed span is
    // checked against the bytes actually present.
    for bomb in [usize::MAX, usize::MAX / 4, u32::MAX as usize] {
        let mut stream = vec![0u8]; // MODE_RAW in all four codecs
        fedsz_entropy::varint::write_usize(&mut stream, bomb);
        stream.extend_from_slice(&[0x41; 8]);
        assert!(
            fedsz_eblc::sz2::decompress(&stream).is_err(),
            "sz2 n={bomb}"
        );
        assert!(
            fedsz_eblc::sz3::decompress(&stream).is_err(),
            "sz3 n={bomb}"
        );
        assert!(
            fedsz_eblc::szx::decompress(&stream).is_err(),
            "szx n={bomb}"
        );
        assert!(
            fedsz_eblc::zfp::decompress(&stream).is_err(),
            "zfp n={bomb}"
        );
    }
}

#[test]
fn checkpoint_with_round_at_u64_max_is_rejected_not_overflowed() {
    // `round` is attacker-writable and the decoder validates
    // `n_rounds == round + 1`; with round = u64::MAX that successor used to
    // overflow (a debug-build panic reachable from a CRC-valid file). Patch
    // a valid checkpoint's round field and re-seal the CRC so only the
    // overflow path is exercised.
    let mut bytes = sample_checkpoint().encode();
    bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    let body_end = bytes.len() - 4;
    let mut crc = fedsz_entropy::crc32::Crc32::new();
    crc.update(&bytes[4..body_end]);
    bytes[body_end..].copy_from_slice(&crc.finish().to_le_bytes());
    assert!(
        Checkpoint::decode(&bytes).is_err(),
        "u64::MAX round accepted"
    );
}

#[test]
fn xz_claimed_length_bomb_terminates_with_an_error() {
    // The xz loop is driven by the stream's own claimed output length, and
    // the range coder synthesizes zeros past its input: a huge claimed
    // length used to decode fabricated literals until memory ran out. The
    // decoder must now notice the exhausted input and fail fast.
    for bomb in [usize::MAX, 1usize << 40] {
        let mut stream = Vec::new();
        fedsz_entropy::varint::write_usize(&mut stream, bomb);
        stream.push(4); // min_match
        stream.extend_from_slice(&[0x5A; 24]); // "range coder" bytes
        assert!(
            fedsz_lossless::xz::decompress(&stream).is_err(),
            "claimed len {bomb} decoded"
        );
    }
}

/// `stream` with the varint at `at` (a deflate body's claimed output length)
/// replaced by `claimed`.
fn with_claimed_len(stream: &[u8], at: usize, claimed: usize) -> Vec<u8> {
    let mut end = at;
    fedsz_entropy::varint::read_usize(stream, &mut end).expect("length varint");
    let mut out = stream[..at].to_vec();
    fedsz_entropy::varint::write_usize(&mut out, claimed);
    out.extend_from_slice(&stream[end..]);
    out
}

const CLAIMED_LENGTH_BOMBS: [usize; 3] = [1 << 32, 1 << 40, usize::MAX];

#[test]
fn deflate_claimed_length_bombs_are_errors_not_allocations() {
    // The deflate-family decoders used to size the output buffer from the
    // stream's own claimed length, so an otherwise valid 40-byte stream
    // claiming 2^40 output bytes aborted the process ("memory allocation of
    // 1099511627776 bytes failed") instead of returning an error. The claim
    // is now only a bound: the stream ends short of it and is refused.
    use fedsz_lossless::{gzip, zlib, zstd};
    let data = b"hello world hello world hello world".to_vec();
    for bomb in CLAIMED_LENGTH_BOMBS {
        let z = with_claimed_len(&zlib::compress(&data), 2, bomb);
        assert!(zlib::decompress(&z).is_err(), "zlib claimed {bomb}");
        let g = with_claimed_len(&gzip::compress(&data), 3, bomb);
        assert!(gzip::decompress(&g).is_err(), "gzip claimed {bomb}");
        let s = with_claimed_len(&zstd::compress(&data), 2, bomb);
        assert!(zstd::decompress(&s).is_err(), "zstd claimed {bomb}");
    }
    // The unpatched streams are what the patch positions were read from.
    assert_eq!(zlib::decompress(&zlib::compress(&data)).unwrap(), data);
    assert_eq!(gzip::decompress(&gzip::compress(&data)).unwrap(), data);
    assert_eq!(zstd::decompress(&zstd::compress(&data)).unwrap(), data);
}

#[test]
fn eblc_backend_claimed_length_bombs_are_errors() {
    // SZ2 and SZ3 NORMAL streams are `[mode=1][zstd magic][varint len]...`:
    // the same bomb, one layer up.
    let mut rng = SplitMix64::new(0x5EED_0B0B);
    let data: Vec<f32> = (0..4096)
        .map(|_| rng.normal_with(0.0, 0.05) as f32)
        .collect();
    let bound = fedsz_eblc::ErrorBound::Rel(1e-2);
    let sz2 = fedsz_eblc::sz2::compress(&data, bound);
    let sz3 = fedsz_eblc::sz3::compress(&data, bound);
    assert_eq!((sz2[0], sz3[0]), (1, 1), "expected NORMAL-mode streams");
    assert!(fedsz_eblc::sz2::decompress(&sz2).is_ok());
    assert!(fedsz_eblc::sz3::decompress(&sz3).is_ok());
    for bomb in CLAIMED_LENGTH_BOMBS {
        let bad = with_claimed_len(&sz2, 3, bomb);
        assert!(fedsz_eblc::sz2::decompress(&bad).is_err(), "sz2 {bomb}");
        let bad = with_claimed_len(&sz3, 3, bomb);
        assert!(fedsz_eblc::sz3::decompress(&bad).is_err(), "sz3 {bomb}");
    }
}

/// A one-entry update split at its payload-length varint: everything before
/// it (magic, codec tags, entry count, name, kind, shape, the lossy route
/// byte), and the codec payload after it.
fn split_single_lossy_entry(update: &CompressedUpdate) -> (Vec<u8>, Vec<u8>) {
    use fedsz_entropy::varint;
    let bytes = update.as_bytes();
    let mut pos = 6usize;
    assert_eq!(varint::read_usize(bytes, &mut pos).unwrap(), 1);
    pos += varint::read_usize(bytes, &mut pos).unwrap() + 1;
    for _ in 0..varint::read_usize(bytes, &mut pos).unwrap() {
        varint::read_usize(bytes, &mut pos).unwrap();
    }
    assert_eq!(bytes[pos], 1, "expected the lossy route");
    pos += 1;
    let header = bytes[..pos].to_vec();
    let payload_len = varint::read_usize(bytes, &mut pos).unwrap();
    let payload = bytes[pos..].to_vec();
    assert_eq!(payload.len(), payload_len);
    (header, payload)
}

#[test]
fn an_update_frame_with_a_claimed_length_bomb_is_rejected_at_ingest() {
    // One client's update is enough to reach the decoder on the server:
    // `ingest_update` must hand back `Reject`, never take the process down.
    use fedsz_entropy::varint;
    use fedsz_fl::ingest::{ingest_update, Verdict};
    let mut rng = SplitMix64::new(0x0B0B_5EED);
    let w: Vec<f32> = (0..4096)
        .map(|_| rng.normal_with(0.0, 0.05) as f32)
        .collect();
    let mut global = StateDict::new();
    global.insert("conv.weight", TensorKind::Weight, Tensor::from_vec(w));
    let update = compress(&global, &FedSzConfig::default());
    let (verdict, _) = ingest_update(&update, &global, 10);
    assert!(
        matches!(verdict, Verdict::Accept(_)),
        "honest update refused"
    );

    let (header, payload) = split_single_lossy_entry(&update);
    let (header, payload) = (&header[..], &payload[..]);

    for bomb in CLAIMED_LENGTH_BOMBS {
        let bad_payload = with_claimed_len(payload, 3, bomb);
        let mut frame = header.to_vec();
        varint::write_usize(&mut frame, bad_payload.len());
        frame.extend_from_slice(&bad_payload);
        let (verdict, _) = ingest_update(&CompressedUpdate::from_bytes(frame), &global, 10);
        assert!(
            matches!(verdict, Verdict::Reject(_)),
            "claimed {bomb}: {verdict:?}"
        );
    }
}

#[test]
fn a_twelve_byte_entry_count_bomb_is_an_error_not_an_abort() {
    // Magic, the two codec tags and an entry count of 2^40: the decoder used
    // to reserve `Vec::with_capacity(n_entries)` on that claim and the
    // process died with "memory allocation of 79164837199872 bytes failed",
    // so one well-framed `Update` from any client killed `serve`. The bytes
    // left now bound the count (an entry takes five at the least).
    let mut bomb = b"FSZ1".to_vec();
    bomb.push(fedsz::LossyKind::Sz2.tag());
    bomb.push(fedsz::LosslessKind::BloscLz.tag());
    fedsz_entropy::varint::write_usize(&mut bomb, 1 << 40);
    assert_eq!(bomb.len(), 12);
    assert_eq!(
        decompress(&CompressedUpdate::from_bytes(bomb)),
        Err(fedsz::CodecError::Corrupt("entry count exceeds stream"))
    );
}

/// What the header-field sweeps write over each varint field in turn.
const HEADER_FIELD_BOMBS: [usize; 4] = [1 << 31, 1 << 40, 1 << 62, usize::MAX];

/// The offset of every varint header field of a FedSZ update, labelled.
fn update_header_fields(bytes: &[u8]) -> Vec<(String, usize)> {
    use fedsz_entropy::varint;
    let mut pos = 6usize;
    let mut fields = vec![("entry count".to_owned(), pos)];
    for e in 0..varint::read_usize(bytes, &mut pos).unwrap() {
        fields.push((format!("entry {e} name length"), pos));
        pos += varint::read_usize(bytes, &mut pos).unwrap() + 1;
        fields.push((format!("entry {e} rank"), pos));
        for d in 0..varint::read_usize(bytes, &mut pos).unwrap() {
            fields.push((format!("entry {e} dimension {d}"), pos));
            varint::read_usize(bytes, &mut pos).unwrap();
        }
        pos += 1;
        fields.push((format!("entry {e} payload length"), pos));
        pos += varint::read_usize(bytes, &mut pos).unwrap();
    }
    assert_eq!(pos, bytes.len(), "the walk must end where the stream does");
    fields
}

#[test]
fn header_field_bombs_in_a_fedsz_update_are_errors() {
    // One lossy and one lossless entry: entry count, and per entry the name
    // length, rank, every dimension and the payload length — 9 fields.
    let bytes = sample_update().into_bytes();
    let fields = update_header_fields(&bytes);
    assert_eq!(fields.len(), 9);
    for (field, at) in fields {
        for bomb in HEADER_FIELD_BOMBS {
            let bad = with_claimed_len(&bytes, at, bomb);
            assert!(
                decompress(&CompressedUpdate::from_bytes(bad)).is_err(),
                "{field} = {bomb} decoded"
            );
        }
    }
}

#[test]
fn header_field_bombs_in_a_composed_sparse_update_are_errors() {
    use fedsz::{ErrorBound, LosslessKind, LossyKind, SparseUpdate, TopK};
    use fedsz_entropy::varint;
    let mut rng = SplitMix64::new(0x5A45_0B0B);
    let values: Vec<f32> = (0..4096)
        .map(|_| rng.normal_with(0.0, 0.02) as f32)
        .collect();
    let sparse = TopK::new(0.05).sparsify(&values);
    let bytes =
        sparse.to_composed_bytes(LossyKind::Sz2, ErrorBound::Rel(1e-2), LosslessKind::BloscLz);
    let honest = SparseUpdate::from_composed_bytes(&bytes).unwrap();
    assert_eq!(honest.indices, sparse.indices);

    // `[dense length][count][lossy tag][lossless tag][index-payload length]`.
    let mut pos = 0usize;
    varint::read_usize(&bytes, &mut pos).unwrap();
    let count_at = pos;
    varint::read_usize(&bytes, &mut pos).unwrap();
    let idx_len_at = pos + 2;
    for bomb in HEADER_FIELD_BOMBS {
        // The count used to be reserved as claimed (4·2^40 bytes: an abort),
        // and `pos + idx_len` was unchecked (a debug-build overflow panic).
        for (field, at) in [("count", count_at), ("index-payload length", idx_len_at)] {
            let bad = with_claimed_len(&bytes, at, bomb);
            assert!(
                SparseUpdate::from_composed_bytes(&bad).is_err(),
                "{field} = {bomb} decoded"
            );
        }
        // The dense length is different in kind: decoding reserves nothing
        // for it, and indices are `u32`, so 2^31 is a dense vector the format
        // can address and the stream stays valid; beyond 2^32 it is refused.
        let got = SparseUpdate::from_composed_bytes(&with_claimed_len(&bytes, 0, bomb));
        if bomb as u64 <= 1 << 32 {
            let got = got.expect("an addressable dense length");
            assert_eq!((got.dense_len, &got.indices), (bomb, &sparse.indices));
        } else {
            assert!(got.is_err(), "dense length = {bomb} decoded");
        }
    }
}

type Decompress = fn(&[u8]) -> Result<Vec<f32>, fedsz_entropy::CodecError>;

/// An SZ2/SZ3 NORMAL-mode stream around `payload`: the mode byte, then the
/// zstd-analogue wrapper both codecs use.
fn normal_mode_stream(payload: &[u8]) -> Vec<u8> {
    let mut stream = vec![1u8];
    stream.extend_from_slice(&fedsz_lossless::zstd::compress(payload));
    stream
}

/// A one-element SZ2 (`sz3 == false`) or SZ3 stream whose Huffman table
/// header claims 2^26 symbols, all of length 27, in 1025 RLE runs.
fn huffman_table_bomb(sz3: bool) -> Vec<u8> {
    use fedsz_entropy::{varint, BitWriter};
    let mut payload = Vec::new();
    varint::write_usize(&mut payload, 1); // n
    payload.extend_from_slice(&1e-3f64.to_le_bytes());
    varint::write_usize(&mut payload, 1); // blocks / chunks
    payload.extend_from_slice(if sz3 { &[0, 0] } else { &[0] }); // mask / bitmap
    varint::write_usize(&mut payload, 0); // literals
    let mut w = BitWriter::new();
    let mut left = 1usize << 26;
    w.write_u32(left as u32);
    while left > 0 {
        let run = left.min(u16::MAX as usize);
        w.write_bits(27, 6);
        w.write_bits(run as u64, 16);
        left -= run;
    }
    payload.extend_from_slice(&w.finish());
    normal_mode_stream(&payload)
}

#[test]
fn a_huffman_table_bomb_is_refused_from_its_header() {
    // 2^26 equal-length codes satisfy Kraft, so the decoder used to build
    // and sort a 2^26-entry symbol list (0.6 s, 330 MB) for a stream of
    // about 150 bytes before anything refused it. The alphabet is now
    // capped at the 2^16 quantization symbols, from the header's first
    // four bytes.
    use fedsz_fl::ingest::{ingest_update, Verdict};
    let started = Instant::now();
    let codecs: [(bool, Decompress); 2] = [
        (false, fedsz_eblc::sz2::decompress),
        (true, fedsz_eblc::sz3::decompress),
    ];
    for (sz3, decompress) in codecs {
        let bomb = huffman_table_bomb(sz3);
        assert!(bomb.len() < 200, "the bomb is {} bytes", bomb.len());
        assert_eq!(
            decompress(&bomb),
            Err(fedsz_entropy::CodecError::Corrupt(
                "huffman alphabet too large"
            ))
        );
    }

    // The same stream in place of an honest update's payload, at the
    // server's door.
    let mut global = StateDict::new();
    global.insert(
        "conv.weight",
        TensorKind::Weight,
        Tensor::from_vec(vec![0.25; 4096]),
    );
    let honest = compress(&global, &FedSzConfig::default());
    let (mut frame, _) = split_single_lossy_entry(&honest);
    let bomb = huffman_table_bomb(false);
    fedsz_entropy::varint::write_usize(&mut frame, bomb.len());
    frame.extend_from_slice(&bomb);
    let (verdict, _) = ingest_update(&CompressedUpdate::from_bytes(frame), &global, 10);
    assert!(matches!(verdict, Verdict::Reject(_)), "{verdict:?}");
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "table bomb took {:?} to refuse",
        started.elapsed()
    );
}

/// An SZ2 (`sz3 == false`) or SZ3 payload that claims the most elements its
/// own length admits, `n = 8·L`, and really codes `coded` of them. The bulk
/// of `L` is unused literals; every coded symbol is one bit.
fn overclaiming_payload(sz3: bool, coded: usize) -> Vec<u8> {
    use fedsz_entropy::{varint, BitWriter, HuffmanEncoder};
    let mut freqs = vec![0u64; 65_536];
    freqs[32_768] = 1;
    let enc = HuffmanEncoder::from_frequencies(&freqs);
    let mut w = BitWriter::new();
    enc.write_table(&mut w);
    for _ in 0..coded {
        enc.encode(&mut w, 32_768);
    }
    let bitstream = w.finish();

    let build = |n: usize| {
        let mut payload = Vec::new();
        varint::write_usize(&mut payload, n);
        payload.extend_from_slice(&1e-3f64.to_le_bytes());
        if sz3 {
            varint::write_usize(&mut payload, n.div_ceil(4096));
            payload.resize(payload.len() + 2 * n.div_ceil(4096), 0); // linear masks
        } else {
            varint::write_usize(&mut payload, n.div_ceil(256));
            payload.resize(payload.len() + n.div_ceil(256).div_ceil(8), 0); // all Lorenzo
        }
        varint::write_usize(&mut payload, 50_000);
        payload.resize(payload.len() + 4 * 50_000, 0); // literals nobody reads
        payload.extend_from_slice(&bitstream);
        payload
    };
    // The header grows with `n`, far slower than `8·L` does: iterate to the
    // fixed point.
    let mut n = 0usize;
    loop {
        let payload = build(n);
        if n == 8 * payload.len() {
            return payload;
        }
        n = 8 * payload.len();
    }
}

#[test]
fn nothing_is_sized_from_the_claimed_element_count() {
    // `n` may be as large as 8× the payload. The decoders used to reserve
    // `8·n` bytes (codes and output) on that claim; now the scratch is fixed
    // and the output grows by what was decoded, so a stream that stops after
    // one group fails having allocated for one group.
    let codecs: [(bool, Decompress, usize); 2] = [
        (false, fedsz_eblc::sz2::decompress, 64 * 256),
        (true, fedsz_eblc::sz3::decompress, 4096),
    ];
    for (sz3, decompress, group) in codecs {
        for coded in [0, group, group + 1] {
            let payload = overclaiming_payload(sz3, coded);
            assert!(payload.len() > 200_000);
            assert_eq!(
                decompress(&normal_mode_stream(&payload)),
                Err(fedsz_entropy::CodecError::UnexpectedEof),
                "sz3 {sz3}, {coded} coded of {} claimed",
                8 * payload.len()
            );
        }
    }
    // One byte fewer and the same claim is over the limit: refused before
    // the table is read.
    let mut payload = overclaiming_payload(false, 0);
    payload.pop();
    assert_eq!(
        fedsz_eblc::sz2::decompress(&normal_mode_stream(&payload)),
        Err(fedsz_entropy::CodecError::Corrupt(
            "SZ2 element count exceeds stream"
        ))
    );
}

#[test]
fn streamed_hostile_bytes_never_hang_the_frame_reader() {
    // Random bytes fed through the streaming reader (not just the in-memory
    // decoder): every read must terminate promptly with an error, because a
    // reader that blocks or spins on garbage would wedge a server thread.
    let mut rng = SplitMix64::new(0x0FF1CE);
    for _ in 0..200 {
        let len = rng.below(256);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut cursor = &junk[..];
        let mut frames = 0usize;
        while wire::read_frame(&mut cursor, Duration::from_millis(100)).is_ok() {
            frames += 1;
            assert!(frames < 64, "runaway frame parse on garbage");
        }
    }
}

/// An oversized but wire-valid update frame: the kind of flood a hostile
/// client can produce cheaply, carrying `payload_len` junk bytes.
fn flood_frame(round: usize, payload_len: usize) -> Vec<u8> {
    wire::encode(&wire::Frame::Update {
        round,
        attempt: 0,
        client_id: 1,
        samples: 1,
        train_s: 0.0,
        compress_s: 0.0,
        raw_bytes: 0,
        payload: CompressedUpdate::from_bytes(vec![0xA5; payload_len]),
    })
}

#[test]
fn oversized_frames_are_shed_at_the_header_and_the_stream_stays_framed() {
    // 200 seeded flood frames, each over a tiny admission budget: the gated
    // reader must refuse every one at the header — draining its body
    // without buffering or decoding a byte of it — and the stream must
    // stay framed, so a well-formed frame right behind the flood still
    // decodes. That recovery is what makes shedding a defense rather than
    // a connection-killer.
    let cap = 256usize;
    let good = wire::encode(&wire::Frame::Hello { client_id: 7 });
    let mut rng = SplitMix64::new(0x0B5E55ED);
    let mut scratch = Vec::new();
    for case in 0..200 {
        let payload_len = cap + 1 + rng.below(4096);
        let mut stream = flood_frame(case, payload_len);
        stream.extend_from_slice(&good);
        let mut cursor = &stream[..];
        let gate = |len: usize| {
            if len > cap {
                wire::HeaderVerdict::Shed
            } else {
                wire::HeaderVerdict::Admit
            }
        };
        match wire::read_frame_gated(
            &mut cursor,
            Duration::from_millis(200),
            0,
            &mut scratch,
            gate,
        ) {
            Err(wire::WireError::OverBudget(n)) => {
                assert!(n > cap, "flood #{case} announced {n} <= cap {cap}")
            }
            other => panic!("flood #{case}: expected OverBudget, got {other:?}"),
        }
        let next = wire::read_frame_gated(
            &mut cursor,
            Duration::from_millis(200),
            0,
            &mut scratch,
            gate,
        )
        .unwrap_or_else(|e| panic!("frame after shed #{case} lost framing: {e:?}"));
        assert!(
            matches!(next, wire::Frame::Hello { client_id: 7 }),
            "unexpected frame after shed #{case}: {next:?}"
        );
    }
}

#[test]
fn truncated_flood_frames_error_cleanly_at_every_cut_point() {
    // A flood whose connection dies mid-drain: cutting the frame at 200
    // seeded offsets must always yield a typed error — never a panic,
    // never a successful decode, and never a hang in the drain loop.
    let cap = 256usize;
    let bytes = flood_frame(3, 8192);
    let mut rng = SplitMix64::new(0xC07_CA7);
    let mut scratch = Vec::new();
    for case in 0..200 {
        let cut = rng.below(bytes.len());
        let mut cursor = &bytes[..cut];
        let err = wire::read_frame_gated(
            &mut cursor,
            Duration::from_millis(200),
            0,
            &mut scratch,
            |len| {
                if len > cap {
                    wire::HeaderVerdict::Shed
                } else {
                    wire::HeaderVerdict::Admit
                }
            },
        );
        assert!(err.is_err(), "cut #{case} at {cut} bytes decoded: {err:?}");
    }
}

/// A peer that sends one byte and then stalls forever — the cheapest way
/// to pin a reader thread without tripping an idle timeout.
struct Drip {
    sent: bool,
}

impl std::io::Read for Drip {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.sent && !buf.is_empty() {
            self.sent = true;
            buf[0] = 0xAA;
            return Ok(1);
        }
        // Pace the retry loop like a socket read timeout would.
        std::thread::sleep(Duration::from_millis(10));
        Err(std::io::ErrorKind::WouldBlock.into())
    }
}

#[test]
fn slow_dripped_frames_trip_the_rate_floor_long_before_the_frame_budget() {
    // With a minimum byte rate set, a one-byte drip must be thrown off
    // shortly after the rate grace — not after the (deliberately huge)
    // frame budget. This is the defense the TCP server leans on against
    // clients that hold a round open by trickling bytes.
    let mut scratch = Vec::new();
    let started = Instant::now();
    let err = wire::read_frame_gated(
        &mut Drip { sent: false },
        Duration::from_secs(600),
        1_000_000,
        &mut scratch,
        |_| wire::HeaderVerdict::Admit,
    )
    .expect_err("a one-byte drip is not a frame");
    assert_eq!(err, wire::WireError::TooSlow);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "rate floor took {:?} to fire",
        started.elapsed()
    );
    assert!(
        started.elapsed() >= wire::RATE_GRACE,
        "rate floor fired inside the grace period"
    );
}
