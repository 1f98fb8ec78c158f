//! Durable round checkpoints: crash recovery for the FL server.
//!
//! After each completed round the server can persist its entire resumable
//! state — the round index, the aggregated global model, and every
//! accumulated [`RoundMetrics`] row — to a versioned, CRC-32-trailed file.
//! A server that is SIGKILL'd mid-run and restarted with `--resume` picks
//! up from the newest valid checkpoint and, because every per-round client
//! RNG is derived from `(seed, round, client id)` and
//! `load_state_dict` resets optimizer momentum, reproduces the
//! uninterrupted run's final model bit for bit.
//!
//! # On-disk format (`round-XXXXXXXX.ckpt`)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FCP3"
//! 4       8     config fingerprint (FNV-1a 64 over the trajectory fields)
//! 12      8     last completed round index
//! 20      8     number of accumulated metrics rows (= round + 1)
//! 28      …     rows: round, accuracy, train_s, compress_s, decompress_s,
//!               bytes up/down/uncompressed, seven fault counters
//!               (delivered/rejected/quarantined/suspected/shed/late/
//!               dropped), the quarantine-reason breakdown (non-finite /
//!               wrong-shape / bad-count), and the suspect-reason
//!               breakdown (norm-outlier / trim-eliminated)
//!               (u64 / f64-as-bits, little-endian; 20 fields per row)
//! …       8+n   global model: u64 byte length + `StateDict::to_bytes`
//! end-4   4     CRC-32 (IEEE) over bytes 4..end-4
//! ```
//!
//! # Atomic-write protocol
//!
//! `save` writes to a dot-prefixed temp file in the same directory, fsyncs
//! it, renames it over the final name, then fsyncs the directory — so a
//! crash at any point leaves either the previous checkpoint set or the new
//! one, never a half-written file under a valid name. `load_latest` scans
//! newest-first and skips damaged or foreign (fingerprint-mismatched)
//! files, so a torn write at the tail of the sequence costs one round of
//! recomputation, not the run.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fedsz_entropy::crc32::Crc32;
use fedsz_entropy::reader;
use fedsz_tensor::StateDict;

use crate::error::FlError;
use crate::robust::Aggregation;
use crate::session::{FlConfig, RoundMetrics};

/// Checkpoint magic: "FCP" + format version 3 (v3 added the `suspected`
/// fault counter plus the quarantine- and suspect-reason breakdowns to
/// each metrics row, and the non-default aggregation mode to the config
/// fingerprint; v2 added the `shed` counter and the ingest budget. Older
/// files fail the magic check and are skipped).
const MAGIC: [u8; 4] = *b"FCP3";

/// Fixed-size prefix: magic + fingerprint + round + row count.
const HEADER_LEN: usize = 4 + 8 + 8 + 8;

/// Bytes per serialized [`RoundMetrics`] row (20 × 8).
const ROW_LEN: usize = 20 * 8;

/// Ceiling on an on-disk checkpoint (64 MiB). The scaled model analogues
/// are a few hundred KiB; anything near this bound is hostile or corrupt,
/// and the cap keeps a forged length field from ballooning an allocation.
pub const MAX_CHECKPOINT_BYTES: u64 = 64 << 20;

/// Ceiling on the accumulated-rounds count a checkpoint may claim.
const MAX_ROUNDS: u64 = 1 << 20;

/// Everything needed to resume an FL run after the round it names.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the config that produced this trajectory.
    pub fingerprint: u64,
    /// Last completed (aggregated and evaluated) round index.
    pub round: usize,
    /// Global model after `round`'s aggregation.
    pub global: StateDict,
    /// Accumulated metrics for rounds `0..=round`.
    pub rounds: Vec<RoundMetrics>,
}

/// Fingerprint of every `FlConfig` field that determines the training
/// trajectory. Deliberately excludes `rounds` (so a run can be resumed
/// with a longer horizon) and the checkpoint fields themselves (where a
/// checkpoint lives does not change what it contains); everything else —
/// seed, population, sampling fraction, architecture, data, optimizer,
/// compression, ingest budget, non-default aggregation mode — must match
/// or a resume would silently splice two different experiments. The sampling inputs matter because
/// the per-round cohort is drawn from `(seed, round, population,
/// sample_fraction)`: a resumed run must replay the exact cohorts the
/// uninterrupted run would have drawn. The ingest budget matters because
/// shedding changes which updates reach the aggregate; `ingest_workers`
/// stays excluded because worker count never changes results.
pub fn config_fingerprint(cfg: &FlConfig) -> u64 {
    // The Debug rendering of the trajectory fields is stable within a
    // build of this workspace, which is the scope a checkpoint targets;
    // float fields go in as exact bit patterns.
    let mut key = format!(
        "{:?}|{:?}|{}|{}|{}|{:x}|{:x}|{}|{}|{:?}|{}|{:x}|{:?}",
        cfg.arch,
        cfg.dataset,
        cfg.n_clients,
        cfg.batch_size,
        cfg.seed,
        cfg.lr.to_bits(),
        cfg.momentum.to_bits(),
        cfg.samples_per_client,
        cfg.test_samples,
        cfg.compression,
        cfg.population,
        cfg.sample_fraction.to_bits(),
        cfg.ingest_budget_bytes,
    );
    // The aggregation mode changes which updates reach the fold and how
    // they combine, so non-default modes must not splice with each other
    // or with plain FedAvg. The default stays out of the key so that a
    // mean-mode fingerprint is byte-for-byte what the same config hashed
    // to before robust aggregation existed.
    match cfg.aggregation {
        Aggregation::Mean => {}
        Aggregation::ClippedMean { clip_factor } => {
            key.push_str(&format!("|agg=clipped:{:x}", clip_factor.to_bits()));
        }
        Aggregation::TrimmedMean { trim_k } => {
            key.push_str(&format!("|agg=trimmed:{trim_k}"));
        }
    }
    // FNV-1a 64.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn corrupt(what: &str) -> FlError {
    FlError::Checkpoint(format!("corrupt checkpoint: {what}"))
}

impl Checkpoint {
    /// Snapshot the server state after `rounds.last()`'s aggregation.
    pub fn new(cfg: &FlConfig, global: StateDict, rounds: &[RoundMetrics]) -> Self {
        let round = rounds.last().map_or(0, |r| r.round);
        Self {
            fingerprint: config_fingerprint(cfg),
            round,
            global,
            rounds: rounds.to_vec(),
        }
    }

    /// Serialize to the on-disk layout, CRC-32 trailer included.
    pub fn encode(&self) -> Vec<u8> {
        let sd_bytes = self.global.to_bytes();
        let cap = HEADER_LEN
            .saturating_add(self.rounds.len().saturating_mul(ROW_LEN))
            .saturating_add(12)
            .saturating_add(sd_bytes.len());
        let mut out = Vec::with_capacity(cap);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.round as u64).to_le_bytes());
        out.extend_from_slice(&(self.rounds.len() as u64).to_le_bytes());
        for mut r in self.rounds.iter().copied() {
            let (round, reals, counts) = row_fields(&mut r);
            out.extend_from_slice(&(*round as u64).to_le_bytes());
            for x in reals {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            for n in counts {
                out.extend_from_slice(&(*n as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&(sd_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&sd_bytes);
        let mut crc = Crc32::new();
        crc.update(out.get(4..).unwrap_or_default());
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }

    /// Deserialize and fully validate an on-disk checkpoint. Every failure
    /// mode — truncation, oversize, bad magic, bad CRC, hostile lengths,
    /// an embedded state dict that does not decode — is an
    /// [`FlError::Checkpoint`], never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, FlError> {
        if bytes.len() as u64 > MAX_CHECKPOINT_BYTES {
            return Err(corrupt("file exceeds the size cap"));
        }
        if bytes.len() < HEADER_LEN.saturating_add(12) {
            return Err(corrupt("truncated"));
        }
        if bytes.get(..4) != Some(&MAGIC[..]) {
            return Err(corrupt("bad magic"));
        }
        // Verify the trailer before trusting any length field. `body` is
        // everything before it: what the CRC covers (past the magic) and
        // what every field below is read from.
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let expected = reader::read_u32_le(trailer, &mut 0).map_err(|_| corrupt("truncated"))?;
        let mut crc = Crc32::new();
        crc.update(body.get(4..).unwrap_or_default());
        if crc.finish() != expected {
            return Err(corrupt("CRC-32 mismatch"));
        }

        let mut pos = 4usize;
        let fingerprint = read_u64(body, &mut pos)?;
        let round = read_u64(body, &mut pos)?;
        let n_rounds = read_u64(body, &mut pos)?;
        if n_rounds > MAX_ROUNDS {
            return Err(corrupt("implausible round count"));
        }
        // The accumulated rows always cover rounds 0..=round. `round` is
        // attacker-writable (the CRC only proves integrity of what was
        // written, not who wrote it), so `round + 1` must not be allowed to
        // overflow: compare against the checked successor instead.
        if Some(n_rounds) != round.checked_add(1) {
            return Err(corrupt("round count does not match the round index"));
        }
        let mut rounds = Vec::with_capacity(n_rounds as usize);
        for i in 0..n_rounds {
            let mut row = RoundMetrics::default();
            let (round, reals, counts) = row_fields(&mut row);
            *round = read_usize(body, &mut pos)?;
            for x in reals {
                *x = f64::from_bits(read_u64(body, &mut pos)?);
            }
            for n in counts {
                *n = read_usize(body, &mut pos)?;
            }
            if row.round as u64 != i {
                return Err(corrupt("metrics rows out of order"));
            }
            // The server maintains these as invariants when it writes a
            // checkpoint; a row that violates them was not produced by
            // this code, however valid its CRC.
            if row.quarantine_reasons.total() != row.faults.quarantined
                || row.suspect_reasons.total() != row.faults.suspected
            {
                return Err(corrupt(
                    "fault-reason breakdown does not sum to its counter",
                ));
            }
            rounds.push(row);
        }
        let sd_len = read_usize(body, &mut pos)?;
        let sd_bytes = reader::take(body, &mut pos, sd_len)
            .map_err(|_| corrupt("state-dict length out of bounds"))?;
        let global = StateDict::from_bytes(sd_bytes)
            .map_err(|e| corrupt(&format!("embedded state dict: {e}")))?;
        if pos != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Checkpoint {
            fingerprint,
            round: round as usize,
            global,
            rounds,
        })
    }
}

fn read_u64(body: &[u8], pos: &mut usize) -> Result<u64, FlError> {
    reader::read_u64_le(body, pos).map_err(|_| corrupt("truncated"))
}

fn read_usize(body: &[u8], pos: &mut usize) -> Result<usize, FlError> {
    usize::try_from(read_u64(body, pos)?).map_err(|_| corrupt("value exceeds usize"))
}

/// Every field of a metrics row, in file order: the round; accuracy and
/// the three stage times, stored as `f64` bits; then the byte and fault
/// counts. `encode` and `decode` both walk this one list.
fn row_fields(r: &mut RoundMetrics) -> (&mut usize, [&mut f64; 4], [&mut usize; 15]) {
    let (f, q, s) = (
        &mut r.faults,
        &mut r.quarantine_reasons,
        &mut r.suspect_reasons,
    );
    let reals = [
        &mut r.accuracy,
        &mut r.train_s_total,
        &mut r.compress_s_total,
        &mut r.decompress_s_total,
    ];
    let counts = [
        &mut r.bytes_on_wire,
        &mut r.bytes_down_wire,
        &mut r.bytes_uncompressed,
        &mut f.delivered,
        &mut f.rejected,
        &mut f.quarantined,
        &mut f.shed,
        &mut f.late,
        &mut f.dropped,
        &mut f.suspected,
        &mut q.non_finite,
        &mut q.wrong_shape,
        &mut q.bad_count,
        &mut s.norm_outlier,
        &mut s.trim_eliminated,
    ];
    (&mut r.round, reals, counts)
}

/// File name for the checkpoint of completed round `round`.
pub fn file_name(round: usize) -> String {
    format!("round-{round:08}.ckpt")
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> FlError {
    FlError::Checkpoint(format!("{what} {}: {e}", path.display()))
}

/// Atomically persist `ckpt` into `dir` (created if missing): write to a
/// temp file, fsync, rename over `round-XXXXXXXX.ckpt`, fsync the
/// directory. Returns the final path.
pub fn save(dir: &Path, ckpt: &Checkpoint) -> Result<PathBuf, FlError> {
    fs::create_dir_all(dir).map_err(|e| io_err("create checkpoint dir", dir, e))?;
    let final_path = dir.join(file_name(ckpt.round));
    let tmp_path = dir.join(format!(".{}.tmp", file_name(ckpt.round)));
    {
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| io_err("create temp checkpoint", &tmp_path, e))?;
        tmp.write_all(&ckpt.encode())
            .map_err(|e| io_err("write checkpoint", &tmp_path, e))?;
        tmp.sync_all()
            .map_err(|e| io_err("fsync checkpoint", &tmp_path, e))?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename checkpoint", &final_path, e))?;
    // fsync the directory so the rename itself is durable; not every
    // filesystem supports opening a directory, so failure is non-fatal.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Load and validate the checkpoint at `path`. Oversized, unreadable, and
/// corrupt files are all [`FlError::Checkpoint`].
pub fn load_file(path: &Path) -> Result<Checkpoint, FlError> {
    let meta = fs::metadata(path).map_err(|e| io_err("stat checkpoint", path, e))?;
    if meta.len() > MAX_CHECKPOINT_BYTES {
        return Err(FlError::Checkpoint(format!(
            "checkpoint {} exceeds the {} MiB size cap",
            path.display(),
            MAX_CHECKPOINT_BYTES >> 20
        )));
    }
    let bytes = fs::read(path).map_err(|e| io_err("read checkpoint", path, e))?;
    Checkpoint::decode(&bytes)
}

/// Load the newest valid checkpoint in `dir` whose fingerprint matches.
///
/// Scans `round-*.ckpt` newest-first; damaged files (truncated, bit-flipped,
/// oversized) and checkpoints from a different config are skipped, so a
/// torn write at the tail falls back to the previous round. Returns
/// `Ok(None)` when the directory is missing, empty, or holds no usable
/// checkpoint — the caller then starts from round 0.
pub fn load_latest(dir: &Path, fingerprint: u64) -> Result<Option<Checkpoint>, FlError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read checkpoint dir", dir, e)),
    };
    let mut candidates: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("round-") && n.ends_with(".ckpt"))
        })
        .collect();
    // Zero-padded round numbers sort lexicographically; newest first.
    candidates.sort();
    for path in candidates.iter().rev() {
        match load_file(path) {
            Ok(ckpt) if ckpt.fingerprint == fingerprint => return Ok(Some(ckpt)),
            Ok(_) | Err(_) => continue, // foreign or damaged: try an older one
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz::{FaultCounters, QuarantineReasons, SuspectReasons};
    use fedsz_tensor::{Tensor, TensorKind};

    fn sample_ckpt(round: usize) -> Checkpoint {
        let mut global = StateDict::new();
        global.insert(
            "conv.weight",
            TensorKind::Weight,
            Tensor::new(vec![2, 2], vec![0.5, -0.25, f32::MIN_POSITIVE, 3.0]),
        );
        let rounds: Vec<RoundMetrics> = (0..=round)
            .map(|r| RoundMetrics {
                round: r,
                accuracy: 0.5 + r as f64 * 0.01,
                train_s_total: 1.0,
                compress_s_total: 0.25,
                decompress_s_total: 0.125,
                bytes_on_wire: 1000 + r,
                bytes_down_wire: 2000,
                bytes_uncompressed: 4000,
                faults: FaultCounters {
                    delivered: 4,
                    quarantined: r,
                    suspected: r % 2,
                    shed: r % 2,
                    ..FaultCounters::default()
                },
                quarantine_reasons: QuarantineReasons {
                    non_finite: r,
                    ..QuarantineReasons::default()
                },
                suspect_reasons: SuspectReasons {
                    norm_outlier: r % 2,
                    ..SuspectReasons::default()
                },
            })
            .collect();
        Checkpoint {
            fingerprint: config_fingerprint(&FlConfig::default()),
            round,
            global,
            rounds,
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let ckpt = sample_ckpt(3);
        let back = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn encoding_is_pinned() {
        // Written against the field-by-field encoder: any change to the
        // FCP3 row layout or field order moves this checksum.
        let bytes = sample_ckpt(3).encode();
        assert_eq!(fedsz_entropy::crc32::crc32(&bytes), 0x37C6_5346);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = sample_ckpt(1).encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_an_error() {
        let bytes = sample_ckpt(0).encode();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1;
            assert!(
                Checkpoint::decode(&mutated).is_err(),
                "bit flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn fingerprint_ignores_rounds_and_checkpoint_fields() {
        let a = FlConfig::default();
        let mut b = FlConfig {
            rounds: a.rounds + 7,
            ..a.clone()
        };
        b.checkpoint_dir = Some(std::path::PathBuf::from("/somewhere/else"));
        b.checkpoint_every = 5;
        b.resume = true;
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn fingerprint_tracks_trajectory_fields() {
        let a = FlConfig::default();
        let b = FlConfig {
            seed: a.seed + 1,
            ..a.clone()
        };
        let c = FlConfig {
            lr: a.lr * 2.0,
            ..a.clone()
        };
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
    }

    #[test]
    fn fingerprint_tracks_sampling_fields() {
        // The cohort draw is a function of (seed, round, population,
        // sample_fraction); changing either sampling knob changes which
        // clients train, so resume must refuse to splice such runs.
        let a = FlConfig::default();
        let b = FlConfig {
            population: 1000,
            ..a.clone()
        };
        let c = FlConfig {
            population: 1000,
            sample_fraction: 0.01,
            ..a.clone()
        };
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(config_fingerprint(&b), config_fingerprint(&c));
    }

    #[test]
    fn fingerprint_tracks_ingest_budget() {
        // Shedding removes updates from the aggregate, so a resumed run
        // must not splice trajectories produced under different budgets.
        let a = FlConfig::default();
        let b = FlConfig {
            ingest_budget_bytes: Some(1 << 20),
            ..a.clone()
        };
        let c = FlConfig {
            ingest_budget_bytes: Some(0),
            ..a.clone()
        };
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
        assert_ne!(config_fingerprint(&b), config_fingerprint(&c));
    }

    #[test]
    fn fingerprint_tracks_aggregation_mode_but_not_default() {
        // Robust modes change the trajectory, so they must not splice;
        // the default mean mode must hash exactly as it did before the
        // aggregation field existed, so old checkpoints keep resuming.
        let a = FlConfig::default();
        assert_eq!(a.aggregation, Aggregation::Mean);
        let explicit_mean = FlConfig {
            aggregation: Aggregation::Mean,
            ..a.clone()
        };
        assert_eq!(config_fingerprint(&a), config_fingerprint(&explicit_mean));
        let clipped = FlConfig {
            aggregation: Aggregation::ClippedMean { clip_factor: 3.0 },
            ..a.clone()
        };
        let clipped_wider = FlConfig {
            aggregation: Aggregation::ClippedMean { clip_factor: 4.0 },
            ..a.clone()
        };
        let trimmed = FlConfig {
            aggregation: Aggregation::TrimmedMean { trim_k: 1 },
            ..a.clone()
        };
        assert_ne!(config_fingerprint(&a), config_fingerprint(&clipped));
        assert_ne!(
            config_fingerprint(&clipped),
            config_fingerprint(&clipped_wider)
        );
        assert_ne!(config_fingerprint(&a), config_fingerprint(&trimmed));
        assert_ne!(config_fingerprint(&clipped), config_fingerprint(&trimmed));
    }

    #[test]
    fn inconsistent_reason_breakdowns_are_rejected() {
        // A row whose per-reason breakdown does not sum to its counter was
        // not written by this server, CRC or no CRC.
        let mut ckpt = sample_ckpt(1);
        ckpt.rounds[1].suspect_reasons.norm_outlier += 1;
        assert!(Checkpoint::decode(&ckpt.encode()).is_err());
        let mut ckpt = sample_ckpt(1);
        ckpt.rounds[1].quarantine_reasons.bad_count += 1;
        assert!(Checkpoint::decode(&ckpt.encode()).is_err());
    }

    #[test]
    fn save_then_load_latest_round_trips() {
        let dir = std::env::temp_dir().join(format!("fedsz-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ckpt = sample_ckpt(2);
        let path = save(&dir, &ckpt).unwrap();
        assert!(path.ends_with("round-00000002.ckpt"));
        let loaded = load_latest(&dir, ckpt.fingerprint).unwrap().unwrap();
        assert_eq!(loaded, ckpt);
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_wins_when_latest_is_damaged() {
        let dir = std::env::temp_dir().join(format!("fedsz-ckpt-dmg-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let older = sample_ckpt(1);
        let newer = sample_ckpt(2);
        save(&dir, &older).unwrap();
        let newest = save(&dir, &newer).unwrap();
        // Tear the newest file in half, as a crash mid-write would.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let loaded = load_latest(&dir, older.fingerprint).unwrap().unwrap();
        assert_eq!(loaded, older);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprints_are_skipped() {
        let dir = std::env::temp_dir().join(format!("fedsz-ckpt-fp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ckpt = sample_ckpt(0);
        save(&dir, &ckpt).unwrap();
        assert_eq!(load_latest(&dir, ckpt.fingerprint ^ 1).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_not_an_error() {
        let dir = std::env::temp_dir().join("fedsz-ckpt-definitely-missing");
        assert_eq!(load_latest(&dir, 0).unwrap(), None);
    }
}
