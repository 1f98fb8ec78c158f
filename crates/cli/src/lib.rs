//! Library behind the `fedsz-tool` binary: every subcommand is a function
//! over paths and options so integration tests can drive it in-process.
//!
//! File conventions:
//! * `.fsd` — a state dict stored losslessly (a FedSZ update compressed
//!   with the partition threshold at `usize::MAX`, so every tensor takes
//!   the bit-exact path).
//! * `.fsz` — a FedSZ-compressed update (lossy weights + lossless metadata).
//!
//! Both are the same self-describing wire format (`docs/FORMATS.md`), so
//! `decompress` and `inspect` accept either.

use std::fmt::Write as _;
use std::path::Path;

use fedsz::{
    census, compress_with_stats, decompress, CodecError, CompressedUpdate, ErrorBound, FedSzConfig,
    LosslessKind, LossyKind, Route,
};
use fedsz_fl::{FlConfig, FlError, RunSpec, Transport};
use fedsz_models::ModelKind;
use fedsz_tensor::StateDict;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// I/O failure with context.
    Io(String),
    /// Bad argument or unparseable option.
    Usage(String),
    /// Corrupt or foreign input file.
    Decode(String),
    /// A federated run aborted (e.g. quorum not met).
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(m) => write!(f, "io error: {m}"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Decode(m) => write!(f, "decode error: {m}"),
            CliError::Run(m) => write!(f, "run error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Map a codec failure onto the CLI's `Decode` bucket, naming every
/// [`CodecError`] variant: fedsz-lint's `error-enum-coverage` rule keeps
/// this match in sync with the enum, so a new decode failure mode is an
/// explicit classification decision here rather than a silent fall-through.
fn classify_codec(context: &str, e: CodecError) -> CliError {
    match e {
        CodecError::UnexpectedEof => {
            CliError::Decode(format!("{context}: unexpected end of compressed stream"))
        }
        CodecError::Corrupt(what) => CliError::Decode(format!("{context}: corrupt stream: {what}")),
    }
}

/// Map a federated-run failure onto the CLI's buckets, naming every
/// [`FlError`] variant (same `error-enum-coverage` contract as
/// [`classify_codec`]).
fn classify_fl(e: FlError) -> CliError {
    match e {
        e @ (FlError::QuorumNotMet { .. }
        | FlError::Overloaded { .. }
        | FlError::AllClientsDead { .. }
        | FlError::ServerKilled { .. }) => CliError::Run(e.to_string()),
        FlError::Transport(m) => CliError::Run(format!("transport error: {m}")),
        FlError::Checkpoint(m) => CliError::Run(format!("checkpoint error: {m}")),
        FlError::Aggregate(m) => CliError::Run(format!("aggregation failed: {m}")),
    }
}

fn read_update(path: &Path) -> Result<StateDict, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    decompress(&CompressedUpdate::from_bytes(bytes))
        .map_err(|e| classify_codec(&path.display().to_string(), e))
}

fn write_lossless(sd: &StateDict, path: &Path) -> Result<usize, CliError> {
    let cfg = FedSzConfig {
        threshold: usize::MAX,
        ..FedSzConfig::default()
    };
    let update = fedsz::compress(sd, &cfg);
    let n = update.nbytes();
    std::fs::write(path, update.into_bytes())
        .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    Ok(n)
}

/// Parse a model name as the tool accepts it.
pub fn parse_model(name: &str) -> Result<ModelKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "alexnet" => Ok(ModelKind::AlexNet),
        "mobilenetv2" | "mobilenet-v2" | "mobilenet" => Ok(ModelKind::MobileNetV2),
        "resnet50" | "resnet" => Ok(ModelKind::ResNet50),
        other => Err(CliError::Usage(format!(
            "unknown model {other:?} (expected alexnet | mobilenetv2 | resnet50)"
        ))),
    }
}

/// Parse a lossy codec name.
pub fn parse_lossy(name: &str) -> Result<LossyKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "sz2" => Ok(LossyKind::Sz2),
        "sz3" => Ok(LossyKind::Sz3),
        "szx" => Ok(LossyKind::Szx),
        "szx-paper" => Ok(LossyKind::SzxPaper),
        "zfp" => Ok(LossyKind::Zfp),
        other => Err(CliError::Usage(format!(
            "unknown lossy codec {other:?} (expected sz2 | sz3 | szx | szx-paper | zfp)"
        ))),
    }
}

/// Parse a lossless codec name.
pub fn parse_lossless(name: &str) -> Result<LosslessKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "blosc-lz" | "blosclz" | "blosc" => Ok(LosslessKind::BloscLz),
        "gzip" => Ok(LosslessKind::Gzip),
        "xz" => Ok(LosslessKind::Xz),
        "zlib" => Ok(LosslessKind::Zlib),
        "zstd" => Ok(LosslessKind::Zstd),
        other => Err(CliError::Usage(format!(
            "unknown lossless codec {other:?} (expected blosc-lz | gzip | xz | zlib | zstd)"
        ))),
    }
}

/// `synth`: write a pretrained-like state dict to a `.fsd` file.
pub fn cmd_synth(
    model: ModelKind,
    classes: usize,
    seed: u64,
    out: &Path,
) -> Result<String, CliError> {
    let sd = model.synthesize(classes, seed);
    let bytes = write_lossless(&sd, out)?;
    Ok(format!(
        "wrote {} ({} entries, {:.1} MB state, {:.1} MB on disk)",
        out.display(),
        sd.len(),
        sd.nbytes() as f64 / 1e6,
        bytes as f64 / 1e6
    ))
}

/// The relative bound `cfg` compresses at, refused unless it is finite
/// and positive: the one check `compress` and `fl` share.
fn rel_bound(cfg: &FedSzConfig) -> Result<f64, CliError> {
    match cfg.error_bound {
        ErrorBound::Rel(rel) if rel.is_finite() && rel > 0.0 => Ok(rel),
        ErrorBound::Rel(rel) => Err(CliError::Usage(format!(
            "relative bound must be positive, got {rel}"
        ))),
        ErrorBound::Abs(eb) => Err(CliError::Usage(format!(
            "the tool takes a relative bound, got absolute {eb}"
        ))),
    }
}

/// `compress`: FedSZ-compress a `.fsd` into a `.fsz`.
pub fn cmd_compress(input: &Path, out: &Path, cfg: &FedSzConfig) -> Result<String, CliError> {
    let rel = rel_bound(cfg)?;
    let sd = read_update(input)?;
    let (update, stats) = compress_with_stats(&sd, cfg);
    std::fs::write(out, update.as_bytes())
        .map_err(|e| CliError::Io(format!("{}: {e}", out.display())))?;
    Ok(format!(
        "wrote {} ({:.2} MB, ratio {:.2}x, {:.2} s, {} @ rel {rel:e} + {})",
        out.display(),
        update.nbytes() as f64 / 1e6,
        stats.compression_ratio(),
        stats.compress_seconds,
        cfg.lossy.name(),
        cfg.lossless.name()
    ))
}

/// `decompress`: restore a `.fsz`/`.fsd` into a lossless `.fsd`.
pub fn cmd_decompress(input: &Path, out: &Path) -> Result<String, CliError> {
    let sd = read_update(input)?;
    let bytes = write_lossless(&sd, out)?;
    Ok(format!(
        "wrote {} ({} entries, {:.1} MB on disk)",
        out.display(),
        sd.len(),
        bytes as f64 / 1e6
    ))
}

/// `inspect`: print the census and per-entry table of an update file.
pub fn cmd_inspect(input: &Path, threshold: usize) -> Result<String, CliError> {
    let sd = read_update(input)?;
    let c = census(&sd, threshold);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} entries, {} values, {:.2} MB as f32",
        input.display(),
        sd.len(),
        sd.num_params(),
        sd.nbytes() as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "partition @ threshold {threshold}: {} lossy / {} lossless entries, {:.2}% lossy values",
        c.lossy_entries,
        c.lossless_entries,
        100.0 * c.lossy_fraction()
    );
    let _ = writeln!(out, "{:<44} {:>12} {:>10} route", "name", "shape", "numel");
    for e in sd.entries() {
        let route = match fedsz::route_of(&e.name, e.tensor.numel(), threshold) {
            Route::Lossy => "lossy",
            Route::Lossless => "lossless",
        };
        let shape = format!("{:?}", e.tensor.shape());
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>10} {route}",
            e.name,
            shape,
            e.tensor.numel()
        );
    }
    Ok(out)
}

/// Parse a transport name as the tool accepts it; the channel transport
/// is `threaded` here.
pub fn parse_transport(name: &str) -> Result<Transport, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "in-process" | "inprocess" | "sim" => Ok(Transport::InProcess),
        "threaded" | "threads" => Ok(Transport::Channel),
        "tcp" => Ok(Transport::Tcp),
        other => Err(CliError::Usage(format!(
            "unknown transport {other:?} (expected in-process | threaded | tcp)"
        ))),
    }
}

/// Build the server aggregation mode from the `fl` flags. `--clip-factor`
/// requires `--aggregation clipped-mean` and `--trim-k` requires
/// `--aggregation trimmed-mean`; each robust mode has a usable default
/// parameter (clip factor 3, trim 1 per end).
pub fn parse_aggregation(
    mode: &str,
    clip_factor: Option<f64>,
    trim_k: Option<usize>,
) -> Result<fedsz_fl::Aggregation, CliError> {
    use fedsz_fl::Aggregation;
    let agg = match mode.to_ascii_lowercase().as_str() {
        "mean" => {
            if clip_factor.is_some() || trim_k.is_some() {
                return Err(CliError::Usage(
                    "--clip-factor/--trim-k require a robust --aggregation mode".into(),
                ));
            }
            Aggregation::Mean
        }
        "clipped-mean" | "clipped" => {
            if trim_k.is_some() {
                return Err(CliError::Usage(
                    "--trim-k requires --aggregation trimmed-mean".into(),
                ));
            }
            Aggregation::ClippedMean {
                clip_factor: clip_factor.unwrap_or(3.0),
            }
        }
        "trimmed-mean" | "trimmed" => {
            if clip_factor.is_some() {
                return Err(CliError::Usage(
                    "--clip-factor requires --aggregation clipped-mean".into(),
                ));
            }
            Aggregation::TrimmedMean {
                trim_k: trim_k.unwrap_or(1),
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown aggregation {other:?} (expected mean | clipped-mean | trimmed-mean)"
            )))
        }
    };
    agg.validate().map_err(classify_fl)?;
    Ok(agg)
}

/// Which part of a run this process plays. Only `--transport tcp` has
/// more than [`Role::Local`].
#[derive(Debug, PartialEq, Eq)]
pub enum Role {
    /// The server and every client, in this process.
    Local,
    /// The server alone: bind this address and wait for remote clients.
    Listen(String),
    /// One client slot, joining the server at `addr`.
    Connect {
        /// The server's address.
        addr: String,
        /// Which client slot this process serves.
        client_id: usize,
    },
}

/// Pair `--listen`, `--connect` and `--client-id` into a [`Role`].
pub fn parse_role(
    listen: Option<&str>,
    connect: Option<&str>,
    client_id: Option<usize>,
) -> Result<Role, CliError> {
    match (listen, connect, client_id) {
        (None, None, None) => Ok(Role::Local),
        (Some(addr), None, None) => Ok(Role::Listen(addr.to_owned())),
        (None, Some(addr), Some(client_id)) => Ok(Role::Connect {
            addr: addr.to_owned(),
            client_id,
        }),
        (Some(_), Some(_), _) => Err(CliError::Usage(
            "--listen and --connect are mutually exclusive".into(),
        )),
        (_, None, Some(_)) => Err(CliError::Usage("--client-id requires --connect".into())),
        (None, Some(_), None) => Err(CliError::Usage("--connect requires --client-id".into())),
    }
}

/// The `fl` subcommand's own defaults: FedSZ at rel 1e-2, and a run short
/// enough for a terminal. Everything else is [`FlConfig`]'s default.
pub fn fl_defaults() -> FlConfig {
    FlConfig {
        rounds: 5,
        samples_per_client: 96,
        ..FlConfig::with_fedsz(1e-2)
    }
}

/// `fl`: run a federated session and print per-round accuracy, compression,
/// and participation (delivered / rejected / late / dropped clients).
pub fn cmd_fl(cfg: &FlConfig, spec: &RunSpec, role: &Role) -> Result<String, CliError> {
    if cfg.n_clients == 0 || cfg.rounds == 0 {
        return Err(CliError::Usage(
            "need at least one client and one round".into(),
        ));
    }
    if cfg.population != 0 && cfg.population < cfg.n_clients {
        return Err(CliError::Usage(format!(
            "--population {} is smaller than --clients {} (omit --population for cross-silo)",
            cfg.population, cfg.n_clients
        )));
    }
    if !(cfg.sample_fraction.is_finite() && cfg.sample_fraction > 0.0 && cfg.sample_fraction <= 1.0)
    {
        return Err(CliError::Usage(format!(
            "--sample-fraction must be in (0, 1], got {}",
            cfg.sample_fraction
        )));
    }
    let cohort = cfg.cohort_size();
    if spec.min_quorum > cohort {
        return Err(CliError::Usage(format!(
            "--min-quorum {} exceeds the per-round cohort of {cohort} clients",
            spec.min_quorum
        )));
    }
    let rel = cfg.compression.as_ref().map(rel_bound).transpose()?;
    if spec.transport != Transport::Tcp && *role != Role::Local {
        return Err(CliError::Usage(
            "--listen/--connect/--client-id require --transport tcp".into(),
        ));
    }
    // Flags only one transport reads would be silently ignored elsewhere.
    if spec.transport != Transport::Tcp && spec.net.min_byte_rate != 0 {
        return Err(CliError::Usage(
            "--min-byte-rate requires --transport tcp".into(),
        ));
    }
    // The in-process transport has no stragglers, retries or idle clients,
    // so the policy flags that govern them would be silently meaningless.
    if spec.transport == Transport::InProcess {
        let policy_flags = [
            ("--deadline-ms", spec.round_deadline.is_some()),
            ("--min-quorum", spec.min_quorum > 1),
            ("--retries", spec.max_round_retries > 0),
            ("--idle-timeout-ms", spec.client_idle_timeout.is_some()),
        ];
        if let Some((flag, _)) = policy_flags.iter().find(|(_, set)| *set) {
            return Err(CliError::Usage(format!(
                "{flag} requires --transport threaded or tcp"
            )));
        }
    }
    if cfg.checkpoint_dir.is_none() && (cfg.resume || cfg.checkpoint_every != 1) {
        return Err(CliError::Usage(
            "--resume/--checkpoint-every require --checkpoint-dir".into(),
        ));
    }
    if cfg.checkpoint_every == 0 {
        return Err(CliError::Usage(
            "--checkpoint-every must be at least 1".into(),
        ));
    }
    if matches!(role, Role::Connect { .. }) && cfg.checkpoint_dir.is_some() {
        return Err(CliError::Usage(
            "checkpoints are server-side; --checkpoint-dir conflicts with --connect".into(),
        ));
    }
    // 0 means serial; an absurd thread count is almost certainly a typo.
    if cfg.ingest_workers > 1024 {
        return Err(CliError::Usage(format!(
            "--ingest-workers {} is unreasonable (max 1024)",
            cfg.ingest_workers
        )));
    }

    let result = match role {
        // TCP client role: participate and exit; the server prints the report.
        Role::Connect { addr, client_id } => {
            fedsz_fl::run_tcp_client(addr, *client_id, cfg, spec).map_err(classify_fl)?;
            return Ok(format!(
                "client {client_id} finished against {addr} ({} clients x {} samples, seed {})",
                cfg.n_clients, cfg.samples_per_client, cfg.seed
            ));
        }
        Role::Listen(addr) => fedsz_fl::serve_tcp(addr, cfg, spec),
        Role::Local => fedsz_fl::run_with(cfg, spec),
    }
    .map_err(classify_fl)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} transport, {} x {} samples, {} rounds, {}, ingest: {}, aggregation: {}, simd: {}",
        match spec.transport {
            Transport::Channel => "threaded", // the flag's name for it
            other => other.name(),
        },
        match cfg.population {
            0 => format!("{} clients", cfg.n_clients),
            pop => format!("cohort {cohort} of {pop} registered clients"),
        },
        cfg.samples_per_client,
        cfg.rounds,
        match rel {
            Some(rel) => format!("fedsz @ rel {rel:e}"),
            None => "uncompressed".into(),
        },
        match cfg.ingest_workers {
            0 => "serial".to_string(),
            n => format!("{n} workers"),
        },
        cfg.aggregation.name(),
        // The dispatch level every codec hot loop in this run used —
        // `FEDSZ_SIMD=scalar|sse41|avx2|neon` overrides detection.
        fedsz_simd::active_level().name()
    );
    if let Some(round) = result.resumed_from_round {
        let _ = writeln!(out, "resumed from checkpointed round {round}");
    }
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>11} {:>9} {:>5} {:>5} {:>8}",
        "round",
        "accuracy",
        "ratio",
        "up_kB",
        "down_kB",
        "delivered",
        "rejected",
        "quarantined",
        "suspected",
        "shed",
        "late",
        "dropped"
    );
    for r in &result.rounds {
        let _ = writeln!(
            out,
            "{:>5} {:>8.1}% {:>7.2}x {:>8.1} {:>8.1} {:>9} {:>9} {:>11} {:>9} {:>5} {:>5} {:>8}",
            r.round,
            100.0 * r.accuracy,
            r.compression_ratio(),
            r.bytes_on_wire as f64 / 1e3,
            r.bytes_down_wire as f64 / 1e3,
            r.faults.delivered,
            r.faults.rejected,
            r.faults.quarantined,
            r.faults.suspected,
            r.faults.shed,
            r.faults.late,
            r.faults.dropped
        );
    }
    let f = result.fault_summary();
    let _ = writeln!(
        out,
        "final accuracy {:.1}%; wire: {:.1} kB up, {:.1} kB down; \
         participation: {} delivered, {} rejected, {} quarantined, {} suspected, {} shed, \
         {} late, {} dropped",
        100.0 * result.final_accuracy(),
        result.total_bytes_up() as f64 / 1e3,
        result.total_bytes_down() as f64 / 1e3,
        f.delivered,
        f.rejected,
        f.quarantined,
        f.suspected,
        f.shed,
        f.late,
        f.dropped
    );
    // Per-reason breakdowns of the two screening layers, summed over the
    // run: *why* updates were refused, not just how many.
    let mut qr = fedsz::QuarantineReasons::default();
    let mut sr = fedsz::SuspectReasons::default();
    for r in &result.rounds {
        qr.non_finite += r.quarantine_reasons.non_finite;
        qr.wrong_shape += r.quarantine_reasons.wrong_shape;
        qr.bad_count += r.quarantine_reasons.bad_count;
        sr.norm_outlier += r.suspect_reasons.norm_outlier;
        sr.trim_eliminated += r.suspect_reasons.trim_eliminated;
    }
    let _ = writeln!(
        out,
        "quarantine reasons: {} non-finite, {} wrong-shape, {} bad-count; \
         suspect reasons: {} norm-outlier, {} trim-eliminated",
        qr.non_finite, qr.wrong_shape, qr.bad_count, sr.norm_outlier, sr.trim_eliminated
    );
    Ok(out)
}

/// `verify`: decompress and report reconstruction quality against a
/// reference `.fsd` with the same entry names and shapes.
pub fn cmd_verify(reference: &Path, update: &Path) -> Result<String, CliError> {
    let original = read_update(reference)?;
    let restored = read_update(update)?;
    if original.len() != restored.len() {
        return Err(CliError::Decode(format!(
            "entry count mismatch: {} vs {}",
            original.len(),
            restored.len()
        )));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>12} {:>10}",
        "name", "max_err", "nrmse", "psnr_db"
    );
    for (a, b) in original.entries().iter().zip(restored.entries()) {
        if a.name != b.name || a.tensor.shape() != b.tensor.shape() {
            return Err(CliError::Decode(format!(
                "entry mismatch: {} {:?} vs {} {:?}",
                a.name,
                a.tensor.shape(),
                b.name,
                b.tensor.shape()
            )));
        }
        let q = fedsz::ReconstructionQuality::measure(a.tensor.data(), b.tensor.data());
        let _ = writeln!(
            out,
            "{:<44} {:>12.3e} {:>12.3e} {:>10.1}",
            a.name, q.max_abs_error, q.nrmse, q.psnr_db
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_fl::{Aggregation, NetConfig};
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fedsz-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn codec(lossless: LosslessKind, rel: f64, threshold: usize) -> FedSzConfig {
        FedSzConfig {
            lossy: LossyKind::Sz2,
            lossless,
            error_bound: ErrorBound::Rel(rel),
            threshold,
        }
    }

    /// `cmd_fl` in the local role.
    fn fl(cfg: FlConfig, spec: RunSpec) -> Result<String, CliError> {
        cmd_fl(&cfg, &spec, &Role::Local)
    }

    fn over(transport: Transport) -> RunSpec<'static> {
        RunSpec {
            transport,
            ..RunSpec::default()
        }
    }

    #[test]
    fn synth_compress_decompress_verify_cycle() {
        let fsd = tmp("model.fsd");
        let fsz = tmp("model.fsz");
        let back = tmp("restored.fsd");

        let msg = cmd_synth(ModelKind::MobileNetV2, 10, 42, &fsd).unwrap();
        assert!(msg.contains("entries"));

        let msg = cmd_compress(&fsd, &fsz, &codec(LosslessKind::BloscLz, 1e-2, 2048)).unwrap();
        assert!(msg.contains("ratio"));
        let fsd_len = std::fs::metadata(&fsd).unwrap().len();
        let fsz_len = std::fs::metadata(&fsz).unwrap().len();
        assert!(fsz_len * 3 < fsd_len, "{fsz_len} vs {fsd_len}");

        cmd_decompress(&fsz, &back).unwrap();
        let report = cmd_verify(&fsd, &back).unwrap();
        assert!(report.contains("features.0.0.weight"));

        let inspect = cmd_inspect(&fsz, 2048).unwrap();
        assert!(inspect.contains("lossy values"));
        assert!(inspect.contains("classifier.1.weight"));
    }

    #[test]
    fn parsers_accept_aliases_and_reject_junk() {
        assert_eq!(parse_model("AlexNet").unwrap(), ModelKind::AlexNet);
        assert_eq!(parse_model("mobilenet").unwrap(), ModelKind::MobileNetV2);
        assert!(parse_model("vgg").is_err());
        assert_eq!(parse_lossy("SZ2").unwrap(), LossyKind::Sz2);
        assert!(parse_lossy("sz9").is_err());
        assert_eq!(parse_lossless("blosc").unwrap(), LosslessKind::BloscLz);
        assert!(parse_lossless("lz4").is_err());
    }

    #[test]
    fn fl_subcommand_reports_rounds_and_participation() {
        let cfg = FlConfig {
            rounds: 2,
            samples_per_client: 48,
            ingest_workers: 2,
            ..fl_defaults()
        };
        let spec = RunSpec {
            round_deadline: Some(Duration::from_secs(30)),
            ..over(Transport::Channel)
        };
        let report = fl(cfg, spec).unwrap();
        assert!(report.contains("threaded transport"), "{report}");
        assert!(report.contains("ingest: 2 workers"), "{report}");
        assert!(report.contains("simd: "), "{report}");
        assert!(report.contains("delivered"), "{report}");
        assert!(report.contains("shed"), "{report}");
        assert!(report.contains("final accuracy"), "{report}");
        assert!(report.contains("down_kB"), "{report}");
        // Two round rows, one per round index.
        assert!(
            report.contains("\n    0 ") && report.contains("\n    1 "),
            "{report}"
        );
    }

    #[test]
    fn fl_starved_ingest_budget_reports_overloaded() {
        // A 1-byte ingest budget sheds every update; the run fails with
        // the overload error, not a generic quorum message.
        let cfg = FlConfig {
            rounds: 1,
            n_clients: 2,
            samples_per_client: 16,
            ingest_budget_bytes: Some(1),
            ..fl_defaults()
        };
        match fl(cfg, over(Transport::Channel)).unwrap_err() {
            CliError::Run(m) => assert!(m.contains("overloaded"), "{m}"),
            _ => panic!("expected a Run error"),
        }
    }

    #[test]
    fn fl_subcommand_runs_tcp_loopback() {
        let cfg = FlConfig {
            rounds: 1,
            n_clients: 2,
            samples_per_client: 32,
            ..fl_defaults()
        };
        let report = fl(cfg, over(Transport::Tcp)).unwrap();
        assert!(report.contains("tcp transport"), "{report}");
        // The downlink broadcast is real bytes over the socket now.
        assert!(report.contains("kB down"), "{report}");
        assert!(!report.contains("0.0 kB down"), "{report}");
    }

    #[test]
    fn parse_aggregation_modes_and_flag_pairing() {
        assert_eq!(
            parse_aggregation("mean", None, None).unwrap(),
            Aggregation::Mean
        );
        assert_eq!(
            parse_aggregation("clipped-mean", None, None).unwrap(),
            Aggregation::ClippedMean { clip_factor: 3.0 }
        );
        assert_eq!(
            parse_aggregation("clipped", Some(5.0), None).unwrap(),
            Aggregation::ClippedMean { clip_factor: 5.0 }
        );
        assert_eq!(
            parse_aggregation("trimmed-mean", None, Some(2)).unwrap(),
            Aggregation::TrimmedMean { trim_k: 2 }
        );
        // Flags must match their mode.
        assert!(parse_aggregation("mean", Some(3.0), None).is_err());
        assert!(parse_aggregation("mean", None, Some(1)).is_err());
        assert!(parse_aggregation("clipped-mean", None, Some(1)).is_err());
        assert!(parse_aggregation("trimmed-mean", Some(3.0), None).is_err());
        // Bad parameters surface the typed aggregation error.
        assert!(parse_aggregation("clipped-mean", Some(0.5), None).is_err());
        assert!(parse_aggregation("median", None, None).is_err());
    }

    #[test]
    fn fl_subcommand_reports_robust_aggregation() {
        let cfg = FlConfig {
            rounds: 1,
            n_clients: 3,
            samples_per_client: 32,
            aggregation: Aggregation::ClippedMean { clip_factor: 4.0 },
            ..fl_defaults()
        };
        let report = fl(cfg, RunSpec::default()).unwrap();
        assert!(report.contains("aggregation: clipped-mean"), "{report}");
        assert!(report.contains("suspected"), "{report}");
        assert!(report.contains("norm-outlier"), "{report}");
        assert!(report.contains("trim-eliminated"), "{report}");
    }

    #[test]
    fn fl_subcommand_validates_options() {
        let usage = |cfg: FlConfig, spec: RunSpec, role: Role| {
            matches!(cmd_fl(&cfg, &spec, &role), Err(CliError::Usage(_)))
        };
        assert!(usage(
            FlConfig {
                n_clients: 0,
                ..fl_defaults()
            },
            RunSpec::default(),
            Role::Local
        ));
        assert!(usage(
            FlConfig {
                n_clients: 4,
                ..fl_defaults()
            },
            RunSpec {
                min_quorum: 9,
                ..RunSpec::default()
            },
            Role::Local
        ));
        assert!(usage(
            FlConfig {
                compression: FlConfig::with_fedsz(-0.5).compression,
                ..fl_defaults()
            },
            RunSpec::default(),
            Role::Local
        ));
        // Socket roles require the tcp transport.
        assert!(usage(
            fl_defaults(),
            RunSpec::default(),
            Role::Listen("127.0.0.1:0".into())
        ));
        // A client role must name its slot.
        assert!(matches!(
            parse_role(None, Some("127.0.0.1:1"), None),
            Err(CliError::Usage(_))
        ));
        // Flags that only TCP, or only its client role, reads.
        let min_byte_rate = RunSpec {
            net: NetConfig {
                min_byte_rate: 100,
                ..NetConfig::default()
            },
            ..over(Transport::Channel)
        };
        for (flag, refused) in [
            (
                "--min-byte-rate",
                fl(fl_defaults(), min_byte_rate).map(drop),
            ),
            ("--client-id", parse_role(None, None, Some(0)).map(drop)),
        ] {
            match refused {
                Err(CliError::Usage(m)) => assert!(m.contains(flag), "{flag}: {m}"),
                other => panic!("{flag} accepted: {other:?}"),
            }
        }
        // Server and client role at once is contradictory.
        assert!(matches!(
            parse_role(Some("127.0.0.1:0"), Some("127.0.0.1:1"), None),
            Err(CliError::Usage(_))
        ));
        // Absurd worker counts are rejected before any threads spawn.
        assert!(usage(
            FlConfig {
                ingest_workers: 4096,
                ..fl_defaults()
            },
            RunSpec::default(),
            Role::Local
        ));
        // A population smaller than the client count is contradictory.
        assert!(usage(
            FlConfig {
                n_clients: 4,
                population: 2,
                ..fl_defaults()
            },
            RunSpec::default(),
            Role::Local
        ));
        // The sample fraction must be a finite value in (0, 1].
        for bad in [0.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                usage(
                    FlConfig {
                        sample_fraction: bad,
                        ..fl_defaults()
                    },
                    RunSpec::default(),
                    Role::Local
                ),
                "--sample-fraction {bad} accepted"
            );
        }
        // Quorum is checked against the sampled cohort, not the population.
        assert!(usage(
            FlConfig {
                n_clients: 4,
                population: 100,
                sample_fraction: 0.02, // cohort of 2
                ..fl_defaults()
            },
            RunSpec {
                min_quorum: 3,
                ..RunSpec::default()
            },
            Role::Local
        ));
    }

    #[test]
    fn fl_in_process_refuses_transport_policy_flags_by_name() {
        // These used to be accepted and silently dropped.
        let cases = [
            (
                "--deadline-ms",
                RunSpec {
                    round_deadline: Some(Duration::from_millis(500)),
                    ..RunSpec::default()
                },
            ),
            (
                "--min-quorum",
                RunSpec {
                    min_quorum: 2,
                    ..RunSpec::default()
                },
            ),
            (
                "--retries",
                RunSpec {
                    max_round_retries: 1,
                    ..RunSpec::default()
                },
            ),
            (
                "--idle-timeout-ms",
                RunSpec {
                    client_idle_timeout: Some(Duration::from_millis(500)),
                    ..RunSpec::default()
                },
            ),
        ];
        for (flag, spec) in cases {
            assert_eq!(spec.transport, Transport::InProcess);
            match fl(fl_defaults(), spec.clone()) {
                Err(CliError::Usage(m)) => assert!(m.contains(flag), "{flag}: {m}"),
                other => panic!("{flag} accepted in-process: {other:?}"),
            }
            // The same flag is fine on a transport that has the policy.
            let cfg = FlConfig {
                rounds: 1,
                n_clients: 2,
                samples_per_client: 16,
                ..fl_defaults()
            };
            let threaded = RunSpec {
                transport: Transport::Channel,
                ..spec
            };
            assert!(fl(cfg, threaded).is_ok(), "{flag} refused when threaded");
        }
    }

    #[test]
    fn fl_subcommand_reports_sampled_cohorts() {
        let cfg = FlConfig {
            rounds: 1,
            n_clients: 2,
            samples_per_client: 32,
            population: 8,
            sample_fraction: 0.25, // cohort of 2 from 8 registered
            ..fl_defaults()
        };
        let report = fl(cfg, RunSpec::default()).unwrap();
        assert!(
            report.contains("cohort 2 of 8 registered clients"),
            "{report}"
        );
        assert!(report.contains("final accuracy"), "{report}");
    }

    #[test]
    fn transport_parser_accepts_aliases_and_rejects_junk() {
        assert_eq!(parse_transport("TCP").unwrap(), Transport::Tcp);
        assert_eq!(parse_transport("sim").unwrap(), Transport::InProcess);
        assert_eq!(parse_transport("threads").unwrap(), Transport::Channel);
        assert!(parse_transport("udp").is_err());
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let missing = tmp("missing.fsd");
        let _ = std::fs::remove_file(&missing);
        assert!(matches!(cmd_inspect(&missing, 2048), Err(CliError::Io(_))));

        let junk = tmp("junk.fsd");
        std::fs::write(&junk, b"not an update").unwrap();
        assert!(matches!(cmd_inspect(&junk, 2048), Err(CliError::Decode(_))));

        let fsd = tmp("m2.fsd");
        cmd_synth(ModelKind::MobileNetV2, 10, 1, &fsd).unwrap();
        assert!(matches!(
            cmd_compress(&fsd, &tmp("x.fsz"), &codec(LosslessKind::Zstd, -1.0, 10)),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn verify_refuses_a_reference_of_another_shape() {
        let (ten, hundred) = (tmp("classes10.fsd"), tmp("classes100.fsd"));
        cmd_synth(ModelKind::MobileNetV2, 10, 1, &ten).unwrap();
        cmd_synth(ModelKind::MobileNetV2, 100, 1, &hundred).unwrap();
        match cmd_verify(&ten, &hundred) {
            Err(CliError::Decode(m)) => {
                assert_eq!(m, "entry mismatch: classifier.1.weight [10, 1280] vs classifier.1.weight [100, 1280]")
            }
            other => panic!("{other:?}"),
        }
    }
}
