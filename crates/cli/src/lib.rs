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
use fedsz_fl::{FlError, Transport};
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

/// `compress`: FedSZ-compress a `.fsd` into a `.fsz`.
pub fn cmd_compress(
    input: &Path,
    out: &Path,
    lossy: LossyKind,
    lossless: LosslessKind,
    rel: f64,
    threshold: usize,
) -> Result<String, CliError> {
    if !(rel.is_finite() && rel > 0.0) {
        return Err(CliError::Usage(format!(
            "relative bound must be positive, got {rel}"
        )));
    }
    let sd = read_update(input)?;
    let cfg = FedSzConfig {
        lossy,
        lossless,
        error_bound: ErrorBound::Rel(rel),
        threshold,
    };
    let (update, stats) = compress_with_stats(&sd, &cfg);
    std::fs::write(out, update.as_bytes())
        .map_err(|e| CliError::Io(format!("{}: {e}", out.display())))?;
    Ok(format!(
        "wrote {} ({:.2} MB, ratio {:.2}x, {:.2} s, {} @ rel {rel:e} + {})",
        out.display(),
        update.nbytes() as f64 / 1e6,
        stats.compression_ratio(),
        stats.compress_seconds,
        lossy.name(),
        lossless.name()
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

/// Options for the `fl` subcommand.
#[derive(Debug, Clone)]
pub struct FlOpts {
    /// Communication rounds.
    pub rounds: usize,
    /// Number of clients.
    pub clients: usize,
    /// Registered client population for cross-device sampling; 0 (the
    /// default) keeps the cross-silo behaviour where `clients` clients all
    /// participate every round.
    pub population: usize,
    /// Fraction of the registered population sampled per round (at least
    /// one client is always selected). 1.0 selects everyone.
    pub sample_fraction: f64,
    /// Training samples per client.
    pub samples: usize,
    /// FedSZ relative error bound; `None` = uncompressed updates.
    pub rel: Option<f64>,
    /// Which transport carries the updates.
    pub transport: Transport,
    /// TCP server role: bind this address and wait for remote clients.
    /// Without `listen` or `connect`, `--transport tcp` runs the server
    /// and all clients in this process over loopback.
    pub listen: Option<String>,
    /// TCP client role: join the server at this address.
    pub connect: Option<String>,
    /// Which client slot this process serves (TCP client role).
    pub client_id: Option<usize>,
    /// Per-round deadline in milliseconds (threaded and tcp transports).
    pub deadline_ms: Option<u64>,
    /// Client-side idle timeout in milliseconds: a client exits once the
    /// server has been silent this long.
    pub idle_timeout_ms: Option<u64>,
    /// Minimum valid updates per round before aggregating.
    pub min_quorum: usize,
    /// Retries for a quorum-starved round before aborting.
    pub retries: usize,
    /// Master seed.
    pub seed: u64,
    /// Directory for durable round checkpoints.
    pub checkpoint_dir: Option<String>,
    /// Checkpoint every this many completed rounds.
    pub checkpoint_every: usize,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// Server-side ingest workers decoding + validating updates
    /// concurrently (0 = serial; `None` = one per available core). Any
    /// value yields a bit-identical run — only wall time changes.
    pub ingest_workers: Option<usize>,
    /// Server-side ingest memory budget in bytes: admitted-but-unsettled
    /// update frames may hold at most this much at once, and a frame that
    /// could never fit is shed. `None` = auto (a small multiple of the
    /// model size); `Some(0)` disables budgeting.
    pub ingest_budget_bytes: Option<usize>,
    /// Minimum uplink byte rate (bytes/second) a TCP connection must hold
    /// mid-frame; slower peers are shed. 0 disables enforcement.
    pub min_byte_rate: u64,
    /// Server aggregation mode: `mean` (plain FedAvg, the default),
    /// `clipped-mean` (norm-screened), or `trimmed-mean` (coordinate-wise
    /// trim). The robust modes buffer the cohort — see
    /// `fedsz_fl::Aggregation`.
    pub aggregation: String,
    /// Clipped-mean threshold multiplier over the cohort's median update
    /// norm (requires `--aggregation clipped-mean`; default 3).
    pub clip_factor: Option<f64>,
    /// Values trimmed from each end per coordinate (requires
    /// `--aggregation trimmed-mean`; default 1).
    pub trim_k: Option<usize>,
}

impl Default for FlOpts {
    fn default() -> Self {
        Self {
            rounds: 5,
            clients: 4,
            population: 0,
            sample_fraction: 1.0,
            samples: 96,
            rel: Some(1e-2),
            transport: Transport::InProcess,
            listen: None,
            connect: None,
            client_id: None,
            deadline_ms: None,
            idle_timeout_ms: None,
            min_quorum: 1,
            retries: 0,
            seed: 42,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            ingest_workers: None,
            ingest_budget_bytes: None,
            min_byte_rate: 0,
            aggregation: "mean".into(),
            clip_factor: None,
            trim_k: None,
        }
    }
}

/// `fl`: run a federated session and print per-round accuracy, compression,
/// and participation (delivered / rejected / late / dropped clients).
pub fn cmd_fl(opts: &FlOpts) -> Result<String, CliError> {
    use fedsz_fl::{FlConfig, NetConfig, RunSpec};
    use std::time::Duration;

    if opts.clients == 0 || opts.rounds == 0 {
        return Err(CliError::Usage(
            "need at least one client and one round".into(),
        ));
    }
    if opts.min_quorum > opts.clients {
        return Err(CliError::Usage(format!(
            "--min-quorum {} exceeds --clients {}",
            opts.min_quorum, opts.clients
        )));
    }
    if opts.population != 0 && opts.population < opts.clients {
        return Err(CliError::Usage(format!(
            "--population {} is smaller than --clients {} (omit --population for cross-silo)",
            opts.population, opts.clients
        )));
    }
    if !(opts.sample_fraction.is_finite()
        && opts.sample_fraction > 0.0
        && opts.sample_fraction <= 1.0)
    {
        return Err(CliError::Usage(format!(
            "--sample-fraction must be in (0, 1], got {}",
            opts.sample_fraction
        )));
    }
    let cohort =
        fedsz_fl::sampling::cohort_size(opts.population.max(opts.clients), opts.sample_fraction);
    if opts.min_quorum > cohort {
        return Err(CliError::Usage(format!(
            "--min-quorum {} exceeds the per-round cohort of {cohort} clients",
            opts.min_quorum
        )));
    }
    if let Some(rel) = opts.rel {
        if !(rel.is_finite() && rel > 0.0) {
            return Err(CliError::Usage(format!(
                "relative bound must be positive, got {rel}"
            )));
        }
    }
    if opts.transport != Transport::Tcp
        && (opts.listen.is_some() || opts.connect.is_some() || opts.client_id.is_some())
    {
        return Err(CliError::Usage(
            "--listen/--connect/--client-id require --transport tcp".into(),
        ));
    }
    // Flags only one role or transport reads would be silently ignored
    // elsewhere.
    if opts.transport != Transport::Tcp && opts.min_byte_rate != 0 {
        return Err(CliError::Usage(
            "--min-byte-rate requires --transport tcp".into(),
        ));
    }
    if opts.client_id.is_some() && opts.connect.is_none() {
        return Err(CliError::Usage("--client-id requires --connect".into()));
    }
    // The in-process transport has no stragglers, retries or idle clients,
    // so the policy flags that govern them would be silently meaningless.
    if opts.transport == Transport::InProcess {
        let policy_flags = [
            ("--deadline-ms", opts.deadline_ms.is_some()),
            ("--min-quorum", opts.min_quorum > 1),
            ("--retries", opts.retries > 0),
            ("--idle-timeout-ms", opts.idle_timeout_ms.is_some()),
        ];
        if let Some((flag, _)) = policy_flags.iter().find(|(_, set)| *set) {
            return Err(CliError::Usage(format!(
                "{flag} requires --transport threaded or tcp"
            )));
        }
    }
    if opts.listen.is_some() && opts.connect.is_some() {
        return Err(CliError::Usage(
            "--listen and --connect are mutually exclusive".into(),
        ));
    }
    if opts.checkpoint_dir.is_none() && (opts.resume || opts.checkpoint_every != 1) {
        return Err(CliError::Usage(
            "--resume/--checkpoint-every require --checkpoint-dir".into(),
        ));
    }
    if opts.checkpoint_every == 0 {
        return Err(CliError::Usage(
            "--checkpoint-every must be at least 1".into(),
        ));
    }
    if opts.connect.is_some() && opts.checkpoint_dir.is_some() {
        return Err(CliError::Usage(
            "checkpoints are server-side; --checkpoint-dir conflicts with --connect".into(),
        ));
    }
    // 0 means serial; an absurd thread count is almost certainly a typo.
    if opts.ingest_workers.is_some_and(|w| w > 1024) {
        return Err(CliError::Usage(format!(
            "--ingest-workers {} is unreasonable (max 1024)",
            opts.ingest_workers.unwrap_or_default()
        )));
    }
    let ingest_workers = opts
        .ingest_workers
        .unwrap_or_else(fedsz_fl::ingest::default_workers);
    let aggregation = parse_aggregation(&opts.aggregation, opts.clip_factor, opts.trim_k)?;
    let cfg = FlConfig {
        rounds: opts.rounds,
        n_clients: opts.clients,
        population: opts.population,
        sample_fraction: opts.sample_fraction,
        samples_per_client: opts.samples,
        compression: opts.rel.map(|rel| fedsz::FedSzConfig {
            threshold: fedsz_fl::SMALL_MODEL_THRESHOLD,
            ..fedsz::FedSzConfig::with_rel_bound(rel)
        }),
        seed: opts.seed,
        checkpoint_dir: opts.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
        checkpoint_every: opts.checkpoint_every,
        resume: opts.resume,
        ingest_workers,
        ingest_budget_bytes: opts.ingest_budget_bytes,
        aggregation,
        ..FlConfig::default()
    };
    let spec = RunSpec {
        transport: opts.transport,
        round_deadline: opts.deadline_ms.map(Duration::from_millis),
        min_quorum: opts.min_quorum,
        max_round_retries: opts.retries,
        client_idle_timeout: opts.idle_timeout_ms.map(Duration::from_millis),
        net: NetConfig {
            min_byte_rate: opts.min_byte_rate,
            ..NetConfig::default()
        },
        ..RunSpec::default()
    };

    // TCP client role: participate and exit; the server prints the report.
    if let Some(addr) = &opts.connect {
        let id = opts
            .client_id
            .ok_or_else(|| CliError::Usage("--connect requires --client-id".into()))?;
        fedsz_fl::run_tcp_client(addr, id, &cfg, &spec).map_err(classify_fl)?;
        return Ok(format!(
            "client {id} finished against {addr} ({} clients x {} samples, seed {})",
            opts.clients, opts.samples, opts.seed
        ));
    }

    let result = match &opts.listen {
        Some(addr) => fedsz_fl::serve_tcp(addr, &cfg, &spec),
        None => fedsz_fl::run_with(&cfg, &spec),
    }
    .map_err(classify_fl)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} transport, {} x {} samples, {} rounds, {}, ingest: {}, aggregation: {}, simd: {}",
        match opts.transport {
            Transport::Channel => "threaded", // the flag's name for it
            other => other.name(),
        },
        match opts.population {
            0 => format!("{} clients", opts.clients),
            pop => format!("cohort {cohort} of {pop} registered clients"),
        },
        opts.samples,
        opts.rounds,
        match opts.rel {
            Some(rel) => format!("fedsz @ rel {rel:e}"),
            None => "uncompressed".into(),
        },
        match ingest_workers {
            0 => "serial".to_string(),
            n => format!("{n} workers"),
        },
        aggregation.name(),
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
/// reference `.fsd`.
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fedsz-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn synth_compress_decompress_verify_cycle() {
        let fsd = tmp("model.fsd");
        let fsz = tmp("model.fsz");
        let back = tmp("restored.fsd");

        let msg = cmd_synth(ModelKind::MobileNetV2, 10, 42, &fsd).unwrap();
        assert!(msg.contains("entries"));

        let msg = cmd_compress(
            &fsd,
            &fsz,
            LossyKind::Sz2,
            LosslessKind::BloscLz,
            1e-2,
            2048,
        )
        .unwrap();
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
        let opts = FlOpts {
            rounds: 2,
            samples: 48,
            transport: Transport::Channel,
            deadline_ms: Some(30_000),
            ingest_workers: Some(2),
            ..FlOpts::default()
        };
        let report = cmd_fl(&opts).unwrap();
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
        let err = cmd_fl(&FlOpts {
            rounds: 1,
            clients: 2,
            samples: 16,
            transport: Transport::Channel,
            ingest_budget_bytes: Some(1),
            ..FlOpts::default()
        })
        .unwrap_err();
        match err {
            CliError::Run(m) => assert!(m.contains("overloaded"), "{m}"),
            _ => panic!("expected a Run error"),
        }
    }

    #[test]
    fn fl_subcommand_runs_tcp_loopback() {
        let opts = FlOpts {
            rounds: 1,
            clients: 2,
            samples: 32,
            transport: Transport::Tcp,
            ..FlOpts::default()
        };
        let report = cmd_fl(&opts).unwrap();
        assert!(report.contains("tcp transport"), "{report}");
        // The downlink broadcast is real bytes over the socket now.
        assert!(report.contains("kB down"), "{report}");
        assert!(!report.contains("0.0 kB down"), "{report}");
    }

    #[test]
    fn parse_aggregation_modes_and_flag_pairing() {
        use fedsz_fl::Aggregation;
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
        let report = cmd_fl(&FlOpts {
            rounds: 1,
            clients: 3,
            samples: 32,
            aggregation: "clipped-mean".into(),
            clip_factor: Some(4.0),
            ..FlOpts::default()
        })
        .unwrap();
        assert!(report.contains("aggregation: clipped-mean"), "{report}");
        assert!(report.contains("suspected"), "{report}");
        assert!(report.contains("norm-outlier"), "{report}");
        assert!(report.contains("trim-eliminated"), "{report}");
    }

    #[test]
    fn fl_subcommand_validates_options() {
        assert!(matches!(
            cmd_fl(&FlOpts {
                clients: 0,
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_fl(&FlOpts {
                min_quorum: 9,
                clients: 4,
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_fl(&FlOpts {
                rel: Some(-0.5),
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        // Socket roles require the tcp transport.
        assert!(matches!(
            cmd_fl(&FlOpts {
                listen: Some("127.0.0.1:0".into()),
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        // A client role must name its slot.
        assert!(matches!(
            cmd_fl(&FlOpts {
                transport: Transport::Tcp,
                connect: Some("127.0.0.1:1".into()),
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        // Flags that only TCP, or only its client role, reads.
        for (flag, opts) in [
            (
                "--min-byte-rate",
                FlOpts {
                    transport: Transport::Channel,
                    min_byte_rate: 100,
                    ..FlOpts::default()
                },
            ),
            (
                "--client-id",
                FlOpts {
                    transport: Transport::Tcp,
                    client_id: Some(0),
                    ..FlOpts::default()
                },
            ),
        ] {
            match cmd_fl(&opts) {
                Err(CliError::Usage(m)) => assert!(m.contains(flag), "{flag}: {m}"),
                other => panic!("{flag} accepted: {other:?}"),
            }
        }
        // Server and client role at once is contradictory.
        assert!(matches!(
            cmd_fl(&FlOpts {
                transport: Transport::Tcp,
                listen: Some("127.0.0.1:0".into()),
                connect: Some("127.0.0.1:1".into()),
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        // Absurd worker counts are rejected before any threads spawn.
        assert!(matches!(
            cmd_fl(&FlOpts {
                ingest_workers: Some(4096),
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        // A population smaller than the client count is contradictory.
        assert!(matches!(
            cmd_fl(&FlOpts {
                clients: 4,
                population: 2,
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
        // The sample fraction must be a finite value in (0, 1].
        for bad in [0.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    cmd_fl(&FlOpts {
                        sample_fraction: bad,
                        ..FlOpts::default()
                    }),
                    Err(CliError::Usage(_))
                ),
                "--sample-fraction {bad} accepted"
            );
        }
        // Quorum is checked against the sampled cohort, not the population.
        assert!(matches!(
            cmd_fl(&FlOpts {
                clients: 4,
                population: 100,
                sample_fraction: 0.02, // cohort of 2
                min_quorum: 3,
                ..FlOpts::default()
            }),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fl_in_process_refuses_transport_policy_flags_by_name() {
        // These used to be accepted and silently dropped.
        let cases = [
            (
                "--deadline-ms",
                FlOpts {
                    deadline_ms: Some(500),
                    ..FlOpts::default()
                },
            ),
            (
                "--min-quorum",
                FlOpts {
                    min_quorum: 2,
                    ..FlOpts::default()
                },
            ),
            (
                "--retries",
                FlOpts {
                    retries: 1,
                    ..FlOpts::default()
                },
            ),
            (
                "--idle-timeout-ms",
                FlOpts {
                    idle_timeout_ms: Some(500),
                    ..FlOpts::default()
                },
            ),
        ];
        for (flag, opts) in cases {
            assert_eq!(opts.transport, Transport::InProcess);
            match cmd_fl(&opts) {
                Err(CliError::Usage(m)) => assert!(m.contains(flag), "{flag}: {m}"),
                other => panic!("{flag} accepted in-process: {other:?}"),
            }
            // The same flag is fine on a transport that has the policy.
            let threaded = FlOpts {
                rounds: 1,
                clients: 2,
                samples: 16,
                transport: Transport::Channel,
                ..opts
            };
            assert!(cmd_fl(&threaded).is_ok(), "{flag} refused when threaded");
        }
    }

    #[test]
    fn fl_subcommand_reports_sampled_cohorts() {
        let opts = FlOpts {
            rounds: 1,
            clients: 2,
            samples: 32,
            population: 8,
            sample_fraction: 0.25, // cohort of 2 from 8 registered
            ..FlOpts::default()
        };
        let report = cmd_fl(&opts).unwrap();
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
            cmd_compress(
                &fsd,
                &tmp("x.fsz"),
                LossyKind::Sz2,
                LosslessKind::Zstd,
                -1.0,
                10
            ),
            Err(CliError::Usage(_))
        ));
    }
}
