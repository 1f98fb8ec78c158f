//! FedAvg orchestration with optional FedSZ compression of client updates —
//! the simulation loop behind Table I's accuracy columns and Figures 4–7.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fedsz::{FaultCounters, FedSzConfig, QuarantineReasons, SuspectReasons};
use fedsz_dnn::{DatasetKind, ModelArch};
use fedsz_tensor::StateDict;

use crate::budget::Ledger;
use crate::checkpoint::{self, Checkpoint};
use crate::error::FlError;
use crate::robust::Aggregation;
use crate::transport::{
    run_channel, serve, setup_run, Answer, BroadcastOutcome, Client, RecvEnd, RunSpec,
    ServerTransport, Transport, Uplink,
};

/// FedSZ partition threshold for the scaled model analogues: their conv
/// weights are far smaller than torchvision's, so the Algorithm-1 threshold
/// scales down with them (batch-norm vectors stay below it, real weight
/// tensors above).
pub const SMALL_MODEL_THRESHOLD: usize = 128;

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct FlConfig {
    /// Trainable architecture analogue.
    pub arch: ModelArch,
    /// Task (input geometry + class count).
    pub dataset: DatasetKind,
    /// Number of clients (paper: 4 for the accuracy studies).
    pub n_clients: usize,
    /// Communication rounds (paper: 10 for Table I / Fig 4, 50 for Fig 5).
    pub rounds: usize,
    /// SGD mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Training samples per client.
    pub samples_per_client: usize,
    /// Held-out evaluation samples at the server.
    pub test_samples: usize,
    /// FedSZ compression of client updates; `None` = uncompressed baseline.
    pub compression: Option<FedSzConfig>,
    /// Registered client population for cross-device sampling. `0` (the
    /// default) means "equal to `n_clients`" — the paper's cross-silo
    /// setting where everyone participates every round. A larger value
    /// registers that many clients (each with its own data shard) of which
    /// only a per-round cohort of `sample_fraction × population` trains;
    /// see [`FlConfig::cohort_for_round`].
    pub population: usize,
    /// Fraction of the registered population sampled per round, clamped to
    /// `[0, 1]`; the cohort never goes empty (at least one client). `1.0`
    /// (the default) selects everyone, reproducing the cross-silo loop.
    pub sample_fraction: f64,
    /// Master seed (controls data, init, shuffling, and cohort sampling).
    pub seed: u64,
    /// Directory for durable round checkpoints; `None` disables them.
    pub checkpoint_dir: Option<PathBuf>,
    /// Persist a checkpoint every this many completed rounds (values below
    /// 1 are treated as 1; the final round is always checkpointed).
    pub checkpoint_every: usize,
    /// Resume from the newest valid checkpoint in `checkpoint_dir` whose
    /// config fingerprint matches, instead of starting at round 0.
    pub resume: bool,
    /// Server-side ingest workers decoding and validating client updates
    /// concurrently (0 = serial on the collector thread; the default is one
    /// per available core). Any value produces a bit-identical run — only
    /// wall time changes — so this knob is deliberately excluded from the
    /// checkpoint config fingerprint: a run may resume under a different
    /// worker count.
    pub ingest_workers: usize,
    /// Per-round ingest memory budget in bytes: the ceiling on
    /// admitted-but-unsettled update-frame bytes the server holds at once
    /// (see [`crate::budget::Ledger`]). `None` (the default) auto-sizes to
    /// 4× the model's state-dict size; `Some(0)` disables budgeting
    /// entirely; `Some(n)` sets an explicit ceiling. An update frame whose
    /// announced body could never fit the whole budget is **shed** —
    /// refused at the frame header, before its body is buffered — and
    /// counted in [`fedsz::FaultCounters::shed`]; frames that fit wait
    /// (backpressure) instead, so shedding never depends on arrival order
    /// and runs stay bit-identical across transports and worker counts.
    /// Unlike `ingest_workers` this knob *can* change a run's outcome, so
    /// it is part of the checkpoint config fingerprint.
    pub ingest_budget_bytes: Option<usize>,
    /// How settled updates become the next global model (see
    /// [`crate::robust`]): plain [`Aggregation::Mean`] (the default —
    /// byte-identical behavior and checkpoints to a build without robust
    /// aggregation), norm-screened [`Aggregation::ClippedMean`], or
    /// coordinate-wise [`Aggregation::TrimmedMean`]. The robust modes
    /// buffer the cohort's decoded updates (O(cohort × model) server
    /// memory), which is enforced against the resolved ingest budget at
    /// run start. Changes the trained trajectory whenever anything is
    /// screened, so non-default modes join the checkpoint config
    /// fingerprint (the default stays out, keeping old fingerprints
    /// valid).
    pub aggregation: Aggregation,
}

impl Default for FlConfig {
    fn default() -> Self {
        Self {
            arch: ModelArch::AlexNetS,
            dataset: DatasetKind::Cifar10Like,
            n_clients: 4,
            rounds: 10,
            batch_size: 32,
            lr: 0.01,
            momentum: 0.9,
            samples_per_client: 192,
            test_samples: 256,
            compression: None,
            population: 0,
            sample_fraction: 1.0,
            seed: 42,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            ingest_workers: crate::ingest::default_workers(),
            ingest_budget_bytes: None,
            aggregation: Aggregation::default(),
        }
    }
}

impl FlConfig {
    /// Default config with FedSZ at the given relative error bound (the
    /// paper's recommended SZ2 + blosc-lz stack).
    pub fn with_fedsz(rel: f64) -> Self {
        Self {
            compression: Some(FedSzConfig {
                threshold: SMALL_MODEL_THRESHOLD,
                ..FedSzConfig::with_rel_bound(rel)
            }),
            ..Self::default()
        }
    }

    /// Number of registered clients: `population`, but never below
    /// `n_clients` (and exactly `n_clients` when `population` is 0, the
    /// cross-silo default). Client ids, data shards, and transport slots
    /// all range over `0..registered()`.
    pub(crate) fn registered(&self) -> usize {
        self.population.max(self.n_clients)
    }

    /// Cohort size per round under this config's sampling policy.
    pub fn cohort_size(&self) -> usize {
        crate::sampling::cohort_size(self.registered(), self.sample_fraction)
    }

    /// The sorted client cohort participating in `round` — deterministic in
    /// `(seed, round, population, sample_fraction)`, so every transport
    /// (and a resumed run) selects identical cohorts. Full coverage
    /// (`sample_fraction = 1`) returns `0..registered()`.
    pub fn cohort_for_round(&self, round: usize) -> Vec<usize> {
        crate::sampling::cohort_for_round(self.seed, round, self.registered(), self.sample_fraction)
    }

    /// The effective ingest budget given the model's state-dict size:
    /// `None` means accounting is disabled. Resolution:
    /// `ingest_budget_bytes = Some(0)` → disabled, `Some(n)` → `n` bytes,
    /// `None` → 4 × `model_bytes` (one frame in flight per connection plus
    /// headroom for the settle window, never below one byte).
    pub(crate) fn resolve_ingest_budget(&self, model_bytes: usize) -> Option<usize> {
        match self.ingest_budget_bytes {
            Some(0) => None,
            Some(n) => Some(n),
            None => Some(model_bytes.saturating_mul(4).max(1)),
        }
    }

    /// Should a checkpoint be written after completing `round`? The cadence
    /// is `checkpoint_every` (min 1), and the final round always persists
    /// so a finished run leaves its final model on disk.
    pub(crate) fn checkpoint_due(&self, round: usize) -> bool {
        self.checkpoint_dir.is_some()
            && ((round + 1).is_multiple_of(self.checkpoint_every.max(1))
                || round + 1 == self.rounds)
    }
}

/// Resume state recovered before round 0 (or not).
pub(crate) struct ResumePoint {
    /// Global model to continue from.
    pub(crate) global: StateDict,
    /// Metrics of the already-completed rounds.
    pub(crate) rounds: Vec<RoundMetrics>,
    /// First round still to run.
    pub(crate) start_round: usize,
    /// The checkpointed round resumed from, if any.
    pub(crate) resumed_from_round: Option<usize>,
}

/// Recover the newest matching checkpoint when `cfg.resume` asks for it;
/// otherwise (or when no usable checkpoint exists) start fresh from
/// `initial` at round 0.
pub(crate) fn resume_point(cfg: &FlConfig, initial: StateDict) -> Result<ResumePoint, FlError> {
    if cfg.resume {
        if let Some(dir) = &cfg.checkpoint_dir {
            if let Some(ckpt) = checkpoint::load_latest(dir, checkpoint::config_fingerprint(cfg))? {
                return Ok(ResumePoint {
                    start_round: ckpt.round + 1,
                    resumed_from_round: Some(ckpt.round),
                    global: ckpt.global,
                    rounds: ckpt.rounds,
                });
            }
        }
    }
    Ok(ResumePoint {
        global: initial,
        rounds: Vec::new(),
        start_round: 0,
        resumed_from_round: None,
    })
}

/// Persist a checkpoint for the just-completed round when the cadence says
/// so. `rounds` must already contain that round's metrics row.
pub(crate) fn maybe_checkpoint(
    cfg: &FlConfig,
    round: usize,
    global: &StateDict,
    rounds: &[RoundMetrics],
) -> Result<(), FlError> {
    if cfg.checkpoint_due(round) {
        let dir = cfg.checkpoint_dir.as_ref().expect("checked by due()");
        checkpoint::save(dir, &Checkpoint::new(cfg, global.clone(), rounds))?;
    }
    Ok(())
}

/// Measurements from one communication round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundMetrics {
    /// Round index (0-based).
    pub round: usize,
    /// Server-side top-1 accuracy after aggregation.
    pub accuracy: f64,
    /// Sum of client local-training wall times.
    pub train_s_total: f64,
    /// Sum of client compression wall times.
    pub compress_s_total: f64,
    /// Sum of server decompression wall times.
    pub decompress_s_total: f64,
    /// Total uplink bytes on the wire, all clients.
    pub bytes_on_wire: usize,
    /// Total downlink broadcast bytes on the wire, all reached clients.
    /// Zero on the in-process path, which shares the global model by
    /// reference rather than serializing it.
    pub bytes_down_wire: usize,
    /// Total uncompressed update bytes, all clients.
    pub bytes_uncompressed: usize,
    /// Client participation outcome (delivered / rejected / quarantined /
    /// suspected / shed / late / dropped).
    pub faults: FaultCounters,
    /// Which semantic validation gate the `quarantined` updates failed —
    /// so operators can tell corruption (wrong shape) from divergence or
    /// poisoning (non-finite) from protocol abuse (bad sample count).
    pub quarantine_reasons: QuarantineReasons,
    /// Which robust-aggregation screen excluded the `suspected` updates
    /// (norm outlier under clipped mean, majority-trimmed under trimmed
    /// mean). All-zero under the default [`Aggregation::Mean`].
    pub suspect_reasons: SuspectReasons,
}

impl RoundMetrics {
    /// Compression ratio of this round's updates.
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_on_wire == 0 {
            return 0.0;
        }
        self.bytes_uncompressed as f64 / self.bytes_on_wire as f64
    }
}

/// Result of a full FL run.
#[derive(Debug, Clone)]
pub struct FlRunResult {
    /// Per-round measurements.
    pub rounds: Vec<RoundMetrics>,
    /// Clients participating per round (the sampled cohort size, equal to
    /// the configured client count when sampling is off) — the divisor for
    /// per-client normalization.
    pub n_clients: usize,
    /// The aggregated global model after the final round — the artifact the
    /// kill-and-resume tests compare bit for bit.
    pub final_model: StateDict,
    /// The checkpointed round this run resumed from, if any.
    pub resumed_from_round: Option<usize>,
}

impl FlRunResult {
    /// Accuracy after the last round.
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.accuracy)
    }

    /// One per-round quantity summed over the whole run.
    fn total<T: std::iter::Sum>(&self, f: impl Fn(&RoundMetrics) -> T) -> T {
        self.rounds.iter().map(f).sum()
    }

    /// `total` spread over every update of the run (rounds × clients).
    fn per_update(&self, total: f64) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        total / (self.rounds.len() * self.n_clients) as f64
    }

    /// Mean per-client compression time per round.
    pub fn mean_compress_s(&self) -> f64 {
        self.per_update(self.total(|r| r.compress_s_total))
    }

    /// Mean per-client training time per round.
    pub fn mean_train_s(&self) -> f64 {
        self.per_update(self.total(|r| r.train_s_total))
    }

    /// `(final accuracy, total wire bytes, total compress seconds)` — the
    /// tuple the schedule ablation reports.
    pub fn summary(&self) -> (f64, usize, f64) {
        (
            self.final_accuracy(),
            self.total_bytes_up(),
            self.total(|r| r.compress_s_total),
        )
    }

    /// Total uplink bytes on the wire over the whole run.
    pub fn total_bytes_up(&self) -> usize {
        self.total(|r| r.bytes_on_wire)
    }

    /// Total downlink broadcast bytes on the wire over the whole run.
    pub fn total_bytes_down(&self) -> usize {
        self.total(|r| r.bytes_down_wire)
    }

    /// Participation outcome summed over all rounds.
    pub fn fault_summary(&self) -> FaultCounters {
        let mut sum = FaultCounters::default();
        for r in &self.rounds {
            sum += r.faults;
        }
        sum
    }
}

/// Run a federated session per `cfg` in-process, under the default
/// [`RunSpec`]: no deadline, a quorum of one, no faults.
pub fn run(cfg: &FlConfig) -> Result<FlRunResult, FlError> {
    run_with(cfg, &RunSpec::default())
}

/// Run a federated session per `cfg`, carried as `spec` describes — the
/// one entry point for every transport. With the same seeds (and the same
/// fault plan and schedule) every [`Transport`] produces a bit-identical
/// final model.
pub fn run_with(cfg: &FlConfig, spec: &RunSpec) -> Result<FlRunResult, FlError> {
    match spec.transport {
        Transport::InProcess => run_loopback(cfg, spec),
        Transport::Channel => run_channel(cfg, spec),
        Transport::Tcp => crate::net::run_loopback_tcp(cfg, spec),
    }
}

/// Drive the one round engine ([`serve`]) over the in-process [`Loopback`]
/// — the oracle the chaos soak compares the channel and TCP transports
/// against.
///
/// Nothing is classified by hand: a faulted client takes the same turn the
/// channel transport's clients take ([`Client::turn`]) — it trains, poisons
/// or mangles its update as planned — and the server reaches the counters
/// by really decoding and validating what came out.
/// So every kind counts exactly as it does over channels, and the final
/// model is bit-identical to both transports'. What the in-process path
/// cannot act out it resolves the way a channel does: `SlowDrip` and
/// `HoldConnection` count `shed` (the rate enforcer's verdict; there is
/// no byte stream to trickle), and `TruncateFrame` / `FlipBytes` damage
/// the payload rather than a frame. Three kinds have less to do here than
/// on a transport: `Crash` and `Disconnect` count `late` for the planned
/// round only (there is no thread to kill, so the client participates
/// again next round — model a persistent crash by planning it into
/// consecutive rounds), `Delay` does not sleep (no deadline to miss), and
/// `Replay` sends no extra copies (first-wins admission would discard them
/// before they are decoded, buffered or counted).
fn run_loopback(cfg: &FlConfig, spec: &RunSpec) -> Result<FlRunResult, FlError> {
    let (test, shards, server, ledger) = setup_run(cfg);
    let mut transport = Loopback {
        shards,
        ledger: &ledger,
        client: Client::new(cfg, spec, Transport::InProcess),
        round: 0,
        attempt: 0,
        global: Arc::default(),
        waiting: VecDeque::new(),
    };
    serve(cfg, spec, &test, server, &mut transport, &ledger)
}

/// The in-process [`ServerTransport`]: no threads and no bytes moved. A
/// broadcast just names the cohort; each `recv` takes the next member's
/// whole turn on the collector thread and hands the result straight to
/// the collect loop, which decodes it on the ingest pool while the
/// following member trains.
struct Loopback<'a> {
    shards: Vec<fedsz_dnn::Dataset>,
    /// Consulted for header-time admission only. Nothing is ever reserved:
    /// the collector thread is the loopback's only producer, so a blocking
    /// reservation could never be released.
    ledger: &'a Ledger,
    /// The one client every cohort member's turn is taken on: each turn
    /// loads the broadcast first, which fully determines the network, so
    /// client state stays O(1) however many clients are registered.
    client: Client<'a>,
    round: usize,
    attempt: usize,
    /// The broadcast model, shared by reference — never encoded.
    global: Arc<StateDict>,
    /// Cohort members of the current attempt still to take their turn.
    waiting: VecDeque<usize>,
}

impl ServerTransport for Loopback<'_> {
    fn broadcast(
        &mut self,
        round: usize,
        attempt: usize,
        cohort: &[usize],
        model: &Arc<StateDict>,
    ) -> BroadcastOutcome {
        self.round = round;
        self.attempt = attempt;
        self.global = Arc::clone(model);
        self.waiting = cohort.iter().copied().collect();
        let mut reached = vec![false; self.shards.len()];
        for &id in cohort {
            reached[id] = true;
        }
        BroadcastOutcome {
            reached,
            bytes_down: 0,
        }
    }

    fn recv(&mut self, _cutoff: Option<Instant>) -> Result<Uplink, RecvEnd> {
        let client_id = self.waiting.pop_front().ok_or(RecvEnd::Closed)?;
        let reply = match self.client.turn(
            client_id,
            &self.shards[client_id],
            self.round,
            self.attempt,
            &self.global,
        ) {
            Answer::Update(reply) => reply,
            Answer::Silent => return Ok(Uplink::Gone { client_id }),
            Answer::Shed => return Ok(Uplink::Shed { client_id }),
        };
        // The same header-time admission the transports apply: an update
        // whose frame could never fit the whole budget is shed before it
        // is decoded. One that fits is never refused — with a single
        // producer there is no concurrent arrival to wait out.
        Ok(if self.ledger.would_never_fit(reply.body_len) {
            Uplink::Shed { client_id }
        } else if let Some(update) = reply.raw {
            Uplink::Raw {
                client_id,
                update,
                samples: reply.msg.samples,
                train_s: reply.msg.train_s,
            }
        } else {
            Uplink::Msg(reply.msg)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    fn quick(compression: Option<FedSzConfig>) -> FlConfig {
        FlConfig {
            rounds: 4,
            samples_per_client: 96,
            test_samples: 128,
            compression,
            ..FlConfig::default()
        }
    }

    #[test]
    fn uncompressed_fl_learns() {
        let result = run(&quick(None)).expect("fl run");
        assert_eq!(result.rounds.len(), 4);
        assert!(
            result.final_accuracy() > 0.3,
            "accuracy {}",
            result.final_accuracy()
        );
        // No compression: wire bytes equal raw bytes.
        let r0 = &result.rounds[0];
        assert_eq!(r0.bytes_on_wire, r0.bytes_uncompressed);
        assert_eq!(r0.compress_s_total, 0.0);
    }

    #[test]
    fn fedsz_compresses_and_tracks_accuracy() {
        let base = run(&quick(None)).expect("fl run");
        let fedsz = run(&quick(FlConfig::with_fedsz(1e-2).compression)).expect("fl run");
        let r0 = &fedsz.rounds[0];
        assert!(
            r0.compression_ratio() > 2.0,
            "ratio {}",
            r0.compression_ratio()
        );
        assert!(r0.compress_s_total > 0.0);
        // The paper's headline: accuracy stays near the baseline. Four
        // rounds on a 128-sample test set is noisy, so the tolerance here
        // is loose; the fig5 regenerator checks the tight (<0.5%) claim at
        // convergence.
        let delta = (base.final_accuracy() - fedsz.final_accuracy()).abs();
        assert!(delta < 0.25, "accuracy delta {delta}");
        assert!(fedsz.final_accuracy() > 0.3, "{}", fedsz.final_accuracy());
    }

    #[test]
    fn huge_error_bound_destroys_learning() {
        let mut cfg = quick(FlConfig::with_fedsz(0.5).compression);
        cfg.rounds = 4;
        let result = run(&cfg).expect("fl run");
        // With ±50%-of-range noise every round the model cannot converge to
        // baseline quality (Fig. 5's cliff).
        let base = run(&quick(None)).expect("fl run");
        assert!(
            result.final_accuracy() < base.final_accuracy() - 0.1,
            "fedsz@0.5 {} vs base {}",
            result.final_accuracy(),
            base.final_accuracy()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&quick(None)).expect("fl run");
        let b = run(&quick(None)).expect("fl run");
        let accs_a: Vec<f64> = a.rounds.iter().map(|r| r.accuracy).collect();
        let accs_b: Vec<f64> = b.rounds.iter().map(|r| r.accuracy).collect();
        assert_eq!(accs_a, accs_b);
    }

    #[test]
    fn resolve_ingest_budget_modes() {
        let mut cfg = FlConfig::default();
        assert_eq!(cfg.resolve_ingest_budget(100), Some(400), "auto = 4x");
        cfg.ingest_budget_bytes = Some(0);
        assert_eq!(cfg.resolve_ingest_budget(100), None, "0 disables");
        cfg.ingest_budget_bytes = Some(7);
        assert_eq!(cfg.resolve_ingest_budget(100), Some(7), "explicit");
        cfg.ingest_budget_bytes = None;
        assert_eq!(cfg.resolve_ingest_budget(0), Some(1), "never zero-capacity");
    }

    #[test]
    fn starved_round_under_a_tiny_budget_is_overloaded() {
        let mut cfg = quick(None);
        cfg.rounds = 1;
        cfg.ingest_budget_bytes = Some(1);
        let err = run(&cfg).expect_err("every update shed");
        assert!(
            matches!(
                err,
                FlError::Overloaded {
                    round: 0,
                    shed: 4,
                    delivered: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn fault_plan_outcomes_are_classified_in_process() {
        let mut cfg = quick(None);
        cfg.rounds = 2;
        let faults = FaultPlan::new()
            .with(0, 0, FaultKind::Corrupt)
            .with(1, 0, FaultKind::NonFiniteUpdate)
            .with(2, 0, FaultKind::Crash)
            .with(3, 1, FaultKind::SlowDrip)
            .with(0, 1, FaultKind::FloodOversized(1 << 26)); // far over the 4x-model auto-budget
        let spec = RunSpec {
            faults,
            ..RunSpec::default()
        };
        let result = run_with(&cfg, &spec).expect("quorum met each round");
        let r0 = &result.rounds[0].faults;
        assert_eq!(
            (r0.delivered, r0.rejected, r0.quarantined, r0.shed, r0.late),
            (1, 1, 1, 0, 1),
            "{r0:?}"
        );
        let r1 = &result.rounds[1].faults;
        assert_eq!(
            (r1.delivered, r1.rejected, r1.quarantined, r1.shed, r1.late),
            (2, 0, 0, 2, 0),
            "{r1:?}"
        );
        assert_eq!(result.fault_summary().shed, 2);
    }
}
