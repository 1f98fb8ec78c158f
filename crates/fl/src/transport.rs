//! The one round engine — `serve` and the client turn every transport
//! shares — plus the threaded channel-backed transport (the APPFL/gRPC
//! analogue).
//!
//! `serve` runs the server loop — broadcast → collect under a deadline →
//! quorum/retry → FedAvg — over a small `ServerTransport` trait with
//! three implementations: the channel-backed one here (every client an OS
//! thread exchanging *serialized bitstreams* over bounded
//! [`crate::sync::channel`]s), the socket-backed one in [`crate::net`]
//! (real TCP with a framed, CRC-checked wire protocol), and the in-process
//! loopback in [`crate::session`], which runs each cohort member's turn on
//! demand on the collector thread. The client side of a round — look the
//! planned fault up, train, poison, encode, mangle, size the frame — is
//! `Client::turn` for all three, so the same seeds produce the same
//! payload bytes whichever way they travel; a transport's own client loop
//! only moves what the turn returns.
//!
//! Over channels and TCP the downlink broadcast uses FedSZ with an
//! "everything lossless" partition (threshold `usize::MAX`), so the global
//! model arrives bit-exact; the uplink uses the configured compression, as
//! in the paper.
//!
//! # Fault tolerance
//!
//! Unlike the paper's testbed, the server here never assumes that every
//! client answers every round:
//!
//! * A **corrupt uplink** is a decode failure — or, over TCP, a frame with
//!   a bad CRC-32 or a truncated read — counted as `rejected` and excluded
//!   from the aggregate.
//! * A **dead client** (disconnected downlink channel or socket) is
//!   counted as `dropped` and no longer waited for. Over TCP a client may
//!   later *rejoin*: it reconnects with exponential backoff and is served
//!   again from the next round's broadcast.
//! * A **straggler** that misses the per-round deadline is counted as
//!   `late`; its stale message is discarded when it eventually arrives.
//!
//! Each round aggregates FedAvg over the quorum of valid, on-time updates —
//! *streamed*: every accepted update folds into an exact O(model)
//! accumulator (`StreamingFedAvg`) the moment it settles and is then
//! dropped, so server memory is independent of how many clients answer.
//! With cross-device sampling ([`FlConfig::population`]) each round first
//! draws its cohort and broadcasts to those clients only.
//! If the quorum falls below [`RunSpec::min_quorum`], the round is
//! retried up to [`RunSpec::max_round_retries`] times and the run
//! then aborts with [`FlError::QuorumNotMet`] — a typed error, not a panic.
//! [`FaultPlan`] injects these failures deterministically for tests,
//! including the wire-level kinds (`TruncateFrame`, `FlipBytes`,
//! `Disconnect`) that only a real socket can produce faithfully.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedsz::{CompressedUpdate, FedSzConfig, QuarantineReasons};
use fedsz_dnn::{Dataset, Network};
use fedsz_tensor::{SplitMix64, StateDict, Tensor};

use crate::budget::Ledger;
use crate::error::FlError;
use crate::fault::{poison_update, FaultKind, FaultPlan, FaultStage};
use crate::ingest::{self, IngestPool, Verdict};
use crate::net::NetConfig;
use crate::partition;
use crate::robust::{Aggregation, RobustFold};
use crate::session::{maybe_checkpoint, resume_point, FlConfig, FlRunResult, RoundMetrics};
use crate::sync::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use crate::validate::validate_update;
use crate::wire::{self, Frame, HeaderVerdict};

/// Which way a run's updates travel. All three run `serve` and
/// `Client::turn`, so the same seeds give bit-identical models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Each turn runs on the collector thread; nothing is serialized.
    #[default]
    InProcess,
    /// A thread per client; serialized bytes over bounded channels.
    Channel,
    /// A thread per client; CRC-checked frames over loopback TCP.
    Tcp,
}

impl Transport {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Transport::InProcess => "in-process",
            Transport::Channel => "channel",
            Transport::Tcp => "tcp",
        }
    }
}

/// How [`crate::run_with`] carries out one run of an [`FlConfig`]. The
/// default is the trusting in-process run: no deadline, a quorum of one,
/// no retries, no faults, `cfg.compression` every round.
#[derive(Clone, Default)]
pub struct RunSpec<'a> {
    /// Which way the updates travel.
    pub transport: Transport,
    /// Wall-clock budget per round attempt. `None` waits for every client
    /// that is not already known dead — corrupt updates and disconnected
    /// channels are still tolerated, but a client that hangs without
    /// closing its channel can only be dropped when a deadline is set.
    pub round_deadline: Option<Duration>,
    /// Minimum number of valid updates a round needs before aggregating
    /// (values below 1 are treated as 1).
    pub min_quorum: usize,
    /// How many times a quorum-starved round is re-broadcast before the run
    /// aborts with [`FlError::QuorumNotMet`].
    pub max_round_retries: usize,
    /// Client-side idle timeout: how long a client waits for the next
    /// broadcast before concluding the server is gone and exiting cleanly.
    /// `None` (the default) waits forever, which matches a client whose
    /// server hangs without closing the connection. Mirrored by both the
    /// channel and TCP transports so clients degrade gracefully too.
    pub client_idle_timeout: Option<Duration>,
    /// Deterministic fault injection (tests and chaos experiments).
    pub faults: FaultPlan,
    /// Socket policy; only [`Transport::Tcp`] reads it.
    pub net: NetConfig,
    /// Per-round uplink codec (paper §VIII-B's bound scheduling):
    /// `schedule(round)` replaces `cfg.compression`, and its `None` sends
    /// that round uncompressed.
    pub schedule: Option<&'a (dyn Fn(usize) -> Option<FedSzConfig> + Sync)>,
}

impl RunSpec<'_> {
    /// Effective quorum (at least one update, or FedAvg has nothing to do).
    fn quorum(&self) -> usize {
        self.min_quorum.max(1)
    }
}

/// Uplink message: one client's update for one round attempt.
#[derive(Clone)]
pub(crate) struct ClientMsg {
    pub(crate) client_id: usize,
    pub(crate) round: usize,
    pub(crate) attempt: usize,
    pub(crate) payload: CompressedUpdate,
    pub(crate) samples: usize,
    pub(crate) train_s: f64,
    pub(crate) compress_s: f64,
    pub(crate) raw_bytes: usize,
    /// Bytes this message holds reserved on the ingest
    /// [`Ledger`](crate::budget::Ledger); released exactly once — at
    /// settle, or when the message is discarded as stale or duplicate.
    /// 0 when budgeting is disabled.
    pub(crate) reserved: usize,
}

/// What the server learned from one uplink receive. The channel transport
/// carries these on its shared uplink as they are.
pub(crate) enum Uplink {
    /// A structurally valid message (its payload may still fail to decode).
    Msg(ClientMsg),
    /// The loopback's uncompressed baseline: the trained state dict itself,
    /// never serialized, so the round's wire bytes equal its raw bytes and
    /// nothing is spent compressing. Only the in-process loopback, which
    /// has no bytes to move, produces this.
    Raw {
        /// Client the update came from.
        client_id: usize,
        /// The trained update.
        update: Box<StateDict>,
        /// Sample count the client claims (checked by validation).
        samples: usize,
        /// Local training time.
        train_s: f64,
    },
    /// A frame that failed wire-level validation — bad CRC-32 or a
    /// truncated read — attributed to the connection it arrived on.
    /// Counted as `rejected`, exactly like a payload that fails to decode.
    Garbage {
        /// Client the broken frame came from.
        client_id: usize,
    },
    /// The client's connection closed; it cannot answer this attempt
    /// (it may reconnect and rejoin at a later broadcast).
    Gone {
        /// Client whose connection closed.
        client_id: usize,
    },
    /// Overload protection refused this client's update before its body
    /// was buffered or decoded: the frame could never fit the ingest
    /// budget, or the connection fell below the minimum byte rate.
    /// Counted as `shed` — deterministically, because both triggers are
    /// pure functions of the frame, never of ledger occupancy.
    Shed {
        /// Client whose update was refused.
        client_id: usize,
    },
}

/// Why no uplink message arrived.
pub(crate) enum RecvEnd {
    /// The round deadline passed.
    Timeout,
    /// No client can ever answer again.
    Closed,
}

/// Result of one broadcast: which clients it reached and what it cost.
pub(crate) struct BroadcastOutcome {
    /// Per *registered* client: did the downlink send succeed? Only cohort
    /// members are attempted, so ids outside the round's cohort are always
    /// `false`. Reached clients are expected to answer; cohort members the
    /// broadcast could not reach are `dropped` for this round.
    pub(crate) reached: Vec<bool>,
    /// Bytes put on the wire by this broadcast (0 for unreachable clients).
    pub(crate) bytes_down: usize,
}

impl BroadcastOutcome {
    pub(crate) fn expected(&self) -> usize {
        self.reached.iter().filter(|r| **r).count()
    }
}

/// Server-side endpoint of a transport: broadcast downlink, receive uplink.
///
/// The generic [`serve`] loop owns round/attempt/quorum/deadline policy;
/// implementations own only the mechanics of moving the model and the
/// updates (channels in this module, framed TCP in [`crate::net`], direct
/// hand-over in the [`crate::session`] loopback).
pub(crate) trait ServerTransport {
    /// Broadcast `model` for `(round, attempt)` to every reachable client
    /// in `cohort` (sorted registered-client ids — the round's sample).
    /// Encoding it for the wire, where there is one, is the transport's
    /// business.
    fn broadcast(
        &mut self,
        round: usize,
        attempt: usize,
        cohort: &[usize],
        model: &Arc<StateDict>,
    ) -> BroadcastOutcome;

    /// Receive the next uplink event, waiting until `cutoff`
    /// (`None` = no deadline).
    fn recv(&mut self, cutoff: Option<Instant>) -> Result<Uplink, RecvEnd>;
}

/// Lossless-only variant of `base` (default codecs when `None`): every
/// tensor takes the lossless route, so the payload round-trips bit-exact.
/// Used for the downlink broadcast, for the uplink of an uncompressed run
/// that still has to move bytes, and for semantic poisons that must
/// survive the codec.
pub(crate) fn lossless_config(base: Option<FedSzConfig>) -> FedSzConfig {
    FedSzConfig {
        threshold: usize::MAX,
        ..base.unwrap_or_default()
    }
}

/// Generate the dataset and deterministic per-client shards for `cfg` —
/// one shard per *registered* client, so a sampled cohort trains on the
/// same data whether it runs in-process, over channels, or over TCP.
/// Every process that derives its shard this way — the in-process session,
/// the threaded transport, a remote TCP client — sees identical data.
pub(crate) fn setup_data(cfg: &FlConfig) -> (Dataset, Vec<Dataset>) {
    let registered = cfg.registered();
    let total_train = registered * cfg.samples_per_client;
    let (train, test) = cfg
        .dataset
        .generate(total_train, cfg.test_samples, cfg.seed);
    let mut rng = SplitMix64::new(cfg.seed ^ 0xF17E_57A7);
    (test, partition::iid(&train, registered, &mut rng))
}

/// The one set-up behind every transport: the held-out test set,
/// one shard per registered client (moved into the in-process clients of
/// every transport; only a remote [`crate::net::run_tcp_client`] derives
/// its own), the server's network — built once — and the ingest ledger
/// sized from it.
pub(crate) fn setup_run(cfg: &FlConfig) -> (Dataset, Vec<Dataset>, Network, Arc<Ledger>) {
    let (test, shards) = setup_data(cfg);
    let server = build_net(cfg, cfg.seed);
    let budget = cfg.resolve_ingest_budget(server.state_dict().nbytes());
    (test, shards, server, Arc::new(Ledger::new(budget)))
}

/// One client's whole answer to one broadcast.
pub(crate) enum Answer {
    /// `Crash`, or `Disconnect` without a socket: the client answers
    /// nothing this round. What "gone" means beyond that is the
    /// transport's: a channel or TCP client's thread exits for good, the
    /// loopback's next round simply runs the client again.
    Silent,
    /// `SlowDrip` / `HoldConnection` where there is no byte stream to
    /// trickle: the rate enforcer's verdict is modelled directly (matching
    /// TCP with `min_byte_rate` on) — the update is shed, the client lives
    /// on to the next round.
    Shed,
    /// The client trained; its update is ready to move.
    Update(Reply),
}

/// One client's update and what its transport needs to know to move it.
pub(crate) struct Reply {
    /// The encoded update and its measurements (`raw_bytes`: the honest
    /// update's size, before any poison reshapes it); no reservation yet.
    pub(crate) msg: ClientMsg,
    /// The update itself, in place of a payload: only under
    /// [`Transport::InProcess`], on an uncompressed round.
    pub(crate) raw: Option<Box<StateDict>>,
    /// How many byte-identical copies to send: 1, plus a `Replay` fault's
    /// extras (which first-wins admission discards undecoded).
    pub(crate) copies: usize,
    /// Body length the update's frame announces, or would where nothing is
    /// framed: what header-time admission judges on every transport.
    pub(crate) body_len: usize,
    /// Only under [`Transport::Tcp`]: the fault the caller still has to act
    /// out on this honest update's frame.
    pub(crate) frame_fault: Option<FaultKind>,
}

/// The client half of the round engine: what a client keeps between
/// broadcasts, and the one turn it takes on each.
pub(crate) struct Client<'a> {
    cfg: &'a FlConfig,
    spec: &'a RunSpec<'a>,
    /// Decides how much of a planned fault the turn acts out by itself.
    transport: Transport,
    /// Built on the first turn, not at spawn: with cross-device sampling,
    /// most registered clients sit out most rounds, and a never-sampled
    /// client must not pay for (or hold) a model. The lazy build is
    /// bit-identical to an eager one — every broadcast fully determines
    /// the network (see [`Client::turn`]) — which is also why the loopback
    /// can take every cohort member's turn on one `Client`.
    net: Option<Network>,
}

impl<'a> Client<'a> {
    pub(crate) fn new(cfg: &'a FlConfig, spec: &'a RunSpec<'a>, transport: Transport) -> Self {
        Self {
            cfg,
            spec,
            transport,
            net: None,
        }
    }

    /// Client `id`'s whole answer to the broadcast `global` of
    /// `(round, attempt)`: look the planned fault up (it fires on the first
    /// attempt only, see [`FaultPlan::firing`]), train on `shard`, encode
    /// with the round's codec ([`RunSpec::schedule`], else
    /// `cfg.compression`), size the frame — applying the fault at the
    /// stage it acts on, so the same seeds produce the same update and the
    /// same payload bytes on every path.
    ///
    /// Under [`Transport::InProcess`] no planned delay is slept, and an
    /// uncompressed round's update is handed over as it is.
    pub(crate) fn turn(
        &mut self,
        id: usize,
        shard: &Dataset,
        round: usize,
        attempt: usize,
        global: &StateDict,
    ) -> Answer {
        let in_process = self.transport == Transport::InProcess;
        let planned = self
            .spec
            .faults
            .firing(id, round, attempt)
            .filter(|kind| !(in_process && matches!(kind, FaultKind::Delay(_))));
        let stage = planned.map(|kind| kind.stage(self.transport == Transport::Tcp));
        // A frame fault leaves the update honest and goes back to the
        // caller; every other kind is acted out here, at its stage.
        let (fault, frame_fault) = match stage {
            Some(FaultStage::Frame) => (None, planned),
            _ => (planned, None),
        };

        // Presence.
        match fault {
            Some(FaultKind::Crash | FaultKind::Disconnect) => return Answer::Silent,
            Some(FaultKind::SlowDrip | FaultKind::HoldConnection(_)) => return Answer::Shed,
            _ => {}
        }

        // Train one local epoch (the paper's setting). `load_state_dict`
        // resets optimizer state, so the broadcast fully determines the
        // network whatever it trained on before.
        let cfg = self.cfg;
        let net = self
            .net
            .get_or_insert_with(|| build_net(cfg, cfg.seed ^ (id as u64 + 1)));
        net.load_state_dict(global);
        let mut lrng =
            SplitMix64::new(cfg.seed ^ ((round as u64) << 32) ^ (id as u64).wrapping_mul(0x9E37));
        let t0 = Instant::now();
        net.train_epoch(shard, cfg.batch_size, cfg.lr, cfg.momentum, &mut lrng);
        let train_s = t0.elapsed().as_secs_f64();
        let mut update = net.state_dict();
        // Size of the honest update, measured before any poison reshapes it.
        let raw_bytes = update.nbytes();

        // Values.
        let compression = self.spec.schedule.map_or(cfg.compression, |s| s(round));
        let mut codec = compression;
        match fault {
            // Semantic poison: frames, checksums and decodes cleanly —
            // encoded losslessly, so that it does; only the server's
            // pre-aggregation validation can catch it.
            Some(FaultKind::NonFiniteUpdate) => {
                codec = None;
                if let Some(v) = update
                    .entries_mut()
                    .first_mut()
                    .and_then(|e| e.tensor.data_mut().first_mut())
                {
                    *v = f32::NAN;
                }
            }
            Some(FaultKind::WrongShape) => {
                codec = None;
                if let Some(e) = update.entries_mut().first_mut() {
                    e.tensor = Tensor::from_vec(vec![0.0]);
                }
            }
            // Byzantine poison, applied before compression so the attack
            // rides the same (possibly lossy) codec as an honest update and
            // only a robust aggregation mode can screen it. `global` is the
            // exact broadcast model on every path (the downlink is
            // lossless). A no-op for every other kind.
            Some(kind) => {
                poison_update(&mut update, global, kind);
            }
            None => {}
        }

        // With nothing to move, an uncompressed round hands the state dict
        // over as it is — unless the fault damages payload bytes, which
        // then have to exist.
        let hand_over = in_process && compression.is_none() && stage != Some(FaultStage::Payload);
        let mut msg = ClientMsg {
            client_id: id,
            round,
            attempt,
            payload: CompressedUpdate::from_bytes(Vec::new()),
            samples: shard.n.max(1),
            train_s,
            compress_s: 0.0,
            raw_bytes,
            reserved: 0,
        };
        let mut copies = 1;
        if !hand_over {
            // Encode — losslessly when the round is uncompressed: the bytes
            // still have to exist to be moved, or mangled. Serialization
            // runs (and takes time) even then, so the elapsed time is
            // reported unconditionally — otherwise the uncompressed
            // baseline's timing numbers are silently understated.
            let codec = codec.unwrap_or_else(|| lossless_config(None));
            let t = Instant::now();
            let mut bytes = fedsz::compress(&update, &codec).into_bytes();
            msg.compress_s = t.elapsed().as_secs_f64();

            // Payload — and the two presence kinds that send late or often.
            match fault {
                // Break the magic: a guaranteed decode failure at the server.
                Some(FaultKind::Corrupt) => bytes.iter_mut().take(1).for_each(|b| *b ^= 0xFF),
                // A frame cut mid-stream, where there is no frame: every
                // strict prefix of a FedSZ stream fails to decode. (TCP
                // cuts the real frame instead and never has this kind
                // here.)
                Some(FaultKind::TruncateFrame) => bytes.truncate(bytes.len() / 2),
                // Flipping the leading bytes breaks the FedSZ magic, so the
                // corruption is detected deterministically (TCP flips bytes
                // under the frame CRC instead).
                Some(FaultKind::FlipBytes(n)) => bytes.iter_mut().take(n).for_each(|b| *b ^= 0xA5),
                // A well-formed junk payload of the planned size: it frames
                // cleanly, and either the ingest budget sheds it or the
                // server's decode rejects it.
                Some(FaultKind::FloodOversized(n)) => bytes = vec![0xA5; n],
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                Some(FaultKind::Replay(n)) => copies += n,
                _ => {}
            }
            msg.payload = CompressedUpdate::from_bytes(bytes);
        }
        // What travels is the payload — or, handed over, the update itself.
        let moved = if hand_over {
            raw_bytes
        } else {
            msg.payload.nbytes()
        };
        Answer::Update(Reply {
            body_len: wire::update_body_len(round, attempt, id, msg.samples, raw_bytes, moved),
            msg,
            raw: hand_over.then(|| Box::new(update)),
            copies,
            frame_fault,
        })
    }
}

/// [`crate::run_with`] over [`Transport::Channel`]. Kept only for
/// `benchmark/src/workloads/fl.rs`, its only caller.
pub fn run_threaded_with(cfg: &FlConfig, spec: &RunSpec) -> Result<FlRunResult, FlError> {
    run_channel(cfg, spec)
}

/// [`Transport::Channel`]: the full serialize → channel → deserialize path
/// in both directions. One OS thread per *registered* client; threads
/// outside a round's cohort simply block on their downlink until sampled
/// (and build no network until their first broadcast arrives).
pub(crate) fn run_channel(cfg: &FlConfig, spec: &RunSpec) -> Result<FlRunResult, FlError> {
    let registered = cfg.registered();
    let (test, shards, server, ledger) = setup_run(cfg);

    // Bounded uplink: steady state holds at most one in-flight message per
    // cohort member plus a small slack for replay floods; a hostile sender
    // blocks instead of growing server memory.
    let up_cap = cfg.cohort_size().saturating_mul(2).saturating_add(8);
    let (up_tx, up_rx): (Sender<Uplink>, Receiver<Uplink>) = bounded(up_cap);
    let idle = spec.client_idle_timeout;

    std::thread::scope(|scope| {
        let mut down_txs: Vec<Sender<Frame>> = Vec::with_capacity(registered);
        let mut handles = Vec::with_capacity(registered);
        for (i, shard) in shards.into_iter().enumerate() {
            let (down_tx, down_rx) = bounded::<Frame>(1);
            down_txs.push(down_tx);
            let (up_tx, ledger) = (up_tx.clone(), &*ledger);
            handles.push(scope.spawn(move || {
                let client = Client::new(cfg, spec, Transport::Channel);
                client_loop(i, &shard, client, idle, ledger, &down_rx, &up_tx);
            }));
        }
        drop(up_tx);

        let mut transport = ChannelTransport {
            down_txs: &down_txs,
            up_rx: &up_rx,
            dead: vec![false; registered],
            bcast_cfg: lossless_config(cfg.compression),
        };
        let result = serve(cfg, spec, &test, server, &mut transport, &ledger);

        // Unwedge clients in teardown order: fail blocked reservations, tell
        // everyone to stop, then close the uplink so a sender blocked on the
        // bounded channel fails out instead of deadlocking the joins.
        ledger.close();
        for tx in &down_txs {
            let _ = tx.send(Frame::Stop);
        }
        drop(transport);
        drop(down_txs);
        drop(up_rx);
        for h in handles {
            // A client panic must not take the server down with it; the
            // client was already accounted as late/dropped when it stopped
            // responding.
            let _ = h.join();
        }
        result
    })
}

/// Build the network `cfg` describes, initialized from `seed`.
pub(crate) fn build_net(cfg: &FlConfig, seed: u64) -> Network {
    let (c, h, _, classes) = cfg.dataset.dims();
    cfg.arch.build(c, h, classes, seed)
}

/// Receive from `rx`, waiting until `cutoff` (`None` = no deadline): the
/// uplink wait both threaded transports' servers block in.
pub(crate) fn recv_until<T>(rx: &Receiver<T>, cutoff: Option<Instant>) -> Result<T, RecvEnd> {
    match cutoff {
        Some(end) => {
            if Instant::now() > end {
                return Err(RecvEnd::Timeout); // deadline passed while processing
            }
            rx.recv_deadline(end).map_err(|e| match e {
                RecvTimeoutError::Timeout => RecvEnd::Timeout,
                RecvTimeoutError::Disconnected => RecvEnd::Closed,
            })
        }
        // Fails only once every sender hung up.
        None => rx.recv().map_err(|_| RecvEnd::Closed),
    }
}

/// Channel-backed [`ServerTransport`]: one bounded downlink channel per
/// client (carrying the [`Frame`]s TCP would put on the wire, as they
/// are), one shared *bounded* uplink channel (senders block when the
/// server falls behind — backpressure, not memory growth). A failed
/// downlink send is the only way to observe a dead client, and channels
/// cannot be re-opened, so `dead` is permanent here (unlike TCP, where
/// clients rejoin).
struct ChannelTransport<'a> {
    down_txs: &'a [Sender<Frame>],
    up_rx: &'a Receiver<Uplink>,
    dead: Vec<bool>,
    bcast_cfg: FedSzConfig,
}

impl ServerTransport for ChannelTransport<'_> {
    fn broadcast(
        &mut self,
        round: usize,
        attempt: usize,
        cohort: &[usize],
        model: &Arc<StateDict>,
    ) -> BroadcastOutcome {
        let model = fedsz::compress(model, &self.bcast_cfg);
        let mut reached = vec![false; self.down_txs.len()];
        let mut bytes_down = 0usize;
        for &id in cohort {
            if self.dead[id] {
                continue;
            }
            let msg = Frame::Broadcast {
                round,
                attempt,
                model: model.clone(),
            };
            if self.down_txs[id].send(msg).is_err() {
                self.dead[id] = true;
            } else {
                reached[id] = true;
                bytes_down += model.nbytes();
            }
        }
        BroadcastOutcome {
            reached,
            bytes_down,
        }
    }

    fn recv(&mut self, cutoff: Option<Instant>) -> Result<Uplink, RecvEnd> {
        recv_until(self.up_rx, cutoff)
    }
}

/// One channel client: receive the global model, take the turn, send what
/// it returns under a ledger reservation. Exits (closing its channels) on
/// any transport failure — or once the optional idle timeout expires
/// without a broadcast — instead of panicking; from the server's point of
/// view it simply died.
fn client_loop(
    id: usize,
    shard: &Dataset,
    mut client: Client<'_>,
    idle: Option<Duration>,
    ledger: &Ledger,
    down_rx: &Receiver<Frame>,
    up_tx: &Sender<Uplink>,
) {
    // A server that hangs without closing the channel must not trap the
    // client forever: give up after the idle timeout. A closed channel or a
    // Stop ends the client too.
    while let Ok(Frame::Broadcast {
        round,
        attempt,
        model,
    }) = recv_until(down_rx, idle.map(|t| Instant::now() + t))
    {
        let Ok(sd) = fedsz::decompress(&model) else {
            return; // corrupt broadcast: nothing sane to train on
        };
        let reply = match client.turn(id, shard, round, attempt, &sd) {
            Answer::Update(reply) => reply,
            // Channels cannot be reconnected, so a wire-level disconnect
            // is a crash here; the TCP transport models the
            // rejoin-with-backoff path faithfully.
            Answer::Silent => return,
            Answer::Shed => {
                if up_tx.send(Uplink::Shed { client_id: id }).is_err() {
                    return;
                }
                continue;
            }
        };
        let msg = ClientMsg {
            reserved: reply.body_len,
            ..reply.msg
        };
        // A replay fault sends byte-identical duplicates after the honest
        // copy; the server must accept the first and discard the rest.
        for msg in std::iter::repeat_n(msg, reply.copies) {
            // The same header-time admission TCP applies: the frame's exact
            // encoded body length decides shed-or-reserve, so both
            // transports refuse the same updates. A frame that fits waits
            // for ledger space (backpressure) rather than being refused.
            let uplink = match ledger.admit(reply.body_len) {
                HeaderVerdict::Admit => Uplink::Msg(msg),
                HeaderVerdict::Shed => Uplink::Shed { client_id: id },
                HeaderVerdict::Abort => return, // ledger closed: server shutting down
            };
            if let Err(unsent) = up_tx.send(uplink) {
                if let Uplink::Msg(msg) = unsent.0 {
                    ledger.release(msg.reserved);
                }
                return; // server gone: shut down quietly
            }
        }
    }
}

/// The one round loop: broadcast, collect under the deadline, aggregate
/// over the quorum, retry or abort when the quorum is not met, evaluate,
/// checkpoint. Identical policy for the loopback, channels and TCP.
pub(crate) fn serve<T: ServerTransport>(
    cfg: &FlConfig,
    spec: &RunSpec,
    test: &Dataset,
    mut server: Network,
    transport: &mut T,
    ledger: &Ledger,
) -> Result<FlRunResult, FlError> {
    // Robust modes are validated up front, against the same resolved
    // budget the transports handed their ledger: bad parameters and a
    // budget too small for cohort buffering refuse the run before any
    // client is served.
    cfg.aggregation.validate()?;
    let initial = server.state_dict();
    let model_bytes = initial.nbytes();
    cfg.aggregation.check_ingest_budget(
        cfg.resolve_ingest_budget(model_bytes),
        cfg.cohort_size(),
        model_bytes,
    )?;
    let resume = resume_point(cfg, initial)?;
    // The broadcast model is shared with the ingest workers by `Arc`, so
    // validating N updates concurrently never copies it.
    let mut global = Arc::new(resume.global);
    let mut rounds = resume.rounds;
    rounds.reserve(cfg.rounds.saturating_sub(rounds.len()));
    let mut pool = IngestPool::new(cfg.ingest_workers, cfg.cohort_size());

    for round in resume.start_round..cfg.rounds {
        // The round's sampled cohort: stable across quorum retries (the
        // draw keys on the round index, not the attempt) and identical on
        // every transport and on resume.
        let cohort = cfg.cohort_for_round(round);
        let mut metrics = RoundMetrics {
            round,
            ..Default::default()
        };

        let agg = 'attempts: {
            for attempt in 0..=spec.max_round_retries {
                let outcome = transport.broadcast(round, attempt, &cohort, &global);
                // The server-kill hook fires after the broadcast goes out
                // but before any update is collected — the deterministic
                // double for a SIGKILL mid-round. Rounds before this one
                // are already checkpointed; this one is lost in flight.
                if attempt == 0 && spec.faults.server_kill_round() == Some(round) {
                    return Err(FlError::ServerKilled { round });
                }
                let expected = outcome.expected();
                // Saturating: a transport may report reaching a client the
                // cohort did not name (e.g. a rejoin raced the sample), and
                // an underflow here was once an abort-on-subtract panic.
                metrics.faults.dropped = cohort.len().saturating_sub(expected);
                metrics.bytes_down_wire += outcome.bytes_down;
                if expected == 0 {
                    return Err(FlError::AllClientsDead { round });
                }

                let collected = collect_attempt(
                    round,
                    attempt,
                    &outcome.reached,
                    spec.round_deadline,
                    transport,
                    &global,
                    cfg.aggregation,
                    &mut pool,
                    ledger,
                    &mut metrics,
                )?;
                if collected.delivered >= spec.quorum() {
                    break 'attempts collected.agg;
                }
                if attempt == spec.max_round_retries {
                    // A starved round that shed updates gets its own error
                    // so operators can tell "clients failed" from "the
                    // server turned clients away".
                    return Err(if collected.shed > 0 {
                        FlError::Overloaded {
                            round,
                            shed: collected.shed,
                            delivered: collected.delivered,
                            required: spec.quorum(),
                        }
                    } else {
                        FlError::QuorumNotMet {
                            round,
                            delivered: collected.delivered,
                            required: spec.quorum(),
                        }
                    });
                }
                // Quorum starved: the partial aggregate of this attempt is
                // dropped with `collected`; the retry starts fresh.
            }
            unreachable!("attempt loop either breaks with a quorum or returns an error");
        };

        // Quorum was checked on the pre-screen accepted count; the robust
        // screen decides `suspected` at finish, and delivered is what
        // actually contributed to the aggregate.
        let outcome = agg.finish()?;
        metrics.suspect_reasons = outcome.suspected;
        metrics.faults.suspected = outcome.suspected.total();
        metrics.faults.delivered = metrics
            .faults
            .delivered
            .saturating_sub(outcome.suspected.total());
        global = Arc::new(outcome.model);
        server.load_state_dict(&global);
        metrics.accuracy = server.evaluate(test);
        rounds.push(metrics);
        maybe_checkpoint(cfg, round, &global, &rounds)?;
    }

    Ok(FlRunResult {
        rounds,
        n_clients: cfg.cohort_size(),
        // Every attempt drains its in-flight jobs before returning, so no
        // worker still holds a reference and the unwrap is free; the clone
        // is only a defensive fallback.
        final_model: Arc::try_unwrap(global).unwrap_or_else(|g| (*g).clone()),
        resumed_from_round: resume.resumed_from_round,
    })
}

/// Result of collecting one round attempt.
struct AttemptOutcome {
    /// The running aggregation accumulator with every valid update of
    /// this attempt already folded in — O(model) under the default mean,
    /// O(cohort × model) under the buffering robust modes.
    agg: RobustFold,
    /// Number of valid updates folded.
    delivered: usize,
    /// Updates deterministically turned away by admission control — frames
    /// that could never fit the ingest budget or trickled below the
    /// minimum byte rate.
    shed: usize,
}

/// Settles ingest outcomes in contiguous submission order, folding each
/// accepted update straight into the streaming FedAvg accumulator.
///
/// Parallel workers finish in arbitrary order, but nothing downstream may
/// observe that: the `delivered` count and the `f64` metric sums must
/// behave exactly as the serial collector did, or the same seeds stop
/// producing bit-identical runs (the fold itself is an exact fixed-point
/// sum, indifferent to order). Out-of-order outcomes are buffered and
/// applied only once every earlier submission has settled; since the
/// collector admits at most one submission per client per attempt, the
/// buffer holds at most the in-flight worker window — the server never
/// materializes the cohort's updates.
struct Settle {
    agg: RobustFold,
    delivered: usize,
    rejected: usize,
    quarantined: QuarantineReasons,
    next: u64,
    buffered: BTreeMap<u64, ingest::Outcome>,
}

impl Settle {
    fn new(mode: Aggregation, global: &Arc<StateDict>) -> Self {
        Self {
            agg: RobustFold::new(mode, global),
            delivered: 0,
            rejected: 0,
            quarantined: QuarantineReasons::default(),
            next: 0,
            buffered: BTreeMap::new(),
        }
    }

    fn push(
        &mut self,
        out: ingest::Outcome,
        ledger: &Ledger,
        metrics: &mut RoundMetrics,
    ) -> Result<(), FlError> {
        self.buffered.insert(out.seq, out);
        while let Some(out) = self.buffered.remove(&self.next) {
            self.next += 1;
            self.apply(out, ledger, metrics)?;
        }
        Ok(())
    }

    fn apply(
        &mut self,
        out: ingest::Outcome,
        ledger: &Ledger,
        metrics: &mut RoundMetrics,
    ) -> Result<(), FlError> {
        // The frame's budget reservation is held from admission until its
        // outcome settles; release it before anything else so a fold error
        // cannot leak capacity.
        ledger.release(out.reserved);
        // Decompression is timed for every decode attempt — rejected and
        // quarantined payloads cost the server real wall time too.
        metrics.decompress_s_total += out.decompress_s;
        match out.verdict {
            Verdict::Accept(sd) => {
                metrics.train_s_total += out.train_s;
                metrics.compress_s_total += out.compress_s;
                metrics.bytes_on_wire += out.wire_bytes;
                metrics.bytes_uncompressed += out.raw_bytes;
                // Validation upstream guarantees structure and finiteness,
                // so the only fold failure left is total-weight overflow —
                // a typed error, never a worker panic.
                self.agg.fold(out.client_id, sd, out.samples)?;
                self.delivered += 1;
                // Under the default mean the update's storage dies as soon
                // as it folds; the robust modes buffer it until finish.
            }
            Verdict::Quarantine(reason) => reason.tally(&mut self.quarantined),
            Verdict::Reject(_) => self.rejected += 1,
        }
        Ok(())
    }
}

/// Collect uplink messages for `(round, attempt)` until every expected
/// client has answered (or provably cannot) or the deadline passes.
/// Corrupt payloads and broken wire frames count as rejected; updates that
/// decode cleanly but fail semantic validation against the broadcast
/// `global` count as quarantined; missing clients as late; stale messages
/// from earlier rounds or attempts are discarded (they were already
/// accounted when they ran late).
///
/// Admission is **first-wins**: each reached client gets exactly one
/// submission per attempt, and every later message carrying its id —
/// a replayed frame, a stuck retry loop, a spoofed duplicate — is
/// discarded before it is decoded or buffered. That bounds the ingest
/// pool's queue and the settle buffer by the cohort size no matter how
/// hard a hostile peer floods the uplink, and it makes the fold count
/// (hence the aggregate) independent of duplication.
///
/// Decode + validate runs on the ingest `pool` while this thread keeps
/// draining the transport; every payload received before the cutoff is
/// still decoded (the serial contract — decode work always extended past
/// the deadline), and outcomes settle in submission order, each accepted
/// update folding immediately into the streaming aggregate, so the result
/// is bit-identical for any worker count and the server's update memory
/// stays O(model).
#[allow(clippy::too_many_arguments)]
fn collect_attempt<T: ServerTransport>(
    round: usize,
    attempt: usize,
    reached: &[bool],
    deadline: Option<Duration>,
    transport: &mut T,
    global: &Arc<StateDict>,
    mode: Aggregation,
    pool: &mut IngestPool,
    ledger: &Ledger,
    metrics: &mut RoundMetrics,
) -> Result<AttemptOutcome, FlError> {
    let cutoff = deadline.map(|d| Instant::now() + d);
    let mut settle = Settle::new(mode, global);
    let mut outstanding = reached.to_vec();
    let mut pending = outstanding.iter().filter(|o| **o).count();
    let expected = pending;
    let mut seq = 0u64;
    let mut in_flight = 0usize;
    let mut shed = 0usize;
    // Resolve `id`'s slot; `false` when it was not outstanding — an id
    // outside the broadcast set, or one that already answered this attempt.
    let resolve = |outstanding: &mut [bool], pending: &mut usize, id: usize| {
        let open = outstanding.get_mut(id).is_some_and(std::mem::take);
        *pending -= usize::from(open);
        open
    };

    // How often the collect loop wakes to settle finished decodes while
    // blocked on the transport. Settling is what releases ledger capacity,
    // so waiting on the transport *without* draining would deadlock with
    // every remaining client parked in `Ledger::reserve`: their sends are
    // gated on releases only this loop can perform. The poll changes when
    // outcomes settle, never which updates are admitted, so accounting
    // and the aggregate stay bit-identical.
    const SETTLE_POLL: Duration = Duration::from_millis(5);

    while pending > 0 {
        let wait_until = if in_flight > 0 {
            let poll = Instant::now() + SETTLE_POLL;
            Some(cutoff.map_or(poll, |c| c.min(poll)))
        } else {
            cutoff
        };
        let msg = match transport.recv(wait_until) {
            Ok(m) => m,
            Err(RecvEnd::Timeout) if cutoff.is_none_or(|c| Instant::now() < c) => {
                // The settle poll expired, not the round deadline: fold
                // whatever the pool finished (freeing budget for parked
                // clients) and go back to waiting.
                while let Some(out) = pool.try_recv() {
                    in_flight -= 1;
                    settle.push(out, ledger, metrics)?;
                }
                continue;
            }
            Err(RecvEnd::Timeout) | Err(RecvEnd::Closed) => break,
        };
        match msg {
            Uplink::Msg(msg) => {
                // Stale straggler output (already accounted when it ran
                // late) is discarded. So is — first-wins admission — an id
                // outside the broadcast set (nonsense, out of cohort, or
                // `cfg.n_clients` spoofing) or one that already submitted
                // this attempt: dropped here, undecoded. Either way the
                // budget reservation is handed back, or a duplicate flood
                // would pin the budget forever.
                if msg.round != round
                    || msg.attempt != attempt
                    || !resolve(&mut outstanding, &mut pending, msg.client_id)
                {
                    ledger.release(msg.reserved);
                    continue;
                }
                let wire_bytes = msg.payload.nbytes();
                pool.submit(ingest::Job {
                    seq,
                    client_id: msg.client_id,
                    payload: msg.payload,
                    samples: msg.samples,
                    train_s: msg.train_s,
                    compress_s: msg.compress_s,
                    raw_bytes: msg.raw_bytes,
                    wire_bytes,
                    reserved: msg.reserved,
                    global: Arc::clone(global),
                });
                seq += 1;
                in_flight += 1;
            }
            Uplink::Raw {
                client_id,
                update,
                samples,
                train_s,
            } => {
                if !resolve(&mut outstanding, &mut pending, client_id) {
                    continue;
                }
                // Nothing to decode: validate in line and settle the state
                // dict itself, in sequence with the pool's outcomes. What
                // travelled is the raw update, so wire bytes = raw bytes.
                let raw_bytes = update.nbytes();
                let verdict = match validate_update(&update, global, samples) {
                    Ok(()) => Verdict::Accept(update),
                    Err(reason) => Verdict::Quarantine(reason),
                };
                let out = ingest::Outcome {
                    seq,
                    client_id,
                    samples,
                    train_s,
                    compress_s: 0.0,
                    raw_bytes,
                    wire_bytes: raw_bytes,
                    reserved: 0,
                    verdict,
                    decompress_s: 0.0,
                };
                seq += 1;
                settle.push(out, ledger, metrics)?;
            }
            // Shed and Garbage are verdicts on a cohort slot, counted when
            // they resolve it — first-wins, like a message. A replayed
            // frame that is refused again says nothing new, and counting
            // it made the counters depend on how many copies beat the end
            // of the round: on the transport, and on the scheduler.
            Uplink::Shed { client_id } => {
                // Admission control turned this update away at the frame
                // header — over budget or too slow.
                if resolve(&mut outstanding, &mut pending, client_id) {
                    shed += 1;
                }
            }
            Uplink::Garbage { client_id } => {
                // Wire-level rejection (bad CRC / truncated frame): counted
                // like a corrupt payload, attributed to the connection. It
                // never reaches the pool — there is nothing to decode.
                if resolve(&mut outstanding, &mut pending, client_id) {
                    settle.rejected += 1;
                }
            }
            Uplink::Gone { client_id } => {
                // The connection closed before an answer: this client runs
                // out as late without forcing the server to sit out the
                // whole deadline for it.
                resolve(&mut outstanding, &mut pending, client_id);
            }
        }
        // Drain whatever finished while we were waiting on the transport so
        // the out-of-order buffer stays small.
        while let Some(out) = pool.try_recv() {
            in_flight -= 1;
            settle.push(out, ledger, metrics)?;
        }
    }

    while in_flight > 0 {
        let out = pool.recv();
        in_flight -= 1;
        settle.push(out, ledger, metrics)?;
    }

    metrics.faults.rejected += settle.rejected;
    metrics.faults.quarantined += settle.quarantined.total();
    metrics.quarantine_reasons += settle.quarantined;
    metrics.faults.shed += shed;
    // Every verdict counted above resolved a slot of its own, so together
    // they cannot exceed `expected`; whoever is left never answered.
    let delivered = settle.delivered;
    metrics.faults.late +=
        expected - (delivered + settle.rejected + settle.quarantined.total() + shed);
    metrics.faults.delivered = delivered;
    Ok(AttemptOutcome {
        agg: settle.agg,
        delivered,
        shed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FlConfig {
        FlConfig {
            rounds: 3,
            samples_per_client: 64,
            test_samples: 80,
            ..FlConfig::default()
        }
    }

    #[test]
    fn threaded_run_learns() {
        let result = run_channel(&quick_cfg(), &RunSpec::default()).expect("fl run");
        assert_eq!(result.rounds.len(), 3);
        assert!(result.final_accuracy() > 0.2, "{}", result.final_accuracy());
        for r in &result.rounds {
            assert!(r.faults.is_clean());
            assert_eq!(r.faults.delivered, 4);
        }
    }

    #[test]
    fn threaded_matches_sequential_session_exactly() {
        // Same seeds, same client order at aggregation → identical
        // accuracies, proving the wire round trip is transparent.
        let cfg = quick_cfg();
        let sequential = crate::session::run(&cfg).expect("fl run");
        let threaded = run_channel(&cfg, &RunSpec::default()).expect("fl run");
        let a: Vec<f64> = sequential.rounds.iter().map(|r| r.accuracy).collect();
        let b: Vec<f64> = threaded.rounds.iter().map(|r| r.accuracy).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_with_compression_tracks_bytes() {
        let cfg = FlConfig {
            compression: FlConfig::with_fedsz(1e-2).compression,
            ..quick_cfg()
        };
        let result = run_channel(&cfg, &RunSpec::default()).expect("fl run");
        for r in &result.rounds {
            assert!(r.compression_ratio() > 2.0, "{}", r.compression_ratio());
            assert!(r.decompress_s_total > 0.0);
            // Every round broadcasts the lossless global model to all four
            // clients; the downlink is accounted alongside the uplink.
            assert!(r.bytes_down_wire > r.bytes_on_wire, "{r:?}");
        }
        assert!(
            result.final_accuracy() > 0.15,
            "{}",
            result.final_accuracy()
        );
        assert!(result.total_bytes_down() > result.total_bytes_up());
    }

    #[test]
    fn uncompressed_uplink_still_reports_serialize_time() {
        // cfg.compression = None still serializes losslessly on the wire;
        // the measured time must be reported, not forced to zero.
        let result = run_channel(&quick_cfg(), &RunSpec::default()).expect("fl run");
        let total: f64 = result.rounds.iter().map(|r| r.compress_s_total).sum();
        assert!(total > 0.0, "serialize time unreported: {total}");
    }

    #[test]
    fn default_run_spec_is_trusting() {
        let spec = RunSpec::default();
        assert_eq!(spec.transport, Transport::InProcess);
        assert_eq!(spec.round_deadline, None);
        assert_eq!(spec.quorum(), 1);
        assert_eq!(spec.max_round_retries, 0);
        assert_eq!(spec.client_idle_timeout, None);
        assert_eq!(spec.faults.firing(0, 0, 0), None);
        assert_eq!(spec.faults.server_kill_round(), None);
        assert!(spec.schedule.is_none());
    }

    /// Every [`FaultKind`], one of each. The match below is exhaustive and
    /// has no wildcard, so a kind added to the enum fails to compile here
    /// (as it does in [`FaultKind::stage`]) until it is listed.
    fn every_kind() -> Vec<FaultKind> {
        let kinds = vec![
            FaultKind::Corrupt,
            FaultKind::Crash,
            FaultKind::Delay(Duration::from_millis(1)),
            FaultKind::TruncateFrame,
            FaultKind::FlipBytes(16),
            FaultKind::Disconnect,
            FaultKind::NonFiniteUpdate,
            FaultKind::WrongShape,
            FaultKind::Replay(2),
            FaultKind::SlowDrip,
            FaultKind::FloodOversized(4096),
            FaultKind::HoldConnection(Duration::from_millis(1)),
            FaultKind::SignFlip,
            FaultKind::ScaleUpdate(10.0),
            FaultKind::DriftToward,
        ];
        for kind in &kinds {
            match kind {
                FaultKind::Corrupt
                | FaultKind::Crash
                | FaultKind::Delay(_)
                | FaultKind::TruncateFrame
                | FaultKind::FlipBytes(_)
                | FaultKind::Disconnect
                | FaultKind::NonFiniteUpdate
                | FaultKind::WrongShape
                | FaultKind::Replay(_)
                | FaultKind::SlowDrip
                | FaultKind::FloodOversized(_)
                | FaultKind::HoldConnection(_)
                | FaultKind::SignFlip
                | FaultKind::ScaleUpdate(_)
                | FaultKind::DriftToward => {}
            }
        }
        kinds
    }

    #[test]
    fn every_fault_kind_has_a_stage_and_only_frame_kinds_need_a_socket() {
        let frame_kinds = every_kind()
            .into_iter()
            .filter(|k| k.stage(true) == FaultStage::Frame)
            .count();
        assert_eq!(frame_kinds, 5, "cut, flipped, dripped, held, dropped");
        for kind in every_kind() {
            let (framed, unframed) = (kind.stage(true), kind.stage(false));
            // Without a socket nothing acts on a frame, and a kind that
            // never needed one acts where it always does.
            assert_ne!(unframed, FaultStage::Frame, "{kind:?}");
            if framed != FaultStage::Frame {
                assert_eq!(framed, unframed, "{kind:?}");
            }
        }
    }

    #[test]
    fn the_turn_is_the_same_whether_or_not_its_caller_moves_frames() {
        // What "the same seeds produce the same payload bytes whichever way
        // they travel" rests on: for every kind that does not need a
        // socket, the one turn gives a frame-moving caller (TCP), a
        // payload-moving one (channels) and — on a compressed round — the
        // loopback the same bytes, measurements, copy count and announced
        // frame length.
        let cfg = FlConfig {
            dataset: fedsz_dnn::DatasetKind::FashionMnistLike,
            n_clients: 2,
            samples_per_client: 8,
            test_samples: 8,
            batch_size: 4,
            compression: FlConfig::with_fedsz(1e-2).compression,
            ..FlConfig::default()
        };
        let (_, shards) = setup_data(&cfg);
        let global = build_net(&cfg, cfg.seed).state_dict();
        let faults = every_kind().into_iter().map(Some).chain([None]);
        for fault in faults.filter(|f| f.is_none_or(|k| k.stage(true) != FaultStage::Frame)) {
            let spec = RunSpec {
                faults: fault.map_or_else(FaultPlan::new, |kind| FaultPlan::new().with(1, 3, kind)),
                ..RunSpec::default()
            };
            let answer = |t| Client::new(&cfg, &spec, t).turn(1, &shards[1], 3, 0, &global);
            let framed = answer(Transport::Tcp);
            for transport in [Transport::Channel, Transport::InProcess] {
                match (&framed, answer(transport)) {
                    (Answer::Silent, Answer::Silent) | (Answer::Shed, Answer::Shed) => {}
                    (Answer::Update(a), Answer::Update(b)) => {
                        assert_eq!(a.msg.payload, b.msg.payload, "{fault:?} {transport:?}");
                        assert_eq!(a.msg.samples, b.msg.samples, "{fault:?} {transport:?}");
                        assert_eq!(a.msg.raw_bytes, b.msg.raw_bytes, "{fault:?} {transport:?}");
                        assert_eq!(a.copies, b.copies, "{fault:?} {transport:?}");
                        assert_eq!(a.body_len, b.body_len, "{fault:?} {transport:?}");
                        assert!(b.raw.is_none() && b.frame_fault.is_none());
                        // The announced length is the real frame's.
                        let frame = wire::encode(&Frame::Update {
                            round: 3,
                            attempt: 0,
                            client_id: 1,
                            samples: b.msg.samples,
                            train_s: b.msg.train_s,
                            compress_s: b.msg.compress_s,
                            raw_bytes: b.msg.raw_bytes,
                            payload: b.msg.payload,
                        });
                        assert_eq!(
                            frame.len() - wire::HEADER_LEN - wire::TRAILER_LEN,
                            b.body_len,
                            "{fault:?} {transport:?}"
                        );
                    }
                    _ => panic!("{fault:?}: {transport:?} answered differently from Tcp"),
                }
            }
        }
    }

    #[test]
    fn idle_client_gives_up_when_the_server_hangs() {
        // A client whose server never broadcasts (and never closes the
        // channel) exits on its own once the idle timeout expires.
        let (_down_tx, down_rx) = bounded::<Frame>(1);
        let (up_tx, _up_rx) = bounded::<Uplink>(8);
        let cfg = FlConfig {
            samples_per_client: 8,
            test_samples: 8,
            ..FlConfig::default()
        };
        let (_, mut shards) = setup_data(&cfg);
        let shard = shards.remove(0);
        let spec = RunSpec::default();
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            client_loop(
                0,
                &shard,
                Client::new(&cfg, &spec, Transport::Channel),
                Some(Duration::from_millis(100)),
                &Ledger::new(None),
                &down_rx,
                &up_tx,
            );
        });
        handle.join().expect("client thread exits cleanly");
        assert!(started.elapsed() >= Duration::from_millis(100));
        // _down_tx still open: the exit came from the idle timeout, not a
        // disconnected channel.
    }
}
