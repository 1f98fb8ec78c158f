//! Socket-backed FL transport: the framed, CRC-checked wire protocol of
//! [`crate::wire`] over real TCP, with client reconnect and backoff.
//!
//! The server side implements [`ServerTransport`], so the round loop —
//! broadcast → collect under a deadline → quorum/retry → FedAvg — is the
//! *same code* ([`crate::transport::serve`]) that drives the channel
//! transport and the in-process loopback; only the byte-moving differs.
//! The client side takes the shared client turn ([`Client::turn`]) and
//! keeps to itself only the socket — connect, reconnect, backoff — and the
//! faults that damage a *frame*, which takes one. The pieces:
//!
//! * An **acceptor thread** owns the listener. Each accepted connection is
//!   handshaken (the client's first frame must be a [`Frame::Hello`] naming
//!   its slot) on a short-lived thread and then handed to the server as a
//!   `Joined` event.
//! * A **reader thread per connection** decodes uplink frames. Frames with
//!   a bad CRC or body stay on the connection (the length prefix keeps the
//!   stream framed) and surface as `Garbage` — counted `rejected`, exactly
//!   like a payload that fails to decode. A mid-frame EOF or stall is
//!   `Garbage` + `Gone`; a clean close is just `Gone`.
//! * **Generation counters** per slot make reconnects race-free: control
//!   events (`Garbage`/`Gone`) from a replaced connection are discarded,
//!   while genuine `Update` messages are never filtered by generation —
//!   the round/attempt check in the collect loop already handles
//!   staleness.
//! * Clients **reconnect with exponential backoff** (deterministic jitter)
//!   whenever the socket dies, and a rejoining client is served again from
//!   the next broadcast. The server grants each lost slot one bounded
//!   **rejoin grace** before a broadcast, so a quick reconnect does not
//!   cost a round — and a permanently dead client stalls at most one
//!   broadcast, not every one.
//!
//! [`run_tcp`] runs server and clients in one process over loopback and is
//! bit-identical (same seeds) to [`run_threaded`](crate::run_threaded) and
//! [`session::run`](crate::session::run); [`serve_tcp`] / [`run_tcp_client`]
//! are the split server/client entry points the CLI exposes for genuinely
//! distributed runs.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedsz_tensor::SplitMix64;

use crate::budget::{Ledger, RoundGate};
use crate::error::FlError;
use crate::fault::{FaultKind, FaultPlan};
use crate::session::{FlConfig, FlRunResult};
use crate::sync::channel::{bounded, Receiver, Sender, TrySendError};
use crate::transport::{
    lossless_config, recv_until, serve, setup_data, setup_run, Answer, BroadcastOutcome, Client,
    ClientMsg, Moves, RecvEnd, ServerTransport, TransportConfig, Uplink,
};
use crate::wire::{self, Frame, HeaderVerdict, WireError};

/// How often a blocked socket read wakes up to check deadlines and the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// How long the server waits for clients to join before round 0. The run
/// starts as soon as all `n_clients` slots are filled; clients still missing
/// when the timeout expires are treated as dropped.
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Reconnect attempts per disconnection before the client gives up.
const MAX_RECONNECTS: usize = 5;

/// Budget for finishing a frame once its first byte arrived; a peer that
/// stalls longer mid-frame is treated as corrupt + gone.
const FRAME_BUDGET: Duration = Duration::from_secs(10);

/// Socket-level policy for the TCP transport. Round semantics (deadline,
/// quorum, retries, faults) stay in [`TransportConfig`]; this covers only
/// what a real network adds: joining, reconnecting, and stalling.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How long a broadcast waits for a disconnected client to rejoin.
    /// Granted at most once per disconnection, so a permanently dead
    /// client delays one broadcast, not every one.
    pub rejoin_grace: Duration,
    /// First reconnect delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff delay.
    pub backoff_max: Duration,
    /// Budget for a fresh connection to complete its Hello handshake. A
    /// connection that has not named its slot within this window is
    /// rejected, so a dialer that connects and goes silent cannot pin
    /// handshake threads forever.
    pub handshake_timeout: Duration,
    /// Minimum sustained uplink byte rate (bytes/second) a connection must
    /// hold once a frame is in flight, enforced after a short grace
    /// ([`wire::RATE_GRACE`]). A slow-dripping peer is **shed** — counted
    /// in [`fedsz::FaultCounters::shed`] — and its connection killed,
    /// instead of holding a reader (and its budget reservation) hostage
    /// for the whole frame budget. `0` disables enforcement.
    pub min_byte_rate: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            rejoin_grace: Duration::from_secs(2),
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            handshake_timeout: Duration::from_secs(5),
            min_byte_rate: 0,
        }
    }
}

/// Exponential backoff with deterministic jitter: `base * 2^attempt`
/// capped at `max`, plus up to 25% jitter drawn from a seeded PRNG (so two
/// clients hammered off the same server do not reconnect in lockstep, yet
/// tests replay identically).
pub(crate) struct Backoff {
    base: Duration,
    max: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    pub(crate) fn new(base: Duration, max: Duration, seed: u64) -> Self {
        Self {
            base,
            max,
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Delay before the next reconnect attempt.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let doubling = 1u32.checked_shl(self.attempt).unwrap_or(u32::MAX);
        let raw = self.base.saturating_mul(doubling).min(self.max);
        self.attempt = self.attempt.saturating_add(1);
        let jitter = (self.rng.next_u64() % 1024) as f64 / 1024.0;
        raw + raw.mul_f64(0.25 * jitter)
    }

    /// Back to the base delay (call after a successful connection).
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Uplink-side events merged from the acceptor and all reader threads.
enum Event {
    /// A connection completed its Hello handshake for this slot.
    Joined { client_id: usize, stream: TcpStream },
    /// A structurally valid update frame.
    Update(ClientMsg),
    /// A frame this connection sent failed wire-level validation.
    Garbage { client_id: usize, gen: u64 },
    /// Admission control turned this connection's update away at the
    /// frame header — it could never fit the ingest budget, or the
    /// connection fell below the minimum byte rate.
    Shed { client_id: usize, gen: u64 },
    /// This connection is no longer readable.
    Gone { client_id: usize, gen: u64 },
}

/// One client slot: the live connection (if any), a generation counter
/// that invalidates events from replaced connections, and whether the slot
/// is still owed its one rejoin grace.
struct Slot {
    stream: Option<TcpStream>,
    gen: u64,
    grace_owed: bool,
}

/// Server half of the TCP transport. Implements [`ServerTransport`] so
/// [`serve`] can drive it exactly like the channel transport.
struct TcpServer {
    slots: Vec<Slot>,
    events_rx: Receiver<Event>,
    events_tx: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    ncfg: NetConfig,
    /// Lossless codec the broadcast model is encoded with.
    bcast_cfg: fedsz::FedSzConfig,
    ledger: Arc<Ledger>,
    gate: Arc<RoundGate>,
    stopped: bool,
}

impl TcpServer {
    fn start(
        listener: TcpListener,
        n_clients: usize,
        ncfg: NetConfig,
        bcast_cfg: fedsz::FedSzConfig,
        ledger: Arc<Ledger>,
    ) -> Result<Self, FlError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| FlError::Transport(format!("listener nonblocking: {e}")))?;
        // Bounded event queue: readers that outrun the collector block on
        // `send_event` (backpressure) instead of growing server memory. Two
        // slots per registered client cover an update plus a control event
        // each, with slack for handshake bursts.
        let (events_tx, events_rx) = bounded(n_clients.saturating_mul(2).saturating_add(16));
        let shutdown = Arc::new(AtomicBool::new(false));
        let handshake_timeout = ncfg.handshake_timeout;
        let acceptor = {
            let tx = events_tx.clone();
            let stop = Arc::clone(&shutdown);
            std::thread::spawn(move || acceptor_loop(listener, handshake_timeout, tx, stop))
        };
        Ok(Self {
            slots: (0..n_clients)
                .map(|_| Slot {
                    stream: None,
                    gen: 0,
                    grace_owed: false,
                })
                .collect(),
            events_rx,
            events_tx,
            shutdown,
            acceptor: Some(acceptor),
            readers: Vec::new(),
            ncfg,
            bcast_cfg,
            ledger,
            gate: Arc::new(RoundGate::new(n_clients)),
            stopped: false,
        })
    }

    fn installed(&self) -> usize {
        self.slots.iter().filter(|s| s.stream.is_some()).count()
    }

    /// Adopt a handshaken connection into its slot, replacing (and
    /// shutting down) any previous connection there.
    fn install(&mut self, client_id: usize, stream: TcpStream) {
        let Some(slot) = self.slots.get_mut(client_id) else {
            let _ = stream.shutdown(Shutdown::Both); // unknown slot: reject
            return;
        };
        if let Some(old) = slot.stream.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(POLL)).is_err() {
            return; // unusable socket; the client will retry
        }
        let Ok(reader) = stream.try_clone() else {
            return;
        };
        slot.gen += 1;
        slot.grace_owed = false;
        slot.stream = Some(stream);
        let tx = self.events_tx.clone();
        let stop = Arc::clone(&self.shutdown);
        let gen = slot.gen;
        let min_rate = self.ncfg.min_byte_rate;
        let ledger = Arc::clone(&self.ledger);
        let gate = Arc::clone(&self.gate);
        self.readers.push(std::thread::spawn(move || {
            reader_loop(reader, client_id, gen, min_rate, ledger, gate, tx, stop)
        }));
    }

    /// Is this `(client_id, gen)` the currently installed connection?
    fn current(&self, client_id: usize, gen: u64) -> bool {
        self.slots
            .get(client_id)
            .is_some_and(|s| s.stream.is_some() && s.gen == gen)
    }

    fn uninstall(&mut self, client_id: usize) {
        if let Some(slot) = self.slots.get_mut(client_id) {
            if let Some(stream) = slot.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            slot.grace_owed = true;
        }
    }

    /// Handle an event outside the collect loop (joining, leaving). Data
    /// events are dropped here: between rounds every update or broken
    /// frame is stale and was already accounted when it ran late.
    fn process_control(&mut self, ev: Event) {
        match ev {
            Event::Joined { client_id, stream } => self.install(client_id, stream),
            Event::Gone { client_id, gen } => {
                if self.current(client_id, gen) {
                    self.uninstall(client_id);
                }
            }
            // Between rounds every data event is stale; a stale update
            // still holds a budget reservation that must be handed back.
            Event::Update(msg) => self.ledger.release(msg.reserved),
            Event::Garbage { .. } | Event::Shed { .. } => {}
        }
    }

    /// Wait until `want` clients are connected or the timeout passes.
    fn await_joins(&mut self, want: usize) -> usize {
        let deadline = Instant::now() + JOIN_TIMEOUT;
        while self.installed() < want {
            let Ok(ev) = self.events_rx.recv_deadline(deadline) else {
                break;
            };
            self.process_control(ev);
        }
        self.installed()
    }

    /// Send Stop to every live client, close everything, join the threads.
    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        // Fail any reader blocked in `Ledger::reserve` first, then raise
        // the flag: a reader blocked in `send_event` re-checks it within
        // one poll interval, so the joins below cannot deadlock on a full
        // event queue.
        self.ledger.close();
        self.shutdown.store(true, Ordering::SeqCst);
        let stop_bytes = wire::encode(&Frame::Stop);
        for slot in &mut self.slots {
            if let Some(mut stream) = slot.stream.take() {
                let _ = wire::write_frame_bytes(&mut stream, &stop_bytes);
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl ServerTransport for TcpServer {
    fn broadcast(
        &mut self,
        round: usize,
        attempt: usize,
        cohort: &[usize],
        model: &Arc<fedsz_tensor::StateDict>,
    ) -> BroadcastOutcome {
        // Adopt rejoins and disconnects that happened between rounds.
        while let Ok(ev) = self.events_rx.try_recv() {
            self.process_control(ev);
        }
        // Each freshly lost *cohort* slot gets one bounded chance to rejoin
        // before it misses a broadcast. Disconnected clients outside the
        // cohort neither delay this round nor spend their grace — they are
        // not being waited for.
        let grace_pending = |slots: &[Slot]| {
            cohort
                .iter()
                .filter_map(|&id| slots.get(id))
                .any(|s| s.stream.is_none() && s.grace_owed)
        };
        if grace_pending(&self.slots) {
            let deadline = Instant::now() + self.ncfg.rejoin_grace;
            while grace_pending(&self.slots) {
                let Ok(ev) = self.events_rx.recv_deadline(deadline) else {
                    break;
                };
                self.process_control(ev);
            }
            for &id in cohort {
                if let Some(slot) = self.slots.get_mut(id) {
                    if slot.stream.is_none() {
                        slot.grace_owed = false; // grace spent
                    }
                }
            }
        }

        // Arm per-round admission before any client can answer: each
        // cohort slot gets exactly one update frame past the readers for
        // this `(round, attempt)`; replays and strays are dropped at the
        // socket, undecoded.
        self.gate.open(round, attempt, cohort);

        let bytes = wire::encode(&Frame::Broadcast {
            round,
            attempt,
            model: fedsz::compress(model, &self.bcast_cfg),
        });
        let mut reached = vec![false; self.slots.len()];
        let mut bytes_down = 0usize;
        let mut dead = Vec::new();
        for &id in cohort {
            let Some(stream) = self.slots.get_mut(id).and_then(|s| s.stream.as_mut()) else {
                continue;
            };
            match wire::write_frame_bytes(stream, &bytes) {
                Ok(n) => {
                    reached[id] = true;
                    bytes_down += n;
                }
                Err(_) => dead.push(id),
            }
        }
        for id in dead {
            self.uninstall(id);
        }
        BroadcastOutcome {
            reached,
            bytes_down,
        }
    }

    fn recv(&mut self, cutoff: Option<Instant>) -> Result<Uplink, RecvEnd> {
        loop {
            match recv_until(&self.events_rx, cutoff)? {
                // Updates are never filtered by generation: a valid update
                // is a valid update, and the collect loop's round/attempt
                // check already discards stale ones.
                Event::Update(msg) => return Ok(Uplink::Msg(msg)),
                Event::Garbage { client_id, gen } => {
                    if self.current(client_id, gen) {
                        return Ok(Uplink::Garbage { client_id });
                    }
                }
                Event::Shed { client_id, gen } => {
                    if self.current(client_id, gen) {
                        return Ok(Uplink::Shed { client_id });
                    }
                }
                Event::Gone { client_id, gen } => {
                    if self.current(client_id, gen) {
                        self.uninstall(client_id);
                        return Ok(Uplink::Gone { client_id });
                    }
                }
                Event::Joined { client_id, stream } => self.install(client_id, stream),
            }
        }
    }
}

/// Accept connections and hand each to a short-lived handshake thread
/// (so one stalling client cannot block later joiners).
fn acceptor_loop(
    listener: TcpListener,
    handshake_timeout: Duration,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let tx = tx.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || handshake(stream, handshake_timeout, tx, stop));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Read the Hello frame off a fresh connection; anything else (or a stall
/// past the handshake budget) rejects the connection.
fn handshake(mut stream: TcpStream, timeout: Duration, tx: Sender<Event>, stop: Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let deadline = Instant::now() + timeout;
    loop {
        if stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
            return;
        }
        match wire::read_frame(&mut stream, timeout) {
            Ok(Frame::Hello { client_id }) => {
                let _ = send_event(&tx, &stop, Event::Joined { client_id, stream });
                return;
            }
            Ok(_) => return,           // protocol violation: reject
            Err(WireError::Idle) => {} // nothing yet; poll again
            Err(_) => return,
        }
    }
}

/// Deliver `ev` to the bounded event queue, blocking (in poll steps) while
/// it is full. This is the server's backpressure point: a reader that
/// outruns the collector parks here holding exactly one decoded frame.
/// Returns the event back when the server is shutting down or the queue is
/// gone, so the caller can unwind anything the event carried (a budget
/// reservation, an owned stream).
fn send_event(tx: &Sender<Event>, stop: &AtomicBool, mut ev: Event) -> Result<(), Event> {
    loop {
        match tx.try_send(ev) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(back)) => {
                if stop.load(Ordering::SeqCst) {
                    return Err(back);
                }
                ev = back;
                std::thread::sleep(POLL);
            }
            Err(TrySendError::Disconnected(back)) => return Err(back),
        }
    }
}

/// Decode uplink frames from one connection until it dies.
///
/// Admission control runs *at the frame header*, before the body is read:
/// a body that could never fit the ingest budget is shed (drained and
/// discarded, the connection stays framed), and an admissible body first
/// reserves its bytes in the `ledger` — blocking, which is the
/// backpressure that caps this connection at one in-flight frame. The
/// reservation rides inside the resulting [`ClientMsg`] and is released by
/// whoever discards or settles it; every early exit below must hand it
/// back itself. With [`NetConfig::min_byte_rate`] set, a frame dripping in
/// below that rate is shed too ([`WireError::TooSlow`]) and the connection
/// killed. Both shed triggers are pure functions of the frame — its
/// announced size, its byte rate — never of ledger occupancy, so shedding
/// is deterministic across runs and transports.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    mut stream: TcpStream,
    client_id: usize,
    gen: u64,
    min_rate: u64,
    ledger: Arc<Ledger>,
    gate: Arc<RoundGate>,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
) {
    // One body buffer for the connection's lifetime: it grows to the
    // largest frame seen and is reused, so steady-state uplink traffic
    // performs zero per-frame body allocations.
    let mut scratch = Vec::new();
    let garbage = || Event::Garbage { client_id, gen };
    let shed = || Event::Shed { client_id, gen };
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Bytes this iteration holds in the ledger; nonzero from the
        // moment the gate admits until the frame's fate is known.
        let mut reserved = 0usize;
        let res =
            wire::read_frame_gated(&mut stream, FRAME_BUDGET, min_rate, &mut scratch, |len| {
                let verdict = ledger.admit(len);
                if verdict == HeaderVerdict::Admit {
                    reserved = len;
                }
                verdict
            });
        // What the frame comes to: at most one event for the collector,
        // and whether the connection is gone after it.
        let (event, gone) = match res {
            Ok(Frame::Update {
                round,
                attempt,
                client_id: echoed,
                samples,
                train_s,
                compress_s,
                raw_bytes,
                payload,
            }) => {
                // A frame claiming another client's identity is garbage,
                // not a message — the handshake owns the slot binding.
                // A frame for a closed `(round, attempt)` — a replayed
                // duplicate, a stray for an unsampled slot, a straggler
                // from a finished attempt — is dropped right here,
                // already accounted (late) where it mattered.
                let event = if echoed != client_id {
                    Some(garbage())
                } else if gate.admit(client_id, round, attempt) {
                    Some(Event::Update(ClientMsg {
                        client_id,
                        round,
                        attempt,
                        payload,
                        samples,
                        train_s,
                        compress_s,
                        raw_bytes,
                        // Handed on: the reservation now rides in the message.
                        reserved: std::mem::take(&mut reserved),
                    }))
                } else {
                    None
                };
                (event, false)
            }
            // A well-formed frame of the wrong kind: protocol violation,
            // but the stream is still framed — reject and keep reading.
            Ok(_) => (Some(garbage()), false),
            Err(WireError::Idle) => (None, false), // no frame yet; check stop and wait on
            // The gate shed this frame at its header: the body was
            // drained, the stream stays framed, the connection lives.
            Err(WireError::OverBudget(_)) => (Some(shed()), false),
            // Dripping below the minimum byte rate: shed the frame and
            // kill the connection — a trickler does not get to hold a
            // reader (or a reservation) for the whole frame budget.
            Err(WireError::TooSlow) => (Some(shed()), true),
            // Detected corruption with framing intact: reject the frame,
            // keep the connection.
            Err(WireError::BadCrc { .. }) | Err(WireError::BadBody(_)) => (Some(garbage()), false),
            // Clean close between frames — the client left — or a socket
            // error.
            Err(WireError::Closed) | Err(WireError::Io(_)) => (None, true),
            // Died or stalled mid-frame, or desynchronised beyond repair:
            // the half-frame is rejected and the connection is gone.
            Err(WireError::UnexpectedEof)
            | Err(WireError::Stalled)
            | Err(WireError::BadMagic)
            | Err(WireError::TooLarge(_)) => (Some(garbage()), true),
        };
        // The one release: whatever was reserved and not handed on above.
        ledger.release(reserved);
        let gone_event = gone.then_some(Event::Gone { client_id, gen });
        for ev in event.into_iter().chain(gone_event) {
            if let Err(unsent) = send_event(&tx, &stop, ev) {
                // Shutting down: a message that never reached the collector
                // still holds its reservation.
                if let Event::Update(msg) = unsent {
                    ledger.release(msg.reserved);
                }
                return;
            }
        }
        if gone {
            return;
        }
    }
}

/// Connect (or reconnect) to the server and complete the Hello handshake,
/// backing off exponentially between attempts.
fn connect_with_backoff(
    addr: SocketAddr,
    client_id: usize,
    backoff: &mut Backoff,
) -> Option<TcpStream> {
    for attempt in 0..=MAX_RECONNECTS {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        let Ok(mut stream) = TcpStream::connect(addr) else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(POLL)).is_err() {
            continue;
        }
        if wire::write_frame(&mut stream, &Frame::Hello { client_id }).is_ok() {
            backoff.reset();
            return Some(stream);
        }
    }
    None
}

/// One TCP client: connect, handshake, then take the shared turn on every
/// broadcast and send the update back — reconnecting with backoff when the
/// socket dies, and exiting cleanly on Stop, on an exhausted reconnect
/// budget, or once the optional idle timeout expires without a frame from
/// the server. `shard` is this client's own: moved in by [`run_tcp_with`],
/// derived by a remote [`run_tcp_client`].
fn tcp_client_loop(
    addr: SocketAddr,
    id: usize,
    cfg: &FlConfig,
    shard: &fedsz_dnn::Dataset,
    plan: &FaultPlan,
    idle: Option<Duration>,
    ncfg: &NetConfig,
) {
    let mut client = Client::new(cfg, plan, Moves::Frames);
    let mut backoff = Backoff::new(
        ncfg.backoff_base,
        ncfg.backoff_max,
        cfg.seed ^ 0xBAC0_0FF5 ^ (id as u64),
    );
    // Reused body buffer: the downlink is dominated by same-sized broadcast
    // frames, so after the first one this loop stops allocating per frame.
    let mut scratch = Vec::new();
    // One pass per connection: serve it until it dies (`break`, then
    // reconnect) or the run is over for this client (`return`).
    loop {
        let Some(mut stream) = connect_with_backoff(addr, id, &mut backoff) else {
            return;
        };
        let mut last_frame = Instant::now();
        loop {
            let frame = match wire::read_frame_reusing(&mut stream, FRAME_BUDGET, &mut scratch) {
                Ok(f) => {
                    last_frame = Instant::now();
                    f
                }
                Err(WireError::Idle) => {
                    // The server is silent but the socket is up; give up only
                    // once the idle timeout (if any) has fully elapsed.
                    if idle.is_some_and(|t| last_frame.elapsed() >= t) {
                        return;
                    }
                    continue;
                }
                // Corrupt downlink frame with framing intact: skip it.
                Err(WireError::BadCrc { .. }) | Err(WireError::BadBody(_)) => continue,
                // Anything else means this connection is unusable.
                Err(_) => break,
            };
            let (round, attempt, model) = match frame {
                Frame::Broadcast {
                    round,
                    attempt,
                    model,
                } => (round, attempt, model),
                Frame::Stop => return,
                _ => continue, // server never sends Hello/Update; ignore
            };
            let Ok(sd) = fedsz::decompress(&model) else {
                continue; // corrupt model: wait for the next broadcast
            };
            // A fault that damages the *frame* comes back in the reply, on an
            // honestly built update, to be acted out on the real bytes below;
            // so over a socket the only answer that is not an update is a
            // crash.
            let Answer::Update(reply) =
                client.turn(id, shard, round, attempt, &sd, cfg.compression)
            else {
                return;
            };
            let mut bytes = wire::encode(&Frame::Update {
                round,
                attempt,
                client_id: id,
                samples: reply.msg.samples,
                train_s: reply.msg.train_s,
                compress_s: reply.msg.compress_s,
                raw_bytes: reply.msg.raw_bytes,
                payload: reply.msg.payload,
            });
            // `false` once the connection is gone: dropped on purpose by the
            // fault, or dead under a write.
            let alive = match reply.frame_fault {
                // A `Replay` fault's copies are byte-identical frames: each
                // passes its CRC and would decode, but the server's
                // first-wins admission discards all but the first unread.
                None => {
                    (0..reply.copies).all(|_| wire::write_frame_bytes(&mut stream, &bytes).is_ok())
                }
                Some(FaultKind::FlipBytes(n)) => {
                    // Corrupt the body *after* the CRC was computed, leaving
                    // the header intact: the frame arrives whole, fails its
                    // checksum, and is rejected without costing the
                    // connection.
                    let body = wire::HEADER_LEN..bytes.len().saturating_sub(wire::TRAILER_LEN);
                    let upto = body.start + n.min(body.len());
                    for b in &mut bytes[body.start..upto] {
                        *b ^= 0xA5;
                    }
                    wire::write_frame_bytes(&mut stream, &bytes).is_ok()
                }
                // The other four send some prefix of the frame, may sit on
                // the connection, then drop it and rejoin via backoff.
                Some(kind) => {
                    let (sent, hold) = match kind {
                        // Half a frame, then die mid-stream: the server sees
                        // an unexpected EOF (rejected) on this connection.
                        FaultKind::TruncateFrame => (bytes.len() / 2, Duration::ZERO),
                        // A single byte, then a stall well past the rate
                        // grace: a rate-enforcing server sheds the update and
                        // kills the connection (TooSlow); without enforcement
                        // the stall runs into the frame budget and is
                        // rejected.
                        FaultKind::SlowDrip => (1, wire::RATE_GRACE.saturating_mul(4)),
                        // A full frame announced (header plus a sliver of
                        // body), then the connection held wedged for `d`:
                        // rate enforcement sheds it; otherwise the frame
                        // budget expires and the half-frame is rejected.
                        FaultKind::HoldConnection(d) => {
                            ((wire::HEADER_LEN + 8).min(bytes.len()), d)
                        }
                        // `Disconnect`: nothing at all. The server counts
                        // this round late and serves the new connection from
                        // the next broadcast.
                        _ => (0, Duration::ZERO),
                    };
                    let _ = wire::write_frame_bytes(&mut stream, &bytes[..sent]);
                    std::thread::sleep(hold);
                    let _ = stream.shutdown(Shutdown::Both);
                    false
                }
            };
            if !alive {
                break;
            }
        }
        // Back off before the first reconnect attempt too: it spaces a
        // deliberate disconnect from the rejoin, so the server has drained
        // the dead connection's events before the new Hello arrives and the
        // fault accounting stays deterministic.
        std::thread::sleep(backoff.next_delay());
    }
}

/// Serve one full FL run over an already-bound listener.
fn serve_on(
    listener: TcpListener,
    cfg: &FlConfig,
    tcfg: &TransportConfig,
    ncfg: &NetConfig,
    test: &fedsz_dnn::Dataset,
    net: fedsz_dnn::Network,
    ledger: Arc<Ledger>,
) -> Result<FlRunResult, FlError> {
    let registered = cfg.registered();
    let mut server = TcpServer::start(
        listener,
        registered,
        ncfg.clone(),
        lossless_config(cfg.compression),
        Arc::clone(&ledger),
    )?;
    let joined = server.await_joins(registered);
    if joined == 0 {
        server.stop();
        return Err(FlError::Transport(
            "no client joined within the join timeout".into(),
        ));
    }
    let result = serve(cfg, tcfg, test, net, &mut server, &ledger);
    server.stop();
    result
}

/// Run the federated session over real TCP on loopback: the server and one
/// OS thread per client, all in this process, talking through the framed
/// wire protocol. Bit-identical (same seeds) to
/// [`run_threaded`](crate::run_threaded) and
/// [`session::run`](crate::session::run).
pub fn run_tcp(cfg: &FlConfig) -> Result<FlRunResult, FlError> {
    run_tcp_with(cfg, &TransportConfig::default(), &NetConfig::default())
}

/// [`run_tcp`] under explicit transport and socket policies.
pub fn run_tcp_with(
    cfg: &FlConfig,
    tcfg: &TransportConfig,
    ncfg: &NetConfig,
) -> Result<FlRunResult, FlError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| FlError::Transport(format!("bind 127.0.0.1:0: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| FlError::Transport(format!("local addr: {e}")))?;
    let idle = tcfg.client_idle_timeout;
    let (test, shards, server, ledger) = setup_run(cfg);
    // Each client thread owns its shard, as over channels: the data is
    // generated once per run, not once per client.
    std::thread::scope(|scope| {
        let clients: Vec<_> = (shards.into_iter().enumerate())
            .map(|(id, shard)| {
                scope.spawn(move || {
                    tcp_client_loop(addr, id, cfg, &shard, &tcfg.faults, idle, ncfg);
                })
            })
            .collect();
        let result = serve_on(listener, cfg, tcfg, ncfg, &test, server, ledger);
        for client in clients {
            let _ = client.join(); // a client's panic is not the server's
        }
        result
    })
}

/// Bind `addr` and serve one FL run to remote TCP clients (the CLI's
/// `--transport tcp --listen` role). Returns once the run completes, after
/// telling every connected client to stop.
pub fn serve_tcp(
    addr: &str,
    cfg: &FlConfig,
    tcfg: &TransportConfig,
    ncfg: &NetConfig,
) -> Result<FlRunResult, FlError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| FlError::Transport(format!("bind {addr}: {e}")))?;
    // The clients are elsewhere and derive their own shards.
    let (test, _, server, ledger) = setup_run(cfg);
    serve_on(listener, cfg, tcfg, ncfg, &test, server, ledger)
}

/// Join a remote FL server as one client (the CLI's `--transport tcp
/// --connect` role) and participate until the server stops the run, the
/// connection is lost beyond the reconnect budget, or the idle timeout
/// expires.
pub fn run_tcp_client(
    addr: &str,
    client_id: usize,
    cfg: &FlConfig,
    idle: Option<Duration>,
    ncfg: &NetConfig,
) -> Result<(), FlError> {
    if client_id >= cfg.registered() {
        return Err(FlError::Transport(format!(
            "client id {client_id} out of range for {} registered clients",
            cfg.registered()
        )));
    }
    use std::net::ToSocketAddrs;
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| FlError::Transport(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| FlError::Transport(format!("{addr} resolved to no address")))?;
    // A remote client derives the same deterministic shards from the shared
    // seed and keeps its own — data never crosses the wire.
    let (_, mut shards) = setup_data(cfg);
    let shard = shards.swap_remove(client_id);
    tcp_client_loop(addr, client_id, cfg, &shard, &FaultPlan::new(), idle, ncfg);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_resets() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(80);
        let mut b = Backoff::new(base, max, 7);
        let mut prev = Duration::ZERO;
        for i in 0..8 {
            let d = b.next_delay();
            // Within [undelayed, +25% jitter] of the capped exponential.
            let raw = base.saturating_mul(1 << i.min(3)).min(max);
            assert!(d >= raw, "attempt {i}: {d:?} < {raw:?}");
            assert!(d <= raw.mul_f64(1.25), "attempt {i}: {d:?}");
            assert!(d >= prev.mul_f64(0.5), "attempt {i} went backwards");
            prev = d;
        }
        b.reset();
        assert!(b.next_delay() <= base.mul_f64(1.25));
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        let mk = || Backoff::new(Duration::from_millis(5), Duration::from_millis(100), 42);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..6 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn net_config_defaults_are_sane() {
        let n = NetConfig::default();
        assert!(n.backoff_base < n.backoff_max);
        assert!(n.rejoin_grace > Duration::ZERO);
        assert!(n.handshake_timeout > Duration::ZERO);
        assert_eq!(n.min_byte_rate, 0, "rate enforcement must be opt-in");
    }

    #[test]
    fn tcp_loopback_smoke() {
        // Full integration runs live in tests/tcp_transport.rs; this is a
        // minimal end-to-end sanity check for the in-crate test suite.
        let cfg = FlConfig {
            n_clients: 2,
            rounds: 1,
            samples_per_client: 16,
            test_samples: 16,
            ..FlConfig::default()
        };
        let result = run_tcp(&cfg).expect("tcp run");
        assert_eq!(result.rounds.len(), 1);
        let r = &result.rounds[0];
        assert!(r.faults.is_clean(), "{:?}", r.faults);
        assert_eq!(r.faults.delivered, 2);
        assert!(r.bytes_down_wire > 0);
        assert!(r.bytes_on_wire > 0);
    }

    #[test]
    fn tcp_client_with_bad_id_is_rejected_up_front() {
        let cfg = FlConfig::default();
        let err = run_tcp_client("127.0.0.1:1", 99, &cfg, None, &NetConfig::default())
            .expect_err("id out of range");
        assert!(matches!(err, FlError::Transport(_)), "{err:?}");
    }
}
