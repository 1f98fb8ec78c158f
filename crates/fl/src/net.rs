//! Socket-backed FL transport: the framed, CRC-checked wire protocol of
//! [`crate::wire`] over real TCP, with client reconnect and backoff.
//!
//! The server side implements `ServerTransport`, so the round loop —
//! broadcast → collect under a deadline → quorum/retry → FedAvg — is the
//! *same code* (`crate::transport::serve`) that drives the channel
//! transport and the in-process loopback; only the byte-moving differs.
//! The client side takes the shared client turn (`Client::turn`) and
//! keeps to itself only the socket — connect, reconnect, backoff — and the
//! faults that damage a *frame*, which takes one. The pieces:
//!
//! * An **acceptor thread** owns the listener. Each accepted connection is
//!   handshaken (the client's first frame must be a [`Frame::Hello`] naming
//!   its slot) on a short-lived thread and then handed to the server as a
//!   `Joined` event.
//! * A **reader thread per connection** decodes uplink frames into the
//!   `Uplink` the collector sees. Frames with a bad CRC or body stay on
//!   the connection (the length prefix keeps the stream framed) and surface
//!   as `Garbage` — counted `rejected`, exactly like a payload that fails
//!   to decode. A mid-frame EOF or stall is `Garbage` + `Gone`; a clean
//!   close is just `Gone`.
//! * **Generation counters** per slot make reconnects race-free: reports
//!   (`Garbage`/`Shed`/`Gone`) from a replaced connection are discarded,
//!   while genuine `Msg` updates are never filtered by generation — the
//!   round/attempt check in the attempt core already handles staleness.
//! * Clients **reconnect with exponential backoff** (deterministic jitter)
//!   whenever the socket dies, and a rejoining client is served again from
//!   the next broadcast. The server grants each lost slot one bounded
//!   **rejoin grace** before a broadcast, so a quick reconnect does not
//!   cost a round — and a permanently dead client stalls at most one
//!   broadcast, not every one.
//!
//! [`crate::run_with`] over [`Transport::Tcp`] runs server and clients in
//! one process over loopback and is bit-identical (same seeds) to the
//! other transports; [`serve_tcp`] / [`run_tcp_client`] are the split
//! server/client entry points the CLI exposes for genuinely distributed
//! runs.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedsz_tensor::SplitMix64;

use crate::budget::Ledger;
use crate::error::FlError;
use crate::fault::FaultKind;
use crate::session::{FlConfig, FlRunResult};
use crate::sync::channel::{bounded, Receiver, SendError, Sender};
use crate::transport::{
    lossless_config, recv_until, serve, setup_data, setup_run, Answer, BroadcastOutcome, Client,
    ClientMsg, RecvEnd, RunSpec, ServerTransport, Transport, Uplink,
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

/// Budget for a fresh connection to complete its Hello handshake. A
/// connection that has not named its slot within this window is rejected,
/// so a dialer that connects and goes silent cannot pin handshake threads
/// forever.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Handshakes in flight per client slot: a client's reconnect may overlap
/// the handshake of its own dying connection. Connections past
/// [`handshake_cap`] are closed as they are accepted, so a connect flood
/// costs no thread beyond the cap.
const HANDSHAKES_PER_SLOT: usize = 2;

/// Handshakes a server with `n_clients` slots runs at once.
fn handshake_cap(n_clients: usize) -> usize {
    n_clients
        .saturating_mul(HANDSHAKES_PER_SLOT)
        .max(HANDSHAKES_PER_SLOT)
}

/// First reconnect delay; doubles per failed attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Ceiling on the exponential reconnect delay.
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Socket-level policy for the TCP transport, carried in [`RunSpec::net`].
/// Round semantics (deadline, quorum, retries, faults) are the rest of the
/// [`RunSpec`]; this covers only what a real network adds: joining,
/// reconnecting, and stalling.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How long a broadcast waits for a disconnected client to rejoin.
    /// Granted at most once per disconnection, so a permanently dead
    /// client delays one broadcast, not every one.
    pub rejoin_grace: Duration,
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
            min_byte_rate: 0,
        }
    }
}

/// Exponential backoff with deterministic jitter: `BACKOFF_BASE * 2^attempt`
/// capped at `BACKOFF_MAX`, plus up to 25% jitter drawn from a seeded PRNG
/// (so two clients hammered off the same server do not reconnect in
/// lockstep, yet tests replay identically).
struct Backoff {
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    fn new(seed: u64) -> Self {
        Self {
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Delay before the next reconnect attempt.
    fn next_delay(&mut self) -> Duration {
        let doubling = 1u32.checked_shl(self.attempt).unwrap_or(u32::MAX);
        let raw = BACKOFF_BASE.saturating_mul(doubling).min(BACKOFF_MAX);
        self.attempt = self.attempt.saturating_add(1);
        let jitter = (self.rng.next_u64() % 1024) as f64 / 1024.0;
        raw + raw.mul_f64(0.25 * jitter)
    }

    /// Back to the base delay (call after a successful connection).
    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// What the acceptor and the reader threads tell the server.
enum Inbound {
    /// A connection completed its Hello handshake for this slot.
    Joined { client_id: usize, stream: TcpStream },
    /// What one reader made of its connection, tagged with the connection's
    /// generation.
    Uplink { gen: u64, uplink: Uplink },
}

/// One client slot: the live connection (if any), a generation counter
/// that invalidates reports from replaced connections, and whether the slot
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
    events_rx: Receiver<Inbound>,
    events_tx: Sender<Inbound>,
    /// Stops the acceptor and the handshake threads, which poll sockets no
    /// slot owns.
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    ncfg: NetConfig,
    /// Lossless codec the broadcast model is encoded with.
    bcast_cfg: fedsz::FedSzConfig,
    ledger: Arc<Ledger>,
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
        // Bounded event queue: readers that outrun the collector block in
        // `send` (backpressure) instead of growing server memory. Two slots
        // per registered client cover an update plus a report each, with
        // slack for handshake bursts.
        let (events_tx, events_rx) = bounded(n_clients.saturating_mul(2).saturating_add(16));
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let tx = events_tx.clone();
            let stop = Arc::clone(&shutdown);
            let cap = handshake_cap(n_clients);
            std::thread::spawn(move || acceptor_loop(listener, tx, stop, cap))
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
        let gen = slot.gen;
        let min_rate = self.ncfg.min_byte_rate;
        let ledger = Arc::clone(&self.ledger);
        self.readers.push(std::thread::spawn(move || {
            reader_loop(reader, client_id, gen, min_rate, ledger, tx)
        }));
    }

    fn uninstall(&mut self, client_id: usize) {
        if let Some(slot) = self.slots.get_mut(client_id) {
            if let Some(stream) = slot.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            slot.grace_owed = true;
        }
    }

    /// Apply one inbound event to the slots and pass on what the collector
    /// should see of it. A join is installed and passes nothing on. A report
    /// from a replaced connection is dropped, and `Gone` from the current
    /// one uninstalls it. Updates are never filtered by generation: a valid
    /// update is a valid update, and the attempt core's round/attempt check
    /// already discards stale ones.
    fn apply(&mut self, inbound: Inbound) -> Option<Uplink> {
        let (gen, uplink) = match inbound {
            Inbound::Joined { client_id, stream } => {
                self.install(client_id, stream);
                return None;
            }
            Inbound::Uplink { gen, uplink } => (gen, uplink),
        };
        let client_id = match &uplink {
            Uplink::Msg(_) | Uplink::Raw { .. } => return Some(uplink),
            Uplink::Garbage { client_id }
            | Uplink::Shed { client_id }
            | Uplink::Gone { client_id } => *client_id,
        };
        let current = self
            .slots
            .get(client_id)
            .is_some_and(|s| s.stream.is_some() && s.gen == gen);
        if !current {
            return None;
        }
        if matches!(uplink, Uplink::Gone { .. }) {
            self.uninstall(client_id);
        }
        Some(uplink)
    }

    /// [`apply`](Self::apply) outside an attempt (joining, leaving).
    /// Between rounds every update is stale, but it still holds a budget
    /// reservation that must be handed back; every other report was
    /// already accounted when it ran late.
    fn absorb(&mut self, inbound: Inbound) {
        if let Some(Uplink::Msg(msg)) = self.apply(inbound) {
            self.ledger.release(msg.reserved);
        }
    }

    /// Wait until `want` clients are connected or the timeout passes.
    fn await_joins(&mut self, want: usize) -> usize {
        let deadline = Instant::now() + JOIN_TIMEOUT;
        while self.installed() < want {
            let Ok(inbound) = self.events_rx.recv_deadline(deadline) else {
                break;
            };
            self.absorb(inbound);
        }
        self.installed()
    }

    /// Tear down in an order no thread can wedge: close the ledger (a
    /// reader waiting to reserve fails), drop the event receiver (a sender
    /// parked on the full queue gets its event back), stop the acceptor,
    /// send Stop to every live client and shut every socket down (a reader
    /// blocked in a read sees the close), then join.
    fn stop(&mut self) {
        self.ledger.close();
        // Replacing the receiver drops ours; the stand-in's channel has no
        // sender, so the second call from `Drop` is harmless.
        drop(std::mem::replace(&mut self.events_rx, bounded(1).1));
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
        while let Ok(inbound) = self.events_rx.try_recv() {
            self.absorb(inbound);
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
                let Ok(inbound) = self.events_rx.recv_deadline(deadline) else {
                    break;
                };
                self.absorb(inbound);
            }
            for &id in cohort {
                if let Some(slot) = self.slots.get_mut(id) {
                    if slot.stream.is_none() {
                        slot.grace_owed = false; // grace spent
                    }
                }
            }
        }

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
            if let Some(uplink) = self.apply(recv_until(&self.events_rx, cutoff)?) {
                return Ok(uplink);
            }
        }
    }
}

/// Accept connections and hand each to a short-lived handshake thread
/// (so one stalling client cannot block later joiners), at most `cap` of
/// them at once: a connection accepted while `cap` handshakes run is
/// closed at once, and its client reconnects as after any refusal.
/// Handshakes are not joined at shutdown: one inside a frame may wait out
/// its budget, and they watch `stop` themselves.
fn acceptor_loop(listener: TcpListener, tx: Sender<Inbound>, stop: Arc<AtomicBool>, cap: usize) {
    let mut handshakes: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                handshakes.retain(|h| !h.is_finished());
                if handshakes.len() < cap {
                    let tx = tx.clone();
                    let stop = Arc::clone(&stop);
                    handshakes.push(std::thread::spawn(move || handshake(stream, tx, stop)));
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Read the Hello frame off a fresh connection; anything else (or a stall
/// past [`HANDSHAKE_TIMEOUT`]) rejects the connection.
fn handshake(mut stream: TcpStream, tx: Sender<Inbound>, stop: Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    loop {
        if stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
            return;
        }
        match read_hello(&mut stream) {
            Ok(Frame::Hello { client_id }) => {
                // Refused only at shutdown; the stream closes as it drops.
                let _ = tx.send(Inbound::Joined { client_id, stream });
                return;
            }
            Ok(_) => return,           // protocol violation: reject
            Err(WireError::Idle) => {} // nothing yet; poll again
            Err(_) => return,
        }
    }
}

/// Read one frame from a connection that has not named its slot yet.
/// A header announcing a body longer than any Hello's is refused there,
/// before a body byte is buffered: an unknown dialer gets no more memory
/// than a Hello takes.
fn read_hello<R: std::io::Read>(r: &mut R) -> Result<Frame, WireError> {
    let hello = wire::encode(&Frame::Hello {
        client_id: usize::MAX,
    });
    let longest = hello.len() - wire::HEADER_LEN - wire::TRAILER_LEN;
    wire::read_frame_gated(r, HANDSHAKE_TIMEOUT, 0, &mut Vec::new(), |len| {
        if len <= longest {
            HeaderVerdict::Admit
        } else {
            HeaderVerdict::Abort
        }
    })
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
///
/// Each of the loop's waits ends at shutdown without a flag: the server
/// shuts the socket down (a read returns), closes the ledger (a
/// reservation fails), and drops the event receiver (a send fails).
fn reader_loop(
    mut stream: TcpStream,
    client_id: usize,
    gen: u64,
    min_rate: u64,
    ledger: Arc<Ledger>,
    tx: Sender<Inbound>,
) {
    // One body buffer for the connection's lifetime: it grows to the
    // largest frame seen and is reused, so steady-state uplink traffic
    // performs zero per-frame body allocations.
    let mut scratch = Vec::new();
    let garbage = || Uplink::Garbage { client_id };
    let shed = || Uplink::Shed { client_id };
    loop {
        // Bytes this iteration holds in the ledger; nonzero from the
        // moment the ledger admits until the frame is handed on or dropped.
        let mut reserved = 0usize;
        let res =
            wire::read_frame_gated(&mut stream, FRAME_BUDGET, min_rate, &mut scratch, |len| {
                let verdict = ledger.admit(len);
                if verdict == HeaderVerdict::Admit {
                    reserved = len;
                }
                verdict
            });
        // What the frame comes to: at most one uplink for the collector,
        // and whether the connection is gone after it.
        let (uplink, gone) = match res {
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
                // not a message — the handshake owns the slot binding. A
                // replay, a stray or a straggler is still a message: the
                // attempt core discards it and hands its reservation back.
                let uplink = if echoed != client_id {
                    garbage()
                } else {
                    Uplink::Msg(ClientMsg {
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
                    })
                };
                (Some(uplink), false)
            }
            // A well-formed frame of the wrong kind: protocol violation,
            // but the stream is still framed — reject and keep reading.
            Ok(_) => (Some(garbage()), false),
            Err(WireError::Idle) => (None, false), // no frame yet; wait on
            // The ledger shed this frame at its header: the body was
            // drained, the stream stays framed, the connection lives.
            Err(WireError::OverBudget(_)) => (Some(shed()), false),
            // Dripping below the minimum byte rate: shed the frame and
            // kill the connection — a trickler does not get to hold a
            // reader (or a reservation) for the whole frame budget.
            Err(WireError::TooSlow) => (Some(shed()), true),
            // Detected corruption with framing intact: reject the frame,
            // keep the connection.
            Err(WireError::BadCrc { .. }) | Err(WireError::BadBody(_)) => (Some(garbage()), false),
            // Clean close between frames — the client left, the server
            // shut the socket, or the ledger closed under a reservation —
            // or a socket error.
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
        let gone_report = gone.then_some(Uplink::Gone { client_id });
        for uplink in uplink.into_iter().chain(gone_report) {
            if let Err(SendError(unsent)) = tx.send(Inbound::Uplink { gen, uplink }) {
                // Shutting down: a message that never reached the collector
                // still holds its reservation.
                if let Inbound::Uplink {
                    uplink: Uplink::Msg(msg),
                    ..
                } = unsent
                {
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
/// the server. `shard` is this client's own: moved in by
/// [`run_loopback_tcp`], derived by a remote [`run_tcp_client`].
fn tcp_client_loop(
    addr: SocketAddr,
    id: usize,
    cfg: &FlConfig,
    shard: &fedsz_dnn::Dataset,
    spec: &RunSpec,
) {
    let idle = spec.client_idle_timeout;
    let mut client = Client::new(cfg, spec, Transport::Tcp);
    let mut backoff = Backoff::new(cfg.seed ^ 0xBAC0_0FF5 ^ (id as u64));
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
            let read = wire::read_frame_gated(&mut stream, FRAME_BUDGET, 0, &mut scratch, |_| {
                HeaderVerdict::Admit
            });
            let frame = match read {
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
            let Answer::Update(reply) = client.turn(id, shard, round, attempt, &sd) else {
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
    spec: &RunSpec,
    test: &fedsz_dnn::Dataset,
    net: fedsz_dnn::Network,
    ledger: Arc<Ledger>,
) -> Result<FlRunResult, FlError> {
    let registered = cfg.registered();
    let mut server = TcpServer::start(
        listener,
        registered,
        spec.net.clone(),
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
    let result = serve(cfg, spec, test, net, &mut server, &ledger);
    server.stop();
    result
}

/// [`crate::run_with`] over [`Transport::Tcp`] with socket policy `net`.
/// Kept only for `benchmark/src/workloads/fl.rs`, its only caller.
pub fn run_tcp_with(
    cfg: &FlConfig,
    spec: &RunSpec,
    net: &NetConfig,
) -> Result<FlRunResult, FlError> {
    run_loopback_tcp(
        cfg,
        &RunSpec {
            net: net.clone(),
            ..spec.clone()
        },
    )
}

/// [`Transport::Tcp`]: the server and one OS thread per client, all in
/// this process, talking through the framed wire protocol over loopback.
pub(crate) fn run_loopback_tcp(cfg: &FlConfig, spec: &RunSpec) -> Result<FlRunResult, FlError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| FlError::Transport(format!("bind 127.0.0.1:0: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| FlError::Transport(format!("local addr: {e}")))?;
    let (test, shards, server, ledger) = setup_run(cfg);
    // Each client thread owns its shard, as over channels: the data is
    // generated once per run, not once per client.
    std::thread::scope(|scope| {
        let clients: Vec<_> = (shards.into_iter().enumerate())
            .map(|(id, shard)| {
                scope.spawn(move || {
                    tcp_client_loop(addr, id, cfg, &shard, spec);
                })
            })
            .collect();
        let result = serve_on(listener, cfg, spec, &test, server, ledger);
        for client in clients {
            let _ = client.join(); // a client's panic is not the server's
        }
        result
    })
}

/// Bind `addr` and serve one FL run to remote TCP clients (the CLI's
/// `--transport tcp --listen` role). Returns once the run completes, after
/// telling every connected client to stop.
pub fn serve_tcp(addr: &str, cfg: &FlConfig, spec: &RunSpec) -> Result<FlRunResult, FlError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| FlError::Transport(format!("bind {addr}: {e}")))?;
    // The clients are elsewhere and derive their own shards.
    let (test, _, server, ledger) = setup_run(cfg);
    serve_on(listener, cfg, spec, &test, server, ledger)
}

/// Join a remote FL server as one client (the CLI's `--transport tcp
/// --connect` role) and participate until the server stops the run, the
/// connection is lost beyond the reconnect budget, or the idle timeout
/// expires.
pub fn run_tcp_client(
    addr: &str,
    client_id: usize,
    cfg: &FlConfig,
    spec: &RunSpec,
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
    tcp_client_loop(addr, client_id, cfg, &shard, spec);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_resets() {
        let mut b = Backoff::new(7);
        let mut prev = Duration::ZERO;
        for i in 0..8 {
            let d = b.next_delay();
            // Within [undelayed, +25% jitter] of the capped exponential.
            let raw = BACKOFF_BASE.saturating_mul(1 << i).min(BACKOFF_MAX);
            assert!(d >= raw, "attempt {i}: {d:?} < {raw:?}");
            assert!(d <= raw.mul_f64(1.25), "attempt {i}: {d:?}");
            assert!(d >= prev.mul_f64(0.5), "attempt {i} went backwards");
            prev = d;
        }
        assert!(prev >= BACKOFF_MAX, "eight attempts reach the cap");
        b.reset();
        assert!(b.next_delay() <= BACKOFF_BASE.mul_f64(1.25));
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        let mk = || Backoff::new(42);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..6 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn net_config_defaults_are_sane() {
        let n = NetConfig::default();
        assert!(n.rejoin_grace > Duration::ZERO);
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
        let result = run_loopback_tcp(&cfg, &RunSpec::default()).expect("tcp run");
        assert_eq!(result.rounds.len(), 1);
        let r = &result.rounds[0];
        assert!(r.faults.is_clean(), "{:?}", r.faults);
        assert_eq!(r.faults.delivered, 2);
        assert!(r.bytes_down_wire > 0);
        assert!(r.bytes_on_wire > 0);
    }

    #[test]
    fn handshake_refuses_an_oversized_hello_at_the_header() {
        // A 9-byte header announcing a body longer than any Hello's, then
        // some of that body: refused where it stands, nothing buffered.
        let hello = wire::encode(&Frame::Hello {
            client_id: usize::MAX,
        });
        let longest = hello.len() - wire::HEADER_LEN - wire::TRAILER_LEN;
        for announced in [longest + 1, wire::MAX_BODY] {
            let mut bytes = hello[..5].to_vec();
            bytes.extend_from_slice(&(announced as u32).to_le_bytes());
            bytes.extend_from_slice(&[0; 64]);
            let mut stream = std::io::Cursor::new(bytes);
            assert_eq!(
                read_hello(&mut stream),
                Err(WireError::Closed),
                "{announced}"
            );
            assert_eq!(stream.position(), wire::HEADER_LEN as u64, "{announced}");
        }
        // The longest real Hello still reads.
        let mut stream = std::io::Cursor::new(hello.clone());
        assert_eq!(
            read_hello(&mut stream),
            Ok(Frame::Hello {
                client_id: usize::MAX
            })
        );

        // Over a socket: the bomb's connection is dropped at once, with no
        // join, and a real Hello still handshakes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut bomb = hello[..5].to_vec();
        bomb.extend_from_slice(&(wire::MAX_BODY as u32).to_le_bytes());
        for (bytes, joins) in [
            (bomb, false),
            (wire::encode(&Frame::Hello { client_id: 3 }), true),
        ] {
            let mut dialer = TcpStream::connect(addr).expect("connect");
            wire::write_frame_bytes(&mut dialer, &bytes).expect("write");
            let (conn, _) = listener.accept().expect("accept");
            let (tx, rx) = bounded(1);
            let t0 = Instant::now();
            handshake(conn, tx, Arc::new(AtomicBool::new(false)));
            assert!(t0.elapsed() < HANDSHAKE_TIMEOUT, "{:?}", t0.elapsed());
            let joined = matches!(rx.try_recv(), Ok(Inbound::Joined { client_id: 3, .. }));
            assert_eq!(joined, joins);
        }
    }

    #[test]
    fn handshakes_past_the_cap_are_closed_at_once() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let cap = handshake_cap(1);
        let (tx, rx) = bounded(4);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || acceptor_loop(listener, tx, stop, cap))
        };
        // Silent dialers fill the cap; the acceptor takes connections in
        // order, so the two after them find it full.
        let silent: Vec<TcpStream> = (0..cap)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        for _ in 0..2 {
            let mut extra = TcpStream::connect(addr).expect("connect");
            extra
                .set_read_timeout(Some(Duration::from_secs(1)))
                .expect("timeout");
            let t0 = Instant::now();
            let read = extra.read(&mut [0u8; 1]);
            assert!(matches!(read, Ok(0)), "{read:?} after {:?}", t0.elapsed());
            assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        }
        // Once the silent ones hang up, their handshakes end and a real
        // Hello joins, redialled as a client does after a refusal.
        drop(silent);
        let hello = wire::encode(&Frame::Hello { client_id: 0 });
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let joined = loop {
            let mut dialer = TcpStream::connect(addr).expect("connect");
            // A refused dial may fail its write; the join decides.
            let _ = wire::write_frame_bytes(&mut dialer, &hello);
            let wait = Instant::now() + Duration::from_millis(200);
            if let Ok(Inbound::Joined { client_id, .. }) = rx.recv_deadline(wait) {
                break Some(client_id);
            }
            if Instant::now() >= deadline {
                break None;
            }
        };
        stop.store(true, Ordering::SeqCst);
        acceptor.join().expect("acceptor");
        assert_eq!(joined, Some(0), "a real Hello must join once the cap frees");
    }

    #[test]
    fn tcp_client_with_bad_id_is_rejected_up_front() {
        let cfg = FlConfig::default();
        let err = run_tcp_client("127.0.0.1:1", 99, &cfg, &RunSpec::default())
            .expect_err("id out of range");
        assert!(matches!(err, FlError::Transport(_)), "{err:?}");
    }
}
