//! Length-prefixed, CRC-checked frames for the TCP transport.
//!
//! Every message between a FedSZ client and server travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FWR1"
//! 4       1     frame kind (1 = Hello, 2 = Broadcast, 3 = Update, 4 = Stop)
//! 5       4     body length, u32 little-endian (<= MAX_BODY)
//! 9       n     body (kind-specific, varint-encoded integers)
//! 9+n     4     CRC-32 (IEEE, `fedsz_entropy::crc32`) over kind + length + body
//! ```
//!
//! The CRC covers everything after the magic, so a flipped bit anywhere in
//! the header fields or the body is detected before the body is decoded —
//! the transport counts such frames as `rejected`, exactly like a corrupt
//! in-process payload. The length prefix keeps the stream self-framing: a
//! frame whose CRC fails can be skipped without losing synchronisation, so
//! one corrupt update does not force a reconnect.
//!
//! [`read_frame`] distinguishes the failure modes a real socket produces:
//! a clean close between frames ([`WireError::Closed`]), a connection that
//! dies mid-frame ([`WireError::UnexpectedEof`]), a peer that goes silent
//! before a frame starts ([`WireError::Idle`], driving the optional client
//! idle timeout) and one that stalls after a frame started
//! ([`WireError::Stalled`], bounded by the per-frame budget).
//!
//! [`read_frame_gated`] adds the server's overload defenses on top: a
//! minimum byte-rate enforcer that kills slow-dripping peers with
//! [`WireError::TooSlow`] once a frame has been in flight longer than a
//! grace period, and a header-time admission callback that can refuse a
//! frame by its announced length *before* its body is buffered — the
//! refused body is drained through a small stack buffer to keep the
//! stream framed, and the caller sees [`WireError::OverBudget`].

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use fedsz::CompressedUpdate;
use fedsz_entropy::crc32::Crc32;
use fedsz_entropy::{reader, varint};

/// Frame magic: "FedSZ WiRe" + format version 1.
pub(crate) const MAGIC: [u8; 4] = *b"FWR1";
/// Bytes before the body: magic + kind + length.
pub(crate) const HEADER_LEN: usize = 9;
/// Bytes after the body: the CRC-32.
pub(crate) const TRAILER_LEN: usize = 4;
/// Upper bound on a frame body; a hostile length above this is rejected
/// before any allocation happens.
pub(crate) const MAX_BODY: usize = 1 << 28; // 256 MiB

/// How long a frame may be in flight before the minimum byte-rate
/// enforcer starts judging it. Shields honest peers from transient
/// scheduling hiccups; a slow-dripper outlives the grace and is killed.
pub const RATE_GRACE: Duration = Duration::from_millis(300);

const K_HELLO: u8 = 1;
const K_BROADCAST: u8 = 2;
const K_UPDATE: u8 = 3;
const K_STOP: u8 = 4;

/// One transport message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: announces which client slot this connection serves.
    Hello {
        /// Client index (0-based, must be `< n_clients` at the server).
        client_id: usize,
    },
    /// Server downlink: the global model for one round attempt.
    Broadcast {
        /// Round index.
        round: usize,
        /// Attempt within the round (quorum retries re-broadcast).
        attempt: usize,
        /// Losslessly FedSZ-compressed global model.
        model: CompressedUpdate,
    },
    /// Client uplink: one local update with its measurements.
    Update {
        /// Round the client is answering.
        round: usize,
        /// Attempt the client is answering.
        attempt: usize,
        /// Client index (echoed; the server cross-checks it against the
        /// handshake).
        client_id: usize,
        /// Local training samples (FedAvg weight).
        samples: usize,
        /// Local training wall time in seconds.
        train_s: f64,
        /// Compression wall time in seconds.
        compress_s: f64,
        /// Uncompressed update size in bytes.
        raw_bytes: usize,
        /// FedSZ-compressed local update.
        payload: CompressedUpdate,
    },
    /// Server downlink: the run is over, the client should exit.
    Stop,
}

/// Why a frame could not be read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended in the middle of a frame.
    UnexpectedEof,
    /// No frame started before the socket read timeout — the peer is idle.
    Idle,
    /// A frame started but stalled longer than the per-frame budget.
    Stalled,
    /// The first four bytes were not the frame magic (desynchronised peer).
    BadMagic,
    /// The checksum did not match: bytes were corrupted in flight.
    BadCrc {
        /// CRC recorded in the frame trailer.
        expected: u32,
        /// CRC computed over the received bytes.
        actual: u32,
    },
    /// The CRC matched but the body failed validation.
    BadBody(&'static str),
    /// The length prefix exceeds `MAX_BODY`.
    TooLarge(usize),
    /// A frame was in flight past [`RATE_GRACE`] while the peer
    /// delivered fewer bytes than the configured minimum byte rate
    /// requires — a slow-drip (or wedged) connection.
    TooSlow,
    /// The admission callback refused the frame by its announced body
    /// length; the body was drained, the stream is still framed, and
    /// the connection remains usable. Carries the refused length.
    OverBudget(usize),
    /// Any other socket-level failure.
    Io(io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::UnexpectedEof => write!(f, "connection dropped mid-frame"),
            WireError::Idle => write!(f, "no frame before the read timeout"),
            WireError::Stalled => write!(f, "frame stalled past the per-frame budget"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadCrc { expected, actual } => {
                write!(f, "frame CRC mismatch ({expected:#010x} vs {actual:#010x})")
            }
            WireError::BadBody(m) => write!(f, "bad frame body: {m}"),
            WireError::TooLarge(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::TooSlow => write!(f, "frame below the minimum byte rate"),
            WireError::OverBudget(n) => {
                write!(f, "frame body of {n} bytes refused at admission")
            }
            WireError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

fn frame_kind(frame: &Frame) -> u8 {
    match frame {
        Frame::Hello { .. } => K_HELLO,
        Frame::Broadcast { .. } => K_BROADCAST,
        Frame::Update { .. } => K_UPDATE,
        Frame::Stop => K_STOP,
    }
}

fn encode_body(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::new();
    match frame {
        Frame::Hello { client_id } => varint::write_usize(&mut body, *client_id),
        Frame::Broadcast {
            round,
            attempt,
            model,
        } => {
            varint::write_usize(&mut body, *round);
            varint::write_usize(&mut body, *attempt);
            varint::write_usize(&mut body, model.nbytes());
            body.extend_from_slice(model.as_bytes());
        }
        Frame::Update {
            round,
            attempt,
            client_id,
            samples,
            train_s,
            compress_s,
            raw_bytes,
            payload,
        } => {
            varint::write_usize(&mut body, *round);
            varint::write_usize(&mut body, *attempt);
            varint::write_usize(&mut body, *client_id);
            varint::write_usize(&mut body, *samples);
            body.extend_from_slice(&train_s.to_bits().to_le_bytes());
            body.extend_from_slice(&compress_s.to_bits().to_le_bytes());
            varint::write_usize(&mut body, *raw_bytes);
            varint::write_usize(&mut body, payload.nbytes());
            body.extend_from_slice(payload.as_bytes());
        }
        Frame::Stop => {}
    }
    body
}

/// Serialize a frame into its wire bytes (header + body + CRC trailer).
///
/// Panics if the body would exceed `MAX_BODY` — the transport never
/// produces such frames (the largest payload is one compressed model).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let body = encode_body(frame);
    // fedsz-lint: allow(no-panic-decode) -- encode-side invariant on locally built frames; documented panic, not reachable from peer bytes
    assert!(
        body.len() <= MAX_BODY,
        "frame body of {} bytes exceeds MAX_BODY",
        body.len()
    );
    // fedsz-lint: allow(no-unchecked-arith-wire) -- body.len() <= MAX_BODY was just asserted; the sum cannot overflow
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(frame_kind(frame));
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    let mut crc = Crc32::new();
    crc.update(out.get(4..).unwrap_or_default());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out
}

/// Exact body length of the `Update` frame these fields would encode
/// to — without encoding it.
///
/// This is the quantity a TCP server sees in the frame header when it
/// decides admission, so the channel and in-process paths use this to
/// make byte-identical shed decisions for the same logical update: the
/// shed set becomes a pure function of the update's fields on every
/// transport.
pub(crate) fn update_body_len(
    round: usize,
    attempt: usize,
    client_id: usize,
    samples: usize,
    raw_bytes: usize,
    payload_len: usize,
) -> usize {
    let varint_len = |v: usize| varint::encoded_len(v as u64);
    varint_len(round)
        .saturating_add(varint_len(attempt))
        .saturating_add(varint_len(client_id))
        .saturating_add(varint_len(samples))
        .saturating_add(16) // train_s + compress_s as f64 bits
        .saturating_add(varint_len(raw_bytes))
        .saturating_add(varint_len(payload_len))
        .saturating_add(payload_len)
}

/// Decode one frame from a complete in-memory buffer (tests and fuzzing).
/// The buffer must contain exactly one frame.
pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
    let mut cursor = buf;
    let frame = read_frame(&mut cursor, Duration::from_secs(1))?;
    if !cursor.is_empty() {
        return Err(WireError::BadBody("trailing bytes after frame"));
    }
    Ok(frame)
}

/// Per-frame progress tracker shared by the header, body, and drain
/// reads: the stall deadline (armed at the first byte, bounded by the
/// frame budget) plus the minimum byte-rate enforcer's running totals.
struct Pace {
    budget: Duration,
    /// Minimum bytes/second a started frame must sustain; 0 disables.
    min_rate: u64,
    deadline: Option<Instant>,
    started_at: Option<Instant>,
    received: u64,
}

impl Pace {
    fn new(budget: Duration, min_rate: u64) -> Self {
        Pace {
            budget,
            min_rate,
            deadline: None,
            started_at: None,
            received: 0,
        }
    }

    /// Record `n` freshly read bytes, arming the clocks at the first.
    fn advance(&mut self, n: usize) {
        self.received = self.received.saturating_add(n as u64);
        if self.deadline.is_none() {
            let now = Instant::now();
            self.deadline = Some(now + self.budget);
            self.started_at = Some(now);
        }
    }

    /// Has the frame been in flight past [`RATE_GRACE`] while the peer
    /// delivered fewer bytes than the minimum rate requires?
    fn too_slow(&self) -> bool {
        if self.min_rate == 0 {
            return false;
        }
        let Some(t0) = self.started_at else {
            return false;
        };
        let Some(judged) = t0.elapsed().checked_sub(RATE_GRACE) else {
            return false;
        };
        let required = u128::from(self.min_rate).saturating_mul(judged.as_millis()) / 1000;
        u128::from(self.received) < required
    }
}

/// Fill `buf` from `r`, tolerating short reads and transient timeouts.
///
/// `started` marks whether earlier bytes of this frame were already
/// consumed: a clean EOF or a read timeout before any byte of the frame is
/// [`WireError::Closed`] / [`WireError::Idle`]; the same events mid-frame
/// are [`WireError::UnexpectedEof`] / [`WireError::Stalled`] (the latter
/// once the deadline — armed at the first byte — has passed). With a
/// minimum byte rate configured, a started frame that falls behind the
/// rate after [`RATE_GRACE`] is [`WireError::TooSlow`].
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    started: bool,
    pace: &mut Pace,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if started || filled > 0 {
                    WireError::UnexpectedEof
                } else {
                    WireError::Closed
                });
            }
            Ok(n) => {
                filled += n;
                pace.advance(n);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !started && filled == 0 {
                    return Err(WireError::Idle);
                }
                if pace.too_slow() {
                    return Err(WireError::TooSlow);
                }
                if let Some(d) = pace.deadline {
                    if Instant::now() >= d {
                        return Err(WireError::Stalled);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Read and discard exactly `n` bytes through a small stack buffer,
/// keeping the stream framed without buffering a refused body.
fn drain_exact<R: Read>(r: &mut R, mut n: usize, pace: &mut Pace) -> Result<(), WireError> {
    let mut sink = [0u8; 512];
    while n > 0 {
        let take = n.min(sink.len());
        read_full(r, &mut sink[..take], true, pace)?;
        n -= take;
    }
    Ok(())
}

/// Read and validate one frame.
///
/// `frame_budget` bounds how long a frame may take once its first byte
/// arrived (enforced at the granularity of the socket read timeout; with no
/// read timeout configured the read blocks, mirroring the channel
/// transport's behaviour without a deadline).
pub fn read_frame<R: Read>(r: &mut R, frame_budget: Duration) -> Result<Frame, WireError> {
    read_frame_gated(r, frame_budget, 0, &mut Vec::new(), |_| {
        HeaderVerdict::Admit
    })
}

/// Verdict of the header-time admission callback in
/// [`read_frame_gated`], decided on the announced body length alone —
/// before a single body byte is buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderVerdict {
    /// Buffer and decode the body as usual.
    Admit,
    /// Refuse the frame: drain its body without buffering and return
    /// [`WireError::OverBudget`]. The connection stays framed.
    Shed,
    /// The server is shutting down; stop reading and report
    /// [`WireError::Closed`] so the caller winds the connection down.
    Abort,
}

/// [`read_frame`] with a caller-owned body buffer and the server's overload
/// defenses: a minimum byte-rate floor (`min_byte_rate` bytes/second, 0
/// disables; see [`WireError::TooSlow`]) and a header-time admission
/// callback receiving each frame's announced body length. Admission runs
/// after the `MAX_BODY` check, so the callback sees only lengths the
/// protocol itself would accept.
///
/// Long-lived readers call this in a loop with one persistent `scratch`,
/// so steady-state traffic performs zero body allocations; a hostile
/// length still cannot make it grow past `MAX_BODY`.
pub fn read_frame_gated<R: Read>(
    r: &mut R,
    frame_budget: Duration,
    min_byte_rate: u64,
    scratch: &mut Vec<u8>,
    gate: impl FnOnce(usize) -> HeaderVerdict,
) -> Result<Frame, WireError> {
    let mut pace = Pace::new(frame_budget, min_byte_rate);
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, false, &mut pace)?;
    let (magic, covered) = header.split_at(4);
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    // HEADER_LEN is 9, so the part after the magic is always kind + 4 length
    // bytes; the wildcard arm keeps the read total rather than trusting that.
    let (kind, len) = match covered {
        &[kind, l0, l1, l2, l3] => (kind, u32::from_le_bytes([l0, l1, l2, l3]) as usize),
        _ => return Err(WireError::BadMagic),
    };
    if len > MAX_BODY {
        return Err(WireError::TooLarge(len));
    }
    match gate(len) {
        HeaderVerdict::Admit => {}
        HeaderVerdict::Shed => {
            drain_exact(r, len.saturating_add(TRAILER_LEN), &mut pace)?;
            return Err(WireError::OverBudget(len));
        }
        HeaderVerdict::Abort => return Err(WireError::Closed),
    }
    scratch.clear();
    scratch.resize(len.saturating_add(TRAILER_LEN), 0);
    let rest = scratch.as_mut_slice();
    read_full(r, rest, true, &mut pace)?;
    let (body, trailer) = rest.split_at(len);
    let expected = reader::read_u32_le(trailer, &mut 0).map_err(|_| WireError::UnexpectedEof)?;
    let mut crc = Crc32::new();
    crc.update(covered);
    crc.update(body);
    let actual = crc.finish();
    if actual != expected {
        return Err(WireError::BadCrc { expected, actual });
    }
    decode_body(kind, body)
}

/// Write one frame, returning the number of bytes put on the wire.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize, WireError> {
    write_frame_bytes(w, &encode(frame))
}

/// Write pre-encoded frame bytes (one broadcast is encoded once and written
/// to every client).
pub fn write_frame_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> Result<usize, WireError> {
    w.write_all(bytes).map_err(|e| WireError::Io(e.kind()))?;
    w.flush().map_err(|e| WireError::Io(e.kind()))?;
    Ok(bytes.len())
}

fn rd(body: &[u8], pos: &mut usize) -> Result<usize, WireError> {
    varint::read_usize(body, pos).map_err(|_| WireError::BadBody("bad varint"))
}

fn rd_f64(body: &[u8], pos: &mut usize) -> Result<f64, WireError> {
    reader::read_f64_le(body, pos).map_err(|_| WireError::BadBody("truncated f64"))
}

fn rd_bytes(body: &[u8], pos: &mut usize) -> Result<Vec<u8>, WireError> {
    let n = rd(body, pos)?;
    reader::take(body, pos, n)
        .map(<[u8]>::to_vec)
        .map_err(|_| WireError::BadBody("truncated byte payload"))
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, WireError> {
    let mut pos = 0usize;
    let frame = match kind {
        K_HELLO => Frame::Hello {
            client_id: rd(body, &mut pos)?,
        },
        K_BROADCAST => Frame::Broadcast {
            round: rd(body, &mut pos)?,
            attempt: rd(body, &mut pos)?,
            model: CompressedUpdate::from_bytes(rd_bytes(body, &mut pos)?),
        },
        K_UPDATE => Frame::Update {
            round: rd(body, &mut pos)?,
            attempt: rd(body, &mut pos)?,
            client_id: rd(body, &mut pos)?,
            samples: rd(body, &mut pos)?,
            train_s: rd_f64(body, &mut pos)?,
            compress_s: rd_f64(body, &mut pos)?,
            raw_bytes: rd(body, &mut pos)?,
            payload: CompressedUpdate::from_bytes(rd_bytes(body, &mut pos)?),
        },
        K_STOP => Frame::Stop,
        _ => return Err(WireError::BadBody("unknown frame kind")),
    };
    if pos != body.len() {
        return Err(WireError::BadBody("trailing bytes in body"));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { client_id: 3 },
            Frame::Broadcast {
                round: 7,
                attempt: 1,
                model: CompressedUpdate::from_bytes(vec![1, 2, 3, 4, 5]),
            },
            Frame::Update {
                round: 7,
                attempt: 1,
                client_id: 2,
                samples: 192,
                train_s: 0.125,
                compress_s: 0.0625,
                raw_bytes: 123_456,
                payload: CompressedUpdate::from_bytes(vec![9; 300]),
            },
            Frame::Stop,
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            assert_eq!(decode(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn timings_round_trip_bit_exact() {
        let frame = Frame::Update {
            round: 0,
            attempt: 0,
            client_id: 0,
            samples: 1,
            train_s: 1.0 / 3.0,
            compress_s: f64::MIN_POSITIVE,
            raw_bytes: 0,
            payload: CompressedUpdate::from_bytes(vec![]),
        };
        let Frame::Update {
            train_s,
            compress_s,
            ..
        } = decode(&encode(&frame)).unwrap()
        else {
            panic!("wrong frame kind");
        };
        assert_eq!(train_s.to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(compress_s.to_bits(), f64::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Flip every bit in a small frame: either the CRC catches it or the
        // magic/framing check does. Nothing decodes successfully.
        let bytes = encode(&Frame::Hello { client_id: 5 });
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(decode(&bad).is_err(), "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn truncation_is_unexpected_eof_and_empty_is_closed() {
        let bytes = encode(&sample_frames().remove(2));
        for cut in 1..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert_eq!(err, WireError::UnexpectedEof, "cut {cut}");
        }
        assert_eq!(decode(&[]).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn hostile_length_is_rejected_without_allocation() {
        let mut bytes = encode(&Frame::Stop);
        // Overwrite the length field with u32::MAX.
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&bytes).unwrap_err(),
            WireError::TooLarge(u32::MAX as usize)
        );
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        let mut bytes = encode(&Frame::Stop);
        bytes[4] = 99;
        // Fix up the CRC so only the kind is wrong.
        let body_end = bytes.len() - TRAILER_LEN;
        let mut crc = Crc32::new();
        crc.update(&bytes[4..body_end]);
        let fixed = crc.finish().to_le_bytes();
        bytes[body_end..].copy_from_slice(&fixed);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            WireError::BadBody("unknown frame kind")
        );

        let mut two = encode(&Frame::Stop);
        two.extend_from_slice(&encode(&Frame::Stop));
        assert_eq!(
            decode(&two).unwrap_err(),
            WireError::BadBody("trailing bytes after frame")
        );
    }

    #[test]
    fn random_bytes_never_panic() {
        let mut rng = fedsz_tensor::SplitMix64::new(0xC0FFEE);
        for _ in 0..500 {
            let len = rng.below(64);
            let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert!(decode(&junk).is_err());
        }
    }

    #[test]
    fn update_body_len_matches_the_encoder_exactly() {
        let sizes = [0usize, 1, 127, 128, 300, 16_383, 16_384, 1 << 20];
        for &payload_len in &sizes {
            for &(round, attempt, client_id, samples, raw_bytes) in &[
                (0usize, 0usize, 0usize, 1usize, 0usize),
                (127, 1, 128, 16_384, usize::MAX >> 1),
                (1 << 20, 3, 9_999, 64, 123_456),
            ] {
                let frame = Frame::Update {
                    round,
                    attempt,
                    client_id,
                    samples,
                    train_s: 0.5,
                    compress_s: 0.25,
                    raw_bytes,
                    payload: CompressedUpdate::from_bytes(vec![7u8; payload_len]),
                };
                let encoded = encode(&frame);
                let actual_body = encoded.len() - HEADER_LEN - TRAILER_LEN;
                assert_eq!(
                    update_body_len(round, attempt, client_id, samples, raw_bytes, payload_len),
                    actual_body,
                    "({round},{attempt},{client_id},{samples},{raw_bytes}) payload {payload_len}"
                );
            }
        }
    }

    #[test]
    fn shed_at_the_header_drains_and_keeps_the_stream_framed() {
        let big = Frame::Update {
            round: 1,
            attempt: 0,
            client_id: 2,
            samples: 8,
            train_s: 0.1,
            compress_s: 0.1,
            raw_bytes: 4096,
            payload: CompressedUpdate::from_bytes(vec![0xAB; 4096]),
        };
        let mut stream = encode(&big);
        stream.extend_from_slice(&encode(&Frame::Stop));
        let mut cursor = &stream[..];
        let mut scratch = Vec::new();
        // Shed the oversized frame: no body buffering, typed error.
        let mut seen_len = None;
        let err = read_frame_gated(
            &mut cursor,
            Duration::from_secs(1),
            0,
            &mut scratch,
            |len| {
                seen_len = Some(len);
                if len > 100 {
                    HeaderVerdict::Shed
                } else {
                    HeaderVerdict::Admit
                }
            },
        )
        .unwrap_err();
        let body_len = seen_len.unwrap();
        assert!(body_len > 4096, "gate saw the announced body length");
        assert_eq!(err, WireError::OverBudget(body_len));
        assert!(scratch.is_empty(), "shed body was never buffered");
        // The next frame on the same stream still decodes: still framed.
        let next = read_frame_gated(&mut cursor, Duration::from_secs(1), 0, &mut scratch, |_| {
            HeaderVerdict::Admit
        })
        .unwrap();
        assert_eq!(next, Frame::Stop);
        assert!(cursor.is_empty());
    }

    #[test]
    fn abort_verdict_reports_closed() {
        let bytes = encode(&Frame::Stop);
        let mut cursor = &bytes[..];
        let err = read_frame_gated(
            &mut cursor,
            Duration::from_secs(1),
            0,
            &mut Vec::new(),
            |_| HeaderVerdict::Abort,
        )
        .unwrap_err();
        assert_eq!(err, WireError::Closed);
    }

    /// A reader that yields `first` bytes of `bytes`, then reports
    /// `WouldBlock` forever — a peer that stops making progress.
    struct StallAfter {
        bytes: Vec<u8>,
        first: usize,
        pos: usize,
    }

    impl io::Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.first {
                std::thread::sleep(Duration::from_millis(5));
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            let n = buf
                .len()
                .min(self.first - self.pos)
                .min(self.bytes.len() - self.pos);
            if n == 0 {
                return Ok(0);
            }
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn slow_drip_is_too_slow_only_when_rate_enforced() {
        let bytes = encode(&sample_frames().remove(2));
        // With the enforcer on, a frame stuck after the header dies with
        // TooSlow shortly after the grace period...
        let mut dripper = StallAfter {
            bytes: bytes.clone(),
            first: HEADER_LEN + 3,
            pos: 0,
        };
        let err = read_frame_gated(
            &mut dripper,
            Duration::from_secs(30),
            10_000,
            &mut Vec::new(),
            |_| HeaderVerdict::Admit,
        )
        .unwrap_err();
        assert_eq!(err, WireError::TooSlow);
        // ...while with it off the same peer runs into the frame budget
        // and dies with Stalled, exactly as before this layer existed.
        let mut dripper = StallAfter {
            bytes,
            first: HEADER_LEN + 3,
            pos: 0,
        };
        let err = read_frame_gated(
            &mut dripper,
            Duration::from_millis(50),
            0,
            &mut Vec::new(),
            |_| HeaderVerdict::Admit,
        )
        .unwrap_err();
        assert_eq!(err, WireError::Stalled);
    }

    #[test]
    fn back_to_back_frames_stay_framed() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut cursor = &stream[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor, Duration::from_secs(1)).unwrap(), f);
        }
        assert_eq!(
            read_frame(&mut cursor, Duration::from_secs(1)).unwrap_err(),
            WireError::Closed
        );
    }
}
