//! Deterministic fault injection for every transport.
//!
//! A [`FaultPlan`] makes client failure *testable*: it names exactly which
//! client misbehaves in which round and how. Every transport — the
//! in-process loopback included — consults the plan on the client side, so
//! the server observes the faults through the same code paths a real
//! deployment would (a corrupt bitstream on the uplink, a closed channel, a
//! message that arrives after the deadline).

use std::time::Duration;

use fedsz_tensor::StateDict;

/// What a planned fault does to one client in one round.
///
/// (No `Eq`: [`FaultKind::ScaleUpdate`] carries the adversary's `f32`
/// scale factor.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Corrupt the serialized uplink payload (the server detects this as a
    /// decode failure and rejects the update).
    Corrupt,
    /// The client thread exits without sending and never comes back; its
    /// channels disconnect, and from the next round on the server drops it.
    Crash,
    /// The client delays its uplink by this much before sending; with a
    /// round deadline shorter than the delay it is counted late.
    Delay(Duration),
    /// Wire-level: the client sends only the first half of its update frame
    /// and then drops the connection. Over TCP the server observes a
    /// mid-frame EOF (counted `rejected`) and the client rejoins at the
    /// next broadcast via backoff; over channels the truncated payload is a
    /// decode failure (`rejected`) on an otherwise healthy client.
    TruncateFrame,
    /// Wire-level: flip this many bytes of the update *after* the checksum
    /// is computed. Over TCP the flips land inside the frame body so the
    /// framing survives, the CRC-32 fails, and the frame is `rejected`
    /// without losing the connection; over channels the flipped prefix
    /// breaks the FedSZ magic, a guaranteed decode failure.
    FlipBytes(usize),
    /// Wire-level: the client closes its connection mid-round without
    /// sending, then reconnects with exponential backoff and rejoins at the
    /// next round's broadcast (counted `late` for the round it skipped).
    /// Over channels — which cannot be re-opened — this degenerates to
    /// [`FaultKind::Crash`].
    Disconnect,
    /// Semantic-level: the client poisons its trained update with NaN
    /// before (losslessly) compressing it, so the payload frames, CRCs and
    /// decodes cleanly but fails the server's pre-aggregation validation
    /// (counted `quarantined`).
    NonFiniteUpdate,
    /// Semantic-level: the client swaps one tensor of its update for a
    /// wrongly-shaped one. Like [`FaultKind::NonFiniteUpdate`] the payload
    /// decodes cleanly; validation rejects the structure mismatch
    /// (counted `quarantined`).
    WrongShape,
    /// Protocol-level: the client sends its (valid) update, then replays it
    /// this many extra times — the double for a stuck retry loop or a
    /// hostile duplicator. The server accepts the first copy only; replays
    /// are discarded before they buffer or decode, so the aggregate is
    /// bit-identical to an un-replayed run.
    Replay(usize),
    /// Overload-level: the client trickles its update frame below the
    /// server's minimum byte rate. Over TCP the reader kills the
    /// connection once the rate enforcer's grace expires (counted `shed`;
    /// requires `NetConfig::min_byte_rate > 0` — with the enforcer off
    /// the drip is merely slow) and the client rejoins via backoff. The
    /// channel and in-process paths have no byte stream to trickle, so
    /// they model the enforced outcome directly: the update is shed.
    SlowDrip,
    /// Overload-level: the client replaces its update payload with this
    /// many junk bytes — a well-formed, CRC-valid frame the server could
    /// never admit. With an ingest budget smaller than the frame the
    /// server sheds it at the header without buffering the body (counted
    /// `shed`, connection kept); with budgeting disabled the junk is
    /// admitted and dies in decode (counted `rejected`). Identical
    /// classification on all three transports.
    FloodOversized(usize),
    /// Overload-level: the client starts an update frame, then holds the
    /// connection open without sending the rest for this long before
    /// dropping it and rejoining. Over TCP the rate enforcer sheds the
    /// wedged frame after its grace (counted `shed`; requires
    /// `min_byte_rate > 0` and a hold longer than the grace — otherwise
    /// the per-frame budget eventually counts it `rejected`). Channel and
    /// in-process paths model the enforced outcome: shed.
    HoldConnection(Duration),
    /// Byzantine-level: the client negates every value of its trained
    /// update (`v := −v`) before compressing — the classic sign-flip
    /// gradient attack. Finite, well-shaped, frames and decodes cleanly;
    /// only a robust aggregation mode can exclude it (counted
    /// `suspected`).
    SignFlip,
    /// Byzantine-level: the client scales its trained update *away from
    /// the broadcast model* by this factor (`v := g + s·(v − g)` where `g`
    /// is the broadcast global) before compressing — a model-boosting
    /// attack. Passes every structural gate; a robust mode screens it
    /// (counted `suspected`).
    ScaleUpdate(f32),
    /// Byzantine-level: the client drags its update halfway back toward
    /// zero (`v := 0.5·v`) before compressing — a stealthy drift attack
    /// that degrades the aggregate without a dramatic norm. Structurally
    /// clean; coordinate-wise robust modes can trim it.
    DriftToward,
}

/// The stage of a client's turn a [`FaultKind`] acts on — see
/// [`FaultKind::stage`], the one place the kinds are sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultStage {
    /// Whether, when and how often the client answers; what it would send
    /// is honest.
    Presence,
    /// The trained values, before they are encoded.
    Values,
    /// The encoded payload bytes.
    Payload,
    /// The frame around an honest payload — which takes a socket.
    Frame,
}

impl FaultKind {
    /// Which stage of the client turn acts this kind out. `framed` says
    /// whether the client's transport puts a frame on a socket: only there
    /// can a frame be cut, flipped, dripped, held or dropped, and elsewhere
    /// each of those kinds falls back to the stage that models what the
    /// server would have seen. Exhaustive on purpose: a new kind does not
    /// compile until it has a stage.
    pub(crate) fn stage(self, framed: bool) -> FaultStage {
        match self {
            FaultKind::Crash | FaultKind::Delay(_) | FaultKind::Replay(_) => FaultStage::Presence,
            FaultKind::NonFiniteUpdate
            | FaultKind::WrongShape
            | FaultKind::SignFlip
            | FaultKind::ScaleUpdate(_)
            | FaultKind::DriftToward => FaultStage::Values,
            FaultKind::Corrupt | FaultKind::FloodOversized(_) => FaultStage::Payload,
            FaultKind::Disconnect
            | FaultKind::TruncateFrame
            | FaultKind::FlipBytes(_)
            | FaultKind::SlowDrip
            | FaultKind::HoldConnection(_)
                if framed =>
            {
                FaultStage::Frame
            }
            // No socket: a dropped connection is a silent client, and the
            // rate enforcer's verdict on a trickled or wedged frame is a
            // shed update ...
            FaultKind::Disconnect | FaultKind::SlowDrip | FaultKind::HoldConnection(_) => {
                FaultStage::Presence
            }
            // ... while a cut or flipped frame is a payload that fails to
            // decode.
            FaultKind::TruncateFrame | FaultKind::FlipBytes(_) => FaultStage::Payload,
        }
    }
}

/// Apply a Byzantine poison in place to a client's trained update,
/// *before* it is compressed — so the attack rides the real lossy path
/// and the server sees it through the same decode/validate pipeline as
/// an honest update. `reference` is the broadcast global model the
/// client trained from ([`FaultKind::ScaleUpdate`] scales the update's
/// *delta* from it). Returns `true` when `kind` is a Byzantine poison
/// (and was applied); every other kind is a no-op returning `false`.
///
/// All three poisons are plain deterministic `f32` arithmetic on finite
/// inputs, so every transport produces bit-identical poisoned payloads —
/// the cross-transport equality contract extends to adversarial runs.
pub(crate) fn poison_update(
    update: &mut StateDict,
    reference: &StateDict,
    kind: FaultKind,
) -> bool {
    match kind {
        FaultKind::SignFlip => {
            for e in update.entries_mut() {
                for v in e.tensor.data_mut() {
                    *v = -*v;
                }
            }
            true
        }
        FaultKind::ScaleUpdate(s) => {
            for (e, r) in update.entries_mut().iter_mut().zip(reference.entries()) {
                for (v, &g) in e.tensor.data_mut().iter_mut().zip(r.tensor.data()) {
                    *v = g + s * (*v - g);
                }
            }
            true
        }
        FaultKind::DriftToward => {
            for e in update.entries_mut() {
                for v in e.tensor.data_mut() {
                    *v *= 0.5;
                }
            }
            true
        }
        _ => false,
    }
}

/// One planned fault: `client` misbehaves in `round`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultSpec {
    /// Client index (0-based).
    pub client: usize,
    /// Round index (0-based).
    pub round: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of client faults.
///
/// Faults fire on the *first attempt* of their round only: a round that is
/// retried for quorum sees healthy clients again. That keeps the
/// quorum-retry path deterministic and testable — a retried round either
/// recovers (transient fault) or the caller models a persistent fault by
/// planning it into consecutive rounds.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    /// Kill the server after broadcasting this round (the SIGKILL double
    /// behind the kill-and-resume tests).
    server_kill: Option<usize>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan `client` to act `kind` out in `round` — the one builder for
    /// every client fault.
    pub fn with(mut self, client: usize, round: usize, kind: FaultKind) -> Self {
        self.specs.push(FaultSpec {
            client,
            round,
            kind,
        });
        self
    }

    /// Kill the server after it broadcasts `round`, before any update for
    /// that round is collected — the deterministic stand-in for a SIGKILL
    /// mid-round. The run aborts with
    /// [`FlError::ServerKilled`](crate::error::FlError::ServerKilled);
    /// checkpoints for earlier rounds survive on disk.
    pub fn kill_server(mut self, round: usize) -> Self {
        self.server_kill = Some(round);
        self
    }

    /// The round after whose broadcast the server dies, if planned.
    pub(crate) fn server_kill_round(&self) -> Option<usize> {
        self.server_kill
    }

    /// The fault `client` acts out on `attempt` of `round`: the planned one
    /// (the first matching spec wins) on the first attempt, none on a quorum
    /// retry (see the type docs).
    pub(crate) fn firing(&self, client: usize, round: usize, attempt: usize) -> Option<FaultKind> {
        self.specs
            .iter()
            .find(|s| s.client == client && s.round == round)
            .map(|s| s.kind)
            .filter(|_| attempt == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_fires_through_with_on_the_first_attempt_only() {
        let hold = Duration::from_secs(1);
        let kinds = [
            FaultKind::Corrupt,
            FaultKind::Crash,
            FaultKind::Delay(hold),
            FaultKind::TruncateFrame,
            FaultKind::FlipBytes(16),
            FaultKind::Disconnect,
            FaultKind::NonFiniteUpdate,
            FaultKind::WrongShape,
            FaultKind::Replay(5),
            FaultKind::SlowDrip,
            FaultKind::FloodOversized(1 << 20),
            FaultKind::HoldConnection(hold),
            FaultKind::SignFlip,
            FaultKind::ScaleUpdate(1000.0),
            FaultKind::DriftToward,
        ];
        // Client i misbehaves in round i + 1; the plan accumulates in order.
        let plan = kinds
            .iter()
            .enumerate()
            .fold(FaultPlan::new(), |p, (i, &k)| p.with(i, i + 1, k));
        for (i, &kind) in kinds.iter().enumerate() {
            assert_eq!(plan.firing(i, i + 1, 0), Some(kind), "{kind:?}");
            assert_eq!(
                plan.firing(i, i + 1, 1),
                None,
                "a quorum retry runs healthy"
            );
            assert_eq!(plan.firing(i, i, 0), None, "{kind:?} fired a round early");
        }
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new();
        for c in 0..4 {
            for r in 0..4 {
                assert_eq!(plan.firing(c, r, 0), None);
            }
        }
    }

    #[test]
    fn first_matching_spec_wins() {
        let plan = FaultPlan::new()
            .with(0, 0, FaultKind::Corrupt)
            .with(0, 0, FaultKind::Crash);
        assert_eq!(plan.firing(0, 0, 0), Some(FaultKind::Corrupt));
    }

    #[test]
    fn poison_update_applies_each_attack_exactly() {
        use fedsz_tensor::{Tensor, TensorKind};
        let mut reference = StateDict::new();
        reference.insert("w", TensorKind::Weight, Tensor::from_vec(vec![1.0, -2.0]));
        let trained = {
            let mut sd = StateDict::new();
            sd.insert("w", TensorKind::Weight, Tensor::from_vec(vec![3.0, -1.0]));
            sd
        };

        let mut sd = trained.clone();
        assert!(poison_update(&mut sd, &reference, FaultKind::SignFlip));
        assert_eq!(sd.entries()[0].tensor.data(), &[-3.0, 1.0]);

        let mut sd = trained.clone();
        assert!(poison_update(
            &mut sd,
            &reference,
            FaultKind::ScaleUpdate(10.0)
        ));
        // g + 10 (v - g): 1 + 10*2 = 21, -2 + 10*1 = 8.
        assert_eq!(sd.entries()[0].tensor.data(), &[21.0, 8.0]);

        let mut sd = trained.clone();
        assert!(poison_update(&mut sd, &reference, FaultKind::DriftToward));
        assert_eq!(sd.entries()[0].tensor.data(), &[1.5, -0.5]);

        // Non-Byzantine kinds are no-ops.
        let mut sd = trained.clone();
        assert!(!poison_update(&mut sd, &reference, FaultKind::Corrupt));
        assert_eq!(sd, trained);
    }

    #[test]
    fn server_kill_is_a_fault_too() {
        let plan = FaultPlan::new().kill_server(3);
        for c in 0..4 {
            assert_eq!(plan.firing(c, 3, 0), None, "a kill is not a client fault");
        }
        assert_eq!(plan.server_kill_round(), Some(3));
        assert_eq!(FaultPlan::new().server_kill_round(), None);
    }
}
