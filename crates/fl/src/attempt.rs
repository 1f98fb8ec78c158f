//! The attempt core: every decision of one round attempt's collection —
//! first-wins admission, the stale filter, the Shed / Garbage / Gone
//! verdicts, settling each outcome, the `late` arithmetic and the quorum
//! verdict — as a state machine that holds no channel, thread, ledger,
//! pool or clock. Its driver, `transport`'s `collect_attempt`, does every
//! I/O call and passes the time in as a value, so the core decides the same
//! under every transport and worker count, and its tests explore event
//! orders with no threads.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedsz_tensor::StateDict;

use crate::error::FlError;
use crate::ingest::{self, Verdict};
use crate::robust::{Aggregation, RobustFold};
use crate::session::RoundMetrics;
use crate::transport::{BroadcastOutcome, Uplink};
use crate::validate::validate_update;

/// How often the driver wakes to settle finished decodes while blocked on
/// the transport. Settling is what releases ledger capacity, so waiting on
/// the transport *without* draining would deadlock with every remaining
/// client parked in `Ledger::reserve`: their sends are gated on releases
/// only the driver can perform. The poll changes when outcomes settle,
/// never which updates are admitted, so accounting and the aggregate stay
/// bit-identical.
const SETTLE_POLL: Duration = Duration::from_millis(5);

/// What the driver must do after an uplink.
pub(crate) enum Step {
    Submit(ingest::Job),
    /// Ledger bytes to release (0: nothing to do).
    Release(usize),
}

/// One round attempt's admission and accounting.
///
/// Admission is **first-wins**: each reached client gets exactly one
/// verdict per attempt, and every later message carrying its id — a
/// replayed frame, a stuck retry loop, a spoofed duplicate — is discarded
/// before it is decoded. That bounds the ingest pool's queue by the cohort
/// size however hard a hostile peer floods the uplink, and makes the fold
/// count (hence the aggregate) independent of duplication.
///
/// Each outcome settles as soon as the pool hands it back: it is counted,
/// folded, and its ledger reservation returned, whatever the pool still
/// owes. Completion order cannot reach the result: the counters are
/// integers, the fold is an exact fixed-point sum, and the robust screens
/// decide on the set of updates. It decides only the last bits of the
/// wall-clock `f64` sums, which no two runs reproduce anyway.
pub(crate) struct Attempt<'a> {
    /// The `(round, attempt)` collected.
    id: (usize, usize),
    global: &'a Arc<StateDict>,
    /// The round deadline; `None` never cuts the attempt off.
    cutoff: Option<Instant>,
    /// Reached clients that have not answered yet.
    open: BTreeSet<usize>,
    in_flight: usize,
    delivered: usize,
    shed: usize,
    /// Reached clients that hung up instead of answering.
    gone: usize,
    agg: RobustFold,
    /// The round's row, which the attempt's sums and counters join.
    metrics: &'a mut RoundMetrics,
}

impl<'a> Attempt<'a> {
    /// Open attempt `id` on its broadcast to `cohort` clients, which `sent`
    /// describes; a broadcast that reached nobody fails the round.
    pub(crate) fn new(
        id: (usize, usize),
        cohort: usize,
        sent: &BroadcastOutcome,
        cutoff: Option<Instant>,
        mode: Aggregation,
        global: &'a Arc<StateDict>,
        metrics: &'a mut RoundMetrics,
    ) -> Result<Self, FlError> {
        let open: BTreeSet<usize> = (sent.reached.iter().enumerate())
            .filter_map(|(id, reached)| reached.then_some(id))
            .collect();
        // Saturating: a transport may report reaching a client the cohort
        // did not name (e.g. a rejoin raced the sample), and an underflow
        // here was once an abort-on-subtract panic.
        metrics.faults.dropped = cohort.saturating_sub(open.len());
        metrics.bytes_down_wire += sent.bytes_down;
        if open.is_empty() {
            return Err(FlError::AllClientsDead { round: id.0 });
        }
        Ok(Self {
            id,
            global,
            cutoff,
            open,
            in_flight: 0,
            delivered: 0,
            shed: 0,
            gone: 0,
            agg: RobustFold::new(mode, global),
            metrics,
        })
    }

    /// Whether a reached client may still answer.
    pub(crate) fn waiting(&self) -> bool {
        !self.open.is_empty()
    }

    /// Jobs the pool still owes an outcome.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// When the driver, blocked on the transport at `now`, must wake: at
    /// the cutoff, or one [`SETTLE_POLL`] later with decodes in flight.
    pub(crate) fn wake_at(&self, now: Instant) -> Option<Instant> {
        let poll = (self.in_flight > 0).then(|| now + SETTLE_POLL);
        self.cutoff.into_iter().chain(poll).min()
    }

    /// Whether the round deadline has passed at `now`.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        self.cutoff.is_some_and(|c| now >= c)
    }

    /// An uplink. Each resolves its client's slot first-wins:
    /// `open.remove` is `false` for an id outside the broadcast set, or one
    /// that already answered this attempt.
    pub(crate) fn on_uplink(&mut self, uplink: Uplink) -> Result<Step, FlError> {
        let (msg, raw) = match uplink {
            Uplink::Msg(msg) => (msg, None),
            Uplink::Raw { msg, update } => (msg, Some(update)),
            // Shed and Garbage are verdicts on a cohort slot, counted when
            // they resolve it — first-wins, like a message. A replayed
            // frame that is refused again says nothing new, and counting
            // it made the counters depend on how many copies beat the end
            // of the round: on the transport, and on the scheduler.
            //
            // Admission control turned this update away at the frame
            // header — over budget or too slow.
            Uplink::Shed { client_id } => {
                self.shed += usize::from(self.open.remove(&client_id));
                return Ok(Step::Release(0));
            }
            // Wire-level rejection (bad CRC / truncated frame): counted
            // like a corrupt payload, attributed to the connection. It
            // never reaches the pool — there is nothing to decode.
            Uplink::Garbage { client_id } => {
                self.metrics.faults.rejected += usize::from(self.open.remove(&client_id));
                return Ok(Step::Release(0));
            }
            // The connection closed before an answer: this client runs out
            // as late without forcing the server to sit out the whole
            // deadline for it.
            Uplink::Gone { client_id } => {
                self.gone += usize::from(self.open.remove(&client_id));
                return Ok(Step::Release(0));
            }
        };
        // Stale straggler output (already accounted when it ran late) is
        // discarded. So is — first-wins admission — an id outside the
        // broadcast set (nonsense, out of cohort, or `cfg.n_clients`
        // spoofing) or one that already submitted this attempt: dropped
        // here, undecoded. Either way the budget reservation is handed
        // back, or a duplicate flood would pin the budget forever.
        if (msg.round, msg.attempt) != self.id || !self.open.remove(&msg.client_id) {
            return Ok(Step::Release(msg.reserved));
        }
        // First-wins makes the client id unique in the attempt, so it is
        // the job's id.
        let seq = msg.client_id as u64;
        let Some(update) = raw else {
            self.in_flight += 1;
            return Ok(Step::Submit(ingest::Job {
                seq,
                client_id: msg.client_id,
                wire_bytes: msg.payload.nbytes(),
                payload: msg.payload,
                samples: msg.samples,
                train_s: msg.train_s,
                compress_s: msg.compress_s,
                raw_bytes: msg.raw_bytes,
                reserved: msg.reserved,
                global: Arc::clone(self.global),
            }));
        };
        // Nothing to decode: validate the state dict itself and settle it
        // in line. What travelled is the raw update, so wire bytes = raw
        // bytes.
        let raw_bytes = update.nbytes();
        let verdict = match validate_update(&update, self.global, msg.samples) {
            Ok(()) => Verdict::Accept(update),
            Err(reason) => Verdict::Quarantine(reason),
        };
        let out = ingest::Outcome {
            seq,
            client_id: msg.client_id,
            samples: msg.samples,
            train_s: msg.train_s,
            compress_s: 0.0,
            raw_bytes,
            wire_bytes: raw_bytes,
            reserved: msg.reserved,
            verdict,
            decompress_s: 0.0,
        };
        self.apply(out).map(Step::Release)
    }

    /// One finished job; returns the ledger bytes that settling it frees.
    pub(crate) fn on_outcome(&mut self, out: ingest::Outcome) -> Result<usize, FlError> {
        self.in_flight -= 1;
        self.apply(out)
    }

    /// Count and fold `out`, returning the budget reservation its frame
    /// held from admission until now. A fold error aborts the run, and
    /// with it the ledger, so the bytes it does not return are moot.
    fn apply(&mut self, out: ingest::Outcome) -> Result<usize, FlError> {
        let m = &mut *self.metrics;
        // Decompression is timed for every decode attempt — rejected and
        // quarantined payloads cost the server real wall time too.
        m.decompress_s_total += out.decompress_s;
        match out.verdict {
            Verdict::Accept(sd) => {
                m.train_s_total += out.train_s;
                m.compress_s_total += out.compress_s;
                m.bytes_on_wire += out.wire_bytes;
                m.bytes_uncompressed += out.raw_bytes;
                // Validation upstream guarantees structure and finiteness,
                // so the only fold failure left is total-weight overflow —
                // a typed error, never a worker panic.
                self.agg.fold(out.client_id, sd, out.samples)?;
                self.delivered += 1;
                // Under the default mean the update's storage dies as soon
                // as it folds; the robust modes buffer it until finish.
            }
            Verdict::Quarantine(reason) => {
                reason.tally(&mut m.quarantine_reasons);
                m.faults.quarantined += 1;
            }
            Verdict::Reject(_) => m.faults.rejected += 1,
        }
        Ok(out.reserved)
    }

    /// Close the attempt once the pool owes nothing and decide: the
    /// aggregate when `delivered` meets `quorum`, `None` to retry unless
    /// this is the `last` attempt, else the typed error.
    pub(crate) fn finish(self, quorum: usize, last: bool) -> Result<Option<StateDict>, FlError> {
        let m = self.metrics;
        m.faults.shed += self.shed;
        // Every other reached slot resolved to a verdict of its own; these
        // hung up or never answered.
        m.faults.late += self.gone + self.open.len();
        m.faults.delivered = self.delivered;
        let (round, delivered, required) = (self.id.0, self.delivered, quorum);
        if delivered >= quorum {
            // Quorum was checked on the pre-screen accepted count; the
            // robust screen decides `suspected` at finish, and delivered is
            // what actually contributed to the aggregate.
            let out = self.agg.finish()?;
            m.suspect_reasons = out.suspected;
            m.faults.suspected = out.suspected.total();
            m.faults.delivered = delivered.saturating_sub(out.suspected.total());
            return Ok(Some(out.model));
        }
        match (last, self.shed) {
            (false, _) => Ok(None),
            // A starved round that shed updates gets its own error so
            // operators can tell "clients failed" from "the server turned
            // clients away".
            (true, 0) => Err(FlError::QuorumNotMet {
                round,
                delivered,
                required,
            }),
            (true, shed) => Err(FlError::Overloaded {
                round,
                shed,
                delivered,
                required,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use fedsz::{CodecError, CompressedUpdate, FaultCounters};
    use fedsz_tensor::{Tensor, TensorKind};
    use proptest::prelude::*;

    use super::*;
    use crate::transport::ClientMsg;
    use crate::validate::UpdateRejection;

    const ROUND: usize = 3;
    const ATTEMPT: usize = 1;
    /// Registered clients; the broadcast reaches `0..REACHED`.
    const REGISTERED: usize = 12;
    const REACHED: usize = 10;

    fn update(value: f32) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("w", TensorKind::Weight, Tensor::from_vec(vec![value; 4]));
        sd
    }

    /// One uplink event of the scenario, in a form that can be replayed.
    #[derive(Clone, Copy)]
    enum Event {
        Msg {
            id: usize,
            round: usize,
            attempt: usize,
            reserved: usize,
        },
        Raw {
            id: usize,
            poisoned: bool,
        },
        Shed(usize),
        Garbage(usize),
        Gone(usize),
    }

    fn msg(id: usize, reserved: usize) -> Event {
        Event::Msg {
            id,
            round: ROUND,
            attempt: ATTEMPT,
            reserved,
        }
    }

    /// A message of `client_id` for `(round, attempt)`. A stale one claims
    /// a sample count of its own, which would weigh its fold differently.
    fn client_msg(client_id: usize, id: (usize, usize), reserved: usize) -> ClientMsg {
        ClientMsg {
            client_id,
            round: id.0,
            attempt: id.1,
            payload: CompressedUpdate::from_bytes(Vec::new()),
            samples: if id == (ROUND, ATTEMPT) {
                client_id + 1
            } else {
                1000
            },
            train_s: 0.0,
            compress_s: 0.0,
            raw_bytes: 0,
            reserved,
        }
    }

    fn uplink(event: Event) -> Uplink {
        match event {
            Event::Msg {
                id,
                round,
                attempt,
                reserved,
            } => Uplink::Msg(client_msg(id, (round, attempt), reserved)),
            Event::Raw { id, poisoned } => Uplink::Raw {
                msg: client_msg(id, (ROUND, ATTEMPT), 0),
                update: Box::new(update(if poisoned { f32::NAN } else { id as f32 })),
            },
            Event::Shed(client_id) => Uplink::Shed { client_id },
            Event::Garbage(client_id) => Uplink::Garbage { client_id },
            Event::Gone(client_id) => Uplink::Gone { client_id },
        }
    }

    /// Every reached slot gets one verdict, sent once or as identical
    /// copies, so the outcome may not depend on the order: 0 and 8 decode
    /// and fold, 1 fails to decode, 2 decodes to non-finite values, 3 is
    /// handed over raw and folds, 9 raw and poisoned, 4 is shed, 5's
    /// frames are broken, 6 hangs up and 7 never answers. Around them:
    /// stale output of an earlier attempt (0) and round (8), and ids the
    /// broadcast never reached (10) or that are not registered at all (99).
    fn scenario() -> Vec<Event> {
        vec![
            msg(0, 100),
            msg(0, 100),
            msg(1, 10),
            msg(2, 20),
            msg(8, 40),
            Event::Raw {
                id: 3,
                poisoned: false,
            },
            Event::Raw {
                id: 9,
                poisoned: true,
            },
            Event::Shed(4),
            Event::Shed(4),
            Event::Garbage(5),
            Event::Garbage(5),
            Event::Gone(6),
            Event::Msg {
                id: 0,
                round: ROUND,
                attempt: ATTEMPT - 1,
                reserved: 7,
            },
            Event::Msg {
                id: 8,
                round: ROUND - 1,
                attempt: ATTEMPT,
                reserved: 5,
            },
            msg(10, 3),
            msg(99, 1),
            Event::Raw {
                id: 10,
                poisoned: false,
            },
            Event::Shed(10),
            Event::Garbage(99),
            Event::Gone(10),
        ]
    }

    /// The pool's work on `job`, with the verdict the scenario plans for
    /// its client and a decode time that makes the `f64` sum depend on the
    /// order it is added in.
    fn run_job(job: ingest::Job) -> ingest::Outcome {
        let verdict = match job.client_id {
            1 => Verdict::Reject(CodecError::UnexpectedEof),
            2 => Verdict::Quarantine(UpdateRejection::NonFinite),
            id => Verdict::Accept(Box::new(update(id as f32))),
        };
        ingest::Outcome {
            seq: job.seq,
            client_id: job.client_id,
            samples: job.samples,
            train_s: job.train_s,
            compress_s: job.compress_s,
            raw_bytes: job.raw_bytes,
            wire_bytes: job.wire_bytes,
            reserved: job.reserved,
            verdict,
            decompress_s: 0.1 + 1e-3 * job.client_id as f64,
        }
    }

    /// `id` opened on a broadcast to every registered client that reached
    /// those `reached` marks.
    fn open<'a>(
        id: (usize, usize),
        reached: Vec<bool>,
        cutoff: Option<Instant>,
        global: &'a Arc<StateDict>,
        metrics: &'a mut RoundMetrics,
    ) -> Attempt<'a> {
        let cohort = reached.len();
        let sent = BroadcastOutcome {
            reached,
            bytes_down: 0,
        };
        Attempt::new(
            id,
            cohort,
            &sent,
            cutoff,
            Aggregation::Mean,
            global,
            metrics,
        )
        .expect("the broadcast reached someone")
    }

    /// Play the scenario with uplinks and pool outcomes interleaved as
    /// `pick` chooses — any outcome after its submit — checking at every
    /// step that each settle hands back exactly its own reservation.
    /// Returns the round's row and the folded model.
    fn play(mut pick: impl FnMut(usize) -> usize) -> (RoundMetrics, StateDict) {
        let global = Arc::new(update(0.0));
        let mut metrics = RoundMetrics::default();
        let reached = (0..REGISTERED).map(|id| id < REACHED).collect();
        let mut core = open((ROUND, ATTEMPT), reached, None, &global, &mut metrics);
        let mut events = scenario();
        let reserved_total: usize = events
            .iter()
            .map(|e| match e {
                Event::Msg { reserved, .. } => *reserved,
                _ => 0,
            })
            .sum();
        let mut running: Vec<ingest::Job> = Vec::new();
        // The pool's decode times in settle order; a raw hand-over settles
        // in line and adds 0.
        let mut decode_times = Vec::new();
        let mut released = 0;
        while !events.is_empty() || !running.is_empty() {
            let k = pick(events.len() + running.len());
            let (got, want) = if k < events.len() {
                let event = events.remove(k);
                match core.on_uplink(uplink(event)).expect("no fold error") {
                    Step::Submit(job) => {
                        assert!(
                            matches!(event, Event::Msg { reserved, .. } if reserved == job.reserved)
                        );
                        assert_eq!(job.samples, job.client_id + 1, "a stale message got in");
                        running.push(job);
                        (0, 0)
                    }
                    // A discarded message hands its own reservation back; a
                    // raw hand-over holds none.
                    Step::Release(bytes) => match event {
                        Event::Msg { reserved, .. } => (bytes, reserved),
                        _ => (bytes, 0),
                    },
                }
            } else {
                let out = run_job(running.swap_remove(k - events.len()));
                let want = out.reserved;
                decode_times.push(out.decompress_s);
                (core.on_outcome(out).expect("no fold error"), want)
            };
            assert_eq!(got, want, "a settle released other bytes than its own");
            released += got;
        }
        assert_eq!(core.in_flight(), 0);
        // Client 7 never answered: only the deadline or a closed transport
        // ends this attempt's receiving.
        assert!(core.waiting());
        let model = core
            .finish(3, true)
            .expect("quorum of three")
            .expect("aggregate");
        assert_eq!(released, reserved_total, "every reservation back once");
        let settled: f64 = decode_times.iter().sum();
        assert_eq!(metrics.decompress_s_total.to_bits(), settled.to_bits());
        (metrics, model)
    }

    /// What every order must settle to: the planned verdicts, and the fold
    /// of 0, 3 and 8 alone.
    fn planned() -> (FaultCounters, StateDict) {
        let verdicts = FaultCounters {
            delivered: 3,
            rejected: 2,
            quarantined: 2,
            shed: 1,
            late: 2,
            // Registered, in the cohort, but not reached by the broadcast.
            dropped: 2,
            ..FaultCounters::default()
        };
        let mut reference = RobustFold::new(Aggregation::Mean, &Arc::new(update(0.0)));
        for id in [0, 3, 8] {
            reference
                .fold(id, Box::new(update(id as f32)), id + 1)
                .expect("fold");
        }
        (verdicts, reference.finish().expect("finish").model)
    }

    #[test]
    fn arrival_order_and_its_reverse_settle_to_the_planned_verdicts() {
        let (verdicts, folded) = planned();
        // Uplinks in scenario order, outcomes only once every uplink is in.
        let (metrics, model) = play(|_| 0);
        assert_eq!(metrics.faults, verdicts);
        assert_eq!(metrics.quarantine_reasons.non_finite, 2);
        assert_eq!(model, folded);
        // Uplinks last-first, every outcome straight after its submit.
        let (metrics, model) = play(|n| n - 1);
        assert_eq!((metrics.faults, model), (verdicts, folded));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any interleaving of the scenario's uplinks and pool outcomes
        /// (each outcome after its submit): one pick per step, 24 steps.
        #[test]
        fn every_interleaving_of_an_attempt_settles_to_the_same_verdicts(
            picks in collection::vec(any::<u64>(), 24)
        ) {
            let (verdicts, folded) = planned();
            let mut picks = picks.into_iter();
            let (metrics, model) = play(|n| {
                let pick = picks.next().expect("one pick per step");
                (pick % n as u64) as usize
            });
            let f = metrics.faults;
            prop_assert_eq!(f, verdicts);
            prop_assert_eq!(f.delivered + f.rejected + f.quarantined + f.shed + f.late, REACHED);
            prop_assert_eq!(model, folded);
        }
    }

    /// What `finish(quorum, last)` decides after one event per reached
    /// client: `Ok(true)` for the aggregate, `Ok(false)` for a retry.
    fn decide(events: &[Event], quorum: usize, last: bool) -> Result<bool, FlError> {
        let global = Arc::new(update(0.0));
        let mut metrics = RoundMetrics::default();
        let reached = vec![true; events.len()];
        let mut core = open((ROUND, ATTEMPT), reached, None, &global, &mut metrics);
        for &event in events {
            assert!(matches!(
                core.on_uplink(uplink(event)),
                Ok(Step::Release(0))
            ));
        }
        core.finish(quorum, last).map(|agg| agg.is_some())
    }

    #[test]
    fn finish_aggregates_retries_or_names_why_the_round_starved() {
        let raw = Event::Raw {
            id: 0,
            poisoned: false,
        };
        let shed = [raw, Event::Shed(1)];
        assert_eq!(decide(&shed, 1, true), Ok(true));
        assert_eq!(decide(&shed, 2, false), Ok(false));
        let overloaded = FlError::Overloaded {
            round: ROUND,
            shed: 1,
            delivered: 1,
            required: 2,
        };
        assert_eq!(decide(&shed, 2, true), Err(overloaded));
        let not_met = FlError::QuorumNotMet {
            round: ROUND,
            delivered: 1,
            required: 2,
        };
        assert_eq!(decide(&[raw, Event::Gone(1)], 2, true), Err(not_met));
    }

    #[test]
    fn the_broadcast_decides_dropped_and_a_round_that_reached_nobody_fails() {
        let global = Arc::new(update(0.0));
        let mut metrics = RoundMetrics::default();
        let sent = BroadcastOutcome {
            reached: vec![false, true, false],
            bytes_down: 7,
        };
        let core = Attempt::new(
            (2, 0),
            3,
            &sent,
            None,
            Aggregation::Mean,
            &global,
            &mut metrics,
        );
        assert!(core.expect("one client reached").waiting());
        assert_eq!((metrics.faults.dropped, metrics.bytes_down_wire), (2, 7));
        // A rejoin may report more clients reached than the cohort named.
        let core = Attempt::new(
            (2, 1),
            0,
            &sent,
            None,
            Aggregation::Mean,
            &global,
            &mut metrics,
        );
        assert!(core.is_ok());
        assert_eq!((metrics.faults.dropped, metrics.bytes_down_wire), (0, 14));
        let nobody = BroadcastOutcome {
            reached: vec![false; 3],
            bytes_down: 0,
        };
        let core = Attempt::new(
            (2, 1),
            3,
            &nobody,
            None,
            Aggregation::Mean,
            &global,
            &mut metrics,
        );
        assert_eq!(core.err(), Some(FlError::AllClientsDead { round: 2 }));
    }

    #[test]
    fn an_outcome_frees_its_bytes_while_an_earlier_job_is_still_decoding() {
        let global = Arc::new(update(0.0));
        let mut metrics = RoundMetrics::default();
        let mut core = open((ROUND, ATTEMPT), vec![true; 4], None, &global, &mut metrics);
        let [first, later] = [msg(0, 100), msg(3, 30)].map(|event| {
            match core.on_uplink(uplink(event)).expect("no fold error") {
                Step::Submit(job) => job,
                Step::Release(_) => panic!("an admitted message is submitted"),
            }
        });
        assert_eq!(core.on_outcome(run_job(later)), Ok(30));
        assert_eq!(core.in_flight(), 1);
        assert_eq!(core.on_outcome(run_job(first)), Ok(100));
        assert_eq!(core.in_flight(), 0);
    }

    #[test]
    fn the_driver_wakes_at_the_cutoff_or_to_settle() {
        let now = Instant::now();
        let global = Arc::new(update(0.0));
        let mut metrics = RoundMetrics::default();
        let cutoff = now + Duration::from_secs(1);
        let mut core = open((0, 0), vec![true], Some(cutoff), &global, &mut metrics);
        assert_eq!(core.wake_at(now), Some(cutoff), "nothing to settle");
        let step = core.on_uplink(uplink(Event::Msg {
            id: 0,
            round: 0,
            attempt: 0,
            reserved: 0,
        }));
        assert!(matches!(step, Ok(Step::Submit(_))));
        assert_eq!(core.wake_at(now), Some(now + SETTLE_POLL), "poll first");
        assert_eq!(core.wake_at(cutoff), Some(cutoff), "never past the cutoff");
        assert!(!core.expired(now) && core.expired(cutoff));
    }
}
