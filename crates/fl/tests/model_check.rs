//! Deterministic-interleaving model check of the overload path.
//!
//! The system under test is the reserve → admit → forward → settle →
//! release machinery from [`fedsz_fl::budget`] (`Ledger`, `RoundGate`)
//! plus a collector/worker lane pair shaped like the
//! [`fedsz_fl::ingest`] outcome lane. The harness runs it with real
//! threads over the primitives in [`fedsz_fl::sync`]:
//!
//! * Without the `interleave` cargo feature, those primitives are plain
//!   `std::sync` (and `fedsz_fl::sync::channel` built on them), and
//!   [`overload_round`] is an ordinary concurrency smoke test (this is what
//!   the TSan job runs).
//! * With `--features interleave`, they are the model checker's shims,
//!   and the gated tests below explore every thread interleaving the
//!   bounded-preemption scheduler can reach, asserting that **no**
//!   schedule deadlocks, loses a wakeup, settles out of sequence order,
//!   or leaks a ledger reservation. The channel's own contract — FIFO,
//!   disconnect, and a timed receive that can both time out and deliver —
//!   is explored the same way, and so is the TCP server's teardown: a
//!   sender parked on a full queue is woken by the receiver's drop.
//!
//! The last test re-seeds the PR-7 overload-path bug (a blocking untimed
//! `recv()` on the outcome lane before the job was handed to the worker,
//! taken while the collector's bookkeeping lock is held) and shows it is
//! caught twice over: the model checker reports the deadlock, and
//! fedsz-lint rule R8 (`no-blocking-while-locked`) flags the source
//! pattern. The bug exists only inside this file — product code carries
//! the fixed ordering.

#[cfg(feature = "interleave")]
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex as StdMutex};
#[cfg(feature = "interleave")]
use std::time::{Duration, Instant};

use fedsz_fl::budget::{Ledger, RoundGate};
use fedsz_fl::sync::channel::bounded;
#[cfg(feature = "interleave")]
use fedsz_fl::sync::channel::{RecvError, RecvTimeoutError, SendError};
use fedsz_fl::sync::thread;

/// Ledger capacity for the modeled round: fits one 60-byte frame, never
/// two, so the second reserver always backpressures until a settle.
const CAP: usize = 100;
/// Frame size for the two well-behaved clients.
const FRAME: usize = 60;
/// Frame size of the oversized client: > CAP, deterministically shed.
const OVERSIZED: usize = 150;

/// What one full modeled round observed; identical on every schedule
/// except for `settled`'s order (arrival order is schedule-dependent;
/// its *content* is not).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RoundOutcome {
    /// Clients shed before reserving (would_never_fit).
    shed: Vec<usize>,
    /// Clients refused by the round gate (duplicate frames), released
    /// without forwarding.
    refused: Vec<usize>,
    /// Clients settled, in settle order (seq order by construction).
    settled: Vec<usize>,
}

/// One modeled overload round: three clients (client 0 sends a duplicate
/// frame, client 2 is oversized), a collector that admits/fowards/settles
/// in contiguous seq order, and one decode worker. Returns what happened;
/// panics on any violated invariant, which under the model checker turns
/// the offending schedule into a reported failure.
fn overload_round() -> RoundOutcome {
    let ledger = Arc::new(Ledger::new(Some(CAP)));
    let gate = Arc::new(RoundGate::new(3));
    gate.open(0, 0, &[0, 1, 2]);

    // Admission lane (client -> collector), job lane (collector -> worker),
    // outcome lane (worker -> collector). All bounded, all capacity 1, so
    // every handoff can block and the scheduler can interleave at each.
    let (admit_tx, admit_rx) = bounded::<(usize, usize)>(1);
    let (job_tx, job_rx) = bounded::<(u64, usize, usize)>(1);
    let (out_tx, out_rx) = bounded::<(u64, usize, usize)>(1);

    let worker = thread::spawn(move || {
        // Stand-in for decode+validate: echo the job as its outcome.
        while let Ok(job) = job_rx.recv() {
            out_tx.send(job).expect("collector outlives the worker");
        }
    });

    let ledger_c = Arc::clone(&ledger);
    let gate_c = Arc::clone(&gate);
    let collector = thread::spawn(move || {
        // 3 admission messages reach the collector: client 0 twice
        // (duplicate) and client 1 once; client 2 is shed before sending.
        let mut refused = Vec::new();
        let mut settled = Vec::new();
        let mut seq = 0u64;
        for _ in 0..3 {
            let (client, size) = admit_rx.recv().expect("clients outlive admission");
            if gate_c.admit(client, 0, 0) {
                job_tx.send((seq, client, size)).expect("worker alive");
                let (oseq, oclient, osize) = out_rx.recv().expect("worker alive");
                // The settle loop's core invariant: outcomes settle in
                // contiguous submission-sequence order.
                assert_eq!(oseq, seq, "settled out of sequence order");
                settled.push(oclient);
                ledger_c.release(osize);
                seq += 1;
            } else {
                // Replayed frame: drop it, but its reservation must still
                // be returned or the ledger leaks.
                refused.push(client);
                ledger_c.release(size);
            }
        }
        (refused, settled)
        // job_tx drops here: the worker drains and exits.
    });

    let shed_log = Arc::new(StdMutex::new(Vec::new()));
    let clients: Vec<_> = [(0usize, FRAME, 2u32), (1, FRAME, 1), (2, OVERSIZED, 1)]
        .into_iter()
        .map(|(id, size, frames)| {
            let ledger = Arc::clone(&ledger);
            let admit_tx = admit_tx.clone();
            let shed_log = Arc::clone(&shed_log);
            thread::spawn(move || {
                for _ in 0..frames {
                    if ledger.would_never_fit(size) {
                        shed_log.lock().expect("shed log").push(id);
                        return;
                    }
                    // Blocks (timed-polling on the ledger condvar) while
                    // the other client's frame is in flight.
                    assert!(ledger.reserve(size), "ledger closed unexpectedly");
                    admit_tx.send((id, size)).expect("collector alive");
                }
            })
        })
        .collect();
    drop(admit_tx);

    for c in clients {
        c.join().expect("client ok");
    }
    let (refused, settled) = collector.join().expect("collector ok");
    worker.join().expect("worker ok");

    assert_eq!(
        ledger.in_use(),
        0,
        "every reservation must be released by round end"
    );
    let mut shed = shed_log.lock().expect("shed log").clone();
    shed.sort_unstable();
    RoundOutcome {
        shed,
        refused,
        settled,
    }
}

/// The schedule-independent facts every run must agree on.
fn check_outcome(o: &RoundOutcome) {
    assert_eq!(o.shed, vec![2], "shedding is a pure function of size");
    assert_eq!(o.refused, vec![0], "exactly the duplicate frame is refused");
    let mut settled = o.settled.clone();
    settled.sort_unstable();
    assert_eq!(settled, vec![0, 1], "both admitted clients settle");
}

/// Fallback smoke: one real-threads run of the harness. This is the
/// configuration the TSan job executes (no `interleave` feature needed);
/// with the feature on it still runs, on the shims' std-fallback path.
#[test]
fn overload_round_smoke() {
    check_outcome(&overload_round());
}

/// Exhaustive (bounded-preemption) exploration of the round. Every
/// schedule must uphold every invariant `overload_round` asserts; across
/// schedules the shed/refused/settled *content* must be identical while
/// the settle *order* must actually vary (proof the exploration reaches
/// genuinely different interleavings).
#[cfg(feature = "interleave")]
#[test]
fn model_check_explores_overload_round() {
    let outcomes: Arc<StdMutex<BTreeSet<RoundOutcome>>> = Arc::new(StdMutex::new(BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    let report = interleave::try_explore(
        interleave::Config {
            max_schedules: 4000,
            ..interleave::Config::default()
        },
        move || {
            let o = overload_round();
            check_outcome(&o);
            sink.lock().expect("outcome sink").insert(o);
        },
    )
    .expect("no schedule may deadlock, lose a wakeup, or leak a reservation");

    println!(
        "model-check: explored {} schedules (max decision depth {}, truncated: {})",
        report.schedules, report.max_decision_depth, report.truncated
    );
    assert!(
        report.schedules >= 1000,
        "exploration must cover at least 1000 distinct schedules: {report:?}"
    );
    let outcomes = outcomes.lock().expect("outcome sink");
    let orders: BTreeSet<&Vec<usize>> = outcomes.iter().map(|o| &o.settled).collect();
    println!(
        "model-check: {} distinct settle orders observed",
        orders.len()
    );
    assert!(
        orders.contains(&vec![0, 1]) && orders.contains(&vec![1, 0]),
        "exploration must reach both admission orders: {orders:?}"
    );
}

/// Exploration bounds for the small channel-contract models below.
#[cfg(feature = "interleave")]
fn small() -> interleave::Config {
    interleave::Config {
        max_schedules: 2048,
        ..interleave::Config::default()
    }
}

/// A 1-slot channel between a producer and a consumer stays FIFO, and the
/// consumer sees the disconnect once the producer is gone, on every
/// schedule.
#[cfg(feature = "interleave")]
#[test]
fn channel_is_fifo_and_reports_disconnect_on_every_schedule() {
    let report = interleave::try_explore(small(), || {
        let (tx, rx) = bounded::<u8>(1);
        let producer = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).expect("receiver alive");
            }
            // tx drops here: the consumer must observe the disconnect.
        });
        let consumer = thread::spawn(move || {
            let got: Vec<u8> = (0..3).map(|_| rx.recv().expect("sender alive")).collect();
            assert_eq!(got, vec![0, 1, 2], "bounded channel must stay FIFO");
            assert_eq!(rx.recv(), Err(RecvError));
        });
        producer.join().expect("producer ok");
        consumer.join().expect("consumer ok");
    })
    .expect("a 1-slot channel between two threads has no bad interleavings");
    assert!(report.schedules > 1, "{report:?}");
}

/// The TCP server's teardown contract. A reader is parked on the full
/// event queue with an update that holds a ledger reservation; the server
/// closes the ledger and drops its receiver. On every schedule the reader
/// gets the update back, releases its reservation, and nothing deadlocks.
#[cfg(feature = "interleave")]
#[test]
fn model_check_teardown_wakes_a_parked_sender() {
    /// An update as far as the ledger is concerned.
    #[derive(Debug)]
    struct Msg {
        reserved: usize,
    }
    let report = interleave::try_explore(small(), || {
        let ledger = Arc::new(Ledger::new(Some(CAP)));
        let (tx, rx) = bounded::<Msg>(1);
        tx.send(Msg { reserved: 0 }).expect("receiver alive"); // now full
        assert!(ledger.reserve(FRAME));
        let reader = {
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                // Nothing ever drains the queue, so only the teardown can
                // end this send.
                let Err(SendError(msg)) = tx.send(Msg { reserved: FRAME }) else {
                    panic!("a send to a full, never-drained queue succeeded");
                };
                ledger.release(msg.reserved);
            })
        };
        let server = {
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                ledger.close();
                drop(rx);
            })
        };
        server.join().expect("server ok");
        reader.join().expect("reader ok");
        assert_eq!(ledger.in_use(), 0, "the unsent update's reservation leaked");
    })
    .expect("no teardown schedule may deadlock or leak a reservation");
    println!(
        "model-check: teardown explored {} schedules (truncated: {})",
        report.schedules, report.truncated
    );
    assert!(report.schedules > 1 && !report.truncated, "{report:?}");
}

/// The sender never sends: the scheduler must be able to fire the timed
/// receive's timeout while the sender half is still alive, and that must
/// be the only outcome.
#[cfg(feature = "interleave")]
#[test]
fn recv_timeout_can_give_up_inside_a_model() {
    let outcomes = Arc::new(StdMutex::new(BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    interleave::try_explore(small(), move || {
        let (tx, rx) = bounded::<u8>(1);
        let consumer = thread::spawn(move || {
            rx.recv_deadline(Instant::now() + Duration::from_millis(5))
                == Err(RecvTimeoutError::Timeout)
        });
        let timed_out = consumer.join().expect("consumer ok");
        drop(tx);
        sink.lock().expect("outcome sink").insert(timed_out);
    })
    .expect("a timed recv on a quiet channel must not fail");
    assert_eq!(
        *outcomes.lock().expect("outcome sink"),
        BTreeSet::from([true]),
        "with no sender activity the only outcome is a timeout"
    );
}

/// The collector's settle poll: hand a job to the worker, then wait for
/// its outcome with the timed receive a poll at a time, the way
/// `collect_attempt` waits `SETTLE_POLL` and goes back to waiting when the
/// poll expires. The explorer must reach both "a poll timed out before
/// the outcome arrived" and "the outcome arrived within the first poll",
/// and no schedule may deadlock or diverge on replay.
#[cfg(feature = "interleave")]
#[test]
fn model_check_settle_poll_reaches_timeout_and_arrival() {
    const SETTLE_POLL: Duration = Duration::from_millis(5);
    let outcomes = Arc::new(StdMutex::new(BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    // Two fired polls per thread already separate "timed out first" from
    // "arrived first"; the small budget keeps the exploration exhaustive.
    let cfg = interleave::Config {
        max_timeouts: 2,
        ..small()
    };
    let report = interleave::try_explore(cfg, move || {
        let (job_tx, job_rx) = bounded::<u64>(1);
        let (out_tx, out_rx) = bounded::<u64>(1);
        let worker = thread::spawn(move || {
            while let Ok(job) = job_rx.recv() {
                out_tx.send(job).expect("collector alive");
            }
        });
        job_tx.send(7).expect("worker alive");
        let mut polls_expired = 0usize;
        let out = loop {
            match out_rx.recv_deadline(Instant::now() + SETTLE_POLL) {
                Ok(out) => break out,
                Err(RecvTimeoutError::Timeout) => polls_expired += 1,
                Err(RecvTimeoutError::Disconnected) => panic!("worker hung up mid-job"),
            }
        };
        assert_eq!(out, 7, "the outcome is the job's own");
        drop(job_tx);
        worker.join().expect("worker ok");
        sink.lock().expect("outcome sink").insert(polls_expired > 0);
    })
    .expect("no schedule of the settle poll may fail or diverge");
    println!(
        "model-check: settle poll explored {} schedules (truncated: {})",
        report.schedules, report.truncated
    );
    assert!(!report.truncated, "{report:?}");
    assert_eq!(
        *outcomes.lock().expect("outcome sink"),
        BTreeSet::from([false, true]),
        "exploration must reach both a fired poll timeout and a prompt arrival"
    );
}

/// Re-seed the PR-7 bug: the collector blocks on the outcome lane with an
/// untimed `recv()` *before* handing the job to the worker (and while its
/// bookkeeping lock is held). The worker is symmetrically blocked on the
/// job lane, so no schedule can make progress — the model checker must
/// report the deadlock on the very first execution.
#[cfg(feature = "interleave")]
#[test]
fn model_check_catches_seeded_pr7_blocking_recv() {
    let err = interleave::try_explore(interleave::Config::default(), || {
        let bookkeeping = Arc::new(fedsz_fl::sync::Mutex::new(0u64));
        let (job_tx, job_rx) = bounded::<u64>(1);
        let (out_tx, out_rx) = bounded::<u64>(1);

        let worker = thread::spawn(move || {
            while let Ok(job) = job_rx.recv() {
                out_tx.send(job).expect("collector alive");
            }
        });

        let state = Arc::clone(&bookkeeping);
        let collector = thread::spawn(move || {
            let mut seq = state.lock().expect("bookkeeping");
            // BUG (PR-7 shape): wait for the outcome before the worker was
            // ever given the job, holding `seq`'s lock across the wait.
            let Ok(out) = out_rx.recv() else { return };
            job_tx.send(*seq).expect("worker alive");
            *seq = out;
        });

        let _ = collector.join();
        let _ = worker.join();
    })
    .expect_err("the reordered collector must deadlock");
    println!("model-check: seeded PR-7 bug reported as: {err}");
    assert!(err.message.contains("deadlock"), "{err}");
    assert_eq!(
        err.schedules_before, 0,
        "the bug is unconditional — schedule 0 already exhibits it: {err}"
    );
}

/// The same seeded bug, caught statically: R8 (`no-blocking-while-locked`)
/// flags a blocking `recv()` under a live guard without running anything.
#[test]
fn seeded_pr7_blocking_recv_fires_lint_r8() {
    let seeded = r#"
pub fn collector_loop(state: &Mutex<u64>, out_rx: &Receiver<u64>, job_tx: &Sender<u64>) {
    let mut seq = lock(state);
    let Ok(out) = out_rx.recv() else { return };
    let _ = job_tx.send(*seq);
    *seq = out;
}
"#;
    let diags = fedsz_lint::lint_sources(
        &[("fl/src/collector.rs".to_owned(), seeded.to_owned())],
        &[],
        &fedsz_lint::Config::default(),
    );
    assert_eq!(diags.len(), 1, "exactly the blocking recv: {diags:?}");
    assert_eq!(diags[0].rule, "no-blocking-while-locked", "{diags:?}");
    assert_eq!(diags[0].line, 4, "{diags:?}");
}
