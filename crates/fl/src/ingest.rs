//! Parallel server-side ingest: decompress + validate uplink payloads on a
//! bounded worker pool while the collector thread keeps draining the
//! transport.
//!
//! FedSZ puts decompression on the server's critical path every round
//! (paper §VIII-D): with N clients the serial server pays
//! N × (decompress + validate) on the single collector thread before it can
//! aggregate. This module moves that work off the collector: each uplink
//! payload becomes a [`Job`] tagged with a submission sequence number, a
//! pool of worker threads decodes and validates jobs concurrently, and the
//! collector settles the resulting [`Outcome`]s — counts them and folds
//! each accepted update — in **submission order** (the attempt core in
//! `attempt.rs` decides; `transport`'s `collect_attempt` drives it).
//!
//! # Determinism
//!
//! Parallel workers finish in arbitrary order, but nothing downstream may
//! observe that order: the `delivered` counter and the `f64` metric sums
//! must behave exactly as the serial server did, or the same seeds stop producing bit-identical runs. The
//! collector therefore buffers out-of-order outcomes and applies them only
//! in contiguous sequence order — reproducing serial arrival-order
//! semantics while the decode work itself runs concurrently. The aggregate
//! is unaffected either way — the exact fold is a pure function of the
//! multiset of accepted updates — so the kill-and-resume tests keep passing
//! unmodified.
//!
//! With `workers == 0` the pool degenerates to a serial in-line path on the
//! caller's thread — byte-for-byte the seed behaviour, used as the
//! reference in the determinism tests and as the baseline in the ingest
//! benchmark (`fedsz-bench --bin ingest`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use fedsz::{CodecError, CompressedUpdate};
use fedsz_tensor::StateDict;

use crate::sync::channel::{bounded, Receiver, Sender};
use crate::sync::thread::{Builder, JoinHandle};

use crate::validate::{validate_update, UpdateRejection};

/// Default worker count: one per available core (what `--ingest-workers`
/// means when the flag is absent). Falls back to 1 when the platform cannot
/// report its parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What server-side ingest decided about one uplink payload.
#[derive(Debug)]
pub enum Verdict {
    /// Decoded cleanly and passed semantic validation: ready for FedAvg.
    Accept(Box<StateDict>),
    /// Decoded cleanly but failed semantic validation against the broadcast
    /// model; carries which gate refused it (non-finite values, wrong
    /// structure, insane sample count) so the round metrics can break
    /// `quarantined` down per reason.
    Quarantine(UpdateRejection),
    /// The payload failed to decode; counted `rejected` on every
    /// transport. Carries the decoder's error for callers that ingest
    /// directly.
    Reject(CodecError),
}

/// One decode + validate work item.
#[derive(Debug)]
pub struct Job {
    /// Collector-assigned submission sequence number, starting at 0 each
    /// round attempt. Outcomes are settled in this order.
    pub seq: u64,
    /// Client the payload came from.
    pub client_id: usize,
    /// The compressed update to decode.
    pub payload: CompressedUpdate,
    /// Sample count the client claims (checked by validation).
    pub samples: usize,
    /// Client-reported local training time (accounted on accept).
    pub train_s: f64,
    /// Client-reported compression time (accounted on accept).
    pub compress_s: f64,
    /// Uncompressed update size the client reported (accounted on accept).
    pub raw_bytes: usize,
    /// Size of `payload` on the wire (accounted on accept).
    pub wire_bytes: usize,
    /// Bytes this update holds reserved on the ingest
    /// [`Ledger`](crate::budget::Ledger); released by the collector once
    /// the outcome settles. 0 when budgeting is disabled.
    pub reserved: usize,
    /// The broadcast model this round's updates must match structurally.
    pub global: Arc<StateDict>,
}

/// Result of one [`Job`], carrying the job's bookkeeping back with it.
#[derive(Debug)]
// fedsz-lint: allow(dead-pub) -- returned by `IngestPool::recv`, which the ingest bench and benchmark call
pub struct Outcome {
    /// The job's submission sequence number.
    pub seq: u64,
    /// Client the payload came from.
    pub client_id: usize,
    /// Sample count the client claimed.
    pub samples: usize,
    /// Client-reported local training time.
    pub train_s: f64,
    /// Client-reported compression time.
    pub compress_s: f64,
    /// Uncompressed update size the client reported.
    pub raw_bytes: usize,
    /// Size of the payload on the wire.
    pub wire_bytes: usize,
    /// Ledger reservation carried over from the job, released at settle.
    pub reserved: usize,
    /// Accept / quarantine / reject.
    pub verdict: Verdict,
    /// Wall time of `fedsz::decompress` alone — validation excluded, and
    /// recorded for every decode attempt, not just accepted ones.
    pub decompress_s: f64,
}

/// Decode and validate one payload, timing the decompression alone.
///
/// This is the ingest routine shared by the worker pool and the serial
/// path, on every transport, so all paths account `decompress_s_total`
/// identically: the timer covers `fedsz::decompress` only (not validation)
/// and is charged for rejected and quarantined payloads too.
pub fn ingest_update(
    payload: &CompressedUpdate,
    global: &StateDict,
    samples: usize,
) -> (Verdict, f64) {
    let t = Instant::now();
    let decoded = fedsz::decompress(payload);
    let decompress_s = t.elapsed().as_secs_f64();
    let verdict = match decoded {
        // A payload that decodes is not yet trustworthy: it must also match
        // the broadcast model structurally, carry only finite values, and
        // declare a sane sample count — or one hostile client poisons the
        // aggregate.
        Ok(sd) => match validate_update(&sd, global, samples) {
            Ok(()) => Verdict::Accept(Box::new(sd)),
            Err(reason) => Verdict::Quarantine(reason),
        },
        Err(e) => Verdict::Reject(e),
    };
    (verdict, decompress_s)
}

fn run_job(job: Job) -> Outcome {
    let (verdict, decompress_s) = ingest_update(&job.payload, &job.global, job.samples);
    Outcome {
        seq: job.seq,
        client_id: job.client_id,
        samples: job.samples,
        train_s: job.train_s,
        compress_s: job.compress_s,
        raw_bytes: job.raw_bytes,
        wire_bytes: job.wire_bytes,
        reserved: job.reserved,
        verdict,
        decompress_s,
    }
}

enum Mode {
    /// `workers == 0`: jobs run in-line on the submitting thread; outcomes
    /// queue locally in submission order.
    Serial(VecDeque<Outcome>),
    /// Every worker pulls from one shared bounded job channel. Its bound,
    /// two jobs per worker, keeps the pool fed between collector wakeups
    /// without buffering a whole round of payloads, and is backpressure: a
    /// flooded pool stalls the collector rather than growing without bound.
    /// Results funnel into one bounded channel in completion order; its
    /// capacity covers one full round attempt so workers never stall on it
    /// in steady state, while a collector that stops draining stalls the
    /// pool instead of growing an unbounded queue.
    Pool {
        jobs: Sender<Job>,
        results: Receiver<Outcome>,
        workers: Vec<JoinHandle<()>>,
        /// The workers' cores, out of the codec's helper budget while they
        /// live: a decode on a worker, or a codec call on the collector,
        /// then runs on its own thread instead of adding a helper to
        /// threads that already fill the cores (DESIGN.md §14).
        cores: rayon::Reservation,
    },
}

/// A bounded decompress/validate worker pool with deterministic settlement.
///
/// `submit` hands a payload to the pool; `try_recv`/`recv` return finished
/// [`Outcome`]s in *completion* order — callers that need serial semantics
/// re-order by [`Outcome::seq`] (the attempt core does). The caller
/// is responsible for draining exactly as many outcomes as it submitted.
pub struct IngestPool {
    mode: Mode,
}

impl IngestPool {
    /// Spawn a pool with `workers` threads; `0` selects the serial in-line
    /// path. `outcome_capacity` bounds the finished-outcome queue — pass
    /// the number of outcomes one round attempt can produce (the cohort
    /// size); the pool clamps it to at least one slot per worker. The
    /// queue is bounded even in serial mode's VecDeque analogue sense:
    /// no configuration retains an unbounded channel. Until the pool drops,
    /// its workers hold up to `workers` spare cores out of the codec's
    /// helper budget (`rayon::reserve`), so codec calls in the process run
    /// on their callers' threads while the spare cores are taken.
    pub fn new(workers: usize, outcome_capacity: usize) -> Self {
        if workers == 0 {
            return Self {
                mode: Mode::Serial(VecDeque::new()),
            };
        }
        let cores = rayon::reserve(workers);
        let (results_tx, results_rx) = bounded::<Outcome>(outcome_capacity.max(workers));
        let (jobs_tx, jobs_rx) = bounded::<Job>(workers.saturating_mul(2));
        let workers = (0..workers)
            .map(|i| {
                let (jobs, results) = (jobs_rx.clone(), results_tx.clone());
                Builder::new()
                    .name(format!("fedsz-ingest-{i}"))
                    .spawn(move || {
                        while let Ok(job) = jobs.recv() {
                            // The receiver only disappears mid-run if the
                            // server is tearing down; drop the result then.
                            let _ = results.send(run_job(job));
                        }
                    })
                    // fedsz-lint: allow(no-panic-decode) -- thread spawn fails on OS resource exhaustion at startup, not on client bytes
                    .expect("spawn ingest worker")
            })
            .collect();
        Self {
            mode: Mode::Pool {
                jobs: jobs_tx,
                results: results_rx,
                workers,
                cores,
            },
        }
    }

    /// Hand one payload to the pool; the next idle worker takes it.
    /// Submission blocks while the job queue is full (serial mode: runs
    /// the job in-line instead).
    pub fn submit(&mut self, job: Job) {
        match &mut self.mode {
            Mode::Serial(done) => done.push_back(run_job(job)),
            // fedsz-lint: allow(no-panic-decode) -- worker threads outlive the pool by construction (Drop joins them); a closed job queue is a process bug, not peer input
            Mode::Pool { jobs, .. } => jobs.send(job).expect("ingest workers alive"),
        }
    }

    /// A finished outcome, if one is ready right now.
    pub(crate) fn try_recv(&mut self) -> Option<Outcome> {
        match &mut self.mode {
            Mode::Serial(done) => done.pop_front(),
            Mode::Pool { results, .. } => results.try_recv().ok(),
        }
    }

    /// Block until the next outcome. Callers must not request more outcomes
    /// than they submitted jobs (the pool would wait forever); the serial
    /// path panics in that case instead of hanging.
    pub fn recv(&mut self) -> Outcome {
        match &mut self.mode {
            // fedsz-lint: allow(no-panic-decode) -- documented contract: callers never over-drain; both arms fail only on internal misuse, unreachable from peer bytes
            Mode::Serial(done) => done.pop_front().expect("no outstanding ingest job"),
            // fedsz-lint: allow(no-panic-decode) -- same contract as above; the results channel closes only at teardown
            Mode::Pool { results, .. } => results.recv().expect("ingest workers alive"),
        }
    }
}

impl Drop for IngestPool {
    fn drop(&mut self) {
        if let Mode::Pool {
            jobs,
            workers,
            cores,
            ..
        } = std::mem::replace(&mut self.mode, Mode::Serial(VecDeque::new()))
        {
            drop(jobs); // closes the job queue: workers drain it and exit
            for h in workers {
                let _ = h.join();
            }
            drop(cores);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz::FedSzConfig;
    use fedsz_tensor::{Tensor, TensorKind};

    fn model() -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "w.weight",
            TensorKind::Weight,
            Tensor::from_vec((0..64).map(|i| i as f32 * 0.01).collect()),
        );
        sd.insert("w.bias", TensorKind::Bias, Tensor::from_vec(vec![0.5; 4]));
        sd
    }

    fn lossless(sd: &StateDict) -> CompressedUpdate {
        fedsz::compress(
            sd,
            &FedSzConfig {
                threshold: usize::MAX,
                ..FedSzConfig::default()
            },
        )
    }

    fn job(seq: u64, payload: CompressedUpdate, samples: usize, global: &Arc<StateDict>) -> Job {
        Job {
            seq,
            client_id: seq as usize,
            payload,
            samples,
            train_s: 0.0,
            compress_s: 0.0,
            raw_bytes: 0,
            wire_bytes: 0,
            reserved: 0,
            global: Arc::clone(global),
        }
    }

    #[test]
    fn ingest_update_classifies_and_times_every_attempt() {
        let global = model();
        let good = lossless(&global);

        let (v, dt) = ingest_update(&good, &global, 10);
        assert!(matches!(v, Verdict::Accept(_)));
        assert!(dt >= 0.0);

        // Semantic poison: decodes cleanly, fails validation — and still
        // reports its decompression time (the accounting-bug fix).
        let mut poisoned = global.clone();
        poisoned.entries_mut()[0].tensor.data_mut()[0] = f32::NAN;
        let (v, dt) = ingest_update(&lossless(&poisoned), &global, 10);
        assert!(matches!(v, Verdict::Quarantine(UpdateRejection::NonFinite)));
        assert!(dt > 0.0, "quarantined decode must be timed");

        // Corrupt bytes: decode failure.
        let mut bytes = good.into_bytes();
        bytes[0] ^= 0xFF;
        let (v, _) = ingest_update(&CompressedUpdate::from_bytes(bytes), &global, 10);
        assert!(matches!(v, Verdict::Reject(_)));

        // A claimed sample count of zero is quarantined, not accepted.
        let (v, _) = ingest_update(&lossless(&global), &global, 0);
        assert!(matches!(
            v,
            Verdict::Quarantine(UpdateRejection::BadSampleCount)
        ));
    }

    #[test]
    fn pool_returns_one_outcome_per_job_for_any_worker_count() {
        let global = Arc::new(model());
        for workers in [0usize, 1, 4] {
            let mut pool = IngestPool::new(workers, 8);
            let n = 8u64;
            for seq in 0..n {
                let payload = if seq % 3 == 2 {
                    let mut bytes = lossless(&global).into_bytes();
                    bytes[0] ^= 0xFF;
                    CompressedUpdate::from_bytes(bytes)
                } else {
                    lossless(&global)
                };
                pool.submit(job(seq, payload, 10, &global));
            }
            let mut outcomes: Vec<Outcome> = (0..n).map(|_| pool.recv()).collect();
            outcomes.sort_by_key(|o| o.seq);
            let seqs: Vec<u64> = outcomes.iter().map(|o| o.seq).collect();
            assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "workers={workers}");
            for o in &outcomes {
                if o.seq % 3 == 2 {
                    assert!(matches!(o.verdict, Verdict::Reject(_)), "workers={workers}");
                } else {
                    assert!(matches!(o.verdict, Verdict::Accept(_)), "workers={workers}");
                }
                assert!(o.decompress_s >= 0.0);
            }
        }
    }

    #[test]
    fn serial_pool_yields_outcomes_in_submission_order() {
        let global = Arc::new(model());
        let mut pool = IngestPool::new(0, 4);
        for seq in 0..4 {
            pool.submit(job(seq, lossless(&global), 5, &global));
        }
        for seq in 0..4 {
            assert_eq!(pool.try_recv().expect("ready in-line").seq, seq);
        }
        assert!(pool.try_recv().is_none());
    }

    #[test]
    fn bounded_outcome_queue_backpressures_without_deadlock() {
        // Outcome capacity far below the job count: workers stall on the
        // full outcome queue instead of growing it, and an interleaved
        // submit/drain loop still completes with nothing lost.
        let global = Arc::new(model());
        let mut pool = IngestPool::new(2, 1); // clamps to one slot per worker
        let mut seen = 0u64;
        for batch in 0..4u64 {
            for k in 0..4u64 {
                pool.submit(job(batch * 4 + k, lossless(&global), 5, &global));
            }
            for _ in 0..4 {
                assert!(matches!(pool.recv().verdict, Verdict::Accept(_)));
                seen += 1;
            }
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn accepted_state_dict_round_trips_bit_exact() {
        let global = Arc::new(model());
        let mut pool = IngestPool::new(2, 1);
        pool.submit(job(0, lossless(&global), 7, &global));
        let out = pool.recv();
        match out.verdict {
            Verdict::Accept(sd) => assert_eq!(*sd, *global),
            other => panic!("expected accept, got {other:?}"),
        }
    }
}
