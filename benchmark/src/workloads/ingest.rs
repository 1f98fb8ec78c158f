//! `server_ingest`: one server round with no training and no sockets.
//!
//! A round takes a cohort of distinct, pre-encoded `wire::Frame::Update`s
//! through the server's own steps — `Ledger::reserve` → `wire::decode` →
//! `IngestPool::submit` (one worker, at most two jobs in flight) → `recv` →
//! `StreamingFedAvg::fold` → `Ledger::release`, then `finish` — and must
//! reproduce, bit for bit, a reference aggregate computed serially in the
//! reverse order during set-up.

use std::sync::Arc;
use std::time::Instant;

use fedsz::FedSzConfig;
use fedsz_fl::ingest::{ingest_update, IngestPool, Job, Verdict};
use fedsz_fl::wire::{self, Frame};
use fedsz_fl::{Ledger, StreamingFedAvg};
use fedsz_models::ModelKind;
use fedsz_tensor::{SplitMix64, StateDict};

use super::codec::EdgeCodec;
use super::{bit_identical, peak_rss_mb, timed_setups, Checks, Options, Report};
use crate::stats::median;
use crate::trace::Tracer;

/// Distinct updates per round. Fixed, never scaled by core count.
const UPDATES_PER_ROUND: usize = 8;
const WARMUP_ROUNDS: usize = 1;
const MIN_ROUNDS: usize = 3;
/// Ops on the global model, after the rounds, for the codec metrics.
const EDGE_CODEC_OPS: usize = 8;
/// Jobs the driver keeps in the pool at once: one decoding, one queued.
const MAX_IN_FLIGHT: usize = 2;
/// Standard deviation of the seeded perturbation that makes each client's
/// update distinct from the global model.
const PERTURBATION_STD: f64 = 0.002;

/// A cohort of encoded updates with everything a round needs, reused across
/// rounds as a server reuses its pool and ledger.
pub struct IngestRig {
    pub global: Arc<StateDict>,
    /// One encoded `Frame::Update` per client.
    pub frames: Vec<Vec<u8>>,
    /// Σ compressed payload bytes of the cohort (what FL counts as on-wire).
    pub payload_bytes: usize,
    reference: StateDict,
    pool: IngestPool,
    ledger: Ledger,
    /// `Outcome::decompress_s` of every update settled so far.
    pub decode_s: Vec<f64>,
    pub outcomes: usize,
    pub accepted: usize,
    /// Highest `Ledger::in_use()` seen right after a reserve.
    pub peak_in_use: usize,
}

impl IngestRig {
    /// Perturb, compress and frame `n_updates` copies of `global`, and fold
    /// them serially in reverse order into the reference aggregate.
    pub fn build(
        global: StateDict,
        codec: &FedSzConfig,
        n_updates: usize,
        seed: u64,
    ) -> Result<IngestRig, String> {
        let mut rng = SplitMix64::new(seed ^ 0x1A6E_57ED_C0DE);
        let mut payload_bytes = 0;
        let frames: Vec<Vec<u8>> = (0..n_updates)
            .map(|client_id| {
                let mut update = global.clone();
                for entry in update.entries_mut() {
                    for v in entry.tensor.data_mut() {
                        *v += rng.normal_with(0.0, PERTURBATION_STD) as f32;
                    }
                }
                let payload = fedsz::compress(&update, codec);
                payload_bytes += payload.nbytes();
                // Timings stay out of the frame so the same seed gives the
                // same bytes.
                wire::encode(&Frame::Update {
                    round: 0,
                    attempt: 0,
                    client_id,
                    samples: 8 + client_id,
                    train_s: 0.0,
                    compress_s: 0.0,
                    raw_bytes: update.nbytes(),
                    payload,
                })
            })
            .collect();

        let mut acc = StreamingFedAvg::new(&global);
        for bytes in frames.iter().rev() {
            let Frame::Update {
                samples, payload, ..
            } = wire::decode(bytes).map_err(|e| e.to_string())?
            else {
                return Err("reference: not an update frame".into());
            };
            match ingest_update(&payload, &global, samples).0 {
                Verdict::Accept(sd) => acc.fold(&sd, samples).map_err(|e| e.to_string())?,
                other => return Err(format!("reference: update not accepted: {other:?}")),
            }
        }
        let reference = acc.finish().map_err(|e| e.to_string())?;

        let largest = frames.iter().map(Vec::len).max().unwrap_or(0);
        Ok(IngestRig {
            global: Arc::new(global),
            frames,
            payload_bytes,
            reference,
            pool: IngestPool::new(1, n_updates),
            ledger: Ledger::new(Some(largest * MAX_IN_FLIGHT)),
            decode_s: Vec::new(),
            outcomes: 0,
            accepted: 0,
            peak_in_use: 0,
        })
    }

    /// One round. Returns its wall time (first `reserve` → `finish` returns)
    /// and the verdict of its checks, which run after the clock stops.
    pub fn round(&mut self, tracer: &mut Tracer) -> (f64, Result<(), String>) {
        let mut verdict = Ok(());
        let mut note = |why: String| {
            if verdict.is_ok() {
                verdict = Err(why);
            }
        };
        tracer.next_op();
        let op = tracer.open("server_ingest.round");
        let t0 = Instant::now();

        let s = tracer.open("fl.aggregate.new");
        let mut acc = StreamingFedAvg::new(&self.global);
        tracer.close(s);

        let mut in_flight = 0;
        for seq in 0..self.frames.len() {
            if in_flight == MAX_IN_FLIGHT {
                self.settle(&mut acc, tracer).unwrap_or_else(&mut note);
                in_flight -= 1;
            }
            let len = self.frames[seq].len();
            let s = tracer.open("fl.budget.reserve");
            let reserved = self.ledger.reserve(len);
            tracer.close(s);
            if !reserved {
                note(format!("ledger refused {len} bytes"));
                continue;
            }
            self.peak_in_use = self.peak_in_use.max(self.ledger.in_use());

            let s = tracer.open("fl.wire.decode");
            let frame = wire::decode(&self.frames[seq]);
            tracer.close(s);
            let Ok(Frame::Update {
                client_id,
                samples,
                train_s,
                compress_s,
                raw_bytes,
                payload,
                ..
            }) = frame
            else {
                self.ledger.release(len);
                note(format!("frame {seq} did not decode to an update"));
                continue;
            };
            let s = tracer.open("fl.ingest.submit");
            self.pool.submit(Job {
                seq: seq as u64,
                client_id,
                wire_bytes: payload.nbytes(),
                payload,
                samples,
                train_s,
                compress_s,
                raw_bytes,
                reserved: len,
                global: Arc::clone(&self.global),
            });
            tracer.close(s);
            in_flight += 1;
        }
        for _ in 0..in_flight {
            self.settle(&mut acc, tracer).unwrap_or_else(&mut note);
        }

        let s = tracer.open("fl.aggregate.finish");
        let aggregate = acc.finish();
        tracer.close(s);
        let wall = t0.elapsed().as_secs_f64();

        let s = tracer.open("bench.verify");
        match aggregate {
            Ok(model) if bit_identical(&model, &self.reference) => {}
            Ok(_) => note("round aggregate differs from the serial reverse-order reference".into()),
            Err(e) => note(e.to_string()),
        }
        if self.ledger.in_use() != 0 {
            note(format!(
                "ledger holds {} bytes after the round",
                self.ledger.in_use()
            ));
        }
        tracer.close(s);
        tracer.close(op);
        (wall, verdict)
    }

    /// Wait for the next outcome, fold it, give its bytes back.
    fn settle(&mut self, acc: &mut StreamingFedAvg, tracer: &mut Tracer) -> Result<(), String> {
        let s = tracer.open("fl.ingest.recv_wait");
        let out = self.pool.recv();
        tracer.close(s);
        self.decode_s.push(out.decompress_s);
        self.outcomes += 1;
        let folded = match &out.verdict {
            Verdict::Accept(sd) => {
                self.accepted += 1;
                let s = tracer.open("fl.aggregate.fold");
                let folded = acc.fold(sd, out.samples).map_err(|e| e.to_string());
                tracer.close(s);
                folded
            }
            other => Err(format!("client {} not accepted: {other:?}", out.client_id)),
        };
        let s = tracer.open("fl.budget.release");
        self.ledger.release(out.reserved);
        tracer.close(s);
        folded
    }
}

pub fn run(opts: &Options) -> Report {
    let codec = FedSzConfig::with_rel_bound(1e-2);
    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();

    let (mut rig, setup_s) = timed_setups(opts, None, || {
        let global = ModelKind::MobileNetV2.synthesize(10, opts.seed);
        let mut rig = IngestRig::build(global, &codec, UPDATES_PER_ROUND, opts.seed)
            .unwrap_or_else(|why| panic!("server_ingest set-up failed: {why}"));
        for _ in 0..WARMUP_ROUNDS {
            let (_, verdict) = rig.round(&mut tracer);
            checks.record(UPDATES_PER_ROUND as u64, verdict);
        }
        rig
    });
    // Warm-up outcomes are checked above but are not measurements.
    rig.decode_s.clear();

    let (round_s, trace_overhead) = super::measure(opts, &mut tracer, MIN_ROUNDS, |tracer| {
        let (wall, verdict) = rig.round(tracer);
        checks.record(UPDATES_PER_ROUND as u64, verdict);
        wall
    });

    let edge = EdgeCodec::sample(&rig.global, codec, EDGE_CODEC_OPS, &mut tracer, &mut checks);

    let updates = (round_s.len() * UPDATES_PER_ROUND) as f64;
    let raw = rig.global.nbytes();
    let mut end_to_end = vec![
        ("setup_s", setup_s),
        (
            "compression_ratio",
            (raw * UPDATES_PER_ROUND) as f64 / rig.payload_bytes as f64,
        ),
        ("updates_per_s", updates / round_s.iter().sum::<f64>()),
        ("round_s", median(&round_s)),
        ("uplink_bytes_per_round", rig.payload_bytes as f64),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    end_to_end.extend(edge.metrics(raw, rig.payload_bytes as f64 / UPDATES_PER_ROUND as f64));
    let mut timings = vec![
        ("round_s", round_s),
        ("ingest_decode_s", rig.decode_s.clone()),
    ];
    timings.extend(edge.timings());

    let mut per_layer = Vec::new();
    if opts.trace {
        let global = Arc::clone(&rig.global); // the walk borrows the rig mutably
        let input = super::walk::WalkInput {
            model: &global,
            codec,
            fl: None,
            scratch: &opts.scratch,
            seed: opts.seed,
            trace_overhead,
        };
        per_layer = super::walk::per_layer(&input, Some(&mut rig), &mut tracer, &mut checks);
    }
    Report {
        checks,
        end_to_end,
        per_layer,
        timings,
        tracer,
    }
}
