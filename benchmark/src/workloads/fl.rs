//! `fl_*`: whole federated runs through the public `run*` entry points, one
//! per engine. A run is cut into identical **segments** — the same config
//! and seed each time — so the spread between segments is pure noise and
//! their final models must be bit-identical. One op is one round.

use std::path::Path;
use std::time::Instant;

use fedsz::FaultCounters;
use fedsz_fl::{checkpoint, config_fingerprint, Aggregation, FlConfig, FlRunResult, RoundMetrics};
use fedsz_tensor::StateDict;

use super::codec::EdgeCodec;
use super::{bit_identical, peak_rss_mb, timed_setups, Checks, Options, Report};
use crate::stats::median;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_threaded_with`: clients on threads, bounded channels.
    Channel,
    /// `run_tcp_with`: clients on threads, framed TCP over 127.0.0.1.
    Tcp,
    /// `run`: the serial in-process loop.
    InProcess,
}

pub struct FlSpec {
    name: &'static str,
    engine: Engine,
    rounds_per_segment: usize,
    smoke_rounds: usize,
    configure: fn(&mut FlConfig),
}

const MIN_SEGMENTS: usize = 3;
/// Ops on the final model, after the segments, for the codec metrics.
const EDGE_CODEC_OPS: usize = 20;
const SMOKE_SEGMENTS: usize = 2;

/// Paper-shaped cross-silo training: the `with_fedsz(1e-2)` defaults
/// (AlexNetS, CIFAR-like, 192 samples per client) with two clients.
pub const TRAIN_CHANNEL: FlSpec = FlSpec {
    name: "fl_train_channel",
    engine: Engine::Channel,
    rounds_per_segment: 2,
    smoke_rounds: 1,
    configure: |cfg| cfg.n_clients = 2,
};

/// Training shrunk to almost nothing, so the engine's own per-round cost is
/// what is left.
fn light_training(cfg: &mut FlConfig) {
    cfg.samples_per_client = 4;
    cfg.batch_size = 2;
    cfg.test_samples = 16;
}

pub const COMM_TCP: FlSpec = FlSpec {
    name: "fl_comm_tcp",
    engine: Engine::Tcp,
    rounds_per_segment: 20,
    smoke_rounds: 3,
    configure: |cfg| {
        cfg.n_clients = 2;
        light_training(cfg);
    },
};

pub const ROBUST_INPROC: FlSpec = FlSpec {
    name: "fl_robust_inproc",
    engine: Engine::InProcess,
    rounds_per_segment: 8,
    smoke_rounds: 2,
    configure: |cfg| {
        cfg.n_clients = 8;
        light_training(cfg);
        cfg.aggregation = Aggregation::ClippedMean { clip_factor: 3.0 };
        cfg.ingest_budget_bytes = Some(0);
    },
};

impl FlSpec {
    fn config(&self, seed: u64) -> FlConfig {
        let mut cfg = FlConfig::with_fedsz(1e-2);
        cfg.seed = seed;
        cfg.ingest_workers = 1;
        cfg.checkpoint_every = 1;
        (self.configure)(&mut cfg);
        cfg
    }
}

fn run_engine(engine: Engine, cfg: &FlConfig) -> Result<FlRunResult, String> {
    match engine {
        Engine::Channel => fedsz_fl::run_threaded_with(cfg, &Default::default()),
        Engine::Tcp => fedsz_fl::run_tcp_with(cfg, &Default::default(), &Default::default()),
        Engine::InProcess => fedsz_fl::run(cfg),
    }
    .map_err(|e| e.to_string())
}

/// Run `rounds` rounds checkpointing into a fresh `dir`, check everything a
/// run promises, and remove `dir`. Returns the wall time of the `run*` call.
fn run_checked(
    engine: Engine,
    base: &FlConfig,
    rounds: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> (f64, Result<FlRunResult, String>) {
    let cfg = FlConfig {
        rounds,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..base.clone()
    };
    tracer.next_op();
    let s = tracer.open("fl.run");
    let t0 = Instant::now();
    let result = run_engine(engine, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    tracer.close(s);

    let s = tracer.open("bench.verify");
    let checked = result.and_then(|result| {
        if result.rounds.len() != rounds {
            return Err(format!(
                "{} rounds reported, {rounds} asked for",
                result.rounds.len()
            ));
        }
        for r in &result.rounds {
            if r.faults != FaultCounters::full(cfg.n_clients) {
                return Err(format!(
                    "round {}: not every client delivered: {:?}",
                    r.round, r.faults
                ));
            }
        }
        match checkpoint::load_latest(dir, config_fingerprint(&cfg)) {
            Ok(Some(ckpt))
                if ckpt.round + 1 == rounds && bit_identical(&ckpt.global, &result.final_model) => {
            }
            Ok(Some(ckpt)) => {
                return Err(format!(
                    "checkpoint of round {} does not hold the final model",
                    ckpt.round
                ))
            }
            Ok(None) => return Err("no checkpoint to load after the run".into()),
            Err(e) => return Err(e.to_string()),
        }
        Ok(result)
    });
    let _ = std::fs::remove_dir_all(dir);
    tracer.close(s);
    (wall, checked)
}

/// The per-round measurements of one or more identical runs — the source
/// of the `fl.round.*` layer metrics.
pub struct FlSample {
    pub cfg: FlConfig,
    pub rounds: Vec<RoundMetrics>,
    /// Median over runs of run wall / rounds.
    pub round_s: f64,
    /// How many clients train at once: 1 in-process, else all of them.
    pub parallelism: usize,
    pub final_accuracy: f64,
    pub final_model: StateDict,
}

impl FlSample {
    fn per_round(&self, f: impl Fn(&RoundMetrics) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    fn sum(&self, f: impl Fn(&RoundMetrics) -> usize) -> f64 {
        self.rounds.iter().map(f).sum::<usize>() as f64
    }

    /// `fl.round.*`: where a round's time and bytes went, from the
    /// `RoundMetrics` the run itself reports. Times are per update (the
    /// round's total over the clients that delivered).
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let clients = self.cfg.n_clients as f64;
        let p = self.parallelism as f64;
        let train = median(&self.per_round(|r| r.train_s_total)) / clients;
        let compress = median(&self.per_round(|r| r.compress_s_total)) / clients;
        let decompress = median(&self.per_round(|r| r.decompress_s_total)) / clients;
        // Clients work `p` at a time; the server decodes one update at a time.
        let codec_wall = compress * clients / p + decompress * clients;
        vec![
            ("fl.round.train_s", train),
            ("fl.round.compress_s", compress),
            ("fl.round.decompress_s", decompress),
            ("fl.round.codec_share", codec_wall / self.round_s),
            // An estimate: it assumes perfect overlap of `p` clients and none
            // between decode and anything else.
            (
                "fl.round.other_s",
                self.round_s - (train + compress) * clients / p - decompress * clients,
            ),
            ("fl.round.faults_total", self.sum(|r| r.faults.failed())),
            ("fl.round.final_accuracy", self.final_accuracy),
            (
                "fl.round.downlink_bytes_per_round",
                self.sum(|r| r.bytes_down_wire) / self.rounds.len() as f64,
            ),
        ]
    }
}

/// A three-round run of the light-training config over channels, for the
/// `fl.round.*` metrics of workloads that are not federated runs themselves.
pub fn mini_sample(seed: u64, scratch: &Path, tracer: &mut Tracer) -> Result<FlSample, String> {
    const ROUNDS: usize = 3;
    let spec = FlSpec {
        engine: Engine::Channel,
        ..COMM_TCP
    };
    let cfg = spec.config(seed);
    let (wall, result) = run_checked(spec.engine, &cfg, ROUNDS, &scratch.join("mini-fl"), tracer);
    let result = result?;
    Ok(FlSample {
        rounds: result.rounds.clone(),
        round_s: wall / ROUNDS as f64,
        parallelism: cfg.n_clients,
        final_accuracy: result.final_accuracy(),
        final_model: result.final_model,
        cfg,
    })
}

pub fn run(spec: &FlSpec, opts: &Options) -> Report {
    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();
    let cfg = spec.config(opts.seed);
    let dir = opts.scratch.join(spec.name);
    let rounds = if opts.smoke {
        spec.smoke_rounds
    } else {
        spec.rounds_per_segment
    };
    let min_segments = if opts.smoke {
        SMOKE_SEGMENTS
    } else {
        MIN_SEGMENTS
    };

    // Set-up is what a user pays before the first round: config, directory,
    // and a one-round run that warms the allocator, the page cache and the
    // thread-spawn path.
    let ((), setup_s) = timed_setups(opts, None, || {
        let (_, result) = run_checked(spec.engine, &cfg, 1, &dir.join("warm-up"), &mut tracer);
        checks.record(1, result.map(drop));
    });

    let mut first: Option<FlRunResult> = None;
    let mut all_rounds: Vec<RoundMetrics> = Vec::new();
    let (segment_s, trace_overhead) = super::measure(opts, &mut tracer, min_segments, |tracer| {
        let (wall, result) = run_checked(spec.engine, &cfg, rounds, &dir.join("segment"), tracer);
        let verdict = result.and_then(|result| {
            all_rounds.extend_from_slice(&result.rounds);
            match &first {
                Some(first) if !bit_identical(&first.final_model, &result.final_model) => {
                    Err("segment ended on a different final model than segment 0".into())
                }
                Some(_) => Ok(()),
                None => {
                    first = Some(result);
                    Ok(())
                }
            }
        });
        checks.record(rounds as u64, verdict);
        wall
    });
    let _ = std::fs::remove_dir_all(&dir);

    let per_round_s: Vec<f64> = segment_s.iter().map(|wall| wall / rounds as f64).collect();
    let mut end_to_end = vec![("setup_s", setup_s), ("peak_rss_mb", peak_rss_mb())];
    let mut timings = vec![("round_s", per_round_s.clone())];
    let mut per_layer = Vec::new();

    // With no segment that passed there is nothing to report; the missing
    // metrics and the failed ops both fail the run.
    if let Some(first) = first {
        let sample = FlSample {
            cfg: cfg.clone(),
            rounds: all_rounds,
            round_s: median(&per_round_s),
            parallelism: if spec.engine == Engine::InProcess {
                1
            } else {
                cfg.n_clients
            },
            final_accuracy: first.final_accuracy(),
            final_model: first.final_model,
        };
        // The codec metrics come from direct, normalised ops on the model
        // the run ended on; what the run's own threads measured is
        // `fl.round.compress_s` / `fl.round.decompress_s` in the traced run.
        let codec = cfg.compression.expect("every fl workload compresses");
        let edge = EdgeCodec::sample(
            &sample.final_model,
            codec,
            EDGE_CODEC_OPS,
            &mut tracer,
            &mut checks,
        );
        let delivered = sample.sum(|r| r.faults.delivered);
        let raw = sample.sum(|r| r.bytes_uncompressed);
        let wire = sample.sum(|r| r.bytes_on_wire);
        end_to_end.extend([
            ("compression_ratio", raw / wire),
            ("updates_per_s", delivered / segment_s.iter().sum::<f64>()),
            ("round_s", sample.round_s),
            ("uplink_bytes_per_round", wire / sample.rounds.len() as f64),
        ]);
        end_to_end.extend(edge.metrics(sample.final_model.nbytes(), wire / delivered));
        timings.extend(edge.timings());
        if opts.trace {
            let walk = super::walk::WalkInput {
                model: &sample.final_model,
                codec,
                fl: Some(&sample),
                scratch: &opts.scratch,
                seed: opts.seed,
                trace_overhead,
            };
            per_layer = super::walk::per_layer(&walk, None, &mut tracer, &mut checks);
        }
    }
    Report {
        checks,
        end_to_end,
        per_layer,
        timings,
        tracer,
    }
}
