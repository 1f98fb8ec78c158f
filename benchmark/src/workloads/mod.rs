//! The six workloads. Each is closed-loop with one operation in flight from
//! a single driver, makes its inputs from the seed, checks every output, and
//! fills in every end-to-end metric (and, traced, every per-layer metric).

pub mod codec;
pub mod fl;
pub mod ingest;
pub mod walk;

use std::path::PathBuf;
use std::time::Instant;

use fedsz_tensor::StateDict;

use crate::calibrate::{slowdown, Calibrator};
use crate::stats::median;
use crate::trace::Tracer;

/// How often a workload sets up in one run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// The computed link of `uplink_time_100mbps_s` (Eqn 1's `S'/B_N` term):
/// bytes are measured, the link is not.
pub const LINK_BITS_PER_S: f64 = 100e6;

pub struct Options {
    pub seed: u64,
    /// How long the measured phase lasts; units repeat until it is used up.
    pub seconds: f64,
    /// Self-test sizing: one set-up, the minimum number of units, no clock.
    pub smoke: bool,
    pub trace: bool,
    /// Directory for checkpoints and other files a workload writes; inside
    /// the checkout, unique to this process, removed when the run ends.
    pub scratch: PathBuf,
    /// When the process started: `setup_s` counts from here.
    pub started: Instant,
}

impl Options {
    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Should another unit of work start? At least `min_units` always run;
    /// after that the clock decides (never, under `--smoke`).
    fn keep_going(
        &self,
        done: usize,
        min_units: usize,
        measuring_since: Instant,
        budget_s: f64,
    ) -> bool {
        done < min_units || (!self.smoke && measuring_since.elapsed().as_secs_f64() < budget_s)
    }
}

/// The measured phase: repeat `unit` — one op, round or segment, returning
/// its wall seconds — until `--seconds` are used up. A traced run first
/// spends a third of the time with tracing off, so that the price of the
/// tracing itself, `(traced − untraced) / untraced` of the median unit, can
/// be reported; untraced runs return NaN for it.
fn measure(
    opts: &Options,
    tracer: &mut Tracer,
    min_units: usize,
    mut unit: impl FnMut(&mut Tracer) -> f64,
) -> (Vec<f64>, f64) {
    let since = Instant::now();
    let mut untraced = Vec::new();
    if opts.trace {
        while opts.keep_going(untraced.len(), min_units, since, opts.seconds / 3.0) {
            untraced.push(unit(tracer));
        }
        tracer.set_enabled(true);
    }
    let mut walls = Vec::new();
    while opts.keep_going(walls.len(), min_units, since, opts.seconds) {
        walls.push(unit(tracer));
    }
    let overhead = median(&walls) / median(&untraced) - 1.0;
    (walls, overhead)
}

/// Failure accounting: an op that fails any check is a failed op, and a
/// failed op fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few reasons, for the person reading the output.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count `ops` attempted operations that all share one verdict.
    pub fn record(&mut self, ops: u64, verdict: Result<(), String>) {
        self.attempted += ops;
        if let Err(why) = verdict {
            self.failed += ops;
            if self.messages.len() < 8 {
                self.messages.push(why);
            }
        }
    }
}

/// What one run of one workload produced.
pub struct Report {
    pub checks: Checks,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Empty unless traced.
    pub per_layer: Vec<(&'static str, f64)>,
    /// The samples behind the timing metrics, in the order they were taken.
    pub timings: Vec<(&'static str, Vec<f64>)>,
    pub tracer: Tracer,
}

/// Runs `setup` the configured number of times and returns the last result
/// with the median set-up time. The first repetition counts from process
/// start, as a user would. With a calibrator, each repetition's time is
/// divided by the machine slowdown seen around it.
fn timed_setups<T>(
    opts: &Options,
    mut calibrator: Option<&mut Calibrator>,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut last = None;
    for rep in 0..opts.setup_reps() {
        drop(last.take()); // one set of inputs alive at a time, as in a single set-up
        let before = calibrator.as_mut().map(|c| c.sample());
        let t0 = if rep == 0 {
            opts.started
        } else {
            Instant::now()
        };
        last = Some(setup());
        let raw = t0.elapsed().as_secs_f64();
        let slowdown = match (before, calibrator.as_mut()) {
            (Some(before), Some(c)) => slowdown(before, c.sample()),
            _ => 1.0,
        };
        seconds.push(raw / slowdown);
    }
    (last.expect("at least one set-up"), median(&seconds))
}

/// `VmHWM` of this process in MB (10^6 bytes), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Bit-for-bit equality of two state dicts: names, kinds, shapes and the
/// exact bits of every value (`==` on floats would let `-0.0` pass for `0.0`).
pub fn bit_identical(a: &StateDict, b: &StateDict) -> bool {
    a.len() == b.len()
        && a.entries().iter().zip(b.entries()).all(|(x, y)| {
            x.name == y.name
                && x.kind == y.kind
                && x.tensor.shape() == y.tensor.shape()
                && x.tensor
                    .data()
                    .iter()
                    .zip(y.tensor.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Throughput in MB/s (10^6 bytes) of `bytes` handled in `seconds`.
pub fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// Run one workload by name.
pub fn run(name: &str, opts: &Options) -> Option<Report> {
    Some(match name {
        "codec_resnet50_e2" => codec::run(&codec::RESNET50_E2, opts),
        "codec_mobilenet_e4" => codec::run(&codec::MOBILENET_E4, opts),
        "server_ingest" => ingest::run(opts),
        "fl_train_channel" => fl::run(&fl::TRAIN_CHANNEL, opts),
        "fl_comm_tcp" => fl::run(&fl::COMM_TCP, opts),
        "fl_robust_inproc" => fl::run(&fl::ROBUST_INPROC, opts),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::{Tensor, TensorKind};

    #[test]
    fn bit_identical_tells_negative_zero_from_zero() {
        let dict = |v: f32| {
            let mut sd = StateDict::new();
            sd.insert(
                "w.weight",
                TensorKind::Weight,
                Tensor::from_vec(vec![1.0, v]),
            );
            sd
        };
        assert!(bit_identical(&dict(0.0), &dict(0.0)));
        assert!(!bit_identical(&dict(0.0), &dict(-0.0)));
        assert!(!bit_identical(&dict(0.0), &StateDict::new()));
    }

    #[test]
    fn a_failed_verdict_fails_every_op_it_covers() {
        let mut checks = Checks::default();
        checks.record(3, Ok(()));
        checks.record(2, Err("segment diverged".into()));
        assert_eq!((checks.attempted, checks.failed), (5, 2));
        assert_eq!(checks.messages, ["segment diverged"]);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
