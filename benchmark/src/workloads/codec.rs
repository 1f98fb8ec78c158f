//! `codec_*`: `fedsz::compress` then `fedsz::decompress` of a synthesized
//! full-size model. One op is one update's round trip through the codec.

use std::time::Instant;

use fedsz::{CompressedUpdate, FedSzConfig, Route};
use fedsz_models::ModelKind;
use fedsz_tensor::StateDict;

use super::{mb_per_s, peak_rss_mb, timed_setups, Checks, Options, Report, LINK_BITS_PER_S};
use crate::calibrate::{slowdown, Calibrator, NOMINAL_S};
use crate::stats::median;
use crate::trace::Tracer;

pub struct CodecSpec {
    kind: ModelKind,
    /// Value-range relative error bound.
    rel: f64,
    /// Whole ops run during set-up, after the first compression and its
    /// checked decompression, which every set-up does anyway.
    warmup_ops: usize,
    min_ops: usize,
}

pub const RESNET50_E2: CodecSpec = CodecSpec {
    kind: ModelKind::ResNet50,
    rel: 1e-2,
    warmup_ops: 0,
    min_ops: 3,
};

pub const MOBILENET_E4: CodecSpec = CodecSpec {
    kind: ModelKind::MobileNetV2,
    rel: 1e-4,
    warmup_ops: 1,
    min_ops: 5,
};

/// Slack on the error-bound check for the f32 rounding of the reconstructed
/// value, as the repo's own round-trip test allows.
pub const BOUND_SLACK: f64 = 1.0 + 1e-6;

/// The two halves of one op, at nominal machine speed, and the raw
/// calibration samples taken around them.
pub struct OpTimes {
    pub compress_s: f64,
    pub decompress_s: f64,
    pub calibration_s: [f64; 3],
}

/// The codec as an edge client sees it on one model: the samples of checked
/// ops, at nominal machine speed. Every workload reports its codec metrics
/// from one of these — `codec_*` from its measured ops, the others from a
/// fixed number of ops on their own model once their measured phase is over.
#[derive(Default)]
pub struct EdgeCodec {
    pub compress_s: Vec<f64>,
    pub decompress_s: Vec<f64>,
    /// Raw, three per op: before, between and after its two calls.
    pub calibration_s: Vec<f64>,
}

impl EdgeCodec {
    /// `ops` checked ops on `model` under `codec`.
    pub fn sample(
        model: &StateDict,
        codec: FedSzConfig,
        ops: usize,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> EdgeCodec {
        let input = CodecInput::new(model.clone(), codec);
        let mut calibrator = Calibrator::new();
        let mut samples = EdgeCodec::default();
        for _ in 0..ops {
            let (times, verdict) = input.op(tracer, Some(&mut calibrator));
            checks.record(1, verdict);
            samples.record(&times);
        }
        samples
    }

    fn record(&mut self, times: &OpTimes) {
        self.compress_s.push(times.compress_s);
        self.decompress_s.push(times.decompress_s);
        self.calibration_s.extend(times.calibration_s);
    }

    /// `compress_mb_s`, `decompress_mb_s` and `uplink_time_100mbps_s` for a
    /// model of `raw_bytes` whose update is `payload_bytes` on the wire.
    pub fn metrics(&self, raw_bytes: usize, payload_bytes: f64) -> [(&'static str, f64); 3] {
        let (compress, decompress) = (median(&self.compress_s), median(&self.decompress_s));
        [
            ("compress_mb_s", mb_per_s(raw_bytes, compress)),
            ("decompress_mb_s", mb_per_s(raw_bytes, decompress)),
            (
                "uplink_time_100mbps_s",
                compress + payload_bytes * 8.0 / LINK_BITS_PER_S + decompress,
            ),
        ]
    }

    pub fn timings(self) -> [(&'static str, Vec<f64>); 3] {
        [
            ("compress_s", self.compress_s),
            ("decompress_s", self.decompress_s),
            ("calibration_s", self.calibration_s),
        ]
    }
}

/// A model with the route each entry takes and the bytes its first
/// compression produced, which every later compression must reproduce.
pub struct CodecInput {
    pub model: StateDict,
    pub codec: FedSzConfig,
    routes: Vec<Route>,
    first: CompressedUpdate,
}

impl CodecInput {
    pub fn new(model: StateDict, codec: FedSzConfig) -> CodecInput {
        let (first, stats) = fedsz::compress_with_stats(&model, &codec);
        CodecInput {
            routes: stats.entries.iter().map(|e| e.route).collect(),
            model,
            codec,
            first,
        }
    }

    pub fn compressed_bytes(&self) -> usize {
        self.first.nbytes()
    }

    /// Decompress and check the update that `new` made: with that, set-up
    /// has been once through both directions of the codec.
    fn check_first(&self) -> Result<(), String> {
        let back = fedsz::decompress(&self.first).map_err(|e| format!("decompress failed: {e}"))?;
        self.verify(&back)
    }

    /// One op: compress, decompress, then (off the clock) check the result.
    /// A calibration sample is taken before, between and after the two
    /// calls, and each call's seconds are divided by the slowdown around it;
    /// without a calibrator (warm-up ops, whose times nobody reads) the
    /// times are raw.
    pub fn op(
        &self,
        tracer: &mut Tracer,
        mut calibrator: Option<&mut Calibrator>,
    ) -> (OpTimes, Result<(), String>) {
        tracer.next_op();
        let op = tracer.open("codec.op");
        let mut sample = || calibrator.as_mut().map_or(NOMINAL_S, |c| c.sample());
        let before = sample();
        let s = tracer.open("core.compress");
        let t0 = Instant::now();
        let update = fedsz::compress(&self.model, &self.codec);
        let compress_s = t0.elapsed().as_secs_f64();
        tracer.close(s);

        let between = sample();
        let s = tracer.open("core.decompress");
        let t0 = Instant::now();
        let back = fedsz::decompress(&update);
        let decompress_s = t0.elapsed().as_secs_f64();
        tracer.close(s);
        let after = sample();

        let s = tracer.open("bench.verify");
        let verdict = match back {
            Err(e) => Err(format!("decompress failed: {e}")),
            Ok(_) if update != self.first => {
                Err("compressed bytes differ between iterations".into())
            }
            Ok(back) => self.verify(&back),
        };
        tracer.close(s);
        tracer.close(op);
        let times = OpTimes {
            compress_s: compress_s / slowdown(before, between),
            decompress_s: decompress_s / slowdown(between, after),
            calibration_s: [before, between, after],
        };
        (times, verdict)
    }

    /// Lossy-route tensors must honour their bound; lossless-route tensors
    /// must come back bit for bit.
    fn verify(&self, back: &StateDict) -> Result<(), String> {
        if back.len() != self.model.len() {
            return Err(format!(
                "{} entries came back, {} went in",
                back.len(),
                self.model.len()
            ));
        }
        for ((was, now), route) in self
            .model
            .entries()
            .iter()
            .zip(back.entries())
            .zip(&self.routes)
        {
            if was.name != now.name || was.tensor.shape() != now.tensor.shape() {
                return Err(format!("entry {} came back as {}", was.name, now.name));
            }
            let (x, y) = (was.tensor.data(), now.tensor.data());
            match route {
                Route::Lossy => {
                    let bound = self.codec.error_bound.absolute(x);
                    let worst = max_abs_err(x, y);
                    if worst > bound * BOUND_SLACK {
                        return Err(format!(
                            "{}: max error {worst:e} exceeds bound {bound:e}",
                            was.name
                        ));
                    }
                }
                Route::Lossless => {
                    if x.iter().zip(y).any(|(a, b)| a.to_bits() != b.to_bits()) {
                        return Err(format!("{}: lossless route is not bit-identical", was.name));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Largest `|x − y|`, in f64. NaN (a value lost to the codec) reads as
/// infinite error.
pub fn max_abs_err(x: &[f32], y: &[f32]) -> f64 {
    x.iter().zip(y).fold(0.0f64, |worst, (&a, &b)| {
        let err = (a as f64 - b as f64).abs();
        if err.is_nan() {
            f64::INFINITY
        } else {
            worst.max(err)
        }
    })
}

pub fn run(spec: &CodecSpec, opts: &Options) -> Report {
    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();

    // Single-threaded and cache-missing: these two workloads follow the
    // host's weather, so their times are normalised (see `calibrate`).
    let mut calibrator = Calibrator::new();
    let (input, setup_s) = timed_setups(opts, Some(&mut calibrator), || {
        let input = CodecInput::new(
            spec.kind.synthesize(10, opts.seed),
            FedSzConfig::with_rel_bound(spec.rel),
        );
        checks.record(1, input.check_first());
        for _ in 0..spec.warmup_ops {
            checks.record(1, input.op(&mut tracer, None).1);
        }
        input
    });

    let mut codec = EdgeCodec::default();
    let (op_s, trace_overhead) = super::measure(opts, &mut tracer, spec.min_ops, |tracer| {
        let (times, verdict) = input.op(tracer, Some(&mut calibrator));
        checks.record(1, verdict);
        codec.record(&times);
        times.compress_s + times.decompress_s
    });

    let raw = input.model.nbytes();
    let packed = input.compressed_bytes();
    let mut end_to_end = vec![
        ("setup_s", setup_s),
        ("compression_ratio", raw as f64 / packed as f64),
        (
            "updates_per_s",
            op_s.len() as f64 / op_s.iter().sum::<f64>(),
        ),
        ("round_s", median(&op_s)),
        ("uplink_bytes_per_round", packed as f64),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    end_to_end.extend(codec.metrics(raw, packed as f64));
    let mut timings = vec![("round_s", op_s)];
    timings.extend(codec.timings());

    let mut per_layer = Vec::new();
    if opts.trace {
        let walk = super::walk::WalkInput {
            model: &input.model,
            codec: input.codec,
            fl: None,
            scratch: &opts.scratch,
            seed: opts.seed,
            trace_overhead,
        };
        per_layer = super::walk::per_layer(&walk, None, &mut tracer, &mut checks);
    }
    Report {
        checks,
        end_to_end,
        per_layer,
        timings,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_err_treats_nan_as_a_broken_bound() {
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.5, 2.25]), 0.5);
        assert_eq!(max_abs_err(&[1.0], &[f32::NAN]), f64::INFINITY);
        assert_eq!(max_abs_err(&[], &[]), 0.0);
    }

    /// The gate must be able to fail: a model checked against a tighter
    /// bound than it was compressed under is rejected.
    #[test]
    fn verify_rejects_an_update_that_breaks_the_bound() {
        let model = ModelKind::MobileNetV2.synthesize(10, 7);
        let loose = fedsz::decompress(&fedsz::compress(&model, &FedSzConfig::with_rel_bound(1e-1)))
            .unwrap();
        let strict = CodecInput::new(model, FedSzConfig::with_rel_bound(1e-3));
        let why = strict.verify(&loose).unwrap_err();
        assert!(why.contains("exceeds bound"), "{why}");
        let (_, verdict) = strict.op(&mut Tracer::new(false), None);
        assert_eq!(verdict, Ok(()));
    }
}
