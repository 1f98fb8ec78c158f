//! The per-layer half of a traced run.
//!
//! Layers the workload's driver calls itself (`core`, `fl::wire`,
//! `fl::budget`, `fl::ingest`, `fl::aggregate`) are measured by **spans**;
//! [`per_layer`] first walks one update of the workload's own model through
//! every one of them, so each span name has samples on every workload.
//! Layers that are reachable only *through* `fedsz::compress` (`simd`,
//! `eblc`, `entropy`, `lossless`) or that sit behind a `run*` call
//! (`fl::net`, `fl::checkpoint`, `dnn`) are measured by **probes**:
//! stand-alone timed calls into their public functions on the same data.
//! A probe is reported beside the span that contains the layer's work, never
//! summed into it; the gap is its own `*_unattributed_s` row.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use fedsz::{FedSzConfig, LosslessKind, LossyKind, Route};
use fedsz_entropy::{BitReader, BitWriter, HuffmanDecoder, HuffmanEncoder};
use fedsz_fl::wire::{self, Frame};
use fedsz_fl::{checkpoint, config_fingerprint, validate_update, Checkpoint, FlConfig};
use fedsz_simd::QuantParams;
use fedsz_tensor::{f32s_to_le_bytes, SplitMix64, StateDict};

use super::codec::{max_abs_err, BOUND_SLACK};
use super::fl::{mini_sample, FlSample};
use super::ingest::IngestRig;
use super::{bit_identical, mb_per_s, Checks};
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of a cheap probe; the median is reported.
const REPS: usize = 5;
/// The server-side walk folds at most this much model: the accumulator is
/// twelve times the model, and a checkpoint may not exceed 64 MiB.
const WALK_MAX_BYTES: usize = 32 << 20;
const WALK_UPDATES: usize = 2;
/// Models up to this size are probed [`REPS`] times instead of once.
const SMALL_MODEL_BYTES: usize = 16 << 20;
const PINGS: usize = 200;
const LOOPBACK_FRAMES: usize = 10;
const FRAME_BUDGET: Duration = Duration::from_secs(10);

type Metrics = Vec<(&'static str, f64)>;

pub struct WalkInput<'a> {
    /// The workload's own model.
    pub model: &'a StateDict,
    pub codec: FedSzConfig,
    /// The workload's federated runs, when it is one.
    pub fl: Option<&'a FlSample>,
    pub scratch: &'a Path,
    pub seed: u64,
    /// `bench.trace_overhead_share`, which only the workload's own measured
    /// phase can know.
    pub trace_overhead: f64,
}

/// Every per-layer metric. `rig` is the workload's ingest rig when it has
/// one, so its own rounds are what gets reported.
pub fn per_layer(
    input: &WalkInput<'_>,
    rig: Option<&mut IngestRig>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Metrics {
    let result = try_per_layer(input, rig, tracer);
    let metrics = result.as_ref().cloned().unwrap_or_default();
    checks.record(1, result.map(drop));
    metrics
}

fn try_per_layer(
    input: &WalkInput<'_>,
    rig: Option<&mut IngestRig>,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let mut metrics = codec_layers(input.model, &input.codec, tracer)?;

    let mut own_rig;
    let rig = match rig {
        Some(rig) => rig,
        None => {
            own_rig = IngestRig::build(
                prefix(input.model, WALK_MAX_BYTES),
                &input.codec,
                WALK_UPDATES,
                input.seed,
            )?;
            own_rig.round(tracer).1?;
            &mut own_rig
        }
    };
    metrics.extend(server_layers(rig, tracer)?);
    metrics.extend(loopback(&rig.frames[0])?);

    let mini;
    let sample = match input.fl {
        Some(sample) => sample,
        None => {
            mini = mini_sample(input.seed, input.scratch, tracer)?;
            &mini
        }
    };
    metrics.extend(sample.layer_metrics());
    metrics.extend(checkpoint_probe(
        sample,
        &rig.global,
        &input.scratch.join("checkpoint-probe"),
    )?);
    metrics.extend(dnn_probe(&sample.cfg, input.seed));
    metrics.push(("bench.trace_overhead_share", input.trace_overhead));
    Ok(metrics)
}

/// Median seconds of `f` over [`REPS`] calls.
fn timed(mut f: impl FnMut()) -> f64 {
    let seconds: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&seconds)
}

fn median_span(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.seconds_of(name))
}

/// The leading entries of `model` that fit in `max_bytes` (always at least
/// the first).
fn prefix(model: &StateDict, max_bytes: usize) -> StateDict {
    let mut out = StateDict::new();
    let mut bytes = 0;
    for e in model.entries() {
        bytes += e.tensor.nbytes();
        if bytes > max_bytes && !out.is_empty() {
            break;
        }
        out.insert(e.name.clone(), e.kind, e.tensor.clone());
    }
    out
}

/// Sizes and times of one pass of a per-tensor codec over a route's tensors.
#[derive(Default)]
struct RoutePass {
    compress_s: f64,
    decompress_s: f64,
    raw: usize,
    packed: usize,
    /// Largest realised error as a share of its bound (lossy route only).
    worst: f64,
}

/// SZ2 on each lossy-route tensor, summed.
fn sz2_pass(tensors: &[&[f32]], codec: &FedSzConfig) -> Result<RoutePass, String> {
    let mut pass = RoutePass::default();
    for &x in tensors {
        let t0 = Instant::now();
        let packed = LossyKind::Sz2.compress(black_box(x), codec.error_bound);
        pass.compress_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let y = LossyKind::Sz2
            .decompress(black_box(&packed))
            .map_err(|e| e.to_string())?;
        pass.decompress_s += t0.elapsed().as_secs_f64();
        pass.raw += x.len() * 4;
        pass.packed += packed.len();
        let bound = codec.error_bound.absolute(x);
        if bound > 0.0 {
            pass.worst = pass.worst.max(max_abs_err(x, &y) / bound);
        }
    }
    Ok(pass)
}

/// blosc-lz on each lossless-route tensor, summed.
fn blosclz_pass(tensors: &[&[f32]]) -> Result<RoutePass, String> {
    let mut pass = RoutePass::default();
    for &x in tensors {
        let bytes = f32s_to_le_bytes(x);
        let t0 = Instant::now();
        let packed = LosslessKind::BloscLz.compress(black_box(&bytes));
        pass.compress_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let back = LosslessKind::BloscLz
            .decompress(black_box(&packed))
            .map_err(|e| e.to_string())?;
        pass.decompress_s += t0.elapsed().as_secs_f64();
        if back != bytes {
            return Err("blosc-lz probe did not round-trip".into());
        }
        pass.raw += bytes.len();
        pass.packed += packed.len();
    }
    Ok(pass)
}

/// `core` by spans; `eblc`, `lossless`, `simd`, `entropy` by probes on the
/// tensors `core` routes to them; `netsim` computed from the span medians.
fn codec_layers(
    model: &StateDict,
    codec: &FedSzConfig,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    // A small model is walked several times, so that its millisecond
    // timings are medians; a large one is long enough to time once.
    let passes = if model.nbytes() <= SMALL_MODEL_BYTES {
        REPS
    } else {
        1
    };

    let stats = fedsz::compress_with_stats(model, codec).1;
    let spans_before = tracer.seconds_of("core.compress").len();
    for _ in 0..passes {
        tracer.next_op();
        let op = tracer.open("walk.codec");
        let s = tracer.open("core.compress");
        let update = fedsz::compress(model, codec);
        tracer.close(s);
        let s = tracer.open("core.decompress");
        let back = fedsz::decompress(&update);
        tracer.close(s);
        tracer.close(op);
        back.map_err(|e| e.to_string())?;
    }

    let routed = |route: Route| -> Vec<&[f32]> {
        model
            .entries()
            .iter()
            .zip(&stats.entries)
            .filter(|(_, s)| s.route == route)
            .map(|(e, _)| e.tensor.data())
            .collect()
    };
    let lossy = routed(Route::Lossy);
    let lossless = routed(Route::Lossless);
    let sz2 = (0..passes)
        .map(|_| sz2_pass(&lossy, codec))
        .collect::<Result<Vec<_>, _>>()?;
    let lz = (0..passes)
        .map(|_| blosclz_pass(&lossless))
        .collect::<Result<Vec<_>, _>>()?;
    let over = |passes: &[RoutePass], f: fn(&RoutePass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let (sz2_c, sz2_d) = (over(&sz2, |p| p.compress_s), over(&sz2, |p| p.decompress_s));
    let (lz_c, lz_d) = (over(&lz, |p| p.compress_s), over(&lz, |p| p.decompress_s));
    let (sz2, lz) = (&sz2[0], &lz[0]); // sizes and errors repeat exactly

    let mut metrics = kernels(
        lossy
            .iter()
            .copied()
            .max_by_key(|x| x.len())
            .ok_or("no lossy-route tensor")?,
        codec,
    )?;

    let (core_c, core_d) = (
        median_span(tracer, "core.compress"),
        median_span(tracer, "core.decompress"),
    );
    let walk_c = median(&tracer.seconds_of("core.compress")[spans_before..]);
    let walk_d = median(&tracer.seconds_of("core.decompress")[spans_before..]);
    let crossover = fedsz_netsim::crossover_bandwidth(
        core_c,
        core_d,
        stats.total_uncompressed,
        stats.total_compressed,
    )
    .map_or(f64::NAN, |b| b.bits_per_second() / 1e6);
    metrics.extend([
        ("eblc.sz2_compress_s", sz2_c),
        ("eblc.sz2_decompress_s", sz2_d),
        ("eblc.sz2_ratio", sz2.raw as f64 / sz2.packed as f64),
        ("eblc.max_err_over_bound", sz2.worst),
        ("lossless.blosclz_compress_mb_s", mb_per_s(lz.raw, lz_c)),
        ("lossless.blosclz_decompress_mb_s", mb_per_s(lz.raw, lz_d)),
        ("lossless.blosclz_ratio", lz.raw as f64 / lz.packed as f64),
        ("core.compress_s", core_c),
        ("core.decompress_s", core_d),
        (
            "core.lossy_bytes_share",
            sz2.raw as f64 / stats.total_uncompressed as f64,
        ),
        ("core.tensors_per_op", stats.entries.len() as f64),
        // What `core` adds around the two codecs: routing, framing, copies.
        // From the walk's own calls only: they ran seconds before the
        // probes, in the same machine weather; the workload's ops did not.
        ("core.compress_unattributed_s", walk_c - (sz2_c + lz_c)),
        ("core.decompress_unattributed_s", walk_d - (sz2_d + lz_d)),
        ("netsim.crossover_mbps", crossover),
    ]);
    if sz2.worst > BOUND_SLACK {
        return Err(format!(
            "SZ2 probe broke its bound: max error is {} of the bound",
            sz2.worst
        ));
    }
    Ok(metrics)
}

/// `simd` kernels at the active level and `entropy`'s Huffman coder, on the
/// largest lossy-route tensor `x` and the codes the quantiser makes of it.
fn kernels(x: &[f32], codec: &FedSzConfig) -> Result<Metrics, String> {
    let n = x.len();
    let abs_eb = codec.error_bound.absolute(x);
    let params = QuantParams {
        abs_eb,
        bin: 2.0 * abs_eb,
        radius: 32768.0,
    };
    // Previous-value predictions: small residuals, as on a real update.
    let mut preds = vec![0.0f32; n];
    preds[1..].copy_from_slice(&x[..n - 1]);
    let mut codes = vec![0u32; n];
    let mut recons = vec![0.0f32; n];
    let quantize_s =
        timed(|| fedsz_simd::quantize(black_box(x), &preds, params, &mut codes, &mut recons));
    let reconstruct_s =
        timed(|| fedsz_simd::reconstruct(&preds, black_box(&codes), params, &mut recons));

    let bytes = f32s_to_le_bytes(x);
    let mut shuffled = vec![0u8; bytes.len()];
    let mut restored = vec![0u8; bytes.len()];
    let shuffle_s = timed(|| fedsz_simd::shuffle4_into(black_box(&bytes), &mut shuffled));
    let unshuffle_s = timed(|| fedsz_simd::unshuffle4_into(black_box(&shuffled), &mut restored));
    if restored != bytes {
        return Err("shuffle probe did not round-trip".into());
    }

    // Table build and table bytes are on the clock: the codec pays them too.
    let mut freqs = vec![0u64; 2 * params.radius as usize];
    for &c in &codes {
        *freqs
            .get_mut(c as usize)
            .ok_or("quantiser code outside the code book")? += 1;
    }
    let t0 = Instant::now();
    let encoder = HuffmanEncoder::from_frequencies(&freqs);
    let mut w = BitWriter::with_capacity(n);
    encoder.write_table(&mut w);
    for &c in &codes {
        encoder.encode(&mut w, c);
    }
    let coded = w.finish();
    let encode_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut r = BitReader::new(&coded);
    let decoder = HuffmanDecoder::read_table(&mut r).map_err(|e| e.to_string())?;
    for &c in &codes {
        if decoder.decode(&mut r).map_err(|e| e.to_string())? != c {
            return Err("Huffman probe did not round-trip".into());
        }
    }
    let decode_s = t0.elapsed().as_secs_f64();

    Ok(vec![
        ("simd.quantize_mb_s", mb_per_s(n * 4, quantize_s)),
        ("simd.reconstruct_mb_s", mb_per_s(n * 4, reconstruct_s)),
        ("simd.shuffle_mb_s", mb_per_s(n * 4, shuffle_s)),
        ("simd.unshuffle_mb_s", mb_per_s(n * 4, unshuffle_s)),
        ("entropy.huffman_encode_msym_s", n as f64 / 1e6 / encode_s),
        ("entropy.huffman_decode_msym_s", n as f64 / 1e6 / decode_s),
    ])
}

/// `fl::wire`, `fl::budget`, `fl::ingest` and `fl::aggregate` from the spans
/// and counters of the rig's rounds, plus the `validate_update` and `crc32`
/// probes on one of its frames.
fn server_layers(rig: &mut IngestRig, tracer: &mut Tracer) -> Result<Metrics, String> {
    let bytes = &rig.frames[0];
    let frame = wire::decode(bytes).map_err(|e| e.to_string())?;
    for _ in 0..REPS {
        let s = tracer.open("fl.wire.encode");
        let encoded = wire::encode(black_box(&frame));
        tracer.close(s);
        if &encoded != bytes {
            return Err("wire::encode did not reproduce the frame it decoded".into());
        }
    }
    let Frame::Update {
        samples, payload, ..
    } = frame
    else {
        return Err("rig frame is not an update".into());
    };
    let crc_s = timed(|| {
        black_box(fedsz_entropy::crc32::crc32(black_box(bytes)));
    });
    let update = fedsz::decompress(&payload).map_err(|e| e.to_string())?;
    let mut verdict = Ok(());
    let validate_s = timed(|| verdict = validate_update(black_box(&update), &rig.global, samples));
    verdict.map_err(|e| format!("validate probe refused an honest update: {e}"))?;

    let params = rig.global.num_params();
    let fold_s = median_span(tracer, "fl.aggregate.fold");
    Ok(vec![
        ("entropy.crc32_mb_s", mb_per_s(bytes.len(), crc_s)),
        (
            "fl.wire.encode_mb_s",
            mb_per_s(bytes.len(), median_span(tracer, "fl.wire.encode")),
        ),
        (
            "fl.wire.decode_mb_s",
            mb_per_s(bytes.len(), median_span(tracer, "fl.wire.decode")),
        ),
        (
            "fl.wire.frame_overhead_bytes",
            (bytes.len() - payload.nbytes()) as f64,
        ),
        (
            "fl.budget.reserve_wait_s",
            median_span(tracer, "fl.budget.reserve"),
        ),
        ("fl.budget.peak_in_use_bytes", rig.peak_in_use as f64),
        ("fl.ingest.decode_s", median(&rig.decode_s)),
        ("fl.ingest.validate_s", validate_s),
        (
            "fl.ingest.recv_wait_s",
            median_span(tracer, "fl.ingest.recv_wait"),
        ),
        (
            "fl.ingest.accept_ratio",
            rig.accepted as f64 / rig.outcomes as f64,
        ),
        (
            "fl.aggregate.new_s",
            median_span(tracer, "fl.aggregate.new"),
        ),
        ("fl.aggregate.fold_s", fold_s),
        ("fl.aggregate.fold_melem_s", params as f64 / 1e6 / fold_s),
        (
            "fl.aggregate.finish_s",
            median_span(tracer, "fl.aggregate.finish"),
        ),
        // Computed, not measured: six 64-bit limbs per parameter.
        ("fl.aggregate.accumulator_bytes", (48 * params) as f64),
    ])
}

/// `fl::net`'s framing over a real 127.0.0.1 socket pair: `Hello`
/// ping-pong for the round-trip time, then the update-sized `frame` one way
/// for throughput. The peer runs on a thread that is joined before return.
fn loopback(frame: &[u8]) -> Result<Metrics, String> {
    let io = |e: std::io::Error| e.to_string();
    let wire_err = |e: wire::WireError| e.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let to_send = frame.to_vec();
    let peer = std::thread::spawn(move || -> Result<(), String> {
        let (mut stream, _) = listener.accept().map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        for _ in 0..PINGS {
            let ping = wire::read_frame(&mut stream, FRAME_BUDGET).map_err(wire_err)?;
            wire::write_frame(&mut stream, &ping).map_err(wire_err)?;
        }
        for _ in 0..LOOPBACK_FRAMES {
            wire::write_frame_bytes(&mut stream, &to_send).map_err(wire_err)?;
        }
        Ok(())
    });

    let driver = || -> Result<(Vec<f64>, f64), String> {
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut rtt_us = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t0 = Instant::now();
            wire::write_frame(&mut stream, &Frame::Hello { client_id: 0 }).map_err(wire_err)?;
            wire::read_frame(&mut stream, FRAME_BUDGET).map_err(wire_err)?;
            rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let t0 = Instant::now();
        for _ in 0..LOOPBACK_FRAMES {
            black_box(wire::read_frame(&mut stream, FRAME_BUDGET).map_err(wire_err)?);
        }
        Ok((rtt_us, t0.elapsed().as_secs_f64()))
        // `stream` closes here, which also ends a peer that is still reading.
    };
    let driven = driver();
    let peer = peer
        .join()
        .map_err(|_| "loopback peer panicked".to_string());
    let (rtt_us, frames_s) = driven?;
    peer??;
    Ok(vec![
        (
            "fl.net.loopback_frame_mb_s",
            mb_per_s(frame.len() * LOOPBACK_FRAMES, frames_s),
        ),
        ("fl.net.loopback_rtt_us", median(&rtt_us)),
    ])
}

/// `fl::checkpoint`: encode, durable save and validated load of `model` as
/// the state after round 0 of `sample`'s run (a checkpoint must carry the
/// metrics rows up to its round).
fn checkpoint_probe(sample: &FlSample, model: &StateDict, dir: &Path) -> Result<Metrics, String> {
    let cfg = &sample.cfg;
    let copy = model.clone();
    let t0 = Instant::now();
    let ckpt = Checkpoint::new(cfg, copy, &sample.rounds[..1]);
    let encoded = ckpt.encode();
    let encode_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let saved = checkpoint::save(dir, &ckpt);
    let save_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let loaded = saved.and_then(|_| checkpoint::load_latest(dir, config_fingerprint(cfg)));
    let load_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    match loaded {
        Ok(Some(loaded)) if bit_identical(&loaded.global, model) => {}
        Ok(_) => return Err("checkpoint probe did not load the model it saved".into()),
        Err(e) => return Err(e.to_string()),
    }
    Ok(vec![
        ("fl.checkpoint.encode_s", encode_s),
        ("fl.checkpoint.save_s", save_s),
        ("fl.checkpoint.load_s", load_s),
        ("fl.checkpoint.bytes", encoded.len() as f64),
    ])
}

/// `dnn`: one local epoch and one evaluation on one client's shard.
fn dnn_probe(cfg: &FlConfig, seed: u64) -> Metrics {
    let (channels, height, _, classes) = cfg.dataset.dims();
    let (train, test) = cfg
        .dataset
        .generate(cfg.samples_per_client, cfg.test_samples, seed);
    let mut net = cfg.arch.build(channels, height, classes, seed);
    let mut rng = SplitMix64::new(seed);
    let t0 = Instant::now();
    black_box(net.train_epoch(&train, cfg.batch_size, cfg.lr, cfg.momentum, &mut rng));
    let train_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    black_box(net.evaluate(&test));
    let eval_s = t0.elapsed().as_secs_f64();
    vec![
        ("dnn.train_samples_s", train.n as f64 / train_s),
        ("dnn.eval_samples_s", test.n as f64 / eval_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::{Tensor, TensorKind};

    #[test]
    fn prefix_keeps_leading_entries_within_the_cap_and_never_none() {
        let mut sd = StateDict::new();
        for i in 0..4 {
            sd.insert(
                format!("l{i}.weight"),
                TensorKind::Weight,
                Tensor::from_vec(vec![0.0; 100]),
            );
        }
        assert_eq!(prefix(&sd, 900).len(), 2);
        assert_eq!(prefix(&sd, 10).len(), 1);
        assert_eq!(prefix(&sd, usize::MAX).len(), 4);
    }
}
