//! Cross-crate invariants of the compression stack that individual crate
//! tests don't cover: interactions between codecs, framing, and the model
//! zoo at realistic tensor shapes.

use fedsz::{compress, compress_with_stats, decompress, FedSzConfig, LosslessKind, LossyKind};
use fedsz_eblc::ErrorBound;
use fedsz_models::ModelKind;
use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};

fn model_like_dict(seed: u64, n_layers: usize) -> StateDict {
    let mut rng = SplitMix64::new(seed);
    let mut sd = StateDict::new();
    for i in 0..n_layers {
        let n = 512 << (i % 3);
        let w: Vec<f32> = (0..n).map(|_| rng.normal_with(0.0, 0.04) as f32).collect();
        sd.insert(
            format!("layer{i}.weight"),
            TensorKind::Weight,
            Tensor::from_vec(w),
        );
        let b: Vec<f32> = (0..16).map(|_| rng.normal_with(0.0, 0.01) as f32).collect();
        sd.insert(
            format!("layer{i}.bias"),
            TensorKind::Bias,
            Tensor::from_vec(b),
        );
    }
    sd
}

#[test]
fn serialized_updates_are_stable_across_identical_inputs() {
    // Byte-identical inputs must produce byte-identical updates — FL
    // servers may deduplicate or checksum updates.
    let sd = model_like_dict(1, 4);
    let cfg = FedSzConfig::default();
    let a = compress(&sd, &cfg);
    let b = compress(&sd, &cfg);
    assert_eq!(a.as_bytes(), b.as_bytes());
}

#[test]
fn double_compression_is_idempotent_in_error() {
    // Compressing an already-round-tripped dict again must not add error:
    // reconstructed values land exactly on quantization grid points.
    let sd = model_like_dict(2, 3);
    let cfg = FedSzConfig {
        threshold: 128,
        ..FedSzConfig::default()
    };
    let once = decompress(&compress(&sd, &cfg)).unwrap();
    let twice = decompress(&compress(&once, &cfg)).unwrap();
    // The second pass quantizes against a slightly different range (the
    // first pass can shrink each tensor's extremes by up to eb), so values
    // may shift by up to one new bin — but never more than the first-pass
    // error plus rounding.
    let first_err = sd.max_abs_diff(&once);
    let drift = once.max_abs_diff(&twice);
    assert!(
        drift <= first_err * 1.05 + 1e-7,
        "drift {drift} vs first-pass error {first_err}"
    );
}

#[test]
fn updates_from_different_configs_are_distinguishable() {
    let sd = model_like_dict(3, 2);
    for lossy in LossyKind::all() {
        let cfg = FedSzConfig {
            lossy,
            threshold: 128,
            ..FedSzConfig::default()
        };
        let update = compress(&sd, &cfg);
        // Self-describing: decode without knowing the config.
        let back = decompress(&update).unwrap();
        assert_eq!(back.len(), sd.len(), "{}", lossy.name());
    }
}

#[test]
fn stats_sizes_are_consistent_with_the_wire_format() {
    let sd = model_like_dict(4, 5);
    let cfg = FedSzConfig {
        threshold: 128,
        ..FedSzConfig::default()
    };
    let (update, stats) = compress_with_stats(&sd, &cfg);
    let payload_total: usize = stats.entries.iter().map(|e| e.compressed).sum();
    // Frame headers cost a little beyond raw payloads, but only a little.
    assert!(update.nbytes() > payload_total);
    assert!(update.nbytes() < payload_total + 64 * sd.len() + 64);
    let uncompressed_total: usize = stats.entries.iter().map(|e| e.uncompressed).sum();
    assert_eq!(uncompressed_total, sd.nbytes());
}

#[test]
fn alexnet_head_and_bn_free_layout_partition_correctly() {
    // AlexNet has no batch norm: with the default threshold its lossless
    // partition is exactly the bias vectors.
    let sd = ModelKind::AlexNet.synthesize(10, 9);
    let c = fedsz::census(&sd, fedsz::DEFAULT_THRESHOLD);
    let n_biases = sd
        .entries()
        .iter()
        .filter(|e| e.name.ends_with("bias"))
        .count();
    assert_eq!(c.lossless_entries, n_biases);
    assert_eq!(c.lossy_entries + c.lossless_entries, sd.len());
}

#[test]
fn mixed_codec_matrix_on_awkward_tensor_sizes() {
    // Tensors of 1, 2, 3, prime, and power-of-two-minus-one elements, all
    // below and above the threshold, through three codec pairs.
    let mut rng = SplitMix64::new(5);
    let mut sd = StateDict::new();
    for (i, n) in [1usize, 2, 3, 127, 131, 255, 257, 8191]
        .into_iter()
        .enumerate()
    {
        let data: Vec<f32> = (0..n).map(|_| rng.normal_with(0.0, 1.0) as f32).collect();
        sd.insert(
            format!("t{i}.weight"),
            TensorKind::Weight,
            Tensor::from_vec(data),
        );
    }
    for lossy in [LossyKind::Sz2, LossyKind::Szx, LossyKind::Zfp] {
        for lossless in [LosslessKind::BloscLz, LosslessKind::Xz] {
            let cfg = FedSzConfig {
                lossy,
                lossless,
                threshold: 128,
                error_bound: ErrorBound::Rel(1e-3),
            };
            let back = decompress(&compress(&sd, &cfg)).unwrap();
            for (a, b) in sd.entries().iter().zip(back.entries()) {
                assert_eq!(
                    a.tensor.numel(),
                    b.tensor.numel(),
                    "{}/{} on {}",
                    lossy.name(),
                    lossless.name(),
                    a.name
                );
            }
        }
    }
}

#[test]
fn quality_metrics_track_the_bound_through_the_pipeline() {
    use fedsz::ReconstructionQuality;
    let sd = model_like_dict(6, 3);
    for rel in [1e-1, 1e-2, 1e-3] {
        let cfg = FedSzConfig {
            threshold: 128,
            ..FedSzConfig::with_rel_bound(rel)
        };
        let back = decompress(&compress(&sd, &cfg)).unwrap();
        for (a, b) in sd.entries().iter().zip(back.entries()) {
            if a.tensor.numel() < 128 {
                continue;
            }
            let q = ReconstructionQuality::measure(a.tensor.data(), b.tensor.data());
            assert!(q.nrmse <= rel, "{}: nrmse {} at rel {rel}", a.name, q.nrmse);
            assert!(q.max_abs_error > 0.0, "{} was not lossy", a.name);
        }
    }
}

/// Bell-shaped spiky weights from `SplitMix64` by `+ − ×` alone: no libm
/// call, so the pinned digests do not depend on the host's math library.
fn pinned_noise(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let bell = rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64() - 2.0;
            (bell * 0.05) as f32
        })
        .collect()
}

/// The inputs of `eblc_streams_are_pinned`: noise at lengths around the
/// block (128, 256), chunk (4 096), group (16 384) and multi-group sizes, and
/// one input per special path of the codecs.
fn pinned_inputs() -> Vec<(String, Vec<f32>)> {
    let mut inputs: Vec<(String, Vec<f32>)> = [1usize, 255, 256, 257, 4_095, 4_097, 16_385, 70_001]
        .into_iter()
        .map(|n| (format!("noise-{n}"), pinned_noise(n, n as u64)))
        .collect();

    // A steep sawtooth under a little noise: SZ2 picks the regression
    // predictor for its blocks under the tighter bounds.
    let mut ramp = pinned_noise(20_000, 21);
    for (i, v) in ramp.iter_mut().enumerate() {
        *v = (i % 1_000) as f32 * 0.1 + *v * 0.1;
    }
    inputs.push(("ramp".into(), ramp));

    // Every fifth value far beyond the code book of an absolute bound.
    let mut escapes = pinned_noise(8_000, 22);
    for v in escapes.iter_mut().step_by(5) {
        *v *= 1.0e6;
    }
    inputs.push(("escapes".into(), escapes));

    let mut non_finite = pinned_noise(5_000, 23);
    for (i, v) in non_finite.iter_mut().enumerate() {
        match (i % 97, i % 211, i % 389) {
            (3, _, _) => *v = f32::NAN,
            (_, 7, _) => *v = f32::INFINITY,
            (_, _, 11) => *v = f32::NEG_INFINITY,
            _ => {}
        }
    }
    inputs.push(("non-finite".into(), non_finite));

    // Range zero: RAW mode under a relative bound.
    inputs.push(("constant".into(), vec![0.25; 1_000]));
    inputs.push(("empty".into(), Vec::new()));
    inputs
}

/// Floats as bytes with matches at many distances and lengths: a ramp, a
/// small alphabet of repeated values, and noise.
fn pinned_float_bytes() -> Vec<u8> {
    let mut rng = SplitMix64::new(24);
    let noise = pinned_noise(6_000, 25);
    let floats = (0..30_000usize).map(|i| match i / 6_000 {
        0 | 3 => (i % 6_000) as f32 * 0.25,
        1 => rng.below(37) as f32 * 0.125,
        2 => noise[i % 6_000],
        _ => noise[(i * 7) % 600],
    });
    floats.flat_map(f32::to_le_bytes).collect()
}

#[test]
fn eblc_streams_are_pinned() {
    // The byte streams of every codec, pinned across commits as
    // `(length, CRC-32)`: a refactor or an optimisation that claims "no format
    // change" passes this test with `tests/golden/streams.txt` untouched; a
    // deliberate format change replaces the file with the table this test
    // prints when it fails.
    use fedsz_entropy::crc32::crc32;
    use std::fmt::Write;

    let bounds = [
        ("rel-1e-2", ErrorBound::Rel(1e-2)),
        ("rel-1e-4", ErrorBound::Rel(1e-4)),
        ("abs-1e-3", ErrorBound::Abs(1e-3)),
    ];
    let mut table = String::new();
    for (input, data) in pinned_inputs() {
        for (bound_name, bound) in bounds {
            for kind in LossyKind::all() {
                let stream = kind.compress(&data, bound);
                let ctx = format!("{} {bound_name} {input}", kind.name());
                writeln!(table, "{ctx} {} {:08x}", stream.len(), crc32(&stream)).unwrap();

                let back = kind.decompress(&stream).expect(&ctx);
                assert_eq!(back.len(), data.len(), "{ctx}");
                if !kind.is_strictly_bounded() {
                    continue;
                }
                let abs = bound.absolute(&data).max(0.0);
                for (i, (a, b)) in data.iter().zip(&back).enumerate() {
                    if a.is_finite() {
                        let err = (a - b).abs() as f64;
                        assert!(err <= abs * (1.0 + 1e-6), "{ctx} [{i}]: {a} vs {b}");
                    } else {
                        assert_eq!(a.to_bits(), b.to_bits(), "{ctx} [{i}]");
                    }
                }
            }
        }
    }
    let bytes = pinned_float_bytes();
    for kind in LosslessKind::all() {
        let stream = kind.compress(&bytes);
        let ctx = format!("{} float-bytes", kind.name());
        writeln!(table, "{ctx} {} {:08x}", stream.len(), crc32(&stream)).unwrap();
        assert_eq!(kind.decompress(&stream).expect(&ctx), bytes, "{ctx}");
    }

    let pinned = include_str!("golden/streams.txt");
    for (got, want) in table.lines().zip(pinned.lines()) {
        assert_eq!(got, want, "stream changed; the table now reads:\n{table}");
    }
    assert_eq!(
        table.lines().count(),
        pinned.lines().count(),
        "rows added or removed; the table now reads:\n{table}"
    );
}
