//! Cross-crate integration: full-scale model zoo state dicts through the
//! FedSZ pipeline, with bound and exactness guarantees checked per entry.

use fedsz::{
    census, compress, compress_with_stats, decompress, CodecError, CompressedUpdate, FedSzConfig,
    LossyKind, Route,
};
use fedsz_eblc::value_range;
use fedsz_entropy::{reader, varint};
use fedsz_models::ModelKind;
use fedsz_tensor::{f32s_to_le_bytes, StateDict};

#[test]
fn mobilenet_round_trip_honours_bounds_everywhere() {
    let sd = ModelKind::MobileNetV2.synthesize(10, 100);
    let cfg = FedSzConfig::with_rel_bound(1e-2);
    let restored = decompress(&compress(&sd, &cfg)).expect("round trip");
    assert_eq!(restored.len(), sd.len());

    for (a, b) in sd.entries().iter().zip(restored.entries()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.tensor.shape(), b.tensor.shape());
        let is_lossy = fedsz::route_of(&a.name, a.tensor.numel(), cfg.threshold) == Route::Lossy;
        if is_lossy {
            let bound = 1e-2 * value_range(a.tensor.data());
            assert!(
                (a.tensor.max_abs_diff(&b.tensor) as f64) <= bound * (1.0 + 1e-6),
                "{} exceeded its bound",
                a.name
            );
        } else {
            assert_eq!(a.tensor, b.tensor, "{} must be bit-exact", a.name);
        }
    }
}

#[test]
fn resnet50_compresses_in_the_papers_decade() {
    let sd = ModelKind::ResNet50.synthesize(10, 101);
    let (_, stats) = compress_with_stats(&sd, &FedSzConfig::with_rel_bound(1e-2));
    // Table V: ResNet50 at 1e-2 lands around 7x; synthesized weights put
    // any healthy implementation in the 4-20x decade.
    let ratio = stats.compression_ratio();
    assert!((4.0..20.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn every_lossy_codec_survives_the_full_pipeline() {
    let sd = ModelKind::MobileNetV2.synthesize(101, 102);
    for lossy in LossyKind::all() {
        let cfg = FedSzConfig {
            lossy,
            ..FedSzConfig::with_rel_bound(1e-2)
        };
        let restored =
            decompress(&compress(&sd, &cfg)).unwrap_or_else(|e| panic!("{}: {e}", lossy.name()));
        assert_eq!(restored.num_params(), sd.num_params(), "{}", lossy.name());
    }
}

#[test]
fn lossy_fractions_match_table_iii() {
    // Table III: MobileNetV2 96.94%, ResNet50 99.47%, AlexNet 99.98%.
    let cases = [
        (ModelKind::MobileNetV2, 0.9694, 0.02),
        (ModelKind::ResNet50, 0.9947, 0.01),
        (ModelKind::AlexNet, 0.9998, 0.001),
    ];
    for (model, paper, tol) in cases {
        let sd = model.synthesize(1000, 7);
        let frac = census(&sd, fedsz::DEFAULT_THRESHOLD).lossy_fraction();
        assert!(
            (frac - paper).abs() < tol,
            "{}: lossy fraction {frac:.4} vs paper {paper}",
            model.name()
        );
    }
}

#[test]
fn ratios_decrease_with_tighter_bounds_end_to_end() {
    let sd = ModelKind::MobileNetV2.synthesize(10, 103);
    let mut last = f64::INFINITY;
    for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
        let (_, stats) = compress_with_stats(&sd, &FedSzConfig::with_rel_bound(rel));
        let ratio = stats.compression_ratio();
        assert!(ratio < last, "ratio {ratio} not decreasing at {rel:e}");
        assert!(ratio > 1.0, "no compression at {rel:e}");
        last = ratio;
    }
}

/// The serial reference for the per-tensor pipeline: one codec call per
/// entry, in entry order, on this thread.
fn serial_payloads(sd: &StateDict, cfg: &FedSzConfig) -> Vec<(Route, Vec<u8>)> {
    sd.entries()
        .iter()
        .map(|e| {
            let route = fedsz::route_of(&e.name, e.tensor.numel(), cfg.threshold);
            let payload = match route {
                Route::Lossy => cfg.lossy.compress(e.tensor.data(), cfg.error_bound),
                Route::Lossless => cfg.lossless.compress(&f32s_to_le_bytes(e.tensor.data())),
            };
            (route, payload)
        })
        .collect()
}

/// `payloads` framed as `fedsz::compress` frames them.
fn framed(sd: &StateDict, cfg: &FedSzConfig, payloads: &[(Route, Vec<u8>)]) -> CompressedUpdate {
    let mut out = b"FSZ1".to_vec();
    out.extend([cfg.lossy.tag(), cfg.lossless.tag()]);
    varint::write_usize(&mut out, sd.len());
    for (e, (route, payload)) in sd.entries().iter().zip(payloads) {
        varint::write_usize(&mut out, e.name.len());
        out.extend_from_slice(e.name.as_bytes());
        out.push(e.kind.tag());
        varint::write_usize(&mut out, e.tensor.ndim());
        for &d in e.tensor.shape() {
            varint::write_usize(&mut out, d);
        }
        out.push((*route == Route::Lossy) as u8);
        varint::write_usize(&mut out, payload.len());
        out.extend_from_slice(payload);
    }
    CompressedUpdate::from_bytes(out)
}

/// One payload decoded as `fedsz::decompress` decodes it.
fn decode_payload(cfg: &FedSzConfig, route: Route, payload: &[u8]) -> Result<Vec<f32>, CodecError> {
    match route {
        Route::Lossy => cfg.lossy.decompress(payload),
        Route::Lossless => Ok(reader::f32s_from_le_bytes(
            &cfg.lossless.decompress(payload)?,
        )),
    }
}

/// The 4 MiB below which `vendor/rayon` keeps a call on one thread; a
/// model over it takes helper threads where the machine has them.
const PARALLEL_GATE_BYTES: usize = 4 << 20;

/// Two MobileNetV2s side by side: 628 entries and 18 MB, four times the
/// size gate, with no tensor larger than 1.6 MB, so that eight callers at
/// once stay small.
fn two_mobilenets(seed: u64) -> StateDict {
    let mut sd = StateDict::new();
    for (prefix, seed) in [("a.", seed), ("b.", seed + 1)] {
        for e in ModelKind::MobileNetV2.synthesize(10, seed).entries() {
            sd.insert(format!("{prefix}{}", e.name), e.kind, e.tensor.clone());
        }
    }
    assert!(sd.len() == 628 && sd.nbytes() >= 4 * PARALLEL_GATE_BYTES);
    sd
}

/// `compress` and `decompress` of `sd` under `cfg` against one codec call
/// per entry in order, on one thread: the same bytes and the same values,
/// also with eight callers at once contending for the same helper budget.
fn assert_pipeline_equals_the_serial_reference(sd: &StateDict, cfg: &FedSzConfig) {
    let payloads = serial_payloads(sd, cfg);
    let reference = framed(sd, cfg, &payloads);
    let values: Vec<Vec<f32>> = payloads
        .iter()
        .map(|(route, payload)| decode_payload(cfg, *route, payload).unwrap())
        .collect();

    let check = || {
        let update = compress(sd, cfg);
        assert!(update == reference, "compressed bytes differ");
        let restored = decompress(&update).expect("round trip");
        assert_eq!(restored.len(), sd.len());
        for ((was, now), expected) in sd.entries().iter().zip(restored.entries()).zip(&values) {
            assert_eq!((&was.name, was.kind), (&now.name, now.kind));
            assert_eq!(was.tensor.shape(), now.tensor.shape());
            // Bit patterns: a lossless entry may hold any float.
            assert!(
                now.tensor
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(expected.iter().map(|v| v.to_bits())),
                "{} decoded differently",
                now.name
            );
        }
    };
    check();
    // What each caller gets of the budget must not show in its output.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(check);
        }
    });
}

#[test]
fn the_shared_out_pipeline_equals_the_serial_reference_also_under_concurrent_callers() {
    assert_pipeline_equals_the_serial_reference(
        &two_mobilenets(104),
        &FedSzConfig::with_rel_bound(1e-4),
    );
}

#[test]
fn one_mobilenet_shared_out_equals_the_serial_reference_at_both_bounds() {
    // The update `codec_mobilenet_e4` and `server_ingest` code: 314 entries
    // and 9 MB, over the gate, so its entries are shared out where the
    // machine has a spare core.
    let sd = ModelKind::MobileNetV2.synthesize(10, 106);
    assert!(sd.len() == 314 && sd.nbytes() >= PARALLEL_GATE_BYTES);
    for rel in [1e-2, 1e-4] {
        assert_pipeline_equals_the_serial_reference(&sd, &FedSzConfig::with_rel_bound(rel));
    }
}

#[test]
fn of_two_corrupt_entries_the_first_ones_error_is_returned_every_time() {
    let sd = two_mobilenets(105);
    let cfg = FedSzConfig::with_rel_bound(1e-2);
    let mut payloads = serial_payloads(&sd, &cfg);
    // Entries are claimed largest first, and the two largest are the same
    // layer of the two models. The later one fails on its mode byte, so its
    // error is seen at once; the earlier one loses its last byte, so its
    // decoder runs for a while before it fails, and its error is the one a
    // loop over the entries returns.
    let lossy = |i: &usize| payloads[*i].0 == Route::Lossy;
    let numel = |i: &usize| sd.entries()[*i].tensor.numel();
    let second = (0..payloads.len()).filter(lossy).max_by_key(numel).unwrap();
    let first = (0..second).filter(lossy).max_by_key(numel).unwrap();
    payloads[first].1.pop();
    payloads[second].1 = vec![0xFF];
    let errors =
        [first, second].map(|i| decode_payload(&cfg, payloads[i].0, &payloads[i].1).unwrap_err());
    assert_ne!(
        errors[0], errors[1],
        "the two corruptions must be told apart"
    );

    let hostile = framed(&sd, &cfg, &payloads);
    for repetition in 0..100 {
        assert_eq!(
            decompress(&hostile).unwrap_err(),
            errors[0],
            "repetition {repetition}"
        );
    }
}
