//! The same-bits contract, end to end: a full federated run over real TCP
//! sockets executed once with SIMD dispatch forced to scalar and once at
//! the best detected level must produce bit-identical accuracies, identical
//! wire traffic, and byte-identical FCP3 checkpoints. On a machine without
//! vector extensions both runs resolve to scalar and the comparison is
//! trivially (but still correctly) satisfied.

use fedsz_fl::{FlConfig, FlRunResult, RunSpec, Transport};

/// Small, fast FL setup (mirrors tests/tcp_transport.rs).
fn fl_cfg() -> FlConfig {
    FlConfig {
        dataset: fedsz_dnn::DatasetKind::FashionMnistLike,
        n_clients: 4,
        rounds: 2,
        samples_per_client: 32,
        test_samples: 48,
        batch_size: 16,
        compression: FlConfig::with_fedsz(1e-2).compression,
        seed: 7,
        ..FlConfig::default()
    }
}

/// Checkpoint bytes with the only by-design nondeterministic inputs — the
/// wall-clock stage timings — masked to a fixed value before encoding.
fn encode_masked(cfg: &FlConfig, result: &FlRunResult) -> Vec<u8> {
    let rounds: Vec<fedsz_fl::RoundMetrics> = result
        .rounds
        .iter()
        .map(|r| fedsz_fl::RoundMetrics {
            train_s_total: 0.0,
            compress_s_total: 0.0,
            decompress_s_total: 0.0,
            ..*r
        })
        .collect();
    fedsz_fl::checkpoint::Checkpoint::new(cfg, result.final_model.clone(), &rounds).encode()
}

#[test]
fn tcp_round_checkpoints_are_byte_identical_scalar_vs_best() {
    let cfg = fl_cfg();
    let best = fedsz_simd::detected_level();
    let tcp = RunSpec {
        transport: Transport::Tcp,
        ..RunSpec::default()
    };

    fedsz_simd::override_level(fedsz_simd::Level::Scalar);
    let scalar = fedsz_fl::run_with(&cfg, &tcp).expect("scalar tcp run");

    fedsz_simd::override_level(best);
    let vector = fedsz_fl::run_with(&cfg, &tcp).expect("vector tcp run");

    let bits =
        |r: &FlRunResult| -> Vec<u64> { r.rounds.iter().map(|m| m.accuracy.to_bits()).collect() };
    assert_eq!(
        bits(&scalar),
        bits(&vector),
        "per-round accuracies diverged"
    );
    let wire = |r: &FlRunResult| -> Vec<(usize, usize)> {
        r.rounds
            .iter()
            .map(|m| (m.bytes_on_wire, m.bytes_down_wire))
            .collect()
    };
    assert_eq!(wire(&scalar), wire(&vector), "wire byte counts diverged");

    let (a, b) = (encode_masked(&cfg, &scalar), encode_masked(&cfg, &vector));
    assert_eq!(a.len(), b.len(), "checkpoint sizes diverged");
    assert!(
        a == b,
        "checkpoint bytes diverged between scalar and {} dispatch",
        best.name()
    );
}
