//! Integration tests for the extension features: per-round error-bound
//! scheduling in the FL loop and Top-K + FedSZ composition.

use fedsz::{BoundSchedule, ErrorBound, FedSzConfig, LosslessKind, LossyKind, TopK};
use fedsz_fl::{run_with, FlConfig, FlRunResult, RunSpec, Transport, SMALL_MODEL_THRESHOLD};

fn quick_cfg(rounds: usize) -> FlConfig {
    FlConfig {
        rounds,
        samples_per_client: 64,
        test_samples: 80,
        ..FlConfig::default()
    }
}

/// A run of `cfg` over `transport` with the uplink codec `schedule` picks
/// per round.
fn scheduled_run(
    cfg: &FlConfig,
    transport: Transport,
    schedule: impl Fn(usize) -> Option<FedSzConfig> + Sync,
) -> FlRunResult {
    let spec = RunSpec {
        transport,
        schedule: Some(&schedule),
        ..RunSpec::default()
    };
    run_with(cfg, &spec).expect("fl run")
}

/// The uplink codec at `schedule`'s relative bound for `round`.
fn codec_at(schedule: BoundSchedule, round: usize) -> Option<FedSzConfig> {
    Some(FedSzConfig {
        threshold: SMALL_MODEL_THRESHOLD,
        ..FedSzConfig::with_rel_bound(schedule.bound_at(round))
    })
}

#[test]
fn scheduled_bounds_change_per_round_ratios() {
    let schedule = BoundSchedule::Step {
        coarse: 1e-1,
        fine: 1e-3,
        switch_round: 2,
    };
    let result = scheduled_run(&quick_cfg(4), Transport::InProcess, |round| {
        codec_at(schedule, round)
    });
    // Coarse rounds must compress much harder than fine rounds.
    let coarse_ratio = result.rounds[0].compression_ratio();
    let fine_ratio = result.rounds[3].compression_ratio();
    assert!(
        coarse_ratio > 1.5 * fine_ratio,
        "coarse {coarse_ratio} vs fine {fine_ratio}"
    );
}

#[test]
fn schedule_none_disables_compression_for_a_round() {
    let result = scheduled_run(&quick_cfg(2), Transport::InProcess, |round| {
        (round == 1).then(|| FedSzConfig {
            threshold: SMALL_MODEL_THRESHOLD,
            ..FedSzConfig::with_rel_bound(1e-2)
        })
    });
    assert_eq!(
        result.rounds[0].bytes_on_wire,
        result.rounds[0].bytes_uncompressed
    );
    assert!(result.rounds[1].bytes_on_wire < result.rounds[1].bytes_uncompressed / 2);
}

#[test]
fn step_schedule_is_bit_identical_on_every_transport() {
    // The schedule reaches the channel and TCP clients too, not only the
    // in-process loop: the same seeds give the same model and the same
    // per-round uplink bytes however the updates travel.
    let schedule = BoundSchedule::Step {
        coarse: 1e-1,
        fine: 1e-3,
        switch_round: 1,
    };
    let cfg = FlConfig {
        n_clients: 3,
        samples_per_client: 32,
        test_samples: 48,
        ..quick_cfg(3)
    };
    let [in_process, channel, tcp] = [Transport::InProcess, Transport::Channel, Transport::Tcp]
        .map(|transport| scheduled_run(&cfg, transport, |round| codec_at(schedule, round)));
    let ratios: Vec<f64> = in_process
        .rounds
        .iter()
        .map(|r| r.compression_ratio())
        .collect();
    assert!(
        ratios[0] > 1.5 * ratios[2],
        "the step did not bite: {ratios:?}"
    );
    for (name, run) in [("channel", channel), ("tcp", tcp)] {
        assert_eq!(run.final_model, in_process.final_model, "{name}");
        let bytes = |r: &FlRunResult| r.rounds.iter().map(|m| m.bytes_on_wire).collect::<Vec<_>>();
        assert_eq!(bytes(&run), bytes(&in_process), "{name}");
    }
}

#[test]
fn decaying_schedule_still_learns() {
    let rounds = 5;
    let schedule = BoundSchedule::GeometricDecay {
        start: 1e-1,
        end: 1e-3,
        rounds,
    };
    let result = scheduled_run(&quick_cfg(rounds), Transport::InProcess, |round| {
        codec_at(schedule, round)
    });
    assert!(
        result.final_accuracy() > 0.25,
        "accuracy {}",
        result.final_accuracy()
    );
}

#[test]
fn topk_composition_round_trips_real_model_updates() {
    // Train briefly, sparsify the trained weights, compose with FedSZ.
    let (train, _) = fedsz_dnn::DatasetKind::Cifar10Like.generate(64, 8, 3);
    let mut net = fedsz_dnn::ModelArch::AlexNetS.build(3, 32, 10, 4);
    let mut rng = fedsz_tensor::SplitMix64::new(5);
    net.train_epoch(&train, 16, 0.01, 0.9, &mut rng);
    let sd = net.state_dict();

    for e in sd.entries() {
        if e.tensor.numel() < 1000 {
            continue;
        }
        let sparse = TopK::new(0.2).sparsify(e.tensor.data());
        let bytes =
            sparse.to_composed_bytes(LossyKind::Sz2, ErrorBound::Rel(1e-2), LosslessKind::BloscLz);
        let back = fedsz::SparseUpdate::from_composed_bytes(&bytes).unwrap();
        assert_eq!(back.indices, sparse.indices, "{}", e.name);
        let dense = back.densify();
        // Dropped positions are exactly zero; kept positions are bounded.
        let bound = 1e-2 * fedsz_eblc::value_range(&sparse.values);
        let index_set: std::collections::HashSet<u32> = sparse.indices.iter().copied().collect();
        for (i, (&orig, &rec)) in e.tensor.data().iter().zip(&dense).enumerate() {
            if index_set.contains(&(i as u32)) {
                assert!(
                    ((orig - rec).abs() as f64) <= bound * (1.0 + 1e-6),
                    "{} idx {i}",
                    e.name
                );
            } else {
                assert_eq!(rec, 0.0, "{} idx {i} should be dropped", e.name);
            }
        }
    }
}
