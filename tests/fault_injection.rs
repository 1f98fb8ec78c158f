//! Failure injection across the wire format and the transport: flipped
//! bits, truncations, hostile headers, plus corrupt / dead / straggling
//! clients driven by a [`FaultPlan`]. The server must reject — or at
//! minimum never panic on — any corrupted client update, and must complete
//! every round over the surviving quorum.

use std::time::Duration;

use fedsz::{compress, decompress, CompressedUpdate, FedSzConfig};
use fedsz_fl::{run_with, FaultKind, FaultPlan, FlConfig, FlError, RunSpec, Transport};
use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};

fn sample_update() -> CompressedUpdate {
    let mut rng = SplitMix64::new(1);
    let mut sd = StateDict::new();
    let w: Vec<f32> = (0..5000)
        .map(|_| rng.normal_with(0.0, 0.05) as f32)
        .collect();
    sd.insert("fc.weight", TensorKind::Weight, Tensor::from_vec(w));
    let b: Vec<f32> = (0..32).map(|_| rng.normal_with(0.0, 0.01) as f32).collect();
    sd.insert("fc.bias", TensorKind::Bias, Tensor::from_vec(b));
    compress(
        &sd,
        &FedSzConfig {
            threshold: 128,
            ..FedSzConfig::default()
        },
    )
}

#[test]
fn every_prefix_truncation_is_handled() {
    let bytes = sample_update().into_bytes();
    for cut in 0..bytes.len().min(200) {
        let update = CompressedUpdate::from_bytes(bytes[..cut].to_vec());
        // Must not panic; error expected for any strict prefix.
        assert!(
            decompress(&update).is_err(),
            "prefix of {cut} bytes accepted"
        );
    }
    // Coarser sweep over the long tail.
    let mut cut = 200;
    while cut < bytes.len() {
        let update = CompressedUpdate::from_bytes(bytes[..cut].to_vec());
        assert!(
            decompress(&update).is_err(),
            "prefix of {cut} bytes accepted"
        );
        cut += 997;
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    let bytes = sample_update().into_bytes();
    let mut rng = SplitMix64::new(7);
    for _ in 0..300 {
        let mut corrupted = bytes.clone();
        let pos = rng.below(corrupted.len());
        let flip = (rng.next_u64() % 255 + 1) as u8;
        corrupted[pos] ^= flip;
        // Any outcome except a panic is acceptable; most corruptions are
        // detected, some land in lossy payload values and decode to
        // different numbers.
        let _ = decompress(&CompressedUpdate::from_bytes(corrupted));
    }
}

#[test]
fn random_garbage_is_rejected() {
    let mut rng = SplitMix64::new(9);
    for len in [0usize, 1, 4, 6, 100, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert!(
            decompress(&CompressedUpdate::from_bytes(garbage)).is_err(),
            "garbage of {len} bytes accepted"
        );
    }
}

#[test]
fn valid_magic_with_hostile_lengths_is_rejected() {
    // Claim an enormous entry count / name length after a valid magic.
    let mut bytes = sample_update().into_bytes();
    // Entry count varint sits right after the 6-byte header; overwrite it
    // with a huge value.
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    bytes[8] = 0x7F;
    let update = CompressedUpdate::from_bytes(bytes);
    assert!(decompress(&update).is_err());
}

#[test]
fn overflowing_frame_lengths_are_rejected_not_panicked() {
    // A hostile varint length must not overflow `pos + len` (a panic in
    // debug builds before the checked_add fix). Build a stream with a valid
    // header claiming a name of usize::MAX bytes, and another claiming a
    // payload of usize::MAX bytes behind an otherwise valid frame prefix.
    let sample = sample_update().into_bytes();
    let (lossy_tag, lossless_tag) = (sample[4], sample[5]);

    let mut hostile_name = Vec::new();
    hostile_name.extend_from_slice(b"FSZ1");
    hostile_name.push(lossy_tag);
    hostile_name.push(lossless_tag);
    fedsz_entropy::varint::write_usize(&mut hostile_name, 1); // one entry
    fedsz_entropy::varint::write_usize(&mut hostile_name, usize::MAX); // name length
    assert!(decompress(&CompressedUpdate::from_bytes(hostile_name)).is_err());

    let mut hostile_payload = Vec::new();
    hostile_payload.extend_from_slice(b"FSZ1");
    hostile_payload.push(lossy_tag);
    hostile_payload.push(lossless_tag);
    fedsz_entropy::varint::write_usize(&mut hostile_payload, 1); // one entry
    fedsz_entropy::varint::write_usize(&mut hostile_payload, 1); // name length
    hostile_payload.push(b'w');
    hostile_payload.push(0); // kind tag: Weight
    fedsz_entropy::varint::write_usize(&mut hostile_payload, 1); // ndim
    fedsz_entropy::varint::write_usize(&mut hostile_payload, 4); // dim
    hostile_payload.push(0); // route tag: lossless
    fedsz_entropy::varint::write_usize(&mut hostile_payload, usize::MAX); // payload length
    assert!(decompress(&CompressedUpdate::from_bytes(hostile_payload)).is_err());
}

#[test]
fn swapped_payloads_between_entries_fail_cleanly() {
    // Rebuild the update with the lossless codec tag corrupted to a
    // different (valid) codec: frames will not parse under the wrong codec.
    let mut bytes = sample_update().into_bytes();
    let original = bytes[5];
    bytes[5] = (original + 1) % 5;
    let _ = decompress(&CompressedUpdate::from_bytes(bytes));
    // No panic is the contract; rejection is the expected outcome because
    // codec magics differ.
}

// ---------------------------------------------------------------------------
// Transport-level fault injection: the server must survive corrupt, dead,
// and straggling clients, aggregate over the quorum, and account for every
// failure in the per-round metrics.
// ---------------------------------------------------------------------------

/// Small, fast FL setup for transport fault scenarios.
fn fl_cfg(n_clients: usize, rounds: usize) -> FlConfig {
    FlConfig {
        dataset: fedsz_dnn::DatasetKind::FashionMnistLike,
        n_clients,
        rounds,
        samples_per_client: 32,
        test_samples: 48,
        batch_size: 16,
        compression: FlConfig::with_fedsz(1e-2).compression,
        seed: 7,
        ..FlConfig::default()
    }
}

/// The channel transport under the default policy.
fn channel() -> RunSpec<'static> {
    RunSpec {
        transport: Transport::Channel,
        ..RunSpec::default()
    }
}

/// The in-process run under `faults`.
fn in_process_under(faults: FaultPlan) -> RunSpec<'static> {
    RunSpec {
        faults,
        ..RunSpec::default()
    }
}

#[test]
fn corrupt_uplink_is_rejected_and_round_completes_on_quorum() {
    let spec = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Corrupt),
        ..channel()
    };
    let result = run_with(&fl_cfg(4, 3), &spec).expect("fl run");
    assert_eq!(result.rounds.len(), 3);
    let r1 = &result.rounds[1].faults;
    assert_eq!(
        (r1.delivered, r1.rejected, r1.late, r1.dropped),
        (3, 1, 0, 0)
    );
    for round in [0, 2] {
        let f = &result.rounds[round].faults;
        assert!(f.is_clean(), "round {round}: {f:?}");
        assert_eq!(f.delivered, 4);
    }
}

#[test]
fn dead_client_does_not_deadlock_the_server() {
    let spec = RunSpec {
        round_deadline: Some(Duration::from_secs(5)),
        faults: FaultPlan::new().with(2, 1, FaultKind::Crash),
        ..channel()
    };
    let result = run_with(&fl_cfg(4, 3), &spec).expect("fl run");
    assert_eq!(result.rounds.len(), 3);
    // Crash round: the client received the broadcast but never answered, so
    // it runs out the deadline as a straggler.
    let r1 = &result.rounds[1].faults;
    assert_eq!((r1.delivered, r1.late, r1.dropped), (3, 1, 0));
    // Next round: its channel is gone, so it is dropped up front and the
    // round completes without waiting for the deadline.
    let r2 = &result.rounds[2].faults;
    assert_eq!((r2.delivered, r2.late, r2.dropped), (3, 0, 1));
}

#[test]
fn straggler_past_the_deadline_is_dropped_and_counted() {
    let spec = RunSpec {
        round_deadline: Some(Duration::from_millis(1500)),
        faults: FaultPlan::new().with(0, 1, FaultKind::Delay(Duration::from_secs(4))),
        ..channel()
    };
    let result = run_with(&fl_cfg(4, 2), &spec).expect("fl run");
    assert_eq!(result.rounds.len(), 2);
    assert!(result.rounds[0].faults.is_clean());
    let r1 = &result.rounds[1].faults;
    assert_eq!(
        (r1.delivered, r1.rejected, r1.late, r1.dropped),
        (3, 0, 1, 0)
    );
}

#[test]
fn quorum_not_met_is_a_typed_error_not_a_panic() {
    let spec = RunSpec {
        min_quorum: 2,
        faults: FaultPlan::new()
            .with(0, 0, FaultKind::Corrupt)
            .with(1, 0, FaultKind::Corrupt),
        ..channel()
    };
    let err = run_with(&fl_cfg(2, 2), &spec).unwrap_err();
    assert_eq!(
        err,
        FlError::QuorumNotMet {
            round: 0,
            delivered: 0,
            required: 2,
        }
    );
}

#[test]
fn quorum_starved_round_recovers_on_retry() {
    // Injected faults fire on the first attempt only, so one retry heals a
    // transient corrupt update.
    let spec = RunSpec {
        min_quorum: 2,
        max_round_retries: 1,
        faults: FaultPlan::new().with(0, 0, FaultKind::Corrupt),
        ..channel()
    };
    let result = run_with(&fl_cfg(2, 2), &spec).expect("fl run");
    let r0 = &result.rounds[0].faults;
    // The rejection on the first attempt stays visible; the retry delivered
    // a full quorum.
    assert_eq!((r0.delivered, r0.rejected), (2, 1));
    assert!(result.rounds[1].faults.is_clean());
}

#[test]
fn non_finite_update_is_quarantined_with_exact_accounting() {
    // A NaN-poisoned update travels the lossless path bit-exactly, decodes
    // cleanly, and must be caught by semantic validation — quarantined, not
    // rejected, and never aggregated.
    let spec = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::NonFiniteUpdate),
        ..channel()
    };
    let result = run_with(&fl_cfg(4, 3), &spec).expect("fl run");
    assert!(result.rounds[0].faults.is_clean());
    let r1 = &result.rounds[1].faults;
    assert_eq!(
        (
            r1.delivered,
            r1.rejected,
            r1.quarantined,
            r1.late,
            r1.dropped
        ),
        (3, 0, 1, 0, 0)
    );
    assert!(result.rounds[2].faults.is_clean());
    assert_eq!(result.fault_summary().quarantined, 1);
    // Every aggregated weight stayed finite.
    for e in result.final_model.entries() {
        assert!(e.tensor.data().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn wrong_shape_update_is_quarantined_and_excluded_like_a_rejection() {
    // Excluding a client because its update is misshapen must land the
    // aggregate on the same bits as excluding it because its bytes were
    // corrupt: both aggregate over the identical surviving quorum.
    let cfg = fl_cfg(4, 3);
    let quarantine = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::WrongShape),
        ..channel()
    };
    let reject = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Corrupt),
        ..channel()
    };
    let q = run_with(&cfg, &quarantine).expect("quarantine run");
    let r = run_with(&cfg, &reject).expect("reject run");
    let r1 = &q.rounds[1].faults;
    assert_eq!((r1.delivered, r1.quarantined, r1.rejected), (3, 1, 0));
    let acc_q: Vec<f64> = q.rounds.iter().map(|x| x.accuracy).collect();
    let acc_r: Vec<f64> = r.rounds.iter().map(|x| x.accuracy).collect();
    assert_eq!(acc_q, acc_r, "quarantine and rejection must exclude alike");
    assert_eq!(q.final_model, r.final_model);
}

#[test]
fn parallel_ingest_is_bit_identical_to_serial() {
    // The parallel decompress/validate pool must be invisible downstream:
    // any worker count produces the same bits as the serial server — same
    // final model, same per-round accuracies, same metric sums.
    let spec = channel();
    let mut base = fl_cfg(4, 2);
    base.ingest_workers = 0;
    let serial = run_with(&base, &spec).expect("serial run");
    for workers in [1usize, 4, 8] {
        let mut cfg = fl_cfg(4, 2);
        cfg.ingest_workers = workers;
        let parallel = run_with(&cfg, &spec).expect("parallel run");
        assert_eq!(
            parallel.final_model, serial.final_model,
            "workers={workers}"
        );
        for (s, p) in serial.rounds.iter().zip(&parallel.rounds) {
            assert_eq!(p.accuracy, s.accuracy, "workers={workers}");
            assert_eq!(p.faults, s.faults, "workers={workers}");
            assert_eq!(p.bytes_on_wire, s.bytes_on_wire, "workers={workers}");
            assert_eq!(
                p.bytes_uncompressed, s.bytes_uncompressed,
                "workers={workers}"
            );
        }
    }
}

#[test]
fn parallel_ingest_is_bit_identical_to_serial_under_faults() {
    // Same invariant with hostile traffic in flight: a corrupt payload and
    // a NaN-poisoned update land in the same round, and the pool must
    // reject / quarantine them with exactly the serial server's accounting
    // while the surviving quorum aggregates to the same bits.
    let spec = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Corrupt).with(
            2,
            1,
            FaultKind::NonFiniteUpdate,
        ),
        ..channel()
    };
    let mut base = fl_cfg(4, 3);
    base.ingest_workers = 0;
    let serial = run_with(&base, &spec).expect("serial run");
    let r1 = &serial.rounds[1].faults;
    assert_eq!((r1.delivered, r1.rejected, r1.quarantined), (2, 1, 1));
    for workers in [1usize, 4, 8] {
        let mut cfg = fl_cfg(4, 3);
        cfg.ingest_workers = workers;
        let parallel = run_with(&cfg, &spec).expect("parallel run");
        assert_eq!(
            parallel.final_model, serial.final_model,
            "workers={workers}"
        );
        for (s, p) in serial.rounds.iter().zip(&parallel.rounds) {
            assert_eq!(p.accuracy, s.accuracy, "workers={workers}");
            assert_eq!(p.faults, s.faults, "workers={workers}");
        }
    }
}

#[test]
fn replayed_updates_are_discarded_first_wins() {
    // Client 2 sends its (valid) round-1 update eight times. First-wins
    // admission folds the first copy and discards the byte-identical
    // replays undecoded, so the run is indistinguishable from a clean one:
    // same bits, same bytes, clean fault counters.
    let cfg = fl_cfg(4, 3);
    let clean = run_with(&cfg, &channel()).expect("clean run");
    let spec = RunSpec {
        faults: FaultPlan::new().with(2, 1, FaultKind::Replay(7)),
        ..channel()
    };
    let replayed = run_with(&cfg, &spec).expect("replayed run");
    assert_eq!(replayed.final_model, clean.final_model);
    for (c, r) in clean.rounds.iter().zip(&replayed.rounds) {
        assert!(r.faults.is_clean(), "round {}: {:?}", r.round, r.faults);
        assert_eq!(r.accuracy, c.accuracy);
        assert_eq!(r.bytes_on_wire, c.bytes_on_wire);
    }
}

#[test]
fn in_process_faults_match_the_channel_transport_on_real_bytes() {
    // The in-process path has no classification table of its own: a faulted
    // client really truncates, flips, replays or corrupts its payload and
    // the server really fails (or declines) to decode it. So for the
    // payload-level kinds the chaos soak does not plan, everything the run
    // reports must equal what the channel transport reports.
    let cfg = fl_cfg(4, 3);
    let plan = FaultPlan::new()
        .with(0, 0, FaultKind::TruncateFrame)
        .with(1, 0, FaultKind::FlipBytes(16))
        .with(2, 1, FaultKind::Replay(3))
        .with(3, 1, FaultKind::Corrupt);
    let in_process = run_with(&cfg, &in_process_under(plan.clone())).expect("in-process run");
    let spec = RunSpec {
        faults: plan,
        ..channel()
    };
    let channel = run_with(&cfg, &spec).expect("channel run");

    // Not vacuous: the planned damage was really refused.
    let rejected: Vec<usize> = in_process
        .rounds
        .iter()
        .map(|r| r.faults.rejected)
        .collect();
    assert_eq!(rejected, vec![2, 1, 0]);
    let delivered: Vec<usize> = in_process
        .rounds
        .iter()
        .map(|r| r.faults.delivered)
        .collect();
    assert_eq!(delivered, vec![2, 3, 4], "a replay still delivers once");

    for (i, c) in in_process.rounds.iter().zip(&channel.rounds) {
        assert_eq!(i.faults, c.faults, "round {}", i.round);
        assert_eq!(i.quarantine_reasons, c.quarantine_reasons);
        assert_eq!(i.bytes_on_wire, c.bytes_on_wire, "round {}", i.round);
        assert_eq!(i.bytes_uncompressed, c.bytes_uncompressed);
        assert_eq!(i.accuracy, c.accuracy, "round {}", i.round);
    }
    let bits = |sd: &StateDict| -> Vec<u32> {
        sd.entries()
            .iter()
            .flat_map(|e| e.tensor.data().iter().map(|v| v.to_bits()))
            .collect()
    };
    assert_eq!(bits(&in_process.final_model), bits(&channel.final_model));

    // Without compression a client hands its state dict over as it is —
    // except the one whose fault needs bytes to corrupt. That one
    // serializes, is rejected in decode, and leaves the honest clients'
    // accounting raw.
    let raw_cfg = FlConfig {
        compression: None,
        ..fl_cfg(4, 1)
    };
    let raw = run_with(
        &raw_cfg,
        &in_process_under(FaultPlan::new().with(0, 0, FaultKind::Corrupt)),
    )
    .expect("raw run");
    let r0 = &raw.rounds[0];
    assert_eq!((r0.faults.delivered, r0.faults.rejected), (3, 1));
    assert!(r0.bytes_on_wire > 0);
    assert_eq!(r0.bytes_on_wire, r0.bytes_uncompressed);
    assert_eq!(r0.compress_s_total, 0.0);
    assert_eq!(r0.bytes_down_wire, 0);
}

#[test]
fn sampled_rounds_under_faults_are_bit_identical_across_worker_counts() {
    // Cross-device sampling with hostile traffic in flight: whichever
    // cohort members the faults hit, serial and parallel ingest must land
    // on the same bits with the same accounting.
    let spec = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Corrupt).with(
            2,
            1,
            FaultKind::NonFiniteUpdate,
        ),
        ..channel()
    };
    let mut base = fl_cfg(4, 3);
    base.population = 8;
    base.sample_fraction = 0.5;
    base.ingest_workers = 0;
    let serial = run_with(&base, &spec).expect("serial run");
    for workers in [1usize, 4, 8] {
        let mut cfg = base.clone();
        cfg.ingest_workers = workers;
        let parallel = run_with(&cfg, &spec).expect("parallel run");
        assert_eq!(
            parallel.final_model, serial.final_model,
            "workers={workers}"
        );
        for (s, p) in serial.rounds.iter().zip(&parallel.rounds) {
            assert_eq!(p.accuracy, s.accuracy, "workers={workers}");
            assert_eq!(p.faults, s.faults, "workers={workers}");
        }
    }
}

#[test]
fn combined_faults_complete_all_rounds_with_exact_accounting() {
    // The acceptance scenario: one corrupt update, one dead client, and one
    // straggler in a single run. Every round completes without panic or
    // deadlock, aggregation runs over the quorum, and the per-round metrics
    // report exactly the injected rejected / late / dropped counts.
    let spec = RunSpec {
        round_deadline: Some(Duration::from_millis(1500)),
        faults: FaultPlan::new()
            .with(1, 0, FaultKind::Corrupt)
            .with(2, 1, FaultKind::Crash)
            .with(3, 3, FaultKind::Delay(Duration::from_secs(4))),
        ..channel()
    };
    let result = run_with(&fl_cfg(4, 4), &spec).expect("fl run");
    assert_eq!(result.rounds.len(), 4);

    let per_round: Vec<(usize, usize, usize, usize)> = result
        .rounds
        .iter()
        .map(|r| {
            (
                r.faults.delivered,
                r.faults.rejected,
                r.faults.late,
                r.faults.dropped,
            )
        })
        .collect();
    assert_eq!(
        per_round,
        vec![
            (3, 1, 0, 0), // corrupt update rejected
            (3, 0, 1, 0), // crashed client runs out the deadline
            (3, 0, 0, 1), // dead channel dropped up front
            (2, 0, 1, 1), // straggler late, dead client still dropped
        ]
    );
    // Aggregation kept the model learning on the quorum.
    assert!(
        result.final_accuracy() > 0.15,
        "{}",
        result.final_accuracy()
    );
    let total = result.fault_summary();
    assert_eq!(total.rejected, 1);
    assert_eq!(total.late, 2);
}
