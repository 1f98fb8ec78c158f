//! Kill-and-resume determinism: a server killed after broadcasting round k
//! and restarted with `resume` must finish with a final model bit-identical
//! to an uninterrupted run at the same seeds — on the channel transport, on
//! TCP, and across the two — with no round aggregated twice and exact
//! accounting of where the run picked back up.

use std::path::PathBuf;
use std::time::Duration;

use fedsz_fl::{
    run_with, FaultPlan, FlConfig, FlError, FlRunResult, NetConfig, RunSpec, Transport,
};

/// Small, fast FL setup (mirrors tests/fault_injection.rs).
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

/// Fresh, empty scratch directory for one test's checkpoints.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsz-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A short rejoin grace so client threads orphaned by a killed server give
/// up in milliseconds instead of minutes.
fn fast_net() -> NetConfig {
    NetConfig {
        rejoin_grace: Duration::from_millis(400),
        ..NetConfig::default()
    }
}

/// `transport` under the default policy, with the [`fast_net`] socket
/// policy (only TCP reads it).
fn over(transport: Transport) -> RunSpec<'static> {
    RunSpec {
        transport,
        net: fast_net(),
        ..RunSpec::default()
    }
}

fn kill_at(transport: Transport, round: usize) -> RunSpec<'static> {
    RunSpec {
        faults: FaultPlan::new().kill_server(round),
        ..over(transport)
    }
}

fn accuracies(result: &FlRunResult) -> Vec<u64> {
    // Compare accuracies as exact bit patterns: "close" is not the bar.
    result.rounds.iter().map(|r| r.accuracy.to_bits()).collect()
}

fn assert_no_round_twice(result: &FlRunResult, rounds: usize) {
    let seen: Vec<usize> = result.rounds.iter().map(|r| r.round).collect();
    assert_eq!(seen, (0..rounds).collect::<Vec<_>>(), "round sequence");
}

#[test]
fn killed_channel_server_resumes_to_a_bit_identical_model() {
    let rounds = 4;
    let kill_round = 2;
    let dir = scratch("channel");
    let baseline =
        run_with(&fl_cfg(4, rounds), &over(Transport::Channel)).expect("uninterrupted run");

    let cfg = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        ..fl_cfg(4, rounds)
    };
    let err = run_with(&cfg, &kill_at(Transport::Channel, kill_round)).unwrap_err();
    assert_eq!(err, FlError::ServerKilled { round: kill_round });

    // Rounds 0..kill_round completed and were checkpointed; the broadcast
    // round died in flight and must be recomputed, not trusted.
    let resumed = run_with(
        &FlConfig {
            resume: true,
            ..cfg.clone()
        },
        &over(Transport::Channel),
    )
    .expect("resumed run");
    assert_eq!(resumed.resumed_from_round, Some(kill_round - 1));
    assert_no_round_twice(&resumed, rounds);
    assert_eq!(accuracies(&resumed), accuracies(&baseline));
    assert_eq!(
        resumed.final_model, baseline.final_model,
        "resumed final model is not bit-identical"
    );
    assert_eq!(baseline.resumed_from_round, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_tcp_server_resumes_to_a_bit_identical_model() {
    let rounds = 3;
    let kill_round = 1;
    let dir = scratch("tcp");
    let baseline = run_with(&fl_cfg(4, rounds), &over(Transport::Tcp)).expect("uninterrupted run");

    let cfg = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        ..fl_cfg(4, rounds)
    };
    let err = run_with(&cfg, &kill_at(Transport::Tcp, kill_round)).unwrap_err();
    assert_eq!(err, FlError::ServerKilled { round: kill_round });

    let resumed = run_with(
        &FlConfig {
            resume: true,
            ..cfg.clone()
        },
        &over(Transport::Tcp),
    )
    .expect("resumed run");
    assert_eq!(resumed.resumed_from_round, Some(kill_round - 1));
    assert_no_round_twice(&resumed, rounds);
    assert_eq!(accuracies(&resumed), accuracies(&baseline));
    assert_eq!(
        resumed.final_model, baseline.final_model,
        "resumed final model is not bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_written_over_channels_resumes_over_tcp() {
    // The checkpoint is transport-agnostic: kill a channel server, restart
    // the run over real sockets, land on the same bits.
    let rounds = 3;
    let dir = scratch("cross");
    let baseline = run_with(&fl_cfg(4, rounds), &over(Transport::Tcp)).expect("tcp");

    let cfg = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        ..fl_cfg(4, rounds)
    };
    let err = run_with(&cfg, &kill_at(Transport::Channel, 2)).unwrap_err();
    assert_eq!(err, FlError::ServerKilled { round: 2 });

    let resumed = run_with(
        &FlConfig {
            resume: true,
            ..cfg.clone()
        },
        &over(Transport::Tcp),
    )
    .expect("resumed tcp run");
    assert_eq!(resumed.resumed_from_round, Some(1));
    assert_eq!(resumed.final_model, baseline.final_model);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_process_run_resumes_a_checkpointed_prefix_with_a_longer_horizon() {
    // The fingerprint deliberately excludes `rounds`: checkpoint a short
    // run, then resume it straight through a longer horizon in-process.
    let dir = scratch("prefix");
    let baseline = fedsz_fl::run(&fl_cfg(3, 4)).expect("uninterrupted run");

    let short = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        ..fl_cfg(3, 2)
    };
    let prefix = fedsz_fl::run(&short).expect("prefix run");
    assert_eq!(prefix.resumed_from_round, None);

    let resumed = fedsz_fl::run(&FlConfig {
        rounds: 4,
        resume: true,
        ..short.clone()
    })
    .expect("resumed run");
    assert_eq!(resumed.resumed_from_round, Some(1));
    assert_no_round_twice(&resumed, 4);
    assert_eq!(accuracies(&resumed), accuracies(&baseline));
    assert_eq!(resumed.final_model, baseline.final_model);
    // The carried-over prefix metrics are the prefix run's, bit for bit.
    assert_eq!(accuracies(&resumed)[..2], accuracies(&prefix)[..]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_newest_checkpoint_falls_back_one_round_and_still_matches() {
    // Tear the newest checkpoint as a crash mid-write would: resume costs
    // one extra recomputed round but lands on the same final bits.
    let rounds = 4;
    let dir = scratch("torn");
    let baseline =
        run_with(&fl_cfg(4, rounds), &over(Transport::Channel)).expect("uninterrupted run");

    let cfg = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        ..fl_cfg(4, rounds)
    };
    let err = run_with(&cfg, &kill_at(Transport::Channel, 3)).unwrap_err();
    assert_eq!(err, FlError::ServerKilled { round: 3 });

    let newest = dir.join(fedsz_fl::checkpoint::file_name(2));
    let bytes = std::fs::read(&newest).expect("newest checkpoint exists");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("tear");

    let resumed = run_with(
        &FlConfig {
            resume: true,
            ..cfg.clone()
        },
        &over(Transport::Channel),
    )
    .expect("resumed run");
    assert_eq!(resumed.resumed_from_round, Some(1));
    assert_no_round_twice(&resumed, rounds);
    assert_eq!(resumed.final_model, baseline.final_model);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_sampled_run_replays_the_same_cohorts() {
    // Cohorts are a pure function of (seed, round), and the sampling inputs
    // are part of the checkpoint fingerprint — so a killed cross-device run
    // resumed from disk must draw the exact cohorts the dead server would
    // have drawn, landing on a bit-identical final model.
    let rounds = 4;
    let kill_round = 2;
    let dir = scratch("sampled");
    let cfg = FlConfig {
        population: 12,
        sample_fraction: 0.4,
        ..fl_cfg(4, rounds)
    };
    let baseline = run_with(&cfg, &over(Transport::Channel)).expect("uninterrupted run");

    let ck = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        ..cfg.clone()
    };
    let err = run_with(&ck, &kill_at(Transport::Channel, kill_round)).unwrap_err();
    assert_eq!(err, FlError::ServerKilled { round: kill_round });

    let resumed = run_with(
        &FlConfig {
            resume: true,
            ..ck.clone()
        },
        &over(Transport::Channel),
    )
    .expect("resumed run");
    assert_eq!(resumed.resumed_from_round, Some(kill_round - 1));
    assert_no_round_twice(&resumed, rounds);
    assert_eq!(accuracies(&resumed), accuracies(&baseline));
    assert_eq!(
        resumed.final_model, baseline.final_model,
        "resumed sampled run diverged from the uninterrupted cohorts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_every_k_writes_the_expected_files_and_always_the_last_round() {
    let dir = scratch("every");
    let cfg = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        ..fl_cfg(3, 5)
    };
    run_with(&cfg, &over(Transport::Channel)).expect("run");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    // Rounds 1 and 3 hit the cadence; round 4 is forced as the final round.
    assert_eq!(
        names,
        vec![
            "round-00000001.ckpt",
            "round-00000003.ckpt",
            "round-00000004.ckpt",
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_any_checkpoint_starts_from_round_zero() {
    let dir = scratch("empty");
    let cfg = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..fl_cfg(3, 2)
    };
    let result = run_with(&cfg, &over(Transport::Channel)).expect("run");
    assert_eq!(result.resumed_from_round, None);
    assert_no_round_twice(&result, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_identical_runs_serialize_to_identical_checkpoint_bytes() {
    // The determinism audit in one assertion: run the same seeded config
    // twice with parallel ingest, build a checkpoint from each result, and
    // compare the encoded bytes. Any HashMap-ordered iteration, ambient
    // randomness, or thread-arrival dependence anywhere in training,
    // compression, aggregation, or serialization would make the streams
    // diverge. Wall-clock timings are the one input that is nondeterministic
    // by design, so they are masked to a fixed value before encoding.
    let cfg = FlConfig {
        ingest_workers: 4,
        ..fl_cfg(4, 2)
    };
    let encode_masked = |result: &fedsz_fl::FlRunResult| {
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
        fedsz_fl::checkpoint::Checkpoint::new(&cfg, result.final_model.clone(), &rounds).encode()
    };
    let a = fedsz_fl::run(&cfg).expect("first run");
    let b = fedsz_fl::run(&cfg).expect("second run");
    let (a_bytes, b_bytes) = (encode_masked(&a), encode_masked(&b));
    assert_eq!(a_bytes.len(), b_bytes.len(), "checkpoint sizes diverged");
    assert!(a_bytes == b_bytes, "checkpoint bytes diverged between runs");
}
