//! Byzantine-tolerant aggregation end to end.
//!
//! The robust fold modes must (a) be bit-identical to plain FedAvg
//! whenever their screen excludes nothing — including under cross-device
//! sampling and across a kill-and-resume — and (b) screen planned
//! adversaries injected through the real train → poison → compress →
//! decode path with *exact* `suspected` counters, identically on every
//! transport and ingest worker count.

use std::path::PathBuf;

use fedsz_fl::{
    run, run_with, Aggregation, FaultKind, FaultPlan, FlConfig, FlError, FlRunResult, RunSpec,
    Transport,
};

fn base_cfg() -> FlConfig {
    FlConfig {
        rounds: 2,
        n_clients: 4,
        samples_per_client: 32,
        test_samples: 48,
        ..FlConfig::default()
    }
}

/// `plan` over `transport`, under the default policy.
fn faulted(transport: Transport, plan: &FaultPlan) -> RunSpec<'static> {
    RunSpec {
        transport,
        faults: plan.clone(),
        ..RunSpec::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsz-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_screened_nothing(result: &FlRunResult) {
    for r in &result.rounds {
        assert_eq!(r.faults.suspected, 0, "round {}", r.round);
        assert_eq!(r.suspect_reasons.total(), 0, "round {}", r.round);
    }
}

#[test]
fn clipped_mean_is_bit_identical_to_mean_below_threshold() {
    // With a threshold no honest cohort reaches, the clipped screen
    // excludes nothing, so the fold set — and hence the exact
    // accumulator — matches plain FedAvg bit for bit.
    let mean = run(&base_cfg()).expect("mean run");
    let clipped = run(&FlConfig {
        aggregation: Aggregation::ClippedMean { clip_factor: 1e9 },
        ..base_cfg()
    })
    .expect("clipped run");
    assert_eq!(clipped.final_model, mean.final_model);
    assert_screened_nothing(&clipped);
    for (m, c) in mean.rounds.iter().zip(&clipped.rounds) {
        assert_eq!(m.accuracy.to_bits(), c.accuracy.to_bits());
        assert_eq!(m.faults.delivered, c.faults.delivered);
    }
}

#[test]
fn clipped_mean_equivalence_holds_under_cross_device_sampling() {
    // Sampled cohorts change which clients fold each round; the
    // nothing-screened equivalence must hold for those cohorts too.
    let sampled = FlConfig {
        population: 10,
        sample_fraction: 0.3,
        ..base_cfg()
    };
    let mean = run(&sampled).expect("mean run");
    let clipped = run(&FlConfig {
        aggregation: Aggregation::ClippedMean { clip_factor: 1e9 },
        ..sampled.clone()
    })
    .expect("clipped run");
    assert_eq!(clipped.final_model, mean.final_model);
    assert_screened_nothing(&clipped);
}

#[test]
fn trimmed_mean_k0_is_bit_identical_to_mean() {
    // k = 0 trims nothing: the per-coordinate limb accumulation over all
    // clients is exactly the streaming accumulator's content.
    let mean = run(&base_cfg()).expect("mean run");
    let trimmed = run(&FlConfig {
        aggregation: Aggregation::TrimmedMean { trim_k: 0 },
        ..base_cfg()
    })
    .expect("trimmed run");
    assert_eq!(trimmed.final_model, mean.final_model);
    assert_screened_nothing(&trimmed);
}

#[test]
fn clipped_mean_resume_is_bit_identical_to_uninterrupted() {
    // A robust-mode server killed mid-run and resumed must land on the
    // uninterrupted run's bits: the FCP3 checkpoint carries the suspect
    // counters and the fingerprint pins the aggregation mode.
    let rounds = 3;
    let kill_round = 2;
    let dir = scratch("resume");
    let cfg = FlConfig {
        rounds,
        aggregation: Aggregation::ClippedMean { clip_factor: 1e9 },
        ..base_cfg()
    };
    let baseline = run(&cfg).expect("uninterrupted run");

    let ckpt_cfg = FlConfig {
        checkpoint_dir: Some(dir.clone()),
        ..cfg.clone()
    };
    let kill = FaultPlan::new().kill_server(kill_round);
    let err = run_with(&ckpt_cfg, &faulted(Transport::InProcess, &kill)).unwrap_err();
    assert_eq!(err, FlError::ServerKilled { round: kill_round });
    let resumed = run(&FlConfig {
        resume: true,
        ..ckpt_cfg.clone()
    })
    .expect("resumed run");
    assert_eq!(resumed.resumed_from_round, Some(kill_round - 1));
    assert_eq!(resumed.final_model, baseline.final_model);

    // A mean-mode server must refuse the robust run's checkpoints: the
    // fingerprint differs, so resume starts over from round 0.
    let mean_resumed = run(&FlConfig {
        aggregation: Aggregation::Mean,
        resume: true,
        ..ckpt_cfg
    })
    .expect("foreign-fingerprint resume");
    assert_eq!(mean_resumed.resumed_from_round, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn planned_adversaries_are_suspected_with_exact_counts() {
    // Eight clients, one scaling its round-0 update 1000x away from the
    // broadcast model. Both robust modes must suspect exactly that one
    // update — under the right reason — and deliver the other seven.
    let cfg8 = FlConfig {
        n_clients: 8,
        rounds: 2,
        samples_per_client: 24,
        test_samples: 32,
        // The robust modes buffer the cohort, which the default auto
        // ingest budget (a small multiple of the model) refuses for 8
        // clients; 0 disables budgeting.
        ingest_budget_bytes: Some(0),
        ..FlConfig::default()
    };
    let plan = FaultPlan::new().with(2, 0, FaultKind::ScaleUpdate(1000.0));
    for mode in [
        Aggregation::ClippedMean { clip_factor: 3.0 },
        Aggregation::TrimmedMean { trim_k: 1 },
    ] {
        let result = run_with(
            &FlConfig {
                aggregation: mode,
                ..cfg8.clone()
            },
            &faulted(Transport::InProcess, &plan),
        )
        .expect("robust run");
        let r0 = &result.rounds[0];
        assert_eq!(r0.faults.suspected, 1, "{mode:?}");
        assert_eq!(r0.faults.delivered, 7, "{mode:?}");
        match mode {
            Aggregation::ClippedMean { .. } => {
                assert_eq!(r0.suspect_reasons.norm_outlier, 1, "{mode:?}")
            }
            Aggregation::TrimmedMean { .. } => {
                assert_eq!(r0.suspect_reasons.trim_eliminated, 1, "{mode:?}")
            }
            Aggregation::Mean => unreachable!(),
        }
        // The adversary is honest again in round 1.
        let r1 = &result.rounds[1];
        assert_eq!(r1.faults.suspected, 0, "{mode:?}");
        assert_eq!(r1.faults.delivered, 8, "{mode:?}");
    }

    // Plain mean has no screen: the poison folds straight in.
    let mean = run_with(&cfg8, &faulted(Transport::InProcess, &plan)).expect("mean run");
    assert_eq!(mean.rounds[0].faults.suspected, 0);
    assert_eq!(mean.rounds[0].faults.delivered, 8);
}

#[test]
fn byzantine_chaos_is_bit_identical_across_transports_and_workers() {
    // Three poison kinds through the real lossy path on three of six
    // clients: every transport x worker count must screen the same
    // updates and land on the same model bits and the same counters,
    // under both robust fold modes.
    let plan = FaultPlan::new()
        .with(1, 0, FaultKind::SignFlip)
        .with(2, 0, FaultKind::ScaleUpdate(1000.0))
        .with(3, 1, FaultKind::DriftToward);
    let over = |transport| faulted(transport, &plan);
    for mode in [
        Aggregation::ClippedMean { clip_factor: 3.0 },
        Aggregation::TrimmedMean { trim_k: 1 },
    ] {
        let cfg = |workers: usize| FlConfig {
            n_clients: 6,
            rounds: 2,
            samples_per_client: 24,
            test_samples: 32,
            ingest_budget_bytes: Some(0),
            ingest_workers: workers,
            aggregation: mode,
            compression: FlConfig::with_fedsz(1e-2).compression,
            ..FlConfig::default()
        };

        let baseline = run_with(&cfg(0), &over(Transport::InProcess)).expect("in-process serial");
        if let Aggregation::ClippedMean { .. } = mode {
            // The round-0 norm attacks must be screened; the round-1 drift
            // halves the update but stays under 3x the median distance, so
            // it folds.
            assert_eq!(baseline.rounds[0].faults.suspected, 2);
            assert_eq!(baseline.rounds[0].suspect_reasons.norm_outlier, 2);
        }

        for workers in [1usize, 4] {
            let in_process =
                run_with(&cfg(workers), &over(Transport::InProcess)).expect("in-process");
            let threaded = run_with(&cfg(workers), &over(Transport::Channel)).expect("threaded");
            let tcp = run_with(&cfg(workers), &over(Transport::Tcp)).expect("tcp");
            for (name, result) in [
                ("in-process", &in_process),
                ("threaded", &threaded),
                ("tcp", &tcp),
            ] {
                assert_eq!(
                    result.final_model, baseline.final_model,
                    "{mode:?} {name} workers={workers}"
                );
                for (b, r) in baseline.rounds.iter().zip(&result.rounds) {
                    assert_eq!(
                        r.faults.suspected, b.faults.suspected,
                        "{mode:?} {name} workers={workers} round {}",
                        b.round
                    );
                    assert_eq!(
                        r.suspect_reasons, b.suspect_reasons,
                        "{mode:?} {name} workers={workers} round {}",
                        b.round
                    );
                    assert_eq!(
                        r.accuracy.to_bits(),
                        b.accuracy.to_bits(),
                        "{mode:?} {name} workers={workers} round {}",
                        b.round
                    );
                }
            }
        }
    }
}
