//! Cross-crate integration: federated learning with FedSZ compression in
//! the loop, plus the communication-savings accounting of §VII-B.

use fedsz_fl::{FlConfig, RunSpec, Transport};
use fedsz_netsim::{breakeven, Bandwidth};

fn quick_cfg() -> FlConfig {
    FlConfig {
        rounds: 3,
        samples_per_client: 80,
        test_samples: 100,
        ..FlConfig::default()
    }
}

#[test]
fn in_process_parallel_ingest_is_bit_identical_to_serial() {
    // The in-process session shares the ingest pool with the transports;
    // the server-side decode of each round must land on the same bits for
    // any worker count.
    let small = FlConfig {
        rounds: 2,
        samples_per_client: 32,
        test_samples: 48,
        compression: FlConfig::with_fedsz(1e-2).compression,
        ..FlConfig::default()
    };
    let serial = fedsz_fl::run(&FlConfig {
        ingest_workers: 0,
        ..small.clone()
    })
    .expect("serial run");
    for workers in [1usize, 4] {
        let parallel = fedsz_fl::run(&FlConfig {
            ingest_workers: workers,
            ..small.clone()
        })
        .expect("parallel run");
        assert_eq!(
            parallel.final_model, serial.final_model,
            "workers={workers}"
        );
        for (s, p) in serial.rounds.iter().zip(&parallel.rounds) {
            assert_eq!(p.accuracy, s.accuracy, "workers={workers}");
            assert_eq!(p.bytes_on_wire, s.bytes_on_wire, "workers={workers}");
        }
    }
}

#[test]
fn sampled_cohorts_agree_across_transports_and_worker_counts() {
    // Cross-device sampling: 3 of 10 registered clients participate per
    // round, drawn deterministically from the run seed. Every transport and
    // every ingest worker count must sample the same cohorts and land on the
    // same bits.
    let cfg = FlConfig {
        dataset: fedsz_dnn::DatasetKind::FashionMnistLike,
        n_clients: 4,
        rounds: 3,
        samples_per_client: 32,
        test_samples: 48,
        batch_size: 16,
        population: 10,
        sample_fraction: 0.3,
        compression: FlConfig::with_fedsz(1e-2).compression,
        seed: 7,
        ..FlConfig::default()
    };
    let sequential = fedsz_fl::run(&cfg).expect("in-process run");
    assert_eq!(sequential.n_clients, 3, "cohort size");

    for transport in [Transport::InProcess, Transport::Channel, Transport::Tcp] {
        let spec = RunSpec {
            transport,
            ..RunSpec::default()
        };
        let result = fedsz_fl::run_with(&cfg, &spec).expect("fl run");
        assert_eq!(result.final_model, sequential.final_model, "{transport:?}");
    }

    for workers in [1usize, 4, 8] {
        let parallel = fedsz_fl::run(&FlConfig {
            ingest_workers: workers,
            ..cfg.clone()
        })
        .expect("parallel run");
        assert_eq!(
            parallel.final_model, sequential.final_model,
            "workers={workers}"
        );
        for (s, p) in sequential.rounds.iter().zip(&parallel.rounds) {
            assert_eq!(p.accuracy, s.accuracy, "workers={workers}");
        }
    }
}

#[test]
fn full_coverage_sampling_is_bit_identical_to_cross_silo() {
    // `population == n_clients` at fraction 1.0 short-circuits to the
    // cross-silo cohort without touching the sampling RNG, so turning the
    // feature "on" at full coverage must not move a single bit.
    let base = FlConfig {
        rounds: 2,
        samples_per_client: 32,
        test_samples: 48,
        compression: FlConfig::with_fedsz(1e-2).compression,
        ..FlConfig::default()
    };
    let cross_silo = fedsz_fl::run(&base).expect("cross-silo run");
    let sampled = fedsz_fl::run(&FlConfig {
        population: base.n_clients,
        sample_fraction: 1.0,
        ..base.clone()
    })
    .expect("full-coverage run");
    assert_eq!(sampled.final_model, cross_silo.final_model);
    assert_eq!(sampled.n_clients, cross_silo.n_clients);
    for (a, b) in cross_silo.rounds.iter().zip(&sampled.rounds) {
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.bytes_on_wire, b.bytes_on_wire);
    }
}

#[test]
fn fedsz_cuts_wire_bytes_by_the_papers_factor() {
    let cfg = FlConfig {
        compression: FlConfig::with_fedsz(1e-2).compression,
        ..quick_cfg()
    };
    let result = fedsz_fl::run(&cfg).expect("fl run");
    for r in &result.rounds {
        // Table V decade: ≥4x on every round's updates.
        assert!(
            r.compression_ratio() > 4.0,
            "round {}: ratio {}",
            r.round,
            r.compression_ratio()
        );
    }
}

#[test]
fn simulated_10mbps_transfer_saves_an_order_of_magnitude() {
    let base = fedsz_fl::run(&quick_cfg()).expect("fl run");
    let fedsz = fedsz_fl::run(&FlConfig {
        compression: FlConfig::with_fedsz(1e-2).compression,
        ..quick_cfg()
    })
    .expect("fl run");
    let bw = Bandwidth::mbps(10.0);
    let t_base = bw.transfer_seconds(base.rounds[0].bytes_on_wire);
    let r = &fedsz.rounds[0];
    let t_fedsz = r.compress_s_total + r.decompress_s_total + bw.transfer_seconds(r.bytes_on_wire);
    assert!(
        t_fedsz < t_base / 3.0,
        "10 Mbps: fedsz {t_fedsz:.2}s vs raw {t_base:.2}s"
    );
}

#[test]
fn eqn1_holds_for_measured_fl_updates_at_edge_bandwidth() {
    let fedsz = fedsz_fl::run(&FlConfig {
        compression: FlConfig::with_fedsz(1e-2).compression,
        ..quick_cfg()
    })
    .expect("fl run");
    let r = &fedsz.rounds[0];
    let per_client_raw = r.bytes_uncompressed / fedsz.n_clients;
    let per_client_wire = r.bytes_on_wire / fedsz.n_clients;
    let tc = r.compress_s_total / fedsz.n_clients as f64;
    let td = r.decompress_s_total / fedsz.n_clients as f64;
    assert!(breakeven::worthwhile(
        tc,
        td,
        per_client_raw,
        per_client_wire,
        Bandwidth::mbps(10.0)
    ));
}

#[test]
fn all_archs_run_with_compression_on_all_datasets() {
    use fedsz_dnn::{DatasetKind, ModelArch};
    for arch in ModelArch::all() {
        for dataset in DatasetKind::all() {
            let cfg = FlConfig {
                arch,
                dataset,
                rounds: 1,
                samples_per_client: 40,
                test_samples: 40,
                compression: FlConfig::with_fedsz(1e-2).compression,
                ..FlConfig::default()
            };
            let result = fedsz_fl::run(&cfg).expect("fl run");
            assert_eq!(result.rounds.len(), 1, "{arch:?}/{dataset:?}");
            assert!(
                result.rounds[0].compression_ratio() > 1.5,
                "{arch:?}/{dataset:?}: {}",
                result.rounds[0].compression_ratio()
            );
        }
    }
}

#[test]
fn compression_error_is_laplace_like_in_the_fl_loop() {
    use fedsz::{compress, compression_errors, decompress, ks_distance, laplace_fit};
    use fedsz_dnn::ModelArch;

    // Train briefly so the weights are "real", then round trip.
    let (train, _) = fedsz_dnn::DatasetKind::Cifar10Like.generate(80, 10, 1);
    let mut net = ModelArch::ResNetS.build(3, 32, 10, 2);
    let mut rng = fedsz_tensor::SplitMix64::new(3);
    net.train_epoch(&train, 16, 0.01, 0.9, &mut rng);
    let sd = net.state_dict();

    let cfg = fedsz::FedSzConfig {
        threshold: fedsz_fl::SMALL_MODEL_THRESHOLD,
        ..fedsz::FedSzConfig::with_rel_bound(1e-2)
    };
    let back = decompress(&compress(&sd, &cfg)).unwrap();
    let errors = compression_errors(&sd, &back, cfg.threshold);
    assert!(errors.len() > 10_000);
    let fit = laplace_fit(&errors);
    assert!(fit.b > 0.0);
    // Fig. 10's qualitative claim: closer to Laplace than to "nothing".
    // KS distance to the fitted Laplace stays moderate.
    let ks = ks_distance(&errors, &fit);
    assert!(ks < 0.25, "KS distance {ks}");
}
