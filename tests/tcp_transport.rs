//! End-to-end tests of the TCP transport over loopback: determinism
//! against the channel and in-process paths, and chaos scenarios — frames
//! cut mid-stream, bytes flipped past the checksum, clients that drop
//! their connection and rejoin via backoff — with exact, deterministic
//! fault accounting.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fedsz_fl::{
    run_tcp_client, run_with, FaultKind, FaultPlan, FlConfig, FlError, NetConfig, RunSpec,
    Transport,
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

/// A rejoin grace long enough that a reconnecting client always makes the
/// next broadcast.
fn fast_net() -> NetConfig {
    NetConfig {
        rejoin_grace: Duration::from_secs(5),
        ..NetConfig::default()
    }
}

/// `transport` with the [`fast_net`] socket policy (only TCP reads it).
fn over(transport: Transport) -> RunSpec<'static> {
    RunSpec {
        transport,
        net: fast_net(),
        ..RunSpec::default()
    }
}

/// A generous deadline that never fires in a healthy run but turns any
/// unexpected hang into a counted straggler instead of a stuck test.
fn backstop(transport: Transport) -> RunSpec<'static> {
    RunSpec {
        round_deadline: Some(Duration::from_secs(60)),
        ..over(transport)
    }
}

fn per_round(result: &fedsz_fl::FlRunResult) -> Vec<(usize, usize, usize, usize)> {
    result
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
        .collect()
}

#[test]
fn tcp_matches_threaded_and_sequential_exactly() {
    // The acceptance bar: the same seeds produce bit-identical per-round
    // accuracies whether updates move in-process, over channels, or over
    // real TCP sockets with the framed wire protocol in between.
    let cfg = fl_cfg(4, 3);
    let sequential = fedsz_fl::run(&cfg).expect("sequential run");
    let threaded = run_with(&cfg, &over(Transport::Channel)).expect("threaded run");
    let tcp = run_with(&cfg, &over(Transport::Tcp)).expect("tcp run");

    let a: Vec<f64> = sequential.rounds.iter().map(|r| r.accuracy).collect();
    let b: Vec<f64> = threaded.rounds.iter().map(|r| r.accuracy).collect();
    let c: Vec<f64> = tcp.rounds.iter().map(|r| r.accuracy).collect();
    assert_eq!(a, b, "threaded diverged from sequential");
    assert_eq!(b, c, "tcp diverged from threaded");

    // Over TCP both directions are real bytes on a real socket.
    for r in &tcp.rounds {
        assert!(r.faults.is_clean(), "{:?}", r.faults);
        assert!(r.bytes_on_wire > 0);
        assert!(r.bytes_down_wire > 0);
    }
}

#[test]
fn disconnected_client_rejoins_via_backoff_with_exact_accounting() {
    // Client 1 drops its connection in round 1 without answering, then
    // reconnects with exponential backoff. The server counts exactly one
    // late client that round and serves the rejoined connection from the
    // next broadcast on — no other round is disturbed.
    let spec = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Disconnect),
        ..backstop(Transport::Tcp)
    };
    let result = run_with(&fl_cfg(4, 4), &spec).expect("tcp run");
    assert_eq!(
        per_round(&result),
        vec![
            (4, 0, 0, 0),
            (3, 0, 1, 0), // the dropped connection runs out as late
            (4, 0, 0, 0), // rejoined via backoff: full strength again
            (4, 0, 0, 0),
        ]
    );
    assert!(result.final_accuracy() > 0.2, "{}", result.final_accuracy());
}

#[test]
fn truncated_frame_is_rejected_and_the_client_rejoins() {
    // Client 2 sends only half its update frame and drops the connection:
    // the server sees a mid-frame EOF, counts the half-frame as rejected,
    // and the client is back for the next round.
    let spec = RunSpec {
        faults: FaultPlan::new().with(2, 1, FaultKind::TruncateFrame),
        ..backstop(Transport::Tcp)
    };
    let result = run_with(&fl_cfg(4, 3), &spec).expect("tcp run");
    assert_eq!(
        per_round(&result),
        vec![(4, 0, 0, 0), (3, 1, 0, 0), (4, 0, 0, 0)]
    );
}

#[test]
fn flipped_bytes_fail_the_crc_without_losing_the_connection() {
    // Client 0 flips 16 body bytes after the checksum was computed. The
    // frame arrives whole, fails its CRC-32, and is rejected — while the
    // connection (and every later round) survives untouched.
    let spec = RunSpec {
        faults: FaultPlan::new().with(0, 1, FaultKind::FlipBytes(16)),
        ..backstop(Transport::Tcp)
    };
    let result = run_with(&fl_cfg(4, 3), &spec).expect("tcp run");
    assert_eq!(
        per_round(&result),
        vec![(4, 0, 0, 0), (3, 1, 0, 0), (4, 0, 0, 0)]
    );
}

#[test]
fn crashed_tcp_client_is_late_then_dropped() {
    // Client 2 exits for good in round 1: its EOF makes it late that round
    // (no deadline needs to run out), and from the next broadcast on the
    // slot is dropped after its one rejoin grace goes unused.
    let spec = RunSpec {
        faults: FaultPlan::new().with(2, 1, FaultKind::Crash),
        ..backstop(Transport::Tcp)
    };
    let spec = RunSpec {
        net: NetConfig {
            rejoin_grace: Duration::from_millis(200), // nobody is coming back
            ..fast_net()
        },
        ..spec
    };
    let result = run_with(&fl_cfg(4, 3), &spec).expect("tcp run");
    assert_eq!(
        per_round(&result),
        vec![(4, 0, 0, 0), (3, 0, 1, 0), (3, 0, 0, 1)]
    );
}

#[test]
fn corrupt_payload_over_tcp_matches_channel_semantics_exactly() {
    // A payload corrupted before framing passes the wire CRC (the wire is
    // innocent) and fails FedSZ decoding at the server — byte-for-byte the
    // same accounting and the same accuracies as the channel transport.
    let cfg = fl_cfg(4, 3);
    let spec = |transport| RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Corrupt),
        ..over(transport)
    };
    let over_channels = run_with(&cfg, &spec(Transport::Channel)).expect("threaded run");
    let over_tcp = run_with(&cfg, &spec(Transport::Tcp)).expect("tcp run");
    assert_eq!(per_round(&over_channels), per_round(&over_tcp));
    let a: Vec<f64> = over_channels.rounds.iter().map(|r| r.accuracy).collect();
    let b: Vec<f64> = over_tcp.rounds.iter().map(|r| r.accuracy).collect();
    assert_eq!(a, b);
}

#[test]
fn poisoned_update_over_tcp_is_quarantined_with_channel_parity() {
    // A NaN-poisoned update crosses the real socket with a valid CRC and a
    // clean FedSZ decode; only semantic validation at the aggregation gate
    // catches it — with the same accounting and the same bits as the
    // channel transport.
    let cfg = fl_cfg(4, 3);
    let spec = |transport| RunSpec {
        faults: FaultPlan::new().with(2, 1, FaultKind::NonFiniteUpdate),
        ..over(transport)
    };
    let over_channels = run_with(&cfg, &spec(Transport::Channel)).expect("threaded run");
    let over_tcp = run_with(&cfg, &spec(Transport::Tcp)).expect("tcp run");
    let r1 = &over_tcp.rounds[1].faults;
    assert_eq!(
        (r1.delivered, r1.rejected, r1.quarantined, r1.late),
        (3, 0, 1, 0)
    );
    assert_eq!(per_round(&over_channels), per_round(&over_tcp));
    let a: Vec<f64> = over_channels.rounds.iter().map(|r| r.accuracy).collect();
    let b: Vec<f64> = over_tcp.rounds.iter().map(|r| r.accuracy).collect();
    assert_eq!(a, b);
    assert_eq!(over_channels.final_model, over_tcp.final_model);
}

#[test]
fn parallel_ingest_over_tcp_is_bit_identical_to_serial() {
    // Real sockets, hostile traffic (a corrupt payload in round 1), and the
    // parallel decompress/validate pool: any worker count must land on the
    // serial server's exact bits — same final model, same per-round
    // accuracies, same fault accounting.
    let spec = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Corrupt),
        ..over(Transport::Tcp)
    };
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
        assert_eq!(
            per_round(&parallel),
            per_round(&serial),
            "workers={workers}"
        );
        for (s, p) in serial.rounds.iter().zip(&parallel.rounds) {
            assert_eq!(p.accuracy, s.accuracy, "workers={workers}");
            assert_eq!(p.faults, s.faults, "workers={workers}");
        }
    }
}

#[test]
fn replayed_tcp_frames_are_discarded_first_wins() {
    // Client 1 writes its round-1 update frame six times onto the socket.
    // Each copy carries a valid CRC and would decode cleanly; first-wins
    // admission folds the first and drops the rest without decoding, so the
    // run is byte-for-byte a clean run — the aggregate is not skewed toward
    // the replayer and no fault counter moves.
    let cfg = fl_cfg(4, 3);
    let clean = run_with(&cfg, &backstop(Transport::Tcp)).expect("clean run");
    let spec = RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Replay(5)),
        ..backstop(Transport::Tcp)
    };
    let replayed = run_with(&cfg, &spec).expect("replayed run");
    assert_eq!(replayed.final_model, clean.final_model);
    assert_eq!(per_round(&replayed), per_round(&clean));
    for (c, r) in clean.rounds.iter().zip(&replayed.rounds) {
        assert!(r.faults.is_clean(), "round {}: {:?}", r.round, r.faults);
        assert_eq!(r.accuracy, c.accuracy);
    }
}

#[test]
fn quorum_not_met_over_tcp_is_a_typed_error() {
    let spec = RunSpec {
        min_quorum: 2,
        faults: FaultPlan::new()
            .with(0, 0, FaultKind::Corrupt)
            .with(1, 0, FaultKind::Corrupt),
        ..backstop(Transport::Tcp)
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
fn tcp_client_idle_timeout_exits_cleanly() {
    // A server that accepts the connection and then goes silent (without
    // closing it) must not trap the client forever: the idle timeout gets
    // it out.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mute_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut hello = [0u8; 64];
        use std::io::Read as _;
        let _ = stream.read(&mut hello);
        std::thread::sleep(Duration::from_secs(2)); // silence, not closure
    });
    let cfg = FlConfig {
        n_clients: 1,
        samples_per_client: 4,
        test_samples: 4,
        ..FlConfig::default()
    };
    let started = Instant::now();
    let spec = RunSpec {
        client_idle_timeout: Some(Duration::from_millis(300)),
        ..RunSpec::default()
    };
    run_tcp_client(&addr.to_string(), 0, &cfg, &spec).expect("client exits cleanly");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "idle timeout did not fire"
    );
    mute_server.join().expect("mute server");
}

#[test]
fn starved_ingest_budget_sheds_identically_on_every_transport() {
    // A one-byte ingest budget can never admit an update: every transport
    // must shed the whole cohort at the frame header, fail the round with
    // the overload error (not a generic quorum miss), and agree on the
    // exact shed count — the shed decision is a pure function of the
    // announced frame size, never of transport timing.
    let cfg = FlConfig {
        ingest_budget_bytes: Some(1),
        samples_per_client: 8,
        test_samples: 8,
        ..fl_cfg(4, 1)
    };
    let sequential = fedsz_fl::run(&cfg).expect_err("sequential must overload");
    let channel = run_with(&cfg, &backstop(Transport::Channel)).expect_err("channel must overload");
    let tcp = run_with(&cfg, &backstop(Transport::Tcp)).expect_err("tcp must overload");

    for (transport, err) in [
        ("sequential", &sequential),
        ("channel", &channel),
        ("tcp", &tcp),
    ] {
        assert_eq!(
            *err,
            FlError::Overloaded {
                round: 0,
                shed: 4,
                delivered: 0,
                required: 1,
            },
            "{transport} disagreed on the overload outcome"
        );
    }
}

#[test]
fn chaos_fault_accounting_is_identical_across_transports() {
    // Combined overload faults — an oversized flood, a byte-dripping
    // client, a connection held open past the rate grace, and a poisoned
    // update — must settle into the same per-round counters (including
    // `shed`) and the same final model whether they travel in-process,
    // over channels, or over real sockets with the rate enforcer on.
    let cfg = fl_cfg(4, 2);
    let model_bytes = {
        let (c, h, _, classes) = cfg.dataset.dims();
        cfg.arch
            .build(c, h, classes, cfg.seed)
            .state_dict()
            .nbytes()
    };
    // Twice the auto budget (4x model), so the header-time shed fires on
    // every transport regardless of how the junk payload would compress.
    let plan = FaultPlan::new()
        .with(0, 0, FaultKind::FloodOversized(model_bytes * 8))
        .with(1, 0, FaultKind::SlowDrip)
        .with(2, 1, FaultKind::HoldConnection(Duration::from_millis(600)))
        .with(3, 1, FaultKind::NonFiniteUpdate);
    let spec = |transport| RunSpec {
        faults: plan.clone(),
        net: NetConfig {
            min_byte_rate: 1024,
            ..fast_net()
        },
        ..backstop(transport)
    };
    let in_process = run_with(&cfg, &spec(Transport::InProcess)).expect("in-process chaos run");
    let channel = run_with(&cfg, &spec(Transport::Channel)).expect("channel chaos run");
    let tcp = run_with(&cfg, &spec(Transport::Tcp)).expect("tcp chaos run");

    let counters =
        |r: &fedsz_fl::FlRunResult| r.rounds.iter().map(|m| m.faults).collect::<Vec<_>>();
    assert_eq!(
        counters(&in_process),
        counters(&channel),
        "channel fault accounting diverged from in-process"
    );
    assert_eq!(
        counters(&channel),
        counters(&tcp),
        "tcp fault accounting diverged from channel"
    );
    // Round 0 sheds the flood and the drip; round 1 sheds the held
    // connection and quarantines the non-finite update.
    assert_eq!(in_process.rounds[0].faults.shed, 2);
    assert_eq!(in_process.rounds[0].faults.delivered, 2);
    assert_eq!(in_process.rounds[1].faults.shed, 1);
    assert_eq!(in_process.rounds[1].faults.quarantined, 1);
    assert_eq!(in_process.rounds[1].faults.delivered, 2);

    assert_eq!(
        in_process.final_model, channel.final_model,
        "channel final model diverged from in-process"
    );
    assert_eq!(
        channel.final_model, tcp.final_model,
        "tcp final model diverged from channel"
    );
}

#[test]
fn tight_budget_backpressures_without_shedding_and_stays_bit_identical() {
    // A budget with room for roughly two in-flight updates: with four
    // clients racing, the rest must park in `Ledger::reserve` until
    // earlier updates settle and release capacity. This is the regression
    // test for a collect-loop deadlock where the server blocked on the
    // transport while the releases every parked client was waiting for
    // could only come from settling finished decodes. Nothing may be
    // shed — no single update comes near the cap — and the run must stay
    // bit-identical to the unconstrained one: backpressure changes when
    // updates are admitted, never whether. Client 1 also replays its
    // round-1 frame five times: each copy holds its reservation until the
    // collector discards it, and none may wedge the round.
    let cfg = fl_cfg(4, 2);
    let baseline =
        run_with(&cfg, &backstop(Transport::Channel)).expect("unconstrained channel run");
    let max_round_wire = baseline
        .rounds
        .iter()
        .map(|r| r.bytes_on_wire)
        .max()
        .expect("at least one round");
    let tight = FlConfig {
        ingest_budget_bytes: Some(max_round_wire / 2 + 256),
        ..cfg
    };
    let replayed = |transport| RunSpec {
        faults: FaultPlan::new().with(1, 1, FaultKind::Replay(5)),
        ..backstop(transport)
    };
    let channel =
        run_with(&tight, &replayed(Transport::Channel)).expect("backpressured channel run");
    let tcp = run_with(&tight, &replayed(Transport::Tcp)).expect("backpressured tcp run");
    for (transport, run) in [("channel", &channel), ("tcp", &tcp)] {
        for r in &run.rounds {
            assert_eq!(
                (r.faults.delivered, r.faults.shed),
                (4, 0),
                "{transport} round {} under backpressure: {:?}",
                r.round,
                r.faults
            );
        }
    }
    assert_eq!(
        baseline.final_model, channel.final_model,
        "backpressured channel run diverged from unconstrained"
    );
    assert_eq!(
        channel.final_model, tcp.final_model,
        "backpressured tcp run diverged from channel"
    );
}
