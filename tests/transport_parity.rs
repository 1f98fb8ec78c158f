//! Contracts that hold across all three transports because they share one
//! client turn, one run set-up and one attempt core: a verdict counts once
//! per cohort slot however many frames carried it, a quorum-starved round
//! retries or fails with the same counters and the same typed error, and
//! an in-process TCP client trains on the shard it was handed — through a
//! reconnect too.

use std::time::Duration;

use fedsz::FaultCounters;
use fedsz_fl::{run_with, FaultKind, FaultPlan, FlConfig, FlError, NetConfig, RunSpec, Transport};

const TRANSPORTS: [Transport; 3] = [Transport::InProcess, Transport::Channel, Transport::Tcp];

/// Small, fast FL setup (mirrors tests/tcp_transport.rs).
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

/// `plan` over `transport`, with a deadline backstop and a rejoin grace
/// long enough for a reconnecting TCP client.
fn with_plan(transport: Transport, plan: &FaultPlan) -> RunSpec<'static> {
    RunSpec {
        transport,
        round_deadline: Some(Duration::from_secs(60)),
        faults: plan.clone(),
        net: NetConfig {
            rejoin_grace: Duration::from_secs(5),
            ..NetConfig::default()
        },
        ..RunSpec::default()
    }
}

#[test]
fn a_replayed_frame_that_can_never_fit_is_shed_once_on_every_transport() {
    // No update fits a 50 kB budget, and client 2 sends its frame three
    // times. A shed is a verdict on a cohort slot, so the two replays —
    // which the loopback never sends, the channel client sends while the
    // round may already be closing, and the TCP reader sheds one by one —
    // must not be counted again: 3 clients, 3 shed, on every transport.
    let cfg = FlConfig {
        ingest_budget_bytes: Some(50_000),
        ..fl_cfg(3, 1)
    };
    let plan = FaultPlan::new().with(2, 0, FaultKind::Replay(2));
    let expected = FlError::Overloaded {
        round: 0,
        shed: 3,
        delivered: 0,
        required: 1,
    };
    let [in_process, channel, tcp] = [Transport::InProcess, Transport::Channel, Transport::Tcp]
        .map(|transport| run_with(&cfg, &with_plan(transport, &plan)));
    let in_process = in_process.expect_err("in-process must overload");
    let channel = channel.expect_err("channel must overload");
    let tcp = tcp.expect_err("tcp must overload");
    assert_eq!(in_process, expected, "in-process");
    assert_eq!(channel, expected, "channel");
    assert_eq!(tcp, expected, "tcp");
}

#[test]
fn a_starved_round_retries_to_the_same_counters_on_every_transport() {
    // Client 0's update is corrupt on attempt 0 only (planned faults fire
    // on the first attempt), so a quorum of two starves once and the retry
    // delivers both: every counter of both rounds, not only `delivered`
    // and `rejected`, must be the same whichever way the updates travel.
    let plan = FaultPlan::new().with(0, 0, FaultKind::Corrupt);
    let healed = FaultCounters {
        rejected: 1,
        ..FaultCounters::full(2)
    };
    for transport in TRANSPORTS {
        let spec = RunSpec {
            min_quorum: 2,
            max_round_retries: 1,
            ..with_plan(transport, &plan)
        };
        let result = run_with(&fl_cfg(2, 2), &spec).expect("the retry meets the quorum");
        let counters: Vec<FaultCounters> = result.rounds.iter().map(|r| r.faults).collect();
        assert_eq!(counters, [healed, FaultCounters::full(2)], "{transport:?}");
    }
}

#[test]
fn a_round_that_sheds_everything_is_overloaded_on_every_transport() {
    // No frame fits a one-byte budget: every attempt sheds all three
    // clients, the retry too, and the run fails with the typed overload
    // error — not `QuorumNotMet` — carrying the last attempt's counts.
    let cfg = FlConfig {
        ingest_budget_bytes: Some(1),
        ..fl_cfg(3, 1)
    };
    let expected = FlError::Overloaded {
        round: 0,
        shed: 3,
        delivered: 0,
        required: 2,
    };
    for transport in TRANSPORTS {
        let spec = RunSpec {
            min_quorum: 2,
            max_round_retries: 1,
            ..with_plan(transport, &FaultPlan::new())
        };
        let err = run_with(&cfg, &spec).expect_err("every update is shed");
        assert_eq!(err, expected, "{transport:?}");
    }
}

#[test]
fn eight_tcp_clients_keep_their_moved_in_shards_through_a_reconnect() {
    // The TCP transport hands every in-process client its shard, as the
    // channel transport does. Client 5 drops its connection in round 1
    // and rejoins via backoff; the shard lives on in its thread, so round
    // 2 is back at full strength on the right data.
    let cfg = fl_cfg(8, 3);
    let plan = FaultPlan::new().with(5, 1, FaultKind::Disconnect);
    let tcp = run_with(&cfg, &with_plan(Transport::Tcp, &plan)).expect("tcp run");
    let counts: Vec<_> = tcp
        .rounds
        .iter()
        .map(|r| (r.faults.delivered, r.faults.late, r.faults.dropped))
        .collect();
    assert_eq!(counts, vec![(8, 0, 0), (7, 1, 0), (8, 0, 0)]);

    // The loopback shares the client turn and gives `Disconnect` the same
    // meaning (silent for the planned round only): same counters, same bits.
    let in_process =
        run_with(&cfg, &with_plan(Transport::InProcess, &plan)).expect("in-process run");
    for (t, i) in tcp.rounds.iter().zip(&in_process.rounds) {
        assert_eq!(t.faults, i.faults, "round {}", t.round);
        assert_eq!(t.accuracy, i.accuracy, "round {}", t.round);
    }
    assert_eq!(tcp.final_model, in_process.final_model);

    // A channel cannot be re-opened, so its double for "missing this round,
    // back the next" is a shed update: the same seven updates fold in round
    // 1 and the same eight around it — the same model, bit for bit.
    let stand_in = FaultPlan::new().with(5, 1, FaultKind::SlowDrip);
    let channel = run_with(&cfg, &with_plan(Transport::Channel, &stand_in)).expect("channel run");
    assert_eq!(channel.rounds[1].faults.shed, 1);
    for (t, c) in tcp.rounds.iter().zip(&channel.rounds) {
        assert_eq!(t.faults.delivered, c.faults.delivered, "round {}", t.round);
        assert_eq!(t.bytes_on_wire, c.bytes_on_wire, "round {}", t.round);
        assert_eq!(t.accuracy, c.accuracy, "round {}", t.round);
    }
    assert_eq!(tcp.final_model, channel.final_model);
}
