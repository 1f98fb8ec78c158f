//! Deterministic chaos-and-scale harness for the overload-safe server and
//! its streaming aggregator: an O(model) fold of 10 000 updates, then N
//! seeded rounds under combined faults — oversized floods, slow drips, wedged
//! connections, poisoned and corrupt updates — asserting that every
//! transport and every ingest worker count produces the **bit-identical**
//! final model and the **exact same** shed / quarantined / rejected / late
//! counters, with zero panics.
//!
//! Four tiers, in this order:
//!
//! * **fold** — streams 10 000 updates of 65 536 parameters (1 000 of
//!   16 384 under `--smoke`), cycled from 32 distinct sources, through one
//!   [`StreamingFedAvg`] on a still-quiet heap. The accumulator must stay
//!   in the 128-bit window and under 24 B a parameter plus the model, and
//!   resident-set growth within 4× the accumulator + 4 MiB: O(model),
//!   where materializing the round would buffer O(clients × model), which
//!   the report states beside it.
//! * **parity** — a cross-device config (sampled cohorts) with a chaos
//!   fault plan derived from the per-round cohorts, run over the matrix
//!   {in-process, channel, tcp} × ingest workers. The first run is the
//!   baseline; every other cell must match its final model, accuracies,
//!   and per-round fault counters exactly. The baseline itself must match
//!   the counters the plan predicts, so the sheds provably happened.
//! * **adversarial** — eight clients of which three send Byzantine
//!   updates (sign-flipped, 1000×-scaled, drifting) through the real
//!   lossy uplink, aggregated under both robust fold modes
//!   (clipped-mean and trimmed-mean) over the same transport × worker
//!   matrix. Every cell must screen the same updates (`suspected`
//!   counters and per-reason breakdowns exact) and land on the same
//!   model bits; the baseline must suspect someone, or the attack —
//!   and hence the whole tier — would be vacuous, and not everyone, or
//!   the screen would be.
//! * **scale** — the same chaos plan against 10 000 registered clients
//!   (cohort 16) with an ingest budget of 2× the model size, on the
//!   channel transport cross-checked bit-for-bit against in-process.
//!   Resident-set growth must stay within budget + O(model) + O(threads).
//!   TCP is excluded at this tier only because every TCP client is a real
//!   socket-owning OS thread — 10 000 of them is a test of the host, not
//!   the server; the tcp path is covered by the parity matrix above.
//!
//! Results go to stdout and to `--out` (default `BENCH_soak.json`) as
//! JSON, including `available_parallelism` and `VmHWM`.
//!
//! Run: `cargo run -p fedsz-bench --release --bin soak [--smoke]
//!       [--population N] [--out BENCH_soak.json]`

use std::time::{Duration, Instant};

use fedsz::FaultCounters;
use fedsz_bench::{proc_status_kb, synth_update, Args};
use fedsz_fl::{
    Aggregation, FaultKind, FaultPlan, FlConfig, FlRunResult, NetConfig, RunSpec, StreamingFedAvg,
    Transport,
};

/// State-dict size of the model `cfg` builds — the reference for the
/// ingest budget (the same derivation the server uses).
fn model_bytes(cfg: &FlConfig) -> usize {
    let (c, h, _, classes) = cfg.dataset.dims();
    cfg.arch
        .build(c, h, classes, cfg.seed)
        .state_dict()
        .nbytes()
}

/// Emitted next to the parity cells: what the in-process seconds have
/// paid for since in-process became a loopback over the one round engine.
const IN_PROCESS_NOTE: &str = "in-process cells act every planned fault out (the client \
trains, poisons or mangles, encodes; the server really decodes) where they used to classify \
it by table and skip that client's training, so their seconds are not comparable with files \
written before the loopback";

/// Hold duration for wedged connections: comfortably past the wire rate
/// grace so a rate-enforcing server sheds before the client lets go.
const HOLD: Duration = Duration::from_millis(600);

/// Minimum uplink byte rate the TCP runs enforce. Loopback sustains many
/// orders of magnitude more; only the deliberate tricklers fall below it.
const MIN_BYTE_RATE: u64 = 1024;

/// Derive the chaos plan from the per-round cohorts: each round's first
/// cohort member stays honest (quorum), the next six slots get one fault
/// kind each. Returns the plan and the exact per-round counters it
/// predicts on every transport.
fn chaos_plan(cfg: &FlConfig, flood_bytes: usize) -> (FaultPlan, Vec<FaultCounters>) {
    let mut plan = FaultPlan::new();
    let mut expected = Vec::with_capacity(cfg.rounds);
    for round in 0..cfg.rounds {
        let mut want = FaultCounters::default();
        for (slot, &client) in cfg.cohort_for_round(round).iter().enumerate() {
            match slot {
                1 => {
                    plan = plan.with(client, round, FaultKind::FloodOversized(flood_bytes));
                    want.shed += 1;
                }
                2 => {
                    plan = plan.with(client, round, FaultKind::NonFiniteUpdate);
                    want.quarantined += 1;
                }
                3 => {
                    plan = plan.with(client, round, FaultKind::Corrupt);
                    want.rejected += 1;
                }
                4 => {
                    plan = plan.with(client, round, FaultKind::SlowDrip);
                    want.shed += 1;
                }
                5 => {
                    plan = plan.with(client, round, FaultKind::HoldConnection(HOLD));
                    want.shed += 1;
                }
                6 => {
                    plan = plan.with(client, round, FaultKind::WrongShape);
                    want.quarantined += 1;
                }
                _ => want.delivered += 1,
            }
        }
        expected.push(want);
    }
    (plan, expected)
}

/// One soak run of `cfg` under `plan` over `transport`, with the rate
/// floor on (only TCP reads it).
fn run_cell(cfg: &FlConfig, plan: &FaultPlan, transport: Transport) -> FlRunResult {
    let spec = RunSpec {
        transport,
        faults: plan.clone(),
        net: NetConfig {
            min_byte_rate: MIN_BYTE_RATE,
            ..NetConfig::default()
        },
        ..RunSpec::default()
    };
    fedsz_fl::run_with(cfg, &spec)
        .unwrap_or_else(|e| panic!("{} soak run: {e:?}", transport.name()))
}

/// Assert `got` is bit-identical to `baseline`: final model, per-round
/// accuracies, and per-round fault counters.
fn assert_identical(label: &str, baseline: &FlRunResult, got: &FlRunResult) {
    assert_eq!(
        baseline.final_model, got.final_model,
        "{label}: final model diverged from baseline"
    );
    assert_eq!(baseline.rounds.len(), got.rounds.len(), "{label}: rounds");
    for (b, g) in baseline.rounds.iter().zip(&got.rounds) {
        assert!(
            b.accuracy == g.accuracy,
            "{label}: round {} accuracy {} != {}",
            b.round,
            b.accuracy,
            g.accuracy
        );
        assert_eq!(
            b.faults, g.faults,
            "{label}: round {} fault counters diverged",
            b.round
        );
        assert_eq!(
            b.quarantine_reasons, g.quarantine_reasons,
            "{label}: round {} quarantine reasons diverged",
            b.round
        );
        assert_eq!(
            b.suspect_reasons, g.suspect_reasons,
            "{label}: round {} suspect reasons diverged",
            b.round
        );
    }
}

/// Stream `folds` updates of `params` parameters through one accumulator
/// and return the tier's JSON. Panics if any tensor left the 128-bit
/// window, or if the accumulator, the resident-set growth or the output
/// is not what an O(model) fold must give.
fn fold_tier(params: usize, folds: usize) -> String {
    let distinct = 32.min(folds.max(1));
    let sources: Vec<_> = (0..distinct)
        .map(|i| (synth_update(params, i as u64), 10 + i))
        .collect();
    let rss_before_kb = proc_status_kb("VmRSS");
    let t0 = Instant::now();
    let mut agg = StreamingFedAvg::new(&sources[0].0);
    for i in 0..folds {
        let (sd, n) = &sources[i % distinct];
        agg.fold(sd, *n).expect("fold");
    }
    assert_eq!(agg.folded(), folds);
    let accumulator_bytes = agg.accumulator_bytes();
    let wide_tensors = agg.wide_tensors();
    let global = agg.finish().expect("finish");
    let seconds = t0.elapsed().as_secs_f64();
    let rss_after_kb = proc_status_kb("VmRSS");
    assert!(global
        .entries()
        .iter()
        .all(|e| e.tensor.data().iter().all(|v| v.is_finite())));

    let model_bytes = global.nbytes();
    // A window-policy regression that promotes everything would only show
    // as "slower"; make it a failure. Narrow is 16 B per parameter.
    assert_eq!(
        wide_tensors, 0,
        "synthetic updates must stay in the 128-bit window"
    );
    assert!(
        accumulator_bytes < 24 * global.num_params() + model_bytes,
        "accumulator is {accumulator_bytes} B for {params} params"
    );
    // The whole point: resident growth across the fold stays a small
    // multiple of the accumulator, nowhere near the materialized buffer.
    let grown = rss_after_kb.saturating_sub(rss_before_kb) * 1024;
    assert!(
        grown < accumulator_bytes as u64 * 4 + (1 << 22),
        "fold grew RSS by {grown} B — not O(model)"
    );
    let materialized_bytes = folds * model_bytes;
    println!(
        "fold: {folds} updates x {params} params in {seconds:.2}s; accumulator {:.1} kB \
         ({wide_tensors} wide tensors) vs {:.1} MB materialized; rss {rss_before_kb} -> \
         {rss_after_kb} kB",
        accumulator_bytes as f64 / 1e3,
        materialized_bytes as f64 / 1e6,
    );
    format!(
        "  \"fold\": {{\n    \"folds\": {folds}, \"params\": {params}, \"distinct_updates\": {distinct},\n    \
         \"accumulator_bytes\": {accumulator_bytes}, \"wide_tensors\": {wide_tensors}, \
         \"materialized_bytes\": {materialized_bytes},\n    \
         \"rss_before_kb\": {rss_before_kb}, \"rss_after_kb\": {rss_after_kb}, \"seconds\": {seconds:.4}\n  }}"
    )
}

/// One cell of a transport × ingest-workers matrix.
struct Cell {
    mode: &'static str,
    transport: &'static str,
    workers: usize,
    seconds: f64,
    shed: usize,
    suspected: usize,
}

impl Cell {
    fn json(&self) -> String {
        format!(
            "    {{\"mode\": \"{}\", \"transport\": \"{}\", \"ingest_workers\": {}, \
             \"seconds\": {:.4}, \"shed\": {}, \"suspected\": {}}}",
            self.mode, self.transport, self.workers, self.seconds, self.shed, self.suspected
        )
    }
}

/// Run `cfg` under `plan` over {in-process, channel, tcp} × `worker_counts`.
/// The first cell is the baseline: `check` vets it, and every other cell
/// must be bit-identical to it.
fn matrix(
    tier: &str,
    cfg: &FlConfig,
    plan: &FaultPlan,
    worker_counts: &[usize],
    check: impl Fn(&FlRunResult),
) -> Vec<Cell> {
    let mode = cfg.aggregation.name();
    let mut baseline: Option<FlRunResult> = None;
    let mut cells = Vec::new();
    for transport in [Transport::InProcess, Transport::Channel, Transport::Tcp] {
        for &workers in worker_counts {
            let cfg = FlConfig {
                ingest_workers: workers,
                ..cfg.clone()
            };
            let t0 = Instant::now();
            let result = run_cell(&cfg, plan, transport);
            let cell = Cell {
                mode,
                transport: transport.name(),
                workers,
                seconds: t0.elapsed().as_secs_f64(),
                shed: result.rounds.iter().map(|r| r.faults.shed).sum(),
                suspected: result.rounds.iter().map(|r| r.faults.suspected).sum(),
            };
            let label = format!("{mode} {} x {workers} workers", cell.transport);
            println!(
                "{tier}: {label}: {:.2}s, {} shed, {} suspected, accuracy {:.3}",
                cell.seconds,
                cell.shed,
                cell.suspected,
                result.final_accuracy()
            );
            match &baseline {
                None => {
                    check(&result);
                    baseline = Some(result);
                }
                Some(b) => assert_identical(&label, b, &result),
            }
            cells.push(cell);
        }
    }
    cells
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("--smoke");
    let out: String = args.value("--out", "BENCH_soak.json".to_string());
    let scale_population: usize = args.value("--population", if smoke { 1_000 } else { 10_000 });
    args.finish();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# chaos-soak: overload-safe server determinism ({cores} cores available)");

    // ---- fold tier -------------------------------------------------------
    // First, while the heap is quiet, so its RSS growth is the fold's own.
    let fold_json = if smoke {
        fold_tier(16_384, 1_000)
    } else {
        fold_tier(65_536, 10_000)
    };

    // ---- parity tier -----------------------------------------------------
    // Cohorts large enough that every fault kind fires each round, small
    // enough that the tcp matrix stays quick.
    let (population, fraction, rounds) = if smoke {
        (24usize, 8.0 / 24.0, 2usize)
    } else {
        (64usize, 16.0 / 64.0, 3usize)
    };
    let base_cfg = FlConfig {
        n_clients: 4,
        population,
        sample_fraction: fraction,
        rounds,
        samples_per_client: 4,
        test_samples: 16,
        batch_size: 2,
        compression: FlConfig::with_fedsz(1e-2).compression,
        seed: 42,
        ..FlConfig::default()
    };
    let model = model_bytes(&base_cfg);
    let budget = model * 2;
    // Over the whole budget, so the flood sheds at the frame header on
    // every transport no matter what else is in flight.
    let flood = model * 4;
    let (plan, expected) = chaos_plan(&base_cfg, flood);
    let worker_counts: &[usize] = if smoke { &[0, 2] } else { &[1, 4, 8] };

    let parity_cfg = FlConfig {
        ingest_budget_bytes: Some(budget),
        ..base_cfg
    };
    let cells = matrix("parity", &parity_cfg, &plan, worker_counts, |result| {
        // The baseline must realize exactly the counters the plan
        // predicts — sheds included — or the whole matrix would vacuously
        // agree on the wrong behavior.
        for (r, want) in result.rounds.iter().zip(&expected) {
            assert_eq!(
                r.faults, *want,
                "baseline round {} diverged from the plan's prediction",
                r.round
            );
        }
    });
    let parity_shed = cells.first().map_or(0, |c| c.shed);
    println!("parity: all {} cells bit-identical", cells.len());

    // ---- adversarial tier ------------------------------------------------
    // Three of eight clients attack through the real lossy uplink: one
    // flips its update's sign, one scales it 1000× away from the
    // broadcast model, one drifts toward zero a round later. Both robust
    // fold modes must screen identically on every transport and worker
    // count. The ingest budget is disabled (0) because the robust modes
    // buffer the cohort, which an auto budget of a few models refuses
    // for eight clients by design.
    let adv_plan = FaultPlan::new()
        .with(1, 0, FaultKind::SignFlip)
        .with(2, 0, FaultKind::ScaleUpdate(1000.0))
        .with(3, 1, FaultKind::DriftToward);
    let (adv_clients, adv_rounds) = (8, 2);
    let mut adv_cells: Vec<Cell> = Vec::new();
    for mode in [
        Aggregation::ClippedMean { clip_factor: 3.0 },
        Aggregation::TrimmedMean { trim_k: 3 },
    ] {
        let cfg = FlConfig {
            n_clients: adv_clients,
            rounds: adv_rounds,
            samples_per_client: 4,
            test_samples: 16,
            batch_size: 2,
            compression: FlConfig::with_fedsz(1e-2).compression,
            ingest_budget_bytes: Some(0),
            aggregation: mode,
            seed: 42,
            ..FlConfig::default()
        };
        let name = mode.name();
        let screens_some = |result: &FlRunResult| {
            let suspected: usize = result.rounds.iter().map(|r| r.faults.suspected).sum();
            assert!(
                suspected > 0,
                "{name}: the planned adversaries went unsuspected — attack inert"
            );
            assert!(
                suspected < adv_clients * adv_rounds,
                "{name}: every update was suspected — the screen tells no one apart"
            );
        };
        adv_cells.extend(matrix(
            "adversarial",
            &cfg,
            &adv_plan,
            worker_counts,
            screens_some,
        ));
    }
    println!(
        "adversarial: all {} cells bit-identical per mode",
        adv_cells.len()
    );

    // ---- scale tier ------------------------------------------------------
    let scale_cfg = FlConfig {
        dataset: fedsz_dnn::DatasetKind::FashionMnistLike,
        n_clients: 4,
        population: scale_population,
        sample_fraction: 16.0 / scale_population as f64,
        rounds: 1,
        samples_per_client: 2,
        test_samples: 16,
        batch_size: 2,
        compression: FlConfig::with_fedsz(1e-2).compression,
        seed: 42,
        ..FlConfig::default()
    };
    let scale_model = model_bytes(&scale_cfg);
    let scale_budget = scale_model * 2;
    let (scale_plan, _) = chaos_plan(&scale_cfg, scale_model * 4);
    let cohort = scale_cfg.cohort_size();

    let scale_cfg = FlConfig {
        ingest_workers: if smoke { 2 } else { 4 },
        ingest_budget_bytes: Some(scale_budget),
        ..scale_cfg
    };
    let inproc = run_cell(&scale_cfg, &scale_plan, Transport::InProcess);

    let rss_before_kb = proc_status_kb("VmRSS");
    let t0 = Instant::now();
    let channel = run_cell(&scale_cfg, &scale_plan, Transport::Channel);
    let scale_seconds = t0.elapsed().as_secs_f64();
    let rss_after_kb = proc_status_kb("VmRSS");
    assert_identical("scale channel vs in-process", &inproc, &channel);
    let scale_shed: usize = channel.rounds.iter().map(|r| r.faults.shed).sum();
    assert!(scale_shed > 0, "scale tier shed nothing — chaos plan inert");

    // Budget + O(model) + O(threads): the ledger caps admitted frame
    // bytes at `scale_budget`; the accumulator, broadcast, and scratch
    // buffers are a few models; each registered client thread touches a
    // few stack pages.
    let grown = rss_after_kb.saturating_sub(rss_before_kb) * 1024;
    let bound =
        (scale_budget + scale_model * 8 + (1 << 26)) as u64 + scale_population as u64 * (64 << 10);
    assert!(
        grown < bound,
        "scale round grew RSS by {grown} B (bound {bound} B) — not budget + O(model)"
    );
    println!(
        "scale: cohort {cohort} of {scale_population} registered, budget {scale_budget} B: \
         {scale_seconds:.2}s, {scale_shed} shed, rss {rss_before_kb} -> {rss_after_kb} kB \
         (vm_hwm {} kB)",
        proc_status_kb("VmHWM")
    );

    // ---- report ----------------------------------------------------------
    let cells_json = |cells: &[Cell]| cells.iter().map(Cell::json).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"soak\",\n  \"available_parallelism\": {cores},\n  \"smoke\": {smoke},\n\
         \n{fold_json},\n\
         \n  \"parity\": {{\n    \"population\": {population}, \"rounds\": {rounds},\n    \
         \"budget_bytes\": {budget}, \"model_bytes\": {model},\n    \
         \"shed_per_run\": {parity_shed}, \"bit_identical\": true,\n    \
         \"note\": \"{IN_PROCESS_NOTE}\",\n    \"cells\": [\n{}\n    ]\n  }},\n\
         \n  \"adversarial\": {{\n    \"clients\": {adv_clients}, \"byzantine\": 3, \"rounds\": {adv_rounds},\n    \
         \"bit_identical\": true,\n    \"cells\": [\n{}\n    ]\n  }},\n\
         \n  \"scale\": {{\n    \"population\": {scale_population}, \"cohort\": {cohort},\n    \
         \"budget_bytes\": {scale_budget}, \"model_bytes\": {scale_model},\n    \
         \"shed\": {scale_shed}, \"seconds\": {scale_seconds:.4},\n    \
         \"rss_before_kb\": {rss_before_kb}, \"rss_after_kb\": {rss_after_kb}, \"vm_hwm_kb\": {}\n  }}\n}}\n",
        cells_json(&cells),
        cells_json(&adv_cells),
        proc_status_kb("VmHWM"),
    );
    std::fs::write(&out, &json).expect("write benchmark JSON");
    println!("\nwrote {out}");
}
