//! Cross-device scale benchmark for the streaming aggregator: can the
//! server hold a 10 000-client round in O(model) memory?
//!
//! Two parts:
//!
//! * **fold** — streams `--folds` updates (default 10 000, cycled from a
//!   small set of distinct source dicts) through one [`StreamingFedAvg`],
//!   measuring resident-set growth. The seed implementation materialized
//!   every update before averaging — O(clients × model) — so this is the
//!   memory the streaming fold refuses to spend; the report includes what
//!   materializing the same round would have buffered. A 128-update prefix
//!   is materialized, and its aggregate folded in order is cross-checked
//!   bit-for-bit against the same updates folded in reverse. The
//!   accumulator's size is what it reports itself
//!   ([`StreamingFedAvg::accumulator_bytes`]); the run fails if the window
//!   policy promoted any of the synthetic tensors to the 384-bit form, and
//!   a deliberately wide-spread tensor checks that promotion still happens
//!   where it must.
//! * **round** — a full loopback round over the channel transport with
//!   `--population` registered clients (default 10 000) and a sampled
//!   cohort of ~16, end to end through training, compression, ingest, and
//!   the streaming aggregate.
//!
//! Results go to stdout and to `--out` (default `BENCH_scale.json`) as
//! JSON, including the host's `available_parallelism` — wall times here are
//! only comparable across hosts with that field in hand.
//!
//! Run: `cargo run -p fedsz-bench --release --bin scale [--smoke]
//!       [--folds N] [--population N] [--out BENCH_scale.json]`

use std::time::Instant;

use fedsz_bench::{proc_status_kb, synth_update, Args};
use fedsz_fl::{FlConfig, RunSpec, StreamingFedAvg, Transport};
use fedsz_tensor::{StateDict, Tensor, TensorKind};

/// `updates` folded through one fresh accumulator, in the order given.
fn fold_all<'a>(
    reference: &StateDict,
    updates: impl Iterator<Item = &'a (StateDict, usize)>,
) -> StateDict {
    let mut acc = StreamingFedAvg::new(reference);
    for (sd, n) in updates {
        acc.fold(sd, *n).expect("fold");
    }
    acc.finish().expect("finish")
}

struct FoldReport {
    params: usize,
    folds: usize,
    distinct: usize,
    accumulator_bytes: usize,
    wide_tensors: usize,
    materialized_bytes: usize,
    rss_before_kb: u64,
    rss_after_kb: u64,
    seconds: f64,
}

/// Stream `folds` updates through one accumulator; panics if the streamed
/// aggregate of the 128-update prefix diverges from the prefix folded in
/// reverse, or if any tensor left the 128-bit window.
fn bench_fold(params: usize, folds: usize) -> FoldReport {
    let distinct = 32.min(folds.max(1));
    let sources: Vec<(StateDict, usize)> = (0..distinct)
        .map(|i| (synth_update(params, i as u64), 10 + i))
        .collect();

    // Equivalence first, on a prefix small enough to materialize.
    let prefix = 128.min(folds.max(1));
    let materialized: Vec<(StateDict, usize)> =
        (0..prefix).map(|i| sources[i % distinct].clone()).collect();
    assert_eq!(
        fold_all(&sources[0].0, materialized.iter()),
        fold_all(&sources[0].0, materialized.iter().rev()),
        "streaming diverged from the materialized prefix folded in reverse"
    );
    drop(materialized);

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
    FoldReport {
        params,
        folds,
        distinct,
        accumulator_bytes,
        wide_tensors,
        materialized_bytes: folds * model_bytes,
        rss_before_kb,
        rss_after_kb,
        seconds,
    }
}

/// Window-policy guard: a tensor holding both 1.0 and 2^-100 cannot fit
/// the 128-bit window, so exactly that tensor must be promoted — and the
/// aggregate must not care.
fn check_wide_spread_tensor() {
    let update = |seed: u64| {
        let mut sd = synth_update(64, seed);
        let mut spread = vec![1.0f32; 8];
        spread[seed as usize % 8] = f32::from_bits((127 - 100) << 23);
        sd.insert(
            "spread.weight",
            TensorKind::Weight,
            Tensor::from_vec(spread),
        );
        sd
    };
    let updates: Vec<(StateDict, usize)> = (0..5).map(|i| (update(i), 10 + i as usize)).collect();
    let mut agg = StreamingFedAvg::new(&updates[0].0);
    for (sd, n) in updates.iter().rev() {
        agg.fold(sd, *n).expect("fold");
    }
    assert_eq!(
        agg.wide_tensors(),
        1,
        "exactly the wide-spread tensor must be promoted"
    );
    assert_eq!(
        agg.accumulator_bytes(),
        64 * 16 + 8 * 48 + updates[0].0.nbytes()
    );
    assert_eq!(
        agg.finish().expect("finish"),
        fold_all(&updates[0].0, updates.iter()),
        "promotion changed the aggregate"
    );
}

struct RoundReport {
    population: usize,
    cohort: usize,
    rounds: usize,
    accuracy: f64,
    seconds: f64,
    rss_before_kb: u64,
    rss_after_kb: u64,
}

/// One sampled loopback round: `population` registered client threads on
/// the channel transport, a ~16-client cohort training for real.
fn bench_round(population: usize) -> RoundReport {
    let sample_fraction = 16.0 / population as f64;
    let cfg = FlConfig {
        dataset: fedsz_dnn::DatasetKind::FashionMnistLike,
        n_clients: 4,
        population,
        sample_fraction,
        rounds: 1,
        samples_per_client: 2,
        test_samples: 16,
        batch_size: 2,
        compression: FlConfig::with_fedsz(1e-2).compression,
        seed: 42,
        ..FlConfig::default()
    };
    let cohort = cfg.cohort_size();
    let rss_before_kb = proc_status_kb("VmRSS");
    let t0 = Instant::now();
    let spec = RunSpec {
        transport: Transport::Channel,
        ..RunSpec::default()
    };
    let result = fedsz_fl::run_with(&cfg, &spec).expect("scale round");
    let seconds = t0.elapsed().as_secs_f64();
    let rss_after_kb = proc_status_kb("VmRSS");
    assert_eq!(result.rounds.len(), 1);
    assert_eq!(result.rounds[0].faults.delivered, cohort);
    RoundReport {
        population,
        cohort,
        rounds: 1,
        accuracy: result.final_accuracy(),
        seconds,
        rss_before_kb,
        rss_after_kb,
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("--smoke");
    let folds: usize = args.value("--folds", if smoke { 1_000 } else { 10_000 });
    let params: usize = args.value("--params", if smoke { 16_384 } else { 65_536 });
    let population: usize = args.value("--population", if smoke { 1_000 } else { 10_000 });
    let out: String = args.value("--out", "BENCH_scale.json".to_string());
    args.finish();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("# streaming-aggregator scale benchmark ({cores} cores available)");

    check_wide_spread_tensor();
    let fold = bench_fold(params, folds);
    let saved = fold
        .materialized_bytes
        .saturating_sub(fold.accumulator_bytes);
    println!(
        "fold: {} updates x {} params in {:.2}s; accumulator {:.1} kB ({} wide tensors) vs \
         {:.1} MB materialized (saves {:.1} MB); rss {} -> {} kB",
        fold.folds,
        fold.params,
        fold.seconds,
        fold.accumulator_bytes as f64 / 1e3,
        fold.wide_tensors,
        fold.materialized_bytes as f64 / 1e6,
        saved as f64 / 1e6,
        fold.rss_before_kb,
        fold.rss_after_kb,
    );
    // The whole point: resident growth across the fold stays a small
    // multiple of the accumulator, nowhere near the materialized buffer.
    let grown = fold.rss_after_kb.saturating_sub(fold.rss_before_kb) * 1024;
    assert!(
        grown < fold.accumulator_bytes as u64 * 4 + (1 << 22),
        "fold grew RSS by {grown} B — not O(model)"
    );

    let round = bench_round(population);
    println!(
        "round: cohort {} of {} registered clients in {:.2}s, accuracy {:.3}; rss {} -> {} kB \
         (vm_hwm {} kB)",
        round.cohort,
        round.population,
        round.seconds,
        round.accuracy,
        round.rss_before_kb,
        round.rss_after_kb,
        proc_status_kb("VmHWM"),
    );

    let json = format!(
        "{{\n  \"benchmark\": \"scale\",\n  \"available_parallelism\": {cores},\n  \"smoke\": {smoke},\n\
         \n  \"fold\": {{\n    \"folds\": {}, \"params\": {}, \"distinct_updates\": {},\n    \
         \"accumulator_bytes\": {}, \"wide_tensors\": {}, \"materialized_bytes\": {},\n    \
         \"rss_before_kb\": {}, \"rss_after_kb\": {}, \"seconds\": {:.4},\n    \
         \"matches_materialized_fedavg\": true\n  }},\n\
         \n  \"round\": {{\n    \"population\": {}, \"cohort\": {}, \"rounds\": {},\n    \
         \"accuracy\": {:.6}, \"seconds\": {:.4},\n    \
         \"rss_before_kb\": {}, \"rss_after_kb\": {}, \"vm_hwm_kb\": {}\n  }}\n}}\n",
        fold.folds,
        fold.params,
        fold.distinct,
        fold.accumulator_bytes,
        fold.wide_tensors,
        fold.materialized_bytes,
        fold.rss_before_kb,
        fold.rss_after_kb,
        fold.seconds,
        round.population,
        round.cohort,
        round.rounds,
        round.accuracy,
        round.seconds,
        round.rss_before_kb,
        round.rss_after_kb,
        proc_status_kb("VmHWM"),
    );
    std::fs::write(&out, &json).expect("write benchmark JSON");
    println!("\nwrote {out}");
}
