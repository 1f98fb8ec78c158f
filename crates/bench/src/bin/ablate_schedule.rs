//! Ablation: error-bound scheduling across rounds (§VIII-B future work).
//!
//! Compares a constant relative bound against decaying schedules
//! (coarse-early / fine-late) on both final accuracy and total bytes on
//! the wire. Coarse early rounds are nearly free accuracy-wise while
//! transferring far fewer bytes — the hyperparameter direction the paper
//! proposes exploring.
//!
//! Run: `cargo run -p fedsz-bench --release --bin ablate_schedule [--rounds N]`

use fedsz::{BoundSchedule, FedSzConfig};
use fedsz_bench::{print_header, Args};
use fedsz_fl::{FlConfig, RunSpec, SMALL_MODEL_THRESHOLD};

fn run_with_schedule(schedule: BoundSchedule, rounds: usize) -> (f64, usize, f64) {
    // One session whose uplink bound follows the schedule round by round.
    let codec_at = |round| {
        Some(FedSzConfig {
            threshold: SMALL_MODEL_THRESHOLD,
            ..FedSzConfig::with_rel_bound(schedule.bound_at(round))
        })
    };
    let cfg = FlConfig {
        rounds,
        ..FlConfig::default()
    };
    let spec = RunSpec {
        schedule: Some(&codec_at),
        ..RunSpec::default()
    };
    fedsz_fl::run_with(&cfg, &spec).expect("fl run").summary()
}

fn main() {
    let args = Args::parse();
    let rounds: usize = args.value("--rounds", 12);
    args.finish();

    let schedules: Vec<(&str, BoundSchedule)> = vec![
        ("constant 1e-2", BoundSchedule::Constant(1e-2)),
        ("constant 1e-3", BoundSchedule::Constant(1e-3)),
        (
            "decay 1e-1 -> 1e-3",
            BoundSchedule::GeometricDecay {
                start: 1e-1,
                end: 1e-3,
                rounds,
            },
        ),
        (
            "step 1e-1 -> 1e-2 @ mid",
            BoundSchedule::Step {
                coarse: 1e-1,
                fine: 1e-2,
                switch_round: rounds / 2,
            },
        ),
    ];

    // Uncompressed reference.
    let base = fedsz_fl::run(&FlConfig {
        rounds,
        ..FlConfig::default()
    })
    .expect("fl run");
    let base_bytes: usize = base.rounds.iter().map(|r| r.bytes_on_wire).sum();

    print_header(
        "Ablation: error-bound schedules",
        &[
            "schedule",
            "final_accuracy_pct",
            "total_MB",
            "bytes_vs_uncompressed",
        ],
    );
    println!(
        "uncompressed\t{:.2}\t{:.2}\t1.00x",
        100.0 * base.final_accuracy(),
        base_bytes as f64 / 1e6
    );
    for (name, schedule) in schedules {
        let (acc, bytes, _) = run_with_schedule(schedule, rounds);
        println!(
            "{name}\t{:.2}\t{:.2}\t{:.2}x",
            100.0 * acc,
            bytes as f64 / 1e6,
            base_bytes as f64 / bytes as f64,
        );
    }
}
