//! Error-bound scheduling (§VIII-B future work): trade early-round fidelity
//! for bytes by decaying the relative bound across rounds.
//!
//! Run: `cargo run --release --example adaptive_bounds`

use fedsz::{BoundSchedule, FedSzConfig};
use fedsz_fl::{run_with, FlConfig, RunSpec, SMALL_MODEL_THRESHOLD};

fn main() {
    let rounds = 10;
    let base = FlConfig {
        rounds,
        ..FlConfig::default()
    };

    let schedules = [
        ("constant 1e-2", BoundSchedule::Constant(1e-2)),
        (
            "decay 1e-1 -> 1e-3",
            BoundSchedule::GeometricDecay {
                start: 1e-1,
                end: 1e-3,
                rounds,
            },
        ),
    ];

    for (name, schedule) in schedules {
        let codec_at = |round| {
            Some(FedSzConfig {
                threshold: SMALL_MODEL_THRESHOLD,
                ..FedSzConfig::with_rel_bound(schedule.bound_at(round))
            })
        };
        let spec = RunSpec {
            schedule: Some(&codec_at),
            ..RunSpec::default()
        };
        let result = run_with(&base, &spec).expect("fl run");
        let (acc, bytes, compress_s) = result.summary();
        println!("schedule: {name}");
        for r in &result.rounds {
            println!(
                "  round {:>2}: bound {:.0e}  accuracy {:.1}%  ratio {:.1}x",
                r.round + 1,
                schedule.bound_at(r.round),
                100.0 * r.accuracy,
                r.compression_ratio()
            );
        }
        println!(
            "  => accuracy {:.1}%, {:.2} MB total, {:.2} s compressing\n",
            100.0 * acc,
            bytes as f64 / 1e6,
            compress_s
        );
    }
}
