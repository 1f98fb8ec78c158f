//! Figure 4: accuracy convergence comparison for the EBLCs.
//!
//! Trains the AlexNet analogue on the CIFAR-10-like task for 10 FedAvg
//! rounds, once per compressor (plus the uncompressed baseline), and prints
//! the per-round accuracy series. The SZx row uses the paper-pathology
//! mode, reproducing its collapse to chance.
//!
//! Run: `cargo run -p fedsz-bench --release --bin fig4 [--rounds N]`

use fedsz::{FedSzConfig, LossyKind};
use fedsz_bench::{print_header, Args};
use fedsz_fl::{FlConfig, SMALL_MODEL_THRESHOLD};

fn main() {
    let args = Args::parse();
    let rounds: usize = args.value("--rounds", 10);
    let rel: f64 = args.value("--rel", 1e-2);
    args.finish();

    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();

    let base_cfg = FlConfig {
        rounds,
        ..FlConfig::default()
    };
    let result = fedsz_fl::run(&base_cfg).expect("fl run");
    curves.push((
        "uncompressed".into(),
        result.rounds.iter().map(|r| r.accuracy).collect(),
    ));

    for lossy in [
        LossyKind::Sz2,
        LossyKind::Sz3,
        LossyKind::SzxPaper,
        LossyKind::Zfp,
    ] {
        let cfg = FlConfig {
            rounds,
            compression: Some(FedSzConfig {
                lossy,
                threshold: SMALL_MODEL_THRESHOLD,
                ..FedSzConfig::with_rel_bound(rel)
            }),
            ..FlConfig::default()
        };
        let result = fedsz_fl::run(&cfg).expect("fl run");
        curves.push((
            lossy.name().to_owned(),
            result.rounds.iter().map(|r| r.accuracy).collect(),
        ));
    }

    print_header(
        "Figure 4: accuracy convergence per compressor (AlexNet / CIFAR-10)",
        &["round"],
    );
    println!(
        "round\t{}",
        curves
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join("\t")
    );
    for r in 0..rounds {
        let row: Vec<String> = curves
            .iter()
            .map(|(_, accs)| format!("{:.4}", accs[r]))
            .collect();
        println!("{}\t{}", r + 1, row.join("\t"));
    }
}
