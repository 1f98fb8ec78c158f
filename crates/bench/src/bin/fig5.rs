//! Figure 5: inference accuracy across models and datasets while varying
//! the FedSZ relative error bound.
//!
//! Nine panels (3 architectures × 3 datasets); each sweeps
//! ε ∈ {1e-5 … 1e-1} plus the uncompressed baseline. The paper's claims:
//! accuracy within ~0.5% of baseline for ε ≤ 1e-2, a cliff above.
//!
//! Run: `cargo run -p fedsz-bench --release --bin fig5 [--rounds N]`
//! (paper: 50 rounds; default here 30 to keep the full 9-panel sweep
//! tractable on CPU — pass `--rounds 50` for the paper setting).

use fedsz_bench::{print_header, Args, FIG5_BOUNDS};
use fedsz_dnn::{DatasetKind, ModelArch};
use fedsz_fl::FlConfig;

fn main() {
    let args = Args::parse();
    let rounds: usize = args.value("--rounds", 30);
    let samples: usize = args.value("--samples", 160);
    args.finish();

    print_header(
        "Figure 5: accuracy vs FedSZ relative error bound",
        &[
            "model",
            "dataset",
            "rel_bound",
            "accuracy_pct",
            "baseline_pct",
            "delta_pct",
        ],
    );

    for arch in ModelArch::all() {
        for dataset in DatasetKind::all() {
            let base_cfg = FlConfig {
                arch,
                dataset,
                rounds,
                samples_per_client: samples,
                ..FlConfig::default()
            };
            let baseline = fedsz_fl::run(&base_cfg).expect("fl run").final_accuracy();
            println!(
                "{}\t{}\tnone\t{:.2}\t{:.2}\t0.00",
                arch.name(),
                dataset.name(),
                100.0 * baseline,
                100.0 * baseline
            );
            for &rel in &FIG5_BOUNDS {
                let cfg = FlConfig {
                    compression: FlConfig::with_fedsz(rel).compression,
                    ..base_cfg.clone()
                };
                let acc = fedsz_fl::run(&cfg).expect("fl run").final_accuracy();
                println!(
                    "{}\t{}\t{:.0e}\t{:.2}\t{:.2}\t{:+.2}",
                    arch.name(),
                    dataset.name(),
                    rel,
                    100.0 * acc,
                    100.0 * baseline,
                    100.0 * (acc - baseline),
                );
            }
        }
    }
}
