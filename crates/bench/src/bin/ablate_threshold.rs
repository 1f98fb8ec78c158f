//! Ablation: the Algorithm-1 partition threshold.
//!
//! Sweeps the element-count threshold and reports, for each model, the
//! fraction of data routed lossy and the end-to-end FedSZ compression
//! ratio. Too high a threshold leaves compressible weights on the (weak)
//! lossless path; too low risks lossy batch-norm vectors. The plateau in
//! between is why the default (2048 for full-scale models) is insensitive.
//!
//! Run: `cargo run -p fedsz-bench --release --bin ablate_threshold`

use fedsz::{census, compress_with_stats, FedSzConfig};
use fedsz_bench::{print_header, Args};
use fedsz_models::ModelKind;

const THRESHOLDS: [usize; 7] = [0, 256, 1024, 2048, 8192, 65_536, 1_048_576];

fn main() {
    let args = Args::parse();
    let models = if args.flag("--fast") {
        vec![ModelKind::MobileNetV2]
    } else {
        vec![ModelKind::MobileNetV2, ModelKind::ResNet50]
    };
    args.finish();

    print_header(
        "Ablation: partition threshold sweep (FedSZ @ 1e-2)",
        &[
            "model",
            "threshold",
            "lossy_entries",
            "pct_lossy_values",
            "compression_ratio",
        ],
    );
    for model in models {
        let sd = model.synthesize(10, 55);
        for &threshold in &THRESHOLDS {
            let cfg = FedSzConfig {
                threshold,
                ..FedSzConfig::with_rel_bound(1e-2)
            };
            let c = census(&sd, threshold);
            let (_, stats) = compress_with_stats(&sd, &cfg);
            println!(
                "{}\t{threshold}\t{}\t{:.2}%\t{:.2}",
                model.name(),
                c.lossy_entries,
                100.0 * c.lossy_fraction(),
                stats.compression_ratio(),
            );
        }
    }
}
