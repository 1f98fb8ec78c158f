//! Table V: FedSZ compression ratios for various models and datasets.
//!
//! Runs the full FedSZ pipeline (partition → SZ2 + blosc-lz → serialize) on
//! synthesized full-scale state dicts. The dataset dimension enters through
//! the classifier width (10 or 101 classes) and a per-dataset seed, as
//! compression ratio is a function of the tensors, not the training server.
//!
//! Run: `cargo run -p fedsz-bench --release --bin table5` (`--fast` skips
//! AlexNet's 61 M-parameter dict for a quick check).

use fedsz::{compress_with_stats, FedSzConfig};
use fedsz_bench::{print_header, Args, TABLE5_BOUNDS};
use fedsz_dnn::DatasetKind;
use fedsz_models::ModelKind;

fn main() {
    let args = Args::parse();
    let fast = args.flag("--fast");
    args.finish();

    print_header(
        "Table V: FedSZ compression ratios (SZ2 + blosc-lz)",
        &[
            "model",
            "dataset",
            "rel_bound",
            "ratio",
            "compressed_MB",
            "compress_s",
        ],
    );
    for model in [
        ModelKind::AlexNet,
        ModelKind::MobileNetV2,
        ModelKind::ResNet50,
    ] {
        if fast && model == ModelKind::AlexNet {
            continue;
        }
        for (d_idx, dataset) in DatasetKind::all().into_iter().enumerate() {
            let (_, _, _, classes) = dataset.dims();
            let sd = model.synthesize(classes, 100 + d_idx as u64);
            for &rel in &TABLE5_BOUNDS {
                let cfg = FedSzConfig::with_rel_bound(rel);
                let (update, stats) = compress_with_stats(&sd, &cfg);
                println!(
                    "{}\t{}\t{:.0e}\t{:.2}\t{:.2}\t{:.2}",
                    model.name(),
                    dataset.name(),
                    rel,
                    stats.compression_ratio(),
                    update.nbytes() as f64 / 1e6,
                    stats.compress_seconds,
                );
            }
        }
    }
}
