//! Figure 6: client runtime per epoch, broken down into training and FedSZ
//! compression, across models and datasets (ε = 1e-2).
//!
//! Run: `cargo run -p fedsz-bench --release --bin fig6 [--rounds N]`

use fedsz_bench::{print_header, Args};
use fedsz_dnn::{DatasetKind, ModelArch};
use fedsz_fl::FlConfig;

fn main() {
    let args = Args::parse();
    let rounds: usize = args.value("--rounds", 4);
    args.finish();

    print_header(
        "Figure 6: client runtime per epoch breakdown (FedSZ @ 1e-2)",
        &[
            "model",
            "dataset",
            "train_s",
            "compress_s",
            "decompress_s",
            "compress_pct_of_epoch",
        ],
    );
    for arch in ModelArch::all() {
        for dataset in DatasetKind::all() {
            let cfg = FlConfig {
                arch,
                dataset,
                rounds,
                ..FlConfig::with_fedsz(1e-2)
            };
            let result = fedsz_fl::run(&cfg).expect("fl run");
            let train = result.mean_train_s();
            let compress = result.mean_compress_s();
            let decompress = result
                .rounds
                .iter()
                .map(|r| r.decompress_s_total)
                .sum::<f64>()
                / (result.rounds.len() * result.n_clients) as f64;
            println!(
                "{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.1}%",
                arch.name(),
                dataset.name(),
                train,
                compress,
                decompress,
                100.0 * compress / (train + compress),
            );
        }
    }
}
