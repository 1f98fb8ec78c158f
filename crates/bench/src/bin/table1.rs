//! Table I: EBLC comparison across models (runtime, throughput, compression
//! ratio, Top-1 accuracy).
//!
//! Runtime / throughput / ratio come from compressing the lossy partition of
//! the full-scale synthesized state dicts (hardware-independent shapes).
//! Accuracy comes from a 10-round FedAvg run on the CIFAR-10-like task with
//! each compressor plugged into FedSZ — pass `--fast` to skip the training
//! runs, `--rounds N` to change the round count.
//!
//! The SZx row uses the paper-pathology mode (`SZx-paper`), matching the
//! behaviour the authors measured (ratio pinned ≈4–5, accuracy at chance);
//! the strict error-bounded SZx is reported as an extra row for reference.
//!
//! Run: `cargo run -p fedsz-bench --release --bin table1 [--fast]`

use fedsz::{FedSzConfig, LossyKind};
use fedsz_bench::{lossy_partition_values, print_header, time, Args, TABLE1_BOUNDS};
use fedsz_dnn::ModelArch;
use fedsz_eblc::ErrorBound;
use fedsz_fl::{FlConfig, SMALL_MODEL_THRESHOLD};
use fedsz_models::ModelKind;

fn arch_for(model: ModelKind) -> ModelArch {
    match model {
        ModelKind::AlexNet => ModelArch::AlexNetS,
        ModelKind::MobileNetV2 => ModelArch::MobileNetV2S,
        ModelKind::ResNet50 => ModelArch::ResNetS,
    }
}

fn accuracy_for(arch: ModelArch, lossy: LossyKind, rel: f64, rounds: usize, samples: usize) -> f64 {
    let cfg = FlConfig {
        arch,
        rounds,
        samples_per_client: samples,
        compression: Some(FedSzConfig {
            lossy,
            threshold: SMALL_MODEL_THRESHOLD,
            ..FedSzConfig::with_rel_bound(rel)
        }),
        ..FlConfig::default()
    };
    fedsz_fl::run(&cfg).expect("fl run").final_accuracy()
}

fn main() {
    let args = Args::parse();
    let fast = args.flag("--fast");
    let rounds: usize = args.value("--rounds", 10);
    let samples: usize = args.value("--samples", 192);
    args.finish();

    let compressors = [
        LossyKind::Sz2,
        LossyKind::Sz3,
        LossyKind::SzxPaper,
        LossyKind::Zfp,
        LossyKind::Szx, // strict reference row, not in the paper's table
    ];

    print_header(
        "Table I: EBLC comparison across models for CIFAR-10",
        &[
            "model",
            "compressor",
            "rel_bound",
            "runtime_s",
            "throughput_MB_s",
            "compression_ratio",
            "top1_accuracy_pct",
        ],
    );

    for model in [
        ModelKind::AlexNet,
        ModelKind::MobileNetV2,
        ModelKind::ResNet50,
    ] {
        let sd = model.synthesize(10, 11);
        let values = lossy_partition_values(&sd, fedsz::DEFAULT_THRESHOLD);
        let mbytes = values.len() as f64 * 4.0 / 1e6;
        for comp in compressors {
            for &rel in &TABLE1_BOUNDS {
                let (compressed, secs) = time(|| comp.compress(&values, ErrorBound::Rel(rel)));
                let ratio = (values.len() * 4) as f64 / compressed.len() as f64;
                // Accuracy is model-size independent (the FL substrate uses
                // the scaled analogue of the same architecture).
                let acc = if fast {
                    f64::NAN
                } else {
                    100.0 * accuracy_for(arch_for(model), comp, rel, rounds, samples)
                };
                println!(
                    "{}\t{}\t{:.0e}\t{:.3}\t{:.1}\t{:.3}\t{:.2}",
                    model.name(),
                    comp.name(),
                    rel,
                    secs,
                    mbytes / secs,
                    ratio,
                    acc,
                );
            }
        }
    }
}
