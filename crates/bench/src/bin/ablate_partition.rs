//! Ablation: why partition? (§V-C)
//!
//! The paper asserts that lossy-compressing *everything* — batch-norm
//! running statistics included — causes "extreme degradation of model
//! accuracy", which motivates Algorithm 1's lossy/lossless split. This
//! ablation trains a model, then compares test accuracy after
//! (a) a FedSZ round trip (partitioned, metadata lossless) and
//! (b) an all-lossy round trip (every tensor through SZ2 at the same ε).
//!
//! Run: `cargo run -p fedsz-bench --release --bin ablate_partition`

use fedsz::{compress, decompress, ErrorBound, FedSzConfig, LossyKind};
use fedsz_bench::{print_header, Args};
use fedsz_dnn::{DatasetKind, ModelArch};
use fedsz_fl::SMALL_MODEL_THRESHOLD;
use fedsz_tensor::{SplitMix64, StateDict, Tensor};

/// Round-trip the whole dict as ONE flattened stream with a single global
/// relative bound (the naive no-partition pipeline).
fn single_stream_round_trip(sd: &StateDict, rel: f64) -> StateDict {
    let mut flat = Vec::with_capacity(sd.num_params());
    for e in sd.entries() {
        flat.extend_from_slice(e.tensor.data());
    }
    let bytes = LossyKind::Sz2.compress(&flat, ErrorBound::Rel(rel));
    let values = LossyKind::Sz2.decompress(&bytes).expect("round trip");
    let mut out = StateDict::new();
    let mut off = 0usize;
    for e in sd.entries() {
        let n = e.tensor.numel();
        out.insert(
            e.name.clone(),
            e.kind,
            Tensor::new(e.tensor.shape().to_vec(), values[off..off + n].to_vec()),
        );
        off += n;
    }
    out
}

/// Round-trip every tensor (metadata included) through the lossy codec.
fn all_lossy_round_trip(sd: &StateDict, rel: f64) -> StateDict {
    sd.entries()
        .iter()
        .map(|e| {
            let bytes = LossyKind::Sz2.compress(e.tensor.data(), ErrorBound::Rel(rel));
            let values = LossyKind::Sz2.decompress(&bytes).expect("round trip");
            fedsz_tensor::Entry {
                name: e.name.clone(),
                kind: e.kind,
                tensor: Tensor::new(e.tensor.shape().to_vec(), values),
            }
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let epochs: usize = args.value("--epochs", 8);
    args.finish();

    let (train, test) = DatasetKind::Cifar10Like.generate(320, 256, 77);

    print_header(
        "Ablation: partitioned (FedSZ) vs all-lossy compression",
        &[
            "model",
            "rel_bound",
            "acc_baseline",
            "acc_fedsz",
            "acc_per_tensor_lossy",
            "acc_single_stream_lossy",
        ],
    );
    for arch in ModelArch::all() {
        let mut net = arch.build(3, 32, 10, 7);
        let mut rng = SplitMix64::new(8);
        for _ in 0..epochs {
            net.train_epoch(&train, 32, 0.01, 0.9, &mut rng);
        }
        let baseline = net.evaluate(&test);
        let sd = net.state_dict();

        for rel in [1e-2, 1e-1] {
            let cfg = FedSzConfig {
                threshold: SMALL_MODEL_THRESHOLD,
                ..FedSzConfig::with_rel_bound(rel)
            };
            let fedsz_sd = decompress(&compress(&sd, &cfg)).expect("round trip");
            net.load_state_dict(&fedsz_sd);
            let acc_fedsz = net.evaluate(&test);

            let lossy_sd = all_lossy_round_trip(&sd, rel);
            net.load_state_dict(&lossy_sd);
            let acc_all = net.evaluate(&test);

            let stream_sd = single_stream_round_trip(&sd, rel);
            net.load_state_dict(&stream_sd);
            let acc_stream = net.evaluate(&test);

            println!(
                "{}\t{rel:.0e}\t{:.2}%\t{:.2}%\t{:.2}%\t{:.2}%",
                arch.name(),
                100.0 * baseline,
                100.0 * acc_fedsz,
                100.0 * acc_all,
                100.0 * acc_stream,
            );
        }
    }
}
