//! The trained bits of `fedsz-dnn`, pinned across commits.
//!
//! A change to the training kernels that claims "same summation order" passes
//! this file with `tests/golden/training.txt` untouched; a deliberate order
//! change replaces the rows a failing test prints. One row per case:
//! `name, CRC-32 of the state dict's f32 little-endian bytes, accuracy bits`.

use std::fmt::Write;

use fedsz_dnn::{DatasetKind, ModelArch};
use fedsz_entropy::crc32::crc32;
use fedsz_fl::FlConfig;
use fedsz_tensor::{SplitMix64, StateDict};

fn state_crc(sd: &StateDict) -> u32 {
    let bytes: Vec<u8> = sd
        .entries()
        .iter()
        .flat_map(|e| e.tensor.data().iter().flat_map(|v| v.to_le_bytes()))
        .collect();
    crc32(&bytes)
}

/// Compare `table` with the golden rows whose first field is `tag`.
fn assert_pinned(tag: &str, table: &str) {
    let pinned: Vec<&str> = include_str!("golden/training.txt")
        .lines()
        .filter(|l| l.split(' ').next() == Some(tag))
        .collect();
    let got: Vec<&str> = table.lines().collect();
    assert!(
        got == pinned,
        "trained bits changed; the {tag} rows now read:\n{table}"
    );
}

/// Two epochs on 64 samples, then `evaluate` on 32, on every dataset
/// geometry; batch 7 leaves a ragged last batch of one.
fn train_rows(arch: ModelArch) -> String {
    let mut table = String::new();
    for ds in DatasetKind::all() {
        for batch in [32usize, 7] {
            let (c, h, _, classes) = ds.dims();
            let (train, test) = ds.generate(64, 32, 19);
            let mut net = arch.build(c, h, classes, 5);
            let mut rng = SplitMix64::new(23);
            for _ in 0..2 {
                net.train_epoch(&train, batch, 0.01, 0.9, &mut rng);
            }
            let acc = net.evaluate(&test);
            writeln!(
                table,
                "{arch:?} {ds:?} batch-{batch} {:08x} {:016x}",
                state_crc(&net.state_dict()),
                acc.to_bits()
            )
            .unwrap();
        }
    }
    table
}

#[test]
fn alexnet_s_training_bits_are_pinned() {
    assert_pinned("AlexNetS", &train_rows(ModelArch::AlexNetS));
}

#[test]
fn mobilenet_v2_s_training_bits_are_pinned() {
    assert_pinned("MobileNetV2S", &train_rows(ModelArch::MobileNetV2S));
}

#[test]
fn resnet_s_training_bits_are_pinned() {
    assert_pinned("ResNetS", &train_rows(ModelArch::ResNetS));
}

#[test]
fn federated_final_model_bits_are_pinned() {
    let mut table = String::new();
    for arch in ModelArch::all() {
        let cfg = FlConfig {
            arch,
            n_clients: 2,
            rounds: 2,
            batch_size: 8,
            samples_per_client: 16,
            test_samples: 16,
            ..FlConfig::with_fedsz(1e-2)
        };
        let run = fedsz_fl::run(&cfg).expect("two-round run");
        writeln!(
            table,
            "fl {arch:?} {:08x} {:016x}",
            state_crc(&run.final_model),
            run.final_accuracy().to_bits()
        )
        .unwrap();
    }
    assert_pinned("fl", &table);
}
