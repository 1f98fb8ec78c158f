//! The training substrate's numbers that the yardstick (`benchmark/`) does
//! not carry: GMAC/s of `fedsz_dnn::math`'s product in the three forms each
//! layer uses, at AlexNetS's shapes, and samples/s of one training epoch and
//! one evaluation per architecture.
//!
//! `cargo bench -p fedsz-bench --bench dnn`

use std::hint::black_box;

use fedsz_bench::{median_s, print_header};
use fedsz_dnn::math::{Acc, Gemm, Mat};
use fedsz_dnn::{DatasetKind, ModelArch};
use fedsz_tensor::SplitMix64;

fn main() {
    print_header(
        "dnn: the packed product, packing included, in its three stride settings",
        &["m", "k", "n", "form", "us_per_call", "gmac_s"],
    );
    let mut rng = SplitMix64::new(3);
    let mut g = Gemm::default();
    // AlexNetS's three convolutions as (out channels, taps, positions) per
    // sample, and its wide dense layer as (batch, in, out) per batch.
    for (m, k, n) in [
        (16usize, 27usize, 1024usize),
        (32, 144, 256),
        (64, 288, 64),
        (32, 1024, 128),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        // The same buffers read as A·B, A·Bᵀ (B stored n×k) and Aᵀ·B (A
        // stored k×m), with the accumulator start each form had as a loop.
        let forms = [
            ("nn", Mat::new(&a, m, k), Mat::new(&b, k, n), Acc::FromC),
            (
                "nt",
                Mat::new(&a, m, k),
                Mat::new(&b, n, k).t(),
                Acc::FromZero,
            ),
            ("tn", Mat::new(&a, k, m).t(), Mat::new(&b, k, n), Acc::FromC),
        ];
        let mut c = vec![0.0f32; m * n];
        for (form, a, b, acc) in forms {
            let secs = median_s(41, || {
                g.mul(black_box(a), black_box(b), &mut c, acc);
                black_box(&mut c);
            });
            let gmac = (m * k * n) as f64 / secs / 1e9;
            println!("{m}\t{k}\t{n}\t{form}\t{:.1}\t{gmac:.2}", secs * 1e6);
        }
    }

    println!();
    print_header(
        "dnn: one training epoch (192 samples, batch 32) and one evaluation (256), CIFAR-like",
        &["arch", "train_samples_s", "eval_samples_s"],
    );
    let (train, test) = DatasetKind::Cifar10Like.generate(192, 256, 7);
    for arch in ModelArch::all() {
        let mut net = arch.build(3, 32, 10, 1);
        let mut rng = SplitMix64::new(2);
        // `median_s`'s warm-up epoch sizes every scratch buffer.
        let train_s = median_s(3, || net.train_epoch(&train, 32, 0.01, 0.9, &mut rng));
        let eval_s = median_s(3, || net.evaluate(&test));
        println!(
            "{arch:?}\t{:.0}\t{:.0}",
            train.n as f64 / train_s,
            test.n as f64 / eval_s
        );
    }
}
