//! Figure 10: distribution of FedSZ compression errors at different error
//! bounds, with Laplace MLE fits and Kolmogorov–Smirnov distances (the
//! differential-privacy observation of §VII-D).
//!
//! Run: `cargo run -p fedsz-bench --release --bin fig10`

use fedsz::{
    compress, compression_errors, decompress, error_histogram, ks_distance, laplace_fit,
    FedSzConfig,
};
use fedsz_bench::{print_header, Args};
use fedsz_models::ModelKind;

const BINS: usize = 61;

fn main() {
    let args = Args::parse();
    let bounds: Vec<f64> = if args.flag("--fast") {
        vec![1e-2]
    } else {
        vec![1e-2, 1e-3, 1e-4]
    };
    args.finish();

    let sd = ModelKind::MobileNetV2.synthesize(10, 41);

    print_header(
        "Figure 10: FedSZ error distributions vs Laplace fits (MobileNetV2)",
        &[
            "rel_bound",
            "samples",
            "laplace_mu",
            "laplace_b",
            "ks_distance",
        ],
    );
    let mut panels = Vec::new();
    for &rel in &bounds {
        let cfg = FedSzConfig::with_rel_bound(rel);
        let back = decompress(&compress(&sd, &cfg)).expect("round trip");
        let errors = compression_errors(&sd, &back, cfg.threshold);
        let fit = laplace_fit(&errors);
        let ks = ks_distance(&errors, &fit);
        println!(
            "{rel:.0e}\t{}\t{:.3e}\t{:.3e}\t{:.4}",
            errors.len(),
            fit.mu,
            fit.b,
            ks
        );
        let limit = 6.0 * fit.b.max(1e-12);
        panels.push((rel, error_histogram(&errors, limit, BINS), fit, limit));
    }

    for (rel, hist, fit, limit) in &panels {
        println!();
        println!(
            "# histogram rel={rel:.0e} over [{:-.3e}, {:+.3e}]",
            -limit, limit
        );
        println!("error\tempirical_density\tlaplace_density");
        for i in 0..BINS {
            let x = hist.bin_center(i);
            println!("{x:.4e}\t{:.4}\t{:.4}", hist.density(i), fit.pdf(x));
        }
    }
}
