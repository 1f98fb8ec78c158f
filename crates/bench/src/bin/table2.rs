//! Table II: lossless compressor comparison on AlexNet metadata.
//!
//! Compresses the lossless (metadata / non-weight) partition of a
//! synthesized AlexNet state dict with each of the five codecs and reports
//! runtime, throughput, and compression ratio.
//!
//! Run: `cargo run -p fedsz-bench --release --bin table2`

use fedsz::DEFAULT_THRESHOLD;
use fedsz_bench::{metadata_partition_bytes, print_header, time, Args};
use fedsz_lossless::LosslessKind;
use fedsz_models::ModelKind;

fn main() {
    let args = Args::parse();
    let repeats: usize = args.value("--repeats", 5);
    args.finish();

    let sd = ModelKind::AlexNet.synthesize(10, 7);
    let metadata = metadata_partition_bytes(&sd, DEFAULT_THRESHOLD);
    println!(
        "# AlexNet metadata partition: {} bytes ({:.2}% of the state dict)",
        metadata.len(),
        100.0 * metadata.len() as f64 / sd.nbytes() as f64
    );

    print_header(
        "Table II: lossless compressor comparison (AlexNet metadata)",
        &[
            "compressor",
            "runtime_s",
            "throughput_MB_s",
            "compression_ratio",
        ],
    );
    for kind in LosslessKind::all() {
        // Warm up once, then take the best of `repeats` timings (the paper
        // reports single-shot Pi timings; best-of smooths scheduler noise).
        let compressed = kind.compress(&metadata);
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let (_, secs) = time(|| kind.compress(&metadata));
            best = best.min(secs);
        }
        let ratio = metadata.len() as f64 / compressed.len() as f64;
        let throughput = metadata.len() as f64 / 1e6 / best;
        println!(
            "{}\t{:.4}\t{:.1}\t{:.3}",
            kind.name(),
            best,
            throughput,
            ratio
        );
        // Round-trip sanity.
        assert_eq!(kind.decompress(&compressed).unwrap(), metadata);
    }
}
