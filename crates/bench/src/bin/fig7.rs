//! Figure 7: total communication time (compress + transfer + decompress)
//! for each model over REL error bounds on a simulated 10 Mbps network,
//! against the uncompressed transfer.
//!
//! Run: `cargo run -p fedsz-bench --release --bin fig7 [--mbps B] [--fast]`

use fedsz::{compress_with_stats, decompress_with_stats, FedSzConfig};
use fedsz_bench::{print_header, Args, TABLE5_BOUNDS};
use fedsz_models::ModelKind;
use fedsz_netsim::Bandwidth;

fn main() {
    let args = Args::parse();
    let mbps: f64 = args.value("--mbps", 10.0);
    let fast = args.flag("--fast");
    args.finish();
    let bw = Bandwidth::mbps(mbps);

    print_header(
        &format!("Figure 7: total communication time @ {mbps} Mbps"),
        &[
            "model",
            "rel_bound",
            "compress_s",
            "decompress_s",
            "transfer_s",
            "total_s",
            "uncompressed_s",
            "speedup",
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
        let sd = model.synthesize(10, 17);
        let raw_s = bw.transfer_seconds(sd.nbytes());
        println!(
            "{}\tnone\t0.000\t0.000\t{raw_s:.2}\t{raw_s:.2}\t{raw_s:.2}\t1.00",
            model.name()
        );
        for &rel in &TABLE5_BOUNDS {
            let cfg = FedSzConfig::with_rel_bound(rel);
            let (update, stats) = compress_with_stats(&sd, &cfg);
            let (_, decompress_s) = decompress_with_stats(&update).expect("round trip");
            let transfer_s = bw.transfer_seconds(update.nbytes());
            let total = stats.compress_seconds + decompress_s + transfer_s;
            println!(
                "{}\t{:.0e}\t{:.3}\t{:.3}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
                model.name(),
                rel,
                stats.compress_seconds,
                decompress_s,
                transfer_s,
                total,
                raw_s,
                raw_s / total,
            );
        }
    }
}
