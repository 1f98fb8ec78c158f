//! Figure 9: strong and weak scaling at 10 Mbps, with and without FedSZ,
//! for MobileNetV2 on CIFAR-10.
//!
//! Per-client codec times and update sizes are *measured* on the full-scale
//! synthesized MobileNetV2 state dict; the per-round local-training time is
//! a parameter (`--train-s`, default 5 s — the cluster-dependent quantity
//! the paper never reports). Round times follow the serialized-server MPI
//! model in `fedsz-netsim::scaling`.
//!
//! Run: `cargo run -p fedsz-bench --release --bin fig9 [--train-s 5]`

use fedsz::{compress_with_stats, decompress_with_stats, FedSzConfig};
use fedsz_bench::{print_header, Args};
use fedsz_models::ModelKind;
use fedsz_netsim::scaling::{
    strong_round_time, strong_speedup, weak_round_time, weak_speedup, ClientCosts,
};
use fedsz_netsim::Bandwidth;

const PROCS: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];
const STRONG_CLIENTS: usize = 127;

fn main() {
    let args = Args::parse();
    let train_s: f64 = args.value("--train-s", 5.0);
    let mbps: f64 = args.value("--mbps", 10.0);
    args.finish();
    let bw = Bandwidth::mbps(mbps);

    // Measure FedSZ costs on the real-size MobileNetV2 state dict.
    let sd = ModelKind::MobileNetV2.synthesize(10, 31);
    let cfg = FedSzConfig::with_rel_bound(1e-2);
    let (update, stats) = compress_with_stats(&sd, &cfg);
    let (_, decompress_s) = decompress_with_stats(&update).expect("round trip");

    let fedsz = ClientCosts {
        train_s,
        compress_s: stats.compress_seconds,
        decompress_s,
        update_bytes: update.nbytes(),
    };
    let raw = ClientCosts::uncompressed(train_s, sd.nbytes());
    println!(
        "# MobileNetV2 update: {:.2} MB raw, {:.2} MB FedSZ (ratio {:.2}); codec {:.3}+{:.3}s; train {train_s}s; {mbps} Mbps",
        sd.nbytes() as f64 / 1e6,
        update.nbytes() as f64 / 1e6,
        stats.compression_ratio(),
        stats.compress_seconds,
        decompress_s
    );

    print_header(
        "Figure 9(a): weak scaling (1 client per process)",
        &[
            "procs",
            "round_s_fedsz",
            "round_s_raw",
            "speedup_fedsz",
            "speedup_raw",
        ],
    );
    for &p in &PROCS {
        println!(
            "{p}\t{:.1}\t{:.1}\t{:.2}\t{:.2}",
            weak_round_time(&fedsz, p, bw),
            weak_round_time(&raw, p, bw),
            weak_speedup(&fedsz, p, bw),
            weak_speedup(&raw, p, bw),
        );
    }

    println!();
    print_header(
        &format!("Figure 9(b): strong scaling ({STRONG_CLIENTS} clients)"),
        &[
            "procs",
            "round_s_fedsz",
            "round_s_raw",
            "speedup_fedsz",
            "speedup_raw",
        ],
    );
    for &p in &PROCS {
        println!(
            "{p}\t{:.1}\t{:.1}\t{:.2}\t{:.2}",
            strong_round_time(&fedsz, STRONG_CLIENTS, p, bw),
            strong_round_time(&raw, STRONG_CLIENTS, p, bw),
            strong_speedup(&fedsz, STRONG_CLIENTS, p, bw),
            strong_speedup(&raw, STRONG_CLIENTS, p, bw),
        );
    }
}
