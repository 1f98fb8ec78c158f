//! Figure 8: communication time for transmitting AlexNet over a variable
//! network, per compressor, with the Eqn.-1 crossover bandwidths.
//!
//! The paper finds compression worthwhile below ~500 Mbps, with SZ2 optimal
//! up to ~100 Mbps on a Raspberry Pi 5. Absolute crossovers depend on codec
//! speed on this machine; the *shape* (every EBLC beats raw transfer at
//! edge bandwidths, raw wins in the datacenter) is the reproduced result.
//!
//! Run: `cargo run -p fedsz-bench --release --bin fig8 [--rel 1e-2]`

use fedsz::LossyKind;
use fedsz_bench::{lossy_partition_values, print_header, time, Args};
use fedsz_eblc::ErrorBound;
use fedsz_models::ModelKind;
use fedsz_netsim::{breakeven, Bandwidth};

const BANDWIDTHS_MBPS: [f64; 9] = [
    1.0, 10.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0, 10000.0,
];

fn main() {
    let args = Args::parse();
    let rel: f64 = args.value("--rel", 1e-2);
    args.finish();

    let sd = ModelKind::AlexNet.synthesize(10, 23);
    let values = lossy_partition_values(&sd, fedsz::DEFAULT_THRESHOLD);
    let raw_bytes = values.len() * 4;

    struct Row {
        name: &'static str,
        compress_s: f64,
        decompress_s: f64,
        bytes: usize,
    }
    let mut rows = vec![Row {
        name: "uncompressed",
        compress_s: 0.0,
        decompress_s: 0.0,
        bytes: raw_bytes,
    }];
    for comp in LossyKind::table1() {
        let (compressed, compress_s) = time(|| comp.compress(&values, ErrorBound::Rel(rel)));
        let (decoded, decompress_s) = time(|| comp.decompress(&compressed).expect("round trip"));
        assert_eq!(decoded.len(), values.len());
        rows.push(Row {
            name: comp.name(),
            compress_s,
            decompress_s,
            bytes: compressed.len(),
        });
    }

    print_header(
        &format!("Figure 8: AlexNet communication time vs bandwidth (rel {rel:.0e})"),
        &["bandwidth_mbps"],
    );
    println!(
        "bandwidth_mbps\t{}",
        rows.iter().map(|r| r.name).collect::<Vec<_>>().join("\t")
    );
    for &mbps in &BANDWIDTHS_MBPS {
        let bw = Bandwidth::mbps(mbps);
        let cells: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{:.2}",
                    breakeven::total_time_compressed(r.compress_s, r.decompress_s, r.bytes, bw)
                )
            })
            .collect();
        println!("{mbps}\t{}", cells.join("\t"));
    }

    println!();
    println!("# Eqn-1 crossover bandwidth per compressor (compression wins below)");
    for r in rows.iter().skip(1) {
        match breakeven::crossover_bandwidth(r.compress_s, r.decompress_s, raw_bytes, r.bytes) {
            Some(b) => println!("{}\t{:.0} Mbps", r.name, b.bits_per_second() / 1e6),
            None => println!("{}\tnever worthwhile", r.name),
        }
    }
}
