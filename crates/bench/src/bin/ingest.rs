//! Round-throughput benchmark for the server-side ingest pipeline: how fast
//! can the server decompress + validate a full round of uplink payloads,
//! serial vs. the parallel `IngestPool`, across a clients × model-size grid?
//!
//! Each grid cell synthesizes a global model, compresses one distinct update
//! per client (outside the timed section), then times submit-and-drain
//! through an [`IngestPool`] for worker counts {0 = serial, 1, 2, 4, 8,
//! available cores}. The median of `--reps` repetitions is reported; the
//! pool is created once per worker count and reused across reps, matching
//! how the server reuses it across rounds.
//!
//! A second, micro tier times the dispatched codec kernels themselves —
//! quantize / dequantize / shuffle / unshuffle / predict — in MB/s at every
//! dispatch level the host supports, so the SIMD speedup is visible in
//! isolation from pool scheduling.
//!
//! Results go to stdout as a text table and to `--out` (default
//! `BENCH_ingest.json`) as machine-readable JSON, including the host's
//! `available_parallelism` and detected SIMD level — speedups above 1 are
//! only physically possible on a multi-core host, so consumers must read
//! those fields before judging the numbers.
//!
//! Run: `cargo run -p fedsz-bench --release --bin ingest [--smoke] [--reps N]
//!       [--out BENCH_ingest.json]`

use std::sync::Arc;

use fedsz::{CompressedUpdate, FedSzConfig};
use fedsz_bench::{median_s, print_header, synth_update, Args};
use fedsz_fl::ingest::{self, IngestPool, Job, Verdict};
use fedsz_tensor::{SplitMix64, StateDict};

/// One grid cell: a round's worth of payloads against one global model.
struct Cell {
    global: Arc<StateDict>,
    /// One pre-compressed update per client (cloned into each rep).
    payloads: Vec<CompressedUpdate>,
}

fn build_cell(clients: usize, params: usize) -> Cell {
    let global = Arc::new(synth_update(params, 0));
    let cfg = FedSzConfig::with_rel_bound(1e-2);
    // Distinct per-client payloads so workers decode different bytes, as on
    // a real server. Each client's "update" is a reseeded model of the same
    // shape, which validates cleanly against the global.
    let payloads = (0..clients)
        .map(|c| fedsz::compress(&synth_update(params, c as u64 + 1), &cfg))
        .collect();
    Cell { global, payloads }
}

/// Submit every payload and drain every outcome once.
fn run_round(pool: &mut IngestPool, cell: &Cell) {
    for (i, payload) in cell.payloads.iter().enumerate() {
        pool.submit(Job {
            seq: i as u64,
            client_id: i,
            payload: payload.clone(),
            samples: 10,
            train_s: 0.0,
            compress_s: 0.0,
            raw_bytes: 0,
            wire_bytes: payload.nbytes(),
            reserved: 0,
            global: Arc::clone(&cell.global),
        });
    }
    for _ in 0..cell.payloads.len() {
        let out = pool.recv();
        assert!(
            matches!(out.verdict, Verdict::Accept(_)),
            "benchmark payload must ingest cleanly (seq {})",
            out.seq
        );
    }
}

struct Measurement {
    workers: usize,
    seconds: f64,
}

/// One micro-tier row: a dispatched kernel's throughput at one level.
struct Micro {
    kernel: &'static str,
    level: &'static str,
    mb_per_s: f64,
}

/// Time the five hot-path kernels at every available dispatch level over a
/// buffer of `elems` f32 values (shuffle works on its byte image). MB/s is
/// input bytes over the median of `reps` passes.
fn measure_micro(elems: usize, reps: usize) -> Vec<Micro> {
    use std::hint::black_box;

    let mut rng = SplitMix64::new(0xC0FFEE);
    let values: Vec<f32> = (0..elems)
        .map(|_| rng.normal_with(0.0, 0.05) as f32)
        .collect();
    // Lorenzo-style predictions: small residuals, as on a real update.
    let mut preds = vec![0.0f32; elems];
    preds[1..].copy_from_slice(&values[..elems - 1]);
    let p = fedsz_simd::QuantParams {
        abs_eb: 1e-3,
        bin: 2e-3,
        radius: 32768.0,
    };
    let mut codes = vec![0u32; elems];
    let mut recons = vec![0.0f32; elems];
    let shuf_src: Vec<u8> = (0..elems * 4).map(|i| (i * 131 % 251) as u8).collect();
    let mut shuf_dst = vec![0u8; elems * 4];
    let mut pred_out = vec![0.0f32; elems / 2];
    let f32_mb = (elems * 4) as f64 / 1e6;
    let pred_mb = (pred_out.len() * 4) as f64 / 1e6;

    let mut out = Vec::new();
    for level in fedsz_simd::available_levels() {
        let mut row = |kernel, mb: f64, secs: f64| {
            out.push(Micro {
                kernel,
                level: level.name(),
                mb_per_s: mb / secs,
            });
        };
        let secs = median_s(reps, || {
            let values = black_box(&values);
            fedsz_simd::quantize_at(level, values, &preds, p, &mut codes, &mut recons);
        });
        row("quantize", f32_mb, secs);
        let secs = median_s(reps, || {
            fedsz_simd::reconstruct_at(level, &preds, black_box(&codes), p, &mut recons);
        });
        row("dequantize", f32_mb, secs);
        let secs = median_s(reps, || {
            fedsz_simd::shuffle4_into_at(level, black_box(&shuf_src), &mut shuf_dst);
        });
        row("shuffle", f32_mb, secs);
        let secs = median_s(reps, || {
            fedsz_simd::unshuffle4_into_at(level, black_box(&shuf_src), &mut shuf_dst);
        });
        row("unshuffle", f32_mb, secs);
        let secs = median_s(reps, || {
            fedsz_simd::midpoint_preds_at(level, black_box(&values), &mut pred_out);
        });
        row("predict", pred_mb, secs);
    }
    out
}

fn measure_cell(cell: &Cell, worker_counts: &[usize], reps: usize) -> Vec<Measurement> {
    worker_counts
        .iter()
        .map(|&workers| {
            let mut pool = IngestPool::new(workers, cell.payloads.len());
            // `median_s`'s untimed warm-up round fills caches and parks the
            // workers on their channels before measurement starts.
            Measurement {
                workers,
                seconds: median_s(reps, || run_round(&mut pool, cell)),
            }
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("--smoke");
    let reps: usize = args.value("--reps", if smoke { 2 } else { 5 });
    let out: String = args.value("--out", "BENCH_ingest.json".to_string());
    args.finish();
    let cores = ingest::default_workers();
    let simd_level = fedsz_simd::detected_level().name();

    let (client_counts, param_counts): (Vec<usize>, Vec<usize>) = if smoke {
        (vec![4], vec![16_384])
    } else {
        (vec![4, 16, 64], vec![262_144, 2_097_152])
    };
    let mut worker_counts: Vec<usize> = vec![0, 1, 2, 4, 8, cores];
    worker_counts.sort_unstable();
    worker_counts.dedup();

    println!(
        "# ingest throughput: serial vs parallel IngestPool ({cores} cores available, simd {simd_level}, median of {reps})"
    );
    print_header(
        "round ingest wall time per worker count",
        &[
            "clients",
            "params",
            "payload_kB",
            "workers",
            "seconds",
            "speedup_vs_serial",
        ],
    );

    let mut cells_json = Vec::new();
    for &params in &param_counts {
        for &clients in &client_counts {
            let cell = build_cell(clients, params);
            let payload_bytes = cell.payloads[0].nbytes();
            let results = measure_cell(&cell, &worker_counts, reps);
            let serial_s = results
                .iter()
                .find(|m| m.workers == 0)
                .expect("serial baseline measured")
                .seconds;

            let mut rows_json = Vec::new();
            for m in &results {
                let speedup = serial_s / m.seconds;
                println!(
                    "{clients}\t{params}\t{:.1}\t{}\t{:.4}\t{:.2}",
                    payload_bytes as f64 / 1e3,
                    m.workers,
                    m.seconds,
                    speedup
                );
                rows_json.push(format!(
                    "{{\"workers\": {}, \"seconds\": {:.6}, \"speedup_vs_serial\": {:.4}}}",
                    m.workers, m.seconds, speedup
                ));
            }
            cells_json.push(format!(
                "    {{\"clients\": {clients}, \"params\": {params}, \"payload_bytes\": {payload_bytes}, \"serial_seconds\": {serial_s:.6}, \"runs\": [{}]}}",
                rows_json.join(", ")
            ));
        }
    }

    let micro_elems = if smoke { 1 << 16 } else { 1 << 21 };
    let micro = measure_micro(micro_elems, reps.max(3));
    print_header(
        "per-kernel dispatch throughput",
        &["kernel", "level", "MB_per_s"],
    );
    let mut micro_json = Vec::new();
    for m in &micro {
        println!("{}\t{}\t{:.1}", m.kernel, m.level, m.mb_per_s);
        micro_json.push(format!(
            "    {{\"kernel\": \"{}\", \"level\": \"{}\", \"mb_per_s\": {:.1}}}",
            m.kernel, m.level, m.mb_per_s
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"ingest\",\n  \"available_parallelism\": {cores},\n  \"simd_level\": \"{simd_level}\",\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \"cells\": [\n{}\n  ],\n  \"micro\": [\n{}\n  ]\n}}\n",
        cells_json.join(",\n"),
        micro_json.join(",\n")
    );
    std::fs::write(&out, &json).expect("write benchmark JSON");
    println!("\nwrote {out}");
}
