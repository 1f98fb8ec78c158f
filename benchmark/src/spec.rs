//! The benchmark's vocabulary: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root states the same
//! tables for the driver; a self-test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Thread inventory, recorded with every result.
    pub threads: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression. Per-layer metrics carry none.
    pub bound: Option<f64>,
}

/// How long one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "codec_resnet50_e2",
        why: "full-size ResNet50 (94 MB) at the paper's rel 1e-2 sweet spot: simd, eblc, entropy, lossless and core do all the work, fl and dnn none",
        threads: "1 busy: the driver (vendor/rayon runs par_iter serially)",
    },
    WorkloadSpec {
        name: "codec_mobilenet_e4",
        why: "same codec layers used differently: tight rel 1e-4 bound (escape-heavy quantiser, wide Huffman alphabet) and 300+ small tensors, so framing and blosc-lz dominate",
        threads: "1 busy: the driver",
    },
    WorkloadSpec {
        name: "server_ingest",
        why: "server-bound round without training or sockets: wire decode, budget ledger, ingest pool, validation and the exact fold, which is the expected bottleneck",
        threads: "2 busy: the driver (wire decode, fold) and 1 ingest worker (decompress, validate)",
    },
    WorkloadSpec {
        name: "fl_train_channel",
        why: "paper-shaped cross-silo rounds over the channel engine: local training is over 90% of the round, so codec and server changes must show no change here",
        threads: "2 busy while training (one per client); server collector and 1 ingest worker run while the clients wait",
    },
    WorkloadSpec {
        name: "fl_comm_tcp",
        why: "negligible training over loopback TCP: broadcast, frame and CRC, sockets, ingest, fold, evaluate and checkpoint set the round time",
        threads: "2 client threads, server collector, 2 socket readers, 1 ingest worker; at most 2 busy at once",
    },
    WorkloadSpec {
        name: "fl_robust_inproc",
        why: "serial in-process engine with the buffered clipped-mean fold over 8 clients: the robust path through fl::aggregate that a faster Mean fold must not slow",
        threads: "1 busy: the driver; 1 ingest worker overlaps decode",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these, measured with tracing off.
///
/// The bounds are set by what the 2-vCPU bench box can resolve, not by what
/// one would like to catch: it runs in phases, tens of seconds long, that
/// differ by 15-20% in speed, so ten-second runs of one commit spread by
/// 5-15% between their quartiles whatever statistic they report. Sizes
/// repeat exactly for a seed; their bound covers the spread across seeds.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compress_mb_s", "MB/s", Higher, 0.25),
    e2e("decompress_mb_s", "MB/s", Higher, 0.25),
    e2e("compression_ratio", "x", Higher, 0.08),
    e2e("uplink_time_100mbps_s", "s", Lower, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("round_s", "s", Lower, 0.25),
    e2e("uplink_bytes_per_round", "B", Lower, 0.08),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer numbers from the traced run; names are `<module>.<metric>`.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("simd.quantize_mb_s", "MB/s", Higher),
    layer("simd.reconstruct_mb_s", "MB/s", Higher),
    layer("simd.shuffle_mb_s", "MB/s", Higher),
    layer("simd.unshuffle_mb_s", "MB/s", Higher),
    layer("eblc.sz2_compress_s", "s", Lower),
    layer("eblc.sz2_decompress_s", "s", Lower),
    layer("eblc.sz2_ratio", "x", Higher),
    layer("eblc.max_err_over_bound", "x", Lower),
    layer("entropy.huffman_encode_msym_s", "Msym/s", Higher),
    layer("entropy.huffman_decode_msym_s", "Msym/s", Higher),
    layer("entropy.crc32_mb_s", "MB/s", Higher),
    layer("lossless.blosclz_compress_mb_s", "MB/s", Higher),
    layer("lossless.blosclz_decompress_mb_s", "MB/s", Higher),
    layer("lossless.blosclz_ratio", "x", Higher),
    layer("core.compress_s", "s", Lower),
    layer("core.decompress_s", "s", Lower),
    layer("core.lossy_bytes_share", "share", Higher),
    layer("core.tensors_per_op", "count", Lower),
    layer("core.compress_unattributed_s", "s", Lower),
    layer("core.decompress_unattributed_s", "s", Lower),
    layer("netsim.crossover_mbps", "Mbps", Higher),
    layer("fl.wire.encode_mb_s", "MB/s", Higher),
    layer("fl.wire.decode_mb_s", "MB/s", Higher),
    layer("fl.wire.frame_overhead_bytes", "B", Lower),
    layer("fl.net.loopback_frame_mb_s", "MB/s", Higher),
    layer("fl.net.loopback_rtt_us", "us", Lower),
    layer("fl.budget.reserve_wait_s", "s", Lower),
    layer("fl.budget.peak_in_use_bytes", "B", Lower),
    layer("fl.ingest.decode_s", "s", Lower),
    layer("fl.ingest.validate_s", "s", Lower),
    layer("fl.ingest.recv_wait_s", "s", Lower),
    layer("fl.ingest.accept_ratio", "share", Higher),
    layer("fl.aggregate.new_s", "s", Lower),
    layer("fl.aggregate.fold_s", "s", Lower),
    layer("fl.aggregate.fold_melem_s", "Melem/s", Higher),
    layer("fl.aggregate.finish_s", "s", Lower),
    layer("fl.aggregate.accumulator_bytes", "B", Lower),
    layer("fl.checkpoint.encode_s", "s", Lower),
    layer("fl.checkpoint.save_s", "s", Lower),
    layer("fl.checkpoint.load_s", "s", Lower),
    layer("fl.checkpoint.bytes", "B", Lower),
    layer("fl.round.train_s", "s", Lower),
    layer("fl.round.compress_s", "s", Lower),
    layer("fl.round.decompress_s", "s", Lower),
    layer("fl.round.codec_share", "share", Lower),
    layer("fl.round.other_s", "s", Lower),
    layer("fl.round.faults_total", "count", Lower),
    layer("fl.round.final_accuracy", "fraction", Higher),
    layer("fl.round.downlink_bytes_per_round", "B", Lower),
    layer("dnn.train_samples_s", "1/s", Higher),
    layer("dnn.eval_samples_s", "1/s", Higher),
    layer("bench.trace_overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    /// Names are restricted to letters, digits, `_`, `.` and `-`, start with a
    /// letter or digit and are at most 64 long — what the driver accepts.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// Units: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_use_the_restricted_alphabet_and_are_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(m.unit), "{} has unit {:?}", m.name, m.unit);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(
            !valid_name("has space")
                && !valid_name("")
                && !valid_name(".dot")
                && !valid_name("a/b")
        );
        assert!(!valid_unit("MB per s") && valid_unit("MB/s") && valid_unit("%"));
    }

    #[test]
    fn end_to_end_metrics_carry_bounds_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(
                bound > 0.0 && bound <= 0.25 && bound <= setup.bound.unwrap(),
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    fn metric_rows(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    /// The driver reads `BENCHMARK.json`; the program prints from the tables
    /// above. They must say the same thing.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                assert_eq!(
                    w.as_obj().unwrap().len(),
                    2,
                    "a workload has exactly name and why"
                );
                let text = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_string();
                (text("name"), text("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let table = |specs: &[MetricSpec]| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(metric_rows(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(metric_rows(&doc, "per_layer"), table(PER_LAYER));

        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(seconds, DEFAULT_SECONDS);
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(
            doc.get("paths").and_then(Value::as_arr).unwrap(),
            [Value::str("benchmark")]
        );
    }
}
