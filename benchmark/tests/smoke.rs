//! One `--smoke` pass of every workload through the real binary: every named
//! metric is present and finite, no op fails, and the result line has the
//! shape the driver reads. Seed 42 runs untraced and seed 43 traced, so the
//! checks are shown not to be tuned to one seed.

use std::process::Command;

use fedsz_benchmark::json::{self, Value};
use fedsz_benchmark::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fedsz-benchmark"))
        .args(args)
        .output()
        .expect("start the benchmark binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn smoke(workload: &str, seed: &str, trace: &str, specs: &[MetricSpec]) {
    let (ok, stdout) = bench(&[
        "--workload",
        workload,
        "--smoke",
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        ok,
        "{workload} seed {seed} trace {trace} exited non-zero:\n{stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    let doc = json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));

    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {last}"
    );
    assert_eq!(
        doc.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: {last}"
    );
    assert!(doc.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

    let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = specs.iter().map(|m| m.name).collect();
    assert_eq!(
        names, expected,
        "{workload}: exactly the named metrics, in order"
    );
    for (m, (_, reported)) in specs.iter().zip(metrics) {
        let value = reported.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {} is {value:?}",
            m.name
        );
        assert_eq!(
            reported.get("unit").and_then(Value::as_str),
            Some(m.unit),
            "{workload}: {}",
            m.name
        );
        if m.bound.is_some() {
            assert!(
                value.unwrap() > 0.0,
                "{workload}: end-to-end {} must never be 0",
                m.name
            );
        }
    }
}

macro_rules! smoke_tests {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            let workload = stringify!($name);
            assert!(WORKLOADS.iter().any(|w| w.name == workload));
            smoke(workload, "42", "0", END_TO_END);
            smoke(workload, "43", "1", PER_LAYER);
        }
    )*};
}

smoke_tests!(
    codec_resnet50_e2,
    codec_mobilenet_e4,
    server_ingest,
    fl_train_channel,
    fl_comm_tcp,
    fl_robust_inproc
);

#[test]
fn the_smoke_tests_cover_every_workload() {
    assert_eq!(WORKLOADS.len(), 6);
}

#[test]
fn an_unknown_workload_exits_non_zero_without_a_result_line() {
    let (ok, stdout) = bench(&[
        "--workload",
        "no_such_workload",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(stdout.lines().all(|l| !l.starts_with('{')), "{stdout}");
}

#[test]
fn list_prints_every_name() {
    let (ok, stdout) = bench(&["--list"]);
    assert!(ok);
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
    {
        assert!(stdout.contains(name), "--list lacks {name}");
    }
}
