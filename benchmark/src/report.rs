//! Turning a [`Report`] into what leaves the process: the one-line result
//! the driver reads, the detail record `--all` collects, and the table a
//! person reads.

use std::process::Command;

use crate::json::Value;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::totals_by_name;
use crate::workloads::Report;

fn lookup(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// `{"name": {"value": v, "unit": u}, ...}` for every metric of `specs`, or
/// the names that are missing or not finite.
fn metrics_object(specs: &[MetricSpec], values: &[(&'static str, f64)]) -> Result<Value, String> {
    let mut fields = Vec::new();
    let mut bad = Vec::new();
    for m in specs {
        match lookup(values, m.name) {
            Some(v) if v.is_finite() => fields.push((
                m.name.to_string(),
                Value::obj([("value", Value::Num(v)), ("unit", Value::str(m.unit))]),
            )),
            _ => bad.push(m.name),
        }
    }
    if bad.is_empty() {
        Ok(Value::Obj(fields))
    } else {
        Err(format!("metrics missing or not finite: {}", bad.join(", ")))
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one. `Err` when a metric could not be
/// reported; no result line is printed then.
pub fn result_line(report: &Report, traced: bool) -> Result<String, String> {
    let metrics = if traced {
        metrics_object(PER_LAYER, &report.per_layer)?
    } else {
        metrics_object(END_TO_END, &report.end_to_end)?
    };
    Ok(Value::obj([
        ("correct", Value::Bool(report.checks.failed == 0)),
        ("attempted", Value::Num(report.checks.attempted as f64)),
        ("failed", Value::Num(report.checks.failed as f64)),
        ("metrics", metrics),
    ])
    .render())
}

/// Everything one run measured, for the results file.
pub fn detail(workload: &str, seed: u64, report: &Report) -> Value {
    let plain = |values: &[(&'static str, f64)]| {
        Value::Obj(
            values
                .iter()
                .map(|(n, v)| (n.to_string(), Value::Num(*v)))
                .collect(),
        )
    };
    let spans = totals_by_name(report.tracer.spans())
        .into_iter()
        .map(|(name, (calls, total_s, self_s))| {
            (
                name.to_string(),
                Value::obj([
                    ("calls", Value::Num(calls as f64)),
                    ("total_s", Value::Num(total_s)),
                    ("self_s", Value::Num(self_s)),
                ]),
            )
        })
        .collect();
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        ("ops_attempted", Value::Num(report.checks.attempted as f64)),
        ("ops_failed", Value::Num(report.checks.failed as f64)),
        (
            "failures",
            Value::Arr(report.checks.messages.iter().map(Value::str).collect()),
        ),
        ("end_to_end", plain(&report.end_to_end)),
        ("per_layer", plain(&report.per_layer)),
        (
            "timings",
            Value::Obj(
                report
                    .timings
                    .iter()
                    .map(|(n, xs)| (n.to_string(), Summary::of(xs).to_json()))
                    .collect(),
            ),
        ),
        (
            "samples",
            Value::Obj(
                report
                    .timings
                    .iter()
                    .map(|(n, xs)| {
                        (
                            n.to_string(),
                            Value::Arr(xs.iter().map(|x| Value::Num(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("spans", Value::Obj(spans)),
    ])
}

/// Every metric by name and unit, then the samples behind the timings and,
/// when traced, the layer table with self times.
pub fn print_table(workload: &str, report: &Report) {
    println!("== {workload}");
    println!(
        "ops_attempted {}  ops_failed {}",
        report.checks.attempted, report.checks.failed
    );
    for why in &report.checks.messages {
        println!("  FAILED: {why}");
    }
    let rows = |title: &str, specs: &[MetricSpec], values: &[(&'static str, f64)]| {
        if values.is_empty() {
            return;
        }
        println!("-- {title}");
        for m in specs {
            match lookup(values, m.name) {
                Some(v) => println!("{:<34} {:>16.6} {}", m.name, v, m.unit),
                None => println!("{:<34} {:>16} {}", m.name, "missing", m.unit),
            }
        }
    };
    rows(
        "end-to-end (this run's tracing does not change how they are taken)",
        END_TO_END,
        &report.end_to_end,
    );
    rows("per-layer", PER_LAYER, &report.per_layer);
    println!("-- timing samples: median [q1, q3] min..max (n)");
    for (name, samples) in &report.timings {
        let s = Summary::of(samples);
        let p90 = s.p90.map_or(String::new(), |p| format!(" p90 {p:.6}"));
        println!(
            "{:<34} {:.6} [{:.6}, {:.6}] {:.6}..{:.6} (n={}){p90}",
            name, s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    let spans = totals_by_name(report.tracer.spans());
    if !spans.is_empty() {
        println!("-- spans: calls, total s, self s (total minus child spans)");
        for (name, (calls, total_s, self_s)) in spans {
            println!("{name:<34} {calls:>7} {total_s:>12.6} {self_s:>12.6}");
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers depend on besides the code, recorded with every result.
pub fn environment() -> Value {
    let llc = (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or(Value::Null, |size| Value::str(size.trim()));
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    Value::obj([
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(Value::Null, |n| Value::Num(n.get() as f64)),
        ),
        (
            "simd_active_level",
            Value::str(fedsz_simd::active_level().name()),
        ),
        (
            "fedsz_simd_env_set",
            Value::Bool(std::env::var_os("FEDSZ_SIMD").is_some()),
        ),
        ("llc_size", llc),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::str(command_line(
                "git",
                &["-C", manifest_dir, "rev-parse", "HEAD"],
            )),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::Tracer;
    use crate::workloads::Checks;

    fn report(end_to_end: Vec<(&'static str, f64)>, failed: u64) -> Report {
        Report {
            checks: Checks {
                attempted: 10,
                failed,
                messages: vec![],
            },
            end_to_end,
            per_layer: vec![],
            timings: vec![],
            tracer: Tracer::new(false),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let values: Vec<_> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64))
            .collect();
        let line = result_line(&report(values, 0), false).unwrap();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<_> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert!(line.contains("\"attempted\":10,\"failed\":0"), "{line}");
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let values: Vec<_> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        let doc = json::parse(&result_line(&report(values, 1), false).unwrap()).unwrap();
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn a_missing_or_non_finite_metric_prints_no_result() {
        let mut values: Vec<_> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values[2].1 = f64::NAN;
        values.pop();
        let why = result_line(&report(values, 0), false).unwrap_err();
        assert!(
            why.contains(END_TO_END[2].name) && why.contains(END_TO_END.last().unwrap().name),
            "{why}"
        );
    }
}
