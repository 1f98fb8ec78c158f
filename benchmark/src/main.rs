//! Command line of the benchmark. See `README.md` beside `Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use fedsz_benchmark::json::{self, Value};
use fedsz_benchmark::spec::{MetricSpec, DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};
use fedsz_benchmark::stats::quartiles;
use fedsz_benchmark::workloads::{self, Options};
use fedsz_benchmark::{compare, report};

const USAGE: &str = "\
usage:
  fedsz-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
      run one workload in this process; the last line of output is the result as one JSON object
  fedsz-benchmark --all [--seed N] [--seconds S] [--repeat N] [--trace 0|1] [--trace-out DIR] [--smoke] [--out FILE]
      run every workload, each run in a child process of its own (seeds N, N+1, ...), print every
      metric and write the results file (default benchmark/out/results.json, traced: results-traced.json)
  fedsz-benchmark --compare A.json B.json
      judge results file B against A per workload and end-to-end metric; exits 1 on any `worse`
  fedsz-benchmark --list
      print the workload and metric names";

/// Failed checks exit 1; a run that could not report (bad usage, missing
/// metric, unreadable file) exits 2 and prints no result line.
const EXIT_FAILED: u8 = 1;
const EXIT_UNUSABLE: u8 = 2;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    repeat: Option<usize>,
    trace: bool,
    trace_out: Option<PathBuf>,
    detail_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--seed" => args.seed = Some(number(flag, value()?)?),
            "--seconds" => args.seconds = Some(number(flag, value()?)?),
            "--repeat" => args.repeat = Some(number(flag, value()?)?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => {
                args.trace_out = Some(value()?.into());
                args.trace = true;
            }
            // Written for `--all`, which collects one per child.
            "--detail-out" => args.detail_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if args.repeat == Some(0) {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

/// `benchmark/out`: beside the manifest `cargo run` is using now, else
/// beside the one this binary was built from.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(name: &str, args: &Args, started: Instant) -> Result<u8, String> {
    let seed = args.seed.unwrap_or(42);
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let opts = Options {
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        smoke: args.smoke,
        trace: args.trace,
        scratch: scratch.clone(),
        started,
    };
    let report = workloads::run(name, &opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let report = report.ok_or_else(|| format!("unknown workload {name:?}; try --list"))?;

    report::print_table(name, &report);
    if let Some(path) = &args.trace_out {
        report
            .tracer
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.detail_out {
        write_file(path, &report::detail(name, seed, &report).render())?;
    }
    println!("{}", report::result_line(&report, args.trace)?);
    Ok(if report.checks.failed == 0 {
        0
    } else {
        EXIT_FAILED
    })
}

/// One metric over the runs of a workload: unit, direction, bound, and the
/// median and quartiles of the per-run values, which are kept too.
fn across_runs(specs: &[MetricSpec], runs: &[Value], key: &str) -> Value {
    let fields = specs.iter().filter_map(|m| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.get(key)?.get(m.name)?.as_f64())
            .collect();
        if values.is_empty() {
            return None;
        }
        let (q1, median, q3) = quartiles(&values);
        let mut entry = vec![
            ("unit".to_string(), Value::str(m.unit)),
            ("better".to_string(), Value::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            entry.push(("bound".to_string(), Value::Num(bound)));
        }
        entry.extend([
            ("median".to_string(), Value::Num(median)),
            ("q1".to_string(), Value::Num(q1)),
            ("q3".to_string(), Value::Num(q3)),
            ("n".to_string(), Value::Num(values.len() as f64)),
            (
                "values".to_string(),
                Value::Arr(values.into_iter().map(Value::Num).collect()),
            ),
        ]);
        Some((m.name.to_string(), Value::Obj(entry)))
    });
    Value::Obj(fields.collect())
}

fn run_all(args: &Args) -> Result<u8, String> {
    let seed = args.seed.unwrap_or(42);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let repeat = args.repeat.unwrap_or(1);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = out_dir();
    let mut any_failed = false;
    let mut workloads = Vec::new();

    for w in WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..repeat as u64 {
            // A process per run, so that peak_rss_mb belongs to one workload.
            let detail_path =
                out.join(format!("detail-{}-{}-{i}.json", std::process::id(), w.name));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name, "--detail-out"])
                .arg(&detail_path)
                .args([
                    "--seed",
                    &(seed + i).to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            if let Some(dir) = &args.trace_out {
                child.arg("--trace-out").arg(dir.join(format!(
                    "{}-seed{}.jsonl",
                    w.name,
                    seed + i
                )));
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", w.name))?;
            any_failed |= !status.success();
            if let Ok(detail) = read_json(&detail_path) {
                runs.push(detail);
            }
            let _ = std::fs::remove_file(&detail_path);
        }
        let sum = |key: &str| {
            runs.iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        workloads.push(Value::obj([
            ("name", Value::str(w.name)),
            ("why", Value::str(w.why)),
            ("threads", Value::str(w.threads)),
            ("ops_attempted", Value::Num(sum("ops_attempted"))),
            ("ops_failed", Value::Num(sum("ops_failed"))),
            ("end_to_end", across_runs(END_TO_END, &runs, "end_to_end")),
            ("per_layer", across_runs(PER_LAYER, &runs, "per_layer")),
            ("runs", Value::Arr(runs)),
        ]));
    }

    println!("\n== all workloads: median over {repeat} run(s) of {seconds} s, first seed {seed}");
    for w in &workloads {
        println!(
            "-- {}",
            w.get("name").and_then(Value::as_str).unwrap_or("?")
        );
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for m in specs {
                if let Some(v) = w
                    .get(key)
                    .and_then(|t| t.get(m.name)?.get("median")?.as_f64())
                {
                    println!("{:<34} {:>16.6} {}", m.name, v, m.unit);
                }
            }
        }
    }

    if args.smoke {
        println!("--smoke: sizes are shrunk, so nothing is recorded");
    } else {
        let results = Value::obj([
            ("schema", Value::str("fedsz-benchmark/1")),
            ("environment", report::environment()),
            ("seed", Value::Num(seed as f64)),
            ("seconds", Value::Num(seconds)),
            ("repeat", Value::Num(repeat as f64)),
            ("traced", Value::Bool(args.trace)),
            ("workloads", Value::Arr(workloads)),
        ]);
        let default_name = if args.trace {
            "results-traced.json"
        } else {
            "results.json"
        };
        let path = args.out.clone().unwrap_or_else(|| out.join(default_name));
        write_file(&path, &results.render_pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(if any_failed { EXIT_FAILED } else { 0 })
}

fn run_compare(a: &Path, b: &Path) -> Result<u8, String> {
    let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
    compare::print(&rows);
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse { EXIT_FAILED } else { 0 })
}

fn list() {
    for w in WORKLOADS {
        println!("workload    {:<34} {}", w.name, w.why);
    }
    for (kind, specs) in [("end-to-end", END_TO_END), ("per-layer ", PER_LAYER)] {
        for m in specs {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {}%", b * 100.0));
            println!(
                "{kind}  {:<34} {:<8} {} is better{bound}",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            run_compare(a, b)
        } else if args.list {
            list();
            Ok(0)
        } else if args.all {
            run_all(&args)
        } else if let Some(name) = &args.workload {
            run_one(name, &args, started)
        } else {
            Err(format!("nothing to do\n{USAGE}"))
        }
    });
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("fedsz-benchmark: {why}");
            ExitCode::from(EXIT_UNUSABLE)
        }
    }
}
