//! `fedsz-tool` — command-line FedSZ pipeline.
//!
//! ```text
//! fedsz-tool synth      --model alexnet|mobilenetv2|resnet50 [--classes N] [--seed S] --out model.fsd
//! fedsz-tool compress   --in model.fsd --out update.fsz [--lossy sz2] [--lossless blosc-lz]
//!                       [--rel 1e-2] [--threshold 2048]
//! fedsz-tool decompress --in update.fsz --out restored.fsd
//! fedsz-tool inspect    --in update.fsz [--threshold 2048]
//! fedsz-tool verify     --reference model.fsd --in restored.fsd
//! fedsz-tool fl         [--rounds N] [--clients N] [--samples N] [--rel 1e-2 | --uncompressed]
//!                       [--population P] [--sample-fraction F]
//!                       [--transport in-process|threaded|tcp] [--deadline-ms D] [--min-quorum Q]
//!                       [--retries R] [--seed S] [--idle-timeout-ms I]
//!                       [--listen HOST:PORT | --connect HOST:PORT --client-id N]
//!                       [--checkpoint-dir DIR] [--checkpoint-every K] [--resume]
//!                       [--ingest-workers N] [--ingest-budget-bytes B] [--min-byte-rate R]
//!                       [--aggregation mean|clipped-mean|trimmed-mean]
//!                       [--clip-factor F] [--trim-k K]
//! ```
//!
//! With `--transport tcp` and neither `--listen` nor `--connect`, the server
//! and every client run in this process over loopback. An argument the
//! subcommand does not read — a misspelt flag, a repeated one, a flag
//! missing its value — is a usage error.

use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fedsz::{ErrorBound, FedSzConfig};
use fedsz_cli::*;
use fedsz_fl::{FlConfig, NetConfig, RunSpec};

/// The arguments after the subcommand, each marked seen once a lookup
/// reads it (a flag together with its value).
struct Opts(Vec<(String, Cell<bool>)>);

impl Opts {
    fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self(args.into_iter().map(|a| (a, Cell::new(false))).collect())
    }

    /// `name` and the `len - 1` arguments after it, all marked seen; `None`
    /// (nothing marked) when `name` is absent or too close to the end.
    fn read(&self, name: &str, len: usize) -> Option<&[(String, Cell<bool>)]> {
        let i = self.0.iter().position(|(arg, _)| arg == name)?;
        let found = self.0.get(i..i + len)?;
        found.iter().for_each(|(_, seen)| seen.set(true));
        Some(found)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.read(name, 2).map(|found| found[1].0.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.value(name)
            .ok_or_else(|| CliError::Usage(format!("missing {name} <value>")))
    }

    fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.parsed_opt(name)?.unwrap_or(default))
    }

    fn parsed_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("bad value for {name}: {v:?}"))),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.read(name, 1).is_some()
    }

    /// Refuse the first argument no lookup has read.
    fn refuse_unread(&self) -> Result<(), CliError> {
        match self.0.iter().find(|(_, seen)| !seen.get()) {
            Some((arg, _)) => Err(CliError::Usage(format!("unknown argument {arg:?}"))),
            None => Ok(()),
        }
    }
}

/// Read `cmd`'s options into the call that runs it, refuse any argument
/// left unread, and only then run it.
fn dispatch(cmd: &str, opts: &Opts) -> Result<String, CliError> {
    let run: Box<dyn FnOnce() -> Result<String, CliError>> = match cmd {
        "synth" => {
            let model = parse_model(opts.required("--model")?)?;
            let classes: usize = opts.parsed_or("--classes", 10)?;
            let seed: u64 = opts.parsed_or("--seed", 42)?;
            let out = PathBuf::from(opts.required("--out")?);
            Box::new(move || cmd_synth(model, classes, seed, &out))
        }
        "compress" => {
            let input = PathBuf::from(opts.required("--in")?);
            let out = PathBuf::from(opts.required("--out")?);
            let d = FedSzConfig::default();
            let cfg = FedSzConfig {
                lossy: opts.value("--lossy").map_or(Ok(d.lossy), parse_lossy)?,
                lossless: opts.value("--lossless").map_or(Ok(d.lossless), parse_lossless)?,
                error_bound: opts.parsed_opt("--rel")?.map_or(d.error_bound, ErrorBound::Rel),
                threshold: opts.parsed_or("--threshold", d.threshold)?,
            };
            Box::new(move || cmd_compress(&input, &out, &cfg))
        }
        "decompress" => {
            let input = PathBuf::from(opts.required("--in")?);
            let out = PathBuf::from(opts.required("--out")?);
            Box::new(move || cmd_decompress(&input, &out))
        }
        "inspect" => {
            let input = PathBuf::from(opts.required("--in")?);
            let threshold: usize = opts.parsed_or("--threshold", fedsz::DEFAULT_THRESHOLD)?;
            Box::new(move || cmd_inspect(&input, threshold))
        }
        "verify" => {
            let reference = PathBuf::from(opts.required("--reference")?);
            let input = PathBuf::from(opts.required("--in")?);
            Box::new(move || cmd_verify(&reference, &input))
        }
        "fl" => {
            let d = fl_defaults();
            let compression = match (opts.flag("--uncompressed"), opts.parsed_opt("--rel")?) {
                (false, None) => d.compression,
                (false, Some(rel)) => FlConfig::with_fedsz(rel).compression,
                (true, None) => None,
                (true, Some(_)) => {
                    return Err(CliError::Usage(
                        "--uncompressed and --rel are mutually exclusive".into(),
                    ))
                }
            };
            let cfg = FlConfig {
                rounds: opts.parsed_or("--rounds", d.rounds)?,
                n_clients: opts.parsed_or("--clients", d.n_clients)?,
                population: opts.parsed_or("--population", d.population)?,
                sample_fraction: opts.parsed_or("--sample-fraction", d.sample_fraction)?,
                samples_per_client: opts.parsed_or("--samples", d.samples_per_client)?,
                compression,
                seed: opts.parsed_or("--seed", d.seed)?,
                checkpoint_dir: opts.value("--checkpoint-dir").map(PathBuf::from),
                checkpoint_every: opts.parsed_or("--checkpoint-every", d.checkpoint_every)?,
                resume: opts.flag("--resume"),
                ingest_workers: opts.parsed_or("--ingest-workers", d.ingest_workers)?,
                ingest_budget_bytes: opts.parsed_opt("--ingest-budget-bytes")?,
                aggregation: parse_aggregation(
                    opts.value("--aggregation").unwrap_or("mean"),
                    opts.parsed_opt("--clip-factor")?,
                    opts.parsed_opt("--trim-k")?,
                )?,
                ..d
            };
            let r = RunSpec::default();
            let spec = RunSpec {
                transport: opts.value("--transport").map_or(Ok(r.transport), parse_transport)?,
                round_deadline: opts.parsed_opt("--deadline-ms")?.map(Duration::from_millis),
                min_quorum: opts.parsed_or("--min-quorum", r.min_quorum)?,
                max_round_retries: opts.parsed_or("--retries", r.max_round_retries)?,
                client_idle_timeout: opts
                    .parsed_opt("--idle-timeout-ms")?
                    .map(Duration::from_millis),
                net: NetConfig {
                    min_byte_rate: opts.parsed_or("--min-byte-rate", r.net.min_byte_rate)?,
                    ..r.net
                },
                ..r
            };
            let role = parse_role(
                opts.value("--listen"),
                opts.value("--connect"),
                opts.parsed_opt("--client-id")?,
            )?;
            Box::new(move || cmd_fl(&cfg, &spec, &role))
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?} (expected synth | compress | decompress | inspect | verify | fl)"
            )))
        }
    };
    opts.refuse_unread()?;
    run()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: fedsz-tool <synth|compress|decompress|inspect|verify|fl> [options]");
        eprintln!("see the module docs (cargo doc -p fedsz-cli) for the full grammar");
        return ExitCode::from(2);
    };
    let opts = Opts::new(args);
    match dispatch(&cmd, &opts) {
        Ok(message) => {
            println!("{message}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fedsz-tool: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unread_arguments_are_refused_before_anything_runs() {
        let refused =
            |args: &[&str]| match dispatch("fl", &Opts::new(args.iter().map(|a| a.to_string()))) {
                Err(CliError::Usage(m)) => m,
                other => panic!("{args:?}: {other:?}"),
            };
        // Misspelt, removed, missing its value, repeated.
        for args in [
            &["--roudns", "3"][..],
            &["--backoff-base-ms", "10"],
            &["--rounds"],
            &["--seed", "1", "--seed", "2"],
        ] {
            assert_eq!(refused(args), format!("unknown argument {:?}", args[0]));
        }
        // `-0.5` is read as `--rel`'s value, so cmd_fl's own check refuses it.
        assert!(refused(&["--rel", "-0.5"]).contains("must be positive"));
        // Pairings no run can honour, refused naming the flag at fault.
        for (args, flags) in [
            (
                &["--uncompressed", "--rel", "1e-2"][..],
                &["--uncompressed", "--rel"][..],
            ),
            (
                &["--transport", "tcp", "--connect", "127.0.0.1:1"],
                &["--client-id"],
            ),
            (&["--transport", "tcp", "--client-id", "0"], &["--connect"]),
            (
                &[
                    "--transport",
                    "tcp",
                    "--listen",
                    "127.0.0.1:0",
                    "--connect",
                    "127.0.0.1:1",
                ],
                &["--listen", "--connect"],
            ),
        ] {
            let m = refused(args);
            assert!(flags.iter().all(|flag| m.contains(flag)), "{args:?}: {m}");
        }
    }

    #[test]
    fn min_quorum_is_bounded_by_the_cohort_not_the_client_slots() {
        let fl = |quorum: &str| {
            let args = format!(
                "--clients 4 --population 100 --sample-fraction 0.5 --min-quorum {quorum} \
                 --rounds 1 --samples 8 --transport threaded"
            );
            dispatch("fl", &Opts::new(args.split_whitespace().map(String::from)))
        };
        match fl("51") {
            Err(CliError::Usage(m)) => assert!(m.contains("cohort of 50"), "{m}"),
            other => panic!("{other:?}"),
        }
        let report = fl("10").expect("a quorum of 10 fits the cohort of 50");
        assert!(report.contains("50 delivered"), "{report}");
    }
}
