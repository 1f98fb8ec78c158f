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

use fedsz_cli::*;

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
            let lossy = parse_lossy(opts.value("--lossy").unwrap_or("sz2"))?;
            let lossless = parse_lossless(opts.value("--lossless").unwrap_or("blosc-lz"))?;
            let rel: f64 = opts.parsed_or("--rel", 1e-2)?;
            let threshold: usize = opts.parsed_or("--threshold", fedsz::DEFAULT_THRESHOLD)?;
            Box::new(move || cmd_compress(&input, &out, lossy, lossless, rel, threshold))
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
            let defaults = FlOpts::default();
            let rel = if opts.flag("--uncompressed") {
                None
            } else {
                Some(opts.parsed_or("--rel", 1e-2)?)
            };
            let transport = match opts.value("--transport") {
                Some(name) => parse_transport(name)?,
                None => defaults.transport,
            };
            let fl = FlOpts {
                rounds: opts.parsed_or("--rounds", defaults.rounds)?,
                clients: opts.parsed_or("--clients", defaults.clients)?,
                population: opts.parsed_or("--population", defaults.population)?,
                sample_fraction: opts.parsed_or("--sample-fraction", defaults.sample_fraction)?,
                samples: opts.parsed_or("--samples", defaults.samples)?,
                rel,
                transport,
                listen: opts.value("--listen").map(str::to_owned),
                connect: opts.value("--connect").map(str::to_owned),
                client_id: opts.parsed_opt("--client-id")?,
                deadline_ms: opts.parsed_opt("--deadline-ms")?,
                idle_timeout_ms: opts.parsed_opt("--idle-timeout-ms")?,
                min_quorum: opts.parsed_or("--min-quorum", defaults.min_quorum)?,
                retries: opts.parsed_or("--retries", defaults.retries)?,
                seed: opts.parsed_or("--seed", defaults.seed)?,
                checkpoint_dir: opts.value("--checkpoint-dir").map(str::to_owned),
                checkpoint_every: opts.parsed_or("--checkpoint-every", defaults.checkpoint_every)?,
                resume: opts.flag("--resume"),
                ingest_workers: opts.parsed_opt("--ingest-workers")?,
                ingest_budget_bytes: opts.parsed_opt("--ingest-budget-bytes")?,
                min_byte_rate: opts.parsed_or("--min-byte-rate", defaults.min_byte_rate)?,
                aggregation: opts
                    .value("--aggregation")
                    .unwrap_or(&defaults.aggregation)
                    .to_owned(),
                clip_factor: opts.parsed_opt("--clip-factor")?,
                trim_k: opts.parsed_opt("--trim-k")?,
            };
            Box::new(move || cmd_fl(&fl))
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
    }
}
