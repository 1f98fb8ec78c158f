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
//!                       [--backoff-base-ms B] [--backoff-max-ms M]
//!                       [--checkpoint-dir DIR] [--checkpoint-every K] [--resume]
//!                       [--ingest-workers N] [--ingest-budget-bytes B]
//!                       [--min-byte-rate R] [--handshake-timeout-ms H]
//!                       [--aggregation mean|clipped-mean|trimmed-mean]
//!                       [--clip-factor F] [--trim-k K]
//! ```
//!
//! With `--transport tcp` and neither `--listen` nor `--connect`, the server
//! and every client run in this process over loopback.

use std::path::PathBuf;
use std::process::ExitCode;

use fedsz_cli::*;

struct Opts {
    args: Vec<String>,
}

impl Opts {
    fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.value(name)
            .ok_or_else(|| CliError::Usage(format!("missing {name} <value>")))
    }

    fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad value for {name}: {v:?}"))),
        }
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
        self.args.iter().any(|a| a == name)
    }
}

fn dispatch(cmd: &str, opts: &Opts) -> Result<String, CliError> {
    match cmd {
        "synth" => {
            let model = parse_model(opts.required("--model")?)?;
            let classes: usize = opts.parsed_or("--classes", 10)?;
            let seed: u64 = opts.parsed_or("--seed", 42)?;
            let out = PathBuf::from(opts.required("--out")?);
            cmd_synth(model, classes, seed, &out)
        }
        "compress" => {
            let input = PathBuf::from(opts.required("--in")?);
            let out = PathBuf::from(opts.required("--out")?);
            let lossy = parse_lossy(opts.value("--lossy").unwrap_or("sz2"))?;
            let lossless = parse_lossless(opts.value("--lossless").unwrap_or("blosc-lz"))?;
            let rel: f64 = opts.parsed_or("--rel", 1e-2)?;
            let threshold: usize = opts.parsed_or("--threshold", fedsz::DEFAULT_THRESHOLD)?;
            cmd_compress(&input, &out, lossy, lossless, rel, threshold)
        }
        "decompress" => {
            let input = PathBuf::from(opts.required("--in")?);
            let out = PathBuf::from(opts.required("--out")?);
            cmd_decompress(&input, &out)
        }
        "inspect" => {
            let input = PathBuf::from(opts.required("--in")?);
            let threshold: usize = opts.parsed_or("--threshold", fedsz::DEFAULT_THRESHOLD)?;
            cmd_inspect(&input, threshold)
        }
        "verify" => {
            let reference = PathBuf::from(opts.required("--reference")?);
            let input = PathBuf::from(opts.required("--in")?);
            cmd_verify(&reference, &input)
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
                backoff_base_ms: opts.parsed_or("--backoff-base-ms", defaults.backoff_base_ms)?,
                backoff_max_ms: opts.parsed_or("--backoff-max-ms", defaults.backoff_max_ms)?,
                min_quorum: opts.parsed_or("--min-quorum", defaults.min_quorum)?,
                retries: opts.parsed_or("--retries", defaults.retries)?,
                seed: opts.parsed_or("--seed", defaults.seed)?,
                checkpoint_dir: opts.value("--checkpoint-dir").map(str::to_owned),
                checkpoint_every: opts.parsed_or("--checkpoint-every", defaults.checkpoint_every)?,
                resume: opts.flag("--resume"),
                ingest_workers: opts.parsed_opt("--ingest-workers")?,
                ingest_budget_bytes: opts.parsed_opt("--ingest-budget-bytes")?,
                min_byte_rate: opts.parsed_or("--min-byte-rate", defaults.min_byte_rate)?,
                handshake_timeout_ms: opts
                    .parsed_or("--handshake-timeout-ms", defaults.handshake_timeout_ms)?,
                aggregation: opts
                    .value("--aggregation")
                    .unwrap_or(&defaults.aggregation)
                    .to_owned(),
                clip_factor: opts.parsed_opt("--clip-factor")?,
                trim_k: opts.parsed_opt("--trim-k")?,
            };
            cmd_fl(&fl)
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?} (expected synth | compress | decompress | inspect | verify | fl)"
        ))),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: fedsz-tool <synth|compress|decompress|inspect|verify|fl> [options]");
        eprintln!("see the module docs (cargo doc -p fedsz-cli) for the full grammar");
        return ExitCode::from(2);
    };
    let opts = Opts {
        args: args.collect(),
    };
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
