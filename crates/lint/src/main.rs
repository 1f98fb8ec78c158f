//! fedsz-lint CLI.
//!
//! ```text
//! fedsz-lint --workspace [--json] [--root <dir>]
//! fedsz-lint [--json] <file-or-dir>...
//! ```
//!
//! Exit codes: 0 clean (warnings allowed), 1 error-severity findings,
//! 2 usage or I/O failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fedsz_lint::{
    collect_workspace_files, has_errors, lint_files, to_github, to_json, Config, Severity,
};

const USAGE: &str = "usage: fedsz-lint [--workspace] [--format <fmt>] [--root <dir>] [paths...]

  --workspace     lint every production .rs file under the workspace root;
                  only this mode runs dead-pub, which also reads the tests,
                  benches, examples and the benchmark
  --format <fmt>  output format: text (default), json, or github
                  (GitHub Actions ::error/::warning annotations)
  --json          shorthand for --format json
  --root <dir>    workspace root (default: nearest ancestor with [workspace])
  paths           individual files or directories to lint instead";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut format = Format::Text;
    let mut root_arg: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => format = Format::Json,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    let got = other.unwrap_or("nothing");
                    eprintln!("fedsz-lint: --format expects text|json|github, got {got}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("fedsz-lint: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("fedsz-lint: unknown flag `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if !workspace && paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let cfg = Config::default();
    let [files, refs]: [Vec<(String, PathBuf)>; 2] = if workspace {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = match root_arg.or_else(|| find_workspace_root(&cwd)) {
            Some(r) => r,
            None => {
                eprintln!("fedsz-lint: no workspace root found (pass --root)");
                return ExitCode::from(2);
            }
        };
        collect_workspace_files(&root)
    } else {
        let mut out = Vec::new();
        for p in &paths {
            if p.is_dir() {
                // Reuse the workspace walker's skip rules inside a directory.
                for (rel, abs) in collect_dir(p) {
                    out.push((rel, abs));
                }
            } else {
                out.push((p.to_string_lossy().replace('\\', "/"), p.clone()));
            }
        }
        [out, Vec::new()]
    };

    let diags = lint_files(&files, &refs, &cfg);
    match format {
        Format::Json => println!("{}", to_json(&diags)),
        Format::Github => print!("{}", to_github(&diags)),
        Format::Text => {
            for d in &diags {
                println!("{d}");
            }
        }
    }
    if format != Format::Json {
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = diags.len() - errors;
        println!(
            "fedsz-lint: {} file(s), {} error(s), {} warning(s)",
            files.len(),
            errors,
            warnings
        );
    }
    if has_errors(&diags) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Walk a directory given on the command line (keeps display paths as
/// given, not workspace-relative).
fn collect_dir(dir: &Path) -> Vec<(String, PathBuf)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if matches!(name, "target" | ".git") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push((path.to_string_lossy().replace('\\', "/"), path));
            }
        }
    }
    files.sort();
    files
}
