//! The lint engine: file discovery, pragma handling, rule orchestration.
//!
//! The engine runs the per-file rules from [`crate::rules`], applies inline
//! suppression pragmas, then runs the cross-file `error-enum-coverage`,
//! `lock-order` and `dead-pub` audits over the facts every file reported.
//! `dead-pub` also reads the reference files (integration tests, benches,
//! examples, the benchmark): their identifiers count as uses, but no rule
//! runs on them.
//!
//! # Suppression pragmas
//!
//! A finding is suppressed by a *line comment* of the form
//!
//! ```text
//! // fedsz-lint: allow(no-panic-decode) -- reason the invariant holds here
//! ```
//!
//! placed either on the offending line (trailing) or on the line directly
//! above it. Several rules may be listed, comma-separated. The reason after
//! `--` is mandatory: a suppression without a recorded justification is a
//! `bad-pragma` error, as is an unknown rule name. A pragma that suppresses
//! nothing is reported as an `unused-pragma` warning so stale exemptions
//! get cleaned up (warnings do not affect the exit code).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Tok, Token};
use crate::rules::{
    check_dead_pub, check_enum_coverage, check_file, check_lock_order, lib_crate_of, Config,
    LockEdge, BAD_PRAGMA, SUPPRESSIBLE_RULES, UNUSED_PRAGMA,
};

/// One parsed `fedsz-lint: allow(...)` pragma.
struct Pragma {
    line: u32,
    rules: Vec<&'static str>,
    used: bool,
}

/// Scan the token stream for lint pragmas. Malformed pragmas become
/// `bad-pragma` diagnostics (never suppressible — a broken exemption must
/// not silently exempt).
fn parse_pragmas(path: &str, tokens: &[Token]) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let mut pragmas = Vec::new();
    let mut diags = Vec::new();
    for t in tokens {
        let Tok::LineComment(text) = &t.tok else {
            continue;
        };
        // Doc comments (`///`, `//!`) are prose, not pragmas — they may
        // legitimately *describe* the pragma syntax.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(at) = text.find("fedsz-lint:") else {
            continue;
        };
        let directive = text[at + "fedsz-lint:".len()..].trim();
        let bad = |msg: String| Diagnostic {
            file: path.to_owned(),
            line: t.line,
            rule: BAD_PRAGMA,
            severity: Severity::Error,
            message: msg,
        };
        let Some(rest) = directive.strip_prefix("allow(") else {
            diags.push(bad(format!(
                "unrecognized fedsz-lint directive `{directive}`: expected \
                 `allow(<rule>) -- <reason>`"
            )));
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(bad("unclosed `allow(` in fedsz-lint pragma".to_owned()));
            continue;
        };
        let (rule_list, tail) = rest.split_at(close);
        let tail = &tail[1..]; // drop ')'
        let reason = tail.trim_start().strip_prefix("--").map(str::trim);
        if reason.is_none_or(str::is_empty) {
            diags.push(bad(
                "fedsz-lint pragma is missing its justification: write \
                 `allow(<rule>) -- <reason>`"
                    .to_owned(),
            ));
            continue;
        }
        let mut rules = Vec::new();
        let mut ok = true;
        for raw in rule_list.split(',') {
            let name = raw.trim();
            match SUPPRESSIBLE_RULES.iter().find(|r| **r == name) {
                Some(r) => rules.push(*r),
                None => {
                    diags.push(bad(format!(
                        "unknown rule `{name}` in fedsz-lint pragma (known rules: {})",
                        SUPPRESSIBLE_RULES.join(", ")
                    )));
                    ok = false;
                }
            }
        }
        if ok && !rules.is_empty() {
            pragmas.push(Pragma {
                line: t.line,
                rules,
                used: false,
            });
        }
    }
    (pragmas, diags)
}

/// Apply pragmas to `diags`: drop findings a pragma covers (same line or
/// the line below the pragma) and mark those pragmas used.
fn apply_pragmas(pragmas: &mut [Pragma], diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            // Meta-rules are never suppressible.
            if d.rule == BAD_PRAGMA || d.rule == UNUSED_PRAGMA {
                return true;
            }
            let mut suppressed = false;
            for p in pragmas.iter_mut() {
                if (d.line == p.line || d.line == p.line + 1) && p.rules.contains(&d.rule) {
                    p.used = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect()
}

/// R5, R7 and R10 facts pooled across files.
#[derive(Default)]
struct Pool {
    defined: Vec<(String, String, u32, String)>,
    produced: Vec<(String, String, u32, String)>,
    handled: Vec<(String, String)>,
    any_reporter: bool,
    /// `(crate, edge, file)` lock-acquisition edges for the R7 graph.
    lock_edges: Vec<(String, LockEdge, String)>,
    /// `(crate, kind, name, line, file)` `pub` items for R10.
    pub_items: Vec<(String, &'static str, String, u32, String)>,
    /// R10: identifier → the crates naming it ([`lib_crate_of`], or the
    /// path of a binary, test, bench, example or suite file).
    users: BTreeMap<String, BTreeSet<String>>,
}

impl Pool {
    fn add_users(&mut self, path: &str, tokens: &[Token]) {
        for t in tokens {
            if let Tok::Ident(name) = &t.tok {
                let krate = lib_crate_of(path).unwrap_or(path).to_owned();
                self.users.entry(name.clone()).or_default().insert(krate);
            }
        }
    }
}

/// Lint in-memory sources: `(display path, contents)` pairs. `refs` are
/// read for R10 and never linted; R10 runs only when `refs` is non-empty,
/// since without the tests and benches it would call their callees dead.
/// This is the whole engine; the filesystem layer below is a thin wrapper,
/// so tests can drive everything from string fixtures.
pub fn lint_sources(
    sources: &[(String, String)],
    refs: &[(String, String)],
    cfg: &Config,
) -> Vec<Diagnostic> {
    let mut all = Vec::new();
    let mut pool = Pool::default();
    // Pragmas are kept per file so the cross-file R5 findings (anchored at
    // the enum definition) can still be suppressed at that site.
    let mut file_pragmas: Vec<(String, Vec<Pragma>)> = Vec::new();

    for (path, src) in sources {
        let tokens = lex(src);
        let (mut pragmas, mut pragma_diags) = parse_pragmas(path, &tokens);
        let report = check_file(path, &tokens, cfg);
        let kept = apply_pragmas(&mut pragmas, report.diagnostics);
        all.append(&mut pragma_diags);
        all.extend(kept);
        for (e, v, l) in report.enum_facts.defined {
            pool.defined.push((e, v, l, path.clone()));
        }
        for (e, v, l) in report.enum_facts.mentioned {
            if report.is_reporter {
                pool.handled.push((e, v));
            } else {
                pool.produced.push((e, v, l, path.clone()));
            }
        }
        pool.any_reporter |= report.is_reporter;
        // A library's files share one crate; every other file is its own.
        let krate = lib_crate_of(path).unwrap_or(path);
        for e in report.lock_edges {
            pool.lock_edges.push((krate.to_owned(), e, path.clone()));
        }
        for (kind, name, line) in report.pub_items {
            pool.pub_items
                .push((krate.to_owned(), kind, name, line, path.clone()));
        }
        pool.add_users(path, &tokens);
        file_pragmas.push((path.clone(), pragmas));
    }
    for (path, src) in refs {
        pool.add_users(path, &lex(src));
    }

    let mut cross = check_enum_coverage(
        &pool.defined,
        &pool.produced,
        &pool.handled,
        pool.any_reporter,
    );
    cross.extend(check_lock_order(&pool.lock_edges));
    if !refs.is_empty() {
        cross.extend(check_dead_pub(&pool.pub_items, &pool.users));
    }
    for d in cross {
        let suppressed = match file_pragmas.iter_mut().find(|(p, _)| *p == d.file) {
            Some((_, pragmas)) => apply_pragmas(pragmas, vec![d.clone()]).is_empty(),
            None => false,
        };
        if !suppressed {
            all.push(d);
        }
    }

    for (path, pragmas) in &file_pragmas {
        for p in pragmas {
            if !p.used {
                all.push(Diagnostic {
                    file: path.clone(),
                    line: p.line,
                    rule: UNUSED_PRAGMA,
                    severity: Severity::Warning,
                    message: format!(
                        "pragma allows `{}` but suppressed nothing on this or the next \
                         line; remove the stale exemption",
                        p.rules.join(", ")
                    ),
                });
            }
        }
    }

    all.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    // One finding per (file, line, rule): a line with four literal indexes
    // is one problem to fix, not four.
    all.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    all
}

/// Directories never linted: build output, test code (the invariants bind
/// production code; tests exercise hostile inputs *on purpose*), lint
/// fixtures (which are violations by design), and demo examples.
const SKIP_DIRS: &[&str] = &["target", "tests", "benches", "fixtures", "examples", ".git"];

fn walk(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if skip.contains(&name) {
                continue;
            }
            walk(&path, skip, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace rooted at `root` as `(display path, absolute path)` pairs,
/// with forward-slash workspace-relative display paths: every production
/// `.rs` file, then the files R10 reads but nothing lints — each crate's
/// `tests/` and `benches/`, the root `tests/` and `examples/`, and the
/// benchmark.
pub fn collect_workspace_files(root: &Path) -> [Vec<(String, PathBuf)>; 2] {
    let refs = [
        "crates",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ];
    let sets: [(&[&str], &[&str]); 2] = [
        (&["crates", "src_suite"], SKIP_DIRS),
        (&refs, &["target", "fixtures", "src"]),
    ];
    sets.map(|(tops, skip)| {
        let mut files = Vec::new();
        for top in tops {
            walk(&root.join(top), skip, &mut files);
        }
        files
            .into_iter()
            .map(|abs| {
                let rel = abs
                    .strip_prefix(root)
                    .unwrap_or(&abs)
                    .to_string_lossy()
                    .replace('\\', "/");
                (rel, abs)
            })
            .collect()
    })
}

/// Lint files on disk, reading `refs` for R10 as [`lint_sources`] does.
/// Unreadable files produce a diagnostic rather than an abort, so one bad
/// path cannot mask real findings elsewhere.
pub fn lint_files(
    files: &[(String, PathBuf)],
    refs: &[(String, PathBuf)],
    cfg: &Config,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let [sources, refs] = [files, refs].map(|set| {
        let mut sources = Vec::new();
        for (display, abs) in set {
            match fs::read_to_string(abs) {
                Ok(src) => sources.push((display.clone(), src)),
                Err(e) => diags.push(Diagnostic {
                    file: display.clone(),
                    line: 0,
                    rule: "io",
                    severity: Severity::Error,
                    message: format!("cannot read file: {e}"),
                }),
            }
        }
        sources
    });
    diags.extend(lint_sources(&sources, &refs, cfg));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        lint_sources(&sources, &[], &Config::default())
    }

    #[test]
    fn trailing_pragma_suppresses_same_line() {
        let d = run(&[(
            "crates/fl/src/wire.rs",
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // fedsz-lint: allow(no-panic-decode) -- proven Some above\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pragma_on_previous_line_suppresses() {
        let d = run(&[(
            "crates/fl/src/wire.rs",
            "fn f(x: Option<u8>) -> u8 {\n    // fedsz-lint: allow(no-panic-decode) -- proven Some above\n    x.unwrap()\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let d = run(&[(
            "crates/fl/src/wire.rs",
            "// fedsz-lint: allow(no-panic-decode)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )]);
        assert!(d.iter().any(|d| d.rule == BAD_PRAGMA));
        // And it does NOT suppress.
        assert!(d.iter().any(|d| d.rule == "no-panic-decode"));
    }

    #[test]
    fn unknown_rule_in_pragma_is_an_error() {
        let d = run(&[(
            "crates/fl/src/wire.rs",
            "// fedsz-lint: allow(no-such-rule) -- because\nfn f() {}\n",
        )]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, BAD_PRAGMA);
        assert!(d[0].message.contains("no-such-rule"));
    }

    #[test]
    fn unused_pragma_is_a_warning_only() {
        let d = run(&[(
            "crates/fl/src/wire.rs",
            "// fedsz-lint: allow(no-panic-decode) -- nothing here\nfn f() {}\n",
        )]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNUSED_PRAGMA);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn diagnostics_are_sorted_by_file_then_line() {
        let d = run(&[
            (
                "crates/fl/src/wire.rs",
                "fn f(x: Option<u8>) {\n\n    x.unwrap();\n    x.unwrap();\n}\n",
            ),
            (
                "crates/core/src/pipeline.rs",
                "fn g(x: Option<u8>) { x.unwrap(); }\n",
            ),
        ]);
        let keys: Vec<(&str, u32)> = d.iter().map(|d| (d.file.as_str(), d.line)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(d[0].file, "crates/core/src/pipeline.rs");
    }
}
