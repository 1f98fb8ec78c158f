//! Tier-1 enforcement: the real workspace must lint clean.
//!
//! This is the same walk the `--workspace` CLI flag performs, run as a test
//! so `cargo test` fails the moment production code regresses on any of the
//! panic-freedom / determinism invariants.

use std::path::Path;

use fedsz_lint::{collect_workspace_files, lint_files, Config, Severity};

#[test]
fn workspace_has_no_lint_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let [files, refs] = collect_workspace_files(&root);
    assert!(
        files.len() > 20,
        "workspace walk found only {} files — wrong root?",
        files.len()
    );
    let diags = lint_files(&files, &refs, &Config::default());
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "fedsz-lint errors in production code:\n{}",
        errors.join("\n")
    );
}
