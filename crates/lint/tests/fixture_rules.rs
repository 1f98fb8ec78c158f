//! Drives the linter over the fixture trees in `tests/fixtures/`.
//!
//! Each fixture set mirrors the real workspace layout (`fl/src/wire.rs`,
//! `cli/src/lib.rs`, ...) so the path-suffix scoping in [`fedsz_lint::Config`]
//! applies to it exactly as it does to production code. Every rule gets a
//! positive hit, a clean pass, and a suppression check.

use std::path::{Path, PathBuf};

use fedsz_lint::{has_errors, lint_files, Config, Diagnostic, Severity};

/// Collect every `.rs` file under `tests/fixtures/<set>/`, keyed by its path
/// relative to the set root (that relative path is what the scoping rules
/// match against).
fn fixture_set(set: &str) -> Vec<(String, PathBuf)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(set);
    let mut out = Vec::new();
    collect(&root, &root, &mut out);
    assert!(!out.is_empty(), "fixture set {set} is empty or missing");
    out.sort();
    out
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) {
    for entry in std::fs::read_dir(dir).expect("fixture dir readable") {
        let path = entry.expect("fixture entry readable").path();
        if path.is_dir() {
            collect(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("fixture under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
}

/// Lint a fixture set the way `--workspace` does: files under a `tests/`,
/// `benches/` or `examples/` directory or the benchmark are only read, for
/// R10's uses.
fn lint_set(set: &str) -> Vec<Diagnostic> {
    let (refs, files): (Vec<_>, Vec<_>) = fixture_set(set).into_iter().partition(|(rel, _)| {
        rel.split('/')
            .any(|s| matches!(s, "tests" | "benches" | "examples" | "benchmark"))
    });
    lint_files(&files, &refs, &Config::default())
}

fn rules_hit(diags: &[Diagnostic]) -> Vec<&str> {
    let mut rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn r1_flags_every_panic_pattern_and_skips_test_code() {
    let diags = lint_set("r1_hits");
    assert!(
        diags.iter().all(|d| d.rule == "no-panic-decode"),
        "only no-panic-decode should fire: {diags:?}"
    );
    // One each: literal index, panic!, unwrap, assert!.
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(
        lines,
        vec![4, 6, 9, 13],
        "hits at the four marked lines: {diags:?}"
    );
    // Nothing from the #[cfg(test)] module (lines 16+).
    assert!(
        diags.iter().all(|d| d.line < 16),
        "test code must be exempt: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags.iter().all(|d| d.file == "fl/src/wire.rs"));
}

#[test]
fn r1_clean_file_passes() {
    let diags = lint_set("r1_clean");
    assert!(
        diags.is_empty(),
        "approved patterns must not fire: {diags:?}"
    );
}

#[test]
fn r1_allow_pragma_suppresses_both_placements() {
    // Pragma on the preceding line and trailing on the same line.
    let diags = lint_set("r1_allow");
    assert!(
        diags.is_empty(),
        "justified pragmas must suppress: {diags:?}"
    );
}

#[test]
fn r2_flags_hashmap_in_deterministic_module() {
    let diags = lint_set("r2_hits");
    assert_eq!(
        rules_hit(&diags),
        vec!["no-unordered-iteration"],
        "{diags:?}"
    );
    assert!(has_errors(&diags));
    // Both deterministic modules in the set are covered — including the
    // robust-aggregation module added with the Byzantine screens.
    let mut files: Vec<&str> = diags.iter().map(|d| d.file.as_str()).collect();
    files.sort_unstable();
    files.dedup();
    assert_eq!(files, vec!["fl/src/aggregate.rs", "fl/src/robust.rs"]);
}

#[test]
fn r3_flags_clocks_and_rng_outside_timing_modules() {
    let diags = lint_set("r3_hits");
    assert_eq!(rules_hit(&diags), vec!["no-ambient-entropy"], "{diags:?}");
    // Instant::now, SystemTime::now, thread_rng: three distinct sites.
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn the_attempt_core_may_neither_read_the_clock_nor_hash() {
    // R2 covers the core like the other deterministic modules, and it is
    // no timing module: R3 refuses `Instant::now` in it.
    let diags = lint_set("core_clock");
    assert_eq!(
        rules_hit(&diags),
        vec!["no-ambient-entropy", "no-unordered-iteration"],
        "{diags:?}"
    );
    let clock: Vec<u32> = (diags.iter())
        .filter(|d| d.rule == "no-ambient-entropy")
        .map(|d| d.line)
        .collect();
    assert_eq!(clock, vec![15], "{diags:?}");
}

#[test]
fn r4_flags_unchecked_length_arithmetic_only() {
    let diags = lint_set("r4_hits");
    assert_eq!(
        rules_hit(&diags),
        vec!["no-unchecked-arith-wire"],
        "{diags:?}"
    );
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    // `pos + len` and `n * row_len` fire; `pos.checked_add(len)` does not.
    assert_eq!(lines, vec![4, 8], "{diags:?}");
}

#[test]
fn r5_flags_produced_but_unreported_variant_at_definition() {
    let diags = lint_set("r5_gap");
    let cov: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "error-enum-coverage")
        .collect();
    assert_eq!(cov.len(), 1, "exactly the Checkpoint gap: {diags:?}");
    assert_eq!(
        cov[0].file, "fl/src/error.rs",
        "anchored at the enum definition"
    );
    assert!(
        cov[0].message.contains("Checkpoint"),
        "names the missing variant: {}",
        cov[0].message
    );
    assert!(
        !diags.iter().any(|d| d.message.contains("QuorumNotMet")
            || d.message.contains("Transport")
            || d.message.contains("Aggregate")),
        "covered variants must not be flagged: {diags:?}"
    );
}

#[test]
fn r6_flags_unsafe_outside_simd_and_missing_safety_comments() {
    let diags = lint_set("r6_hits");
    assert_eq!(rules_hit(&diags), vec!["unsafe-containment"], "{diags:?}");
    let sites: Vec<(&str, u32)> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
    // The `unsafe` block outside crates/simd, and the two audited-comment-less
    // `#[target_feature]` attributes inside it — the second on a generic
    // entry point that runs every kernel; the commented twin and the
    // #[cfg(test)] unsafe are silent.
    assert_eq!(
        sites,
        vec![
            ("core/src/util.rs", 4),
            ("simd/src/x86.rs", 5),
            ("simd/src/x86.rs", 21)
        ],
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn r6_clean_contained_crate_passes() {
    let diags = lint_set("r6_clean");
    assert!(
        diags.is_empty(),
        "audited entry points and safe code must pass: {diags:?}"
    );
}

#[test]
fn r6_allow_pragma_suppresses_both_placements() {
    let diags = lint_set("r6_allow");
    assert!(
        diags.is_empty(),
        "justified pragmas must suppress: {diags:?}"
    );
}

#[test]
fn r7_flags_every_edge_of_a_cross_file_lock_cycle() {
    let diags = lint_set("r7_hits");
    assert_eq!(rules_hit(&diags), vec!["lock-order"], "{diags:?}");
    let sites: Vec<(&str, u32)> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
    // Both halves of the alpha/beta cycle (anchored at the inner
    // acquisition of each) plus the same-lock re-acquisition.
    assert_eq!(
        sites,
        vec![("fl/src/a.rs", 11), ("fl/src/b.rs", 8), ("fl/src/b.rs", 14)],
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("cycle")),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("re-locks")),
        "the self-edge names the relock hazard: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn r7_consistent_order_and_sequential_acquisition_pass() {
    let diags = lint_set("r7_clean");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r7_allow_pragma_suppresses_both_cycle_edges() {
    let diags = lint_set("r7_allow");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r8_flags_recv_join_and_reserve_under_a_live_guard() {
    let diags = lint_set("r8_hits");
    assert_eq!(
        rules_hit(&diags),
        vec!["no-blocking-while-locked"],
        "{diags:?}"
    );
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![6, 12, 18], "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn r8_wait_loop_idiom_and_dropped_guards_pass() {
    let diags = lint_set("r8_clean");
    assert!(
        diags.is_empty(),
        "the condvar wait-loop idiom must be allowlisted: {diags:?}"
    );
}

#[test]
fn r8_allow_pragma_suppresses() {
    let diags = lint_set("r8_allow");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r9_flags_mpsc_channel_and_unbounded_constructors() {
    let diags = lint_set("r9_hits");
    assert_eq!(
        rules_hit(&diags),
        vec!["bounded-channels-only"],
        "{diags:?}"
    );
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![4, 8], "{diags:?}");
}

#[test]
fn r9_bounded_constructors_and_test_code_pass() {
    let diags = lint_set("r9_clean");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r9_allow_pragma_suppresses() {
    let diags = lint_set("r9_allow");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r10_flags_every_public_item_kind_no_other_crate_names() {
    let diags = lint_set("r10_hits");
    assert_eq!(rules_hit(&diags), vec!["dead-pub"], "{diags:?}");
    let sites: Vec<(&str, u32)> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
    // fn, struct, const fn, const, type alias, enum, inherent method, and a
    // fn only its own crate calls; comments and strings elsewhere are not
    // uses, and neither `pub(crate)` nor test code is collected.
    let lines = [3, 4, 5, 8, 9, 10, 14, 16];
    let expected: Vec<(&str, u32)> = lines.iter().map(|&l| ("core/src/lib.rs", l)).collect();
    assert_eq!(sites, expected, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn r10_names_from_other_crates_tests_and_benchmark_count_as_uses() {
    let diags = lint_set("r10_clean");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r10_allow_pragma_suppresses() {
    // An unused pragma would warn, so this also shows that R10 ran.
    let diags = lint_set("r10_allow");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unknown_rule_pragma_is_an_error_and_suppresses_nothing() {
    let diags = lint_set("bad_pragma");
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "bad-pragma" && d.severity == Severity::Error),
        "misspelled rule name must be reported: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == "no-panic-decode"),
        "a bad pragma must not suppress the underlying finding: {diags:?}"
    );
}
