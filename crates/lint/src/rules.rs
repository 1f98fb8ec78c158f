//! The fedsz-lint rule set.
//!
//! Each rule encodes an invariant the FL stack promises (see DESIGN.md §10
//! for the full rationale):
//!
//! * `no-panic-decode` (R1) — hostile-input modules must be panic-free: no
//!   `unwrap`/`expect`, no `panic!`-family macros, no slice indexing by
//!   integer literal. A client's bytes must never be able to kill the
//!   server.
//! * `no-unordered-iteration` (R2) — aggregation, metrics, and checkpoint
//!   modules must not use `HashMap`/`HashSet`: their iteration order is
//!   nondeterministic, which breaks bit-identical aggregation and
//!   checkpoint resume.
//! * `no-ambient-entropy` (R3) — `Instant::now` outside timing modules, and
//!   `SystemTime::now`/`thread_rng`-style ambient randomness anywhere
//!   outside the benches, break run reproducibility.
//! * `no-unchecked-arith-wire` (R4) — length/offset arithmetic in the frame
//!   and checkpoint codecs must be `checked_*`/`saturating_*`: a hostile
//!   length that overflows a `+`/`*` panics debug builds and wraps release
//!   builds.
//! * `error-enum-coverage` (R5) — every `FlError`/`CodecError` variant the
//!   workspace produces must be named somewhere in the CLI reporter, so
//!   new failure modes cannot silently fall into a generic bucket.
//! * `unsafe-containment` (R6) — `unsafe` is confined to the SIMD backend:
//!   any `unsafe` token outside `crates/simd` is an error, and inside it
//!   every `#[target_feature]` entry point must carry a `// simd-safety:`
//!   audit comment explaining why the feature is present and why every
//!   access is in bounds.
//! * `lock-order` (R7) — every file reports which lock is acquired while a
//!   guard for another lock is lexically live; the engine unions those
//!   edges into a per-crate acquisition graph and errors on any cycle
//!   (including re-acquiring a same-named lock, which deadlocks a std
//!   mutex outright).
//! * `no-blocking-while-locked` (R8) — `recv`/`recv_timeout`/`Condvar`
//!   wait-family/`reserve`/`read_frame*`/`join` calls made while a lock
//!   guard is live are errors, except the condvar wait-loop idiom where
//!   the held guard itself is passed into the wait (the lock is released
//!   for the duration). This is the shape of the PR-7 collector deadlock.
//! * `bounded-channels-only` (R9) — `mpsc::channel()` and `unbounded(..)`
//!   constructors are errors in production code: the overload design
//!   (DESIGN.md §7/§15) depends on every queue exerting backpressure.
//! * `dead-pub` (R10) — every `pub` free fn, inherent method, struct, enum,
//!   const and type alias of a library crate must be named, as a whole
//!   identifier, in some other crate; otherwise it is `pub(crate)` at most,
//!   so rustc's `dead_code` lint can see it.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{is_keyword, Tok, Token};

/// R1: panics in hostile-input code.
pub const NO_PANIC_DECODE: &str = "no-panic-decode";
/// R2: nondeterministic iteration in deterministic modules.
pub const NO_UNORDERED_ITERATION: &str = "no-unordered-iteration";
/// R3: ambient clocks/randomness outside timing/bench code.
pub const NO_AMBIENT_ENTROPY: &str = "no-ambient-entropy";
/// R4: unchecked length arithmetic in wire/checkpoint codecs.
pub const NO_UNCHECKED_ARITH_WIRE: &str = "no-unchecked-arith-wire";
/// R5: error enum variants unhandled by the CLI reporter.
pub const ERROR_ENUM_COVERAGE: &str = "error-enum-coverage";
/// R6: `unsafe` outside the contained SIMD backend, or a `#[target_feature]`
/// entry point inside it without its `// simd-safety:` audit comment.
pub const UNSAFE_CONTAINMENT: &str = "unsafe-containment";
/// R7: a cycle in the per-crate lock-acquisition graph.
pub const LOCK_ORDER: &str = "lock-order";
/// R8: a blocking call made while a lock guard is lexically live.
pub const NO_BLOCKING_WHILE_LOCKED: &str = "no-blocking-while-locked";
/// R9: an unbounded channel constructor in production code.
pub const BOUNDED_CHANNELS_ONLY: &str = "bounded-channels-only";
/// R10: a library crate's `pub` item that no other crate names.
pub const DEAD_PUB: &str = "dead-pub";
/// Meta-rule: malformed or unknown suppression pragmas.
pub const BAD_PRAGMA: &str = "bad-pragma";
/// Meta-rule: an `allow(...)` pragma that suppressed nothing.
pub const UNUSED_PRAGMA: &str = "unused-pragma";

/// The rule names an `allow(...)` pragma may name.
pub const SUPPRESSIBLE_RULES: &[&str] = &[
    NO_PANIC_DECODE,
    NO_UNORDERED_ITERATION,
    NO_AMBIENT_ENTROPY,
    NO_UNCHECKED_ARITH_WIRE,
    ERROR_ENUM_COVERAGE,
    UNSAFE_CONTAINMENT,
    LOCK_ORDER,
    NO_BLOCKING_WHILE_LOCKED,
    BOUNDED_CHANNELS_ONLY,
    DEAD_PUB,
];

/// Where each rule applies. Paths are workspace-relative with forward
/// slashes; `*_files` entries match by suffix, `*_fragments` by substring,
/// so fixture trees that mirror the crate layout get the same scoping.
#[derive(Debug, Clone)]
pub struct Config {
    /// R1 applies to these whole files.
    pub panic_free_files: Vec<&'static str>,
    /// R1 and R4 also apply to decode-shaped functions (`decompress*`,
    /// `decode*`, `from_bytes`, `read*`) in files matching these fragments.
    pub decode_crate_fragments: Vec<&'static str>,
    /// R2 applies to these whole files.
    pub deterministic_files: Vec<&'static str>,
    /// R3: files matching these fragments may call `Instant::now`.
    pub timing_fragments: Vec<&'static str>,
    /// R3: files matching these fragments may use wall clocks and ambient
    /// randomness (`SystemTime::now`, `thread_rng`, ...).
    pub entropy_fragments: Vec<&'static str>,
    /// R4 applies to these whole files.
    pub checked_arith_files: Vec<&'static str>,
    /// R5: the reporter that must name every produced error variant.
    pub reporter_fragment: &'static str,
    /// R5: the error enums under coverage.
    pub error_enums: Vec<&'static str>,
    /// R6: files matching these fragments form the contained unsafe surface;
    /// `unsafe` anywhere else is an error, and `#[target_feature]` functions
    /// inside them must carry `// simd-safety:` comments.
    pub unsafe_crate_fragments: Vec<&'static str>,
    /// R10: the library crates (as [`lib_crate_of`] names them) whose `pub`
    /// items another crate must name.
    pub dead_pub_crates: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            panic_free_files: vec![
                "fl/src/wire.rs",
                "fl/src/checkpoint.rs",
                "fl/src/validate.rs",
                "fl/src/ingest.rs",
                "core/src/pipeline.rs",
            ],
            decode_crate_fragments: vec![
                "eblc/src/",
                "lossless/src/",
                "entropy/src/",
                "tensor/src/",
            ],
            deterministic_files: vec![
                "fl/src/aggregate.rs",
                "fl/src/robust.rs",
                "fl/src/checkpoint.rs",
                "fl/src/session.rs",
                "fl/src/transport.rs",
                "fl/src/ingest.rs",
                "core/src/stats.rs",
                "tensor/src/state_dict.rs",
            ],
            timing_fragments: vec![
                "fl/src/net.rs",
                "fl/src/transport.rs",
                "fl/src/session.rs",
                "fl/src/wire.rs",
                "fl/src/ingest.rs",
                "fl/src/sync.rs",
                "core/src/pipeline.rs",
                "bench/",
                "netsim/",
            ],
            entropy_fragments: vec!["bench/"],
            checked_arith_files: vec!["fl/src/wire.rs", "fl/src/checkpoint.rs"],
            reporter_fragment: "cli/src/",
            error_enums: vec!["FlError", "CodecError"],
            unsafe_crate_fragments: vec!["simd/src/"],
            dead_pub_crates: vec![
                "core", "dnn", "eblc", "entropy", "fl", "lossless", "models", "netsim", "simd",
                "tensor",
            ],
        }
    }
}

impl Config {
    fn file_matches(path: &str, suffixes: &[&str]) -> bool {
        suffixes.iter().any(|s| path.ends_with(s))
    }

    fn fragment_matches(path: &str, fragments: &[&str]) -> bool {
        fragments.iter().any(|f| path.contains(f))
    }
}

/// Does a function name select R1/R4 decode-path scoping inside the codec
/// crates? Matches the decompression entry points and every byte-reader
/// helper under them.
pub fn is_decode_fn(name: &str) -> bool {
    name.contains("decompress")
        || name.contains("decode")
        || name.contains("from_bytes")
        || name.starts_with("read")
}

/// R5 facts harvested from one file, merged across the workspace by the
/// engine.
#[derive(Debug, Default)]
pub struct EnumFacts {
    /// `(enum, variant, line)` for each variant listed in a definition of a
    /// covered enum.
    pub defined: Vec<(String, String, u32)>,
    /// `(enum, variant, line)` for each `Enum::Variant` mention.
    pub mentioned: Vec<(String, String, u32)>,
}

/// R7 fact: lock `acquired` was taken (lexically) while a guard for
/// `held` was still live. Lock names are the receiver field/binding the
/// guard came from — a per-crate approximation that is exact for the
/// workspace's `self.state.lock()` / `lock(&self.state)` idioms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub line: u32,
}

/// Everything the per-file pass produces.
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    pub enum_facts: EnumFacts,
    /// R7 lock-acquisition edges, pooled per crate by the engine.
    pub lock_edges: Vec<LockEdge>,
    /// Whether this file is part of the CLI reporter (R5).
    pub is_reporter: bool,
    /// R10: `(kind, name, line)` of each `pub` item outside test code, when
    /// the file belongs to a covered library crate.
    pub pub_items: Vec<(&'static str, String, u32)>,
}

/// Code tokens only (comments stripped), with a parallel "inside a test
/// item" mask.
struct Code<'a> {
    toks: Vec<&'a Token>,
    in_test: Vec<bool>,
}

impl<'a> Code<'a> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i).map(|t| &t.tok)
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.tok(i), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.tok(i) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

fn strip_comments(tokens: &[Token]) -> Vec<&Token> {
    tokens
        .iter()
        .filter(|t| !matches!(t.tok, Tok::LineComment(_) | Tok::BlockComment))
        .collect()
}

/// Mark every token belonging to a `#[test]` or `#[cfg(test)]` item. Test
/// code legitimately uses `unwrap`, `assert!`, and `HashSet`; the
/// invariants only bind production code.
fn test_mask(code: &[&Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if !matches!(code[i].tok, Tok::Punct('#')) || !is_punct_at(code, i + 1, '[') {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < code.len() && depth > 0 {
            match &code[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) => idents.push(s.as_str()),
                _ => {}
            }
            j += 1;
        }
        let attr_end = j; // first token after `]`
        let is_test_attr = idents.contains(&"test")
            && !idents.contains(&"not")
            && (idents.len() == 1 || idents.contains(&"cfg"));
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Find the item body: skip further attributes, then the first `{`
        // opens it; a `;` first means a body-less item (nothing to skip).
        let mut k = attr_end;
        let mut body_start = None;
        while k < code.len() {
            match &code[k].tok {
                Tok::Punct('#') if is_punct_at(code, k + 1, '[') => {
                    let mut d = 1usize;
                    k += 2;
                    while k < code.len() && d > 0 {
                        match &code[k].tok {
                            Tok::Punct('[') => d += 1,
                            Tok::Punct(']') => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                Tok::Punct('{') => {
                    body_start = Some(k);
                    break;
                }
                Tok::Punct(';') => break,
                _ => k += 1,
            }
        }
        let Some(body_start) = body_start else {
            i = attr_end;
            continue;
        };
        // Skip to the matching `}` and mark the whole item.
        let mut d = 0usize;
        let mut end = body_start;
        while end < code.len() {
            match &code[end].tok {
                Tok::Punct('{') => d += 1,
                Tok::Punct('}') => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        for m in mask.iter_mut().take(end.min(code.len() - 1) + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

fn is_punct_at(code: &[&Token], i: usize, c: char) -> bool {
    matches!(code.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Token ranges (inclusive start, exclusive end) of decode-shaped function
/// bodies, for the per-function scoping of R1/R4 in the codec crates.
fn decode_fn_ranges(code: &Code) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.toks.len() {
        if code.ident(i) == Some("fn") {
            if let Some(name) = code.ident(i + 1) {
                if is_decode_fn(name) {
                    // The body is the next `{`; a `;` first means a trait
                    // method signature without a body.
                    let mut j = i + 2;
                    let mut body = None;
                    while j < code.toks.len() {
                        match code.tok(j) {
                            Some(Tok::Punct('{')) => {
                                body = Some(j);
                                break;
                            }
                            Some(Tok::Punct(';')) => break,
                            _ => j += 1,
                        }
                    }
                    if let Some(start) = body {
                        let mut d = 0usize;
                        let mut end = start;
                        while end < code.toks.len() {
                            match code.tok(end) {
                                Some(Tok::Punct('{')) => d += 1,
                                Some(Tok::Punct('}')) => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            end += 1;
                        }
                        ranges.push((i, end + 1));
                        i = end + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    ranges
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Names that R4 treats as length/size/offset-carrying when they appear as
/// an operand of a bare `+`/`*`.
fn is_length_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("len")
        || lower.contains("size")
        || lower.contains("nbytes")
        || lower.contains("count")
        || matches!(
            lower.as_str(),
            "pos" | "end" | "off" | "offset" | "n" | "idx"
        )
}

/// Run every per-file rule over `tokens` (one lexed file).
pub fn check_file(path: &str, tokens: &[Token], cfg: &Config) -> FileReport {
    let toks = strip_comments(tokens);
    let in_test = test_mask(&toks);
    let code = Code { toks, in_test };

    let r1_whole_file = Config::file_matches(path, &cfg.panic_free_files);
    let in_decode_crate = Config::fragment_matches(path, &cfg.decode_crate_fragments);
    let r2 = Config::file_matches(path, &cfg.deterministic_files);
    let r3_instant_ok = Config::fragment_matches(path, &cfg.timing_fragments)
        || Config::fragment_matches(path, &cfg.entropy_fragments);
    let r3_entropy_ok = Config::fragment_matches(path, &cfg.entropy_fragments);
    let r4_whole_file = Config::file_matches(path, &cfg.checked_arith_files);
    let r6_contained = Config::fragment_matches(path, &cfg.unsafe_crate_fragments);
    let is_reporter = path.contains(cfg.reporter_fragment);

    let fn_ranges = if in_decode_crate {
        decode_fn_ranges(&code)
    } else {
        Vec::new()
    };
    let in_decode_fn = |i: usize| fn_ranges.iter().any(|&(s, e)| i >= s && i < e);

    let mut diags = Vec::new();
    let mut facts = EnumFacts::default();

    for i in 0..code.toks.len() {
        if code.in_test[i] {
            continue;
        }
        let line = code.line(i);
        let r1 = r1_whole_file || (in_decode_crate && in_decode_fn(i));
        let r4 = r4_whole_file || (in_decode_crate && in_decode_fn(i));

        if r1 {
            check_panic(&code, i, line, path, &mut diags);
            check_literal_index(&code, i, line, path, &mut diags);
        }
        if r2 {
            if let Some(name @ ("HashMap" | "HashSet")) = code.ident(i) {
                diags.push(diag(
                    path,
                    line,
                    NO_UNORDERED_ITERATION,
                    format!(
                        "`{name}` in a deterministic module: its iteration order varies \
                         between runs; use `BTreeMap`/`BTreeSet` or sorted keys"
                    ),
                ));
            }
        }
        check_entropy(
            &code,
            i,
            line,
            path,
            r3_instant_ok,
            r3_entropy_ok,
            &mut diags,
        );
        if r4 {
            check_arith(&code, i, line, path, &mut diags);
        }
        if !r6_contained && code.ident(i) == Some("unsafe") {
            diags.push(diag(
                path,
                line,
                UNSAFE_CONTAINMENT,
                "`unsafe` outside the contained SIMD backend: the workspace forbids \
                 unsafe code everywhere but `crates/simd`, whose entry points carry \
                 audited `// simd-safety:` contracts"
                    .to_owned(),
            ));
        }
        collect_enum_facts(&code, i, cfg, &mut facts);
    }

    if r6_contained {
        check_simd_safety(path, tokens, &mut diags);
    }

    let lock_edges = check_concurrency(path, &code, &mut diags);
    let pub_items = match lib_crate_of(path) {
        Some(krate) if cfg.dead_pub_crates.contains(&krate) => collect_pub_items(&code),
        _ => Vec::new(),
    };

    FileReport {
        diagnostics: diags,
        enum_facts: facts,
        lock_edges,
        is_reporter,
        pub_items,
    }
}

/// The library crate whose `src/` holds `path` (`crates/fl/src/net.rs` and
/// fixture `fl/src/net.rs` → `fl`). `None` for every other target: binaries
/// (`src/main.rs`, `src/bin/`), integration tests, benches, examples and
/// the root suite, each of which is a crate of its own for R10.
pub fn lib_crate_of(path: &str) -> Option<&str> {
    let (dir, tail) = path.split_once("/src/")?;
    let binary = tail == "main.rs" || tail.starts_with("bin/");
    (!binary).then(|| dir.rsplit_once('/').map_or(dir, |(_, krate)| krate))
}

/// R10 facts: `(kind, name, line)` for every `pub` free fn, inherent
/// method, struct, enum, const and type alias outside test code.
/// Restricted visibility (`pub(crate)`) is not `pub` followed by an item
/// keyword, and a `macro_rules!` item named by a `$` fragment has no name
/// token, so neither is collected.
fn collect_pub_items(code: &Code) -> Vec<(&'static str, String, u32)> {
    let fn_qualifier = |j: usize| matches!(code.ident(j), Some("unsafe" | "async" | "extern"));
    let mut items = Vec::new();
    for i in (0..code.toks.len()).filter(|&i| !code.in_test[i] && code.ident(i) == Some("pub")) {
        // Skip `const`/`unsafe`/`async`/`extern "C"` before `fn`; a `const`
        // followed by anything else is the item itself.
        let mut j = i + 1;
        while fn_qualifier(j)
            || matches!(code.tok(j), Some(Tok::Str))
            || (code.ident(j) == Some("const")
                && (fn_qualifier(j + 1) || code.ident(j + 1) == Some("fn")))
        {
            j += 1;
        }
        let kinds = ["fn", "struct", "enum", "const", "type"];
        let kind = kinds.into_iter().find(|&k| code.ident(j) == Some(k));
        if let (Some(kind), Some(name)) = (kind, code.ident(j + 1)) {
            items.push((kind, name.to_owned(), code.line(i)));
        }
    }
    items
}

/// The condvar wait family: blocking, but releases a guard passed as an
/// argument for the duration of the wait (the allowlisted wait-loop idiom).
const WAIT_FAMILY: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Is token `i` a blocking call site? Returns the call name. Zero-argument
/// forms are required where the name collides with common non-blocking
/// methods (`Path::join`, `Vec::append`-style `recv` lookalikes don't
/// exist, but `path.join("x")` does).
fn blocking_call_name<'c>(code: &'c Code, i: usize) -> Option<&'c str> {
    let name = code.ident(i)?;
    if !code.is_punct(i + 1, '(') {
        return None;
    }
    let method = i > 0 && code.is_punct(i - 1, '.');
    let zero_arg = code.is_punct(i + 2, ')');
    let hit = match name {
        "recv" | "join" => method && zero_arg,
        "recv_timeout" | "recv_deadline" | "reserve" => method,
        n if WAIT_FAMILY.contains(&n) => method,
        n => n.starts_with("read_frame"),
    };
    hit.then_some(name)
}

/// Is token `i` a lock acquisition? Returns the lock's name: the receiver
/// ident for `x.lock()`/`x.read()`/`x.write()` (no-argument method form),
/// or the last ident of the argument for the free-function `lock(&x.field)`
/// poison-recovery helper the workspace uses.
fn lock_acquisition(code: &Code, i: usize) -> Option<String> {
    let name = code.ident(i)?;
    if !matches!(name, "lock" | "read" | "write") || !code.is_punct(i + 1, '(') {
        return None;
    }
    if i > 0 && code.is_punct(i - 1, '.') {
        // Method form: `recv.lock()` — require empty parens so io `read`/
        // `write` calls (which take a buffer) don't match.
        if !code.is_punct(i + 2, ')') || i < 2 {
            return None;
        }
        return code
            .ident(i - 2)
            .filter(|r| !is_keyword(r))
            .map(str::to_owned);
    }
    // Free-function form: `lock(&self.state)`. Skip definitions and paths.
    if name != "lock" || code.ident(i.wrapping_sub(1)) == Some("fn") || code.is_punct(i + 2, ')') {
        return None;
    }
    let mut last = None;
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < code.toks.len() && depth > 0 {
        match code.tok(j) {
            Some(Tok::Punct('(')) => depth += 1,
            Some(Tok::Punct(')')) => depth -= 1,
            Some(Tok::Ident(s)) if !is_keyword(s) => last = Some(s.clone()),
            _ => {}
        }
        j += 1;
    }
    last
}

/// The ident a `let` at token `i` binds, looking through `mut` and the
/// single-field `Ok(..)`/`Some(..)`/`Err(..)` patterns.
fn let_binding_name(code: &Code, i: usize) -> Option<String> {
    let mut j = i + 1;
    if code.ident(j) == Some("mut") {
        j += 1;
    }
    let first = code.ident(j)?;
    if matches!(first, "Ok" | "Some" | "Err") && code.is_punct(j + 1, '(') {
        let mut k = j + 2;
        if code.ident(k) == Some("mut") {
            k += 1;
        }
        return code.ident(k).map(str::to_owned);
    }
    if is_keyword(first) {
        return None;
    }
    Some(first.to_owned())
}

/// A lexically live lock guard.
struct LiveGuard {
    /// Binding name, when `let`-bound (temporaries have none).
    var: Option<String>,
    /// Name of the lock it guards.
    lock: String,
    /// Brace depth at the acquisition; the guard dies when the scope does.
    depth: usize,
    /// Statement temporary (`lock(&x).field = v;`): dies at the `;`.
    temp: bool,
}

/// The R7/R8/R9 scanner: tracks lexically live lock guards through one
/// file, reports blocking-while-locked (R8) and unbounded-constructor (R9)
/// sites immediately, and returns the lock-acquisition edges for the
/// engine's per-crate R7 cycle check.
fn check_concurrency(path: &str, code: &Code, diags: &mut Vec<Diagnostic>) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_let: Option<String> = None;

    for i in 0..code.toks.len() {
        match code.tok(i) {
            Some(Tok::Punct('{')) => depth += 1,
            Some(Tok::Punct('}')) => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            Some(Tok::Punct(';')) => {
                guards.retain(|g| !(g.temp && g.depth >= depth));
                stmt_let = None;
            }
            _ => {}
        }
        if code.ident(i) == Some("let") {
            stmt_let = let_binding_name(code, i);
        }
        // An explicit `drop(guard)` ends the guard mid-scope.
        if code.ident(i) == Some("drop") && code.is_punct(i + 1, '(') && code.is_punct(i + 3, ')') {
            if let Some(v) = code.ident(i + 2) {
                guards.retain(|g| g.var.as_deref() != Some(v));
            }
        }
        if code.in_test[i] {
            continue;
        }
        let line = code.line(i);

        // R9: unbounded constructors.
        if let Some(name) = code.ident(i) {
            let mpsc_channel = name == "channel"
                && code.is_punct(i + 1, '(')
                && i >= 3
                && code.is_punct(i - 1, ':')
                && code.is_punct(i - 2, ':')
                && code.ident(i - 3) == Some("mpsc");
            let unbounded = name == "unbounded"
                && code.is_punct(i + 1, '(')
                && code.ident(i.wrapping_sub(1)) != Some("fn");
            if mpsc_channel || unbounded {
                diags.push(diag(
                    path,
                    line,
                    BOUNDED_CHANNELS_ONLY,
                    format!(
                        "`{name}` constructs an unbounded channel: every production queue \
                         must exert backpressure under overload; use `bounded(cap)` \
                         (or `mpsc::sync_channel`) and size the capacity explicitly"
                    ),
                ));
            }
        }

        // R7: lock acquisition while other guards are live.
        if let Some(lock_name) = lock_acquisition(code, i) {
            for g in &guards {
                edges.push(LockEdge {
                    held: g.lock.clone(),
                    acquired: lock_name.clone(),
                    line,
                });
            }
            let var = stmt_let.clone();
            guards.push(LiveGuard {
                temp: var.is_none(),
                var,
                lock: lock_name,
                depth,
            });
            continue;
        }

        // R8: blocking call while a guard is live.
        if let Some(bname) = blocking_call_name(code, i) {
            if guards.is_empty() {
                continue;
            }
            let wait_family = WAIT_FAMILY.contains(&bname);
            // Idents appearing anywhere in the call's argument list.
            let mut args: Vec<&str> = Vec::new();
            let mut d = 1usize;
            let mut j = i + 2;
            while j < code.toks.len() && d > 0 {
                match code.tok(j) {
                    Some(Tok::Punct('(')) => d += 1,
                    Some(Tok::Punct(')')) => d -= 1,
                    Some(Tok::Ident(s)) => args.push(s.as_str()),
                    _ => {}
                }
                j += 1;
            }
            // The wait-loop idiom: a condvar wait that *consumes* the held
            // guard releases the lock for the duration — that guard is fine.
            let still_held: Vec<&str> = guards
                .iter()
                .filter(|g| !(wait_family && g.var.as_deref().is_some_and(|v| args.contains(&v))))
                .map(|g| g.lock.as_str())
                .collect();
            if !still_held.is_empty() {
                diags.push(diag(
                    path,
                    line,
                    NO_BLOCKING_WHILE_LOCKED,
                    format!(
                        "blocking `{bname}` call while guard(s) for `{}` are held: anything \
                         the wake depends on may itself need that lock (the PR-7 collector \
                         deadlock shape); drop the guard first, or use the condvar wait-loop \
                         idiom that passes the guard into the wait",
                        still_held.join("`, `")
                    ),
                ));
            }
        }
    }
    edges
}

/// R7, cross-file: union each crate's lock-acquisition edges and error on
/// every edge that participates in a cycle (including self-edges — a std
/// mutex deadlocks when re-acquired by its holder).
pub fn check_lock_order(edges: &[(String, LockEdge, String)]) -> Vec<Diagnostic> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut by_crate: BTreeMap<&str, Vec<(&LockEdge, &str)>> = BTreeMap::new();
    for (krate, edge, file) in edges {
        by_crate
            .entry(krate.as_str())
            .or_default()
            .push((edge, file.as_str()));
    }
    let mut diags = Vec::new();
    for (krate, es) in by_crate {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (e, _) in &es {
            adj.entry(e.held.as_str())
                .or_default()
                .insert(e.acquired.as_str());
        }
        let reaches = |from: &str, to: &str| -> bool {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if !seen.insert(n) {
                    continue;
                }
                if n == to {
                    return true;
                }
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        };
        for (e, file) in es {
            let message = if e.held == e.acquired {
                format!(
                    "lock `{}` acquired while a guard for it is already held: a std \
                     mutex deadlocks when its holder re-locks it",
                    e.acquired
                )
            } else if reaches(&e.acquired, &e.held) {
                format!(
                    "lock-order cycle in crate `{krate}`: `{}` is acquired while `{}` \
                     is held here, but elsewhere `{}` is (transitively) acquired while \
                     `{}` is held; impose one global acquisition order",
                    e.acquired, e.held, e.held, e.acquired
                )
            } else {
                continue;
            };
            diags.push(Diagnostic {
                file: file.to_owned(),
                line: e.line,
                rule: LOCK_ORDER,
                severity: Severity::Error,
                message,
            });
        }
    }
    diags
}

/// R6 inside the contained SIMD crate: every `#[target_feature]` entry point
/// must carry a `// simd-safety:` audit comment, either in the comment block
/// directly above the attribute or between the attribute and the function
/// body. Runs over the *raw* token stream (unlike every other check) because
/// the evidence it looks for is itself a comment.
fn check_simd_safety(path: &str, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    fn is_safety_comment(tok: &Tok) -> bool {
        // Doc comments lex as `LineComment` whose text starts with `/` or
        // `!`; the audit marker must be a plain `//` comment.
        matches!(tok, Tok::LineComment(t)
            if !t.starts_with('/') && !t.starts_with('!')
                && t.trim_start().starts_with("simd-safety:"))
    }

    let mut i = 0usize;
    while i < tokens.len() {
        if !matches!(tokens[i].tok, Tok::Punct('#'))
            || !matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        // Scan the attribute body up to its matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut is_target_feature = false;
        while j < tokens.len() && depth > 0 {
            match &tokens[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) if s == "target_feature" => is_target_feature = true,
                _ => {}
            }
            j += 1;
        }
        if !is_target_feature {
            i = j.max(i + 1);
            continue;
        }
        // Look for the marker in the contiguous comment block directly
        // above the attribute...
        let mut found = false;
        let mut k = i;
        while k > 0 {
            k -= 1;
            match &tokens[k].tok {
                Tok::LineComment(_) | Tok::BlockComment => {
                    if is_safety_comment(&tokens[k].tok) {
                        found = true;
                        break;
                    }
                }
                _ => break,
            }
        }
        // ... or between the attribute and the body's opening brace.
        let mut m = j;
        while !found && m < tokens.len() {
            match &tokens[m].tok {
                Tok::Punct('{') | Tok::Punct(';') => break,
                t if is_safety_comment(t) => found = true,
                _ => {}
            }
            m += 1;
        }
        if !found {
            diags.push(diag(
                path,
                attr_line,
                UNSAFE_CONTAINMENT,
                "`#[target_feature]` entry point without a `// simd-safety:` comment: \
                 state why the CPU feature is guaranteed present and why every memory \
                 access is in bounds"
                    .to_owned(),
            ));
        }
        i = j.max(i + 1);
    }
}

fn diag(path: &str, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: path.to_owned(),
        line,
        rule,
        severity: Severity::Error,
        message,
    }
}

fn check_panic(code: &Code, i: usize, line: u32, path: &str, diags: &mut Vec<Diagnostic>) {
    match code.ident(i) {
        Some(name @ ("unwrap" | "expect"))
            if i > 0 && code.is_punct(i - 1, '.') && code.is_punct(i + 1, '(') =>
        {
            diags.push(diag(
                path,
                line,
                NO_PANIC_DECODE,
                format!(
                    "`.{name}()` in a hostile-input path: return a typed error instead \
                     (a client's bytes must not be able to panic the server)"
                ),
            ));
        }
        Some(name) if PANIC_MACROS.contains(&name) && code.is_punct(i + 1, '!') => {
            diags.push(diag(
                path,
                line,
                NO_PANIC_DECODE,
                format!("`{name}!` in a hostile-input path: return a typed error instead"),
            ));
        }
        _ => {}
    }
}

/// Flag `expr[<int literal> ...]` and `expr[... <int literal>]` index
/// expressions: a literal index or literal-bounded slice panics when the
/// buffer is shorter than the code assumed. Array *literals* and array
/// *types* (`[0u8; 9]`, `[u8; 4]`) are not index expressions and pass.
fn check_literal_index(code: &Code, i: usize, line: u32, path: &str, diags: &mut Vec<Diagnostic>) {
    if !code.is_punct(i, '[') || i == 0 {
        return;
    }
    // Postfix position: an index follows an expression, not an operator.
    let postfix = match code.tok(i - 1) {
        Some(Tok::Ident(s)) => !is_keyword(s),
        Some(Tok::Punct(']')) | Some(Tok::Punct(')')) => true,
        _ => false,
    };
    if !postfix {
        return;
    }
    // Walk the bracket group; note the first and last top-level tokens.
    let mut depth = 1usize;
    let mut j = i + 1;
    let first_is_int = matches!(code.tok(j), Some(Tok::Int));
    let mut last_was_int = false;
    let mut has_semicolon = false;
    while j < code.toks.len() && depth > 0 {
        match code.tok(j) {
            Some(Tok::Punct('[')) | Some(Tok::Punct('(')) | Some(Tok::Punct('{')) => depth += 1,
            Some(Tok::Punct(']')) | Some(Tok::Punct(')')) | Some(Tok::Punct('}')) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Some(Tok::Punct(';')) if depth == 1 => has_semicolon = true,
            _ => {}
        }
        last_was_int = matches!(code.tok(j), Some(Tok::Int)) && depth == 1;
        j += 1;
    }
    // `[T; N]`-shaped groups are types/repeat literals, not indexing.
    if has_semicolon {
        return;
    }
    if first_is_int || last_was_int {
        diags.push(diag(
            path,
            line,
            NO_PANIC_DECODE,
            "slice indexed by integer literal in a hostile-input path: use `.get(..)` \
             (an index out of range panics on truncated input)"
                .to_owned(),
        ));
    }
}

fn check_entropy(
    code: &Code,
    i: usize,
    line: u32,
    path: &str,
    instant_ok: bool,
    entropy_ok: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let qualified_now = |head: &str| -> bool {
        code.ident(i) == Some(head)
            && code.is_punct(i + 1, ':')
            && code.is_punct(i + 2, ':')
            && code.ident(i + 3) == Some("now")
    };
    if !instant_ok && qualified_now("Instant") {
        diags.push(diag(
            path,
            line,
            NO_AMBIENT_ENTROPY,
            "`Instant::now()` outside the timing modules: clocks must flow through \
             config/injection so runs are reproducible"
                .to_owned(),
        ));
    }
    if !entropy_ok {
        if qualified_now("SystemTime") {
            diags.push(diag(
                path,
                line,
                NO_AMBIENT_ENTROPY,
                "`SystemTime::now()` outside the benches: wall-clock timestamps make \
                 checkpoints and logs irreproducible; thread a timestamp through config"
                    .to_owned(),
            ));
        }
        if let Some(name @ ("thread_rng" | "from_entropy" | "OsRng")) = code.ident(i) {
            diags.push(diag(
                path,
                line,
                NO_AMBIENT_ENTROPY,
                format!(
                    "`{name}` outside the benches: ambient randomness breaks seeded \
                     reproducibility; derive randomness from the run seed"
                ),
            ));
        }
    }
}

/// The name of the operand expression adjacent to an operator, looking
/// through zero-argument method calls: for `x.len() + n` the left operand
/// name is `len`, the right is `n`.
fn operand_name<'c>(code: &'c Code, i: usize, left: bool) -> Option<&'c str> {
    if left {
        if i == 0 {
            return None;
        }
        match code.tok(i - 1) {
            Some(Tok::Ident(s)) if !is_keyword(s) => Some(s.as_str()),
            Some(Tok::Punct(')')) if i >= 3 && code.is_punct(i - 2, '(') => {
                code.ident(i - 3).filter(|s| !is_keyword(s))
            }
            _ => None,
        }
    } else {
        match code.tok(i + 1) {
            Some(Tok::Ident(s)) if !is_keyword(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

fn check_arith(code: &Code, i: usize, line: u32, path: &str, diags: &mut Vec<Diagnostic>) {
    let op = match code.tok(i) {
        Some(Tok::Punct(c @ ('+' | '*'))) => *c,
        _ => return,
    };
    // `+=` / `*=` are compound assignment, `..=` etc. are not ours.
    if code.is_punct(i + 1, '=') {
        return;
    }
    // Binary position: an operand on each side.
    let left_operand = i > 0
        && match code.tok(i - 1) {
            Some(Tok::Ident(s)) => !is_keyword(s),
            Some(Tok::Int) | Some(Tok::Float) => true,
            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
            _ => false,
        };
    let right_operand = match code.tok(i + 1) {
        Some(Tok::Ident(s)) => !is_keyword(s),
        Some(Tok::Int) | Some(Tok::Float) => true,
        Some(Tok::Punct('(')) | Some(Tok::Punct('&')) => true,
        _ => false,
    };
    if !left_operand || !right_operand {
        return;
    }
    let lhs = operand_name(code, i, true);
    let rhs = operand_name(code, i, false);
    let culprit = [lhs, rhs].into_iter().flatten().find(|n| is_length_name(n));
    if let Some(name) = culprit {
        diags.push(diag(
            path,
            line,
            NO_UNCHECKED_ARITH_WIRE,
            format!(
                "bare `{op}` on length-like binding `{name}` in a wire/checkpoint codec: \
                 use `checked_{}`/`saturating_{}` (hostile lengths overflow)",
                if op == '+' { "add" } else { "mul" },
                if op == '+' { "add" } else { "mul" },
            ),
        ));
    }
}

/// Harvest R5 facts at token `i`: enum definitions of the covered error
/// enums and every `Enum::Variant` mention.
fn collect_enum_facts(code: &Code, i: usize, cfg: &Config, facts: &mut EnumFacts) {
    // `Enum::Variant` mention.
    if let Some(head) = code.ident(i) {
        if cfg.error_enums.contains(&head) && code.is_punct(i + 1, ':') && code.is_punct(i + 2, ':')
        {
            if let Some(variant) = code.ident(i + 3) {
                if variant.chars().next().is_some_and(char::is_uppercase) {
                    facts
                        .mentioned
                        .push((head.to_owned(), variant.to_owned(), code.line(i)));
                }
            }
        }
    }
    // `enum FlError { ... }` definition.
    if code.ident(i) == Some("enum") {
        let Some(name) = code.ident(i + 1) else {
            return;
        };
        if !cfg.error_enums.contains(&name) {
            return;
        }
        // Find the defining brace and walk top-level variants.
        let mut j = i + 2;
        while j < code.toks.len() && !code.is_punct(j, '{') {
            j += 1;
        }
        let mut depth = 0usize;
        let mut expecting_variant = true;
        while j < code.toks.len() {
            match code.tok(j) {
                Some(Tok::Punct('{')) | Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => {
                    depth += 1;
                }
                Some(Tok::Punct('}')) | Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Some(Tok::Punct(',')) if depth == 1 => expecting_variant = true,
                // Skip `#[attr]` on a variant.
                Some(Tok::Punct('#')) if depth == 1 && is_punct_at(&code.toks, j + 1, '[') => {
                    let mut d = 1usize;
                    j += 2;
                    while j < code.toks.len() && d > 0 {
                        match code.tok(j) {
                            Some(Tok::Punct('[')) => d += 1,
                            Some(Tok::Punct(']')) => d -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    continue;
                }
                Some(Tok::Ident(v)) if depth == 1 && expecting_variant => {
                    facts
                        .defined
                        .push((name.to_owned(), v.clone(), code.line(j)));
                    expecting_variant = false;
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// R5, cross-file: every variant of a covered enum that the workspace
/// mentions outside the reporter must also be named inside the reporter.
pub fn check_enum_coverage(
    defined: &[(String, String, u32, String)], // enum, variant, line, file
    produced: &[(String, String, u32, String)], // mentions outside the reporter
    handled: &[(String, String)],              // mentions inside the reporter
    any_reporter_file: bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !any_reporter_file {
        // Without the reporter in the lint set there is nothing to audit
        // (single-file invocations would otherwise drown in noise).
        return diags;
    }
    for (enum_name, variant, def_line, def_file) in defined {
        let is_produced = produced
            .iter()
            .any(|(e, v, _, _)| e == enum_name && v == variant);
        if !is_produced {
            continue;
        }
        let is_handled = handled.iter().any(|(e, v)| e == enum_name && v == variant);
        if is_handled {
            continue;
        }
        let site = produced
            .iter()
            .find(|(e, v, _, _)| e == enum_name && v == variant)
            .map(|(_, _, l, f)| format!("{f}:{l}"))
            .unwrap_or_default();
        diags.push(Diagnostic {
            file: def_file.clone(),
            line: *def_line,
            rule: ERROR_ENUM_COVERAGE,
            severity: Severity::Error,
            message: format!(
                "variant `{enum_name}::{variant}` is produced (e.g. {site}) but never \
                 named in the CLI reporter: add a match arm so the failure mode is \
                 reported distinctly"
            ),
        });
    }
    diags
}

/// R10, cross-file: each `(crate, kind, name, line, file)` item is an error
/// unless `users[name]` — the crates whose files contain `name` as an
/// identifier token — holds some crate other than the item's own.
pub fn check_dead_pub(
    items: &[(String, &'static str, String, u32, String)],
    users: &std::collections::BTreeMap<String, std::collections::BTreeSet<String>>,
) -> Vec<Diagnostic> {
    items
        .iter()
        .filter(|(krate, _, name, _, _)| {
            users
                .get(name)
                .is_none_or(|crates| crates.iter().all(|c| c == krate))
        })
        .map(|(krate, kind, name, line, file)| {
            diag(
                file,
                *line,
                DEAD_PUB,
                format!(
                    "`pub {kind} {name}` is named in no crate but `{krate}`: make it \
                     `pub(crate)` (rustc's dead_code lint then sees it) or delete it"
                ),
            )
        })
        .collect()
}
