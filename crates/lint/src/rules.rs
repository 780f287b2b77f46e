//! The rule engine: every invariant the workspace relies on but `clippy`
//! cannot see.
//!
//! Rules are grouped by the paper claim they protect (see DESIGN.md
//! "§ Static invariants"):
//!
//! * **Determinism** (Lemma 1, bit-identical seeded training):
//!   `hash-container`, `wall-clock`, `thread-spawn-join`,
//!   `float-total-order`. Each family has exactly one token table
//!   (`HASH_CONTAINERS`, `WALL_CLOCK_TOKENS`).
//! * **Panic-freedom** (library code must degrade, not abort):
//!   `panic-unwrap`, `panic-expect`, `panic-macro`, `index-literal`.
//! * **Oracle / platform / service contracts**: `oracle-width`,
//!   `cost-batch-guard`, `platform-id`, `safety-comment`, `crate-attrs`,
//!   `response-serialize-total`, `risk-policy-cache-key`. The item-shaped
//!   ones read [`crate::parser::FileItems`]; none brace-matches itself.
//! * **Workspace hygiene** (offline build image, honest docs):
//!   `workspace-deps`, `artifact-exists`.
//!
//! Every token rule reports at the token's own line, so a source buried
//! any number of calls below a public entry point fails the run exactly
//! where it must be fixed or justified (DESIGN §13).
//!
//! A violation on line `n` is suppressed by a trailing or immediately
//! preceding comment `// lint:allow(<rule-id>) <justification>`; the
//! justification is mandatory and is carried into the JSON report so every
//! suppression stays auditable.

use std::collections::BTreeSet;

use crate::lexer::{find_word, LineScan};
use crate::parser::FnItem;
use crate::report::{Diagnostic, LintOutcome, Suppression};
use crate::workspace::{CrateClass, SourceFile, TextFile, Workspace};

/// A rule's identity and the invariant it guards.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub guards: &'static str,
}

/// Every rule the engine knows, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-container",
        guards: "determinism: std hash containers (and RandomState) iterate in per-process random order",
    },
    RuleInfo {
        id: "wall-clock",
        guards: "determinism: wall-clock, thread-identity, host-shape and ambient-input (env/fs/stdin) values vary across runs",
    },
    RuleInfo {
        id: "thread-spawn-join",
        guards: "determinism: detached threads outlive their scope; every thread::spawn must be joined in the same scope",
    },
    RuleInfo {
        id: "panic-unwrap",
        guards: "panic-freedom: .unwrap() aborts instead of degrading",
    },
    RuleInfo {
        id: "panic-expect",
        guards: "panic-freedom: .expect() must carry a justified structural invariant",
    },
    RuleInfo {
        id: "panic-macro",
        guards: "panic-freedom: explicit panics in library code",
    },
    RuleInfo {
        id: "index-literal",
        guards: "panic-freedom: literal indexing can go out of bounds",
    },
    RuleInfo {
        id: "oracle-width",
        guards: "estimator contract: every CostOracle impl must expose its row width",
    },
    RuleInfo {
        id: "cost-batch-guard",
        guards: "estimator contract: batch costing must debug_assert the row width",
    },
    RuleInfo {
        id: "platform-id",
        guards: "platform contract: raw usize platform indices bypass PlatformId",
    },
    RuleInfo {
        id: "safety-comment",
        guards: "unsafe hygiene: every unsafe block needs a // SAFETY: line",
    },
    RuleInfo {
        id: "crate-attrs",
        guards: "unsafe/debug hygiene: library crate roots must forbid unsafe_code and deny missing_debug_implementations",
    },
    RuleInfo {
        id: "workspace-deps",
        guards: "offline build image: only path/workspace dependencies exist",
    },
    RuleInfo {
        id: "artifact-exists",
        guards: "honest docs: referenced experiment artifacts have a binary that writes them",
    },
    RuleInfo {
        id: "response-serialize-total",
        guards: "service contract: every pub *Response field must appear as a quoted JSON key in the service crate's renderer",
    },
    RuleInfo {
        id: "risk-policy-cache-key",
        guards: "cache soundness: a struct with a cache-key fn and a risk field must hash the risk policy into the key",
    },
    RuleInfo {
        id: "float-total-order",
        guards: "determinism: partial_cmp().unwrap() and raw `<` comparators are NaN-unsafe; use f64::total_cmp",
    },
];

/// Run every rule over the loaded workspace.
pub fn check(ws: &Workspace) -> LintOutcome {
    let mut out = LintOutcome {
        files_scanned: ws.files_scanned(),
        ..LintOutcome::default()
    };
    for f in &ws.sources {
        check_source(f, &mut out);
    }
    check_response_fields(&ws.sources, &mut out);
    check_risk_cache_key(&ws.sources, &mut out);
    for m in &ws.manifests {
        check_manifest(m, &mut out);
    }
    let produced = produced_artifacts(&ws.sources);
    for d in &ws.docs {
        check_doc(&produced, d, &mut out);
    }
    out.sort();
    out
}

/// `lint:allow(<rule>) <justification>` — accepted on the violation line,
/// the line immediately preceding it, the enclosing fn's signature line,
/// or the line immediately preceding that signature (whole-function
/// allows). The justification is mandatory.
fn allow_justification(file: &SourceFile, li: usize, rule: &str) -> Option<String> {
    let needle = format!("lint:allow({rule})");
    let sig = file.fn_sigs.get(li).copied().flatten();
    let candidates = [
        Some(li),
        li.checked_sub(1),
        sig,
        sig.and_then(|s| s.checked_sub(1)),
    ];
    for cand in candidates.into_iter().flatten() {
        let comment = file
            .lines
            .get(cand)
            .map(|l| l.comment.as_str())
            .unwrap_or("");
        if let Some(pos) = comment.find(&needle) {
            let rest = comment.get(pos + needle.len()..).unwrap_or("").trim();
            if !rest.is_empty() {
                return Some(rest.to_string());
            }
        }
    }
    None
}

/// Record a hit on line `li` (0-based): a violation, unless a justified
/// `lint:allow` suppresses it.
fn emit(file: &SourceFile, li: usize, rule: &'static str, message: String, out: &mut LintOutcome) {
    match allow_justification(file, li, rule) {
        Some(justification) => out.allowed.push(Suppression {
            file: file.rel.clone(),
            line: li + 1,
            rule,
            justification,
        }),
        None => out
            .violations
            .push(Diagnostic::new(file.rel.clone(), li + 1, rule, message)),
    }
}

/// The `hash-container` family (word-boundary matched): names whose
/// iteration order is seeded per process.
const HASH_CONTAINERS: &[&str] = &["HashMap", "HashSet", "RandomState"];

/// The `wall-clock` family (substring matched, first hit reported): values
/// that differ from one run of the same seeded program to the next. The
/// leading `CLOCK_TOKENS` entries — clocks and thread identity — apply
/// to every non-exempt crate; the rest — host shape, then ambient input
/// (environment, file system, stdin) — to the determinism class, i.e.
/// every product library (reading the tree and argv is the lint's own
/// job). `env::var` also matches `env::vars`, `fs::read` every `fs::read_*`.
const WALL_CLOCK_TOKENS: &[&str] = &[
    "std::time",
    "SystemTime",
    "Instant::now",
    "thread::current",
    "available_parallelism",
    "env::var",
    "env::args",
    "fs::read",
    "read_to_string",
    "read_dir",
    "File::open",
    "File::create",
    "stdin",
];
const CLOCK_TOKENS: usize = 4;

fn check_source(file: &SourceFile, out: &mut LintOutcome) {
    let panic_rules = file.class != CrateClass::Exempt && !file.is_binary;
    let wall_clock = match file.class {
        CrateClass::Determinism => WALL_CLOCK_TOKENS,
        CrateClass::Library => &WALL_CLOCK_TOKENS[..CLOCK_TOKENS],
        CrateClass::Exempt => &[],
    };
    for (li, line) in file.lines.iter().enumerate() {
        let code = line.code.as_str();
        let in_test = file.test_mask.get(li).copied().unwrap_or(false);

        if file.class == CrateClass::Determinism {
            let hit = HASH_CONTAINERS
                .iter()
                .find(|name| !find_word(code, name).is_empty());
            if let Some(container) = hit {
                emit(
                    file,
                    li,
                    "hash-container",
                    format!(
                        "{container} in a determinism-critical crate: std's per-process \
                         hasher seed makes iteration order nondeterministic; use \
                         robopt_vector::FootprintTable or a sorted Vec, or justify a \
                         provably non-iterating use with lint:allow(hash-container)"
                    ),
                    out,
                );
            }
        }

        if let Some(token) = wall_clock.iter().find(|t| code.contains(**t)) {
            emit(
                file,
                li,
                "wall-clock",
                format!(
                    "`{token}` in a library crate: clock, thread-identity, host-shape and \
                     ambient-input (env/fs/stdin) values differ run to run and break \
                     bit-identical seeded output; timing belongs in robopt-bench, inputs \
                     in the request"
                ),
                out,
            );
        }

        if panic_rules && !in_test {
            if code.contains(".unwrap()") {
                emit(
                    file,
                    li,
                    "panic-unwrap",
                    ".unwrap() in library code: convert to .expect() with an invariant \
                     message (justified via lint:allow(panic-expect)) or propagate \
                     Option/Result"
                        .to_string(),
                    out,
                );
            }
            if code.contains(".expect(") {
                emit(
                    file,
                    li,
                    "panic-expect",
                    ".expect() in library code: state the structural invariant in a \
                     lint:allow(panic-expect) justification or propagate the error"
                        .to_string(),
                    out,
                );
            }
            for mac in ["panic", "unreachable", "todo", "unimplemented"] {
                let fires = find_word(code, mac).into_iter().any(|at| {
                    code.get(at + mac.len()..)
                        .and_then(|s| s.chars().next())
                        .is_some_and(|c| c == '!')
                });
                if fires {
                    emit(
                        file,
                        li,
                        "panic-macro",
                        format!("{mac}! in library code aborts the optimizer instead of degrading"),
                        out,
                    );
                }
            }
            if has_literal_index(code) {
                emit(
                    file,
                    li,
                    "index-literal",
                    "indexing with an integer literal can go out of bounds; use \
                     .get()/.first(), or justify in-bounds-by-construction with \
                     lint:allow(index-literal)"
                        .to_string(),
                    out,
                );
            }
            if nan_unsafe_comparison(code) {
                emit(
                    file,
                    li,
                    "float-total-order",
                    "NaN-unsafe float comparison: partial_cmp().unwrap() panics on NaN \
                     and hand-rolled `<` comparators drop NaN ordering; use \
                     f64::total_cmp for a deterministic total order"
                        .to_string(),
                    out,
                );
            }
        }

        if !find_word(code, "unsafe").is_empty() {
            let documented = (li.saturating_sub(3)..=li).any(|c| {
                file.lines
                    .get(c)
                    .is_some_and(|l| l.comment.contains("SAFETY:"))
            });
            if !documented {
                emit(
                    file,
                    li,
                    "safety-comment",
                    "unsafe without a preceding // SAFETY: comment (library crates \
                     additionally #![forbid(unsafe_code)] entirely)"
                        .to_string(),
                    out,
                );
            }
        }
    }

    if file.is_crate_root && file.class != CrateClass::Exempt {
        for attr in [
            "#![forbid(unsafe_code)]",
            "#![deny(missing_debug_implementations)]",
        ] {
            if !file.lines.iter().any(|l| l.code.contains(attr)) {
                emit(
                    file,
                    0,
                    "crate-attrs",
                    format!("library crate root is missing `{attr}`"),
                    out,
                );
            }
        }
    }

    check_oracle_contract(file, out);
    check_thread_spawns(file, out);
    if file.class != CrateClass::Exempt && file.crate_name != "platforms" {
        check_platform_params(file, out);
    }
}

/// `thread::spawn` in library code must be `.join()`ed in the same lexical
/// scope — a detached thread outlives the call that spawned it, racing
/// whatever seeded state comes next. `std::thread::scope` (the workspace's
/// parallelism idiom) joins implicitly and never contains the
/// `thread::spawn` token, so it passes untouched.
fn check_thread_spawns(file: &SourceFile, out: &mut LintOutcome) {
    if file.class == CrateClass::Exempt || file.is_binary {
        return;
    }
    for li in 0..file.lines.len() {
        let line = match file.lines.get(li) {
            Some(l) => l,
            None => continue,
        };
        let in_test = file.test_mask.get(li).copied().unwrap_or(false);
        if in_test {
            continue;
        }
        let Some(at) = line.code.find("thread::spawn") else {
            continue;
        };
        if !joined_in_scope(&file.lines, li, at) {
            emit(
                file,
                li,
                "thread-spawn-join",
                "thread::spawn without a .join() in the same scope: detached threads \
                 break deterministic seeded runs; join the handle, or use \
                 std::thread::scope which joins structurally"
                    .to_string(),
                out,
            );
        }
    }
}

/// Forward scan from the spawn site: does `.join(` appear before the
/// enclosing scope closes (brace depth dropping below the spawn's level)?
fn joined_in_scope(lines: &[LineScan], li: usize, col: usize) -> bool {
    let mut depth: i32 = 0;
    for (i, l) in lines.iter().enumerate().skip(li) {
        let start = if i == li { col } else { 0 };
        let code = l.code.get(start..).unwrap_or("");
        for (at, c) in code.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                '.' if code.get(at..).is_some_and(|s| s.starts_with(".join(")) => {
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

/// `foo[3]`-style indexing: `[` preceded by an identifier character, `)` or
/// `]`, whose bracket content is a bare integer literal.
fn has_literal_index(code: &str) -> bool {
    for (at, c) in code.char_indices() {
        if c != '[' {
            continue;
        }
        let prev = code[..at].trim_end().chars().next_back();
        if !prev.is_some_and(|p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']') {
            continue;
        }
        let inner = code.get(at + 1..).unwrap_or("");
        let digits: String = inner
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .collect();
        if digits.is_empty() {
            continue;
        }
        let rest = inner
            .trim_start()
            .get(digits.len()..)
            .unwrap_or("")
            .trim_start();
        if rest.starts_with(']') {
            return true;
        }
    }
    false
}

/// Rule 19 `float-total-order`: a `partial_cmp` whose `Option` is
/// force-unwrapped panics the library on the first NaN, and a comparator
/// built from a raw `<` silently drops NaN ordering — both break the
/// deterministic total order `f64::total_cmp` provides. `sort_by` with a
/// raw `<` only arises in `if a < b { Less } …` hand-rolled comparators
/// (a bare `<` closure would not type-check as `Ordering`).
fn nan_unsafe_comparison(code: &str) -> bool {
    if code.contains("partial_cmp") && (code.contains(".unwrap()") || code.contains(".expect(")) {
        return true;
    }
    code.contains("sort_by")
        && code.contains(" < ")
        && !code.contains("total_cmp")
        && !code.contains("partial_cmp")
}

/// Join the code of lines `lo..=hi` with spaces (signature/body text).
fn joined_code(lines: &[LineScan], lo: usize, hi: usize) -> String {
    let mut s = String::new();
    for l in lines.iter().take(hi + 1).skip(lo) {
        s.push_str(l.code.as_str());
        s.push(' ');
    }
    s
}

/// Code text of `f`'s body (from the line of its `{`); `None` if bodyless.
fn body_text(file: &SourceFile, f: &FnItem) -> Option<String> {
    Some(joined_code(&file.lines, f.sig_end, f.body_end?))
}

/// `oracle-width`: every `impl CostOracle for …` block must define
/// `fn width`. `cost-batch-guard`: every `fn cost_batch` body must
/// `debug_assert` something about `width`.
fn check_oracle_contract(file: &SourceFile, out: &mut LintOutcome) {
    let oracle_impls = file.items.impls.iter();
    for im in oracle_impls.filter(|im| im.trait_name.as_deref() == Some("CostOracle")) {
        let defines_width = file
            .items
            .fns
            .iter()
            .any(|f| f.name == "width" && (im.start..=im.end).contains(&f.sig_line));
        if !defines_width {
            emit(
                file,
                im.start,
                "oracle-width",
                format!(
                    "impl CostOracle for {} must define fn width() so every batch \
                     path can validate incoming row layouts",
                    im.self_ty
                ),
                out,
            );
        }
    }
    for f in file.items.fns.iter().filter(|f| f.name == "cost_batch") {
        let Some(body) = body_text(file, f) else {
            continue; // bodyless trait declaration
        };
        if !body.contains("debug_assert") || find_word(&body, "width").is_empty() {
            emit(
                file,
                f.sig_line,
                "cost-batch-guard",
                "fn cost_batch must debug_assert the incoming batch width against \
                 CostOracle::width() — the wrong-layout class is silent otherwise"
                    .to_string(),
                out,
            );
        }
    }
}

/// `pub fn` parameters like `platform: usize` outside `robopt-platforms`
/// should take `PlatformId` (the raw-index wraparound class of PR 1).
fn check_platform_params(file: &SourceFile, out: &mut LintOutcome) {
    for f in file.items.fns.iter().filter(|f| f.is_pub) {
        let sig = joined_code(&file.lines, f.sig_line, f.sig_end);
        // The parameter list: from the first `(` to its matching `)`.
        let Some((_, after)) = sig.split_once('(') else {
            continue;
        };
        let mut depth = 1usize;
        let close = after.find(|c: char| {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            depth == 0
        });
        let params = after.get(..close.unwrap_or(after.len())).unwrap_or("");
        for param in params.split(',') {
            let (name, ty) = param.split_once(':').unwrap_or((param, ""));
            let name = name.trim().trim_start_matches("mut ");
            if name.contains("platform")
                && !name.starts_with("n_")
                && name != "platforms"
                && !find_word(ty, "usize").is_empty()
            {
                emit(
                    file,
                    f.sig_line,
                    "platform-id",
                    format!(
                        "pub fn takes a raw `{name}: usize` platform index outside \
                         robopt-platforms; take PlatformId (or justify layout-level \
                         indices with lint:allow(platform-id))"
                    ),
                    out,
                );
            }
        }
    }
}

/// The crate whose `*Response` structs form the service wire contract.
const SERVICE_CRATE: &str = "robopt";

/// ISSUE 7 service contract: the wire protocol is hand-rendered (the
/// workspace is dependency-free, so there is no derive to keep struct and
/// JSON in sync). A field added to a `pub struct …Response` silently
/// vanishes from every served response unless the renderer is also
/// touched. This rule closes the gap mechanically: every `pub` field of a
/// `*Response` struct in the service crate must appear as a quoted
/// `"key"` inside that crate's non-test string literals.
fn check_response_fields(sources: &[SourceFile], out: &mut LintOutcome) {
    let service = || sources.iter().filter(|f| f.crate_name == SERVICE_CRATE);
    // Pool every literal the service crate can render (non-test lines:
    // a key mentioned only by a test must not mask a missing renderer).
    let mut pool = String::new();
    for f in service() {
        for (line, &in_test) in f.lines.iter().zip(&f.test_mask) {
            if !in_test {
                pool.push_str(&line.literal);
                pool.push('\n');
            }
        }
    }
    for f in service() {
        let responses = f.items.structs.iter();
        for s in responses.filter(|s| s.is_pub && s.name.ends_with("Response")) {
            let name = &s.name;
            for field in s.fields.iter().filter(|fld| fld.is_pub) {
                let key = &field.name;
                if pool.contains(&format!("\"{key}\"")) {
                    continue;
                }
                emit(
                    f,
                    field.line,
                    "response-serialize-total",
                    format!(
                        "field `{key}` of `{name}` never appears as a quoted \
                         \"{key}\" key in the {SERVICE_CRATE} crate's string \
                         literals: the hand-rendered wire protocol would drop it \
                         from every served response; render it (or justify an \
                         internal-only field with \
                         lint:allow(response-serialize-total))"
                    ),
                    out,
                );
            }
        }
    }
}

/// ISSUE 9 cache soundness: a crate that derives cache keys (`fn
/// signature`) and carries a `risk` field on some struct must fold the
/// policy into the key — otherwise a risk-aware request can replay a
/// cache entry computed under a different policy, byte for byte. The rule
/// is per crate: every struct field named exactly `risk` is a violation
/// unless some non-test `fn signature` body in the same crate reads the
/// word `risk` (or the crate has no cache-key fn at all, in which case
/// there is no key to desynchronize).
fn check_risk_cache_key(sources: &[SourceFile], out: &mut LintOutcome) {
    // Pass 1: which crates have cache-key fns, and do any hash `risk`?
    let mut with_sig: BTreeSet<&str> = BTreeSet::new();
    let mut hashing: BTreeSet<&str> = BTreeSet::new();
    for f in sources {
        let key_fns = f.items.fns.iter();
        for key_fn in key_fns.filter(|k| k.name == "signature" && !k.in_test) {
            with_sig.insert(&f.crate_name);
            // A trait declaration has no body: the impls carry them.
            if body_text(f, key_fn).is_some_and(|b| !find_word(&b, "risk").is_empty()) {
                hashing.insert(&f.crate_name);
            }
        }
    }
    // Pass 2: every `risk` struct field in a crate whose cache-key fns
    // never read the policy.
    for f in sources {
        let name = f.crate_name.as_str();
        if !with_sig.contains(name) || hashing.contains(name) {
            continue;
        }
        for field in f.items.structs.iter().flat_map(|s| &s.fields) {
            let in_test = f.test_mask.get(field.line).copied().unwrap_or(false);
            if field.name == "risk" && !in_test {
                emit(
                    f,
                    field.line,
                    "risk-policy-cache-key",
                    format!(
                        "struct field `risk` in crate `{name}` whose cache-key fn \
                         (`fn signature`) never reads the policy: a risk-aware \
                         request could replay a cache entry computed under a \
                         different policy; hash the policy into the signature \
                         (or justify a key-irrelevant field with \
                         lint:allow(risk-policy-cache-key))"
                    ),
                    out,
                );
            }
        }
    }
}

/// Only `path =` / `workspace = true` dependencies may appear in any
/// dependency section: the build image has no registry access.
fn check_manifest(tf: &TextFile, out: &mut LintOutcome) {
    let mut in_deps = false;
    for (li, raw) in tf.text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = line.trim_end_matches(']').ends_with("dependencies");
            continue;
        }
        if !in_deps || line.is_empty() || !line.contains('=') {
            continue;
        }
        if !(line.contains("workspace") || line.contains("path")) {
            out.violations.push(Diagnostic::new(
                tf.rel.clone(),
                li + 1,
                "workspace-deps",
                format!(
                    "`{line}` pulls a dependency from outside the workspace; the build \
                     image is offline — keep the workspace dependency-free (in-tree \
                     stand-ins, see Cargo.toml NOTE)"
                ),
            ));
        }
    }
}

/// Where artifact writers live: the experiment binaries and the lint's
/// own report writer.
const PRODUCER_DIRS: [&str; 2] = ["crates/bench/src/bin/", "crates/lint/src/"];

/// Every filename-shaped token inside a string literal of non-test
/// producer code — the names some binary can actually write.
fn produced_artifacts(sources: &[SourceFile]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for f in sources {
        if !PRODUCER_DIRS.iter().any(|dir| f.rel.starts_with(dir)) {
            continue;
        }
        for (line, &in_test) in f.lines.iter().zip(&f.test_mask) {
            if !in_test {
                names.extend(
                    line.literal
                        .split(|c| !is_artifact_char(c))
                        .filter(|tok| tok.contains('.')),
                );
            }
        }
    }
    names
}

/// Artifact paths referenced by the docs must have a producer: a file on
/// disk that no binary writes is a placeholder, not a result.
fn check_doc(produced: &BTreeSet<&str>, tf: &TextFile, out: &mut LintOutcome) {
    for (li, line) in tf.text.lines().enumerate() {
        for path in artifact_refs(line) {
            let name = path.rsplit('/').next().unwrap_or(&path);
            if !produced.contains(name) {
                out.violations.push(Diagnostic::new(
                    tf.rel.clone(),
                    li + 1,
                    "artifact-exists",
                    format!(
                        "referenced artifact `{path}` has no producer: no binary under \
                         {PRODUCER_DIRS:?} names `{name}` in a string literal"
                    ),
                ));
            }
        }
    }
}

/// Filename-ish character for artifact reference extraction.
fn is_artifact_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '.' | '_' | '-' | '*')
}

/// Extract `EXPERIMENTS_OUTPUT/<file>` and `BENCH_<name>.json` references.
/// Glob references (containing `*`) are skipped — they are patterns, not
/// file claims.
fn artifact_refs(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let prefix = "EXPERIMENTS_OUTPUT/";
    let mut start = 0usize;
    while let Some(pos) = line.get(start..).and_then(|s| s.find(prefix)) {
        let at = start + pos + prefix.len();
        let name: String = line
            .get(at..)
            .unwrap_or("")
            .chars()
            .take_while(|&c| is_artifact_char(c))
            .collect();
        let name = name.trim_end_matches('.');
        if !name.is_empty() && !name.contains('*') {
            out.push(format!("{prefix}{name}"));
        }
        start = at;
    }
    let mut start = 0usize;
    while let Some(pos) = line.get(start..).and_then(|s| s.find("BENCH_")) {
        let at = start + pos;
        let boundary_ok = line[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let name: String = line
            .get(at..)
            .unwrap_or("")
            .chars()
            .take_while(|&c| is_artifact_char(c))
            .collect();
        let name = name.trim_end_matches('.').to_string();
        if boundary_ok && name.ends_with(".json") && !name.contains('*') {
            out.push(name);
        }
        start = at + "BENCH_".len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::workspace::{classify, compute_test_mask};

    /// Build a fixture [`SourceFile`] as if it lived in `crates/<name>/src/`.
    fn fixture(crate_name: &str, src: &str) -> SourceFile {
        let lines = scan(src);
        let test_mask = compute_test_mask(&lines);
        let items = crate::parser::parse_file(&lines, &test_mask);
        let fn_sigs = crate::parser::enclosing_fn_sig(&items, lines.len());
        SourceFile {
            rel: format!("crates/{crate_name}/src/fixture.rs"),
            crate_name: crate_name.to_string(),
            class: classify(crate_name),
            is_binary: false,
            is_crate_root: false,
            lines,
            test_mask,
            items,
            fn_sigs,
        }
    }

    fn lint(crate_name: &str, src: &str) -> LintOutcome {
        let f = fixture(crate_name, src);
        let mut out = LintOutcome::default();
        check_source(&f, &mut out);
        out.sort();
        out
    }

    fn rule_hits(out: &LintOutcome) -> Vec<&'static str> {
        out.violations.iter().map(|d| d.rule).collect()
    }

    // -- both token families, end to end ---------------------------------

    /// DESIGN §13's subsumption argument on inputs: a token of either
    /// family fails the run at its own line however many calls sit between
    /// it and the public entry point, in every product library crate.
    #[test]
    fn every_family_token_is_caught_at_its_own_line_however_deep() {
        let table: &[(&str, &str)] = &[
            ("panic-unwrap", "let _ = x.unwrap();"),
            ("panic-expect", "let _ = x.expect(\"set by ctor\");"),
            ("panic-macro", "panic!(\"boom\");"),
            ("panic-macro", "unreachable!();"),
            ("panic-macro", "todo!();"),
            ("panic-macro", "unimplemented!();"),
            ("index-literal", "let _ = v[0];"),
            ("wall-clock", "let _ = std::time::Duration::ZERO;"),
            ("wall-clock", "let _ = SystemTime::UNIX_EPOCH;"),
            ("wall-clock", "let _ = Instant::now();"),
            ("wall-clock", "let _ = thread::current().id();"),
            ("wall-clock", "let _ = thread::available_parallelism();"),
            ("wall-clock", "let _ = env::var(\"HOME\");"),
            ("wall-clock", "let _ = env::args();"),
            ("wall-clock", "let _ = env::vars();"),
            ("wall-clock", "let _ = fs::read(p);"),
            ("wall-clock", "let _ = file.read_to_string(&mut s);"),
            ("wall-clock", "let _ = path.read_dir();"),
            ("wall-clock", "let _ = File::open(p);"),
            ("wall-clock", "let _ = File::create(p);"),
            ("wall-clock", "let _ = io::stdin();"),
            ("hash-container", "let _ = HashMap::<u8, u8>::new();"),
            ("hash-container", "let _ = HashSet::<u8>::new();"),
            ("hash-container", "let _ = RandomState::new();"),
        ];
        let hits = |out: &LintOutcome| -> Vec<(&'static str, usize)> {
            out.violations.iter().map(|d| (d.rule, d.line)).collect()
        };
        for &(rule, stmt) in table {
            let leaf = |above_fn: &str, above_stmt: &str| {
                format!(
                    "pub fn entry() {{\n    mid();\n}}\nfn mid() {{\n    leaf();\n}}\n\
                     {above_fn}fn leaf() {{\n{above_stmt}    {stmt}\n}}\n"
                )
            };
            // Two calls below the `pub fn`: the owning rule, the token's line.
            for krate in [
                "core",
                "engine",
                "plan",
                "baselines",
                "robopt",
                "robopt-repro",
            ] {
                let out = lint(krate, &leaf("", ""));
                assert_eq!(hits(&out), vec![(rule, 8)], "{krate}: {stmt}");
            }
            // Text, not code: strings and comments never fire.
            let quoted =
                format!("pub fn f() -> &'static str {{\n    // {stmt}\n    r#\"{stmt}\"#\n}}\n");
            assert!(lint("core", &quoted).violations.is_empty(), "{stmt}");
            // Tests may panic, so the panic family is masked under
            // `#[cfg(test)]`; the determinism family is not — an expected
            // value built from a HashMap walk or a clock is a flaky test.
            let in_test =
                format!("#[cfg(test)]\nmod tests {{\n    fn t() {{\n        {stmt}\n    }}\n}}\n");
            let panic_family = rule.starts_with("panic") || rule == "index-literal";
            let expected = if panic_family {
                vec![]
            } else {
                vec![(rule, 4)]
            };
            assert_eq!(hits(&lint("core", &in_test)), expected, "{stmt}");
            // A justified allow of the owning rule — on the line above the
            // token or above the enclosing fn — audits the site instead.
            let allow = format!("// lint:allow({rule}) fixture: justified\n");
            for src in [leaf("", &format!("    {allow}")), leaf(&allow, "")] {
                let out = lint("core", &src);
                assert!(out.violations.is_empty(), "{stmt}: {:?}", out.violations);
                assert_eq!(out.allowed.len(), 1, "{stmt}");
                assert_eq!(out.allowed.first().map(|a| a.rule), Some(rule));
            }
        }
    }

    // -- hash-container -------------------------------------------------

    #[test]
    fn hash_container_fires_in_determinism_crates_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rule_hits(&lint("core", src)), vec!["hash-container"]);
        assert!(rule_hits(&lint("lint", src)).is_empty());
        assert!(rule_hits(&lint("cli", src)).is_empty());
    }

    #[test]
    fn hash_container_ignores_strings_and_comments() {
        let src = "// a HashMap would be wrong here\npub fn f() -> &'static str { \"HashMap\" }\n";
        assert!(rule_hits(&lint("core", src)).is_empty());
    }

    #[test]
    fn hash_container_allow_is_recorded_not_violated() {
        let src = "// lint:allow(hash-container) lookup-only, never iterated\nuse std::collections::HashMap;\n";
        let out = lint("core", src);
        assert!(out.violations.is_empty());
        assert_eq!(out.allowed.len(), 1);
        assert_eq!(out.allowed.first().map(|a| a.rule), Some("hash-container"));
        assert!(out
            .allowed
            .first()
            .is_some_and(|a| a.justification.contains("lookup-only")));
    }

    // -- wall-clock -----------------------------------------------------

    #[test]
    fn wall_clock_fires_in_libraries_not_bench() {
        let src = "pub fn t() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(
            rule_hits(&lint("plan", src)),
            vec!["wall-clock"],
            "one hit per line"
        );
        assert_eq!(rule_hits(&lint("lint", src)), vec!["wall-clock"]);
        assert!(rule_hits(&lint("bench", src)).is_empty());
        // The lint's own input is the source tree and argv: the
        // ambient-input tokens bind the product libraries only.
        let ambient = "pub fn t(p: &Path) { let _ = std::fs::read_to_string(p); }\n";
        assert_eq!(rule_hits(&lint("robopt", ambient)), vec!["wall-clock"]);
        assert!(rule_hits(&lint("lint", ambient)).is_empty());
    }

    // -- panic rules ----------------------------------------------------

    #[test]
    fn unwrap_fires_outside_tests_only() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rule_hits(&lint("plan", src)), vec!["panic-unwrap"]);
        let masked = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(rule_hits(&lint("plan", masked)).is_empty());
    }

    #[test]
    fn unwrap_in_exempt_crates_is_fine() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(rule_hits(&lint("cli", src)).is_empty());
    }

    #[test]
    fn expect_requires_justification() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"set by ctor\") }\n";
        assert_eq!(rule_hits(&lint("ml", src)), vec!["panic-expect"]);
        let allowed = "// lint:allow(panic-expect) ctor always sets the field\npub fn f(x: Option<u32>) -> u32 { x.expect(\"set by ctor\") }\n";
        let out = lint("ml", allowed);
        assert!(out.violations.is_empty());
        assert_eq!(out.allowed.len(), 1);
    }

    #[test]
    fn allow_with_empty_justification_does_not_suppress() {
        let src = "// lint:allow(panic-unwrap)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rule_hits(&lint("plan", src)), vec!["panic-unwrap"]);
    }

    #[test]
    fn panic_macro_fires_but_not_in_strings_or_asserts() {
        assert_eq!(
            rule_hits(&lint("core", "pub fn f() { panic!(\"boom\"); }\n")),
            vec!["panic-macro"]
        );
        assert!(rule_hits(&lint("core", "pub fn f() -> &'static str { \"panic!\" }\n")).is_empty());
        assert!(rule_hits(&lint(
            "core",
            "pub fn f(n: usize) { debug_assert!(n > 0); }\n"
        ))
        .is_empty());
    }

    #[test]
    fn literal_index_fires_but_slice_types_do_not() {
        assert_eq!(
            rule_hits(&lint("vector", "pub fn f(v: &[u32]) -> u32 { v[0] }\n")),
            vec!["index-literal"]
        );
        assert!(rule_hits(&lint(
            "vector",
            "pub fn f(v: &[u32], i: usize) -> u32 { v[i] }\n"
        ))
        .is_empty());
        assert!(rule_hits(&lint(
            "vector",
            "pub const W: [f64; 3] = [1.0, 2.0, 3.0];\n"
        ))
        .is_empty());
    }

    // -- float-total-order ----------------------------------------------

    #[test]
    fn partial_cmp_unwrap_is_flagged() {
        let src = "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let hits = rule_hits(&lint("ml", src));
        assert!(hits.contains(&"float-total-order"), "{hits:?}");
        let expected =
            "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\")); }\n";
        assert!(rule_hits(&lint("ml", expected)).contains(&"float-total-order"));
    }

    #[test]
    fn hand_rolled_less_than_comparator_is_flagged() {
        let src = "pub fn s(v: &mut [f64]) {\n    v.sort_by(|a, b| if a < b { Less } else { Greater });\n}\n";
        assert_eq!(rule_hits(&lint("core", src)), vec!["float-total-order"]);
    }

    #[test]
    fn total_cmp_sorts_and_exempt_crates_pass() {
        let good = "pub fn s(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n";
        assert!(rule_hits(&lint("ml", good)).is_empty());
        // Comparing through partial_cmp without unwrapping is fine too.
        let propagated = "pub fn m(a: f64, b: f64) -> Option<Ordering> { a.partial_cmp(&b) }\n";
        assert!(rule_hits(&lint("ml", propagated)).is_empty());
        let bench = "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert!(rule_hits(&lint("bench", bench)).is_empty());
    }

    // -- fn-level lint:allow placement ----------------------------------

    #[test]
    fn allow_on_the_enclosing_fn_signature_covers_the_whole_body() {
        let src = "// lint:allow(panic-unwrap) fixture: both inputs set by the ctor\n\
                   pub fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n\
                   \x20   let a = x.unwrap();\n\
                   \x20   let b = y.unwrap();\n\
                   \x20   a + b\n\
                   }\n";
        let out = lint("plan", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.allowed.len(), 2, "one audited suppression per line");
        assert!(out.allowed.iter().all(|a| a.rule == "panic-unwrap"));
    }

    #[test]
    fn allow_on_the_signature_line_itself_works_too() {
        let src = "pub fn f(x: Option<u32>) -> u32 { // lint:allow(panic-unwrap) ctor invariant\n\
                   \x20   x.unwrap()\n\
                   }\n";
        let out = lint("plan", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.allowed.len(), 1);
    }

    #[test]
    fn fn_level_allow_does_not_leak_past_the_fn_body() {
        let src = "// lint:allow(panic-unwrap) fixture: covered fn only\n\
                   pub fn covered(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   pub fn uncovered(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let out = lint("plan", src);
        assert_eq!(rule_hits(&out), vec!["panic-unwrap"]);
        assert!(out.violations.first().is_some_and(|d| d.line == 3));
        assert_eq!(out.allowed.len(), 1);
    }

    // -- thread-spawn-join ----------------------------------------------

    #[test]
    fn detached_thread_spawn_is_flagged() {
        let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
        assert_eq!(rule_hits(&lint("ml", src)), vec!["thread-spawn-join"]);
        // Returning the handle escapes the scope: still a violation here
        // (the caller may drop it); justify deliberate detachment.
        let escaped =
            "pub fn f() -> std::thread::JoinHandle<()> {\n    std::thread::spawn(|| {})\n}\n";
        assert_eq!(rule_hits(&lint("ml", escaped)), vec!["thread-spawn-join"]);
    }

    #[test]
    fn joined_thread_spawn_passes() {
        let src =
            "pub fn f() {\n    let h = std::thread::spawn(|| {});\n    let _ = h.join();\n}\n";
        assert!(rule_hits(&lint("ml", src)).is_empty());
        // Join may happen in a nested block of the same scope.
        let nested =
            "pub fn f() {\n    let h = std::thread::spawn(|| {});\n    { let _ = h.join(); }\n}\n";
        assert!(rule_hits(&lint("ml", nested)).is_empty());
    }

    #[test]
    fn scoped_threads_pass_and_strings_do_not_fire() {
        let src =
            "pub fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n}\n";
        assert!(rule_hits(&lint("ml", src)).is_empty());
        let s = "pub fn f() -> &'static str { \"thread::spawn\" }\n";
        assert!(rule_hits(&lint("ml", s)).is_empty());
    }

    #[test]
    fn engine_crate_is_covered_by_thread_spawn_join() {
        // The execution engine is determinism-class: a detached spawn
        // there is exactly the kind of nondeterminism the rule exists
        // to catch.
        let detached = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
        assert_eq!(
            rule_hits(&lint("engine", detached)),
            vec!["thread-spawn-join"]
        );
        // The engine's actual idiom — scoped workers joined at the end
        // of `std::thread::scope` — must keep passing.
        let scoped = "pub fn run() {\n    std::thread::scope(|s| {\n        for _ in 0..4 {\n            s.spawn(|| {});\n        }\n    });\n}\n";
        assert!(rule_hits(&lint("engine", scoped)).is_empty());
    }

    #[test]
    fn thread_spawn_join_respects_allow_and_exemptions() {
        let allowed = "// lint:allow(thread-spawn-join) fire-and-forget logger, joined at shutdown\npub fn f() { std::thread::spawn(|| {}); }\n";
        let out = lint("ml", allowed);
        assert!(out.violations.is_empty());
        assert_eq!(out.allowed.len(), 1);
        let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
        assert!(rule_hits(&lint("bench", src)).is_empty());
    }

    // -- contract rules -------------------------------------------------

    #[test]
    fn cost_oracle_impl_must_define_width() {
        let bad = "impl CostOracle for Flat {\n    fn cost_row(&self, r: &[f64]) -> f64 { r.len() as f64 }\n}\n";
        assert_eq!(rule_hits(&lint("engine", bad)), vec!["oracle-width"]);
        let good = "impl CostOracle for Flat {\n    fn width(&self) -> usize { 4 }\n}\n";
        assert!(rule_hits(&lint("engine", good)).is_empty());
        let unrelated = "impl Flat {\n    fn helper(&self) -> usize { 4 }\n}\n";
        assert!(rule_hits(&lint("engine", unrelated)).is_empty());
    }

    #[test]
    fn cost_batch_override_needs_width_guard() {
        let bad =
            "fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {\n    out.clear();\n}\n";
        assert_eq!(rule_hits(&lint("engine", bad)), vec!["cost-batch-guard"]);
        let good = "fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {\n    debug_assert_eq!(rows.width, self.width());\n    out.clear();\n}\n";
        assert!(rule_hits(&lint("engine", good)).is_empty());
        let decl = "fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>);\n";
        assert!(rule_hits(&lint("engine", decl)).is_empty());
    }

    #[test]
    fn raw_platform_usize_params_are_flagged() {
        let bad = "pub fn cost(platform: usize) -> f64 { platform as f64 }\n";
        assert_eq!(rule_hits(&lint("engine", bad)), vec!["platform-id"]);
        // Counts, typed ids, private fns, and robopt-platforms itself are fine.
        assert!(rule_hits(&lint("engine", "pub fn with(n_platforms: usize) {}\n")).is_empty());
        assert!(rule_hits(&lint(
            "engine",
            "pub fn cost(platform: PlatformId) -> f64 { 0.0 }\n"
        ))
        .is_empty());
        assert!(rule_hits(&lint(
            "engine",
            "fn cost(platform: usize) -> f64 { platform as f64 }\n"
        ))
        .is_empty());
        assert!(rule_hits(&lint("platforms", bad)).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(rule_hits(&lint("engine", bad)), vec!["safety-comment"]);
        let good = "// SAFETY: caller guarantees p is valid for reads\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(rule_hits(&lint("engine", good)).is_empty());
    }

    #[test]
    fn crate_roots_must_carry_both_attrs() {
        let mut f = fixture("plan", "//! docs\npub mod x;\n");
        f.is_crate_root = true;
        let mut out = LintOutcome::default();
        check_source(&f, &mut out);
        assert_eq!(rule_hits(&out), vec!["crate-attrs", "crate-attrs"]);

        let mut f = fixture(
            "plan",
            "#![forbid(unsafe_code)]\n#![deny(missing_debug_implementations)]\npub mod x;\n",
        );
        f.is_crate_root = true;
        let mut out = LintOutcome::default();
        check_source(&f, &mut out);
        assert!(out.violations.is_empty());
    }

    // -- response-serialize-total ---------------------------------------

    fn lint_response(files: &[(&str, &str)]) -> LintOutcome {
        let sources: Vec<SourceFile> = files.iter().map(|(name, src)| fixture(name, src)).collect();
        let mut out = LintOutcome::default();
        check_response_fields(&sources, &mut out);
        out.sort();
        out
    }

    #[test]
    fn response_fields_rendered_as_json_keys_pass() {
        let api = "pub struct PingResponse {\n    pub seconds: f64,\n    pub feasible: bool,\n}\n";
        let wire = "pub fn render() -> String {\n    format!(\"{{\\\"seconds\\\":{},\\\"feasible\\\":{}}}\", 1, true)\n}\n";
        let out = lint_response(&[("robopt", api), ("robopt", wire)]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn unrendered_response_field_is_flagged() {
        let api = "pub struct PingResponse {\n    pub seconds: f64,\n    pub forgotten: u64,\n}\n";
        let wire = "pub fn render() -> String { String::from(\"{\\\"seconds\\\":0}\") }\n";
        let out = lint_response(&[("robopt", api), ("robopt", wire)]);
        assert_eq!(rule_hits(&out), vec!["response-serialize-total"]);
        assert!(out
            .violations
            .first()
            .is_some_and(|d| d.message.contains("forgotten") && d.line == 3));
    }

    #[test]
    fn response_rule_ignores_other_crates_tests_and_non_response_structs() {
        // Same shape outside the service crate: out of scope.
        let api = "pub struct PingResponse {\n    pub forgotten: u64,\n}\n";
        assert!(lint_response(&[("core", api)]).violations.is_empty());
        // A key mentioned only inside #[cfg(test)] must not count as rendered.
        let test_only = "pub struct PingResponse {\n    pub seconds: f64,\n}\n#[cfg(test)]\nmod tests {\n    const T: &str = \"\\\"seconds\\\":1\";\n}\n";
        assert_eq!(
            rule_hits(&lint_response(&[("robopt", test_only)])),
            vec!["response-serialize-total"]
        );
        // Request structs carry no rendering obligation.
        let req = "pub struct PingRequest {\n    pub unrendered: u64,\n}\n";
        assert!(lint_response(&[("robopt", req)]).violations.is_empty());
    }

    #[test]
    fn response_rule_respects_lint_allow() {
        let api = "pub struct PingResponse {\n    // lint:allow(response-serialize-total) internal bookkeeping, not wire-visible\n    pub internal: u64,\n}\n";
        let out = lint_response(&[("robopt", api)]);
        assert!(out.violations.is_empty());
        assert_eq!(out.allowed.len(), 1);
        assert_eq!(
            out.allowed.first().map(|a| a.rule),
            Some("response-serialize-total")
        );
    }

    // -- risk-policy-cache-key ------------------------------------------

    fn lint_risk(files: &[(&str, &str)]) -> LintOutcome {
        let sources: Vec<SourceFile> = files.iter().map(|(name, src)| fixture(name, src)).collect();
        let mut out = LintOutcome::default();
        check_risk_cache_key(&sources, &mut out);
        out.sort();
        out
    }

    #[test]
    fn risk_field_hashed_into_the_signature_passes() {
        let src = "pub struct Req {\n    pub risk: Option<RiskPolicy>,\n}\nimpl Req {\n    pub fn signature(&self) -> u64 {\n        let _ = self.risk;\n        0\n    }\n}\n";
        let out = lint_risk(&[("robopt", src)]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // The hashing fn may live in a sibling file of the same crate.
        let api = "pub struct Req {\n    pub risk: u8,\n}\n";
        let keys = "pub fn signature(r: &Req) -> u64 { r.risk as u64 }\n";
        assert!(lint_risk(&[("robopt", api), ("robopt", keys)])
            .violations
            .is_empty());
    }

    #[test]
    fn unhashed_risk_field_next_to_a_cache_key_fn_is_flagged() {
        let src = "pub struct Req {\n    pub risk: u8,\n}\nimpl Req {\n    pub fn signature(&self) -> u64 { 0 }\n}\n";
        let out = lint_risk(&[("robopt", src)]);
        assert_eq!(rule_hits(&out), vec!["risk-policy-cache-key"]);
        assert!(out
            .violations
            .first()
            .is_some_and(|d| d.line == 2 && d.message.contains("cache-key")));
        // Private fields are cache state too.
        let private = "struct Opts {\n    risk: u8,\n}\nfn signature() -> u64 { 0 }\n";
        assert_eq!(
            rule_hits(&lint_risk(&[("robopt", private)])),
            vec!["risk-policy-cache-key"]
        );
    }

    #[test]
    fn risk_field_without_a_cache_key_fn_is_fine() {
        // No `fn signature` in the crate: nothing to desynchronize (the
        // core enumerator's EnumOptions carries risk but derives no keys).
        let src = "pub struct Opts {\n    risk: RiskPolicy,\n}\n";
        assert!(lint_risk(&[("core", src)]).violations.is_empty());
        // A test-only signature fn mentioning risk must not mask a real
        // non-hashing key fn.
        let masked = "pub struct Req {\n    pub risk: u8,\n}\nfn signature() -> u64 { 0 }\n#[cfg(test)]\nmod tests {\n    fn signature(risk: u8) -> u64 { risk as u64 }\n}\n";
        assert_eq!(
            rule_hits(&lint_risk(&[("robopt", masked)])),
            vec!["risk-policy-cache-key"]
        );
    }

    #[test]
    fn risk_cache_key_rule_respects_lint_allow() {
        let src = "pub struct Req {\n    // lint:allow(risk-policy-cache-key) display-only echo, never keyed\n    pub risk: u8,\n}\nfn signature() -> u64 { 0 }\n";
        let out = lint_risk(&[("robopt", src)]);
        assert!(out.violations.is_empty());
        assert_eq!(
            out.allowed.first().map(|a| a.rule),
            Some("risk-policy-cache-key")
        );
    }

    // -- manifests and docs ---------------------------------------------

    #[test]
    fn non_workspace_deps_are_flagged() {
        let tf = TextFile {
            rel: "crates/x/Cargo.toml".to_string(),
            text: "[package]\nname = \"x\"\n[dependencies]\nserde = \"1.0\"\nrobopt-plan = { workspace = true }\n[dev-dependencies]\nrand = { version = \"0.8\" }\n".to_string(),
        };
        let mut out = LintOutcome::default();
        check_manifest(&tf, &mut out);
        let lines: Vec<usize> = out.violations.iter().map(|d| d.line).collect();
        assert_eq!(rule_hits(&out), vec!["workspace-deps", "workspace-deps"]);
        assert_eq!(lines, vec![4, 7]);
    }

    #[test]
    fn artifacts_without_a_producer_are_flagged_globs_skipped() {
        // A binary that writes two artifacts, and a test module that only
        // *mentions* a third: test code is not a producer.
        let mut bin = fixture(
            "bench",
            "fn main() {\n    write(root.join(\"EXPERIMENTS_OUTPUT/fig01.txt\"));\n    \
             write(root.join(\"BENCH_fig01.json\")).expect(\"write BENCH_fig01.json\");\n}\n\
             #[cfg(test)]\nmod tests {\n    const P: &str = \"EXPERIMENTS_OUTPUT/placeholder.txt\";\n}\n",
        );
        bin.rel = "crates/bench/src/bin/fig01.rs".to_string();
        // The same literal outside the producer directories does not count.
        let lib = fixture(
            "core",
            "const P: &str = \"EXPERIMENTS_OUTPUT/placeholder.txt\";\n",
        );
        let sources = [bin, lib];
        let produced = produced_artifacts(&sources);

        let tf = TextFile {
            rel: "EXPERIMENTS.md".to_string(),
            text: "raw table in EXPERIMENTS_OUTPUT/fig01.txt, JSON in BENCH_fig01.json\n\
                   committed by hand: EXPERIMENTS_OUTPUT/placeholder.txt (also EXPERIMENTS_OUTPUT/*.txt)\n"
                .to_string(),
        };
        let mut out = LintOutcome::default();
        check_doc(&produced, &tf, &mut out);
        assert_eq!(rule_hits(&out), vec!["artifact-exists"]);
        let hit = out.violations.first().expect("one violation");
        assert_eq!(hit.line, 2);
        assert!(hit.message.contains("placeholder.txt"), "{}", hit.message);
    }

    #[test]
    fn artifact_refs_extraction() {
        assert_eq!(
            artifact_refs("see EXPERIMENTS_OUTPUT/fig01.json. done"),
            vec!["EXPERIMENTS_OUTPUT/fig01.json"]
        );
        assert_eq!(
            artifact_refs("BENCH_enum_fast.json vs WORKBENCH_x.json"),
            vec!["BENCH_enum_fast.json"]
        );
        assert!(artifact_refs("model-*.json under EXPERIMENTS_OUTPUT/*.txt").is_empty());
    }
}
