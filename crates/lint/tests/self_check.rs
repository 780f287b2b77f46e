//! The lint must pass over the workspace it ships in: a violation here
//! means either the tree regressed or a rule got too eager — both block CI.
//!
//! The fixture workspaces under `tests/fixtures/` run the lint end-to-end
//! on disk: `taint_bad` hides a nondeterminism source and a panic site two
//! calls below public entry points and must fail at exactly those two
//! source lines; `taint_good` is the same tree with justified
//! source-level allows and must pass — including its `CHANGES.md`, a
//! history file that names an artifact no binary writes any more.

use std::path::{Path, PathBuf};

/// Ceiling on justified suppressions in the real workspace: the measured
/// count. Raising this number is a reviewed decision — fix the source
/// first, and argue the new `lint:allow` in review if it cannot be fixed.
const SUPPRESSION_BUDGET: usize = 29;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn workspace_is_lint_clean() {
    let outcome = robopt_lint::run_lint(&repo_root()).expect("workspace loads");
    let rendered: Vec<String> = outcome.violations.iter().map(|d| d.to_string()).collect();
    assert!(
        outcome.is_clean(),
        "robopt-lint found violations in the real workspace:\n{}",
        rendered.join("\n")
    );
    // The sweep really covered the tree (root facade + 10 crates), and
    // every suppression in it carries a non-empty justification.
    assert!(
        outcome.files_scanned > 40,
        "only {} files scanned — discovery is broken",
        outcome.files_scanned
    );
    assert!(!outcome.allowed.is_empty());
    assert!(outcome.allowed.iter().all(|a| !a.justification.is_empty()));
}

#[test]
fn suppressions_stay_within_budget() {
    let outcome = robopt_lint::run_lint(&repo_root()).expect("workspace loads");
    assert!(
        outcome.allowed.len() <= SUPPRESSION_BUDGET,
        "{} justified suppressions exceed the committed budget of {} — fix the \
         new source, or argue its allow in review and raise the budget",
        outcome.allowed.len(),
        SUPPRESSION_BUDGET
    );
}

#[test]
fn buried_sources_fail_at_their_own_lines() {
    let outcome = robopt_lint::run_lint(&fixture_root("taint_bad")).expect("fixture loads");
    let hits: Vec<(&str, usize, &str)> = outcome
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule))
        .collect();
    assert_eq!(
        hits,
        vec![
            ("crates/core/src/lib.rs", 17, "wall-clock"),
            ("src/lib.rs", 17, "panic-unwrap"),
        ]
    );
    let det = outcome.violations.first().expect("two violations");
    assert!(det.message.contains("available_parallelism"), "{det}");
}

#[test]
fn justified_sources_clear_the_fixture() {
    let outcome = robopt_lint::run_lint(&fixture_root("taint_good")).expect("fixture loads");
    let rendered: Vec<String> = outcome.violations.iter().map(|d| d.to_string()).collect();
    assert!(
        outcome.is_clean(),
        "source-level allows did not clear the fixture:\n{}",
        rendered.join("\n")
    );
    // Both allows were actually exercised and audited.
    let audited: Vec<&str> = outcome.allowed.iter().map(|a| a.rule).collect();
    assert_eq!(audited, vec!["wall-clock", "panic-unwrap"]);
}

#[test]
fn artifact_exists_reads_the_live_index_not_the_history() {
    // `taint_good` passes (above) although its CHANGES.md names a
    // producer-less artifact: history is not loaded as a doc.
    let root = fixture_root("taint_good");
    let mut ws = robopt_lint::workspace::load(&root).expect("fixture loads");
    assert!(ws.docs.is_empty(), "the fixture has no EXPERIMENTS.md");
    // The same sentence in the live index is a claim, and still fails.
    let text = std::fs::read_to_string(root.join("CHANGES.md")).expect("history fixture");
    assert!(text.contains("BENCH_long_gone.json"));
    ws.docs.push(robopt_lint::workspace::TextFile {
        rel: "EXPERIMENTS.md".to_string(),
        text,
    });
    let outcome = robopt_lint::check(&ws);
    let hits: Vec<(&str, &str)> = outcome
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.rule))
        .collect();
    assert_eq!(
        hits,
        vec![
            ("EXPERIMENTS.md", "artifact-exists"),
            ("EXPERIMENTS.md", "artifact-exists")
        ]
    );
}
