//! The lint must pass over the workspace it ships in: a violation here
//! means either the tree regressed or a rule got too eager — both block CI.
//!
//! The fixture workspaces under `tests/fixtures/` exercise the
//! interprocedural passes end-to-end on disk: `taint_bad` hides a
//! nondeterminism source and a panic site two calls behind declared
//! surface entry points and must be flagged with full witness paths;
//! `taint_good` is the same tree with justified source-level allows and
//! must pass.

use std::path::{Path, PathBuf};

/// Ceiling on justified suppressions in the real workspace. Raising this
/// number is a reviewed decision: every new `lint:allow` must argue why
/// the call-graph passes cannot prove the site safe.
const SUPPRESSION_BUDGET: usize = 30;

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
    let (outcome, _) = robopt_lint::run_lint_graph(&repo_root()).expect("workspace loads");
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
        "{} justified suppressions exceed the committed budget of {} — either \
         delete an allow the interprocedural passes prove unnecessary, or argue \
         the new one in review and raise the budget",
        outcome.allowed.len(),
        SUPPRESSION_BUDGET
    );
}

#[test]
fn call_graph_covers_the_workspace() {
    let (outcome, graph) = robopt_lint::run_lint_graph(&repo_root()).expect("workspace loads");
    let s = &outcome.graph;
    assert!(
        s.functions >= 300,
        "call graph resolved only {} functions — parser coverage regressed",
        s.functions
    );
    assert!(
        s.crates >= 10,
        "call graph spans only {} crates — discovery regressed",
        s.crates
    );
    assert!(s.edges > s.functions, "suspiciously sparse call graph");
    assert_eq!(graph.summary().functions, s.functions);
    // The declared surfaces are non-empty: the optimizer facade and the
    // execution seam both mark entry points.
    assert!(s.deterministic_roots >= 1, "no deterministic surface found");
    assert!(s.no_panic_roots >= 1, "no no-panic surface found");
}

#[test]
fn taint_fixture_is_flagged_with_full_witness_paths() {
    let outcome = robopt_lint::run_lint(&fixture_root("taint_bad")).expect("fixture loads");
    // Every interprocedural violation must carry its witness chain.
    for v in outcome
        .violations
        .iter()
        .filter(|v| v.rule == "determinism-taint" || v.rule == "panic-reachability")
    {
        assert!(
            v.witness.len() >= 2,
            "{}: interprocedural violation without a witness path",
            v
        );
    }

    let det = outcome
        .violations
        .iter()
        .find(|v| v.rule == "determinism-taint")
        .expect("deterministic entry point two calls above the source is flagged");
    assert!(det.file.ends_with("crates/core/src/lib.rs"));
    // entry -> helper_mid -> helper_leaf -> source token: the whole chain.
    assert_eq!(det.witness.len(), 4, "witness: {:?}", det.witness);
    assert!(det.witness[0].contains("entry"));
    assert!(det.witness[1].contains("helper_mid"));
    assert!(det.witness[2].contains("helper_leaf"));
    assert!(det.witness[3].contains("available_parallelism"));

    let pan = outcome
        .violations
        .iter()
        .find(|v| v.rule == "panic-reachability")
        .expect("no-panic service entry two calls above the unwrap is flagged");
    assert!(pan.file.ends_with("src/lib.rs"));
    assert_eq!(pan.witness.len(), 4, "witness: {:?}", pan.witness);
    assert!(pan.witness[0].contains("svc"));
    assert!(pan.witness[1].contains("step_a"));
    assert!(pan.witness[2].contains("step_b"));
    assert!(pan.witness[3].contains("unwrap"));

    // The plain line rule fires on the unwrap too — taint adds to it, it
    // does not replace it.
    assert!(outcome.violations.iter().any(|v| v.rule == "panic-unwrap"));
}

#[test]
fn justified_sources_clear_the_taint_fixture() {
    let outcome = robopt_lint::run_lint(&fixture_root("taint_good")).expect("fixture loads");
    let rendered: Vec<String> = outcome.violations.iter().map(|d| d.to_string()).collect();
    assert!(
        outcome.is_clean(),
        "source-level allows did not clear the fixture:\n{}",
        rendered.join("\n")
    );
    // Both allows were actually exercised and audited.
    assert!(outcome
        .allowed
        .iter()
        .any(|a| a.rule == "determinism-taint"));
    assert!(outcome.allowed.iter().any(|a| a.rule == "panic-unwrap"));
}
