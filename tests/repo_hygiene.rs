//! Repo-shaped invariants no compiler or clippy lint can see (DESIGN §8):
//! the build is offline, every package opts into the lint tables, and
//! EXPERIMENTS.md names no artifact without a binary that writes it. Each
//! check is a pure function over text that returns its findings.

#![expect(
    clippy::disallowed_methods,
    reason = "this test reads the repository it checks: the manifests, the lock files, EXPERIMENTS.md and the experiment binaries"
)]

use std::path::Path;
use std::{fs, io};

/// An offline build resolves nothing from a registry or git: a lock file
/// records such a package, direct or transitive, with a `source = ` line.
fn lock_findings(rel: &str, lock: &str) -> Vec<String> {
    let lines = lock.lines().map(str::trim);
    let external = lines.filter(|l| l.starts_with("source = "));
    external.map(|l| format!("{rel}: external {l}")).collect()
}

/// Every package carries a `[lints]` table, and only the two crates whose
/// job is timing and ambient input (`bench`, `cli`) may spell out their own
/// instead of inheriting `[workspace.lints]`.
fn lints_findings(rel: &str, manifest: &str) -> Vec<String> {
    let mut headers = manifest.lines().map(str::trim);
    let has_table = headers.any(|l| l == "[lints]" || l.starts_with("[lints."));
    let inherits = manifest.contains("[lints]\nworkspace = true");
    let own_table = ["crates/bench/Cargo.toml", "crates/cli/Cargo.toml"];
    if !has_table {
        vec![format!("{rel}: no [lints] table")]
    } else if !inherits && !own_table.contains(&rel) {
        vec![format!("{rel}: [lints] lacks `workspace = true`")]
    } else {
        Vec::new()
    }
}

/// `EXPERIMENTS_OUTPUT/<file>` and `BENCH_<x>.json` tokens of one doc line.
/// Globs and bare directory mentions are patterns, not file claims.
fn artifact_tokens(line: &str) -> impl Iterator<Item = &str> {
    let is_name = |c: char| c.is_alphanumeric() || "._-*/".contains(c);
    let starts = ["EXPERIMENTS_OUTPUT/", "BENCH_"]
        .into_iter()
        .flat_map(move |prefix| line.match_indices(prefix));
    let tokens = starts.map(move |(at, _)| {
        let rest = &line[at..];
        let end = rest.find(|c| !is_name(c)).unwrap_or(rest.len());
        rest[..end].trim_end_matches('.')
    });
    tokens.filter(|t| t.contains('.') && !t.contains('*'))
}

/// A doc-referenced artifact needs a producer: its name on a code line (not
/// a `//` comment line) of an experiment binary's source. A file nothing
/// writes is a placeholder, not a result.
fn artifact_findings(doc: &str, producers: &str) -> Vec<String> {
    let code: Vec<&str> = producers.lines().map(str::trim_start).collect();
    let written = |t: &str| code.iter().any(|l| !l.starts_with("//") && l.contains(t));
    let tokens = doc.lines().flat_map(artifact_tokens);
    let orphans = tokens.filter(|t| !written(t));
    orphans.map(|t| format!("no binary writes {t}")).collect()
}

fn read(rel: &str) -> io::Result<String> {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel))
}

/// `(repo-relative path, text)` of `<dir>/<entry><leaf>` for every entry.
fn read_each(dir: &str, leaf: &str) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(dir))? {
        let rel = format!("{dir}/{}{leaf}", entry?.file_name().to_string_lossy());
        let text = read(&rel)?;
        out.push((rel, text));
    }
    Ok(out)
}

#[test]
fn lock_files_resolve_nothing_from_outside_the_repo() {
    for rel in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let lock = read(rel).expect(rel);
        assert!(lock.contains("[[package]]"), "{rel} is not a lock file");
        assert_eq!(lock_findings(rel, &lock), Vec::<String>::new());
    }
}

#[test]
fn every_package_opts_into_the_lint_tables() {
    let mut manifests = read_each("crates", "/Cargo.toml").expect("crate manifests");
    let root = read("Cargo.toml").expect("root manifest");
    manifests.push(("Cargo.toml".to_string(), root));
    assert!(manifests.len() > 10, "found only {}", manifests.len());
    let found = manifests.iter().flat_map(|(rel, m)| lints_findings(rel, m));
    assert_eq!(found.collect::<Vec<_>>(), Vec::<String>::new());
}

#[test]
fn every_documented_artifact_has_a_producer() {
    let sources = read_each("crates/bench/src/bin", "").expect("fig binaries");
    let producers: String = sources.into_iter().map(|(_, text)| text).collect();
    let doc = read("EXPERIMENTS.md").expect("EXPERIMENTS.md");
    let referenced = doc.lines().flat_map(artifact_tokens).count();
    assert!(referenced >= 12, "saw only {referenced} references");
    assert_eq!(artifact_findings(&doc, &producers), Vec::<String>::new());
}

#[test]
fn bad_inputs_are_reported() {
    let cases = [
        lock_findings("Cargo.lock", "source = \"registry+https://x\"\n"),
        lints_findings("crates/ml/Cargo.toml", "[package]\nname = \"x\"\n"),
        lints_findings("crates/ml/Cargo.toml", "[lints.clippy]\ntodo = \"deny\"\n"),
        artifact_findings("EXPERIMENTS_OUTPUT/placeholder.txt.", "fn main() {}"),
        artifact_findings("`BENCH_x.json`", "//! Writes `BENCH_x.json`."),
    ];
    for (i, findings) in cases.iter().enumerate() {
        assert_eq!(findings.len(), 1, "case {i}: {findings:?}");
    }
}
