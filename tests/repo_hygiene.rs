//! Repo-shaped invariants no compiler or clippy lint can see (DESIGN §8):
//! the build is offline, every package opts into the lint tables, the
//! product libraries fan out threads, read the wall clock, keep an
//! open-addressing hash table and keep a merge order in one file each, the
//! docs name no artifact without a binary that writes it, and EXPERIMENTS.md
//! quotes its artifacts instead of copying them — one table, whose rows
//! hold only numbers their binary's `.txt` holds. Each check is a pure
//! function over text that returns its findings.

#![expect(
    clippy::disallowed_methods,
    reason = "this test reads the repository it checks: the manifests, the lock files, the docs, the experiment binaries and their artifacts"
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
fn artifact_findings(rel: &str, doc: &str, producers: &str) -> Vec<String> {
    let code: Vec<&str> = producers.lines().map(str::trim_start).collect();
    let written = |t: &str| code.iter().any(|l| !l.starts_with("//") && l.contains(t));
    let tokens = doc.lines().flat_map(artifact_tokens);
    let orphans = tokens.filter(|t| !written(t));
    orphans
        .map(|t| format!("{rel}: no binary writes {t}"))
        .collect()
}

fn is_table_line(line: &str) -> bool {
    line.trim_start().starts_with('|')
}

/// The summary table is the doc's first run of table lines; `(its lines,
/// the index of the first line after it)`.
fn summary_table(doc: &str) -> (Vec<&str>, usize) {
    let lines: Vec<&str> = doc.lines().collect();
    let start = lines
        .iter()
        .position(|l| is_table_line(l))
        .unwrap_or(lines.len());
    let len = lines[start..]
        .iter()
        .take_while(|l| is_table_line(l))
        .count();
    (lines[start..start + len].to_vec(), start + len)
}

/// EXPERIMENTS.md points to its artifacts instead of copying their tables,
/// so the summary is its only table.
fn table_findings(doc: &str) -> Vec<String> {
    let (_, end) = summary_table(doc);
    let below = doc.lines().enumerate().skip(end);
    let tables = below.filter(|(_, l)| is_table_line(l));
    let found =
        tables.map(|(i, _)| format!("EXPERIMENTS.md:{}: table line below the summary", i + 1));
    found.collect()
}

/// `(binary, last cell)` of every summary row whose first cell names a
/// binary in backticks.
fn summary_rows(doc: &str) -> Vec<(&str, &str)> {
    let (table, _) = summary_table(doc);
    let rows = table.into_iter().filter_map(|row| {
        let cells: Vec<&str> = row.trim().trim_matches('|').split('|').collect();
        let binary = cells.first()?.split('`').nth(1)?;
        Some((binary, *cells.last()?))
    });
    rows.collect()
}

/// Number tokens (`\d+(\.\d+)?`) of a text, scanned by hand.
fn numbers(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let digits_from = |i: usize| bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut found = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let int = digits_from(i);
        if int == 0 {
            i += 1;
            continue;
        }
        let mut end = i + int;
        if bytes.get(end) == Some(&b'.') && bytes.get(end + 1).is_some_and(u8::is_ascii_digit) {
            end += 1 + digits_from(end + 1);
        }
        found.push(&text[i..end]);
        i = end;
    }
    found
}

/// A summary row quotes its binary's `.txt` digit for digit: every number
/// of its last cell is a number of `EXPERIMENTS_OUTPUT/<binary>.txt`. Rows
/// naming no binary, or one with no `.txt`, are not checked.
fn quote_findings(doc: &str, outputs: &[(String, String)]) -> Vec<String> {
    let mut found = Vec::new();
    for (binary, measured) in summary_rows(doc) {
        let Some((_, txt)) = outputs.iter().find(|(name, _)| name == binary) else {
            continue;
        };
        let held = numbers(txt);
        for n in numbers(measured).into_iter().filter(|n| !held.contains(n)) {
            found.push(format!(
                "`{binary}` row quotes {n}, which EXPERIMENTS_OUTPUT/{binary}.txt does not hold"
            ));
        }
    }
    found
}

/// A mechanism the product libraries keep in one file: a code line
/// holding one of `fragments` anywhere else is a second home.
struct Home {
    what: &'static str,
    file: &'static str,
    fragments: &'static [&'static str],
}

/// The workspace's one scoped fan-out and its one read of the host's core
/// count.
const FAN_OUT: Home = Home {
    what: "fans out",
    file: "crates/plan/src/par.rs",
    fragments: &["thread::scope(", "available_parallelism("],
};

/// The one wall-clock read, whose marks only ever reach reports.
const CLOCK: Home = Home {
    what: "reads the wall clock",
    file: "crates/plan/src/par.rs",
    fragments: &["Instant::now("],
};

/// The one open-addressing table: its slot array, and the wrap-around step
/// of a linear probe.
const INDEX: Home = Home {
    what: "keeps an open-addressing table",
    file: "crates/plan/src/index.rs",
    fragments: &["slots: Vec<", "& mask"],
};

/// The one merge order: the heap its keys wait in, and the union-find over
/// the units it merges.
const ORDER: Home = Home {
    what: "keeps a merge order",
    file: "crates/core/src/order.rs",
    fragments: &["BinaryHeap", "parent["],
};

/// Code lines of `source` outside `home.file` that hold one of its
/// fragments. A file's test module — `#[cfg(test)]` over `mod`, which
/// clippy keeps last — is exempt, and so is a `//` comment line.
fn home_findings(home: &Home, rel: &str, source: &str) -> Vec<String> {
    if rel == home.file {
        return Vec::new();
    }
    let lines: Vec<&str> = source.lines().map(str::trim_start).collect();
    let product = lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod "))
        .unwrap_or(lines.len());
    let code = lines[..product].iter().enumerate();
    let hit = |l: &&str| !l.starts_with("//") && home.fragments.iter().any(|f| l.contains(f));
    let found = code.filter(|(_, l)| hit(l));
    let (what, file) = (home.what, home.file);
    found
        .map(|(i, _)| format!("{rel}:{}: {what} outside {file}", i + 1))
        .collect()
}

/// The benchmark's split shim (ROADMAP 1(e)), spelled in two halves so
/// this file does not name it.
const SHIM: &str = concat!("Parallel", "Enumerator");

/// Lines of `source` that name [`SHIM`], but its definition and test in
/// `core::split` and `core`'s re-export: product code, tests and the fig
/// binaries pass a split to `Enumerator::enumerate_within` instead.
fn shim_findings(rel: &str, source: &str) -> Vec<String> {
    if rel == "crates/core/src/split.rs" {
        return Vec::new();
    }
    let reexport = format!("pub use split::{SHIM};");
    let named = |l: &str| l.contains(SHIM) && !(rel == "crates/core/src/lib.rs" && l == reexport);
    let found = source.lines().enumerate().filter(|(_, l)| named(l));
    found
        .map(|(i, _)| format!("{rel}:{}: names the benchmark's split shim", i + 1))
        .collect()
}

/// `(repo-relative path, text)` of every product-library source: the
/// crates' `src/` trees but the front ends', which time and fan out however
/// their job needs, and the root `src/`.
fn product_sources() -> io::Result<Vec<(String, String)>> {
    let mut sources = read_rs_tree("crates")?;
    let front_ends = ["crates/bench/", "crates/cli/"];
    sources
        .retain(|(rel, _)| rel.contains("/src/") && !front_ends.iter().any(|f| rel.starts_with(f)));
    sources.extend(read_rs_tree("src")?);
    Ok(sources)
}

/// Every second home of `home` among `sources`, and `home.file` itself if
/// it is not among them.
fn second_homes(home: &Home, sources: &[(String, String)]) -> Vec<String> {
    let found = sources
        .iter()
        .flat_map(|(rel, s)| home_findings(home, rel, s));
    let mut found: Vec<String> = found.collect();
    if !sources.iter().any(|(rel, _)| rel == home.file) {
        found.push(format!("{} is missing", home.file));
    }
    found
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

/// `(repo-relative path, text)` of every `.rs` file under `dir`.
fn read_rs_tree(dir: &str) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(dir))? {
        let entry = entry?;
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.file_type()?.is_dir() {
            out.extend(read_rs_tree(&rel)?);
        } else if rel.ends_with(".rs") {
            let text = read(&rel)?;
            out.push((rel, text));
        }
    }
    Ok(out)
}

/// `(binary, text)` of every `EXPERIMENTS_OUTPUT/<binary>.txt`.
fn experiment_outputs() -> io::Result<Vec<(String, String)>> {
    let files = read_each("EXPERIMENTS_OUTPUT", "")?.into_iter();
    let txts = files.filter_map(|(rel, text)| {
        let name = rel
            .strip_prefix("EXPERIMENTS_OUTPUT/")?
            .strip_suffix(".txt")?;
        Some((name.to_string(), text))
    });
    Ok(txts.collect())
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
    let mut found = artifact_findings("EXPERIMENTS.md", &doc, &producers);
    for rel in ["DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        found.extend(artifact_findings(rel, &read(rel).expect(rel), &producers));
    }
    assert_eq!(found, Vec::<String>::new());
}

#[test]
fn experiments_md_has_one_table() {
    let doc = read("EXPERIMENTS.md").expect("EXPERIMENTS.md");
    assert!(summary_table(&doc).0.len() > 10, "no summary table");
    assert_eq!(table_findings(&doc), Vec::<String>::new());
}

#[test]
fn summary_rows_quote_their_artifacts_digit_for_digit() {
    let doc = read("EXPERIMENTS.md").expect("EXPERIMENTS.md");
    let outputs = experiment_outputs().expect("EXPERIMENTS_OUTPUT");
    let has_txt = |binary: &str| outputs.iter().any(|(name, _)| name == binary);
    let checked = summary_rows(&doc)
        .into_iter()
        .filter(|(b, _)| has_txt(b))
        .count();
    assert!(
        checked >= 6,
        "only {checked} summary rows name a binary with a .txt"
    );
    assert_eq!(quote_findings(&doc, &outputs), Vec::<String>::new());
}

#[test]
fn the_fan_out_has_one_home() {
    let sources = product_sources().expect("product sources");
    assert_eq!(second_homes(&FAN_OUT, &sources), Vec::<String>::new());
}

#[test]
fn the_clock_has_one_home() {
    let sources = product_sources().expect("product sources");
    assert_eq!(second_homes(&CLOCK, &sources), Vec::<String>::new());
}

#[test]
fn the_hash_index_has_one_home() {
    let sources = product_sources().expect("product sources");
    assert_eq!(second_homes(&INDEX, &sources), Vec::<String>::new());
}

#[test]
fn the_merge_order_has_one_home() {
    let sources = product_sources().expect("product sources");
    assert_eq!(second_homes(&ORDER, &sources), Vec::<String>::new());
}

#[test]
fn the_split_shim_is_named_only_where_it_lives() {
    let mut sources = read_rs_tree("crates").expect("crate sources");
    sources.extend(read_rs_tree("src").expect("root sources"));
    sources.extend(read_rs_tree("tests").expect("root tests"));
    let found = sources.iter().flat_map(|(rel, s)| shim_findings(rel, s));
    assert_eq!(found.collect::<Vec<_>>(), Vec::<String>::new());
}

#[test]
fn numbers_are_scanned_as_the_pattern_reads() {
    let found = numbers("q0.9 of 1e7: 2.4x, 7745.5 ms, 3. 12");
    assert_eq!(found, ["0.9", "1", "7", "2.4", "7745.5", "3", "12"]);
}

#[test]
fn bad_inputs_are_reported() {
    let txt = [(
        "model_accuracy".to_string(),
        "250  0.3685  0.156".to_string(),
    )];
    let header = "| Experiment | Verdict | Paper | Measured |\n|---|---|---|---|\n";
    let misquoted = "| Model accuracy (`model_accuracy`) | ✅ | RF wins | MSE 0.307 at 250 |\n";
    let unnamed = "| Fig 2 cost-model tuning | ❌ | ~10× | 0.307 |\n";
    let cases = [
        lock_findings("Cargo.lock", "source = \"registry+https://x\"\n"),
        lints_findings("crates/ml/Cargo.toml", "[package]\nname = \"x\"\n"),
        lints_findings("crates/ml/Cargo.toml", "[lints.clippy]\ntodo = \"deny\"\n"),
        artifact_findings(
            "EXPERIMENTS.md",
            "EXPERIMENTS_OUTPUT/placeholder.txt.",
            "fn main() {}",
        ),
        artifact_findings(
            "EXPERIMENTS.md",
            "`BENCH_x.json`",
            "//! Writes `BENCH_x.json`.",
        ),
        artifact_findings(
            "DESIGN.md",
            "see `EXPERIMENTS_OUTPUT/placeholder.txt`",
            "fn main() {}",
        ),
        quote_findings(&format!("{header}{misquoted}"), &txt),
        quote_findings(&format!("{header}{unnamed}{misquoted}"), &txt),
        table_findings(&format!("{header}{unnamed}\n### Fig 2\n\n| rows | MSE |\n")),
        home_findings(
            &FAN_OUT,
            "crates/engine/src/exec.rs",
            "// one thread::scope( per pass\nfn pass() {\n    std::thread::scope(|s| {});\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { std::thread::available_parallelism(); }\n}\n",
        ),
        home_findings(
            &CLOCK,
            "crates/robopt/src/optimizer.rs",
            "// Instant::now() is read in par.rs\nfn now() -> Instant {\n    std::time::Instant::now()\n}\n",
        ),
        home_findings(
            &INDEX,
            "crates/vector/src/footprint.rs",
            "pub struct FootprintTable {\n    slots: Vec<u32>,\n    entries: Vec<(u64, u32)>,\n}\n",
        ),
        home_findings(
            &INDEX,
            "crates/engine/src/exec.rs",
            "fn next(slot: usize, mask: usize) -> usize {\n    (slot + 1) & mask\n}\n",
        ),
        home_findings(
            &ORDER,
            "crates/baselines/src/rheem_ml.rs",
            "fn find(parent: &mut [u32], x: u32) -> u32 {\n    parent[x as usize]\n}\n",
        ),
        shim_findings(
            "crates/core/src/lib.rs",
            &format!("pub use split::{SHIM};\npub use split::{{split_plan, {SHIM}}};\n"),
        ),
    ];
    for (i, findings) in cases.iter().enumerate() {
        assert_eq!(findings.len(), 1, "case {i}: {findings:?}");
    }
}
