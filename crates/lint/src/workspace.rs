//! Workspace discovery and file classification.
//!
//! The lint walks the repository it lives in: every `.rs` file under
//! `src/` and `crates/*/src/`, every workspace `Cargo.toml`, and the live
//! artifact index `EXPERIMENTS.md`. Files are classified by the crate
//! they belong to, because the rules apply per class:
//!
//! * **Determinism-critical** (every product library: `core`, `vector`,
//!   `ml`, `tdgen`, `platforms`, `engine`, `plan`, `baselines`, `robopt`
//!   and the root facade): everything a seeded run or a served response
//!   flows through — subject to the whole determinism family
//!   (`hash-container`, `wall-clock` incl. its host-shape and
//!   ambient-input tokens) on top of the panic-freedom rules. The engine
//!   qualifies because its output records and digests are contractually
//!   pure functions of `(plan, seed, row cap)`; only its *timings* are
//!   measured, through two explicitly `lint:allow`ed clock shims.
//! * **Library** (`lint` itself): panic-freedom and the clock tokens of
//!   `wall-clock`; reading the source tree and argv is this tool's job.
//! * **Exempt** (`bench`, `cli`): timing harnesses and user-facing entry
//!   points may unwrap and read clocks; contract rules still apply.
//!
//! `#[cfg(test)]` regions are masked out up front (tests may unwrap), by
//! brace-matching the item that follows the attribute.

use std::fs;
use std::path::Path;

use crate::lexer::{scan, LineScan};
use crate::parser::{self, FileItems};
use crate::report::LintError;

/// Crates whose iteration order and value provenance must be a pure
/// function of the seed (Lemma 1 / bit-identical training): every product
/// library a deterministic surface (`optimize`, `train`, `enumerate`,
/// `execute`) can reach.
pub const DETERMINISM_CRATES: &[&str] = &[
    "core",
    "vector",
    "ml",
    "tdgen",
    "platforms",
    "engine",
    "plan",
    "baselines",
    "robopt",
    ROOT_CRATE,
];

/// Crate name given to the root facade's `src/`.
pub const ROOT_CRATE: &str = "robopt-repro";

/// Crates exempt from the panic-freedom and wall-clock rules.
pub const EXEMPT_CRATES: &[&str] = &["bench", "cli"];

/// Rule class of the crate a source file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    Determinism,
    Library,
    Exempt,
}

/// One lexed Rust source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, forward slashes.
    pub rel: String,
    /// Short crate directory name (`core`, `vector`, …; the root facade
    /// is `robopt-repro`).
    pub crate_name: String,
    pub class: CrateClass,
    /// `src/main.rs` or `src/bin/**`: binary entry points are exempt from
    /// the panic-freedom rules like `bench`/`cli` are.
    pub is_binary: bool,
    /// Whether this file is a crate root (`src/lib.rs`).
    pub is_crate_root: bool,
    pub lines: Vec<LineScan>,
    /// `test_mask[i]` — line `i` (0-based) is inside a `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
    /// Parsed items: the fn, impl and struct spans the rules read.
    pub items: FileItems,
    /// `fn_sigs[i]` — signature line of the innermost fn enclosing line
    /// `i`, if any; lets suppression lookups walk to the fn header.
    pub fn_sigs: Vec<Option<usize>>,
}

/// A raw (unlexed) text file: Cargo.toml manifests and artifact docs.
#[derive(Debug)]
pub struct TextFile {
    pub rel: String,
    pub text: String,
}

/// Everything the rule engine consumes.
#[derive(Debug)]
pub struct Workspace {
    pub sources: Vec<SourceFile>,
    pub manifests: Vec<TextFile>,
    pub docs: Vec<TextFile>,
}

impl Workspace {
    pub fn files_scanned(&self) -> usize {
        self.sources.len() + self.manifests.len() + self.docs.len()
    }
}

pub(crate) fn classify(crate_name: &str) -> CrateClass {
    if DETERMINISM_CRATES.contains(&crate_name) {
        CrateClass::Determinism
    } else if EXEMPT_CRATES.contains(&crate_name) {
        CrateClass::Exempt
    } else {
        CrateClass::Library
    }
}

fn read(root: &Path, rel: &str) -> Result<String, LintError> {
    fs::read_to_string(root.join(rel))
        .map_err(|e| LintError::new(format!("cannot read {rel}: {e}")))
}

/// Recursively collect `.rs` files under `dir`, returned sorted so the
/// lint's output order never depends on directory-entry order.
fn rust_files_under(root: &Path, rel_dir: &str) -> Result<Vec<String>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![rel_dir.to_string()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        let entries =
            fs::read_dir(&dir).map_err(|e| LintError::new(format!("cannot list {rel}: {e}")))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::new(format!("cannot list {rel}: {e}")))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let child = format!("{rel}/{name}");
            let ftype = entry
                .file_type()
                .map_err(|e| LintError::new(format!("cannot stat {child}: {e}")))?;
            if ftype.is_dir() {
                stack.push(child);
            } else if name.ends_with(".rs") {
                out.push(child);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn load_source(root: &Path, rel: &str, crate_name: &str) -> Result<SourceFile, LintError> {
    let text = read(root, rel)?;
    let lines = scan(&text);
    let test_mask = compute_test_mask(&lines);
    let items = parser::parse_file(&lines, &test_mask);
    let fn_sigs = parser::enclosing_fn_sig(&items, lines.len());
    Ok(SourceFile {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        class: classify(crate_name),
        is_binary: rel.ends_with("src/main.rs") || rel.contains("/src/bin/"),
        is_crate_root: rel.ends_with("src/lib.rs"),
        lines,
        test_mask,
        items,
        fn_sigs,
    })
}

/// Load the workspace rooted at `root`.
pub fn load(root: &Path) -> Result<Workspace, LintError> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    let mut docs = Vec::new();

    manifests.push(TextFile {
        rel: "Cargo.toml".to_string(),
        text: read(root, "Cargo.toml")?,
    });
    for rel in rust_files_under(root, "src")? {
        sources.push(load_source(root, &rel, ROOT_CRATE)?);
    }

    let mut crate_dirs: Vec<String> = Vec::new();
    let entries = fs::read_dir(root.join("crates"))
        .map_err(|e| LintError::new(format!("cannot list crates/: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::new(format!("cannot list crates/: {e}")))?;
        if entry
            .file_type()
            .map_err(|e| LintError::new(format!("cannot stat crate dir: {e}")))?
            .is_dir()
        {
            crate_dirs.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    crate_dirs.sort();
    for name in &crate_dirs {
        manifests.push(TextFile {
            rel: format!("crates/{name}/Cargo.toml"),
            text: read(root, &format!("crates/{name}/Cargo.toml"))?,
        });
        for rel in rust_files_under(root, &format!("crates/{name}/src"))? {
            sources.push(load_source(root, &rel, name)?);
        }
    }

    // The live artifact index only: CHANGES.md is an append-only history,
    // and a true sentence about a since-deleted producer is not a claim.
    let doc = "EXPERIMENTS.md";
    if root.join(doc).is_file() {
        docs.push(TextFile {
            rel: doc.to_string(),
            text: read(root, doc)?,
        });
    }

    Ok(Workspace {
        sources,
        manifests,
        docs,
    })
}

/// Walk forward from `(li, ci)` (inclusive) yielding code characters.
/// Returns the position of the first char satisfying `pred`.
pub(crate) fn find_code_char(
    lines: &[LineScan],
    mut li: usize,
    mut ci: usize,
    pred: impl Fn(char) -> bool,
) -> Option<(usize, usize)> {
    while li < lines.len() {
        let code = lines.get(li).map(|l| l.code.as_str()).unwrap_or("");
        for (off, c) in code.get(ci..).unwrap_or("").char_indices() {
            if pred(c) {
                return Some((li, ci + off));
            }
        }
        li += 1;
        ci = 0;
    }
    None
}

/// Position just past the matching `}` for the `{` at `(li, ci)`; returns
/// the line of the closing brace.
pub fn match_brace(lines: &[LineScan], li: usize, ci: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut cur_li = li;
    let mut cur_ci = ci;
    loop {
        let (bl, bc) = find_code_char(lines, cur_li, cur_ci, |c| c == '{' || c == '}')?;
        let code = lines.get(bl).map(|l| l.code.as_str()).unwrap_or("");
        match code.get(bc..).and_then(|s| s.chars().next()) {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(bl);
                }
            }
            _ => return None,
        }
        cur_li = bl;
        cur_ci = bc + 1;
    }
}

/// Mark every line covered by a `#[cfg(test)]` item.
pub(crate) fn compute_test_mask(lines: &[LineScan]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    for li in 0..lines.len() {
        let code = lines.get(li).map(|l| l.code.as_str()).unwrap_or("");
        let Some(attr_at) = code.find("#[cfg(test)]") else {
            continue;
        };
        // The attribute applies to the next item: mask through its closing
        // brace if it has a body, otherwise its terminating semicolon.
        let after = attr_at + "#[cfg(test)]".len();
        let Some((head, _, close)) = parser::item_span(lines, li, after) else {
            continue;
        };
        for m in mask.iter_mut().take(close.unwrap_or(head) + 1).skip(li) {
            *m = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(src: &str) -> Vec<bool> {
        compute_test_mask(&scan(src))
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn after() {}\n";
        let mask = mask_of(src);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn nested_braces_inside_test_mod() {
        let src = "#[cfg(test)]\nmod tests {\n    fn a() { if x { y() } }\n    fn b() {}\n}\nfn real() {}\n";
        let mask = mask_of(src);
        assert!(mask[..5].iter().all(|&m| m));
        assert!(!mask[5]);
    }

    #[test]
    fn braces_in_strings_do_not_confuse_matching() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"{{{\";\n}\nfn real() {}\n";
        let mask = mask_of(src);
        assert_eq!(mask, vec![true, true, true, true, false]);
    }
}
