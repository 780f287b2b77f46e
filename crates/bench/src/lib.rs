//! `robopt-bench`: experiment binaries (one per experiment), the
//! wall-clock micro-benchmark harness, and the [`Report`] every binary
//! prints, checks and saves its results through.
//!
//! The harness is the offline stand-in for `criterion` (no registry in this
//! environment): fixed warm-up, N timed iterations, median/p95 reporting.
//! Medians make the Fig-1 improvement factors robust to scheduler noise.

pub mod harness;

pub use harness::{bench, Timing};

use std::fmt::{Display, Write as _};
use std::fs;
use std::path::PathBuf;

use robopt::json::Writer;

/// Repository root, resolved from this crate's manifest directory
/// (`crates/bench` -> repo root), so experiment binaries write artifacts to
/// the right place regardless of the invoking working directory.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a repository root")
        .to_path_buf()
}

/// `x` to `places` decimals — the precision an artifact states a figure to.
pub fn rounded(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// One experiment's report: the text it prints and saves, its `CHECK`
/// verdicts, and its two artifacts.
#[derive(Debug)]
pub struct Report {
    text: String,
    failed: bool,
}

impl Report {
    /// A report that opens with `title`.
    pub fn new(title: impl Display) -> Self {
        Report {
            text: format!("{title}\n"),
            failed: false,
        }
    }

    /// One free-form line.
    pub fn line(&mut self, line: impl Display) {
        let _ = writeln!(self.text, "{line}");
    }

    fn verdict(&mut self, ok: bool) -> &'static str {
        self.failed |= !ok;
        if ok {
            "PASS"
        } else {
            "FAIL"
        }
    }

    /// The line `CHECK <label>: PASS|FAIL`; one FAIL fails the experiment.
    pub fn check(&mut self, label: impl Display, ok: bool) {
        let verdict = self.verdict(ok);
        let _ = writeln!(self.text, "CHECK {label}: {verdict}");
    }

    /// [`Report::check`] with a parenthesised remark after the verdict.
    pub fn check_noted(&mut self, label: impl Display, ok: bool, note: impl Display) {
        let verdict = self.verdict(ok);
        let _ = writeln!(self.text, "CHECK {label}: {verdict} ({note})");
    }

    /// Print the report; write it to `txt` (`<dir>/<name>.txt`) and, to
    /// `json`, the object `artifact` fills after an `experiment` member
    /// naming it, both under `repo_root()`; exit 1 if any check failed.
    pub fn finish(self, txt: &str, json: &str, artifact: impl FnOnce(&mut Writer)) {
        print!("{}", self.text);
        let name = txt.rsplit(['/', '.']).nth(1).expect("<dir>/<name>.txt");
        let mut w = Writer::default();
        w.obj(|w| {
            w.key("experiment").str(name);
            artifact(w);
        });
        for (rel, content) in [(txt, self.text), (json, w.finish() + "\n")] {
            let path = repo_root().join(rel);
            let dir = path.parent().expect("an artifact path has a parent");
            fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
            fs::write(&path, content).unwrap_or_else(|e| panic!("write {rel}: {e}"));
        }
        if self.failed {
            eprintln!("{name} acceptance checks FAILED");
            std::process::exit(1);
        }
    }
}
