//! The `robopt-lint` binary: lint the workspace, print rustc-style
//! diagnostics, optionally write the JSON report, exit nonzero on any
//! violation.
//!
//! ```text
//! robopt-lint [--root <path>] [--fix-report[=<path>]] [--list-rules]
//! ```
//!
//! `--fix-report` without a path writes to
//! `<root>/EXPERIMENTS_OUTPUT/lint_report.json` (the artifact CI uploads).

use std::path::PathBuf;
use std::process::ExitCode;

use robopt_lint::{run_lint, RULES};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("robopt-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--fix-report" => {
                report_path = Some(root.join("EXPERIMENTS_OUTPUT").join("lint_report.json"));
            }
            "--list-rules" => {
                for r in RULES {
                    println!("{:<18} {}", r.id, r.guards);
                }
                return ExitCode::SUCCESS;
            }
            other => {
                match other.strip_prefix("--fix-report=") {
                    Some(p) => report_path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("robopt-lint: unknown argument `{other}`");
                        eprintln!("usage: robopt-lint [--root <path>] [--fix-report[=<path>]] [--list-rules]");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }

    let outcome = match run_lint(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    for d in &outcome.violations {
        println!("{d}");
    }
    if let Some(path) = report_path {
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("robopt-lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, outcome.to_json()) {
            eprintln!("robopt-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("robopt-lint: report written to {}", path.display());
    }
    eprintln!(
        "robopt-lint: {} file(s), {} violation(s), {} justified suppression(s)",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.allowed.len()
    );
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
