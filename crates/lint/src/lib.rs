//! `robopt-lint`: the workspace's in-tree static-analysis pass.
//!
//! The reproduction's headline claims — Lemma-1 lossless pruning,
//! bit-identical seeded training, the Algorithm-1 enumeration contract —
//! hold only because of *conventions*: seeded SplitMix64 everywhere,
//! `debug_assert`ed `CostOracle::width()` checks, no default-hasher
//! iteration anywhere results flow through. `clippy` cannot see any of
//! that. This crate is a dependency-free line/token-level scanner that
//! mechanically enforces those conventions on every CI run, so later PRs
//! cannot silently break them.
//!
//! * [`lexer`] — string/char/comment-aware line scanner (rules never fire
//!   inside literals or docs);
//! * [`workspace`] — file discovery, crate classification,
//!   `#[cfg(test)]` masking;
//! * [`parser`] — lightweight item parser: `fn`, `impl` and `struct`
//!   spans, the one item model every item-shaped rule reads;
//! * [`rules`] — the rule engine and the [`rules::RULES`] table;
//! * [`report`] — rustc-style diagnostics and the hand-rendered JSON
//!   report behind `--fix-report`.
//!
//! Suppression: a trailing or immediately preceding
//! `// lint:allow(<rule-id>) <justification>` comment — or one on the
//! enclosing fn's signature line — turns a violation into an audited
//! [`report::Suppression`]; empty justifications do not count.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{Diagnostic, LintError, LintOutcome, Suppression};
pub use rules::{check, RULES};

use std::path::Path;

/// Lint the workspace rooted at `root`: load, classify, run every rule.
pub fn run_lint(root: &Path) -> Result<LintOutcome, LintError> {
    Ok(rules::check(&workspace::load(root)?))
}
