//! `robopt-bench`: experiment binaries (one per paper figure/table) and the
//! wall-clock micro-benchmark harness.
//!
//! The harness is the offline stand-in for `criterion` (no registry in this
//! environment): fixed warm-up, N timed iterations, median/p95 reporting.
//! Medians make the Fig-1 improvement factors robust to scheduler noise.

pub mod harness;

pub use harness::{bench, Timing};

use std::path::PathBuf;

/// Repository root, resolved from this crate's manifest directory
/// (`crates/bench` -> repo root), so experiment binaries write artifacts to
/// the right place regardless of the invoking working directory.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a repository root")
        .to_path_buf()
}
