//! Fixture core, good variant: the same call chain as `taint_bad`, but the
//! nondeterminism source carries a justified source-level allow —
//! `self_check` expects the whole workspace to pass.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

/// The entry point; two helpers sit between it and the host-shape read.
pub fn entry(x: u64) -> u64 {
    helper_mid(x)
}

fn helper_mid(x: u64) -> u64 {
    helper_leaf(x)
}

fn helper_leaf(x: u64) -> u64 {
    // lint:allow(wall-clock) the worker count only sizes a scratch factor here; the fixture result is asserted identical across counts
    let w = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    x * w
}
