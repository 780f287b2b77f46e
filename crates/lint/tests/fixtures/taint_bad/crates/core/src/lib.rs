//! Fixture core: a public entry point that reaches a nondeterminism
//! source two calls down. `self_check` expects `wall-clock` at the
//! source's own line.
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
    let w = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    x * w
}
