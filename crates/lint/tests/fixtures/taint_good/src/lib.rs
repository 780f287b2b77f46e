//! Fixture facade, good variant: the same call chain as `taint_bad`, but
//! the panic site carries a justified source-level allow — `self_check`
//! expects the whole workspace to pass.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

/// The entry point; `step_a` and `step_b` put two calls between it and the unwrap.
pub fn svc(input: &[u64]) -> u64 {
    step_a(input)
}

fn step_a(input: &[u64]) -> u64 {
    step_b(input)
}

fn step_b(input: &[u64]) -> u64 {
    // lint:allow(panic-unwrap) every caller passes a non-empty slice
    input.first().copied().unwrap()
}
