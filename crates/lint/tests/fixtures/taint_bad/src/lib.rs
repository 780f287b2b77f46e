//! Fixture facade: a public service entry point whose handler reaches a
//! panic site two calls down. `self_check` expects `panic-unwrap` at the
//! unwrap's own line.
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
    input.first().copied().unwrap()
}
