//! `robopt-engine`: the real multi-threaded in-memory dataflow executor —
//! the "Java platform" made real.
//!
//! [`Engine`] implements the [`robopt_platforms::ExecutionBackend`] seam
//! next to the analytic simulator: WordCount really counts generated
//! words, GroupBy really groups, and `RepeatLoop` runs PageRank / k-means
//! kernels with per-iteration loop overheads. Module map:
//!
//! * [`data`] — records (text inline up to 30 bytes), seeded per-row
//!   generators, canonical per-record operator semantics, and the output
//!   digest;
//! * [`exec`] — the executor (narrow chains fused into hash-aggregating
//!   keyed operators, which fan out in order-preserving ranges on
//!   [`robopt_plan::par::par_chunks`] while every other operator runs on
//!   the calling thread, buffers moved from producer to last consumer,
//!   overheads modeled on the simulator's calibration) and the iterative
//!   kernels;
//! * [`mod@reference`] — the independent single-threaded, materializing,
//!   sorting reference executor the byte-identity tests compare against.
//!
//! Determinism contract (DESIGN §11): output records and digests are pure
//! functions of `(plan, seed, row cap)` — invariant across worker counts,
//! chunkings, and processes. Measured timings are wall clock, surfaced
//! only through [`robopt_platforms::ExecutionReport`], and never digested.

pub mod data;
pub mod exec;
pub mod reference;

pub use data::{digest_records, digest_terminals, Record, Text};
pub use exec::{Engine, ExecutionOutput, DEFAULT_MAX_SOURCE_ROWS, OVERHEAD_SCALE};
pub use reference::{execute_reference, reference_outputs};
