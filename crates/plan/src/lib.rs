//! `robopt-plan`: the optimizer-facing plan substrate.
//!
//! Logical operators (the 24-kind Rheem/Robopt operator algebra), dataflow
//! DAGs with cardinality propagation, a deterministic
//! seeded RNG (the offline stand-in for `rand`), and workload builders for
//! the paper's plans (WordCount, TPC-H Q3, synthetic pipelines) plus random
//! connected DAGs for property tests. [`WorkloadSpec`] is the validated,
//! serializable recipe shared by the service facade, the fig binaries, and
//! the execution engine. [`par`] is the workspace's one scoped fan-out
//! (`par_chunks`) and its one read of the host's core count.

pub mod dag;
pub mod op;
pub mod par;
pub mod rng;
pub mod spec;
pub mod workloads;

pub use dag::LogicalPlan;
pub use op::{Operator, OperatorKind, N_OPERATOR_KINDS};
pub use rng::SplitMix64;
pub use spec::{SpecError, WorkloadParams, WorkloadSpec};
