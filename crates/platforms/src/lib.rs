//! `robopt-platforms`: the platforms subsystem — registry, availability
//! matrix, channel/conversion graph (COT), and the analytic runtime
//! simulator standing in for the paper's 10-node cluster.
//!
//! The optimizer in `robopt-core` enumerates *against a registry* rather
//! than dense platform ids `0..k`:
//!
//! * [`registry::PlatformRegistry`] — the five named platforms of the
//!   paper's testbed ([`PlatformRegistry::named`]: Java streams, Spark,
//!   Flink, Postgres, Giraph), synthetic uniform registries for parity
//!   tests and benchmarks ([`PlatformRegistry::uniform`]), and a builder
//!   for custom setups with up to [`MAX_PLATFORMS`] platforms;
//! * [`availability::AvailabilityMatrix`] — execution-operator
//!   availability per (operator kind × platform): enumeration never
//!   places an operator on a platform that cannot execute it;
//! * [`channels::ConversionGraph`] — direct data-movement channels with
//!   fixed + per-tuple costs and precomputed all-pairs cheapest conversion
//!   paths (multi-hop where no direct channel exists, `None` where
//!   conversion is structurally infeasible);
//! * [`simulator::RuntimeSimulator`] — a deterministic, seeded analytic
//!   runtime model with non-linear per-platform cost curves (startup
//!   floors, `n·log n` shuffle terms, memory cliffs) and a noise hook;
//!   it will generate TDGEN training labels;
//! * [`backend::ExecutionBackend`] — the object-safe execution seam
//!   (DESIGN §11) both the simulator and the real `robopt-engine`
//!   implement, returning an [`backend::ExecutionReport`] with
//!   per-operator timings and output cardinalities.

pub mod availability;
pub mod backend;
pub mod channels;
pub mod registry;
pub mod simulator;

pub use availability::AvailabilityMatrix;
pub use backend::{ExecutionBackend, ExecutionReport, OperatorReport};
pub use channels::{ConversionGraph, ConversionPath, REF_TUPLES};
pub use registry::{Platform, PlatformId, PlatformRegistry, RegistryBuilder, MAX_PLATFORMS};
pub use simulator::RuntimeSimulator;
