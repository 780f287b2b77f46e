//! `robopt-repro`: reproduction of *ML-based Cross-Platform Query
//! Optimization* (Robopt, ICDE 2020) in Rust.
//!
//! The headline contribution reproduced here is **vector-based plan
//! enumeration**: the optimizer enumerates over flat `f64` feature-vector
//! matrices ([`robopt_vector`]) instead of object subplan graphs, so the
//! ML cost model reads its input for free and the hot loop is primitive
//! array arithmetic. See `DESIGN.md` for the full architecture and
//! `EXPERIMENTS.md` for the figure-by-figure reproduction status.
//!
//! Crate map (re-exported below):
//!
//! * [`robopt_plan`] — logical operators, dataflow DAGs with cardinality
//!   propagation, the seeded RNG, `WorkloadSpec` and the workload builders;
//! * [`robopt_vector`] — Fig-5 layout, `EnumMatrix`, merge kernel,
//!   pruning footprints;
//! * [`robopt_core`] — vectorize / enumerate / unvectorize (Algorithm 1);
//! * [`robopt_baselines`] — object-graph "Rheem-ML" foil, exhaustive search;
//! * [`robopt_platforms`] — the platform registry: descriptors,
//!   operator-availability matrix, conversion graph (COT), and the
//!   deterministic runtime simulator;
//! * [`robopt_ml`] — the learned cost model: CART regression trees, the
//!   bagged random forest, the ridge linear baseline, accuracy metrics,
//!   the `TrainingSource` / `TrainingSet` contract every label provider
//!   implements, and the one plan/assignment sampler behind both
//!   `SimulatorSource` and `BackendSource` — all pluggable into
//!   enumeration through `ModelOracle` behind `&dyn CostOracle`;
//! * [`robopt_tdgen`] — TDGEN, the scalable training-data generator:
//!   seeded job-shape templates, β-bounded platform-switch pruning, and
//!   piecewise degree-5 log-log runtime interpolation so most labels are
//!   synthesized rather than simulated;
//! * [`robopt`] (re-exported as [`service`]) — the optimizer-as-a-service
//!   facade: request/response API, plan-signature cache, forest
//!   persistence, and the wire protocol the `robopt` binary speaks;
//! * [`robopt_cli`] — the `robopt` binary: `serve` daemon plus one-shot
//!   `optimize` / `execute` / `compare` / `train` subcommands, each a
//!   table-driven translation of flags into the wire request line;
//! * [`robopt_engine`] — the real multi-threaded in-memory dataflow
//!   executor behind the `ExecutionBackend` seam: seeded data
//!   generators, partition-parallel operators, iterative PageRank /
//!   k-means kernels, byte-identical outputs across worker counts.

pub use robopt as service;
pub use robopt_baselines as baselines;
pub use robopt_cli as cli;
pub use robopt_core as core;
pub use robopt_engine as engine;
pub use robopt_ml as ml;
pub use robopt_plan as plan;
pub use robopt_platforms as platforms;
pub use robopt_tdgen as tdgen;
pub use robopt_vector as vector;
