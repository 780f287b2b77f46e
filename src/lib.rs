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
//! Crate map (DESIGN §3; re-exported below):
//!
//! * [`robopt_plan`] — 24 logical operator kinds, dataflow DAGs with
//!   cardinality propagation and juncture flags, the seeded RNG,
//!   `WorkloadSpec` and the workload builders, the one fan-out, core count
//!   and wall clock (`par`), and the one open-addressing hash table
//!   (`index`: `HashIndex` and `KeyMap`, a map to any value), which
//!   pruning, the plan cache (a `KeyMap` of responses) and the engine's
//!   keyed operators and join share;
//! * [`robopt_platforms`] — the platform registry with its per-kind
//!   availability masks, channels and conversion graph (COT), the
//!   deterministic runtime simulator, and the `ExecutionBackend` seam;
//! * [`robopt_engine`] — the in-memory dataflow executor behind
//!   `ExecutionBackend`: seeded data generators, byte-identical outputs
//!   across worker counts, and the independent reference executor;
//! * [`robopt_vector`] — the Fig-5 `FeatureLayout`, `EnumMatrix` and
//!   `RowsView` (full or packed), the fused-add merge kernel, scope
//!   bitsets, pruning footprints and `FootprintTable` (footprint → row, a
//!   `KeyMap`);
//! * [`robopt_ml`] — CART trees (the forest's base learner), the bagged
//!   random forest, the ridge linear baseline, metrics, the `TrainingSet` /
//!   `TrainingSource` contract, `BackendSource` (direct labelling, one
//!   backend run per row; `SimulatorSource` is it over the simulator), and
//!   the fitted predictors `Model` / `DistModel` behind `ModelOracle` (each
//!   model exists only as what its own inherent `fit` returns);
//! * [`robopt_core`] — vectorize, the one merge schedule (`order`: the
//!   union-find, Def-3 keys and their lazy re-ranking), Algorithm-1
//!   enumeration with Def-2 pruning and an optional budget on staged rows
//!   driving it, `CostOracle` and
//!   `AnalyticOracle`, `CostDistribution` / `RiskPolicy`, the plan splitter
//!   (a split is an argument of the one enumerator), `EnumStats`;
//! * [`robopt_baselines`] — the object-graph "Rheem-ML" enumerator, which
//!   drives the same merge schedule over object graphs, and the one
//!   exhaustive sweep over feasible assignments;
//! * [`robopt_tdgen`] — TDGEN: shape templates (a skeleton is an unsealed
//!   `LogicalPlan` with its sources' scale shares), the β-bounded assignment
//!   walk, piecewise log-log interpolation behind the one knot sweep
//!   (`Curve`), and the generator, whose one setting is its seed;
//! * [`robopt`] (re-exported as [`service`]) — the service facade:
//!   `Optimizer`, request / response types, plan cache, JSON parser and
//!   `Writer`, wire protocol, forest persistence;
//! * [`robopt_cli`] — the `robopt` binary: `serve` (stdin or loopback TCP)
//!   plus `optimize` / `execute` / `compare` / `train`.
//!
//! `robopt-bench` (the timing harness, `Report` and the experiment
//! binaries) is not re-exported.

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
