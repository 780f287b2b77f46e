//! `robopt-ml`: the learned cost model (paper §IV-C, §V, Fig 9).
//!
//! * [`model`] — the [`Model`] contract (a fitted predictor over flat
//!   row-major matrices; each model exists only as what its own inherent
//!   `fit` returns, so none has an unfitted state),
//!   [`DistModel`] for predictions as distributions, and [`ModelOracle`],
//!   the adapter that puts any fitted model behind
//!   `&dyn robopt_core::CostOracle` so it can drive enumeration
//!   interchangeably with the analytic oracle;
//! * [`tree`] — CART regression trees, the forest's base learner:
//!   variance-reduction splits over [`robopt_vector::RowsView`] columns,
//!   packed 16-byte nodes whose leaves map to themselves so a descent
//!   needs no branch;
//! * [`forest`] — bagged random forest: bootstrap sampling, per-split
//!   feature subsampling, thread-parallel deterministic training, and the
//!   crate's one descent — a lock-step walk of 4 rows × 8 trees that every
//!   prediction entry point is a sink over (allocation-free, bit-identical
//!   to a tree-at-a-time walk);
//! * [`linreg`] — closed-form ridge linear regression, the baseline the
//!   forest must beat (Fig 9);
//! * [`metrics`] — MSE / MAE / q-error / Spearman / R² accuracy reports;
//! * [`source`] — the training-data contract: [`TrainingSet`] (labelled
//!   plan-vector matrix carrying its [`robopt_vector::FeatureLayout`]) and
//!   the object-safe [`TrainingSource`] trait every label generator
//!   implements;
//! * [`training`] — [`BackendSource`], the direct-labelling source (one
//!   run of the `robopt_platforms::ExecutionBackend` it owns per row, with
//!   [`TrainingSet::seconds_to_label`] fit targets). Over the simulator it
//!   is [`SimulatorSource`], the baseline TDGEN's interpolated generation
//!   is measured against; over the real engine, forests train on runtimes
//!   *measured* by it.
//!
//! Everything is dependency-free: randomness comes from
//! `robopt_plan::rng::SplitMix64`, parallelism from the workspace's one
//! scoped fan-out (`robopt_plan::par`), and linear algebra from the
//! in-tree Cholesky solver.

pub mod forest;
pub mod linreg;
pub mod metrics;
pub mod model;
pub mod source;
pub mod training;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use linreg::LinearModel;
pub use metrics::{mae, mse, q_error, r_squared, spearman, Metrics};
pub use model::{DistModel, Model, ModelOracle};
pub use source::{TrainingSet, TrainingSource};
pub use training::{BackendSource, SimulatorSource};
pub use tree::{ModelImportError, RegressionTree, TreeConfig};
