//! `robopt-core`: the vector-based optimizer.
//!
//! * [`oracle`] — the pluggable batched, object-safe [`oracle::CostOracle`]
//!   trait (analytic model, learned `robopt_ml` models behind their
//!   `ModelOracle` adapter, and test doubles all ride behind
//!   `&dyn CostOracle`) and the registry-derived analytic oracle;
//! * [`dist`] — distributional cost estimates: the [`dist::CostDistribution`]
//!   struct-of-arrays buffer (per-row mean / std / quantiles) and the
//!   [`dist::RiskPolicy`] scoring hook that collapses a distribution into
//!   the scalar enumeration ranks by (DESIGN §12);
//! * [`vectorize`] — whole-plan and singleton Fig-5 encodings, conversion
//!   features, and `unvectorize` back to an executable platform assignment
//!   over [`robopt_platforms::PlatformId`]s;
//! * [`order`] — the one merge schedule ([`order::MergeOrder`]): the
//!   union-find over units, Def-3 priority keys and their lazy re-ranking,
//!   driven by [`enumerate`] and by the Rheem-ML strawman alike;
//! * [`enumerate`] — Algorithm 1 over [`robopt_vector::EnumMatrix`] units
//!   in the schedule's order, with lossless boundary pruning
//!   (Def. 2), availability masking and conversion-feasibility exclusion
//!   from the [`robopt_platforms::PlatformRegistry`] carried by
//!   [`enumerate::EnumOptions`], enumeration statistics, and the budget on
//!   staged rows a search can run under ([`enumerate::OverBudget`]).
//!   The one budgeted entry point, [`enumerate::Enumerator::enumerate_within`],
//!   takes a [`split::SplitOptions`]: serial search is its one-part split;
//! * [`split`] — deterministic low-connectivity plan partitioning (the
//!   paper's `split`): minimum-crossing-edge cut boundaries over the
//!   topological order, never through a `RepeatLoop` region. A split is an
//!   edge schedule on one enumerator, its parts contracted in order, then
//!   its seams (DESIGN §9).

pub mod dist;
pub mod enumerate;
pub mod oracle;
pub mod order;
pub mod split;
#[cfg(test)]
mod testing;
pub mod vectorize;

pub use dist::{CostDistribution, RiskPolicy};
pub use enumerate::{EnumOptions, EnumStats, Enumerator, OverBudget};
pub use oracle::{AnalyticOracle, CostOracle};
pub use order::MergeOrder;
pub use split::ParallelEnumerator;
pub use split::{loop_regions, split_plan, PlanSplit, SplitOptions, MAX_CUT_EDGES};
pub use vectorize::ExecutionPlan;
