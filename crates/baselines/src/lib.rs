//! `robopt-baselines`: the enumerators Robopt is measured against.
//!
//! * [`object_plan`] + [`rheem_ml`] — the "Rheem-ML" strawman of the
//!   paper's Fig 1: the *same* enumeration algorithm (the one merge
//!   schedule, `robopt_core::MergeOrder`, the same lossless boundary pruning
//!   and cost oracle) but run over an object subplan graph in the style of
//!   RHEEMix, re-deriving the feature vector from the objects on **every**
//!   cost invocation. The only difference from `robopt-core` is the
//!   representation, which is exactly what the Fig-1 benchmark isolates:
//!   the winner is quoted by the same `robopt_core::ExecutionPlan::quote`.
//! * [`exhaustive`] — one sweep over the feasible ones of all `k^n`
//!   assignments (tiny plans only): the ground truth for the Lemma-1
//!   losslessness property tests and Fig 8's true optimum, quoted alike.

pub mod exhaustive;
pub mod object_plan;
pub mod rheem_ml;

pub use exhaustive::{exhaustive_best, exhaustive_count, for_each_feasible};
pub use rheem_ml::ObjectEnumerator;
