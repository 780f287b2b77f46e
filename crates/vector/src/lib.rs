//! `robopt-vector`: the vectorized enumeration representation.
//!
//! The paper's core contribution is running the *entire* plan enumeration
//! over flat feature vectors: a (sub)plan *is* a row of primitive `f64`
//! cells, so ML costing needs no plan-to-vector conversion and the hot loop
//! is array arithmetic. This crate provides:
//!
//! * [`layout::FeatureLayout`] — the Fig-5 cell layout for `k` platforms;
//! * [`matrix::EnumMatrix`] — row-major flat `Vec<f64>` storage with reused
//!   buffers and an allocation-event counter for the zero-alloc guarantee;
//! * [`merge`] — the fused add-with-max-cells merge kernel;
//! * [`footprint`] — scope bitsets, Def-2 pruning footprints hashed to
//!   `u64`, and [`footprint::FootprintTable`], the pruning pass's
//!   footprint → row map over the workspace's one hash table
//!   ([`robopt_plan::index`]).

pub mod footprint;
pub mod layout;
pub mod matrix;
pub mod merge;

pub use footprint::{footprint_hash, FootprintTable, Scope, SigHasher};
pub use layout::FeatureLayout;
pub use matrix::{alloc_events, EnumMatrix, RowsView, NO_PLATFORM};
