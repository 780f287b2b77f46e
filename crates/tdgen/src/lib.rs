//! `robopt-tdgen`: the scalable training-data generator (TDGEN, paper §V,
//! Fig 8).
//!
//! Learned cost models need far more labelled plans than real executions
//! can affordably provide. TDGEN closes the gap with three moves:
//!
//! * [`shapes`] — seeded **job-shape templates** (pipeline, fan-in,
//!   fan-out, diamond, iterative) whose operator population is driven by
//!   the `robopt_platforms::PlatformRegistry` availability matrix, and
//!   which instantiate at any input scale;
//! * [`switches`] — **platform-switch pruning**: candidate assignments
//!   whose worst source→sink path exceeds β = 3 switches (the paper's
//!   value, fixed) are discarded before any label is paid for;
//! * [`interpolate`] — **runtime interpolation**: the simulator runs only
//!   at a log-spaced knot set of scales per (skeleton, assignment) curve;
//!   a piecewise degree-5 polynomial in log-log space synthesizes labels
//!   everywhere else.
//!
//! [`generator::TdgenGenerator`] composes the three behind
//! `robopt_ml::TrainingSource`, so model-fitting code cannot tell (and
//! does not care) whether labels were simulated or interpolated. The
//! `fig08_tdgen` bench binary measures the resulting simulator-call
//! reduction and label fidelity.

pub mod generator;
pub mod interpolate;
pub mod shapes;
pub mod switches;

pub use generator::{tdgen_training_set, TdgenConfig, TdgenGenerator, TdgenStats};
pub use interpolate::{log_knots, PiecewisePoly, WINDOW};
pub use shapes::{sample_skeleton, JobSkeleton, ShapeKind, SkeletonOp};
pub use switches::{enumerate_assignments, max_switches, sample_assignment};
