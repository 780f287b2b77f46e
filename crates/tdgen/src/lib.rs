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
//! * [`switches`] — **platform-switch pruning**: the assignment walk never
//!   takes a source→sink path past β = 3 switches (the paper's value,
//!   fixed), so no label is paid for such a plan;
//! * [`interpolate`] — **runtime interpolation**: the simulator runs only
//!   at a log-spaced knot set of scales per (skeleton, assignment) curve;
//!   a piecewise degree-5 polynomial in log-log space synthesizes labels
//!   everywhere else.
//!
//! [`generator::TdgenGenerator`] composes the three behind
//! `robopt_ml::TrainingSource`, so model-fitting code cannot tell (and
//! does not care) whether labels were simulated or interpolated. Its one
//! setting is the seed ([`TdgenConfig`]); β, the scale range, the noise,
//! the knot count, the operator range and the rows per curve are the
//! [`generator`] consts. The `fig08_tdgen` bench binary measures the
//! simulator-call reduction, and label fidelity on the generator's own
//! draws ([`TdgenGenerator::next_skeleton`], [`Curve::sweep`]).
//!
//! ```
//! use robopt_ml::TrainingSource;
//! use robopt_platforms::PlatformRegistry;
//! use robopt_tdgen::{TdgenConfig, TdgenGenerator};
//! use robopt_vector::FeatureLayout;
//!
//! let registry = PlatformRegistry::named();
//! let layout = FeatureLayout::new(registry.len(), robopt_plan::N_OPERATOR_KINDS);
//! let mut tdgen = TdgenGenerator::new(&registry, layout, TdgenConfig::new().with_seed(7));
//! assert_eq!(tdgen.generate(100).len(), 100);
//! assert!(tdgen.stats().reduction() > 5.0);
//! ```

pub mod generator;
pub mod interpolate;
pub mod shapes;
pub mod switches;

pub use generator::{
    Curve, TdgenConfig, TdgenGenerator, TdgenStats, BETA, KNOTS, NOISE, OPS_RANGE, ROWS_PER_CURVE,
    SCALE_RANGE,
};
pub use interpolate::{log_knots, PiecewisePoly, WINDOW};
pub use shapes::{sample_skeleton, JobSkeleton, ShapeKind, SkeletonOp};
pub use switches::{max_switches, sample_assignment};
