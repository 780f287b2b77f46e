//! `robopt`: the optimizer-as-a-service umbrella crate (DESIGN §10).
//!
//! Everything underneath — plan building, Fig-5 vectorization, lossless
//! enumeration, split-based parallelism, the learned forest — stays in its
//! own crate; this crate owns the *service contract* that callers (the CLI
//! daemon, the fig benchmarks, the integration tests) speak:
//!
//! * [`api`] — the request/response value types ([`OptimizeRequest`] /
//!   [`OptimizeResponse`] and friends) plus [`ExecutionPolicy`] and
//!   [`WorkloadSpec`], replacing ad-hoc `EnumOptions` + enumerator + oracle
//!   plumbing at every call site;
//! * [`optimizer`] — the [`Optimizer`] facade: owns the registry, the cost
//!   model (analytic or trained forest behind `&dyn CostOracle`), the
//!   warmed per-part matrix pools of one [`robopt_core::ParallelEnumerator`],
//!   and the plan-signature cache;
//! * [`cache`] — [`PlanCache`], deterministic open-addressed plan-signature
//!   memoization with benefit-weighted eviction and hit/miss counters;
//! * [`json`] — the dependency-free JSON parser and [`json::Writer`] every
//!   JSON text of the workspace goes through: wire lines, model files,
//!   experiment artifacts (numbers kept as raw text so `u64` bit patterns
//!   survive exactly);
//! * [`persist`] — JSON round-trip for the random forest (`f64`s stored as
//!   bit-pattern integers: save → load → `predict_batch` is
//!   bit-identical);
//! * [`wire`] — line-delimited request parsing and response rendering for
//!   `robopt serve` and the one-shot CLI subcommands.
//!
//! # Determinism
//!
//! A cached response is the *same bytes* as a cold one: responses compare
//! cost by `f64::to_bits`, the cache key excludes knobs that cannot change
//! the result (worker count, hardware clamp), and enumeration always runs
//! through the split-based driver whose output is bit-identical across
//! thread counts. `tests/determinism.rs` digests cache-on and cache-off
//! streams and asserts equality.

pub mod api;
pub mod cache;
pub mod json;
pub mod optimizer;
pub mod persist;
pub mod wire;

pub use api::{
    BackendChoice, CompareRequest, CompareResponse, ExecuteRequest, ExecuteResponse,
    ExecutionPolicy, OptimizeRequest, OptimizeResponse, ServiceError, SinglePlatformPlan,
    StatsResponse, TrainRequest, TrainResponse, TrainSource, WorkloadParams, WorkloadSpec,
};
pub use cache::{CacheStats, PlanCache};
pub use optimizer::Optimizer;
pub use persist::{forest_from_json, forest_to_json, PersistError};
pub use robopt_core::{CostDistribution, RiskPolicy};
pub use wire::{parse_request, render_response, Request, Response};
