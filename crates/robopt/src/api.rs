//! The service API value types (DESIGN §10).
//!
//! One request/response pair per verb. Requests are plain data — workload
//! *specs*, not built plans — so they can be hashed into cache keys,
//! rendered over the wire, and replayed deterministically. Responses carry
//! only owned data (names, not `PlatformId`s) so they survive the facade
//! they came from.

use robopt_core::{EnumStats, RiskPolicy};
use robopt_plan::LogicalPlan;
use robopt_vector::SigHasher;

// The workload recipe lives in `robopt_plan` (one constructor path for
// service, figs, and engine); re-exported here so service callers import
// it from the facade.
pub use robopt_plan::{SpecError, WorkloadParams, WorkloadSpec};

use crate::cache::CacheStats;

/// How a request's enumeration executes. Split into two groups:
///
/// * `workers` and `hardware_clamp` schedule work but — by the split-driver
///   determinism contract — **cannot change the result**, so they are
///   excluded from the plan-signature cache key;
/// * `split_parts` and `prune` change the merge tree / search shape (and
///   thus [`EnumStats`]), so they are part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPolicy {
    /// Worker threads for split-based enumeration (≥ 1).
    pub workers: usize,
    /// Plan partition count handed to `robopt_core::SplitOptions`.
    /// `1` disables splitting (serial enumeration on the merger).
    pub split_parts: usize,
    /// Cap workers at `available_parallelism` (on by default).
    pub hardware_clamp: bool,
    /// Def-2 lossless boundary pruning (on by default).
    pub prune: bool,
}

impl Default for ExecutionPolicy {
    fn default() -> Self {
        ExecutionPolicy {
            workers: 1,
            split_parts: 8,
            hardware_clamp: true,
            prune: true,
        }
    }
}

impl ExecutionPolicy {
    /// Default policy with `workers` worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override the plan partition count.
    pub fn with_split_parts(mut self, parts: usize) -> Self {
        self.split_parts = parts.max(1);
        self
    }

    /// Toggle the `available_parallelism` worker cap.
    pub fn with_hardware_clamp(mut self, clamp: bool) -> Self {
        self.hardware_clamp = clamp;
        self
    }

    /// Toggle Def-2 pruning.
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Fold the result-affecting fields into a signature hasher.
    /// `workers` / `hardware_clamp` deliberately excluded (see type docs);
    /// the pattern names every field, so a new one must be keyed or
    /// excluded here before the crate compiles.
    pub(crate) fn write_sig(&self, h: &mut SigHasher) {
        let ExecutionPolicy {
            workers: _,
            split_parts,
            hardware_clamp: _,
            prune,
        } = self;
        h.write_u64(u64::from(*prune));
        h.write_u64(*split_parts as u64);
    }
}

/// Validate and build a workload spec, mapping [`SpecError`] onto the
/// service's typed error — the service never panics on bad input.
pub(crate) fn build_workload(spec: &WorkloadSpec) -> Result<LogicalPlan, ServiceError> {
    spec.build()
        .map_err(|e| ServiceError::InvalidRequest(e.message().to_string()))
}

/// Fold the spec into a signature hasher. A leading per-variant tag keeps
/// e.g. `WordCount{1e7}` and `TpchQ3{1e7}` distinct. Lives here (not on the
/// hoisted spec) because `SigHasher` is a `robopt_vector` type the plan
/// crate does not depend on.
pub(crate) fn write_workload_sig(spec: &WorkloadSpec, h: &mut SigHasher) {
    match *spec {
        WorkloadSpec::WordCount { scale } => {
            h.write_u64(1);
            h.write_f64_bits(scale);
        }
        WorkloadSpec::TpchQ3 { scale } => {
            h.write_u64(2);
            h.write_f64_bits(scale);
        }
        WorkloadSpec::Pipeline { ops, scale } => {
            h.write_u64(3);
            h.write_u64(ops as u64);
            h.write_f64_bits(scale);
        }
        WorkloadSpec::RandomDag { seed, ops, density } => {
            h.write_u64(4);
            h.write_u64(seed);
            h.write_u64(ops as u64);
            h.write_f64_bits(density);
        }
        WorkloadSpec::PageRank { scale, iterations } => {
            h.write_u64(5);
            h.write_f64_bits(scale);
            h.write_u64(u64::from(iterations));
        }
        WorkloadSpec::KMeans { scale, iterations } => {
            h.write_u64(6);
            h.write_f64_bits(scale);
            h.write_u64(u64::from(iterations));
        }
    }
}

/// Optimize one workload under a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeRequest {
    /// What to optimize.
    pub workload: WorkloadSpec,
    /// How to run the enumeration.
    pub policy: ExecutionPolicy,
    /// [`RiskPolicy`] ranking candidate plans (DESIGN §12), by default
    /// `ExpectedCost`; the policy is part of the cache key via
    /// [`OptimizeRequest::signature`].
    pub risk: RiskPolicy,
}

impl OptimizeRequest {
    /// Request with the default [`ExecutionPolicy`].
    pub fn new(workload: WorkloadSpec) -> Self {
        OptimizeRequest {
            workload,
            policy: ExecutionPolicy::default(),
            risk: RiskPolicy::ExpectedCost,
        }
    }

    /// Override the execution policy.
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Rank by `risk` instead of `ExpectedCost`.
    pub fn with_risk(mut self, risk: RiskPolicy) -> Self {
        self.risk = risk;
        self
    }

    /// The plan-signature cache key: a pure function of the workload spec,
    /// the result-affecting policy fields, and the risk policy, built on
    /// the same mixing primitive as Def-2 footprint hashing
    /// ([`SigHasher`]). Every policy gets a distinct key: a
    /// `MeanPlusKSigma` hit must never serve an `ExpectedCost` entry.
    pub fn signature(&self) -> u64 {
        let OptimizeRequest {
            workload,
            policy,
            risk,
        } = self;
        let mut h = SigHasher::new();
        write_workload_sig(workload, &mut h);
        policy.write_sig(&mut h);
        let (tag, param) = risk.sig_parts();
        h.write_u64(tag);
        h.write_f64_bits(param);
        h.finish()
    }
}

/// The optimized plan for one [`OptimizeRequest`].
///
/// `PartialEq` compares `cost` by bit pattern, so `==` *is* the
/// bit-identity the cache contract promises ("a cached response equals the
/// cold response"), not an epsilon comparison.
#[derive(Debug, Clone)]
pub struct OptimizeResponse {
    /// Workload label ([`WorkloadSpec::name`]).
    pub workload: String,
    /// The request's plan signature (also the cache key).
    pub signature: u64,
    /// Chosen platform per operator, in op-id order, as registry names.
    pub assignments: Vec<String>,
    /// Number of distinct platforms in the winning plan.
    pub distinct_platforms: usize,
    /// Canonical re-cost of the winning assignment under the active oracle.
    /// Always the distribution *mean* — risk policies change which plan
    /// wins, never how its cost is quoted (DESIGN §12).
    pub cost: f64,
    /// Standard deviation of the winner's cost distribution (zero under a
    /// point-estimate oracle).
    pub cost_std: f64,
    /// 10th-percentile cost of the winner's distribution.
    pub cost_q10: f64,
    /// 90th-percentile cost of the winner's distribution.
    pub cost_q90: f64,
    /// The risk policy that ranked this answer, echoed as its wire label
    /// (`expected`, `sigma<k>`, `q<q>`).
    pub risk_policy: String,
    /// Enumeration counters (invariant across worker counts).
    pub stats: EnumStats,
}

impl PartialEq for OptimizeResponse {
    fn eq(&self, other: &Self) -> bool {
        let OptimizeResponse {
            workload,
            signature,
            assignments,
            distinct_platforms,
            cost,
            cost_std,
            cost_q10,
            cost_q90,
            risk_policy,
            stats,
        } = self;
        *workload == other.workload
            && *signature == other.signature
            && *assignments == other.assignments
            && *distinct_platforms == other.distinct_platforms
            && cost.to_bits() == other.cost.to_bits()
            && cost_std.to_bits() == other.cost_std.to_bits()
            && cost_q10.to_bits() == other.cost_q10.to_bits()
            && cost_q90.to_bits() == other.cost_q90.to_bits()
            && *risk_policy == other.risk_policy
            && *stats == other.stats
    }
}

/// Where training rows come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainSource {
    /// Direct labelling: one simulator call per row.
    Simulator {
        /// Simulator seed.
        seed: u64,
        /// Multiplicative noise amplitude in `[0, 1)`.
        noise: f64,
    },
    /// TDGEN interpolated generation (many rows per simulator call).
    Tdgen {
        /// Generator seed.
        seed: u64,
    },
}

/// Seed and noise amplitude of a training source nobody configured.
pub(crate) const TRAIN_SEED: u64 = 41;
pub(crate) const TRAIN_NOISE: f64 = 0.05;

/// Train a random forest and install it as the facade's cost oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainRequest {
    /// Training-row source.
    pub source: TrainSource,
    /// Number of labelled rows to draw.
    pub rows: usize,
    /// Trees in the forest.
    pub n_trees: usize,
    /// Forest master seed.
    pub forest_seed: u64,
}

impl TrainRequest {
    /// Defaults matching the ml-crate test setup: the simulator source
    /// (seed 41, 5 % noise), 24 trees, the forest's default seed.
    pub fn new(rows: usize) -> Self {
        TrainRequest {
            source: TrainSource::Simulator {
                seed: TRAIN_SEED,
                noise: TRAIN_NOISE,
            },
            rows,
            n_trees: 24,
            forest_seed: 0x0b5e_55ed,
        }
    }
}

/// What `{"op":"train"}` means: 512 rows under the [`TrainRequest::new`]
/// defaults.
impl Default for TrainRequest {
    fn default() -> Self {
        TrainRequest::new(512)
    }
}

/// Outcome of a [`TrainRequest`]: the model is now the active oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResponse {
    /// Rows actually trained on.
    pub rows: usize,
    /// Trees fitted.
    pub n_trees: usize,
    /// Feature width of the installed model.
    pub width: usize,
    /// Mean squared error on the training rows (fit sanity, not accuracy).
    pub train_mse: f64,
}

/// Which [`robopt_platforms::ExecutionBackend`] answers an
/// [`ExecuteRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendChoice {
    /// The real multi-threaded in-memory engine: measured wall-clock
    /// compute plus deterministically modeled overheads.
    Engine {
        /// Worker threads for the engine's keyed pass (≥ 1).
        workers: usize,
    },
    /// The analytic runtime simulator (PR-2): fully deterministic.
    Simulator {
        /// Simulator seed.
        seed: u64,
        /// Multiplicative noise amplitude in `[0, 1)`.
        noise: f64,
    },
}

/// Engine workers and simulator seed of a request nobody configured (the
/// seed is the one `compare` defaults to as well).
pub(crate) const ENGINE_WORKERS: usize = 2;
pub(crate) const SIM_SEED: u64 = 42;

impl Default for BackendChoice {
    fn default() -> Self {
        BackendChoice::Engine {
            workers: ENGINE_WORKERS,
        }
    }
}

/// Execute a workload on a backend under an explicit (or optimized)
/// assignment — the `execute` service verb (DESIGN §11).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteRequest {
    /// What to run.
    pub workload: WorkloadSpec,
    /// Platform name per operator; empty means "optimize first, then
    /// execute the winning assignment".
    pub assignments: Vec<String>,
    /// Which backend runs the plan.
    pub backend: BackendChoice,
}

impl ExecuteRequest {
    /// Execute on the default backend (engine, 2 workers), optimizing
    /// first to pick the assignment.
    pub fn new(workload: WorkloadSpec) -> Self {
        ExecuteRequest {
            workload,
            assignments: Vec::new(),
            backend: BackendChoice::default(),
        }
    }

    /// Pin an explicit assignment (one platform name per operator).
    pub fn with_assignments(mut self, assignments: Vec<String>) -> Self {
        self.assignments = assignments;
        self
    }

    /// Pick the backend.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }
}

/// Execution outcome for one assignment — the service rendering of
/// [`robopt_platforms::ExecutionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteResponse {
    /// Workload label.
    pub workload: String,
    /// Backend that produced the numbers (`engine` or `simulator`).
    pub backend: String,
    /// The assignment that was executed (resolved names).
    pub assignments: Vec<String>,
    /// Total runtime in seconds (`infinite` ⇒ infeasible, see `feasible`).
    pub seconds: f64,
    /// Seconds spent in operator work (measured for the engine, modeled
    /// for the simulator).
    pub compute_seconds: f64,
    /// Seconds charged to startup, per-operator fixed costs, conversions,
    /// and loop synchronization — always deterministically modeled.
    pub overhead_seconds: f64,
    /// Whether the assignment was executable on its platforms.
    pub feasible: bool,
    /// `true` when `compute_seconds` came from a wall clock (engine);
    /// `false` when fully modeled (simulator).
    pub measured: bool,
    /// Records delivered to terminal operators (sinks).
    pub output_rows: u64,
    /// Deterministic digest of the terminal output records; `0` for
    /// backends that move no data.
    pub output_digest: u64,
    /// Per-operator seconds, in op-id order. On the engine an operator
    /// fused into the one it feeds (a keyed operator, or the Filter /
    /// Sample a source feeds) reports its modeled overhead only; the fused
    /// chain's measured time is on that operator, and `compute_seconds`
    /// still sums all measured time.
    pub op_seconds: Vec<f64>,
    /// Per-operator output cardinalities, in op-id order.
    pub op_output_rows: Vec<u64>,
}

/// Optimize a workload, then pit the mixed-platform winner against every
/// single-platform execution (the Fig-2 experiment as a service verb).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareRequest {
    /// What to compare.
    pub workload: WorkloadSpec,
    /// Enumeration policy for the mixed optimization.
    pub policy: ExecutionPolicy,
    /// Seed for the runtime simulation of every plan.
    pub sim_seed: u64,
}

/// One single-platform contender in a [`CompareResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct SinglePlatformPlan {
    /// Platform name.
    pub platform: String,
    /// Oracle cost, or `None` if the platform cannot run the whole plan.
    pub cost: Option<f64>,
    /// Simulated seconds, or `None` if infeasible.
    pub sim_seconds: Option<f64>,
}

/// Mixed-vs-single-platform comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareResponse {
    /// Workload label.
    pub workload: String,
    /// The mixed-platform optimum.
    pub mixed: OptimizeResponse,
    /// Platform mix of the winner, e.g. `flink:3+postgres:2`.
    pub mix: String,
    /// Simulated seconds of the mixed plan.
    pub mixed_sim_seconds: f64,
    /// Every single-platform contender, in registry order.
    pub singles: Vec<SinglePlatformPlan>,
    /// Cheapest feasible single-platform oracle cost, if any.
    pub best_single_cost: Option<f64>,
    /// Whether the mixed plan strictly beats every single platform.
    pub mixed_wins: bool,
}

/// Service telemetry snapshot (the `stats` wire verb).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsResponse {
    /// `Optimizer::optimize` calls since construction, whether they hit,
    /// miss or are refused: one per `optimize` request, one per `compare`,
    /// and one per `execute` without assignments. `train`, `stats` and an
    /// `execute` with assignments are not counted.
    pub requests: u64,
    /// Plan-signature cache counters.
    pub cache: CacheStats,
    /// Cumulative wall-clock time spent in `optimize`, in microseconds
    /// (summed in nanoseconds, so sub-microsecond cache hits count).
    /// Reported only — never feeds optimization, caching, or any other
    /// response field.
    pub total_micros: u64,
}

/// Every way a service request can fail. The facade returns these instead
/// of panicking; the wire layer renders them as `{"ok":false,...}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Request parameters outside their documented domain.
    InvalidRequest(String),
    /// A well-formed request over a work budget, refused before any of the
    /// work starts: it would take `estimate` units of `what`, over `limit`.
    TooLarge {
        /// What the budget counts, e.g. `"enumeration rows"`.
        what: &'static str,
        /// Units the request would take.
        estimate: u64,
        /// Units the budget allows.
        limit: u64,
    },
    /// An assignment named a platform the registry does not have.
    UnknownPlatform(String),
    /// An explicit assignment's length does not match the plan.
    AssignmentLength {
        /// Operators in the plan.
        expected: usize,
        /// Names supplied.
        got: usize,
    },
    /// A model could not be installed (wrong width, failed validation).
    BadModel(String),
    /// A wire-level request could not be parsed.
    Parse(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::TooLarge {
                what,
                estimate,
                limit,
            } => write!(f, "too large: {estimate} {what}, over the limit of {limit}"),
            ServiceError::UnknownPlatform(name) => write!(f, "unknown platform: {name}"),
            ServiceError::AssignmentLength { expected, got } => {
                write!(
                    f,
                    "assignment length {got} != plan operator count {expected}"
                )
            }
            ServiceError::BadModel(msg) => write!(f, "bad model: {msg}"),
            ServiceError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_ignores_workers_and_clamp_but_not_prune_or_split() {
        let base = OptimizeRequest::new(WorkloadSpec::WordCount { scale: 1e7 });
        let sig = base.signature();
        let workers = base.with_policy(ExecutionPolicy::default().with_workers(8));
        let clamp = base.with_policy(ExecutionPolicy::default().with_hardware_clamp(false));
        assert_eq!(sig, workers.signature(), "workers must not change the key");
        assert_eq!(sig, clamp.signature(), "clamp must not change the key");
        let noprune = base.with_policy(ExecutionPolicy::default().with_prune(false));
        let resplit = base.with_policy(ExecutionPolicy::default().with_split_parts(3));
        assert_ne!(sig, noprune.signature(), "prune is part of the key");
        assert_ne!(sig, resplit.signature(), "split_parts is part of the key");
    }

    #[test]
    fn signature_distinguishes_workloads_sharing_field_values() {
        let wc = OptimizeRequest::new(WorkloadSpec::WordCount { scale: 1e6 });
        let q3 = OptimizeRequest::new(WorkloadSpec::TpchQ3 { scale: 1e6 });
        assert_ne!(wc.signature(), q3.signature());
        let a = OptimizeRequest::new(WorkloadSpec::Pipeline { ops: 8, scale: 1e5 });
        let b = OptimizeRequest::new(WorkloadSpec::Pipeline { ops: 9, scale: 1e5 });
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn optimize_response_equality_is_bitwise_on_cost() {
        let mk = |cost: f64, std: f64| OptimizeResponse {
            workload: "w".to_string(),
            signature: 1,
            assignments: vec!["p".to_string()],
            distinct_platforms: 1,
            cost,
            cost_std: std,
            cost_q10: cost,
            cost_q90: cost,
            risk_policy: "expected".to_string(),
            stats: EnumStats::default(),
        };
        assert_eq!(mk(1.5, 0.0), mk(1.5, 0.0));
        assert_ne!(mk(0.0, 0.0), mk(-0.0, 0.0), "0.0 and -0.0 differ bitwise");
        assert_ne!(mk(1.5, 0.0), mk(1.5, -0.0), "cost_std is bitwise too");
    }

    #[test]
    fn signature_separates_risk_policies() {
        let base = OptimizeRequest::new(WorkloadSpec::WordCount { scale: 1e7 });
        assert_eq!(base.risk, RiskPolicy::ExpectedCost);
        // Every other policy (and parameter) is a distinct key.
        let sigma = base.with_risk(RiskPolicy::MeanPlusKSigma(1.5));
        let sigma2 = base.with_risk(RiskPolicy::MeanPlusKSigma(2.0));
        let q90 = base.with_risk(RiskPolicy::Quantile(0.9));
        assert_ne!(base.signature(), sigma.signature());
        assert_ne!(sigma.signature(), sigma2.signature());
        assert_ne!(sigma.signature(), q90.signature());
        assert_ne!(base.signature(), q90.signature());
    }
}
