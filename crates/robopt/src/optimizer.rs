//! The [`Optimizer`] facade — the one object behind every service verb.
//!
//! Owns the [`PlatformRegistry`], the Fig-5 [`FeatureLayout`], the active
//! cost model (analytic, or a trained forest behind the same
//! `&dyn CostOracle` the enumerators already speak), the warmed per-part
//! matrix pools of one [`ParallelEnumerator`], and the plan-signature
//! [`PlanCache`]. Callers that used to wire `EnumOptions` + oracle +
//! enumerator by hand now send [`OptimizeRequest`]s; the raw plumbing
//! stays inside `robopt_core` (with [`Optimizer::enum_options`] as the
//! escape hatch for baselines that genuinely need it).
//!
//! # Cache soundness
//!
//! The cache key ([`OptimizeRequest::signature`]) covers everything the
//! response depends on *except* the active model — so every model swap
//! ([`Optimizer::train`], [`Optimizer::install_forest`]) flushes the
//! cache. Worker count and hardware clamp are excluded from the key
//! because enumeration always runs through the split driver, whose result
//! is bit-identical across thread counts.

use robopt_core::vectorize::vectorize_assignment;
use robopt_core::{
    AnalyticOracle, CostDistribution, CostOracle, EnumOptions, ParallelEnumerator, RiskPolicy,
    SplitOptions,
};
use robopt_engine::Engine;
use robopt_ml::{
    mse, simulator_training_set, ForestConfig, Model, ModelOracle, RandomForest, SamplerConfig,
};
use robopt_plan::{LogicalPlan, N_OPERATOR_KINDS};
use robopt_platforms::{
    ExecutionBackend, ExecutionReport, PlatformId, PlatformRegistry, RuntimeSimulator,
};
use robopt_tdgen::{tdgen_training_set, TdgenConfig};
use robopt_vector::{FeatureLayout, RowsView};

use crate::api::{
    build_workload, BackendChoice, CompareRequest, CompareResponse, ExecuteRequest,
    ExecuteResponse, OptimizeRequest, OptimizeResponse, ServiceError, SinglePlatformPlan,
    StatsResponse, TrainRequest, TrainResponse, TrainSource,
};
use crate::cache::{CacheStats, PlanCache};

/// The active cost model. Both arms serve enumeration through
/// `&dyn CostOracle`; the forest arm additionally exposes its model for
/// persistence.
#[derive(Debug)]
enum OracleKind {
    Analytic(AnalyticOracle),
    Forest(ModelOracle<RandomForest>),
}

impl OracleKind {
    fn as_dyn(&self) -> &dyn CostOracle {
        match self {
            OracleKind::Analytic(o) => o,
            OracleKind::Forest(o) => o,
        }
    }
}

/// Most rows an unpruned search may leave in its final unit (≈ 440 MB at
/// the named registry's width 211). Without Def-2 pruning that unit holds
/// one row per platform combination, so a dozen operators would ask the
/// allocator for tens of gigabytes and abort the process.
const MAX_UNPRUNED_ROWS: u64 = 1 << 18;

/// The optimizer-as-a-service facade. See the module docs.
#[derive(Debug)]
pub struct Optimizer {
    registry: PlatformRegistry,
    layout: FeatureLayout,
    oracle: OracleKind,
    parallel: ParallelEnumerator,
    cache: PlanCache,
    cache_enabled: bool,
    /// Session-wide risk policy applied to requests that don't carry one
    /// (`robopt serve --risk`). Folded into the *effective* request before
    /// the signature is computed, so the cache stays policy-sound.
    default_risk: Option<RiskPolicy>,
    /// Requests served — also the logical clock that drives cache recency
    /// (never wall time).
    requests: u64,
    total_micros: u64,
    /// Scratch feature row for the winner re-cost and single-platform
    /// costing (`compare`); reused across requests.
    feats: Vec<f64>,
    /// Scratch distribution for the one-row winner re-cost that fills
    /// `cost_std` / `cost_q10` / `cost_q90`; reused across requests.
    dist: CostDistribution,
}

impl Optimizer {
    /// A facade over `registry` with the analytic oracle and the default
    /// cache capacity.
    pub fn new(registry: PlatformRegistry) -> Self {
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let oracle = OracleKind::Analytic(AnalyticOracle::for_registry(&registry, &layout));
        Optimizer {
            registry,
            layout,
            oracle,
            parallel: ParallelEnumerator::new(1),
            cache: PlanCache::new(PlanCache::DEFAULT_CAPACITY),
            cache_enabled: true,
            default_risk: None,
            requests: 0,
            total_micros: 0,
            feats: Vec::new(),
            dist: CostDistribution::new(),
        }
    }

    /// Facade over the five named heterogeneous platforms.
    pub fn named() -> Self {
        Optimizer::new(PlatformRegistry::named())
    }

    /// The owned platform registry.
    pub fn registry(&self) -> &PlatformRegistry {
        &self.registry
    }

    /// The Fig-5 feature layout derived from the registry.
    pub fn layout(&self) -> &FeatureLayout {
        &self.layout
    }

    /// The trained forest, if one is installed.
    pub fn forest(&self) -> Option<&RandomForest> {
        match &self.oracle {
            OracleKind::Forest(m) => Some(m.model()),
            OracleKind::Analytic(_) => None,
        }
    }

    /// Install a loaded forest as the active oracle (flushes the cache).
    pub fn install_forest(&mut self, forest: RandomForest) -> Result<(), ServiceError> {
        if forest.width() != self.layout.width {
            return Err(ServiceError::BadModel(format!(
                "forest width {} does not match the registry layout width {}",
                forest.width(),
                self.layout.width
            )));
        }
        self.oracle = OracleKind::Forest(ModelOracle::new(forest));
        self.cache.clear();
        Ok(())
    }

    /// Raw enumeration options over the facade's registry and active
    /// oracle — the escape hatch for baselines (exhaustive search, the
    /// object-graph enumerator) that predate the request API. Service
    /// callers never need this.
    pub fn enum_options(&self) -> EnumOptions<'_> {
        EnumOptions::new(&self.registry).with_oracle(self.oracle.as_dyn())
    }

    /// A raw [`Engine`] over the facade's registry — escape hatch for
    /// callers (fig binaries, byte-identity tests) that need
    /// `execute_collect`'s actual output records rather than the
    /// [`ExecuteResponse`] rendering.
    pub fn engine(&self, workers: usize) -> Engine<'_> {
        Engine::new(&self.registry).with_workers(workers)
    }

    /// Toggle plan-signature memoization (on by default).
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Session-wide default risk policy for requests that don't carry one
    /// (`robopt serve --risk`). `None` restores [`RiskPolicy::ExpectedCost`]
    /// behavior. The default is folded into the effective request *before*
    /// its signature is computed, so a sigma-default session and an
    /// expected-cost session never share cache entries.
    pub fn set_default_risk(&mut self, risk: Option<RiskPolicy>) {
        self.default_risk = risk;
    }

    /// The request as actually optimized: an explicit per-request risk
    /// policy wins, otherwise the session default fills in.
    fn effective(&self, req: &OptimizeRequest) -> OptimizeRequest {
        OptimizeRequest {
            risk: req.risk.or(self.default_risk),
            ..*req
        }
    }

    /// Replace the cache with an empty one of `capacity` entries.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache = PlanCache::new(capacity);
    }

    /// Drop every cached response (counters survive).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Service telemetry snapshot.
    pub fn service_stats(&self) -> StatsResponse {
        StatsResponse {
            requests: self.requests,
            cache: self.cache.stats(),
            total_micros: self.total_micros,
        }
    }

    /// Optimize one workload. Cache hits return the memoized response,
    /// which is bit-identical to what the cold path would produce
    /// (`tests/service_api.rs` and `tests/determinism.rs` assert this).
    pub fn optimize(&mut self, req: &OptimizeRequest) -> Result<OptimizeResponse, ServiceError> {
        let started = now();
        self.requests += 1;
        let req = &self.effective(req);
        if let Some(risk) = req.risk {
            risk.validate().map_err(ServiceError::InvalidRequest)?;
        }
        let sig = req.signature();
        if self.cache_enabled {
            if let Some(hit) = self.cache.lookup(sig, self.requests) {
                self.total_micros += elapsed_micros(started);
                return Ok(hit);
            }
        }
        let resp = self.optimize_cold(req, sig)?;
        if self.cache_enabled {
            let work = resp.stats.generated.max(1);
            self.cache.insert(sig, resp.clone(), work, self.requests);
        }
        self.total_micros += elapsed_micros(started);
        Ok(resp)
    }

    /// Train a forest per `req` and install it as the active oracle.
    pub fn train(&mut self, req: &TrainRequest) -> Result<TrainResponse, ServiceError> {
        if req.rows < 8 || req.rows > 1_000_000 {
            return Err(ServiceError::InvalidRequest(format!(
                "training rows {} outside [8, 1000000]",
                req.rows
            )));
        }
        if req.n_trees < 1 || req.n_trees > 1024 {
            return Err(ServiceError::InvalidRequest(format!(
                "n_trees {} outside [1, 1024]",
                req.n_trees
            )));
        }
        let set = match req.source {
            TrainSource::Simulator { seed, noise } => {
                check_noise(noise)?;
                let cfg = SamplerConfig::new().with_seed(seed).with_noise(noise);
                simulator_training_set(&self.registry, &self.layout, &cfg, req.rows)
            }
            TrainSource::Tdgen { seed } => {
                let cfg = TdgenConfig::new().with_seed(seed);
                tdgen_training_set(&self.registry, &self.layout, &cfg, req.rows)
            }
        };
        let cfg = ForestConfig {
            n_trees: req.n_trees,
            seed: req.forest_seed,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit_on(&cfg, &set);
        let mut preds = Vec::new();
        forest.predict_batch(set.rows_view(), &mut preds);
        let train_mse = mse(&preds, &set.labels);
        let rows = set.len();
        self.oracle = OracleKind::Forest(ModelOracle::new(forest));
        // Every cached cost came from the previous model: flush.
        self.cache.clear();
        Ok(TrainResponse {
            rows,
            n_trees: req.n_trees,
            width: self.layout.width,
            train_mse,
        })
    }

    /// Execute a workload on a backend — the `execute` service verb
    /// (DESIGN §11). With [`BackendChoice::Engine`] the plan *actually
    /// runs*: seeded generators feed the multi-threaded executor,
    /// WordCount counts real words, and `seconds` is measured wall clock
    /// plus modeled platform overheads. With [`BackendChoice::Simulator`]
    /// the analytic runtime simulator answers instead: fully modeled,
    /// `seconds` bit-identical to a direct `RuntimeSimulator::simulate`.
    /// Empty `req.assignments` optimizes first and executes the winner.
    pub fn execute(&mut self, req: &ExecuteRequest) -> Result<ExecuteResponse, ServiceError> {
        let plan = build_workload(&req.workload)?;
        let names = self.resolve_or_optimize(&plan, &req.workload, &req.assignments)?;
        let ids = self.resolve_platform_ids(&names)?;
        let report = match req.backend {
            BackendChoice::Engine { workers } => {
                if workers == 0 || workers > 256 {
                    return Err(ServiceError::InvalidRequest(format!(
                        "engine workers {workers} outside [1, 256]"
                    )));
                }
                let engine = Engine::new(&self.registry).with_workers(workers);
                let backend: &dyn ExecutionBackend = &engine;
                backend.execute(&plan, &ids)
            }
            BackendChoice::Simulator { seed, noise } => {
                check_noise(noise)?;
                let sim = RuntimeSimulator::new(&self.registry, seed).with_noise(noise);
                let backend: &dyn ExecutionBackend = &sim;
                backend.execute(&plan, &ids)
            }
        };
        Ok(render_execute_response(&req.workload, names, &report))
    }

    /// Resolve the assignment names to run: the request's own when given,
    /// otherwise the optimizer's winning plan for `spec`.
    fn resolve_or_optimize(
        &mut self,
        plan: &LogicalPlan,
        spec: &crate::api::WorkloadSpec,
        assignments: &[String],
    ) -> Result<Vec<String>, ServiceError> {
        let names: Vec<String> = if assignments.is_empty() {
            self.optimize(&OptimizeRequest::new(*spec))?.assignments
        } else {
            assignments.to_vec()
        };
        if names.len() != plan.n_ops() {
            return Err(ServiceError::AssignmentLength {
                expected: plan.n_ops(),
                got: names.len(),
            });
        }
        Ok(names)
    }

    /// Map platform names to registry ids, failing on unknown names.
    fn resolve_platform_ids(&self, names: &[String]) -> Result<Vec<PlatformId>, ServiceError> {
        let mut ids = Vec::with_capacity(names.len());
        for name in names {
            ids.push(
                self.registry
                    .by_name(name)
                    .ok_or_else(|| ServiceError::UnknownPlatform(name.clone()))?,
            );
        }
        Ok(ids)
    }

    /// The Fig-2 experiment as a verb: optimize, then pit the mixed winner
    /// against every single-platform execution under oracle cost *and*
    /// simulated runtime.
    pub fn compare(&mut self, req: &CompareRequest) -> Result<CompareResponse, ServiceError> {
        let plan = build_workload(&req.workload)?;
        let mixed = self.optimize(&OptimizeRequest::new(req.workload).with_policy(req.policy))?;
        let mixed_ids = self.resolve_platform_ids(&mixed.assignments)?;
        let Optimizer {
            registry,
            layout,
            oracle,
            feats,
            ..
        } = self;
        // Runtime numbers flow through the ExecutionBackend seam; for the
        // simulator backend `seconds` is bit-identical to `simulate_raw`.
        let sim = RuntimeSimulator::new(registry, req.sim_seed);
        let backend: &dyn ExecutionBackend = &sim;
        let mixed_sim_seconds = backend.execute(&plan, &mixed_ids).seconds;

        let mut singles = Vec::with_capacity(registry.len());
        let mut best_single_cost: Option<f64> = None;
        for id in registry.ids().collect::<Vec<_>>() {
            let single =
                single_platform_plan(registry, layout, oracle.as_dyn(), feats, &plan, id, backend);
            if let Some(cost) = single.cost {
                best_single_cost = Some(match best_single_cost {
                    Some(best) if best <= cost => best,
                    _ => cost,
                });
            }
            singles.push(single);
        }
        let mixed_wins = match best_single_cost {
            Some(best) => mixed.cost < best,
            None => true,
        };
        Ok(CompareResponse {
            workload: req.workload.name(),
            mix: mix_label(&mixed),
            mixed,
            mixed_sim_seconds,
            singles,
            best_single_cost,
            mixed_wins,
        })
    }

    /// Cold path: build the plan, run split-based enumeration under the
    /// request's policy and shape the result into a response. Always goes
    /// through the parallel driver — its output is bit-identical across
    /// worker counts, which is what lets the cache key ignore `workers`.
    fn optimize_cold(
        &mut self,
        req: &OptimizeRequest,
        sig: u64,
    ) -> Result<OptimizeResponse, ServiceError> {
        let plan = &build_workload(&req.workload)?;
        let Optimizer {
            registry,
            layout,
            oracle,
            parallel,
            feats,
            dist,
            ..
        } = self;
        if !req.policy.prune {
            let rows = (0..plan.n_ops() as u32).fold(1u64, |rows, op| {
                let k = registry.available_platforms(plan.op(op).kind).count();
                rows.saturating_mul(k as u64)
            });
            if rows > MAX_UNPRUNED_ROWS {
                return Err(ServiceError::InvalidRequest(format!(
                    "unpruned search would hold {rows} plan rows, over the limit of \
                     {MAX_UNPRUNED_ROWS}: leave pruning on for this plan"
                )));
            }
        }
        let risk = req.risk.unwrap_or_default();
        parallel.set_threads(req.policy.workers);
        parallel.set_split(SplitOptions::new(req.policy.split_parts.max(1)));
        parallel.set_hardware_clamp(req.policy.hardware_clamp);
        let opts = EnumOptions::new(registry)
            .with_oracle(oracle.as_dyn())
            .with_prune(req.policy.prune)
            .with_risk(risk);
        let (exec, stats) = parallel.enumerate(plan, layout, opts);
        // One-row distribution over the winner fills the uncertainty
        // fields. The distribution's mean is bit-identical to the
        // canonical `cost_row` mean the enumerator reported (both sum the
        // same members in the same order), so `cost` itself is untouched.
        let raw: Vec<u8> = exec.assignments.iter().map(|&id| id.raw()).collect();
        vectorize_assignment(plan, layout, &raw, feats);
        oracle
            .as_dyn()
            .cost_batch_dist(RowsView::new(feats, layout.width), dist);
        let Some((_mean, cost_std, cost_q10, cost_q90)) = dist.single_row() else {
            return Err(ServiceError::BadModel(format!(
                "cost model returned {} distribution rows for the one winning plan",
                dist.len()
            )));
        };
        debug_assert_eq!(
            _mean.to_bits(),
            exec.cost.to_bits(),
            "winner distribution mean diverged from the canonical cost"
        );
        Ok(OptimizeResponse {
            workload: req.workload.name(),
            signature: sig,
            assignments: exec
                .assignments
                .iter()
                .map(|&id| registry.platform(id).name.clone())
                .collect(),
            distinct_platforms: exec.distinct_platforms(),
            cost: exec.cost,
            cost_std,
            cost_q10,
            cost_q90,
            risk_policy: risk.label(),
            stats,
        })
    }
}

/// Cost + run a plan pinned entirely onto `id`, if feasible. Free
/// function (not a method) so `compare` can call it with the facade's
/// fields individually borrowed while the backend holds the registry.
fn single_platform_plan(
    registry: &PlatformRegistry,
    layout: &FeatureLayout,
    oracle: &dyn CostOracle,
    feats: &mut Vec<f64>,
    plan: &LogicalPlan,
    id: PlatformId,
    backend: &dyn ExecutionBackend,
) -> SinglePlatformPlan {
    let name = registry.platform(id).name.clone();
    if !registry.feasible(plan, |_| id) {
        return SinglePlatformPlan {
            platform: name,
            cost: None,
            sim_seconds: None,
        };
    }
    let raw = vec![id.raw(); plan.n_ops()];
    vectorize_assignment(plan, layout, &raw, feats);
    let cost = oracle.cost_row(feats);
    let report = backend.execute_raw(plan, &raw);
    SinglePlatformPlan {
        platform: name,
        cost: Some(cost),
        sim_seconds: report.feasible.then_some(report.seconds),
    }
}

/// Shape an [`ExecutionReport`] into the wire-facing [`ExecuteResponse`].
fn render_execute_response(
    spec: &crate::api::WorkloadSpec,
    assignments: Vec<String>,
    report: &ExecutionReport,
) -> ExecuteResponse {
    ExecuteResponse {
        workload: spec.name(),
        backend: report.backend.to_string(),
        assignments,
        seconds: report.seconds,
        compute_seconds: report.compute_seconds,
        overhead_seconds: report.overhead_seconds,
        feasible: report.feasible,
        measured: report.measured,
        output_rows: report.output_rows,
        output_digest: report.output_digest,
        op_seconds: report.per_op.iter().map(|o| o.seconds).collect(),
        op_output_rows: report.per_op.iter().map(|o| o.output_rows).collect(),
    }
}

/// `flink:3+postgres:2`-style mix label, platforms in first-use order.
fn mix_label(resp: &OptimizeResponse) -> String {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for name in &resp.assignments {
        match counts.iter_mut().find(|(n, _)| *n == name.as_str()) {
            Some((_, c)) => *c += 1,
            None => counts.push((name.as_str(), 1)),
        }
    }
    counts
        .iter()
        .map(|(n, c)| format!("{n}:{c}"))
        .collect::<Vec<_>>()
        .join("+")
}

fn check_noise(noise: f64) -> Result<(), ServiceError> {
    if (0.0..1.0).contains(&noise) {
        Ok(())
    } else {
        Err(ServiceError::InvalidRequest(format!(
            "noise amplitude {noise} outside [0, 1)"
        )))
    }
}

/// Wall-clock start mark for service telemetry. The reading feeds only
/// `StatsResponse::total_micros` — never optimization, caching, eviction,
/// or any deterministic response field.
#[expect(
    clippy::disallowed_methods,
    reason = "service telemetry only: values land in StatsResponse::total_micros and never influence optimization, cache decisions, or response payloads"
)]
fn now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Microseconds since `started`, saturated into `u64`.
fn elapsed_micros(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExecutionPolicy, WorkloadSpec};

    fn wc() -> WorkloadSpec {
        WorkloadSpec::WordCount { scale: 1e7 }
    }

    const SIM: BackendChoice = BackendChoice::Simulator {
        seed: 42,
        noise: 0.0,
    };

    #[test]
    fn cached_response_is_bit_identical_to_cold() {
        let mut opt = Optimizer::named();
        let req = OptimizeRequest::new(wc());
        let cold = opt.optimize(&req).expect("cold optimize");
        let cached = opt.optimize(&req).expect("cached optimize");
        assert_eq!(cold, cached, "OptimizeResponse eq is bitwise on cost");
        let stats = opt.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // Cache off must reproduce the same bytes from scratch.
        let mut fresh = Optimizer::named();
        fresh.set_cache_enabled(false);
        let recomputed = fresh.optimize(&req).expect("cache-off optimize");
        assert_eq!(cold, recomputed);
        assert_eq!(fresh.cache_stats().hits, 0);
    }

    #[test]
    fn worker_count_and_clamp_share_one_cache_line_soundly() {
        let mut opt = Optimizer::named();
        let one = opt
            .optimize(
                &OptimizeRequest::new(wc()).with_policy(
                    ExecutionPolicy::default()
                        .with_workers(1)
                        .with_hardware_clamp(false),
                ),
            )
            .expect("1 worker");
        // Recompute with 4 workers on a cache-disabled facade: the split
        // driver's determinism contract makes it bit-identical, which is
        // exactly why `workers` is excluded from the signature.
        let mut fresh = Optimizer::named();
        fresh.set_cache_enabled(false);
        let four = fresh
            .optimize(
                &OptimizeRequest::new(wc()).with_policy(
                    ExecutionPolicy::default()
                        .with_workers(4)
                        .with_hardware_clamp(false),
                ),
            )
            .expect("4 workers");
        assert_eq!(one, four);
    }

    #[test]
    fn default_risk_fills_unlabelled_requests_and_keys_the_cache() {
        let mut opt = Optimizer::named();
        let plain = opt.optimize(&OptimizeRequest::new(wc())).expect("expected");
        assert_eq!(plain.risk_policy, "expected");
        assert!(plain.cost_q10 <= plain.cost_q90);
        opt.set_default_risk(Some(RiskPolicy::MeanPlusKSigma(2.0)));
        let robust = opt
            .optimize(&OptimizeRequest::new(wc()))
            .expect("sigma default");
        assert_eq!(robust.risk_policy, "sigma2");
        // The sigma-default request missed: the default is folded into the
        // effective request before the signature is computed, so it cannot
        // replay the expected-cost entry.
        assert_eq!(opt.cache_stats().misses, 2);
        // An explicit per-request policy beats the session default — and
        // explicit ExpectedCost shares the unlabelled request's cache line.
        let explicit = opt
            .optimize(&OptimizeRequest::new(wc()).with_risk(RiskPolicy::ExpectedCost))
            .expect("explicit expected");
        assert_eq!(explicit, plain);
        assert_eq!(opt.cache_stats().hits, 1);
        // Invalid policies surface typed errors before touching the cache.
        assert!(matches!(
            opt.optimize(&OptimizeRequest::new(wc()).with_risk(RiskPolicy::Quantile(1.5))),
            Err(ServiceError::InvalidRequest(_))
        ));
    }

    #[test]
    fn train_swaps_the_oracle_and_flushes_the_cache() {
        let mut opt = Optimizer::named();
        let req = OptimizeRequest::new(wc());
        let analytic = opt.optimize(&req).expect("analytic optimize");
        assert!(opt.forest().is_none());
        let trained = opt
            .train(&TrainRequest {
                rows: 64,
                n_trees: 4,
                ..TrainRequest::new(64)
            })
            .expect("train");
        assert_eq!(trained.width, opt.layout().width);
        assert!(opt.forest().is_some());
        assert!(trained.train_mse.is_finite());
        // The cache was flushed: same request now recomputes under the
        // forest (a hit here would replay an analytic-era cost).
        let hits_before = opt.cache_stats().hits;
        let learned = opt.optimize(&req).expect("forest optimize");
        assert_eq!(opt.cache_stats().hits, hits_before);
        assert_eq!(learned.assignments.len(), analytic.assignments.len());
    }

    #[test]
    fn simulated_execute_and_compare_round_trip_names() {
        let mut opt = Optimizer::named();
        let sim = opt
            .execute(&ExecuteRequest::new(wc()).with_backend(SIM))
            .expect("simulate the optimum");
        assert!(sim.feasible, "optimal plan must be executable");
        assert!(sim.seconds > 0.0);

        let cmp = opt
            .compare(&CompareRequest {
                workload: wc(),
                policy: ExecutionPolicy::default(),
                sim_seed: 42,
            })
            .expect("compare");
        assert_eq!(cmp.singles.len(), opt.registry().len());
        assert!(!cmp.mix.is_empty());
        if let Some(best) = cmp.best_single_cost {
            assert!(
                cmp.mixed.cost <= best,
                "the optimum cannot lose to a single"
            );
        }
    }

    #[test]
    fn execute_on_the_engine_really_runs_the_plan() {
        let mut opt = Optimizer::named();
        let req = ExecuteRequest::new(WorkloadSpec::WordCount { scale: 1e4 });
        let resp = opt.execute(&req).expect("engine execute");
        assert_eq!(resp.backend, "engine");
        assert!(resp.feasible && resp.measured);
        assert!(resp.seconds.is_finite() && resp.seconds > 0.0);
        assert!(resp.output_rows > 0, "wordcount must deliver counts");
        assert_ne!(resp.output_digest, 0);
        let n_ops = resp.assignments.len();
        assert_eq!(resp.op_seconds.len(), n_ops);
        assert_eq!(resp.op_output_rows.len(), n_ops);

        // Engine outputs are invariant across worker counts; only the
        // measured timings may move.
        let wide = opt
            .execute(
                &req.clone()
                    .with_backend(BackendChoice::Engine { workers: 4 }),
            )
            .expect("4-worker execute");
        assert_eq!(resp.output_digest, wide.output_digest);
        assert_eq!(resp.output_rows, wide.output_rows);
        assert_eq!(resp.op_output_rows, wide.op_output_rows);
    }

    #[test]
    fn execute_on_the_simulator_matches_the_direct_simulator() {
        let mut opt = Optimizer::named();
        let spec = WorkloadSpec::TpchQ3 { scale: 1e5 };
        let exec = opt
            .execute(
                &ExecuteRequest::new(spec).with_backend(BackendChoice::Simulator {
                    seed: 13,
                    noise: 0.2,
                }),
            )
            .expect("execute via simulator backend");
        assert_eq!(exec.backend, "simulator");
        assert!(!exec.measured);
        let ids = opt
            .resolve_platform_ids(&exec.assignments)
            .expect("response names resolve");
        let direct = RuntimeSimulator::new(opt.registry(), 13)
            .with_noise(0.2)
            .simulate(&spec.build().expect("valid spec"), &ids);
        assert_eq!(direct.to_bits(), exec.seconds.to_bits());
    }

    #[test]
    fn bad_requests_surface_typed_errors_not_panics() {
        let mut opt = Optimizer::named();
        assert!(matches!(
            opt.optimize(&OptimizeRequest::new(WorkloadSpec::WordCount {
                scale: -1.0
            })),
            Err(ServiceError::InvalidRequest(_))
        ));
        let pinned = |names: Vec<String>| {
            ExecuteRequest::new(wc())
                .with_backend(SIM)
                .with_assignments(names)
        };
        assert!(matches!(
            opt.execute(&pinned(vec!["no-such-engine".to_string(); 6])),
            Err(ServiceError::UnknownPlatform(_))
        ));
        assert!(matches!(
            opt.execute(&pinned(vec!["flink".to_string()])),
            Err(ServiceError::AssignmentLength { .. })
        ));
        assert!(matches!(
            opt.train(&TrainRequest {
                rows: 2,
                ..TrainRequest::new(2)
            }),
            Err(ServiceError::InvalidRequest(_))
        ));
    }
}
