//! The [`Optimizer`] facade — the one object behind every service verb.
//!
//! Owns the [`PlatformRegistry`], the Fig-5 [`FeatureLayout`], the active
//! cost model (analytic, or a trained forest behind the same
//! `&dyn CostOracle` the enumerators already speak), the warmed matrix
//! pool of one [`Enumerator`], which it hands each request's
//! [`SplitOptions`], and the plan-signature [`PlanCache`]. Service callers
//! send [`OptimizeRequest`]s and never wire `EnumOptions`, an oracle and an
//! enumerator themselves; the raw plumbing stays inside `robopt_core`, with
//! [`Optimizer::enum_options`] as the escape hatch for baselines that need
//! it.
//!
//! # Cache soundness
//!
//! The cache key ([`OptimizeRequest::signature`]) covers everything the
//! response depends on *except* the active model — so every model swap
//! ([`Optimizer::train`], [`Optimizer::install_forest`]) flushes the
//! cache. The policy's `workers` and `hardware_clamp` fields are excluded
//! from the key because nothing reads them: enumeration runs on one
//! thread, the split an edge schedule on one enumerator.

use robopt_core::{
    AnalyticOracle, CostDistribution, CostOracle, EnumOptions, Enumerator, ExecutionPlan,
    SplitOptions,
};
use robopt_engine::Engine;
use robopt_ml::{
    mse, ForestConfig, Model, ModelOracle, RandomForest, SimulatorSource, TrainingSource,
};
use robopt_plan::par::now;
use robopt_plan::{LogicalPlan, N_OPERATOR_KINDS};
use robopt_platforms::{
    ExecutionBackend, ExecutionReport, PlatformId, PlatformRegistry, RuntimeSimulator,
};
use robopt_tdgen::{TdgenConfig, TdgenGenerator};
use robopt_vector::FeatureLayout;

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

/// Most candidate rows one `optimize` may stage ([`EnumStats::generated`]),
/// pruned or not: one merge never reserves more than this many rows (≈ 440
/// MB at the named registry's width 211), and the forest costs them in
/// about 0.6 s. The largest benchmark request, Pipeline-128 on eight
/// uniform platforms, stages 55 296; a 48-operator random DAG at the wire
/// defaults would ask one merge for 9.6 GB, and an unpruned dozen
/// operators for tens of gigabytes.
///
/// [`EnumStats::generated`]: robopt_core::EnumStats::generated
const MAX_ENUMERATION_ROWS: u64 = 1 << 18;

/// Most feature cells a `train` request may generate: 128 MiB of `f64`,
/// 79 512 rows at the named registry's width 211.
const MAX_TRAIN_CELLS: u64 = 1 << 24;

/// Most rows × trees a `train` request may fit: 16× the benchmark's 4 000
/// rows × 64 trees, where a million rows under 1 024 trees would hold the
/// one-request-at-a-time daemon for hours.
const MAX_TRAIN_ROW_TREES: u64 = 1 << 22;

/// The optimizer-as-a-service facade. See the module docs.
#[derive(Debug)]
pub struct Optimizer {
    registry: PlatformRegistry,
    layout: FeatureLayout,
    oracle: OracleKind,
    enumerator: Enumerator,
    /// Capacity 0 is caching off.
    cache: PlanCache,
    /// `optimize` calls, counting the ones `compare` and an unassigned
    /// `execute` make (`StatsResponse::requests`) — also the logical clock
    /// that ages the cache's request counts (never wall time).
    requests: u64,
    busy: BusyTime,
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
            enumerator: Enumerator::new(),
            cache: PlanCache::new(PlanCache::DEFAULT_CAPACITY),
            requests: 0,
            busy: BusyTime::default(),
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
        self.set_forest(forest);
        Ok(())
    }

    /// Make `forest` the active oracle. Every cached cost came from the
    /// previous model, so the cache is flushed.
    fn set_forest(&mut self, forest: RandomForest) {
        self.oracle = OracleKind::Forest(ModelOracle::new(forest));
        self.cache.clear();
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

    /// [`Optimizer::set_cache_capacity`] at [`PlanCache::DEFAULT_CAPACITY`]
    /// or at 0 (caching off). In-tree code sets the capacity itself; the
    /// repo benchmark still switches caching with this.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.set_cache_capacity(if enabled {
            PlanCache::DEFAULT_CAPACITY
        } else {
            0
        });
    }

    /// Replace the cache with an empty one of `capacity` entries; 0 turns
    /// caching off.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache = PlanCache::new(capacity);
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
            total_micros: self.busy.micros(),
        }
    }

    /// Optimize one workload. Cache hits return the memoized response,
    /// which is bit-identical to what the cold path would produce
    /// (`tests/service_api.rs` and `tests/determinism.rs` assert this).
    pub fn optimize(&mut self, req: &OptimizeRequest) -> Result<OptimizeResponse, ServiceError> {
        let started = now();
        self.requests += 1;
        req.risk.validate().map_err(ServiceError::InvalidRequest)?;
        let sig = req.signature();
        if let Some(hit) = self.cache.lookup(sig, self.requests) {
            self.busy.add(started.elapsed());
            return Ok(hit);
        }
        let resp = self.optimize_cold(req, sig)?;
        let work = resp.stats.generated.max(1);
        self.cache
            .insert_with(sig, work, self.requests, || resp.clone());
        self.busy.add(started.elapsed());
        Ok(resp)
    }

    /// Train a forest per `req` and install it as the active oracle.
    /// A request whose training set would exceed 2^24 feature cells, or
    /// whose fit 2^22 rows × trees, is refused before a row is generated.
    pub fn train(&mut self, req: &TrainRequest) -> Result<TrainResponse, ServiceError> {
        if req.rows < 8 {
            return Err(ServiceError::InvalidRequest(format!(
                "training rows {} below the minimum of 8",
                req.rows
            )));
        }
        if req.n_trees < 1 || req.n_trees > 1024 {
            return Err(ServiceError::InvalidRequest(format!(
                "n_trees {} outside [1, 1024]",
                req.n_trees
            )));
        }
        let rows = req.rows as u64;
        let cells = rows.saturating_mul(self.layout.width as u64);
        if cells > MAX_TRAIN_CELLS {
            return Err(ServiceError::TooLarge {
                what: "training feature cells",
                estimate: cells,
                limit: MAX_TRAIN_CELLS,
            });
        }
        let row_trees = rows.saturating_mul(req.n_trees as u64);
        if row_trees > MAX_TRAIN_ROW_TREES {
            return Err(ServiceError::TooLarge {
                what: "training rows x trees",
                estimate: row_trees,
                limit: MAX_TRAIN_ROW_TREES,
            });
        }
        let set = match req.source {
            TrainSource::Simulator { seed, noise } => {
                check_noise(noise)?;
                SimulatorSource::new(&self.registry, self.layout, seed, noise).generate(req.rows)
            }
            TrainSource::Tdgen { seed } => {
                let cfg = TdgenConfig::new().with_seed(seed);
                TdgenGenerator::new(&self.registry, self.layout, cfg).generate(req.rows)
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
        self.set_forest(forest);
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
                let engine = self.engine(workers);
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
                single_platform_plan(registry, layout, oracle.as_dyn(), &plan, id, backend);
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
    /// request's policy and shape the result into a response.
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
            enumerator,
            ..
        } = self;
        let split = SplitOptions::new(req.policy.split_parts);
        let opts = EnumOptions::new(registry)
            .with_oracle(oracle.as_dyn())
            .with_prune(req.policy.prune)
            .with_risk(req.risk);
        let (exec, stats) = enumerator
            .enumerate_within(plan, layout, opts, split, MAX_ENUMERATION_ROWS)
            .map_err(|over| ServiceError::TooLarge {
                what: "enumeration rows",
                estimate: over.estimate,
                limit: over.limit,
            })?;
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
            cost_std: exec.cost_std,
            cost_q10: exec.cost_q10,
            cost_q90: exec.cost_q90,
            risk_policy: req.risk.label(),
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
    let (mut feats, mut dist) = (Vec::new(), CostDistribution::new());
    let quote = ExecutionPlan::quote(plan, layout, oracle, &raw, &mut feats, &mut dist);
    let report = backend.execute_raw(plan, &raw);
    SinglePlatformPlan {
        platform: name,
        cost: Some(quote.cost),
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

/// Wall time spent in [`Optimizer::optimize`], summed in nanoseconds and
/// truncated to whole microseconds only when read, so a cache hit that
/// takes under a microsecond still counts. It feeds only
/// `StatsResponse::total_micros` — never optimization, caching, eviction,
/// or any deterministic response field.
#[derive(Debug, Clone, Copy, Default)]
struct BusyTime {
    nanos: u64,
}

impl BusyTime {
    fn add(&mut self, elapsed: std::time::Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos = self.nanos.saturating_add(nanos);
    }

    fn micros(self) -> u64 {
        self.nanos / 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExecutionPolicy, WorkloadSpec};
    use robopt_core::vectorize::vectorize_assignment;
    use robopt_core::RiskPolicy;
    use robopt_vector::RowsView;

    fn wc() -> WorkloadSpec {
        WorkloadSpec::WordCount { scale: 1e7 }
    }

    const SIM: BackendChoice = BackendChoice::Simulator {
        seed: 42,
        noise: 0.0,
    };

    #[test]
    fn sub_microsecond_requests_add_up() {
        // Truncated to whole microseconds per request, each would add 0.
        let mut busy = BusyTime::default();
        for _ in 0..1000 {
            busy.add(std::time::Duration::from_nanos(400));
        }
        assert_eq!(busy.micros(), 400);
    }

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
        fresh.set_cache_capacity(0);
        let recomputed = fresh.optimize(&req).expect("cache-off optimize");
        assert_eq!(cold, recomputed);
        assert_eq!(fresh.cache_stats().hits, 0);
    }

    #[test]
    fn worker_count_and_clamp_share_one_cache_line_soundly() {
        let mut opt = Optimizer::named();
        let default = opt
            .optimize(&OptimizeRequest::new(wc()))
            .expect("default policy");
        // Recompute with the ignored fields set on a cache-disabled facade:
        // nothing reads them, which is exactly why they are excluded from
        // the signature.
        let mut fresh = Optimizer::named();
        fresh.set_cache_capacity(0);
        let ignored = fresh
            .optimize(&OptimizeRequest::new(wc()).with_policy(ExecutionPolicy {
                workers: 4,
                hardware_clamp: false,
                ..Default::default()
            }))
            .expect("ignored fields set");
        assert_eq!(default, ignored);
    }

    #[test]
    fn the_request_risk_policy_keys_the_cache() {
        let mut opt = Optimizer::named();
        let plain = opt.optimize(&OptimizeRequest::new(wc())).expect("expected");
        assert_eq!(plain.risk_policy, "expected");
        assert!(plain.cost_q10 <= plain.cost_q90);
        let robust = opt
            .optimize(&OptimizeRequest::new(wc()).with_risk(RiskPolicy::MeanPlusKSigma(2.0)))
            .expect("sigma");
        assert_eq!(robust.risk_policy, "sigma2");
        // The sigma request missed: it cannot replay the expected-cost entry.
        assert_eq!(opt.cache_stats().misses, 2);
        // Spelling out the default replays the expected-cost entry.
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

    /// A cold response's four numbers are its winner's quote: bit for bit
    /// what encoding the winner and costing it as a one-row distribution
    /// reads, the path the facade ran itself before the enumerator quoted.
    #[test]
    fn a_cold_response_reads_its_winners_quote() {
        let mut analytic = Optimizer::named();
        let mut forest = Optimizer::named();
        forest
            .train(&TrainRequest {
                n_trees: 4,
                ..TrainRequest::new(64)
            })
            .expect("train");
        let (mut feats, mut dist) = (Vec::new(), CostDistribution::new());
        for opt in [&mut analytic, &mut forest] {
            opt.set_cache_capacity(0);
            for spec in [
                wc(),
                WorkloadSpec::TpchQ3 { scale: 1e6 },
                WorkloadSpec::Pipeline { ops: 9, scale: 1e5 },
            ] {
                for risk in [
                    RiskPolicy::ExpectedCost,
                    RiskPolicy::MeanPlusKSigma(2.0),
                    RiskPolicy::Quantile(0.9),
                ] {
                    let req = OptimizeRequest::new(spec).with_risk(risk);
                    let resp = opt.optimize(&req).expect("optimize");
                    let plan = build_workload(&spec).expect("spec builds");
                    let ids = opt.resolve_platform_ids(&resp.assignments).expect("names");
                    let raw: Vec<u8> = ids.iter().map(|id| id.raw()).collect();
                    vectorize_assignment(&plan, &opt.layout, &raw, &mut feats);
                    opt.oracle
                        .as_dyn()
                        .cost_batch_dist(RowsView::new(&feats, opt.layout.width), &mut dist);
                    assert_eq!(dist.len(), 1);
                    let want = [dist.mean[0], dist.std[0], dist.q10[0], dist.q90[0]];
                    let got = [resp.cost, resp.cost_std, resp.cost_q10, resp.cost_q90];
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{} under {}",
                        spec.name(),
                        resp.risk_policy
                    );
                }
            }
        }
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
        // Over the work budget: refused before a row is generated, as a
        // request too large rather than a malformed one, with the estimate
        // and the limit named. A million rows would reserve 1.7 GB;
        // 20 000 rows x 1 024 trees would fit for many minutes.
        for (req, estimate, limit) in [
            (TrainRequest::new(1_000_000), 211_000_000, MAX_TRAIN_CELLS),
            (
                TrainRequest {
                    n_trees: 1024,
                    ..TrainRequest::new(20_000)
                },
                20_480_000,
                MAX_TRAIN_ROW_TREES,
            ),
        ] {
            match opt.train(&req) {
                Err(ServiceError::TooLarge {
                    estimate: e,
                    limit: l,
                    ..
                }) => assert_eq!((e, l), (estimate, limit)),
                other => panic!("{} rows x {} trees: {other:?}", req.rows, req.n_trees),
            }
        }
        assert!(
            opt.forest().is_none(),
            "no refused request installs a model"
        );
    }
}
