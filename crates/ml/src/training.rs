//! Simulator-labelled training data — the *direct labelling* baseline the
//! paper's TDGEN is measured against (§V).
//!
//! [`SimulatorSource`] draws (plan, platform-assignment) pairs from a
//! fixed pool of workload shapes, vectorizes each complete plan with the
//! production Fig-5 encoder, and labels it with the
//! [`RuntimeSimulator`]'s ground-truth seconds — **one simulator call per
//! row**, which is exactly the label-collection cost TDGEN's interpolation
//! amortizes away. Labels are stored as `ln(1 + seconds)`: the runtime
//! surface spans five orders of magnitude, and fitting in log space keeps
//! the squared-error objective from being dominated by the handful of
//! slowest plans, while the monotone map preserves exactly the ranking the
//! enumerator consumes.
//!
//! The pool mixes the Fig-1 workloads (WordCount, TPC-H Q3, synthetic
//! pipelines) across input scales with random connected DAGs of 3–20
//! operators, so models also see rows resembling the *small subplans* the
//! enumerator costs mid-search, not just full-size plans.
//!
//! Both this source and `robopt_tdgen::TdgenGenerator` implement
//! [`TrainingSource`], so everything downstream of label generation is
//! source-agnostic.

use robopt_core::vectorize::vectorize_assignment;
use robopt_plan::rng::SplitMix64;
use robopt_plan::{workloads, LogicalPlan};
use robopt_platforms::{ExecutionBackend, PlatformRegistry, RuntimeSimulator};
use robopt_vector::FeatureLayout;

use crate::source::{TrainingSet, TrainingSource};

/// Knobs for [`SimulatorSource`], assembled builder-style like
/// `robopt_core::EnumOptions` (and mirrored by `TdgenConfig` in
/// `robopt_tdgen`, so the two sources stay drop-in interchangeable).
///
/// ```
/// # use robopt_ml::SamplerConfig;
/// let cfg = SamplerConfig::new().with_seed(7).with_noise(0.1);
/// assert_eq!(cfg.seed(), 7);
/// assert_eq!(cfg.noise(), 0.1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    seed: u64,
    noise: f64,
}

impl SamplerConfig {
    /// The default configuration: fixed seed, 5% label noise.
    pub fn new() -> Self {
        SamplerConfig {
            seed: 0x007d_6e11,
            noise: 0.05,
        }
    }

    /// Seed for plan choice, assignment sampling and simulator noise.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Simulator noise amplitude in `[0, 1)` (0 = noiseless labels).
    pub fn with_noise(mut self, noise: f64) -> Self {
        assert!((0.0..1.0).contains(&noise), "noise amplitude in [0, 1)");
        self.noise = noise;
        self
    }

    /// The configured seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured noise amplitude.
    #[inline]
    pub fn noise(&self) -> f64 {
        self.noise
    }
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig::new()
    }
}

/// The fixed plan pool the sampler cycles through.
fn plan_pool(rng: &mut SplitMix64) -> Vec<LogicalPlan> {
    let mut pool = vec![
        workloads::wordcount(1e4),
        workloads::wordcount(1e5),
        workloads::wordcount(1e6),
        workloads::wordcount(1e7),
        workloads::wordcount(1e8),
        workloads::tpch_q3(1e4),
        workloads::tpch_q3(1e5),
        workloads::tpch_q3(1e6),
        workloads::synthetic_pipeline(10, 1e6),
        workloads::synthetic_pipeline(20, 1e5),
        workloads::synthetic_pipeline(40, 1e4),
    ];
    for n in [3, 5, 8, 12, 16, 20] {
        pool.push(workloads::random_connected_dag(rng, n, 0.15));
    }
    pool
}

/// Draw one *feasible* platform assignment for `plan`: half the draws
/// place everything on one random base platform (falling back per
/// operator where it lacks the kind), half assign uniformly over each
/// operator's available platforms. Returns `None` if `attempts` draws all
/// came out infeasible (no conversion path between some pair). Labels come
/// from whatever [`ExecutionBackend`] the caller hands in — the analytic
/// simulator prices the draw, the real engine runs it.
fn sample_assignment(
    plan: &LogicalPlan,
    registry: &PlatformRegistry,
    backend: &dyn ExecutionBackend,
    rng: &mut SplitMix64,
    attempts: usize,
) -> Option<(Vec<u8>, f64)> {
    let k = registry.len();
    let mut assign = vec![0u8; plan.n_ops()];
    for _ in 0..attempts {
        let base = if rng.next_f64() < 0.5 {
            Some(rng.gen_range(k))
        } else {
            None
        };
        for op in 0..plan.n_ops() as u32 {
            let kind = plan.op(op).kind;
            let avail: Vec<u8> = registry
                .available_platforms(kind)
                .map(|p| p.raw())
                .collect();
            debug_assert!(!avail.is_empty(), "registry leaves {kind:?} unplaceable");
            assign[op as usize] = match base {
                Some(b) if avail.contains(&(b as u8)) => b as u8,
                _ => avail[rng.gen_range(avail.len())],
            };
        }
        let report = backend.execute_raw(plan, &assign);
        if report.feasible && report.seconds.is_finite() {
            return Some((assign, report.seconds));
        }
    }
    None
}

/// The one sampling loop behind both sources: a plan pool cycled
/// round-robin, one random stream for assignment draws, and whatever
/// [`ExecutionBackend`] the owning source hands in to label each draw.
#[derive(Debug, Clone)]
struct Sampler<'a> {
    registry: &'a PlatformRegistry,
    layout: FeatureLayout,
    rng: SplitMix64,
    pool: Vec<LogicalPlan>,
    cursor: usize,
}

impl<'a> Sampler<'a> {
    fn new(registry: &'a PlatformRegistry, layout: FeatureLayout, seed: u64) -> Self {
        assert_eq!(
            layout.n_platforms,
            registry.len(),
            "layout platform count must match the registry"
        );
        let mut rng = SplitMix64::new(seed);
        let pool = plan_pool(&mut rng);
        Sampler {
            registry,
            layout,
            rng,
            pool,
            cursor: 0,
        }
    }

    fn generate(&mut self, backend: &dyn ExecutionBackend, n: usize) -> TrainingSet {
        let mut set = TrainingSet::with_capacity(self.layout, n);
        let mut feats_buf = Vec::new();
        while set.len() < n {
            // Round-robin over the pool keeps every workload shape equally
            // represented at every truncation prefix.
            let plan = &self.pool[self.cursor % self.pool.len()];
            self.cursor += 1;
            let Some((assign, seconds)) =
                sample_assignment(plan, self.registry, backend, &mut self.rng, 16)
            else {
                continue;
            };
            vectorize_assignment(plan, &self.layout, &assign, &mut feats_buf);
            set.push_simulated(&feats_buf, seconds);
        }
        set
    }
}

/// A [`TrainingSource`] labelling every row with a direct simulator call.
///
/// Deterministic for a fixed `(registry, layout, cfg)` and call sequence;
/// the same config with a different seed yields an independent draw
/// (held-out sets). Successive [`TrainingSource::generate`] calls continue
/// the random stream, so one source never repeats rows.
#[derive(Debug, Clone)]
pub struct SimulatorSource<'a> {
    sampler: Sampler<'a>,
    sim: RuntimeSimulator<'a>,
}

impl<'a> SimulatorSource<'a> {
    /// A source over `registry`, encoding rows with `layout`. Plan and
    /// assignment draws run on `cfg.seed()`; the simulator's noise stream
    /// is keyed by `cfg.seed() ^ 0x5157` so the two never correlate.
    pub fn new(registry: &'a PlatformRegistry, layout: FeatureLayout, cfg: SamplerConfig) -> Self {
        SimulatorSource {
            sampler: Sampler::new(registry, layout, cfg.seed()),
            sim: RuntimeSimulator::new(registry, cfg.seed() ^ 0x5157).with_noise(cfg.noise()),
        }
    }
}

impl TrainingSource for SimulatorSource<'_> {
    fn layout(&self) -> FeatureLayout {
        self.sampler.layout
    }

    fn generate(&mut self, n: usize) -> TrainingSet {
        self.sampler.generate(&self.sim, n)
    }
}

/// A [`TrainingSource`] labelling rows through **any**
/// [`ExecutionBackend`] — hand it the real engine and every row's label is
/// a *measured* runtime; hand it the simulator and it reproduces
/// [`SimulatorSource`] bit-for-bit (same seed, same pool, same stream).
///
/// Plan/assignment *choice* is deterministic for a fixed `(seed, pool)`;
/// label *values* inherit the backend's contract (modeled = reproducible,
/// measured = wall clock). Use [`BackendSource::with_pool`] to swap in
/// engine-scale workloads — the default pool's largest inputs are sized
/// for the analytic simulator and would dominate measured generation time.
#[derive(Debug)]
pub struct BackendSource<'a> {
    backend: &'a dyn ExecutionBackend,
    sampler: Sampler<'a>,
}

impl<'a> BackendSource<'a> {
    /// A source labelling through `backend`, drawing plans/assignments
    /// from the default [`SimulatorSource`] pool under `seed`.
    pub fn new(
        backend: &'a dyn ExecutionBackend,
        registry: &'a PlatformRegistry,
        layout: FeatureLayout,
        seed: u64,
    ) -> Self {
        BackendSource {
            backend,
            sampler: Sampler::new(registry, layout, seed),
        }
    }

    /// Replace the plan pool (e.g. engine-scale workloads). Panics on an
    /// empty pool — a source that can never produce a row is a caller bug.
    pub fn with_pool(mut self, pool: Vec<LogicalPlan>) -> Self {
        assert!(!pool.is_empty(), "BackendSource pool must be non-empty");
        self.sampler.pool = pool;
        self
    }
}

impl TrainingSource for BackendSource<'_> {
    fn layout(&self) -> FeatureLayout {
        self.sampler.layout
    }

    fn generate(&mut self, n: usize) -> TrainingSet {
        self.sampler.generate(self.backend, n)
    }
}

/// Sample `n` labelled plan vectors from a fresh [`SimulatorSource`] —
/// convenience for call sites that need exactly one draw.
pub fn simulator_training_set(
    registry: &PlatformRegistry,
    layout: &FeatureLayout,
    cfg: &SamplerConfig,
    n: usize,
) -> TrainingSet {
    SimulatorSource::new(registry, *layout, *cfg).generate(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::N_OPERATOR_KINDS;

    fn named_setup() -> (PlatformRegistry, FeatureLayout) {
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        (registry, layout)
    }

    #[test]
    fn sampler_is_deterministic_and_fills_the_request() {
        let (registry, layout) = named_setup();
        let cfg = SamplerConfig::new();
        let a = simulator_training_set(&registry, &layout, &cfg, 64);
        let b = simulator_training_set(&registry, &layout, &cfg, 64);
        assert_eq!(a.len(), 64);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.labels, b.labels);
        assert!(a.seconds.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn successive_generate_calls_continue_the_stream() {
        let (registry, layout) = named_setup();
        let cfg = SamplerConfig::new().with_seed(5).with_noise(0.0);
        let mut source = SimulatorSource::new(&registry, layout, cfg);
        let first = source.generate(32);
        let second = source.generate(32);
        assert_ne!(
            first.labels, second.labels,
            "one source must not repeat its draw"
        );
        // A fresh source reproduces the concatenation of both calls.
        let both = SimulatorSource::new(&registry, layout, cfg).generate(64);
        assert_eq!(&both.labels[..32], &first.labels[..]);
        assert_eq!(&both.labels[32..], &second.labels[..]);
    }

    #[test]
    fn different_seeds_draw_different_sets() {
        let (registry, layout) = named_setup();
        let a = simulator_training_set(
            &registry,
            &layout,
            &SamplerConfig::new().with_seed(1).with_noise(0.0),
            32,
        );
        let b = simulator_training_set(
            &registry,
            &layout,
            &SamplerConfig::new().with_seed(2).with_noise(0.0),
            32,
        );
        assert_ne!(a.labels, b.labels);
    }

    #[test]
    fn truncation_is_a_strict_prefix() {
        let (registry, layout) = named_setup();
        let full = simulator_training_set(&registry, &layout, &SamplerConfig::new(), 48);
        let half = full.truncated(24);
        assert_eq!(half.len(), 24);
        assert_eq!(half.rows, full.rows[..24 * full.width()]);
        assert_eq!(half.labels, full.labels[..24]);
    }

    #[test]
    fn labels_are_log_transformed_seconds() {
        let (registry, layout) = named_setup();
        let set = simulator_training_set(
            &registry,
            &layout,
            &SamplerConfig::new().with_seed(9).with_noise(0.0),
            16,
        );
        for (label, seconds) in set.labels.iter().zip(&set.seconds) {
            assert!((label - seconds.ln_1p()).abs() < 1e-12);
            assert!((TrainingSet::label_to_seconds(*label) - seconds).abs() < 1e-9 * seconds);
        }
    }

    #[test]
    fn backend_source_over_simulator_reproduces_simulator_source() {
        let (registry, layout) = named_setup();
        let cfg = SamplerConfig::new().with_seed(11).with_noise(0.0);
        let direct = simulator_training_set(&registry, &layout, &cfg, 32);
        // Same seed split as SimulatorSource::new: pool/assignment rng
        // from cfg.seed, simulator noise stream from cfg.seed ^ 0x5157.
        let sim = RuntimeSimulator::new(&registry, cfg.seed() ^ 0x5157).with_noise(cfg.noise());
        let via_seam = BackendSource::new(&sim, &registry, layout, cfg.seed()).generate(32);
        assert_eq!(direct.rows, via_seam.rows);
        assert_eq!(direct.labels, via_seam.labels);
    }

    #[test]
    fn backend_source_honors_a_custom_pool() {
        let (registry, layout) = named_setup();
        let sim = RuntimeSimulator::new(&registry, 3);
        let pool = vec![workloads::wordcount(1e4), workloads::kmeans(1e4, 3)];
        let mut source = BackendSource::new(&sim, &registry, layout, 9).with_pool(pool);
        let set = source.generate(16);
        assert_eq!(set.len(), 16);
        assert!(set.seconds.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn source_is_object_safe() {
        let (registry, layout) = named_setup();
        let mut source = SimulatorSource::new(&registry, layout, SamplerConfig::new());
        let dyn_source: &mut dyn TrainingSource = &mut source;
        assert_eq!(dyn_source.layout().width, layout.width);
        assert_eq!(dyn_source.generate(8).len(), 8);
    }
}
