//! Simulator-labelled training data — the *direct labelling* baseline the
//! paper's TDGEN is measured against (§V).
//!
//! [`SimulatorSource`] (the one [`BackendSource`] type over the simulator)
//! draws (plan, platform-assignment) pairs from a fixed pool of workload
//! shapes, vectorizes each complete plan with the production Fig-5
//! encoder, and labels it with the [`RuntimeSimulator`]'s ground-truth
//! seconds — **one simulator call per row**, which is exactly the
//! label-collection cost TDGEN's interpolation amortizes away. Labels are stored as `ln(1 + seconds)`: the runtime
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

/// The default plan pool a [`BackendSource`] cycles through.
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

/// A [`TrainingSource`] labelling every row with one direct run of an
/// [`ExecutionBackend`] it owns — **one backend call per row**, the
/// label-collection cost TDGEN amortizes away. Over the simulator
/// ([`SimulatorSource`]) every label is modeled and reproducible; over the
/// real engine (`BackendSource::over(&engine, ..)`) every label is a
/// *measured* runtime.
///
/// Plans come round-robin from a fixed pool and assignments from one
/// random stream, so the draws are deterministic for a fixed
/// `(registry, layout, seed, pool)` and call sequence; a different seed
/// yields an independent draw (held-out sets). Successive
/// [`TrainingSource::generate`] calls continue the stream, so one source
/// never repeats rows. Use [`BackendSource::with_pool`] to swap in
/// engine-scale workloads — the default pool's largest inputs are sized
/// for the analytic simulator and would dominate measured generation time.
#[derive(Debug, Clone)]
pub struct BackendSource<'a, B: ExecutionBackend> {
    backend: B,
    registry: &'a PlatformRegistry,
    layout: FeatureLayout,
    rng: SplitMix64,
    pool: Vec<LogicalPlan>,
    cursor: usize,
}

/// The direct-labelling baseline: a [`BackendSource`] over the analytic
/// [`RuntimeSimulator`].
pub type SimulatorSource<'a> = BackendSource<'a, RuntimeSimulator<'a>>;

impl<'a> SimulatorSource<'a> {
    /// A source over `registry`, encoding rows with `layout`, labelling
    /// with simulator noise amplitude `noise` (0 = noiseless; panics
    /// outside `[0, 1)`, as [`RuntimeSimulator::with_noise`] does).
    /// Plan and assignment draws run on `seed`; the simulator's noise
    /// stream is keyed by `seed ^ 0x5157` so the two never correlate.
    ///
    /// ```
    /// # use robopt_ml::{SimulatorSource, TrainingSource};
    /// # use robopt_platforms::PlatformRegistry;
    /// # use robopt_vector::FeatureLayout;
    /// let registry = PlatformRegistry::named();
    /// let layout = FeatureLayout::new(registry.len(), robopt_plan::N_OPERATOR_KINDS);
    /// let set = SimulatorSource::new(&registry, layout, 7, 0.05).generate(16);
    /// assert_eq!((set.len(), set.width()), (16, layout.width));
    /// ```
    pub fn new(
        registry: &'a PlatformRegistry,
        layout: FeatureLayout,
        seed: u64,
        noise: f64,
    ) -> Self {
        let sim = RuntimeSimulator::new(registry, seed ^ 0x5157).with_noise(noise);
        BackendSource::over(sim, registry, layout, seed)
    }
}

impl<'a, B: ExecutionBackend> BackendSource<'a, B> {
    /// A source labelling through `backend`, drawing plans/assignments
    /// from the default pool under `seed`.
    pub fn over(
        backend: B,
        registry: &'a PlatformRegistry,
        layout: FeatureLayout,
        seed: u64,
    ) -> Self {
        assert_eq!(
            layout.n_platforms,
            registry.len(),
            "layout platform count must match the registry"
        );
        let mut rng = SplitMix64::new(seed);
        let pool = plan_pool(&mut rng);
        BackendSource {
            backend,
            registry,
            layout,
            rng,
            pool,
            cursor: 0,
        }
    }

    /// Replace the plan pool (e.g. engine-scale workloads). Panics on an
    /// empty pool — a source that can never produce a row is a caller bug.
    pub fn with_pool(mut self, pool: Vec<LogicalPlan>) -> Self {
        assert!(!pool.is_empty(), "BackendSource pool must be non-empty");
        self.pool = pool;
        self
    }
}

impl<B: ExecutionBackend> TrainingSource for BackendSource<'_, B> {
    fn layout(&self) -> FeatureLayout {
        self.layout
    }

    fn generate(&mut self, n: usize) -> TrainingSet {
        let mut set = TrainingSet::with_capacity(self.layout, n);
        let mut feats_buf = Vec::new();
        while set.len() < n {
            // Round-robin over the pool keeps every workload shape equally
            // represented at every truncation prefix.
            let plan = &self.pool[self.cursor % self.pool.len()];
            self.cursor += 1;
            let Some((assign, seconds)) =
                sample_assignment(plan, self.registry, &self.backend, &mut self.rng, 16)
            else {
                continue;
            };
            vectorize_assignment(plan, &self.layout, &assign, &mut feats_buf);
            set.push_simulated(&feats_buf, seconds);
        }
        set
    }
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
        let a = SimulatorSource::new(&registry, layout, 3, 0.05).generate(64);
        let b = SimulatorSource::new(&registry, layout, 3, 0.05).generate(64);
        assert_eq!(a.len(), 64);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.labels, b.labels);
        assert!(a.seconds.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn successive_generate_calls_continue_the_stream() {
        let (registry, layout) = named_setup();
        let mut source = SimulatorSource::new(&registry, layout, 5, 0.0);
        let first = source.generate(32);
        let second = source.generate(32);
        assert_ne!(
            first.labels, second.labels,
            "one source must not repeat its draw"
        );
        // A fresh source reproduces the concatenation of both calls.
        let both = SimulatorSource::new(&registry, layout, 5, 0.0).generate(64);
        assert_eq!(&both.labels[..32], &first.labels[..]);
        assert_eq!(&both.labels[32..], &second.labels[..]);
    }

    /// Pinned before `SimulatorSource::new` took its seed and noise
    /// directly: the draw stream (seed) and the simulator's noise stream
    /// (`seed ^ 0x5157`) are what they were, call after call.
    #[test]
    fn successive_calls_hand_out_the_pinned_rows_labels_and_seconds() {
        let (registry, layout) = named_setup();
        let mut source = SimulatorSource::new(&registry, layout, 41, 0.05);
        let sets = [source.generate(60), source.generate(40)];
        let mut digest = robopt_vector::SigHasher::new();
        for set in &sets {
            assert_eq!(set.rows.len(), set.len() * layout.width);
            for column in [&set.rows, &set.labels, &set.seconds] {
                digest.write_u64(column.len() as u64);
                for &x in column {
                    digest.write_f64_bits(x);
                }
            }
        }
        assert_eq!(digest.finish(), 0x2a8b_3fa4_b2cd_cd8a);
    }

    #[test]
    fn different_seeds_draw_different_sets() {
        let (registry, layout) = named_setup();
        let a = SimulatorSource::new(&registry, layout, 1, 0.0).generate(32);
        let b = SimulatorSource::new(&registry, layout, 2, 0.0).generate(32);
        assert_ne!(a.labels, b.labels);
    }

    #[test]
    fn truncation_is_a_strict_prefix() {
        let (registry, layout) = named_setup();
        let full = SimulatorSource::new(&registry, layout, 3, 0.05).generate(48);
        let half = full.truncated(24);
        assert_eq!(half.len(), 24);
        assert_eq!(half.rows, full.rows[..24 * full.width()]);
        assert_eq!(half.labels, full.labels[..24]);
    }

    #[test]
    fn labels_are_log_transformed_seconds() {
        let (registry, layout) = named_setup();
        let set = SimulatorSource::new(&registry, layout, 9, 0.0).generate(16);
        for (label, seconds) in set.labels.iter().zip(&set.seconds) {
            assert_eq!(*label, TrainingSet::seconds_to_label(*seconds));
            assert!((TrainingSet::label_to_seconds(*label) - seconds).abs() < 1e-9 * seconds);
        }
    }

    #[test]
    fn backend_source_over_simulator_reproduces_simulator_source() {
        let (registry, layout) = named_setup();
        let (seed, noise) = (11, 0.1);
        let direct = SimulatorSource::new(&registry, layout, seed, noise).generate(32);
        // Same seed split as SimulatorSource::new: pool/assignment rng
        // from seed, simulator noise stream from seed ^ 0x5157.
        let sim = RuntimeSimulator::new(&registry, seed ^ 0x5157).with_noise(noise);
        let via_seam = BackendSource::over(&sim, &registry, layout, seed).generate(32);
        assert_eq!(direct.rows, via_seam.rows);
        assert_eq!(direct.labels, via_seam.labels);
    }

    #[test]
    fn backend_source_honors_a_custom_pool() {
        let (registry, layout) = named_setup();
        let sim = RuntimeSimulator::new(&registry, 3);
        let pool = vec![workloads::wordcount(1e4), workloads::kmeans(1e4, 3)];
        let mut source = BackendSource::over(sim, &registry, layout, 9).with_pool(pool);
        let set = source.generate(16);
        assert_eq!(set.len(), 16);
        assert!(set.seconds.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn source_is_object_safe() {
        let (registry, layout) = named_setup();
        let mut source = SimulatorSource::new(&registry, layout, 3, 0.05);
        let dyn_source: &mut dyn TrainingSource = &mut source;
        assert_eq!(dyn_source.layout().width, layout.width);
        assert_eq!(dyn_source.generate(8).len(), 8);
    }
}
