//! The analytic **runtime simulator** — the stand-in for the paper's
//! 10-node cluster (DESIGN §2).
//!
//! Given a logical plan and a per-operator platform assignment, the
//! simulator produces a deterministic wall-clock estimate in seconds. Its
//! cost curves are deliberately *non-linear* in cardinality (startup
//! floors, `n·log n` shuffle terms, memory cliffs), so a linear cost model
//! mis-ranks plans exactly as in the paper while a learned model can
//! recover the true shape. It labels TDGEN's knots and the direct
//! training sets. The contract (also documented in DESIGN §2):
//!
//! * **Deterministic**: two simulators with equal seeds produce identical
//!   estimates for equal inputs, regardless of call order.
//! * **Seeded noise hook**: [`RuntimeSimulator::with_noise`] applies a
//!   multiplicative perturbation per operator drawn from
//!   (seed, plan, assignment) — off by default (`amplitude = 0`). The
//!   stream is independently seeded per (workload, assignment): two
//!   different candidate plans never share draws (shared draws would
//!   correlate their errors away, understating exactly the risk the
//!   robust policies exist to price), while re-simulating the same
//!   (plan, assignment) reproduces the same draws bit-exactly and the
//!   `amplitude = 0` path never computes the key at all.
//! * **Cost curve** per operator on platform `p`:
//!   `fixed_seconds(p) + in_tuples·tuple_rate(p)·shape(kind)·spill / parallelism(p)`
//!   where `fixed_seconds` is [`crate::Platform::fixed_seconds`] (the
//!   calibration the engine shares), `shape` is `log2(2 + in_tuples)` for
//!   shuffle-heavy kinds and `1` otherwise, and `spill = 4` once the
//!   operator's working set exceeds the platform's memory budget.
//! * **Feasibility** is [`PlatformRegistry::feasible`]'s: an operator on a
//!   platform lacking it, or a crossing edge with no conversion path,
//!   yields `f64::INFINITY` (the plan is unexecutable).
//! * **Startup and conversions** are [`PlatformRegistry::charge_walk`]'s,
//!   the rule the engine charges by too: one startup per *distinct
//!   platform* used, then one conversion per dataflow edge whose endpoint
//!   platforms differ, for the producer's modeled output cardinality.

use robopt_plan::{rng::mix64, LogicalPlan, OperatorKind};

use crate::backend::SimProfile;
use crate::registry::{PlatformId, PlatformRegistry};

/// Spill multiplier once an operator's working set exceeds platform memory.
const SPILL_FACTOR: f64 = 4.0;

/// Deterministic analytic runtime simulator over a [`PlatformRegistry`].
#[derive(Debug, Clone)]
pub struct RuntimeSimulator<'a> {
    registry: &'a PlatformRegistry,
    seed: u64,
    noise: f64,
}

impl<'a> RuntimeSimulator<'a> {
    /// A noiseless simulator for `registry`, keyed by `seed` (the seed only
    /// matters once noise is enabled).
    pub fn new(registry: &'a PlatformRegistry, seed: u64) -> Self {
        RuntimeSimulator {
            registry,
            seed,
            noise: 0.0,
        }
    }

    /// Enable the multiplicative noise hook: each operator's runtime is
    /// scaled by `1 + amplitude·z` with `z ∈ [-1, 1)` drawn deterministically
    /// from `(seed, plan, assignment, operator, platform)`. `amplitude`
    /// must stay below 1.
    pub fn with_noise(mut self, amplitude: f64) -> Self {
        assert!((0.0..1.0).contains(&amplitude), "noise amplitude in [0, 1)");
        self.noise = amplitude;
        self
    }

    /// The registry this simulator prices against.
    #[inline]
    pub fn registry(&self) -> &PlatformRegistry {
        self.registry
    }

    /// Shuffle-heavy kinds pay an `n·log n` term instead of linear scan.
    fn is_shuffle_heavy(kind: OperatorKind) -> bool {
        matches!(
            kind,
            OperatorKind::Sort
                | OperatorKind::Distinct
                | OperatorKind::GroupByKey
                | OperatorKind::ReduceByKey
                | OperatorKind::Join
                | OperatorKind::Intersect
        )
    }

    /// Chain the plan shape (operator kinds, cardinalities) and the full
    /// *resolved* assignment into one run key: the root of this run's
    /// noise stream. Resolving through `assignment` (not raw bytes) keeps
    /// [`RuntimeSimulator::simulate_raw`] bit-identical to
    /// [`RuntimeSimulator::simulate`]. Only computed when noise is on.
    fn run_key(&self, plan: &LogicalPlan, assignment: &impl Fn(usize) -> PlatformId) -> u64 {
        let mut key = mix64(self.seed ^ plan.n_ops() as u64);
        for op in 0..plan.n_ops() {
            let kind = plan.op(op as u32).kind as u64;
            key = mix64(key ^ (kind << 8 | assignment(op).raw() as u64));
            key = mix64(key ^ plan.out_card()[op].to_bits());
        }
        key
    }

    /// Deterministic per-operator noise factor in `[1 - noise, 1 + noise)`,
    /// drawn from the run key (so two different workloads or assignments
    /// never share a draw, even for the same operator slot and platform).
    #[inline]
    fn noise_factor(&self, run_key: u64, op: u32, platform: PlatformId) -> f64 {
        if self.noise == 0.0 {
            return 1.0;
        }
        let key = mix64(run_key ^ ((op as u64) << 8 | platform.raw() as u64));
        let unit = (key >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // [0, 1)
        1.0 + self.noise * (2.0 * unit - 1.0)
    }

    /// Estimated wall-clock seconds of executing `plan` under `assignments`
    /// (one platform per operator, indexed by operator id).
    ///
    /// Returns `f64::INFINITY` for unexecutable plans: an operator placed on
    /// a platform lacking it, or a crossing edge with no conversion path.
    pub fn simulate(&self, plan: &LogicalPlan, assignments: &[PlatformId]) -> f64 {
        assert_eq!(
            assignments.len(),
            plan.n_ops(),
            "one platform assignment per operator"
        );
        self.simulate_with(plan, |i| assignments[i], None)
    }

    /// [`RuntimeSimulator::simulate`] over raw dense platform bytes (the
    /// encoding `EnumMatrix` rows and the ML training sampler carry) —
    /// avoids materializing a `Vec<PlatformId>` per labelled sample.
    pub fn simulate_raw(&self, plan: &LogicalPlan, assignments: &[u8]) -> f64 {
        assert_eq!(
            assignments.len(),
            plan.n_ops(),
            "one platform assignment per operator"
        );
        self.simulate_with(
            plan,
            |i| PlatformId::from_index(assignments[i] as usize),
            None,
        )
    }

    /// [`RuntimeSimulator::simulate`] that additionally fills a
    /// compute/overhead/per-operator breakdown for the [`crate::backend`]
    /// seam. The returned total is bit-identical to [`Self::simulate`] —
    /// profiling only *observes* the accumulation, it never reorders it.
    pub(crate) fn simulate_profiled(
        &self,
        plan: &LogicalPlan,
        assignments: &[PlatformId],
        profile: &mut SimProfile,
    ) -> f64 {
        assert_eq!(
            assignments.len(),
            plan.n_ops(),
            "one platform assignment per operator"
        );
        self.simulate_with(plan, |i| assignments[i], Some(profile))
    }

    fn simulate_with(
        &self,
        plan: &LogicalPlan,
        assignment: impl Fn(usize) -> PlatformId,
        mut profile: Option<&mut SimProfile>,
    ) -> f64 {
        if !self.registry.feasible(plan, &assignment) {
            return f64::INFINITY;
        }
        // The noiseless path must not even look at the plan for randomness:
        // `run_key` is skipped entirely, so enabling noise elsewhere can
        // never perturb the unnoised stream.
        let run_key = if self.noise > 0.0 {
            self.run_key(plan, &assignment)
        } else {
            0
        };
        let mut total = 0.0;
        for op in 0..plan.n_ops() as u32 {
            let i = op as usize;
            let p = assignment(i);
            let kind = plan.op(op).kind;
            let desc = self.registry.platform(p);
            let in_t = plan.in_tuples()[i];
            let shape = if Self::is_shuffle_heavy(kind) {
                (2.0 + in_t).log2()
            } else {
                1.0
            };
            let working_set = in_t * plan.op(op).tuple_width;
            let spill = if working_set > desc.mem_bytes {
                SPILL_FACTOR
            } else {
                1.0
            };
            // Iterative dataflow (`RepeatLoop` with a trip count) re-scans
            // its input every iteration; its fixed cost carries the
            // per-iteration synchronization surcharge. Inert loops
            // (`iterations == 0`) multiply by exactly 1.0, so pre-existing
            // plans keep bit-identical estimates.
            let iters = plan.op(op).iterations;
            let loop_work = if kind == OperatorKind::RepeatLoop && iters >= 1 {
                f64::from(iters)
            } else {
                1.0
            };
            let work = in_t * desc.tuple_rate * shape * spill * loop_work / desc.parallelism;
            let fixed = desc.fixed_seconds(plan.op(op));
            let noise = self.noise_factor(run_key, op, p);
            total += (fixed + work) * noise;
            if let Some(prof) = profile.as_deref_mut() {
                prof.per_op.push((fixed + work) * noise);
                prof.compute += work * noise;
                prof.overhead += fixed * noise;
            }
        }
        let out_card = plan.out_card();
        self.registry.charge_walk(
            plan,
            &assignment,
            |u| out_card[u],
            |c| {
                total += c;
                if let Some(prof) = profile.as_deref_mut() {
                    prof.overhead += c;
                }
            },
        );
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::workloads;

    fn uniform_assign(reg: &PlatformRegistry, name: &str, n: usize) -> Vec<PlatformId> {
        vec![reg.by_name(name).unwrap(); n]
    }

    #[test]
    fn equal_seeds_produce_identical_estimates() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(1e6);
        let assign = uniform_assign(&reg, "spark", plan.n_ops());
        let a = RuntimeSimulator::new(&reg, 7).with_noise(0.1);
        let b = RuntimeSimulator::new(&reg, 7).with_noise(0.1);
        for _ in 0..3 {
            assert_eq!(a.simulate(&plan, &assign), b.simulate(&plan, &assign));
        }
    }

    #[test]
    fn different_seeds_perturb_noisy_estimates_only() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(1e6);
        let assign = uniform_assign(&reg, "java", plan.n_ops());
        let noiseless_a = RuntimeSimulator::new(&reg, 1).simulate(&plan, &assign);
        let noiseless_b = RuntimeSimulator::new(&reg, 2).simulate(&plan, &assign);
        assert_eq!(
            noiseless_a, noiseless_b,
            "seed must not matter without noise"
        );
        let noisy_a = RuntimeSimulator::new(&reg, 1)
            .with_noise(0.1)
            .simulate(&plan, &assign);
        let noisy_b = RuntimeSimulator::new(&reg, 2)
            .with_noise(0.1)
            .simulate(&plan, &assign);
        assert_ne!(noisy_a, noisy_b, "distinct seeds must perturb noisy runs");
        assert!((noisy_a / noiseless_a - 1.0).abs() <= 0.1 + 1e-9);
    }

    #[test]
    fn simulate_raw_matches_simulate() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(1e6);
        let sim = RuntimeSimulator::new(&reg, 3).with_noise(0.2);
        let ids = uniform_assign(&reg, "spark", plan.n_ops());
        let raw: Vec<u8> = ids.iter().map(|p| p.raw()).collect();
        assert_eq!(sim.simulate(&plan, &ids), sim.simulate_raw(&plan, &raw));
    }

    #[test]
    fn unavailable_operator_or_missing_conversion_is_infinite() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(1e5);
        let sim = RuntimeSimulator::new(&reg, 0);
        // TextFileSource is unavailable on Postgres.
        let pg = uniform_assign(&reg, "postgres", plan.n_ops());
        assert!(sim.simulate(&plan, &pg).is_infinite());
        // Postgres -> Giraph has no conversion path; force that crossing.
        let mut mixed = uniform_assign(&reg, "giraph", plan.n_ops());
        mixed[0] = reg.by_name("postgres").unwrap();
        assert!(sim.simulate(&plan, &mixed).is_infinite());
    }

    /// Regression (ISSUE 9): the noise stream must be independently seeded
    /// per (workload, assignment). The old draw keyed only on
    /// (seed, op, platform), so two *different* candidate assignments
    /// shared every draw on their common operators — correlating their
    /// errors away and understating exactly the risk the robust policies
    /// price. And turning noise on must leave the unnoised stream
    /// untouched.
    #[test]
    fn noise_is_independent_per_assignment_and_workload() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(1e6);
        let n = plan.n_ops();
        let spark = uniform_assign(&reg, "spark", n);
        let mut flipped = spark.clone();
        flipped[0] = reg.by_name("java").unwrap();

        let per_op = |noise: f64, assign: &[PlatformId]| {
            let sim = RuntimeSimulator::new(&reg, 9);
            let sim = if noise > 0.0 {
                sim.with_noise(noise)
            } else {
                sim
            };
            let mut prof = SimProfile::default();
            let total = sim.simulate_profiled(&plan, assign, &mut prof);
            assert!(total.is_finite());
            prof.per_op
        };

        // Noiseless: the shared suffix (ops 1..) is bit-identical across
        // the two assignments — and stays so regardless of the noise knob
        // existing at all.
        let base_a = per_op(0.0, &spark);
        let base_b = per_op(0.0, &flipped);
        assert_eq!(base_a[1..], base_b[1..], "unnoised stream perturbed");

        // Noisy: every shared-suffix operator must draw independently —
        // same op, same platform, different assignment, different factor.
        let noisy_a = per_op(0.2, &spark);
        let noisy_b = per_op(0.2, &flipped);
        for i in 1..n {
            assert_ne!(
                noisy_a[i], noisy_b[i],
                "op {i}: two assignments shared a noise draw"
            );
        }
        // Determinism: re-simulating reproduces the exact bits.
        assert_eq!(noisy_a, per_op(0.2, &spark));

        // Different workloads draw independent streams too: the per-op
        // noise *factors* of two scales must not line up.
        let factors = |scale: f64| -> Vec<f64> {
            let p = workloads::wordcount(scale);
            let a = uniform_assign(&reg, "spark", p.n_ops());
            let mut clean = SimProfile::default();
            let mut noisy = SimProfile::default();
            RuntimeSimulator::new(&reg, 9).simulate_profiled(&p, &a, &mut clean);
            RuntimeSimulator::new(&reg, 9)
                .with_noise(0.2)
                .simulate_profiled(&p, &a, &mut noisy);
            noisy
                .per_op
                .iter()
                .zip(&clean.per_op)
                .map(|(x, y)| x / y)
                .collect()
        };
        assert_ne!(factors(1e6), factors(2e6), "workloads shared a stream");
    }

    #[test]
    fn big_inputs_favor_the_parallel_platform() {
        let reg = PlatformRegistry::named();
        let sim = RuntimeSimulator::new(&reg, 0);
        let small = workloads::wordcount(1e4);
        let big = workloads::wordcount(5e8);
        let java_small = sim.simulate(&small, &uniform_assign(&reg, "java", small.n_ops()));
        let spark_small = sim.simulate(&small, &uniform_assign(&reg, "spark", small.n_ops()));
        let java_big = sim.simulate(&big, &uniform_assign(&reg, "java", big.n_ops()));
        let spark_big = sim.simulate(&big, &uniform_assign(&reg, "spark", big.n_ops()));
        assert!(
            java_small < spark_small,
            "startup floor dominates tiny jobs"
        );
        assert!(spark_big < java_big, "parallelism dominates huge jobs");
    }
}
