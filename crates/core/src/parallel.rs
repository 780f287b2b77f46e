//! The split driver (paper §IV-D; DESIGN §9): a split is an edge schedule
//! on one enumerator.
//!
//! [`ParallelEnumerator`] partitions the plan with [`crate::split`] and
//! runs the priority enumeration on its one [`Enumerator`] part by part:
//! each part seeds its operators' singletons and contracts its own edges,
//! then the seam edges are contracted over the units the parts left, with
//! the same lossless Def-2 pruning the parts used. Boundary footprints
//! always see the whole plan's edges, so part-boundary operators stay in
//! every footprint until the seams close over them. Serial
//! [`Enumerator::enumerate`] is the same loop with the whole plan as its
//! one part and no seams.
//!
//! # Determinism contract
//!
//! The partition comes from [`SplitOptions`] alone, parts run in part
//! order, and each part is budgeted against counters of its own, so the
//! answer, the folded [`EnumStats`] and any [`OverBudget`] refusal are pure
//! functions of (plan, options, budget).
//!
//! Agreement with the *serial* [`Enumerator`] is weaker by construction:
//! the two build different merge trees, so intermediate counters
//! legitimately differ, and candidate costs see different floating-point
//! addition orders. The final reported cost is immune to that — both paths
//! re-cost the winning assignment canonically in `finish` — so best
//! assignment and cost bits agree under a linear oracle (asserted in the
//! test suites).

use robopt_plan::LogicalPlan;
use robopt_vector::FeatureLayout;

use crate::enumerate::{unbudgeted, EnumOptions, EnumStats, Enumerator, OverBudget};
use crate::split::{split_plan, SplitOptions};
use crate::vectorize::ExecutionPlan;

/// Split-enumerate-merge driver over one [`Enumerator`] (see the module
/// docs).
#[derive(Debug, Default)]
pub struct ParallelEnumerator {
    split: SplitOptions,
    enumerator: Enumerator,
}

impl ParallelEnumerator {
    /// A split driver with the default [`SplitOptions`]. The thread count
    /// is ignored: parts run in order on one enumerator. The parameter stays
    /// only for the benchmark's replay of the facade (ROADMAP 1(e)).
    pub fn new(_threads: usize) -> Self {
        ParallelEnumerator::default()
    }

    /// Override the plan-splitting options.
    pub fn with_split(mut self, split: SplitOptions) -> Self {
        self.set_split(split);
        self
    }

    /// A no-op: there is no worker count to clamp. Kept only for the
    /// benchmark's replay of the facade (ROADMAP 1(e)).
    pub fn with_hardware_clamp(self, _clamp: bool) -> Self {
        self
    }

    /// In-place counterpart of [`ParallelEnumerator::with_split`], keeping
    /// the enumerator's warmed matrix pool: the service facade changes
    /// policy per request.
    pub fn set_split(&mut self, split: SplitOptions) {
        self.split = split;
    }

    /// Run split-based enumeration. Same contract as
    /// [`Enumerator::enumerate`].
    pub fn enumerate(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) -> (ExecutionPlan, EnumStats) {
        unbudgeted(self.enumerate_within(plan, layout, opts, u64::MAX))
    }

    /// [`ParallelEnumerator::enumerate`] under the budget of
    /// [`Enumerator::enumerate_within`]: each part is refused past
    /// `max_rows` staged rows of its own, and the seam merge past
    /// `max_rows` of the parts' total and its own. Parts run in order, so
    /// the lowest refused part answers.
    pub fn enumerate_within(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
        max_rows: u64,
    ) -> Result<(ExecutionPlan, EnumStats), OverBudget> {
        let split = split_plan(plan, self.split);
        let parts = split.parts.iter().copied();
        let parts = parts.zip(split.part_edges.iter().map(Vec::as_slice));
        self.enumerator
            .enumerate_parts(plan, layout, opts, parts, &split.seam_edges, max_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::RiskPolicy;
    use crate::oracle::AnalyticOracle;
    use crate::testing::TinyForest;
    use robopt_plan::{workloads, SplitMix64, N_OPERATOR_KINDS};
    use robopt_platforms::PlatformRegistry;
    use robopt_vector::SigHasher;

    fn setup(k: usize) -> (PlatformRegistry, FeatureLayout, AnalyticOracle) {
        let registry = PlatformRegistry::uniform(k);
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        (registry, layout, oracle)
    }

    #[test]
    fn parallel_matches_serial_on_a_pipeline() {
        let plan = workloads::synthetic_pipeline(24, 1e5);
        let (registry, layout, oracle) = setup(3);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let (serial, _) = Enumerator::new().enumerate(&plan, &layout, opts);
        let (par, stats) = ParallelEnumerator::default()
            .with_split(SplitOptions::new(4))
            .enumerate(&plan, &layout, opts);
        assert_eq!(par.assignments, serial.assignments);
        assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
        assert_eq!(stats.merges, plan.n_ops() as u64 - 1);
    }

    /// Parts and seam merge are refused on their own and the folded
    /// counters, the same way on a reused driver as on a fresh one; the
    /// full total is enough for the unbudgeted answer.
    #[test]
    fn a_budget_refusal_is_the_same_on_a_reused_driver() {
        let plan = workloads::synthetic_pipeline(30, 1e5);
        let (registry, layout, oracle) = setup(4);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let split_enumerator = || ParallelEnumerator::default().with_split(SplitOptions::new(5));
        let free = split_enumerator().enumerate(&plan, &layout, opts);
        let total = free.1.generated;
        let mut en = split_enumerator();
        for max_rows in [0, 100, total / 2, total - 1] {
            let refused = en.enumerate_within(&plan, &layout, opts, max_rows);
            assert_eq!(
                refused,
                split_enumerator().enumerate_within(&plan, &layout, opts, max_rows),
                "max_rows={max_rows}"
            );
            assert!(refused.is_err_and(|over| over.estimate > max_rows));
        }
        assert_eq!(en.enumerate_within(&plan, &layout, opts, total), Ok(free));
    }

    /// Fold one budgeted run into `h`: the assignment bytes, the cost bits
    /// and every `EnumStats` field of an answer, or a refusal's estimate
    /// and limit.
    fn fold(h: &mut SigHasher, run: &Result<(ExecutionPlan, EnumStats), OverBudget>) {
        match run {
            Ok((exec, stats)) => {
                h.write_u64(0);
                for p in exec.raw_assignments() {
                    h.write_u64(u64::from(p));
                }
                h.write_f64_bits(exec.cost);
                let EnumStats {
                    generated,
                    kept,
                    merges,
                    peak_rows,
                } = *stats;
                for c in [generated, kept, merges, peak_rows] {
                    h.write_u64(c);
                }
            }
            Err(OverBudget { estimate, limit }) => {
                h.write_u64(1);
                h.write_u64(*estimate);
                h.write_u64(*limit);
            }
        }
    }

    /// Every run of `plan` at split parts {2, 3, 4, 8} and budgets {0, 10,
    /// total/2, total − 1, unbudgeted}, folded into `h` on one reused
    /// driver.
    fn fold_split_runs(
        h: &mut SigHasher,
        en: &mut ParallelEnumerator,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) {
        for parts in [2, 3, 4, 8] {
            en.set_split(SplitOptions::new(parts));
            let total = en.enumerate(plan, layout, opts).1.generated;
            for max_rows in [0, 10, total / 2, total - 1, u64::MAX] {
                fold(h, &en.enumerate_within(plan, layout, opts, max_rows));
            }
        }
    }

    /// The split driver's answers, stats and refusals on seeded DAGs and
    /// pipelines over `named()` and `uniform(3)` under the analytic oracle,
    /// and on a few of them under [`TinyForest`] ranked by `sigma2`, pinned
    /// as one digest taken while every part ran on an enumerator of its
    /// own. Any change to how parts, seams or budgets are scheduled that
    /// moves one winner, cost bit, counter or refusal moves it.
    #[test]
    fn a_seeded_split_stream_is_pinned() {
        let mut rng = SplitMix64::new(0x5B11_7041);
        let mut h = SigHasher::new();
        let mut en = ParallelEnumerator::default();
        for registry in [PlatformRegistry::named(), PlatformRegistry::uniform(3)] {
            let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
            let analytic = AnalyticOracle::for_registry(&registry, &layout);
            let forest = TinyForest::new(&registry, &layout, 0xF0_4E57);
            let mut plans: Vec<LogicalPlan> = (0..6)
                .map(|_| {
                    let n = 6 + rng.gen_range(11);
                    workloads::random_connected_dag(&mut rng, n, 0.3)
                })
                .collect();
            plans.push(workloads::synthetic_pipeline(12, 1e5));
            plans.push(workloads::synthetic_pipeline(30, 1e6));
            let opts = EnumOptions::new(&registry).with_oracle(&analytic);
            for plan in &plans {
                fold_split_runs(&mut h, &mut en, plan, &layout, opts);
            }
            let opts = EnumOptions::new(&registry)
                .with_oracle(&forest)
                .with_risk(RiskPolicy::MeanPlusKSigma(2.0));
            for plan in plans.iter().step_by(3) {
                fold_split_runs(&mut h, &mut en, plan, &layout, opts);
            }
        }
        assert_eq!(h.finish(), 0x2e35_1930_3c58_4262);
    }

    #[test]
    fn unsplittable_plan_falls_back_to_serial() {
        let plan = workloads::wordcount(1e5);
        let (registry, layout, oracle) = setup(2);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let (serial, serial_stats) = Enumerator::new().enumerate(&plan, &layout, opts);
        // parts = 1: the whole plan is the one part.
        let (par, stats) = ParallelEnumerator::default()
            .with_split(SplitOptions::new(1))
            .enumerate(&plan, &layout, opts);
        assert_eq!(par, serial);
        assert_eq!(stats, serial_stats);
    }

    #[test]
    fn repeated_runs_reuse_pools_and_agree() {
        let plan = workloads::synthetic_pipeline(20, 1e5);
        let (registry, layout, oracle) = setup(2);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let mut en = ParallelEnumerator::default();
        let (first, first_stats) = en.enumerate(&plan, &layout, opts);
        for _ in 0..3 {
            let (again, stats) = en.enumerate(&plan, &layout, opts);
            assert_eq!(again, first);
            assert_eq!(stats, first_stats);
        }
    }
}
