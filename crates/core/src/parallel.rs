//! Split-based parallel enumeration (paper §IV-D; DESIGN §9).
//!
//! [`ParallelEnumerator`] partitions the plan with [`crate::split`], runs
//! the existing priority enumeration *independently per part* — one
//! [`Enumerator`] with its own matrix pool per part, so the zero-alloc hot
//! path survives parallelism — and then contracts the seam edges serially
//! over the surviving part units with the same lossless Def-2 pruning the
//! parts used.
//!
//! # Determinism contract
//!
//! The partition comes from [`SplitOptions`], **not** from the thread
//! count: threads only schedule which worker runs which part, exactly the
//! per-tree discipline `robopt_ml`'s forest uses for bagging. Each part's
//! enumeration is a pure function of (plan, part scope, options), per-part
//! stats are folded in part order, and the seam phase installs part results
//! in part order — so the result is bit-identical across thread counts,
//! and `tests/parallel_enum.rs` + `tests/determinism.rs` assert it.
//!
//! Agreement with the *serial* [`Enumerator`] is slightly weaker by
//! construction: the two build different merge trees, so intermediate
//! counters ([`EnumStats`]) legitimately differ, and candidate costs see
//! different floating-point addition orders. The final reported cost is
//! immune to that — both paths re-cost the winning assignment canonically
//! in `finish` — so best assignment and cost bits agree (also asserted in
//! the test suites).

use robopt_plan::par::{available_threads, par_chunks};
use robopt_plan::LogicalPlan;
use robopt_vector::FeatureLayout;

use crate::enumerate::{
    check_preconditions, unbudgeted, EnumOptions, EnumStats, Enumerator, OverBudget,
};
use crate::split::{split_plan, PlanSplit, SplitOptions};
use crate::vectorize::{ExecutionPlan, PlanLayout};

/// Parallel split-enumerate-merge driver over per-part [`Enumerator`]s.
#[derive(Debug, Default)]
pub struct ParallelEnumerator {
    threads: usize,
    /// Cap workers at [`available_threads`] (on by default):
    /// oversubscribing a host only adds spawn/context-switch
    /// latency, and the partition — hence the result — never depends on the
    /// worker count, so clamping is invisible except in wall-clock time.
    hardware_clamp: bool,
    split: SplitOptions,
    /// One enumerator (and thus one warm buffer pool) per part. Part
    /// results are *copied* into the merger's pool, never moved, so each
    /// pool stabilizes after warm-up.
    parts: Vec<Enumerator>,
    merger: Enumerator,
    roots: Vec<u32>,
}

impl ParallelEnumerator {
    /// An enumerator running on (up to) `threads` worker threads with the
    /// default [`SplitOptions`].
    pub fn new(threads: usize) -> Self {
        ParallelEnumerator {
            threads: threads.max(1),
            hardware_clamp: true,
            ..ParallelEnumerator::default()
        }
    }

    /// Override the plan-splitting options.
    pub fn with_split(mut self, split: SplitOptions) -> Self {
        self.set_split(split);
        self
    }

    /// Toggle the [`available_threads`] worker cap. Tests disable it to
    /// force real scoped-thread scheduling even on a single-core host; the
    /// result is bit-identical either way.
    pub fn with_hardware_clamp(mut self, clamp: bool) -> Self {
        self.set_hardware_clamp(clamp);
        self
    }

    /// Re-target the worker count **in place**, keeping every per-part
    /// enumerator (and its warmed matrix pool) alive. The service facade
    /// changes policy per request; rebuilding via [`ParallelEnumerator::new`]
    /// would throw the pools away and reintroduce hot-path allocation.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// In-place counterpart of [`ParallelEnumerator::with_split`].
    pub fn set_split(&mut self, split: SplitOptions) {
        self.split = split;
    }

    /// In-place counterpart of [`ParallelEnumerator::with_hardware_clamp`].
    pub fn set_hardware_clamp(&mut self, clamp: bool) {
        self.hardware_clamp = clamp;
    }

    /// Run split-based enumeration. Same contract as
    /// [`Enumerator::enumerate`]; additionally the result is bit-identical
    /// across thread counts (see the module docs).
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
    /// `max_rows` of the parts' total and its own. The lowest refused part
    /// answers, so the refusal too is the same for every thread count.
    pub fn enumerate_within(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
        max_rows: u64,
    ) -> Result<(ExecutionPlan, EnumStats), OverBudget> {
        check_preconditions(plan, layout, opts);
        let n = plan.n_ops();

        let split = split_plan(plan, self.split);
        let kp = split.len();
        if kp <= 1 {
            // No admissible cut: plain serial enumeration on the merger.
            return self.merger.enumerate_within(plan, layout, opts, max_rows);
        }
        if self.parts.len() < kp {
            self.parts.resize_with(kp, Enumerator::default);
        }
        // One row layout for the whole run: parts and merger store the same
        // plan-local rows, so part units are copied across as they are.
        let layout = &PlanLayout::of(plan, layout);

        // Phase 1: enumerate every part, contiguous blocks of parts per
        // worker on the workspace's one fan-out. Each block folds its
        // parts' stats in part order and the blocks fold in block order,
        // so the total is the part-order fold for every tiling. The core
        // count is read only when it can lower `t`: one worker — every
        // caller's default — stays one whatever the host reports, and the
        // read costs microseconds (cgroup files) on every cache miss.
        let mut t = self.threads.min(kp);
        if self.hardware_clamp && t > 1 {
            t = t.min(available_threads());
        }
        let split = &split;
        let blocks = par_chunks(t, &mut self.parts[..kp], |lo, block| {
            let mut stats = EnumStats::default();
            for (j, en) in block.iter_mut().enumerate() {
                match run_part(en, plan, layout, opts, split, lo + j, max_rows) {
                    Ok(part) => stats.absorb(&part),
                    Err(over) => return (stats, Some(over)),
                }
            }
            (stats, None)
        });
        let mut stats = EnumStats::default();
        for (st, over) in &blocks {
            if let Some(over) = over {
                return Err(*over);
            }
            stats.absorb(st);
        }

        // Phase 2: serial seam merge. Copy every surviving part unit into
        // the merger (a part with an internally disconnected subgraph
        // legitimately survives as several units), then contract exactly
        // the seam edges. Boundary footprints always see the whole plan's
        // edges, so part-boundary operators stay in every footprint until
        // the seams close over them — pruning remains lossless.
        let (merger, parts) = (&mut self.merger, &mut self.parts);
        merger.begin(n, layout);
        let mut roots = std::mem::take(&mut self.roots);
        for (i, en) in parts[..kp].iter_mut().enumerate() {
            en.surviving_roots(split.parts[i], &mut roots);
            for &r in roots.iter() {
                let unit = en.take_unit(r);
                let mut mat = merger.take_mat(layout.local().width, n, unit.mat.rows());
                mat.extend_from(&unit.mat);
                merger.install_unit(unit.scope, mat);
                en.recycle(unit.mat);
            }
        }
        self.roots = roots;
        merger.contract_edges(plan, layout, opts, &split.seam_edges, max_rows, &mut stats)?;
        Ok((merger.finish(plan, layout, opts), stats))
    }
}

/// Enumerate one part to completion: seed its singletons, contract its
/// internal edges. Free function so scoped worker threads can run disjoint
/// `&mut Enumerator`s without borrowing the driver.
fn run_part(
    en: &mut Enumerator,
    plan: &LogicalPlan,
    layout: &PlanLayout,
    opts: EnumOptions<'_>,
    split: &PlanSplit,
    i: usize,
    max_rows: u64,
) -> Result<EnumStats, OverBudget> {
    let mut st = EnumStats::default();
    en.begin(plan.n_ops(), layout);
    en.seed_singletons(plan, layout, opts, split.parts[i], &mut st);
    en.contract_edges(plan, layout, opts, &split.part_edges[i], max_rows, &mut st)?;
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AnalyticOracle;
    use robopt_plan::{workloads, N_OPERATOR_KINDS};
    use robopt_platforms::PlatformRegistry;

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
        for threads in [1, 2, 4] {
            // Clamp off: exercise real scoped threads even on small hosts.
            let (par, stats) = ParallelEnumerator::new(threads)
                .with_split(SplitOptions::new(4))
                .with_hardware_clamp(false)
                .enumerate(&plan, &layout, opts);
            assert_eq!(par.assignments, serial.assignments, "threads={threads}");
            assert_eq!(
                par.cost.to_bits(),
                serial.cost.to_bits(),
                "threads={threads}"
            );
            assert_eq!(stats.merges, plan.n_ops() as u64 - 1);
        }
    }

    #[test]
    fn thread_count_does_not_change_stats() {
        let plan = workloads::synthetic_pipeline(30, 1e5);
        let (registry, layout, oracle) = setup(4);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let (base, base_stats) = ParallelEnumerator::new(1)
            .with_split(SplitOptions::new(5))
            .enumerate(&plan, &layout, opts);
        for threads in [2, 3, 8] {
            let (par, stats) = ParallelEnumerator::new(threads)
                .with_split(SplitOptions::new(5))
                .with_hardware_clamp(false)
                .enumerate(&plan, &layout, opts);
            assert_eq!(par, base, "threads={threads}");
            assert_eq!(stats, base_stats, "threads={threads}");
        }
    }

    /// Parts and seam merge are refused on their own and the folded
    /// counters, the same way at every thread count; the full total is
    /// enough for the unbudgeted answer.
    #[test]
    fn thread_count_does_not_change_a_budget_refusal() {
        let plan = workloads::synthetic_pipeline(30, 1e5);
        let (registry, layout, oracle) = setup(4);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let split_enumerator = |threads| {
            ParallelEnumerator::new(threads)
                .with_split(SplitOptions::new(5))
                .with_hardware_clamp(false)
        };
        let free = split_enumerator(1).enumerate(&plan, &layout, opts);
        let total = free.1.generated;
        for threads in [1, 2, 3] {
            let mut en = split_enumerator(threads);
            for max_rows in [0, 100, total / 2, total - 1] {
                let refused = en.enumerate_within(&plan, &layout, opts, max_rows);
                assert_eq!(
                    refused,
                    split_enumerator(1).enumerate_within(&plan, &layout, opts, max_rows),
                    "threads={threads} max_rows={max_rows}"
                );
                assert!(refused.is_err_and(|over| over.estimate > max_rows));
            }
            assert_eq!(
                en.enumerate_within(&plan, &layout, opts, total),
                Ok(free.clone()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn unsplittable_plan_falls_back_to_serial() {
        let plan = workloads::wordcount(1e5);
        let (registry, layout, oracle) = setup(2);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let (serial, serial_stats) = Enumerator::new().enumerate(&plan, &layout, opts);
        // parts = 1 forces the fallback path.
        let (par, stats) = ParallelEnumerator::new(4)
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
        let mut en = ParallelEnumerator::new(2);
        let (first, first_stats) = en.enumerate(&plan, &layout, opts);
        for _ in 0..3 {
            let (again, stats) = en.enumerate(&plan, &layout, opts);
            assert_eq!(again, first);
            assert_eq!(stats, first_stats);
        }
    }
}
