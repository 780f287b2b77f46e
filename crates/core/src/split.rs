//! The plan splitter: low-connectivity cut boundaries for split
//! enumeration (paper §IV-D's `split`; DESIGN §9).
//!
//! The splitter cuts the plan into up to K contiguous segments of its
//! deterministic topological order. A *boundary* `b` separates the first
//! `b` operators of the topo order from the rest; its cost is the number of
//! dataflow edges crossing it. For each target position `i·n/K` the
//! splitter searches a window of nearby boundaries and keeps the one
//! minimizing `(crossing edges, distance to target, boundary index)` — a
//! total order, so the split is a pure function of the plan and the
//! options.
//!
//! Two classes of boundary are rejected outright:
//!
//! * boundaries spanned by a `RepeatLoop` protected region (the loop
//!   operator and everything downstream of it) — cutting through an
//!   iteration body would put a loop seam on the hot path of every
//!   round-trip;
//! * boundaries whose crossing-edge count exceeds [`MAX_CUT_EDGES`] — a
//!   wide seam makes the final merge phase as expensive as the enumeration
//!   it was supposed to split.
//!
//! When a window contains no admissible boundary the cut is skipped and the
//! split simply has fewer parts; a plan that admits no cuts at all comes
//! back whole (one part, empty seam). `SplitOptions::new(1)` is the serial
//! schedule: one part, the whole plan, its edges in index order.
//!
//! A split is an argument of [`Enumerator::enumerate_within`], not a second
//! enumerator: it only schedules the one contract loop's edges (DESIGN §9).

use robopt_plan::{LogicalPlan, OperatorKind};
use robopt_vector::{FeatureLayout, Scope};

use crate::enumerate::{unbudgeted, EnumOptions, EnumStats, Enumerator};
use crate::vectorize::ExecutionPlan;

/// Maximum dataflow edges a single cut may cross. Cuts wider than this
/// are rejected (the seam cross-product would dominate the run).
pub const MAX_CUT_EDGES: u32 = 4;

/// Tuning knobs for [`split_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitOptions {
    /// Target number of parts K (the split may produce fewer when cut
    /// windows contain no admissible boundary). Clamped to `1..=n`.
    pub parts: usize,
}

impl SplitOptions {
    /// Split into (up to) `parts` parts.
    pub fn new(parts: usize) -> Self {
        SplitOptions { parts }
    }
}

/// A shim kept only for the benchmark's replay of the facade (ROADMAP
/// 1(e)): a split and an [`Enumerator`], forwarded to
/// [`Enumerator::enumerate_within`]. Product code passes the split itself.
#[derive(Debug)]
pub struct ParallelEnumerator(SplitOptions, Enumerator);

impl ParallelEnumerator {
    /// A one-part split until `with_split`; the thread count is ignored.
    pub fn new(_threads: usize) -> Self {
        ParallelEnumerator(SplitOptions::new(1), Enumerator::new())
    }
    /// Enumerate under `split`.
    pub fn with_split(self, split: SplitOptions) -> Self {
        ParallelEnumerator(split, self.1)
    }
    /// A no-op: there is no worker count to clamp.
    pub fn with_hardware_clamp(self, _clamp: bool) -> Self {
        self
    }
    /// [`Enumerator::enumerate_within`] under the split, unbudgeted.
    pub fn enumerate(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) -> (ExecutionPlan, EnumStats) {
        let ParallelEnumerator(split, en) = self;
        unbudgeted(en.enumerate_within(plan, layout, opts, *split, u64::MAX))
    }
}

/// A deterministic partition of a plan's operators and edges.
#[derive(Debug, Clone, Default)]
pub struct PlanSplit {
    /// Operator scope of each part: pairwise disjoint, each non-empty,
    /// union covering the plan. Ordered by topo position.
    pub parts: Vec<Scope>,
    /// Per part, the indexes (into `plan.edges()`) of edges with both
    /// endpoints inside that part.
    pub part_edges: Vec<Vec<u32>>,
    /// Indexes of the seam edges — edges crossing parts. Contracting
    /// exactly these after the parts finish completes the enumeration.
    /// Each cut between consecutive parts crosses at most
    /// [`MAX_CUT_EDGES`] of them.
    pub seam_edges: Vec<u32>,
}

impl PlanSplit {
    /// Number of parts.
    #[inline]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Never true: [`split_plan`] returns at least one part, and a plan
    /// that comes back whole (no admissible cut) has `len() == 1`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

/// Protected regions no cut may pass through: for every `RepeatLoop`
/// operator, the loop operator plus every operator reachable from it (its
/// unrolled body and downstream consumers).
pub fn loop_regions(plan: &LogicalPlan) -> Vec<Scope> {
    let mut regions = Vec::new();
    for op in 0..plan.n_ops() as u32 {
        if plan.op(op).kind != OperatorKind::RepeatLoop {
            continue;
        }
        let mut scope = Scope::singleton(op);
        let mut stack = vec![op];
        while let Some(u) = stack.pop() {
            for &v in plan.succs(u) {
                if !scope.contains(v) {
                    scope = scope.union(Scope::singleton(v));
                    stack.push(v);
                }
            }
        }
        regions.push(scope);
    }
    regions
}

/// Partition `plan` into up to `opts.parts` contiguous topo-order segments
/// at minimum-crossing boundaries. Deterministic: same plan and options,
/// same split, always.
pub fn split_plan(plan: &LogicalPlan, opts: SplitOptions) -> PlanSplit {
    let n = plan.n_ops();
    assert!(n >= 1, "empty plan");
    let k = opts.parts.clamp(1, n);
    if k == 1 {
        // What the cut search below returns when it finds no cut, without
        // the topological pass.
        return PlanSplit {
            parts: vec![Scope::full(n)],
            part_edges: vec![(0..plan.edges().len() as u32).collect()],
            seam_edges: Vec::new(),
        };
    }
    let order = plan.topo_order();
    let mut pos = vec![0u32; n];
    for (i, &op) in order.iter().enumerate() {
        pos[op as usize] = i as u32;
    }

    // crossing[b] = edges (u, v) with pos[u] < b <= pos[v], via a
    // difference array over boundary positions 0..=n.
    let mut diff = vec![0i64; n + 1];
    for &(u, v) in plan.edges() {
        let (pu, pv) = (pos[u as usize], pos[v as usize]);
        debug_assert!(pu < pv, "topo order must orient every edge forward");
        diff[pu as usize + 1] += 1;
        diff[pv as usize + 1] -= 1;
    }
    let mut crossing = vec![0u32; n + 1];
    let mut acc = 0i64;
    for b in 0..=n {
        acc += diff[b];
        crossing[b] = acc as u32;
    }

    // Boundaries spanned by a protected loop region are forbidden.
    let mut forbidden = vec![false; n + 1];
    for region in loop_regions(plan) {
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for op in region.ops() {
            lo = lo.min(pos[op as usize]);
            hi = hi.max(pos[op as usize]);
        }
        for b in (lo + 1)..=hi {
            forbidden[b as usize] = true;
        }
    }

    // Pick up to K-1 cut boundaries, one search window per target.
    let window = (n / (2 * k)).max(1);
    let mut cuts: Vec<usize> = Vec::new();
    let mut prev = 0usize;
    for i in 1..k {
        let target = i * n / k;
        let lo = (target.saturating_sub(window)).max(prev + 1);
        let hi = (target + window).min(n - 1);
        let mut best: Option<(u32, usize, usize)> = None;
        for b in lo..=hi {
            if forbidden[b] || crossing[b] > MAX_CUT_EDGES {
                continue;
            }
            let key = (crossing[b], target.abs_diff(b), b);
            match best {
                Some(cur) if cur <= key => {}
                _ => best = Some(key),
            }
        }
        if let Some((_, _, b)) = best {
            cuts.push(b);
            prev = b;
        }
    }

    // Segments of the topo order -> scopes, then classify every edge.
    let mut parts = Vec::with_capacity(cuts.len() + 1);
    let mut part_of = vec![0u32; n];
    let mut start = 0usize;
    for (&end, part) in cuts.iter().chain(std::iter::once(&n)).zip(0u32..) {
        let mut scope = Scope::default();
        for &op in &order[start..end] {
            scope = scope.union(Scope::singleton(op));
            part_of[op as usize] = part;
        }
        debug_assert!(!scope.is_empty(), "empty part segment");
        parts.push(scope);
        start = end;
    }

    let mut part_edges = vec![Vec::new(); parts.len()];
    let mut seam_edges = Vec::new();
    for (e, &(u, v)) in plan.edges().iter().enumerate() {
        let (a, b) = (part_of[u as usize], part_of[v as usize]);
        if a == b {
            part_edges[a as usize].push(e as u32);
        } else {
            seam_edges.push(e as u32);
        }
    }

    PlanSplit {
        parts,
        part_edges,
        seam_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AnalyticOracle;
    use robopt_plan::{workloads, Operator, SplitMix64, N_OPERATOR_KINDS};
    use robopt_platforms::PlatformRegistry;

    /// The benchmark's shim answers as the one enumerator it forwards to:
    /// assignment bytes, cost bits and every `EnumStats` field, over seeded
    /// DAGs at parts {1, 2, 3, 8}, each side reused across plans.
    #[test]
    fn the_shim_answers_as_enumerate_within() {
        let mut rng = SplitMix64::new(0x5_4143);
        let mut en = Enumerator::new();
        for parts in [1, 2, 3, 8] {
            let split = SplitOptions::new(parts);
            let mut shim = ParallelEnumerator::new(4)
                .with_split(split)
                .with_hardware_clamp(false);
            for case in 0..6 {
                let k = 2 + rng.gen_range(3);
                let registry = PlatformRegistry::uniform(k);
                let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
                let oracle = AnalyticOracle::for_registry(&registry, &layout);
                let opts = EnumOptions::new(&registry).with_oracle(&oracle);
                let n = 6 + rng.gen_range(20);
                let plan = workloads::random_connected_dag(&mut rng, n, 0.3);
                let (want, want_stats) =
                    unbudgeted(en.enumerate_within(&plan, &layout, opts, split, u64::MAX));
                let (got, stats) = shim.enumerate(&plan, &layout, opts);
                let tag = format!("parts {parts}, case {case}");
                assert_eq!(got.raw_assignments(), want.raw_assignments(), "{tag}");
                assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{tag}");
                assert_eq!(stats, want_stats, "{tag}");
            }
        }
    }

    /// Crossing-edge count of each cut, from `parts` and `seam_edges`: a
    /// seam edge from part `a` to part `b` crosses cuts `a..b`.
    fn cut_sizes(plan: &LogicalPlan, split: &PlanSplit) -> Vec<u32> {
        let part_of = |op| split.parts.iter().position(|s| s.contains(op));
        let mut sizes = vec![0u32; split.len().saturating_sub(1)];
        for &e in &split.seam_edges {
            let (u, v) = plan.edges()[e as usize];
            if let (Some(a), Some(b)) = (part_of(u), part_of(v)) {
                sizes[a..b].iter_mut().for_each(|size| *size += 1);
            }
        }
        sizes
    }

    #[test]
    fn chain_splits_into_contiguous_nonempty_parts() {
        let plan = workloads::synthetic_pipeline(32, 1e5);
        let split = split_plan(&plan, SplitOptions::new(4));
        assert_eq!(split.len(), 4);
        assert_eq!(split.seam_edges.len(), 3);
        assert_eq!(cut_sizes(&plan, &split), [1, 1, 1]);
        let mut union = Scope::default();
        for (i, part) in split.parts.iter().enumerate() {
            assert!(!part.is_empty(), "part {i} empty");
            assert!((union.0 & part.0) == 0, "part {i} overlaps earlier parts");
            union = union.union(*part);
        }
        assert_eq!(union, Scope::full(32));
        // Every edge lands in exactly one bucket.
        let classified: usize =
            split.part_edges.iter().map(Vec::len).sum::<usize>() + split.seam_edges.len();
        assert_eq!(classified, plan.edges().len());
    }

    #[test]
    fn split_is_deterministic() {
        let mut rng = SplitMix64::new(77);
        for _ in 0..8 {
            let n = 8 + rng.gen_range(24);
            let plan = workloads::random_connected_dag(&mut rng, n, 0.3);
            let a = split_plan(&plan, SplitOptions::new(4));
            let b = split_plan(&plan, SplitOptions::new(4));
            assert_eq!(a.parts, b.parts);
            assert_eq!(a.seam_edges, b.seam_edges);
            assert_eq!(cut_sizes(&plan, &a), cut_sizes(&plan, &b));
        }
    }

    #[test]
    fn wide_seams_are_rejected() {
        // A fan-out/fan-in diamond with 6 parallel branches: every interior
        // boundary crosses 6 edges, more than `MAX_CUT_EDGES`, so the plan
        // must come back whole.
        let mut plan = LogicalPlan::new();
        let src = plan.add_op(Operator::source(OperatorKind::TableSource, 1e4));
        let sink = plan.add_op(Operator::new(OperatorKind::Union));
        for _ in 0..6 {
            let m = plan.add_op(Operator::new(OperatorKind::Map));
            plan.connect(src, m);
            plan.connect(m, sink);
        }
        plan.seal();
        let split = split_plan(&plan, SplitOptions::new(4));
        assert_eq!(split.len(), 1);
        assert!(split.seam_edges.is_empty());
        assert!(cut_sizes(&plan, &split).is_empty());
        // The same one part the serial split returns without searching.
        let serial = split_plan(&plan, SplitOptions::new(1));
        assert_eq!(split.parts, [Scope::full(plan.n_ops())]);
        assert_eq!(split.parts, serial.parts);
        assert_eq!(split.part_edges, serial.part_edges);
        assert_eq!(serial.part_edges, [(0..12).collect::<Vec<u32>>()]);
    }

    #[test]
    fn single_operator_plan_is_one_part() {
        let mut plan = LogicalPlan::new();
        plan.add_op(Operator::source(OperatorKind::TableSource, 10.0));
        plan.seal();
        let split = split_plan(&plan, SplitOptions::new(4));
        assert_eq!(split.len(), 1);
        assert_eq!(split.parts[0], Scope::singleton(0));
    }

    #[test]
    fn loop_regions_cover_repeat_loop_and_descendants() {
        let mut plan = LogicalPlan::new();
        let s = plan.add_op(Operator::source(OperatorKind::TableSource, 1e3));
        let c = plan.add_op(Operator::new(OperatorKind::Cache));
        let l = plan.add_op(Operator::new(OperatorKind::RepeatLoop));
        let m = plan.add_op(Operator::new(OperatorKind::Map));
        let t = plan.add_op(Operator::new(OperatorKind::LocalCallbackSink));
        plan.connect(s, c);
        plan.connect(c, l);
        plan.connect(l, m);
        plan.connect(m, t);
        plan.seal();
        let regions = loop_regions(&plan);
        assert_eq!(regions.len(), 1);
        for op in [l, m, t] {
            assert!(regions[0].contains(op));
        }
        for op in [s, c] {
            assert!(!regions[0].contains(op));
        }
        // No cut may separate the loop from its body: every accepted cut
        // must sit before the RepeatLoop.
        let split = split_plan(&plan, SplitOptions::new(3));
        for part in &split.parts {
            let inside = [l, m, t].iter().filter(|&&op| part.contains(op)).count();
            assert!(
                inside == 0 || inside == 3,
                "cut passes through the protected loop region"
            );
        }
    }
}
