//! Job-shape templates (paper §V-A): seeded skeleton generators for the
//! five DAG families TDGEN draws training plans from.
//!
//! A [`JobSkeleton`] is a *scale-free* plan: operator kinds, jittered
//! selectivities/widths and edges are fixed, but source cardinalities are
//! left symbolic. [`JobSkeleton::instantiate`] binds one input scale and
//! seals a concrete [`LogicalPlan`] — the same skeleton instantiated at
//! many scales is what makes runtime interpolation possible, because the
//! runtime of a fixed (skeleton, assignment) pair is a smooth function of
//! scale.
//!
//! Operator population is driven by the [`PlatformRegistry`] availability
//! matrix: a kind's chance of being drawn is proportional to how many
//! platforms can execute it, so the generated corpus over-samples the
//! operators that actually create cross-platform choice and never drifts
//! from what the registry can place.

use robopt_plan::rng::SplitMix64;
use robopt_plan::{LogicalPlan, Operator, OperatorKind};
use robopt_platforms::PlatformRegistry;

/// The five skeleton families (paper Fig 7 sketches the first four; the
/// iterative family models Rheem's loop jobs as an unrolled cache+repeat
/// pipeline, since [`LogicalPlan`] is acyclic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeKind {
    /// Single source → unary chain → sink.
    Pipeline,
    /// Two source branches merging at a binary juncture, then a tail.
    FanIn,
    /// One source splitting into two branches with independent sinks.
    FanOut,
    /// Split at the source side, re-merge at a binary juncture: the
    /// fan-out and fan-in composed, with a shared origin.
    Diamond,
    /// Cache + repeat-loop pipeline standing in for iterative jobs.
    Iterative,
}

impl ShapeKind {
    /// Every shape, in a stable order (the default `TdgenConfig` mix).
    pub const ALL: [ShapeKind; 5] = [
        ShapeKind::Pipeline,
        ShapeKind::FanIn,
        ShapeKind::FanOut,
        ShapeKind::Diamond,
        ShapeKind::Iterative,
    ];

    /// Stable lowercase name (artifact/report labels).
    pub fn name(self) -> &'static str {
        match self {
            ShapeKind::Pipeline => "pipeline",
            ShapeKind::FanIn => "fan-in",
            ShapeKind::FanOut => "fan-out",
            ShapeKind::Diamond => "diamond",
            ShapeKind::Iterative => "iterative",
        }
    }

    /// Smallest operator count this family can be built with.
    pub fn min_ops(self) -> usize {
        match self {
            ShapeKind::Pipeline => 3,
            ShapeKind::FanIn => 5,
            ShapeKind::FanOut => 5,
            ShapeKind::Diamond => 6,
            ShapeKind::Iterative => 5,
        }
    }
}

/// One operator slot of a skeleton: everything about the operator except
/// the input scale.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonOp {
    pub kind: OperatorKind,
    /// Jittered output/input ratio.
    pub selectivity: f64,
    /// Jittered output tuple width (bytes).
    pub tuple_width: f64,
    /// Fraction of the job's input scale this source contributes
    /// (`0.0` for non-source operators).
    pub source_share: f64,
}

/// A scale-free job skeleton: fixed kinds and topology, symbolic scale.
///
/// Invariant (checked at construction): operators are stored in a
/// topological order, so every edge satisfies `from < to` — the
/// switch-counting DP in [`crate::switches`] relies on it.
#[derive(Debug, Clone)]
pub struct JobSkeleton {
    pub shape: ShapeKind,
    pub ops: Vec<SkeletonOp>,
    pub edges: Vec<(u32, u32)>,
}

impl JobSkeleton {
    /// Number of operator slots.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Bind an input scale (tuples entering the job) and seal a concrete
    /// plan. Each source receives `scale * source_share` tuples.
    pub fn instantiate(&self, scale: f64) -> LogicalPlan {
        assert!(scale > 0.0, "input scale must be positive");
        let mut plan = LogicalPlan::new();
        for slot in &self.ops {
            let op = if slot.kind.is_source() {
                Operator::source(slot.kind, scale * slot.source_share)
            } else {
                Operator::new(slot.kind)
            }
            .with_selectivity(slot.selectivity)
            .with_tuple_width(slot.tuple_width);
            plan.add_op(op);
        }
        for &(u, v) in &self.edges {
            plan.connect(u, v);
        }
        plan.seal();
        plan
    }
}

/// Kinds eligible for unary mid-plan slots. Aggregating kinds with
/// near-zero selectivity (Aggregate, Count, …) are excluded: one of them
/// mid-chain collapses every downstream cardinality to ~0 and the rest of
/// the plan stops contributing signal.
const UNARY_POOL: [OperatorKind; 11] = [
    OperatorKind::Map,
    OperatorKind::FlatMap,
    OperatorKind::MapPartitions,
    OperatorKind::Filter,
    OperatorKind::Sample,
    OperatorKind::Distinct,
    OperatorKind::ReduceByKey,
    OperatorKind::GroupByKey,
    OperatorKind::Sort,
    OperatorKind::ZipWithId,
    OperatorKind::Cache,
];

/// Kinds eligible for binary merge junctures.
const MERGE_POOL: [OperatorKind; 3] = [
    OperatorKind::Join,
    OperatorKind::Union,
    OperatorKind::Intersect,
];

/// Source kinds.
const SOURCE_POOL: [OperatorKind; 3] = [
    OperatorKind::TextFileSource,
    OperatorKind::CollectionSource,
    OperatorKind::TableSource,
];

/// Draw one kind from `pool`, weighted by how many platforms of
/// `registry` can execute it (the availability matrix drives population).
#[expect(
    clippy::unreachable,
    reason = "draw < total = sum(weights) by gen_range's contract, so the loop always returns"
)]
fn weighted_kind(
    rng: &mut SplitMix64,
    registry: &PlatformRegistry,
    pool: &[OperatorKind],
) -> OperatorKind {
    let weights: Vec<usize> = pool
        .iter()
        .map(|&k| registry.available_platforms(k).count())
        .collect();
    let total: usize = weights.iter().sum();
    assert!(total > 0, "registry can place none of the pooled kinds");
    let mut draw = rng.gen_range(total);
    for (&kind, &w) in pool.iter().zip(&weights) {
        if draw < w {
            return kind;
        }
        draw -= w;
    }
    unreachable!("weighted draw exhausted the pool");
}

/// Jitter a kind into a [`SkeletonOp`]: selectivity and tuple width are
/// each scaled by an independent factor in `[0.5, 2)`, with selectivity
/// capped at 8 so no single operator explodes cardinality unboundedly.
fn jittered(rng: &mut SplitMix64, kind: OperatorKind) -> SkeletonOp {
    let jit = |rng: &mut SplitMix64| -> f64 { (2.0_f64).powf(2.0 * rng.next_f64() - 1.0) };
    let selectivity = if kind.is_sink() {
        0.0
    } else {
        (kind.default_selectivity() * jit(rng)).min(8.0)
    };
    SkeletonOp {
        kind,
        selectivity,
        tuple_width: kind.default_tuple_width() * jit(rng),
        source_share: 0.0,
    }
}

/// A jittered source slot contributing `share` of the job scale.
fn source_slot(rng: &mut SplitMix64, registry: &PlatformRegistry, share: f64) -> SkeletonOp {
    let kind = weighted_kind(rng, registry, &SOURCE_POOL);
    SkeletonOp {
        source_share: share,
        ..jittered(rng, kind)
    }
}

/// Append a chain of `n` jittered unary ops after `prev`; returns the last
/// op id of the chain (`prev` if `n == 0`).
fn grow_chain(
    rng: &mut SplitMix64,
    registry: &PlatformRegistry,
    skel: &mut JobSkeleton,
    mut prev: u32,
    n: usize,
) -> u32 {
    for _ in 0..n {
        let kind = weighted_kind(rng, registry, &UNARY_POOL);
        let id = push_op(skel, jittered(rng, kind));
        skel.edges.push((prev, id));
        prev = id;
    }
    prev
}

fn push_op(skel: &mut JobSkeleton, op: SkeletonOp) -> u32 {
    let id = skel.ops.len() as u32;
    skel.ops.push(op);
    id
}

fn push_sink(skel: &mut JobSkeleton, rng: &mut SplitMix64, prev: u32) {
    let id = push_op(skel, jittered(rng, OperatorKind::LocalCallbackSink));
    skel.edges.push((prev, id));
}

/// Sample one skeleton of `shape` with exactly `n_ops` operators
/// (raised to [`ShapeKind::min_ops`] if below it), populated against
/// `registry`'s availability matrix.
pub fn sample_skeleton(
    rng: &mut SplitMix64,
    registry: &PlatformRegistry,
    shape: ShapeKind,
    n_ops: usize,
) -> JobSkeleton {
    let n = n_ops.max(shape.min_ops());
    let mut skel = JobSkeleton {
        shape,
        ops: Vec::with_capacity(n),
        edges: Vec::with_capacity(n + 1),
    };
    match shape {
        ShapeKind::Pipeline => {
            // source → (n-2) unaries → sink.
            let src = push_op(&mut skel, source_slot(rng, registry, 1.0));
            let tail = grow_chain(rng, registry, &mut skel, src, n - 2);
            push_sink(&mut skel, rng, tail);
        }
        ShapeKind::FanIn => {
            // Two source branches → merge → tail → sink. The second source
            // contributes a minority share so branch scales differ.
            let spare = n - 5; // 2 sources + merge + 1 guaranteed branch op + sink
            let left_extra = rng.gen_range(spare + 1);
            let a = push_op(&mut skel, source_slot(rng, registry, 1.0));
            let left = grow_chain(rng, registry, &mut skel, a, 1 + left_extra);
            let minority_share = 0.1 + 0.4 * rng.next_f64();
            let b = push_op(&mut skel, source_slot(rng, registry, minority_share));
            let right = grow_chain(rng, registry, &mut skel, b, 0);
            let merge_kind = weighted_kind(rng, registry, &MERGE_POOL);
            let merge = push_op(&mut skel, jittered(rng, merge_kind));
            skel.edges.push((left, merge));
            skel.edges.push((right, merge));
            let tail = grow_chain(rng, registry, &mut skel, merge, spare - left_extra);
            push_sink(&mut skel, rng, tail);
        }
        ShapeKind::FanOut => {
            // source → two branches → two sinks.
            let spare = n - 5; // source + 1 op per branch + 2 sinks
            let upper_extra = rng.gen_range(spare + 1);
            let src = push_op(&mut skel, source_slot(rng, registry, 1.0));
            let up = grow_chain(rng, registry, &mut skel, src, 1 + upper_extra);
            push_sink(&mut skel, rng, up);
            let down = grow_chain(rng, registry, &mut skel, src, 1 + spare - upper_extra);
            push_sink(&mut skel, rng, down);
        }
        ShapeKind::Diamond => {
            // source → two branches → merge → tail → sink.
            let spare = n - 6; // source + 2 branch ops + merge + 1 tail op + sink
            let upper_extra = rng.gen_range(spare + 1);
            let src = push_op(&mut skel, source_slot(rng, registry, 1.0));
            let up = grow_chain(rng, registry, &mut skel, src, 1 + upper_extra);
            let down = grow_chain(rng, registry, &mut skel, src, 1);
            let merge_kind = weighted_kind(rng, registry, &MERGE_POOL);
            let merge = push_op(&mut skel, jittered(rng, merge_kind));
            skel.edges.push((up, merge));
            skel.edges.push((down, merge));
            let tail = grow_chain(rng, registry, &mut skel, merge, 1 + spare - upper_extra);
            push_sink(&mut skel, rng, tail);
        }
        ShapeKind::Iterative => {
            // source → Cache → RepeatLoop → body → sink (unrolled loop).
            let src = push_op(&mut skel, source_slot(rng, registry, 1.0));
            let cache = push_op(&mut skel, jittered(rng, OperatorKind::Cache));
            skel.edges.push((src, cache));
            let repeat = push_op(&mut skel, jittered(rng, OperatorKind::RepeatLoop));
            skel.edges.push((cache, repeat));
            let tail = grow_chain(rng, registry, &mut skel, repeat, n - 4);
            push_sink(&mut skel, rng, tail);
        }
    }
    debug_assert_eq!(skel.n_ops(), n, "shape builder dropped an operator");
    debug_assert!(
        skel.edges.iter().all(|&(u, v)| u < v),
        "skeleton edges must be topologically ordered"
    );
    skel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xd5a7)
    }

    #[test]
    fn every_shape_builds_connected_sealable_plans() {
        let registry = PlatformRegistry::named();
        let mut rng = rng();
        for shape in ShapeKind::ALL {
            for n in [shape.min_ops(), shape.min_ops() + 3, 14] {
                let skel = sample_skeleton(&mut rng, &registry, shape, n);
                assert_eq!(skel.n_ops(), n.max(shape.min_ops()));
                assert!(skel.edges.iter().all(|&(u, v)| u < v));
                let plan = skel.instantiate(1e6);
                assert!(plan.is_connected(), "{shape:?} plan must be connected");
                assert!(plan.in_tuples().iter().all(|t| t.is_finite()));
            }
        }
    }

    #[test]
    fn instantiate_scales_source_cardinality_linearly() {
        let registry = PlatformRegistry::named();
        let mut rng = rng();
        let skel = sample_skeleton(&mut rng, &registry, ShapeKind::Pipeline, 6);
        let small = skel.instantiate(1e4);
        let large = skel.instantiate(1e6);
        for (s, l) in small.out_card().iter().zip(large.out_card()) {
            if *s > 0.0 {
                assert!(
                    (l / s - 100.0).abs() < 1e-6,
                    "cardinality must scale linearly"
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let registry = PlatformRegistry::named();
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        let x = sample_skeleton(&mut a, &registry, ShapeKind::Diamond, 9);
        let y = sample_skeleton(&mut b, &registry, ShapeKind::Diamond, 9);
        assert_eq!(x.edges, y.edges);
        for (p, q) in x.ops.iter().zip(&y.ops) {
            assert_eq!(p.kind, q.kind);
            assert_eq!(p.selectivity.to_bits(), q.selectivity.to_bits());
            assert_eq!(p.tuple_width.to_bits(), q.tuple_width.to_bits());
        }
    }
}
