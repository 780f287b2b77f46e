//! Job-shape templates (paper §V-A): seeded skeleton generators for the
//! five DAG families TDGEN draws training plans from.
//!
//! A [`JobSkeleton`] is a *scale-free* plan: an unsealed [`LogicalPlan`]
//! whose operator kinds, jittered selectivities/widths and edges are
//! fixed, and whose sources hold their share of the input scale as their
//! `source_cardinality`. [`JobSkeleton::instantiate`] binds one input
//! scale and seals a concrete plan — the same skeleton instantiated at
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

/// A scale-free job skeleton: fixed kinds and topology, symbolic scale.
///
/// Invariant (checked at construction): operators are added in a
/// topological order, so every edge satisfies `from < to` — the
/// switch-counting DP in [`crate::switches`] relies on it.
#[derive(Debug, Clone)]
pub struct JobSkeleton {
    pub shape: ShapeKind,
    /// Unsealed. A source's `source_cardinality` is the fraction of the
    /// job's input scale it contributes; every other operator's is 0.
    pub plan: LogicalPlan,
}

impl JobSkeleton {
    /// Number of operators.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.plan.n_ops()
    }

    /// Bind an input scale (tuples entering the job) and seal a concrete
    /// plan: the same operators and edges, each source receiving
    /// `scale * share` tuples.
    pub fn instantiate(&self, scale: f64) -> LogicalPlan {
        assert!(scale > 0.0, "input scale must be positive");
        let mut plan = LogicalPlan::new();
        for op in self.plan.ops() {
            plan.add_op(Operator {
                source_cardinality: scale * op.source_cardinality,
                ..*op
            });
        }
        for &(u, v) in self.plan.edges() {
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

/// Jitter a kind into an [`Operator`]: selectivity and tuple width are
/// each scaled by an independent factor in `[0.5, 2)`, with selectivity
/// capped at 8 so no single operator explodes cardinality unboundedly.
fn jittered(rng: &mut SplitMix64, kind: OperatorKind) -> Operator {
    let jit = |rng: &mut SplitMix64| -> f64 { (2.0_f64).powf(2.0 * rng.next_f64() - 1.0) };
    let selectivity = if kind.is_sink() {
        0.0
    } else {
        (kind.default_selectivity() * jit(rng)).min(8.0)
    };
    Operator::new(kind)
        .with_selectivity(selectivity)
        .with_tuple_width(kind.default_tuple_width() * jit(rng))
}

/// A jittered source contributing `share` of the job scale.
fn source_slot(rng: &mut SplitMix64, registry: &PlatformRegistry, share: f64) -> Operator {
    let kind = weighted_kind(rng, registry, &SOURCE_POOL);
    Operator {
        source_cardinality: share,
        ..jittered(rng, kind)
    }
}

/// Append a chain of `n` jittered unary ops after `prev`; returns the last
/// op id of the chain (`prev` if `n == 0`).
fn grow_chain(
    rng: &mut SplitMix64,
    registry: &PlatformRegistry,
    plan: &mut LogicalPlan,
    mut prev: u32,
    n: usize,
) -> u32 {
    for _ in 0..n {
        let kind = weighted_kind(rng, registry, &UNARY_POOL);
        let id = plan.add_op(jittered(rng, kind));
        plan.connect(prev, id);
        prev = id;
    }
    prev
}

fn push_sink(plan: &mut LogicalPlan, rng: &mut SplitMix64, prev: u32) {
    let id = plan.add_op(jittered(rng, OperatorKind::LocalCallbackSink));
    plan.connect(prev, id);
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
    let mut plan = LogicalPlan::new();
    match shape {
        ShapeKind::Pipeline => {
            // source → (n-2) unaries → sink.
            let src = plan.add_op(source_slot(rng, registry, 1.0));
            let tail = grow_chain(rng, registry, &mut plan, src, n - 2);
            push_sink(&mut plan, rng, tail);
        }
        ShapeKind::FanIn => {
            // Two source branches → merge → tail → sink. The second source
            // contributes a minority share so branch scales differ.
            let spare = n - 5; // 2 sources + merge + 1 guaranteed branch op + sink
            let left_extra = rng.gen_range(spare + 1);
            let a = plan.add_op(source_slot(rng, registry, 1.0));
            let left = grow_chain(rng, registry, &mut plan, a, 1 + left_extra);
            let minority_share = 0.1 + 0.4 * rng.next_f64();
            let b = plan.add_op(source_slot(rng, registry, minority_share));
            let right = grow_chain(rng, registry, &mut plan, b, 0);
            let merge_kind = weighted_kind(rng, registry, &MERGE_POOL);
            let merge = plan.add_op(jittered(rng, merge_kind));
            plan.connect(left, merge);
            plan.connect(right, merge);
            let tail = grow_chain(rng, registry, &mut plan, merge, spare - left_extra);
            push_sink(&mut plan, rng, tail);
        }
        ShapeKind::FanOut => {
            // source → two branches → two sinks.
            let spare = n - 5; // source + 1 op per branch + 2 sinks
            let upper_extra = rng.gen_range(spare + 1);
            let src = plan.add_op(source_slot(rng, registry, 1.0));
            let up = grow_chain(rng, registry, &mut plan, src, 1 + upper_extra);
            push_sink(&mut plan, rng, up);
            let down = grow_chain(rng, registry, &mut plan, src, 1 + spare - upper_extra);
            push_sink(&mut plan, rng, down);
        }
        ShapeKind::Diamond => {
            // source → two branches → merge → tail → sink.
            let spare = n - 6; // source + 2 branch ops + merge + 1 tail op + sink
            let upper_extra = rng.gen_range(spare + 1);
            let src = plan.add_op(source_slot(rng, registry, 1.0));
            let up = grow_chain(rng, registry, &mut plan, src, 1 + upper_extra);
            let down = grow_chain(rng, registry, &mut plan, src, 1);
            let merge_kind = weighted_kind(rng, registry, &MERGE_POOL);
            let merge = plan.add_op(jittered(rng, merge_kind));
            plan.connect(up, merge);
            plan.connect(down, merge);
            let tail = grow_chain(rng, registry, &mut plan, merge, 1 + spare - upper_extra);
            push_sink(&mut plan, rng, tail);
        }
        ShapeKind::Iterative => {
            // source → Cache → RepeatLoop → body → sink (unrolled loop).
            let src = plan.add_op(source_slot(rng, registry, 1.0));
            let cache = plan.add_op(jittered(rng, OperatorKind::Cache));
            plan.connect(src, cache);
            let repeat = plan.add_op(jittered(rng, OperatorKind::RepeatLoop));
            plan.connect(cache, repeat);
            let tail = grow_chain(rng, registry, &mut plan, repeat, n - 4);
            push_sink(&mut plan, rng, tail);
        }
    }
    debug_assert_eq!(plan.n_ops(), n, "shape builder dropped an operator");
    debug_assert!(
        plan.edges().iter().all(|&(u, v)| u < v),
        "skeleton edges must be topologically ordered"
    );
    JobSkeleton { shape, plan }
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
                assert!(skel.plan.edges().iter().all(|&(u, v)| u < v));
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

    /// Pinned before skeletons became plans: every operator field, edge and
    /// cardinality of 5 shapes x 40 draws, each instantiated at three scales.
    #[test]
    fn instantiated_skeletons_are_pinned() {
        let registry = PlatformRegistry::named();
        let mut rng = SplitMix64::new(0x5EED_5CA1E);
        let mut digest = robopt_vector::SigHasher::new();
        for shape in ShapeKind::ALL {
            for _ in 0..40 {
                let n_ops = shape.min_ops() + rng.gen_range(10);
                let skel = sample_skeleton(&mut rng, &registry, shape, n_ops);
                for scale in [1e4, 3.7e6, 1e9] {
                    let plan = skel.instantiate(scale);
                    for op in plan.ops() {
                        digest.write_u64(op.kind.index() as u64);
                        digest.write_f64_bits(op.selectivity);
                        digest.write_f64_bits(op.tuple_width);
                        digest.write_f64_bits(op.source_cardinality);
                        digest.write_u64(u64::from(op.iterations));
                    }
                    for &(u, v) in plan.edges() {
                        digest.write_u64(u64::from(u) << 32 | u64::from(v));
                    }
                    for column in [plan.in_tuples(), plan.out_card()] {
                        for &x in column {
                            digest.write_f64_bits(x);
                        }
                    }
                }
            }
        }
        assert_eq!(digest.finish(), 0x271a_0959_9167_563a);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let registry = PlatformRegistry::named();
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        let x = sample_skeleton(&mut a, &registry, ShapeKind::Diamond, 9);
        let y = sample_skeleton(&mut b, &registry, ShapeKind::Diamond, 9);
        assert_eq!(x.plan.edges(), y.plan.edges());
        for (p, q) in x.plan.ops().iter().zip(y.plan.ops()) {
            assert_eq!(p.kind, q.kind);
            assert_eq!(p.selectivity.to_bits(), q.selectivity.to_bits());
            assert_eq!(p.tuple_width.to_bits(), q.tuple_width.to_bits());
        }
    }
}
