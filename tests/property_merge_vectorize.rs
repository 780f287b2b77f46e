//! Property (a), DESIGN §4: incremental `merge` of subplan vectors equals
//! whole-plan `vectorize` on random DAGs.
//!
//! Seeded randomized testing is the offline stand-in for proptest: 96 random
//! connected DAGs, random platform counts, random assignments, and a random
//! merge order (including merges of not-yet-adjacent units — the kernel must
//! be correct for any contraction order).
//!
//! Assignments: [`merge_assignments`] — the per-operator select the
//! enumerator ran per candidate until PR 21 — lives here as the reference
//! the overlay rule that replaced it (DESIGN §5: copy the outer row, write
//! the inner scope's operators over it) is tested against.
//!
//! Live columns: `live_runs` lists the cells a plan's vectors can make
//! non-zero, and the enumerator stores nothing else (`PlanLayout`). The last
//! three tests hold the encoder to the list, hold a row built in the plan's
//! own layout to the whole-plan vector it packs, and run a plan of all 24
//! kinds, whose own layout is the full one.

use robopt_baselines::ObjectEnumerator;
use robopt_core::vectorize::{
    add_conversion_features, fill_singleton, live_runs, vectorize_assignment, PlanLayout,
};
use robopt_core::{AnalyticOracle, EnumOptions, Enumerator, ParallelEnumerator, SplitOptions};
use robopt_plan::{workloads, LogicalPlan, Operator, OperatorKind, SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::{PlatformId, PlatformRegistry};
use robopt_vector::merge::merge_feats;
use robopt_vector::{FeatureLayout, Scope, NO_PLATFORM};

/// Combine disjoint assignment arrays: each operator is covered by at most
/// one side.
fn merge_assignments(dst: &mut [u8], a: &[u8], b: &[u8]) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        assert!(x == NO_PLATFORM || y == NO_PLATFORM, "overlapping scopes");
        *d = if x != NO_PLATFORM { x } else { y };
    }
}

#[test]
fn overlaying_the_inner_scope_equals_merging_the_assignments() {
    let mut rng = SplitMix64::new(0xF16_0021);
    for case in 0..256 {
        // Random disjoint scopes over up to 128 operators; `share` skews
        // which side is the larger, from a lone inner operator to a lone
        // outer one, and some operators stay uncovered by both.
        let n = 2 + rng.gen_range(127);
        let share = rng.next_f64();
        let (mut outer, mut inner) = (Scope::default(), Scope::default());
        for op in 0..n as u32 {
            let draw = rng.next_f64();
            if draw < 0.8 * share {
                inner = inner.union(Scope::singleton(op));
            } else if draw < 0.8 {
                outer = outer.union(Scope::singleton(op));
            }
        }
        let row_of = |scope: Scope, rng: &mut SplitMix64| {
            let mut row = vec![NO_PLATFORM; n];
            for op in scope.ops() {
                row[op as usize] = rng.gen_range(8) as u8;
            }
            row
        };
        let outer_row = row_of(outer, &mut rng);
        let mut expected = vec![0u8; n];
        let mut scratch = outer_row.clone();
        // One outer row against several inner rows, as one left row of a
        // merge step meets every right row: the scratch row is never reset.
        for _ in 0..3 {
            let inner_row = row_of(inner, &mut rng);
            for op in inner.ops() {
                scratch[op as usize] = inner_row[op as usize];
            }
            merge_assignments(&mut expected, &outer_row, &inner_row);
            assert_eq!(
                scratch,
                expected,
                "case {case}: n={n}, |outer|={}, |inner|={}",
                outer.len(),
                inner.len()
            );
        }
    }
}

#[test]
fn incremental_merge_equals_whole_plan_vectorize() {
    let mut rng = SplitMix64::new(0xF16_0001);
    for case in 0..96 {
        let n = 3 + rng.gen_range(10);
        let k = 2 + rng.gen_range(3);
        let plan = workloads::random_connected_dag(&mut rng, n, 0.35);
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let assign: Vec<u8> = (0..n).map(|_| rng.gen_range(k) as u8).collect();

        // Ground truth: one-shot whole-plan encoding.
        let mut expected = Vec::new();
        vectorize_assignment(&plan, &layout, &assign, &mut expected);

        // Incremental: singleton vectors, then merge units in random order,
        // adding conversion features for edges crossing the merged scopes.
        struct Unit {
            scope: Scope,
            feats: Vec<f64>,
            assign: Vec<u8>,
        }
        let mut units: Vec<Unit> = (0..n as u32)
            .map(|op| {
                let mut feats = vec![0.0; layout.width];
                fill_singleton(&plan, &layout, op, assign[op as usize], &mut feats);
                let mut a = vec![NO_PLATFORM; n];
                a[op as usize] = assign[op as usize];
                Unit {
                    scope: Scope::singleton(op),
                    feats,
                    assign: a,
                }
            })
            .collect();
        while units.len() > 1 {
            let i = rng.gen_range(units.len());
            let mut j = rng.gen_range(units.len());
            if i == j {
                j = (j + 1) % units.len();
            }
            let (lo, hi) = (i.min(j), i.max(j));
            let b = units.swap_remove(hi);
            let a = units.swap_remove(lo);
            let mut feats = vec![0.0; layout.width];
            let mut merged_assign = vec![NO_PLATFORM; n];
            merge_feats(&mut feats, &a.feats, &b.feats);
            merge_assignments(&mut merged_assign, &a.assign, &b.assign);
            for &(u, v) in plan.edges() {
                let crosses = (a.scope.contains(u) && b.scope.contains(v))
                    || (b.scope.contains(u) && a.scope.contains(v));
                if crosses {
                    add_conversion_features(
                        &plan,
                        &layout,
                        u,
                        v,
                        merged_assign[u as usize],
                        merged_assign[v as usize],
                        &mut feats,
                    );
                }
            }
            units.push(Unit {
                scope: a.scope.union(b.scope),
                feats,
                assign: merged_assign,
            });
        }
        let got = &units[0];
        assert_eq!(got.assign, assign, "case {case}: assignment mismatch");
        for (cell, (&g, &e)) in got.feats.iter().zip(&expected).enumerate() {
            let tol = 1e-12 * e.abs().max(1.0);
            assert!(
                (g - e).abs() <= tol,
                "case {case} (n={n}, k={k}): cell {cell} differs: incremental {g} vs whole-plan {e}"
            );
        }
    }
}

/// A random feasible assignment: every operator on a platform that runs its
/// kind, every crossing edge convertible.
fn feasible_assignment(
    rng: &mut SplitMix64,
    plan: &LogicalPlan,
    registry: &PlatformRegistry,
) -> Vec<u8> {
    loop {
        let draw: Vec<u8> = plan
            .ops()
            .iter()
            .map(|op| {
                let choices: Vec<PlatformId> = registry.available_platforms(op.kind).collect();
                choices[rng.gen_range(choices.len())].raw()
            })
            .collect();
        if registry.feasible(plan, |i| PlatformId::from_index(draw[i] as usize)) {
            break draw;
        }
    }
}

fn registries() -> [PlatformRegistry; 4] {
    [
        PlatformRegistry::named(),
        PlatformRegistry::uniform(2),
        PlatformRegistry::uniform(5),
        PlatformRegistry::uniform(8),
    ]
}

#[test]
fn a_plan_vector_is_zero_outside_the_plans_live_runs() {
    let mut rng = SplitMix64::new(0xF16_0022);
    let registries = registries();
    let mut feats = Vec::new();
    for case in 0..128 {
        let registry = &registries[case % registries.len()];
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let n = 4 + rng.gen_range(37);
        let plan = workloads::random_connected_dag(&mut rng, n, 0.2);

        let (runs, len) = live_runs(&plan, &layout);
        let runs = &runs[..len];
        let mut end = 0;
        for (i, run) in runs.iter().enumerate() {
            // Adjacent runs are coalesced, so later ones start past a gap.
            assert!(
                run.start < run.end && (i == 0 || run.start > end),
                "case {case}: {runs:?}"
            );
            end = run.end;
        }
        assert!(end <= layout.width, "case {case}: {runs:?}");
        let live: usize = runs.iter().map(|run| run.len()).sum();
        let mut kinds: Vec<usize> = plan.ops().iter().map(|op| op.kind.index()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            live,
            4 + kinds.len() * (3 + registry.len()) + 3 * registry.len(),
            "case {case}: globals + a block and a platform row per kind present + the tail"
        );
        assert!(kinds.len() == N_OPERATOR_KINDS || live < layout.width);

        for _ in 0..4 {
            let assign = feasible_assignment(&mut rng, &plan, registry);
            vectorize_assignment(&plan, &layout, &assign, &mut feats);
            for (cell, &x) in feats.iter().enumerate() {
                assert!(
                    x == 0.0 || runs.iter().any(|run| run.contains(&cell)),
                    "case {case}: cell {cell} = {x} outside {runs:?}"
                );
            }
        }
    }
}

#[test]
fn a_row_in_the_plans_own_layout_unpacks_to_the_whole_plan_vector() {
    let mut rng = SplitMix64::new(0xF16_0023);
    let registries = registries();
    let (mut expected, mut unpacked) = (Vec::new(), Vec::new());
    for case in 0..128 {
        let registry = &registries[case % registries.len()];
        let full = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let n = 4 + rng.gen_range(37);
        let plan = workloads::random_connected_dag(&mut rng, n, 0.2);

        let layout = PlanLayout::of(&plan, &full);
        let local = *layout.local();
        let (runs, len) = live_runs(&plan, &full);
        assert_eq!(layout.runs(), &runs[..len], "case {case}");
        assert_eq!(
            local.width,
            layout.runs().iter().map(|run| run.len()).sum::<usize>(),
            "case {case}: a local row is the live runs back to back"
        );
        assert_eq!(
            (local.n_platforms, layout.full()),
            (full.n_platforms, &full)
        );
        let absent = local.n_kinds < N_OPERATOR_KINDS;
        assert_eq!(absent, local.width < full.width, "case {case}");

        // Two rows built the way the enumerator builds them — singletons in
        // the local layout, the merge kernel, conversions patched in the
        // local layout — folded in operator order, which is the order the
        // whole-plan encoder adds in, so the cells agree to the bit.
        let mut cells = Vec::new();
        let mut assigns = Vec::new();
        for _ in 0..2 {
            let assign = feasible_assignment(&mut rng, &plan, registry);
            let mut row = vec![0.0; local.width];
            for op in 0..n as u32 {
                let mut single = vec![0.0; local.width];
                layout.fill_singleton(&plan, op, assign[op as usize], &mut single);
                let outer = row.clone();
                merge_feats(&mut row, &outer, &single);
            }
            for &(u, v) in plan.edges() {
                let (pu, pv) = (assign[u as usize], assign[v as usize]);
                add_conversion_features(&plan, &local, u, v, pu, pv, &mut row);
            }
            cells.extend_from_slice(&row);
            assigns.push(assign);
        }
        let packed = layout.packed(&cells);
        assert_eq!((packed.rows(), packed.width()), (2, full.width));
        packed.unpack_into(&mut unpacked);
        for (r, assign) in assigns.iter().enumerate() {
            vectorize_assignment(&plan, &full, assign, &mut expected);
            for (cell, want) in expected.iter().enumerate() {
                let got = unpacked[r * full.width + cell];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} row {r} cell {cell}: unpacked {got} vs whole-plan {want}"
                );
                assert_eq!(packed.value(r, cell).to_bits(), want.to_bits());
            }
        }
    }
}

/// One operator of every kind: three sources, a chain through every other
/// kind in layout order with the binary ones reading a source as well, a
/// sink.
fn all_kinds_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let sources: Vec<u32> = OperatorKind::ALL[..3]
        .iter()
        .map(|&kind| plan.add_op(Operator::source(kind, 5e4)))
        .collect();
    let binary = [
        OperatorKind::Join,
        OperatorKind::CartesianProduct,
        OperatorKind::Union,
        OperatorKind::Intersect,
    ];
    let mut prev = sources[0];
    for &kind in &OperatorKind::ALL[3..] {
        let op = plan.add_op(Operator::new(kind).with_selectivity(0.8));
        plan.connect(prev, op);
        if let Some(i) = binary.iter().position(|&b| b == kind) {
            plan.connect(sources[1 + i % 2], op);
        }
        prev = op;
    }
    plan.seal();
    plan
}

#[test]
fn a_plan_of_all_24_kinds_enumerates_in_the_full_layout_with_the_same_answer() {
    let plan = all_kinds_plan();
    assert_eq!(plan.n_ops(), N_OPERATOR_KINDS);
    assert!(plan.is_connected());
    let registry = PlatformRegistry::uniform(3);
    let full = FeatureLayout::new(3, N_OPERATOR_KINDS);
    let layout = PlanLayout::of(&plan, &full);
    assert_eq!(layout.local(), &full);
    assert_eq!(layout.runs(), std::slice::from_ref(&(0..full.width)));

    let oracle = AnalyticOracle::for_registry(&registry, &full);
    let opts = EnumOptions::new(&registry).with_oracle(&oracle);
    // The object-graph baseline encodes every candidate in the full layout
    // from scratch: a reference that shares no row with the enumerator.
    let reference = ObjectEnumerator::new().enumerate(&plan, &full, opts);
    let (serial, _) = Enumerator::new().enumerate(&plan, &full, opts);
    let (split, _) = ParallelEnumerator::new(2)
        .with_split(SplitOptions::new(4))
        .enumerate(&plan, &full, opts);
    for got in [&serial, &split] {
        assert_eq!(got.assignments, reference.assignments);
        assert_eq!(got.cost.to_bits(), serial.cost.to_bits());
        assert!((got.cost - reference.cost).abs() <= 1e-9 * reference.cost.abs());
    }
}
