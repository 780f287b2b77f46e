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
//! Live columns: `live_runs` promises the cost oracle that a plan's vectors
//! are zero outside the runs it lists; the last test holds the encoder to it.

use robopt_core::vectorize::{
    add_conversion_features, fill_singleton, live_runs, vectorize_assignment,
};
use robopt_plan::{workloads, SplitMix64, N_OPERATOR_KINDS};
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

#[test]
fn a_plan_vector_is_zero_outside_the_plans_live_runs() {
    let mut rng = SplitMix64::new(0xF16_0022);
    let registries = [
        PlatformRegistry::named(),
        PlatformRegistry::uniform(2),
        PlatformRegistry::uniform(5),
        PlatformRegistry::uniform(8),
    ];
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
            // A random feasible assignment: every operator on a platform
            // that runs its kind, every crossing edge convertible.
            let assign: Vec<u8> = loop {
                let draw: Vec<u8> = plan
                    .ops()
                    .iter()
                    .map(|op| {
                        let choices: Vec<PlatformId> =
                            registry.available_platforms(op.kind).collect();
                        choices[rng.gen_range(choices.len())].raw()
                    })
                    .collect();
                if registry.feasible(&plan, |i| PlatformId::from_index(draw[i] as usize)) {
                    break draw;
                }
            };
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
