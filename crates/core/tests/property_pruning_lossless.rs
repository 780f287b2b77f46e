//! Property (b), DESIGN §4 (Lemma 1): boundary pruning is lossless —
//! priority enumeration with Def-2 pruning returns the same optimal cost as
//! exhaustive enumeration under the analytic oracle, on random DAGs.
//!
//! Also cross-checks the split driver and the object-graph baseline: every
//! enumerator must land on the same optimum, or the Fig-1 comparison would
//! not be apples-to-apples. The registries range from `uniform(k)`, where
//! every kind runs everywhere and every conversion exists, to the named
//! testbed and seeded registries with availability masks and missing
//! one-way channels, where many candidates are infeasible.

use robopt_baselines::{exhaustive_best, ObjectEnumerator};
use robopt_core::{AnalyticOracle, EnumOptions, Enumerator, ParallelEnumerator, SplitOptions};
use robopt_plan::{workloads, LogicalPlan, OperatorKind, SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::{Platform, PlatformId, PlatformRegistry};
use robopt_vector::{FeatureLayout, SigHasher};

/// The serial enumerator, a 3-part split driver and the object-graph
/// baseline, reused across cases.
struct Enumerators {
    serial: Enumerator,
    split: ParallelEnumerator,
    object: ObjectEnumerator,
}

/// Assert that every enumerator reaches `exhaustive_best`'s cost on `plan`
/// under `registry`, and that the serial winner costs what it claims.
fn assert_lossless(
    case: &str,
    plan: &LogicalPlan,
    registry: &PlatformRegistry,
    e: &mut Enumerators,
) {
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    let oracle = AnalyticOracle::for_registry(registry, &layout);
    let opts = EnumOptions::new(registry).with_oracle(&oracle);

    let brute = exhaustive_best(plan, &layout, opts);
    let (pruned, stats) = e.serial.enumerate(plan, &layout, opts);
    let (split, _) = e.split.enumerate(plan, &layout, opts);
    let object = e.object.enumerate(plan, &layout, opts).0;

    let tol = 1e-9 * brute.cost.abs().max(1.0);
    for (name, cost) in [
        ("pruned", pruned.cost),
        ("split", split.cost),
        ("object", object.cost),
    ] {
        assert!(
            (cost - brute.cost).abs() <= tol,
            "{case}: {name} {cost} != exhaustive {}",
            brute.cost
        );
    }
    assert_eq!(
        stats.merges as usize,
        plan.n_ops() - 1,
        "{case}: merge count"
    );
    // The pruned assignment is feasible and costs exactly what the
    // enumerator claims.
    assert!(
        registry.feasible(plan, |op| pruned.assignments[op]),
        "{case}: infeasible winner"
    );
    let mut feats = Vec::new();
    robopt_core::vectorize::vectorize_assignment(
        plan,
        &layout,
        &pruned.raw_assignments(),
        &mut feats,
    );
    let recost = robopt_core::CostOracle::cost_row(&oracle, &feats);
    assert!(
        (recost - pruned.cost).abs() <= tol,
        "{case}: unvectorize cost drift"
    );
}

/// `k` platforms with seeded costs: platform 0 runs every kind (so the plan
/// always has a feasible assignment), every other platform loses about 30 %
/// of the kinds, and about half of the one-way channels are missing.
fn masked_registry(rng: &mut SplitMix64, k: usize) -> PlatformRegistry {
    let mut b = PlatformRegistry::builder();
    let ids: Vec<PlatformId> = (0..k)
        .map(|i| {
            let factor = 0.5 + rng.next_f64();
            b.add(
                Platform::new(&format!("p{i}"))
                    .with_fixed_cost(factor)
                    .with_tuple_rate(2e-6 * (0.5 + rng.next_f64())),
            )
        })
        .collect();
    for &platform in &ids[1..] {
        for kind in OperatorKind::ALL {
            if rng.next_f64() < 0.3 {
                b.forbid(platform, kind);
            }
        }
    }
    for &from in &ids {
        for &to in &ids {
            if from != to && rng.next_f64() < 0.5 {
                b.connect_directed(from, to, 5.0, 8e-6 * (0.5 + rng.next_f64()));
            }
        }
    }
    b.build()
}

#[test]
fn pruned_priority_enumeration_matches_exhaustive_optimum() {
    let mut e = Enumerators {
        serial: Enumerator::new(),
        split: ParallelEnumerator::default().with_split(SplitOptions::new(3)),
        object: ObjectEnumerator::new(),
    };

    // Uniform registries: every kind everywhere, every conversion direct.
    let mut rng = SplitMix64::new(0x10551E55);
    for case in 0..48 {
        let n = 3 + rng.gen_range(5); // 3..=7 operators
        let k = 2 + rng.gen_range(2); // 2..=3 platforms -> k^n <= 2187
        let plan = workloads::random_connected_dag(&mut rng, n, 0.4);
        let registry = PlatformRegistry::uniform(k);
        assert_lossless(
            &format!("uniform case {case} (n={n}, k={k})"),
            &plan,
            &registry,
            &mut e,
        );
    }

    // The named testbed: Postgres and Giraph run a subset of the kinds,
    // Postgres <-> Giraph converts only through a third platform.
    let named = PlatformRegistry::named();
    let mut rng = SplitMix64::new(0x0A3E_D5E7);
    for case in 0..24 {
        let n = 3 + rng.gen_range(5); // 3..=7 operators -> 5^n <= 78 125
        let plan = workloads::random_connected_dag(&mut rng, n, 0.4);
        assert_lossless(&format!("named case {case} (n={n})"), &plan, &named, &mut e);
    }

    // Seeded masks: forbidden kinds and missing one-way channels.
    for (case, registry, plan) in masked_cases() {
        assert_lossless(&case, &plan, &registry, &mut e);
    }
}

/// The 240 seeded (registry, plan) cases, drawn from one stream.
fn masked_cases() -> Vec<(String, PlatformRegistry, LogicalPlan)> {
    let mut rng = SplitMix64::new(0x3A5C_ED00);
    (0..240)
        .map(|case| {
            let n = 3 + rng.gen_range(7); // 3..=9 operators
            let k = 2 + rng.gen_range(3); // 2..=4 platforms -> k^n <= 262 144
            let registry = masked_registry(&mut rng, k);
            let plan = workloads::random_connected_dag(&mut rng, n, 0.4);
            (format!("masked case {case} (n={n}, k={k})"), registry, plan)
        })
        .collect()
}

/// Every `is_available(kind, p)` cell of the named testbed, `uniform(1..=8)`
/// and the seeded registries above, pinned: how the builder writes its
/// availability masks may not change which operators run where.
#[test]
fn availability_cells_are_pinned() {
    let mut registries = vec![PlatformRegistry::named()];
    registries.extend((1..=8).map(PlatformRegistry::uniform));
    registries.extend(masked_cases().into_iter().map(|(_, registry, _)| registry));
    let mut digest = SigHasher::new();
    for registry in &registries {
        digest.write_u64(registry.len() as u64);
        for kind in OperatorKind::ALL {
            for p in registry.ids() {
                digest.write_u64(u64::from(registry.is_available(kind, p)));
            }
        }
    }
    assert_eq!(digest.finish(), 0xddc4_1490_da4b_788d);
}
