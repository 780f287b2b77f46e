//! Property (b), DESIGN §4 (Lemma 1): boundary pruning is lossless —
//! priority enumeration with Def-2 pruning returns the same optimal cost as
//! exhaustive enumeration under the analytic oracle, on random DAGs.
//!
//! Also cross-checks a 3-part split and the object-graph baseline: every
//! enumerator must land on the same optimum, or the Fig-1 comparison would
//! not be apples-to-apples. The registries range from `uniform(k)`, where
//! every kind runs everywhere and every conversion exists, to the named
//! testbed and seeded registries with availability masks and missing
//! one-way channels, where many candidates are infeasible. The strawman
//! runs the serial search, so it must also land on the serial winner, cost
//! bits included, and every producer must report exactly its own
//! assignment's quote (`ExecutionPlan::quote`), under every risk policy and
//! under a forest as well.

use robopt_baselines::{exhaustive_best, ObjectEnumerator};
use robopt_core::{
    AnalyticOracle, CostDistribution, CostOracle, EnumOptions, Enumerator, ExecutionPlan,
    RiskPolicy, SplitOptions,
};
use robopt_ml::{ForestConfig, ModelOracle, RandomForest, SimulatorSource, TrainingSource};
use robopt_plan::{workloads, LogicalPlan, OperatorKind, SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::{Platform, PlatformId, PlatformRegistry};
use robopt_vector::{FeatureLayout, SigHasher};

/// The serial enumerator, an enumerator for 3-part splits and the
/// object-graph baseline, reused across cases.
struct Enumerators {
    serial: Enumerator,
    split: Enumerator,
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
    // No search is refused at the `u64::MAX` budget; a refusal would read
    // NaN and fail the check below.
    let split = e
        .split
        .enumerate_within(plan, &layout, opts, SplitOptions::new(3), u64::MAX)
        .map_or(f64::NAN, |(exec, _)| exec.cost);
    let object = e.object.enumerate(plan, &layout, opts).0;

    let tol = 1e-9 * brute.cost.abs().max(1.0);
    for (name, cost) in [
        ("pruned", pruned.cost),
        ("split", split),
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
    let recost = oracle.cost_row(&feats);
    assert_eq!(
        recost.to_bits(),
        pruned.cost.to_bits(),
        "{case}: unvectorize cost drift"
    );
    // The strawman runs the same search and quotes its winner the same way.
    assert_eq!(
        object.assignments, pruned.assignments,
        "{case}: object plan"
    );
    assert_eq!(
        object.cost.to_bits(),
        pruned.cost.to_bits(),
        "{case}: object cost bits"
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
        split: Enumerator::new(),
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

/// Every producer of a final plan reports its own assignment's quote: the
/// serial and the split enumerator under every risk policy, the exhaustive
/// sweep on small plans and the strawman on the default options, under the
/// analytic oracle and a small fixed-seed forest, on the named testbed,
/// `uniform(2..=5)` and seeded masked registries. All four numbers must
/// equal [`ExecutionPlan::quote`]'s bit for bit.
#[test]
fn every_producer_reports_the_quote_of_its_own_assignment() {
    let forests: Vec<ModelOracle<RandomForest>> = (2..=5)
        .map(|k| {
            let registry = PlatformRegistry::uniform(k);
            let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
            let set = SimulatorSource::new(&registry, layout, 0x0F0E, 0.05).generate(200);
            let cfg = ForestConfig {
                n_trees: 8,
                ..ForestConfig::default()
            };
            ModelOracle::new(RandomForest::fit(&cfg, set.rows_view(), &set.labels))
        })
        .collect();
    let mut rng = SplitMix64::new(0x9007_E5A1);
    let mut cases = Vec::new();
    for case in 0..8 {
        let n = 3 + rng.gen_range(4); // 3..=6 operators
        let plan = workloads::random_connected_dag(&mut rng, n, 0.4);
        cases.push((
            format!("named case {case}"),
            PlatformRegistry::named(),
            plan,
        ));
        let k = 2 + rng.gen_range(4); // 2..=5 platforms
        let plan = workloads::random_connected_dag(&mut rng, n, 0.4);
        cases.push((
            format!("uniform({k}) case {case}"),
            PlatformRegistry::uniform(k),
            plan,
        ));
        let k = 2 + rng.gen_range(3); // 2..=4 platforms
        let registry = masked_registry(&mut rng, k);
        let plan = workloads::random_connected_dag(&mut rng, n, 0.4);
        cases.push((format!("masked({k}) case {case}"), registry, plan));
    }

    let (mut serial, mut split, mut object) = (
        Enumerator::new(),
        Enumerator::new(),
        ObjectEnumerator::new(),
    );
    let (mut feats, mut dist) = (Vec::new(), CostDistribution::new());
    let mut spread_seen = false;
    for (case, registry, plan) in &cases {
        let k = registry.len();
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let analytic = AnalyticOracle::for_registry(registry, &layout);
        let oracles: [(&str, &dyn CostOracle); 2] =
            [("analytic", &analytic), ("forest", &forests[k - 2])];
        for (oracle_name, oracle) in oracles {
            for risk in [
                RiskPolicy::ExpectedCost,
                RiskPolicy::MeanPlusKSigma(2.0),
                RiskPolicy::Quantile(0.9),
            ] {
                let opts = EnumOptions::new(registry)
                    .with_oracle(oracle)
                    .with_risk(risk);
                let mut producers = vec![
                    ("serial", serial.enumerate(plan, &layout, opts).0),
                    (
                        "split",
                        split
                            .enumerate_within(plan, &layout, opts, SplitOptions::new(3), u64::MAX)
                            .map(|(exec, _)| exec)
                            .expect("no search is refused at the u64::MAX budget"),
                    ),
                ];
                if k.pow(plan.n_ops() as u32) <= 4096 {
                    producers.push(("exhaustive", exhaustive_best(plan, &layout, opts)));
                }
                if risk.is_expected() {
                    producers.push(("object", object.enumerate(plan, &layout, opts).0));
                }
                for (name, got) in producers {
                    let raw = got.raw_assignments();
                    let want =
                        ExecutionPlan::quote(plan, &layout, oracle, &raw, &mut feats, &mut dist);
                    spread_seen |= got.cost_std > 0.0;
                    assert_eq!(
                        quote_bits(&got),
                        quote_bits(&want),
                        "{case}, {oracle_name}, {}: {name} is not its assignment's quote",
                        risk.label()
                    );
                }
            }
        }
    }
    assert!(spread_seen, "no quote carried a spread");
}

/// The bits of a plan's cost, spread and quantiles.
fn quote_bits(p: &ExecutionPlan) -> [u64; 4] {
    [p.cost, p.cost_std, p.cost_q10, p.cost_q90].map(f64::to_bits)
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
