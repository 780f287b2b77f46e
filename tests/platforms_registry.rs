//! Platforms-subsystem integration tests (DESIGN §2):
//!
//! * COT invariants on the named registry — symmetric channels give
//!   symmetric path costs, and the precomputed all-pairs paths satisfy the
//!   triangle inequality at the reference cardinality;
//! * runtime-simulator determinism under a fixed seed;
//! * the dense-id parity guarantee — `PlatformRegistry::uniform(k)` carries
//!   the PR-1 per-platform factor table as registry data, so the derived
//!   oracle weights reproduce the old hard-coded table closed-form and
//!   enumeration over `uniform(k)` is the old dense-id behaviour for
//!   `k <= 5`;
//! * `cost_batch` == row-wise `cost_row` on random feature matrices.

use robopt::{BackendChoice, ExecuteRequest, OptimizeRequest, Optimizer, WorkloadSpec};
use robopt_baselines::exhaustive_best;
use robopt_core::{AnalyticOracle, CostOracle};
use robopt_plan::{SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::{PlatformRegistry, REF_TUPLES};
use robopt_vector::{FeatureLayout, RowsView};

#[test]
fn named_cot_paths_are_symmetric_and_triangle_consistent() {
    let reg = PlatformRegistry::named();
    let cot = reg.conversions();
    for a in reg.ids() {
        for b in reg.ids() {
            if a == b {
                continue;
            }
            // Symmetry: every declared channel is symmetric, so the cheapest
            // path in both directions costs the same at any cardinality.
            let ab = cot.path(a, b).expect("named registry is fully convertible");
            let ba = cot.path(b, a).unwrap();
            assert!(
                (ab.cost(REF_TUPLES) - ba.cost(REF_TUPLES)).abs() <= 1e-9,
                "path cost {a}->{b} != {b}->{a}"
            );
            // Triangle inequality at the reference cardinality the paths
            // were ranked at: no two-leg detour beats the stored path.
            for c in reg.ids() {
                if c == a || c == b {
                    continue;
                }
                let (Some(ac), Some(cb)) = (cot.path(a, c), cot.path(c, b)) else {
                    continue;
                };
                assert!(
                    ab.cost(REF_TUPLES) <= ac.cost(REF_TUPLES) + cb.cost(REF_TUPLES) + 1e-9,
                    "stored path {a}->{b} beaten by detour via {c}"
                );
            }
        }
    }
    // Postgres<->Giraph has no direct channel, so its cheapest path routes
    // through a third platform.
    let pg = reg.by_name("postgres").unwrap();
    let gi = reg.by_name("giraph").unwrap();
    assert!(reg.conversion(pg, gi).unwrap().hops >= 2);
}

#[test]
fn simulator_is_deterministic_under_a_fixed_seed() {
    let mut opt = Optimizer::named();
    let spec = WorkloadSpec::TpchQ3 { scale: 1e6 };
    let winner = opt
        .optimize(&OptimizeRequest::new(spec))
        .expect("optimize tpch_q3")
        .assignments;

    let sim_req = |seed: u64, noise: f64| {
        ExecuteRequest::new(spec)
            .with_assignments(winner.clone())
            .with_backend(BackendChoice::Simulator { seed, noise })
    };
    for noise in [0.0, 0.2] {
        let a = opt.execute(&sim_req(7, noise)).expect("simulate");
        let b = opt.execute(&sim_req(7, noise)).expect("simulate");
        assert!(a.feasible && a.seconds > 0.0);
        assert_eq!(
            a.seconds, b.seconds,
            "same seed, same noise: simulated runtimes differ"
        );
    }
    // Different seeds only matter once noise is enabled.
    let s1 = opt.execute(&sim_req(1, 0.2)).expect("simulate");
    let s2 = opt.execute(&sim_req(2, 0.2)).expect("simulate");
    assert_ne!(s1.seconds, s2.seconds);
}

/// The PR-1 analytic oracle's hard-coded tables, closed-form. `uniform(k)`
/// must reproduce them exactly through the registry-derived weight path.
#[test]
fn uniform_registry_reproduces_dense_id_oracle_weights() {
    const FACTORS: [f64; 8] = [1.0, 0.55, 1.7, 0.8, 1.25, 0.65, 1.45, 0.9];
    let kind_base = |kind: usize| 0.5 + (kind % 7) as f64 * 0.3;
    for k in 2..=5usize {
        let reg = PlatformRegistry::uniform(k);
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&reg, &layout);
        let w = oracle.weights();
        for p in 0..k {
            for kind in 0..N_OPERATOR_KINDS {
                let expected = kind_base(kind) * FACTORS[p];
                let got = w[layout.kind_platform_count(kind, p)];
                assert!(
                    (got - expected).abs() <= 1e-12 * expected,
                    "kind_platform weight (kind {kind}, p {p}): {got} != {expected}"
                );
            }
            assert!((w[layout.conversion_count(p)] - 5.0).abs() <= 1e-12);
            assert!((w[layout.conversion_tuples(p)] - 8e-6 * FACTORS[p]).abs() <= 1e-18);
            assert!((w[layout.platform_input_tuples(p)] - 2e-6 * FACTORS[p]).abs() <= 1e-18);
        }
    }
}

#[test]
fn uniform_registry_enumeration_matches_dense_id_optimum() {
    // Under uniform availability every dense assignment is feasible, so the
    // registry-aware enumeration must land on the same optimum the dense-id
    // exhaustive sweep finds — for every k the old code path supported. The
    // fast side runs through the service facade; the exhaustive baseline
    // takes the facade's raw options via the escape hatch.
    for k in 2..=5usize {
        let spec = WorkloadSpec::WordCount { scale: 1e5 };
        let mut opt = Optimizer::new(PlatformRegistry::uniform(k));
        let plan = spec.build().expect("workload spec builds");
        let brute = exhaustive_best(&plan, opt.layout(), opt.enum_options());
        let fast = opt
            .optimize(&OptimizeRequest::new(spec))
            .expect("facade optimize");
        let tol = 1e-9 * brute.cost.abs().max(1.0);
        assert!(
            (fast.cost - brute.cost).abs() <= tol,
            "k={k}: registry enumeration {} != dense exhaustive {}",
            fast.cost,
            brute.cost
        );
        // Uniform availability: every singleton exists, nothing was masked.
        assert!(fast.stats.generated >= (plan.n_ops() * k) as u64);
    }
}

#[test]
fn cost_batch_matches_row_wise_costing_on_random_matrices() {
    let mut rng = SplitMix64::new(0xBA7C4);
    for k in [2usize, 5, 8] {
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let reg = PlatformRegistry::uniform(k);
        let oracle = AnalyticOracle::for_registry(&reg, &layout);
        let rows = 1 + rng.gen_range(64);
        let buf: Vec<f64> = (0..rows * layout.width)
            .map(|_| rng.next_f64() * 1e6)
            .collect();
        let view = RowsView::new(&buf, layout.width);
        let mut batch = Vec::new();
        oracle.cost_batch(view, &mut batch);
        assert_eq!(batch.len(), rows);
        for (r, &batched) in batch.iter().enumerate() {
            let row_cost = oracle.cost_row(view.row(r));
            let tol = 1e-12 * row_cost.abs().max(1.0);
            assert!(
                (batched - row_cost).abs() <= tol,
                "k={k}, row {r}: batch {batched} != row-wise {row_cost}"
            );
        }
    }
}
