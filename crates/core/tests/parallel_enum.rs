//! Split enumeration contract (DESIGN §9): a split search answers the same
//! on a fresh and on a reused enumerator, agrees with serial enumeration on
//! the chosen assignment and canonical cost bits, and both match the
//! exhaustive optimum on plans small enough to brute-force.

use robopt_baselines::exhaustive_best;
use robopt_core::{AnalyticOracle, EnumOptions, Enumerator, SplitOptions};
use robopt_plan::{workloads, SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::PlatformRegistry;
use robopt_vector::FeatureLayout;

#[test]
fn split_is_repeatable_and_agrees_with_serial_on_random_dags() {
    let mut rng = SplitMix64::new(0x9A11_E7E1);
    let mut serial = Enumerator::new();
    let mut reused = Enumerator::new();
    for case in 0..24 {
        let n = 6 + rng.gen_range(22); // 6..=27 operators
        let k = 2 + rng.gen_range(3); // 2..=4 platforms
        let parts = 2 + rng.gen_range(5); // K in 2..=6
        let plan = workloads::random_connected_dag(&mut rng, n, 0.3);
        let registry = PlatformRegistry::uniform(k);
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let tag = format!("case {case} (n={n}, k={k}, K={parts})");

        // A fresh enumerator and one reused across cases (its pool warmed
        // by other plans) answer alike, stats included.
        let split = SplitOptions::new(parts);
        let (base, base_stats) = Enumerator::new()
            .enumerate_within(&plan, &layout, opts, split, u64::MAX)
            .unwrap();
        let (again, stats) = reused
            .enumerate_within(&plan, &layout, opts, split, u64::MAX)
            .unwrap();
        assert_eq!(again.assignments, base.assignments, "{tag}: reused");
        assert_eq!(
            again.cost.to_bits(),
            base.cost.to_bits(),
            "{tag}: reused cost bits"
        );
        assert_eq!(stats, base_stats, "{tag}: reused stats");

        // Serial agreement: same winner, same canonical cost bits. The
        // merge trees differ, so EnumStats legitimately may not.
        let (ser, _) = serial.enumerate(&plan, &layout, opts);
        assert_eq!(base.assignments, ser.assignments, "{tag}: vs serial");
        assert_eq!(
            base.cost.to_bits(),
            ser.cost.to_bits(),
            "{tag}: cost bits vs serial"
        );
    }
}

#[test]
fn parallel_matches_exhaustive_optimum_on_small_plans() {
    let mut rng = SplitMix64::new(0xBAA5_E11E);
    let mut en = Enumerator::new();
    for case in 0..24 {
        let n = 4 + rng.gen_range(4); // 4..=7 operators
        let k = 2 + rng.gen_range(2); // 2..=3 platforms -> k^n <= 2187
        let plan = workloads::random_connected_dag(&mut rng, n, 0.4);
        let registry = PlatformRegistry::uniform(k);
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);

        let brute = exhaustive_best(&plan, &layout, opts);
        let (best, stats) = en
            .enumerate_within(&plan, &layout, opts, SplitOptions::new(3), u64::MAX)
            .unwrap();
        let tol = 1e-9 * brute.cost.abs().max(1.0);
        assert!(
            (best.cost - brute.cost).abs() <= tol,
            "case {case} (n={n}, k={k}): parallel {} != exhaustive {}",
            best.cost,
            brute.cost
        );
        assert_eq!(stats.merges as usize, n - 1, "case {case}: merge count");
    }
}

/// A 4-part split search over a 24-op pipeline (which `SplitOptions::new(4)`
/// really cuts), fed a registry / layout / oracle triple that may disagree.
fn split_enumerate(registry_k: usize, layout_k: usize, oracle_k: usize) {
    let plan = workloads::synthetic_pipeline(24, 1e5);
    let registry = PlatformRegistry::uniform(registry_k);
    let layout = FeatureLayout::new(layout_k, N_OPERATOR_KINDS);
    let oracle = AnalyticOracle::for_registry(
        &PlatformRegistry::uniform(oracle_k),
        &FeatureLayout::new(oracle_k, N_OPERATOR_KINDS),
    );
    let opts = EnumOptions::new(&registry).with_oracle(&oracle);
    let _ =
        Enumerator::new().enumerate_within(&plan, &layout, opts, SplitOptions::new(4), u64::MAX);
}

#[test]
#[should_panic(expected = "feature layout sized for 3 platforms but the registry holds 2")]
fn split_path_rejects_a_layout_sized_for_another_registry() {
    split_enumerate(2, 3, 3);
}

#[test]
#[should_panic(expected = "cost oracle expects rows of width")]
fn split_path_rejects_an_oracle_of_the_wrong_width() {
    split_enumerate(3, 3, 2);
}
