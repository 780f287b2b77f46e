//! Learned-cost-model integration (DESIGN §3, paper Fig 9):
//!
//! * batched forest inference is bit-identical to per-row prediction on
//!   simulator-drawn plan vectors;
//! * training is deterministic under a fixed seed — two fits produce
//!   identical predictions despite thread-parallel tree construction;
//! * the forest beats the ridge linear baseline on held-out
//!   simulator-labelled plans (MSE ratio < 1);
//! * a trained forest installed behind the service facade drives the
//!   vectorized enumerator end-to-end, and its chosen WordCount(1e7) plan
//!   simulates no slower than the analytic oracle's choice.

use robopt::{BackendChoice, ExecuteRequest, OptimizeRequest, Optimizer, WorkloadSpec};
use robopt_ml::{
    mse, simulator_training_set, ForestConfig, LinearModel, Model, RandomForest, SamplerConfig,
};
use robopt_plan::N_OPERATOR_KINDS;
use robopt_platforms::PlatformRegistry;
use robopt_vector::FeatureLayout;

fn setup() -> (PlatformRegistry, FeatureLayout) {
    let registry = PlatformRegistry::named();
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    (registry, layout)
}

#[test]
fn forest_batch_prediction_matches_per_row_on_plan_vectors() {
    let (registry, layout) = setup();
    let cfg = SamplerConfig::new().with_seed(11).with_noise(0.05);
    let train = simulator_training_set(&registry, &layout, &cfg, 300);
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 12,
            ..ForestConfig::default()
        },
        train.rows_view(),
        &train.labels,
    );
    let probe = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(12).with_noise(0.0),
        80,
    );
    let rows = probe.rows_view();
    let mut batch = Vec::new();
    forest.predict_batch(rows, &mut batch);
    assert_eq!(batch.len(), rows.rows());
    for (r, &batched) in batch.iter().enumerate() {
        assert_eq!(
            batched,
            forest.predict_row(rows.row(r)),
            "batched row {r} diverges from per-row prediction"
        );
    }
}

#[test]
fn forest_training_is_deterministic_under_a_fixed_seed() {
    let (registry, layout) = setup();
    let train = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(21).with_noise(0.05),
        250,
    );
    let cfg = ForestConfig {
        n_trees: 10,
        seed: 777,
        ..ForestConfig::default()
    };
    let a = RandomForest::fit(&cfg, train.rows_view(), &train.labels);
    let b = RandomForest::fit(&cfg, train.rows_view(), &train.labels);
    let probe = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(22).with_noise(0.0),
        60,
    );
    let (mut pa, mut pb) = (Vec::new(), Vec::new());
    a.predict_batch(probe.rows_view(), &mut pa);
    b.predict_batch(probe.rows_view(), &mut pb);
    assert_eq!(pa, pb, "equal seeds must reproduce bit-identical forests");
}

#[test]
fn forest_beats_linear_baseline_on_held_out_plans() {
    let (registry, layout) = setup();
    let train = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(31).with_noise(0.05),
        600,
    );
    let heldout = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(32).with_noise(0.0),
        200,
    );
    let mut linear = LinearModel::new();
    linear.fit_set(&train);
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        },
        train.rows_view(),
        &train.labels,
    );
    let (mut lp, mut fp) = (Vec::new(), Vec::new());
    linear.predict_batch(heldout.rows_view(), &mut lp);
    forest.predict_batch(heldout.rows_view(), &mut fp);
    let (linear_mse, forest_mse) = (mse(&lp, &heldout.labels), mse(&fp, &heldout.labels));
    assert!(
        forest_mse < linear_mse,
        "forest held-out MSE {forest_mse} not below linear baseline {linear_mse}"
    );
}

#[test]
fn trained_forest_behind_dyn_oracle_drives_enumeration_end_to_end() {
    let (registry, layout) = setup();
    let train = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(41).with_noise(0.05),
        600,
    );
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        },
        train.rows_view(),
        &train.labels,
    );

    // The facade accepts the forest only if its width matches the layout —
    // Ok(()) here is the old `dyn_oracle.width() == layout.width` assert.
    let mut forest_opt = Optimizer::named();
    forest_opt
        .install_forest(forest)
        .expect("trained forest width matches the named-registry layout");
    let mut analytic_opt = Optimizer::named();

    let spec = WorkloadSpec::WordCount { scale: 1e7 };
    let forest_resp = forest_opt
        .optimize(&OptimizeRequest::new(spec))
        .expect("forest-driven optimize");
    assert!(forest_resp.stats.generated > 0);
    let analytic_resp = analytic_opt
        .optimize(&OptimizeRequest::new(spec))
        .expect("analytic optimize");

    // Ground truth: the simulator the training labels came from (noise
    // off — both plans judged on the clean surface).
    let sim_req = |assignments: &[String]| {
        ExecuteRequest::new(spec)
            .with_assignments(assignments.to_vec())
            .with_backend(BackendChoice::Simulator {
                seed: 42,
                noise: 0.0,
            })
    };
    let forest_s = forest_opt
        .execute(&sim_req(&forest_resp.assignments))
        .expect("simulate forest pick");
    let analytic_s = analytic_opt
        .execute(&sim_req(&analytic_resp.assignments))
        .expect("simulate analytic pick");
    assert!(forest_s.feasible, "forest picked an unexecutable plan");
    assert!(
        forest_s.seconds <= analytic_s.seconds * (1.0 + 1e-9),
        "forest-picked plan ({:.2}s) slower than analytic pick ({:.2}s)",
        forest_s.seconds,
        analytic_s.seconds
    );
}
