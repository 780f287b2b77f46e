//! Model accuracy: the bagged random forest vs the closed-form linear
//! baseline, over growing training-set sizes, plus the end-to-end check
//! that the forest actually steers enumeration well. A repo-original
//! experiment — not the paper's Fig 9.
//!
//! Training and held-out sets come from the direct-labelling
//! `robopt_ml::SimulatorSource` (one simulator call per row; see
//! `fig08_tdgen` for the interpolating TDGEN source): plans from the
//! workload pool, feasible platform assignments, labels in
//! `ln(1 + seconds)`. The forest must beat the linear model's held-out
//! MSE at **every** training size, and the plan it picks for
//! WordCount(1e7) behind `&dyn CostOracle` must simulate no slower than
//! the analytic oracle's pick. Writes
//! `EXPERIMENTS_OUTPUT/model_accuracy.txt` and
//! `BENCH_model_accuracy.json` at the repository root.

use robopt::{BackendChoice, ExecuteRequest, OptimizeRequest, Optimizer, WorkloadSpec};
use robopt_bench::{rounded, Report};
use robopt_ml::{
    simulator_training_set, CostDistribution, DistModel, ForestConfig, LinearModel, Metrics, Model,
    RandomForest, SamplerConfig, TrainingSet,
};
use robopt_plan::N_OPERATOR_KINDS;
use robopt_platforms::PlatformRegistry;
use robopt_vector::FeatureLayout;

const TRAIN_SEED: u64 = 0x000F_169A;
const HELDOUT_SEED: u64 = 0x000F_169B;
const SIM_SEED: u64 = 42;

struct SweepRow {
    train_size: usize,
    linear: Metrics,
    forest: Metrics,
    /// Mean q-error on raw seconds (not log space), forest.
    forest_q_seconds: f64,
}

fn eval_model(model: &dyn Model, heldout: &TrainingSet) -> (Metrics, f64) {
    let mut preds = Vec::new();
    model.predict_batch(heldout.rows_view(), &mut preds);
    let metrics = Metrics::evaluate(&preds, &heldout.labels);
    let q_sum: f64 = preds
        .iter()
        .zip(&heldout.seconds)
        .map(|(&p, &s)| robopt_ml::q_error(TrainingSet::label_to_seconds(p), s))
        .sum();
    (metrics, q_sum / preds.len() as f64)
}

fn main() {
    let (sizes, n_trees, heldout_n): (&[usize], usize, usize) = (&[250, 500, 1000, 2000], 32, 500);

    let registry = PlatformRegistry::named();
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);

    // One max-size training draw; each sweep point trains on a strict
    // prefix, so larger sizes extend rather than replace the data.
    let max_size = *sizes.last().unwrap();
    let train = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(TRAIN_SEED).with_noise(0.05),
        max_size,
    );
    // Held-out: independent seed, noiseless labels = clean ground truth.
    let heldout = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(HELDOUT_SEED).with_noise(0.0),
        heldout_n,
    );

    let forest_cfg = ForestConfig {
        n_trees,
        ..ForestConfig::default()
    };
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut final_forest: Option<RandomForest> = None;
    for &n in sizes {
        let subset = train.truncated(n);
        let mut linear = LinearModel::new();
        linear.fit_set(&subset);
        let forest = RandomForest::fit_on(&forest_cfg, &subset);
        let (linear_m, _) = eval_model(&linear, &heldout);
        let (forest_m, forest_q) = eval_model(&forest, &heldout);
        rows.push(SweepRow {
            train_size: n,
            linear: linear_m,
            forest: forest_m,
            forest_q_seconds: forest_q,
        });
        final_forest = Some(forest);
    }
    let forest = final_forest.expect("at least one sweep point");

    // Distributional seam (ISSUE 9, DESIGN §12): the forest's
    // `predict_dist_batch` mean column must be bit-identical to
    // `predict_batch` on the same rows — uncertainty reporting is one
    // forest pass, never a second (possibly divergent) estimator.
    let mut point_preds = Vec::new();
    forest.predict_batch(heldout.rows_view(), &mut point_preds);
    let mut dist = CostDistribution::default();
    forest.predict_dist_batch(heldout.rows_view(), &mut dist);
    let dist_mean_parity = point_preds.len() == dist.mean.len()
        && point_preds
            .iter()
            .zip(&dist.mean)
            .all(|(p, m)| p.to_bits() == m.to_bits());
    let dist_bands_ordered = (0..dist.mean.len())
        .all(|r| dist.std[r] >= 0.0 && dist.q10[r] <= dist.q50[r] && dist.q50[r] <= dist.q90[r]);
    let mean_heldout_std = dist.std.iter().sum::<f64>() / dist.std.len().max(1) as f64;

    // End-to-end: the forest (behind `&dyn CostOracle`) vs the analytic
    // oracle, both driving enumeration through the service facade on
    // WordCount(1e7); the simulator is the ground-truth judge.
    let wc = WorkloadSpec::WordCount { scale: 1e7 };
    let sim_req = |assignments: Vec<String>| {
        ExecuteRequest::new(wc)
            .with_assignments(assignments)
            .with_backend(BackendChoice::Simulator {
                seed: SIM_SEED,
                noise: 0.0,
            })
    };
    let mut forest_opt = Optimizer::named();
    forest_opt
        .install_forest(forest)
        .expect("forest width matches the named-registry layout");
    let forest_resp = forest_opt
        .optimize(&OptimizeRequest::new(wc))
        .expect("optimize under the forest");
    let forest_sim_s = forest_opt
        .execute(&sim_req(forest_resp.assignments.clone()))
        .expect("simulate the forest-picked plan")
        .seconds;
    let mut analytic_opt = Optimizer::named();
    let analytic_resp = analytic_opt
        .optimize(&OptimizeRequest::new(wc))
        .expect("optimize under the analytic oracle");
    let analytic_sim_s = analytic_opt
        .execute(&sim_req(analytic_resp.assignments.clone()))
        .expect("simulate the analytic-picked plan")
        .seconds;

    let mut report = Report::new(format_args!(
        "Model accuracy: forest vs linear on held-out simulator-labelled plans \
         ({} rows, {} platforms)",
        heldout.len(),
        registry.len()
    ));
    report.line(format_args!(
        "labels: ln(1+seconds); q-error on raw seconds; forest: {n_trees} trees"
    ));
    report.line(format_args!(
        "{:>10} {:>12} {:>12} {:>8} {:>12} {:>10} {:>12}",
        "train", "linear MSE", "forest MSE", "ratio", "forest MAE", "q(log)", "q(seconds)"
    ));
    for r in &rows {
        report.line(format_args!(
            "{:>10} {:>12.4} {:>12.4} {:>8.3} {:>12.4} {:>10.3} {:>12.3}",
            r.train_size,
            r.linear.mse,
            r.forest.mse,
            r.forest.mse / r.linear.mse,
            r.forest.mae,
            r.forest.q_mean,
            r.forest_q_seconds
        ));
    }
    report.line("");
    report.line(format_args!(
        "end-to-end WordCount(1e7): forest-picked plan {forest_sim_s:.2}s \
         vs analytic-picked {analytic_sim_s:.2}s (simulated ground truth)"
    ));
    report.check(
        "forest MSE < linear MSE at every training size",
        rows.iter().all(|r| r.forest.mse < r.linear.mse),
    );
    report.check(
        "forest-driven enumeration <= analytic-driven (simulated)",
        forest_sim_s <= analytic_sim_s * (1.0 + 1e-9),
    );
    let dist_ok = dist_mean_parity && dist_bands_ordered;
    report.check(
        format_args!(
            "predict_dist_batch mean bit-identical to predict_batch \
             ({} held-out rows, mean per-row std {mean_heldout_std:.4} log-units)",
            dist.mean.len()
        ),
        dist_ok,
    );
    report.line(
        "paper shape: learned model accuracy improves with training size; \
         linear baseline plateaus on the non-linear runtime surface",
    );

    report.finish(
        "EXPERIMENTS_OUTPUT/model_accuracy.txt",
        "BENCH_model_accuracy.json",
        |w| {
            w.key("n_trees").u64(n_trees as u64);
            w.key("heldout_rows").u64(heldout.len() as u64);
            w.key("dist_mean_parity").bool(dist_ok);
            w.key("heldout_mean_std_log")
                .f64(rounded(mean_heldout_std, 6));
            w.key("end_to_end").obj(|w| {
                w.key("workload").str("wordcount_1e7");
                w.key("forest_sim_s").f64(rounded(forest_sim_s, 4));
                w.key("analytic_sim_s").f64(rounded(analytic_sim_s, 4));
            });
            w.key("entries").arr(&rows, |w, r| {
                w.obj(|w| {
                    w.key("train_size").u64(r.train_size as u64);
                    w.key("linear_mse").f64(rounded(r.linear.mse, 6));
                    w.key("forest_mse").f64(rounded(r.forest.mse, 6));
                    w.key("forest_mae").f64(rounded(r.forest.mae, 6));
                    w.key("forest_q_log").f64(rounded(r.forest.q_mean, 4));
                    w.key("forest_q_seconds")
                        .f64(rounded(r.forest_q_seconds, 4));
                });
            });
        },
    );
}
