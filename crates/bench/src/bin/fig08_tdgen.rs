//! Fig 8: TDGEN — scalable training-data generation.
//!
//! Four measurements back the paper's §V claims:
//!
//! 1. **Interpolation fidelity** — on noiseless curves, labels synthesized
//!    by the piecewise degree-5 log-log fit at held-out scales are compared
//!    against direct simulation: pooled Spearman must stay ≥ 0.95 (ranking
//!    is what enumeration consumes) and the q-error distribution is
//!    reported.
//! 2. **Throughput and simulator-call reduction** — rows/second for TDGEN
//!    vs the direct-labelling `SimulatorSource` on the same row budget;
//!    TDGEN must spend ≥ 5× fewer simulator invocations per row.
//! 3. **Downstream model quality** — a random forest trained on a TDGEN
//!    `TrainingSet` vs one trained on the same number of directly-labelled
//!    rows, both evaluated on a held-out directly-labelled set.
//! 4. **End-to-end optimum** — the TDGEN-trained forest behind
//!    `&dyn CostOracle` drives the vectorized enumerator on WordCount(1e7);
//!    its pick must simulate as fast as the brute-force true optimum over
//!    all feasible platform assignments.
//!
//! Writes `EXPERIMENTS_OUTPUT/fig08_tdgen.txt` and `BENCH_tdgen.json` at
//! the repository root.

use std::time::Instant;

use robopt::{BackendChoice, ExecuteRequest, OptimizeRequest, Optimizer, WorkloadSpec};
use robopt_bench::{rounded, Report};
use robopt_ml::{
    spearman, ForestConfig, Metrics, Model, RandomForest, SamplerConfig, SimulatorSource,
    TrainingSet, TrainingSource,
};
use robopt_plan::rng::SplitMix64;
use robopt_plan::{workloads, N_OPERATOR_KINDS};
use robopt_platforms::{PlatformRegistry, RuntimeSimulator};
use robopt_tdgen::{
    log_knots, sample_assignment, sample_skeleton, PiecewisePoly, ShapeKind, TdgenConfig,
    TdgenGenerator,
};
use robopt_vector::FeatureLayout;

const TDGEN_SEED: u64 = 0x0008_7d9e;
const DIRECT_SEED: u64 = 0x0008_7d9f;
const HELDOUT_SEED: u64 = 0x0008_7da0;
const SIM_SEED: u64 = 42;

/// Section 1: fidelity of interpolated labels at held-out scales.
struct Fidelity {
    curves: usize,
    probes: usize,
    spearman: f64,
    q_mean: f64,
    q_max: f64,
}

fn measure_fidelity(
    registry: &PlatformRegistry,
    cfg: &TdgenConfig,
    curves: usize,
    probes_per_curve: usize,
) -> Fidelity {
    let mut rng = SplitMix64::new(cfg.seed() ^ 0xf1de);
    // Noiseless simulator: fidelity must be judged against clean curves.
    let sim = RuntimeSimulator::new(registry, SIM_SEED).with_noise(0.0);
    let (lo, hi) = cfg.scale_range();
    let knot_scales = log_knots(lo, hi, cfg.knots());
    let (lln, hln) = (lo.ln(), hi.ln());
    let mut interp = Vec::new();
    let mut truth = Vec::new();
    let mut done = 0;
    while done < curves {
        let shape = cfg.shape_mix()[rng.gen_range(cfg.shape_mix().len())];
        let (min_ops, max_ops) = cfg.ops_range();
        let n_ops = min_ops + rng.gen_range(max_ops - min_ops + 1);
        let skel = sample_skeleton(&mut rng, registry, shape, n_ops);
        let Some(assign) = sample_assignment(&skel, registry, cfg.beta(), &mut rng, 64) else {
            continue;
        };
        let mut ln_xs = Vec::with_capacity(knot_scales.len());
        let mut ys = Vec::with_capacity(knot_scales.len());
        let mut finite = true;
        for &scale in &knot_scales {
            let seconds = sim.simulate_raw(&skel.instantiate(scale), &assign);
            if !seconds.is_finite() {
                finite = false;
                break;
            }
            ln_xs.push(scale.ln());
            ys.push(seconds.ln_1p());
        }
        if !finite {
            continue;
        }
        let poly = PiecewisePoly::fit(&ln_xs, &ys);
        for _ in 0..probes_per_curve {
            let ln_s = lln + (hln - lln) * rng.next_f64();
            let predicted = TrainingSet::label_to_seconds(poly.eval(ln_s));
            let actual = sim.simulate_raw(&skel.instantiate(ln_s.exp()), &assign);
            interp.push(predicted);
            truth.push(actual);
        }
        done += 1;
    }
    let mut q_sum = 0.0;
    let mut q_max = 0.0_f64;
    for (&p, &a) in interp.iter().zip(&truth) {
        let q = robopt_ml::q_error(p, a);
        q_sum += q;
        q_max = q_max.max(q);
    }
    Fidelity {
        curves,
        probes: interp.len(),
        spearman: spearman(&interp, &truth),
        q_mean: q_sum / interp.len() as f64,
        q_max,
    }
}

fn heldout_metrics(model: &dyn Model, heldout: &TrainingSet) -> Metrics {
    let mut preds = Vec::new();
    model.predict_batch(heldout.rows_view(), &mut preds);
    Metrics::evaluate(&preds, &heldout.labels)
}

/// Brute-force true optimum of `plan`: minimum simulated runtime over all
/// feasible platform assignments.
fn true_optimum(
    plan: &robopt_plan::LogicalPlan,
    registry: &PlatformRegistry,
    sim: &RuntimeSimulator<'_>,
) -> f64 {
    let k = registry.len();
    let n = plan.n_ops();
    let mut assign = vec![0u8; n];
    let mut best = f64::INFINITY;
    let combos = (k as u64).pow(n as u32);
    for mut code in 0..combos {
        for slot in assign.iter_mut() {
            *slot = (code % k as u64) as u8;
            code /= k as u64;
        }
        let s = sim.simulate_raw(plan, &assign);
        if s < best {
            best = s;
        }
    }
    best
}

fn main() {
    // TDGEN's training set is 3x the direct one on purpose: with the
    // default ~5.8x reduction it still spends roughly *half* the
    // simulator calls — the paper's pitch is more data per execution.
    let (tdgen_n, direct_n, heldout_n, n_trees, fid_curves, fid_probes) =
        (18000, 6000, 500, 32, 24, 25);

    let registry = PlatformRegistry::named();
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    let cfg = TdgenConfig::new().with_seed(TDGEN_SEED);

    // ---- 1. Interpolation fidelity --------------------------------------
    let fid = measure_fidelity(
        &registry,
        &cfg.clone().with_noise(0.0),
        fid_curves,
        fid_probes,
    );

    // ---- 2. Throughput + reduction --------------------------------------
    let mut tdgen = TdgenGenerator::new(&registry, layout, cfg.clone());
    let t0 = Instant::now();
    let tdgen_train = tdgen.generate(tdgen_n);
    let tdgen_secs = t0.elapsed().as_secs_f64();
    let stats = tdgen.stats();
    let reduction = stats.reduction();
    let tdgen_rows_per_s = tdgen_n as f64 / tdgen_secs;

    let mut direct = SimulatorSource::new(
        &registry,
        layout,
        SamplerConfig::new().with_seed(DIRECT_SEED).with_noise(0.05),
    );
    let t1 = Instant::now();
    let direct_train = direct.generate(direct_n);
    let direct_secs = t1.elapsed().as_secs_f64();
    let direct_rows_per_s = direct_n as f64 / direct_secs;

    // ---- 3. Forest on TDGEN vs forest on direct labels ------------------
    let heldout = SimulatorSource::new(
        &registry,
        layout,
        SamplerConfig::new().with_seed(HELDOUT_SEED).with_noise(0.0),
    )
    .generate(heldout_n);
    let forest_cfg = ForestConfig {
        n_trees,
        ..ForestConfig::default()
    };
    let tdgen_forest = RandomForest::fit_on(&forest_cfg, &tdgen_train);
    let direct_forest = RandomForest::fit_on(&forest_cfg, &direct_train);
    let tdgen_m = heldout_metrics(&tdgen_forest, &heldout);
    let direct_m = heldout_metrics(&direct_forest, &heldout);

    // ---- 4. End-to-end: TDGEN-trained forest vs the true optimum --------
    // The forest drives enumeration through the service facade (the same
    // `&dyn CostOracle` plumbing, now owned by the `Optimizer`).
    let wc = WorkloadSpec::WordCount { scale: 1e7 };
    let mut opt = Optimizer::named();
    opt.install_forest(tdgen_forest)
        .expect("TDGEN forest width matches the named-registry layout");
    let picked = opt
        .optimize(&OptimizeRequest::new(wc))
        .expect("optimize under the TDGEN forest");
    let picked_s = opt
        .execute(
            &ExecuteRequest::new(wc)
                .with_assignments(picked.assignments.clone())
                .with_backend(BackendChoice::Simulator {
                    seed: SIM_SEED,
                    noise: 0.0,
                }),
        )
        .expect("simulate the forest-picked plan")
        .seconds;
    let plan = workloads::wordcount(1e7);
    let sim = RuntimeSimulator::new(&registry, SIM_SEED);
    let optimum_s = true_optimum(&plan, &registry, &sim);

    // ---- Report ---------------------------------------------------------
    let mut report = Report::new(format_args!(
        "Fig 8: TDGEN training-data generation ({} platforms, beta = {}, {} knots, scales [{:.0e}, {:.0e}])",
        registry.len(),
        cfg.beta(),
        cfg.knots(),
        cfg.scale_range().0,
        cfg.scale_range().1
    ));
    report.line("");
    report.line(format_args!(
        "interpolation fidelity ({} curves x {} held-out scales, noiseless):",
        fid.curves,
        fid.probes / fid.curves.max(1)
    ));
    report.line(format_args!(
        "  spearman(interpolated, simulated) = {:.4}   q-error mean = {:.3}  max = {:.3}",
        fid.spearman, fid.q_mean, fid.q_max
    ));
    report.line("");
    report.line("label generation:");
    report.line(format_args!(
        "  {:<22} {:>8} {:>12} {:>14} {:>16}",
        "source", "rows", "rows/sec", "sim calls", "rows per call"
    ));
    report.line(format_args!(
        "  {:<22} {:>8} {:>12.0} {:>14} {:>16.2}",
        "tdgen (interpolated)", tdgen_n, tdgen_rows_per_s, stats.sim_calls, reduction
    ));
    report.line(format_args!(
        "  {:<22} {:>8} {:>12.0} {:>14} {:>16.2}",
        "direct (simulator)", direct_n, direct_rows_per_s, direct_n, 1.0
    ));
    report.line(format_args!(
        "  ({} skeletons, {} curves; buffered rows kept across calls)",
        stats.skeletons, stats.curves
    ));
    report.line("");
    report.line(format_args!(
        "forest ({n_trees} trees) on {heldout_n} held-out directly-labelled rows \
         (tdgen: {tdgen_n} rows / {} sim calls; direct: {direct_n} rows / {direct_n} calls):",
        stats.sim_calls
    ));
    report.line(format_args!(
        "  {:<22} {:>10} {:>10} {:>10} {:>10}",
        "training source", "MSE", "spearman", "q(log)", "R^2"
    ));
    for (name, m) in [("tdgen", &tdgen_m), ("direct", &direct_m)] {
        report.line(format_args!(
            "  {:<22} {:>10.4} {:>10.4} {:>10.3} {:>10.4}",
            name, m.mse, m.spearman, m.q_mean, m.r2
        ));
    }
    report.line("");
    report.line(format_args!(
        "end-to-end WordCount(1e7): tdgen-forest pick {picked_s:.2}s \
         vs brute-force optimum {optimum_s:.2}s"
    ));
    report.check("interpolated-label spearman >= 0.95", fid.spearman >= 0.95);
    report.check("simulator-call reduction >= 5x", reduction >= 5.0);
    report.check(
        "tdgen-forest picks the true optimum",
        picked_s <= optimum_s * (1.0 + 1e-9),
    );
    report.line(
        "paper shape: interpolation preserves the runtime ranking while cutting \
         label-collection cost; models trained on synthesized rows stay competitive",
    );

    report.finish(
        "EXPERIMENTS_OUTPUT/fig08_tdgen.txt",
        "BENCH_tdgen.json",
        |w| {
            w.key("beta").u64(cfg.beta() as u64);
            w.key("knots").u64(cfg.knots() as u64);
            w.key("tdgen_rows").u64(tdgen_n as u64);
            w.key("direct_rows").u64(direct_n as u64);
            w.key("sim_calls").u64(stats.sim_calls);
            w.key("reduction").f64(rounded(reduction, 4));
            w.key("tdgen_rows_per_s").f64(rounded(tdgen_rows_per_s, 1));
            w.key("direct_rows_per_s")
                .f64(rounded(direct_rows_per_s, 1));
            w.key("fidelity").obj(|w| {
                w.key("spearman").f64(rounded(fid.spearman, 6));
                w.key("q_mean").f64(rounded(fid.q_mean, 4));
                w.key("q_max").f64(rounded(fid.q_max, 4));
                w.key("probes").u64(fid.probes as u64);
            });
            w.key("forest_heldout").obj(|w| {
                w.key("tdgen_mse").f64(rounded(tdgen_m.mse, 6));
                w.key("tdgen_spearman").f64(rounded(tdgen_m.spearman, 4));
                w.key("direct_mse").f64(rounded(direct_m.mse, 6));
                w.key("direct_spearman").f64(rounded(direct_m.spearman, 4));
            });
            w.key("end_to_end").obj(|w| {
                w.key("workload").str("wordcount_1e7");
                w.key("picked_s").f64(rounded(picked_s, 4));
                w.key("optimum_s").f64(rounded(optimum_s, 4));
            });
            w.key("shape_mix")
                .arr(ShapeKind::ALL, |w, shape| w.str(shape.name()));
        },
    );
}
