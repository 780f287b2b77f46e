//! Fig 8: TDGEN — scalable training-data generation.
//!
//! Four measurements back the paper's §V claims:
//!
//! 1. **Interpolation fidelity** — on the curves the generator draws (its
//!    skeletons and stratified assignments, swept without noise), labels
//!    synthesized by the piecewise degree-5 log-log fit at held-out scales
//!    are compared against direct simulation: pooled Spearman must stay
//!    ≥ 0.95 (ranking is what enumeration consumes) and the q-error
//!    distribution is reported.
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
    spearman, ForestConfig, Metrics, Model, RandomForest, SimulatorSource, TrainingSet,
    TrainingSource,
};
use robopt_plan::rng::SplitMix64;
use robopt_plan::{workloads, N_OPERATOR_KINDS};
use robopt_platforms::{PlatformRegistry, RuntimeSimulator};
use robopt_tdgen::{Curve, ShapeKind, TdgenConfig, TdgenGenerator, BETA, KNOTS, SCALE_RANGE};
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

/// Interpolated against simulated labels at `probes_per_curve` held-out
/// scales of each of the first `curves` curves a generator draws: the
/// generator's own skeletons and stratified assignments, each swept under
/// a noiseless simulator so fidelity is judged against clean curves.
fn measure_fidelity(
    registry: &PlatformRegistry,
    layout: FeatureLayout,
    curves: usize,
    probes_per_curve: usize,
) -> Fidelity {
    let cfg = TdgenConfig::new().with_seed(TDGEN_SEED ^ 0xf1de);
    let mut draws = TdgenGenerator::new(registry, layout, cfg);
    // The probe scales draw from a stream of their own.
    let mut rng = SplitMix64::new(TDGEN_SEED ^ 0x9b0e);
    let sim = RuntimeSimulator::new(registry, SIM_SEED).with_noise(0.0);
    let mut interp = Vec::new();
    let mut truth = Vec::new();
    let mut done = 0;
    while done < curves {
        let (skel, assigns) = draws.next_skeleton();
        for assign in assigns.iter().take(curves - done) {
            let Ok(curve) = Curve::sweep(&skel, assign, &sim) else {
                continue;
            };
            let (lln, hln) = (curve.scales[0].ln(), curve.scales[KNOTS - 1].ln());
            for _ in 0..probes_per_curve {
                let ln_s = lln + (hln - lln) * rng.next_f64();
                interp.push(TrainingSet::label_to_seconds(curve.label_at(ln_s)));
                truth.push(sim.simulate_raw(&skel.instantiate(ln_s.exp()), assign));
            }
            done += 1;
        }
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

    // ---- 1. Interpolation fidelity --------------------------------------
    let fid = measure_fidelity(&registry, layout, fid_curves, fid_probes);

    // ---- 2. Throughput + reduction --------------------------------------
    let cfg = TdgenConfig::new().with_seed(TDGEN_SEED);
    let mut tdgen = TdgenGenerator::new(&registry, layout, cfg);
    let t0 = Instant::now();
    let tdgen_train = tdgen.generate(tdgen_n);
    let tdgen_secs = t0.elapsed().as_secs_f64();
    let stats = tdgen.stats();
    let reduction = stats.reduction();
    let tdgen_rows_per_s = tdgen_n as f64 / tdgen_secs;

    let mut direct = SimulatorSource::new(&registry, layout, DIRECT_SEED, 0.05);
    let t1 = Instant::now();
    let direct_train = direct.generate(direct_n);
    let direct_secs = t1.elapsed().as_secs_f64();
    let direct_rows_per_s = direct_n as f64 / direct_secs;

    // ---- 3. Forest on TDGEN vs forest on direct labels ------------------
    let heldout = SimulatorSource::new(&registry, layout, HELDOUT_SEED, 0.0).generate(heldout_n);
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
        BETA,
        KNOTS,
        SCALE_RANGE.0,
        SCALE_RANGE.1
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
            w.key("beta").u64(BETA as u64);
            w.key("knots").u64(KNOTS as u64);
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
