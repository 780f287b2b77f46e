//! Robust plan selection under runtime uncertainty (ISSUE 9, DESIGN §12).
//!
//! The distributional cost API exists so a risk-averse caller can trade a
//! little expected runtime for a lot of tail runtime. This experiment
//! closes that loop end to end:
//!
//! 1. **Train a forest through the service facade** on simulator-labelled
//!    rows, then wrap it in a *cardinality-sensitivity* ensemble oracle:
//!    member `j` re-predicts every candidate row with the layout's
//!    tuple-count cells scaled by a log-spaced hypothesis factor, so the
//!    [`robopt_core::CostOracle::cost_batch_dist`] spread measures how
//!    hard the learned cost model reacts to cardinality misestimation —
//!    the exact failure mode ROADMAP item 3 names. The mean column stays
//!    the unscaled forest prediction, bit-identical to `cost_batch`.
//! 2. **Divergence scan** — a log-spaced input-scale grid over the Fig-1
//!    workloads is enumerated under every risk policy (`expected`,
//!    `sigma2`, `q0.9`). Near platform crossovers the candidates' means
//!    collide while their sensitivities do not (work-bound java plans
//!    scale with tuples, startup-bound spark/flink plans don't), so the
//!    robust policies must repick somewhere on the grid (CHECKed).
//! 3. **Regret sweep** — each noise level ν doubles as a misestimation
//!    level: the optimizer sees scale `c`, the *true* input is `c·err`
//!    with `err` log-uniform in `[1/(1+8ν), 1+8ν]`, and the runtime
//!    simulator runs the picks at the true scale with per-operator noise
//!    ν (the PR-2 noise hook). Per-draw regret is a pick's runtime minus
//!    the best pick's runtime on that draw. The headline ASSERT: at the
//!    highest ν the `sigma2` pick's p90 regret is *strictly below* the
//!    `expected` pick's — mean-optimal plans ride the cardinality-
//!    sensitive platform, and the tail pays for it.
//!
//! A parity CHECK pins the API contract on the service path: an
//! unlabelled request and an explicit `ExpectedCost` request answer
//! bit-identically on a cache-off facade, so the distributional seam
//! costs nothing when risk is off.
//!
//! Writes `EXPERIMENTS_OUTPUT/robust_selection.txt` and
//! `BENCH_robust.json` at the repository root.

use robopt::{OptimizeRequest, Optimizer, TrainRequest, TrainSource, WorkloadSpec};
use robopt_bench::{rounded, Report};
use robopt_core::{CostDistribution, CostOracle, EnumOptions, Enumerator, RiskPolicy};
use robopt_ml::{Model, RandomForest};
use robopt_plan::SplitMix64;
use robopt_platforms::{PlatformId, PlatformRegistry, RuntimeSimulator};
use robopt_vector::{FeatureLayout, RowsView};

const TRAIN_SEED: u64 = 41;
const TRAIN_NOISE: f64 = 0.05;
const EVAL_SEED: u64 = 0x0F11_2E6E;
const EVAL_NOISES: [f64; 3] = [0.05, 0.15, 0.3];
/// Hypothesis members per distribution row (odd: the center member is the
/// unscaled prediction).
const MEMBERS: usize = 9;

fn policies() -> Vec<(&'static str, RiskPolicy)> {
    vec![
        ("expected", RiskPolicy::ExpectedCost),
        ("sigma2", RiskPolicy::MeanPlusKSigma(2.0)),
        ("q0.9", RiskPolicy::Quantile(0.9)),
    ]
}

/// Misestimation magnitude at noise level ν: the true cardinality is off
/// by a log-uniform factor in `[1/err_factor, err_factor]`.
fn err_factor(noise: f64) -> f64 {
    1.0 + 8.0 * noise
}

/// Cardinality-sensitivity ensemble over a fitted forest.
///
/// `cost_row`/`cost_batch` are the plain forest — the ExpectedCost path is
/// bit-identical to a `ModelOracle<RandomForest>`. `cost_batch_dist`
/// re-predicts each row under `MEMBERS` log-spaced cardinality hypotheses
/// (every tuple-count cell of the Fig-5 layout scaled by `s_j ∈
/// [1/f, f]`), so `std`/`q10`/`q90` quantify how much the learned cost
/// surface moves when the input-size estimate is wrong by up to `f`.
struct CardSensitivityOracle<'a> {
    forest: &'a RandomForest,
    factors: Vec<f64>,
    tuple_cells: Vec<usize>,
}

impl<'a> CardSensitivityOracle<'a> {
    fn new(forest: &'a RandomForest, layout: &FeatureLayout, f: f64) -> Self {
        assert!(f >= 1.0, "hypothesis range must contain the estimate");
        let factors: Vec<f64> = (0..MEMBERS)
            .map(|j| f.powf(2.0 * j as f64 / (MEMBERS - 1) as f64 - 1.0))
            .collect();
        // Every cell of the layout that scales with cardinality.
        let mut tuple_cells = vec![FeatureLayout::MAX_OUT_CARD];
        for kind in 0..layout.n_kinds {
            tuple_cells.push(layout.kind_in_tuples(kind));
            tuple_cells.push(layout.kind_out_tuples(kind));
        }
        for p in 0..layout.n_platforms {
            tuple_cells.push(layout.conversion_tuples(p));
            tuple_cells.push(layout.platform_input_tuples(p));
        }
        CardSensitivityOracle {
            forest,
            factors,
            tuple_cells,
        }
    }
}

impl CostOracle for CardSensitivityOracle<'_> {
    fn width(&self) -> usize {
        self.forest.width()
    }

    fn cost_row(&self, feats: &[f64]) -> f64 {
        self.forest.predict(feats)
    }

    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to an oracle expecting {}",
            rows.width(),
            self.width()
        );
        let mut unpacked = Vec::new();
        self.forest.predict_batch(rows.full(&mut unpacked), out);
    }

    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to an oracle expecting {}",
            rows.width(),
            self.width()
        );
        // The hypotheses scale cells by full-layout index.
        let mut unpacked = Vec::new();
        let rows = rows.full(&mut unpacked);
        let n = rows.rows();
        let m = self.factors.len();
        let mut scaled = vec![0.0; self.width()];
        let scratch = out.sample_scratch(n, m);
        for r in 0..n {
            let row = rows.row(r);
            for (j, &s) in self.factors.iter().enumerate() {
                scaled.copy_from_slice(row);
                for &c in &self.tuple_cells {
                    scaled[c] *= s;
                }
                scratch[r * m + j] = self.forest.predict(&scaled);
            }
        }
        out.finalize_samples(m);
        // The mean column must stay bit-identical to `cost_batch`: the
        // hypothesis average only approximates the base prediction, so
        // re-quote the unscaled forest explicitly.
        self.forest.predict_batch(rows, &mut out.mean);
    }
}

/// The log-spaced input-scale grid over the Fig-1 workload shapes,
/// bracketing the named registry's platform crossovers.
fn scan_specs() -> Vec<WorkloadSpec> {
    let steps = 12;
    let mut specs = Vec::new();
    for i in 0..steps {
        let t = i as f64 / (steps - 1) as f64;
        specs.push(WorkloadSpec::WordCount {
            scale: 10f64.powf(4.0 + 3.0 * t),
        });
        specs.push(WorkloadSpec::TpchQ3 {
            scale: 10f64.powf(3.0 + 2.5 * t),
        });
        specs.push(WorkloadSpec::Pipeline {
            ops: 9,
            scale: 10f64.powf(3.5 + 3.0 * t),
        });
    }
    specs
}

/// The same shape at a perturbed input scale (the "true" cardinality).
fn rescale(spec: &WorkloadSpec, f: f64) -> WorkloadSpec {
    match *spec {
        WorkloadSpec::WordCount { scale } => WorkloadSpec::WordCount { scale: scale * f },
        WorkloadSpec::TpchQ3 { scale } => WorkloadSpec::TpchQ3 { scale: scale * f },
        WorkloadSpec::Pipeline { ops, scale } => WorkloadSpec::Pipeline {
            ops,
            scale: scale * f,
        },
        other => other,
    }
}

fn spec_name(spec: &WorkloadSpec) -> String {
    match *spec {
        WorkloadSpec::WordCount { scale } => format!("wordcount({scale:.0})"),
        WorkloadSpec::TpchQ3 { scale } => format!("tpch_q3({scale:.0})"),
        WorkloadSpec::Pipeline { ops, scale } => format!("pipeline({ops},{scale:.0})"),
        _ => "other".to_string(),
    }
}

/// Distinct platforms of an assignment, in first-use order.
fn pick_label(registry: &PlatformRegistry, pick: &[PlatformId]) -> String {
    let mut names: Vec<&str> = Vec::new();
    for &id in pick {
        let name = registry.platform(id).name.as_str();
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names.join("+")
}

/// Nearest-rank percentile of an unsorted sample (q in (0, 1]).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Per-(policy, noise) regret aggregates, in milliseconds.
struct RegretRow {
    policy: &'static str,
    noise: f64,
    mean_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p95_ms: f64,
    draws: usize,
}

fn main() {
    let policy_set = policies();
    let train_rows = 1600;

    // Phase 0 — train the forest through the service facade.
    let mut opt = Optimizer::named();
    opt.train(&TrainRequest {
        source: TrainSource::Simulator {
            seed: TRAIN_SEED,
            noise: TRAIN_NOISE,
        },
        rows: train_rows,
        n_trees: 24,
        forest_seed: 0x0b5e_55ed,
    })
    .expect("train the forest");

    // Service view: the forest's own per-tree spread, through the facade.
    let view_specs = [
        WorkloadSpec::WordCount { scale: 1e6 },
        WorkloadSpec::TpchQ3 { scale: 1e5 },
        WorkloadSpec::Pipeline { ops: 9, scale: 1e5 },
    ];
    let mut service_view = Vec::new();
    for spec in view_specs {
        let resp = opt
            .optimize(&OptimizeRequest::new(spec).with_risk(RiskPolicy::MeanPlusKSigma(2.0)))
            .expect("service-view optimize");
        service_view.push(resp);
    }

    // Parity on the service path: unlabelled ≡ explicit ExpectedCost,
    // checked on a cache-off facade so neither answer is a cache echo.
    let mut reference = Optimizer::named();
    reference.set_cache_enabled(false);
    let parity_spec = WorkloadSpec::WordCount { scale: 1e6 };
    let plain = reference
        .optimize(&OptimizeRequest::new(parity_spec))
        .expect("parity plain");
    let explicit = reference
        .optimize(&OptimizeRequest::new(parity_spec).with_risk(RiskPolicy::ExpectedCost))
        .expect("parity explicit");
    let parity_ok = plain == explicit && plain.cost.to_bits() == explicit.cost.to_bits();

    // From here on the forest is used directly through the core seam.
    let registry = opt.registry();
    let layout = *opt.layout();
    let forest = opt.forest().expect("train installed a forest");
    let nu_max = EVAL_NOISES[EVAL_NOISES.len() - 1];
    let mut enumerator = Enumerator::new();
    let pick = |en: &mut Enumerator,
                oracle: &CardSensitivityOracle<'_>,
                spec: &WorkloadSpec,
                risk: RiskPolicy|
     -> Vec<PlatformId> {
        let plan = spec.build().expect("grid spec builds");
        let opts = EnumOptions::new(registry)
            .with_oracle(oracle)
            .with_risk(risk);
        en.enumerate(&plan, &layout, opts).0.assignments
    };

    // Phase 1 — divergence scan at the highest misestimation level.
    let oracle_max = CardSensitivityOracle::new(forest, &layout, err_factor(nu_max));
    let specs = scan_specs();
    let mut scan_picks: Vec<Vec<Vec<PlatformId>>> = Vec::new();
    for spec in &specs {
        let per_policy: Vec<Vec<PlatformId>> = policy_set
            .iter()
            .map(|&(_, p)| pick(&mut enumerator, &oracle_max, spec, p))
            .collect();
        scan_picks.push(per_policy);
    }
    let divergent: Vec<usize> = (0..specs.len())
        .filter(|&i| scan_picks[i][1..].iter().any(|p| *p != scan_picks[i][0]))
        .collect();

    // Phase 2 — per-noise picks for the divergent workloads (the ensemble
    // hypothesis range widens with ν, so robust picks adapt per level).
    // picks_by_noise[ni][di][pi] = assignment.
    let mut picks_by_noise: Vec<Vec<Vec<Vec<PlatformId>>>> = Vec::new();
    for &noise in &EVAL_NOISES {
        let oracle = CardSensitivityOracle::new(forest, &layout, err_factor(noise));
        let mut per_wl = Vec::new();
        for &i in &divergent {
            let per_policy: Vec<Vec<PlatformId>> = policy_set
                .iter()
                .map(|&(_, p)| pick(&mut enumerator, &oracle, &specs[i], p))
                .collect();
            per_wl.push(per_policy);
        }
        picks_by_noise.push(per_wl);
    }

    // Phase 3 — regret sweep: optimize at the estimated scale, execute at
    // the true scale `c·err` on a noisy simulator, charge each policy its
    // excess over the best pick of that draw.
    let seeds = 150;
    let mut regret_rows: Vec<RegretRow> = Vec::new();
    for (ni, &noise) in EVAL_NOISES.iter().enumerate() {
        let f = err_factor(noise);
        let mut regrets: Vec<Vec<f64>> = vec![Vec::new(); policy_set.len()];
        for (di, &i) in divergent.iter().enumerate() {
            for s in 0..seeds as u64 {
                // One misestimation draw per (workload, seed), shared
                // across noise levels through the exponent `u` so the
                // sweep is paired.
                let mut rng = SplitMix64::new(EVAL_SEED ^ (i as u64) << 32 ^ s);
                let u = rng.next_f64();
                let err = f.powf(2.0 * u - 1.0);
                let true_plan = rescale(&specs[i], err).build().expect("true-scale plan");
                let sim = RuntimeSimulator::new(registry, rng.next_u64()).with_noise(noise);
                let runs: Vec<f64> = picks_by_noise[ni][di]
                    .iter()
                    .map(|ids| sim.simulate(&true_plan, ids))
                    .collect();
                let best = runs.iter().copied().fold(f64::INFINITY, f64::min);
                for (p, &r) in runs.iter().enumerate() {
                    regrets[p].push(r - best);
                }
            }
        }
        for (p, (name, _)) in policy_set.iter().enumerate() {
            let samples = &mut regrets[p];
            let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
            regret_rows.push(RegretRow {
                policy: name,
                noise,
                mean_ms: mean * 1e3,
                p50_ms: percentile(samples, 0.50) * 1e3,
                p90_ms: percentile(samples, 0.90) * 1e3,
                p95_ms: percentile(samples, 0.95) * 1e3,
                draws: samples.len(),
            });
        }
    }

    let at = |policy: &str, noise: f64| -> &RegretRow {
        regret_rows
            .iter()
            .find(|r| r.policy == policy && r.noise == noise)
            .expect("regret row exists")
    };
    let expected_p90 = at("expected", nu_max).p90_ms;
    let sigma_p90 = at("sigma2", nu_max).p90_ms;

    // Report.
    let mut report = Report::new(format_args!(
        "Robust plan selection: risk policies vs noise + cardinality misestimation \
         ({} grid workloads, {} seeds/noise)",
        specs.len(),
        seeds
    ));
    report.line(format_args!(
        "forest: {train_rows} simulator rows (noise {TRAIN_NOISE}); ensemble: {MEMBERS} \
         cardinality hypotheses in [1/f, f], f = 1 + 8*noise; true scale = estimate * err, \
         err log-uniform in the same range"
    ));
    report.line("");
    report.line("service view (forest per-tree spread through the facade, sigma2 requests):");
    report.line(format_args!(
        "{:>18} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "cost", "std", "q10", "q90", "policy"
    ));
    for resp in &service_view {
        report.line(format_args!(
            "{:>18} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10}",
            resp.workload, resp.cost, resp.cost_std, resp.cost_q10, resp.cost_q90, resp.risk_policy
        ));
    }
    report.line("");
    report.line(format_args!(
        "divergence scan at f = {:.2} (distinct platforms of each winner; * = differs \
         from expected):",
        err_factor(nu_max)
    ));
    report.line(format_args!(
        "{:>22} {:>18} {:>20} {:>20}",
        "workload", "expected", "sigma2", "q0.9"
    ));
    for (i, spec) in specs.iter().enumerate() {
        let exp_label = pick_label(registry, &scan_picks[i][0]);
        let mut cells = vec![exp_label];
        for p in &scan_picks[i][1..] {
            let label = pick_label(registry, p);
            cells.push(if *p != scan_picks[i][0] {
                format!("{label}*")
            } else {
                label
            });
        }
        report.line(format_args!(
            "{:>22} {:>18} {:>20} {:>20}",
            spec_name(spec),
            cells[0],
            cells[1],
            cells[2]
        ));
    }
    report.line("");
    report.line(format_args!(
        "per-policy regret vs the best pick of each draw (ms, {} divergent workloads):",
        divergent.len()
    ));
    report.line(format_args!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "noise", "policy", "mean", "p50", "p90", "p95", "draws"
    ));
    for r in &regret_rows {
        report.line(format_args!(
            "{:>8.2} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8}",
            r.noise, r.policy, r.mean_ms, r.p50_ms, r.p90_ms, r.p95_ms, r.draws
        ));
    }

    report.line("");
    report.check(
        format_args!(
            "risk policies repick somewhere on the grid ({} of {} workloads diverge)",
            divergent.len(),
            specs.len()
        ),
        !divergent.is_empty(),
    );
    report.check(
        "unlabelled request bit-identical to explicit ExpectedCost (cache-off facade)",
        parity_ok,
    );
    report.check(
        format_args!(
            "sigma2 p90 regret strictly below expected at noise {nu_max} \
             ({sigma_p90:.1} ms < {expected_p90:.1} ms)"
        ),
        sigma_p90 < expected_p90,
    );

    // Regret aggregates use the shared bench schema: `<prefix>_ms` is the
    // median, `<prefix>_p95_ms` the 95th percentile.
    report.finish(
        "EXPERIMENTS_OUTPUT/robust_selection.txt",
        "BENCH_robust.json",
        |w| {
            w.key("train_rows").u64(train_rows as u64);
            w.key("seeds_per_noise").u64(seeds as u64);
            w.key("grid_workloads").u64(specs.len() as u64);
            w.key("divergent_workloads").u64(divergent.len() as u64);
            w.key("regret").arr(&regret_rows, |w, r| {
                w.obj(|w| {
                    w.key("policy").str(r.policy);
                    w.key("noise").f64(r.noise);
                    w.key("regret_ms").f64(rounded(r.p50_ms, 6));
                    w.key("regret_p90_ms").f64(rounded(r.p90_ms, 6));
                    w.key("regret_p95_ms").f64(rounded(r.p95_ms, 6));
                    w.key("regret_mean_ms").f64(rounded(r.mean_ms, 6));
                    w.key("draws").u64(r.draws as u64);
                });
            });
        },
    );
}
