//! Engine validation: does the analytic simulator *rank* plans the way the
//! real executor *runs* them, and can a forest trained on engine-measured
//! rows find the measured optimum? (ISSUE 8, DESIGN §11.)
//!
//! Three phases:
//!
//! 1. **Correctness gate** (before any clock starts): for every pool
//!    workload the multi-threaded engine's terminal output digest at 1, 2,
//!    and 4 workers must equal the independent single-threaded reference
//!    executor's digest — byte-identical outputs, or the timing below is
//!    timing a wrong answer. The gate runs all-`spark`: java's modeled
//!    parallelism is 1, so an all-`java` run takes the one-chunk path at
//!    every worker count.
//! 2. **Ranking agreement** — every pool workload runs on the engine
//!    (median-of-3 measured seconds) and through the simulator (noiseless)
//!    under the same all-`java` assignment; Spearman rank correlation over
//!    the shared pool must reach ≥ 0.9. The pool is volume-separated on
//!    purpose: the claim is that the analytic model orders workloads the
//!    way real execution does, not that it predicts absolute seconds.
//! 3. **Learn from measurements** — a [`robopt_ml::BackendSource`] over
//!    the engine generates training rows whose labels are *measured*
//!    runtimes; a forest fit on them must rank the engine-measured best
//!    uniform platform for WordCount first (java: its modeled startup and
//!    per-operator overheads are orders of magnitude below spark/flink at
//!    this input volume).
//!
//! Writes `EXPERIMENTS_OUTPUT/engine_validation.txt` and
//! `BENCH_engine.json` at the repository root.

use robopt_bench::{rounded, Report};
use robopt_core::vectorize::vectorize_assignment;
use robopt_engine::{execute_reference, Engine};
use robopt_ml::{spearman, BackendSource, ForestConfig, Model, RandomForest, TrainingSource};
use robopt_plan::{workloads, LogicalPlan, N_OPERATOR_KINDS};
use robopt_platforms::{ExecutionBackend, PlatformId, PlatformRegistry};
use robopt_vector::FeatureLayout;

const ENGINE_SEED: u64 = 0x00F1_6A10;
const TRAIN_SEED: u64 = 0x00F1_6A11;

/// The shared workload pool: volume-separated so both backends face a
/// clear ordering, with every operator family (flat map, join, loop)
/// represented.
fn pool() -> Vec<(String, LogicalPlan)> {
    vec![
        ("wordcount(1e3)".to_string(), workloads::wordcount(1e3)),
        ("wordcount(1e4)".to_string(), workloads::wordcount(1e4)),
        ("wordcount(1e5)".to_string(), workloads::wordcount(1e5)),
        ("tpch_q3(1e3)".to_string(), workloads::tpch_q3(1e3)),
        ("tpch_q3(3e4)".to_string(), workloads::tpch_q3(3e4)),
        ("pagerank(2e3,5)".to_string(), workloads::pagerank(2e3, 5)),
        ("kmeans(2e3,5)".to_string(), workloads::kmeans(2e3, 5)),
        (
            "pipeline(8,1e4)".to_string(),
            workloads::synthetic_pipeline(8, 1e4),
        ),
        ("wordcount(2e5)".to_string(), workloads::wordcount(2e5)),
        ("tpch_q3(1e5)".to_string(), workloads::tpch_q3(1e5)),
        ("pagerank(2e4,10)".to_string(), workloads::pagerank(2e4, 10)),
        ("kmeans(2e4,10)".to_string(), workloads::kmeans(2e4, 10)),
        (
            "pipeline(16,1e5)".to_string(),
            workloads::synthetic_pipeline(16, 1e5),
        ),
    ]
}

fn uniform(registry: &PlatformRegistry, name: &str, n: usize) -> Vec<PlatformId> {
    let id = registry.by_name(name).expect("named platform");
    vec![id; n]
}

/// Phase 1: engine output at 1/2/4 workers must be byte-identical to the
/// independent reference executor. Panics (exit ≠ 0) on divergence.
fn correctness_gate(registry: &PlatformRegistry, entries: &[(String, LogicalPlan)]) {
    for (name, plan) in entries {
        let (_, want) =
            execute_reference(plan, ENGINE_SEED, robopt_engine::DEFAULT_MAX_SOURCE_ROWS);
        let assign = uniform(registry, "spark", plan.n_ops());
        for workers in [1usize, 2, 4] {
            let engine = Engine::new(registry)
                .with_workers(workers)
                .with_seed(ENGINE_SEED);
            let out = engine.execute_collect(plan, &assign);
            assert!(out.report.feasible, "{name}: all-spark must be feasible");
            assert_eq!(
                out.report.output_digest, want,
                "{name}: engine digest at {workers} workers diverged from the reference"
            );
        }
    }
}

struct PoolRow {
    name: String,
    engine_s: f64,
    sim_s: f64,
    output_rows: u64,
}

/// Median of three engine runs — measured seconds jitter, digests don't.
fn engine_seconds(engine: &Engine<'_>, plan: &LogicalPlan, assign: &[PlatformId]) -> (f64, u64) {
    let mut secs: Vec<f64> = Vec::with_capacity(3);
    let mut rows = 0;
    for _ in 0..3 {
        let report = engine.execute(plan, assign);
        assert!(report.feasible);
        secs.push(report.seconds);
        rows = report.output_rows;
    }
    secs.sort_by(f64::total_cmp);
    (secs[1], rows)
}

fn main() {
    let registry = PlatformRegistry::named();
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    let entries = pool();

    // Phase 1 — correctness before any clock starts.
    correctness_gate(&registry, &entries);

    // Phase 2 — engine vs simulator ranking over the shared pool.
    let engine = Engine::new(&registry)
        .with_workers(2)
        .with_seed(ENGINE_SEED);
    let sim = robopt_platforms::RuntimeSimulator::new(&registry, 0);
    let sim_backend: &dyn ExecutionBackend = &sim;
    let rows: Vec<PoolRow> = entries
        .iter()
        .map(|(name, plan)| {
            let assign = uniform(&registry, "java", plan.n_ops());
            let (engine_s, output_rows) = engine_seconds(&engine, plan, &assign);
            let sim_s = sim_backend.execute(plan, &assign).seconds;
            PoolRow {
                name: name.clone(),
                engine_s,
                sim_s,
                output_rows,
            }
        })
        .collect();
    let engine_secs: Vec<f64> = rows.iter().map(|r| r.engine_s).collect();
    let sim_secs: Vec<f64> = rows.iter().map(|r| r.sim_s).collect();
    let rho = spearman(&engine_secs, &sim_secs);

    // Phase 3 — train on engine-measured rows, pick the measured optimum.
    let train_rows = 192;
    let train_pool = vec![
        workloads::wordcount(3e3),
        workloads::wordcount(1e4),
        workloads::wordcount(3e4),
        workloads::tpch_q3(3e3),
        workloads::tpch_q3(1e4),
        workloads::pagerank(5e3, 5),
        workloads::kmeans(5e3, 5),
        workloads::synthetic_pipeline(8, 1e4),
        workloads::synthetic_pipeline(12, 3e3),
    ];
    let engine_backend: &dyn ExecutionBackend = &engine;
    let mut source =
        BackendSource::new(engine_backend, &registry, layout, TRAIN_SEED).with_pool(train_pool);
    let set = source.generate(train_rows);
    let forest_cfg = ForestConfig {
        n_trees: 24,
        seed: 0x0F02_0E57,
        ..ForestConfig::default()
    };
    let forest = RandomForest::fit_on(&forest_cfg, &set);

    // Candidates: every uniform single-platform WordCount plan the
    // registry can run. Rank them by forest prediction and by measurement.
    let wc = workloads::wordcount(1e4);
    let mut candidates: Vec<(String, f64, f64)> = Vec::new(); // (name, predicted, measured)
    let mut feats = Vec::new();
    for id in registry.ids().collect::<Vec<_>>() {
        if !registry.feasible(&wc, |_| id) {
            continue;
        }
        let assign = vec![id; wc.n_ops()];
        let raw: Vec<u8> = assign.iter().map(|p| p.raw()).collect();
        vectorize_assignment(&wc, &layout, &raw, &mut feats);
        let predicted = forest.predict_row(&feats);
        let (measured, _) = engine_seconds(&engine, &wc, &assign);
        candidates.push((registry.platform(id).name.clone(), predicted, measured));
    }
    let argmin = |key: fn(&(String, f64, f64)) -> f64| -> String {
        candidates
            .iter()
            .min_by(|a, b| key(a).total_cmp(&key(b)))
            .map(|c| c.0.clone())
            .unwrap_or_default()
    };
    let predicted_best = argmin(|c| c.1);
    let measured_best = argmin(|c| c.2);

    // Report.
    let mut report = Report::new(format_args!(
        "Engine validation: real executor vs analytic simulator vs learned forest \
         ({} workloads)",
        entries.len()
    ));
    report.line("");
    report.line("all-java pool (engine = median-of-3 measured, simulator = noiseless model):");
    report.line(format_args!(
        "{:>18} {:>14} {:>14} {:>12}",
        "workload", "engine s", "simulator s", "output rows"
    ));
    for r in &rows {
        report.line(format_args!(
            "{:>18} {:>14.6} {:>14.6} {:>12}",
            r.name, r.engine_s, r.sim_s, r.output_rows
        ));
    }
    report.line("");
    report.line(format_args!(
        "uniform WordCount candidates (forest trained on {} engine-measured rows):",
        set.len()
    ));
    report.line(format_args!(
        "{:>10} {:>16} {:>14}",
        "platform", "predicted label", "measured s"
    ));
    for (name, predicted, measured) in &candidates {
        report.line(format_args!(
            "{name:>10} {predicted:>16.6} {measured:>14.6}"
        ));
    }

    report.line("");
    report.check(
        "engine output digests byte-identical to the reference at 1/2/4 workers",
        true, // asserted in correctness_gate(); reaching this line means it held
    );
    report.check(
        format_args!("engine-vs-simulator Spearman >= 0.9 over the pool (measured {rho:.3})"),
        rho >= 0.9,
    );
    report.check(
        format_args!(
            "forest trained on engine rows picks the measured WordCount optimum \
             (predicted {predicted_best}, measured {measured_best})"
        ),
        !predicted_best.is_empty() && predicted_best == measured_best,
    );

    report.finish(
        "EXPERIMENTS_OUTPUT/engine_validation.txt",
        "BENCH_engine.json",
        |w| {
            w.key("engine_seed").u64(ENGINE_SEED);
            w.key("spearman").f64(rounded(rho, 6));
            w.key("train_rows").u64(set.len() as u64);
            w.key("predicted_best").str(&predicted_best);
            w.key("measured_best").str(&measured_best);
            w.key("pool").arr(&rows, |w, r| {
                w.obj(|w| {
                    w.key("workload").str(&r.name);
                    w.key("engine_s").f64(rounded(r.engine_s, 6));
                    w.key("sim_s").f64(rounded(r.sim_s, 6));
                    w.key("output_rows").u64(r.output_rows);
                });
            });
            w.key("wordcount_candidates")
                .arr(&candidates, |w, (name, predicted, measured)| {
                    w.obj(|w| {
                        w.key("platform").str(name);
                        w.key("predicted_label").f64(rounded(*predicted, 6));
                        w.key("measured_s").f64(rounded(*measured, 6));
                    });
                });
        },
    );
}
