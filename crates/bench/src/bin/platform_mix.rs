//! Platform mix: genuine cross-platform plans over the named five-platform
//! registry (Java streams, Spark, Flink, Postgres, Giraph). A repo-original
//! experiment in the spirit of the paper's cross-platform claim — not its
//! Fig 2.
//!
//! Each workload goes through [`robopt::Optimizer::compare`] — the
//! experiment as a service verb: optimize over [`robopt_platforms::PlatformRegistry::named`]
//! (availability masking keeps operators off platforms that cannot execute
//! them, the conversion graph prices every switch), then pit the mixed
//! winner against every *feasible* single-platform plan under oracle cost
//! and the deterministic runtime simulator. The headline check is that on
//! at least one workload the mixed plan strictly beats them all (the
//! paper's core cross-platform claim).
//! Writes `EXPERIMENTS_OUTPUT/platform_mix.txt` and
//! `BENCH_platform_mix.json` at the repository root.

use robopt::{CompareRequest, CompareResponse, ExecutionPolicy, Optimizer, WorkloadSpec};
use robopt_bench::{rounded, Report};

const SIM_SEED: u64 = 42;

struct Row {
    task: &'static str,
    cmp: CompareResponse,
}

impl Row {
    fn ops(&self) -> usize {
        self.cmp.mixed.assignments.len()
    }

    fn beats_every_single(&self) -> bool {
        self.cmp.mixed.distinct_platforms >= 2
            && self
                .cmp
                .best_single_cost
                .is_some_and(|best| self.cmp.mixed.cost < best * (1.0 - 1e-9))
    }
}

fn measure(opt: &mut Optimizer, task: &'static str, workload: WorkloadSpec) -> Row {
    let cmp = opt
        .compare(&CompareRequest {
            workload,
            policy: ExecutionPolicy::default(),
            sim_seed: SIM_SEED,
        })
        .expect("compare request");
    Row { task, cmp }
}

fn main() {
    let mut opt = Optimizer::named();
    let rows = vec![
        measure(
            &mut opt,
            "WordCount small (1e5)",
            WorkloadSpec::WordCount { scale: 1e5 },
        ),
        measure(
            &mut opt,
            "WordCount large (1e7)",
            WorkloadSpec::WordCount { scale: 1e7 },
        ),
        measure(
            &mut opt,
            "TPC-H Q3 (1e6)",
            WorkloadSpec::TpchQ3 { scale: 1e6 },
        ),
        measure(
            &mut opt,
            "Synthetic (25 op., 1e6)",
            WorkloadSpec::Pipeline {
                ops: 25,
                scale: 1e6,
            },
        ),
    ];

    let mut report = Report::new(format_args!(
        "Platform mix: cross-platform plans over the named registry ({} platforms)",
        opt.registry().len()
    ));
    for r in &rows {
        report.line("");
        report.line(format_args!(
            "{} [{} operators]  optimum: cost {:.3}, {} platform(s) ({}), simulated {:.2}s",
            r.task,
            r.ops(),
            r.cmp.mixed.cost,
            r.cmp.mixed.distinct_platforms,
            r.cmp.mix,
            r.cmp.mixed_sim_seconds
        ));
        for s in &r.cmp.singles {
            match (s.cost, s.sim_seconds) {
                (Some(c), Some(t)) => {
                    report.line(format_args!(
                        "  all-{:<9} cost {:>12.3}  simulated {:>10.2}s{}",
                        s.platform,
                        c,
                        t,
                        if r.cmp.mixed.cost < c * (1.0 - 1e-9) {
                            "  (mixed wins)"
                        } else {
                            ""
                        }
                    ));
                }
                _ => {
                    report.line(format_args!(
                        "  all-{:<9} infeasible (availability matrix)",
                        s.platform
                    ));
                }
            }
        }
    }

    let winners: Vec<&Row> = rows.iter().filter(|r| r.beats_every_single()).collect();
    report.line("");
    report.check_noted(
        "mixed plan strictly beats every feasible single platform on >= 1 workload",
        !winners.is_empty(),
        format_args!("{} of {} workloads", winners.len(), rows.len()),
    );
    for r in &winners {
        let best = r.cmp.best_single_cost.unwrap();
        report.line(format_args!(
            "  {}: mixed {:.3} vs best single {:.3} ({:.1}% cheaper, mix {})",
            r.task,
            r.cmp.mixed.cost,
            best,
            100.0 * (1.0 - r.cmp.mixed.cost / best),
            r.cmp.mix
        ));
    }
    let sane = rows.iter().all(|r| {
        r.cmp
            .best_single_cost
            .is_none_or(|best| r.cmp.mixed.cost <= best * (1.0 + 1e-9))
    });
    report.check(
        "enumerated optimum never worse than any single platform",
        sane,
    );

    report.finish(
        "EXPERIMENTS_OUTPUT/platform_mix.txt",
        "BENCH_platform_mix.json",
        |w| {
            w.key("platforms").u64(opt.registry().len() as u64);
            w.key("sim_seed").u64(SIM_SEED);
            w.key("entries").arr(&rows, |w, r| {
                w.obj(|w| {
                    w.key("task").str(r.task);
                    w.key("ops").u64(r.ops() as u64);
                    w.key("mixed_cost").f64(rounded(r.cmp.mixed.cost, 6));
                    w.key("distinct_platforms")
                        .u64(r.cmp.mixed.distinct_platforms as u64);
                    w.key("mix").str(&r.cmp.mix);
                    w.key("mixed_sim_s")
                        .f64(rounded(r.cmp.mixed_sim_seconds, 6));
                    w.key("singles").obj(|w| {
                        for s in &r.cmp.singles {
                            // An infeasible single has no cost: `null`.
                            let cost = s.cost.map_or(f64::NAN, |c| rounded(c, 6));
                            w.key(&s.platform).f64(cost);
                        }
                    });
                });
            });
        },
    );
}
