//! Fig 1: improvement factor of vector-based over traditional
//! (object-graph) enumeration with an ML-style cost model, 2 platforms.
//!
//! Both enumerators run the same search (one merge order,
//! [`robopt_core::MergeOrder`], and Def-2 pruning) against the same analytic
//! [`robopt_core::CostOracle`]; only the subplan representation differs,
//! so the measured gap isolates the vectorization benefit. The vector side
//! goes through the [`robopt::Optimizer`] facade (cache disabled, one split
//! part — the serial path); the object-graph foil predates the request API
//! and takes its raw options from [`robopt::Optimizer::enum_options`], the
//! sanctioned escape hatch. Writes `EXPERIMENTS_OUTPUT/fig01_vector_benefit.txt`
//! and `BENCH_enumeration.json` at the repository root.

use robopt::{ExecutionPolicy, OptimizeRequest, Optimizer, WorkloadSpec};
use robopt_baselines::ObjectEnumerator;
use robopt_bench::{bench, rounded, Report};
use robopt_platforms::PlatformRegistry;

const PLATFORMS: usize = 2;
const WARMUP: usize = 20;
const ITERS: usize = 101;

struct Row {
    task: &'static str,
    ops: usize,
    vector_ms: f64,
    vector_p95_ms: f64,
    vector_per_s: f64,
    object_ms: f64,
    object_p95_ms: f64,
    object_per_s: f64,
}

impl Row {
    fn improvement(&self) -> f64 {
        self.object_ms / self.vector_ms
    }
}

fn measure(task: &'static str, spec: WorkloadSpec) -> Row {
    let mut opt = Optimizer::new(PlatformRegistry::uniform(PLATFORMS));
    // Timing a memoized replay would measure the cache, not enumeration.
    opt.set_cache_capacity(0);
    let req =
        OptimizeRequest::new(spec).with_policy(ExecutionPolicy::default().with_split_parts(1));

    let cold = opt.optimize(&req).expect("vector optimize");
    let (vector_cost, ops) = (cold.cost, cold.assignments.len());
    let vector_t = bench(WARMUP, ITERS, || {
        let resp = opt.optimize(&req).expect("vector optimize");
        std::hint::black_box(resp.cost);
    });

    let plan = spec.build().expect("workload spec builds");
    let mut object_enum = ObjectEnumerator::new();
    let object_cost = object_enum
        .enumerate(&plan, opt.layout(), opt.enum_options())
        .0
        .cost;
    let object_t = bench(WARMUP, ITERS, || {
        let (exec, _) = object_enum.enumerate(&plan, opt.layout(), opt.enum_options());
        std::hint::black_box(exec.cost);
    });

    // Both quote their winner through `ExecutionPlan::quote`: the same plan
    // reads the same cost bits.
    assert!(
        vector_cost.to_bits() == object_cost.to_bits(),
        "{task}: enumerators disagree (vector {vector_cost} vs object {object_cost}) — \
         the comparison would not isolate representation"
    );

    Row {
        task,
        ops,
        vector_ms: vector_t.median_ms(),
        vector_p95_ms: vector_t.p95_ms(),
        vector_per_s: vector_t.per_second(1),
        object_ms: object_t.median_ms(),
        object_p95_ms: object_t.p95_ms(),
        object_per_s: object_t.per_second(1),
    }
}

fn main() {
    let rows = vec![
        measure("WordCount (6 op.)", WorkloadSpec::WordCount { scale: 1e5 }),
        measure("TPC-H Q3 (17 op.)", WorkloadSpec::TpchQ3 { scale: 1e5 }),
        measure(
            "Synthetic (25 op.)",
            WorkloadSpec::Pipeline {
                ops: 25,
                scale: 1e5,
            },
        ),
        measure(
            "Synthetic (40 op.)",
            WorkloadSpec::Pipeline {
                ops: 40,
                scale: 1e5,
            },
        ),
    ];

    let mut report = Report::new(format_args!(
        "Fig 1: vector-based vs traditional (object-based) ML enumeration, {PLATFORMS} platforms"
    ));
    report.line(format_args!(
        "{:<22} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "task", "vector ms", "vec p95", "object ms", "obj p95", "improvement"
    ));
    for r in &rows {
        report.line(format_args!(
            "{:<22} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>11.1}x",
            r.task,
            r.vector_ms,
            r.vector_p95_ms,
            r.object_ms,
            r.object_p95_ms,
            r.improvement()
        ));
    }

    let at_scale = rows.iter().filter(|r| r.ops >= 17);
    let min_factor_at_scale = at_scale.map(Row::improvement).fold(f64::INFINITY, f64::min);
    let (first, last) = (rows[0].improvement(), rows[rows.len() - 1].improvement());
    report.line("");
    report.check_noted(
        "vector >= 2x at >= 17 operators",
        min_factor_at_scale >= 2.0,
        format_args!("min factor {min_factor_at_scale:.2}x"),
    );
    report.check(
        format_args!(
            "improvement grows with operator count ({first:.1}x @ 6 op -> {last:.1}x @ 40 op)"
        ),
        last > first,
    );
    report.line("paper shape: improvement factor grows with operator count (~2x -> ~8x)");

    report.finish(
        "EXPERIMENTS_OUTPUT/fig01_vector_benefit.txt",
        "BENCH_enumeration.json",
        |w| {
            w.key("platforms").u64(PLATFORMS as u64);
            w.key("iters").u64(ITERS as u64);
            w.key("entries").arr(&rows, |w, r| {
                w.obj(|w| {
                    w.key("task").str(r.task);
                    w.key("ops").u64(r.ops as u64);
                    w.key("vector_ms").f64(rounded(r.vector_ms, 6));
                    w.key("vector_p95_ms").f64(rounded(r.vector_p95_ms, 6));
                    w.key("vector_per_s").f64(rounded(r.vector_per_s, 3));
                    w.key("object_ms").f64(rounded(r.object_ms, 6));
                    w.key("object_p95_ms").f64(rounded(r.object_p95_ms, 6));
                    w.key("object_per_s").f64(rounded(r.object_per_s, 3));
                    w.key("improvement").f64(rounded(r.improvement(), 3));
                });
            });
        },
    );
}
