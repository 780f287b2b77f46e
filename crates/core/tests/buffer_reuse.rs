//! Zero-allocation guarantee of the hot path (DESIGN §5, acceptance
//! criterion): after **one** warm-up run, `merge`/`prune` perform no
//! `EnumMatrix` buffer growth — every candidate subplan is written into
//! pooled, pre-reserved flat buffers, and the pool that first run leaves
//! behind is the pool every later run needs.
//!
//! Single test in its own binary: `robopt_vector::alloc_events` is a
//! process-global counter, so it must not race with unrelated tests.

use robopt_core::{
    AnalyticOracle, EnumOptions, Enumerator, ExecutionPlan, ParallelEnumerator, SplitOptions,
};
use robopt_plan::{workloads, N_OPERATOR_KINDS};
use robopt_platforms::PlatformRegistry;
use robopt_vector::FeatureLayout;

/// One warm-up run of `enumerate`, then `runs` more that must not grow a
/// matrix buffer and must keep answering what the cold run answered.
fn settles_after_one_run(
    what: &str,
    runs: usize,
    mut enumerate: impl FnMut() -> ExecutionPlan,
) -> ExecutionPlan {
    // Pool matrices are picked best-fit and a miss starts a fresh matrix
    // instead of growing a pooled one, so one run is the whole warm-up.
    let cold = enumerate();
    for run in 2..=runs + 1 {
        let before = robopt_vector::alloc_events();
        let warm = enumerate();
        let grown = robopt_vector::alloc_events() - before;
        assert_eq!(
            grown, 0,
            "{what}: run {run} grew EnumMatrix buffers {grown} times — \
             per-subplan allocation has crept back in"
        );
        assert_eq!(cold, warm, "{what}: reused buffers changed the optimum");
    }
    cold
}

#[test]
fn warmed_enumerator_performs_no_matrix_allocation() {
    let plan = workloads::synthetic_pipeline(40, 1e5);
    let registry = PlatformRegistry::uniform(2);
    let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
    let oracle = AnalyticOracle::for_registry(&registry, &layout);
    let opts = EnumOptions::new(&registry).with_oracle(&oracle);

    let mut enumerator = Enumerator::new();
    let serial = settles_after_one_run("serial", 5, || {
        let (exec, stats) = enumerator.enumerate(&plan, &layout, opts);
        assert!(stats.generated > 0);
        exec
    });

    // Split-parallel path: each part enumerator and the seam merger own
    // their own pools, so the guarantee extends across threads — after
    // warm-up, a parallel run grows nothing either. Clamp off so worker
    // threads really run even on a single-core host (the counter is a
    // process-global relaxed atomic; any cross-thread growth would show).
    let mut parallel = ParallelEnumerator::new(2)
        .with_split(SplitOptions::new(4))
        .with_hardware_clamp(false);
    let split = settles_after_one_run("split", 5, || {
        let (exec, stats) = parallel.enumerate(&plan, &layout, opts);
        assert!(stats.generated > 0);
        exec
    });
    assert_eq!(
        split.cost.to_bits(),
        serial.cost.to_bits(),
        "split-parallel and serial disagree on the canonical cost"
    );

    // The benchmark's `scale_wide` shape: 128 operators, 8 platforms, the
    // default 8-part split. A 16-operator part keeps 16 eight-row singleton
    // matrices and two 64-row units alive at once; a pool that hands a
    // seed the first matrix that fits, and grows a small one on a miss,
    // grew 18 buffers on every run until every matrix held 64 rows.
    let wide_plan = workloads::synthetic_pipeline(128, 1e5);
    let registry = PlatformRegistry::uniform(8);
    let layout = FeatureLayout::new(8, N_OPERATOR_KINDS);
    let oracle = AnalyticOracle::for_registry(&registry, &layout);
    let opts = EnumOptions::new(&registry).with_oracle(&oracle);
    let mut parallel = ParallelEnumerator::new(1).with_split(SplitOptions::new(8));
    settles_after_one_run("wide split", 19, || {
        parallel.enumerate(&wide_plan, &layout, opts).0
    });
    let mut enumerator = Enumerator::new();
    settles_after_one_run("wide serial", 19, || {
        enumerator.enumerate(&wide_plan, &layout, opts).0
    });

    // Sanity: the counter does observe genuine growth.
    let mut m = robopt_vector::EnumMatrix::new();
    m.reset(8, 4);
    let pre = robopt_vector::alloc_events();
    m.reserve_rows(1024);
    assert!(robopt_vector::alloc_events() > pre);
}
