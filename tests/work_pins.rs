//! Work pins: the enumeration counters (`EnumStats`) of the benchmark's
//! cache-off workloads, summed over one pass through `Optimizer::optimize`
//! at the default policy. Staged rows, kept rows, merges and the peak unit
//! are exact counts that no host's speed moves, so a change to how the
//! search prunes, orders or splits its merges shows here in one run,
//! where a timed benchmark needs ten alternated pairs.

use robopt::{OptimizeRequest, Optimizer, WorkloadSpec};
use robopt_core::EnumStats;
use robopt_platforms::PlatformRegistry;

/// The summed counters of one cache-off pass of `specs` through a facade
/// over `registry`, or the first refusal.
fn pass(registry: PlatformRegistry, specs: &[WorkloadSpec]) -> Result<EnumStats, String> {
    let mut optimizer = Optimizer::new(registry);
    optimizer.set_cache_enabled(false);
    let mut total = EnumStats::default();
    for &spec in specs {
        let resp = optimizer
            .optimize(&OptimizeRequest::new(spec))
            .map_err(|e| format!("{spec:?}: {e}"))?;
        total.absorb(&resp.stats);
    }
    Ok(total)
}

/// The fifteen specs of `cold_analytic`'s pool on the named registry,
/// under the default analytic oracle.
#[test]
fn the_cold_pool_stages_and_keeps_pinned_rows() {
    let pipeline = |ops, scale| WorkloadSpec::Pipeline { ops, scale };
    let pool = [
        WorkloadSpec::WordCount { scale: 1e5 },
        WorkloadSpec::WordCount { scale: 1e7 },
        WorkloadSpec::TpchQ3 { scale: 1e5 },
        WorkloadSpec::TpchQ3 { scale: 1e6 },
        pipeline(8, 1e6),
        pipeline(12, 1e5),
        WorkloadSpec::RandomDag {
            seed: 7,
            ops: 10,
            density: 0.3,
        },
        pipeline(16, 1e6),
        WorkloadSpec::RandomDag {
            seed: 11,
            ops: 14,
            density: 0.5,
        },
        pipeline(24, 1e5),
        pipeline(32, 1e6),
        pipeline(48, 1e5),
        pipeline(64, 1e6),
        WorkloadSpec::PageRank {
            scale: 1e5,
            iterations: 10,
        },
        WorkloadSpec::KMeans {
            scale: 1e5,
            iterations: 10,
        },
    ];
    let want = EnumStats {
        generated: 19_810,
        kept: 4_668,
        merges: 271,
        peak_rows: 100,
    };
    assert_eq!(pass(PlatformRegistry::named(), &pool), Ok(want));
}

/// `scale_wide`'s requests: Pipeline-128 on `uniform(2)`, `uniform(5)`
/// and `uniform(8)`, summed.
#[test]
fn pipeline_128_on_the_wide_trio_stages_and_keeps_pinned_rows() {
    let spec = WorkloadSpec::Pipeline {
        ops: 128,
        scale: 1e5,
    };
    let mut total = EnumStats::default();
    for k in [2, 5, 8] {
        total.absorb(&pass(PlatformRegistry::uniform(k), &[spec]).unwrap());
    }
    let want = EnumStats {
        generated: 70_587,
        kept: 11_847,
        merges: 381,
        peak_rows: 64,
    };
    assert_eq!(total, want);
}
