//! Service throughput: requests/second through the [`robopt::Optimizer`]
//! facade on a repeat-heavy request stream, with and without the
//! plan-signature cache, at 1/2/4/8 workers — ISSUE 7's service benchmark.
//!
//! Two phases:
//!
//! 1. **Correctness gate** (before any timing): for representative
//!    workloads the cached response is asserted bit-identical (the
//!    [`robopt::OptimizeResponse`] `PartialEq` compares cost *bits*) to
//!    both the cold response that seeded it and a recompute on a
//!    cache-disabled facade; and workers 1 vs 4 (hardware clamp off,
//!    cache off) produce bit-identical responses — the split driver's
//!    determinism contract that lets the cache key ignore `workers`.
//! 2. **Stream throughput** — a seeded Zipf-ish stream (`idx ∝ r²` over a
//!    light-to-heavy workload pool, so repeats are frequent and heavy
//!    plans rare) is replayed through cache-on and cache-off facades per
//!    worker count. The cache-on hit rate must reach ≥ 0.5 (it lands near
//!    1.0: the pool is tiny relative to the stream) and at one worker the
//!    cache must lift stream throughput ≥ 1.2× over cold replay.
//!
//! Writes `EXPERIMENTS_OUTPUT/fig_service_throughput.txt` and
//! `BENCH_service.json` (shared schema: `<prefix>_ms`, `<prefix>_p95_ms`,
//! `<prefix>_per_s`) at the repository root.

use std::fmt::Write as _;
use std::fs;

use robopt::{CacheStats, ExecutionPolicy, OptimizeRequest, Optimizer, WorkloadSpec};
use robopt_bench::{bench, repo_root};
use robopt_plan::SplitMix64;

const STREAM_SEED: u64 = 0x5e41_ce5d;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Light-to-heavy workload pool. The Zipf-ish index bias (`idx ∝ r²`)
/// makes low indices frequent, so ordering light → heavy keeps cold
/// replay affordable while still exercising big plans.
fn pool() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::WordCount { scale: 1e5 },
        WorkloadSpec::WordCount { scale: 1e7 },
        WorkloadSpec::TpchQ3 { scale: 1e5 },
        WorkloadSpec::TpchQ3 { scale: 1e6 },
        WorkloadSpec::Pipeline {
            ops: 12,
            scale: 1e5,
        },
        WorkloadSpec::RandomDag {
            seed: 7,
            ops: 10,
            density: 0.3,
        },
        WorkloadSpec::Pipeline {
            ops: 16,
            scale: 1e6,
        },
        WorkloadSpec::RandomDag {
            seed: 11,
            ops: 14,
            density: 0.5,
        },
        WorkloadSpec::Pipeline {
            ops: 24,
            scale: 1e5,
        },
        WorkloadSpec::Pipeline {
            ops: 32,
            scale: 1e6,
        },
        WorkloadSpec::Pipeline {
            ops: 48,
            scale: 1e5,
        },
        WorkloadSpec::Pipeline {
            ops: 64,
            scale: 1e6,
        },
    ]
}

/// Seeded Zipf-ish stream of pool indices: squaring the uniform draw
/// biases toward index 0, so a handful of workloads dominate — the
/// repeat-heavy profile a memoizing service actually sees.
fn stream_indices(pool_len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let r = rng.next_f64();
            (((pool_len as f64) * r * r) as usize).min(pool_len - 1)
        })
        .collect()
}

struct StreamEntry {
    workers: usize,
    stream_ms: f64,
    stream_p95_ms: f64,
    requests_per_s: f64,
    cache: Option<CacheStats>,
}

/// Replay the request stream through one facade; returns the timing plus
/// the final cache counters.
fn stream_throughput(
    specs: &[WorkloadSpec],
    idxs: &[usize],
    workers: usize,
    cache_on: bool,
    warmup: usize,
    iters: usize,
) -> StreamEntry {
    let mut opt = Optimizer::named();
    opt.set_cache_enabled(cache_on);
    let policy = ExecutionPolicy::default().with_workers(workers);
    let reqs: Vec<OptimizeRequest> = idxs
        .iter()
        .map(|&i| OptimizeRequest::new(specs[i]).with_policy(policy))
        .collect();
    let t = bench(warmup, iters, || {
        for req in &reqs {
            let resp = opt.optimize(req).expect("stream optimize");
            std::hint::black_box(resp.cost);
        }
    });
    StreamEntry {
        workers,
        stream_ms: t.median_ms(),
        stream_p95_ms: t.p95_ms(),
        requests_per_s: t.per_second(idxs.len()),
        cache: cache_on.then(|| opt.cache_stats()),
    }
}

/// Phase 1: assert the cache and worker-count bit-identity contracts on
/// `specs` before any timing. Panics (exit ≠ 0) on violation.
fn correctness_gate(specs: &[WorkloadSpec]) {
    for &spec in specs {
        let req = OptimizeRequest::new(spec);
        let mut warm = Optimizer::named();
        let cold = warm.optimize(&req).expect("cold optimize");
        let cached = warm.optimize(&req).expect("cached optimize");
        assert_eq!(
            cold, cached,
            "{}: cached response not bit-identical to the cold one",
            cold.workload
        );
        assert!(
            warm.cache_stats().hits >= 1,
            "{}: second identical request missed the cache",
            cold.workload
        );
        let mut off = Optimizer::named();
        off.set_cache_enabled(false);
        let recomputed = off.optimize(&req).expect("cache-off optimize");
        assert_eq!(
            cold, recomputed,
            "{}: cache-off recompute diverged from the cached bytes",
            cold.workload
        );
    }
    // Worker counts share one cache line: 1 vs 4 workers (clamp off so
    // real threads spawn even on small hosts) must be bit-identical.
    for &spec in specs.iter().take(2) {
        let mut one = Optimizer::named();
        one.set_cache_enabled(false);
        let mut four = Optimizer::named();
        four.set_cache_enabled(false);
        let base = ExecutionPolicy::default().with_hardware_clamp(false);
        let a = one
            .optimize(&OptimizeRequest::new(spec).with_policy(base.with_workers(1)))
            .expect("1-worker optimize");
        let b = four
            .optimize(&OptimizeRequest::new(spec).with_policy(base.with_workers(4)))
            .expect("4-worker optimize");
        assert_eq!(
            a, b,
            "{}: worker count changed the response — cache key exclusion unsound",
            a.workload
        );
    }
}

fn main() {
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (stream_n, warmup, iters) = (400, 1, 5);

    let specs = pool();
    let idxs = stream_indices(specs.len(), stream_n, STREAM_SEED);
    let mut distinct: Vec<usize> = idxs.clone();
    distinct.sort_unstable();
    distinct.dedup();

    // Phase 1 — correctness before any clock starts.
    correctness_gate(&specs);

    // Phase 2 — stream throughput, cache on and off, per worker count.
    let cache_on: Vec<StreamEntry> = WORKER_SWEEP
        .iter()
        .map(|&w| stream_throughput(&specs, &idxs, w, true, warmup, iters))
        .collect();
    let cache_off: Vec<StreamEntry> = WORKER_SWEEP
        .iter()
        .map(|&w| stream_throughput(&specs, &idxs, w, false, warmup, iters))
        .collect();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Service throughput: requests/s through the Optimizer facade \
         ({} workloads, {} requests, {} distinct, {hw_threads} hw threads)",
        specs.len(),
        stream_n,
        distinct.len()
    );
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "{:>7} {:>7} {:>12} {:>12} {:>12} {:>9} {:>7} {:>7}",
        "cache", "workers", "stream ms", "p95 ms", "req/s", "hit rate", "hits", "misses"
    );
    for e in cache_on.iter().chain(&cache_off) {
        match &e.cache {
            Some(c) => {
                let _ = writeln!(
                    report,
                    "{:>7} {:>7} {:>12.4} {:>12.4} {:>12.0} {:>9.3} {:>7} {:>7}",
                    "on",
                    e.workers,
                    e.stream_ms,
                    e.stream_p95_ms,
                    e.requests_per_s,
                    c.hit_rate(),
                    c.hits,
                    c.misses
                );
            }
            None => {
                let _ = writeln!(
                    report,
                    "{:>7} {:>7} {:>12.4} {:>12.4} {:>12.0} {:>9} {:>7} {:>7}",
                    "off", e.workers, e.stream_ms, e.stream_p95_ms, e.requests_per_s, "-", "-", "-"
                );
            }
        }
    }

    let mut failed = false;
    let mut check = |report: &mut String, line: String, ok: bool| {
        let _ = writeln!(report, "CHECK {line}: {}", if ok { "PASS" } else { "FAIL" });
        failed |= !ok;
    };

    let _ = writeln!(report);
    check(
        &mut report,
        "cached responses bit-identical to cold (and to cache-off recompute)".to_string(),
        true, // asserted in correctness_gate(); reaching this line means it held
    );
    let min_hit_rate = cache_on
        .iter()
        .filter_map(|e| e.cache.as_ref())
        .map(CacheStats::hit_rate)
        .fold(f64::INFINITY, f64::min);
    check(
        &mut report,
        format!("stream cache hit rate >= 0.5 at every worker count (min {min_hit_rate:.3})"),
        min_hit_rate >= 0.5,
    );
    let lift = cache_on[0].requests_per_s / cache_off[0].requests_per_s;
    check(
        &mut report,
        format!("cache lifts 1-worker stream throughput >= 1.2x (measured {lift:.2}x)"),
        lift >= 1.2,
    );
    print!("{report}");

    let root = repo_root();
    fs::create_dir_all(root.join("EXPERIMENTS_OUTPUT")).expect("create EXPERIMENTS_OUTPUT");
    fs::write(
        root.join("EXPERIMENTS_OUTPUT/fig_service_throughput.txt"),
        &report,
    )
    .expect("write fig_service_throughput report");

    // Hand-rendered JSON (offline environment: no serde_json).
    let mut json = String::from("{\n  \"experiment\": \"fig_service_throughput\",\n");
    let _ = writeln!(json, "  \"hw_threads\": {hw_threads},");
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(
        json,
        "  \"stream\": {{\"seed\": {STREAM_SEED}, \"requests\": {stream_n}, \
         \"pool\": {}, \"distinct\": {}}},",
        specs.len(),
        distinct.len()
    );
    json.push_str("  \"cache_on\": [\n");
    for (i, e) in cache_on.iter().enumerate() {
        let c = e.cache.as_ref().expect("cache-on entry has counters");
        let _ = write!(
            json,
            "    {{\"workers\": {}, \"stream_ms\": {:.6}, \"stream_p95_ms\": {:.6}, \
             \"stream_per_s\": {:.3}, \"hit_rate\": {:.6}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}}}",
            e.workers,
            e.stream_ms,
            e.stream_p95_ms,
            e.requests_per_s,
            c.hit_rate(),
            c.hits,
            c.misses,
            c.evictions
        );
        json.push_str(if i + 1 < cache_on.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"cache_off\": [\n");
    for (i, e) in cache_off.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workers\": {}, \"stream_ms\": {:.6}, \"stream_p95_ms\": {:.6}, \
             \"stream_per_s\": {:.3}}}",
            e.workers, e.stream_ms, e.stream_p95_ms, e.requests_per_s
        );
        json.push_str(if i + 1 < cache_off.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    fs::write(root.join("BENCH_service.json"), json).expect("write BENCH_service.json");

    if failed {
        eprintln!("fig_service_throughput acceptance checks FAILED");
        std::process::exit(1);
    }
}
