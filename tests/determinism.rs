//! Cross-process determinism: a seeded run is a pure function of the seed.
//!
//! The enumeration path holds no per-process randomness (the
//! FootprintTable migration removed the last `HashMap` visit-order
//! dependence), so the digest of everything observable through the
//! service facade — chosen assignments, cost bits, enumeration stats,
//! object-baseline costs, and seeded forest predictions — must be
//! byte-identical across two child processes of the same binary, and
//! match the in-process digest.
//!
//! The digest is computed through [`robopt::Optimizer`] requests (ISSUE 7:
//! raw `EnumOptions` wiring stays inside `robopt_core`), and every case is
//! answered three times — cache-on cold, cache-on hit, cache-off
//! recompute — with all three responses asserted bit-identical before
//! they feed the digest: memoization must never be observable in the
//! bytes, only in the latency.

#![expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "the test re-executes its own binary and tells the child apart by an env var it sets itself; the digest helper runs only under #[test]"
)]

use std::process::Command;

use robopt::{ExecutionPolicy, OptimizeRequest, Optimizer, RiskPolicy, WorkloadSpec};
use robopt_baselines::ObjectEnumerator;
use robopt_engine::Engine;
use robopt_ml::{simulator_training_set, ForestConfig, RandomForest, SamplerConfig};
use robopt_plan::{SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::{ExecutionBackend, PlatformRegistry};
use robopt_vector::FeatureLayout;

const CHILD_ENV: &str = "ROBOPT_DETERMINISM_CHILD";

fn mix(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27);
}

fn mix_response(h: &mut u64, resp: &robopt::OptimizeResponse) {
    for name in &resp.assignments {
        for b in name.bytes() {
            mix(h, b as u64);
        }
    }
    mix(h, resp.signature);
    mix(h, resp.cost.to_bits());
    mix(h, resp.stats.generated);
    mix(h, resp.stats.kept);
    mix(h, resp.stats.merges);
    mix(h, resp.stats.peak_rows);
}

/// Digest every observable output of a fixed-seed optimizer run.
fn seeded_run_digest() -> u64 {
    let mut h = 0xD1657_u64;

    // Facade enumeration over random connected DAGs: serial (one split
    // part), split-parallel (clamp off: real scoped threads even on a
    // single-core host), and the object-graph baseline via the raw-options
    // escape hatch.
    let mut rng = SplitMix64::new(0xDE7E_4213);
    let mut object_enum = ObjectEnumerator::new();
    for _ in 0..12 {
        let n = 3 + rng.gen_range(6); // 3..=8 operators
        let k = 2 + rng.gen_range(3); // 2..=4 platforms
        let spec = WorkloadSpec::RandomDag {
            seed: rng.next_u64(),
            ops: n,
            density: 0.4,
        };
        let serial_req = OptimizeRequest::new(spec).with_policy(
            ExecutionPolicy::default()
                .with_workers(1)
                .with_split_parts(1),
        );
        let par_req = OptimizeRequest::new(spec).with_policy(
            ExecutionPolicy::default()
                .with_workers(2)
                .with_split_parts(3)
                .with_hardware_clamp(false),
        );

        // Three answers per request — cold, memoized, and recomputed with
        // the cache disabled — must be bit-identical before digesting.
        let mut warm = Optimizer::new(PlatformRegistry::uniform(k));
        let mut cold = Optimizer::new(PlatformRegistry::uniform(k));
        cold.set_cache_enabled(false);
        let best = warm.optimize(&serial_req).expect("serial optimize");
        let hit = warm.optimize(&serial_req).expect("memoized optimize");
        let recomputed = cold.optimize(&serial_req).expect("cache-off optimize");
        assert_eq!(best, hit, "cache hit changed the response bytes");
        assert_eq!(best, recomputed, "cache-off recompute diverged");
        mix_response(&mut h, &best);

        // ISSUE 9 parity contract: spelling out ExpectedCost must be
        // bit-identical to the unlabelled request — same cache line, same
        // cost bits, same uncertainty fields (the distributional seam's
        // degenerate point path is the classic path).
        let explicit = cold
            .optimize(&serial_req.with_risk(RiskPolicy::ExpectedCost))
            .expect("explicit expected-cost optimize");
        assert_eq!(best, explicit, "ExpectedCost diverged from the default");
        assert_eq!(best.cost.to_bits(), explicit.cost.to_bits());

        // Split-parallel: same winner, same canonical cost bits as serial
        // (merge trees differ, so EnumStats legitimately may not).
        let par = warm.optimize(&par_req).expect("parallel optimize");
        assert_eq!(par.assignments, best.assignments, "parallel vs serial");
        assert_eq!(par.cost.to_bits(), best.cost.to_bits());
        mix_response(&mut h, &par);

        // Object-graph baseline through the escape hatch.
        let plan = spec.build().expect("workload spec builds");
        let object = object_enum.enumerate(&plan, warm.layout(), warm.enum_options());
        mix(&mut h, object.cost.to_bits());
        for &p in &object.raw_assignments() {
            mix(&mut h, p as u64);
        }
    }

    // Seeded forest training (thread-parallel bagging) + inference.
    let registry = PlatformRegistry::named();
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    let cfg = SamplerConfig::new().with_seed(41).with_noise(0.05);
    let train = simulator_training_set(&registry, &layout, &cfg, 120);
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        train.rows_view(),
        &train.labels,
    );
    let probe = simulator_training_set(
        &registry,
        &layout,
        &SamplerConfig::new().with_seed(42).with_noise(0.0),
        24,
    );
    let rows = probe.rows_view();
    for r in 0..rows.rows() {
        mix(&mut h, forest.predict(rows.row(r)).to_bits());
    }

    // Real engine runs (ISSUE 8): output digests and cardinalities are
    // contractually pure functions of (plan, seed, row cap) — worker count
    // must not appear in the bytes, so different counts per workload feed
    // the same digest stream. Timings are measured and never digested.
    let java = registry.by_name("java").expect("named registry has java");
    for (spec, workers) in [
        (WorkloadSpec::WordCount { scale: 1.0e4 }, 1usize),
        (WorkloadSpec::TpchQ3 { scale: 5.0e3 }, 2),
        (
            WorkloadSpec::PageRank {
                scale: 2.0e3,
                iterations: 3,
            },
            3,
        ),
        (
            WorkloadSpec::KMeans {
                scale: 2.0e3,
                iterations: 3,
            },
            4,
        ),
    ] {
        let plan = spec.build().expect("workload spec builds");
        let engine = Engine::new(&registry)
            .with_workers(workers)
            .with_seed(0x00D1_6E57);
        let report = engine.execute(&plan, &vec![java; plan.n_ops()]);
        assert!(report.feasible, "all-java engine run must be feasible");
        mix(&mut h, report.output_digest);
        mix(&mut h, report.output_rows);
        for op in &report.per_op {
            mix(&mut h, op.output_rows);
        }
    }
    h
}

#[test]
fn seeded_run_is_byte_identical_across_processes() {
    if std::env::var_os(CHILD_ENV).is_some() {
        // Child mode: print the digest for the parent and stop.
        println!("DIGEST={:016x}", seeded_run_digest());
        return;
    }

    let exe = std::env::current_exe().expect("test binary path");
    let child_digest = || {
        let out = Command::new(&exe)
            .args([
                "--exact",
                "seeded_run_is_byte_identical_across_processes",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD_ENV, "1")
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "child run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The libtest harness prints "test <name> ... " before the test's
        // own output, so the marker is not line-initial.
        String::from_utf8_lossy(&out.stdout)
            .split_once("DIGEST=")
            .map(|(_, rest)| {
                rest.chars()
                    .take_while(char::is_ascii_hexdigit)
                    .collect::<String>()
            })
            .expect("child printed a digest")
    };

    let first = child_digest();
    let second = child_digest();
    assert_eq!(
        first, second,
        "two processes of the same binary disagree on a seeded run"
    );
    assert_eq!(
        first,
        format!("{:016x}", seeded_run_digest()),
        "in-process digest disagrees with child processes"
    );
}
