//! Engine-subsystem integration tests (DESIGN §11):
//!
//! * byte-identity — the multi-threaded engine's terminal record streams
//!   equal the independent single-threaded reference executor's, for every
//!   workload family, for seeded random DAGs and for the hand-built shapes
//!   the take-or-borrow rule could get wrong, across 1/2/4 workers that
//!   really fan out (all-`spark`);
//! * the `ExecutionBackend` seam — the simulator answers bit-identically
//!   through the trait object and through its direct API, and both
//!   backends agree on infeasibility;
//! * the `execute` service verb — digests reported by the facade match a
//!   directly-constructed engine, and the engine escape hatch matches the
//!   service path.

use robopt::{BackendChoice, ExecuteRequest, Optimizer, WorkloadSpec};
use robopt_engine::{digest_terminals, execute_reference, Engine, DEFAULT_MAX_SOURCE_ROWS};
use robopt_plan::{LogicalPlan, Operator, OperatorKind};
use robopt_platforms::{ExecutionBackend, PlatformRegistry, RuntimeSimulator};

const SEED: u64 = 0x0E6E_7E57;

fn workloads() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("wordcount", WorkloadSpec::WordCount { scale: 2.0e4 }),
        ("tpch_q3", WorkloadSpec::TpchQ3 { scale: 1.0e4 }),
        (
            "pagerank",
            WorkloadSpec::PageRank {
                scale: 3.0e3,
                iterations: 4,
            },
        ),
        (
            "kmeans",
            WorkloadSpec::KMeans {
                scale: 3.0e3,
                iterations: 4,
            },
        ),
        (
            "pipeline",
            WorkloadSpec::Pipeline {
                ops: 10,
                scale: 1.0e4,
            },
        ),
    ]
}

/// Run `plan` on the reference executor and on the engine at 1, 2 and 4
/// workers, all-`spark` — java's modeled parallelism is 1, which would make
/// every worker count take the single-chunk path — and require the same
/// terminal records, digest and per-operator row counts everywhere.
/// Returns the per-operator row counts.
fn assert_engine_matches_reference(name: &str, plan: &LogicalPlan, max_rows: u64) -> Vec<u64> {
    let registry = PlatformRegistry::named();
    let spark = registry.by_name("spark");
    let all_spark: Vec<_> = spark.into_iter().cycle().take(plan.n_ops()).collect();
    assert_eq!(all_spark.len(), plan.n_ops(), "named registry has spark");
    let (ref_terminals, ref_digest) = execute_reference(plan, SEED, max_rows);
    assert_eq!(
        digest_terminals(&ref_terminals),
        ref_digest,
        "{name}: reference digest disagrees with its own terminals"
    );
    let mut rows_at_one: Vec<u64> = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = Engine::new(&registry)
            .with_workers(workers)
            .with_seed(SEED)
            .with_max_source_rows(max_rows);
        let out = engine.execute_collect(plan, &all_spark);
        assert!(out.report.feasible, "{name}: all-spark must be feasible");
        assert_eq!(
            out.terminals, ref_terminals,
            "{name}: engine terminals @ {workers} workers != reference"
        );
        assert_eq!(
            out.report.output_digest, ref_digest,
            "{name}: engine digest @ {workers} workers != reference"
        );
        let terminal_rows: u64 = ref_terminals.iter().map(|(_, r)| r.len() as u64).sum();
        assert_eq!(out.report.output_rows, terminal_rows, "{name}: output_rows");
        let rows: Vec<u64> = out.report.per_op.iter().map(|r| r.output_rows).collect();
        for (op, records) in &ref_terminals {
            assert_eq!(
                rows[*op as usize],
                records.len() as u64,
                "{name}: terminal {op}"
            );
        }
        if workers == 1 {
            rows_at_one = rows;
        } else {
            assert_eq!(rows, rows_at_one, "{name}: per-op rows @ {workers} workers");
        }
    }
    rows_at_one
}

#[test]
fn engine_output_is_byte_identical_to_the_reference_across_worker_counts() {
    for (name, spec) in workloads() {
        let plan = spec.build().expect("workload spec builds");
        let rows = assert_engine_matches_reference(name, &plan, DEFAULT_MAX_SOURCE_ROWS);
        // Row counts are taken when an output is produced: a producer whose
        // buffer its consumer took still reports what it made.
        if name == "wordcount" {
            assert_eq!(rows.first(), Some(&20_000), "{name}: source rows");
            assert!(rows.iter().all(|&r| r > 0), "{name}: rows {rows:?}");
        }
    }
}

#[test]
fn random_dags_match_the_reference_at_every_worker_count() {
    // Fan-out, Join / Union / Intersect and Sample: the shapes the five
    // named workloads (chains and trees) never build.
    let mut shared = 0;
    for seed in 0..56u64 {
        let spec = WorkloadSpec::RandomDag {
            seed,
            ops: 6 + (seed as usize * 5) % 9,
            density: 0.2 + 0.1 * (seed % 4) as f64,
        };
        let plan = spec.build().expect("random dag spec builds");
        assert_engine_matches_reference(&format!("{spec:?}"), &plan, 2_000);
        shared += (0..plan.n_ops() as u32)
            .filter(|&op| plan.succs(op).len() > 1)
            .count();
    }
    assert!(shared >= 56, "only {shared} shared outputs in 56 plans");
}

/// A text source of `rows` lines, then `kinds` wired by `edges` (indices
/// into `[source, kinds…]`).
fn hand_built(rows: f64, kinds: &[Operator], edges: &[(u32, u32)]) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    plan.add_op(Operator::source(OperatorKind::TextFileSource, rows));
    for op in kinds {
        plan.add_op(*op);
    }
    for &(from, to) in edges {
        plan.connect(from, to);
    }
    plan.seal();
    plan
}

#[test]
fn shared_doubled_and_unconsumed_outputs_match_the_reference() {
    use OperatorKind::{FlatMap, Join, LocalCallbackSink, Map, RepeatLoop, Sort, Union, ZipWithId};
    let op = Operator::new;
    let rows = |name: &str, plan: &LogicalPlan| assert_engine_matches_reference(name, plan, 2_000);

    // One producer (the FlatMap) feeds a Map, which re-keys in place, and
    // a Sort, which reorders in place: the first must not see the second.
    let fan_out = hand_built(
        1_500.0,
        &[
            op(FlatMap),
            op(Map),
            op(Sort),
            op(Union),
            op(LocalCallbackSink),
        ],
        &[(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
    );
    let r = rows("map and sort share a producer", &fan_out);
    assert_eq!((r[2], r[3], r[4]), (r[1], r[1], 2 * r[1]));

    // The same edge twice: the producer counts two consumers.
    let twice = hand_built(
        1_500.0,
        &[op(Map), op(Union), op(LocalCallbackSink)],
        &[(0, 1), (1, 2), (1, 2), (2, 3)],
    );
    let r = rows("double edge into a union", &twice);
    assert_eq!(r, [1_500, 1_500, 3_000, 3_000]);
    let self_join = hand_built(
        1_500.0,
        &[op(FlatMap), op(Join), op(LocalCallbackSink)],
        &[(0, 1), (1, 2), (1, 2), (2, 3)],
    );
    let r = rows("join of a producer with itself", &self_join);
    assert!(r[2] > 0, "self-join matched nothing: {r:?}");

    // Zero iterations: the loop hands its input on untouched.
    let inert = hand_built(
        1_500.0,
        &[
            op(Map),
            op(RepeatLoop).with_iterations(0),
            op(LocalCallbackSink),
        ],
        &[(0, 1), (1, 2), (2, 3)],
    );
    assert_eq!(rows("inert loop", &inert), [1_500; 4]);

    // A producer read by a sink (which keeps what it is handed) and by
    // another operator (which renumbers it in place) — in both orders.
    for (name, edges) in [
        ("sink first", [(0, 1), (1, 2), (1, 3), (3, 4)]),
        ("sink last", [(0, 1), (1, 3), (1, 2), (3, 4)]),
    ] {
        let tapped = hand_built(
            1_500.0,
            &[
                op(Map),
                op(LocalCallbackSink),
                op(ZipWithId),
                op(LocalCallbackSink),
            ],
            &edges,
        );
        assert_eq!(rows(name, &tapped), [1_500; 5]);
    }

    // Terminals that are not sinks: nobody consumes the Sort or the Map.
    let open_ended = hand_built(1_500.0, &[op(Sort), op(Map)], &[(0, 1), (0, 2)]);
    assert_eq!(rows("terminals without sinks", &open_ended), [1_500; 3]);
}

#[test]
fn backend_trait_object_answers_bit_identically_to_the_direct_simulator() {
    let registry = PlatformRegistry::named();
    let spec = WorkloadSpec::TpchQ3 { scale: 1.0e5 };
    let plan = spec.build().expect("workload spec builds");
    let java = registry.by_name("java").unwrap();
    let spark = registry.by_name("spark").unwrap();
    let mixed: Vec<_> = (0..plan.n_ops())
        .map(|i| if i % 2 == 0 { java } else { spark })
        .collect();
    let sim = RuntimeSimulator::new(&registry, 42).with_noise(0.05);
    let direct = sim.simulate(&plan, &mixed);
    let via_trait: &dyn ExecutionBackend = &sim;
    let report = via_trait.execute(&plan, &mixed);
    assert!(report.feasible);
    assert!(!report.measured, "simulator reports are fully modeled");
    assert_eq!(report.seconds.to_bits(), direct.to_bits());
}

#[test]
fn both_backends_agree_an_unavailable_placement_is_infeasible() {
    let registry = PlatformRegistry::named();
    let plan = WorkloadSpec::WordCount { scale: 1.0e3 }
        .build()
        .expect("workload spec builds");
    // Postgres lacks WordCount's operators (`engine_validation` excludes it
    // from the candidate set for the same reason).
    let postgres = registry.by_name("postgres").unwrap();
    let all_pg = vec![postgres; plan.n_ops()];
    let sim = RuntimeSimulator::new(&registry, 0);
    let engine = Engine::new(&registry);
    for backend in [&sim as &dyn ExecutionBackend, &engine] {
        let report = backend.execute(&plan, &all_pg);
        assert!(!report.feasible, "{}: all-postgres ran", backend.name());
        assert!(report.seconds.is_infinite());
        assert_eq!(report.output_digest, 0);
        assert!(report.per_op.is_empty());
    }
    // The engine (only) also reports a wrong-arity assignment as
    // infeasible instead of panicking — the seam's lenient edge.
    let short = vec![postgres; plan.n_ops() - 1];
    assert!(!engine.execute(&plan, &short).feasible);
}

#[test]
fn execute_verb_digest_matches_a_directly_constructed_engine() {
    let mut opt = Optimizer::new(PlatformRegistry::named());
    let spec = WorkloadSpec::WordCount { scale: 1.0e4 };
    let plan = spec.build().expect("workload spec builds");
    let req = ExecuteRequest::new(spec)
        .with_assignments(vec!["java".into(); plan.n_ops()])
        .with_backend(BackendChoice::Engine { workers: 2 });
    let resp = opt.execute(&req).expect("execute verb succeeds");
    assert!(resp.feasible && resp.measured);

    // The escape hatch (DESIGN §11) must reproduce the service path's
    // data artifacts exactly; only its timings may differ run to run.
    let registry = PlatformRegistry::named();
    let java = registry.by_name("java").unwrap();
    let hatch = opt.engine(2);
    let report = hatch.execute(&plan, &vec![java; plan.n_ops()]);
    assert_eq!(resp.output_digest, report.output_digest);
    assert_eq!(resp.output_rows, report.output_rows);
    assert_eq!(resp.op_output_rows.len(), plan.n_ops());
}
