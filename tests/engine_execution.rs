//! Engine-subsystem integration tests (DESIGN §11):
//!
//! * byte-identity — the multi-threaded engine's terminal record streams
//!   and per-operator row counts equal the independent single-threaded
//!   reference executor's, for every workload family, for seeded random
//!   DAGs, for seeded DAGs of narrow chains fused into keyed operators and
//!   for the hand-built shapes the take-or-borrow rule could get wrong,
//!   across 1/2/4 workers, all-`java` and all-`spark` (whose workers
//!   really fan out);
//! * the `ExecutionBackend` seam — the simulator answers bit-identically
//!   through the trait object and through its direct API, and both
//!   backends agree on infeasibility;
//! * the `execute` service verb — digests reported by the facade match a
//!   directly-constructed engine, and the engine escape hatch matches the
//!   service path.

use std::collections::BTreeMap;

use robopt::{BackendChoice, ExecuteRequest, Optimizer, WorkloadSpec};
use robopt_engine::{
    digest_terminals, execute_reference, reference_outputs, Engine, DEFAULT_MAX_SOURCE_ROWS,
};
use robopt_plan::{LogicalPlan, Operator, OperatorKind, SplitMix64};
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
/// workers, all-`java` and all-`spark` — java's modeled parallelism is 1,
/// so only spark makes the worker counts fan out — and require the same
/// terminal records, digest and per-operator row counts everywhere.
/// Returns the per-operator row counts.
fn assert_engine_matches_reference(name: &str, plan: &LogicalPlan, max_rows: u64) -> Vec<u64> {
    let registry = PlatformRegistry::named();
    let (ref_terminals, ref_digest) = execute_reference(plan, SEED, max_rows);
    assert_eq!(
        digest_terminals(&ref_terminals),
        ref_digest,
        "{name}: reference digest disagrees with its own terminals"
    );
    let ref_rows: Vec<u64> = reference_outputs(plan, SEED, max_rows)
        .iter()
        .map(|records| records.len() as u64)
        .collect();
    for platform in ["java", "spark"] {
        let id = registry.by_name(platform);
        let assign: Vec<_> = id.into_iter().cycle().take(plan.n_ops()).collect();
        assert_eq!(assign.len(), plan.n_ops(), "named registry has {platform}");
        for workers in [1usize, 2, 4] {
            let at = format!("{name}: all-{platform} @ {workers} workers");
            let engine = Engine::new(&registry)
                .with_workers(workers)
                .with_seed(SEED)
                .with_max_source_rows(max_rows);
            let out = engine.execute_collect(plan, &assign);
            assert!(out.report.feasible, "{at}: must be feasible");
            assert_eq!(out.terminals, ref_terminals, "{at}: terminals");
            assert_eq!(out.report.output_digest, ref_digest, "{at}: digest");
            let terminal_rows: u64 = ref_terminals.iter().map(|(_, r)| r.len() as u64).sum();
            assert_eq!(out.report.output_rows, terminal_rows, "{at}: output_rows");
            let rows: Vec<u64> = out.report.per_op.iter().map(|r| r.output_rows).collect();
            assert_eq!(rows, ref_rows, "{at}: per-operator rows");
        }
    }
    ref_rows
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

/// What [`chain_dag`] built, for the coverage asserts.
#[derive(Debug, Default)]
struct Shapes {
    /// Chains of at least one narrow operator, by what heads them.
    heads: BTreeMap<String, usize>,
    /// Chains started by a second consumer of an already-read producer.
    borrowed: usize,
    empty_sources: usize,
}

/// A seeded plan of narrow chains (Map, MapPartitions, Filter, Sample,
/// FlatMap) ending in keyed operators (Distinct, ReduceByKey,
/// GroupByKey): each chain starts on a source of any kind (some empty), on
/// a Sort or RepeatLoop over an earlier output, or on a producer another
/// chain already reads; now and then a binary operator joins two open
/// ends, and sinks cap some of them. Generated lines always hold words, so
/// zero-word lines are exercised by `exec.rs`'s stage tests instead.
fn chain_dag(rng: &mut SplitMix64, shapes: &mut Shapes) -> LogicalPlan {
    use OperatorKind::*;
    const SOURCES: [OperatorKind; 3] = [TextFileSource, CollectionSource, TableSource];
    const NARROW: [OperatorKind; 5] = [Map, MapPartitions, Filter, Sample, FlatMap];
    const KEYED: [OperatorKind; 3] = [Distinct, ReduceByKey, GroupByKey];
    const BINARY: [OperatorKind; 3] = [Join, Union, Intersect];
    let mut plan = LogicalPlan::new();
    let mut tips: Vec<u32> = Vec::new();
    for _ in 0..1 + rng.gen_range(3) {
        let rows = [0.0, 1.0, 37.0, 2_000.0, 2_000.0][rng.gen_range(5)];
        shapes.empty_sources += usize::from(rows == 0.0);
        let source = Operator::source(SOURCES[rng.gen_range(SOURCES.len())], rows);
        tips.push(plan.add_op(source));
    }
    // Numeric FlatMaps double the stream: a few per plan keep it small.
    let mut flat_maps = 3;
    for _ in 0..2 + rng.gen_range(4) {
        let mut at = tips[rng.gen_range(tips.len())];
        let head = match rng.gen_range(5) {
            0 => Some(Operator::new(Sort)),
            1 => Some(Operator::new(RepeatLoop).with_iterations(rng.gen_range(3) as u32)),
            _ => None,
        };
        let borrowed = head.is_none() && !plan.succs(at).is_empty();
        if let Some(op) = head {
            let id = plan.add_op(op);
            plan.connect(at, id);
            at = id;
        }
        let head_kind = plan.op(at).kind;
        let narrow = usize::from(borrowed) + rng.gen_range(6);
        for _ in 0..narrow {
            let mut kind = NARROW[rng.gen_range(NARROW.len())];
            if kind == FlatMap {
                if flat_maps == 0 {
                    kind = Map;
                } else {
                    flat_maps -= 1;
                }
            }
            let op = match kind {
                Filter | Sample => Operator::new(kind).with_selectivity(0.2 + 0.6 * rng.next_f64()),
                _ => Operator::new(kind),
            };
            let id = plan.add_op(op);
            plan.connect(at, id);
            at = id;
            // A later chain may branch off here, unfusing this operator.
            if rng.gen_range(4) == 0 {
                tips.push(id);
            }
        }
        let keyed = plan.add_op(Operator::new(KEYED[rng.gen_range(KEYED.len())]));
        plan.connect(at, keyed);
        tips.push(keyed);
        if narrow > 0 {
            *shapes.heads.entry(format!("{head_kind:?}")).or_default() += 1;
            shapes.borrowed += usize::from(borrowed);
        }
    }
    if rng.gen_range(3) == 0 {
        let (a, b) = (
            tips[rng.gen_range(tips.len())],
            tips[rng.gen_range(tips.len())],
        );
        if a != b {
            let id = plan.add_op(Operator::new(BINARY[rng.gen_range(BINARY.len())]));
            plan.connect(a, id);
            plan.connect(b, id);
            tips.push(id);
        }
    }
    for tip in tips {
        if plan.succs(tip).is_empty() && rng.gen_range(2) == 0 {
            let sink = plan.add_op(Operator::new(LocalCallbackSink));
            plan.connect(tip, sink);
        }
    }
    plan.seal();
    plan
}

#[test]
fn chains_fused_into_keyed_operators_match_the_reference() {
    let mut rng = SplitMix64::new(0xF05E);
    let mut shapes = Shapes::default();
    for case in 0..48 {
        let plan = chain_dag(&mut rng, &mut shapes);
        assert_engine_matches_reference(&format!("chain dag {case}"), &plan, 2_000);
    }
    for head in [
        "TextFileSource",
        "CollectionSource",
        "TableSource",
        "Sort",
        "RepeatLoop",
    ] {
        let chains = shapes.heads.get(head).copied().unwrap_or(0);
        assert!(chains >= 10, "{chains} chains headed by {head}: {shapes:?}");
    }
    assert!(shapes.borrowed >= 20, "{shapes:?}");
    assert!(shapes.empty_sources >= 10, "{shapes:?}");
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
    use OperatorKind::{
        Filter, FlatMap, Join, LocalCallbackSink, Map, RepeatLoop, Sample, Sort, Union, ZipWithId,
    };
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

    // A source read only by a Filter or Sample is generated through its
    // coin, a block at a time; here the kept rows go on to two consumers,
    // so nothing further is fused. A coin that keeps every row keeps whole
    // blocks.
    let coin = |kind, selectivity| op(kind).with_selectivity(selectivity);
    for (name, kind, selectivity) in [
        ("through a filter", Filter, 0.4),
        ("through a sample", Sample, 0.4),
        ("through a filter that keeps every row", Filter, 1.0),
    ] {
        let through = hand_built(
            1_500.0,
            &[
                coin(kind, selectivity),
                op(Sort),
                op(Map),
                op(LocalCallbackSink),
            ],
            &[(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
        );
        let r = rows(name, &through);
        assert_eq!(r[0], 1_500, "{name}: {r:?}");
        assert!(0 < r[1] && r[1] <= 1_500, "{name}: {r:?}");
    }
    let empty = hand_built(
        0.0,
        &[coin(Filter, 0.4), op(LocalCallbackSink)],
        &[(0, 1), (1, 2)],
    );
    assert_eq!(rows("empty source through a filter", &empty), [0; 3]);
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
