//! The traced run: per-layer metrics, measured from outside by timing
//! public functions of each layer on the workload's own inputs, plus an
//! in-memory span trace of the benchmark's calls into the layers.
//!
//! For the workloads that enumerate, the benchmark replays the facade's
//! miss path itself — `build` → `ParallelEnumerator::enumerate` over the
//! counting oracle → `vectorize_assignment` → `cost_batch_dist` → response
//! — and asserts the replayed response equals the facade's, so the trace
//! measures the same computation. End-to-end metrics never come from here.
//!
//! A metric of a layer the workload does not exercise reads 0: the oracle
//! is called zero times on `serve_cached`, the engine runs for zero
//! milliseconds on `cold_forest`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

use robopt::{
    forest_from_json, forest_to_json, parse_request, render_response, ExecutionPolicy,
    OptimizeRequest, OptimizeResponse, Optimizer, PlanCache, Request, Response,
};
use robopt_core::vectorize::vectorize_assignment;
use robopt_core::{
    split_plan, CostDistribution, CostOracle, EnumOptions, EnumStats, Enumerator,
    ParallelEnumerator, RiskPolicy, SplitOptions,
};
use robopt_engine::execute_reference;
use robopt_ml::{DistModel, ForestConfig, Model, RandomForest, TrainingSource};
use robopt_plan::{OperatorKind, N_OPERATOR_KINDS};
use robopt_platforms::{ExecutionBackend, PlatformId, PlatformRegistry, RuntimeSimulator};
use robopt_tdgen::{TdgenConfig, TdgenGenerator};
use robopt_vector::{
    alloc_events, footprint_hash, merge::merge_feats_many, FeatureLayout, FootprintTable, RowsView,
};

use crate::gate::{GateReport, SIM_SEED};
use crate::oracle::CountingOracle;
use crate::span::Recorder;
use crate::spec::spec;
use crate::stats::median;
use crate::workloads::{engine_workers, Inputs, System, Workload, FOREST_TRAIN};

/// Passes of each plain (span-free) layer measurement.
const REPS: usize = 5;
/// Rows of the matrices the `vector` kernels are timed on.
const KERNEL_ROWS: usize = 256;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Median over `batches` batches of the mean nanoseconds of one `f()`.
fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn seconds_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Run the traced measurement of one workload. `seconds` bounds the
/// clock-driven loops (paired untraced and traced passes); the layer
/// timings run a fixed number of repetitions.
///
/// Every ratio of two timings is taken between measurements that alternate
/// inside one loop, so a slow spell of the host slows both sides alike.
pub fn run(
    system: &mut System,
    inputs: &Inputs,
    gate: &GateReport,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<Metrics, String> {
    let listed = &spec().per_layer;
    let mut m: Metrics = listed.iter().map(|l| (l.name.as_str(), 0.0)).collect();
    let workload = inputs.workload;
    m.insert("robopt.chosen_plan_sim_s", gate.chosen_plan_sim_s);
    platform_layers(inputs, gate, &mut m);
    let mut recorder = Recorder::new();
    match workload {
        Workload::ColdForest | Workload::ColdAnalytic | Workload::ScaleWide => {
            vector_kernels(&mut m);
            enumeration_layers(system, inputs, seconds / 2.0, &mut recorder, &mut m)?;
        }
        Workload::ServeChurn => {
            vector_kernels(&mut m);
            // The misses' replay spans are not kept: `trace.json` and the
            // two trace ratios describe the wire path below.
            enumeration_layers(system, inputs, seconds / 4.0, &mut Recorder::new(), &mut m)?;
            serve_layers(inputs, gate, &mut m)?;
            traced_serve_passes(system, inputs, seconds / 4.0, &mut recorder, &mut m);
        }
        Workload::ServeCached => {
            serve_layers(inputs, gate, &mut m)?;
            traced_serve_passes(system, inputs, seconds / 2.0, &mut recorder, &mut m);
        }
        Workload::ExecuteEngine => {
            engine_layers(system, inputs, seconds / 2.0, &mut recorder, &mut m)
        }
    }
    if workload == Workload::ColdForest {
        model_layers(system, &mut m)?;
    }

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, recorder.to_json(inputs.stream.len() as u32))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    match m
        .keys()
        .find(|name| listed.iter().all(|l| l.name != **name))
    {
        Some(name) => Err(format!("BENCHMARK.json does not list the measured {name}")),
        None => Ok(m),
    }
}

/// `platforms`: registry construction (incl. the Floyd–Warshall conversion
/// table) and one noise-free simulation of each chosen plan.
fn platform_layers(inputs: &Inputs, gate: &GateReport, m: &mut Metrics) {
    m.insert(
        "platforms.registry_build_us",
        ns_per_call(21, 1, || {
            black_box(PlatformRegistry::named());
        }) / 1e3,
    );
    let registries: Vec<PlatformRegistry> = (0..inputs.n_facades())
        .map(|f| inputs.registry(f))
        .collect();
    let cases: Vec<_> = inputs
        .requests
        .iter()
        .zip(&gate.verdicts)
        .take(64)
        .filter_map(|(request, verdict)| {
            let registry = &registries[request.facade];
            let ids: Option<Vec<PlatformId>> = verdict
                .assignments
                .iter()
                .map(|name| registry.by_name(name))
                .collect();
            let plan = request.spec.build().ok()?;
            ids.filter(|ids| ids.len() == plan.n_ops())
                .map(|ids| (registry, plan, ids))
        })
        .collect();
    if cases.is_empty() {
        return;
    }
    let per_pass = ns_per_call(9, 1, || {
        for (registry, plan, ids) in &cases {
            black_box(RuntimeSimulator::new(registry, SIM_SEED).simulate(plan, ids));
        }
    });
    m.insert("platforms.simulate_us", per_pass / cases.len() as f64 / 1e3);
}

/// `vector`: the merge kernel at the named registry's layout width, the
/// footprint hash, and the footprint table.
fn vector_kernels(m: &mut Metrics) {
    let layout = FeatureLayout::new(PlatformRegistry::named().len(), N_OPERATOR_KINDS);
    let left: Vec<f64> = (0..layout.width).map(|i| i as f64 * 0.5).collect();
    let right: Vec<f64> = (0..KERNEL_ROWS * layout.width)
        .map(|i| (i % 29) as f64)
        .collect();
    let mut dst = Vec::new();
    let per_call = ns_per_call(9, 200, || {
        merge_feats_many(
            &mut dst,
            black_box(&left),
            RowsView::new(black_box(&right), layout.width),
        );
        black_box(&dst);
    });
    m.insert("vector.merge_ns_per_row", per_call / KERNEL_ROWS as f64);

    let boundary = [3u32, 17, 40, 63];
    let assign: Vec<u8> = (0..64).map(|i| (i % 5) as u8).collect();
    m.insert(
        "vector.footprint_hash_ns",
        ns_per_call(9, 4096, || {
            black_box(footprint_hash(black_box(&boundary), black_box(&assign)));
        }),
    );

    let keys: Vec<u64> = (0..1024u64).map(robopt_plan::rng::mix64).collect();
    let mut table = FootprintTable::new();
    let per_round = ns_per_call(9, 50, || {
        table.clear();
        for (i, &key) in keys.iter().enumerate() {
            table.insert(key, i as u32);
        }
        for &key in &keys {
            black_box(table.get(key));
        }
    });
    m.insert("vector.table_op_ns", per_round / (2 * keys.len()) as f64);
}

/// The response the facade builds from an enumeration result.
fn response_of(
    request: &OptimizeRequest,
    registry: &PlatformRegistry,
    exec: &robopt_core::ExecutionPlan,
    dist: &CostDistribution,
    stats: EnumStats,
) -> OptimizeResponse {
    OptimizeResponse {
        workload: request.workload.name(),
        signature: request.signature(),
        assignments: exec
            .assignments
            .iter()
            .map(|&id| registry.platform(id).name.clone())
            .collect(),
        distinct_platforms: exec.distinct_platforms(),
        cost: exec.cost,
        cost_std: dist.std[0],
        cost_q10: dist.q10[0],
        cost_q90: dist.q90[0],
        risk_policy: RiskPolicy::ExpectedCost.label(),
        stats,
    }
}

/// A split driver configured like the facade's under `policy`.
fn split_driver(policy: ExecutionPolicy) -> ParallelEnumerator {
    ParallelEnumerator::new(policy.workers)
        .with_split(SplitOptions::new(policy.split_parts))
        .with_hardware_clamp(policy.hardware_clamp)
}

/// A cache-off facade per registry with the system's model installed: the
/// untraced side of every pairing, usable while the system's own facades
/// lend their registry, layout and oracle to the replay.
fn twin_facades(system: &System, inputs: &Inputs) -> Result<Vec<Optimizer>, String> {
    system
        .facades
        .iter()
        .enumerate()
        .map(|(f, facade)| {
            let mut twin = Optimizer::new(inputs.registry(f));
            twin.set_cache_enabled(false);
            if let Some(forest) = facade.forest() {
                twin.install_forest(forest.clone())
                    .map_err(|e| e.to_string())?;
            }
            Ok(twin)
        })
        .collect()
}

/// `plan` / `core` / `robopt` facade overhead: plain timings of the public
/// functions on every distinct request, then traced replays of the miss
/// path paired with the facade's own cold `optimize`.
fn enumeration_layers(
    system: &System,
    inputs: &Inputs,
    seconds: f64,
    recorder: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let policy = ExecutionPolicy::default();
    let n = inputs.requests.len() as f64;
    let requests: Vec<OptimizeRequest> = inputs
        .requests
        .iter()
        .map(|r| OptimizeRequest::new(r.spec))
        .collect();
    let mut twins = twin_facades(system, inputs)?;

    struct Context<'a> {
        registry: &'a PlatformRegistry,
        layout: &'a FeatureLayout,
        oracle: &'a dyn CostOracle,
        serial: Enumerator,
        split: ParallelEnumerator,
    }
    let mut contexts: Vec<Context<'_>> = system
        .facades
        .iter()
        .map(|facade| Context {
            registry: facade.registry(),
            layout: facade.layout(),
            oracle: facade.enum_options().oracle(),
            serial: Enumerator::new(),
            split: split_driver(policy),
        })
        .collect();

    // Plain timings, one pass per repetition: the facade's cold optimize,
    // then each layer's public function on the same request.
    const FACADE: usize = 0;
    const BUILD: usize = 1;
    const SPLIT: usize = 2;
    const SERIAL: usize = 3;
    const SPLIT_ENUM: usize = 4;
    const VECTORIZE: usize = 5;
    const RECOST: usize = 6;
    let (mut feats, mut dist) = (Vec::new(), CostDistribution::new());
    let mut pass_us = vec![[0.0f64; 7]; REPS + 1];
    let mut stats_total = EnumStats::default();
    let mut facade_responses = Vec::new();
    let mut allocs = 0;
    for (rep, totals) in pass_us.iter_mut().enumerate() {
        facade_responses.clear();
        allocs = 0;
        for (request, spec) in requests.iter().zip(&inputs.requests) {
            let c = &mut contexts[spec.facade];
            let opts = EnumOptions::new(c.registry)
                .with_oracle(c.oracle)
                .with_prune(policy.prune);
            let allocs_before = alloc_events();
            let (response, s) = seconds_of(|| twins[spec.facade].optimize(request));
            allocs += alloc_events() - allocs_before;
            totals[FACADE] += s;
            facade_responses.push(response.map_err(|e| e.to_string())?);
            let (plan, s) = seconds_of(|| spec.spec.build());
            let plan = plan.map_err(|e| e.to_string())?;
            totals[BUILD] += s;
            totals[SPLIT] +=
                seconds_of(|| black_box(split_plan(&plan, SplitOptions::new(policy.split_parts))))
                    .1;
            totals[SERIAL] += seconds_of(|| black_box(c.serial.enumerate(&plan, c.layout, opts))).1;
            let ((exec, stats), s) = seconds_of(|| c.split.enumerate(&plan, c.layout, opts));
            totals[SPLIT_ENUM] += s;
            let raw = exec.raw_assignments();
            totals[VECTORIZE] +=
                seconds_of(|| vectorize_assignment(&plan, c.layout, &raw, &mut feats)).1;
            totals[RECOST] += seconds_of(|| {
                c.oracle
                    .cost_batch_dist(RowsView::new(&feats, c.layout.width), &mut dist)
            })
            .1;
            if rep == 0 {
                stats_total.absorb(&stats);
            }
        }
    }
    // The first pass warmed the enumerator pools; it is not a sample.
    let phase = |i: usize| median(&pass_us[1..].iter().map(|t| t[i] * 1e6).collect::<Vec<_>>());
    m.insert("vector.alloc_events", allocs as f64);
    m.insert("plan.build_us", phase(BUILD) / n);
    m.insert("core.split_us", phase(SPLIT) / n);
    m.insert("core.enum_serial_us", phase(SERIAL) / n);
    m.insert("core.enum_split_us", phase(SPLIT_ENUM) / n);
    m.insert("core.split_overhead", phase(SPLIT_ENUM) / phase(SERIAL));
    m.insert("core.vectorize_us", phase(VECTORIZE) / n);
    m.insert(
        "robopt.facade_overhead_us",
        (phase(FACADE) - phase(BUILD) - phase(SPLIT_ENUM) - phase(VECTORIZE) - phase(RECOST)) / n,
    );
    m.insert("core.rows_generated", stats_total.generated as f64);
    m.insert("core.rows_kept", stats_total.kept as f64);
    m.insert("core.merges", stats_total.merges as f64);
    m.insert("core.peak_rows", stats_total.peak_rows as f64);
    m.insert(
        "core.prune_keep_ratio",
        stats_total.kept as f64 / stats_total.generated as f64,
    );

    // Traced replays of the miss path over the counting oracle, each right
    // after the facade's own untraced optimize of the same request.
    let counting: Vec<CountingOracle<'_>> = contexts
        .iter()
        .map(|c| CountingOracle::new(c.oracle, recorder.epoch()))
        .collect();
    let mut log = Vec::new();
    let (mut facade_s, mut phases_ns, mut requests_ns) = (0.0, 0u64, 0u64);
    let mut passes = 0u32;
    let started = Instant::now();
    while passes < 3 || started.elapsed().as_secs_f64() < seconds {
        // Every distinct request once a pass (the cold streams are exactly
        // that; of `serve_churn` these are the misses).
        for (i, (spec, request)) in inputs.requests.iter().zip(&requests).enumerate() {
            let c = &mut contexts[spec.facade];
            let oracle = &counting[spec.facade];
            facade_s += seconds_of(|| black_box(twins[spec.facade].optimize(request).is_ok())).1;

            let id = passes * requests.len() as u32 + i as u32;
            let first_span = recorder.spans().len();
            let root = recorder.enter("request", id);

            let span = recorder.enter("plan.build", id);
            let plan = spec.spec.build().map_err(|e| e.to_string())?;
            recorder.exit(span);

            let span = recorder.enter("core.enumerate", id);
            let opts = EnumOptions::new(c.registry)
                .with_oracle(oracle)
                .with_prune(policy.prune);
            let (exec, stats) = c.split.enumerate(&plan, c.layout, opts);
            recorder.exit(span);
            oracle.drain_log(&mut log);
            for &(start, end) in &log {
                recorder.add_closed("oracle.cost", start, end, span, id);
            }

            let span = recorder.enter("core.vectorize", id);
            let raw = exec.raw_assignments();
            vectorize_assignment(&plan, c.layout, &raw, &mut feats);
            recorder.exit(span);

            let span = recorder.enter("oracle.cost_dist", id);
            c.oracle
                .cost_batch_dist(RowsView::new(&feats, c.layout.width), &mut dist);
            recorder.exit(span);

            let span = recorder.enter("robopt.response", id);
            let response = response_of(request, c.registry, &exec, &dist, stats);
            recorder.exit(span);
            recorder.exit(root);

            if passes == 0 && response != facade_responses[i] {
                return Err(format!(
                    "the replayed miss path of {} differs from the facade's response",
                    inputs.key(i)
                ));
            }
            let spans = &recorder.spans()[first_span..];
            requests_ns += spans[0].duration_ns();
            phases_ns += spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| s.duration_ns())
                .sum::<u64>();
        }
        passes += 1;
    }
    let replayed = f64::from(passes) * n;

    let totals = recorder.totals_by_name();
    let enumerate = totals["core.enumerate"];
    let oracle = totals["oracle.cost"];
    let (calls, rows) = counting.iter().fold((0, 0), |(c, r), o| {
        let counts = o.counts();
        (c + counts.calls, r + counts.rows)
    });
    m.insert("core.oracle_calls", calls as f64 / f64::from(passes));
    m.insert("core.oracle_rows", rows as f64 / f64::from(passes));
    m.insert("core.rows_per_batch", rows as f64 / calls as f64);
    m.insert(
        "core.oracle_busy_us",
        oracle.total_ns as f64 / 1e3 / replayed,
    );
    m.insert(
        "core.oracle_share",
        oracle.total_ns as f64 / enumerate.total_ns as f64,
    );
    m.insert(
        "core.enum_self_us",
        enumerate.self_ns as f64 / 1e3 / replayed,
    );
    m.insert("trace.coverage", phases_ns as f64 / 1e9 / facade_s);
    m.insert("trace.overhead", facade_s / (requests_ns as f64 / 1e9));
    Ok(())
}

/// `ml` / `tdgen` / persistence: the set-up of `cold_forest`, replayed
/// piecewise, and inference on the rows it trained on.
fn model_layers(system: &System, m: &mut Metrics) -> Result<(), String> {
    let facade = &system.facades[0];
    let forest = facade.forest().ok_or("cold_forest runs without a forest")?;
    let robopt::TrainSource::Tdgen { seed } = FOREST_TRAIN.source else {
        return Err("cold_forest trains from TDGEN".to_string());
    };
    let mut generator = TdgenGenerator::new(
        facade.registry(),
        *facade.layout(),
        TdgenConfig::new().with_seed(seed),
    );
    let (set, generate_s) = seconds_of(|| generator.generate(FOREST_TRAIN.rows));
    m.insert("tdgen.generate_s", generate_s);
    m.insert("tdgen.rows_per_sim_call", generator.stats().reduction());
    let config = ForestConfig {
        n_trees: FOREST_TRAIN.n_trees,
        seed: FOREST_TRAIN.forest_seed,
        ..ForestConfig::default()
    };
    let (refit, fit_s) = seconds_of(|| RandomForest::fit_on(&config, &set));
    m.insert("ml.fit_s", fit_s);
    let nodes = |f: &RandomForest| f.trees().iter().map(|t| t.n_nodes()).sum::<usize>();
    if nodes(&refit) != nodes(forest) {
        return Err("the replayed training does not reproduce the facade's forest".to_string());
    }
    m.insert("ml.forest_nodes", nodes(forest) as f64);

    // 4000 rows stay below the forest's 4096-row threading threshold, so
    // this is the single-threaded traversal enumeration batches see.
    let rows = set.rows_view();
    let n_rows = rows.rows() as f64;
    let mut out = Vec::new();
    m.insert(
        "ml.predict_ns_per_row",
        ns_per_call(5, 1, || forest.predict_batch(rows, &mut out)) / n_rows,
    );
    let mut dist = CostDistribution::new();
    m.insert(
        "ml.predict_dist_ns_per_row",
        ns_per_call(5, 1, || forest.predict_dist_batch(rows, &mut dist)) / n_rows,
    );
    m.insert(
        "ml.predict_row_ns",
        ns_per_call(5, 1, || {
            for r in 0..1024 {
                black_box(forest.predict_row(rows.row(r)));
            }
        }) / 1024.0,
    );

    let mut text = String::new();
    m.insert(
        "robopt.persist_save_ms",
        ns_per_call(5, 1, || text = forest_to_json(forest)) / 1e6,
    );
    m.insert("robopt.persist_bytes", text.len() as f64);
    let mut loaded = Ok(());
    m.insert(
        "robopt.persist_load_ms",
        ns_per_call(5, 1, || loaded = forest_from_json(&text).map(|_| ())) / 1e6,
    );
    loaded.map_err(|e| format!("saved forest does not load: {e}"))
}

/// `robopt` hit path, piecewise, on the workload's own stream.
fn serve_layers(inputs: &Inputs, gate: &GateReport, m: &mut Metrics) -> Result<(), String> {
    let stream: Vec<usize> = inputs.stream.iter().map(|&i| i as usize).collect();
    let per_request = |per_pass_ns: f64| per_pass_ns / stream.len() as f64;
    let lines: Vec<&str> = inputs.requests.iter().map(|r| r.line.as_str()).collect();
    let requests: Vec<OptimizeRequest> = inputs
        .requests
        .iter()
        .map(|r| OptimizeRequest::new(r.spec))
        .collect();

    m.insert(
        "robopt.wire_parse_ns",
        per_request(ns_per_call(9, 1, || {
            for &i in &stream {
                black_box(parse_request(black_box(lines[i])).is_ok());
            }
        })),
    );
    m.insert(
        "robopt.signature_ns",
        per_request(ns_per_call(9, 1, || {
            for &i in &stream {
                black_box(black_box(&requests[i]).signature());
            }
        })),
    );

    // A facade whose cache holds every distinct request: all hits.
    let mut all_hits = Optimizer::new(inputs.registry(0));
    all_hits.set_cache_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let response = all_hits.optimize(request).map_err(|e| e.to_string())?;
        let line = render_response(&Response::Optimize(response.clone()));
        if crate::gate::Expected::Line(line) != gate.verdicts[i].expected {
            return Err(format!("{} renders differently here", inputs.key(i)));
        }
        responses.push(response);
    }
    m.insert(
        "robopt.hit_path_ns",
        per_request(ns_per_call(9, 1, || {
            for &i in &stream {
                black_box(all_hits.optimize(&requests[i]).is_ok());
            }
        })),
    );

    let signatures: Vec<u64> = requests.iter().map(OptimizeRequest::signature).collect();
    let mut cache = PlanCache::new(requests.len());
    for (sig, response) in signatures.iter().zip(&responses) {
        cache.insert(*sig, response.clone(), response.stats.generated.max(1), 0);
    }
    let mut tick = 0;
    m.insert(
        "robopt.cache_lookup_ns",
        per_request(ns_per_call(9, 1, || {
            for &i in &stream {
                tick += 1;
                black_box(cache.lookup(signatures[i], tick));
            }
        })),
    );
    // Inserts at the default capacity, values cloned outside the clock:
    // refreshes when the distinct requests fit, evictions when they do not.
    let mut cache = PlanCache::new(PlanCache::DEFAULT_CAPACITY);
    let mut insert_ns = Vec::new();
    for _ in 0..9 {
        let mut total = 0;
        for chunk in stream.chunks(256) {
            let mut values: Vec<_> = chunk.iter().map(|&i| responses[i].clone()).collect();
            let started = Instant::now();
            for &i in chunk.iter().rev() {
                tick += 1;
                let value = values.pop().expect("one value per request");
                let work = value.stats.generated.max(1);
                cache.insert(signatures[i], value, work, tick);
            }
            total += started.elapsed().as_nanos();
        }
        insert_ns.push(total as f64);
    }
    m.insert("robopt.cache_insert_ns", per_request(median(&insert_ns)));

    let rendered: Vec<Response> = responses.into_iter().map(Response::Optimize).collect();
    let mut bytes = 0;
    m.insert(
        "robopt.wire_render_ns",
        per_request(ns_per_call(9, 1, || {
            bytes = 0;
            for &i in &stream {
                bytes += black_box(render_response(black_box(&rendered[i]))).len();
            }
        })),
    );
    m.insert("robopt.response_bytes", per_request(bytes as f64));

    m.insert("cli.serve_roundtrip_us", serve_roundtrip_us(inputs)?);
    Ok(())
}

/// Median microseconds of one request/reply over a loopback socket against
/// `robopt_cli::serve_on_listener` in a second thread: what a real daemon
/// round trip adds to the in-process `serve_*` operation.
fn serve_roundtrip_us(inputs: &Inputs) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback daemon: {e}");
    let mut daemon = System::set_up(inputs);
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let address = listener.local_addr().map_err(io)?;
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| robopt_cli::serve_on_listener(&mut daemon.facades[0], &listener));
        let client = || -> Result<f64, String> {
            let stream = std::net::TcpStream::connect(address).map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
            let mut writer = stream;
            let mut reply = String::new();
            let mut samples = Vec::new();
            let session = Instant::now();
            for &i in &inputs.stream {
                // The seed daemon answers in ~44 ms (unbuffered small
                // writes meet delayed ACKs), so the session is cut by the
                // clock, not by the stream.
                if samples.len() >= 16 && session.elapsed().as_secs_f64() > 1.0 {
                    break;
                }
                let line = format!("{}\n", inputs.requests[i as usize].line);
                let started = Instant::now();
                writer.write_all(line.as_bytes()).map_err(io)?;
                reply.clear();
                reader.read_line(&mut reply).map_err(io)?;
                samples.push(started.elapsed().as_nanos() as f64 / 1e3);
                if !reply.starts_with("{\"ok\":true") {
                    return Err(format!("daemon replied {reply}"));
                }
            }
            writer.write_all(b"{\"op\":\"quit\"}\n").map_err(io)?;
            reply.clear();
            reader.read_line(&mut reply).map_err(io)?;
            Ok(median(&samples))
        };
        let result = client();
        if result.is_err() {
            // The daemon only stops on `quit`; make sure it sees one.
            if let Ok(mut s) = std::net::TcpStream::connect(address) {
                let _ = s.write_all(b"{\"op\":\"quit\"}\n");
            }
        }
        server
            .join()
            .map_err(|_| "loopback daemon panicked".to_string())?;
        result
    })
}

/// Passes of a `serve_*` stream, alternately untraced (the workload's own
/// operation; its cache counters give hit rate and evictions) and traced
/// (one span per wire step).
fn traced_serve_passes(
    system: &mut System,
    inputs: &Inputs,
    seconds: f64,
    recorder: &mut Recorder,
    m: &mut Metrics,
) {
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut hits, mut lookups, mut evictions) = (0, 0, 0);
    let mut passes = 0u32;
    let started = Instant::now();
    while passes < 2 || (started.elapsed().as_secs_f64() < seconds && passes < 16) {
        let before = system.facades[0].cache_stats();
        untraced_s += seconds_of(|| {
            for &i in &inputs.stream {
                black_box(system.run(&inputs.requests[i as usize]));
            }
        })
        .1;
        let after = system.facades[0].cache_stats();
        hits += after.hits - before.hits;
        lookups += after.hits + after.misses - before.hits - before.misses;
        evictions += after.evictions - before.evictions;

        let facade = &mut system.facades[0];
        let pass_started = Instant::now();
        for (at, &i) in inputs.stream.iter().enumerate() {
            let id = passes * inputs.stream.len() as u32 + at as u32;
            let root = recorder.enter("request", id);
            let span = recorder.enter("wire.parse", id);
            let parsed = parse_request(&inputs.requests[i as usize].line);
            recorder.exit(span);
            let span = recorder.enter("robopt.optimize", id);
            let response = match parsed {
                Ok(Request::Optimize(request)) => match facade.optimize(&request) {
                    Ok(response) => Response::Optimize(response),
                    Err(e) => Response::Error(e),
                },
                Ok(_) | Err(_) => Response::Error(robopt::ServiceError::Parse(String::new())),
            };
            recorder.exit(span);
            let span = recorder.enter("wire.render", id);
            black_box(render_response(&response));
            recorder.exit(span);
            recorder.exit(root);
        }
        traced_s += pass_started.elapsed().as_secs_f64();
        passes += 1;
    }
    m.insert("robopt.cache_hit_rate", hits as f64 / lookups as f64);
    m.insert(
        "robopt.cache_evictions_per_kreq",
        evictions as f64 * 1e3 / lookups as f64,
    );
    m.insert("trace.overhead", untraced_s / traced_s);
}

fn op_metric(kind: OperatorKind) -> &'static str {
    match kind {
        OperatorKind::TextFileSource
        | OperatorKind::CollectionSource
        | OperatorKind::TableSource => "engine.op_ms.source",
        OperatorKind::Map => "engine.op_ms.map",
        OperatorKind::FlatMap => "engine.op_ms.flatmap",
        OperatorKind::Filter => "engine.op_ms.filter",
        OperatorKind::Distinct => "engine.op_ms.distinct",
        OperatorKind::ReduceByKey => "engine.op_ms.reducebykey",
        OperatorKind::GroupByKey => "engine.op_ms.groupbykey",
        OperatorKind::Aggregate => "engine.op_ms.aggregate",
        OperatorKind::Join => "engine.op_ms.join",
        OperatorKind::Sort => "engine.op_ms.sort",
        OperatorKind::RepeatLoop => "engine.op_ms.repeatloop",
        OperatorKind::LocalCallbackSink => "engine.op_ms.sink",
        other => panic!("engine_pool runs no {other:?}; add its engine.op_ms metric"),
    }
}

/// `engine`: passes of the pinned plans, alternately untraced (the
/// workload's own `Optimizer::execute`) and traced through the
/// `ExecutionBackend` seam; then worker scaling and the reference executor.
fn engine_layers(
    system: &mut System,
    inputs: &Inputs,
    seconds: f64,
    recorder: &mut Recorder,
    m: &mut Metrics,
) {
    let registry = inputs.registry(0);
    let cases: Vec<_> = inputs
        .requests
        .iter()
        .map(|r| {
            let plan = r.spec.build().expect("engine pool specs are valid");
            let ids: Vec<PlatformId> = r
                .pinned
                .iter()
                .map(|name| registry.by_name(name).expect("the gate resolved it"))
                .collect();
            (plan, ids)
        })
        .collect();
    let engine_at = |workers| robopt_engine::Engine::new(&registry).with_workers(workers);
    // Wall seconds of one pass over the pinned plans.
    let pass_s = |run: &dyn Fn(&robopt_plan::LogicalPlan, &[PlatformId])| {
        seconds_of(|| {
            for (plan, ids) in &cases {
                run(plan, ids);
            }
        })
        .1
    };

    let engine = engine_at(engine_workers());
    let mut pass_ms = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut compute_s, mut total_s, mut rows_in, mut execute_s) = (0.0, 0.0, 0u64, 0.0);
    let mut op_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut passes = 0u32;
    let started = Instant::now();
    while passes < 3 || started.elapsed().as_secs_f64() < seconds {
        untraced_s += seconds_of(|| {
            for &i in &inputs.stream {
                black_box(system.run(&inputs.requests[i as usize]));
            }
        })
        .1;

        let pass_started = Instant::now();
        let mut pass_execute_s = 0.0;
        let mut pass_ops: BTreeMap<&'static str, f64> = BTreeMap::new();
        for &i in &inputs.stream {
            let (plan, ids) = &cases[i as usize];
            let id = passes * inputs.stream.len() as u32 + i;
            let root = recorder.enter("request", id);
            let span = recorder.enter("plan.build", id);
            black_box(inputs.requests[i as usize].spec.build().is_ok());
            recorder.exit(span);
            let span = recorder.enter("engine.execute", id);
            let (report, s) = seconds_of(|| ExecutionBackend::execute(&engine, plan, ids));
            recorder.exit(span);
            recorder.exit(root);
            pass_execute_s += s;
            compute_s += report.compute_seconds;
            total_s += report.seconds;
            for (op, per_op) in report.per_op.iter().enumerate() {
                let kind = plan.op(op as u32).kind;
                *pass_ops.entry(op_metric(kind)).or_default() += per_op.seconds * 1e3;
                if kind.is_source() {
                    rows_in += per_op.output_rows;
                }
            }
        }
        traced_s += pass_started.elapsed().as_secs_f64();
        for (name, ms) in pass_ops {
            op_ms.entry(name).or_default().push(ms);
        }
        pass_ms.push(pass_execute_s * 1e3);
        execute_s += pass_execute_s;
        passes += 1;
    }
    m.insert("engine.execute_ms", median(&pass_ms));
    m.insert("engine.compute_share", compute_s / total_s);
    m.insert("engine.rows_in_per_s", rows_in as f64 / execute_s);
    for (name, ms) in op_ms {
        m.insert(name, median(&ms));
    }
    m.insert("trace.overhead", untraced_s / traced_s);

    // One worker, the configured workers and the reference executor take
    // turns, so the two ratios compare neighbours in time.
    let one = engine_at(1);
    let (mut at_one, mut at_workers, mut reference) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        at_one.push(pass_s(&|plan, ids| {
            black_box(ExecutionBackend::execute(&one, plan, ids));
        }));
        at_workers.push(pass_s(&|plan, ids| {
            black_box(ExecutionBackend::execute(&engine, plan, ids));
        }));
        reference.push(pass_s(&|plan, _| {
            black_box(execute_reference(
                plan,
                engine.seed(),
                engine.max_source_rows(),
            ));
        }));
    }
    m.insert("engine.scaling_2w", median(&at_one) / median(&at_workers));
    m.insert(
        "engine.reference_ratio",
        median(&reference) / median(&at_workers),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_engine_operator_kind_has_a_metric() {
        for pinned in crate::workloads::engine_pool() {
            let plan = pinned.build().expect("valid");
            for op in plan.ops() {
                let name = op_metric(op.kind);
                assert!(spec().per_layer.iter().any(|l| l.name == name), "{name}");
            }
        }
    }
}
