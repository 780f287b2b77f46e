//! The six workloads: their seeded inputs, the set-up that brings the
//! system under test to ready, and the one operation each of them times.
//!
//! Load model (all workloads): closed loop, one client, one generator
//! thread — the daemon serves one connection at a time and every caller
//! waits for its reply. Optimizer `workers = 1`, engine
//! `workers = min(2, nproc)`; never more threads than `nproc`.

use robopt::{
    parse_request, render_response, BackendChoice, ExecuteRequest, ExecuteResponse,
    OptimizeRequest, OptimizeResponse, Optimizer, Request, Response, TrainRequest, TrainSource,
    WorkloadSpec,
};
use robopt_plan::rng::SplitMix64;
use robopt_platforms::PlatformRegistry;

use crate::golden::Golden;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 20200420;

/// The forest `cold_forest` trains in set-up (fixed seeds: the model is an
/// input of the workload, not something `--seed` varies).
pub const FOREST_TRAIN: TrainRequest = TrainRequest {
    source: TrainSource::Tdgen { seed: 41 },
    rows: 4000,
    n_trees: 64,
    forest_seed: 0x0b5e_55ed,
};

/// Platform counts of the three `scale_wide` facades.
pub const WIDE_PLATFORMS: [usize; 3] = [2, 5, 8];

const SERVE_CACHED_SPECS: usize = 192;
const SERVE_CACHED_STREAM: usize = 4096;
const SERVE_CHURN_SPECS: usize = 1024;
const SERVE_CHURN_STREAM: usize = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdForest,
    ColdAnalytic,
    ScaleWide,
    ServeCached,
    ServeChurn,
    ExecuteEngine,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ColdForest,
        Workload::ColdAnalytic,
        Workload::ScaleWide,
        Workload::ServeCached,
        Workload::ServeChurn,
        Workload::ExecuteEngine,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdForest => "cold_forest",
            Workload::ColdAnalytic => "cold_analytic",
            Workload::ScaleWide => "scale_wide",
            Workload::ServeCached => "serve_cached",
            Workload::ServeChurn => "serve_churn",
            Workload::ExecuteEngine => "execute_engine",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per latency sample: operations far below 50 µs are timed
    /// in batches so the clock reads do not dominate them — 256 for the ≈3 µs
    /// hits of `serve_cached`, 64 for `serve_churn`, whose misses bring the
    /// mean to ≈80 µs.
    pub fn batch(self) -> usize {
        match self {
            Workload::ServeCached => 256,
            Workload::ServeChurn => 64,
            _ => 1,
        }
    }
}

/// Worker threads for the engine: `min(2, nproc)`.
pub fn engine_workers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One distinct request of a workload.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    pub spec: WorkloadSpec,
    /// Index of the facade that serves it (`scale_wide` has one per k).
    pub facade: usize,
    /// The wire line (`serve_*` only).
    pub line: String,
    /// The pinned assignment (`execute_engine` only).
    pub pinned: Vec<String>,
}

impl RequestSpec {
    fn new(spec: WorkloadSpec) -> Self {
        RequestSpec {
            spec,
            facade: 0,
            line: String::new(),
            pinned: Vec::new(),
        }
    }
}

/// Everything the benchmark generates from `--seed`; the program under
/// test only ever sees the requests.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub requests: Vec<RequestSpec>,
    /// One pass of the workload: indices into `requests`, in send order.
    pub stream: Vec<u32>,
}

impl Inputs {
    /// Golden-file key of request `i`: registry label plus spec name.
    pub fn key(&self, i: usize) -> String {
        let r = &self.requests[i];
        format!("{}#{}", self.registry_label(r.facade), r.spec.name())
    }

    fn registry_label(&self, facade: usize) -> String {
        match self.workload {
            Workload::ScaleWide => format!("uniform{}", WIDE_PLATFORMS[facade]),
            _ => "named".to_string(),
        }
    }

    /// The registry facade `facade` is built over.
    pub fn registry(&self, facade: usize) -> PlatformRegistry {
        match self.workload {
            Workload::ScaleWide => PlatformRegistry::uniform(WIDE_PLATFORMS[facade]),
            _ => PlatformRegistry::named(),
        }
    }

    pub fn n_facades(&self) -> usize {
        match self.workload {
            Workload::ScaleWide => WIDE_PLATFORMS.len(),
            _ => 1,
        }
    }
}

/// The 15-spec pool of the cold workloads: the 12 specs of
/// `fig_service_throughput`, the two iterative workloads, and an
/// 8-operator pipeline that makes the count odd, so the median latency
/// sits inside one request's samples instead of in the gap between two.
///
/// Every pool is fixed and `--seed` draws the request stream over it (where
/// a pass starts here, the Zipf-ish draws of `serve_*`): the committed
/// golden answers hold at every seed, and two seeds differ in their
/// streams, not in how much work a pass is.
fn cold_pool() -> Vec<WorkloadSpec> {
    let pipeline = |ops, scale| WorkloadSpec::Pipeline { ops, scale };
    vec![
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
    ]
}

/// Golden-file key of an `execute_engine` request (see [`Inputs::key`]).
pub fn engine_key(spec: &WorkloadSpec) -> String {
    format!("named#{}", spec.name())
}

/// The five plans `execute_engine` runs, sized to ~0.3 s a pass.
pub fn engine_pool() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::WordCount { scale: 3e4 },
        WorkloadSpec::TpchQ3 { scale: 1e5 },
        WorkloadSpec::PageRank {
            scale: 2e4,
            iterations: 10,
        },
        WorkloadSpec::KMeans {
            scale: 2e4,
            iterations: 10,
        },
        WorkloadSpec::Pipeline {
            ops: 16,
            scale: 1e5,
        },
    ]
}

/// `{1, 2, 5} × 10^e` tuples for every exponent in `exponents`.
fn scale_grid(exponents: std::ops::RangeInclusive<i32>) -> Vec<f64> {
    exponents
        .flat_map(|e| [1.0, 2.0, 5.0].map(|m| m * 10f64.powi(e)))
        .collect()
}

/// Round-robin over the shapes: variant 0 of every shape, then variant 1,
/// … so every popularity band of the Zipf-ish stream holds the same mix of
/// shapes (low indices are the frequent ones).
fn interleave(shapes: Vec<Vec<WorkloadSpec>>, n: usize) -> Vec<WorkloadSpec> {
    let variants = shapes.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(n);
    for v in 0..variants {
        out.extend(shapes.iter().filter_map(|shape| shape.get(v)));
    }
    assert!(out.len() >= n, "pool of {} specs, {n} wanted", out.len());
    out.truncate(n);
    out
}

/// `variants` random DAGs of one `(ops, density)` shape. The DAG seeds are
/// fixed: the cost of a random DAG swings 100× with its seed, so seeding
/// them from `--seed` would make every metric a property of the seed.
fn dag_shape(ops: usize, density: f64, variants: u64) -> Vec<WorkloadSpec> {
    (0..variants)
        .map(|v| WorkloadSpec::RandomDag {
            seed: 1000 * ops as u64 + (density * 100.0) as u64 + 7 * v,
            ops,
            density,
        })
        .collect()
}

/// The 192 distinct specs of `serve_cached`: all six kinds, 16 shapes of
/// 12 variants (scales, or DAG seeds).
fn cached_pool() -> Vec<WorkloadSpec> {
    let scales = scale_grid(5..=8);
    let over_scales = |spec: fn(f64) -> WorkloadSpec| scales.iter().map(|&s| spec(s)).collect();
    let mut shapes: Vec<Vec<WorkloadSpec>> = vec![
        over_scales(|scale| WorkloadSpec::WordCount { scale }),
        over_scales(|scale| WorkloadSpec::TpchQ3 { scale }),
        over_scales(|scale| WorkloadSpec::PageRank {
            scale,
            iterations: 10,
        }),
        over_scales(|scale| WorkloadSpec::KMeans {
            scale,
            iterations: 10,
        }),
    ];
    for ops in [4, 8, 12, 16, 24, 32] {
        shapes.push(
            scales
                .iter()
                .map(|&scale| WorkloadSpec::Pipeline { ops, scale })
                .collect(),
        );
    }
    for (ops, density) in [
        (6, 0.2),
        (8, 0.2),
        (8, 0.4),
        (10, 0.2),
        (10, 0.4),
        (12, 0.2),
    ] {
        shapes.push(dag_shape(ops, density, scales.len() as u64));
    }
    interleave(shapes, SERVE_CACHED_SPECS)
}

/// The 1024 distinct small specs of `serve_churn` (pipelines of 4–12
/// operators, random DAGs of 4–10), where fixed per-request cost dominates.
fn churn_pool() -> Vec<WorkloadSpec> {
    let scales = scale_grid(4..=8);
    let mut shapes: Vec<Vec<WorkloadSpec>> = (4..=12)
        .map(|ops| {
            scales
                .iter()
                .map(|&scale| WorkloadSpec::Pipeline { ops, scale })
                .collect()
        })
        .collect();
    for ops in 4..=10 {
        for density in [0.1, 0.2, 0.3, 0.4] {
            shapes.push(dag_shape(ops, density, 32));
        }
    }
    interleave(shapes, SERVE_CHURN_SPECS)
}

/// Zipf-ish stream of pool indices (`idx ∝ r²`): a few requests dominate,
/// the repeat-heavy profile a memoizing service sees.
fn zipfish_stream(rng: &mut SplitMix64, pool: usize, n: usize) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let r = rng.next_f64();
            ((pool as f64 * r * r) as usize).min(pool - 1) as u32
        })
        .collect()
}

/// The pool in order, started at a seeded offset. A rotation, not a
/// shuffle: which request ran before decides what the allocator hands the
/// next one (the engine's TPC-H Q3 takes 37 or 48 ms depending on its
/// predecessor), and that must not differ between seeds.
fn rotated(rng: &mut SplitMix64, n: usize) -> Vec<u32> {
    let start = rng.gen_range(n);
    (0..n).map(|i| ((start + i) % n) as u32).collect()
}

/// The wire line of an optimize request. `{:?}` prints the shortest text
/// that parses back to the same `f64` bits.
pub fn request_line(spec: &WorkloadSpec) -> String {
    let workload = match *spec {
        WorkloadSpec::WordCount { scale } => format!("\"kind\":\"wordcount\",\"scale\":{scale:?}"),
        WorkloadSpec::TpchQ3 { scale } => format!("\"kind\":\"tpch_q3\",\"scale\":{scale:?}"),
        WorkloadSpec::Pipeline { ops, scale } => {
            format!("\"kind\":\"pipeline\",\"ops\":{ops},\"scale\":{scale:?}")
        }
        WorkloadSpec::RandomDag { seed, ops, density } => {
            format!("\"kind\":\"random_dag\",\"seed\":{seed},\"ops\":{ops},\"density\":{density:?}")
        }
        WorkloadSpec::PageRank { scale, iterations } => {
            format!("\"kind\":\"pagerank\",\"scale\":{scale:?},\"iterations\":{iterations}")
        }
        WorkloadSpec::KMeans { scale, iterations } => {
            format!("\"kind\":\"kmeans\",\"scale\":{scale:?},\"iterations\":{iterations}")
        }
    };
    format!("{{\"op\":\"optimize\",\"workload\":{{{workload}}}}}")
}

/// Generate the inputs of `workload` from `seed`. `engine_golden` supplies
/// the pinned assignments of `execute_engine` (no enumeration runs there,
/// so the workload does not drift when the optimizer's choice does).
pub fn generate(workload: Workload, seed: u64, engine_golden: &Golden) -> Result<Inputs, String> {
    let mut rng = SplitMix64::new(seed ^ 0xbe0c_4a11);
    let (requests, stream) = match workload {
        Workload::ColdForest | Workload::ColdAnalytic => {
            let requests: Vec<_> = cold_pool().into_iter().map(RequestSpec::new).collect();
            let stream = rotated(&mut rng, requests.len());
            (requests, stream)
        }
        Workload::ScaleWide => {
            let requests: Vec<_> = (0..WIDE_PLATFORMS.len())
                .map(|facade| RequestSpec {
                    facade,
                    ..RequestSpec::new(WorkloadSpec::Pipeline {
                        ops: 128,
                        scale: 1e5,
                    })
                })
                .collect();
            let stream = rotated(&mut rng, requests.len());
            (requests, stream)
        }
        Workload::ServeCached | Workload::ServeChurn => {
            let (pool, len) = if workload == Workload::ServeCached {
                (cached_pool(), SERVE_CACHED_STREAM)
            } else {
                (churn_pool(), SERVE_CHURN_STREAM)
            };
            let n = pool.len();
            let requests: Vec<_> = pool
                .into_iter()
                .map(|spec| RequestSpec {
                    line: request_line(&spec),
                    ..RequestSpec::new(spec)
                })
                .collect();
            let stream = zipfish_stream(&mut rng, n, len);
            (requests, stream)
        }
        Workload::ExecuteEngine => {
            let mut requests = Vec::new();
            for spec in engine_pool() {
                let key = engine_key(&spec);
                let entry = engine_golden.entries.get(&key).ok_or_else(|| {
                    format!("golden/execute_engine.json has no entry {key}; run `write-golden`")
                })?;
                requests.push(RequestSpec {
                    pinned: entry.assignments.clone(),
                    ..RequestSpec::new(spec)
                });
            }
            let stream = rotated(&mut rng, requests.len());
            (requests, stream)
        }
    };
    Ok(Inputs {
        workload,
        requests,
        stream,
    })
}

/// What one operation returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Plan(OptimizeResponse),
    Line(String),
    Run(ExecuteResponse),
    Failed(String),
}

/// The system under test: one facade per registry.
#[derive(Debug)]
pub struct System {
    pub workload: Workload,
    pub facades: Vec<Optimizer>,
}

impl System {
    /// Bring the system to ready. Everything here counts into `setup_s`:
    /// registry and facade construction, model training, the warm-up pass
    /// that sizes the enumerator pools, the cache pre-fill.
    pub fn set_up(inputs: &Inputs) -> System {
        let workload = inputs.workload;
        let mut facades: Vec<Optimizer> = (0..inputs.n_facades())
            .map(|f| Optimizer::new(inputs.registry(f)))
            .collect();
        match workload {
            Workload::ColdForest | Workload::ColdAnalytic | Workload::ScaleWide => {
                for facade in &mut facades {
                    facade.set_cache_enabled(false);
                }
            }
            // Cache on at the default capacity (256): 192 specs fit, 1024 churn.
            Workload::ServeCached | Workload::ServeChurn | Workload::ExecuteEngine => {}
        }
        if workload == Workload::ColdForest {
            facades[0]
                .train(&FOREST_TRAIN)
                .expect("the fixed training request is valid");
        }
        let mut system = System { workload, facades };
        for request in &inputs.requests {
            system.run(request);
        }
        if workload == Workload::ServeChurn {
            // One pass of the stream leaves the cache in its steady state.
            for &i in &inputs.stream {
                system.run(&inputs.requests[i as usize]);
            }
        }
        system
    }

    /// One operation of the workload.
    #[inline]
    pub fn run(&mut self, request: &RequestSpec) -> Output {
        let facade = &mut self.facades[request.facade];
        match self.workload {
            Workload::ColdForest | Workload::ColdAnalytic | Workload::ScaleWide => {
                match facade.optimize(&OptimizeRequest::new(request.spec)) {
                    Ok(resp) => Output::Plan(resp),
                    Err(e) => Output::Failed(e.to_string()),
                }
            }
            Workload::ServeCached | Workload::ServeChurn => {
                let resp = match parse_request(&request.line) {
                    Ok(Request::Optimize(req)) => match facade.optimize(&req) {
                        Ok(resp) => Response::Optimize(resp),
                        Err(e) => Response::Error(e),
                    },
                    Ok(other) => return Output::Failed(format!("parsed as {other:?}")),
                    Err(e) => Response::Error(e),
                };
                Output::Line(render_response(&resp))
            }
            Workload::ExecuteEngine => {
                let req = ExecuteRequest::new(request.spec)
                    .with_assignments(request.pinned.clone())
                    .with_backend(BackendChoice::Engine {
                        workers: engine_workers(),
                    });
                match facade.execute(&req) {
                    Ok(resp) => Output::Run(resp),
                    Err(e) => Output::Failed(e.to_string()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn no_golden() -> Golden {
        Golden::default()
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for w in [
            Workload::ColdAnalytic,
            Workload::ServeCached,
            Workload::ServeChurn,
        ] {
            let a = generate(w, 7, &no_golden()).expect("inputs");
            let b = generate(w, 7, &no_golden()).expect("inputs");
            let c = generate(w, 8, &no_golden()).expect("inputs");
            assert_eq!(a.stream, b.stream, "{}", w.name());
            assert_ne!(a.stream, c.stream, "{}", w.name());
            assert!(a.stream.iter().all(|&i| (i as usize) < a.requests.len()));
            let keys = |x: &Inputs| (0..x.requests.len()).map(|i| x.key(i)).collect::<Vec<_>>();
            assert_eq!(keys(&a), keys(&b));
            let distinct: BTreeSet<String> = keys(&a).into_iter().collect();
            assert_eq!(distinct.len(), a.requests.len(), "keys are distinct");
            let signatures: BTreeSet<u64> = a
                .requests
                .iter()
                .map(|r| OptimizeRequest::new(r.spec).signature())
                .collect();
            assert_eq!(
                signatures.len(),
                a.requests.len(),
                "cache keys are distinct"
            );
        }
    }

    #[test]
    fn every_request_line_parses_back_to_its_spec() {
        let inputs = generate(Workload::ServeCached, DEFAULT_SEED, &no_golden()).expect("inputs");
        for r in &inputs.requests {
            assert_eq!(
                parse_request(&r.line).expect("line parses"),
                Request::Optimize(OptimizeRequest::new(r.spec)),
                "{}",
                r.line
            );
        }
    }

    #[test]
    fn execute_engine_needs_its_pinned_assignments() {
        let err = generate(Workload::ExecuteEngine, 1, &no_golden()).expect_err("no golden");
        assert!(err.contains("write-golden"));
    }
}
