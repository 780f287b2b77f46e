//! Service-facade integration (ISSUE 7, DESIGN §10):
//!
//! * model persistence — a forest trained through one facade survives the
//!   JSON round-trip and, installed into a second facade, answers every
//!   probe request bit-identically to the original;
//! * cache behaviour under pressure — a deliberately tiny capacity forces
//!   benefit-weighted evictions; the hit/miss/insertion/eviction counters
//!   stay mutually consistent and every post-eviction replay still matches
//!   a cache-off recompute bit-for-bit;
//! * request validation — malformed requests are rejected with
//!   `ServiceError`, never a panic, and every generated `random_dag` spec
//!   is answered or refused as too large by the enumeration budget;
//! * the `stats` counter — `requests` counts `optimize` calls over a mixed
//!   session, not request lines.

use robopt::{
    forest_from_json, forest_to_json, parse_request, BackendChoice, CompareRequest, ExecuteRequest,
    ExecutionPolicy, OptimizeRequest, Optimizer, Request, RiskPolicy, ServiceError, TrainRequest,
    WorkloadSpec,
};
use robopt_plan::SplitMix64;
use robopt_platforms::PlatformRegistry;

/// A spread of workload shapes that exercises every `WorkloadSpec` arm.
fn probe_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::WordCount { scale: 1e5 },
        WorkloadSpec::WordCount { scale: 1e7 },
        WorkloadSpec::TpchQ3 { scale: 1e6 },
        WorkloadSpec::Pipeline { ops: 9, scale: 1e5 },
        WorkloadSpec::Pipeline {
            ops: 17,
            scale: 1e6,
        },
        WorkloadSpec::RandomDag {
            seed: 0xF00D,
            ops: 7,
            density: 0.5,
        },
        WorkloadSpec::RandomDag {
            seed: 0xBEEF,
            ops: 10,
            density: 0.3,
        },
    ]
}

#[test]
fn forest_persistence_round_trip_preserves_every_decision() {
    // Train through facade A (the service verb, not the ml crate directly).
    let mut trainer = Optimizer::named();
    let summary = trainer
        .train(&TrainRequest::new(300))
        .expect("train 300 simulator rows");
    assert!(summary.train_mse.is_finite());
    let forest = trainer.forest().expect("train installs the forest");

    // JSON round-trip into facade B.
    let json = forest_to_json(forest);
    let restored = forest_from_json(&json).expect("forest survives its own JSON");
    let mut replica = Optimizer::named();
    replica
        .install_forest(restored)
        .expect("restored forest keeps the layout width");

    // Second encode must be byte-identical (canonical rendering).
    assert_eq!(
        json,
        forest_to_json(replica.forest().unwrap()),
        "forest JSON is not canonical across a round-trip"
    );

    // Both facades must answer every probe identically, cold caches.
    for spec in probe_specs() {
        let req = OptimizeRequest::new(spec);
        let a = trainer.optimize(&req).expect("trainer optimize");
        let b = replica.optimize(&req).expect("replica optimize");
        assert_eq!(a, b, "restored forest diverged on {}", a.workload);
    }
}

#[test]
fn tiny_cache_evicts_consistently_and_never_changes_responses() {
    let mut opt = Optimizer::new(PlatformRegistry::uniform(3));
    opt.set_cache_capacity(4);
    let mut reference = Optimizer::new(PlatformRegistry::uniform(3));
    reference.set_cache_capacity(0);

    // 12 distinct signatures through a 4-slot table: evictions guaranteed.
    let specs: Vec<WorkloadSpec> = (0..12)
        .map(|i| WorkloadSpec::RandomDag {
            seed: 0xCAFE + i,
            ops: 4 + (i as usize % 5),
            density: 0.4,
        })
        .collect();

    let cold: Vec<_> = specs
        .iter()
        .map(|&spec| opt.optimize(&OptimizeRequest::new(spec)).expect("cold"))
        .collect();
    let s = opt.cache_stats();
    assert_eq!(s.capacity, 4);
    assert_eq!(s.misses, 12, "12 distinct signatures must all miss");
    assert_eq!(s.insertions, 12);
    assert!(
        s.evictions >= 8,
        "12 insertions through 4 slots left only {} evictions",
        s.evictions
    );
    assert_eq!(
        s.insertions - s.evictions,
        s.len as u64,
        "insertions − evictions must equal live entries"
    );
    assert!(s.len <= s.capacity);

    // Replay the whole stream: hits where entries survived, recomputes
    // where they were evicted — either way bit-identical to the cold pass
    // and to a cache-off facade.
    for (spec, was) in specs.iter().zip(&cold) {
        let again = opt.optimize(&OptimizeRequest::new(*spec)).expect("replay");
        let recomputed = reference
            .optimize(&OptimizeRequest::new(*spec))
            .expect("cache-off");
        assert_eq!(&again, was, "replay diverged from the cold response");
        assert_eq!(again, recomputed, "cached path diverged from cache-off");
    }
    let s2 = opt.cache_stats();
    assert!(s2.hits >= 1, "the tail of the stream must still be cached");
    assert_eq!(
        s2.hits + s2.misses,
        24,
        "every lookup is either a hit or a miss"
    );
    assert_eq!(
        s2.insertions - s2.evictions,
        s2.len as u64,
        "counter consistency must survive the replay"
    );

    // A model swap flushes the entries but keeps the lifetime counters.
    let mut trainer = Optimizer::new(PlatformRegistry::uniform(3));
    trainer
        .train(&TrainRequest {
            n_trees: 2,
            ..TrainRequest::new(64)
        })
        .expect("train a small forest for the uniform(3) layout");
    let forest = trainer.forest().expect("train installs a forest").clone();
    opt.install_forest(forest).expect("same layout width");
    let s3 = opt.cache_stats();
    assert_eq!(s3.len, 0);
    assert_eq!(
        (s3.hits, s3.misses, s3.insertions, s3.evictions),
        (s2.hits, s2.misses, s2.insertions, s2.evictions)
    );
}

#[test]
fn cache_key_separates_policies_that_change_the_answer() {
    // prune on/off and split_parts are part of the plan signature (they can
    // change the search), so flipping them must MISS; worker count and the
    // hardware clamp only change scheduling, so they must HIT.
    // 7 ops keeps the prune-off arm tractable and inside the facade's
    // enumeration budget (unpruned rows grow exponentially in plan depth
    // over the 5-platform named registry).
    let mut opt = Optimizer::named();
    let spec = WorkloadSpec::Pipeline { ops: 7, scale: 1e6 };
    let base = OptimizeRequest::new(spec);
    opt.optimize(&base).expect("cold");
    assert_eq!(opt.cache_stats().misses, 1);

    let pruned_off =
        OptimizeRequest::new(spec).with_policy(ExecutionPolicy::default().with_prune(false));
    opt.optimize(&pruned_off).expect("prune off");
    assert_eq!(opt.cache_stats().misses, 2, "prune flag must be in the key");

    let more_workers =
        OptimizeRequest::new(spec).with_policy(ExecutionPolicy::default().with_workers(4));
    let hit = opt.optimize(&more_workers).expect("worker sweep");
    let stats = opt.cache_stats();
    assert_eq!(stats.misses, 2, "worker count must NOT be in the key");
    assert_eq!(stats.hits, 1);
    assert_eq!(hit.signature, opt.optimize(&base).unwrap().signature);
}

#[test]
fn risk_policies_get_their_own_cache_entries() {
    // ISSUE 9: the plan signature covers the risk policy, so the same
    // workload under two policies occupies two cache lines — a
    // MeanPlusKSigma hit must never serve an ExpectedCost entry.
    let mut opt = Optimizer::named();
    opt.train(&TrainRequest::new(200))
        .expect("train a forest so spreads are real");
    let spec = WorkloadSpec::Pipeline { ops: 7, scale: 1e6 };
    let expected = OptimizeRequest::new(spec);
    let robust = OptimizeRequest::new(spec).with_risk(RiskPolicy::MeanPlusKSigma(1.5));

    let e_cold = opt.optimize(&expected).expect("expected cold");
    assert_eq!(opt.cache_stats().misses, 1);
    let r_cold = opt.optimize(&robust).expect("sigma cold");
    let s = opt.cache_stats();
    assert_eq!(
        (s.hits, s.misses, s.insertions),
        (0, 2, 2),
        "two risk policies must occupy two cache entries"
    );
    assert_ne!(e_cold.signature, r_cold.signature);
    assert_eq!(e_cold.risk_policy, "expected");
    assert_eq!(r_cold.risk_policy, "sigma1.5");

    // Replays hit their own policy's entry and are bit-identical to cold.
    let e_hit = opt.optimize(&expected).expect("expected hit");
    let r_hit = opt.optimize(&robust).expect("sigma hit");
    let s2 = opt.cache_stats();
    assert_eq!((s2.hits, s2.misses), (2, 2));
    assert_eq!(e_hit, e_cold, "expected replay diverged");
    assert_eq!(r_hit, r_cold, "sigma replay diverged");
    assert_eq!(
        r_hit.risk_policy, "sigma1.5",
        "a sigma hit must never serve the expected entry"
    );

    // Cache-off recompute per policy stays bit-identical too, and the
    // forest-backed response carries a real (ordered) uncertainty band.
    let mut reference = Optimizer::named();
    reference.set_cache_capacity(0);
    reference
        .train(&TrainRequest::new(200))
        .expect("same training request, same forest");
    assert_eq!(reference.optimize(&expected).expect("cache-off"), e_cold);
    assert_eq!(reference.optimize(&robust).expect("cache-off"), r_cold);
    assert!(e_cold.cost_std >= 0.0);
    assert!(e_cold.cost_q10 <= e_cold.cost_q90, "quantiles are ordered");
}

/// `stats.requests` counts `Optimizer::optimize` calls, the plan cache's
/// recency clock, not verbs: every optimize counts (hit, miss or refused),
/// `compare` and an `execute` without assignments count the optimize they
/// make, and `train`, `stats` and an assigned `execute` count nothing.
#[test]
fn stats_requests_count_optimize_calls_in_a_mixed_session() {
    let mut opt = Optimizer::named();
    let spec = WorkloadSpec::WordCount { scale: 1e5 };
    let sim = BackendChoice::Simulator {
        seed: 3,
        noise: 0.0,
    };
    let requests = |opt: &Optimizer| opt.service_stats().requests;

    let winner = opt.optimize(&OptimizeRequest::new(spec)).expect("miss");
    opt.optimize(&OptimizeRequest::new(spec)).expect("hit");
    let refused =
        opt.optimize(&OptimizeRequest::new(spec).with_risk(RiskPolicy::MeanPlusKSigma(-1.0)));
    assert!(matches!(refused, Err(ServiceError::InvalidRequest(_))));
    assert_eq!(requests(&opt), 3, "three optimize calls");

    opt.compare(&CompareRequest {
        workload: spec,
        policy: ExecutionPolicy::default(),
        sim_seed: 5,
    })
    .expect("compare");
    opt.execute(&ExecuteRequest::new(spec).with_backend(sim))
        .expect("unassigned execute");
    assert_eq!(
        requests(&opt),
        5,
        "compare and unassigned execute optimize once each"
    );

    opt.execute(
        &ExecuteRequest::new(spec)
            .with_assignments(winner.assignments)
            .with_backend(sim),
    )
    .expect("assigned execute");
    opt.train(&TrainRequest::new(64)).expect("train");
    assert_eq!(
        requests(&opt),
        5,
        "train, stats and assigned execute do not count"
    );
}

#[test]
fn invalid_requests_error_instead_of_panicking() {
    let mut opt = Optimizer::named();
    let bad_ops = opt.optimize(&OptimizeRequest::new(WorkloadSpec::Pipeline {
        ops: 1,
        scale: 1e5,
    }));
    assert!(matches!(bad_ops, Err(ServiceError::InvalidRequest(_))));

    let bad_density = opt.optimize(&OptimizeRequest::new(WorkloadSpec::RandomDag {
        seed: 1,
        ops: 5,
        density: 1.5,
    }));
    assert!(matches!(bad_density, Err(ServiceError::InvalidRequest(_))));

    let bad_rows = opt.train(&TrainRequest::new(2));
    assert!(matches!(bad_rows, Err(ServiceError::InvalidRequest(_))));

    // A search is refused at the merge that would stage its rows past the
    // budget, before that merge allocates: the unpruned 12-operator request
    // used to abort the process asking for 95 GB. Unpruned, the budget falls
    // between the 8- and 9-operator pipelines, so the 7-operator prune-off
    // arm of the cache-key test above still runs.
    let unpruned = ExecutionPolicy::default().with_prune(false);
    let dag = WorkloadSpec::RandomDag {
        seed: 3,
        ops: 12,
        density: 0.5,
    };
    let pipeline = |ops| WorkloadSpec::Pipeline { ops, scale: 1e6 };
    for (spec, rows) in [(dag, 2_954_279), (pipeline(9), 362_018)] {
        match opt.optimize(&OptimizeRequest::new(spec).with_policy(unpruned)) {
            Err(ServiceError::TooLarge {
                what,
                estimate,
                limit,
            }) => assert_eq!((what, estimate, limit), ("enumeration rows", rows, 262_144)),
            other => panic!("over-budget unpruned request answered {other:?}"),
        }
    }
    let eight = opt.optimize(&OptimizeRequest::new(pipeline(8)).with_policy(unpruned));
    assert!(eight.is_ok_and(|resp| resp.stats.generated <= 262_144));

    // Errors must not poison the facade: a valid request still succeeds.
    opt.optimize(&OptimizeRequest::new(WorkloadSpec::WordCount {
        scale: 1e5,
    }))
    .expect("facade stays usable after rejected requests");
}

/// Every `random_dag` spec the wire accepts is answered — optimized, or
/// refused as too large by the enumeration budget — and none aborts the
/// process or holds the facade for minutes: 64 seeded specs over the whole
/// domain (`ops` 2–128 with both ends, `density` in [0, 1] with both ends,
/// any seed), each sent as a wire line under the analytic oracle.
#[test]
fn every_random_dag_the_wire_accepts_is_answered() {
    let mut rng = SplitMix64::new(0x0da6_5eed);
    let mut opt = Optimizer::named();
    let (mut answered, mut refused) = (0, 0);
    for case in 0..64 {
        let ops = match case {
            0 => 2,
            1 => 128,
            _ => 2 + rng.gen_range(127),
        };
        let density = match case % 8 {
            0 => 0.0,
            1 => 1.0,
            _ => rng.next_f64(),
        };
        let seed = rng.next_u64();
        let line = format!(
            r#"{{"op":"optimize","workload":{{"kind":"random_dag","ops":{ops},"seed":{seed},"density":{density:?}}}}}"#
        );
        let Ok(Request::Optimize(req)) = parse_request(&line) else {
            panic!("{line}: not an optimize request");
        };
        match opt.optimize(&req) {
            Ok(resp) => {
                assert_eq!(resp.assignments.len(), ops, "{line}");
                assert!(resp.stats.generated <= 262_144, "{line}");
                answered += 1;
            }
            Err(ServiceError::TooLarge {
                what: "enumeration rows",
                estimate,
                limit: 262_144,
            }) => {
                assert!(estimate > 262_144, "{line}");
                refused += 1;
            }
            Err(other) => panic!("{line}: {other}"),
        }
    }
    // Most of the domain is large: ops is uniform up to 128, and the
    // budget answers default-density DAGs up to about 16 operators.
    assert_eq!((answered, refused), (15, 49));
}

/// Caching off is one state, however it is asked for: a facade switched
/// off with `set_cache_enabled(false)` and one given capacity 0 answer the
/// same requests with the same responses and report the same counters,
/// capacity 0 and one miss per `optimize` call, repeats included.
#[test]
fn a_cache_off_facade_counts_every_lookup_as_a_miss() {
    let mut switched_off = Optimizer::named();
    switched_off.set_cache_enabled(false);
    let mut zero = Optimizer::named();
    zero.set_cache_capacity(0);
    let requests = [
        OptimizeRequest::new(WorkloadSpec::WordCount { scale: 1e5 }),
        OptimizeRequest::new(WorkloadSpec::WordCount { scale: 1e5 }),
        OptimizeRequest::new(WorkloadSpec::TpchQ3 { scale: 1e6 }),
        OptimizeRequest::new(WorkloadSpec::WordCount { scale: 1e5 })
            .with_risk(RiskPolicy::MeanPlusKSigma(1.0)),
        OptimizeRequest::new(WorkloadSpec::TpchQ3 { scale: 1e6 }),
    ];
    for req in &requests {
        let a = switched_off.optimize(req).expect("cache-off optimize");
        let b = zero.optimize(req).expect("capacity-0 optimize");
        assert_eq!(a, b);
    }
    let stats = zero.cache_stats();
    assert_eq!(switched_off.cache_stats(), stats);
    assert_eq!((stats.capacity, stats.len), (0, 0));
    assert_eq!((stats.hits, stats.misses), (0, requests.len() as u64));
    assert_eq!((stats.insertions, stats.evictions), (0, 0));
}
