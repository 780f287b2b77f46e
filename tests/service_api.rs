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
//!   `ServiceError`, never a panic.

use robopt::{
    forest_from_json, forest_to_json, ExecutionPolicy, OptimizeRequest, Optimizer, RiskPolicy,
    ServiceError, TrainRequest, WorkloadSpec,
};
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
    reference.set_cache_enabled(false);

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

    // clear_cache drops entries but keeps lifetime counters monotonic.
    opt.clear_cache();
    let s3 = opt.cache_stats();
    assert_eq!(s3.len, 0);
    assert_eq!(s3.hits, s2.hits);
}

#[test]
fn cache_key_separates_policies_that_change_the_answer() {
    // prune on/off and split_parts are part of the plan signature (they can
    // change the search), so flipping them must MISS; worker count and the
    // hardware clamp only change scheduling, so they must HIT.
    // 7 ops keeps the prune-off arm tractable and inside the facade's
    // unpruned-row budget (unpruned kept-rows grow exponentially in plan
    // depth over the 5-platform named registry).
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
    reference.set_cache_enabled(false);
    reference
        .train(&TrainRequest::new(200))
        .expect("same training request, same forest");
    assert_eq!(reference.optimize(&expected).expect("cache-off"), e_cold);
    assert_eq!(reference.optimize(&robust).expect("cache-off"), r_cold);
    assert!(e_cold.cost_std >= 0.0);
    assert!(e_cold.cost_q10 <= e_cold.cost_q90, "quantiles are ordered");
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

    // An unpruned search is refused before it allocates: the 12-operator
    // request used to abort the process asking for 95 GB. The budget falls
    // between the 8- and 9-operator pipelines (72 000 and 360 000 rows), so
    // the 7-operator prune-off arm of the cache-key test above still runs.
    let unpruned = ExecutionPolicy::default().with_prune(false);
    let dag = WorkloadSpec::RandomDag {
        seed: 3,
        ops: 12,
        density: 0.5,
    };
    let pipeline = WorkloadSpec::Pipeline { ops: 9, scale: 1e6 };
    for (spec, rows) in [(dag, "56250000"), (pipeline, "360000")] {
        match opt.optimize(&OptimizeRequest::new(spec).with_policy(unpruned)) {
            Err(ServiceError::InvalidRequest(msg)) => assert!(
                msg.contains(rows) && msg.contains("262144"),
                "message names the estimate and the limit: {msg}"
            ),
            other => panic!("over-budget unpruned request answered {other:?}"),
        }
    }

    // Errors must not poison the facade: a valid request still succeeds.
    opt.optimize(&OptimizeRequest::new(WorkloadSpec::WordCount {
        scale: 1e5,
    }))
    .expect("facade stays usable after rejected requests");
}
