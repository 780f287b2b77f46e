//! Line-delimited wire protocol for `robopt serve` (DESIGN §10).
//!
//! One JSON object per line in, one per line out. Requests name a verb via
//! `"op"`; responses always carry `"ok"` plus `"kind"` echoing the verb.
//! Rendering goes through [`crate::json::Writer`] and is deterministic:
//! fields appear in struct declaration order, `f64`s use Rust's
//! shortest-round-trip formatting (which `crate::json` parses back to the
//! same bits; non-finite values are `null`), and `cost` is additionally
//! mirrored as a `cost_bits` integer so bit-identity survives any JSON
//! intermediary.
//!
//! Every renderer destructures its response type without `..`, so a field
//! added to the API without deciding how it is rendered does not compile
//! (E0027) instead of silently vanishing from the wire.

use crate::api::{
    BackendChoice, CompareRequest, CompareResponse, ExecuteRequest, ExecuteResponse,
    ExecutionPolicy, OptimizeRequest, OptimizeResponse, ServiceError, SinglePlatformPlan,
    StatsResponse, TrainRequest, TrainResponse, TrainSource, WorkloadParams, WorkloadSpec,
    ENGINE_WORKERS, SIM_SEED, TRAIN_NOISE, TRAIN_SEED,
};
use crate::cache::CacheStats;
use crate::json::{self, JsonValue, Writer};
use robopt_core::RiskPolicy;

/// A parsed service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op":"optimize", "workload":{...}, "policy":{...}}`
    Optimize(OptimizeRequest),
    /// `{"op":"train", ...}`
    Train(TrainRequest),
    /// `{"op":"execute", "workload":{...}, "backend":"engine", ...}`
    Execute(ExecuteRequest),
    /// `{"op":"compare", ...}`
    Compare(CompareRequest),
    /// `{"op":"stats"}`
    Stats,
    /// `{"op":"quit"}` — ends a serve session.
    Quit,
}

/// A response ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Optimization result.
    Optimize(OptimizeResponse),
    /// Training result.
    Train(TrainResponse),
    /// Execution result.
    Execute(ExecuteResponse),
    /// Comparison result.
    Compare(CompareResponse),
    /// Telemetry snapshot.
    Stats(StatsResponse),
    /// Any failure.
    Error(ServiceError),
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let doc = json::parse_borrowed(line).map_err(|e| ServiceError::Parse(e.to_string()))?;
    let op = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServiceError::Parse("missing \"op\" field".to_string()))?;
    match op {
        "optimize" => Ok(Request::Optimize(OptimizeRequest {
            workload: parse_workload(&doc)?,
            policy: parse_policy(&doc)?,
            risk: match field_str(&doc, "risk")? {
                Some(text) => Some(RiskPolicy::parse(text).map_err(ServiceError::Parse)?),
                None => None,
            },
        })),
        "train" => {
            let defaults = TrainRequest::default();
            let seed = field_u64(&doc, "seed")?.unwrap_or(TRAIN_SEED);
            Ok(Request::Train(TrainRequest {
                source: match field_str(&doc, "source")? {
                    None | Some("simulator") => TrainSource::Simulator {
                        seed,
                        noise: field_f64(&doc, "noise")?.unwrap_or(TRAIN_NOISE),
                    },
                    Some("tdgen") => TrainSource::Tdgen { seed },
                    Some(other) => {
                        return Err(ServiceError::Parse(format!(
                            "unknown training source {other:?}"
                        )))
                    }
                },
                rows: field_usize(&doc, "rows")?.unwrap_or(defaults.rows),
                n_trees: field_usize(&doc, "n_trees")?.unwrap_or(defaults.n_trees),
                forest_seed: field_u64(&doc, "forest_seed")?.unwrap_or(defaults.forest_seed),
            }))
        }
        "execute" => Ok(Request::Execute(ExecuteRequest {
            workload: parse_workload(&doc)?,
            assignments: parse_assignments(&doc)?,
            backend: match field_str(&doc, "backend")? {
                None | Some("engine") => BackendChoice::Engine {
                    workers: field_usize(&doc, "workers")?.unwrap_or(ENGINE_WORKERS),
                },
                Some("simulator") => BackendChoice::Simulator {
                    seed: field_u64(&doc, "seed")?.unwrap_or(SIM_SEED),
                    noise: field_f64(&doc, "noise")?.unwrap_or(0.0),
                },
                Some(other) => {
                    return Err(ServiceError::Parse(format!("unknown backend {other:?}")))
                }
            },
        })),
        "compare" => Ok(Request::Compare(CompareRequest {
            workload: parse_workload(&doc)?,
            policy: parse_policy(&doc)?,
            sim_seed: field_u64(&doc, "sim_seed")?.unwrap_or(SIM_SEED),
        })),
        "stats" => Ok(Request::Stats),
        "quit" => Ok(Request::Quit),
        other => Err(ServiceError::Parse(format!("unknown op {other:?}"))),
    }
}

/// Render one response as a single JSON line (no trailing newline).
pub fn render_response(resp: &Response) -> String {
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("ok").bool(!matches!(resp, Response::Error(_)));
        match resp {
            Response::Optimize(r) => {
                w.key("kind").str("optimize");
                optimize_fields(w, r);
            }
            Response::Train(TrainResponse {
                rows,
                n_trees,
                width,
                train_mse,
            }) => {
                w.key("kind").str("train");
                w.key("rows").u64(*rows as u64);
                w.key("n_trees").u64(*n_trees as u64);
                w.key("width").u64(*width as u64);
                w.key("train_mse").f64(*train_mse);
            }
            Response::Execute(ExecuteResponse {
                workload,
                backend,
                assignments,
                seconds,
                compute_seconds,
                overhead_seconds,
                feasible,
                measured,
                output_rows,
                output_digest,
                op_seconds,
                op_output_rows,
            }) => {
                w.key("kind").str("execute");
                w.key("workload").str(workload);
                w.key("backend").str(backend);
                w.key("assignments").arr(assignments, |w, name| w.str(name));
                w.key("seconds").f64(*seconds);
                w.key("compute_seconds").f64(*compute_seconds);
                w.key("overhead_seconds").f64(*overhead_seconds);
                w.key("feasible").bool(*feasible);
                w.key("measured").bool(*measured);
                w.key("output_rows").u64(*output_rows);
                w.key("output_digest").u64(*output_digest);
                w.key("op_seconds").arr(op_seconds, |w, x| w.f64(*x));
                w.key("op_output_rows")
                    .arr(op_output_rows, |w, x| w.u64(*x));
            }
            Response::Compare(CompareResponse {
                workload,
                mixed,
                mix,
                mixed_sim_seconds,
                singles,
                best_single_cost,
                mixed_wins,
            }) => {
                w.key("kind").str("compare");
                w.key("workload").str(workload);
                w.key("mixed").obj(|w| optimize_fields(w, mixed));
                w.key("mix").str(mix);
                w.key("mixed_sim_seconds").f64(*mixed_sim_seconds);
                w.key("singles").arr(singles, |w, single| {
                    let SinglePlatformPlan {
                        platform,
                        cost,
                        sim_seconds,
                    } = single;
                    // An absent number renders like a non-finite one: `null`.
                    w.obj(|w| {
                        w.key("platform").str(platform);
                        w.key("cost").f64(cost.unwrap_or(f64::NAN));
                        w.key("sim_seconds").f64(sim_seconds.unwrap_or(f64::NAN));
                    });
                });
                w.key("best_single_cost")
                    .f64(best_single_cost.unwrap_or(f64::NAN));
                w.key("mixed_wins").bool(*mixed_wins);
            }
            Response::Stats(StatsResponse {
                requests,
                cache,
                total_micros,
            }) => {
                let CacheStats {
                    hits,
                    misses,
                    evictions,
                    insertions,
                    len,
                    capacity,
                } = cache;
                w.key("kind").str("stats");
                w.key("requests").u64(*requests);
                w.key("cache").obj(|w| {
                    w.key("hits").u64(*hits);
                    w.key("misses").u64(*misses);
                    w.key("evictions").u64(*evictions);
                    w.key("insertions").u64(*insertions);
                    w.key("len").u64(*len as u64);
                    w.key("capacity").u64(*capacity as u64);
                    w.key("hit_rate").f64(cache.hit_rate());
                });
                w.key("total_micros").u64(*total_micros);
            }
            Response::Error(e) => w.key("error").str(&e.to_string()),
        }
    });
    w.finish()
}

/// The shared body of an optimize response (also nested in `compare`).
/// `cost` is mirrored as `cost_bits` so consumers that must preserve
/// bit-identity never depend on decimal formatting.
fn optimize_fields(w: &mut Writer, r: &OptimizeResponse) {
    let OptimizeResponse {
        workload,
        signature,
        assignments,
        distinct_platforms,
        cost,
        cost_std,
        cost_q10,
        cost_q90,
        risk_policy,
        stats,
    } = r;
    w.key("workload").str(workload);
    w.key("signature").u64(*signature);
    w.key("assignments").arr(assignments, |w, name| w.str(name));
    w.key("distinct_platforms").u64(*distinct_platforms as u64);
    w.key("cost").f64(*cost);
    w.key("cost_bits").u64(cost.to_bits());
    w.key("cost_std").f64(*cost_std);
    w.key("cost_q10").f64(*cost_q10);
    w.key("cost_q90").f64(*cost_q90);
    w.key("risk_policy").str(risk_policy);
    w.key("stats").obj(|w| {
        w.key("generated").u64(stats.generated);
        w.key("kept").u64(stats.kept);
        w.key("merges").u64(stats.merges);
        w.key("peak_rows").u64(stats.peak_rows);
    });
}

fn parse_workload(doc: &JsonValue<'_>) -> Result<WorkloadSpec, ServiceError> {
    let w = doc
        .get("workload")
        .ok_or_else(|| ServiceError::Parse("missing \"workload\" object".to_string()))?;
    let kind = field_str(w, "kind")?
        .ok_or_else(|| ServiceError::Parse("workload missing \"kind\"".to_string()))?;
    let params = WorkloadParams {
        scale: field_f64(w, "scale")?,
        ops: field_usize(w, "ops")?,
        seed: field_u64(w, "seed")?,
        density: field_f64(w, "density")?,
        iterations: field(w, "iterations", "an integer that fits u32", |v| {
            v.as_u64().and_then(|n| u32::try_from(n).ok())
        })?,
    };
    WorkloadSpec::named(kind, params).map_err(|e| ServiceError::Parse(e.to_string()))
}

fn parse_policy(doc: &JsonValue<'_>) -> Result<ExecutionPolicy, ServiceError> {
    let mut policy = ExecutionPolicy::default();
    if let Some(p) = field(doc, "policy", "an object", |v| {
        matches!(v, JsonValue::Obj(_)).then_some(v)
    })? {
        if let Some(workers) = field_usize(p, "workers")? {
            policy = policy.with_workers(workers);
        }
        if let Some(parts) = field_usize(p, "split_parts")? {
            policy = policy.with_split_parts(parts);
        }
        if let Some(prune) = field_bool(p, "prune")? {
            policy = policy.with_prune(prune);
        }
        if let Some(clamp) = field_bool(p, "hardware_clamp")? {
            policy = policy.with_hardware_clamp(clamp);
        }
    }
    Ok(policy)
}

/// The optional field `key` of `v`, decoded by `read`: absent is `None`,
/// but a field that is present and does not decode (wrong JSON type, or a
/// number outside the target integer type) is a parse error naming it —
/// never a silent fall-back to the default.
fn field<'a, 'j, T>(
    v: &'a JsonValue<'j>,
    key: &str,
    want: &str,
    read: impl FnOnce(&'a JsonValue<'j>) -> Option<T>,
) -> Result<Option<T>, ServiceError> {
    v.get(key)
        .map(|raw| {
            read(raw).ok_or_else(|| ServiceError::Parse(format!("field {key:?} must be {want}")))
        })
        .transpose()
}

fn field_f64(v: &JsonValue<'_>, key: &str) -> Result<Option<f64>, ServiceError> {
    field(v, key, "a number", JsonValue::as_f64)
}

fn field_u64(v: &JsonValue<'_>, key: &str) -> Result<Option<u64>, ServiceError> {
    field(v, key, "an integer that fits u64", JsonValue::as_u64)
}

fn field_usize(v: &JsonValue<'_>, key: &str) -> Result<Option<usize>, ServiceError> {
    field(v, key, "an integer that fits usize", JsonValue::as_usize)
}

fn field_bool(v: &JsonValue<'_>, key: &str) -> Result<Option<bool>, ServiceError> {
    field(v, key, "a boolean", JsonValue::as_bool)
}

fn field_str<'a>(v: &'a JsonValue<'_>, key: &str) -> Result<Option<&'a str>, ServiceError> {
    field(v, key, "a string", JsonValue::as_str)
}

/// The optional `"assignments"` array of platform names; absent or empty
/// means "optimize first".
fn parse_assignments(doc: &JsonValue<'_>) -> Result<Vec<String>, ServiceError> {
    let names = field(doc, "assignments", "an array of strings", |v| {
        v.as_arr()?
            .iter()
            .map(|item| item.as_str().map(str::to_string))
            .collect()
    })?;
    Ok(names.unwrap_or_default())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn optimize_request_round_trips_through_the_wire() {
        let req = parse_request(
            r#"{"op":"optimize","workload":{"kind":"wordcount","scale":1e7},"policy":{"workers":4,"split_parts":8,"prune":true}}"#,
        )
        .expect("parse");
        assert_eq!(
            req,
            Request::Optimize(OptimizeRequest {
                workload: WorkloadSpec::WordCount { scale: 1e7 },
                policy: ExecutionPolicy::default()
                    .with_workers(4)
                    .with_split_parts(8),
                risk: None,
            })
        );
    }

    #[test]
    fn risk_policies_parse_from_the_wire_and_garbage_is_rejected() {
        let req = parse_request(
            r#"{"op":"optimize","workload":{"kind":"wordcount","scale":1e6},"risk":"sigma1.5"}"#,
        )
        .expect("parse risk");
        assert_eq!(
            req,
            Request::Optimize(
                OptimizeRequest {
                    workload: WorkloadSpec::WordCount { scale: 1e6 },
                    policy: ExecutionPolicy::default(),
                    risk: None,
                }
                .with_risk(RiskPolicy::MeanPlusKSigma(1.5))
            )
        );
        for bad in [
            r#"{"op":"optimize","workload":{"kind":"wordcount"},"risk":"wild"}"#,
            r#"{"op":"optimize","workload":{"kind":"wordcount"},"risk":"q1.5"}"#,
            r#"{"op":"optimize","workload":{"kind":"wordcount"},"risk":"sigma-3"}"#,
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Parse(_))),
                "{bad:?} should be a parse error"
            );
        }
    }

    #[test]
    fn malformed_requests_yield_parse_errors() {
        // (line, what the error message must name)
        for (bad, names) in [
            ("", "json error"),
            ("not json", "json error"),
            ("{}", "\"op\""),
            (r#"{"op":"warp"}"#, "unknown op"),
            (
                r#"{"op":"simulate","workload":{"kind":"wordcount"}}"#,
                "unknown op",
            ),
            (r#"{"op":"optimize"}"#, "\"workload\""),
            (
                r#"{"op":"optimize","workload":{"kind":"mystery"}}"#,
                "mystery",
            ),
            (r#"{"op":"train","source":"oracle"}"#, "oracle"),
            // Present but mistyped or out of range: an error naming the
            // field, never a silent default.
            (r#"{"op":"train","rows":"many","n_trees":2}"#, "\"rows\""),
            (
                r#"{"op":"execute","workload":{"kind":"pagerank","iterations":4294967296}}"#,
                "\"iterations\"",
            ),
            (
                r#"{"op":"optimize","workload":{"kind":"wordcount"},"risk":7}"#,
                "\"risk\"",
            ),
            (
                r#"{"op":"optimize","workload":{"kind":"wordcount"},"policy":{"prune":"no"}}"#,
                "\"prune\"",
            ),
            (
                r#"{"op":"execute","workload":{"kind":"wordcount"},"assignments":["java",7,"java","java","java","java"]}"#,
                "\"assignments\"",
            ),
        ] {
            match parse_request(bad) {
                Err(ServiceError::Parse(msg)) => {
                    assert!(msg.contains(names), "{bad:?}: {msg:?} lacks {names:?}")
                }
                other => panic!("{bad:?} should be a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn execute_request_parses_backends_and_iterative_workloads() {
        let engine = parse_request(
            r#"{"op":"execute","workload":{"kind":"pagerank","scale":2e4,"iterations":5},"workers":4}"#,
        )
        .expect("parse engine execute");
        assert_eq!(
            engine,
            Request::Execute(ExecuteRequest {
                workload: WorkloadSpec::PageRank {
                    scale: 2e4,
                    iterations: 5,
                },
                assignments: Vec::new(),
                backend: BackendChoice::Engine { workers: 4 },
            })
        );
        let sim = parse_request(
            r#"{"op":"execute","workload":{"kind":"kmeans","scale":1e4},"backend":"simulator","seed":7,"noise":0.1,"assignments":["java","java"]}"#,
        )
        .expect("parse simulator execute");
        assert_eq!(
            sim,
            Request::Execute(ExecuteRequest {
                workload: WorkloadSpec::KMeans {
                    scale: 1e4,
                    iterations: 10,
                },
                assignments: vec!["java".to_string(), "java".to_string()],
                backend: BackendChoice::Simulator {
                    seed: 7,
                    noise: 0.1,
                },
            })
        );
        assert!(matches!(
            parse_request(r#"{"op":"execute","workload":{"kind":"wordcount"},"backend":"abacus"}"#),
            Err(ServiceError::Parse(_))
        ));
    }

    #[test]
    fn absent_fields_take_the_documented_defaults() {
        // An unparameterised workload of every kind, then one explicit
        // parameter; the label renders every field of the spec.
        for (workload, label) in [
            (r#"{"kind":"wordcount"}"#, "wordcount(1e7)"),
            (r#"{"kind":"tpch_q3"}"#, "tpch_q3(1e6)"),
            (r#"{"kind":"pipeline"}"#, "pipeline(ops=16,1e5)"),
            (
                r#"{"kind":"random_dag"}"#,
                "random_dag(seed=1,ops=16,density=0.30)",
            ),
            (r#"{"kind":"pagerank"}"#, "pagerank(1e5,iters=10)"),
            (r#"{"kind":"kmeans"}"#, "kmeans(1e5,iters=10)"),
            (r#"{"kind":"tpch_q3","scale":1e7}"#, "tpch_q3(1e7)"),
        ] {
            let line = format!(r#"{{"op":"optimize","workload":{workload}}}"#);
            let Ok(Request::Optimize(req)) = parse_request(&line) else {
                panic!("{line} should parse as optimize");
            };
            assert_eq!(req.workload.name(), label);
            assert_eq!(req, OptimizeRequest::new(req.workload), "{label}");
        }
        // A bare execute on either backend, a bare compare, a bare train.
        let wc = WorkloadSpec::WordCount { scale: 1e7 };
        for (field, backend) in [
            ("", BackendChoice::Engine { workers: 2 }),
            (r#","backend":"engine""#, BackendChoice::default()),
            (
                r#","backend":"simulator""#,
                BackendChoice::Simulator {
                    seed: 42,
                    noise: 0.0,
                },
            ),
        ] {
            let line = format!(r#"{{"op":"execute","workload":{{"kind":"wordcount"}}{field}}}"#);
            let expected = ExecuteRequest::new(wc).with_backend(backend);
            assert_eq!(parse_request(&line), Ok(Request::Execute(expected)));
        }
        assert_eq!(
            parse_request(r#"{"op":"compare","workload":{"kind":"wordcount"}}"#),
            Ok(Request::Compare(CompareRequest {
                workload: wc,
                policy: ExecutionPolicy::default(),
                sim_seed: 42,
            }))
        );
        assert_eq!(
            parse_request(r#"{"op":"train"}"#),
            Ok(Request::Train(TrainRequest::default()))
        );
    }

    /// One response per wire shape and the exact line the hand-assembled
    /// renderer of PR 18 wrote for it: escapes, `-0.0`, a subnormal,
    /// exponent forms, full-width integers, non-finite and absent numbers.
    pub(crate) fn golden_responses() -> Vec<(Response, String)> {
        let optimize = OptimizeResponse {
            workload: "wordcount(1e7)".to_string(),
            signature: u64::MAX - 2,
            assignments: vec!["java".to_string(), "spark".to_string()],
            distinct_platforms: 2,
            cost: 0.1 + 0.2,
            cost_std: 0.25,
            cost_q10: -0.0,
            cost_q90: 1e21,
            risk_policy: "sigma1.5".to_string(),
            stats: robopt_core::EnumStats {
                generated: 40,
                kept: 12,
                merges: 5,
                peak_rows: 9,
            },
        };
        let optimize_fields = r#""workload":"wordcount(1e7)","signature":18446744073709551613,"assignments":["java","spark"],"distinct_platforms":2,"cost":0.30000000000000004,"cost_bits":4599075939470750516,"cost_std":0.25,"cost_q10":-0.0,"cost_q90":1e21,"risk_policy":"sigma1.5","stats":{"generated":40,"kept":12,"merges":5,"peak_rows":9}"#;
        [
            (
                Response::Optimize(optimize.clone()),
                format!(r#"{{"ok":true,"kind":"optimize",{optimize_fields}}}"#),
            ),
            (
                Response::Train(TrainResponse {
                    rows: 256,
                    n_trees: 8,
                    width: 91,
                    train_mse: 1.5e-7,
                }),
                r#"{"ok":true,"kind":"train","rows":256,"n_trees":8,"width":91,"train_mse":1.5e-7}"#.to_string(),
            ),
            (
                Response::Execute(ExecuteResponse {
                    workload: "tab\there \"quoted\" back\\slash".to_string(),
                    backend: "engine".to_string(),
                    assignments: vec![],
                    seconds: f64::INFINITY,
                    compute_seconds: 5e-324,
                    overhead_seconds: 0.25,
                    feasible: false,
                    measured: true,
                    output_rows: 64,
                    output_digest: u64::MAX,
                    op_seconds: vec![0.5, f64::NAN, 123456789.125],
                    op_output_rows: vec![100, 0, 64],
                }),
                r#"{"ok":true,"kind":"execute","workload":"tab\there \"quoted\" back\\slash","backend":"engine","assignments":[],"seconds":null,"compute_seconds":5e-324,"overhead_seconds":0.25,"feasible":false,"measured":true,"output_rows":64,"output_digest":18446744073709551615,"op_seconds":[0.5,null,123456789.125],"op_output_rows":[100,0,64]}"#.to_string(),
            ),
            (
                Response::Compare(CompareResponse {
                    workload: "tpch_q3(1e6)".to_string(),
                    mixed: optimize,
                    mix: "java+spark".to_string(),
                    mixed_sim_seconds: 12.5,
                    singles: vec![
                        SinglePlatformPlan {
                            platform: "java".to_string(),
                            cost: Some(3.5),
                            sim_seconds: Some(f64::INFINITY),
                        },
                        SinglePlatformPlan {
                            platform: "giraph".to_string(),
                            cost: None,
                            sim_seconds: None,
                        },
                    ],
                    best_single_cost: Some(3.5),
                    mixed_wins: true,
                }),
                format!(
                    r#"{{"ok":true,"kind":"compare","workload":"tpch_q3(1e6)","mixed":{{{optimize_fields}}},"mix":"java+spark","mixed_sim_seconds":12.5,"singles":[{{"platform":"java","cost":3.5,"sim_seconds":null}},{{"platform":"giraph","cost":null,"sim_seconds":null}}],"best_single_cost":3.5,"mixed_wins":true}}"#
                ),
            ),
            (
                Response::Stats(StatsResponse {
                    requests: 7,
                    cache: CacheStats {
                        hits: 1,
                        misses: 2,
                        evictions: 3,
                        insertions: 4,
                        len: 5,
                        capacity: 6,
                    },
                    total_micros: 1234,
                }),
                r#"{"ok":true,"kind":"stats","requests":7,"cache":{"hits":1,"misses":2,"evictions":3,"insertions":4,"len":5,"capacity":6,"hit_rate":0.3333333333333333},"total_micros":1234}"#.to_string(),
            ),
            (
                Response::Error(ServiceError::Parse(
                    "line\nbreak, bell \u{7}, \"quote\", π".to_string(),
                )),
                r#"{"ok":false,"error":"parse error: line\nbreak, bell \u0007, \"quote\", π"}"#.to_string(),
            ),
        ]
        .into()
    }

    #[test]
    fn every_response_shape_renders_its_golden_line() {
        for (resp, line) in &golden_responses() {
            assert_eq!(&render_response(resp), line);
            // Valid JSON, and the decimal `cost` carries the `cost_bits`.
            let doc = crate::json::parse(line).expect("renderer must emit valid JSON");
            let body = doc.get("mixed").unwrap_or(&doc);
            assert_eq!(
                body.get("cost")
                    .and_then(JsonValue::as_f64)
                    .map(f64::to_bits),
                body.get("cost_bits").and_then(JsonValue::as_u64),
            );
        }
    }
}
