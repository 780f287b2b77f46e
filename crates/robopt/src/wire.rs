//! Line-delimited wire protocol for `robopt serve` (DESIGN §10).
//!
//! One JSON object per line in, one per line out. Requests name a verb via
//! `"op"`; responses always carry `"ok"` plus `"kind"` echoing the verb.
//! Rendering is hand-rolled and deterministic: fields appear in struct
//! declaration order, `f64`s use Rust's shortest-round-trip formatting
//! (which `crate::json` parses back to the same bits), and `cost` is
//! additionally mirrored as a `cost_bits` integer so bit-identity survives
//! any JSON intermediary.
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
use crate::json::{self, escape_into, push_array, JsonValue};
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
    let doc = json::parse(line).map_err(|e| ServiceError::Parse(e.to_string()))?;
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
    match resp {
        Response::Optimize(r) => {
            let mut s = String::from("{\"ok\":true,\"kind\":\"optimize\",");
            push_optimize_fields(&mut s, r);
            s.push('}');
            s
        }
        Response::Train(TrainResponse {
            rows,
            n_trees,
            width,
            train_mse,
        }) => format!(
            "{{\"ok\":true,\"kind\":\"train\",\"rows\":{},\"n_trees\":{},\"width\":{},\
             \"train_mse\":{}}}",
            rows,
            n_trees,
            width,
            num(*train_mse)
        ),
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
            let mut s = String::from("{\"ok\":true,\"kind\":\"execute\",\"workload\":");
            push_str_value(&mut s, workload);
            s.push_str(",\"backend\":");
            push_str_value(&mut s, backend);
            s.push_str(",\"assignments\":");
            push_array(&mut s, assignments, |s, name| push_str_value(s, name));
            s.push_str(&format!(
                ",\"seconds\":{},\"compute_seconds\":{},\"overhead_seconds\":{},\
                 \"feasible\":{},\"measured\":{},\"output_rows\":{},\"output_digest\":{}",
                num(*seconds),
                num(*compute_seconds),
                num(*overhead_seconds),
                feasible,
                measured,
                output_rows,
                output_digest
            ));
            s.push_str(",\"op_seconds\":");
            push_array(&mut s, op_seconds, |s, x| s.push_str(&num(*x)));
            s.push_str(",\"op_output_rows\":");
            push_array(&mut s, op_output_rows, |s, x| s.push_str(&x.to_string()));
            s.push('}');
            s
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
            let mut s = String::from("{\"ok\":true,\"kind\":\"compare\",\"workload\":");
            push_str_value(&mut s, workload);
            s.push_str(",\"mixed\":{");
            push_optimize_fields(&mut s, mixed);
            s.push_str("},\"mix\":");
            push_str_value(&mut s, mix);
            s.push_str(&format!(
                ",\"mixed_sim_seconds\":{}",
                num(*mixed_sim_seconds)
            ));
            s.push_str(",\"singles\":[");
            for (i, single) in singles.iter().enumerate() {
                let SinglePlatformPlan {
                    platform,
                    cost,
                    sim_seconds,
                } = single;
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"platform\":");
                push_str_value(&mut s, platform);
                s.push_str(&format!(
                    ",\"cost\":{},\"sim_seconds\":{}}}",
                    opt_num(*cost),
                    opt_num(*sim_seconds)
                ));
            }
            s.push_str(&format!(
                "],\"best_single_cost\":{},\"mixed_wins\":{}}}",
                opt_num(*best_single_cost),
                mixed_wins
            ));
            s
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
            format!(
                "{{\"ok\":true,\"kind\":\"stats\",\"requests\":{},\"cache\":{{\
                 \"hits\":{},\"misses\":{},\"evictions\":{},\"insertions\":{},\
                 \"len\":{},\"capacity\":{},\"hit_rate\":{}}},\"total_micros\":{}}}",
                requests,
                hits,
                misses,
                evictions,
                insertions,
                len,
                capacity,
                num(cache.hit_rate()),
                total_micros
            )
        }
        Response::Error(e) => {
            let mut s = String::from("{\"ok\":false,\"error\":");
            push_str_value(&mut s, &e.to_string());
            s.push('}');
            s
        }
    }
}

/// The shared body of an optimize response (also nested in `compare`).
/// `cost` is mirrored as `cost_bits` so consumers that must preserve
/// bit-identity never depend on decimal formatting.
fn push_optimize_fields(s: &mut String, r: &OptimizeResponse) {
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
    s.push_str("\"workload\":");
    push_str_value(s, workload);
    s.push_str(&format!(",\"signature\":{signature}"));
    s.push_str(",\"assignments\":");
    push_array(s, assignments, |s, name| push_str_value(s, name));
    s.push_str(&format!(
        ",\"distinct_platforms\":{},\"cost\":{},\"cost_bits\":{},\
         \"cost_std\":{},\"cost_q10\":{},\"cost_q90\":{}",
        distinct_platforms,
        num(*cost),
        cost.to_bits(),
        num(*cost_std),
        num(*cost_q10),
        num(*cost_q90)
    ));
    s.push_str(",\"risk_policy\":");
    push_str_value(s, risk_policy);
    s.push_str(&format!(
        ",\"stats\":{{\"generated\":{},\"kept\":{},\"merges\":{},\"peak_rows\":{}}}",
        stats.generated, stats.kept, stats.merges, stats.peak_rows
    ));
}

/// Shortest-round-trip JSON number for a finite `f64`, `null` otherwise.
/// Rust's `{:?}` float formatting is guaranteed to re-parse to the same
/// bits, so finite values survive the wire exactly.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(x) => num(x),
        None => "null".to_string(),
    }
}

fn push_str_value(s: &mut String, text: &str) {
    s.push('"');
    escape_into(s, text);
    s.push('"');
}

fn parse_workload(doc: &JsonValue) -> Result<WorkloadSpec, ServiceError> {
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

fn parse_policy(doc: &JsonValue) -> Result<ExecutionPolicy, ServiceError> {
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
fn field<'a, T>(
    v: &'a JsonValue,
    key: &str,
    want: &str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<Option<T>, ServiceError> {
    v.get(key)
        .map(|raw| {
            read(raw).ok_or_else(|| ServiceError::Parse(format!("field {key:?} must be {want}")))
        })
        .transpose()
}

fn field_f64(v: &JsonValue, key: &str) -> Result<Option<f64>, ServiceError> {
    field(v, key, "a number", JsonValue::as_f64)
}

fn field_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, ServiceError> {
    field(v, key, "an integer that fits u64", JsonValue::as_u64)
}

fn field_usize(v: &JsonValue, key: &str) -> Result<Option<usize>, ServiceError> {
    field(v, key, "an integer that fits usize", JsonValue::as_usize)
}

fn field_bool(v: &JsonValue, key: &str) -> Result<Option<bool>, ServiceError> {
    field(v, key, "a boolean", JsonValue::as_bool)
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> Result<Option<&'a str>, ServiceError> {
    field(v, key, "a string", JsonValue::as_str)
}

/// The optional `"assignments"` array of platform names; absent or empty
/// means "optimize first".
fn parse_assignments(doc: &JsonValue) -> Result<Vec<String>, ServiceError> {
    let names = field(doc, "assignments", "an array of strings", |v| {
        v.as_arr()?
            .iter()
            .map(|item| item.as_str().map(str::to_string))
            .collect()
    })?;
    Ok(names.unwrap_or_default())
}

#[cfg(test)]
mod tests {
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
    fn rendered_responses_are_valid_json_and_carry_cost_bits() {
        let resp = Response::Optimize(OptimizeResponse {
            workload: "wordcount(1e7)".to_string(),
            signature: 123,
            assignments: vec!["java".to_string(), "spark".to_string()],
            distinct_platforms: 2,
            cost: 0.1 + 0.2,
            cost_std: 0.25,
            cost_q10: 0.2,
            cost_q90: 0.4,
            risk_policy: "sigma1.5".to_string(),
            stats: Default::default(),
        });
        let line = render_response(&resp);
        let doc = crate::json::parse(&line).expect("renderer must emit valid JSON");
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        let bits = doc
            .get("cost_bits")
            .and_then(JsonValue::as_u64)
            .expect("cost_bits");
        assert_eq!(bits, (0.1f64 + 0.2).to_bits(), "bit-exact cost transport");
        let cost = doc.get("cost").and_then(JsonValue::as_f64).expect("cost");
        assert_eq!(cost.to_bits(), bits, "shortest-round-trip decimal agrees");
        // The uncertainty fields ride the same line (every public response
        // field must be wire-rendered).
        assert_eq!(
            doc.get("cost_std").and_then(JsonValue::as_f64),
            Some(0.25),
            "cost_std on the wire"
        );
        assert_eq!(doc.get("cost_q10").and_then(JsonValue::as_f64), Some(0.2));
        assert_eq!(doc.get("cost_q90").and_then(JsonValue::as_f64), Some(0.4));
        assert_eq!(
            doc.get("risk_policy").and_then(JsonValue::as_str),
            Some("sigma1.5")
        );
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

    #[test]
    fn execute_response_renders_every_field_exactly() {
        let resp = Response::Execute(ExecuteResponse {
            workload: "pagerank(1e5,iters=10)".to_string(),
            backend: "engine".to_string(),
            assignments: vec!["java".to_string()],
            seconds: 1.25,
            compute_seconds: 1.0,
            overhead_seconds: 0.25,
            feasible: true,
            measured: true,
            output_rows: 64,
            output_digest: u64::MAX - 1,
            op_seconds: vec![0.5, 0.75],
            op_output_rows: vec![100, 64],
        });
        let line = render_response(&resp);
        let doc = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("execute"));
        // The digest is a full-width u64 and must survive exactly.
        assert_eq!(
            doc.get("output_digest").and_then(JsonValue::as_u64),
            Some(u64::MAX - 1)
        );
        assert_eq!(doc.get("measured").and_then(JsonValue::as_bool), Some(true));
        for key in [
            "workload",
            "backend",
            "assignments",
            "seconds",
            "compute_seconds",
            "overhead_seconds",
            "feasible",
            "measured",
            "output_rows",
            "output_digest",
            "op_seconds",
            "op_output_rows",
        ] {
            assert!(doc.get(key).is_some(), "missing wire field {key:?}");
        }
    }

    #[test]
    fn error_rendering_escapes_the_message() {
        let line = render_response(&Response::Error(ServiceError::Parse(
            "quote \" and \\ backslash".to_string(),
        )));
        let doc = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert!(doc
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|s| s.contains('"')));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let resp = Response::Execute(ExecuteResponse {
            workload: "w".to_string(),
            backend: "simulator".to_string(),
            assignments: vec![],
            seconds: f64::INFINITY,
            compute_seconds: f64::INFINITY,
            overhead_seconds: 0.0,
            feasible: false,
            measured: false,
            output_rows: 0,
            output_digest: 0,
            op_seconds: vec![f64::NAN],
            op_output_rows: vec![0],
        });
        let line = render_response(&resp);
        let doc = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("seconds"), Some(&JsonValue::Null));
        assert_eq!(
            doc.get("feasible").and_then(JsonValue::as_bool),
            Some(false)
        );
    }
}
