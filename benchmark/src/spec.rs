//! `BENCHMARK.json`, embedded at build time and read once: the names,
//! units, bounds and run length the program works with are the ones the
//! driver reads, so there is no second table to keep equal to it.

use std::sync::OnceLock;

use robopt::json::{self, JsonValue};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may worsen; 0 for
    /// a per-layer metric (they have no bound).
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key:?} list"))
    };
    let text_of = |item: &JsonValue, key: &str| {
        item.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry has no {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|item| {
                Ok(Metric {
                    name: text_of(item, "name")?,
                    unit: text_of(item, "unit")?,
                    bound: item.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("BENCHMARK.json: no \"run_seconds\"")?,
        workloads: list("workloads")?
            .iter()
            .map(|item| text_of(item, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The committed `BENCHMARK.json`.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("the committed BENCHMARK.json is valid")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn the_committed_file_names_the_six_workloads_and_bounds_every_end_to_end_metric() {
        let spec = spec();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(!spec.per_layer.is_empty() && spec.per_layer.len() <= 128);
    }

    #[test]
    fn a_file_without_a_list_is_refused() {
        assert!(parse("{\"run_seconds\":10}").is_err());
    }
}
