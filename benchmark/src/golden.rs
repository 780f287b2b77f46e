//! Committed reference answers (`golden/*.json`), embedded at build time.
//!
//! One file per workload: for every distinct request the assignment names
//! and the cost the seed state reported (checked to 1e-9 relative), and for
//! `execute_engine` the pinned assignment plus the output digest. The pools
//! are fixed (`--seed` draws the stream over them), so the answers hold at
//! every seed.

use std::collections::BTreeMap;

use robopt::json::{self, JsonValue};

use crate::workloads::Workload;

/// Relative tolerance on a golden cost.
pub const COST_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq)]
pub struct GoldenEntry {
    pub assignments: Vec<String>,
    pub cost: f64,
    /// Engine output digest and row count (`execute_engine` only, else 0).
    pub digest: u64,
    pub rows: u64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden {
    pub entries: BTreeMap<String, GoldenEntry>,
}

/// The committed golden text of `workload`.
pub fn embedded(workload: Workload) -> &'static str {
    match workload {
        Workload::ColdForest => include_str!("../golden/cold_forest.json"),
        Workload::ColdAnalytic => include_str!("../golden/cold_analytic.json"),
        Workload::ScaleWide => include_str!("../golden/scale_wide.json"),
        Workload::ServeCached => include_str!("../golden/serve_cached.json"),
        Workload::ServeChurn => include_str!("../golden/serve_churn.json"),
        Workload::ExecuteEngine => include_str!("../golden/execute_engine.json"),
    }
}

impl Golden {
    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = json::parse(text).map_err(|e| format!("golden file: {e}"))?;
        let mut entries = BTreeMap::new();
        let items = doc
            .get("entries")
            .and_then(JsonValue::as_arr)
            .ok_or("golden file: missing \"entries\" array")?;
        for item in items {
            let field = |name: &str| {
                item.get(name)
                    .ok_or_else(|| format!("golden entry: missing \"{name}\""))
            };
            let key = field("key")?.as_str().ok_or("golden entry: key")?;
            let assignments = field("assignments")?
                .as_arr()
                .ok_or("golden entry: assignments")?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or("golden entry: assignment names")?;
            let entry = GoldenEntry {
                assignments,
                cost: field("cost")?.as_f64().ok_or("golden entry: cost")?,
                digest: field("digest")?.as_u64().ok_or("golden entry: digest")?,
                rows: field("rows")?.as_u64().ok_or("golden entry: rows")?,
            };
            entries.insert(key.to_string(), entry);
        }
        Ok(Golden { entries })
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{\"entries\":[");
        for (i, (key, e)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let names: Vec<String> = e.assignments.iter().map(|a| format!("\"{a}\"")).collect();
            out.push_str(&format!(
                "\n{{\"key\":\"{key}\",\"assignments\":[{}],\"cost\":{:?},\"digest\":{},\"rows\":{}}}",
                names.join(","),
                e.cost,
                e.digest,
                e.rows
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Check a chosen plan against the entry under `key`.
    pub fn check_plan(&self, key: &str, assignments: &[String], cost: f64) -> Result<(), String> {
        let entry = self
            .entries
            .get(key)
            .ok_or_else(|| format!("golden: no entry {key}"))?;
        if entry.assignments != assignments {
            return Err(format!(
                "golden: {key} chose {assignments:?}, the committed answer is {:?}",
                entry.assignments
            ));
        }
        if (cost - entry.cost).abs() > COST_TOLERANCE * entry.cost.abs() {
            return Err(format!(
                "golden: {key} cost {cost:?} is not the committed {:?}",
                entry.cost
            ));
        }
        Ok(())
    }

    /// Check an engine run against the entry under `key`.
    pub fn check_run(&self, key: &str, digest: u64, rows: u64) -> Result<(), String> {
        let entry = self
            .entries
            .get(key)
            .ok_or_else(|| format!("golden: no entry {key}"))?;
        if (entry.digest, entry.rows) != (digest, rows) {
            return Err(format!(
                "golden: {key} produced digest {digest} over {rows} rows, the committed run has {} over {}",
                entry.digest, entry.rows
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_golden_file_parses_and_round_trips() {
        for w in Workload::ALL {
            let golden = Golden::parse(embedded(w)).expect("a committed golden file parses");
            assert!(!golden.entries.is_empty(), "{} has entries", w.name());
            assert_eq!(Golden::parse(&golden.render()).expect("round trip"), golden);
            assert_eq!(golden.render(), embedded(w), "{} is canonical", w.name());
        }
    }

    #[test]
    fn a_corrupted_golden_entry_fails_the_check() {
        let golden = Golden::parse(embedded(Workload::ColdAnalytic)).expect("parses");
        let (key, entry) = golden.entries.iter().next().expect("an entry");
        golden
            .check_plan(key, &entry.assignments, entry.cost)
            .expect("the committed answer passes");

        // Corrupt one entry in a copy: first its cost, then one platform name.
        let mut copy = golden.clone();
        copy.entries.get_mut(key).expect("entry").cost *= 1.0 + 1e-6;
        assert!(copy
            .check_plan(key, &entry.assignments, entry.cost)
            .expect_err("cost off by 1e-6")
            .contains("cost"));
        let mut copy = golden.clone();
        copy.entries.get_mut(key).expect("entry").assignments[0] = "nowhere".to_string();
        assert!(copy
            .check_plan(key, &entry.assignments, entry.cost)
            .expect_err("assignment differs")
            .contains("chose"));
        assert!(golden
            .check_plan("named#missing", &entry.assignments, entry.cost)
            .is_err());
    }
}
