//! The correctness gate: runs before any clock starts and checks every
//! distinct request of the workload against references that do not come
//! from the code under test.
//!
//! For a chosen plan: the reported cost is bit-equal to a re-cost of the
//! returned assignment on the benchmark's own oracle instance; it is no
//! worse than every feasible single-platform assignment; the serial
//! `Enumerator` reaches the same assignment and cost bits as the facade's
//! split driver; `robopt_baselines::exhaustive_best` agrees on plans of at
//! most eight operators (until the stated row budget is spent); and the
//! committed golden answer matches. For an engine run: the
//! output digest equals `execute_reference`'s and the golden digest.
//!
//! Under the learned forest Def-2 pruning is a heuristic (the paper's
//! trade), so optimality against the exhaustive sweep, the single-platform
//! bound and split ≡ serial are contracts of the linear analytic oracle
//! only; forest answers are held to the re-cost and the golden file.

use robopt::json::{self, JsonValue};
use robopt::Optimizer;
use robopt_baselines::{exhaustive_best, exhaustive_count};
use robopt_core::vectorize::vectorize_assignment;
use robopt_core::{AnalyticOracle, CostOracle, EnumOptions, Enumerator};
use robopt_engine::execute_reference;
use robopt_ml::ModelOracle;
use robopt_plan::{LogicalPlan, N_OPERATOR_KINDS};
use robopt_platforms::{PlatformRegistry, RuntimeSimulator};
use robopt_vector::FeatureLayout;

use crate::golden::Golden;
use crate::workloads::{engine_workers, Inputs, Output, System};

/// Largest plan the exhaustive sweep is asked about.
const EXHAUSTIVE_MAX_OPS: usize = 8;
/// Rows the exhaustive sweeps of one gate run may cost in total; requests
/// beyond it (in pool order) keep the other independent checks.
const EXHAUSTIVE_ROW_BUDGET: u128 = 1 << 21;
/// Relative slack between the facade's canonical re-cost and the sweep's
/// batched cost of the same optimum.
const OPTIMUM_TOLERANCE: f64 = 1e-12;
/// Fixed seed of the noise-free simulator behind `chosen_plan_sim_s`.
pub const SIM_SEED: u64 = 42;

/// What every later operation on a request must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Plan {
        assignments: Vec<String>,
        cost_bits: u64,
    },
    Line(String),
    Run {
        digest: u64,
        rows: u64,
    },
    /// The gate's own operation failed; nothing can match.
    Nothing,
}

impl Expected {
    #[inline]
    pub fn matches(&self, output: &Output) -> bool {
        match (self, output) {
            (
                Expected::Plan {
                    assignments,
                    cost_bits,
                },
                Output::Plan(resp),
            ) => resp.cost.to_bits() == *cost_bits && resp.assignments == *assignments,
            (Expected::Line(want), Output::Line(got)) => want == got,
            (Expected::Run { digest, rows }, Output::Run(resp)) => {
                resp.feasible && resp.output_digest == *digest && resp.output_rows == *rows
            }
            _ => false,
        }
    }
}

/// The gate's finding on one distinct request.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub expected: Expected,
    /// The assignment the system chose (or was pinned to); empty when the
    /// gate's operation failed.
    pub assignments: Vec<String>,
    /// The cost it reported for it (0 for an engine run).
    pub cost: f64,
    /// `Some` when a check failed: every operation on this request counts
    /// as failed.
    pub error: Option<String>,
}

#[derive(Debug, Clone)]
pub struct GateReport {
    pub verdicts: Vec<Verdict>,
    /// Σ over the distinct requests of the noise-free simulated runtime of
    /// the chosen (or pinned) plan: the paper's "runtime of the selected
    /// plan". Deterministic; repeats exactly.
    pub chosen_plan_sim_s: f64,
    /// Requests the exhaustive sweep covered.
    pub exhaustive_checked: usize,
}

impl GateReport {
    pub fn failures(&self) -> impl Iterator<Item = (usize, &str)> {
        self.verdicts
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.error.as_deref().map(|e| (i, e)))
    }
}

/// The benchmark's own registry, layout and oracle for one facade.
struct Reference {
    registry: PlatformRegistry,
    layout: FeatureLayout,
    oracle: Box<dyn CostOracle>,
    /// The oracle is linear, so pruning is lossless and the optimality
    /// checks are contracts (see the module docs).
    linear: bool,
}

impl Reference {
    fn new(inputs: &Inputs, facade: usize, system_facade: &Optimizer) -> Reference {
        let registry = inputs.registry(facade);
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let (oracle, linear): (Box<dyn CostOracle>, bool) = match system_facade.forest() {
            Some(forest) => (Box::new(ModelOracle::new(forest.clone())), false),
            None => (
                Box::new(AnalyticOracle::for_registry(&registry, &layout)),
                true,
            ),
        };
        Reference {
            registry,
            layout,
            oracle,
            linear,
        }
    }

    fn raw_assignment(&self, plan: &LogicalPlan, names: &[String]) -> Result<Vec<u8>, String> {
        if names.len() != plan.n_ops() {
            return Err(format!(
                "{} assignments for {} operators",
                names.len(),
                plan.n_ops()
            ));
        }
        names
            .iter()
            .map(|name| {
                self.registry
                    .by_name(name)
                    .map(|id| id.raw())
                    .ok_or_else(|| format!("unknown platform {name:?}"))
            })
            .collect()
    }

    /// The independent checks on one chosen plan.
    fn check_plan(
        &self,
        plan: &LogicalPlan,
        names: &[String],
        cost: f64,
        exhaustive_rows_left: &mut u128,
        exhaustive_checked: &mut usize,
    ) -> Result<(), String> {
        let raw = self.raw_assignment(plan, names)?;
        let mut feats = Vec::new();
        vectorize_assignment(plan, &self.layout, &raw, &mut feats);
        let recost = self.oracle.cost_row(&feats);
        if recost.to_bits() != cost.to_bits() {
            return Err(format!(
                "reported cost {cost:?} but its assignment re-costs to {recost:?}"
            ));
        }
        if !self.linear {
            return Ok(());
        }
        for id in self.registry.ids() {
            let feasible =
                (0..plan.n_ops() as u32).all(|op| self.registry.is_available(plan.op(op).kind, id));
            if !feasible {
                continue;
            }
            vectorize_assignment(
                plan,
                &self.layout,
                &vec![id.raw(); plan.n_ops()],
                &mut feats,
            );
            let single = self.oracle.cost_row(&feats);
            if cost > single {
                return Err(format!(
                    "cost {cost:?} loses to all-{} at {single:?}",
                    self.registry.platform(id).name
                ));
            }
        }
        let opts = EnumOptions::new(&self.registry).with_oracle(self.oracle.as_ref());
        let (serial, _) = Enumerator::new().enumerate(plan, &self.layout, opts);
        if serial.raw_assignments() != raw || serial.cost.to_bits() != cost.to_bits() {
            return Err(format!(
                "split driver chose cost {cost:?}, the serial enumerator {:?}",
                serial.cost
            ));
        }
        let sweep = exhaustive_count(plan.n_ops(), self.registry.len());
        if plan.n_ops() <= EXHAUSTIVE_MAX_OPS && sweep <= *exhaustive_rows_left {
            *exhaustive_rows_left -= sweep;
            *exhaustive_checked += 1;
            let best = exhaustive_best(plan, &self.layout, opts);
            if (cost - best.cost).abs() > OPTIMUM_TOLERANCE * best.cost.abs() {
                return Err(format!(
                    "cost {cost:?} is not the exhaustive optimum {:?}",
                    best.cost
                ));
            }
        }
        Ok(())
    }

    /// Noise-free simulated runtime of `plan` under `names`; 0 when the
    /// names do not resolve (the request has failed the gate by then).
    fn simulate(&self, plan: &LogicalPlan, names: &[String]) -> f64 {
        self.raw_assignment(plan, names).map_or(0.0, |raw| {
            RuntimeSimulator::new(&self.registry, SIM_SEED).simulate_raw(plan, &raw)
        })
    }
}

/// Assignment names and cost of an optimize response line, read back
/// through the wire format (`cost_bits` carries the exact cost).
fn parse_response_line(line: &str) -> Result<(Vec<String>, f64), String> {
    let doc = json::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("response is an error: {line}"));
    }
    let names = doc
        .get("assignments")
        .and_then(JsonValue::as_arr)
        .ok_or("response has no assignments")?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("response assignments are not names")?;
    let bits = doc
        .get("cost_bits")
        .and_then(JsonValue::as_u64)
        .ok_or("response has no cost_bits")?;
    Ok((names, f64::from_bits(bits)))
}

/// Run the gate: one operation per distinct request, every check on it.
pub fn run(system: &mut System, inputs: &Inputs, golden: Option<&Golden>) -> GateReport {
    let references: Vec<Reference> = system
        .facades
        .iter()
        .enumerate()
        .map(|(f, facade)| Reference::new(inputs, f, facade))
        .collect();
    let mut rows_left = EXHAUSTIVE_ROW_BUDGET;
    let mut exhaustive_checked = 0;
    let mut chosen_plan_sim_s = 0.0;
    let mut verdicts = Vec::with_capacity(inputs.requests.len());

    for (i, request) in inputs.requests.iter().enumerate() {
        let reference = &references[request.facade];
        let key = inputs.key(i);
        let plan = request.spec.build().expect("generated specs are valid");
        let output = system.run(request);
        let mut check_chosen = |names: &[String], cost: f64| {
            reference.check_plan(&plan, names, cost, &mut rows_left, &mut exhaustive_checked)?;
            golden.map_or(Ok(()), |golden| golden.check_plan(&key, names, cost))
        };
        let (expected, names, cost, checked) = match output {
            Output::Plan(resp) => {
                let checked = check_chosen(&resp.assignments, resp.cost);
                let expected = Expected::Plan {
                    assignments: resp.assignments.clone(),
                    cost_bits: resp.cost.to_bits(),
                };
                (expected, resp.assignments, resp.cost, checked)
            }
            Output::Line(line) => match parse_response_line(&line) {
                Ok((names, cost)) => {
                    let checked = check_chosen(&names, cost);
                    (Expected::Line(line), names, cost, checked)
                }
                Err(e) => (Expected::Nothing, Vec::new(), 0.0, Err(e)),
            },
            Output::Run(resp) => {
                let engine = system.facades[request.facade].engine(engine_workers());
                let (_, digest) = execute_reference(&plan, engine.seed(), engine.max_source_rows());
                let checked = if !resp.feasible {
                    Err("pinned assignment is infeasible".to_string())
                } else if resp.output_digest != digest {
                    Err(format!(
                        "engine digest {} is not the reference executor's {digest}",
                        resp.output_digest
                    ))
                } else {
                    golden.map_or(Ok(()), |golden| {
                        golden.check_run(&key, resp.output_digest, resp.output_rows)
                    })
                };
                let expected = Expected::Run {
                    digest: resp.output_digest,
                    rows: resp.output_rows,
                };
                (expected, resp.assignments, 0.0, checked)
            }
            Output::Failed(e) => (Expected::Nothing, Vec::new(), 0.0, Err(e)),
        };
        chosen_plan_sim_s += reference.simulate(&plan, &names);
        verdicts.push(Verdict {
            expected,
            assignments: names,
            cost,
            error: checked.err().map(|e| format!("{key}: {e}")),
        });
    }
    GateReport {
        verdicts,
        chosen_plan_sim_s,
        exhaustive_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::embedded;
    use crate::workloads::{generate, Workload, DEFAULT_SEED};

    fn gate(workload: Workload, golden: &Golden) -> GateReport {
        let engine = Golden::parse(embedded(Workload::ExecuteEngine)).expect("golden");
        let inputs = generate(workload, DEFAULT_SEED, &engine).expect("inputs");
        let mut system = System::set_up(&inputs);
        run(&mut system, &inputs, Some(golden))
    }

    #[test]
    fn the_seed_state_passes_the_gate_and_a_corrupted_golden_entry_fails_it() {
        let golden = Golden::parse(embedded(Workload::ColdAnalytic)).expect("golden");
        let clean = gate(Workload::ColdAnalytic, &golden);
        assert_eq!(clean.failures().count(), 0, "{:?}", clean.failures().next());
        assert!(
            clean.exhaustive_checked >= 4,
            "the 6-operator plans are swept"
        );
        assert!(clean.chosen_plan_sim_s.is_finite() && clean.chosen_plan_sim_s > 0.0);

        let mut corrupted = golden.clone();
        let key = "named#wordcount(1e5)";
        corrupted.entries.get_mut(key).expect("entry").cost *= 1.001;
        let report = gate(Workload::ColdAnalytic, &corrupted);
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].1.contains(key) && failures[0].1.contains("golden"));
    }

    #[test]
    fn an_independent_check_catches_a_wrong_answer() {
        let inputs = generate(Workload::ColdAnalytic, 3, &Golden::default()).expect("inputs");
        let system = System::set_up(&inputs);
        let reference = Reference::new(&inputs, 0, &system.facades[0]);
        let plan = inputs.requests[0].spec.build().expect("wordcount");
        let (mut left, mut swept) = (EXHAUSTIVE_ROW_BUDGET, 0);
        // All-spark is feasible but not optimal for a 1e5-tuple wordcount:
        // the re-cost passes only if the cost is the assignment's, and then
        // optimality fails.
        let names = vec!["spark".to_string(); plan.n_ops()];
        let err = reference
            .check_plan(&plan, &names, 1.0, &mut left, &mut swept)
            .expect_err("cost is not the assignment's");
        assert!(err.contains("re-costs"));
        let mut feats = Vec::new();
        let raw = reference
            .raw_assignment(&plan, &names)
            .expect("names resolve");
        vectorize_assignment(&plan, &reference.layout, &raw, &mut feats);
        let cost = reference.oracle.cost_row(&feats);
        let err = reference
            .check_plan(&plan, &names, cost, &mut left, &mut swept)
            .expect_err("all-spark is not the optimum");
        assert!(err.contains("loses to") || err.contains("serial"), "{err}");
    }
}
