//! The **execution backend seam** (DESIGN §11).
//!
//! One object-safe trait that everything downstream of plan construction
//! consumes: the analytic [`RuntimeSimulator`] implements it by pricing the
//! plan, the real engine (`robopt-engine`) implements it by actually moving
//! records. Training sources, the service facade, and the fig binaries all
//! take `&dyn ExecutionBackend`, so measured engine runtimes flow into
//! training rows and accuracy checks through the exact same seam as
//! simulated ones.
//!
//! Contract:
//!
//! * `execute` never panics on a well-formed sealed plan with one
//!   assignment per operator; infeasible placements come back as an
//!   [`ExecutionReport`] with `feasible == false` and infinite `seconds`.
//! * For the simulator, `seconds` is **bit-identical** to
//!   [`RuntimeSimulator::simulate`] — the seam adds observability, never a
//!   different number.
//! * `output_digest` and `output_rows` are pure functions of the plan and
//!   the backend's data semantics; for the engine they are byte-stable
//!   across worker counts, while `seconds` is measured wall clock and
//!   deliberately **excluded** from every determinism digest.

use robopt_plan::LogicalPlan;

use crate::registry::PlatformId;
use crate::simulator::RuntimeSimulator;

/// Per-operator slice of an [`ExecutionReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorReport {
    /// Seconds attributed to this operator (work plus its fixed overhead).
    /// The engine measures a chain of operators fused into the operator
    /// they feed (a keyed operator, or the Filter / Sample a source feeds)
    /// as one: the chain's wall time lands on that operator, and each fused
    /// operator reports its modeled overhead only.
    /// `ExecutionReport::compute_seconds` is still the sum of all measured
    /// time.
    pub seconds: f64,
    /// Records this operator emitted (modeled or counted).
    pub output_rows: u64,
}

/// What executing one plan under one assignment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Which backend produced this report (`"simulator"`, `"engine"`).
    pub backend: &'static str,
    /// Total runtime in seconds; `f64::INFINITY` when infeasible.
    pub seconds: f64,
    /// Seconds spent doing operator work.
    pub compute_seconds: f64,
    /// Seconds charged to startup, fixed per-operator costs, cross-platform
    /// conversions, and loop synchronization.
    pub overhead_seconds: f64,
    /// Whether the assignment was executable on its platforms.
    pub feasible: bool,
    /// `true` when `seconds` includes wall-clock measurement (engine);
    /// `false` when fully modeled (simulator).
    pub measured: bool,
    /// Records delivered to terminal operators.
    pub output_rows: u64,
    /// Digest of the terminal output records; `0` for backends that move
    /// no data.
    pub output_digest: u64,
    /// Per-operator breakdown in op-id order; empty when infeasible.
    pub per_op: Vec<OperatorReport>,
}

impl ExecutionReport {
    /// The canonical "this assignment cannot run" report.
    pub fn infeasible(backend: &'static str) -> Self {
        ExecutionReport {
            backend,
            seconds: f64::INFINITY,
            compute_seconds: f64::INFINITY,
            overhead_seconds: f64::INFINITY,
            feasible: false,
            measured: false,
            output_rows: 0,
            output_digest: 0,
            per_op: Vec::new(),
        }
    }
}

/// An execution backend: something that can run (or price) a sealed plan
/// under a per-operator platform assignment. Object-safe on purpose —
/// consumers hold `&dyn ExecutionBackend`.
pub trait ExecutionBackend: std::fmt::Debug {
    /// Stable short name used in reports and artifacts.
    fn name(&self) -> &'static str;

    /// Run `plan` with one [`PlatformId`] per operator (op-id order).
    fn execute(&self, plan: &LogicalPlan, assignments: &[PlatformId]) -> ExecutionReport;

    /// [`ExecutionBackend::execute`] over raw dense platform bytes (the
    /// encoding `EnumMatrix` rows and the ML training sampler carry).
    fn execute_raw(&self, plan: &LogicalPlan, assignments: &[u8]) -> ExecutionReport {
        let ids: Vec<PlatformId> = assignments
            .iter()
            .map(|&b| PlatformId::from_index(b as usize))
            .collect();
        self.execute(plan, &ids)
    }
}

/// Compute/overhead/per-operator observation filled by
/// [`RuntimeSimulator::simulate_profiled`].
#[derive(Debug, Default)]
pub(crate) struct SimProfile {
    pub per_op: Vec<f64>,
    pub compute: f64,
    pub overhead: f64,
}

/// Modeled output rows of operator `i`: propagated cardinality for regular
/// operators, delivered input for sinks (their selectivity is 0 but the
/// records still arrive).
fn modeled_rows(plan: &LogicalPlan, i: usize) -> u64 {
    let op = plan.op(i as u32);
    let card = if op.kind.is_sink() {
        plan.in_tuples().get(i).copied().unwrap_or(0.0)
    } else {
        plan.out_card().get(i).copied().unwrap_or(0.0)
    };
    saturate_rows(card)
}

/// Round a modeled cardinality to whole records (saturating `as` cast; NaN
/// maps to 0).
pub(crate) fn saturate_rows(card: f64) -> u64 {
    card.round().max(0.0) as u64
}

/// Operator ids with no successors — where a plan's data comes to rest.
pub(crate) fn terminal_ops(plan: &LogicalPlan) -> Vec<u32> {
    (0..plan.n_ops() as u32)
        .filter(|&op| plan.succs(op).is_empty())
        .collect()
}

impl ExecutionBackend for RuntimeSimulator<'_> {
    fn name(&self) -> &'static str {
        "simulator"
    }

    fn execute(&self, plan: &LogicalPlan, assignments: &[PlatformId]) -> ExecutionReport {
        let mut prof = SimProfile::default();
        let seconds = self.simulate_profiled(plan, assignments, &mut prof);
        if !seconds.is_finite() {
            return ExecutionReport::infeasible(self.name());
        }
        let per_op: Vec<OperatorReport> = (0..plan.n_ops())
            .map(|i| OperatorReport {
                seconds: prof.per_op.get(i).copied().unwrap_or(0.0),
                output_rows: modeled_rows(plan, i),
            })
            .collect();
        let output_rows = terminal_ops(plan)
            .iter()
            .map(|&op| modeled_rows(plan, op as usize))
            .sum();
        ExecutionReport {
            backend: self.name(),
            seconds,
            compute_seconds: prof.compute,
            overhead_seconds: prof.overhead,
            feasible: true,
            measured: false,
            output_rows,
            output_digest: 0,
            per_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PlatformRegistry;
    use robopt_plan::workloads;

    fn uniform(reg: &PlatformRegistry, name: &str, n: usize) -> Vec<PlatformId> {
        vec![reg.by_name(name).unwrap(); n]
    }

    #[test]
    fn simulator_backend_seconds_is_bit_identical_to_simulate() {
        let reg = PlatformRegistry::named();
        for plan in [
            workloads::wordcount(1e6),
            workloads::tpch_q3(1e5),
            workloads::pagerank(1e5, 10),
        ] {
            for name in ["java", "spark"] {
                let assign = uniform(&reg, name, plan.n_ops());
                let sim = RuntimeSimulator::new(&reg, 7).with_noise(0.1);
                let direct = sim.simulate(&plan, &assign);
                let backend: &dyn ExecutionBackend = &sim;
                let report = backend.execute(&plan, &assign);
                assert_eq!(direct.to_bits(), report.seconds.to_bits());
                assert!(report.feasible);
                assert!(!report.measured);
                assert_eq!(report.per_op.len(), plan.n_ops());
                // The breakdown re-sums to the total (modulo fp rounding).
                let parts = report.compute_seconds + report.overhead_seconds;
                assert!((parts - direct).abs() <= 1e-9 * direct.max(1.0));
            }
        }
    }

    #[test]
    fn infeasible_assignment_reports_cleanly() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(1e5);
        let sim = RuntimeSimulator::new(&reg, 0);
        let backend: &dyn ExecutionBackend = &sim;
        let report = backend.execute(&plan, &uniform(&reg, "postgres", plan.n_ops()));
        assert!(!report.feasible);
        assert!(report.seconds.is_infinite());
        assert!(report.per_op.is_empty());
    }

    #[test]
    fn execute_raw_matches_execute() {
        let reg = PlatformRegistry::named();
        let plan = workloads::kmeans(1e5, 5);
        let sim = RuntimeSimulator::new(&reg, 3).with_noise(0.2);
        let ids = uniform(&reg, "flink", plan.n_ops());
        let raw: Vec<u8> = ids.iter().map(|p| p.raw()).collect();
        let backend: &dyn ExecutionBackend = &sim;
        assert_eq!(
            backend.execute(&plan, &ids),
            backend.execute_raw(&plan, &raw)
        );
    }

    #[test]
    fn repeat_loop_iterations_raise_simulated_cost() {
        let reg = PlatformRegistry::named();
        let sim = RuntimeSimulator::new(&reg, 0);
        let few = workloads::pagerank(1e5, 2);
        let many = workloads::pagerank(1e5, 50);
        let assign = uniform(&reg, "java", few.n_ops());
        assert!(sim.simulate(&many, &assign) > sim.simulate(&few, &assign));
    }
}
