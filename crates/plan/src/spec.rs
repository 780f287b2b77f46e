//! Symbolic workload specifications — the one constructor path from a
//! serializable recipe to a [`LogicalPlan`].
//!
//! Hoisted out of the service crate (ISSUE 8) so the service facade, the
//! fig binaries, and the execution engine all build plans through the same
//! validated entry point instead of each re-wrapping [`crate::workloads`].
//! The spec stays plain `Copy` data so callers can hash it into cache keys
//! and render it over the wire.

use crate::dag::{LogicalPlan, MAX_OPS};
use crate::rng::SplitMix64;
use crate::workloads;

/// A workload *specification* — the recipe for a [`LogicalPlan`], kept
/// symbolic so requests stay hashable and serializable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's running example: map/flatmap/reduce word count.
    WordCount {
        /// Input tuple count.
        scale: f64,
    },
    /// TPC-H Q3 join tree.
    TpchQ3 {
        /// Scale in tuples of the largest input.
        scale: f64,
    },
    /// Linear pipeline of `ops` operators.
    Pipeline {
        /// Operator count (2..=128).
        ops: usize,
        /// Input tuple count.
        scale: f64,
    },
    /// Random connected DAG, reproducible from `seed`.
    RandomDag {
        /// RNG seed for the DAG shape.
        seed: u64,
        /// Operator count (2..=128).
        ops: usize,
        /// Extra-edge probability in `[0, 1]`.
        density: f64,
    },
    /// PageRank over a synthetic edge list (iterative, `RepeatLoop`).
    PageRank {
        /// Edge tuple count.
        scale: f64,
        /// Rank iterations (1..=256).
        iterations: u32,
    },
    /// k-means over synthetic 2-D points (iterative, `RepeatLoop`).
    KMeans {
        /// Point tuple count.
        scale: f64,
        /// Lloyd iterations (1..=256).
        iterations: u32,
    },
}

/// The parameters a front end may leave unset; [`WorkloadSpec::named`]
/// fills each one its kind reads from the per-kind defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadParams {
    /// Input tuple count.
    pub scale: Option<f64>,
    /// Operator count (`pipeline`, `random_dag`).
    pub ops: Option<usize>,
    /// Shape seed (`random_dag`).
    pub seed: Option<u64>,
    /// Extra-edge probability (`random_dag`).
    pub density: Option<f64>,
    /// Loop trips (`pagerank`, `kmeans`).
    pub iterations: Option<u32>,
}

/// Operator-count lower bound for the parameterized workload shapes; with
/// the plan's own cap `dag::MAX_OPS`, keeps callers from building
/// degenerate or exponential plans.
const MIN_OPS: usize = 2;

/// Loop trip-count bounds for the iterative shapes.
const MAX_ITERATIONS: u32 = 256;

impl WorkloadSpec {
    /// The workload spelled `kind` on the wire (`"kind"`) and the command
    /// line (`--workload`). This match is the one per-kind default table
    /// both front ends share: wordcount 1e7 tuples; tpch_q3 1e6; pipeline
    /// 16 ops over 1e5; random_dag seed 1, 16 ops, density 0.3; pagerank
    /// and kmeans 1e5 tuples, 10 iterations.
    pub fn named(kind: &str, p: WorkloadParams) -> Result<WorkloadSpec, SpecError> {
        let ops = p.ops.unwrap_or(16);
        let iterations = p.iterations.unwrap_or(10);
        match kind {
            "wordcount" => Ok(WorkloadSpec::WordCount {
                scale: p.scale.unwrap_or(1e7),
            }),
            "tpch_q3" => Ok(WorkloadSpec::TpchQ3 {
                scale: p.scale.unwrap_or(1e6),
            }),
            "pipeline" => Ok(WorkloadSpec::Pipeline {
                ops,
                scale: p.scale.unwrap_or(1e5),
            }),
            "random_dag" => Ok(WorkloadSpec::RandomDag {
                seed: p.seed.unwrap_or(1),
                ops,
                density: p.density.unwrap_or(0.3),
            }),
            "pagerank" => Ok(WorkloadSpec::PageRank {
                scale: p.scale.unwrap_or(1e5),
                iterations,
            }),
            "kmeans" => Ok(WorkloadSpec::KMeans {
                scale: p.scale.unwrap_or(1e5),
                iterations,
            }),
            other => Err(SpecError::new(format!("unknown workload kind {other:?}"))),
        }
    }

    /// Human-readable workload label used in responses and artifacts,
    /// e.g. `wordcount(1e7)` or `pagerank(1e5,iters=10)`.
    pub fn name(&self) -> String {
        match *self {
            WorkloadSpec::WordCount { scale } => format!("wordcount({scale:e})"),
            WorkloadSpec::TpchQ3 { scale } => format!("tpch_q3({scale:e})"),
            WorkloadSpec::Pipeline { ops, scale } => format!("pipeline(ops={ops},{scale:e})"),
            WorkloadSpec::RandomDag { seed, ops, density } => {
                format!("random_dag(seed={seed},ops={ops},density={density:.2})")
            }
            WorkloadSpec::PageRank { scale, iterations } => {
                format!("pagerank({scale:e},iters={iterations})")
            }
            WorkloadSpec::KMeans { scale, iterations } => {
                format!("kmeans({scale:e},iters={iterations})")
            }
        }
    }

    /// Validate the spec and build its [`LogicalPlan`]. Every constraint a
    /// plan constructor would `assert!` is checked here first and surfaced
    /// as a typed [`SpecError`] — callers never panic on bad input.
    pub fn build(&self) -> Result<LogicalPlan, SpecError> {
        match *self {
            WorkloadSpec::WordCount { scale } => {
                check_scale(scale)?;
                Ok(workloads::wordcount(scale))
            }
            WorkloadSpec::TpchQ3 { scale } => {
                check_scale(scale)?;
                Ok(workloads::tpch_q3(scale))
            }
            WorkloadSpec::Pipeline { ops, scale } => {
                check_scale(scale)?;
                check_ops(ops)?;
                Ok(workloads::synthetic_pipeline(ops, scale))
            }
            WorkloadSpec::RandomDag { seed, ops, density } => {
                check_ops(ops)?;
                if !(0.0..=1.0).contains(&density) {
                    return Err(SpecError::new(format!(
                        "random_dag density {density} outside [0, 1]"
                    )));
                }
                let mut rng = SplitMix64::new(seed);
                Ok(workloads::random_connected_dag(&mut rng, ops, density))
            }
            WorkloadSpec::PageRank { scale, iterations } => {
                check_scale(scale)?;
                check_iterations(iterations)?;
                Ok(workloads::pagerank(scale, iterations))
            }
            WorkloadSpec::KMeans { scale, iterations } => {
                check_scale(scale)?;
                check_iterations(iterations)?;
                Ok(workloads::kmeans(scale, iterations))
            }
        }
    }
}

fn check_scale(scale: f64) -> Result<(), SpecError> {
    if scale.is_finite() && scale > 0.0 && scale <= 1e15 {
        Ok(())
    } else {
        Err(SpecError::new(format!(
            "workload scale {scale} outside (0, 1e15]"
        )))
    }
}

fn check_ops(ops: usize) -> Result<(), SpecError> {
    if (MIN_OPS..=MAX_OPS).contains(&ops) {
        Ok(())
    } else {
        Err(SpecError::new(format!(
            "operator count {ops} outside [{MIN_OPS}, {MAX_OPS}]"
        )))
    }
}

fn check_iterations(iterations: u32) -> Result<(), SpecError> {
    if (1..=MAX_ITERATIONS).contains(&iterations) {
        Ok(())
    } else {
        Err(SpecError::new(format!(
            "loop iterations {iterations} outside [1, {MAX_ITERATIONS}]"
        )))
    }
}

/// A [`WorkloadSpec`] that cannot build: the offending constraint, spelled
/// out. The service layer maps this onto its own typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    fn new(message: String) -> Self {
        SpecError { message }
    }

    /// The human-readable constraint violation.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_validate_before_building() {
        assert!(WorkloadSpec::WordCount { scale: 1e7 }.build().is_ok());
        assert!(WorkloadSpec::WordCount { scale: 0.0 }.build().is_err());
        assert!(WorkloadSpec::WordCount { scale: f64::NAN }.build().is_err());
        assert!(WorkloadSpec::Pipeline { ops: 1, scale: 1e5 }
            .build()
            .is_err());
        assert!(WorkloadSpec::Pipeline {
            ops: 999,
            scale: 1e5,
        }
        .build()
        .is_err());
        assert!(WorkloadSpec::RandomDag {
            seed: 7,
            ops: 24,
            density: 1.5,
        }
        .build()
        .is_err());
        assert!(WorkloadSpec::PageRank {
            scale: 1e5,
            iterations: 0,
        }
        .build()
        .is_err());
        assert!(WorkloadSpec::KMeans {
            scale: 1e5,
            iterations: 999,
        }
        .build()
        .is_err());
        assert!(WorkloadSpec::PageRank {
            scale: 1e5,
            iterations: 10,
        }
        .build()
        .is_ok());
        assert!(WorkloadSpec::RandomDag {
            seed: 7,
            ops: 24,
            density: 0.3,
        }
        .build()
        .is_ok());
    }

    #[test]
    fn names_are_distinct_per_variant() {
        let specs = [
            WorkloadSpec::WordCount { scale: 1e5 },
            WorkloadSpec::TpchQ3 { scale: 1e5 },
            WorkloadSpec::Pipeline { ops: 8, scale: 1e5 },
            WorkloadSpec::RandomDag {
                seed: 1,
                ops: 8,
                density: 0.3,
            },
            WorkloadSpec::PageRank {
                scale: 1e5,
                iterations: 10,
            },
            WorkloadSpec::KMeans {
                scale: 1e5,
                iterations: 10,
            },
        ];
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
