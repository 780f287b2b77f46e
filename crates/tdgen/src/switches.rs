//! Platform-switch pruning (paper §V-B).
//!
//! Real cross-platform plans rarely hop platforms more than a few times:
//! every switch pays a conversion, so an optimizer output with many
//! switches along one dataflow path is almost never optimal. TDGEN
//! therefore discards candidate assignments whose **maximum number of
//! platform switches along any source→sink path** exceeds β
//! ([`crate::BETA`] = 3), concentrating the label budget on the region of
//! assignment space the optimizer will actually query.
//!
//! The bound composes along paths, so it prunes *prefixes*: once a partial
//! assignment already carries more than β switches on some path, no
//! completion can repair it — the random walk in [`sample_assignment`],
//! TDGEN's one assignment drawer, never picks a platform that would, and
//! restarts when a walk strands itself.

use robopt_plan::rng::SplitMix64;
use robopt_platforms::{PlatformId, PlatformRegistry};

use crate::shapes::JobSkeleton;

/// Maximum number of platform switches along any source→sink path of
/// `skeleton` under `assign` (raw platform ids, one per operator).
///
/// Runs the path DP in one pass: skeleton edges are topologically ordered
/// (`from < to`), so `best[v] = max over preds u of best[u] + switch(u,v)`
/// is final by the time `v` is read.
pub fn max_switches(skeleton: &JobSkeleton, assign: &[u8]) -> usize {
    assert_eq!(assign.len(), skeleton.n_ops(), "one platform per operator");
    let mut best = vec![0usize; skeleton.n_ops()];
    let mut overall = 0;
    for &(u, v) in skeleton.plan.edges() {
        debug_assert!(u < v, "skeleton edges must be topologically ordered");
        let (u, v) = (u as usize, v as usize);
        let hop = best[u] + usize::from(assign[u] != assign[v]);
        if hop > best[v] {
            best[v] = hop;
            overall = overall.max(hop);
        }
    }
    overall
}

/// Incremental walk state: `best[v]` = worst switch count on any path from
/// a source to `v`, over the assigned prefix `0..=v`.
fn prefix_switches(skeleton: &JobSkeleton, assign: &[u8], best: &mut [usize], v: usize) -> usize {
    let preds = skeleton.plan.preds(v as u32).iter().map(|&u| u as usize);
    let worst = preds
        .map(|u| best[u] + usize::from(assign[u] != assign[v]))
        .max()
        .unwrap_or(0);
    best[v] = worst;
    worst
}

/// Platforms on which operator `op` of `skeleton` may run: available for
/// the kind, and reachable (conversion-wise) from every already-assigned
/// predecessor.
fn placeable(
    skeleton: &JobSkeleton,
    registry: &PlatformRegistry,
    assign: &[u8],
    op: usize,
) -> Vec<u8> {
    let preds = skeleton.plan.preds(op as u32);
    registry
        .available_platforms(skeleton.plan.op(op as u32).kind)
        .filter(|&p| {
            preds.iter().all(|&u| {
                registry.convertible(PlatformId::from_index(assign[u as usize] as usize), p)
            })
        })
        .map(|p| p.raw())
        .collect()
}

/// Draw one feasible β-bounded assignment by a random topological walk:
/// each operator picks uniformly among the placeable platforms that keep
/// the prefix within β, restarting (up to `attempts` times) when a walk
/// strands itself — an earlier pick can exhaust the switch budget of a
/// path that later forces a switch.
pub fn sample_assignment(
    skeleton: &JobSkeleton,
    registry: &PlatformRegistry,
    beta: usize,
    rng: &mut SplitMix64,
    attempts: usize,
) -> Option<Vec<u8>> {
    let n = skeleton.n_ops();
    let mut assign = vec![0u8; n];
    let mut best = vec![0usize; n];
    'attempt: for _ in 0..attempts {
        for op in 0..n {
            let admissible: Vec<u8> = placeable(skeleton, registry, &assign, op)
                .into_iter()
                .filter(|&p| {
                    assign[op] = p;
                    prefix_switches(skeleton, &assign, &mut best, op) <= beta
                })
                .collect();
            if admissible.is_empty() {
                continue 'attempt;
            }
            assign[op] = admissible[rng.gen_range(admissible.len())];
            // Re-run the DP for the kept pick so `best[op]` is its value,
            // not the last candidate's.
            prefix_switches(skeleton, &assign, &mut best, op);
        }
        return Some(assign);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{sample_skeleton, ShapeKind};

    fn setup(shape: ShapeKind, n: usize) -> (PlatformRegistry, JobSkeleton) {
        let registry = PlatformRegistry::named();
        let mut rng = SplitMix64::new(0xbeef);
        let skel = sample_skeleton(&mut rng, &registry, shape, n);
        (registry, skel)
    }

    #[test]
    fn max_switches_counts_the_worst_path() {
        let (_, skel) = setup(ShapeKind::Pipeline, 5);
        // 5-op chain: alternating platforms touch every edge.
        assert_eq!(max_switches(&skel, &[0, 0, 0, 0, 0]), 0);
        assert_eq!(max_switches(&skel, &[0, 1, 0, 1, 0]), 4);
        assert_eq!(max_switches(&skel, &[0, 0, 1, 1, 1]), 1);
    }

    #[test]
    fn sampled_assignments_are_feasible_and_bounded() {
        let (registry, skel) = setup(ShapeKind::Iterative, 8);
        let mut rng = SplitMix64::new(3);
        for _ in 0..32 {
            let a = sample_assignment(&skel, &registry, 2, &mut rng, 64)
                .expect("named registry always admits a 2-switch assignment");
            assert!(max_switches(&skel, &a) <= 2);
            for (op, &p) in a.iter().enumerate() {
                assert!(registry.is_available(
                    skel.plan.op(op as u32).kind,
                    PlatformId::from_index(p as usize)
                ));
            }
        }
    }
}
