//! Exhaustive enumeration: ground truth for Lemma-1 losslessness tests and
//! the Table-I `k^n` search-space reference.

use robopt_core::vectorize::{vectorize_assignment, ExecutionPlan};
use robopt_core::EnumOptions;
use robopt_plan::LogicalPlan;
use robopt_platforms::{PlatformId, PlatformRegistry};
use robopt_vector::{FeatureLayout, RowsView};

/// Rows costed per batched oracle call during the exhaustive sweep.
const BATCH_ROWS: usize = 256;

/// Size of the unpruned search space: `k^n` (may far exceed `u64` for the
/// Table-I (20, 5) point, hence `u128`), saturating at `u128::MAX` once
/// `n · log₂ k` reaches 128 (Pipeline-128 on eight platforms).
pub fn exhaustive_count(n_ops: usize, n_platforms: usize) -> u128 {
    // An exponent past u32::MAX saturates like the power does.
    (n_platforms as u128).saturating_pow(u32::try_from(n_ops).unwrap_or(u32::MAX))
}

/// Hand `visit` every feasible one of the `k^n` full assignments of `plan`
/// (availability and conversion feasibility come from `registry`), as raw
/// platform bytes in odometer order, operator 0 turning fastest. The one
/// ground-truth sweep of the workspace; guarded to `k^n ≤ 2²²`.
pub fn for_each_feasible(
    plan: &LogicalPlan,
    registry: &PlatformRegistry,
    mut visit: impl FnMut(&[u8]),
) {
    let (n, k) = (plan.n_ops(), registry.len());
    let total = exhaustive_count(n, k);
    assert!(
        total <= 1 << 22,
        "exhaustive search space too large: {total}"
    );
    let mut assign = vec![0u8; n];
    for _ in 0..total {
        if registry.feasible(plan, |i| PlatformId::from_index(assign[i] as usize)) {
            visit(&assign);
        }
        // Odometer increment in base k.
        for slot in assign.iter_mut() {
            *slot += 1;
            if (*slot as usize) < k {
                break;
            }
            *slot = 0;
        }
    }
}

/// The optimum over [`for_each_feasible`]'s sweep under the registry and
/// oracle carried by `opts`. Candidates are costed in batches of
/// `BATCH_ROWS` rows through [`robopt_core::CostOracle::cost_batch`]. The
/// sweep is already exhaustive, so `opts.prune()` is ignored.
pub fn exhaustive_best(
    plan: &LogicalPlan,
    layout: &FeatureLayout,
    opts: EnumOptions<'_>,
) -> ExecutionPlan {
    let registry = opts.registry();
    let oracle = opts.oracle();
    let n = plan.n_ops();
    assert_eq!(layout.n_platforms, registry.len());
    assert_eq!(oracle.width(), layout.width);
    let mut feats: Vec<f64> = Vec::new();
    let mut batch: Vec<f64> = Vec::with_capacity(BATCH_ROWS * layout.width);
    let mut batch_assign: Vec<u8> = Vec::with_capacity(BATCH_ROWS * n);
    let mut costs: Vec<f64> = Vec::new();
    let mut best_cost = f64::INFINITY;
    let mut best_assign: Option<Vec<u8>> = None;

    let mut flush = |batch: &mut Vec<f64>, batch_assign: &mut Vec<u8>| {
        if batch.is_empty() {
            return;
        }
        oracle.cost_batch(RowsView::new(batch, layout.width), &mut costs);
        for (r, &cost) in costs.iter().enumerate() {
            if cost < best_cost {
                best_cost = cost;
                best_assign = Some(batch_assign[r * n..(r + 1) * n].to_vec());
            }
        }
        batch.clear();
        batch_assign.clear();
    };
    for_each_feasible(plan, registry, |assign| {
        vectorize_assignment(plan, layout, assign, &mut feats);
        batch.extend_from_slice(&feats);
        batch_assign.extend_from_slice(assign);
        if batch.len() >= BATCH_ROWS * layout.width {
            flush(&mut batch, &mut batch_assign);
        }
    });
    flush(&mut batch, &mut batch_assign);
    #[expect(
        clippy::expect_used,
        reason = "exhaustive search over an availability-satisfiable plan always visits at least one feasible assignment"
    )]
    let best_assign = best_assign.expect("no feasible assignment under this registry");
    ExecutionPlan::from_raw(&best_assign, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_core::AnalyticOracle;
    use robopt_plan::{workloads, N_OPERATOR_KINDS};
    use robopt_platforms::PlatformRegistry;

    #[test]
    fn counts_grow_as_k_to_the_n() {
        assert_eq!(exhaustive_count(5, 2), 32);
        assert_eq!(exhaustive_count(20, 5), 95_367_431_640_625);
        assert_eq!(exhaustive_count(127, 2), 1 << 127);
        assert_eq!(exhaustive_count(128, 2), u128::MAX);
        assert_eq!(exhaustive_count(128, 8), u128::MAX);
        // Past 2^32 operators the exponent saturates instead of wrapping to 0.
        assert_eq!(exhaustive_count(u32::MAX as usize + 1, 2), u128::MAX);
        assert_eq!(exhaustive_count(5, 1), 1);
        assert_eq!(exhaustive_count(u32::MAX as usize + 1, 1), 1);
    }

    #[test]
    fn exhaustive_matches_pruned_enumeration_on_wordcount() {
        use robopt_core::Enumerator;
        let plan = workloads::wordcount(1e5);
        let registry = PlatformRegistry::uniform(2);
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let brute = exhaustive_best(&plan, &layout, opts);
        let (fast, _) = Enumerator::new().enumerate(&plan, &layout, opts);
        assert!((brute.cost - fast.cost).abs() <= 1e-9 * brute.cost.abs().max(1.0));
    }

    #[test]
    fn exhaustive_respects_named_registry_feasibility() {
        use robopt_core::Enumerator;
        let plan = workloads::wordcount(1e5);
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let brute = exhaustive_best(&plan, &layout, opts);
        for (op, &p) in brute.assignments.iter().enumerate() {
            assert!(registry.is_available(plan.op(op as u32).kind, p));
        }
        let (fast, _) = Enumerator::new().enumerate(&plan, &layout, opts);
        assert!((brute.cost - fast.cost).abs() <= 1e-9 * brute.cost.abs().max(1.0));
    }
}
