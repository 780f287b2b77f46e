//! The "Rheem-ML" strawman enumerator (paper Figs 1, 9a).
//!
//! The search of `robopt_core::Enumerator` — the same merge schedule
//! ([`MergeOrder`]), availability masking, conversion feasibility, Def-2
//! pruning (rows costed only in merges that close a boundary operator) and
//! batched [`robopt_core::CostOracle`] calls, so the same [`EnumStats`] —
//! over object graphs ([`ObjNode`]) instead of matrices. The cost model is
//! an external black box: every batch walks the object graphs into
//! **fresh** feature vectors (fresh allocations per merge step), and every
//! staged plan is hashed over the merged boundary and probed once. The
//! representation is the only difference, which is what Fig 1 isolates.

use std::rc::Rc;

use robopt_core::vectorize::{add_conversion_features, add_operator_cells, ExecutionPlan};
use robopt_core::{EnumOptions, EnumStats, MergeOrder};
use robopt_plan::LogicalPlan;
use robopt_platforms::PlatformId;
use robopt_vector::{footprint_hash, FeatureLayout, FootprintTable, RowsView, NO_PLATFORM};

use crate::object_plan::ObjNode;

/// A unit's candidate subplans paired with their (pruning-time) cost, 0
/// where the merge that built them compared nothing.
type Plans = Vec<(Rc<ObjNode>, f64)>;

/// Object-graph enumerator with per-batch plan-to-vector transformation.
#[derive(Debug, Default)]
pub struct ObjectEnumerator {
    order: MergeOrder<Plans>,
}

impl ObjectEnumerator {
    pub fn new() -> Self {
        ObjectEnumerator::default()
    }

    /// The per-invocation plan-to-vector transformation: walk the object
    /// graph, materialize placements, then encode the Fig-5 cells. All
    /// buffers are freshly allocated — that is the point of the strawman.
    fn features_of(plan: &LogicalPlan, layout: &FeatureLayout, node: &ObjNode) -> Vec<f64> {
        let mut placements: Vec<(u32, u8)> = Vec::new();
        node.collect_into(&mut placements);
        let mut assign = vec![NO_PLATFORM; plan.n_ops()];
        for &(op, p) in &placements {
            assign[op as usize] = p;
        }
        let mut feats = vec![0.0; layout.width];
        for &(op, p) in &placements {
            add_operator_cells(plan, layout, op, p, &mut feats);
        }
        for &(u, v) in plan.edges() {
            let (pu, pv) = (assign[u as usize], assign[v as usize]);
            if pu != NO_PLATFORM && pv != NO_PLATFORM {
                add_conversion_features(plan, layout, u, pu, pv, &mut feats);
            }
        }
        feats
    }

    /// Run the enumeration; result matches the vector enumerator's optimum
    /// over the same registry and oracle (both carried by `opts`), and the
    /// counters match its [`EnumStats`]. The strawman always prunes (Def-2)
    /// and ranks by expected cost: `opts.prune()` and `opts.risk()` are
    /// ignored.
    pub fn enumerate(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) -> (ExecutionPlan, EnumStats) {
        let n = plan.n_ops();
        let registry = opts.registry();
        let oracle = opts.oracle();
        assert!(plan.is_connected());
        assert_eq!(layout.n_platforms, registry.len());
        assert_eq!(oracle.width(), layout.width);
        let mut stats = EnumStats::default();
        self.order.begin(n);
        for op in 0..n as u32 {
            // Availability masking: one singleton per permitted platform,
            // costed through the batched black-box entry point (fresh batch
            // buffer, as everywhere in the strawman) only in a one-operator
            // plan, the one where they are compared.
            let nodes: Vec<Rc<ObjNode>> = registry
                .available_platforms(plan.op(op).kind)
                .map(|p| ObjNode::leaf(op, p.raw()))
                .collect();
            let mut costs = vec![0.0; nodes.len()];
            if n == 1 {
                let mut batch: Vec<f64> = Vec::new();
                for node in &nodes {
                    batch.extend_from_slice(&Self::features_of(plan, layout, node));
                }
                oracle.cost_batch(RowsView::new(&batch, layout.width), &mut costs);
            }
            let rows = nodes.len() as u64;
            stats.generated += rows;
            stats.kept += rows;
            stats.peak_rows = stats.peak_rows.max(rows);
            self.order.seed(op, nodes.into_iter().zip(costs).collect());
        }

        self.order.schedule(plan, 0..plan.edges().len() as u32);
        while let Some((merge, a, b)) = self.order.pop(plan) {
            let (boundary, crossing) = (self.order.boundary(), self.order.crossing());
            // The enumerator's rule: a merge that closes no boundary
            // operator makes only new footprints, so it compares nothing.
            let compares = merge.closes();

            // Stage every feasible combination (fresh object graph + fresh
            // feature vector each), then cost the batch in one call; a merge
            // that compares nothing keeps its object graphs unscored.
            let mut merged: Plans = Vec::new();
            let mut staged: Vec<(Rc<ObjNode>, u64)> = Vec::new();
            let mut batch: Vec<f64> = Vec::new();
            let mut assign_buf = vec![NO_PLATFORM; n];
            for (na, _) in &a {
                for (nb, _) in &b {
                    let node = ObjNode::merge(Rc::clone(na), Rc::clone(nb));
                    let mut placements = Vec::new();
                    node.collect_into(&mut placements);
                    assign_buf.fill(NO_PLATFORM);
                    for &(op, p) in &placements {
                        assign_buf[op as usize] = p;
                    }
                    // Conversion feasibility: exclude combinations whose
                    // crossing edges have no COT path.
                    let feasible = crossing.iter().all(|&(u, v, _)| {
                        let (pu, pv) = (assign_buf[u as usize], assign_buf[v as usize]);
                        pu == pv
                            || registry.convertible(
                                PlatformId::from_index(pu as usize),
                                PlatformId::from_index(pv as usize),
                            )
                    });
                    if !feasible {
                        continue;
                    }
                    if !compares {
                        merged.push((node, 0.0));
                        continue;
                    }
                    batch.extend_from_slice(&Self::features_of(plan, layout, &node));
                    staged.push((node, footprint_hash(boundary, &assign_buf)));
                }
            }
            let mut costs = Vec::new();
            if compares {
                oracle.cost_batch(RowsView::new(&batch, layout.width), &mut costs);
            }

            let mut fp_map = FootprintTable::new();
            for ((node, fp), cost) in staged.into_iter().zip(costs) {
                match fp_map.insert_or_get(fp, merged.len() as u32) {
                    Some(row) => {
                        if let Some(slot) = merged.get_mut(row as usize) {
                            if cost < slot.1 {
                                *slot = (node, cost);
                            }
                        }
                    }
                    None => {
                        merged.push((node, cost));
                    }
                }
            }
            stats.generated += (a.len() * b.len()) as u64;
            stats.merges += 1;
            stats.kept += merged.len() as u64;
            stats.peak_rows = stats.peak_rows.max(merged.len() as u64);
            self.order.join(&merge, merged);
        }

        let plans = self.order.take_whole();
        #[expect(
            clippy::expect_used,
            reason = "every singleton keeps >= 1 availability-masked plan through merges"
        )]
        let (best_node, best_cost) = plans
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty enumeration");
        let mut placements = Vec::new();
        best_node.collect_into(&mut placements);
        let mut raw = vec![NO_PLATFORM; n];
        for (op, p) in placements {
            raw[op as usize] = p;
        }
        (ExecutionPlan::from_raw(&raw, *best_cost), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_core::{AnalyticOracle, EnumOptions, Enumerator};
    use robopt_plan::{workloads, SplitMix64, WorkloadSpec, N_OPERATOR_KINDS};
    use robopt_platforms::PlatformRegistry;

    /// Both enumerators over `plan`: the strawman's counters equal the
    /// serial enumerator's, and its cost agrees within 1e-9 relative.
    fn assert_same_search(plan: &LogicalPlan, registry: &PlatformRegistry) -> ExecutionPlan {
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(registry, &layout);
        let opts = EnumOptions::new(registry).with_oracle(&oracle);
        let (vec_exec, vec_stats) = Enumerator::new().enumerate(plan, &layout, opts);
        let (obj_exec, obj_stats) = ObjectEnumerator::new().enumerate(plan, &layout, opts);
        assert_eq!(obj_stats, vec_stats, "the strawman ran another search");
        let tol = 1e-9 * vec_exec.cost.abs().max(1.0);
        assert!(
            (vec_exec.cost - obj_exec.cost).abs() <= tol,
            "costs {} vs {}",
            vec_exec.cost,
            obj_exec.cost
        );
        obj_exec
    }

    #[test]
    fn object_enumerator_matches_vector_enumerator() {
        // Fig 1's four specs on its two-platform registry.
        let fig01 = [
            WorkloadSpec::WordCount { scale: 1e5 },
            WorkloadSpec::TpchQ3 { scale: 1e5 },
            WorkloadSpec::Pipeline {
                ops: 25,
                scale: 1e5,
            },
            WorkloadSpec::Pipeline {
                ops: 40,
                scale: 1e5,
            },
        ];
        let uniform2 = PlatformRegistry::uniform(2);
        for spec in fig01 {
            assert_same_search(&spec.build().expect("valid spec"), &uniform2);
        }
        // Seeded DAGs on two to four uniform platforms and the named
        // registry: the DAGs' branching is where a different merge order
        // would show.
        let named = PlatformRegistry::named();
        let mut rng = SplitMix64::new(0x0B_1EC7);
        for case in 0..24u64 {
            let n = 2 + rng.gen_range(11);
            let density = rng.next_f64();
            let plan = workloads::random_connected_dag(&mut rng, n, density);
            let uniform = PlatformRegistry::uniform(2 + (case % 3) as usize);
            assert_same_search(&plan, &uniform);
            assert_same_search(&plan, &named);
        }
    }

    #[test]
    fn object_enumerator_matches_vector_enumerator_on_named_registry() {
        let plan = workloads::wordcount(1e6);
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let (vec_exec, _) = Enumerator::new().enumerate(&plan, &layout, opts);
        assert_eq!(
            assert_same_search(&plan, &registry).assignments,
            vec_exec.assignments
        );
    }
}
