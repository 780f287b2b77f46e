//! The "Rheem-ML" strawman enumerator (paper Figs 1, 9a).
//!
//! Identical search to `robopt_core::Enumerator` — same Def-3 priority
//! order, same registry-driven availability masking and conversion
//! feasibility, same Def-2 lossless boundary pruning, same batched
//! [`CostOracle`] entry point — but subplans are object graphs
//! ([`ObjNode`]), and the ML cost model is treated as an external black
//! box: every batch is assembled by walking the object graphs and
//! materializing **fresh** feature vectors (plan-to-vector transformation
//! at call time, fresh allocations per merge step). Comparing this against
//! the vector-based enumerator isolates precisely the representation
//! benefit the paper claims.

use std::rc::Rc;

use robopt_core::vectorize::{add_conversion_features, add_operator_cells, ExecutionPlan};
use robopt_core::EnumOptions;
use robopt_plan::LogicalPlan;
use robopt_platforms::PlatformId;
use robopt_vector::{footprint_hash, FeatureLayout, FootprintTable, RowsView, Scope, NO_PLATFORM};

use crate::object_plan::ObjNode;

struct ObjUnit {
    scope: Scope,
    /// Candidate subplans paired with their (pruning-time) cost.
    plans: Vec<(Rc<ObjNode>, f64)>,
}

/// Object-graph enumerator with per-batch plan-to-vector transformation.
#[derive(Debug, Default)]
pub struct ObjectEnumerator;

impl ObjectEnumerator {
    pub fn new() -> Self {
        ObjectEnumerator
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
                add_conversion_features(plan, layout, u, v, pu, pv, &mut feats);
            }
        }
        feats
    }

    fn boundary_of(plan: &LogicalPlan, scope: Scope) -> Vec<u32> {
        (0..plan.n_ops() as u32)
            .filter(|&op| {
                scope.contains(op)
                    && plan
                        .succs(op)
                        .iter()
                        .chain(plan.preds(op))
                        .any(|&o| !scope.contains(o))
            })
            .collect()
    }

    /// Run the enumeration; result matches the vector enumerator's optimum
    /// over the same registry and oracle (both carried by `opts`). The
    /// strawman always prunes (Def-2); `opts.prune()` is ignored.
    #[expect(
        clippy::expect_used,
        reason = "whole-fn invariants: union-find roots always hold live units (contracted roots are never re-found), the plan is asserted connected so every contraction round finds a crossing edge, and every singleton keeps >= 1 availability-masked plan through merges"
    )]
    pub fn enumerate(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) -> ExecutionPlan {
        let n = plan.n_ops();
        let registry = opts.registry();
        let oracle = opts.oracle();
        assert!(plan.is_connected());
        assert_eq!(layout.n_platforms, registry.len());
        assert_eq!(oracle.width(), layout.width);
        let mut units: Vec<Option<ObjUnit>> = (0..n as u32)
            .map(|op| {
                // Availability masking: one singleton per permitted platform,
                // costed through the batched black-box entry point (fresh
                // batch buffer, as everywhere in the strawman).
                let nodes: Vec<Rc<ObjNode>> = registry
                    .available_platforms(plan.op(op).kind)
                    .map(|p| ObjNode::leaf(op, p.raw()))
                    .collect();
                let mut batch: Vec<f64> = Vec::new();
                for node in &nodes {
                    batch.extend_from_slice(&Self::features_of(plan, layout, node));
                }
                let mut costs = Vec::new();
                oracle.cost_batch(RowsView::new(&batch, layout.width), &mut costs);
                Some(ObjUnit {
                    scope: Scope::singleton(op),
                    plans: nodes.into_iter().zip(costs).collect(),
                })
            })
            .collect();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let gp = parent[parent[x as usize] as usize];
                parent[x as usize] = gp;
                x = gp;
            }
            x
        }

        // Def-3 priority by scan: contract the remaining edge minimizing
        // |V_a| x |V_b| (ties: fewer merged-boundary ops, then edge order).
        for _ in 0..n.saturating_sub(1) {
            let mut best: Option<(u64, u32, usize, u32, u32)> = None;
            for (e, &(u, v)) in plan.edges().iter().enumerate() {
                let ra = find(&mut parent, u);
                let rb = find(&mut parent, v);
                if ra == rb {
                    continue;
                }
                let pa = units[ra as usize].as_ref().expect("live unit at root");
                let pb = units[rb as usize].as_ref().expect("live unit at root");
                let pri = (pa.plans.len() * pb.plans.len()) as u64;
                let tie = Self::boundary_of(plan, pa.scope.union(pb.scope)).len() as u32;
                let key = (pri, tie, e, ra, rb);
                if best.is_none_or(|b| (b.0, b.1, b.2) > (pri, tie, e)) {
                    best = Some(key);
                }
            }
            let (_, _, _, ra, rb) = best.expect("connected plan has a crossing edge");
            let a = units[ra as usize].take().expect("live unit at root");
            let b = units[rb as usize].take().expect("live unit at root");
            let merged_scope = a.scope.union(b.scope);
            let boundary = Self::boundary_of(plan, merged_scope);
            let crossing: Vec<(u32, u32)> = plan
                .edges()
                .iter()
                .copied()
                .filter(|&(u, v)| {
                    (a.scope.contains(u) && b.scope.contains(v))
                        || (b.scope.contains(u) && a.scope.contains(v))
                })
                .collect();

            // Stage every feasible combination (fresh object graph + fresh
            // feature vector each), then cost the batch in one call.
            let mut staged: Vec<(Rc<ObjNode>, u64)> = Vec::new();
            let mut batch: Vec<f64> = Vec::new();
            let mut assign_buf = vec![NO_PLATFORM; n];
            for (na, _) in &a.plans {
                for (nb, _) in &b.plans {
                    let node = ObjNode::merge(Rc::clone(na), Rc::clone(nb));
                    let mut placements = Vec::new();
                    node.collect_into(&mut placements);
                    assign_buf.fill(NO_PLATFORM);
                    for &(op, p) in &placements {
                        assign_buf[op as usize] = p;
                    }
                    // Conversion feasibility: exclude combinations whose
                    // crossing edges have no COT path.
                    let feasible = crossing.iter().all(|&(u, v)| {
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
                    batch.extend_from_slice(&Self::features_of(plan, layout, &node));
                    staged.push((node, footprint_hash(&boundary, &assign_buf)));
                }
            }
            let mut costs = Vec::new();
            oracle.cost_batch(RowsView::new(&batch, layout.width), &mut costs);

            let mut fp_map = FootprintTable::new();
            let mut merged: Vec<(Rc<ObjNode>, f64)> = Vec::new();
            for ((node, fp), cost) in staged.into_iter().zip(costs) {
                match fp_map.get(fp) {
                    Some(idx) => {
                        if let Some(slot) = merged.get_mut(idx as usize) {
                            if cost < slot.1 {
                                *slot = (node, cost);
                            }
                        }
                    }
                    None => {
                        fp_map.insert(fp, merged.len() as u32);
                        merged.push((node, cost));
                    }
                }
            }
            parent[rb as usize] = ra;
            units[ra as usize] = Some(ObjUnit {
                scope: merged_scope,
                plans: merged,
            });
        }

        let root = find(&mut parent, 0);
        let unit = units[root as usize].take().expect("live unit at root");
        let (best_node, best_cost) = unit
            .plans
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty enumeration");
        let mut placements = Vec::new();
        best_node.collect_into(&mut placements);
        let mut raw = vec![NO_PLATFORM; n];
        for (op, p) in placements {
            raw[op as usize] = p;
        }
        ExecutionPlan::from_raw(&raw, *best_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_core::{AnalyticOracle, EnumOptions, Enumerator};
    use robopt_plan::{workloads, N_OPERATOR_KINDS};

    #[test]
    fn object_enumerator_matches_vector_enumerator() {
        use robopt_platforms::PlatformRegistry;
        for plan in [workloads::wordcount(1e5), workloads::tpch_q3(1e4)] {
            let registry = PlatformRegistry::uniform(2);
            let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
            let oracle = AnalyticOracle::for_registry(&registry, &layout);
            let opts = EnumOptions::new(&registry).with_oracle(&oracle);
            let (vec_exec, _) = Enumerator::new().enumerate(&plan, &layout, opts);
            let obj_exec = ObjectEnumerator::new().enumerate(&plan, &layout, opts);
            let tol = 1e-9 * vec_exec.cost.abs().max(1.0);
            assert!((vec_exec.cost - obj_exec.cost).abs() <= tol);
        }
    }

    #[test]
    fn object_enumerator_matches_vector_enumerator_on_named_registry() {
        use robopt_platforms::PlatformRegistry;
        let plan = workloads::wordcount(1e6);
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let (vec_exec, _) = Enumerator::new().enumerate(&plan, &layout, opts);
        let obj_exec = ObjectEnumerator::new().enumerate(&plan, &layout, opts);
        let tol = 1e-9 * vec_exec.cost.abs().max(1.0);
        assert!((vec_exec.cost - obj_exec.cost).abs() <= tol);
        assert_eq!(vec_exec.assignments, obj_exec.assignments);
    }
}
