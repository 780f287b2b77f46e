//! The "Rheem-ML" strawman enumerator (paper Figs 1, 9a).
//!
//! Identical search to `robopt_core::Enumerator` — the same merge order
//! ([`robopt_core::merge_key`], found by a scan instead of a heap), the same
//! registry-driven availability masking and conversion feasibility, the
//! same Def-2 lossless boundary pruning (rows compared, so costed, only in
//! merges that close a boundary operator), the same batched
//! [`robopt_core::CostOracle`] entry point, and therefore the same
//! [`EnumStats`] — but subplans are object graphs ([`ObjNode`]), and the ML
//! cost model is treated as an external black box: every batch is
//! assembled by walking the object graphs and materializing **fresh**
//! feature vectors (plan-to-vector transformation at call time, fresh
//! allocations per merge step). Comparing this against the vector-based
//! enumerator isolates precisely the representation benefit the paper
//! claims.

use std::rc::Rc;

use robopt_core::vectorize::{add_conversion_features, add_operator_cells, ExecutionPlan};
use robopt_core::{merge_key, EnumOptions, EnumStats, MergeKey};
use robopt_plan::LogicalPlan;
use robopt_platforms::PlatformId;
use robopt_vector::{footprint_hash, FeatureLayout, FootprintTable, RowsView, Scope, NO_PLATFORM};

use crate::object_plan::ObjNode;

struct ObjUnit {
    scope: Scope,
    /// Boundary operators of `scope`.
    frontier: u32,
    /// Candidate subplans paired with their (pruning-time) cost, 0 where
    /// the merge that built them compared nothing.
    plans: Vec<(Rc<ObjNode>, f64)>,
}

/// Object-graph enumerator with per-batch plan-to-vector transformation.
#[derive(Debug, Default)]
pub struct ObjectEnumerator;

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let gp = parent[parent[x as usize] as usize];
        parent[x as usize] = gp;
        x = gp;
    }
    x
}

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
                add_conversion_features(plan, layout, u, pu, pv, &mut feats);
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

    /// The current merge key of dataflow edge `e` and the roots of the two
    /// units it would merge; `None` once both endpoints share a unit.
    fn edge_key(
        plan: &LogicalPlan,
        units: &[Option<ObjUnit>],
        parent: &mut [u32],
        e: usize,
    ) -> Option<(u32, u32, MergeKey)> {
        let (u, v) = plan.edges()[e];
        let (ra, rb) = (find(parent, u), find(parent, v));
        if ra == rb {
            return None;
        }
        let (a, b) = (units[ra as usize].as_ref()?, units[rb as usize].as_ref()?);
        let frontier = Self::boundary_of(plan, a.scope.union(b.scope)).len() as u32;
        let larger = a.plans.len().max(b.plans.len()) as u64;
        Some((ra, rb, merge_key(frontier, larger, e as u32)))
    }

    /// Run the enumeration; result matches the vector enumerator's optimum
    /// over the same registry and oracle (both carried by `opts`), and the
    /// counters match its [`EnumStats`]. The strawman always prunes (Def-2)
    /// and ranks by expected cost: `opts.prune()` and `opts.risk()` are
    /// ignored.
    #[expect(
        clippy::expect_used,
        reason = "whole-fn invariants: union-find roots always hold live units (contracted roots are never re-found), and every singleton keeps >= 1 availability-masked plan through merges"
    )]
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
        let mut units: Vec<Option<ObjUnit>> = (0..n as u32)
            .map(|op| {
                // Availability masking: one singleton per permitted platform,
                // costed through the batched black-box entry point (fresh
                // batch buffer, as everywhere in the strawman) only in a
                // one-operator plan, the one where they are compared.
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
                Some(ObjUnit {
                    scope: Scope::singleton(op),
                    frontier: u32::from(n > 1),
                    plans: nodes.into_iter().zip(costs).collect(),
                })
            })
            .collect();
        let mut parent: Vec<u32> = (0..n as u32).collect();

        // The enumerator's merge order by scan: every edge keeps the key it
        // was last ranked by, the smallest kept key is re-ranked, and it is
        // contracted only if it still holds — otherwise the fresh key is
        // kept and the scan repeats. That is the heap's lazy re-ranking, so
        // both enumerators contract the same edges in the same order.
        let mut keys: Vec<Option<MergeKey>> = (0..plan.edges().len())
            .map(|e| Self::edge_key(plan, &units, &mut parent, e).map(|(_, _, key)| key))
            .collect();
        while let Some((ranked, e)) = keys
            .iter()
            .enumerate()
            .filter_map(|(e, key)| key.map(|key| (key, e)))
            .min()
        {
            keys[e] = None;
            let Some((ra, rb, fresh)) = Self::edge_key(plan, &units, &mut parent, e) else {
                continue;
            };
            if fresh != ranked {
                keys[e] = Some(fresh);
                continue;
            }
            let a = units[ra as usize].take().expect("live unit at root");
            let b = units[rb as usize].take().expect("live unit at root");
            let merged_scope = a.scope.union(b.scope);
            let boundary = Self::boundary_of(plan, merged_scope);
            // The enumerator's rule: a merge that closes no boundary
            // operator makes only new footprints, so it compares nothing.
            let frontier = boundary.len() as u32;
            let compares = a.frontier + b.frontier > frontier;
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
            // feature vector each), then cost the batch in one call; a merge
            // that compares nothing keeps its object graphs unscored.
            let mut merged: Vec<(Rc<ObjNode>, f64)> = Vec::new();
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
                    if !compares {
                        merged.push((node, 0.0));
                        continue;
                    }
                    batch.extend_from_slice(&Self::features_of(plan, layout, &node));
                    staged.push((node, footprint_hash(&boundary, &assign_buf)));
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
            stats.generated += (a.plans.len() * b.plans.len()) as u64;
            stats.merges += 1;
            stats.kept += merged.len() as u64;
            stats.peak_rows = stats.peak_rows.max(merged.len() as u64);
            parent[rb as usize] = ra;
            units[ra as usize] = Some(ObjUnit {
                scope: merged_scope,
                frontier,
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
