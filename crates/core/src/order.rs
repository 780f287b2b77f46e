//! The merge schedule of Algorithm 1: which two units merge next.
//!
//! The one merge order of the workspace. [`MergeOrder`] owns what the order
//! reads — the union-find over units, each live unit's scope and
//! boundary-operator count — and ranks every scheduled dataflow edge by its
//! Def-3 key `(frontier, u64::MAX − larger_rows, edge)`, smallest first:
//!
//! * `frontier` — boundary operators of the merged scope. Primary key: the
//!   pruned frontier is bounded by `k^frontier`, and that frontier
//!   multiplies the staging cost of *every* future merge touching the unit,
//!   so shrinking it first dominates any one merge's own cross-product.
//! * `larger_rows` — row count of the larger endpoint unit, inverted: among
//!   equal-frontier candidates, *extending* an existing multi-row unit wins
//!   over pairing two fresh singletons. This keeps merge trees linear — a
//!   balanced tree merges two k²-row units into a k⁴ cross-product where
//!   the linear tree stages k³ — which is what lets split parts (whose
//!   interior scopes carry two boundary operators) stay within a constant
//!   factor of serial enumeration.
//! * `edge` — the dataflow edge index: FIFO among full ties, and (one kept
//!   key per edge) what makes every key unique, so the merge order is a
//!   function of the keys alone.
//!
//! A key goes stale when a merge grows one of its edge's units. The rule is
//! lazy: only the smallest kept key is re-ranked, and its edge is
//! contracted only if the key still holds; otherwise the fresh key is kept
//! and the next smallest is looked at.
//!
//! A unit is any [`Rows`]: `crate::enumerate` schedules `EnumMatrix` units,
//! `robopt_baselines::ObjectEnumerator` lists of object graphs. A planned
//! order (ROADMAP items 17 and 8) replaces the key here and nowhere else.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use robopt_plan::LogicalPlan;
use robopt_vector::{EnumMatrix, Scope};

/// What the schedule reads of a caller's unit: its row count, which ranks
/// the merges that would extend it.
pub trait Rows {
    fn rows(&self) -> usize;
}

impl Rows for EnumMatrix {
    fn rows(&self) -> usize {
        EnumMatrix::rows(self)
    }
}

impl<T> Rows for Vec<T> {
    fn rows(&self) -> usize {
        self.len()
    }
}

/// Def-3 priority of contracting an edge, smallest first (module docs).
type Key = (u32, u64, u32);

/// One live node of the enumeration graph. Its rows have pairwise-distinct
/// footprints over the scope's boundary, pruned or not: that is what lets a
/// merge that closes no boundary operator skip the comparison (DESIGN §5).
#[derive(Debug)]
struct Live<U> {
    scope: Scope,
    /// Boundary operators of `scope`.
    frontier: u32,
    unit: U,
}

/// A merge the schedule chose, read-only: only [`MergeOrder::pop`] makes
/// one. `a` is the unit holding the contracted edge's source.
#[derive(Debug, Clone, Copy)]
pub struct Merge {
    roots: (u32, u32),
    /// The scopes of `a` and `b`.
    pub scopes: (Scope, Scope),
    /// Their boundary-operator counts.
    pub frontiers: (u32, u32),
    /// Boundary operators of the merged scope.
    pub frontier: u32,
}

impl Merge {
    /// The merged scope `a ∪ b`.
    pub fn scope(&self) -> Scope {
        self.scopes.0.union(self.scopes.1)
    }

    /// Whether the merge closes a boundary operator of its inputs,
    /// `|bd(a)| + |bd(b)| > |bd(a ∪ b)|`. If not, every merged footprint is
    /// a distinct pair of input footprints: there is nothing to prune.
    pub fn closes(&self) -> bool {
        self.frontiers.0 + self.frontiers.1 > self.frontier
    }
}

/// The one merge schedule, with reusable buffers: [`MergeOrder::begin`] a
/// plan, [`MergeOrder::seed`] its singletons, [`MergeOrder::schedule`]
/// edges, then [`MergeOrder::pop`] each merge with its two units and
/// [`MergeOrder::join`] the merged one, until one unit covers the plan
/// ([`MergeOrder::take_whole`]).
#[derive(Debug, Default)]
pub struct MergeOrder<U> {
    parent: Vec<u32>,
    live: Vec<Option<Live<U>>>,
    heap: BinaryHeap<Reverse<Key>>,
    /// The last ranked merge's boundary operators, ascending.
    boundary: Vec<u32>,
    /// The popped merge's crossing edges `(u, v)`, each with whether `u`
    /// lies in `a`.
    crossing: Vec<(u32, u32, bool)>,
}

/// Fill `out` with the boundary operators of `scope` — operators inside
/// with at least one dataflow edge to an operator outside — in ascending
/// op id (the canonical footprint order).
pub(crate) fn boundary_ops(plan: &LogicalPlan, scope: Scope, out: &mut Vec<u32>) {
    out.clear();
    out.extend(scope.ops().filter(|&op| {
        plan.succs(op)
            .iter()
            .chain(plan.preds(op))
            .any(|&o| !scope.contains(o))
    }));
}

impl<U: Rows> MergeOrder<U> {
    /// Start an `n`-operator plan: every operator its own root, no unit
    /// live yet.
    pub fn begin(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.live.clear();
        self.live.resize_with(n, || None);
    }

    /// Make `unit` operator `op`'s live singleton. A connected plan of two
    /// or more operators gives every operator a neighbour outside it.
    pub fn seed(&mut self, op: u32, unit: U) {
        let frontier = u32::from(self.live.len() > 1);
        self.live[op as usize] = Some(Live {
            scope: Scope::singleton(op),
            frontier,
            unit,
        });
    }

    /// Rank `edges` (indexes into `plan.edges()`) in place of whatever was
    /// scheduled before. An edge whose endpoints already share a unit is
    /// dropped; every other endpoint must lie in a live unit.
    pub fn schedule(&mut self, plan: &LogicalPlan, edges: impl IntoIterator<Item = u32>) {
        self.heap.clear();
        for e in edges {
            if let Some((_, key)) = self.rank(plan, e) {
                self.heap.push(Reverse(key));
            }
        }
    }

    /// The next merge of the scheduled edges, by the lazy rule: re-rank the
    /// smallest kept key, and contract its edge only if the key still
    /// holds. Detaches the two units, `a` then `b`, and leaves the merged
    /// scope's boundary operators in [`MergeOrder::boundary`] and the
    /// crossing edges in [`MergeOrder::crossing`]. `None` once every
    /// scheduled edge lies inside one unit.
    pub fn pop(&mut self, plan: &LogicalPlan) -> Option<(Merge, U, U)> {
        // Between two merges no unit changes, so no edge is re-ranked twice.
        let (mut stale, kept) = (0, self.heap.len());
        while let Some(Reverse(ranked)) = self.heap.pop() {
            let Some((merge, fresh)) = self.rank(plan, ranked.2) else {
                continue;
            };
            if fresh != ranked {
                stale += 1;
                debug_assert!(stale <= kept, "an edge re-ranked twice between merges");
                self.heap.push(Reverse(fresh));
                continue;
            }
            let (a, b) = merge.scopes;
            self.crossing.clear();
            for &(u, v) in plan.edges() {
                if a.contains(u) && b.contains(v) {
                    self.crossing.push((u, v, true));
                } else if b.contains(u) && a.contains(v) {
                    self.crossing.push((u, v, false));
                }
            }
            let (ra, rb) = merge.roots;
            return Some((merge, self.take(ra), self.take(rb)));
        }
        None
    }

    /// The popped merge's boundary operators, ascending: the operators a
    /// merged row's pruning footprint reads.
    pub fn boundary(&self) -> &[u32] {
        &self.boundary
    }

    /// The dataflow edges `(u, v)` crossing the popped merge's two scopes
    /// (its conversion sites), each with whether `u` lies in `a`.
    pub fn crossing(&self) -> &[(u32, u32, bool)] {
        &self.crossing
    }

    /// Make `unit` the live unit of the merged scope.
    pub fn join(&mut self, merge: &Merge, unit: U) {
        let (ra, rb) = merge.roots;
        self.parent[rb as usize] = ra;
        self.live[ra as usize] = Some(Live {
            scope: merge.scope(),
            frontier: merge.frontier,
            unit,
        });
    }

    /// Detach the one unit left, which must cover the whole plan.
    pub fn take_whole(&mut self) -> U {
        let root = self.find(0);
        let covered = self.live[root as usize].as_ref().map(|l| l.scope.len());
        assert_eq!(
            covered,
            Some(self.parent.len() as u32),
            "enumeration finished without covering the whole plan"
        );
        self.take(root)
    }

    #[expect(
        clippy::expect_used,
        reason = "union-find root always holds a live unit (contracted roots are never re-found)"
    )]
    fn take(&mut self, r: u32) -> U {
        let live = self.live[r as usize].take();
        live.expect("live unit at union-find root").unit
    }

    #[inline]
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// The merge contracting dataflow edge `e` would make, and its current
    /// key; `None` once both endpoints share a unit. Leaves the merged
    /// scope's boundary operators in `self.boundary`.
    fn rank(&mut self, plan: &LogicalPlan, e: u32) -> Option<(Merge, Key)> {
        let (u, v) = plan.edges()[e as usize];
        let (ra, rb) = (self.find(u), self.find(v));
        if ra == rb {
            return None;
        }
        let a = self.live[ra as usize].as_ref()?;
        let b = self.live[rb as usize].as_ref()?;
        boundary_ops(plan, a.scope.union(b.scope), &mut self.boundary);
        let merge = Merge {
            roots: (ra, rb),
            scopes: (a.scope, b.scope),
            frontiers: (a.frontier, b.frontier),
            frontier: self.boundary.len() as u32,
        };
        let larger = a.unit.rows().max(b.unit.rows()) as u64;
        Some((merge, (merge.frontier, u64::MAX - larger, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{split_plan, SplitOptions};
    use crate::testing::masked_registry;
    use robopt_plan::rng::mix64;
    use robopt_plan::{workloads, SplitMix64};
    use robopt_platforms::PlatformRegistry;

    impl<U: Rows> MergeOrder<U> {
        /// The live unit holding operator `op`, with its scope and boundary
        /// count.
        pub(crate) fn unit_of(&mut self, op: u32) -> Option<(Scope, u32, &U)> {
            let root = self.find(op);
            let live = self.live[root as usize].as_ref()?;
            Some((live.scope, live.frontier, &live.unit))
        }
    }

    /// A unit that is only its row count.
    #[derive(Debug, Default)]
    struct Drawn(usize);

    impl Rows for Drawn {
        fn rows(&self) -> usize {
            self.0
        }
    }

    /// One contraction: the two scopes, the merged boundary and the
    /// oriented crossing edges.
    type Step = (Scope, Scope, Vec<u32>, Vec<(u32, u32, bool)>);

    /// A search's phases: each part with its edges, then the seams.
    type Phases = Vec<(Scope, Vec<u32>)>;

    /// The rows a merge of units of `rows.0` and `rows.1` rows keeps: drawn
    /// from the merged scope, up to the row product, so a merge grows a
    /// unit or shrinks it and the keys of its neighbouring edges go stale.
    fn drawn_rows(salt: u64, scope: Scope, rows: (usize, usize)) -> usize {
        let bits = scope.0 as u64 ^ (scope.0 >> 64) as u64;
        let cap = (rows.0 * rows.1).min(4096) as u64;
        1 + (mix64(salt ^ bits) % cap) as usize
    }

    /// Every contraction of `phases` on one [`MergeOrder`], singleton `op`
    /// holding `seeds[op]` rows.
    fn scheduled(plan: &LogicalPlan, phases: &Phases, seeds: &[usize], salt: u64) -> Vec<Step> {
        let mut order = MergeOrder::default();
        order.begin(plan.n_ops());
        let mut steps = Vec::new();
        for (part, edges) in phases {
            for op in part.ops() {
                order.seed(op, Drawn(seeds[op as usize]));
            }
            order.schedule(plan, edges.iter().copied());
            while let Some((merge, a, b)) = order.pop(plan) {
                let (scope_a, scope_b) = merge.scopes;
                let (boundary, crossing) = (order.boundary().to_vec(), order.crossing().to_vec());
                steps.push((scope_a, scope_b, boundary, crossing));
                let rows = drawn_rows(salt, merge.scope(), (a.0, b.0));
                order.join(&merge, Drawn(rows));
            }
        }
        order.take_whole();
        steps
    }

    /// A unit of the reference: scope, rows, boundary operators.
    type ScanUnit = (Scope, usize, u32);

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
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

    /// The current key of edge `e` and the roots of the two units it would
    /// merge; `None` once both endpoints share a unit.
    fn edge_key(
        plan: &LogicalPlan,
        units: &[Option<ScanUnit>],
        parent: &mut [u32],
        e: u32,
    ) -> Option<(u32, u32, Key)> {
        let (u, v) = plan.edges()[e as usize];
        let (ra, rb) = (find(parent, u), find(parent, v));
        if ra == rb {
            return None;
        }
        let (a, b) = (units[ra as usize]?, units[rb as usize]?);
        let frontier = boundary_of(plan, a.0.union(b.0)).len() as u32;
        Some((ra, rb, (frontier, u64::MAX - a.1.max(b.1) as u64, e)))
    }

    /// The order's reference, the scan the Rheem-ML strawman ran before it
    /// drove [`MergeOrder`]: one kept key per edge, the smallest re-ranked,
    /// its edge contracted only if the key still holds, over a union-find,
    /// boundary and crossing of its own. Counts stale keys into `stale`.
    fn scanned(
        plan: &LogicalPlan,
        phases: &Phases,
        seeds: &[usize],
        salt: u64,
        stale: &mut u64,
    ) -> Vec<Step> {
        let n = plan.n_ops();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut units: Vec<Option<ScanUnit>> = vec![None; n];
        let mut steps = Vec::new();
        for (part, edges) in phases {
            for op in part.ops() {
                let seed = (Scope::singleton(op), seeds[op as usize], u32::from(n > 1));
                units[op as usize] = Some(seed);
            }
            let mut keys: Vec<Option<Key>> = edges
                .iter()
                .map(|&e| edge_key(plan, &units, &mut parent, e).map(|(_, _, key)| key))
                .collect();
            while let Some((ranked, i)) = keys
                .iter()
                .enumerate()
                .filter_map(|(i, key)| key.map(|key| (key, i)))
                .min()
            {
                keys[i] = None;
                let Some((ra, rb, fresh)) = edge_key(plan, &units, &mut parent, edges[i]) else {
                    continue;
                };
                if fresh != ranked {
                    keys[i] = Some(fresh);
                    *stale += 1;
                    continue;
                }
                let a = units[ra as usize].take().unwrap();
                let b = units[rb as usize].take().unwrap();
                let scope = a.0.union(b.0);
                let boundary = boundary_of(plan, scope);
                let crossing = plan.edges().iter().filter_map(|&(u, v)| {
                    if a.0.contains(u) && b.0.contains(v) {
                        Some((u, v, true))
                    } else if b.0.contains(u) && a.0.contains(v) {
                        Some((u, v, false))
                    } else {
                        None
                    }
                });
                let rows = drawn_rows(salt, scope, (a.1, b.1));
                units[ra as usize] = Some((scope, rows, boundary.len() as u32));
                parent[rb as usize] = ra;
                steps.push((a.0, b.0, boundary, crossing.collect()));
            }
        }
        steps
    }

    /// The schedule contracts the scan's `(scope_a, scope_b)` sequence with
    /// the same boundaries and crossing edges. Seeded DAGs and pipelines
    /// over the named, uniform and masked registries (singletons hold the
    /// platforms their kind may run on), serial and split at 2, 3, 4 and 8
    /// parts, with merged units of drawn row counts.
    #[test]
    fn the_schedule_contracts_what_the_scan_contracts() {
        let mut rng = SplitMix64::new(0x0049_0DE5);
        let mut registries = vec![PlatformRegistry::named()];
        registries.extend((2..=8).map(PlatformRegistry::uniform));
        registries.extend((0..4).map(|i| masked_registry(&mut rng, 2 + i % 3)));
        let (mut stale, mut merges) = (0, 0);
        for registry in &registries {
            let dag_ops = 4 + rng.gen_range(13);
            let density = rng.next_f64();
            let dag = workloads::random_connected_dag(&mut rng, dag_ops, density);
            let pipeline = workloads::synthetic_pipeline(6 + rng.gen_range(25), 1e5);
            for plan in [&dag, &pipeline] {
                let seeds: Vec<usize> = (0..plan.n_ops() as u32)
                    .map(|op| registry.available_platforms(plan.op(op).kind).count())
                    .collect();
                for parts in [1, 2, 3, 4, 8] {
                    let split = split_plan(plan, SplitOptions::new(parts));
                    let mut phases: Phases =
                        split.parts.iter().copied().zip(split.part_edges).collect();
                    phases.push((Scope::default(), split.seam_edges));
                    let salt = rng.next_u64();
                    let want = scanned(plan, &phases, &seeds, salt, &mut stale);
                    assert_eq!(
                        scheduled(plan, &phases, &seeds, salt),
                        want,
                        "{} ops, {} platforms, {parts} parts",
                        plan.n_ops(),
                        registry.len()
                    );
                    merges += want.len();
                }
            }
        }
        // Keys go stale, so a schedule that never re-ranks fails.
        assert!(stale > 0 && merges > 0, "stale {stale}, merges {merges}");
    }
}
