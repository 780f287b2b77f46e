//! Algorithm 1: priority-based enumeration over plan-vector matrices.
//!
//! The enumeration graph starts with one unit per operator, with one
//! singleton row per platform the registry's availability matrix permits
//! for that operator's kind. Repeatedly, the dataflow edge with the best
//! Def-3 priority — fewest boundary operators of the merged scope (the
//! pruned frontier `k^|boundary|` multiplies every later merge), ties by
//! extending the larger existing unit (linear merge trees over balanced
//! ones), then FIFO — is contracted: the two matrices are cross-merged one
//! left row at a time with the fused add kernel, conversion features are
//! added for every dataflow edge crossing the two scopes (combinations
//! whose crossing edges have no conversion path in the registry's COT are
//! excluded, DESIGN §6.3), each block is costed in **one batched oracle
//! call**, and Def-2 boundary pruning keeps the cheapest row per pruning
//! footprint. When one unit covers the whole plan its empty footprint leaves
//! exactly the optimal row, which `unvectorize` turns into an
//! [`ExecutionPlan`].
//!
//! Rows are **plan-local**: every matrix, the scratch row and the staging
//! block are laid out by the plan's own [`PlanLayout`] — the Fig-5 cells of
//! the operator kinds the plan holds, 105 of 292 at 7 kinds × 8 platforms —
//! built once per run from the caller's full layout. The oracle receives
//! them as packed views of full-layout rows ([`PlanLayout::packed`]); only
//! [`Enumerator::finish`] encodes a full-layout row, for the winner.
//!
//! Zero-allocation hot path: the [`Enumerator`] owns matrix pools, scratch
//! row buffers, the batch cost buffer, the priority heap and the footprint
//! map, all reused across calls. After a warm-up run, enumerating performs
//! no `EnumMatrix` buffer growth (asserted by
//! `crates/core/tests/buffer_reuse.rs` via [`robopt_vector::alloc_events`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use robopt_plan::LogicalPlan;
use robopt_platforms::{PlatformId, PlatformRegistry};
use robopt_vector::merge::merge_feats_many;
use robopt_vector::{
    footprint_hash, EnumMatrix, FeatureLayout, FootprintTable, RowsView, Scope, NO_PLATFORM,
};

use crate::dist::{CostDistribution, RiskPolicy};
use crate::oracle::CostOracle;
use crate::vectorize::{add_conversion_features, vectorize_assignment, ExecutionPlan, PlanLayout};

/// Enumeration options: a borrowed [`PlatformRegistry`], the cost oracle
/// driving the search, and tuning flags, assembled builder-style.
///
/// The oracle travels with the options (`with_oracle`) instead of being a
/// separate positional argument threaded through every `enumerate`/baseline
/// call site; it is stored as `&dyn CostOracle`, so the analytic model and
/// any `robopt_ml` model behind a `ModelOracle` adapter are interchangeable
/// without monomorphizing the enumeration loop per model.
///
/// ```
/// # use robopt_plan::N_OPERATOR_KINDS;
/// # use robopt_platforms::PlatformRegistry;
/// # use robopt_vector::FeatureLayout;
/// # use robopt_core::{AnalyticOracle, EnumOptions};
/// let registry = PlatformRegistry::uniform(3);
/// let layout = FeatureLayout::new(3, N_OPERATOR_KINDS);
/// let oracle = AnalyticOracle::for_registry(&registry, &layout);
/// let opts = EnumOptions::new(&registry)
///     .with_oracle(&oracle)
///     .with_prune(true);
/// assert_eq!(opts.n_platforms(), 3);
/// ```
#[derive(Clone, Copy)]
pub struct EnumOptions<'a> {
    registry: &'a PlatformRegistry,
    oracle: Option<&'a dyn CostOracle>,
    prune: bool,
    risk: RiskPolicy,
}

impl std::fmt::Debug for EnumOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnumOptions")
            .field("n_platforms", &self.registry.len())
            .field("oracle_width", &self.oracle.map(|o| o.width()))
            .field("prune", &self.prune)
            .field("risk", &self.risk)
            .finish()
    }
}

impl<'a> EnumOptions<'a> {
    /// Options over `registry` with Def-2 boundary pruning enabled and no
    /// cost oracle yet (set one with [`EnumOptions::with_oracle`] before
    /// enumerating).
    pub fn new(registry: &'a PlatformRegistry) -> Self {
        EnumOptions {
            registry,
            oracle: None,
            prune: true,
            risk: RiskPolicy::ExpectedCost,
        }
    }

    /// Set the cost oracle the enumeration ranks candidate rows with.
    pub fn with_oracle(mut self, oracle: &'a dyn CostOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Toggle Def-2 boundary pruning (lossless under a linear oracle).
    /// Disabling it makes the search space grow as `k^n`; only sensible for
    /// tiny test plans.
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Set the [`RiskPolicy`] candidate rows are *ranked* by (DESIGN §12).
    /// Under the default `ExpectedCost` the enumerator takes the classic
    /// point-estimate path verbatim — bit-identical to pre-distributional
    /// enumeration. Under any other policy, rows are scored through
    /// [`CostOracle::cost_batch_dist`]: pruning keeps the cheapest
    /// *risk-adjusted* row per footprint, while the reported plan cost
    /// stays the canonical mean (see [`Enumerator::finish`]).
    pub fn with_risk(mut self, risk: RiskPolicy) -> Self {
        self.risk = risk;
        self
    }

    /// The registry enumeration resolves platforms against.
    #[inline]
    pub fn registry(&self) -> &'a PlatformRegistry {
        self.registry
    }

    /// The cost oracle. Panics when none was set — enumeration cannot rank
    /// candidates without one.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented contract: enumeration without an oracle is a caller bug, asserted by enumeration_without_an_oracle_is_rejected"
    )]
    pub fn oracle(&self) -> &'a dyn CostOracle {
        self.oracle
            .expect("EnumOptions::with_oracle: enumeration requires a cost oracle")
    }

    /// Whether Def-2 boundary pruning is enabled.
    #[inline]
    pub fn prune(&self) -> bool {
        self.prune
    }

    /// The risk policy candidate rows are ranked by.
    #[inline]
    pub fn risk(&self) -> RiskPolicy {
        self.risk
    }

    /// Number of platforms in the registry (the layout's `k`).
    #[inline]
    pub fn n_platforms(&self) -> usize {
        self.registry.len()
    }
}

/// Counters reported by one enumeration run (Table-I instrumentation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Candidate subplan vectors produced by `merge` (pre-pruning,
    /// including combinations later excluded as structurally infeasible),
    /// plus the initial singletons.
    pub generated: u64,
    /// Subplan vectors retained after pruning (the paper's "# enumerated
    /// subplans"), summed over all units ever materialized.
    pub kept: u64,
    /// Merge steps performed (always `n - 1` for a connected plan).
    pub merges: u64,
    /// Largest row count any single unit reached.
    pub peak_rows: u64,
}

impl EnumStats {
    /// Fold another run's counters into this one: totals add, the peak
    /// takes the max. The parallel enumerator folds per-part stats in part
    /// order, so the combined counters are scheduling-independent.
    pub fn absorb(&mut self, other: &EnumStats) {
        self.generated += other.generated;
        self.kept += other.kept;
        self.merges += other.merges;
        self.peak_rows = self.peak_rows.max(other.peak_rows);
    }
}

/// Def-3 priority of a candidate contraction, smallest first:
/// `(frontier, u64::MAX - larger_rows, edge)`.
///
/// * `frontier` — boundary operators of the merged scope. Primary key:
///   the pruned frontier is bounded by `k^frontier`, and that frontier
///   multiplies the staging cost of *every* future merge touching the
///   unit, so shrinking it first dominates any one merge's own
///   cross-product.
/// * `larger_rows` — row count of the larger endpoint unit, inverted:
///   among equal-frontier candidates, *extending* an existing multi-row
///   unit wins over pairing two fresh singletons. This keeps merge trees
///   linear — a balanced tree merges two k²-row units into a k⁴
///   cross-product where the linear tree stages k³ — which is what lets
///   split parts (whose interior scopes carry two boundary operators)
///   stay within a constant factor of serial enumeration.
/// * `edge` — the dataflow edge index: FIFO among full ties, and (one
///   live entry per edge) what makes every key unique, so the pop order
///   is a function of the keys alone.
type HeapKey = Reverse<(u32, u64, u32)>;

fn heap_key(frontier: u32, larger_rows: u64, edge: u32) -> HeapKey {
    Reverse((frontier, u64::MAX - larger_rows, edge))
}

/// One live node of the enumeration graph: the scope it covers and the
/// matrix of surviving candidate rows for that scope.
#[derive(Debug)]
pub(crate) struct Unit {
    pub(crate) scope: Scope,
    pub(crate) mat: EnumMatrix,
}

/// The vector-based enumerator with pooled, reusable buffers.
///
/// [`Enumerator::enumerate`] is the one-call serial entry point. The
/// `pub(crate)` phase methods (`begin` / `seed_singletons` /
/// `contract_edges` / `install_unit` / `finish`) expose the same machinery
/// piecewise so `crate::parallel` can run one `Enumerator` per plan part
/// and a final seam-merge pass without duplicating the hot loop.
#[derive(Debug, Default)]
pub struct Enumerator {
    pool: Vec<EnumMatrix>,
    units: Vec<Option<Unit>>,
    parent: Vec<u32>,
    heap: BinaryHeap<HeapKey>,
    fp_map: FootprintTable,
    scratch_feats: Vec<f64>,
    scratch_assign: Vec<u8>,
    /// Batched merge destination: one left row × every right row, written
    /// by [`merge_feats_many`] then conversion-patched in place.
    stage_block: Vec<f64>,
    cost_buf: Vec<f64>,
    /// Distributional scratch for non-`ExpectedCost` risk policies; unused
    /// (and unallocated) on the classic point path.
    dist_buf: CostDistribution,
    boundary: Vec<u32>,
    crossing: Vec<(u32, u32)>,
    /// Per-block feasibility flags (`feas[ib]` for the current left row ×
    /// right row `ib`): infeasible combinations are still costed with their
    /// block — batching beats branching — but never reach the destination.
    feas: Vec<bool>,
    /// Reused edge-index list for the serial all-edges path.
    edge_idx: Vec<u32>,
}

/// The contract every enumeration entry point ([`Enumerator::enumerate`],
/// `ParallelEnumerator::enumerate`) holds its caller to, checked before any
/// work (or any worker thread) starts.
pub(crate) fn check_preconditions(
    plan: &LogicalPlan,
    layout: &FeatureLayout,
    opts: EnumOptions<'_>,
) {
    let k = opts.n_platforms();
    let oracle = opts.oracle();
    assert!(plan.n_ops() >= 1, "empty plan");
    assert_eq!(
        k, layout.n_platforms,
        "feature layout sized for {} platforms but the registry holds {k}",
        layout.n_platforms
    );
    assert_eq!(
        oracle.width(),
        layout.width,
        "cost oracle expects rows of width {} but the layout produces {}",
        oracle.width(),
        layout.width
    );
    assert!(plan.is_connected(), "enumeration requires a connected plan");
}

/// Fill `out` with the boundary operators of `scope` — operators inside
/// with at least one dataflow edge to an operator outside — in ascending
/// op id (the canonical footprint order).
fn boundary_ops(plan: &LogicalPlan, scope: Scope, out: &mut Vec<u32>) {
    out.clear();
    out.extend(scope.ops().filter(|&op| {
        plan.succs(op)
            .iter()
            .chain(plan.preds(op))
            .any(|&o| !scope.contains(o))
    }));
}

/// Write `src`'s platform for every operator of `ops` into `row` and leave
/// the other slots alone: with `row` holding the outer unit's assignment
/// and `src` a row of the inner unit (disjoint scopes), `row` becomes the
/// candidate's full assignment at the cost of the inner scope, not the plan.
#[inline]
fn overlay_assignments(row: &mut [u8], ops: &[u32], src: &[u8]) {
    for &op in ops {
        row[op as usize] = src[op as usize];
    }
}

impl Enumerator {
    pub fn new() -> Self {
        Enumerator::default()
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

    /// Row count and scope of the unit rooted at `r`, for ranking merge
    /// candidates. Liveness is enforced where the unit is consumed
    /// ([`Enumerator::take_unit`]), so a dead root just reads as empty.
    #[inline]
    fn unit_shape(&self, r: u32) -> (usize, Scope) {
        match self.units.get(r as usize) {
            Some(Some(u)) => (u.mat.rows(), u.scope),
            _ => (0, Scope::default()),
        }
    }

    /// Detach the live unit rooted at `r`. The union-find invariant —
    /// every root returned by [`Enumerator::find`] owns a `Some` unit until
    /// it is contracted away — makes the lookup structural.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "union-find root always holds a live unit (contracted roots are never re-found)"
    )]
    pub(crate) fn take_unit(&mut self, r: u32) -> Unit {
        self.units
            .get_mut(r as usize)
            .and_then(Option::take)
            .expect("live unit at union-find root")
    }

    /// Take a pooled matrix, best-fit by the rows it will have to hold: the
    /// smallest one that holds them, or a fresh one when none does. Never
    /// growing a pooled matrix keeps small demands on small matrices, so
    /// the pool a first run leaves behind serves every later run of the
    /// same plan shape without growing (best fit never strands a demand
    /// another choice could have served).
    pub(crate) fn take_mat(&mut self, width: usize, n_ops: usize, rows_hint: usize) -> EnumMatrix {
        let needed = rows_hint * width;
        let fit = (0..self.pool.len())
            .filter(|&i| self.pool[i].feat_capacity() >= needed)
            .min_by_key(|&i| self.pool[i].feat_capacity());
        let mut m = fit.map_or_else(EnumMatrix::new, |i| self.pool.swap_remove(i));
        m.reset(width, n_ops);
        m.reserve_rows(rows_hint);
        m
    }

    /// Fill `self.cost_buf` with the *ranking* score of every row of
    /// `rows`. Under `ExpectedCost` this is the historical batched point
    /// path verbatim — one [`CostOracle::cost_batch`] call, so the bits
    /// cannot move. Under any other policy it is one
    /// [`CostOracle::cost_batch_dist`] call followed by a per-row
    /// [`RiskPolicy::score`] collapse. Either way the enumeration loop
    /// downstream consumes one scalar per row and is policy-oblivious.
    fn score_rows(&mut self, oracle: &dyn CostOracle, risk: RiskPolicy, rows: RowsView<'_>) {
        if risk.is_expected() {
            oracle.cost_batch(rows, &mut self.cost_buf);
        } else {
            oracle.cost_batch_dist(rows, &mut self.dist_buf);
            self.cost_buf.clear();
            self.cost_buf.reserve(self.dist_buf.len());
            for r in 0..self.dist_buf.len() {
                self.cost_buf.push(risk.score(&self.dist_buf, r));
            }
        }
    }

    /// Reset per-run state for an `n`-operator plan: no live units yet,
    /// identity union-find, scratch rows sized to the plan's own layout.
    /// Phase entry point for `crate::parallel`; [`Enumerator::enumerate`]
    /// uses it too.
    pub(crate) fn begin(&mut self, n: usize, layout: &PlanLayout) {
        self.units.clear();
        self.units.resize_with(n, || None);
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.scratch_feats.clear();
        self.scratch_feats.resize(layout.local().width, 0.0);
        self.scratch_assign.clear();
        self.scratch_assign.resize(n, NO_PLATFORM);
    }

    /// vectorize: one unit per operator of `scope`, one singleton row per
    /// platform the availability matrix permits for the operator's kind.
    /// The rows are scored (one batched oracle call per unit) only for a
    /// one-operator plan, where [`Enumerator::finish`] picks among them:
    /// a merge reads the costs of the unit it builds, never of its inputs.
    pub(crate) fn seed_singletons(
        &mut self,
        plan: &LogicalPlan,
        layout: &PlanLayout,
        opts: EnumOptions<'_>,
        scope: Scope,
        stats: &mut EnumStats,
    ) {
        let registry = opts.registry();
        let oracle = opts.oracle();
        let n = plan.n_ops();
        let k = registry.len();
        for op in scope.ops() {
            let kind = plan.op(op).kind;
            let mut mat = self.take_mat(layout.local().width, n, k);
            let mut feats = std::mem::take(&mut self.scratch_feats);
            let mut assign = std::mem::take(&mut self.scratch_assign);
            for p in registry.available_platforms(kind) {
                feats.fill(0.0);
                assign.fill(NO_PLATFORM);
                layout.fill_singleton(plan, op, p.raw(), &mut feats);
                assign[op as usize] = p.raw();
                mat.push_row(&feats, &assign, 0.0);
            }
            self.scratch_feats = feats;
            self.scratch_assign = assign;
            assert!(
                mat.rows() > 0,
                "operator {op} ({kind:?}) is unavailable on every registry platform"
            );
            if n == 1 {
                let seeded = layout.packed(mat.rows_view().flat());
                self.score_rows(oracle, opts.risk(), seeded);
                for r in 0..mat.rows() {
                    mat.set_cost(r, self.cost_buf[r]);
                }
            }
            stats.generated += mat.rows() as u64;
            stats.kept += mat.rows() as u64;
            stats.peak_rows = stats.peak_rows.max(mat.rows() as u64);
            self.units[op as usize] = Some(Unit {
                scope: Scope::singleton(op),
                mat,
            });
        }
    }

    /// Install a pre-built unit (a finished part's surviving rows), anchored
    /// at the scope's lowest op id so later [`Enumerator::find`] calls from
    /// any covered operator land on it.
    pub(crate) fn install_unit(&mut self, scope: Scope, mat: EnumMatrix) {
        #[expect(
            clippy::expect_used,
            reason = "installing an empty-scope unit is a caller bug"
        )]
        let root = scope.min_op().expect("non-empty unit scope");
        for op in scope.ops() {
            self.parent[op as usize] = root;
        }
        self.units[root as usize] = Some(Unit { scope, mat });
    }

    /// Return a consumed matrix to this enumerator's pool for reuse.
    #[inline]
    pub(crate) fn recycle(&mut self, mat: EnumMatrix) {
        self.pool.push(mat);
    }

    /// Collect the distinct union-find roots currently covering `scope`
    /// into `out` (cleared first), in ascending first-discovery order. A
    /// part whose subgraph is internally disconnected survives as several
    /// roots; the seam phase exports each as its own unit.
    pub(crate) fn surviving_roots(&mut self, scope: Scope, out: &mut Vec<u32>) {
        out.clear();
        for op in scope.ops() {
            let r = self.find(op);
            if !out.contains(&r) {
                out.push(r);
            }
        }
    }

    /// Current Def-3 key of dataflow edge `e` and the roots of the two units
    /// it would merge; `None` once both endpoints share a unit. Leaves the
    /// merged scope's boundary operators in `self.boundary`: their count
    /// ranks the edge, their list is the footprint every staged row hashes.
    fn edge_key(&mut self, plan: &LogicalPlan, e: u32) -> Option<(u32, u32, HeapKey)> {
        let (u, v) = plan.edges()[e as usize];
        let (ra, rb) = (self.find(u), self.find(v));
        if ra == rb {
            return None;
        }
        let (rows_a, scope_a) = self.unit_shape(ra);
        let (rows_b, scope_b) = self.unit_shape(rb);
        boundary_ops(plan, scope_a.union(scope_b), &mut self.boundary);
        let frontier = self.boundary.len() as u32;
        Some((ra, rb, heap_key(frontier, rows_a.max(rows_b) as u64, e)))
    }

    /// Contract the listed dataflow edges (indexes into `plan.edges()`) in
    /// Def-3 priority order: fewest boundary operators of the merged scope
    /// first (the pruned frontier `k^|boundary|` multiplies every later
    /// merge, so closing boundaries dominates any one merge's own
    /// cross-product), ties by extending the larger existing unit (linear
    /// merge trees stage `k³` where balanced ones stage `k⁴`), then FIFO
    /// over the original edge index. Lazy staleness handling: an entry whose
    /// stored key no longer matches current unit state is re-pushed with the
    /// current value. Every listed edge's endpoints must already be covered
    /// by live units (seeded singletons or installed part results).
    pub(crate) fn contract_edges(
        &mut self,
        plan: &LogicalPlan,
        layout: &PlanLayout,
        opts: EnumOptions<'_>,
        edges: &[u32],
        stats: &mut EnumStats,
    ) {
        let registry = opts.registry();
        let oracle = opts.oracle();
        let n = plan.n_ops();
        let k = registry.len();
        let local = layout.local();
        let width = local.width;

        self.heap.clear();
        for &e in edges {
            if let Some((_, _, key)) = self.edge_key(plan, e) {
                self.heap.push(key);
            }
        }

        while let Some(Reverse(entry)) = self.heap.pop() {
            let Some((ra, rb, fresh)) = self.edge_key(plan, entry.2) else {
                continue;
            };
            // Stale priority (an endpoint grew since the push): requeue.
            if fresh.0 != entry {
                self.heap.push(fresh);
                continue;
            }

            let a = self.take_unit(ra);
            let b = self.take_unit(rb);
            let (rows_a, rows_b) = (a.mat.rows(), b.mat.rows());
            let merged_scope = a.scope.union(b.scope);

            // Dataflow edges crossing the two scopes (conversion sites).
            self.crossing.clear();
            for &(u, v) in plan.edges() {
                if (a.scope.contains(u) && b.scope.contains(v))
                    || (b.scope.contains(u) && a.scope.contains(v))
                {
                    self.crossing.push((u, v));
                }
            }

            // The inner unit's operators, listed once per merge: the only
            // slots of the scratch assignment row a candidate changes. A
            // scope is a `u128` bitset, so the list fits on the stack.
            let mut inner_ops = [0u32; u128::BITS as usize];
            for (slot, op) in inner_ops.iter_mut().zip(b.scope.ops()) {
                *slot = op;
            }
            let inner_ops = &inner_ops[..b.scope.len() as usize];

            // Merge, cost and prune one left row at a time: `merge_feats_many`
            // fuses one `a` row against all of `b` in one block,
            // conversion features are patched per combination in place, the
            // block is costed with one batched oracle call, and every
            // feasible row is folded straight into the destination unit
            // (cheapest per Def-2 pruning footprint). Assignments are
            // overlaid, not merged: the scratch row is `a`'s row, copied
            // once per left row, and a candidate rewrites only `b`'s
            // operators in it — it is a full assignment whenever it is read
            // (crossing edges, footprint, the row kept in `dst`). The full
            // `rows_a × rows_b` cross-product is never materialized — the
            // working set stays one `rows_b`-row block regardless of how
            // large the merge is, so big seam merges cannot thrash the
            // matrix pool.
            let cap = if opts.prune() {
                (k as u64)
                    .saturating_pow(self.boundary.len() as u32)
                    .min((rows_a * rows_b) as u64) as usize
            } else {
                rows_a * rows_b
            };
            let mut dst = self.take_mat(width, n, cap);
            let mut block = std::mem::take(&mut self.stage_block);
            let mut assign = std::mem::take(&mut self.scratch_assign);
            self.fp_map.clear();
            for ia in 0..a.mat.rows() {
                merge_feats_many(&mut block, a.mat.row(ia), b.mat.rows_view());
                assign.copy_from_slice(a.mat.assignments(ia));
                debug_assert!(
                    inner_ops
                        .iter()
                        .all(|&op| assign[op as usize] == NO_PLATFORM),
                    "overlapping scopes"
                );
                self.feas.clear();
                self.feas.resize(b.mat.rows(), true);
                for (ib, feats) in block.chunks_exact_mut(width).enumerate() {
                    overlay_assignments(&mut assign, inner_ops, b.mat.assignments(ib));
                    for &(u, v) in &self.crossing {
                        let (pu, pv) = (assign[u as usize], assign[v as usize]);
                        if pu != pv
                            && !registry.convertible(
                                PlatformId::from_index(pu as usize),
                                PlatformId::from_index(pv as usize),
                            )
                        {
                            self.feas[ib] = false;
                            break;
                        }
                        add_conversion_features(plan, local, u, v, pu, pv, feats);
                    }
                }
                self.score_rows(oracle, opts.risk(), layout.packed(&block));
                for ib in 0..b.mat.rows() {
                    if !self.feas[ib] {
                        continue;
                    }
                    let cost = self.cost_buf[ib];
                    let feats = &block[ib * width..(ib + 1) * width];
                    overlay_assignments(&mut assign, inner_ops, b.mat.assignments(ib));
                    if opts.prune() {
                        let fp = footprint_hash(&self.boundary, &assign);
                        match self.fp_map.get(fp) {
                            Some(row) => {
                                if cost < dst.cost(row as usize) {
                                    dst.overwrite_row(row as usize, feats, &assign, cost);
                                }
                            }
                            None => {
                                let row = dst.push_row(feats, &assign, cost);
                                self.fp_map.insert(fp, row as u32);
                            }
                        }
                    } else {
                        dst.push_row(feats, &assign, cost);
                    }
                }
            }
            self.stage_block = block;
            self.scratch_assign = assign;
            stats.generated += (rows_a * rows_b) as u64;
            assert!(
                dst.rows() > 0,
                "no feasible platform combination for a merged scope — \
                 the registry's conversion graph disconnects these operators"
            );

            stats.merges += 1;
            stats.kept += dst.rows() as u64;
            stats.peak_rows = stats.peak_rows.max(dst.rows() as u64);

            // Contract: rb joins ra; recycle the consumed matrices.
            self.parent[rb as usize] = ra;
            self.pool.push(a.mat);
            self.pool.push(b.mat);
            self.units[ra as usize] = Some(Unit {
                scope: merged_scope,
                mat: dst,
            });
        }
    }

    /// unvectorize: detach the single surviving unit (it must cover the
    /// whole plan), take its cheapest row, and re-cost that assignment
    /// **canonically** — one whole-plan `vectorize_assignment` encode in the
    /// full layout (the only full-width row of a run) plus one `cost_row`
    /// call. Selection uses the merge-tree costs, but the
    /// *reported* cost is a pure function of (plan, assignment, oracle),
    /// independent of the order floating-point additions happened in — so
    /// serial and split-parallel enumeration agree on cost bits. Under a
    /// non-`ExpectedCost` risk policy the stored row costs are risk scores,
    /// so `min_cost_row` picks the min-*risk* plan; the reported cost is
    /// still the canonical mean of that winner (risk changes which plan
    /// wins, never how its cost is quoted — DESIGN §12).
    pub(crate) fn finish(
        &mut self,
        plan: &LogicalPlan,
        layout: &PlanLayout,
        opts: EnumOptions<'_>,
    ) -> ExecutionPlan {
        let n = plan.n_ops();
        let root = self.find(0);
        let unit = self.take_unit(root);
        assert_eq!(
            unit.scope.len() as usize,
            n,
            "enumeration finished without covering the whole plan"
        );
        #[expect(
            clippy::expect_used,
            reason = "every singleton pushes >= 1 row and every merge asserts a feasible row, so the final unit is non-empty"
        )]
        let best = unit.mat.min_cost_row().expect("non-empty enumeration");
        let mut feats = std::mem::take(&mut self.scratch_feats);
        vectorize_assignment(plan, layout.full(), unit.mat.assignments(best), &mut feats);
        let cost = opts.oracle().cost_row(&feats);
        self.scratch_feats = feats;
        let result = ExecutionPlan::from_raw(unit.mat.assignments(best), cost);
        self.pool.push(unit.mat);
        result
    }

    /// Run Algorithm 1. The plan must be sealed and connected; the layout's
    /// platform dimension must match the registry carried by `opts`, and the
    /// oracle carried by `opts` must expect the layout's row width.
    pub fn enumerate(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) -> (ExecutionPlan, EnumStats) {
        check_preconditions(plan, layout, opts);
        let n = plan.n_ops();
        let mut stats = EnumStats::default();
        let layout = &PlanLayout::of(plan, layout);

        self.begin(n, layout);
        self.seed_singletons(plan, layout, opts, Scope::full(n), &mut stats);
        let mut edges = std::mem::take(&mut self.edge_idx);
        edges.clear();
        edges.extend(0..plan.edges().len() as u32);
        self.contract_edges(plan, layout, opts, &edges, &mut stats);
        self.edge_idx = edges;
        (self.finish(plan, layout, opts), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AnalyticOracle;
    use crate::vectorize::fill_singleton;
    use robopt_plan::{workloads, N_OPERATOR_KINDS};

    fn run(plan: &LogicalPlan, k: usize, prune: bool) -> (ExecutionPlan, EnumStats) {
        let registry = PlatformRegistry::uniform(k);
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        Enumerator::new().enumerate(
            plan,
            &layout,
            EnumOptions::new(&registry)
                .with_oracle(&oracle)
                .with_prune(prune),
        )
    }

    #[test]
    fn wordcount_enumeration_is_complete_and_assigned() {
        let plan = workloads::wordcount(1e5);
        let (exec, stats) = run(&plan, 2, true);
        assert_eq!(exec.assignments.len(), 6);
        assert!(exec.assignments.iter().all(|&p| p.index() < 2));
        assert!(exec.cost.is_finite() && exec.cost > 0.0);
        assert_eq!(stats.merges, 5);
    }

    #[test]
    fn pruned_and_unpruned_agree_on_small_plans() {
        let plan = workloads::wordcount(1e5);
        let (pruned, s1) = run(&plan, 2, true);
        let (full, s2) = run(&plan, 2, false);
        assert!((pruned.cost - full.cost).abs() <= 1e-9 * full.cost.abs());
        assert!(s1.kept < s2.kept);
    }

    #[test]
    fn optimum_is_no_worse_than_any_uniform_assignment() {
        use crate::vectorize::vectorize_assignment;
        let plan = workloads::tpch_q3(1e5);
        let registry = PlatformRegistry::uniform(2);
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let (exec, _) = Enumerator::new().enumerate(
            &plan,
            &layout,
            EnumOptions::new(&registry).with_oracle(&oracle),
        );
        let mut feats = Vec::new();
        for p in 0..2u8 {
            vectorize_assignment(&plan, &layout, &vec![p; plan.n_ops()], &mut feats);
            assert!(exec.cost <= oracle.cost_row(&feats) + 1e-9);
        }
    }

    #[test]
    fn availability_masking_keeps_operators_off_unsupported_platforms() {
        use robopt_plan::OperatorKind;
        let plan = workloads::wordcount(1e5);
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let (exec, _) = Enumerator::new().enumerate(
            &plan,
            &layout,
            EnumOptions::new(&registry).with_oracle(&oracle),
        );
        assert!(exec.cost.is_finite());
        for (op, &p) in exec.assignments.iter().enumerate() {
            assert!(
                registry.is_available(plan.op(op as u32).kind, p),
                "operator {op} ({:?}) placed on unavailable {p}",
                plan.op(op as u32).kind
            );
        }
        // WordCount has a TextFileSource, unavailable on Postgres/Giraph.
        let pg = registry.by_name("postgres").unwrap();
        assert_ne!(exec.assignments[0], pg);
        assert!(OperatorKind::TextFileSource.is_source());
    }

    #[test]
    fn infeasible_conversions_are_excluded_not_costed() {
        use robopt_plan::{Operator, OperatorKind};
        use robopt_platforms::Platform;
        // Two platforms with NO channel between them: every operator chain
        // must stay on a single platform.
        let mut b = PlatformRegistry::builder();
        b.add(Platform::new("iso0").with_fixed_cost(1.0));
        b.add(Platform::new("iso1").with_fixed_cost(0.5));
        let registry = b.build();
        let mut plan = LogicalPlan::new();
        let s = plan.add_op(Operator::source(OperatorKind::TextFileSource, 1e4));
        let m = plan.add_op(Operator::new(OperatorKind::Map));
        let t = plan.add_op(Operator::new(OperatorKind::LocalCallbackSink));
        plan.connect(s, m);
        plan.connect(m, t);
        plan.seal();
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let (exec, _) = Enumerator::new().enumerate(
            &plan,
            &layout,
            EnumOptions::new(&registry).with_oracle(&oracle),
        );
        assert_eq!(
            exec.distinct_platforms(),
            1,
            "disconnected COT must force a single-platform plan"
        );
    }

    /// The one reader of a seeded unit's scores: with a single operator the
    /// final unit *is* the seed, and `finish` picks its cheapest row.
    #[test]
    fn one_operator_plan_returns_its_cheapest_platform() {
        use robopt_plan::{Operator, OperatorKind};
        use robopt_platforms::Platform;
        let mut plan = LogicalPlan::new();
        plan.add_op(Operator::source(OperatorKind::TextFileSource, 1e6));
        plan.seal();
        // The cheapest platform is not the first row of the seed, which is
        // what an unscored unit (every cost 0.0) would return.
        let mut b = PlatformRegistry::builder();
        b.add(Platform::new("dear").with_fixed_cost(3.0));
        b.add(Platform::new("cheap").with_fixed_cost(0.5));
        b.add(Platform::new("middling").with_fixed_cost(1.0));
        let registry = b.build();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        let mut feats = vec![0.0; layout.width];
        let cheapest = registry
            .available_platforms(OperatorKind::TextFileSource)
            .map(|p| {
                feats.fill(0.0);
                fill_singleton(&plan, &layout, 0, p.raw(), &mut feats);
                (p, oracle.cost_row(&feats))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(cheapest.0.index(), 1);
        for risk in [RiskPolicy::ExpectedCost, RiskPolicy::MeanPlusKSigma(2.0)] {
            let opts = EnumOptions::new(&registry)
                .with_oracle(&oracle)
                .with_risk(risk);
            let (exec, stats) = Enumerator::new().enumerate(&plan, &layout, opts);
            assert_eq!(exec.assignments, [cheapest.0]);
            assert_eq!(exec.cost.to_bits(), cheapest.1.to_bits());
            assert_eq!(stats.merges, 0);
        }
    }

    /// Every row every unit keeps, read the way the oracle reads it — as a
    /// packed view of full-layout rows — is the full-layout vector of the
    /// (partial) assignment stored beside it. Edges are contracted one at a
    /// time so each unit can be inspected when it is built.
    #[test]
    fn every_kept_row_unpacks_to_the_full_layout_vector_of_its_assignment() {
        use crate::vectorize::add_operator_cells;
        use robopt_plan::{Operator, OperatorKind, SplitMix64};
        let registries = [
            PlatformRegistry::named(),
            PlatformRegistry::uniform(2),
            PlatformRegistry::uniform(5),
            PlatformRegistry::uniform(8),
        ];
        let mut rng = SplitMix64::new(0x0023_0001);
        let (mut unpacked, mut want) = (Vec::new(), Vec::new());
        for case in 0..24 {
            let registry = &registries[case % registries.len()];
            let full = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
            // A banded DAG (every operator reads one of the three before it,
            // one in four a second) over kinds drawn from all 20 inner ones,
            // so the set of kinds present — the local layout — varies.
            let n = 4 + rng.gen_range(37);
            let mut plan = LogicalPlan::new();
            plan.add_op(Operator::source(OperatorKind::TextFileSource, 1e5));
            for i in 1..n {
                let kind = if i == n - 1 {
                    OperatorKind::LocalCallbackSink
                } else {
                    OperatorKind::ALL[3 + rng.gen_range(20)]
                };
                let id = plan.add_op(Operator::new(kind).with_selectivity(0.9));
                let first = i - 1 - rng.gen_range(i.min(3));
                let second = i - 1 - rng.gen_range(i.min(3));
                plan.connect(first as u32, id);
                if second != first && rng.next_f64() < 0.25 {
                    plan.connect(second as u32, id);
                }
            }
            plan.seal();

            let oracle = AnalyticOracle::for_registry(registry, &full);
            let opts = EnumOptions::new(registry).with_oracle(&oracle);
            let layout = PlanLayout::of(&plan, &full);
            let mut check = |unit: &Unit| {
                assert_eq!(unit.mat.width(), layout.local().width);
                layout
                    .packed(unit.mat.rows_view().flat())
                    .unpack_into(&mut unpacked);
                for (r, got) in unpacked.chunks_exact(full.width).enumerate() {
                    let assign = unit.mat.assignments(r);
                    want.clear();
                    want.resize(full.width, 0.0);
                    for op in unit.scope.ops() {
                        add_operator_cells(&plan, &full, op, assign[op as usize], &mut want);
                    }
                    for &(u, v) in plan.edges() {
                        if unit.scope.contains(u) && unit.scope.contains(v) {
                            let (pu, pv) = (assign[u as usize], assign[v as usize]);
                            add_conversion_features(&plan, &full, u, v, pu, pv, &mut want);
                        }
                    }
                    for (cell, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                            "case {case} row {r} cell {cell}: kept {g}, assignment encodes {w}"
                        );
                    }
                }
            };

            let mut en = Enumerator::new();
            let mut stats = EnumStats::default();
            en.begin(n, &layout);
            en.seed_singletons(&plan, &layout, opts, Scope::full(n), &mut stats);
            en.units.iter().flatten().for_each(&mut check);
            for e in 0..plan.edges().len() as u32 {
                en.contract_edges(&plan, &layout, opts, &[e], &mut stats);
                let root = en.find(plan.edges()[e as usize].0);
                check(en.units[root as usize].as_ref().unwrap());
            }
            assert_eq!(stats.merges, n as u64 - 1);
            let exec = en.finish(&plan, &layout, opts);
            assert_eq!(exec.assignments.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "requires a cost oracle")]
    fn enumeration_without_an_oracle_is_rejected() {
        let plan = workloads::wordcount(1e5);
        let registry = PlatformRegistry::uniform(2);
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        Enumerator::new().enumerate(&plan, &layout, EnumOptions::new(&registry));
    }

    /// Point-estimating oracle whose *distribution* marks one layout cell
    /// as volatile: std is proportional to that cell's value, mean is the
    /// analytic cost untouched.
    struct SpreadOracle {
        inner: AnalyticOracle,
        risky_cell: usize,
    }

    impl CostOracle for SpreadOracle {
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn cost_row(&self, feats: &[f64]) -> f64 {
            self.inner.cost_row(feats)
        }
        fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
            self.inner.cost_batch(rows, &mut out.mean);
            out.fill_point_from_mean();
            for r in 0..rows.rows() {
                out.std[r] = rows.value(r, self.risky_cell) * 1e3;
            }
        }
    }

    #[test]
    fn risk_policy_changes_selection_but_not_the_reported_cost_contract() {
        let plan = workloads::wordcount(1e6);
        let registry = PlatformRegistry::uniform(2);
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let inner = AnalyticOracle::for_registry(&registry, &layout);
        let (base, _) = Enumerator::new().enumerate(
            &plan,
            &layout,
            EnumOptions::new(&registry).with_oracle(&inner),
        );
        // The risky cell is the expected winner's input-tuple column, so a
        // risk-averse policy must steer off that platform.
        let winner = base.assignments[1].index();
        let oracle = SpreadOracle {
            inner: inner.clone(),
            risky_cell: layout.platform_input_tuples(winner),
        };

        // ExpectedCost through the same distributional oracle: identical
        // plan, identical cost bits (the classic path runs verbatim).
        let (expected, _) = Enumerator::new().enumerate(
            &plan,
            &layout,
            EnumOptions::new(&registry)
                .with_oracle(&oracle)
                .with_risk(RiskPolicy::ExpectedCost),
        );
        assert_eq!(expected.assignments, base.assignments);
        assert_eq!(expected.cost.to_bits(), base.cost.to_bits());

        // A strongly risk-averse policy abandons the volatile platform.
        let (robust, _) = Enumerator::new().enumerate(
            &plan,
            &layout,
            EnumOptions::new(&registry)
                .with_oracle(&oracle)
                .with_risk(RiskPolicy::MeanPlusKSigma(5.0)),
        );
        assert_ne!(robust.assignments, base.assignments, "risk must repick");
        // The reported cost stays the canonical mean of the robust winner —
        // quoted identically to what ExpectedCost would quote for that plan.
        let mut feats = Vec::new();
        crate::vectorize::vectorize_assignment(
            &plan,
            &layout,
            &robust
                .assignments
                .iter()
                .map(|p| p.raw())
                .collect::<Vec<_>>(),
            &mut feats,
        );
        assert_eq!(robust.cost.to_bits(), oracle.cost_row(&feats).to_bits());
        assert!(
            robust.cost >= base.cost,
            "mean-optimal plan is mean-minimal"
        );
    }
}
