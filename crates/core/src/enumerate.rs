//! Algorithm 1: priority-based enumeration over plan-vector matrices.
//!
//! The enumeration graph starts with one unit per operator, with one
//! singleton row per platform the registry's availability matrix permits
//! for that operator's kind. Repeatedly, the dataflow edge the merge
//! schedule ([`crate::order`], Def-3 priority) puts first is contracted: the
//! two matrices are cross-merged one left row at a time with the fused add
//! kernel, conversion features are added for every dataflow edge crossing
//! the two scopes (combinations whose crossing edges have no conversion path
//! in the registry's COT are excluded, DESIGN §6.3), each block is costed in
//! **one batched oracle call**, and Def-2 boundary pruning keeps the
//! cheapest row per pruning footprint. A merged row's footprint is the pair
//! of its two inputs' footprints on the merged boundary, so pruning numbers
//! each input's rows by theirs (at most one hash per input row) and folds
//! each staged row into a dense index over the pairs. A merge that closes
//! no boundary operator produces only new footprints, so it compares
//! nothing and costs nothing (DESIGN §5). When one unit covers the whole
//! plan its empty footprint leaves exactly the optimal row, whose
//! assignment `unvectorize` quotes ([`ExecutionPlan::quote`]).
//!
//! Rows are **plan-local**: every matrix, the scratch row and the staging
//! block are laid out by the plan's own [`PlanLayout`] — the Fig-5 cells of
//! the operator kinds the plan holds, 105 of 292 at 7 kinds × 8 platforms —
//! built once per run from the caller's full layout. The oracle receives
//! them as packed views of full-layout rows ([`PlanLayout::packed`]); only
//! the winner's quote ([`ExecutionPlan::quote`]) encodes a full-layout row.
//!
//! Zero-allocation hot path: the [`Enumerator`] owns matrix pools, scratch
//! row buffers, the batch cost buffer, the merge schedule, the footprint
//! table and the pair index, all reused across calls. After a warm-up run,
//! enumerating performs no `EnumMatrix` buffer growth (asserted by
//! `crates/core/tests/buffer_reuse.rs` via [`robopt_vector::alloc_events`]).

use robopt_plan::LogicalPlan;
use robopt_platforms::{PlatformId, PlatformRegistry};
use robopt_vector::merge::merge_feats_many;
use robopt_vector::{
    footprint_hash, EnumMatrix, FeatureLayout, FootprintTable, RowsView, Scope, NO_PLATFORM,
};

use crate::dist::{CostDistribution, RiskPolicy};
use crate::oracle::CostOracle;
use crate::order::MergeOrder;
use crate::split::{split_plan, SplitOptions};
use crate::vectorize::{add_conversion_features, ExecutionPlan, PlanLayout};

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
    /// stays the canonical mean (see `Enumerator::finish`).
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
    /// takes the max. A split search folds each part's counters, in part
    /// order, into the total its seam merge is budgeted against.
    pub fn absorb(&mut self, other: &EnumStats) {
        self.generated += other.generated;
        self.kept += other.kept;
        self.merges += other.merges;
        self.peak_rows = self.peak_rows.max(other.peak_rows);
    }
}

/// A search refused because its next merge would take the candidate rows
/// staged so far ([`EnumStats::generated`]) past its budget. A merge stages
/// at most its two units' row product, so the budget bounds every
/// reservation too: the refusal comes before the merge allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverBudget {
    /// Rows staged so far plus the refused merge's row product.
    pub estimate: u64,
    /// The budget.
    pub limit: u64,
}

/// The result of a search under the `u64::MAX` budget, which no search
/// exceeds: staged rows are counted with saturating adds.
#[expect(
    clippy::expect_used,
    reason = "an estimate saturates at u64::MAX, so it is never over a u64::MAX budget"
)]
pub(crate) fn unbudgeted<T>(search: Result<T, OverBudget>) -> T {
    search.expect("no search exceeds the u64::MAX budget")
}

/// The vector-based enumerator with pooled, reusable buffers.
///
/// [`Enumerator::enumerate_within`] is the one budgeted entry point: it
/// runs the contract loop over the parts and seams of a plan split, and
/// serial search is the one-part split `SplitOptions::new(1)`.
/// [`Enumerator::enumerate`] is that serial search, unbudgeted.
///
/// A row's cost is read only where rows are compared: by the pruning of
/// the merge that builds it, and by `finish` on the whole-plan unit. So
/// the oracle costs only the rows of merges that compare — a pruned merge
/// that closes a boundary operator, and the whole-plan merge — and every
/// other row is kept with cost 0, unread (DESIGN §5).
#[derive(Debug, Default)]
pub struct Enumerator {
    pool: Vec<EnumMatrix>,
    /// The merge schedule over the run's units, their surviving rows.
    order: MergeOrder<EnumMatrix>,
    /// Numbers a folding merge's input rows by their footprint on their
    /// side of the merged boundary (`Enumerator::number_rows`).
    fp_map: FootprintTable,
    /// A folding merge's ids, one buffer: `a`'s rows' sub-ids, then `b`'s,
    /// then the pair index, one slot per `(sub_a, sub_b)` footprint holding
    /// the row of the destination that keeps it (`EMPTY` until one does).
    fold_ids: Vec<u32>,
    scratch_feats: Vec<f64>,
    scratch_assign: Vec<u8>,
    /// Batched merge destination: one left row × every right row, written
    /// by [`merge_feats_many`] then conversion-patched in place.
    stage_block: Vec<f64>,
    cost_buf: Vec<f64>,
    /// Distributional scratch for non-`ExpectedCost` risk policies and for
    /// the final plan's one-row quote.
    dist_buf: CostDistribution,
    /// Per-block feasibility flags (`feas[ib]` for the current left row ×
    /// right row `ib`): infeasible combinations are still costed with their
    /// block — batching beats branching — but never reach the destination.
    feas: Vec<bool>,
    /// Every merge's inputs and footprint hashes, for the tests that check
    /// which merges the oracle costs and how often a fold hashes.
    #[cfg(test)]
    merge_log: Vec<tests::MergeRecord>,
    /// Footprint hashes since the current merge began.
    #[cfg(test)]
    hashes: u64,
    /// When set, every folding merge also folds its staged rows the way
    /// the pair index replaced — one footprint hash over the merged
    /// boundary and one probe per staged row — and checks that both folds
    /// keep the same rows in the same order.
    #[cfg(test)]
    reference: Option<tests::ReferenceFold>,
}

/// A pair-index slot no row holds yet.
const EMPTY: u32 = u32::MAX;

/// The contract [`Enumerator::enumerate_within`] holds its caller to,
/// checked before any work starts.
fn check_preconditions(plan: &LogicalPlan, layout: &FeatureLayout, opts: EnumOptions<'_>) {
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

    /// Take a pooled matrix, best-fit by the rows it will have to hold: the
    /// smallest one that holds them, or a fresh one when none does. Never
    /// growing a pooled matrix keeps small demands on small matrices, so
    /// the pool a first run leaves behind serves every later run of the
    /// same plan shape without growing (best fit never strands a demand
    /// another choice could have served).
    fn take_mat(&mut self, width: usize, n_ops: usize, rows_hint: usize) -> EnumMatrix {
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

    /// Number the rows of `mat`, the unit of `scope` with `frontier`
    /// boundary operators, by their footprint over the operators of its
    /// boundary that stay on the merged scope's ([`MergeOrder::boundary`])
    /// into `self.fold_ids[at..]`, densely in order of first appearance, and
    /// return how many footprints there are. A unit whose boundary
    /// operators all stay numbers its rows `0..rows` (a unit's footprints
    /// over its boundary are pairwise distinct, [`crate::order`]), a unit
    /// none of whose operators stays is one class, and any other unit
    /// hashes each row once into the pruning table.
    fn number_rows(&mut self, scope: Scope, frontier: u32, mat: &EnumMatrix, at: usize) -> usize {
        let stays = |op: &&u32| scope.contains(**op);
        let boundary = self.order.boundary();
        let n_stay = boundary.iter().filter(stays).count();
        let ids = &mut self.fold_ids[at..at + mat.rows()];
        if n_stay == 0 {
            ids.fill(0);
            return 1;
        }
        if n_stay == frontier as usize {
            for (r, id) in ids.iter_mut().enumerate() {
                *id = r as u32;
            }
            return ids.len();
        }
        let mut ops = [0u32; u128::BITS as usize];
        for (slot, &op) in ops.iter_mut().zip(boundary.iter().filter(stays)) {
            *slot = op;
        }
        let ops = &ops[..n_stay];
        self.fp_map.clear();
        for (r, id) in ids.iter_mut().enumerate() {
            let fp = footprint_hash(ops, mat.assignments(r));
            #[cfg(test)]
            {
                self.hashes += 1;
            }
            let next = self.fp_map.len() as u32;
            *id = self.fp_map.insert_or_get(fp, next).unwrap_or(next);
        }
        self.fp_map.len()
    }

    /// Reset per-run state for an `n`-operator plan: no live units yet,
    /// scratch rows sized to the plan's own layout.
    fn begin(&mut self, n: usize, layout: &PlanLayout) {
        self.order.begin(n);
        self.scratch_feats.clear();
        self.scratch_feats.resize(layout.local().width, 0.0);
        self.scratch_assign.clear();
        self.scratch_assign.resize(n, NO_PLATFORM);
    }

    /// vectorize: one unit per operator of `scope`, one singleton row per
    /// platform the availability matrix permits for the operator's kind.
    /// The rows are scored (one batched oracle call per unit) only for a
    /// one-operator plan, where [`Enumerator::finish`] picks among them:
    /// a merge reads the costs of the unit it builds, never of its inputs,
    /// so every other seed row keeps cost 0, unread.
    fn seed_singletons(
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
            self.order.seed(op, mat);
        }
    }

    /// Contract the listed dataflow edges (indexes into `plan.edges()`) in
    /// the order the merge schedule pops them ([`crate::order`]). Every
    /// listed edge's endpoints must already be covered by live units (seeded
    /// singletons or earlier merges).
    ///
    /// A merge compares rows only when it covers the whole plan or, pruned,
    /// closes a boundary operator of its inputs ([`crate::order::Merge::closes`]);
    /// any other merge keeps every feasible row unscored, with no oracle
    /// call, footprint hash or table probe. A pruned merge that compares
    /// folds its rows through the pair index (module docs, DESIGN §5).
    ///
    /// Refuses, before it stages, the first merge that would take
    /// `stats.generated` past `max_rows`.
    fn contract_edges(
        &mut self,
        plan: &LogicalPlan,
        layout: &PlanLayout,
        opts: EnumOptions<'_>,
        edges: &[u32],
        max_rows: u64,
        stats: &mut EnumStats,
    ) -> Result<(), OverBudget> {
        let registry = opts.registry();
        let oracle = opts.oracle();
        let n = plan.n_ops();
        let k = registry.len();
        let local = layout.local();
        let width = local.width;

        self.order.schedule(plan, edges.iter().copied());
        while let Some((merge, a, b)) = self.order.pop(plan) {
            let (rows_a, rows_b) = (a.rows(), b.rows());
            let estimate = (rows_a as u64)
                .saturating_mul(rows_b as u64)
                .saturating_add(stats.generated);
            if estimate > max_rows {
                return Err(OverBudget {
                    estimate,
                    limit: max_rows,
                });
            }
            let (scope_a, scope_b) = merge.scopes;
            let whole = merge.scope().len() as usize == n;
            let scored = whole || (opts.prune() && merge.closes());
            let folds = scored && opts.prune();

            // The inner unit's operators, listed once per merge: the only
            // slots of the scratch assignment row a candidate changes. A
            // scope is a `u128` bitset, so the list fits on the stack.
            let mut inner_ops = [0u32; u128::BITS as usize];
            for (slot, op) in inner_ops.iter_mut().zip(scope_b.ops()) {
                *slot = op;
            }
            let inner_ops = &inner_ops[..scope_b.len() as usize];

            // A merged row's footprint is the pair of its inputs' footprints
            // on their sides of the merged boundary, so a folding merge
            // numbers each input's rows by theirs (`number_rows`) and keeps
            // the cheapest row per pair in a dense index of `n_a × n_b`
            // slots: at most `rows_a + rows_b` hashes name all
            // `rows_a × rows_b` groups.
            self.fold_ids.clear();
            let mut n_b = 0;
            if folds {
                self.fold_ids.resize(rows_a + rows_b, 0);
                let (frontier_a, frontier_b) = merge.frontiers;
                let n_a = self.number_rows(scope_a, frontier_a, &a, 0);
                n_b = self.number_rows(scope_b, frontier_b, &b, rows_a);
                self.fold_ids.resize(rows_a + rows_b + n_a * n_b, EMPTY);
            }
            let mut ids = std::mem::take(&mut self.fold_ids);
            let (sub_a, rest) = ids.split_at_mut(if folds { rows_a } else { 0 });
            let (sub_b, index) = rest.split_at_mut(if folds { rows_b } else { 0 });

            // Merge, cost and prune one left row at a time: `merge_feats_many`
            // fuses one `a` row against all of `b` in one block,
            // conversion features are patched per combination in place (the
            // crossing edges' platforms read straight from the two input
            // rows), a merge that compares costs the block with one batched
            // oracle call, and every feasible row is folded straight into the
            // destination unit (cheapest per Def-2 pruning footprint, or
            // pushed as staged when the merge compares nothing). A row is
            // pushed the first time its pair slot is hit, in `(ia, ib)`
            // order, so the rows come out in the order a per-row probe of
            // the merged footprint would create them.
            // Assignments are overlaid, not merged: the scratch row is `a`'s
            // row, copied once per left row, and a row that is pushed or
            // overwrites one rewrites only `b`'s operators in it. The full
            // `rows_a × rows_b` cross-product is never materialized — the
            // working set stays one `rows_b`-row block regardless of how
            // large the merge is, so big seam merges cannot thrash the
            // matrix pool.
            let cap = if opts.prune() {
                (k as u64)
                    .saturating_pow(merge.frontier)
                    .min((rows_a * rows_b) as u64) as usize
            } else {
                rows_a * rows_b
            };
            let mut dst = self.take_mat(width, n, cap);
            let mut block = std::mem::take(&mut self.stage_block);
            let mut assign = std::mem::take(&mut self.scratch_assign);
            #[cfg(test)]
            if let Some(reference) = self.reference.as_mut().filter(|_| folds) {
                reference.begin(width, n);
            }
            for ia in 0..rows_a {
                let a_assign = a.assignments(ia);
                merge_feats_many(&mut block, a.row(ia), b.rows_view());
                assign.copy_from_slice(a_assign);
                debug_assert!(
                    inner_ops
                        .iter()
                        .all(|&op| assign[op as usize] == NO_PLATFORM),
                    "overlapping scopes"
                );
                self.feas.clear();
                self.feas.resize(rows_b, true);
                for (ib, feats) in block.chunks_exact_mut(width).enumerate() {
                    let b_assign = b.assignments(ib);
                    for &(u, v, u_in_a) in self.order.crossing() {
                        let (pu, pv) = if u_in_a {
                            (a_assign[u as usize], b_assign[v as usize])
                        } else {
                            (b_assign[u as usize], a_assign[v as usize])
                        };
                        if pu != pv
                            && !registry.convertible(
                                PlatformId::from_index(pu as usize),
                                PlatformId::from_index(pv as usize),
                            )
                        {
                            self.feas[ib] = false;
                            break;
                        }
                        add_conversion_features(plan, local, u, pu, pv, feats);
                    }
                }
                if scored {
                    self.score_rows(oracle, opts.risk(), layout.packed(&block));
                }
                // The index slots of this row's `a` footprint.
                let base = sub_a.get(ia).map_or(0, |&id| id as usize * n_b);
                for ib in 0..rows_b {
                    if !self.feas[ib] {
                        continue;
                    }
                    let cost = if scored { self.cost_buf[ib] } else { 0.0 };
                    let feats = &block[ib * width..(ib + 1) * width];
                    #[cfg(test)]
                    if let Some(reference) = self.reference.as_mut().filter(|_| folds) {
                        let (boundary, b_assign) = (self.order.boundary(), b.assignments(ib));
                        reference.fold(boundary, a_assign, inner_ops, b_assign, feats, cost);
                    }
                    let kept = if folds {
                        let slot = &mut index[base + sub_b[ib] as usize];
                        if *slot == EMPTY {
                            *slot = dst.rows() as u32;
                            None
                        } else if cost < dst.cost(*slot as usize) {
                            Some(*slot as usize)
                        } else {
                            continue;
                        }
                    } else {
                        None
                    };
                    overlay_assignments(&mut assign, inner_ops, b.assignments(ib));
                    match kept {
                        Some(row) => dst.overwrite_row(row, feats, &assign, cost),
                        None => {
                            dst.push_row(feats, &assign, cost);
                        }
                    }
                }
            }
            self.fold_ids = ids;
            self.stage_block = block;
            self.scratch_assign = assign;
            stats.generated += (rows_a * rows_b) as u64;
            #[cfg(test)]
            {
                if let Some(reference) = self.reference.as_mut().filter(|_| folds) {
                    reference.check(&dst, scope_a, scope_b);
                }
                self.merge_log.push(tests::MergeRecord {
                    a: scope_a,
                    b: scope_b,
                    rows: (rows_a as u64, rows_b as u64),
                    scored,
                    hashes: std::mem::take(&mut self.hashes),
                });
            }
            assert!(
                dst.rows() > 0,
                "no feasible platform combination for a merged scope — \
                 the registry's conversion graph disconnects these operators"
            );

            stats.merges += 1;
            stats.kept += dst.rows() as u64;
            stats.peak_rows = stats.peak_rows.max(dst.rows() as u64);

            // Recycle the consumed matrices; `dst` is the merged unit.
            self.pool.push(a);
            self.pool.push(b);
            self.order.join(&merge, dst);
        }
        Ok(())
    }

    /// unvectorize: detach the single surviving unit (it must cover the
    /// whole plan), take its cheapest row, and quote that assignment
    /// ([`ExecutionPlan::quote`], the only full-width row of a run).
    /// Selection uses the merge-tree costs, but the *reported* cost is a
    /// pure function of (plan, assignment, oracle), independent of the
    /// order floating-point additions happened in — so serial and split
    /// enumeration agree on cost bits. Under a non-`ExpectedCost` risk
    /// policy the stored row costs are risk scores, so `min_cost_row` picks
    /// the min-*risk* plan; the quote is still that winner's mean and
    /// spread (risk changes which plan wins, never how its cost is quoted —
    /// DESIGN §12).
    fn finish(
        &mut self,
        plan: &LogicalPlan,
        layout: &PlanLayout,
        opts: EnumOptions<'_>,
    ) -> ExecutionPlan {
        let mat = self.order.take_whole();
        #[expect(
            clippy::expect_used,
            reason = "every singleton pushes >= 1 row and every merge asserts a feasible row, so the final unit is non-empty"
        )]
        let best = mat.min_cost_row().expect("non-empty enumeration");
        let result = ExecutionPlan::quote(
            plan,
            layout.full(),
            opts.oracle(),
            mat.assignments(best),
            &mut self.scratch_feats,
            &mut self.dist_buf,
        );
        self.pool.push(mat);
        result
    }

    /// Run Algorithm 1 serially and unbudgeted:
    /// [`Enumerator::enumerate_within`] under the one-part split.
    pub fn enumerate(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) -> (ExecutionPlan, EnumStats) {
        let serial = SplitOptions::new(1);
        unbudgeted(self.enumerate_within(plan, layout, opts, serial, u64::MAX))
    }

    /// Run Algorithm 1 over the parts and seams of `split_plan(plan,
    /// split)`. The plan must be sealed and connected; the layout's platform
    /// dimension must match the registry carried by `opts`, and the oracle
    /// carried by `opts` must expect the layout's row width.
    ///
    /// The one contract loop: each part, in part order, seeds its
    /// operators' singletons and contracts its edges against counters of
    /// its own, which then fold into the total; the seam edges contract
    /// last, against that total. So the search is refused with
    /// [`OverBudget`] before the first merge that would take a part past
    /// `max_rows` staged rows of its own ([`EnumStats::generated`]), or the
    /// seams past `max_rows` of the parts' total and their own; the lowest
    /// refused part answers. Serial search is the one part of
    /// `SplitOptions::new(1)`, with no seams.
    pub fn enumerate_within(
        &mut self,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
        split: SplitOptions,
        max_rows: u64,
    ) -> Result<(ExecutionPlan, EnumStats), OverBudget> {
        check_preconditions(plan, layout, opts);
        let split = split_plan(plan, split);
        let layout = &PlanLayout::of(plan, layout);
        self.begin(plan.n_ops(), layout);
        let mut stats = EnumStats::default();
        for (&scope, edges) in split.parts.iter().zip(&split.part_edges) {
            let mut part = EnumStats::default();
            self.seed_singletons(plan, layout, opts, scope, &mut part);
            self.contract_edges(plan, layout, opts, edges, max_rows, &mut part)?;
            stats.absorb(&part);
        }
        self.contract_edges(plan, layout, opts, &split.seam_edges, max_rows, &mut stats)?;
        Ok((self.finish(plan, layout, opts), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AnalyticOracle;
    use crate::order::boundary_ops;
    use crate::testing::TinyForest;
    use crate::vectorize::add_operator_cells;
    use robopt_plan::{workloads, SplitMix64, N_OPERATOR_KINDS};
    use robopt_vector::SigHasher;

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

    /// The budget refuses the first merge whose staged total would pass it,
    /// answers as the unbudgeted search at exactly its total, and leaves the
    /// enumerator reusable.
    #[test]
    fn a_budget_refuses_the_first_merge_past_it() {
        let registry = PlatformRegistry::uniform(4);
        let layout = FeatureLayout::new(4, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        for (ops, prune) in [(12, true), (6, false)] {
            let plan = workloads::synthetic_pipeline(ops, 1e5);
            let opts = EnumOptions::new(&registry)
                .with_oracle(&oracle)
                .with_prune(prune);
            let mut en = Enumerator::new();
            let free = en.enumerate(&plan, &layout, opts);
            let total = free.1.generated;
            let limit = total - 1;
            let serial = SplitOptions::new(1);
            assert_eq!(
                en.enumerate_within(&plan, &layout, opts, serial, limit),
                Err(OverBudget {
                    estimate: total,
                    limit
                }),
                "prune {prune}: the last merge stages the total"
            );
            // Every singleton row, then the first merge's 4 × 4.
            assert_eq!(
                en.enumerate_within(&plan, &layout, opts, serial, 0),
                Err(OverBudget {
                    estimate: 4 * ops as u64 + 16,
                    limit: 0
                }),
                "prune {prune}"
            );
            assert_eq!(
                en.enumerate_within(&plan, &layout, opts, serial, total),
                Ok(free),
                "prune {prune}"
            );
        }
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
                add_operator_cells(&plan, &layout, 0, p.raw(), &mut feats);
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
    /// (partial) assignment stored beside it, and no two rows of a unit
    /// share a footprint. Edges are contracted one at a time so each unit
    /// can be inspected when it is built.
    #[test]
    fn every_kept_row_unpacks_to_the_full_layout_vector_of_its_assignment() {
        use robopt_plan::{Operator, OperatorKind};
        let registries = [
            PlatformRegistry::named(),
            PlatformRegistry::uniform(2),
            PlatformRegistry::uniform(5),
            PlatformRegistry::uniform(8),
        ];
        let mut rng = SplitMix64::new(0x0023_0001);
        let (mut unpacked, mut want) = (Vec::new(), Vec::new());
        let (mut boundary, mut footprints) = (Vec::new(), std::collections::BTreeSet::new());
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
            let mut check = |(scope, frontier, mat): (Scope, u32, &EnumMatrix)| {
                assert_eq!(mat.width(), layout.local().width);
                // Pairwise-distinct footprints over the unit's boundary,
                // whether or not the merge that built it compared rows: the
                // invariant that lets a merge closing no boundary operator
                // skip the comparison.
                boundary_ops(&plan, scope, &mut boundary);
                assert_eq!(frontier as usize, boundary.len(), "case {case}");
                footprints.clear();
                for r in 0..mat.rows() {
                    let assign = mat.assignments(r);
                    let fp: Vec<u8> = boundary.iter().map(|&op| assign[op as usize]).collect();
                    assert!(
                        footprints.insert(fp),
                        "case {case} row {r}: a second row with its footprint"
                    );
                }
                layout
                    .packed(mat.rows_view().flat())
                    .unpack_into(&mut unpacked);
                for (r, got) in unpacked.chunks_exact(full.width).enumerate() {
                    let assign = mat.assignments(r);
                    want.clear();
                    want.resize(full.width, 0.0);
                    for op in scope.ops() {
                        add_operator_cells(&plan, &full, op, assign[op as usize], &mut want);
                    }
                    for &(u, v) in plan.edges() {
                        if scope.contains(u) && scope.contains(v) {
                            let (pu, pv) = (assign[u as usize], assign[v as usize]);
                            add_conversion_features(&plan, &full, u, pu, pv, &mut want);
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
            for op in 0..n as u32 {
                check(en.order.unit_of(op).unwrap());
            }
            for e in 0..plan.edges().len() as u32 {
                unbudgeted(en.contract_edges(&plan, &layout, opts, &[e], u64::MAX, &mut stats));
                check(en.order.unit_of(plan.edges()[e as usize].0).unwrap());
            }
            assert_eq!(stats.merges, n as u64 - 1);
            let exec = en.finish(&plan, &layout, opts);
            assert_eq!(exec.assignments.len(), n);
        }
    }

    /// The oracle costs exactly the staged rows of the merges that compare:
    /// pruned, the whole-plan merge and those that close a boundary
    /// operator; unpruned, the whole-plan merge alone. Seeded DAGs and
    /// pipelines over the named, uniform and masked registries, searched
    /// serially and split at 2, 3, 4 and 8 parts, under the analytic oracle
    /// and a fixed-seed forest ranked by `sigma2`.
    #[test]
    fn the_oracle_costs_only_the_rows_of_merges_that_compare() {
        use crate::testing::{masked_registry, CountingOracle};
        let mut rng = SplitMix64::new(0x0042_C057);
        let mut registries = vec![PlatformRegistry::named()];
        registries.extend((2..=8).map(PlatformRegistry::uniform));
        registries.extend((0..4).map(|i| masked_registry(&mut rng, 2 + i % 3)));
        let (mut en, mut bd) = (Enumerator::new(), Vec::new());
        let mut frontier = |plan: &LogicalPlan, scope: Scope| {
            boundary_ops(plan, scope, &mut bd);
            bd.len()
        };
        let (mut costed, mut skipped) = (0, 0);
        for registry in &registries {
            let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
            let analytic = AnalyticOracle::for_registry(registry, &layout);
            let forest = TinyForest::new(registry, &layout, 0xF0_4E57);
            let dag_ops = 4 + rng.gen_range(11);
            let dag = workloads::random_connected_dag(&mut rng, dag_ops, 0.3);
            let pipeline = workloads::synthetic_pipeline(6 + rng.gen_range(25), 1e5);
            // Small enough for the unpruned k^n cross-product.
            let small = workloads::random_connected_dag(&mut rng, 4, 0.5);
            for (plan, prune) in [(&dag, true), (&pipeline, true), (&small, false)] {
                let oracles: [(&dyn CostOracle, RiskPolicy); 2] = [
                    (&analytic, RiskPolicy::ExpectedCost),
                    (&forest, RiskPolicy::MeanPlusKSigma(2.0)),
                ];
                for (inner, risk) in oracles {
                    let counting = CountingOracle::new(inner);
                    let opts = EnumOptions::new(registry)
                        .with_oracle(&counting)
                        .with_prune(prune)
                        .with_risk(risk);
                    for parts in [1, 2, 3, 4, 8] {
                        en.merge_log.clear();
                        let split = SplitOptions::new(parts);
                        unbudgeted(en.enumerate_within(plan, &layout, opts, split, u64::MAX));
                        // The winner's quote is one row.
                        let mut want = 1;
                        for &MergeRecord { a, b, rows, .. } in &en.merge_log {
                            let staged = rows.0 * rows.1;
                            let union = a.union(b);
                            let closes =
                                frontier(plan, a) + frontier(plan, b) > frontier(plan, union);
                            if union.len() as usize == plan.n_ops() || (prune && closes) {
                                want += staged;
                            } else {
                                skipped += staged;
                            }
                        }
                        assert_eq!(
                            counting.take_rows(),
                            want,
                            "{} ops, {} platforms, prune {prune}, {risk:?}, {parts} parts",
                            plan.n_ops(),
                            registry.len()
                        );
                        costed += want;
                    }
                }
            }
        }
        // Both kinds of merge occur, so costing every staged row fails.
        assert!(
            costed > 0 && skipped > 0,
            "costed {costed}, skipped {skipped}"
        );
    }

    /// One merge, as `Enumerator::contract_edges` logs it.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct MergeRecord {
        pub(super) a: Scope,
        pub(super) b: Scope,
        /// The two input units' row counts.
        pub(super) rows: (u64, u64),
        /// Whether the merge compared its rows.
        pub(super) scored: bool,
        /// Footprint hashes the merge made.
        pub(super) hashes: u64,
    }

    /// The fold the pair index replaced: per staged row, the candidate's
    /// full assignment, one `footprint_hash` over the merged boundary and
    /// one `insert_or_get`, keeping the cheapest row per footprint.
    #[derive(Debug, Default)]
    pub(super) struct ReferenceFold {
        table: FootprintTable,
        mat: EnumMatrix,
        assign: Vec<u8>,
        /// Folding merges checked so far.
        merges: u64,
    }

    impl ReferenceFold {
        pub(super) fn begin(&mut self, width: usize, n_ops: usize) {
            self.table.clear();
            self.mat.reset(width, n_ops);
        }

        pub(super) fn fold(
            &mut self,
            boundary: &[u32],
            a_assign: &[u8],
            inner_ops: &[u32],
            b_assign: &[u8],
            feats: &[f64],
            cost: f64,
        ) {
            self.assign.clear();
            self.assign.extend_from_slice(a_assign);
            overlay_assignments(&mut self.assign, inner_ops, b_assign);
            let fp = footprint_hash(boundary, &self.assign);
            match self.table.insert_or_get(fp, self.mat.rows() as u32) {
                Some(row) => {
                    if cost < self.mat.cost(row as usize) {
                        self.mat
                            .overwrite_row(row as usize, feats, &self.assign, cost);
                    }
                }
                None => {
                    self.mat.push_row(feats, &self.assign, cost);
                }
            }
        }

        /// `dst` holds the reference's rows, bit for bit and in order.
        pub(super) fn check(&mut self, dst: &EnumMatrix, a: Scope, b: Scope) {
            self.merges += 1;
            let merge = format!("merge of {:#x} and {:#x}", a.0, b.0);
            assert_eq!(dst.rows(), self.mat.rows(), "{merge}: rows kept");
            let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for r in 0..dst.rows() {
                let want = self.mat.assignments(r);
                assert_eq!(dst.assignments(r), want, "{merge}: row {r}'s assignment");
                let (got, want) = (dst.cost(r), self.mat.cost(r));
                assert_eq!(got.to_bits(), want.to_bits(), "{merge}: row {r}'s cost");
                let (got, want) = (bits(dst.row(r)), bits(self.mat.row(r)));
                assert_eq!(got, want, "{merge}: row {r}'s features");
            }
        }
    }

    /// The pair-index fold keeps the rows the per-row footprint probe kept,
    /// in the same order, with the same costs and feature bits, after every
    /// merge, and hashes at most once per input row. Seeded DAGs and
    /// pipelines over the named, uniform and masked registries, searched
    /// serially and split at 2, 3, 4 and 8 parts, under the analytic oracle
    /// and a fixed-seed forest ranked by `sigma2`.
    #[test]
    fn the_pair_index_keeps_the_reference_folds_rows_in_order() {
        use crate::testing::masked_registry;
        let mut rng = SplitMix64::new(0x0047_F01D);
        let mut registries = vec![PlatformRegistry::named()];
        registries.extend((2..=8).map(PlatformRegistry::uniform));
        registries.extend((0..4).map(|i| masked_registry(&mut rng, 2 + i % 3)));
        let mut en = Enumerator::new();
        en.reference = Some(ReferenceFold::default());
        let (mut hashed, mut mixed) = (0, 0);
        for registry in &registries {
            let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
            let analytic = AnalyticOracle::for_registry(registry, &layout);
            let forest = TinyForest::new(registry, &layout, 0xF0_4E57);
            let dag_ops = 4 + rng.gen_range(13);
            let dag = workloads::random_connected_dag(&mut rng, dag_ops, 0.3);
            let pipeline = workloads::synthetic_pipeline(6 + rng.gen_range(25), 1e5);
            for plan in [&dag, &pipeline] {
                let oracles: [(&dyn CostOracle, RiskPolicy); 2] = [
                    (&analytic, RiskPolicy::ExpectedCost),
                    (&forest, RiskPolicy::MeanPlusKSigma(2.0)),
                ];
                for (oracle, risk) in oracles {
                    let opts = EnumOptions::new(registry)
                        .with_oracle(oracle)
                        .with_risk(risk);
                    for parts in [1, 2, 3, 4, 8] {
                        en.merge_log.clear();
                        let split = SplitOptions::new(parts);
                        unbudgeted(en.enumerate_within(plan, &layout, opts, split, u64::MAX));
                        for rec in en.merge_log.iter().filter(|rec| rec.scored) {
                            let inputs = rec.rows.0 + rec.rows.1;
                            assert!(
                                rec.hashes <= inputs,
                                "{} ops, {} platforms, {parts} parts: {} hashes for {inputs} input rows",
                                plan.n_ops(),
                                registry.len(),
                                rec.hashes
                            );
                            hashed += rec.hashes;
                            mixed += u64::from(rec.hashes > 0 && rec.hashes < inputs);
                        }
                    }
                }
            }
        }
        // Every numbering occurs: hashed rows, and merges where one side
        // hashes while the other takes a shortcut.
        assert!(hashed > 0 && mixed > 0, "hashed {hashed}, mixed {mixed}");
        let reference = en.reference.take().unwrap();
        assert!(reference.merges > 0);
    }

    fn uniform_setup(k: usize) -> (PlatformRegistry, FeatureLayout, AnalyticOracle) {
        let registry = PlatformRegistry::uniform(k);
        let layout = FeatureLayout::new(k, N_OPERATOR_KINDS);
        let oracle = AnalyticOracle::for_registry(&registry, &layout);
        (registry, layout, oracle)
    }

    #[test]
    fn a_split_matches_serial_on_a_pipeline() {
        let plan = workloads::synthetic_pipeline(24, 1e5);
        let (registry, layout, oracle) = uniform_setup(3);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let mut en = Enumerator::new();
        let (serial, _) = en.enumerate(&plan, &layout, opts);
        let split = SplitOptions::new(4);
        let (par, stats) = unbudgeted(en.enumerate_within(&plan, &layout, opts, split, u64::MAX));
        assert_eq!(par.assignments, serial.assignments);
        assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
        assert_eq!(stats.merges, plan.n_ops() as u64 - 1);
    }

    /// Parts and seam merge are refused on their own and the folded
    /// counters, the same way on a reused enumerator as on a fresh one; the
    /// full total is enough for the unbudgeted answer.
    #[test]
    fn a_split_budget_refusal_is_the_same_on_a_reused_enumerator() {
        let plan = workloads::synthetic_pipeline(30, 1e5);
        let (registry, layout, oracle) = uniform_setup(4);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let split = SplitOptions::new(5);
        let fresh =
            |max_rows| Enumerator::new().enumerate_within(&plan, &layout, opts, split, max_rows);
        let free = unbudgeted(fresh(u64::MAX));
        let total = free.1.generated;
        let mut en = Enumerator::new();
        for max_rows in [0, 100, total / 2, total - 1] {
            let refused = en.enumerate_within(&plan, &layout, opts, split, max_rows);
            assert_eq!(refused, fresh(max_rows), "max_rows={max_rows}");
            assert!(refused.is_err_and(|over| over.estimate > max_rows));
        }
        assert_eq!(
            en.enumerate_within(&plan, &layout, opts, split, total),
            Ok(free)
        );
    }

    /// Fold one budgeted run into `h`: the assignment bytes, the cost bits
    /// and every `EnumStats` field of an answer, or a refusal's estimate
    /// and limit.
    fn fold(h: &mut SigHasher, run: &Result<(ExecutionPlan, EnumStats), OverBudget>) {
        match run {
            Ok((exec, stats)) => {
                h.write_u64(0);
                for p in exec.raw_assignments() {
                    h.write_u64(u64::from(p));
                }
                h.write_f64_bits(exec.cost);
                let EnumStats {
                    generated,
                    kept,
                    merges,
                    peak_rows,
                } = *stats;
                for c in [generated, kept, merges, peak_rows] {
                    h.write_u64(c);
                }
            }
            Err(OverBudget { estimate, limit }) => {
                h.write_u64(1);
                h.write_u64(*estimate);
                h.write_u64(*limit);
            }
        }
    }

    /// Every run of `plan` at split parts {2, 3, 4, 8} and budgets {0, 10,
    /// total/2, total − 1, unbudgeted}, folded into `h` on one reused
    /// enumerator.
    fn fold_split_runs(
        h: &mut SigHasher,
        en: &mut Enumerator,
        plan: &LogicalPlan,
        layout: &FeatureLayout,
        opts: EnumOptions<'_>,
    ) {
        for parts in [2, 3, 4, 8] {
            let split = SplitOptions::new(parts);
            let total = unbudgeted(en.enumerate_within(plan, layout, opts, split, u64::MAX))
                .1
                .generated;
            for max_rows in [0, 10, total / 2, total - 1, u64::MAX] {
                fold(h, &en.enumerate_within(plan, layout, opts, split, max_rows));
            }
        }
    }

    /// Split answers, stats and refusals on seeded DAGs and pipelines over
    /// `named()` and `uniform(3)` under the analytic oracle, and on a few
    /// of them under [`TinyForest`] ranked by `sigma2`, pinned as one digest
    /// taken while every part ran on an enumerator of its own. Any change
    /// to how parts, seams or budgets are scheduled that moves one winner,
    /// cost bit, counter or refusal moves it.
    #[test]
    fn a_seeded_split_stream_is_pinned() {
        let mut rng = SplitMix64::new(0x5B11_7041);
        let mut h = SigHasher::new();
        let mut en = Enumerator::new();
        for registry in [PlatformRegistry::named(), PlatformRegistry::uniform(3)] {
            let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
            let analytic = AnalyticOracle::for_registry(&registry, &layout);
            let forest = TinyForest::new(&registry, &layout, 0xF0_4E57);
            let mut plans: Vec<LogicalPlan> = (0..6)
                .map(|_| {
                    let n = 6 + rng.gen_range(11);
                    workloads::random_connected_dag(&mut rng, n, 0.3)
                })
                .collect();
            plans.push(workloads::synthetic_pipeline(12, 1e5));
            plans.push(workloads::synthetic_pipeline(30, 1e6));
            let opts = EnumOptions::new(&registry).with_oracle(&analytic);
            for plan in &plans {
                fold_split_runs(&mut h, &mut en, plan, &layout, opts);
            }
            let opts = EnumOptions::new(&registry)
                .with_oracle(&forest)
                .with_risk(RiskPolicy::MeanPlusKSigma(2.0));
            for plan in plans.iter().step_by(3) {
                fold_split_runs(&mut h, &mut en, plan, &layout, opts);
            }
        }
        assert_eq!(h.finish(), 0x2e35_1930_3c58_4262);
    }

    #[test]
    fn unsplittable_plan_falls_back_to_serial() {
        let plan = workloads::wordcount(1e5);
        let (registry, layout, oracle) = uniform_setup(2);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let (serial, serial_stats) = Enumerator::new().enumerate(&plan, &layout, opts);
        // parts = 1: the whole plan is the one part.
        let split = SplitOptions::new(1);
        let (par, stats) =
            unbudgeted(Enumerator::new().enumerate_within(&plan, &layout, opts, split, u64::MAX));
        assert_eq!(par, serial);
        assert_eq!(stats, serial_stats);
    }

    #[test]
    fn repeated_runs_reuse_pools_and_agree() {
        let plan = workloads::synthetic_pipeline(20, 1e5);
        let (registry, layout, oracle) = uniform_setup(2);
        let opts = EnumOptions::new(&registry).with_oracle(&oracle);
        let split = SplitOptions::new(4);
        let mut en = Enumerator::new();
        let mut run = || unbudgeted(en.enumerate_within(&plan, &layout, opts, split, u64::MAX));
        let (first, first_stats) = run();
        for _ in 0..3 {
            let (again, stats) = run();
            assert_eq!(again, first);
            assert_eq!(stats, first_stats);
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
