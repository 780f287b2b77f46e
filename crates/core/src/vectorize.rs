//! `vectorize` and `unvectorize` (paper Section IV-C).
//!
//! The Fig-5 cells have one definition each — [`add_operator_cells`] for
//! an operator on its platform, [`add_conversion_features`] for the
//! data-movement cells of a dataflow edge whose endpoint platforms differ —
//! and every encoder is built from the two:
//!
//! * [`PlanLayout::fill_singleton`] — one operator on one platform, in a
//!   plan's own row layout (the enumeration seeds);
//! * [`vectorize_assignment`] — a whole plan under a full assignment (the
//!   exhaustive baseline's candidates, and [`ExecutionPlan::quote`], the
//!   one costing of every producer's final plan);
//! * the object-graph strawman's plan-to-vector walk
//!   (`robopt_baselines::rheem_ml`).
//!
//! The incremental path (singletons + merges + conversion additions) and the
//! whole-plan path produce identical vectors; a property test asserts this
//! on random DAGs.
//!
//! Because those two functions are the only writers, the cells a plan can
//! make non-zero are known before any row exists: [`live_runs`] lists them
//! from the operator kinds the plan holds. That list *is* the enumerator's
//! row: [`PlanLayout`] is the Fig-5 layout over the present kinds only —
//! its row is the live runs back to back — and every row enumeration
//! stores, merges and hands to the cost oracle
//! ([`PlanLayout::packed`], `robopt_vector::RowsView::packed`) is that wide.

use std::ops::Range;

use robopt_plan::{LogicalPlan, N_OPERATOR_KINDS};
use robopt_platforms::PlatformId;
use robopt_vector::{FeatureLayout, RowsView, NO_PLATFORM};

use crate::dist::CostDistribution;
use crate::oracle::CostOracle;

/// The result of `unvectorize`: an executable platform assignment and its
/// quote. [`ExecutionPlan::quote`] is the one constructor, so every
/// producer reports the same numbers for the same assignment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ExecutionPlan {
    /// Platform per operator, indexed by op id; ids resolve against the
    /// [`robopt_platforms::PlatformRegistry`] the enumeration ran over.
    pub assignments: Vec<PlatformId>,
    /// Mean cost under the oracle that drove the enumeration.
    pub cost: f64,
    /// Population standard deviation (0 under a point-estimate oracle).
    pub cost_std: f64,
    /// 10th-percentile sample (`cost` under a point-estimate oracle).
    pub cost_q10: f64,
    /// 90th-percentile sample (`cost` under a point-estimate oracle).
    pub cost_q90: f64,
}

impl ExecutionPlan {
    /// unvectorize's quote of the full assignment `raw` (one platform byte
    /// per operator, as the enumeration matrices carry them): one
    /// whole-plan [`vectorize_assignment`] into `feats` in the full layout
    /// and one one-row [`CostOracle::cost_batch_dist`] into `dist`. The
    /// quote is a pure function of (plan, assignment, oracle), whatever
    /// order a search summed its rows in, and its mean is `cost_row`'s bits
    /// (the [`CostOracle`] contract).
    pub fn quote(
        plan: &LogicalPlan,
        full_layout: &FeatureLayout,
        oracle: &dyn CostOracle,
        raw: &[u8],
        feats: &mut Vec<f64>,
        dist: &mut CostDistribution,
    ) -> Self {
        vectorize_assignment(plan, full_layout, raw, feats);
        oracle.cost_batch_dist(RowsView::new(feats, full_layout.width), dist);
        assert_eq!(dist.len(), 1, "one plan, one row");
        ExecutionPlan {
            assignments: raw
                .iter()
                .map(|&p| PlatformId::from_index(p as usize))
                .collect(),
            cost: dist.mean[0],
            cost_std: dist.std[0],
            cost_q10: dist.q10[0],
            cost_q90: dist.q90[0],
        }
    }

    /// Raw dense platform indexes (one byte per operator) — the encoding
    /// `vectorize_assignment` and the enumeration matrices consume.
    pub fn raw_assignments(&self) -> Vec<u8> {
        self.assignments.iter().map(|p| p.raw()).collect()
    }

    /// Number of distinct platforms the plan executes on.
    pub fn distinct_platforms(&self) -> usize {
        let mut mask = 0u8;
        for p in &self.assignments {
            mask |= 1u8 << p.index();
        }
        mask.count_ones() as usize
    }
}

/// The one definition of the per-operator Fig-5 cells: add operator `op`
/// running on `platform` to `feats`, a row of `layout` whose kind block
/// `slot` belongs to the operator's kind. Counts and tuple totals
/// accumulate, the two maxima widen.
#[inline]
fn add_cells_at(
    plan: &LogicalPlan,
    layout: &FeatureLayout,
    slot: usize,
    op: u32,
    platform: u8,
    feats: &mut [f64],
) {
    let i = op as usize;
    let in_t = plan.in_tuples()[i];
    let out_t = plan.out_card()[i];
    feats[FeatureLayout::OP_COUNT] += 1.0;
    feats[FeatureLayout::JUNCTURE_COUNT] += f64::from(u8::from(plan.is_juncture(op)));
    feats[FeatureLayout::MAX_OUT_CARD] = feats[FeatureLayout::MAX_OUT_CARD].max(out_t);
    feats[FeatureLayout::MAX_TUPLE_WIDTH] =
        feats[FeatureLayout::MAX_TUPLE_WIDTH].max(plan.op(op).tuple_width);
    feats[layout.kind_count(slot)] += 1.0;
    feats[layout.kind_in_tuples(slot)] += in_t;
    feats[layout.kind_out_tuples(slot)] += out_t;
    feats[layout.kind_platform_count(slot, platform as usize)] += 1.0;
    feats[layout.platform_input_tuples(platform as usize)] += in_t;
}

/// Add operator `op` running on `platform` to `feats`, a row of the full
/// (every-kind) `layout`: kind `i`'s cells sit in kind block `i`.
#[inline]
pub fn add_operator_cells(
    plan: &LogicalPlan,
    layout: &FeatureLayout,
    op: u32,
    platform: u8,
    feats: &mut [f64],
) {
    add_cells_at(plan, layout, plan.op(op).kind.index(), op, platform, feats);
}

/// Add the conversion features of one dataflow edge out of `u`, from its
/// producer's platform `pu` to its consumer's `pv`: one conversion *into*
/// `pv`, moving `u`'s output tuples. No-op when `pu == pv`.
#[inline]
pub fn add_conversion_features(
    plan: &LogicalPlan,
    layout: &FeatureLayout,
    u: u32,
    pu: u8,
    pv: u8,
    feats: &mut [f64],
) {
    if pu != pv {
        feats[layout.conversion_count(pv as usize)] += 1.0;
        feats[layout.conversion_tuples(pv as usize)] += plan.out_card()[u as usize];
    }
}

/// Which operator kinds `plan` holds.
fn kinds_present(plan: &LogicalPlan) -> [bool; N_OPERATOR_KINDS] {
    let mut present = [false; N_OPERATOR_KINDS];
    for op in plan.ops() {
        present[op.kind.index()] = true;
    }
    present
}

/// Worst-case run list: every kind present, nothing adjacent.
type LiveRuns = [Range<usize>; 2 * N_OPERATOR_KINDS + 2];

/// The columns any (sub)plan vector of `plan` can make non-zero, as
/// ascending, disjoint runs (adjacent ones coalesced) in the first `len`
/// slots of the returned array: the cells [`add_operator_cells`] writes for
/// an operator of a kind the plan holds, on any platform — the globals, the
/// kind's 3-cell block and its `k`-cell platform row — and the `3k`-cell
/// conversion / platform-input tail [`add_conversion_features`] and the
/// per-platform input cell share. Every other cell is `0.0` in every row
/// enumeration builds for this plan, whatever the assignment; at 24 kinds a
/// plan that holds a handful of them leaves most of the row dead, and
/// [`PlanLayout`] does not store it. The array is sized for the worst case
/// (every kind present, nothing adjacent) so it lives on the caller's stack.
pub fn live_runs(plan: &LogicalPlan, layout: &FeatureLayout) -> (LiveRuns, usize) {
    live_runs_of(&kinds_present(plan), layout)
}

fn live_runs_of(present: &[bool; N_OPERATOR_KINDS], layout: &FeatureLayout) -> (LiveRuns, usize) {
    assert_eq!(layout.n_kinds, N_OPERATOR_KINDS);
    let mut runs: LiveRuns = std::array::from_fn(|_| 0..0);
    let mut len = 0;
    let mut push = |run: Range<usize>| {
        if len > 0 && runs[len - 1].end == run.start {
            runs[len - 1].end = run.end;
        } else {
            runs[len] = run;
            len += 1;
        }
    };
    push(0..layout.kind_count(0));
    let kinds = || (0..N_OPERATOR_KINDS).filter(|&kind| present[kind]);
    for kind in kinds() {
        push(layout.kind_count(kind)..layout.kind_out_tuples(kind) + 1);
    }
    for kind in kinds() {
        let row = layout.kind_platform_count(kind, 0);
        push(row..row + layout.n_platforms);
    }
    push(layout.conversion_count(0)..layout.width);
    (runs, len)
}

/// A plan's own row layout: the Fig-5 layout over the operator kinds the
/// plan holds and nothing else — `FeatureLayout::new(k, kinds present)`,
/// the present kinds taking kind blocks `0, 1, …` in ascending kind order.
/// A row of it is, cell for cell, the [`live_runs`] of the full layout back
/// to back (the globals, so the two max cells, stay cells 0–3), which is
/// why `add_conversion_features` and the merge kernel run on it unchanged
/// and why a row needs no translation to be read as a packed
/// `RowsView` of the full layout. Built once per enumeration, on the stack.
#[derive(Debug)]
pub struct PlanLayout {
    full: FeatureLayout,
    local: FeatureLayout,
    /// Kind → kind block of `local`; unspecified for an absent kind.
    slots: [u8; N_OPERATOR_KINDS],
    runs: LiveRuns,
    n_runs: usize,
}

impl PlanLayout {
    /// The layout of `plan`'s rows under the full (every-kind) layout `full`.
    pub fn of(plan: &LogicalPlan, full: &FeatureLayout) -> Self {
        let present = kinds_present(plan);
        let mut slots = [0u8; N_OPERATOR_KINDS];
        let mut n_present = 0;
        for (slot, &here) in slots.iter_mut().zip(&present) {
            if here {
                *slot = n_present;
                n_present += 1;
            }
        }
        let local = FeatureLayout::new(full.n_platforms, n_present as usize);
        let (runs, n_runs) = live_runs_of(&present, full);
        assert_eq!(
            local.width,
            runs[..n_runs].iter().map(Range::len).sum::<usize>(),
            "a plan-local row is the plan's live runs back to back"
        );
        PlanLayout {
            full: *full,
            local,
            slots,
            runs,
            n_runs,
        }
    }

    /// The every-kind layout the cost oracle and `unvectorize` speak.
    #[inline]
    pub fn full(&self) -> &FeatureLayout {
        &self.full
    }

    /// The layout of the rows enumeration stores.
    #[inline]
    pub fn local(&self) -> &FeatureLayout {
        &self.local
    }

    /// The full-layout columns a local row holds, in row order.
    #[inline]
    pub fn runs(&self) -> &[Range<usize>] {
        &self.runs[..self.n_runs]
    }

    /// `cells` — rows of the local layout — as the cost oracle sees them: a
    /// packed view of full-layout rows.
    #[inline]
    pub fn packed<'a>(&'a self, cells: &'a [f64]) -> RowsView<'a> {
        RowsView::new(cells, self.local.width).packed(self.runs(), self.full.width)
    }

    /// Encode operator `op` running on `platform` into `feats`, a zeroed
    /// row of the local layout (`local().width` long).
    pub fn fill_singleton(&self, plan: &LogicalPlan, op: u32, platform: u8, feats: &mut [f64]) {
        debug_assert_eq!(feats.len(), self.local.width);
        let slot = self.slots[plan.op(op).kind.index()] as usize;
        add_cells_at(plan, &self.local, slot, op, platform, feats);
    }
}

/// Encode a whole plan under a full platform assignment. `feats` is
/// overwritten (zeroed first); `assign[i]` must be a valid platform for
/// every operator.
pub fn vectorize_assignment(
    plan: &LogicalPlan,
    layout: &FeatureLayout,
    assign: &[u8],
    feats: &mut Vec<f64>,
) {
    debug_assert_eq!(assign.len(), plan.n_ops());
    feats.clear();
    feats.resize(layout.width, 0.0);
    for op in 0..plan.n_ops() as u32 {
        debug_assert!(assign[op as usize] != NO_PLATFORM);
        add_operator_cells(plan, layout, op, assign[op as usize], feats);
    }
    for &(u, v) in plan.edges() {
        add_conversion_features(
            plan,
            layout,
            u,
            assign[u as usize],
            assign[v as usize],
            feats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::{workloads, N_OPERATOR_KINDS};

    #[test]
    fn whole_plan_counts_ops_and_conversions() {
        let plan = workloads::wordcount(1000.0);
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let mut feats = Vec::new();
        // Alternating assignment: every one of the 5 edges crosses platforms.
        let assign: Vec<u8> = (0..plan.n_ops()).map(|i| (i % 2) as u8).collect();
        vectorize_assignment(&plan, &layout, &assign, &mut feats);
        assert_eq!(feats[FeatureLayout::OP_COUNT], 6.0);
        let convs: f64 = (0..2).map(|p| feats[layout.conversion_count(p)]).sum();
        assert_eq!(convs, 5.0);
        // Uniform assignment: no conversions.
        vectorize_assignment(&plan, &layout, &[0u8; 6], &mut feats);
        let convs: f64 = (0..2).map(|p| feats[layout.conversion_count(p)]).sum();
        assert_eq!(convs, 0.0);
        assert_eq!(feats[layout.platform_input_tuples(1)], 0.0);
    }
}
