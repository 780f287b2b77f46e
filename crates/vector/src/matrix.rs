//! `EnumMatrix`: row-major flat storage for plan-vector enumerations.
//!
//! One matrix holds every candidate (sub)plan of one enumeration unit:
//! `rows × width` feature cells in a single `Vec<f64>`, a parallel flat
//! `Vec<u8>` of per-operator platform assignments (the part `unvectorize`
//! reads; never fed to the ML model), and per-row costs.
//!
//! Zero-allocation discipline: matrices are pooled and reused by the
//! enumerator; every capacity growth bumps a global counter
//! ([`alloc_events`]) so tests can assert that a warmed-up enumeration
//! performs **no** per-subplan heap allocation on the merge/prune hot path.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "operator not in this subplan's scope".
pub const NO_PLATFORM: u8 = u8::MAX;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Number of `EnumMatrix` buffer growth events since process start.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

#[inline]
fn note_growth(before: usize, after: usize) {
    if after > before {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// A flat, row-major enumeration matrix.
#[derive(Debug, Default)]
pub struct EnumMatrix {
    width: usize,
    n_ops: usize,
    rows: usize,
    feats: Vec<f64>,
    assign: Vec<u8>,
    costs: Vec<f64>,
}

impl EnumMatrix {
    pub fn new() -> Self {
        EnumMatrix::default()
    }

    /// Reset dimensions and drop all rows, keeping allocated capacity.
    pub fn reset(&mut self, width: usize, n_ops: usize) {
        self.width = width;
        self.n_ops = n_ops;
        self.rows = 0;
        self.feats.clear();
        self.assign.clear();
        self.costs.clear();
    }

    /// Pre-reserve space for `rows` additional rows. Growth is counted.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.counting_growth(|m| {
            m.feats.reserve(rows * m.width);
            m.assign.reserve(rows * m.n_ops);
            m.costs.reserve(rows);
        });
    }

    /// Run `write` on the buffers and count each one whose capacity grew.
    #[inline]
    fn counting_growth(&mut self, write: impl FnOnce(&mut Self)) {
        let (bf, ba, bc) = (
            self.feats.capacity(),
            self.assign.capacity(),
            self.costs.capacity(),
        );
        write(self);
        note_growth(bf, self.feats.capacity());
        note_growth(ba, self.assign.capacity());
        note_growth(bc, self.costs.capacity());
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current feature-buffer capacity in cells (pool best-fit uses this).
    #[inline]
    pub fn feat_capacity(&self) -> usize {
        self.feats.capacity()
    }

    #[inline]
    pub fn n_ops(&self) -> usize {
        self.n_ops
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.feats[r * self.width..(r + 1) * self.width]
    }

    #[inline]
    pub fn assignments(&self, r: usize) -> &[u8] {
        &self.assign[r * self.n_ops..(r + 1) * self.n_ops]
    }

    #[inline]
    pub fn cost(&self, r: usize) -> f64 {
        self.costs[r]
    }

    /// Append a row; returns its index. Growth (if capacity was not
    /// pre-reserved) is counted as an allocation event.
    pub fn push_row(&mut self, feats: &[f64], assign: &[u8], cost: f64) -> usize {
        debug_assert_eq!(feats.len(), self.width);
        debug_assert_eq!(assign.len(), self.n_ops);
        self.counting_growth(|m| {
            m.feats.extend_from_slice(feats);
            m.assign.extend_from_slice(assign);
            m.costs.push(cost);
        });
        let r = self.rows;
        self.rows += 1;
        r
    }

    /// Append every row of `other` (same width and operator count) in three
    /// bulk copies. Growth is counted as [`EnumMatrix::push_row`] counts it.
    pub fn extend_from(&mut self, other: &EnumMatrix) {
        assert_eq!(
            (self.width, self.n_ops),
            (other.width, other.n_ops),
            "matrix shapes differ"
        );
        self.counting_growth(|m| {
            m.feats.extend_from_slice(&other.feats);
            m.assign.extend_from_slice(&other.assign);
            m.costs.extend_from_slice(&other.costs);
        });
        self.rows += other.rows;
    }

    /// Set the cost of row `r` (used after a batched oracle call costs the
    /// staged candidate rows in one pass).
    #[inline]
    pub fn set_cost(&mut self, r: usize, cost: f64) {
        debug_assert!(r < self.rows);
        self.costs[r] = cost;
    }

    /// Borrow all feature rows as a [`RowsView`] — the input of
    /// `CostOracle::cost_batch`.
    #[inline]
    pub fn rows_view(&self) -> RowsView<'_> {
        RowsView::new(&self.feats[..self.rows * self.width], self.width)
    }

    /// Overwrite row `r` in place (the keep-min side of `prune`).
    pub fn overwrite_row(&mut self, r: usize, feats: &[f64], assign: &[u8], cost: f64) {
        debug_assert!(r < self.rows);
        self.feats[r * self.width..(r + 1) * self.width].copy_from_slice(feats);
        self.assign[r * self.n_ops..(r + 1) * self.n_ops].copy_from_slice(assign);
        self.costs[r] = cost;
    }

    /// Index of the minimum-cost row, if any.
    pub fn min_cost_row(&self) -> Option<usize> {
        (0..self.rows).min_by(|&a, &b| self.costs[a].total_cmp(&self.costs[b]))
    }
}

/// A borrowed view of contiguous row-major feature rows — the batched
/// cost-oracle input. Decouples oracles from [`EnumMatrix`]: any flat
/// `&[f64]` whose length is a multiple of `width` can be costed in one
/// batch (the object-graph baseline builds such buffers from scratch on
/// every merge; the ML forest will consume whole batches per inference).
///
/// A view may carry a **live-column hint** ([`RowsView::with_live`]): a
/// promise by whoever built the rows that every cell outside the given
/// column runs is `0.0` in every row. A consumer is free to ignore it — the
/// rows are complete either way — and a linear model may sum over the runs
/// only, because the terms it skips are zeros.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    feats: &'a [f64],
    width: usize,
    live: Option<&'a [Range<usize>]>,
}

impl<'a> RowsView<'a> {
    /// View over `feats` as rows of `width` cells. `feats.len()` must be a
    /// multiple of `width`.
    #[inline]
    pub fn new(feats: &'a [f64], width: usize) -> Self {
        assert!(width > 0, "zero-width rows");
        debug_assert_eq!(feats.len() % width, 0, "ragged row buffer");
        RowsView {
            feats,
            width,
            live: None,
        }
    }

    /// Attach the live-column hint: `runs` are ascending, disjoint column
    /// ranges inside the row, and every cell outside them is `0.0` (either
    /// sign) in every row of this view. Debug builds check the promise.
    #[inline]
    pub fn with_live(mut self, runs: &'a [Range<usize>]) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut dead_from = 0;
            for run in runs {
                assert!(
                    dead_from <= run.start && run.start <= run.end && run.end <= self.width,
                    "live runs must ascend, stay disjoint and fit the row: {runs:?}"
                );
                self.assert_dead(dead_from..run.start);
                dead_from = run.end;
            }
            self.assert_dead(dead_from..self.width);
        }
        self.live = Some(runs);
        self
    }

    /// The live-column hint, when the builder of the rows attached one.
    #[inline]
    pub fn live(&self) -> Option<&'a [Range<usize>]> {
        self.live
    }

    /// Debug half of [`RowsView::with_live`]: columns `cols` hold `0.0` in
    /// every row.
    #[cfg(debug_assertions)]
    fn assert_dead(&self, cols: Range<usize>) {
        for r in 0..self.rows() {
            for col in cols.clone() {
                assert!(
                    self.value(r, col) == 0.0,
                    "row {r} holds {} at column {col}, outside its live runs",
                    self.value(r, col)
                );
            }
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.feats.len() / self.width
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.feats[r * self.width..(r + 1) * self.width]
    }

    /// The whole backing buffer (`rows() * width()` cells, row-major) —
    /// lets batched oracles run one flat pass instead of `rows()` slices.
    #[inline]
    pub fn flat(&self) -> &'a [f64] {
        self.feats
    }

    /// Value of cell `(row, col)` — strided single-cell access for
    /// column-wise consumers (the CART split search in `robopt_ml` reads one
    /// feature across a node's rows without materializing a column buffer).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> f64 {
        debug_assert!(col < self.width, "column {col} out of range");
        self.feats[row * self.width + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_view_exposes_rows_and_flat_buffer() {
        let mut m = EnumMatrix::new();
        m.reset(2, 1);
        m.push_row(&[1.0, 2.0], &[0], 0.0);
        m.push_row(&[3.0, 4.0], &[1], 0.0);
        let v = m.rows_view();
        assert_eq!((v.rows(), v.width()), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        assert_eq!(v.flat(), &[1.0, 2.0, 3.0, 4.0]);
        m.set_cost(1, 9.0);
        assert_eq!(m.cost(1), 9.0);
    }

    #[test]
    fn rows_view_column_access_is_strided() {
        let buf = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = RowsView::new(&buf, 3);
        assert_eq!(v.value(0, 2), 3.0);
        assert_eq!(v.value(1, 0), 4.0);
    }

    #[test]
    fn live_hint_rides_on_the_view_and_changes_no_row() {
        let buf = [1.0, 0.0, 2.0, 3.0, -0.0, 4.0, 0.0, 0.0, 5.0, 0.0];
        let plain = RowsView::new(&buf, 5);
        assert!(plain.live().is_none());
        let runs = [0..1, 2..4];
        let hinted = plain.with_live(&runs);
        assert_eq!(hinted.live(), Some(&runs[..]));
        assert_eq!(hinted.flat(), plain.flat());
        assert_eq!((hinted.rows(), hinted.width()), (2, 5));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "outside its live runs"))]
    fn a_broken_live_promise_is_caught_in_debug() {
        let buf = [1.0, 0.0, 2.0, 0.0, 7.0, 0.0];
        let runs = [0..1, 2..3];
        // Row 1 holds 7.0 at column 1. Release builds trust the caller.
        RowsView::new(&buf, 3).with_live(&runs);
    }

    #[test]
    fn push_and_overwrite_roundtrip() {
        let mut m = EnumMatrix::new();
        m.reset(3, 2);
        m.reserve_rows(2);
        let r0 = m.push_row(&[1.0, 2.0, 3.0], &[0, NO_PLATFORM], 9.0);
        let r1 = m.push_row(&[4.0, 5.0, 6.0], &[NO_PLATFORM, 1], 2.0);
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.assignments(1), &[NO_PLATFORM, 1]);
        assert_eq!(m.min_cost_row(), Some(1));
        m.overwrite_row(1, &[7.0, 8.0, 9.0], &[NO_PLATFORM, 0], 1.0);
        assert_eq!(m.row(1), &[7.0, 8.0, 9.0]);
        assert_eq!(m.cost(1), 1.0);
    }

    #[test]
    fn extend_from_appends_what_push_row_would() {
        let mut src = EnumMatrix::new();
        src.reset(2, 2);
        src.push_row(&[1.0, 2.0], &[0, NO_PLATFORM], 5.0);
        src.push_row(&[3.0, 4.0], &[NO_PLATFORM, 1], 6.0);
        let (mut bulk, mut by_row) = (EnumMatrix::new(), EnumMatrix::new());
        for m in [&mut bulk, &mut by_row] {
            m.reset(2, 2);
            m.push_row(&[9.0, 9.0], &[1, 1], 1.0);
        }
        bulk.extend_from(&src);
        for r in 0..src.rows() {
            by_row.push_row(src.row(r), src.assignments(r), src.cost(r));
        }
        assert_eq!(bulk.rows(), 3);
        assert_eq!(bulk.rows_view().flat(), by_row.rows_view().flat());
        for r in 0..3 {
            assert_eq!(bulk.assignments(r), by_row.assignments(r));
            assert_eq!(bulk.cost(r), by_row.cost(r));
        }
    }

    #[test]
    fn reset_keeps_capacity_and_prereserved_pushes_do_not_allocate() {
        let mut m = EnumMatrix::new();
        m.reset(4, 3);
        m.reserve_rows(16);
        for _ in 0..16 {
            m.push_row(&[0.0; 4], &[NO_PLATFORM; 3], 0.0);
        }
        m.reset(4, 3);
        let before = alloc_events();
        m.reserve_rows(16);
        for _ in 0..16 {
            m.push_row(&[1.0; 4], &[0; 3], 1.0);
        }
        assert_eq!(alloc_events(), before, "warm reuse must not grow buffers");
    }
}
