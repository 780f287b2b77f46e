//! `EnumMatrix`: row-major flat storage for plan-vector enumerations.
//!
//! One matrix holds every candidate (sub)plan of one enumeration unit:
//! `rows × width` feature cells in a single `Vec<f64>`, a parallel flat
//! `Vec<u8>` of per-operator platform assignments (the part `unvectorize`
//! reads; never fed to the ML model), and per-row costs.
//!
//! The matrix does not know what its columns mean: `width` is whatever
//! layout its owner resets it to. The enumerator's is the plan's own layout
//! (`robopt_core::vectorize::PlanLayout`), so a row holds only the cells the
//! plan's operator kinds can touch, and [`RowsView::packed`] is how such rows
//! reach a cost oracle as rows of the full layout without being copied.
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
/// every merge; the ML forest consumes whole batches per inference).
///
/// A view has one of two forms. A **full** view ([`RowsView::new`]) stores
/// every cell of every row. A **packed** view ([`RowsView::packed`]) stores
/// only the cells of some ascending, disjoint column runs, back to back, and
/// every cell outside the runs *is* `0.0`: the enumerator builds its rows in
/// the plan's own layout and hands them over as they are. Both forms report
/// the same [`RowsView::width`] — the full layout's — so an adapter that
/// forwards a view by value needs to know nothing. A consumer that indexes
/// rows by full-layout cell calls [`RowsView::full`] first (the identity on a
/// full view); [`RowsView::row`] and [`RowsView::flat`] refuse a packed view
/// in every build profile, so it can never silently read the wrong cell.
/// The analytic oracle (`robopt_core::AnalyticOracle`) walks
/// [`RowsView::runs`] over [`RowsView::cells`] directly.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    cells: &'a [f64],
    /// Cells one row occupies in `cells`: `width` for a full view, the
    /// summed run lengths for a packed one.
    stride: usize,
    width: usize,
    runs: Option<&'a [Range<usize>]>,
}

impl<'a> RowsView<'a> {
    /// Full view over `feats` as rows of `width` cells. `feats.len()` must
    /// be a multiple of `width`.
    #[inline]
    pub fn new(feats: &'a [f64], width: usize) -> Self {
        assert!(width > 0, "zero-width rows");
        debug_assert_eq!(feats.len() % width, 0, "ragged row buffer");
        RowsView {
            cells: feats,
            stride: width,
            width,
            runs: None,
        }
    }

    /// Reinterpret this view's rows as packed rows of a `width`-cell layout:
    /// stored cell `i` of a row is the `i`-th column of `runs` (ascending,
    /// disjoint column ranges inside `width` whose lengths sum to the stored
    /// row length), and every column outside `runs` is `0.0`.
    #[inline]
    pub fn packed(self, runs: &'a [Range<usize>], width: usize) -> Self {
        assert!(self.runs.is_none(), "view is already packed");
        #[cfg(debug_assertions)]
        {
            let (mut end, mut live) = (0, 0);
            for run in runs {
                assert!(
                    end <= run.start && run.start <= run.end && run.end <= width,
                    "packed runs must ascend, stay disjoint and fit the row: {runs:?}"
                );
                end = run.end;
                live += run.len();
            }
            assert_eq!(
                live, self.stride,
                "packed rows hold one cell per run column"
            );
        }
        RowsView {
            runs: Some(runs),
            width,
            ..self
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.cells.len() / self.stride
    }

    /// Width of a row in the full layout, whatever the form of the view.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The column runs a packed view stores; `None` for a full view.
    #[inline]
    pub fn runs(&self) -> Option<&'a [Range<usize>]> {
        self.runs
    }

    /// Cells one row occupies in [`RowsView::cells`].
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The backing buffer as stored (`rows() * stride()` cells, row-major):
    /// [`RowsView::flat`] for a full view, the run columns back to back for
    /// a packed one.
    #[inline]
    pub fn cells(&self) -> &'a [f64] {
        self.cells
    }

    /// Row `r` of a full view. Panics on a packed view.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.flat()[r * self.width..(r + 1) * self.width]
    }

    /// The whole backing buffer of a full view (`rows() * width()` cells,
    /// row-major) — lets batched oracles run one flat pass instead of
    /// `rows()` slices. Panics on a packed view.
    #[inline]
    pub fn flat(&self) -> &'a [f64] {
        assert!(
            self.runs.is_none(),
            "packed view indexed by full-layout cell: call RowsView::full first"
        );
        self.cells
    }

    /// Value of full-layout cell `(row, col)` in either form: the stored
    /// cell, or `0.0` for a column a packed view does not store. Strided
    /// single-cell access for column-wise consumers (the CART split search
    /// in `robopt_ml` reads one feature across a node's rows without
    /// materializing a column buffer).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> f64 {
        debug_assert!(col < self.width, "column {col} out of range");
        let Some(runs) = self.runs else {
            return self.cells[row * self.stride + col];
        };
        let mut at = row * self.stride;
        for run in runs {
            if col < run.end {
                return if col < run.start {
                    0.0
                } else {
                    self.cells[at + col - run.start]
                };
            }
            at += run.len();
        }
        0.0
    }

    /// Write every row into `out` in the full layout (`rows() * width()`
    /// cells, whatever `out` held): the stored cells at their columns,
    /// `0.0` everywhere else.
    pub fn unpack_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let Some(runs) = self.runs else {
            out.extend_from_slice(self.cells);
            return;
        };
        out.resize(self.rows() * self.width, 0.0);
        for (dst, src) in out
            .chunks_exact_mut(self.width)
            .zip(self.cells.chunks_exact(self.stride))
        {
            let mut at = 0;
            for run in runs {
                dst[run.clone()].copy_from_slice(&src[at..at + run.len()]);
                at += run.len();
            }
        }
    }

    /// This view as a full view: itself when it already is one (`scratch`
    /// is not touched), otherwise its rows unpacked into `scratch`. What a
    /// consumer that reads rows by full-layout cell calls first.
    #[inline]
    pub fn full<'s>(self, scratch: &'s mut Vec<f64>) -> RowsView<'s>
    where
        'a: 's,
    {
        if self.runs.is_none() {
            return self;
        }
        self.unpack_into(scratch);
        RowsView::new(scratch, self.width)
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

    /// Two packed rows of a 5-cell layout that stores columns 0 and 2..4.
    const PACKED: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    const RUNS: [Range<usize>; 2] = [0..1, 2..4];

    #[test]
    fn packed_view_resolves_full_layout_columns_through_its_runs() {
        let packed = RowsView::new(&PACKED, 3).packed(&RUNS, 5);
        assert_eq!((packed.rows(), packed.width(), packed.stride()), (2, 5, 3));
        assert_eq!(packed.runs(), Some(&RUNS[..]));
        assert_eq!(packed.cells(), &PACKED);
        let want = [1.0, 0.0, 2.0, 3.0, 0.0, 4.0, 0.0, 5.0, 6.0, 0.0];
        for (i, &cell) in want.iter().enumerate() {
            assert_eq!(packed.value(i / 5, i % 5), cell, "cell {i}");
        }
        // Whatever the destination held, it ends up holding the full rows.
        let mut out = vec![f64::NAN; 13];
        packed.unpack_into(&mut out);
        assert_eq!(out, want);
        let mut scratch = vec![f64::NAN; 2];
        let full = packed.full(&mut scratch);
        assert!(full.runs().is_none());
        assert_eq!(full.flat(), &want);
        assert_eq!(full.row(1), &want[5..]);
    }

    #[test]
    fn full_is_the_identity_on_a_full_view() {
        let buf = [1.0, 2.0, 3.0, 4.0];
        let view = RowsView::new(&buf, 2);
        assert_eq!((view.stride(), view.runs()), (2, None));
        let mut scratch = Vec::new();
        assert_eq!(view.full(&mut scratch).flat().as_ptr(), buf.as_ptr());
        assert_eq!(scratch.capacity(), 0, "a full view is not copied");
        view.unpack_into(&mut scratch);
        assert_eq!(scratch, buf);
    }

    // Not `debug_assertions`-gated: a consumer indexing a packed view by
    // full-layout cell must stop in release builds too.
    #[test]
    #[should_panic(expected = "packed view indexed by full-layout cell")]
    fn row_refuses_a_packed_view_in_every_profile() {
        RowsView::new(&PACKED, 3).packed(&RUNS, 5).row(0);
    }

    #[test]
    #[should_panic(expected = "packed view indexed by full-layout cell")]
    fn flat_refuses_a_packed_view_in_every_profile() {
        RowsView::new(&PACKED, 3).packed(&RUNS, 5).flat();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "one cell per run column"))]
    fn runs_that_do_not_cover_the_stored_row_are_caught_in_debug() {
        // Release builds trust the caller.
        let _ = RowsView::new(&PACKED, 2).packed(&RUNS, 5);
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
