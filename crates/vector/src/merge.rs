//! The `merge` kernel (paper Section IV-D; DESIGN §5).
//!
//! Merging two subplan vectors is one fused loop of `f64` adds over the
//! whole row followed by patching the two exception cells, which combine by
//! `max` instead of `+` (maximum output cardinality and maximum tuple
//! width). Assignment arrays are not this module's business: merged scopes
//! are disjoint, so the enumerator overlays the inner unit's operators on a
//! copy of the outer row (DESIGN §5) instead of selecting per operator.
//!
//! [`merge_feats_many`] is the batched form the enumerator's cross-product
//! inner loop uses: one left row against *every* row of the right matrix in
//! a single call, so slice bounds are hoisted once per left row instead of
//! re-checked per candidate pair.

use crate::layout::FeatureLayout;
use crate::matrix::RowsView;

/// `dst = a + b` cell-wise. All three slices must have equal length.
#[inline]
fn fused_add(dst: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x + y;
    }
}

/// Patch the two exception cells of one merged row: they combine by `max`,
/// not `+` (maximum output cardinality, maximum tuple width).
#[inline]
fn patch_max_cells(dst: &mut [f64], a: &[f64], b: &[f64]) {
    dst[FeatureLayout::MAX_OUT_CARD] =
        a[FeatureLayout::MAX_OUT_CARD].max(b[FeatureLayout::MAX_OUT_CARD]);
    dst[FeatureLayout::MAX_TUPLE_WIDTH] =
        a[FeatureLayout::MAX_TUPLE_WIDTH].max(b[FeatureLayout::MAX_TUPLE_WIDTH]);
}

/// `dst = a + b` cell-wise, with the two max cells taking `max(a, b)`.
#[inline]
pub fn merge_feats(dst: &mut [f64], a: &[f64], b: &[f64]) {
    fused_add(dst, a, b);
    patch_max_cells(dst, a, b);
}

/// Batched merge: `a` against every row of `b`, written to `dst` (resized
/// to `b.rows() × b.width()` row-major cells). Row `r` of the output is
/// bit-identical to `merge_feats(out_r, a, b.row(r))` — the batching only
/// amortizes bounds checks and keeps the destination block contiguous for
/// the staged oracle call that follows. `dst` is not cleared first: whatever
/// a previous, longer or shorter block left in it is harmless, because
/// `merge_feats` writes every cell of every row.
pub fn merge_feats_many(dst: &mut Vec<f64>, a: &[f64], b: RowsView<'_>) {
    let width = b.width();
    debug_assert_eq!(a.len(), width);
    dst.resize(b.rows() * width, 0.0);
    for (drow, brow) in dst
        .chunks_exact_mut(width)
        .zip(b.flat().chunks_exact(width))
    {
        merge_feats(drow, a, brow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_cells_and_maxes_exception_cells() {
        let l = FeatureLayout::new(2, 4);
        let mut a = vec![1.0; l.width];
        let mut b = vec![2.0; l.width];
        a[FeatureLayout::MAX_OUT_CARD] = 100.0;
        b[FeatureLayout::MAX_OUT_CARD] = 7.0;
        a[FeatureLayout::MAX_TUPLE_WIDTH] = 8.0;
        b[FeatureLayout::MAX_TUPLE_WIDTH] = 64.0;
        let mut d = vec![0.0; l.width];
        merge_feats(&mut d, &a, &b);
        assert_eq!(d[FeatureLayout::OP_COUNT], 3.0);
        assert_eq!(d[FeatureLayout::MAX_OUT_CARD], 100.0);
        assert_eq!(d[FeatureLayout::MAX_TUPLE_WIDTH], 64.0);
        assert!(d[4..].iter().all(|&c| c == 3.0));
    }

    /// `dst` arrives empty, dirty and too long, dirty and too short: the
    /// block is the per-row merge bit for bit every time.
    #[test]
    fn batched_merge_matches_per_row_merge_bitwise_whatever_dst_held() {
        let width = 13;
        let rows = 5;
        let a: Vec<f64> = (0..width).map(|i| i as f64 * 0.5).collect();
        let mut flat = vec![0.0; rows * width];
        for (i, cell) in flat.iter_mut().enumerate() {
            *cell = ((i * 7919) % 97) as f64 * 0.25;
        }
        let view = RowsView::new(&flat, width);
        for stale in [0, rows * width + 29, 2 * width + 3] {
            let mut batched = vec![f64::NAN; stale];
            merge_feats_many(&mut batched, &a, view);
            assert_eq!(batched.len(), rows * width, "stale {stale}");
            let mut single = vec![0.0; width];
            for r in 0..rows {
                merge_feats(&mut single, &a, view.row(r));
                for (c, (x, y)) in batched[r * width..(r + 1) * width]
                    .iter()
                    .zip(&single)
                    .enumerate()
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "stale {stale} row {r} cell {c}");
                }
            }
        }
    }

    #[test]
    fn batched_merge_with_zero_rows_is_empty() {
        let width = 9;
        let a = vec![1.0; width];
        let mut out = vec![42.0; 3];
        merge_feats_many(&mut out, &a, RowsView::new(&[], width));
        assert!(out.is_empty());
    }
}
