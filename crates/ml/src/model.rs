//! The estimator contract: [`Model`] (a fitted predictor over flat
//! row-major matrices) and [`ModelOracle`], the adapter that lets any
//! fitted model drive enumeration behind `&dyn robopt_core::CostOracle`
//! (DESIGN §3).
//!
//! Fitting is not part of the contract: each model fits through its own
//! inherent constructor ([`crate::RandomForest::fit`] under a
//! [`crate::ForestConfig`], [`crate::LinearModel::fit`]), because what a
//! fit needs differs per model and no caller fits generically. What every
//! caller shares is prediction, so that is the trait. `ModelOracle`
//! bridges it to `CostOracle`, so the analytic oracle and any fitted model
//! are interchangeable at every enumeration call site with no
//! monomorphized duplicates of the enumeration loop.
//!
//! `Model`s read full rows ([`RowsView::row`]); the enumerator sends packed
//! ones (DESIGN §3). `ModelOracle` is where the two meet: both batch methods
//! unpack a packed view into a per-thread scratch ([`RowsView::full`], the
//! identity on a full view) and hand the model the rows it has always read,
//! so no model — the forest walk included — knows packed rows exist.

use std::cell::RefCell;

use robopt_core::{CostDistribution, CostOracle};
use robopt_vector::RowsView;

/// A fitted regression model over fixed-width feature rows.
///
/// Implementations must be deterministic: a model fitted twice on the same
/// rows, labels and configuration predicts identically. A value of an
/// implementing type is always fitted — each model's only constructors are
/// its fit and, for the forest, the validated import — so no method has an
/// unfitted case. The trait is object-safe; `&dyn Model` works where
/// needed.
pub trait Model {
    /// Feature width this model was fitted for.
    fn width(&self) -> usize;

    /// Predict a single row of exactly [`Model::width`] features.
    fn predict_row(&self, feats: &[f64]) -> f64;

    /// Predict every row of `rows` into `out` (cleared first). The default
    /// forwards to [`Model::predict_row`]; implementations override it when
    /// a flat pass over the matrix is cheaper than row-at-a-time calls.
    fn predict_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to a model expecting {}",
            rows.width(),
            self.width()
        );
        out.clear();
        out.reserve(rows.rows());
        for r in 0..rows.rows() {
            out.push(self.predict_row(rows.row(r)));
        }
    }
}

/// A [`Model`] that can report its predictions as *distributions*
/// (DESIGN §12).
///
/// Object-safe like its supertrait. An ensemble fills mean *and* spread in
/// one batched pass over its members (the forest contract forbids a second
/// traversal), with the mean column bit-identical to
/// [`Model::predict_batch`]. A single estimator has no ensemble to disagree
/// with itself: its distribution is the point one (zero spread, quantiles
/// at the mean, [`CostDistribution::fill_point_from_mean`]).
pub trait DistModel: Model {
    /// Predict every row of `rows` into `out` as a distribution.
    fn predict_dist_batch(&self, rows: RowsView<'_>, out: &mut CostDistribution);
}

/// Adapter making any fitted [`Model`] a [`CostOracle`].
///
/// Predictions are used directly as costs. The training pipeline fits
/// models on `ln(1 + seconds)` labels; the log is strictly monotone, so
/// cost *ranking* — the only thing enumeration consumes — is preserved
/// without converting back to seconds.
#[derive(Debug, Clone)]
pub struct ModelOracle<M> {
    model: M,
}

impl<M: Model> ModelOracle<M> {
    /// Wrap a fitted model.
    pub fn new(model: M) -> Self {
        ModelOracle { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

// The bound is `DistModel` (not bare `Model`) so `cost_batch_dist` can
// forward to the model's distributional pass — stable Rust has no
// specialization to do that selectively.
impl<M: DistModel> CostOracle for ModelOracle<M> {
    fn width(&self) -> usize {
        self.model.width()
    }

    fn cost_row(&self, feats: &[f64]) -> f64 {
        self.model.predict_row(feats)
    }

    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to an oracle expecting {}",
            rows.width(),
            self.width()
        );
        with_full(rows, |rows| self.model.predict_batch(rows, out));
    }

    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to an oracle expecting {}",
            rows.width(),
            self.width()
        );
        with_full(rows, |rows| self.model.predict_dist_batch(rows, out));
    }
}

thread_local! {
    /// Where [`with_full`] unpacks a packed batch. Per thread and reused,
    /// not a `Vec` per call: a cold request makes dozens of oracle calls of
    /// 10–20 KB each, and allocating and freeing that at the top of the heap
    /// every call costs more than the unpack itself.
    static UNPACKED: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `predict` on `rows` as a full view ([`RowsView::full`]): models index
/// a row by full-layout cell, the enumerator sends packed rows.
fn with_full<R>(rows: RowsView<'_>, predict: impl FnOnce(RowsView<'_>) -> R) -> R {
    UNPACKED.with_borrow_mut(|unpacked| predict(rows.full(unpacked)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestConfig, RandomForest};

    /// Minimal model: predicts the sum of the features.
    struct SumModel {
        width: usize,
    }

    impl Model for SumModel {
        fn width(&self) -> usize {
            self.width
        }
        fn predict_row(&self, feats: &[f64]) -> f64 {
            feats.iter().sum()
        }
    }

    // A point estimator: zero spread, quantiles at the mean.
    impl DistModel for SumModel {
        fn predict_dist_batch(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
            self.predict_batch(rows, &mut out.mean);
            out.fill_point_from_mean();
        }
    }

    #[test]
    fn default_batch_matches_per_row() {
        let feats = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows = RowsView::new(&feats, 2);
        let m = SumModel { width: 2 };
        let mut out = vec![99.0; 7]; // stale contents must be discarded
        m.predict_batch(rows, &mut out);
        assert_eq!(out, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn model_oracle_is_object_safe_and_forwards() {
        let feats = [1.0, 2.0, 3.0, 4.0];
        let rows = RowsView::new(&feats, 2);
        let oracle = ModelOracle::new(SumModel { width: 2 });
        let dyn_oracle: &dyn CostOracle = &oracle;
        assert_eq!(dyn_oracle.width(), 2);
        assert_eq!(dyn_oracle.cost_row(&[5.0, 6.0]), 11.0);
        let mut out = Vec::new();
        dyn_oracle.cost_batch(rows, &mut out);
        assert_eq!(out, vec![3.0, 7.0]);
        // The distributional path is reachable through the same vtable and
        // reports the point model's degenerate spread.
        let mut dist = CostDistribution::new();
        dyn_oracle.cost_batch_dist(rows, &mut dist);
        assert_eq!(dist.mean, vec![3.0, 7.0]);
        assert_eq!(dist.std, vec![0.0, 0.0]);
        assert_eq!(dist.q90, vec![3.0, 7.0]);
    }

    /// A two-tree forest over width-2 rows behind the oracle seam.
    fn forest_oracle() -> ModelOracle<RandomForest> {
        let feats = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let config = ForestConfig {
            n_trees: 2,
            ..ForestConfig::default()
        };
        let rows = RowsView::new(&feats, 2);
        ModelOracle::new(RandomForest::fit(&config, rows, &[1.0, 2.0, 3.0]))
    }

    // Release builds skip the debug_assert; both tests are vacuous there
    // (a too-wide row is still in bounds for every tree).
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "oracle expecting"))]
    fn forest_oracle_rejects_a_wrong_width_batch_in_debug() {
        forest_oracle().cost_batch(RowsView::new(&[0.0; 6], 3), &mut Vec::new());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "oracle expecting"))]
    fn forest_oracle_rejects_a_wrong_width_dist_batch_in_debug() {
        forest_oracle().cost_batch_dist(RowsView::new(&[0.0; 6], 3), &mut CostDistribution::new());
    }

    /// The adapter unpacks: a packed batch costs what the same rows cost
    /// unpacked, and what `cost_row` quotes for each — every column, every
    /// tail length of the forest's 4-row blocks, at the three layout widths.
    #[test]
    fn forest_oracle_costs_a_packed_batch_as_its_unpacked_rows_bitwise() {
        use robopt_plan::SplitMix64;
        let mut rng = SplitMix64::new(0x0023_4D4C);
        for width in [103, 211, 292] {
            // Splits land on any column, so stored and unstored cells both
            // decide leaves.
            let train: Vec<f64> = (0..96 * width).map(|_| rng.next_f64()).collect();
            let labels: Vec<f64> = train.chunks_exact(width).map(|r| r[7] + r[90]).collect();
            let config = ForestConfig {
                n_trees: 9,
                ..ForestConfig::default()
            };
            let forest = RandomForest::fit(&config, RowsView::new(&train, width), &labels);
            let oracle = ModelOracle::new(forest);
            for n_rows in 0..=9 {
                let mut runs = Vec::new();
                let mut col = rng.gen_range(6);
                while col < width {
                    let end = (col + 1 + rng.gen_range(12)).min(width);
                    runs.push(col..end);
                    col = end + rng.gen_range(20);
                }
                let stride: usize = runs.iter().map(|run| run.len()).sum();
                let cells: Vec<f64> = (0..n_rows * stride).map(|_| rng.next_f64()).collect();
                let packed = RowsView::new(&cells, stride).packed(&runs, width);
                let mut full = Vec::new();
                let unpacked = packed.full(&mut full);

                let (mut got, mut want) = (Vec::new(), Vec::new());
                oracle.cost_batch(packed, &mut got);
                oracle.cost_batch(unpacked, &mut want);
                assert_eq!(bits(&got), bits(&want), "width {width} rows {n_rows}");
                let by_row: Vec<f64> = (0..n_rows)
                    .map(|r| oracle.cost_row(unpacked.row(r)))
                    .collect();
                assert_eq!(bits(&got), bits(&by_row), "width {width} rows {n_rows}");

                let (mut got, mut want) = (CostDistribution::new(), CostDistribution::new());
                oracle.cost_batch_dist(packed, &mut got);
                oracle.cost_batch_dist(unpacked, &mut want);
                assert_eq!(bits(&got.mean), bits(&by_row));
                for (g, w) in [
                    (&got.mean, &want.mean),
                    (&got.std, &want.std),
                    (&got.q10, &want.q10),
                    (&got.q50, &want.q50),
                    (&got.q90, &want.q90),
                ] {
                    assert_eq!(bits(g), bits(w), "width {width} rows {n_rows}");
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
