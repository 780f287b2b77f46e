//! Bagged random forest — the paper's cost model (§IV-C): bootstrap
//! aggregation of CART regression trees with per-split feature
//! subsampling.
//!
//! * **Deterministic under threading**: tree `t` derives its RNG solely
//!   from `mix64(seed ^ t)`, and trees are stored in index order, so the
//!   fitted forest is identical whether training ran on 1 thread or 16.
//! * **Parallel training**: tree indices are dealt round-robin across
//!   `std::thread::scope` workers (no work queue, no locks).
//! * **Batched inference**: [`RandomForest::predict_batch`] makes one flat
//!   pass per tree over the [`RowsView`], accumulating into the caller's
//!   output buffer — no per-row allocation, and single-threaded:
//!   enumeration batches are at most k² rows.

use std::num::NonZeroUsize;

use robopt_core::CostDistribution;
use robopt_plan::rng::{mix64, SplitMix64};
use robopt_vector::RowsView;

use crate::model::{DistModel, Model};
use crate::tree::{RegressionTree, TreeConfig};

/// Forest-level configuration. `tree.feature_candidates: None` means "use
/// the regression default `ceil(width / 3)`", resolved at fit time.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Master seed; tree `t` uses `mix64(seed ^ t)`.
    pub seed: u64,
    /// Base-learner knobs shared by every tree.
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 48,
            seed: 0x0b5e_55ed,
            tree: TreeConfig::default(),
        }
    }
}

/// A fitted bagged random forest.
#[derive(Debug, Clone, Default)]
pub struct RandomForest {
    width: usize,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fit a forest on `rows`/`labels` under `config`. Training is
    /// parallel across trees yet bit-identical to the serial order because
    /// per-tree randomness never depends on scheduling.
    #[expect(
        clippy::expect_used,
        reason = "the spawn blocks tile 0..n_trees exactly, so every slot is filled once the scope joins"
    )]
    pub fn fit(config: &ForestConfig, rows: RowsView<'_>, labels: &[f64]) -> RandomForest {
        assert!(config.n_trees >= 1, "forest needs at least one tree");
        assert_eq!(rows.rows(), labels.len(), "one label per feature row");
        assert!(rows.rows() >= 1, "cannot fit a forest on zero samples");
        let tree_cfg = TreeConfig {
            feature_candidates: Some(
                config
                    .tree
                    .feature_candidates
                    .unwrap_or_else(|| rows.width().div_ceil(3)),
            ),
            ..config.tree
        };
        let n_trees = config.n_trees;
        let n_threads = available_threads().min(n_trees);
        let mut trees: Vec<Option<RegressionTree>> = vec![None; n_trees];
        if n_threads <= 1 {
            for (t, slot) in trees.iter_mut().enumerate() {
                *slot = Some(fit_one(&tree_cfg, rows, labels, config.seed, t));
            }
        } else {
            std::thread::scope(|scope| {
                let mut rest: &mut [Option<RegressionTree>] = &mut trees;
                for worker in 0..n_threads {
                    // Worker w owns the contiguous block of tree indices
                    // [lo, hi); blocks tile 0..n_trees exactly.
                    let lo = worker * n_trees / n_threads;
                    let hi = (worker + 1) * n_trees / n_threads;
                    let (mine, tail) = rest.split_at_mut(hi - lo);
                    rest = tail;
                    scope.spawn(move || {
                        for (offset, slot) in mine.iter_mut().enumerate() {
                            *slot =
                                Some(fit_one(&tree_cfg, rows, labels, config.seed, lo + offset));
                        }
                    });
                }
            });
        }
        RandomForest {
            width: rows.width(),
            trees: trees
                .into_iter()
                .map(|t| t.expect("every tree fitted"))
                .collect(),
        }
    }

    /// Fit a forest on a [`crate::source::TrainingSet`] under `config` —
    /// the configured counterpart of [`crate::model::Model::fit_set`]
    /// (which cannot carry a config through the object-safe trait).
    pub fn fit_on(config: &ForestConfig, set: &crate::source::TrainingSet) -> RandomForest {
        RandomForest::fit(config, set.rows_view(), &set.labels)
    }

    /// Reassemble a forest from deserialized trees. Each tree has already
    /// passed [`RegressionTree::from_parts`] validation; this checks the
    /// forest-level invariants (non-empty, one shared feature width) so a
    /// loaded model satisfies exactly the contract a fitted one does.
    pub fn from_trees(
        width: usize,
        trees: Vec<RegressionTree>,
    ) -> Result<RandomForest, crate::tree::ModelImportError> {
        if trees.is_empty() {
            return Err(crate::tree::ModelImportError::Empty);
        }
        for tree in &trees {
            if tree.width() != width {
                return Err(crate::tree::ModelImportError::WidthMismatch {
                    expected: width,
                    got: tree.width(),
                });
            }
        }
        Ok(RandomForest { width, trees })
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, in index order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Mean prediction of all trees for one row.
    pub fn predict(&self, feats: &[f64]) -> f64 {
        debug_assert_eq!(feats.len(), self.width);
        let sum: f64 = self.trees.iter().map(|t| t.predict(feats)).sum();
        sum / self.trees.len() as f64
    }
}

impl Model for RandomForest {
    fn width(&self) -> usize {
        assert!(!self.trees.is_empty(), "RandomForest::fit not called");
        self.width
    }

    fn fit(&mut self, rows: RowsView<'_>, labels: &[f64]) {
        *self = RandomForest::fit(&ForestConfig::default(), rows, labels);
    }

    fn predict_row(&self, feats: &[f64]) -> f64 {
        self.predict(feats)
    }

    fn predict_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to a model expecting {}",
            rows.width(),
            self.width()
        );
        out.clear();
        out.resize(rows.rows(), 0.0);
        for tree in &self.trees {
            // One flat pass per tree: tight loop over contiguous rows, no
            // allocation, accumulation straight into the output buffer.
            for (i, acc) in out.iter_mut().enumerate() {
                *acc += tree.predict(rows.row(i));
            }
        }
        // Divide (not multiply by a precomputed reciprocal) so the batch
        // path is bit-identical to `predict`'s `sum / n`.
        let n_trees = self.trees.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n_trees;
        }
    }
}

impl DistModel for RandomForest {
    /// One batched pass over the forest — the same per-tree flat walk as
    /// [`RandomForest::predict_batch`], except each tree's prediction
    /// lands in the per-row sample slot instead of being folded away, so
    /// the spread survives at no extra traversal cost. The mean reduces
    /// each row's samples in tree-index order, which is the exact
    /// accumulation sequence (and therefore the exact bits) of the point
    /// path; quantiles come from a per-row sort of the shared scratch.
    fn predict_dist_batch(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to a model expecting {}",
            rows.width(),
            self.width()
        );
        let n = rows.rows();
        let t = self.trees.len();
        let scratch = out.sample_scratch(n, t);
        for (ti, tree) in self.trees.iter().enumerate() {
            // Flat pass per tree, contiguous rows — the predict_batch walk.
            for i in 0..n {
                scratch[i * t + ti] = tree.predict(rows.row(i));
            }
        }
        out.finalize_samples(t);
    }
}

/// Bootstrap-sample `n` row indices and fit tree `t`. The RNG seed mixes
/// only the config seed and the tree index — never thread identity.
fn fit_one(
    config: &TreeConfig,
    rows: RowsView<'_>,
    labels: &[f64],
    seed: u64,
    t: usize,
) -> RegressionTree {
    let mut rng = SplitMix64::new(mix64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    let n = rows.rows();
    let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(n) as u32).collect();
    RegressionTree::fit_on_indices(config, rows, labels, &idx, &mut rng)
}

#[expect(
    clippy::disallowed_methods,
    reason = "thread count only sizes the tree-fitting tile blocks; every tree is seeded by its index, so forests are bit-identical across worker counts"
)]
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_quadratic(n: usize, width: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let mut feats = Vec::with_capacity(n * width);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..width).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
            labels.push(x[0] * x[0] + 0.1 * rng.next_f64());
            feats.extend_from_slice(&x);
        }
        (feats, labels)
    }

    #[test]
    fn fits_a_nonlinear_target_better_than_the_mean() {
        let (feats, labels) = noisy_quadratic(512, 3, 11);
        let rows = RowsView::new(&feats, 3);
        let forest = RandomForest::fit(&ForestConfig::default(), rows, &labels);
        let mean = labels.iter().sum::<f64>() / labels.len() as f64;
        let (test_feats, test_labels) = noisy_quadratic(128, 3, 12);
        let test_rows = RowsView::new(&test_feats, 3);
        let mut preds = Vec::new();
        forest.predict_batch(test_rows, &mut preds);
        let forest_mse = crate::metrics::mse(&preds, &test_labels);
        let mean_preds = vec![mean; test_labels.len()];
        let mean_mse = crate::metrics::mse(&mean_preds, &test_labels);
        assert!(
            forest_mse < 0.5 * mean_mse,
            "forest mse {forest_mse} not clearly below constant-mean mse {mean_mse}"
        );
    }

    #[test]
    fn batch_prediction_equals_per_row_prediction() {
        let (feats, labels) = noisy_quadratic(256, 4, 21);
        let rows = RowsView::new(&feats, 4);
        let forest = RandomForest::fit(&ForestConfig::default(), rows, &labels);
        let mut batch = Vec::new();
        forest.predict_batch(rows, &mut batch);
        for (r, &batched) in batch.iter().enumerate() {
            assert_eq!(batched, forest.predict(rows.row(r)), "row {r} diverges");
        }
    }

    #[test]
    fn equal_seeds_fit_identical_forests() {
        let (feats, labels) = noisy_quadratic(200, 4, 31);
        let rows = RowsView::new(&feats, 4);
        let cfg = ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        };
        let a = RandomForest::fit(&cfg, rows, &labels);
        let b = RandomForest::fit(&cfg, rows, &labels);
        let (probe, _) = noisy_quadratic(64, 4, 32);
        let probe_rows = RowsView::new(&probe, 4);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        a.predict_batch(probe_rows, &mut pa);
        b.predict_batch(probe_rows, &mut pb);
        assert_eq!(pa, pb, "same seed must reproduce bit-identical predictions");
    }

    #[test]
    fn different_seeds_fit_different_forests() {
        let (feats, labels) = noisy_quadratic(200, 4, 41);
        let rows = RowsView::new(&feats, 4);
        let a = RandomForest::fit(
            &ForestConfig {
                seed: 1,
                ..ForestConfig::default()
            },
            rows,
            &labels,
        );
        let b = RandomForest::fit(
            &ForestConfig {
                seed: 2,
                ..ForestConfig::default()
            },
            rows,
            &labels,
        );
        let probe: Vec<f64> = vec![0.3, -0.7, 1.1, 0.0];
        assert_ne!(a.predict(&probe), b.predict(&probe));
    }

    #[test]
    fn dist_batch_mean_is_bit_identical_to_point_batch() {
        let (feats, labels) = noisy_quadratic(300, 4, 51);
        let rows = RowsView::new(&feats, 4);
        let forest = RandomForest::fit(&ForestConfig::default(), rows, &labels);
        let mut point = Vec::new();
        let mut dist = CostDistribution::new();
        forest.predict_batch(rows, &mut point);
        forest.predict_dist_batch(rows, &mut dist);
        assert_eq!(dist.len(), point.len());
        for (r, (&p, &m)) in point.iter().zip(&dist.mean).enumerate() {
            assert_eq!(p.to_bits(), m.to_bits(), "mean bits diverge at row {r}");
        }
    }

    #[test]
    fn dist_batch_reports_ordered_quantiles_and_real_spread() {
        let (feats, labels) = noisy_quadratic(300, 4, 61);
        let rows = RowsView::new(&feats, 4);
        let forest = RandomForest::fit(&ForestConfig::default(), rows, &labels);
        let mut dist = CostDistribution::new();
        forest.predict_dist_batch(rows, &mut dist);
        let mut any_spread = false;
        for r in 0..dist.len() {
            assert!(dist.q10[r] <= dist.q50[r], "row {r}");
            assert!(dist.q50[r] <= dist.q90[r], "row {r}");
            assert!(dist.std[r] >= 0.0);
            any_spread |= dist.std[r] > 0.0;
        }
        assert!(any_spread, "bagged trees on noisy data must disagree");
        // Seed-deterministic: a second pass reproduces identical bits.
        let mut again = CostDistribution::new();
        forest.predict_dist_batch(rows, &mut again);
        assert_eq!(dist.std, again.std);
        assert_eq!(dist.q90, again.q90);
    }
}
