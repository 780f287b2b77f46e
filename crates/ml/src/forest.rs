//! Bagged random forest — the paper's cost model (§IV-C): bootstrap
//! aggregation of CART regression trees with per-split feature
//! subsampling.
//!
//! * **Deterministic under threading**: tree `t` derives its RNG solely
//!   from `mix64(seed ^ t)`, and trees are stored in index order, so the
//!   fitted forest is identical whether training ran on 1 thread or 16.
//! * **Parallel training**: each worker of the workspace's one fan-out
//!   ([`robopt_plan::par::par_chunks`]) fits one contiguous block of tree
//!   indices (no work queue, no locks). The training set's columns are
//!   sorted and split into value groups once, before the workers start
//!   (`tree::ColumnOrder`, shared read-only); a worker loads the
//!   distinct rows of each bootstrap sample from that order into one
//!   `tree::FitScratch` it reuses across its trees — `8 · rows ·
//!   live columns` bytes shared plus `4 · distinct rows · live columns`
//!   per worker.
//! * **Lock-step inference**: every prediction entry point is a sink over
//!   one descent, `walk`, which advances a block of up to
//!   `ROW_BLOCK` rows × `TREE_BLOCK` trees one level at a time. The
//!   packed nodes ([`crate::tree`]) make a step branch-free and leaves map
//!   to themselves, so the block runs a fixed number of iterations with
//!   up to 32 independent load chains in flight instead of one serial
//!   load → compare → load chain per tree-row. Leaf values reach the sink
//!   tree-ascending per row — the summation order, hence the bits, of a
//!   tree-at-a-time walk. No allocation, single-threaded: enumeration
//!   batches are a handful of rows.

use robopt_core::CostDistribution;
use robopt_plan::par::{available_threads, par_chunks};
use robopt_plan::rng::{mix64, SplitMix64};
use robopt_vector::RowsView;

use crate::model::{DistModel, Model};
use crate::tree::{ColumnOrder, FitScratch, Node, RegressionTree, TreeConfig};

/// Rows advanced together by one [`walk`] block. Enumeration sends
/// batches of one right unit's rows, about 7 on average (traced
/// `core.rows_per_batch` on `cold_forest`: 7.34), so most batches take one
/// or two blocks.
const ROW_BLOCK: usize = 4;

/// Trees advanced together by one [`walk`] block; the `n_trees % 8`
/// remainder goes one tree at a time.
const TREE_BLOCK: usize = 8;

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

/// A fitted bagged random forest of at least one tree.
#[derive(Debug, Clone)]
pub struct RandomForest {
    width: usize,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fit a forest on `rows`/`labels` under `config`. Training is
    /// parallel across trees yet bit-identical to the serial order because
    /// per-tree randomness never depends on scheduling.
    ///
    /// Panics on no rows, a label count other than the row count, or a
    /// label that is not finite (NaN or ±∞): a node's mean over such a
    /// label is not finite, and `RegressionTree::from_parts` refuses it, so
    /// the forest could not be reloaded.
    pub fn fit(config: &ForestConfig, rows: RowsView<'_>, labels: &[f64]) -> RandomForest {
        let n_threads = available_threads().min(config.n_trees);
        RandomForest::fit_on_threads(config, rows, labels, n_threads)
    }

    /// [`RandomForest::fit`] on `n_threads` workers. The columns are sorted
    /// here, once, and shared; each worker loads each tree's sample from
    /// them into one [`FitScratch`] of its own.
    #[expect(
        clippy::expect_used,
        reason = "par_chunks' blocks tile 0..n_trees exactly, so every slot is filled once it returns"
    )]
    fn fit_on_threads(
        config: &ForestConfig,
        rows: RowsView<'_>,
        labels: &[f64],
        n_threads: usize,
    ) -> RandomForest {
        assert!(config.n_trees >= 1, "forest needs at least one tree");
        assert_eq!(rows.rows(), labels.len(), "one label per feature row");
        assert!(rows.rows() >= 1, "cannot fit a forest on zero samples");
        let bad = labels.iter().position(|label| !label.is_finite());
        assert!(
            bad.is_none(),
            "row {} has the non-finite label {}: a forest fits finite labels only",
            bad.unwrap_or_default(),
            labels[bad.unwrap_or_default()]
        );
        let tree_cfg = TreeConfig {
            feature_candidates: Some(
                config
                    .tree
                    .feature_candidates
                    .unwrap_or_else(|| rows.width().div_ceil(3)),
            ),
            ..config.tree
        };
        let columns = ColumnOrder::new(rows);
        let mut trees: Vec<Option<RegressionTree>> = vec![None; config.n_trees];
        // Fit trees `lo..lo + mine.len()` into `mine`.
        par_chunks(n_threads, &mut trees, |lo, mine| {
            let mut scratch = FitScratch::default();
            for (offset, slot) in mine.iter_mut().enumerate() {
                let t = lo + offset;
                *slot = Some(fit_one(
                    &tree_cfg,
                    rows,
                    labels,
                    config.seed,
                    t,
                    &columns,
                    &mut scratch,
                ));
            }
        });
        RandomForest {
            width: rows.width(),
            trees: trees
                .into_iter()
                .map(|t| t.expect("every tree fitted"))
                .collect(),
        }
    }

    /// [`RandomForest::fit`] on a [`crate::source::TrainingSet`]'s rows
    /// and labels.
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

    /// Hand `(tree, row, leaf value)` to `sink` for every tree and every
    /// row of `rows`, tree-ascending for any one row.
    fn walk_batch(&self, rows: RowsView<'_>, mut sink: impl FnMut(usize, usize, f64)) {
        let n = rows.rows();
        for start in (0..n).step_by(ROW_BLOCK) {
            let sink = |tree, row, value| sink(tree, start + row, value);
            match n - start {
                1 => self.walk_rows(&row_block::<1>(rows, start), sink),
                2 => self.walk_rows(&row_block::<2>(rows, start), sink),
                3 => self.walk_rows(&row_block::<3>(rows, start), sink),
                _ => self.walk_rows(&row_block::<ROW_BLOCK>(rows, start), sink),
            }
        }
    }

    /// One block of `G` rows through every tree: [`TREE_BLOCK`] trees at a
    /// time, then the remainder singly — ascending either way.
    fn walk_rows<const G: usize>(
        &self,
        rows: &[&[f64]; G],
        mut sink: impl FnMut(usize, usize, f64),
    ) {
        let mut rest = self.trees.as_slice();
        let mut first = 0;
        while let Some((block, tail)) = rest.split_first_chunk::<TREE_BLOCK>() {
            walk(block, rows, |tree, row, value| {
                sink(first + tree, row, value);
            });
            first += TREE_BLOCK;
            rest = tail;
        }
        for (t, tree) in rest.iter().enumerate() {
            walk(std::array::from_ref(tree), rows, |_, row, value| {
                sink(first + t, row, value);
            });
        }
    }
}

/// Rows `start..start + G` of `rows`.
fn row_block<'a, const G: usize>(rows: RowsView<'a>, start: usize) -> [&'a [f64]; G] {
    std::array::from_fn(|row| rows.row(start + row))
}

/// The crate's one descent: advance `G` rows through `T` trees in
/// lock-step, one level per iteration, then hand `(tree, row, leaf
/// value)` to `sink` — trees ascending within each row.
///
/// The loop runs to the deepest tree's depth with no leaf test: a leaf's
/// [`Node::next`] is itself, so rows that arrive early (and whole trees
/// shallower than the block's deepest) just idle. Within a level the
/// `G × T` steps are independent, which is what lets their loads overlap.
pub(crate) fn walk<const G: usize, const T: usize>(
    trees: &[RegressionTree; T],
    rows: &[&[f64]; G],
    mut sink: impl FnMut(usize, usize, f64),
) {
    let nodes: [&[Node]; T] = trees.each_ref().map(RegressionTree::nodes);
    let depth = trees.iter().map(RegressionTree::depth).max().unwrap_or(0);
    // `at[tree][row]`: the node each row currently rests on, root first.
    let mut at = [[0u32; G]; T];
    for _ in 0..depth {
        for (nodes, lane) in nodes.iter().zip(&mut at) {
            for (node, feats) in lane.iter_mut().zip(rows) {
                *node = nodes[*node as usize].next(feats);
            }
        }
    }
    for row in 0..G {
        for (tree, (fitted, lane)) in trees.iter().zip(&at).enumerate() {
            sink(tree, row, fitted.values()[lane[row] as usize]);
        }
    }
}

impl Model for RandomForest {
    fn width(&self) -> usize {
        self.width
    }

    /// Mean prediction of all trees for one row.
    fn predict_row(&self, feats: &[f64]) -> f64 {
        debug_assert_eq!(feats.len(), self.width);
        let mut sum = 0.0;
        self.walk_rows(&[feats], |_, _, value| sum += value);
        sum / self.trees.len() as f64
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
        self.walk_batch(rows, |_, row, value| out[row] += value);
        // Divide (not multiply by a precomputed reciprocal) so the batch
        // path is bit-identical to `predict_row`'s `sum / n`.
        let n_trees = self.trees.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n_trees;
        }
    }
}

impl DistModel for RandomForest {
    /// One batched pass over the forest — the same lock-step walk as
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
        let t = self.trees.len();
        let scratch = out.sample_scratch(rows.rows(), t);
        self.walk_batch(rows, |tree, row, value| scratch[row * t + tree] = value);
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
    columns: &ColumnOrder,
    scratch: &mut FitScratch,
) -> RegressionTree {
    let mut rng = SplitMix64::new(mix64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    let n = rows.rows();
    let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(n) as u32).collect();
    RegressionTree::fit_sorted(config, rows, labels, &idx, &mut rng, columns, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParts;

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

    /// Fit a small forest whose labels are finite but for `bad` at row 10.
    fn fit_with_label(bad: f64) -> RandomForest {
        let (feats, mut labels) = noisy_quadratic(64, 3, 13);
        labels[10] = bad;
        let config = ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        };
        RandomForest::fit(&config, RowsView::new(&feats, 3), &labels)
    }

    #[test]
    #[should_panic(expected = "row 10 has the non-finite label NaN")]
    fn a_nan_label_is_refused_before_fitting() {
        fit_with_label(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "row 10 has the non-finite label inf")]
    fn a_positive_infinite_label_is_refused_before_fitting() {
        fit_with_label(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "row 10 has the non-finite label -inf")]
    fn a_negative_infinite_label_is_refused_before_fitting() {
        fit_with_label(f64::NEG_INFINITY);
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
            assert_eq!(batched, forest.predict_row(rows.row(r)), "row {r} diverges");
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
    fn one_worker_and_several_fit_the_same_forest() {
        let (feats, labels) = noisy_quadratic(300, 5, 71);
        let rows = RowsView::new(&feats, 5);
        // Seven trees over three workers: uneven blocks, and every worker
        // reuses one scratch across trees of different bootstrap samples.
        let cfg = ForestConfig {
            n_trees: 7,
            ..ForestConfig::default()
        };
        let fit = |n_threads| -> Vec<TreeParts> {
            RandomForest::fit_on_threads(&cfg, rows, &labels, n_threads)
                .trees()
                .iter()
                .map(RegressionTree::parts)
                .collect()
        };
        let serial = fit(1);
        assert!(
            serial.iter().all(|tree| tree.0.len() > 1),
            "every tree split"
        );
        assert_eq!(serial, fit(3));
        assert_eq!(serial, fit(7));
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
        assert_ne!(a.predict_row(&probe), b.predict_row(&probe));
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

    /// The scalar descent this crate shipped before the lock-step walk,
    /// kept as the independent reference: it reads the persisted arrays,
    /// tests for a leaf at every node and branches on the comparison.
    fn reference_predict(parts: &TreeParts, feats: &[f64]) -> f64 {
        let (split_col, threshold, left, right, value) = parts;
        let mut node = 0;
        loop {
            if split_col[node] == u32::MAX {
                return value[node];
            }
            node = if feats[split_col[node] as usize] <= threshold[node] {
                left[node] as usize
            } else {
                right[node] as usize
            };
        }
    }

    /// A forest whose tree `t` is grown to `depths[t % depths.len()]`, so
    /// one lock-step block can hold stumps, single leaves and deep trees.
    fn forest_of_depths(n_trees: usize, depths: &[usize], width: usize, seed: u64) -> RandomForest {
        let mut rng = SplitMix64::new(seed);
        let n = 96;
        let feats: Vec<f64> = (0..n * width)
            .map(|_| (rng.next_f64() * 16.0).floor() - 8.0)
            .collect();
        let labels: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
        let rows = RowsView::new(&feats, width);
        let columns = ColumnOrder::new(rows);
        let mut scratch = FitScratch::default();
        let trees = (0..n_trees)
            .map(|t| {
                let config = TreeConfig {
                    max_depth: depths[t % depths.len()],
                    feature_candidates: Some(width.div_ceil(3)),
                    ..TreeConfig::default()
                };
                fit_one(&config, rows, &labels, seed, t, &columns, &mut scratch)
            })
            .collect();
        RandomForest::from_trees(width, trees).unwrap()
    }

    /// `n` probe rows mixing ordinary values with NaN, ±∞, −0.0 and
    /// values sitting exactly on some tree's split threshold.
    fn probe_rows(n: usize, width: usize, parts: &[TreeParts], rng: &mut SplitMix64) -> Vec<f64> {
        let mut feats: Vec<f64> = (0..n * width)
            .map(|_| match rng.gen_range(12) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => (rng.next_f64() * 18.0).floor() * 0.5 - 4.5,
            })
            .collect();
        for row in feats.chunks_exact_mut(width) {
            let (split_col, threshold, ..) = &parts[rng.gen_range(parts.len())];
            let node = rng.gen_range(split_col.len());
            if split_col[node] != u32::MAX {
                row[split_col[node] as usize] = threshold[node];
            }
        }
        feats
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_entry_point_matches_the_scalar_reference_bit_for_bit() {
        const MIXED: &[usize] = &[14, 0, 3, 1, 0];
        let depth_modes: [&[usize]; 5] = [&[0], &[1], &[3], &[14], MIXED];
        let mut rng = SplitMix64::new(0x010c_57e9);
        let mut forests = 0;
        for n_trees in [1, 7, 8, 9, 64, 67] {
            for depths in depth_modes {
                let width = 1 + forests % 27;
                forests += 1;
                let forest = forest_of_depths(n_trees, depths, width, 1000 + forests as u64);
                let parts: Vec<TreeParts> = forest.trees().iter().map(|t| t.parts()).collect();
                if depths == [0] {
                    assert!(forest.trees().iter().all(|t| t.n_nodes() == 1));
                }
                for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 33, 100] {
                    let feats = probe_rows(n, width, &parts, &mut rng);
                    let rows = RowsView::new(&feats, width);
                    let case =
                        format!("{n_trees} trees, depths {depths:?}, width {width}, {n} rows");

                    // Reference: per-tree samples row-major, mean summed
                    // in tree order, the other columns by the shared
                    // reduction over those samples.
                    let mut want = CostDistribution::new();
                    let want_samples: Vec<f64> = (0..n)
                        .flat_map(|r| parts.iter().map(move |p| reference_predict(p, rows.row(r))))
                        .collect();
                    want.sample_scratch(n, n_trees)
                        .copy_from_slice(&want_samples);
                    want.finalize_samples(n_trees);
                    let want_mean: Vec<f64> = want_samples
                        .chunks_exact(n_trees)
                        .map(|row| row.iter().sum::<f64>() / n_trees as f64)
                        .collect();
                    assert_eq!(bits(&want.mean), bits(&want_mean), "{case}");

                    let mut batch = vec![f64::NAN; 3]; // stale content must go
                    forest.predict_batch(rows, &mut batch);
                    assert_eq!(bits(&batch), bits(&want_mean), "predict_batch: {case}");
                    for (r, want) in want_mean.iter().enumerate() {
                        assert_eq!(
                            forest.predict_row(rows.row(r)).to_bits(),
                            want.to_bits(),
                            "predict_row {r}: {case}"
                        );
                    }

                    let mut got_samples = vec![f64::NAN; n * n_trees];
                    let mut last_tree = vec![None; n];
                    forest.walk_batch(rows, |tree, row, value| {
                        assert!(
                            last_tree[row] < Some(tree),
                            "row {row} not tree-ascending: {case}"
                        );
                        last_tree[row] = Some(tree);
                        got_samples[row * n_trees + tree] = value;
                    });
                    assert_eq!(bits(&got_samples), bits(&want_samples), "samples: {case}");

                    let mut dist = CostDistribution::new();
                    forest.predict_dist_batch(rows, &mut dist);
                    for (name, got, want) in [
                        ("mean", &dist.mean, &want.mean),
                        ("std", &dist.std, &want.std),
                        ("q10", &dist.q10, &want.q10),
                        ("q50", &dist.q50, &want.q50),
                        ("q90", &dist.q90, &want.q90),
                    ] {
                        assert_eq!(bits(got), bits(want), "dist {name}: {case}");
                    }
                }
            }
        }
        assert!(forests >= 27, "every width 1..=27 was used");
    }
}
