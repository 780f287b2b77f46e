//! CART regression tree: variance-reduction splits over [`RowsView`]
//! columns, packed 16-byte nodes, deterministic fit.
//!
//! A fitted tree is one `Vec` of [`Node`]s — `{payload, col, right}`, so a
//! descent step touches one 16-byte record — beside the per-node mean
//! labels. An internal node routes `x[col] <= payload` to `right - 1` and
//! everything else (NaN included) to `right`: siblings are adjacent. A
//! leaf is encoded so that the *same* step maps it to itself for every
//! `x`, which turns a root → leaf descent into a fixed `depth`-iteration
//! loop with no data-dependent branch; [`crate::forest`] owns that loop
//! (the one descent implementation in this crate).
//!
//! The tree is the forest's base learner. Fitting is presorted CART: a
//! [`ColumnOrder`] sorts every feature column of the training set once, by
//! `(feature value, row index)`; a tree expands that order by its sample's
//! multiplicities into `FitScratch`, and from then on every node owns the
//! same `[start, end)` span of the sample and of each column's block, kept
//! sorted by a stable partition at every split — no node gathers or sorts
//! anything. The explicit node stack, the ascending visit of candidate
//! columns and the `(value, row)` order make equal-gain ties resolve the
//! same way regardless of prior calls, and the fitted tree is, bit for bit,
//! the one a per-node sort of each candidate column produces (the `tests`
//! module keeps that fitter as the reference).

use robopt_plan::rng::SplitMix64;
use robopt_vector::RowsView;

use crate::model::Model;

/// Sentinel column id marking a leaf node in the persisted
/// ([`RegressionTree::parts`]) form.
const LEAF: u32 = u32::MAX;

/// Why a deserialized tree/forest was rejected by the validated
/// constructors ([`RegressionTree::from_parts`],
/// [`crate::RandomForest::from_trees`]). Malformed persisted models must
/// fail with one of these — never panic and never produce a tree whose
/// `predict` could loop or index out of bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelImportError {
    /// A tree needs at least its root node; a forest at least one tree.
    Empty,
    /// The five node arrays must all have the same length.
    LengthMismatch {
        field: &'static str,
        expected: usize,
        got: usize,
    },
    /// Every tree of a forest must share the forest's feature width, and
    /// a tree needs at least one feature column (`expected: 1, got: 0`).
    WidthMismatch { expected: usize, got: usize },
    /// An internal node's split column is outside the feature width.
    SplitColOutOfRange { node: usize, col: u32 },
    /// A child index is out of bounds or not strictly greater than its
    /// parent (children follow parents in the flat arrays, which is what
    /// bounds every descent), or the right child is not the slot after
    /// the left one (siblings are adjacent — the packed node stores only
    /// one child index).
    BadChild { node: usize, child: u32 },
    /// A threshold or leaf value is NaN/infinite.
    NonFinite { node: usize },
}

impl std::fmt::Display for ModelImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelImportError::Empty => write!(f, "model has no nodes/trees"),
            ModelImportError::LengthMismatch {
                field,
                expected,
                got,
            } => write!(
                f,
                "node array `{field}` has {got} entries, expected {expected}"
            ),
            ModelImportError::WidthMismatch { expected, got } => {
                write!(f, "tree width {got} does not match forest width {expected}")
            }
            ModelImportError::SplitColOutOfRange { node, col } => {
                write!(
                    f,
                    "node {node} splits on column {col} outside the feature width"
                )
            }
            ModelImportError::BadChild { node, child } => {
                write!(
                    f,
                    "node {node} points at child {child} (out of range, non-forward or not adjacent to its sibling)"
                )
            }
            ModelImportError::NonFinite { node } => {
                write!(f, "node {node} carries a non-finite threshold or value")
            }
        }
    }
}

impl std::error::Error for ModelImportError {}

/// Stopping and randomization knobs for a single [`RegressionTree`].
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum node depth (root is depth 0).
    pub max_depth: usize,
    /// Nodes with fewer samples become leaves.
    pub min_samples_split: usize,
    /// A split is admissible only if both children keep at least this many.
    pub min_samples_leaf: usize,
    /// Number of feature columns tried per split (`mtry`); `None` tries
    /// every column (plain CART), `Some(m)` samples `m` without
    /// replacement per node — the forest's decorrelation lever.
    pub feature_candidates: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 14,
            min_samples_split: 4,
            min_samples_leaf: 2,
            feature_candidates: None,
        }
    }
}

/// One packed tree node: 16 bytes, so a descent step is one record load
/// plus one feature load.
///
/// * internal — `payload` is the split threshold, `col` the split column,
///   `right` the right child; the left child is `right - 1`.
/// * leaf — `payload = NaN`, `col = 0`, `right` = the node's own index.
///   `x <= NaN` is false for every `x`, so [`Node::next`] returns the leaf
///   itself: stepping past a leaf is a no-op, never a branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    payload: f64,
    col: u32,
    right: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn leaf(index: usize) -> Node {
        Node {
            payload: f64::NAN,
            col: 0,
            right: index as u32,
        }
    }

    /// The node a row moves to from this one: `right - 1` when
    /// `feats[col] <= payload`, else `right` — NaN features go right, and
    /// a leaf stays where it is.
    #[inline]
    pub(crate) fn next(self, feats: &[f64]) -> u32 {
        self.right - u32::from(feats[self.col as usize] <= self.payload)
    }
}

/// A fitted CART regression tree: packed [`Node`]s in fit order (children
/// after parents, siblings adjacent) plus each node's mean label.
#[derive(Debug, Clone, Default)]
pub struct RegressionTree {
    width: usize,
    /// Edges on the longest root → leaf path: the iteration count after
    /// which every row of every descent rests on a leaf.
    depth: usize,
    nodes: Vec<Node>,
    value: Vec<f64>,
}

/// A tree's node arrays in the persisted form, in
/// `(split_col, threshold, left, right, value)` order — what
/// [`RegressionTree::parts`] renders and [`RegressionTree::from_parts`]
/// takes back. Leaves read `split_col = u32::MAX`, threshold `0.0`,
/// children `0`.
pub type TreeParts = (Vec<u32>, Vec<f64>, Vec<u32>, Vec<u32>, Vec<f64>);

/// One pending node during fitting: its span of the sample, which is also
/// its span of every column block in [`FitScratch`].
struct PendingNode {
    node: usize,
    start: usize,
    end: usize,
    depth: usize,
}

/// `ColumnOrder::block` of a column that holds one value over the whole set.
const CONSTANT: u32 = u32::MAX;

/// Every feature column of one training set, sorted once: what all trees
/// fitted on that set share. Costs `4 · rows · live` bytes, `live` being the
/// columns that are not constant over the set.
#[derive(Debug)]
pub(crate) struct ColumnOrder {
    /// Per column, the block of `sorted` holding it, or [`CONSTANT`]: a
    /// column with one value over the set cannot split any sample of it.
    block: Vec<u32>,
    /// One block of `rows` row ids per live column, ascending by
    /// `(value.total_cmp, row id)`.
    sorted: Vec<u32>,
    rows: usize,
}

impl ColumnOrder {
    pub(crate) fn new(rows: RowsView<'_>) -> ColumnOrder {
        let n = rows.rows();
        let mut block = vec![CONSTANT; rows.width()];
        let mut sorted = Vec::new();
        let mut live = 0;
        let mut column: Vec<(f64, u32)> = Vec::with_capacity(n);
        for (col, slot) in block.iter_mut().enumerate() {
            column.clear();
            column.extend((0..n).map(|r| (rows.value(r, col), r as u32)));
            if column.iter().all(|&(v, _)| v == column[0].0) {
                continue;
            }
            // Sort by (value, row index): a total order, so the order of a
            // node's rows — hence the prefix scan and the threshold chosen
            // under ties — is a function of the rows alone.
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            sorted.extend(column.iter().map(|&(_, r)| r));
            *slot = live;
            live += 1;
        }
        ColumnOrder {
            block,
            sorted,
            rows: n,
        }
    }

    /// Columns that are not constant over the set: the blocks of `sorted`.
    fn live(&self) -> usize {
        self.sorted.len() / self.rows.max(1)
    }
}

/// The buffers one tree fit works in; a forest worker reuses one across its
/// trees. Beyond a few words per row this is `4 · sample · live` bytes.
#[derive(Debug, Default)]
pub(crate) struct FitScratch {
    /// How often the sample holds each row of the set.
    count: Vec<u32>,
    /// The sample in the caller's order (label sums and means read this).
    order: Vec<u32>,
    /// One block of `sample` row ids per live column: the sample in that
    /// column's order, every node's span of it sorted.
    cols: Vec<u32>,
    /// Which side of the split being applied each row of the set falls on.
    goes_left: Vec<bool>,
    /// The rows a partition moves right, until it has compacted the left.
    spill: Vec<u32>,
}

impl FitScratch {
    /// Load the sample `idx`: a linear pass per column block repeats each
    /// row as often as the sample holds it. Repeats of a row are adjacent
    /// and identical, so the result is the `(value, row)` sort of the sample.
    fn load(&mut self, columns: &ColumnOrder, idx: &[u32]) {
        self.count.clear();
        self.count.resize(columns.rows, 0);
        for &r in idx {
            self.count[r as usize] += 1;
        }
        self.order.clear();
        self.order.extend_from_slice(idx);
        self.goes_left.resize(columns.rows, false);
        self.spill.resize(idx.len(), 0);
        // Four copies of every row, then step by its count: the next row
        // overwrites the surplus, and no branch depends on a count unless it
        // exceeds four (0.4 % of a bootstrap's rows).
        let total = columns.live() * idx.len();
        self.cols.resize(total + 4, 0);
        let mut at = 0;
        for &r in &columns.sorted {
            let repeats = self.count[r as usize] as usize;
            self.cols[at..at + 4].fill(r);
            if repeats > 4 {
                self.cols[at + 4..at + repeats].fill(r);
            }
            at += repeats;
        }
        self.cols.truncate(total);
    }
}

/// Stable partition of `span` by `goes_left`: the left rows first, the right
/// rows after them, both in the order they had. Returns the left count.
#[inline]
fn partition(span: &mut [u32], goes_left: &[bool], spill: &mut [u32]) -> usize {
    let (mut left, mut right) = (0, 0);
    for i in 0..span.len() {
        // `left <= i`: the slot written was already read.
        let r = span[i];
        let to_left = usize::from(goes_left[r as usize]);
        span[left] = r;
        spill[right] = r;
        left += to_left;
        right += 1 - to_left;
    }
    span[left..].copy_from_slice(&spill[..right]);
    left
}

impl RegressionTree {
    /// Fit a tree on the rows selected by `idx` (indices into `rows`, with
    /// repeats allowed — the forest passes bootstrap samples directly).
    /// `rng` drives per-node feature subsampling only; with
    /// `feature_candidates: None` it is never consulted.
    pub fn fit_on_indices(
        config: &TreeConfig,
        rows: RowsView<'_>,
        labels: &[f64],
        idx: &[u32],
        rng: &mut SplitMix64,
    ) -> RegressionTree {
        let columns = ColumnOrder::new(rows);
        let mut scratch = FitScratch::default();
        RegressionTree::fit_sorted(config, rows, labels, idx, rng, &columns, &mut scratch)
    }

    /// [`RegressionTree::fit_on_indices`] given the `rows`' [`ColumnOrder`]
    /// and buffers to work in: what a forest calls once per tree.
    pub(crate) fn fit_sorted(
        config: &TreeConfig,
        rows: RowsView<'_>,
        labels: &[f64],
        idx: &[u32],
        rng: &mut SplitMix64,
        columns: &ColumnOrder,
        scratch: &mut FitScratch,
    ) -> RegressionTree {
        assert_eq!(rows.rows(), labels.len(), "one label per feature row");
        assert!(!idx.is_empty(), "cannot fit a tree on zero samples");
        assert!(
            config.min_samples_leaf >= 1,
            "leaves need at least one sample"
        );
        assert_eq!(
            (columns.rows, columns.block.len()),
            (rows.rows(), rows.width()),
            "column order of another training set"
        );
        let width = rows.width();
        let mut tree = RegressionTree {
            width,
            ..RegressionTree::default()
        };
        scratch.load(columns, idx);
        let FitScratch {
            order,
            cols: sorted_cols,
            goes_left,
            spill,
            ..
        } = scratch;
        let sample = order.len();
        let mut cols: Vec<usize> = (0..width).collect();
        let root = tree.push_leaf(mean_label(labels, order));
        let mut stack = vec![PendingNode {
            node: root,
            start: 0,
            end: sample,
            depth: 0,
        }];
        while let Some(pending) = stack.pop() {
            let span = pending.start..pending.end;
            let n = span.len();
            if pending.depth >= config.max_depth || n < config.min_samples_split {
                continue; // stays the leaf it was pushed as
            }
            let (total_sum, total_sse) = sum_and_sse(labels, &order[span.clone()]);
            if total_sse <= 1e-12 {
                continue; // pure node: nothing to reduce
            }
            let candidates = Self::pick_candidates(config, &mut cols, rng);
            let mut best: Option<Split> = None;
            for &col in candidates {
                let block = columns.block[col];
                if block == CONSTANT {
                    continue;
                }
                let sorted = &sorted_cols[block as usize * sample..][span.clone()];
                // A column constant over this node (most candidates: all-zero
                // plan-vector cells) separates nothing — the scan below would
                // skip every position on its equal-values test. In a sorted
                // span that is the two ends comparing equal.
                let mut hi = rows.value(sorted[0] as usize, col);
                if hi == rows.value(sorted[n - 1] as usize, col) {
                    continue;
                }
                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                for i in 0..n - 1 {
                    let y = labels[sorted[i] as usize];
                    left_sum += y;
                    left_sq += y * y;
                    let lo = hi;
                    hi = rows.value(sorted[i + 1] as usize, col);
                    let n_left = i + 1;
                    let n_right = n - n_left;
                    if n_left < config.min_samples_leaf || n_right < config.min_samples_leaf {
                        continue;
                    }
                    if lo == hi {
                        continue; // cannot separate equal feature values
                    }
                    let right_sum = total_sum - left_sum;
                    let left_sse = left_sq - left_sum * left_sum / n_left as f64;
                    // SSE(right) via the parent identity saves a second pass.
                    let right_sse = (total_sse + total_sum * total_sum / n as f64 - left_sq)
                        - right_sum * right_sum / n_right as f64;
                    let gain = total_sse - left_sse - right_sse;
                    // Strict `>` keeps the first (lowest column, lowest
                    // threshold) of any equal-gain candidates.
                    if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(Split {
                            gain,
                            col,
                            threshold: midpoint(lo, hi),
                        });
                    }
                }
            }
            let Some(split) = best else { continue };
            for &r in &order[span.clone()] {
                goes_left[r as usize] = rows.value(r as usize, split.col) <= split.threshold;
            }
            let mid = pending.start + partition(&mut order[span.clone()], goes_left, spill);
            // A child that cannot split never reads its column spans; when
            // neither can, they are left as they lie.
            let depth = pending.depth + 1;
            let larger_child = (mid - pending.start).max(pending.end - mid);
            if depth < config.max_depth && larger_child >= config.min_samples_split {
                for block in sorted_cols.chunks_exact_mut(sample) {
                    partition(&mut block[span.clone()], goes_left, spill);
                }
            }
            let left_node = tree.push_leaf(mean_label(labels, &order[pending.start..mid]));
            let right_node = tree.push_leaf(mean_label(labels, &order[mid..pending.end]));
            debug_assert_eq!(right_node, left_node + 1, "siblings are adjacent");
            tree.nodes[pending.node] = Node {
                payload: split.threshold,
                col: split.col as u32,
                right: right_node as u32,
            };
            tree.depth = tree.depth.max(depth);
            stack.push(PendingNode {
                node: right_node,
                start: mid,
                end: pending.end,
                depth,
            });
            stack.push(PendingNode {
                node: left_node,
                start: pending.start,
                end: mid,
                depth,
            });
        }
        tree
    }

    /// The candidate columns for one node: all of them, or `m` sampled
    /// without replacement (partial Fisher-Yates over the shared buffer),
    /// returned sorted ascending for deterministic visit order.
    fn pick_candidates<'c>(
        config: &TreeConfig,
        cols: &'c mut [usize],
        rng: &mut SplitMix64,
    ) -> &'c [usize] {
        match config.feature_candidates {
            None => cols,
            Some(m) => {
                let m = m.clamp(1, cols.len());
                for i in 0..m {
                    let j = i + rng.gen_range(cols.len() - i);
                    cols.swap(i, j);
                }
                cols[..m].sort_unstable();
                &cols[..m]
            }
        }
    }

    fn push_leaf(&mut self, value: f64) -> usize {
        let index = self.nodes.len();
        self.nodes.push(Node::leaf(index));
        self.value.push(value);
        index
    }

    /// Reassemble a tree from its persisted node arrays, validating every
    /// structural invariant the descent relies on. The inverse of
    /// [`RegressionTree::parts`]; persistence loaders must come through
    /// here so a corrupted file can never build a tree that loops or
    /// indexes out of bounds. `depth` is derived here, never read from a
    /// file: children sit after parents, so one forward pass sees every
    /// node's depth before its children's.
    pub fn from_parts(
        width: usize,
        split_col: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
        value: Vec<f64>,
    ) -> Result<RegressionTree, ModelImportError> {
        let n = split_col.len();
        if n == 0 {
            return Err(ModelImportError::Empty);
        }
        // A leaf step still reads `feats[0]`.
        if width == 0 {
            return Err(ModelImportError::WidthMismatch {
                expected: 1,
                got: 0,
            });
        }
        for (field, got) in [
            ("threshold", threshold.len()),
            ("left", left.len()),
            ("right", right.len()),
            ("value", value.len()),
        ] {
            if got != n {
                return Err(ModelImportError::LengthMismatch {
                    field,
                    expected: n,
                    got,
                });
            }
        }
        let mut nodes = Vec::with_capacity(n);
        let mut node_depth = vec![0usize; n];
        let mut depth = 0;
        for node in 0..n {
            if !value[node].is_finite() {
                return Err(ModelImportError::NonFinite { node });
            }
            if split_col[node] == LEAF {
                nodes.push(Node::leaf(node));
                continue;
            }
            if split_col[node] as usize >= width {
                return Err(ModelImportError::SplitColOutOfRange {
                    node,
                    col: split_col[node],
                });
            }
            if !threshold[node].is_finite() {
                return Err(ModelImportError::NonFinite { node });
            }
            // Children must exist and sit strictly after their parent —
            // the fitter pushes children after parents, and this forward
            // ordering is exactly what bounds every root→leaf walk.
            for child in [left[node], right[node]] {
                if child as usize >= n || child as usize <= node {
                    return Err(ModelImportError::BadChild { node, child });
                }
                node_depth[child as usize] = node_depth[child as usize].max(node_depth[node] + 1);
                depth = depth.max(node_depth[child as usize]);
            }
            // The fitter pushes siblings back to back; the packed node
            // keeps only `right` and finds the left child at `right - 1`.
            if left[node].checked_add(1) != Some(right[node]) {
                return Err(ModelImportError::BadChild {
                    node,
                    child: right[node],
                });
            }
            nodes.push(Node {
                payload: threshold[node],
                col: split_col[node],
                right: right[node],
            });
        }
        Ok(RegressionTree {
            width,
            depth,
            nodes,
            value,
        })
    }

    /// The persisted node arrays `(split_col, threshold, left, right,
    /// value)` — the tree's full persistent state alongside
    /// [`Model::width`], rendered from the packed nodes with every leaf
    /// written canonically.
    pub fn parts(&self) -> TreeParts {
        let n = self.nodes.len();
        let mut split_col = vec![LEAF; n];
        let mut threshold = vec![0.0; n];
        let mut left = vec![0; n];
        let mut right = vec![0; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if !self.is_leaf(i) {
                split_col[i] = node.col;
                threshold[i] = node.payload;
                left[i] = node.right - 1;
                right[i] = node.right;
            }
        }
        (split_col, threshold, left, right, self.value.clone())
    }

    /// Only a leaf's `right` is its own index: children sit after parents.
    fn is_leaf(&self, node: usize) -> bool {
        self.nodes[node].right as usize == node
    }

    /// Number of nodes (internal + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        (0..self.nodes.len()).filter(|&i| self.is_leaf(i)).count()
    }

    /// The packed nodes, root first.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Edges on the longest root → leaf path.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Mean label of every node; a descent reads the leaf it ended on.
    pub(crate) fn values(&self) -> &[f64] {
        &self.value
    }

    /// Predict one row: the one-row, one-tree case of the forest's
    /// lock-step [`walk`](crate::forest::walk).
    #[inline]
    pub fn predict(&self, feats: &[f64]) -> f64 {
        debug_assert_eq!(feats.len(), self.width);
        let mut leaf_value = 0.0;
        crate::forest::walk(std::array::from_ref(self), &[feats], |_, _, value| {
            leaf_value = value;
        });
        leaf_value
    }
}

impl Model for RegressionTree {
    fn width(&self) -> usize {
        assert!(!self.nodes.is_empty(), "RegressionTree::fit not called");
        self.width
    }

    fn fit(&mut self, rows: RowsView<'_>, labels: &[f64]) {
        let idx: Vec<u32> = (0..rows.rows() as u32).collect();
        let mut rng = SplitMix64::new(0);
        *self =
            RegressionTree::fit_on_indices(&TreeConfig::default(), rows, labels, &idx, &mut rng);
    }

    fn predict_row(&self, feats: &[f64]) -> f64 {
        self.predict(feats)
    }
}

// One tree is one estimator: the degenerate point distribution from the
// `DistModel` default is exact. The *forest* is where spread comes from.
impl crate::model::DistModel for RegressionTree {}

struct Split {
    gain: f64,
    col: usize,
    threshold: f64,
}

/// Midpoint threshold that is guaranteed to separate `lo < hi` even when
/// they are adjacent floats (the naive average can round back onto `hi`).
fn midpoint(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) * 0.5;
    if mid < hi {
        mid
    } else {
        lo
    }
}

fn mean_label(labels: &[f64], idx: &[u32]) -> f64 {
    let sum: f64 = idx.iter().map(|&r| labels[r as usize]).sum();
    sum / idx.len() as f64
}

/// Sum and sum of squared deviations (SSE) of the selected labels.
fn sum_and_sse(labels: &[f64], idx: &[u32]) -> (f64, f64) {
    let mut sum = 0.0;
    let mut sq = 0.0;
    for &r in idx {
        let y = labels[r as usize];
        sum += y;
        sq += y * y;
    }
    (sum, sq - sum * sum / idx.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_all(config: &TreeConfig, feats: &[f64], width: usize, labels: &[f64]) -> RegressionTree {
        let rows = RowsView::new(feats, width);
        let idx: Vec<u32> = (0..rows.rows() as u32).collect();
        let mut rng = SplitMix64::new(7);
        RegressionTree::fit_on_indices(config, rows, labels, &idx, &mut rng)
    }

    /// The fitter this crate shipped before columns were sorted once per
    /// training set, kept as the independent reference: at every node it
    /// gathers each candidate column, tests it for a constant and sorts it.
    fn fit_by_node_sort(
        config: &TreeConfig,
        rows: RowsView<'_>,
        labels: &[f64],
        idx: &[u32],
        rng: &mut SplitMix64,
    ) -> RegressionTree {
        assert_eq!(rows.rows(), labels.len(), "one label per feature row");
        assert!(!idx.is_empty(), "cannot fit a tree on zero samples");
        assert!(
            config.min_samples_leaf >= 1,
            "leaves need at least one sample"
        );
        let width = rows.width();
        let mut tree = RegressionTree {
            width,
            ..RegressionTree::default()
        };
        let mut order: Vec<u32> = idx.to_vec();
        // Scratch reused by every split search: (feature value, row id).
        let mut sorted: Vec<(f64, u32)> = Vec::with_capacity(order.len());
        // Scratch reused by every partition (right-child spill buffer).
        let mut spill: Vec<u32> = Vec::with_capacity(order.len());
        let mut cols: Vec<usize> = (0..width).collect();
        let root = tree.push_leaf(mean_label(labels, &order));
        let mut stack = vec![PendingNode {
            node: root,
            start: 0,
            end: order.len(),
            depth: 0,
        }];
        while let Some(pending) = stack.pop() {
            let span = &order[pending.start..pending.end];
            let n = span.len();
            if pending.depth >= config.max_depth || n < config.min_samples_split {
                continue; // stays the leaf it was pushed as
            }
            let (total_sum, total_sse) = sum_and_sse(labels, span);
            if total_sse <= 1e-12 {
                continue; // pure node: nothing to reduce
            }
            let candidates = RegressionTree::pick_candidates(config, &mut cols, rng);
            let mut best: Option<Split> = None;
            for &col in candidates {
                sorted.clear();
                sorted.extend(span.iter().map(|&r| (rows.value(r as usize, col), r)));
                // A constant column (most candidates: all-zero plan-vector
                // cells) separates nothing — the scan below would skip every
                // position on its equal-values test — so it is not sorted.
                let first = sorted[0].0;
                if sorted.iter().all(|&(v, _)| v == first) {
                    continue;
                }
                // Sort by (value, row index): total order ⇒ deterministic
                // prefix scan and threshold choice under ties.
                sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                for i in 0..n - 1 {
                    let y = labels[sorted[i].1 as usize];
                    left_sum += y;
                    left_sq += y * y;
                    let n_left = i + 1;
                    let n_right = n - n_left;
                    if n_left < config.min_samples_leaf || n_right < config.min_samples_leaf {
                        continue;
                    }
                    if sorted[i].0 == sorted[i + 1].0 {
                        continue; // cannot separate equal feature values
                    }
                    let right_sum = total_sum - left_sum;
                    let left_sse = left_sq - left_sum * left_sum / n_left as f64;
                    // SSE(right) via the parent identity saves a second pass.
                    let right_sse = (total_sse + total_sum * total_sum / n as f64 - left_sq)
                        - right_sum * right_sum / n_right as f64;
                    let gain = total_sse - left_sse - right_sse;
                    // Strict `>` keeps the first (lowest column, lowest
                    // threshold) of any equal-gain candidates.
                    if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(Split {
                            gain,
                            col,
                            threshold: midpoint(sorted[i].0, sorted[i + 1].0),
                        });
                    }
                }
            }
            let Some(split) = best else { continue };
            // Stable partition of the node's index span around the split:
            // compact left rows forward, spill right rows to scratch.
            spill.clear();
            let mut write = pending.start;
            for i in pending.start..pending.end {
                let r = order[i];
                if rows.value(r as usize, split.col) <= split.threshold {
                    order[write] = r;
                    write += 1;
                } else {
                    spill.push(r);
                }
            }
            let mid = write;
            order[mid..pending.end].copy_from_slice(&spill);
            let left_node = tree.push_leaf(mean_label(labels, &order[pending.start..mid]));
            let right_node = tree.push_leaf(mean_label(labels, &order[mid..pending.end]));
            debug_assert_eq!(right_node, left_node + 1, "siblings are adjacent");
            tree.nodes[pending.node] = Node {
                payload: split.threshold,
                col: split.col as u32,
                right: right_node as u32,
            };
            tree.depth = tree.depth.max(pending.depth + 1);
            stack.push(PendingNode {
                node: right_node,
                start: mid,
                end: pending.end,
                depth: pending.depth + 1,
            });
            stack.push(PendingNode {
                node: left_node,
                start: pending.start,
                end: mid,
                depth: pending.depth + 1,
            });
        }
        tree
    }

    /// [`TreeParts`] with the floats as bit patterns.
    type PartBits = (Vec<u32>, Vec<u64>, Vec<u32>, Vec<u32>, Vec<u64>);

    fn bits(parts: TreeParts) -> PartBits {
        let (split_col, threshold, left, right, value) = parts;
        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect();
        (split_col, bits(threshold), left, right, bits(value))
    }

    /// Both fitters from equal seeds: equal trees, bit for bit, and equal
    /// RNG states afterwards.
    fn assert_fitters_agree(
        config: &TreeConfig,
        feats: &[f64],
        width: usize,
        labels: &[f64],
        idx: &[u32],
        case: &str,
    ) -> RegressionTree {
        let rows = RowsView::new(feats, width);
        let (mut rng, mut ref_rng) = (SplitMix64::new(17), SplitMix64::new(17));
        let tree = RegressionTree::fit_on_indices(config, rows, labels, idx, &mut rng);
        let reference = fit_by_node_sort(config, rows, labels, idx, &mut ref_rng);
        assert_eq!(bits(tree.parts()), bits(reference.parts()), "{case}");
        assert_eq!(tree.depth, reference.depth, "{case}");
        assert_eq!(rng.next_u64(), ref_rng.next_u64(), "rng state: {case}");
        tree
    }

    /// One generated column value: constant, few-valued, signed zeros or
    /// continuous, by the column's `kind`.
    fn cell(kind: usize, rng: &mut SplitMix64) -> f64 {
        match kind {
            0 => 42.0,
            1 => rng.gen_range(3) as f64,
            2 => [0.0, -0.0, 1.0][rng.gen_range(3)],
            _ => rng.next_f64() * 8.0 - 4.0,
        }
    }

    #[test]
    fn presorted_fit_equals_the_per_node_sort_fit_on_generated_inputs() {
        let mut rng = SplitMix64::new(0x5eed_cafe);
        let (mut grown, mut nodes) = (0, 0);
        for case in 0..480 {
            let n = 1 + rng.gen_range(if case % 4 == 0 { 300 } else { 48 });
            let width = 1 + rng.gen_range(12);
            let kinds: Vec<usize> = (0..width).map(|_| rng.gen_range(5)).collect();
            let feats: Vec<f64> = (0..n * width)
                .map(|cell_at| cell(kinds[cell_at % width], &mut rng))
                .collect();
            // Few-valued labels every third case: equal gains must tie-break alike.
            let labels: Vec<f64> = (0..n)
                .map(|_| match case % 3 {
                    0 => rng.gen_range(4) as f64,
                    _ => rng.next_f64() * 10.0,
                })
                .collect();
            let idx: Vec<u32> = match case % 5 {
                0 => (0..n as u32).collect(),
                // A sample smaller or larger than the set.
                1 => (0..1 + rng.gen_range(2 * n))
                    .map(|_| rng.gen_range(n) as u32)
                    .collect(),
                _ => (0..n).map(|_| rng.gen_range(n) as u32).collect(),
            };
            let config = TreeConfig {
                max_depth: rng.gen_range(10),
                min_samples_split: 1 + rng.gen_range(6),
                min_samples_leaf: 1 + rng.gen_range(4),
                feature_candidates: match rng.gen_range(3) {
                    0 => None,
                    _ => Some(1 + rng.gen_range(width)),
                },
            };
            let case = format!("case {case}: {n} rows x {width} {kinds:?}, {config:?}");
            let tree = assert_fitters_agree(&config, &feats, width, &labels, &idx, &case);
            grown += usize::from(tree.depth >= 3);
            nodes += tree.n_nodes();
        }
        assert!(
            grown >= 100 && nodes >= 5000,
            "{grown} grown, {nodes} nodes"
        );
    }

    #[test]
    fn presorted_fit_equals_the_per_node_sort_fit_at_the_edges() {
        let deep = TreeConfig {
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let one_candidate = TreeConfig {
            feature_candidates: Some(1),
            ..deep
        };
        let mut rng = SplitMix64::new(77);
        let n = 40;
        let feats: Vec<f64> = (0..n * 3).map(|_| rng.next_f64()).collect();
        let labels: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let all: Vec<u32> = (0..n as u32).collect();
        for config in [&TreeConfig::default(), &deep, &one_candidate] {
            assert_fitters_agree(config, &[3.0, 1.0], 2, &[5.0], &[0], "one-row set");
            assert_fitters_agree(
                config,
                &[3.0, 1.0],
                2,
                &[5.0],
                &[0; 9],
                "one row, nine times",
            );
            let same = [1.5, -2.0].repeat(n);
            assert_fitters_agree(config, &same, 2, &labels, &all, "all rows identical");
            assert_fitters_agree(config, &feats, 3, &labels, &[7; 25], "one row repeated");
            let mut idx = all.clone();
            idx.extend_from_slice(&[11; 13]);
            assert_fitters_agree(
                config,
                &feats,
                3,
                &labels,
                &idx,
                "one row 14 times among all",
            );
            // Column 0 varies over the set but is 2.0 on every sampled (even) row.
            let mut half_constant = feats.clone();
            for (r, row) in half_constant.chunks_exact_mut(3).enumerate() {
                row[0] = if r % 2 == 0 { 2.0 } else { r as f64 };
            }
            let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
            assert_fitters_agree(
                config,
                &half_constant,
                3,
                &labels,
                &evens,
                "constant in the sample, not in the set",
            );
        }
    }

    #[test]
    fn learns_a_step_function_exactly() {
        // y = 0 for x < 5, y = 10 for x >= 5: one split suffices.
        let feats: Vec<f64> = (0..10).map(f64::from).collect();
        let labels: Vec<f64> = feats
            .iter()
            .map(|&x| if x < 5.0 { 0.0 } else { 10.0 })
            .collect();
        let cfg = TreeConfig {
            min_samples_leaf: 1,
            min_samples_split: 2,
            ..TreeConfig::default()
        };
        let tree = fit_all(&cfg, &feats, 1, &labels);
        for (x, y) in feats.iter().zip(&labels) {
            assert_eq!(tree.predict(&[*x]), *y);
        }
        assert_eq!(tree.n_leaves(), 2, "a single split explains the step");
    }

    #[test]
    fn respects_max_depth_zero() {
        let feats: Vec<f64> = (0..8).map(f64::from).collect();
        let labels = feats.clone();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = fit_all(&cfg, &feats, 1, &labels);
        assert_eq!(tree.n_nodes(), 1);
        let mean = labels.iter().sum::<f64>() / labels.len() as f64;
        assert!((tree.predict(&[3.0]) - mean).abs() < 1e-12);
    }

    #[test]
    fn splits_on_the_informative_column() {
        // Column 0 is noise-free signal, column 1 is constant.
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            feats.extend_from_slice(&[f64::from(i), 42.0]);
            labels.push(if i < 8 { -1.0 } else { 1.0 });
        }
        let tree = fit_all(&TreeConfig::default(), &feats, 2, &labels);
        assert_eq!(tree.parts().0[0], 0, "root must split the signal column");
        assert_eq!(tree.predict(&[2.0, 42.0]), -1.0);
        assert_eq!(tree.predict(&[13.0, 42.0]), 1.0);
    }

    #[test]
    fn refitting_identical_inputs_is_deterministic() {
        let mut rng = SplitMix64::new(99);
        let n = 64;
        let width = 5;
        let feats: Vec<f64> = (0..n * width).map(|_| rng.next_f64()).collect();
        let labels: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
        let cfg = TreeConfig {
            feature_candidates: Some(2),
            ..TreeConfig::default()
        };
        let rows = RowsView::new(&feats, width);
        let idx: Vec<u32> = (0..n as u32).collect();
        let a = RegressionTree::fit_on_indices(&cfg, rows, &labels, &idx, &mut SplitMix64::new(5));
        let b = RegressionTree::fit_on_indices(&cfg, rows, &labels, &idx, &mut SplitMix64::new(5));
        assert_eq!(a.parts(), b.parts());
    }

    #[test]
    fn parts_round_trip_is_bit_identical() {
        let feats: Vec<f64> = (0..32).map(f64::from).collect();
        let labels: Vec<f64> = feats.iter().map(|&x| (x * 0.7).sin()).collect();
        let tree = fit_all(&TreeConfig::default(), &feats, 1, &labels);
        let (sc, th, l, r, v) = tree.parts();
        let rebuilt = RegressionTree::from_parts(1, sc, th, l, r, v).unwrap();
        assert_eq!(rebuilt.depth, tree.depth, "depth is derived, not stored");
        assert_eq!(bits(rebuilt.parts()), bits(tree.parts()));
        for x in &feats {
            assert_eq!(
                tree.predict(&[*x]).to_bits(),
                rebuilt.predict(&[*x]).to_bits()
            );
        }
    }

    #[test]
    fn parts_write_leaves_canonically() {
        let tree = fit_all(&TreeConfig::default(), &[0.0, 1.0, 2.0, 3.0], 1, &[0.0; 4]);
        assert_eq!(tree.n_nodes(), 1, "constant labels: the root stays a leaf");
        assert_eq!(
            tree.parts(),
            (vec![LEAF], vec![0.0], vec![0], vec![0], vec![0.0])
        );
    }

    #[test]
    fn from_parts_rejects_non_adjacent_siblings() {
        // Forward, in range, finite — but right is not left + 1, which
        // the packed node cannot represent.
        let built = |left: u32, right: u32| {
            RegressionTree::from_parts(
                1,
                vec![0, LEAF, LEAF, LEAF],
                vec![0.5, 0.0, 0.0, 0.0],
                vec![left, 0, 0, 0],
                vec![right, 0, 0, 0],
                vec![0.0, 1.0, 2.0, 3.0],
            )
        };
        assert!(built(1, 2).is_ok());
        assert!(matches!(
            built(1, 3),
            Err(ModelImportError::BadChild { node: 0, child: 3 })
        ));
        assert!(matches!(
            built(2, 1),
            Err(ModelImportError::BadChild { node: 0, child: 1 })
        ));
        assert!(matches!(
            built(2, 2),
            Err(ModelImportError::BadChild { node: 0, child: 2 })
        ));
    }

    #[test]
    fn from_parts_derives_depth_from_the_longest_path() {
        // 0 → (1, 2); 2 → (3, 4); 4 → (5, 6): a right spine of depth 3.
        let tree = RegressionTree::from_parts(
            2,
            vec![0, LEAF, 1, LEAF, 0, LEAF, LEAF],
            vec![0.5, 0.0, 0.5, 0.0, 1.5, 0.0, 0.0],
            vec![1, 0, 3, 0, 5, 0, 0],
            vec![2, 0, 4, 0, 6, 0, 0],
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        assert_eq!(tree.depth, 3);
        assert_eq!(tree.n_leaves(), 4);
        assert_eq!(tree.predict(&[0.0, 9.0]), 1.0);
        assert_eq!(tree.predict(&[1.0, 0.0]), 3.0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 5.0);
        assert_eq!(tree.predict(&[2.0, 1.0]), 6.0);
        assert_eq!(tree.predict(&[f64::NAN, f64::NAN]), 6.0, "NaN goes right");
    }

    #[test]
    fn from_parts_rejects_malformed_trees() {
        // Empty.
        assert!(matches!(
            RegressionTree::from_parts(1, vec![], vec![], vec![], vec![], vec![]),
            Err(ModelImportError::Empty)
        ));
        // Array length drift.
        assert!(matches!(
            RegressionTree::from_parts(1, vec![LEAF], vec![0.0], vec![0], vec![0], vec![]),
            Err(ModelImportError::LengthMismatch { field: "value", .. })
        ));
        // No feature column at all.
        assert!(matches!(
            RegressionTree::from_parts(0, vec![LEAF], vec![0.0], vec![0], vec![0], vec![1.0]),
            Err(ModelImportError::WidthMismatch {
                expected: 1,
                got: 0
            })
        ));
        // Split column outside the width.
        assert!(matches!(
            RegressionTree::from_parts(
                1,
                vec![5, LEAF, LEAF],
                vec![0.5; 3],
                vec![1, 0, 0],
                vec![2, 0, 0],
                vec![0.0; 3]
            ),
            Err(ModelImportError::SplitColOutOfRange { node: 0, col: 5 })
        ));
        // Self-referencing child would loop forever in predict.
        assert!(matches!(
            RegressionTree::from_parts(
                1,
                vec![0, LEAF],
                vec![0.5, 0.0],
                vec![0, 0],
                vec![1, 0],
                vec![0.0, 1.0]
            ),
            Err(ModelImportError::BadChild { node: 0, child: 0 })
        ));
        // Child index past the end.
        assert!(matches!(
            RegressionTree::from_parts(
                1,
                vec![0, LEAF],
                vec![0.5, 0.0],
                vec![1, 0],
                vec![9, 0],
                vec![0.0, 1.0]
            ),
            Err(ModelImportError::BadChild { node: 0, child: 9 })
        ));
        // NaN leaf value.
        assert!(matches!(
            RegressionTree::from_parts(1, vec![LEAF], vec![0.0], vec![0], vec![0], vec![f64::NAN]),
            Err(ModelImportError::NonFinite { node: 0 })
        ));
    }

    #[test]
    fn midpoint_always_separates() {
        let lo = 1.0_f64;
        let hi = lo + f64::EPSILON; // adjacent representable values near 1
        let m = midpoint(lo, hi);
        assert!(lo <= m && m < hi);
    }
}
