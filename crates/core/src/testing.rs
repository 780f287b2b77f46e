//! Test doubles for the unit tests of [`crate::enumerate`]: a small
//! fixed-seed forest oracle, a counting oracle adapter, and seeded
//! registries with availability masks and missing channels.

use std::cell::Cell;

use robopt_plan::{OperatorKind, SplitMix64};
use robopt_platforms::{Platform, PlatformId, PlatformRegistry};
use robopt_vector::{FeatureLayout, RowsView};

use crate::dist::CostDistribution;
use crate::oracle::{AnalyticOracle, CostOracle};

/// A small fixed-seed forest over the analytic model: eight depth-3
/// trees split on per-platform input-tuple cells and scale the analytic
/// cost by their leaf, so rows rank non-linearly (pruning is lossy, as
/// under the trained forest) and the members disagree, which gives
/// `sigma2` a spread to act on.
pub(crate) struct TinyForest {
    analytic: AnalyticOracle,
    trees: Vec<Tree>,
}

/// A complete depth-3 tree: seven `(cell, threshold)` splits in
/// breadth-first order, then eight leaf scales.
type Tree = ([(usize, f64); 7], [f64; 8]);

impl TinyForest {
    pub(crate) fn new(registry: &PlatformRegistry, layout: &FeatureLayout, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let trees = (0..8)
            .map(|_| {
                let splits = std::array::from_fn(|_| {
                    let cell = layout.platform_input_tuples(rng.gen_range(registry.len()));
                    (cell, 10f64.powf(2.0 + 5.0 * rng.next_f64()))
                });
                (splits, std::array::from_fn(|_| 0.5 + rng.next_f64()))
            })
            .collect();
        TinyForest {
            analytic: AnalyticOracle::for_registry(registry, layout),
            trees,
        }
    }

    fn member(&self, tree: usize, feats: &[f64], base: f64) -> f64 {
        let (splits, leaves) = &self.trees[tree];
        let mut node = 0;
        for _ in 0..3 {
            let (cell, threshold) = splits[node];
            node = 2 * node + 1 + usize::from(feats[cell] > threshold);
        }
        base * leaves[node - splits.len()]
    }
}

impl CostOracle for TinyForest {
    fn width(&self) -> usize {
        self.analytic.width()
    }
    fn cost_row(&self, feats: &[f64]) -> f64 {
        let base = self.analytic.cost_row(feats);
        let sum: f64 = (0..self.trees.len())
            .map(|t| self.member(t, feats, base))
            .sum();
        sum / self.trees.len() as f64
    }
    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        let mut unpacked = Vec::new();
        let rows = rows.full(&mut unpacked);
        let members = self.trees.len();
        let samples = out.sample_scratch(rows.rows(), members);
        for r in 0..rows.rows() {
            let feats = rows.row(r);
            let base = self.analytic.cost_row(feats);
            for t in 0..members {
                samples[r * members + t] = self.member(t, feats, base);
            }
        }
        out.finalize_samples(members);
    }
}

/// Forwards every call to `inner` and counts the rows of its batch calls
/// (the staged rows the enumeration costs; `finish`'s one canonical
/// `cost_row` is not counted).
pub(crate) struct CountingOracle<'a> {
    inner: &'a dyn CostOracle,
    rows: Cell<u64>,
}

impl<'a> CountingOracle<'a> {
    pub(crate) fn new(inner: &'a dyn CostOracle) -> Self {
        CountingOracle {
            inner,
            rows: Cell::new(0),
        }
    }

    /// Rows costed by batch calls since the last take.
    pub(crate) fn take_rows(&self) -> u64 {
        self.rows.take()
    }
}

impl CostOracle for CountingOracle<'_> {
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn cost_row(&self, feats: &[f64]) -> f64 {
        self.inner.cost_row(feats)
    }
    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        self.rows.set(self.rows.get() + rows.rows() as u64);
        self.inner.cost_batch(rows, out);
    }
    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        self.rows.set(self.rows.get() + rows.rows() as u64);
        self.inner.cost_batch_dist(rows, out);
    }
}

/// `k` platforms with seeded costs: platform 0 runs every kind (so every
/// plan has a feasible assignment), every other platform loses about 30 %
/// of the kinds, and about half of the one-way channels are missing.
pub(crate) fn masked_registry(rng: &mut SplitMix64, k: usize) -> PlatformRegistry {
    let mut b = PlatformRegistry::builder();
    let ids: Vec<PlatformId> = (0..k)
        .map(|i| {
            b.add(
                Platform::new(&format!("m{i}"))
                    .with_fixed_cost(0.5 + rng.next_f64())
                    .with_tuple_rate(2e-6 * (0.5 + rng.next_f64())),
            )
        })
        .collect();
    for &platform in &ids[1..] {
        for kind in OperatorKind::ALL {
            if rng.next_f64() < 0.3 {
                b.forbid(platform, kind);
            }
        }
    }
    for &from in &ids {
        for &to in &ids {
            if from != to && rng.next_f64() < 0.5 {
                b.connect_directed(from, to, 5.0, 8e-6 * (0.5 + rng.next_f64()));
            }
        }
    }
    b.build()
}
