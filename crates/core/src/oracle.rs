//! The pluggable cost model.
//!
//! Both enumerators (vector-based and the object-graph baselines) cost plans
//! through the same [`CostOracle`], so Fig-1 benchmarks isolate the
//! *enumeration representation*, exactly as the paper's comparison against
//! the "Rheem-ML" strawman requires. Costing is **batched**: the enumerators
//! stage every candidate row of a merge step and issue one
//! [`CostOracle::cost_batch`] call, which is the entry point the random
//! forest in `crates/ml` needs (per-row virtual dispatch would lock out
//! batched tree inference).
//!
//! The analytic oracle here is the stub standing in for the random forest:
//! a linear functional over the plan vector with weights derived from a
//! [`PlatformRegistry`] — per-platform cost scales from the platform
//! descriptors and conversion weights aggregated from the COT, instead of
//! the hard-coded per-platform factor table of PR 1. Its batch path is not
//! one flat pass: it walks four rows' sums in lock-step, and it reads the
//! enumerator's packed rows as they are stored — `weights[run]` against the
//! consecutive cells of the row, run after run ([`RowsView::runs`]) — so each
//! row's sum still adds its terms in ascending column order and equals
//! `cost_row` on the unpacked row bit for bit (DESIGN §5). Any linear cost
//! model behind this trait can do the same; a model that indexes a row by
//! full-layout cell calls [`RowsView::full`] first, as the default methods do.

use robopt_plan::N_OPERATOR_KINDS;
use robopt_platforms::PlatformRegistry;
use robopt_vector::{FeatureLayout, RowsView};

use crate::dist::CostDistribution;

/// A cost model consuming plan-vector rows.
///
/// Object-safe by design: enumerators and baselines take `&dyn CostOracle`,
/// so the analytic model, the learned forest (`robopt_ml::RandomForest`
/// behind `robopt_ml::ModelOracle`) and test doubles are interchangeable
/// without monomorphizing a copy of the enumeration loop per model.
///
/// `Sync` is a supertrait: the parallel enumerator shares one
/// `&dyn CostOracle` across its worker threads (costing is read-only), so
/// every oracle must be safe to call concurrently. All in-tree models
/// already are — they hold only immutable weight tables.
pub trait CostOracle: Sync {
    /// Width of the feature rows this oracle expects — the
    /// [`FeatureLayout::width`] it was built against. Both batch paths
    /// validate incoming rows against it, killing the silent wrong-layout
    /// class (a model trained on a 3-platform layout costing 5-platform
    /// rows) the same way `PlatformId` killed id wraparound.
    fn width(&self) -> usize;

    /// Estimated runtime cost of the (sub)plan encoded by `feats`.
    fn cost_row(&self, feats: &[f64]) -> f64;

    /// Cost every row of `rows` into `out` (cleared first; `out[r]` is the
    /// cost of full-layout row `r`). The default implementation loops
    /// [`CostOracle::cost_row`]; batch-capable models (the random forest,
    /// the linear oracle) override it with a lock-step walk over several
    /// rows. Overrides must keep the width check (`debug_assert_eq!` against
    /// [`CostOracle::width`]) and must take a packed view: the enumerator
    /// sends nothing else. [`RowsView::full`] unpacks one (and is free on a
    /// full view), which is all the default does about it.
    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to an oracle expecting {}",
            rows.width(),
            self.width()
        );
        let mut unpacked = Vec::new();
        let rows = rows.full(&mut unpacked);
        out.clear();
        out.reserve(rows.rows());
        for r in 0..rows.rows() {
            out.push(self.cost_row(rows.row(r)));
        }
    }

    /// Cost every row of `rows` into `out` as a *distribution* (DESIGN
    /// §12). The default treats the oracle as a point estimator: the mean
    /// column is exactly [`CostOracle::cost_batch`] and the spread is
    /// degenerate (`std = 0`, quantiles equal to the mean), so every
    /// existing oracle — the analytic model included — is a valid
    /// distributional oracle without writing a line. Ensemble models
    /// override this with one pass that keeps the per-member spread; the
    /// mean column must stay bit-identical to `cost_batch`.
    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to an oracle expecting {}",
            rows.width(),
            self.width()
        );
        self.cost_batch(rows, &mut out.mean);
        out.fill_point_from_mean();
    }
}

/// Per-kind fixed-cost scale (startup/instantiation weight of one operator).
#[inline]
fn kind_base(kind: usize) -> f64 {
    0.5 + (kind % 7) as f64 * 0.3
}

/// Deterministic analytic cost model over the Fig-5 layout, derived from a
/// [`PlatformRegistry`].
///
/// Linear in the additive cells. The two max cells carry weight 0 so that
/// Def-2 boundary pruning is *exactly* lossless under this oracle (two rows
/// with equal footprints receive identical future additions, and a linear
/// functional preserves their cost order — the Lemma-1 property tests rely
/// on this).
///
/// Weight provenance:
///
/// * per (kind, platform) instance count — `kind_base(kind) ·
///   Platform::fixed_cost`;
/// * per-platform effective input tuples — `Platform::tuple_rate`;
/// * per-platform conversion count / converted tuples — the COT's mean
///   inbound fixed / per-tuple path costs into that platform (the Fig-5
///   layout only has per-*destination* aggregate conversion cells, so the
///   linear oracle prices the COT in aggregate; the enumerator separately
///   *excludes* pairs with no conversion path at all).
#[derive(Debug, Clone)]
pub struct AnalyticOracle {
    weights: Vec<f64>,
}

impl AnalyticOracle {
    /// Derive the oracle weights for `layout` from `registry`. The layout's
    /// platform dimension must match the registry size.
    pub fn for_registry(registry: &PlatformRegistry, layout: &FeatureLayout) -> Self {
        assert_eq!(layout.n_kinds, N_OPERATOR_KINDS);
        assert_eq!(
            layout.n_platforms,
            registry.len(),
            "feature layout sized for {} platforms but the registry holds {}",
            layout.n_platforms,
            registry.len()
        );
        let mut w = vec![0.0; layout.width];
        w[FeatureLayout::OP_COUNT] = 0.01;
        w[FeatureLayout::JUNCTURE_COUNT] = 0.02;
        // Max cells deliberately 0.0 — see the struct docs.
        w[FeatureLayout::MAX_OUT_CARD] = 0.0;
        w[FeatureLayout::MAX_TUPLE_WIDTH] = 0.0;
        for kind in 0..layout.n_kinds {
            w[layout.kind_count(kind)] = 0.1;
            w[layout.kind_in_tuples(kind)] = 1e-7;
            w[layout.kind_out_tuples(kind)] = 1e-7;
        }
        for id in registry.ids() {
            let p = id.index();
            debug_assert!(p < layout.n_platforms, "{id} outside the layout");
            let desc = registry.platform(id);
            // Every weight below is derived from descriptor data; a NaN or
            // infinite one would yield NaN costs that `total_cmp` silently
            // ranks, and `cost_batch` skips zero cells on the strength of
            // `w · 0.0` being a zero.
            let mut set = |cell: usize, weight: f64| {
                assert!(
                    weight.is_finite(),
                    "non-finite oracle weight {weight} for platform {:?} at cell {cell}",
                    desc.name
                );
                w[cell] = weight;
            };
            for kind in 0..layout.n_kinds {
                // Fixed per-instance cost of running this kind on platform p.
                set(
                    layout.kind_platform_count(kind, p),
                    kind_base(kind) * desc.fixed_cost,
                );
            }
            // Conversions carry a fixed setup cost plus a per-tuple cost
            // (COT aggregates), so platform switches only pay off on large
            // enough subplans.
            let cot = registry.conversions();
            set(layout.conversion_count(p), cot.mean_inbound_fixed(id));
            set(layout.conversion_tuples(p), cot.mean_inbound_per_tuple(id));
            set(layout.platform_input_tuples(p), desc.tuple_rate);
        }
        AnalyticOracle { weights: w }
    }

    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl CostOracle for AnalyticOracle {
    #[inline]
    fn width(&self) -> usize {
        self.weights.len()
    }

    #[inline]
    fn cost_row(&self, feats: &[f64]) -> f64 {
        debug_assert_eq!(feats.len(), self.weights.len());
        let mut acc = 0.0;
        for (&w, &x) in self.weights.iter().zip(feats) {
            acc += w * x;
        }
        acc
    }

    /// The linear-model analogue of batched forest inference: rows go four
    /// at a time, one pass over the weights feeding four accumulators, so
    /// the four `acc += w·x` chains — each strictly serial, which is what
    /// keeps a row's sum the sum [`CostOracle::cost_row`] computes, bit for
    /// bit — overlap instead of queueing one row after another. A packed
    /// view is walked as stored: run by run, `weights[run]` against the next
    /// `run.len()` cells of the row (a full view is the one run `0..width`).
    /// Those are `cost_row`'s terms on the unpacked row, in its order, minus
    /// the ones for columns the view does not store — each `w · 0.0 = ±0.0`
    /// for the finite weights [`AnalyticOracle::for_registry`] admits, and
    /// `acc + ±0.0` is `acc` for every value the chain can hold: it starts
    /// at `+0.0` and a sum is `−0.0` only when both operands are.
    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        debug_assert_eq!(
            rows.width(),
            self.width(),
            "batch rows of width {} fed to an oracle expecting {}",
            rows.width(),
            self.width()
        );
        let whole = 0..self.weights.len();
        let runs = rows.runs().unwrap_or(std::slice::from_ref(&whole));
        let stride = rows.stride();
        out.clear();
        out.reserve(rows.rows());
        let mut blocks = rows.cells().chunks_exact(4 * stride);
        for block in &mut blocks {
            let (r0, rest) = block.split_at(stride);
            let (r1, rest) = rest.split_at(stride);
            let (r2, r3) = rest.split_at(stride);
            let mut acc = [0.0; 4];
            let mut at = 0;
            for run in runs {
                let stored = at..at + run.len();
                at = stored.end;
                let lanes = self.weights[run.clone()]
                    .iter()
                    .zip(&r0[stored.clone()])
                    .zip(&r1[stored.clone()])
                    .zip(&r2[stored.clone()])
                    .zip(&r3[stored]);
                for ((((&w, &x0), &x1), &x2), &x3) in lanes {
                    acc[0] += w * x0;
                    acc[1] += w * x1;
                    acc[2] += w * x2;
                    acc[3] += w * x3;
                }
            }
            out.extend_from_slice(&acc);
        }
        for row in blocks.remainder().chunks_exact(stride) {
            let mut acc = 0.0;
            let mut at = 0;
            for run in runs {
                let stored = at..at + run.len();
                at = stored.end;
                for (&w, &x) in self.weights[run.clone()].iter().zip(&row[stored]) {
                    acc += w * x;
                }
            }
            out.push(acc);
        }
    }
}

/// Convenience: the uniform-registry oracle used by tests and benchmarks
/// that do not care about availability or named platforms.
pub fn uniform_oracle(layout: &FeatureLayout) -> (PlatformRegistry, AnalyticOracle) {
    let registry = PlatformRegistry::uniform(layout.n_platforms);
    let oracle = AnalyticOracle::for_registry(&registry, layout);
    (registry, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::SplitMix64;

    #[test]
    fn oracle_is_linear_and_deterministic() {
        let layout = FeatureLayout::new(3, N_OPERATOR_KINDS);
        let registry = PlatformRegistry::uniform(3);
        let o1 = AnalyticOracle::for_registry(&registry, &layout);
        let o2 = AnalyticOracle::for_registry(&registry, &layout);
        assert_eq!(o1.weights(), o2.weights());
        let a = vec![1.0; layout.width];
        let b = vec![2.0; layout.width];
        let cost_sum = o1.cost_row(&a) + o1.cost_row(&b);
        let ab: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert!((o1.cost_row(&ab) - cost_sum).abs() < 1e-9);
    }

    #[test]
    fn platforms_are_cost_asymmetric() {
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let registry = PlatformRegistry::uniform(2);
        let o = AnalyticOracle::for_registry(&registry, &layout);
        let w = o.weights();
        assert_ne!(
            w[layout.kind_platform_count(3, 0)],
            w[layout.kind_platform_count(3, 1)]
        );
    }

    #[test]
    fn named_registry_weights_follow_descriptors_and_cot() {
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let o = AnalyticOracle::for_registry(&registry, &layout);
        let w = o.weights();
        let java = registry.by_name("java").unwrap();
        let spark = registry.by_name("spark").unwrap();
        // Per-instance fixed weights scale with the descriptor.
        assert!(
            w[layout.kind_platform_count(3, spark.index())]
                > w[layout.kind_platform_count(3, java.index())]
        );
        // Per-tuple weight is the descriptor's rate verbatim.
        assert_eq!(
            w[layout.platform_input_tuples(java.index())],
            registry.platform(java).tuple_rate
        );
        // Conversion weights come from the COT aggregation.
        assert_eq!(
            w[layout.conversion_count(java.index())],
            registry.conversions().mean_inbound_fixed(java)
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "oracle expecting"))]
    fn wrong_width_batch_is_rejected_in_debug() {
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let (_, oracle) = uniform_oracle(&layout);
        let buf = vec![0.0; (layout.width + 1) * 2];
        let mut out = Vec::new();
        oracle.cost_batch(RowsView::new(&buf, layout.width + 1), &mut out);
        // Release builds skip the debug_assert; the test is vacuous there.
    }

    #[test]
    #[should_panic(expected = "registry holds")]
    fn layout_registry_size_mismatch_is_rejected() {
        let layout = FeatureLayout::new(3, N_OPERATOR_KINDS);
        let registry = PlatformRegistry::uniform(2);
        AnalyticOracle::for_registry(&registry, &layout);
    }

    /// The lock-step kernel against its reference, `cost_row` on the full
    /// row: same bits for every tail length, on packed rows, on the same
    /// rows unpacked, and on a packed view whose one run is the whole row.
    #[test]
    fn cost_batch_on_packed_rows_equals_cost_row_on_the_unpacked_rows_bitwise() {
        let mut rng = SplitMix64::new(0x0023_11FE);
        for k in [1, 5, 8] {
            let width = FeatureLayout::new(k, N_OPERATOR_KINDS).width;
            assert!([103, 211, 292].contains(&width));
            // Signed weights: an unstored `w · (+0.0)` is `−0.0` for `w < 0`.
            let oracle = AnalyticOracle {
                weights: (0..width).map(|_| rng.next_f64() * 4.0 - 2.0).collect(),
            };
            for n_rows in 0..=9 {
                // Random ascending, disjoint runs.
                let mut runs = Vec::new();
                let mut col = rng.gen_range(6);
                while col < width {
                    let end = (col + 1 + rng.gen_range(12)).min(width);
                    runs.push(col..end);
                    col = end + rng.gen_range(20);
                }
                let stride: usize = runs.iter().map(|run| run.len()).sum();
                let cells: Vec<f64> = (0..n_rows * stride)
                    .map(|_| (rng.next_f64() - 0.3) * 1e6)
                    .collect();
                let packed = RowsView::new(&cells, stride).packed(&runs, width);
                let mut full = Vec::new();
                let unpacked = packed.full(&mut full);
                let whole = 0..width;
                let whole = std::slice::from_ref(&whole);
                let want: Vec<u64> = (0..n_rows)
                    .map(|r| oracle.cost_row(unpacked.row(r)).to_bits())
                    .collect();
                let views = [packed, unpacked, unpacked.packed(whole, width)];
                let (mut got, mut dist) = (Vec::new(), CostDistribution::new());
                for (form, view) in views.into_iter().enumerate() {
                    oracle.cost_batch(view, &mut got);
                    oracle.cost_batch_dist(view, &mut dist);
                    for column in [&got, &dist.mean, &dist.q10, &dist.q50, &dist.q90] {
                        let column: Vec<u64> = column.iter().map(|c| c.to_bits()).collect();
                        assert_eq!(column, want, "k={k} rows={n_rows} form={form}");
                    }
                    assert!(dist.std.iter().all(|&s| s == 0.0));
                }
            }
        }
    }

    /// A `CostOracle` that overrides nothing reads a packed view through the
    /// default methods' unpack.
    #[test]
    fn default_batch_methods_unpack_a_packed_view() {
        struct FirstAndLast;
        impl CostOracle for FirstAndLast {
            fn width(&self) -> usize {
                5
            }
            fn cost_row(&self, feats: &[f64]) -> f64 {
                assert_eq!(feats.len(), 5);
                feats[0] + 10.0 * feats[4] + 100.0 * feats[1]
            }
        }
        let runs = [0..1, 3..5];
        let cells = [1.0, 7.0, 2.0, 3.0, 8.0, 4.0];
        let packed = RowsView::new(&cells, 3).packed(&runs, 5);
        let mut out = Vec::new();
        FirstAndLast.cost_batch(packed, &mut out);
        assert_eq!(out, [21.0, 43.0]);
        let mut dist = CostDistribution::new();
        FirstAndLast.cost_batch_dist(packed, &mut dist);
        assert_eq!(dist.mean, [21.0, 43.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite oracle weight NaN for platform \"broken\"")]
    fn non_finite_weight_is_refused_at_construction() {
        use robopt_platforms::Platform;
        let mut b = PlatformRegistry::builder();
        b.add(Platform::new("fine"));
        b.add(Platform::new("broken").with_fixed_cost(f64::NAN));
        let registry = b.build();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        AnalyticOracle::for_registry(&registry, &layout);
    }

    #[test]
    fn shipped_registries_derive_finite_weights() {
        let named = PlatformRegistry::named();
        let registries = (1..=8).map(PlatformRegistry::uniform).chain([named]);
        for registry in registries {
            let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
            let oracle = AnalyticOracle::for_registry(&registry, &layout);
            assert!(oracle.weights().iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn default_dist_batch_is_the_degenerate_point_distribution() {
        let layout = FeatureLayout::new(2, N_OPERATOR_KINDS);
        let (_, oracle) = uniform_oracle(&layout);
        let rows = 5;
        let mut buf = vec![0.0; rows * layout.width];
        for (i, cell) in buf.iter_mut().enumerate() {
            *cell = (i % 11) as f64 * 0.25;
        }
        let view = RowsView::new(&buf, layout.width);
        let mut point = Vec::new();
        let mut dist = CostDistribution::new();
        oracle.cost_batch(view, &mut point);
        oracle.cost_batch_dist(view, &mut dist);
        assert_eq!(dist.len(), rows);
        for (r, p) in point.iter().enumerate() {
            assert_eq!(dist.mean[r].to_bits(), p.to_bits(), "row {r}");
            assert_eq!(dist.std[r], 0.0);
            assert_eq!(dist.q10[r].to_bits(), p.to_bits());
            assert_eq!(dist.q50[r].to_bits(), p.to_bits());
            assert_eq!(dist.q90[r].to_bits(), p.to_bits());
        }
    }
}
