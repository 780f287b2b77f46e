//! The TDGEN generator: shape templates × β-bounded assignments ×
//! interpolated runtime curves, behind the [`TrainingSource`] API.
//!
//! One *curve* is a (skeleton, assignment) pair swept over input scales.
//! The simulator runs only at the log-spaced knot scales; every other row
//! of the curve carries a label synthesized from the piecewise degree-5
//! log-log fit ([`crate::interpolate::PiecewisePoly`]). With [`KNOTS`] = 11
//! and [`ROWS_PER_CURVE`] = 64 each simulator call yields ~5.8 training
//! rows — the Fig-8 reduction — and [`TdgenStats`] reports the exact
//! ratio achieved.
//!
//! Rows are buffered flat, in a [`TrainingSet`]: every row is vectorized
//! into one reused scratch row and appended, and `generate(n)` splits the
//! buffer at row `n` — the head *is* the returned set, only the leftover
//! tail (under one skeleton's rows) is copied. The matrix exists once.

use robopt_core::vectorize::vectorize_assignment;
use robopt_ml::{TrainingSet, TrainingSource};
use robopt_plan::rng::SplitMix64;
use robopt_platforms::{PlatformRegistry, RuntimeSimulator};
use robopt_vector::FeatureLayout;

use crate::interpolate::{log_knots, PiecewisePoly, WINDOW};
use crate::shapes::{sample_skeleton, ShapeKind};
use crate::switches::sample_assignment;

/// Maximum platform switches along any source→sink path: the paper's β.
pub const BETA: usize = 3;
/// Input-scale range `[lo, hi]` (tuples) every curve sweeps.
pub const SCALE_RANGE: (f64, f64) = (1e4, 1e9);
/// Simulator noise amplitude. Noise is keyed per (operator, platform), not
/// per scale, so curves stay smooth and interpolable.
pub const NOISE: f64 = 0.05;
/// Knots per curve: the scales actually simulated, log-spaced over
/// [`SCALE_RANGE`].
pub const KNOTS: usize = 11;
/// Operator-count range `(min, max)` per skeleton, inclusive (shapes raise
/// the lower end to their structural minimum): small skeletons resemble
/// the subplans the enumerator costs mid-search.
pub const OPS_RANGE: (usize, usize) = (4, 14);
/// Rows emitted per curve, [`KNOTS`] simulated and the rest interpolated:
/// ≈ 5.8 rows per simulator call.
pub const ROWS_PER_CURVE: usize = 64;
/// Candidate assignments drawn per skeleton (one curve each).
const ASSIGNMENTS_PER_SKELETON: usize = 4;

// Windows of `WINDOW` knots share their boundary knots, and every knot is
// also a row of its curve.
const _: () =
    assert!(KNOTS >= WINDOW && (KNOTS - 1).is_multiple_of(WINDOW - 1) && ROWS_PER_CURVE >= KNOTS);

/// The one setting of a [`TdgenGenerator`]: the seed for skeleton
/// sampling, assignment choice, scale placement and simulator noise. Every
/// other parameter is one of this module's consts.
#[derive(Debug, Clone)]
pub struct TdgenConfig {
    seed: u64,
}

impl TdgenConfig {
    /// The default seed.
    pub fn new() -> Self {
        TdgenConfig { seed: 0x7d9e_0001 }
    }

    /// Draw from `seed` instead.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TdgenConfig {
    fn default() -> Self {
        TdgenConfig::new()
    }
}

/// Work counters of one [`TdgenGenerator`] — the Fig-8 bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TdgenStats {
    /// Simulator invocations (one per knot per curve).
    pub sim_calls: u64,
    /// Training rows produced (counted when a curve materializes them;
    /// rows buffered for a later `generate` call are already included).
    pub rows: u64,
    /// Curves completed (knot sweep + fit).
    pub curves: u64,
    /// Skeletons sampled.
    pub skeletons: u64,
}

impl TdgenStats {
    /// Rows produced per simulator call — the label-generation speedup
    /// over direct labelling (which is 1 row per call by definition).
    pub fn reduction(&self) -> f64 {
        if self.sim_calls == 0 {
            return 0.0;
        }
        self.rows as f64 / self.sim_calls as f64
    }
}

/// The TDGEN [`TrainingSource`]: labels most rows by interpolation.
///
/// Deterministic for a fixed `(registry, layout, seed)` and call sequence;
/// successive [`TrainingSource::generate`] calls continue the stream
/// (rows left over from a partially-consumed curve are buffered, never
/// dropped, so the reduction statistic reflects all simulated work).
#[derive(Debug, Clone)]
pub struct TdgenGenerator<'a> {
    registry: &'a PlatformRegistry,
    layout: FeatureLayout,
    rng: SplitMix64,
    sim_seed: u64,
    stats: TdgenStats,
    /// Rows produced and not yet handed out, flat: what `generate` returns
    /// is the head of this set itself, never a copy of it.
    pending: TrainingSet,
    /// The row being vectorized, reused for every row.
    row: Vec<f64>,
}

impl<'a> TdgenGenerator<'a> {
    /// A generator over `registry`, encoding rows with `layout`.
    pub fn new(registry: &'a PlatformRegistry, layout: FeatureLayout, cfg: TdgenConfig) -> Self {
        assert_eq!(
            layout.n_platforms,
            registry.len(),
            "layout platform count must match the registry"
        );
        let rng = SplitMix64::new(cfg.seed);
        let sim_seed = cfg.seed ^ 0x51d7;
        TdgenGenerator {
            registry,
            layout,
            rng,
            sim_seed,
            stats: TdgenStats::default(),
            pending: TrainingSet::empty(layout),
            row: Vec::with_capacity(layout.width),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> TdgenStats {
        self.stats
    }

    /// Candidate assignments for one skeleton, **stratified by switch
    /// budget**: the i-th candidate is drawn with β clamped to
    /// `i mod (β + 1)`, so every skeleton contributes homogeneous
    /// (0-switch) and near-homogeneous curves alongside multi-switch
    /// ones. Optimal plans live in the low-switch region, and a uniform
    /// β-bounded walk almost never lands there — without stratification
    /// the model never learns the region the optimizer queries hardest.
    fn pick_assignments(&mut self, skel: &crate::shapes::JobSkeleton) -> Vec<Vec<u8>> {
        let mut picked: Vec<Vec<u8>> = Vec::with_capacity(ASSIGNMENTS_PER_SKELETON);
        for i in 0..ASSIGNMENTS_PER_SKELETON {
            let budget = i % (BETA + 1);
            let drawn =
                sample_assignment(skel, self.registry, budget, &mut self.rng, 64).or_else(|| {
                    // A tight budget can be structurally infeasible (e.g.
                    // no single platform covers every kind on a path);
                    // retry at the full β before giving up on this slot.
                    sample_assignment(skel, self.registry, BETA, &mut self.rng, 64)
                });
            match drawn {
                Some(a) if !picked.contains(&a) => picked.push(a),
                _ => {}
            }
        }
        picked
    }

    /// Generate one curve for (skeleton, assignment): simulate the knots,
    /// fit the piecewise polynomial, synthesize the interpolated rows.
    /// Returns `false` if any knot simulated to a non-finite runtime.
    fn generate_curve(
        &mut self,
        skel: &crate::shapes::JobSkeleton,
        assign: &[u8],
        sim: &RuntimeSimulator<'_>,
        knot_scales: &[f64],
    ) -> bool {
        let mut ln_xs = Vec::with_capacity(knot_scales.len());
        let mut ys = Vec::with_capacity(knot_scales.len());
        let buffered = self.pending.len();
        for &scale in knot_scales {
            let plan = skel.instantiate(scale);
            let seconds = sim.simulate_raw(&plan, assign);
            self.stats.sim_calls += 1;
            if !seconds.is_finite() {
                self.pending.truncate(buffered);
                return false;
            }
            vectorize_assignment(&plan, &self.layout, assign, &mut self.row);
            ln_xs.push(scale.ln());
            ys.push(seconds.ln_1p());
            self.pending
                .push_labelled(&self.row, seconds.ln_1p(), seconds);
        }
        let poly = PiecewisePoly::fit(&ln_xs, &ys);
        let (lln, hln) = (ln_xs[0], ln_xs[ln_xs.len() - 1]);
        for _ in 0..ROWS_PER_CURVE - knot_scales.len() {
            let ln_s = lln + (hln - lln) * self.rng.next_f64();
            let label = poly.eval(ln_s);
            let seconds = TrainingSet::label_to_seconds(label);
            let plan = skel.instantiate(ln_s.exp());
            vectorize_assignment(&plan, &self.layout, assign, &mut self.row);
            self.pending.push_labelled(&self.row, label, seconds);
        }
        self.stats.curves += 1;
        self.stats.rows += ROWS_PER_CURVE as u64;
        true
    }

    /// Produce curves until at least `n` rows are buffered.
    fn refill(&mut self, n: usize) {
        let sim = RuntimeSimulator::new(self.registry, self.sim_seed).with_noise(NOISE);
        let knot_scales = log_knots(SCALE_RANGE.0, SCALE_RANGE.1, KNOTS);
        while self.pending.len() < n {
            let shape = ShapeKind::ALL[self.rng.gen_range(ShapeKind::ALL.len())];
            let (min_ops, max_ops) = OPS_RANGE;
            let n_ops = min_ops + self.rng.gen_range(max_ops - min_ops + 1);
            let skel = sample_skeleton(&mut self.rng, self.registry, shape, n_ops);
            self.stats.skeletons += 1;
            for assign in self.pick_assignments(&skel) {
                self.generate_curve(&skel, &assign, &sim, &knot_scales);
            }
        }
    }
}

impl TrainingSource for TdgenGenerator<'_> {
    fn layout(&self) -> FeatureLayout {
        self.layout
    }

    fn generate(&mut self, n: usize) -> TrainingSet {
        self.refill(n);
        let leftover = self.pending.split_off(n);
        std::mem::replace(&mut self.pending, leftover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::N_OPERATOR_KINDS;

    fn named_setup() -> (PlatformRegistry, FeatureLayout) {
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        (registry, layout)
    }

    #[test]
    fn generates_the_requested_row_count() {
        let (registry, layout) = named_setup();
        let set = TdgenGenerator::new(&registry, layout, TdgenConfig::new()).generate(100);
        assert_eq!(set.len(), 100);
        assert_eq!(set.width(), layout.width);
        assert!(set.seconds.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert!(set.labels.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn reduction_beats_direct_labelling() {
        let (registry, layout) = named_setup();
        let mut g = TdgenGenerator::new(&registry, layout, TdgenConfig::new());
        let _ = g.generate(200);
        let stats = g.stats();
        assert!(stats.sim_calls > 0 && stats.curves > 0 && stats.skeletons > 0);
        // 64 rows per 11-knot curve: 5.8 rows per sim call, less only for
        // curves dropped on a non-finite knot.
        assert!(
            stats.reduction() > 5.0,
            "reduction {} must beat direct labelling",
            stats.reduction()
        );
    }

    #[test]
    fn successive_calls_continue_the_stream() {
        let (registry, layout) = named_setup();
        let cfg = TdgenConfig::new().with_seed(9);
        let mut g = TdgenGenerator::new(&registry, layout, cfg.clone());
        let first = g.generate(40);
        let second = g.generate(40);
        assert_ne!(first.labels, second.labels, "no repeated draws");
        let both = TdgenGenerator::new(&registry, layout, cfg).generate(80);
        assert_eq!(&both.labels[..40], &first.labels[..]);
        assert_eq!(&both.labels[40..], &second.labels[..]);
    }

    /// Pinned at the last commit that buffered one `Vec` per pending row:
    /// the rows handed out, the rows left over for the next call and the
    /// counters are the same whatever the buffer looks like.
    #[test]
    fn successive_calls_hand_out_the_pinned_rows_labels_and_seconds() {
        let (registry, layout) = named_setup();
        let mut g = TdgenGenerator::new(&registry, layout, TdgenConfig::new().with_seed(41));
        // The third call refills on top of what the first two left over.
        let sets = [g.generate(300), g.generate(100), g.generate(150)];
        let mut digest = robopt_vector::SigHasher::new();
        for set in &sets {
            assert_eq!(set.rows.len(), set.len() * layout.width);
            assert_eq!(set.seconds.len(), set.len());
            for column in [&set.rows, &set.labels, &set.seconds] {
                digest.write_u64(column.len() as u64);
                for &x in column {
                    digest.write_f64_bits(x);
                }
            }
        }
        assert_eq!(digest.finish(), 0xf60f_b6c0_c7ad_07fe);
        assert_eq!(
            g.stats(),
            TdgenStats {
                sim_calls: 132,
                rows: 768,
                curves: 12,
                skeletons: 3,
            }
        );
    }

    #[test]
    fn source_is_object_safe_and_swappable() {
        let (registry, layout) = named_setup();
        let mut tdgen = TdgenGenerator::new(&registry, layout, TdgenConfig::new());
        let mut direct = robopt_ml::SimulatorSource::new(&registry, layout, 7, 0.05);
        let sources: [&mut dyn TrainingSource; 2] = [&mut tdgen, &mut direct];
        for source in sources {
            let set = source.generate(16);
            assert_eq!(set.len(), 16);
            assert_eq!(set.width(), layout.width);
        }
    }
}
