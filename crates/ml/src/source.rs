//! The training-data contract: [`TrainingSet`] (a labelled plan-vector
//! matrix that knows its own [`FeatureLayout`]) and [`TrainingSource`]
//! (anything that can produce one on demand).
//!
//! The trait is the seam between *model fitting* and *label provenance*:
//! `RandomForest::fit_on` and the experiment binaries consume a `TrainingSet`
//! and never care whether its labels came from direct simulator calls
//! ([`crate::training::SimulatorSource`]) or from TDGEN's interpolated
//! curves (`robopt_tdgen::TdgenGenerator`). Both implement
//! [`TrainingSource`]; swapping one for the other is a one-line change at
//! every call site. The trait is object-safe — harnesses hold
//! `&mut dyn TrainingSource` to sweep over sources.

use robopt_vector::{FeatureLayout, RowsView};

/// A labelled training matrix: `len()` rows of `layout.width` features,
/// with labels in both log space (what models fit) and raw seconds (what
/// q-error and end-to-end comparisons need).
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// The Fig-5 layout every row is encoded with. Carrying it here (not
    /// as a side-channel argument) is what lets [`TrainingSet::rows_view`]
    /// know its width and lets sources be swapped without re-plumbing.
    pub layout: FeatureLayout,
    /// Row-major `len() * layout.width` feature matrix.
    pub rows: Vec<f64>,
    /// Fit targets: [`TrainingSet::seconds_to_label`] per row.
    pub labels: Vec<f64>,
    /// Runtime in seconds per row (simulated or interpolated).
    pub seconds: Vec<f64>,
}

impl TrainingSet {
    /// An empty set over `layout`.
    pub fn empty(layout: FeatureLayout) -> TrainingSet {
        TrainingSet::with_capacity(layout, 0)
    }

    /// An empty set with room for `n` rows.
    pub fn with_capacity(layout: FeatureLayout, n: usize) -> TrainingSet {
        TrainingSet {
            layout,
            rows: Vec::with_capacity(n * layout.width),
            labels: Vec::with_capacity(n),
            seconds: Vec::with_capacity(n),
        }
    }

    /// Feature row width (`layout.width`).
    #[inline]
    pub fn width(&self) -> usize {
        self.layout.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the set has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Append one row labelled with a *measured* runtime: the fit target
    /// is [`TrainingSet::seconds_to_label`] of it.
    pub fn push_simulated(&mut self, feats: &[f64], seconds: f64) {
        self.push_labelled(feats, TrainingSet::seconds_to_label(seconds), seconds);
    }

    /// Append one row with an explicit log-space label (TDGEN's
    /// interpolated rows carry a synthesized label, not a measurement;
    /// `seconds` is its inverse transform).
    pub fn push_labelled(&mut self, feats: &[f64], label: f64, seconds: f64) {
        assert_eq!(feats.len(), self.layout.width, "feature row width mismatch");
        self.rows.extend_from_slice(feats);
        self.labels.push(label);
        self.seconds.push(seconds);
    }

    /// Borrow the feature matrix as a [`RowsView`].
    pub fn rows_view(&self) -> RowsView<'_> {
        RowsView::new(&self.rows, self.layout.width)
    }

    /// The first `n` rows as an independent set — the Fig-9 sweep trains
    /// on growing prefixes of one draw so that each size strictly extends
    /// the previous one.
    pub fn truncated(&self, n: usize) -> TrainingSet {
        assert!(
            n <= self.len(),
            "cannot truncate {} rows to {n}",
            self.len()
        );
        TrainingSet {
            layout: self.layout,
            rows: self.rows[..n * self.layout.width].to_vec(),
            labels: self.labels[..n].to_vec(),
            seconds: self.seconds[..n].to_vec(),
        }
    }

    /// Keep the first `n` rows and return the rest as a set of its own —
    /// `Vec::split_off` on all three columns: the kept rows stay where they
    /// are, only the tail is copied.
    pub fn split_off(&mut self, n: usize) -> TrainingSet {
        TrainingSet {
            layout: self.layout,
            rows: self.rows.split_off(n * self.layout.width),
            labels: self.labels.split_off(n),
            seconds: self.seconds.split_off(n),
        }
    }

    /// The label transform: the fit target `ln(1 + seconds)` of a runtime.
    pub fn seconds_to_label(seconds: f64) -> f64 {
        seconds.ln_1p()
    }

    /// Convert a log-space prediction back to seconds (inverse of
    /// [`TrainingSet::seconds_to_label`], clamped at zero).
    pub fn label_to_seconds(label: f64) -> f64 {
        (label.exp() - 1.0).max(0.0)
    }
}

/// A producer of labelled training data.
///
/// Implementations must be deterministic: a source built from the same
/// configuration (seed included) yields bit-identical sets for the same
/// call sequence. `generate` takes `&mut self` because successive calls
/// continue the source's random stream — two `generate(n)` calls on one
/// source produce disjoint draws, while two fresh sources with equal
/// seeds reproduce each other.
pub trait TrainingSource {
    /// The feature layout every generated row is encoded with.
    fn layout(&self) -> FeatureLayout;

    /// Produce exactly `n` labelled rows.
    fn generate(&mut self, n: usize) -> TrainingSet;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> FeatureLayout {
        FeatureLayout::new(2, 24)
    }

    #[test]
    fn push_simulated_derives_the_log_label() {
        let l = layout();
        let mut set = TrainingSet::empty(l);
        let row = vec![1.0; l.width];
        set.push_simulated(&row, 9.0);
        assert_eq!(set.len(), 1);
        assert!((set.labels[0] - 10.0_f64.ln()).abs() < 1e-12);
        assert_eq!(set.seconds[0], 9.0);
        assert!((TrainingSet::label_to_seconds(set.labels[0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rows_are_rejected() {
        let mut set = TrainingSet::empty(layout());
        set.push_simulated(&[1.0, 2.0], 1.0);
    }

    #[test]
    fn truncated_is_a_strict_prefix() {
        let l = layout();
        let mut set = TrainingSet::empty(l);
        for i in 0..4 {
            set.push_simulated(&vec![i as f64; l.width], i as f64 + 1.0);
        }
        let half = set.truncated(2);
        assert_eq!(half.len(), 2);
        assert_eq!(half.rows, set.rows[..2 * l.width]);
        assert_eq!(half.labels, set.labels[..2]);
        assert_eq!(half.layout, set.layout);
    }
}
