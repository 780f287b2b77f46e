//! Counting-and-timing [`CostOracle`] adapter.
//!
//! Wraps the oracle under test and forwards every call unchanged while
//! counting calls and rows and timing each call, which is how the traced
//! run splits enumeration time into oracle time and enumeration self time
//! without touching product code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use robopt_core::{CostDistribution, CostOracle};
use robopt_vector::RowsView;

/// Exact work counters of a [`CountingOracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounts {
    pub calls: u64,
    pub rows: u64,
    pub busy_ns: u64,
}

pub struct CountingOracle<'a> {
    inner: &'a dyn CostOracle,
    epoch: Instant,
    // Relaxed everywhere: the counters are statistics and publish no data.
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
    /// `(start_ns, end_ns)` of every call since the last drain, on the
    /// `epoch` time axis.
    log: Mutex<Vec<(u64, u64)>>,
}

impl std::fmt::Debug for CountingOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingOracle")
            .field("width", &self.inner.width())
            .field("counts", &self.counts())
            .finish()
    }
}

impl<'a> CountingOracle<'a> {
    /// Wrap `inner`; call times are logged relative to `epoch`.
    pub fn new(inner: &'a dyn CostOracle, epoch: Instant) -> Self {
        CountingOracle {
            inner,
            epoch,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn counts(&self) -> OracleCounts {
        OracleCounts {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Take the call log accumulated since the previous drain.
    pub fn drain_log(&self, into: &mut Vec<(u64, u64)>) {
        let mut log = self
            .log
            .lock()
            .expect("no oracle call panics while logging");
        into.clear();
        into.append(&mut log);
    }

    fn timed<T>(&self, rows: usize, call: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = call();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        self.log
            .lock()
            .expect("no oracle call panics while logging")
            .push((start, end));
        out
    }
}

impl CostOracle for CountingOracle<'_> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn cost_row(&self, feats: &[f64]) -> f64 {
        self.timed(1, || self.inner.cost_row(feats))
    }

    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        self.timed(rows.rows(), || self.inner.cost_batch(rows, out))
    }

    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        self.timed(rows.rows(), || self.inner.cost_batch_dist(rows, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_core::AnalyticOracle;
    use robopt_plan::N_OPERATOR_KINDS;
    use robopt_platforms::PlatformRegistry;
    use robopt_vector::FeatureLayout;

    #[test]
    fn adapter_forwards_every_method_bit_identically_and_counts() {
        let registry = PlatformRegistry::named();
        let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
        let inner = AnalyticOracle::for_registry(&registry, &layout);
        let counting = CountingOracle::new(&inner, Instant::now());
        assert_eq!(counting.width(), inner.width());

        let rows = 7;
        let buf: Vec<f64> = (0..rows * layout.width)
            .map(|i| (i % 17) as f64 * 0.75)
            .collect();
        let view = RowsView::new(&buf, layout.width);

        assert_eq!(
            counting.cost_row(view.row(3)).to_bits(),
            inner.cost_row(view.row(3)).to_bits()
        );
        let (mut got, mut want) = (Vec::new(), Vec::new());
        counting.cost_batch(view, &mut got);
        inner.cost_batch(view, &mut want);
        assert_eq!(bits(&got), bits(&want));
        let (mut got, mut want) = (CostDistribution::new(), CostDistribution::new());
        counting.cost_batch_dist(view, &mut got);
        inner.cost_batch_dist(view, &mut want);
        for (g, w) in [
            (&got.mean, &want.mean),
            (&got.std, &want.std),
            (&got.q10, &want.q10),
            (&got.q50, &want.q50),
            (&got.q90, &want.q90),
        ] {
            assert_eq!(bits(g), bits(w));
        }

        let counts = counting.counts();
        assert_eq!((counts.calls, counts.rows), (3, 1 + 2 * rows as u64));
        let mut log = Vec::new();
        counting.drain_log(&mut log);
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|&(s, e)| e >= s));
        let logged: u64 = log.iter().map(|&(s, e)| e - s).sum();
        assert_eq!(logged, counts.busy_ns);
        counting.drain_log(&mut log);
        assert!(log.is_empty(), "a drain empties the log");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
