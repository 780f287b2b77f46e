//! Median-of-N wall-clock timing.

use std::time::Instant;

use robopt_core::dist::nearest_rank;

/// Result of one benchmark: nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median_ns: f64,
    /// 95th-percentile sample (nearest-rank over the sorted samples) — the
    /// tail figure every JSON artifact reports next to the median, so a
    /// bimodal run cannot hide behind a healthy-looking median.
    pub p95_ns: f64,
    pub min_ns: f64,
    pub iters: usize,
}

impl Timing {
    pub fn median_ms(&self) -> f64 {
        self.median_ns / 1e6
    }

    pub fn p95_ms(&self) -> f64 {
        self.p95_ns / 1e6
    }

    /// Median throughput in items per second, for an iteration that
    /// processes `items_per_iter` items — the `<prefix>_per_s` figure the
    /// JSON artifacts report next to `<prefix>_ms` / `<prefix>_p95_ms`.
    pub fn per_second(&self, items_per_iter: usize) -> f64 {
        if self.median_ns <= 0.0 {
            return f64::INFINITY;
        }
        items_per_iter as f64 / (self.median_ns / 1e9)
    }
}

/// Run `f` for `warmup` untimed iterations, then `iters` timed ones.
pub fn bench<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> Timing {
    assert!(iters > 0);
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    let median_ns = if iters % 2 == 1 {
        samples[iters / 2]
    } else {
        0.5 * (samples[iters / 2 - 1] + samples[iters / 2])
    };
    Timing {
        median_ns,
        p95_ns: samples[nearest_rank(0.95, iters)],
        min_ns: samples[0],
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_fields_are_consistent() {
        let mut x = 0u64;
        let t = bench(2, 11, || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(x);
        });
        assert_eq!(t.iters, 11);
        assert!(t.min_ns <= t.median_ns);
        assert!(t.median_ns <= t.p95_ns);
        assert!(t.median_ns >= 0.0);
        assert_eq!(t.p95_ms(), t.p95_ns / 1e6);
        if t.median_ns > 0.0 {
            let per_s = t.per_second(10);
            assert!((per_s - 10.0 / (t.median_ns / 1e9)).abs() < 1e-9);
        }
    }

    #[test]
    fn p95_is_nearest_rank_over_sorted_samples() {
        // With a single iteration every percentile is that sample.
        let t = bench(0, 1, || {
            std::hint::black_box(0u64);
        });
        assert_eq!(t.p95_ns.to_bits(), t.min_ns.to_bits());
        assert_eq!(t.p95_ns.to_bits(), t.median_ns.to_bits());
    }
}
