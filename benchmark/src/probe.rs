//! The host probe: a fixed kernel of the benchmark's own, timed between the
//! operations of a run, that says how fast this host is running ordinary
//! code right now.
//!
//! The machines this runs on are a few cores of a shared host, and the same
//! binary on the same inputs runs up to 1.5× slower in some spells than in
//! others, for seconds to minutes at a time, so runs of the same code differ
//! by more than the bounds of `BENCHMARK.json`. A dependent multiply chain
//! and pointer walks that miss the L2 cache do not move with those spells (a
//! few percent); sorting 32 KiB of random words does, by about as much as
//! the product's own code (README, "Steadiness"). Each run therefore divides
//! its timings by the probe's slowdown against [`REFERENCE_US`] and reports
//! them as at the reference host speed.
//!
//! The kernel touches nothing of the product and nothing the product
//! touches: its buffer is its own and it allocates nothing, so a change to
//! the product cannot move the probe.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Microseconds one reading takes on the host this was written on in a
/// quiet spell: the host speed all timings are reported at. A constant, so
/// that the corrected timings stay in seconds.
pub const REFERENCE_US: f64 = 45.0;

/// Least time between two readings taken by [`Probe::read_if_due`]: a
/// reading runs the kernel three times, about 150 µs, so the probe costs
/// the run under 1 %.
const PERIOD_S: f64 = 0.02;

const WORDS: usize = 4096;

/// Untimed kernels before the timed one of a reading. They bring the buffer
/// and the sort's code back into the cache, so the reading does not depend
/// on how much of them the product's last operation evicted. Over ten runs
/// the timed fourth kernel in a row tracked the product's slowdown at least
/// as well as the first (README, "Steadiness").
const WARM_UPS: usize = 2;

#[derive(Debug)]
pub struct Probe {
    buffer: Vec<u64>,
    last: Instant,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            buffer: vec![0; WORDS],
            last: Instant::now(),
        }
    }

    /// The kernel: fill the buffer with the same pseudo-random words every
    /// time and sort it.
    fn kernel(&mut self) {
        let mut state = 88172645463325252u64;
        for word in &mut self.buffer {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *word = state;
        }
        self.buffer.sort_unstable();
        black_box(&self.buffer);
    }

    /// One reading: microseconds of one kernel after [`WARM_UPS`] untimed.
    pub fn read(&mut self) -> f64 {
        for _ in 0..WARM_UPS {
            self.kernel();
        }
        let started = Instant::now();
        self.kernel();
        self.last = Instant::now();
        (self.last - started).as_secs_f64() * 1e6
    }

    /// A reading, if the last one is [`PERIOD_S`] old.
    pub fn read_if_due(&mut self, readings: &mut Vec<f64>) {
        if self.last.elapsed().as_secs_f64() >= PERIOD_S {
            readings.push(self.read());
        }
    }

    /// `n` readings in a row, around work that cannot be interrupted.
    pub fn burst(&mut self, readings: &mut Vec<f64>, n: usize) {
        readings.extend((0..n).map(|_| self.read()));
    }
}

/// How much slower than the reference the host ran while `readings` were
/// taken: their median over [`REFERENCE_US`].
pub fn slowdown(readings: &[f64]) -> f64 {
    median(readings) / REFERENCE_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_sorts_the_same_words_every_time() {
        let mut probe = Probe::new();
        assert!(probe.read() > 0.0);
        let first = probe.buffer.clone();
        assert!(first.windows(2).all(|pair| pair[0] <= pair[1]));
        probe.read();
        assert_eq!(probe.buffer, first);
    }

    #[test]
    fn the_slowdown_is_the_median_reading_over_the_reference() {
        let readings = [REFERENCE_US * 1.5, REFERENCE_US * 9.0, REFERENCE_US];
        assert_eq!(slowdown(&readings), 1.5);
    }

    #[test]
    fn readings_are_spaced_by_the_period() {
        let mut probe = Probe::new();
        let mut readings = Vec::new();
        probe.burst(&mut readings, 3);
        probe.read_if_due(&mut readings);
        assert_eq!(readings.len(), 3, "a reading was just taken");
        std::thread::sleep(std::time::Duration::from_secs_f64(PERIOD_S));
        probe.read_if_due(&mut readings);
        assert_eq!(readings.len(), 4);
    }
}
