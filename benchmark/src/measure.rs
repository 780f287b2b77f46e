//! The timed section: set-up timing, the timed passes, peak RSS.

use std::hint::black_box;
use std::time::Instant;

use crate::gate::Verdict;
use crate::probe::{slowdown, Probe};
use crate::stats::quantile_sorted;
use crate::workloads::{Inputs, System};

/// Probe readings taken before each set-up and after the last.
const SET_UP_READINGS: usize = 16;

/// Set the system up several times; the last instance is the one measured.
/// Set-ups slower than a quarter second (model training, the churn warm-up)
/// repeat three times, faster ones until half a second is spent (5 to 25
/// times). Returns every set-up's seconds and the probe's readings around
/// them.
pub fn timed_set_up(inputs: &Inputs, probe: &mut Probe) -> (System, Vec<f64>, Vec<f64>) {
    let (mut times, mut readings) = (Vec::new(), Vec::new());
    loop {
        probe.burst(&mut readings, SET_UP_READINGS);
        let started = Instant::now();
        let system = System::set_up(inputs);
        times.push(started.elapsed().as_secs_f64());
        let enough = if times[0] > 0.25 {
            times.len() >= 3
        } else {
            times.len() >= 25 || (times.len() >= 5 && times.iter().sum::<f64>() >= 0.5)
        };
        if enough {
            probe.burst(&mut readings, SET_UP_READINGS);
            return (system, times, readings);
        }
    }
}

/// The timed section of one run.
///
/// Every pass sends the same stream, so sample `j` of every pass times the
/// same operations. The *typical* latency of position `j` is the median of
/// its samples over all passes, divided by the host's slowdown over the run
/// ([`crate::probe`]). Throughput is the operations of a pass over the sum
/// of its typical latencies, and the percentiles are taken over the
/// positions of a pass: what they describe is how latency differs between
/// the requests of the workload, not how it differed between two moments on
/// this host. Operations over busy seconds of the whole section spread
/// 12–26 % over ten runs of the same code where these spread 2–12 %
/// (README, "Steadiness").
#[derive(Debug, Clone)]
pub struct Timed {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Operations over busy seconds of the whole section, uncorrected.
    pub raw_ops_per_s: f64,
    /// The probe's readings during the section, microseconds.
    pub readings: Vec<f64>,
    /// Latency samples per pass (one per operation, or one per batch of
    /// [`crate::workloads::Workload::batch`] operations).
    pub positions: usize,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// One pass over the stream. Returns the operations that failed: an `Err`,
/// an output that differs from the gate's verified one, or any operation
/// on a request the gate rejected. Latency samples (ms per operation, one
/// per batch) are appended to `samples`, probe readings to `readings`.
fn pass(
    system: &mut System,
    inputs: &Inputs,
    verdicts: &[Verdict],
    probe: &mut Probe,
    samples: &mut Vec<f64>,
    readings: &mut Vec<f64>,
) -> u64 {
    let mut failed = 0;
    for chunk in inputs.stream.chunks(inputs.workload.batch()) {
        probe.read_if_due(readings);
        let started = Instant::now();
        for &i in chunk {
            let output = black_box(system.run(black_box(&inputs.requests[i as usize])));
            let verdict = &verdicts[i as usize];
            if verdict.error.is_some() || !verdict.expected.matches(&output) {
                failed += 1;
            }
        }
        samples.push(started.elapsed().as_secs_f64() * 1e3 / chunk.len() as f64);
    }
    failed
}

/// Nearest-rank quantile of `(value, weight)` pairs sorted by value.
fn weighted_quantile_sorted(sorted: &[(f64, usize)], q: f64) -> f64 {
    let total: usize = sorted.iter().map(|&(_, weight)| weight).sum();
    let rank = ((q * total as f64).ceil() as usize).clamp(1, total);
    let mut below = 0;
    for &(value, weight) in sorted {
        below += weight;
        if below >= rank {
            return value;
        }
    }
    unreachable!("the weights sum to the total")
}

/// Measure whole passes over the stream until `seconds` seconds are spent.
pub fn run(
    system: &mut System,
    inputs: &Inputs,
    verdicts: &[Verdict],
    probe: &mut Probe,
    seconds: f64,
) -> Timed {
    let (mut samples, mut readings) = (Vec::new(), Vec::new());
    // One untimed pass returns the caches to the steady state the gate's
    // one-of-each pass disturbed.
    let mut failed = pass(system, inputs, verdicts, probe, &mut samples, &mut readings);
    samples.clear();
    readings.clear();
    probe.burst(&mut readings, 1);

    let mut passes = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        failed += pass(system, inputs, verdicts, probe, &mut samples, &mut readings);
        passes += 1;
    }
    let batch = inputs.workload.batch();
    let positions = samples.len() / passes;
    let pass_ops = inputs.stream.len();
    // Operations behind sample `j` of a pass: the last batch may be short.
    let ops_of = |j: usize| batch.min(pass_ops - j * batch);
    let busy_ms: f64 = samples
        .iter()
        .enumerate()
        .map(|(k, ms)| ms * ops_of(k % positions) as f64)
        .sum();

    let host = slowdown(&readings);
    let mut typical: Vec<(f64, usize)> = (0..positions)
        .map(|j| {
            let mut column: Vec<f64> = samples.iter().skip(j).step_by(positions).copied().collect();
            column.sort_by(f64::total_cmp);
            (quantile_sorted(&column, 0.5) / host, ops_of(j))
        })
        .collect();
    typical.sort_by(|a, b| a.0.total_cmp(&b.0));
    let pass_ms: f64 = typical.iter().map(|&(ms, ops)| ms * ops as f64).sum();
    let timed_ops = (passes * pass_ops) as u64;
    Timed {
        ops_per_s: pass_ops as f64 / (pass_ms / 1e3),
        p50_ms: weighted_quantile_sorted(&typical, 0.5),
        p95_ms: weighted_quantile_sorted(&typical, 0.95),
        raw_ops_per_s: timed_ops as f64 / (busy_ms / 1e3),
        readings,
        positions,
        passes,
        attempted: timed_ops + pass_ops as u64,
        failed,
    }
}

/// Peak (`VmHWM`) and current (`VmRSS`) resident set of this process, MiB.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Hand the allocator's free pages back to the kernel and restart `VmHWM`
/// from what is then resident, so that what the gate's references allocated
/// (and freed) does not count as the system's peak. `false` where the
/// kernel refuses the reset (then the peak includes the gate).
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer, takes the arena
        // locks itself and only releases pages of free chunks.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_nearest_rank_counts_operations_not_positions() {
        // Three batches of 64 operations and a short one of 8.
        let typical = [(1.0, 64), (2.0, 64), (3.0, 64), (9.0, 8)];
        assert_eq!(weighted_quantile_sorted(&typical, 0.5), 2.0);
        assert_eq!(weighted_quantile_sorted(&typical, 0.95), 3.0);
        assert_eq!(weighted_quantile_sorted(&typical, 1.0), 9.0);
        assert_eq!(weighted_quantile_sorted(&typical, 0.0), 1.0);
        // Equal weights give the plain nearest rank.
        let plain: Vec<(f64, usize)> = (1..=15).map(|v| (f64::from(v), 1)).collect();
        assert_eq!(weighted_quantile_sorted(&plain, 0.5), 8.0);
        assert_eq!(weighted_quantile_sorted(&plain, 0.95), 15.0);
    }
}
