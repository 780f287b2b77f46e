//! Distributional cost estimates and risk-aware scoring (DESIGN §12).
//!
//! The bagged forest computes one prediction *per tree*; this module is
//! the buffer that keeps their spread. A
//! [`CostDistribution`] is the struct-of-arrays batch analogue of
//! `Vec<f64>` costs: per row a mean (bit-identical to the point estimate),
//! a population standard deviation, and three nearest-rank quantiles over
//! the per-tree samples. A [`RiskPolicy`] collapses that distribution back
//! into one scalar per row — the number the enumerators rank by.
//!
//! Point-estimate oracles (the analytic model, ridge regression) have no
//! spread to report: their distribution is degenerate, `std = 0` and all
//! quantiles equal to the mean, which [`CostDistribution::fill_point_from_mean`]
//! materializes without touching the model. Under that degenerate shape
//! every policy scores exactly the mean, so risk-aware enumeration over a
//! point oracle is bit-identical to classic enumeration by construction.

/// Struct-of-arrays distributional cost buffer for one batch of rows.
///
/// Filled either by `CostOracle::cost_batch_dist` (degenerate, via
/// [`CostDistribution::fill_point_from_mean`]) or by an ensemble model in
/// one pass over its members via [`CostDistribution::sample_scratch`] +
/// [`CostDistribution::finalize_samples`]. The scratch buffer is owned
/// here so repeated batches allocate nothing after warm-up.
#[derive(Debug, Clone, Default)]
pub struct CostDistribution {
    /// Per-row mean — bit-identical to the point estimate of the same
    /// model (`predict_batch` / `cost_batch`), which the determinism
    /// digests rely on.
    pub mean: Vec<f64>,
    /// Per-row population standard deviation over the samples (zero for
    /// point-estimate models).
    pub std: Vec<f64>,
    /// Per-row 10th-percentile sample (nearest rank).
    pub q10: Vec<f64>,
    /// Per-row median sample (nearest rank).
    pub q50: Vec<f64>,
    /// Per-row 90th-percentile sample (nearest rank).
    pub q90: Vec<f64>,
    /// Row-major per-row sample workspace (`rows × samples`), reused
    /// across batches.
    scratch: Vec<f64>,
}

/// Nearest-rank index of quantile `q` among `n` sorted samples: `ceil(q·n)`
/// clamped into `1..=n`, minus one. The workspace's one quantile
/// convention — the forest's per-row quantiles, the bench harness's p95
/// latencies and the experiment binaries' percentiles all index by it.
#[inline]
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

impl CostDistribution {
    /// An empty buffer; [`CostDistribution::reset`] sizes it per batch.
    pub fn new() -> Self {
        CostDistribution::default()
    }

    /// Clear and resize every column to `rows` zeros.
    pub fn reset(&mut self, rows: usize) {
        for col in [
            &mut self.mean,
            &mut self.std,
            &mut self.q10,
            &mut self.q50,
            &mut self.q90,
        ] {
            col.clear();
            col.resize(rows, 0.0);
        }
    }

    /// Number of rows currently held.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// `(mean, std, q10, q90)` of a distribution holding exactly one row —
    /// the shape a one-plan re-cost produces; `None` for any other count.
    pub fn single_row(&self) -> Option<(f64, f64, f64, f64)> {
        match (
            self.mean.as_slice(),
            self.std.as_slice(),
            self.q10.as_slice(),
            self.q90.as_slice(),
        ) {
            ([mean], [std], [q10], [q90]) => Some((*mean, *std, *q10, *q90)),
            _ => None,
        }
    }

    /// Degenerate distribution from an already-filled `mean` column:
    /// `std = 0`, all quantiles equal to the mean. This is what a
    /// point-estimate oracle reports, and under it every [`RiskPolicy`]
    /// scores exactly the mean.
    pub fn fill_point_from_mean(&mut self) {
        let rows = self.mean.len();
        self.std.clear();
        self.std.resize(rows, 0.0);
        for col in [&mut self.q10, &mut self.q50, &mut self.q90] {
            col.clear();
            col.extend_from_slice(&self.mean);
        }
    }

    /// Reset to `rows` rows and hand out the `rows × samples` row-major
    /// sample workspace (zero-filled). An ensemble fills slot
    /// `row * samples + member` for each member in index order, then calls
    /// [`CostDistribution::finalize_samples`].
    pub fn sample_scratch(&mut self, rows: usize, samples: usize) -> &mut [f64] {
        assert!(samples >= 1, "a distribution needs at least one sample");
        self.reset(rows);
        self.scratch.clear();
        self.scratch.resize(rows * samples, 0.0);
        &mut self.scratch
    }

    /// Reduce the sample workspace into the five columns.
    ///
    /// The mean sums each row's samples in member-index order and divides
    /// by the count — the exact accumulation order (and therefore the
    /// exact bits) of the ensemble's point-estimate path. The std is the
    /// population deviation; quantiles are nearest-rank over the samples
    /// sorted in place by `f64::total_cmp` (seed-deterministic: no ties
    /// are broken by address or insertion order).
    pub fn finalize_samples(&mut self, samples: usize) {
        let rows = self.len();
        assert_eq!(
            self.scratch.len(),
            rows * samples,
            "finalize_samples({samples}) does not match the sample_scratch shape"
        );
        let (r10, r50, r90) = (
            nearest_rank(0.1, samples),
            nearest_rank(0.5, samples),
            nearest_rank(0.9, samples),
        );
        for (r, row) in self.scratch.chunks_exact_mut(samples).enumerate() {
            let mean = row.iter().sum::<f64>() / samples as f64;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples as f64;
            row.sort_unstable_by(f64::total_cmp);
            self.mean[r] = mean;
            self.std[r] = var.sqrt();
            self.q10[r] = row[r10];
            self.q50[r] = row[r50];
            self.q90[r] = row[r90];
        }
    }
}

/// How the enumerators collapse a [`CostDistribution`] row into the one
/// scalar they rank, prune and pick by.
///
/// `ExpectedCost` is the classic point-estimate path and the default
/// everywhere; the other two trade expected speed for stability under
/// cardinality misestimation (ROADMAP item 7). The *reported* plan cost
/// stays the canonical mean under every policy — risk changes which plan
/// wins, never how its cost is quoted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RiskPolicy {
    /// Rank by the mean — bit-identical to ranking by the point estimate.
    #[default]
    ExpectedCost,
    /// Rank by `mean + k·std` (k ≥ 0): penalize spread linearly.
    MeanPlusKSigma(f64),
    /// Rank by the q-quantile (0 < q < 1), linearly interpolated between
    /// the stored q10/q50/q90 knots and clamped outside them.
    Quantile(f64),
}

impl RiskPolicy {
    /// True for the classic point-estimate path — enumerators rank by
    /// `cost_batch`, so the bits are the point estimate's.
    pub fn is_expected(self) -> bool {
        self == RiskPolicy::ExpectedCost
    }

    /// Validate the policy's parameter: `k` must be finite and
    /// non-negative, `q` finite in the open unit interval.
    pub fn validate(self) -> Result<(), String> {
        match self {
            RiskPolicy::ExpectedCost => Ok(()),
            RiskPolicy::MeanPlusKSigma(k) if k.is_finite() && k >= 0.0 => Ok(()),
            RiskPolicy::MeanPlusKSigma(k) => Err(format!(
                "risk sigma factor must be finite and >= 0, got {k}"
            )),
            RiskPolicy::Quantile(q) if q.is_finite() && q > 0.0 && q < 1.0 => Ok(()),
            RiskPolicy::Quantile(q) => Err(format!(
                "risk quantile must lie strictly in (0, 1), got {q}"
            )),
        }
    }

    /// Risk-adjusted score of row `r` of `dist`.
    pub fn score(self, dist: &CostDistribution, r: usize) -> f64 {
        match self {
            RiskPolicy::ExpectedCost => dist.mean[r],
            RiskPolicy::MeanPlusKSigma(k) => dist.mean[r] + k * dist.std[r],
            RiskPolicy::Quantile(q) => {
                let (q10, q50, q90) = (dist.q10[r], dist.q50[r], dist.q90[r]);
                if q <= 0.1 {
                    q10
                } else if q <= 0.5 {
                    q10 + (q - 0.1) / 0.4 * (q50 - q10)
                } else if q <= 0.9 {
                    q50 + (q - 0.5) / 0.4 * (q90 - q50)
                } else {
                    q90
                }
            }
        }
    }

    /// The one spelling of this policy: `k = -0` is `k = +0`, which it
    /// equals under `==`, so both label and hash alike.
    fn canonical(self) -> Self {
        match self {
            RiskPolicy::MeanPlusKSigma(k) => RiskPolicy::MeanPlusKSigma(k + 0.0),
            other => other,
        }
    }

    /// Stable wire label: `expected`, `sigma<k>`, `q<q>`. Round-trips
    /// through [`RiskPolicy::parse`].
    pub fn label(self) -> String {
        match self.canonical() {
            RiskPolicy::ExpectedCost => "expected".to_string(),
            RiskPolicy::MeanPlusKSigma(k) => format!("sigma{k}"),
            RiskPolicy::Quantile(q) => format!("q{q}"),
        }
    }

    /// Parse a wire label produced by [`RiskPolicy::label`] (also what the
    /// `--risk` CLI flag accepts). Validates the parameter.
    pub fn parse(text: &str) -> Result<RiskPolicy, String> {
        let policy = if text == "expected" {
            RiskPolicy::ExpectedCost
        } else if let Some(k) = text.strip_prefix("sigma") {
            RiskPolicy::MeanPlusKSigma(
                k.parse()
                    .map_err(|_| format!("bad risk sigma factor {k:?}"))?,
            )
        } else if let Some(q) = text.strip_prefix('q') {
            RiskPolicy::Quantile(q.parse().map_err(|_| format!("bad risk quantile {q:?}"))?)
        } else {
            return Err(format!(
                "unknown risk policy {text:?} (expected|sigma<k>|q<q>)"
            ));
        };
        policy.validate()?;
        Ok(policy.canonical())
    }

    /// Cache-key material: a discriminant tag plus the parameter bits.
    /// Distinct policies must hash differently — a `MeanPlusKSigma` cache
    /// hit serving an `ExpectedCost` entry would silently change answers.
    pub fn sig_parts(self) -> (u64, f64) {
        match self.canonical() {
            RiskPolicy::ExpectedCost => (0, 0.0),
            RiskPolicy::MeanPlusKSigma(k) => (1, k),
            RiskPolicy::Quantile(q) => (2, q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_sample_dist() -> CostDistribution {
        let mut d = CostDistribution::new();
        let scratch = d.sample_scratch(2, 3);
        scratch.copy_from_slice(&[
            4.0, 1.0, 7.0, // row 0: mean 4, sorted 1 4 7
            2.0, 2.0, 2.0, // row 1: degenerate
        ]);
        d.finalize_samples(3);
        d
    }

    #[test]
    fn finalize_computes_mean_std_and_sorted_quantiles() {
        let d = three_sample_dist();
        assert_eq!(d.len(), 2);
        assert_eq!(d.mean, vec![4.0, 2.0]);
        assert!((d.std[0] - 6.0_f64.sqrt()).abs() < 1e-12, "{}", d.std[0]);
        assert_eq!(d.std[1], 0.0);
        // Nearest rank over 3 sorted samples: q10 -> first, q50 -> second,
        // q90 -> third.
        assert_eq!((d.q10[0], d.q50[0], d.q90[0]), (1.0, 4.0, 7.0));
        assert_eq!((d.q10[1], d.q50[1], d.q90[1]), (2.0, 2.0, 2.0));
    }

    #[test]
    fn point_fill_makes_every_policy_score_the_mean() {
        let mut d = CostDistribution::new();
        d.reset(3);
        d.mean.copy_from_slice(&[1.5, -2.0, 0.0]);
        d.fill_point_from_mean();
        for policy in [
            RiskPolicy::ExpectedCost,
            RiskPolicy::MeanPlusKSigma(2.0),
            RiskPolicy::Quantile(0.9),
            RiskPolicy::Quantile(0.25),
        ] {
            for r in 0..3 {
                assert_eq!(
                    policy.score(&d, r).to_bits(),
                    d.mean[r].to_bits(),
                    "{policy:?} row {r}"
                );
            }
        }
    }

    #[test]
    fn scores_follow_the_policy_semantics() {
        let d = three_sample_dist();
        assert_eq!(RiskPolicy::ExpectedCost.score(&d, 0), 4.0);
        let sigma = RiskPolicy::MeanPlusKSigma(2.0).score(&d, 0);
        assert!((sigma - (4.0 + 2.0 * 6.0_f64.sqrt())).abs() < 1e-12);
        // Quantile knots and interpolation: q0.9 is the stored sample,
        // q0.7 is halfway between q50 and q90.
        assert_eq!(RiskPolicy::Quantile(0.9).score(&d, 0), 7.0);
        assert!((RiskPolicy::Quantile(0.7).score(&d, 0) - 5.5).abs() < 1e-12);
        assert_eq!(RiskPolicy::Quantile(0.05).score(&d, 0), 1.0); // clamped
    }

    #[test]
    fn labels_round_trip_and_bad_policies_are_rejected() {
        for policy in [
            RiskPolicy::ExpectedCost,
            RiskPolicy::MeanPlusKSigma(1.5),
            RiskPolicy::Quantile(0.9),
        ] {
            assert_eq!(RiskPolicy::parse(&policy.label()), Ok(policy));
        }
        assert!(RiskPolicy::parse("p90").is_err());
        assert!(RiskPolicy::parse("sigma-1").is_err());
        assert!(RiskPolicy::parse("q1.5").is_err());
        assert!(RiskPolicy::parse("q0").is_err());
        assert!(RiskPolicy::MeanPlusKSigma(f64::NAN).validate().is_err());
        // A built k = -0 labels and hashes as k = 0, which it equals.
        let minus_zero = RiskPolicy::MeanPlusKSigma(-0.0);
        assert_eq!(minus_zero.label(), "sigma0");
        assert_eq!(minus_zero.sig_parts().1.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn sig_parts_distinguish_policies() {
        let a = RiskPolicy::ExpectedCost.sig_parts();
        let b = RiskPolicy::MeanPlusKSigma(0.0).sig_parts();
        let c = RiskPolicy::MeanPlusKSigma(1.0).sig_parts();
        let d = RiskPolicy::Quantile(0.9).sig_parts();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(c, d);
    }
}
