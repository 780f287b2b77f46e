//! Order statistics over timing samples. One definition throughout:
//! nearest rank, so every reported value is a value that was measured (a
//! pass mixes cheap and dear requests, and the mean of two middle samples
//! of different requests is neither's latency).

/// Nearest-rank quantile of an ascending-sorted slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_a_known_sample() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 10.0);
        assert_eq!(quantile_sorted(&v, 0.95), 19.0);
        assert_eq!(quantile_sorted(&v, 1.0), 20.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn the_median_is_a_measured_value_for_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.75), 4.0);
    }
}
