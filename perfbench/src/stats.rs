//! Order statistics for the reports.

use bgp_svc::metrics::percentile;

/// Samples a percentile must have strictly beyond it before it is
/// reported; a tail thinner than this is a handful of outliers, not a
/// percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank) of `sorted` (ascending), or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond its rank.
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank.max(1)) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(percentile(sorted, p))
}

/// Median of `values` (mean of the two middle values for an even count;
/// NaN for none, which makes the run's result line report it as broken).
/// Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_percentile(&sorted, 99.0), None, "9 beyond p99 of 999");
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&sorted, 99.0), Some(990));
        assert_eq!(tail_percentile(&[], 50.0), None);
        let sorted: Vec<u64> = (1..=21).collect();
        assert_eq!(tail_percentile(&sorted, 50.0), Some(11));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }
}
