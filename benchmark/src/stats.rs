//! Summary statistics for repeated timings.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Smallest and largest value.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The highest percentile that still has at least ten samples beyond
/// it, and its value: `(percentile, value)`. 100 samples give p90, 200
/// give p95, 1000 give p99. Fewer than 20 samples cannot carry a tail
/// percentile at all, so they report the median as p50.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 20 {
        return (50.0, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    // Ten samples lie strictly beyond index n - 11.
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Median 3; deviations 2, 1, 0, 1, 97 -> MAD 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), (90.0, 90.0));
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&two_hundred), (95.0, 190.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), (99.0, 990.0));
        // Exactly ten values lie beyond the reported one.
        assert_eq!(hundred.iter().filter(|&&v| v > 90.0).count(), 10);
    }

    #[test]
    fn tail_percentile_of_few_samples_is_the_median() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), (50.0, 10.0));
    }
}
