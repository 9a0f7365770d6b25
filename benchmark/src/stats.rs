//! The benchmark's own arithmetic: medians, quartiles, the tail-percentile
//! rule, geometric means and the failure share.

/// Median of `values` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the acceptance check of this benchmark uses.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// acceptance check bounds. `None` with fewer than two values or a zero
/// median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The tail of a latency sample: p99 when at least ten samples lie beyond
/// it, otherwise the highest percentile that still has ten samples beyond
/// it. Returns `(value, percentile actually used)`; with ten samples or
/// fewer there is no such percentile and the median stands in.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n <= 10 {
        return (median(samples), 50.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Index of the p99 sample, pulled down until ten samples sit above it.
    let p99_index = (n * 99).div_ceil(100) - 1;
    let index = p99_index.min(n - 11);
    (sorted[index], (index + 1) as f64 * 100.0 / n as f64)
}

/// Geometric mean of the strictly positive entries of `values`; 0.0 when
/// there are none. Non-positive entries are skipped rather than poisoning
/// the mean — a cell that did no work is reported through the failure
/// count, not through the aggregate.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// `numerator ÷ denominator`, 0.0 when there is nothing to divide by — a
/// rate over no time or a share of nothing is reported as 0, never as NaN.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// `failed ÷ attempted`; 0.0 when nothing was attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&ten), Some(1.0));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 2000 samples: p99 is sample #1980, twenty lie beyond it.
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), (1980.0, 99.0));
        // Exactly 1000 samples: p99 is #990 and exactly ten lie beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (990.0, 99.0));
        // 480 samples: p99 (#476) has only four beyond; the rule backs off
        // to #470, the 97.9th percentile.
        let mid: Vec<f64> = (1..=480).map(f64::from).collect();
        let (value, pct) = tail(&mid);
        assert_eq!(value, 470.0);
        assert!((pct - 97.9166).abs() < 1e-3);
        // Eleven samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).0, 1.0);
        // Ten or fewer: no percentile qualifies, the median stands in.
        assert_eq!(tail(&[5.0, 1.0, 9.0]), (5.0, 50.0));
    }

    #[test]
    fn geomean_skips_non_positive_entries() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 0.0, -1.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0]), 0.0);
    }

    #[test]
    fn failed_share_with_zero_attempts_is_zero() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(3, 0), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
    }
}
