//! Order statistics for the benchmark's reports: medians, quartiles
//! (the same estimator as Python's `statistics.quantiles(v, n=4)`, so
//! `--compare` and the driver agree on a spread) and tail percentiles
//! that are only reported where the sample supports them.

/// Returns `values` sorted ascending (NaNs last; none are expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the *exclusive* method
/// (`statistics.quantiles(values, n=4)`): position `i·(len+1)/4`,
/// linearly interpolated, clamped to the sample. A sample of one yields
/// that value three times; an empty one yields zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let (n, len) = (4usize, v.len());
    let cut = |i: usize| {
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        // `delta` may exceed `n` or go negative at the clamped ends,
        // which extrapolates exactly like the Python implementation.
        let delta = (i * (len + 1)) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median — the spread the
/// driver compares with a metric's bound. `0.0` when the median is 0.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (0–100) of an ascending-sorted sample by the
/// nearest-rank method; `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first, each with
/// the sample size from which ten samples lie beyond it.
const TAIL_LADDER: [(f64, usize); 5] = [
    (99.9, 10_000),
    (99.0, 1_000),
    (95.0, 200),
    (90.0, 100),
    (75.0, 40),
];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n` — a tail read off fewer than
/// ten samples is one outlier, not a percentile. Falls back to the
/// median for samples under 40.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, needs)| n >= needs)
        .map_or(50.0, |(pct, _)| pct)
}

/// Median, supported tail percentile and its value for one timing
/// sample: `(p50, tail_pct, tail_value)`.
pub fn median_and_tail(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let pct = tail_percentile(v.len());
    (percentile(&v, 50.0), pct, percentile(&v, pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&v), 1.0);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median_and_tail(&v), (500.0, 99.0, 990.0));
    }
}
