//! Order statistics: medians, quartiles, run-to-run spread, nearest-rank
//! percentiles and the "ten samples beyond" rule.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// `spine repeat` and the driver agree on what "spread" means.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank `p`-th percentile of an ascending-sorted sample.
pub fn nearest_rank(sorted: &[u64], p: usize) -> Option<u64> {
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted.get(rank - 1).copied()
}

/// Do at least ten of `n` samples lie beyond the `p`-th percentile? A
/// percentile is reported only then: a p95 needs 200 samples, a p99 1000.
pub fn ten_beyond(n: usize, p: usize) -> bool {
    n >= (n * p).div_ceil(100).max(1) + 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn percentiles_are_nearest_rank_and_need_ten_samples_beyond() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&v, 95), Some(190));
        assert_eq!(nearest_rank(&v, 50), Some(100));
        assert_eq!(nearest_rank(&v[..54], 95), Some(52));
        assert_eq!(nearest_rank(&v[..1], 95), Some(1));
        assert_eq!(nearest_rank(&[], 50), None);
        // p95 of 200: rank 190, exactly ten beyond.
        assert!(ten_beyond(200, 95) && !ten_beyond(199, 95));
        // p99 needs 1000 samples.
        assert!(ten_beyond(1000, 99) && !ten_beyond(999, 99));
        assert!(ten_beyond(20, 50) && !ten_beyond(19, 50) && !ten_beyond(0, 50));
    }
}
