//! Order statistics for the benchmark's own numbers.

/// Index, among `n` sorted samples, of the value at quantile `q`
/// (0..=1) by nearest rank.
///
/// # Panics
/// If `n` is 0.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail percentile a sample of `n` timings supports: the highest of
/// p99.9 / p99 / p90 that leaves at least ten samples beyond it, or
/// `None` when even p90 would rest on fewer than ten (`n < 100`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, samples per one sample beyond it)
    [(0.999, 1000), (0.99, 100), (0.9, 10)]
        .into_iter()
        .find(|&(_, per_beyond)| n / per_beyond >= 10)
        .map(|(p, _)| p)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance rule compares against a metric's
/// bound (quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them: exclusive method, linear interpolation).
///
/// # Panics
/// With fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: f64| {
        // Position of the k-th quartile among n+1 gaps; like Python, a
        // position outside the data extrapolates from the end pair.
        let pos = k * (v.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(3.0) - at(1.0)) / median(&v)
}
