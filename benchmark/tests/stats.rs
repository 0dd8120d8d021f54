//! The percentile picker and the spread the acceptance rule uses.

use ipactive_benchmark::stats::{median, nearest_rank, quartile_spread, tail_percentile};

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(99), None, "p90 of 99 samples rests on 9.9");
    assert_eq!(tail_percentile(100), Some(0.9));
    assert_eq!(tail_percentile(999), Some(0.9));
    assert_eq!(tail_percentile(1_000), Some(0.99));
    assert_eq!(tail_percentile(9_999), Some(0.99));
    assert_eq!(tail_percentile(10_000), Some(0.999));
}

#[test]
fn a_quantile_is_picked_by_nearest_rank() {
    // Indices into a thousand sorted samples.
    assert_eq!(nearest_rank(1000, 0.5), 499);
    assert_eq!(
        nearest_rank(1000, 0.99),
        989,
        "ten samples lie beyond p99 of a thousand"
    );
    assert_eq!(nearest_rank(1000, 0.0), 0);
    assert_eq!(nearest_rank(1000, 1.0), 999);
    assert_eq!(nearest_rank(1, 0.99), 0);
}

#[test]
fn median_of_an_even_count_is_the_mean_of_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

/// `statistics.quantiles(range(1, 11), n=4)` is `[2.75, 5.5, 8.25]`, and
/// `statistics.quantiles([10, 10.2, 9.9, 10.4, 10.1], n=4)` is
/// `[9.95, 10.1, 10.3]`.
#[test]
fn quartile_spread_agrees_with_pythons_quantiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    let v = [10.0, 10.2, 9.9, 10.4, 10.1];
    assert!((quartile_spread(&v) - (10.3 - 9.95) / 10.1).abs() < 1e-12);
}
