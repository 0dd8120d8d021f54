//! Small statistics toolkit shared by the analyses: percentiles,
//! empirical CDFs, five-number summaries, and ordinary least squares —
//! everything the paper's figures need, nothing more.

/// Percentile of a **sorted** slice using nearest-rank interpolation.
///
/// `p` in `[0, 100]`. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty data");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of a sorted slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    percentile_sorted(sorted, 50.0)
}

/// The five percentiles the paper's Figure 9(a) bands use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary5 {
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary5 {
    /// Computes the summary, sorting a copy of the input.
    /// Returns `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Summary5> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Some(Summary5 {
            p5: percentile_sorted(&v, 5.0),
            p25: percentile_sorted(&v, 25.0),
            p50: percentile_sorted(&v, 50.0),
            p75: percentile_sorted(&v, 75.0),
            p95: percentile_sorted(&v, 95.0),
        })
    }
}

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF, sorting the samples. Panics on NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF input"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q * 100.0)
    }

    /// Evaluates the CDF at evenly spaced points over `[lo, hi]`,
    /// producing plot-ready `(x, F(x))` pairs.
    pub fn curve(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_le(x))
            })
            .collect()
    }

    /// The raw sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Ordinary least-squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

impl LinearFit {
    /// Fits `(x, y)` pairs. Returns `None` with fewer than two points
    /// or zero x-variance.
    pub fn fit(points: &[(f64, f64)]) -> Option<LinearFit> {
        let n = points.len() as f64;
        if points.len() < 2 {
            return None;
        }
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        let mean_y = sy / n;
        let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
        let ss_res: f64 =
            points.iter().map(|p| (p.1 - (slope * p.0 + intercept)).powi(2)).sum();
        let r2 = if ss_tot.abs() < f64::EPSILON { 1.0 } else { 1.0 - ss_res / ss_tot };
        Some(LinearFit { slope, intercept, r2 })
    }

    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Gini coefficient of a set of non-negative values — a standard
/// inequality measure complementing the top-decile share when
/// describing traffic concentration (0 = perfectly even, →1 = one
/// address carries everything).
///
/// `values` must be sorted ascending (as every week of
/// [`crate::WeeklyDataset::week_hits`] is): a value's rank is then its
/// position, and the coefficient is one pass with no copy or sort.
pub fn gini(values: &[u64]) -> f64 {
    debug_assert!(
        values.windows(2).all(|w| w[0] <= w[1]),
        "gini needs values sorted ascending"
    );
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let total: f64 = values.iter().map(|&x| x as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    // G = (2·Σ i·x_i) / (n·Σ x) − (n+1)/n with 1-based ranks on the
    // ascending order.
    let weighted: f64 = values
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Lincoln–Petersen capture/recapture estimate of a total population
/// from two independent sightings.
///
/// The paper's 1.2 B active-address count "agrees with recent
/// estimates" produced by exactly this family of statistical models
/// (Zander et al. — reference \[37\] in the paper — use a multi-source
/// capture/recapture estimator).
/// Given `n1` addresses seen by method 1, `n2` by method 2, and `m`
/// seen by both, the population estimate is `n1·n2 / m`.
///
/// Returns `None` when the overlap is empty (the estimator diverges).
pub fn lincoln_petersen(n1: u64, n2: u64, overlap: u64) -> Option<f64> {
    if overlap == 0 {
        return None;
    }
    Some(n1 as f64 * n2 as f64 / overlap as f64)
}

/// Chapman's bias-corrected capture/recapture estimator:
/// `(n1+1)(n2+1)/(m+1) − 1`. Defined for any overlap, less biased than
/// Lincoln–Petersen for small samples.
pub fn chapman(n1: u64, n2: u64, overlap: u64) -> f64 {
    ((n1 + 1) as f64 * (n2 + 1) as f64) / (overlap + 1) as f64 - 1.0
}

/// `(min, median, max)` of a set of percentages — the triple plotted
/// per window size in Figure 4(b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMedMax {
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl MinMedMax {
    /// Computes the triple; `None` for empty input.
    pub fn of(values: &[f64]) -> Option<MinMedMax> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN input"));
        Some(MinMedMax { min: v[0], median: median_sorted(&v), max: *v.last().unwrap() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 5.0);
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
        assert_eq!(percentile_sorted(&v, 25.0), 2.0);
        assert!((percentile_sorted(&v, 10.0) - 1.4).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn summary5_ordering() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary5::of(&values).unwrap();
        assert!(s.p5 < s.p25 && s.p25 < s.p50 && s.p50 < s.p75 && s.p75 < s.p95);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!(Summary5::of(&[]).is_none());
    }

    #[test]
    fn ecdf_fractions() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.fraction_le(0.5), 0.0);
        assert_eq!(e.fraction_le(1.0), 0.25);
        assert_eq!(e.fraction_le(2.0), 0.75);
        assert_eq!(e.fraction_le(10.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 3.0);
        let curve = e.curve(0.0, 4.0, 5);
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[0], (0.0, 0.0));
        assert_eq!(curve[4], (4.0, 1.0));
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let fit = LinearFit::fit(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 7.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
        assert!((fit.predict(100.0) - 307.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_cases() {
        assert!(LinearFit::fit(&[]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0)]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none()); // no x-variance
    }

    #[test]
    fn linear_fit_r2_reflects_noise() {
        let clean: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 2.0 * i as f64)).collect();
        let noisy: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64, 2.0 * i as f64 + if i % 2 == 0 { 8.0 } else { -8.0 }))
            .collect();
        let f1 = LinearFit::fit(&clean).unwrap();
        let f2 = LinearFit::fit(&noisy).unwrap();
        assert!(f1.r2 > f2.r2);
    }

    #[test]
    fn gini_known_values() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12, "equal shares → 0");
        // One holder of everything among n: G = (n-1)/n.
        let g = gini(&[0, 0, 0, 100]);
        assert!((g - 0.75).abs() < 1e-12, "g={g}");
        // Monotone in concentration.
        assert!(gini(&[5, 5, 90]) > gini(&[30, 30, 40]));
        assert!((0.0..1.0).contains(&gini(&[1, 2, 3, 4, 5, 100])));
    }

    #[test]
    fn capture_recapture_estimators() {
        // Classic textbook case: 400 marked, 300 recaptured, 60 overlap
        // → population 2000.
        assert_eq!(lincoln_petersen(400, 300, 60), Some(2000.0));
        assert_eq!(lincoln_petersen(400, 300, 0), None);
        // Chapman is close to LP for large overlap, defined at 0.
        let lp = lincoln_petersen(400, 300, 60).unwrap();
        let ch = chapman(400, 300, 60);
        assert!((lp - ch).abs() / lp < 0.02, "lp {lp} ch {ch}");
        assert!(chapman(10, 10, 0) > 100.0);
        // Full overlap: estimate equals the sample.
        assert_eq!(lincoln_petersen(100, 100, 100), Some(100.0));
    }

    #[test]
    fn min_med_max() {
        let m = MinMedMax::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((m.min, m.median, m.max), (1.0, 3.0, 5.0));
        assert!(MinMedMax::of(&[]).is_none());
    }
}
