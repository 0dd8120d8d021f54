//! The long-run growth timeline (Section 2, Figure 1): monthly active
//! IPv4 address counts, the pre-2014 linear fit, and stagnation
//! detection.

use crate::stats::LinearFit;
use ipactive_rir::YearMonth;

/// One monthly observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthPoint {
    /// The month.
    pub month: YearMonth,
    /// Unique active IPv4 addresses observed that month.
    pub active: u64,
}

/// Fits the linear pre-stagnation trend (paper: regression until
/// 2014-01) over months strictly before `until`.
pub fn fit_until(points: &[GrowthPoint], until: YearMonth) -> Option<LinearFit> {
    let origin = points.first()?.month;
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.month < until)
        .map(|p| (p.month.months_since(origin) as f64, p.active as f64))
        .collect();
    LinearFit::fit(&pts)
}

/// Shortfall of the measured count versus the linear extrapolation at
/// `at`, as a fraction of the extrapolated value (positive =
/// stagnation gap).
pub fn stagnation_gap(
    points: &[GrowthPoint],
    fit: &LinearFit,
    at: YearMonth,
) -> Option<f64> {
    let origin = points.first()?.month;
    let measured = points.iter().find(|p| p.month == at)?.active as f64;
    let predicted = fit.predict(at.months_since(origin) as f64);
    if predicted <= 0.0 {
        return None;
    }
    Some((predicted - measured) / predicted)
}

/// Detects the onset of stagnation: the first month after `min_history`
/// months where the trailing 12-month mean growth rate falls below
/// `frac` of the fitted pre-period slope — and never recovers above it.
///
/// Returns `None` if growth never stagnates.
pub fn detect_stagnation(
    points: &[GrowthPoint],
    fit: &LinearFit,
    frac: f64,
    min_history: usize,
) -> Option<YearMonth> {
    assert!((0.0..1.0).contains(&frac));
    if points.len() < min_history + 13 {
        return None;
    }
    let threshold = fit.slope * frac;
    // Trailing 12-month mean growth at index i.
    let rate = |i: usize| (points[i].active as f64 - points[i - 12].active as f64) / 12.0;
    let mut onset: Option<usize> = None;
    for i in min_history.max(12)..points.len() {
        if rate(i) < threshold {
            onset.get_or_insert(i);
        } else {
            onset = None; // recovered: not yet true stagnation
        }
    }
    onset.map(|i| points[i].month)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic Figure 1: linear 2008–2013, flat 2014 onwards.
    fn curve() -> Vec<GrowthPoint> {
        let start = YearMonth::new(2008, 1);
        let mut out = Vec::new();
        for m in 0..96u32 {
            let month = start.plus_months(m);
            let active = if month < YearMonth::new(2014, 1) {
                250_000_000 + 8_000_000 * m as u64
            } else {
                let base = 250_000_000 + 8_000_000 * 72u64;
                base + 200_000 * (m as u64 - 72)
            };
            out.push(GrowthPoint { month, active });
        }
        out
    }

    #[test]
    fn fit_recovers_linear_phase() {
        let pts = curve();
        let fit = fit_until(&pts, YearMonth::new(2014, 1)).unwrap();
        assert!((fit.slope - 8_000_000.0).abs() < 1.0);
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn stagnation_gap_grows_over_time() {
        let pts = curve();
        let fit = fit_until(&pts, YearMonth::new(2014, 1)).unwrap();
        let g2014 = stagnation_gap(&pts, &fit, YearMonth::new(2014, 12)).unwrap();
        let g2015 = stagnation_gap(&pts, &fit, YearMonth::new(2015, 12)).unwrap();
        assert!(g2014 > 0.05, "gap 2014 = {g2014}");
        assert!(g2015 > g2014);
        // Before stagnation the gap is ~0.
        let g2013 = stagnation_gap(&pts, &fit, YearMonth::new(2013, 6)).unwrap();
        assert!(g2013.abs() < 0.01);
    }

    #[test]
    fn detects_2014_onset() {
        let pts = curve();
        let fit = fit_until(&pts, YearMonth::new(2014, 1)).unwrap();
        let onset = detect_stagnation(&pts, &fit, 0.5, 24).unwrap();
        // Trailing window blurs the edge; onset must land in 2014.
        assert_eq!(onset.year, 2014);
    }

    #[test]
    fn no_stagnation_on_pure_linear_growth() {
        let start = YearMonth::new(2008, 1);
        let pts: Vec<GrowthPoint> = (0..96u32)
            .map(|m| GrowthPoint {
                month: start.plus_months(m),
                active: 250_000_000 + 8_000_000 * m as u64,
            })
            .collect();
        let fit = fit_until(&pts, YearMonth::new(2014, 1)).unwrap();
        assert!(detect_stagnation(&pts, &fit, 0.5, 24).is_none());
    }

    #[test]
    fn short_series_yields_none() {
        let pts = &curve()[..10];
        let fit = fit_until(pts, YearMonth::new(2014, 1)).unwrap();
        assert!(detect_stagnation(pts, &fit, 0.5, 24).is_none());
        assert!(stagnation_gap(pts, &fit, YearMonth::new(2020, 1)).is_none());
        assert!(fit_until(&[], YearMonth::new(2014, 1)).is_none());
    }
}
