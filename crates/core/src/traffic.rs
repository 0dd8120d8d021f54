//! Activity versus traffic (Section 6.1–6.2, Figure 9).

use crate::dataset::{DailyDataset, WeeklyDataset};
use crate::stats::Summary5;

/// Figure 9(a): per-bin daily-hit summaries, where bin `k` collects
/// the addresses active on exactly `k+1` days.
///
/// Each address contributes its *median daily hits over its active
/// days*; the returned summaries give the 5/25/50/75/95 percentile
/// bands across the addresses of the bin (`None` for empty bins).
pub fn hits_by_days_active(ds: &DailyDataset) -> Vec<Option<Summary5>> {
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); ds.num_days];
    for (_, t) in ds.ip_traffic() {
        let bin = t.days_active as usize - 1;
        bins[bin].push(t.median_daily_hits as f64);
    }
    bins.iter().map(|b| Summary5::of(b)).collect()
}

/// Figure 9(b): cumulative fractions by days-active bin.
#[derive(Debug, Clone)]
pub struct CumulativeShares {
    /// `ips[k]` = fraction of addresses active on ≤ k+1 days.
    pub ips: Vec<f64>,
    /// `traffic[k]` = fraction of total hits from those addresses.
    pub traffic: Vec<f64>,
}

impl CumulativeShares {
    /// Fraction of addresses active *every* day.
    pub fn always_on_ip_fraction(&self) -> f64 {
        match self.ips.len() {
            0 => 0.0,
            1 => self.ips[0],
            n => self.ips[n - 1] - self.ips[n - 2],
        }
    }

    /// Fraction of total traffic from always-on addresses.
    pub fn always_on_traffic_fraction(&self) -> f64 {
        match self.traffic.len() {
            0 => 0.0,
            1 => self.traffic[0],
            n => self.traffic[n - 1] - self.traffic[n - 2],
        }
    }
}

/// Computes Figure 9(b).
pub fn cumulative_shares(ds: &DailyDataset) -> CumulativeShares {
    let mut ip_counts = vec![0u64; ds.num_days];
    let mut hit_sums = vec![0u64; ds.num_days];
    for (_, t) in ds.ip_traffic() {
        let bin = t.days_active as usize - 1;
        ip_counts[bin] += 1;
        hit_sums[bin] += t.total_hits;
    }
    let total_ips: u64 = ip_counts.iter().sum();
    let total_hits: u64 = hit_sums.iter().sum();
    let mut ips = Vec::with_capacity(ds.num_days);
    let mut traffic = Vec::with_capacity(ds.num_days);
    let (mut ci, mut ch) = (0u64, 0u64);
    for k in 0..ds.num_days {
        ci += ip_counts[k];
        ch += hit_sums[k];
        ips.push(if total_ips == 0 { 0.0 } else { ci as f64 / total_ips as f64 });
        traffic.push(if total_hits == 0 { 0.0 } else { ch as f64 / total_hits as f64 });
    }
    CumulativeShares { ips, traffic }
}

/// Share of total traffic received by the top `frac` of addresses by
/// hit count (Figure 9(c) computes this per week with `frac = 0.1`).
///
/// `hits` must be sorted ascending, as every week of
/// [`WeeklyDataset::week_hits`] is: the top `⌈frac·n⌉` of `n`
/// addresses (at least one, when any exist) are then the tail, and the
/// share is its sum over the total, with no copy, selection or sort.
///
/// ```
/// use ipactive_core::traffic::top_share;
/// // One whale among nine minnows: the top 10% carry ~91% of traffic.
/// let hits = [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100];
/// assert!((top_share(&hits, 0.1) - 100.0 / 109.0).abs() < 1e-12);
/// ```
pub fn top_share(hits: &[u64], frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&frac));
    debug_assert!(
        hits.windows(2).all(|w| w[0] <= w[1]),
        "top_share needs hits sorted ascending"
    );
    if hits.is_empty() || frac == 0.0 {
        return 0.0;
    }
    let total: u64 = hits.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let k = ((frac * hits.len() as f64).ceil() as usize).clamp(1, hits.len());
    let top: u64 = hits[hits.len() - k..].iter().sum();
    top as f64 / total as f64
}

/// Figure 9(c): per-week share of total traffic going to the top
/// `frac` of that week's addresses.
pub fn weekly_top_share(ws: &WeeklyDataset, frac: f64) -> Vec<f64> {
    ws.week_hits.iter().map(|hits| top_share(hits, frac)).collect()
}

/// Centered moving average used to overlay the Figure 9(c) trend
/// (paper: 4-week window). Edges use the available span.
pub fn moving_average(series: &[f64], window: usize) -> Vec<f64> {
    assert!(window >= 1);
    let n = series.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(window / 2);
            let hi = (i + window.div_ceil(2)).min(n);
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DailyDatasetBuilder, WeeklyDatasetBuilder};
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn traffic_fixture() -> DailyDataset {
        let mut b = DailyDatasetBuilder::new(4);
        // Always-on heavy hitter: 1000 hits/day.
        for d in 0..4 {
            b.record_hits(d, a("10.0.0.1"), 1000);
        }
        // Two one-day lightweights: 10 hits.
        b.record_hits(0, a("10.0.0.2"), 10);
        b.record_hits(2, a("10.0.0.3"), 10);
        // A two-day medium address: 100 hits/day.
        b.record_hits(1, a("10.0.0.4"), 100);
        b.record_hits(3, a("10.0.0.4"), 100);
        b.finish()
    }

    #[test]
    fn bins_collect_median_daily_hits() {
        let ds = traffic_fixture();
        let bins = hits_by_days_active(&ds);
        assert_eq!(bins.len(), 4);
        let b1 = bins[0].unwrap(); // 1-day addresses
        assert_eq!(b1.p50, 10.0);
        let b2 = bins[1].unwrap();
        assert_eq!(b2.p50, 100.0);
        assert!(bins[2].is_none());
        let b4 = bins[3].unwrap();
        assert_eq!(b4.p50, 1000.0);
    }

    #[test]
    fn correlation_between_activity_and_traffic_is_monotone_here() {
        let ds = traffic_fixture();
        let medians: Vec<f64> = hits_by_days_active(&ds)
            .into_iter()
            .flatten()
            .map(|s| s.p50)
            .collect();
        assert!(medians.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cumulative_shares_end_at_one() {
        let ds = traffic_fixture();
        let c = cumulative_shares(&ds);
        assert!((c.ips.last().unwrap() - 1.0).abs() < 1e-12);
        assert!((c.traffic.last().unwrap() - 1.0).abs() < 1e-12);
        // The always-on address is 1/4 of IPs but dominates traffic.
        assert!((c.always_on_ip_fraction() - 0.25).abs() < 1e-12);
        let expect = 4000.0 / 4220.0;
        assert!((c.always_on_traffic_fraction() - expect).abs() < 1e-12);
        // Cumulative curves are monotone.
        assert!(c.ips.windows(2).all(|w| w[0] <= w[1]));
        assert!(c.traffic.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn top_share_basics() {
        // 10 addresses: nine with 1 hit, one with 90.
        let mut hits = vec![1u64; 9];
        hits.push(90);
        let share = top_share(&hits, 0.1);
        assert!((share - 90.0 / 99.0).abs() < 1e-12);
        assert_eq!(top_share(&[], 0.1), 0.0);
        assert_eq!(top_share(&[5, 5], 0.0), 0.0);
        assert!((top_share(&[5, 5], 1.0) - 1.0).abs() < 1e-12);
        // ceil: top 10% of 5 addrs = 1 addr.
        assert!((top_share(&[1, 1, 1, 1, 10], 0.1) - 10.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn weekly_top_share_trends() {
        let mut b = WeeklyDatasetBuilder::new(3);
        // Week 0: even traffic; week 2: concentrated.
        for i in 0..10u8 {
            b.record_week(0, a("10.0.0.0").saturating_add(i as u32 + 1), 10);
        }
        b.record_week(2, a("10.0.0.1"), 1000);
        for i in 1..10u8 {
            b.record_week(2, a("10.0.0.0").saturating_add(i as u32 + 1), 10);
        }
        let ws = b.finish();
        let shares = weekly_top_share(&ws, 0.1);
        assert_eq!(shares.len(), 3);
        assert!((shares[0] - 0.1).abs() < 1e-12);
        assert_eq!(shares[1], 0.0); // empty week
        assert!(shares[2] > 0.9);
    }

    #[test]
    fn top_share_selection_handles_ties_like_a_full_sort() {
        // Duplicated values straddling the k-th position: the top-k
        // multiset (and hence the share) is unique despite ties.
        let hits = [1u64, 3, 3, 7, 7, 7, 7];
        let mut sorted = hits.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for frac in [0.1, 0.25, 0.5, 0.75, 1.0] {
            let k = ((frac * hits.len() as f64).ceil() as usize).clamp(1, hits.len());
            let expect = sorted[..k].iter().sum::<u64>() as f64
                / hits.iter().sum::<u64>() as f64;
            assert_eq!(top_share(&hits, frac), expect, "frac {frac}");
        }
    }

    #[test]
    fn moving_average_smooths() {
        let s = [0.0, 10.0, 0.0, 10.0];
        let m = moving_average(&s, 2);
        assert_eq!(m.len(), 4);
        // window=2 averages each element with its predecessor half.
        assert!((m[1] - 5.0).abs() < 1e-12);
        let id = moving_average(&s, 1);
        assert_eq!(id, s.to_vec());
    }
}
