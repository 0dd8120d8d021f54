//! Churn in the active address population (Section 4).
//!
//! * [`daily_series`] — Figure 4(a): daily active counts and up/down
//!   events between consecutive days.
//! * [`window_sweep`] — Figure 4(b): min/median/max percentage of
//!   up/down events between consecutive non-overlapping windows, for a
//!   sweep of window sizes.
//! * [`year_drift`] — Figure 4(c): weekly appear/disappear counts
//!   relative to the first snapshot of the year.
//! * [`per_as_churn`] — Figure 5(a): the per-AS distribution of median
//!   up-event percentages.
//! * [`long_term`] — Table 2: appear/disappear between two two-month
//!   unions, block-level bulkiness, and BGP attribution.
//!
//! The window analyses are set queries with one body each, generic over
//! a [`Windows`] source: the bench layer passes the engine's memoized
//! windows, and a library caller a bare dataset (every
//! [`SlotMatrix`](crate::SlotMatrix) is a `Windows`). Their oracles,
//! scans of every address's slot row, are in `tests/prop.rs`.

use crate::cadence::{transpose64, Cadence, Daily, Weekly, Windows};
use crate::dataset::WeeklyDataset;
use crate::stats::{Ecdf, MinMedMax};
use ipactive_bgp::{Asn, BgpTimeline};
use ipactive_net::{ActiveSet, AddrSet, Block24};
use std::collections::HashMap;
use std::sync::Arc;

/// One day of Figure 4(a): active count plus events versus the
/// previous day (`up`/`down` are 0 for day 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayChurn {
    /// Day index.
    pub day: usize,
    /// Addresses active this day.
    pub active: usize,
    /// Addresses active today but not yesterday.
    pub up: usize,
    /// Addresses active yesterday but not today.
    pub down: usize,
}

/// Computes the Figure 4(a) series from a daily [`Windows`] source.
///
/// The day sets are fetched up front in day order (so a memoizing
/// source sees one query per day); each pair `(d-1, d)` then needs
/// only one [`ActiveSet::intersect_len`], since
/// `up = |D_d| − |D_{d-1} ∩ D_d|` and `down = |D_{d-1}| − |D_{d-1} ∩ D_d|`.
///
/// ```
/// use ipactive_core::{churn, DailyDatasetBuilder};
/// let mut b = DailyDatasetBuilder::new(3);
/// b.record_hits(0, "10.0.0.1".parse().unwrap(), 5);
/// b.record_hits(1, "10.0.0.1".parse().unwrap(), 5);
/// b.record_hits(1, "10.0.0.2".parse().unwrap(), 1);
/// let series = churn::daily_series(&b.finish());
/// assert_eq!(series[1].up, 1);   // 10.0.0.2 appeared
/// assert_eq!(series[2].down, 2); // both gone on day 2
/// ```
pub fn daily_series<W: Windows<Cadence = Daily>>(ds: &W) -> Vec<DayChurn> {
    let sets: Vec<Arc<W::Set>> = (0..ds.num_units()).map(|d| ds.union(d..d + 1)).collect();
    (0..sets.len())
        .map(|day| {
            let active = sets[day].len();
            let (up, down) = match day.checked_sub(1) {
                None => (0, 0),
                Some(prev) => {
                    let inter = sets[prev].intersect_len(&sets[day]);
                    (active - inter, sets[prev].len() - inter)
                }
            };
            DayChurn { day, active, up, down }
        })
        .collect()
}

/// Mean active addresses per day-of-week (index 0..=6; the universe
/// treats 5 and 6 as the weekend) of a [`daily_series`]. Figure 4(a)'s
/// weekend dips, made quantitative.
pub fn weekday_profile(series: &[DayChurn]) -> [f64; 7] {
    let mut sums = [0f64; 7];
    let mut counts = [0u32; 7];
    for p in series {
        sums[p.day % 7] += p.active as f64;
        counts[p.day % 7] += 1;
    }
    let mut out = [0f64; 7];
    for ((o, &sum), &count) in out.iter_mut().zip(&sums).zip(&counts) {
        *o = if count == 0 { 0.0 } else { sum / count as f64 };
    }
    out
}

/// Churn statistics for one aggregation window size (Figure 4(b)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowChurn {
    /// Window size in days.
    pub window_days: usize,
    /// Min/median/max percentage of up events across window pairs.
    pub up: MinMedMax,
    /// Min/median/max percentage of down events across window pairs.
    pub down: MinMedMax,
}

impl WindowChurn {
    /// The row of a `w`-unit window at cadence `C` from its per-pair
    /// percentages. Pairs with an empty denominator window contribute
    /// no percentage; a dataset can in principle leave none at all.
    fn of<C: Cadence>(w: usize, up: &[f64], down: &[f64]) -> WindowChurn {
        let zero = MinMedMax { min: 0.0, median: 0.0, max: 0.0 };
        WindowChurn {
            window_days: w * C::DAYS_PER_UNIT,
            up: MinMedMax::of(up).unwrap_or(zero),
            down: MinMedMax::of(down).unwrap_or(zero),
        }
    }
}

/// Computes Figure 4(b) for the given window sizes in units of the
/// source's cadence (paper: 1..=28 days).
///
/// Following Section 4.1: for window size `w` the dataset is split
/// into `⌊units/w⌋` non-overlapping windows, each window's activity is
/// the union of its units, the up percentage between windows `i` and
/// `i+1` is `100·|W_{i+1} ∖ W_i| / |W_{i+1}|`, and the down
/// percentage is `100·|W_i ∖ W_{i+1}| / |W_i|`. Over the weekly
/// dataset the same sweep extends the figure to month-of-weeks
/// windows: churn does not decay with aggregation there either.
/// `window_days` reports every size in days; sizes that leave fewer
/// than two windows are skipped.
///
/// Each window size fetches its window unions in order (one query per
/// window, so a memoizing source's hit/miss counts stay a pure
/// function of the sweep), then reduces every consecutive pair with a
/// single [`ActiveSet::intersect_len`]: `up = |W_{i+1}| − |W_i ∩
/// W_{i+1}|`, `down = |W_i| − |W_i ∩ W_{i+1}|`.
pub fn window_sweep<W: Windows>(ds: &W, window_sizes: &[usize]) -> Vec<WindowChurn> {
    window_sizes
        .iter()
        .filter(|&&w| w >= 1 && ds.num_units() / w >= 2)
        .map(|&w| {
            let windows: Vec<Arc<W::Set>> =
                (0..ds.num_units() / w).map(|i| ds.union(i * w..(i + 1) * w)).collect();
            let mut up_pct = Vec::new();
            let mut down_pct = Vec::new();
            for pair in windows.windows(2) {
                let (prev, cur) = (pair[0].len() as u64, pair[1].len() as u64);
                let inter = pair[0].intersect_len(&pair[1]) as u64;
                if cur > 0 {
                    up_pct.push(100.0 * (cur - inter) as f64 / cur as f64);
                }
                if prev > 0 {
                    down_pct.push(100.0 * (prev - inter) as f64 / prev as f64);
                }
            }
            WindowChurn::of::<W::Cadence>(w, &up_pct, &down_pct)
        })
        .collect()
}

/// One week of Figure 4(c): drift relative to the first week.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeekDrift {
    /// Week index (1-based comparison weeks; week 0 is the reference).
    pub week: usize,
    /// Addresses active this week but not in week 0.
    pub appear: usize,
    /// Addresses active in week 0 but not this week.
    pub disappear: usize,
    /// `appear` as a fraction of week 0's active count.
    pub appear_frac: f64,
    /// `disappear` as a fraction of week 0's active count.
    pub disappear_frac: f64,
}

/// Computes Figure 4(c): per-week appear/disappear versus week 0.
///
/// Two column counts per week decide it: `active[w]` addresses active
/// in week `w`, `kept[w]` of them also in week 0. Then `w` gained
/// `active[w] − kept[w]` and lost `active[0] − kept[w]`. Each block's
/// rows are counted as 64 × 64 tiles transposed, so a week's column of
/// 64 addresses is one word to popcount.
pub fn year_drift(ws: &WeeklyDataset) -> Vec<WeekDrift> {
    let mut active = [0u64; 64];
    let mut kept = [0u64; 64];
    for (_, rows) in &ws.blocks {
        for tile in rows.chunks_exact(64) {
            let mut weeks: [u64; 64] = tile.try_into().expect("a 64-row tile");
            if weeks.iter().all(|&row| row == 0) {
                continue;
            }
            transpose64(&mut weeks);
            for (w, &column) in weeks.iter().enumerate() {
                active[w] += u64::from(column.count_ones());
                kept[w] += u64::from((column & weeks[0]).count_ones());
            }
        }
    }
    let basef = active[0].max(1) as f64;
    (1..ws.num_weeks)
        .map(|w| {
            let (appear, disappear) = (active[w] - kept[w], active[0] - kept[w]);
            WeekDrift {
                week: w,
                appear: appear as usize,
                disappear: disappear as usize,
                appear_frac: appear as f64 / basef,
                disappear_frac: disappear as f64 / basef,
            }
        })
        .collect()
}

/// Computes Figure 5(a): the distribution (as an [`Ecdf`]) over ASes
/// of the per-AS *median* percentage of addresses with an up event per
/// window pair, for one window size.
///
/// `resolve` maps a `/24` block to its origin AS (the synthetic
/// universe never splits a `/24` across ASes, matching how the paper
/// aggregates at `/24`-or-coarser granularity). Only ASes with at
/// least `min_ips` distinct active addresses are included (paper:
/// 1000). Panics unless the window leaves at least two windows.
///
/// The counts are per-block reads of the window sets: per `/24` block
/// `b`, an AS gains `|All ∩ b|` active addresses, window `i`
/// contributes `|W_i ∩ b|` to its size, and pair `i−1` contributes
/// `|W_i ∩ b| − |W_{i−1} ∩ W_i ∩ b|` up events. They come as whole
/// columns — [`ActiveSet::block_counts`] per window and
/// [`ActiveSet::intersect_block_counts`] per adjacent pair,
/// merge-aligned against the block list — and no intersection set is
/// ever materialized.
pub fn per_as_churn<W, F>(ds: &W, window_days: usize, min_ips: usize, mut resolve: F) -> Ecdf
where
    W: Windows<Cadence = Daily>,
    F: FnMut(Block24) -> Option<Asn>,
{
    let w = window_days;
    let n_windows = ds.num_units().checked_div(w).unwrap_or(0);
    assert!(n_windows >= 2, "need at least two windows");
    let windows: Vec<Arc<W::Set>> =
        (0..n_windows).map(|i| ds.union(i * w..(i + 1) * w)).collect();
    let all = ds.union(0..ds.num_units());
    let blocks = all.blocks24();

    // Count columns aligned to `blocks`: every window (and window
    // pair) is a subset of `all`, so its sorted per-block counts
    // merge-align in one linear walk.
    let align = |counts: Vec<(Block24, u32)>| -> Vec<u32> {
        let mut row = vec![0u32; blocks.len()];
        let mut k = 0;
        for (block, n) in counts {
            while blocks[k] != block {
                k += 1;
            }
            row[k] = n;
            k += 1;
        }
        row
    };
    let all_counts = align(all.block_counts());
    let win_counts: Vec<Vec<u32>> = windows.iter().map(|s| align(s.block_counts())).collect();
    let inter_counts: Vec<Vec<u32>> = (1..n_windows)
        .map(|i| align(windows[i - 1].intersect_block_counts(&windows[i])))
        .collect();

    struct Acc {
        active_ips: u64,
        ups: Vec<u64>,   // per pair
        sizes: Vec<u64>, // per window
    }
    let mut per_as: HashMap<Asn, Acc> = HashMap::new();
    for (bi, &block) in blocks.iter().enumerate() {
        let Some(asn) = resolve(block) else { continue };
        let acc = per_as.entry(asn).or_insert_with(|| Acc {
            active_ips: 0,
            ups: vec![0; n_windows - 1],
            sizes: vec![0; n_windows],
        });
        acc.active_ips += all_counts[bi] as u64;
        for i in 0..n_windows {
            let cur = win_counts[i][bi] as u64;
            acc.sizes[i] += cur;
            if i > 0 {
                acc.ups[i - 1] += cur - inter_counts[i - 1][bi] as u64;
            }
        }
    }
    let mut medians = Vec::new();
    for acc in per_as.values() {
        if (acc.active_ips as usize) < min_ips {
            continue;
        }
        let pcts: Vec<f64> = (0..acc.ups.len())
            .filter(|&i| acc.sizes[i + 1] > 0)
            .map(|i| 100.0 * acc.ups[i] as f64 / acc.sizes[i + 1] as f64)
            .collect();
        if let Some(m) = MinMedMax::of(&pcts) {
            medians.push(m.median);
        }
    }
    Ecdf::new(medians)
}

/// BGP attribution of long-term appear/disappear events (Table 2 rows
/// "BGP no change / origin change / announce-withdraw").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BgpBreakdown {
    /// Fraction with the same origin AS in both periods.
    pub no_change: f64,
    /// Fraction routed in both periods but by different origins.
    pub origin_change: f64,
    /// Fraction routed in exactly one of the periods.
    pub announce_withdraw: f64,
}

/// Table 2: long-term appear/disappear between two multi-week unions.
///
/// Generic over the [`ActiveSet`] backend the weekly source produces;
/// defaults to the reference [`AddrSet`] so existing callers that name
/// the type stay valid.
#[derive(Debug, Clone)]
pub struct LongTermChurn<S: ActiveSet = AddrSet> {
    /// Addresses active late but not early.
    pub appear: S,
    /// Addresses active early but not late.
    pub disappear: S,
    /// Fraction of appearing addresses whose entire containing `/24`
    /// appeared (no address of the block active early).
    pub appear_full_block_frac: f64,
    /// Fraction of disappearing addresses whose entire `/24` disappeared.
    pub disappear_full_block_frac: f64,
    /// BGP attribution of appearing addresses.
    pub appear_bgp: BgpBreakdown,
    /// BGP attribution of disappearing addresses.
    pub disappear_bgp: BgpBreakdown,
}

fn bgp_breakdown<S: ActiveSet>(
    addrs: &S,
    bgp: &BgpTimeline,
    early_days: core::ops::Range<u16>,
    late_days: core::ops::Range<u16>,
) -> BgpBreakdown {
    if addrs.is_empty() {
        return BgpBreakdown { no_change: 0.0, origin_change: 0.0, announce_withdraw: 0.0 };
    }
    // Memoize per /24: origins only change at prefix granularity ≥ /24
    // in practice, and this keeps the pass linear.
    let mut cache: HashMap<Block24, (Option<Asn>, Option<Asn>)> = HashMap::new();
    let (mut same, mut diff, mut aw) = (0u64, 0u64, 0u64);
    for addr in addrs.iter() {
        let block = Block24::of(addr);
        let (e, l) = *cache.entry(block).or_insert_with(|| {
            (
                bgp.majority_origin(addr, early_days.clone()),
                bgp.majority_origin(addr, late_days.clone()),
            )
        });
        match (e, l) {
            (Some(a), Some(b)) if a == b => same += 1,
            (Some(_), Some(_)) => diff += 1,
            (None, None) => same += 1, // never routed in either period: no change visible
            _ => aw += 1,
        }
    }
    let total = addrs.len() as f64;
    BgpBreakdown {
        no_change: same as f64 / total,
        origin_change: diff as f64 / total,
        announce_withdraw: aw as f64 / total,
    }
}

fn full_block_fraction<S: ActiveSet>(events: &S, other_period: &S) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let mut covered = 0u64;
    for addr in events.iter() {
        let block = Block24::of(addr).prefix();
        if !other_period.any_in(block) {
            covered += 1;
        }
    }
    covered as f64 / events.len() as f64
}

/// Computes Table 2 over the weekly dataset.
///
/// `early`/`late` are week ranges (paper: weeks 0..9 ≈ Jan/Feb and
/// 43..52 ≈ Nov/Dec); `days_per_week` maps week indices onto the BGP
/// timeline's day axis.
///
/// Accepts any weekly [`Windows`] source, so the bench layer can pass
/// a memoizing cache in place of the raw dataset.
pub fn long_term<W: Windows<Cadence = Weekly>>(
    ws: &W,
    early: core::ops::Range<usize>,
    late: core::ops::Range<usize>,
    bgp: &BgpTimeline,
    days_per_week: u16,
) -> LongTermChurn<W::Set> {
    let early_set = ws.union(early.clone());
    let late_set = ws.union(late.clone());
    let appear = late_set.difference(&early_set);
    let disappear = early_set.difference(&late_set);
    let early_days = early.start as u16 * days_per_week..early.end as u16 * days_per_week;
    let late_days = late.start as u16 * days_per_week..late.end as u16 * days_per_week;
    LongTermChurn {
        appear_full_block_frac: full_block_fraction(&appear, &*early_set),
        disappear_full_block_frac: full_block_fraction(&disappear, &*late_set),
        appear_bgp: bgp_breakdown(&appear, bgp, early_days.clone(), late_days.clone()),
        disappear_bgp: bgp_breakdown(&disappear, bgp, early_days, late_days),
        appear,
        disappear,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cadence::{SlotMatrix, SlotRow};
    use crate::dataset::{DailyDataset, DailyDatasetBuilder, WeeklyDatasetBuilder};
    use crate::engine::AnalysisCtx;
    use ipactive_bgp::{BgpEvent, BgpEventKind, RoutingTable};
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn daily_series_counts_transitions() {
        let mut b = DailyDatasetBuilder::new(4);
        // addr1: days 0,1   addr2: days 1,2,3   addr3: day 3 only
        b.record_hits(0, a("10.0.0.1"), 1);
        b.record_hits(1, a("10.0.0.1"), 1);
        for d in 1..4 {
            b.record_hits(d, a("10.0.0.2"), 1);
        }
        b.record_hits(3, a("10.0.0.3"), 1);
        let s = daily_series(&b.finish());
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], DayChurn { day: 0, active: 1, up: 0, down: 0 });
        assert_eq!(s[1], DayChurn { day: 1, active: 2, up: 1, down: 0 });
        assert_eq!(s[2], DayChurn { day: 2, active: 1, up: 0, down: 1 });
        assert_eq!(s[3], DayChurn { day: 3, active: 2, up: 1, down: 0 });
    }

    #[test]
    fn weekday_profile_averages_by_dow() {
        let mut b = DailyDatasetBuilder::new(14);
        // Two addresses active on weekdays only (days 0..5 and 7..12).
        for d in 0..14usize {
            if d % 7 < 5 {
                b.record_hits(d, a("10.0.0.1"), 1);
                b.record_hits(d, a("10.0.0.2"), 1);
            } else {
                b.record_hits(d, a("10.0.0.1"), 1);
            }
        }
        let profile = weekday_profile(&daily_series(&b.finish()));
        for (dow, &v) in profile.iter().enumerate() {
            let expect = if dow < 5 { 2.0 } else { 1.0 };
            assert!((v - expect).abs() < 1e-12, "dow {dow}");
        }
    }

    #[test]
    fn window_sweep_aggregates_away_short_term_churn() {
        // Address flickers daily but is present in every 2-day window:
        // churn at w=1, none at w=2.
        let mut b = DailyDatasetBuilder::new(8);
        for d in (0..8).step_by(2) {
            b.record_hits(d, a("10.0.0.1"), 1);
        }
        // A stable companion so windows are never empty.
        for d in 0..8 {
            b.record_hits(d, a("10.0.0.2"), 1);
        }
        let ds = b.finish();
        let sweep = window_sweep(&ds, &[1, 2, 4]);
        assert_eq!(sweep.len(), 3);
        let w1 = &sweep[0];
        assert!(w1.up.max > 0.0, "daily flicker must show at w=1");
        let w2 = &sweep[1];
        assert_eq!(w2.up.max, 0.0, "2-day windows absorb the flicker");
        assert_eq!(w2.down.max, 0.0);
    }

    #[test]
    fn window_sweep_skips_oversized_windows() {
        let mut b = DailyDatasetBuilder::new(6);
        b.record_hits(0, a("10.0.0.1"), 1);
        let ds = b.finish();
        // w=6 would give a single window (no pairs): must be skipped.
        let sweep = window_sweep(&ds, &[1, 6, 3]);
        let sizes: Vec<usize> = sweep.iter().map(|s| s.window_days).collect();
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn weekly_window_sweep_matches_manual_counts() {
        let mut b = WeeklyDatasetBuilder::new(8);
        // addr x: alternates 2-week windows (in windows 0 and 2 of w=2);
        // addr y: steady all 8 weeks.
        let (x, y) = (a("10.0.0.1"), a("10.0.0.2"));
        for wk in [0usize, 1, 4, 5] {
            b.record_week(wk, x, 1);
        }
        for wk in 0..8 {
            b.record_week(wk, y, 1);
        }
        let ws = b.finish();
        let sweep = window_sweep(&ws, &[2, 8, 9]);
        // w=9 produces <2 windows and is skipped; w=8 gives 1 window (skipped too).
        assert_eq!(sweep.len(), 1);
        let s = &sweep[0];
        assert_eq!(s.window_days, 14);
        // Window membership for x: [1,0,1,0]; pairs: down, up, down.
        // up%: pair1: 0/1; pair2: 1/2 = 50%; pair3: 0/1.
        assert_eq!(s.up.max, 50.0);
        assert_eq!(s.up.min, 0.0);
        assert_eq!(s.down.max, 50.0);
    }

    #[test]
    fn year_drift_relative_to_week_zero() {
        let mut b = WeeklyDatasetBuilder::new(4);
        // week0: {x, y}; week1: {x}; week2: {x, z}; week3: {z}
        let (x, y, z) = (a("10.0.0.1"), a("10.0.0.2"), a("10.0.1.1"));
        b.record_week(0, x, 1);
        b.record_week(0, y, 1);
        b.record_week(1, x, 1);
        b.record_week(2, x, 1);
        b.record_week(2, z, 1);
        b.record_week(3, z, 1);
        let drift = year_drift(&b.finish());
        assert_eq!(drift.len(), 3);
        assert_eq!((drift[0].appear, drift[0].disappear), (0, 1)); // week1: y gone
        assert_eq!((drift[1].appear, drift[1].disappear), (1, 1)); // week2: z new, y gone
        assert_eq!((drift[2].appear, drift[2].disappear), (1, 2)); // week3: z new, x+y gone
        assert!((drift[2].disappear_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_as_churn_separates_stable_and_volatile_ases() {
        let mut b = DailyDatasetBuilder::new(8);
        // AS 1 (block 10.0.0.0/24): fully stable addresses.
        for host in 0..50u8 {
            for d in 0..8 {
                b.record_hits(d, Block24::of(a("10.0.0.0")).addr(host), 1);
            }
        }
        // AS 2 (block 10.0.1.0/24): half the addresses alternate windows.
        for host in 0..50u8 {
            for d in 0..8 {
                let volatile = host % 2 == 0;
                // Volatile hosts occupy odd 2-day windows only, yielding
                // up events in half of the window pairs.
                let on = if volatile { (d / 2) % 2 == 1 } else { true };
                if on {
                    b.record_hits(d, Block24::of(a("10.0.1.0")).addr(host), 1);
                }
            }
        }
        let ds = b.finish();
        let resolve = |block: Block24| {
            Some(if block == Block24::of(a("10.0.0.0")) { Asn(1) } else { Asn(2) })
        };
        let ecdf = per_as_churn(&ds, 2, 10, resolve);
        assert_eq!(ecdf.len(), 2);
        let samples = ecdf.samples();
        assert_eq!(samples[0], 0.0); // the stable AS
        assert!(samples[1] > 20.0, "volatile AS median {}%", samples[1]);
    }

    #[test]
    fn per_as_churn_applies_min_ips_filter() {
        let mut b = DailyDatasetBuilder::new(4);
        b.record_hits(0, a("10.0.0.1"), 1);
        let ds = b.finish();
        let ecdf = per_as_churn(&ds, 2, 100, |_| Some(Asn(9)));
        assert!(ecdf.is_empty());
    }

    #[test]
    #[should_panic(expected = "need at least two windows")]
    fn per_as_churn_rejects_a_zero_day_window() {
        let mut b = DailyDatasetBuilder::new(4);
        b.record_hits(0, a("10.0.0.1"), 1);
        per_as_churn(&b.finish(), 0, 1, |_| Some(Asn(9)));
    }

    /// A 12-day dataset with steady, flickering, and one-shot
    /// addresses across three blocks — enough texture to exercise
    /// every transition kind in the set-algebra forms.
    fn churny_fixture() -> DailyDataset {
        let mut b = DailyDatasetBuilder::new(12);
        for d in 0..12 {
            b.record_hits(d, a("10.0.0.1"), 1); // steady
        }
        for d in (0..12).step_by(2) {
            b.record_hits(d, a("10.0.0.2"), 1); // daily flicker
        }
        for d in (0..12).step_by(3) {
            b.record_hits(d, a("10.0.1.7"), 1); // slower flicker, block 2
        }
        b.record_hits(5, a("10.0.2.9"), 1); // one-shot, block 3
        b.record_hits(11, a("10.0.2.10"), 1); // appears at the end
        b.finish()
    }

    /// The engine over `ds`, whose memoized day windows every daily
    /// analysis must read as it reads the bare dataset.
    fn day_engine(ds: &DailyDataset) -> AnalysisCtx {
        AnalysisCtx::new(Arc::new(ds.clone()), Arc::new(WeeklyDatasetBuilder::new(0).finish()))
    }

    /// Every active address's block and slot row, one `bool` per unit:
    /// the matrix the set forms are scanned against.
    fn matrix<M: SlotMatrix>(ds: &M) -> Vec<(Block24, Vec<bool>)> {
        let n = ds.num_slots();
        let unit = |row: M::Row, u: usize| row.meets(M::Row::span(u..u + 1));
        let rows = ds.rows().flat_map(|(block, rows)| {
            rows.iter().map(move |&row| (block, (0..n).map(|u| unit(row, u)).collect::<Vec<_>>()))
        });
        rows.filter(|(_, row)| row.contains(&true)).collect()
    }

    /// Whether `row` is active anywhere in window `i` of `w` units.
    fn in_window(row: &[bool], w: usize, i: usize) -> bool {
        row[i * w..(i + 1) * w].contains(&true)
    }

    /// Per-pair up and down percentages of `w`-unit windows over the
    /// rows `m` of an `n`-unit matrix, counted row by row.
    fn matrix_pair_percentages(m: &[&[bool]], n: usize, w: usize) -> (Vec<f64>, Vec<f64>) {
        let count = |f: &dyn Fn(&[bool]) -> bool| m.iter().filter(|r| f(r)).count() as f64;
        let (mut up, mut down) = (Vec::new(), Vec::new());
        for i in 1..n / w {
            let prev = count(&|r| in_window(r, w, i - 1));
            let cur = count(&|r| in_window(r, w, i));
            if cur > 0.0 {
                up.push(100.0 * count(&|r| !in_window(r, w, i - 1) && in_window(r, w, i)) / cur);
            }
            if prev > 0.0 {
                down.push(100.0 * count(&|r| in_window(r, w, i - 1) && !in_window(r, w, i)) / prev);
            }
        }
        (up, down)
    }

    /// Fig 4(b) by a row scan per window size.
    fn matrix_sweep<M: SlotMatrix>(ds: &M, sizes: &[usize]) -> Vec<WindowChurn> {
        let (m, n) = (matrix(ds), ds.num_slots());
        let rows: Vec<&[bool]> = m.iter().map(|(_, row)| &row[..]).collect();
        let zero = MinMedMax { min: 0.0, median: 0.0, max: 0.0 };
        let sizes = sizes.iter().filter(|&&w| w >= 1 && n / w >= 2);
        sizes
            .map(|&w| {
                let (up, down) = matrix_pair_percentages(&rows, n, w);
                WindowChurn {
                    window_days: w * M::Cadence::DAYS_PER_UNIT,
                    up: MinMedMax::of(&up).unwrap_or(zero),
                    down: MinMedMax::of(&down).unwrap_or(zero),
                }
            })
            .collect()
    }

    #[test]
    fn daily_series_over_matches_matrix_scan() {
        let ds = churny_fixture();
        let m = matrix(&ds);
        let count = |f: &dyn Fn(&[bool]) -> bool| m.iter().filter(|(_, r)| f(r)).count();
        let expect: Vec<DayChurn> = (0..ds.num_days)
            .map(|day| DayChurn {
                day,
                active: count(&|r| r[day]),
                up: count(&|r| day > 0 && !r[day - 1] && r[day]),
                down: count(&|r| day > 0 && r[day - 1] && !r[day]),
            })
            .collect();
        let series = daily_series(&ds);
        assert_eq!(series, expect);
        assert_eq!(daily_series(day_engine(&ds).windows::<Daily>()), expect);
        let mut profile = [0f64; 7];
        for (dow, p) in profile.iter_mut().enumerate() {
            let active: Vec<usize> = (dow..ds.num_days).step_by(7).map(|d| count(&|r| r[d])).collect();
            *p = active.iter().sum::<usize>() as f64 / active.len() as f64;
        }
        assert_eq!(weekday_profile(&series), profile);
    }

    #[test]
    fn window_sweep_over_matches_matrix_scan() {
        let ds = churny_fixture();
        let sizes = [1usize, 2, 3, 4, 6, 12];
        let expect = matrix_sweep(&ds, &sizes);
        assert_eq!(expect.len(), 5); // 12 days leave one window of 12
        assert_eq!(window_sweep(&ds, &sizes), expect);
        assert_eq!(window_sweep(day_engine(&ds).windows::<Daily>(), &sizes), expect);
    }

    #[test]
    fn weekly_window_sweep_over_matches_matrix_scan() {
        let mut b = WeeklyDatasetBuilder::new(8);
        for wk in [0usize, 1, 4, 5] {
            b.record_week(wk, a("10.0.0.1"), 1);
        }
        for wk in 0..8 {
            b.record_week(wk, a("10.0.0.2"), 1);
        }
        b.record_week(7, a("10.0.3.3"), 1);
        let ws = b.finish();
        let sizes = [1usize, 2, 4, 8];
        let expect = matrix_sweep(&ws, &sizes);
        assert_eq!(window_sweep(&ws, &sizes), expect);
        let no_days = DailyDatasetBuilder::new(0).finish();
        let engine: AnalysisCtx = AnalysisCtx::new(Arc::new(no_days), Arc::new(ws.clone()));
        assert_eq!(window_sweep(engine.windows::<Weekly>(), &sizes), expect);
    }

    #[test]
    fn per_as_churn_over_matches_matrix_scan() {
        let ds = churny_fixture();
        let resolve = |block: Block24| {
            Some(if block == Block24::of(a("10.0.0.0")) { Asn(1) } else { Asn(2) })
        };
        let (m, w) = (matrix(&ds), 2);
        let mut per_as: HashMap<Asn, Vec<&[bool]>> = HashMap::new();
        for (block, row) in &m {
            per_as.entry(resolve(*block).unwrap()).or_default().push(row);
        }
        let expect = |min_ips: usize| {
            let rows = per_as.values().filter(|rows| rows.len() >= min_ips);
            let pcts = rows.map(|rows| matrix_pair_percentages(rows, ds.num_days, w).0);
            let medians = pcts.filter_map(|pcts| MinMedMax::of(&pcts)).map(|m| m.median);
            Ecdf::new(medians.collect()).samples().to_vec()
        };
        let engine = day_engine(&ds);
        for min_ips in [1, 100] {
            let want = expect(min_ips);
            assert_eq!(per_as_churn(&ds, w, min_ips, resolve).samples(), &want[..]);
            let days = engine.windows::<Daily>();
            assert_eq!(per_as_churn(days, w, min_ips, resolve).samples(), &want[..]);
        }
        // Both ASes pass a filter of one; neither passes the min_ips filter.
        assert_eq!(expect(1).len(), 2);
        assert!(expect(100).is_empty());
    }

    #[test]
    fn long_term_full_block_and_bgp_attribution() {
        let mut b = WeeklyDatasetBuilder::new(8);
        // Block A (10.0.0.0/24): active early only — disappears entirely.
        for host in 0..10u8 {
            b.record_week(0, Block24::of(a("10.0.0.0")).addr(host), 1);
        }
        // Block B (10.0.1.0/24): active late only — appears entirely.
        for host in 0..10u8 {
            b.record_week(7, Block24::of(a("10.0.1.0")).addr(host), 1);
        }
        // Block C (10.0.2.0/24): one addr swaps for another (partial).
        b.record_week(0, a("10.0.2.1"), 1);
        b.record_week(0, a("10.0.2.2"), 1);
        b.record_week(7, a("10.0.2.2"), 1);
        b.record_week(7, a("10.0.2.3"), 1);
        let ws = b.finish();

        let mut table = RoutingTable::new();
        table.announce("10.0.0.0/16".parse().unwrap(), Asn(77));
        let mut bgp = BgpTimeline::new(table);
        // Block B's /24 gets announced (more specific) mid-year by AS88.
        bgp.push(BgpEvent {
            day: 30,
            prefix: "10.0.1.0/24".parse().unwrap(),
            kind: BgpEventKind::OriginChange { to: Asn(88) },
        });

        let lt = long_term(&ws, 0..2, 6..8, &bgp, 7);
        assert_eq!(lt.appear.len(), 11); // block B (10) + 10.0.2.3
        assert_eq!(lt.disappear.len(), 11); // block A (10) + 10.0.2.1
        assert!((lt.appear_full_block_frac - 10.0 / 11.0).abs() < 1e-9);
        assert!((lt.disappear_full_block_frac - 10.0 / 11.0).abs() < 1e-9);
        // Appearing block B changed origin 77 -> 88; 10.0.2.3 stayed at 77.
        assert!((lt.appear_bgp.origin_change - 10.0 / 11.0).abs() < 1e-9);
        assert!((lt.appear_bgp.no_change - 1.0 / 11.0).abs() < 1e-9);
        // Disappearing addresses all stayed under AS77.
        assert!((lt.disappear_bgp.no_change - 1.0).abs() < 1e-9);
    }
}
