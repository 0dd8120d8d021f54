//! Dataset census — Table 1's totals and per-snapshot averages.

use crate::dataset::{DailyDataset, WeeklyDataset};
use ipactive_bgp::Asn;
use ipactive_net::Block24;
use std::collections::{HashMap, HashSet};

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensusRow {
    /// Number of snapshots (days or weeks).
    pub snapshots: usize,
    /// Distinct active IP addresses over the whole period.
    pub ips_total: u64,
    /// Average active addresses per snapshot.
    pub ips_avg: f64,
    /// Distinct active `/24` blocks over the whole period.
    pub blocks_total: u64,
    /// Average active blocks per snapshot.
    pub blocks_avg: f64,
    /// Distinct active ASes over the whole period.
    pub ases_total: u64,
    /// Average active ASes per snapshot.
    pub ases_avg: f64,
}

/// Computes the daily (Table 1, first row) census. `resolve` maps a
/// `/24` to its origin AS.
pub fn daily_census<F>(ds: &DailyDataset, mut resolve: F) -> CensusRow
where
    F: FnMut(Block24) -> Option<Asn>,
{
    let days = ds.num_days;
    let mut ips_per_day = vec![0u64; days];
    let mut blocks_per_day = vec![0u64; days];
    let mut ases_per_day: Vec<HashSet<Asn>> = vec![HashSet::new(); days];
    let mut ases_total: HashSet<Asn> = HashSet::new();
    let mut ips_total = 0u64;
    let mut blocks_total = 0u64;
    let mut as_cache: HashMap<Block24, Option<Asn>> = HashMap::new();
    for rec in &ds.blocks {
        let asn = *as_cache.entry(rec.block).or_insert_with(|| resolve(rec.block));
        let mut block_any = false;
        let mut block_days = [false; 128];
        for bits in rec.rows.iter() {
            if bits.is_empty() {
                continue;
            }
            ips_total += 1;
            block_any = true;
            for d in bits.iter() {
                ips_per_day[d] += 1;
                block_days[d] = true;
            }
        }
        if block_any {
            blocks_total += 1;
            if let Some(asn) = asn {
                ases_total.insert(asn);
            }
            for (d, &active) in block_days.iter().enumerate().take(days) {
                if active {
                    blocks_per_day[d] += 1;
                    if let Some(asn) = asn {
                        ases_per_day[d].insert(asn);
                    }
                }
            }
        }
    }
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    CensusRow {
        snapshots: days,
        ips_total,
        ips_avg: avg(&ips_per_day),
        blocks_total,
        blocks_avg: avg(&blocks_per_day),
        ases_total: ases_total.len() as u64,
        ases_avg: ases_per_day.iter().map(|s| s.len() as u64).sum::<u64>() as f64
            / days.max(1) as f64,
    }
}

/// Computes the weekly (Table 1, second row) census.
pub fn weekly_census<F>(ws: &WeeklyDataset, mut resolve: F) -> CensusRow
where
    F: FnMut(Block24) -> Option<Asn>,
{
    let weeks = ws.num_weeks;
    let mut ips_per_week = vec![0u64; weeks];
    let mut blocks_per_week = vec![0u64; weeks];
    let mut ases_per_week: Vec<HashSet<Asn>> = vec![HashSet::new(); weeks];
    let mut ases_total: HashSet<Asn> = HashSet::new();
    let mut ips_total = 0u64;
    let mut blocks_total = 0u64;
    for (block, rows) in &ws.blocks {
        let asn = resolve(*block);
        let mut block_weeks = 0u64;
        for &bits in rows.iter() {
            if bits == 0 {
                continue;
            }
            ips_total += 1;
            block_weeks |= bits;
            let mut b = bits;
            while b != 0 {
                let w = b.trailing_zeros() as usize;
                ips_per_week[w] += 1;
                b &= b - 1;
            }
        }
        if block_weeks != 0 {
            blocks_total += 1;
            if let Some(asn) = asn {
                ases_total.insert(asn);
            }
            let mut b = block_weeks;
            while b != 0 {
                let w = b.trailing_zeros() as usize;
                blocks_per_week[w] += 1;
                if let Some(asn) = asn {
                    ases_per_week[w].insert(asn);
                }
                b &= b - 1;
            }
        }
    }
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    CensusRow {
        snapshots: weeks,
        ips_total,
        ips_avg: avg(&ips_per_week),
        blocks_total,
        blocks_avg: avg(&blocks_per_week),
        ases_total: ases_total.len() as u64,
        ases_avg: ases_per_week.iter().map(|s| s.len() as u64).sum::<u64>() as f64
            / weeks.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DailyDatasetBuilder, WeeklyDatasetBuilder};
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn daily_census_counts() {
        let mut b = DailyDatasetBuilder::new(2);
        // AS1 block: 2 addrs, one active both days, one only day 0.
        b.record_hits(0, a("10.0.0.1"), 1);
        b.record_hits(1, a("10.0.0.1"), 1);
        b.record_hits(0, a("10.0.0.2"), 1);
        // AS2 block: 1 addr active day 1 only.
        b.record_hits(1, a("20.0.0.1"), 1);
        let ds = b.finish();
        let row = daily_census(&ds, |blk| {
            Some(if blk.network() == a("10.0.0.0") { Asn(1) } else { Asn(2) })
        });
        assert_eq!(row.snapshots, 2);
        assert_eq!(row.ips_total, 3);
        assert!((row.ips_avg - 2.0).abs() < 1e-12); // day0: 2, day1: 2
        assert_eq!(row.blocks_total, 2);
        assert!((row.blocks_avg - 1.5).abs() < 1e-12); // day0: 1 block, day1: 2
        assert_eq!(row.ases_total, 2);
        assert!((row.ases_avg - 1.5).abs() < 1e-12);
    }

    #[test]
    fn daily_census_with_unresolvable_blocks() {
        let mut b = DailyDatasetBuilder::new(1);
        b.record_hits(0, a("10.0.0.1"), 1);
        let ds = b.finish();
        let row = daily_census(&ds, |_| None);
        assert_eq!(row.ases_total, 0);
        assert_eq!(row.ips_total, 1);
    }

    #[test]
    fn weekly_census_counts() {
        let mut b = WeeklyDatasetBuilder::new(3);
        b.record_week(0, a("10.0.0.1"), 1);
        b.record_week(2, a("10.0.0.1"), 1);
        b.record_week(1, a("20.0.0.1"), 1);
        let ws = b.finish();
        let row = weekly_census(&ws, |_| Some(Asn(9)));
        assert_eq!(row.snapshots, 3);
        assert_eq!(row.ips_total, 2);
        assert!((row.ips_avg - 1.0).abs() < 1e-12);
        assert_eq!(row.blocks_total, 2);
        assert_eq!(row.ases_total, 1);
        assert!((row.ases_avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn totals_exceed_averages_under_churn() {
        // The Table 1 signature: total >> average when the population churns.
        let mut b = WeeklyDatasetBuilder::new(4);
        for w in 0..4usize {
            // Each week a different address.
            b.record_week(w, a("10.0.0.0").saturating_add(w as u32 + 1), 1);
        }
        let ws = b.finish();
        let row = weekly_census(&ws, |_| Some(Asn(1)));
        assert_eq!(row.ips_total, 4);
        assert!((row.ips_avg - 1.0).abs() < 1e-12);
        assert!(row.ips_total as f64 > row.ips_avg);
    }
}
