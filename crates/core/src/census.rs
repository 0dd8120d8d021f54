//! Dataset census — Table 1's totals and per-snapshot averages.

use crate::dataset::{DailyDataset, WeeklyDataset};
use ipactive_bgp::Asn;
use ipactive_net::Block24;
use std::collections::HashMap;

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
pub fn daily_census<F>(ds: &DailyDataset, resolve: F) -> CensusRow
where
    F: FnMut(Block24) -> Option<Asn>,
{
    let blocks = ds.blocks.iter().map(|rec| (rec.block, rec.rows.iter().map(|row| row.bits())));
    census(ds.num_days, blocks, resolve)
}

/// Computes the weekly (Table 1, second row) census.
pub fn weekly_census<F>(ws: &WeeklyDataset, resolve: F) -> CensusRow
where
    F: FnMut(Block24) -> Option<Asn>,
{
    let blocks = ws.blocks.iter().map(|(block, rows)| (*block, rows.iter().map(|&r| r.into())));
    census(ws.num_weeks, blocks, resolve)
}

/// Table 1's row from each block's rows of snapshot bits (days or
/// weeks).
///
/// An average is a sum over snapshots divided by their number, and
/// each sum is a count of bits: an address contributes one per active
/// snapshot (its row's popcount), a block one per snapshot any of its
/// addresses was active in (the popcount of its rows OR-ed), and an AS
/// one per snapshot any of its blocks was (the popcount of its blocks'
/// ORs, OR-ed in one map entry). No snapshot is visited on its own.
fn census<F>(
    snapshots: usize,
    blocks: impl Iterator<Item = (Block24, impl Iterator<Item = u128>)>,
    mut resolve: F,
) -> CensusRow
where
    F: FnMut(Block24) -> Option<Asn>,
{
    let (mut ips_total, mut ips_sum) = (0u64, 0u64);
    let (mut blocks_total, mut blocks_sum) = (0u64, 0u64);
    let mut as_active: HashMap<Asn, u128> = HashMap::new();
    for (block, rows) in blocks {
        let mut block_active = 0u128;
        for row in rows {
            ips_total += u64::from(row != 0);
            ips_sum += u64::from(row.count_ones());
            block_active |= row;
        }
        if block_active != 0 {
            blocks_total += 1;
            blocks_sum += u64::from(block_active.count_ones());
            if let Some(asn) = resolve(block) {
                *as_active.entry(asn).or_default() |= block_active;
            }
        }
    }
    let avg = |sum: u64| sum as f64 / snapshots.max(1) as f64;
    CensusRow {
        snapshots,
        ips_total,
        ips_avg: avg(ips_sum),
        blocks_total,
        blocks_avg: avg(blocks_sum),
        ases_total: as_active.len() as u64,
        ases_avg: avg(as_active.values().map(|bits| u64::from(bits.count_ones())).sum()),
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
