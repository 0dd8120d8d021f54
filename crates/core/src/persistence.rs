//! Address persistence and reputation lifetimes (Section 8,
//! "implications to network security").
//!
//! A host's IP address is routinely used as a reputation handle; the
//! paper's point is that the *validity period* of that handle varies
//! by orders of magnitude with the block's assignment practice, and
//! that change detection (Section 5.2) should force early expiry. This
//! module turns activity matrices into per-block persistence measures
//! and TTL recommendations.

use crate::change::ChangePartition;
use crate::dataset::{BlockRecord, DailyDataset};
use ipactive_net::Block24;
use std::collections::HashSet;

/// Persistence profile of one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockPersistence {
    /// The block.
    pub block: Block24,
    /// Filling degree over the window.
    pub fd: u32,
    /// Mean number of simultaneously active addresses per day.
    pub mean_daily_active: f64,
    /// `mean_daily_active / fd`: 1.0 means the same addresses carry
    /// the activity every day (sticky mapping); values near 0 mean
    /// each day's activity lands on different addresses (cycling
    /// pool, many users per address over time).
    pub reuse_ratio: f64,
    /// Mean per-address activity streak length in days (how long an
    /// address stays continuously active once it lights up).
    pub mean_streak_days: f64,
}

/// A recommended reputation lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReputationTtl {
    /// The block's assignment practice just changed: drop all cached
    /// reputation now.
    ExpireNow,
    /// Addresses cycle through users within a day or two.
    Hours,
    /// Addresses stick to users for days.
    Days,
    /// Address ≈ subscriber: reputation can live for weeks.
    Weeks,
}

/// Computes the persistence profile of one block over `days`.
/// Returns `None` if the block had no activity in the window.
///
/// ```
/// use ipactive_core::{persistence, DailyDatasetBuilder};
/// let mut b = DailyDatasetBuilder::new(4);
/// for d in 0..4 {
///     b.record_hits(d, "10.0.0.1".parse().unwrap(), 1);
/// }
/// let ds = b.finish();
/// let p = persistence::block_persistence(&ds.blocks[0], 0..4).unwrap();
/// assert_eq!(p.reuse_ratio, 1.0); // perfectly sticky
/// assert_eq!(persistence::recommend_ttl(&p, false), persistence::ReputationTtl::Weeks);
/// ```
pub fn block_persistence(
    rec: &BlockRecord,
    days: core::ops::Range<usize>,
) -> Option<BlockPersistence> {
    let fd = rec.filling_degree(days.clone());
    if fd == 0 {
        return None;
    }
    let span = (days.end - days.start) as f64;
    let active_addr_days: u64 = rec
        .rows
        .iter()
        .map(|b| b.count_range(days.start, days.end) as u64)
        .sum();
    let mean_daily_active = active_addr_days as f64 / span;
    // Mean streak length: total active days divided by the number of
    // maximal runs of consecutive active days across all addresses.
    let mut streaks = 0u64;
    for bits in rec.rows.iter() {
        let mut prev = false;
        for d in days.clone() {
            let cur = bits.get(d);
            if cur && !prev {
                streaks += 1;
            }
            prev = cur;
        }
    }
    let mean_streak_days =
        if streaks == 0 { 0.0 } else { active_addr_days as f64 / streaks as f64 };
    Some(BlockPersistence {
        block: rec.block,
        fd,
        mean_daily_active,
        reuse_ratio: mean_daily_active / fd as f64,
        mean_streak_days,
    })
}

/// Maps a persistence profile (plus the change-detection verdict) to a
/// TTL recommendation.
///
/// The thresholds encode the paper's qualitative classes: cycling
/// pools (high FD, low reuse) invalidate within hours; sticky dynamic
/// blocks within days; static space within weeks; any block whose
/// assignment practice changed expires immediately.
pub fn recommend_ttl(p: &BlockPersistence, practice_changed: bool) -> ReputationTtl {
    if practice_changed {
        ReputationTtl::ExpireNow
    } else if p.fd > 200 && p.reuse_ratio < 0.5 {
        ReputationTtl::Hours
    } else if p.reuse_ratio < 0.85 {
        ReputationTtl::Days
    } else {
        ReputationTtl::Weeks
    }
}

/// Runs the full analysis over a dataset: persistence + TTL per active
/// block, honoring a prior change-detection partition.
pub fn analyze(
    ds: &DailyDataset,
    changes: &ChangePartition,
) -> Vec<(BlockPersistence, ReputationTtl)> {
    let changed: HashSet<Block24> = changes.major.iter().copied().collect();
    ds.blocks
        .iter()
        .filter_map(|rec| block_persistence(rec, 0..ds.num_days))
        .map(|p| {
            let ttl = recommend_ttl(&p, changed.contains(&p.block));
            (p, ttl)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change;
    use crate::dataset::DailyDatasetBuilder;
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn static_block_is_sticky() {
        let mut b = DailyDatasetBuilder::new(8);
        for host in 0..30u8 {
            for d in 0..8 {
                b.record_hits(d, Block24::of(a("10.0.0.0")).addr(host), 1);
            }
        }
        let ds = b.finish();
        let p = block_persistence(&ds.blocks[0], 0..8).unwrap();
        assert_eq!(p.fd, 30);
        assert!((p.reuse_ratio - 1.0).abs() < 1e-12);
        assert!((p.mean_streak_days - 8.0).abs() < 1e-12);
        assert_eq!(recommend_ttl(&p, false), ReputationTtl::Weeks);
        assert_eq!(recommend_ttl(&p, true), ReputationTtl::ExpireNow);
    }

    #[test]
    fn cycling_pool_gets_hours() {
        // Every address active exactly one day: FD 256, reuse 1/8.
        let mut b = DailyDatasetBuilder::new(8);
        let block = Block24::of(a("10.0.1.0"));
        for host in 0..=255u8 {
            b.record_hits(host as usize % 8, block.addr(host), 1);
        }
        let ds = b.finish();
        let p = block_persistence(&ds.blocks[0], 0..8).unwrap();
        assert_eq!(p.fd, 256);
        assert!(p.reuse_ratio < 0.2);
        assert!((p.mean_streak_days - 1.0).abs() < 1e-12);
        assert_eq!(recommend_ttl(&p, false), ReputationTtl::Hours);
    }

    #[test]
    fn intermittent_static_space_gets_days() {
        // 100 fixed addresses active 6 of 8 days: reuse 0.75.
        let mut b = DailyDatasetBuilder::new(8);
        let block = Block24::of(a("10.0.2.0"));
        for host in 0..100u8 {
            for d in 0..6 {
                b.record_hits(d, block.addr(host), 1);
            }
        }
        let ds = b.finish();
        let p = block_persistence(&ds.blocks[0], 0..8).unwrap();
        assert!((p.reuse_ratio - 0.75).abs() < 1e-12);
        assert_eq!(recommend_ttl(&p, false), ReputationTtl::Days);
    }

    #[test]
    fn empty_block_yields_none() {
        let mut b = DailyDatasetBuilder::new(4);
        b.record_hits(0, a("10.0.0.1"), 1);
        let ds = b.finish();
        assert!(block_persistence(&ds.blocks[0], 1..4).is_none());
    }

    #[test]
    fn analyze_honors_change_partition() {
        let mut b = DailyDatasetBuilder::new(8);
        // Stable sticky block.
        for host in 0..30u8 {
            for d in 0..8 {
                b.record_hits(d, Block24::of(a("10.0.0.0")).addr(host), 1);
            }
        }
        // Block that flips from empty to full at day 4 (major change).
        for host in 0..=255u8 {
            for d in 4..8 {
                b.record_hits(d, Block24::of(a("10.0.1.0")).addr(host), 1);
            }
        }
        let ds = b.finish();
        let part = change::detect(&ds, 4, 0.25);
        let results = analyze(&ds, &part);
        assert_eq!(results.len(), 2);
        let flipped = results
            .iter()
            .find(|(p, _)| p.block == Block24::of(a("10.0.1.0")))
            .unwrap();
        assert_eq!(flipped.1, ReputationTtl::ExpireNow);
        let steady = results
            .iter()
            .find(|(p, _)| p.block == Block24::of(a("10.0.0.0")))
            .unwrap();
        assert_eq!(steady.1, ReputationTtl::Weeks);
    }

    #[test]
    fn streaks_count_runs_not_days() {
        // One address alternating on/off: 4 streaks of length 1.
        let mut b = DailyDatasetBuilder::new(8);
        for d in (0..8).step_by(2) {
            b.record_hits(d, a("10.0.3.1"), 1);
        }
        let ds = b.finish();
        let p = block_persistence(&ds.blocks[0], 0..8).unwrap();
        assert!((p.mean_streak_days - 1.0).abs() < 1e-12);
    }
}
