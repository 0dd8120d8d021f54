//! Address-market and governance analytics (Section 8, "implications
//! to Internet governance").
//!
//! The paper closes by reading its utilization measurements as market
//! signals: how much advertised space is actually used, how much
//! could be freed inside already-active blocks, and which holders are
//! natural transfer-market sellers. This module computes those
//! quantities from a dataset plus a routing table.

use crate::dataset::DailyDataset;
use ipactive_bgp::{Asn, RoutingTable};
use ipactive_net::Block24;
use std::collections::HashMap;

/// Whole-space utilization summary (Section 8's "42.8% of advertised
/// unicast space is active" and "roughly 450 million addresses may be
/// unused" claims, at the dataset's scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketSurvey {
    /// Addresses covered by the routing table (deduplicated).
    pub advertised: u64,
    /// Distinct active addresses in the observation window.
    pub active: u64,
    /// `active / advertised`.
    pub active_share: f64,
    /// Addresses inside *active* `/24`s that never showed activity —
    /// the "unused despite being in operation" pool.
    pub idle_in_active_blocks: u64,
    /// Number of active `/24` blocks considered.
    pub active_blocks: u64,
}

/// Computes the survey.
pub fn survey(ds: &DailyDataset, table: &RoutingTable) -> MarketSurvey {
    let advertised = table.covered_addresses();
    let active = ds.total_active() as u64;
    let active_blocks = ds
        .blocks
        .iter()
        .filter(|r| r.any_active(0..ds.num_days))
        .count() as u64;
    let in_blocks = active_blocks * 256;
    MarketSurvey {
        advertised,
        active,
        active_share: if advertised == 0 { 0.0 } else { active as f64 / advertised as f64 },
        idle_in_active_blocks: in_blocks.saturating_sub(active),
        active_blocks,
    }
}

/// One holder's idle-address estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsSlack {
    /// The holder.
    pub asn: Asn,
    /// `/24` blocks attributed to the holder.
    pub blocks_held: u32,
    /// Addresses held (256 × blocks).
    pub addrs_held: u32,
    /// Addresses without any observed activity.
    pub addrs_idle: u32,
}

impl AsSlack {
    /// Idle fraction of the holding.
    pub fn idle_fraction(&self) -> f64 {
        if self.addrs_held == 0 {
            0.0
        } else {
            self.addrs_idle as f64 / self.addrs_held as f64
        }
    }
}

/// Ranks holders by idle addresses, descending — the "likely candidate
/// sellers" list. `holdings` enumerates every `/24` a holder is
/// responsible for (including fully idle ones, which a dataset alone
/// cannot see).
pub fn slack_ranking(holdings: &[(Block24, Asn)], ds: &DailyDataset) -> Vec<AsSlack> {
    let mut per_as: HashMap<Asn, AsSlack> = HashMap::new();
    for &(block, asn) in holdings {
        let slack = per_as.entry(asn).or_insert(AsSlack {
            asn,
            blocks_held: 0,
            addrs_held: 0,
            addrs_idle: 0,
        });
        slack.blocks_held += 1;
        slack.addrs_held += 256;
        let used = ds
            .block(block)
            .map(|r| r.filling_degree(0..ds.num_days))
            .unwrap_or(0);
        slack.addrs_idle += 256 - used;
    }
    let mut out: Vec<AsSlack> = per_as.into_values().collect();
    out.sort_by(|x, y| y.addrs_idle.cmp(&x.addrs_idle).then(x.asn.0.cmp(&y.asn.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DailyDatasetBuilder;
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn dataset() -> DailyDataset {
        let mut b = DailyDatasetBuilder::new(4);
        // Block A: 200 active addresses.
        for host in 0..200u8 {
            b.record_hits(0, Block24::of(a("10.0.0.0")).addr(host), 1);
        }
        // Block B: 10 active addresses.
        for host in 0..10u8 {
            b.record_hits(1, Block24::of(a("10.0.1.0")).addr(host), 1);
        }
        b.finish()
    }

    #[test]
    fn survey_counts() {
        let ds = dataset();
        let mut table = RoutingTable::new();
        table.announce("10.0.0.0/22".parse().unwrap(), Asn(1)); // 1024 addrs
        let s = survey(&ds, &table);
        assert_eq!(s.advertised, 1024);
        assert_eq!(s.active, 210);
        assert!((s.active_share - 210.0 / 1024.0).abs() < 1e-12);
        assert_eq!(s.active_blocks, 2);
        assert_eq!(s.idle_in_active_blocks, 2 * 256 - 210);
    }

    #[test]
    fn survey_with_empty_table() {
        let ds = dataset();
        let s = survey(&ds, &RoutingTable::new());
        assert_eq!(s.advertised, 0);
        assert_eq!(s.active_share, 0.0);
    }

    #[test]
    fn slack_ranking_orders_by_idle() {
        let ds = dataset();
        let holdings = vec![
            (Block24::of(a("10.0.0.0")), Asn(1)), // 56 idle
            (Block24::of(a("10.0.1.0")), Asn(2)), // 246 idle
            (Block24::of(a("10.0.2.0")), Asn(2)), // fully idle: 256
        ];
        let ranking = slack_ranking(&holdings, &ds);
        assert_eq!(ranking.len(), 2);
        assert_eq!(ranking[0].asn, Asn(2));
        assert_eq!(ranking[0].blocks_held, 2);
        assert_eq!(ranking[0].addrs_idle, 246 + 256);
        assert!((ranking[0].idle_fraction() - 502.0 / 512.0).abs() < 1e-12);
        assert_eq!(ranking[1].asn, Asn(1));
        assert_eq!(ranking[1].addrs_idle, 56);
    }

    #[test]
    fn empty_holdings_empty_ranking() {
        let ds = dataset();
        assert!(slack_ranking(&[], &ds).is_empty());
    }
}
