//! Whole-block outage detection.
//!
//! The paper's related work studies Internet reliability through
//! address activity (Quan et al.'s Trinocular; Padmanabhan et al.
//! correlate address changes with outages at customer premises). The
//! same activity matrices this library builds for utilization also
//! expose *outages*: a block that is steadily active, goes completely
//! dark for days, and then returns did not change its assignment
//! practice — it lost connectivity. This module finds such episodes
//! and distinguishes them from lifecycle changes (which change
//! detection in [`crate::change`] owns).

use crate::dataset::{BlockRecord, DailyDataset};
use ipactive_net::Block24;

/// One detected outage episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The affected block.
    pub block: Block24,
    /// First dark day (0-based dataset day).
    pub start: usize,
    /// Number of consecutive dark days.
    pub days: usize,
}

/// Detection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageParams {
    /// Minimum dark streak to call an outage (paper-adjacent studies
    /// use hours; at day granularity 2+ days is a strong signal).
    pub min_days: usize,
    /// Minimum mean daily active addresses in the surrounding active
    /// period — a nearly-idle block going quiet is noise, not outage.
    pub min_baseline: f64,
}

impl Default for OutageParams {
    fn default() -> Self {
        OutageParams { min_days: 2, min_baseline: 8.0 }
    }
}

/// Finds outage episodes in one block: maximal all-addresses-dark
/// day runs, strictly *inside* the block's active span (dark leading
/// and trailing edges are lifecycle, not outage).
pub fn block_outages(
    rec: &BlockRecord,
    num_days: usize,
    params: &OutageParams,
) -> Vec<Outage> {
    // Daily activity counts.
    let daily: Vec<u32> = (0..num_days).map(|d| rec.active_on(d)).collect();
    let first_active = match daily.iter().position(|&n| n > 0) {
        Some(i) => i,
        None => return Vec::new(),
    };
    let last_active = daily.iter().rposition(|&n| n > 0).expect("nonempty");
    let active_days = daily[first_active..=last_active]
        .iter()
        .filter(|&&n| n > 0)
        .count()
        .max(1);
    let baseline = daily[first_active..=last_active]
        .iter()
        .map(|&n| n as f64)
        .sum::<f64>()
        / active_days as f64;
    if baseline < params.min_baseline {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut dark_start: Option<usize> = None;
    for (d, &count) in daily
        .iter()
        .enumerate()
        .take(last_active + 1)
        .skip(first_active)
    {
        if count == 0 {
            dark_start.get_or_insert(d);
        } else if let Some(start) = dark_start.take() {
            if d - start >= params.min_days {
                out.push(Outage { block: rec.block, start, days: d - start });
            }
        }
    }
    // A dark run touching last_active can't exist (last_active > 0).
    out
}

/// Finds outages across the whole dataset, ordered by block then day.
pub fn detect(ds: &DailyDataset, params: &OutageParams) -> Vec<Outage> {
    ds.blocks
        .iter()
        .flat_map(|rec| block_outages(rec, ds.num_days, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DailyDatasetBuilder;
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn block_with_gap(gap: core::ops::Range<usize>) -> DailyDataset {
        let mut b = DailyDatasetBuilder::new(14);
        let block = Block24::of(a("10.0.0.0"));
        for host in 0..30u8 {
            for d in 0..14 {
                if !gap.contains(&d) {
                    b.record_hits(d, block.addr(host), 1);
                }
            }
        }
        b.finish()
    }

    #[test]
    fn detects_mid_window_outage() {
        let ds = block_with_gap(5..9);
        let outages = detect(&ds, &OutageParams::default());
        assert_eq!(outages.len(), 1);
        assert_eq!(outages[0].start, 5);
        assert_eq!(outages[0].days, 4);
    }

    #[test]
    fn single_dark_day_is_ignored_by_default() {
        let ds = block_with_gap(5..6);
        assert!(detect(&ds, &OutageParams::default()).is_empty());
        // But a 1-day-min parameterization sees it.
        let p = OutageParams { min_days: 1, ..Default::default() };
        assert_eq!(detect(&ds, &p).len(), 1);
    }

    #[test]
    fn lifecycle_edges_are_not_outages() {
        // Block starts late and ends early: dark edges are lifecycle.
        let mut b = DailyDatasetBuilder::new(14);
        let block = Block24::of(a("10.0.0.0"));
        for host in 0..30u8 {
            for d in 4..10 {
                b.record_hits(d, block.addr(host), 1);
            }
        }
        let ds = b.finish();
        assert!(detect(&ds, &OutageParams::default()).is_empty());
    }

    #[test]
    fn idle_blocks_do_not_alarm() {
        // Two lonely addresses flickering: below the baseline gate.
        let mut b = DailyDatasetBuilder::new(14);
        b.record_hits(0, a("10.0.0.1"), 1);
        b.record_hits(9, a("10.0.0.2"), 1);
        let ds = b.finish();
        assert!(detect(&ds, &OutageParams::default()).is_empty());
    }

    #[test]
    fn multiple_outages_in_one_block() {
        let mut b = DailyDatasetBuilder::new(14);
        let block = Block24::of(a("10.0.0.0"));
        for host in 0..30u8 {
            for d in 0..14 {
                if !(3..5).contains(&d) && !(8..11).contains(&d) {
                    b.record_hits(d, block.addr(host), 1);
                }
            }
        }
        let ds = b.finish();
        let outages = detect(&ds, &OutageParams::default());
        assert_eq!(outages.len(), 2);
        assert_eq!((outages[0].start, outages[0].days), (3, 2));
        assert_eq!((outages[1].start, outages[1].days), (8, 3));
    }

    #[test]
    fn empty_dataset_is_quiet() {
        let ds = DailyDatasetBuilder::new(14).finish();
        assert!(detect(&ds, &OutageParams::default()).is_empty());
    }
}
