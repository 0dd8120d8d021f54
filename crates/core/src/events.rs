//! Event sizing and BGP correlation (Section 4.2, Figures 5(b), 5(c)).

use crate::dataset::DailyWindows;
use crate::par::Parallelism;
use ipactive_bgp::BgpTimeline;
use ipactive_net::{ActiveSet, EventSizeHistogram};
use std::sync::Arc;

/// Whether to size/correlate up events or down events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventDirection {
    /// Absent in window *i*, present in window *i+1*.
    Up,
    /// Present in window *i*, absent in window *i+1*.
    Down,
}

/// Builds the Figure 5(b) event-size histogram for one window size,
/// aggregated over all consecutive window pairs in the dataset.
///
/// For each per-address event, the smallest covering prefix mask is
/// computed (see [`ipactive_net::covering_mask`]); the histogram
/// fractions over the display buckets reproduce the figure's bars.
///
/// Accepts any [`DailyWindows`] source, so the bench layer can pass a
/// memoizing cache in place of the raw dataset.
pub fn event_sizes<W: DailyWindows>(
    ds: &W,
    window_days: usize,
    direction: EventDirection,
) -> EventSizeHistogram {
    event_sizes_par(ds, window_days, direction, &Parallelism::serial())
}

/// [`event_sizes`] with the window pairs split into chunk-range
/// subtasks.
///
/// The window unions are fetched up front in window order — the same
/// query sequence the serial form issues, so a memoizing source's
/// hit/miss counts are independent of the subtask schedule. Each pair
/// then sizes its events independently; per-pair histograms merge by
/// counter addition, so the aggregate is order-independent and equal
/// to the serial result.
pub fn event_sizes_par<W: DailyWindows>(
    ds: &W,
    window_days: usize,
    direction: EventDirection,
    par: &Parallelism,
) -> EventSizeHistogram {
    let n_windows = ds.num_days() / window_days;
    if n_windows < 2 {
        return EventSizeHistogram::new();
    }
    let windows: Vec<Arc<W::Set>> = (0..n_windows)
        .map(|i| ds.union(i * window_days..(i + 1) * window_days))
        .collect();
    let chunk_hists = par.run(n_windows - 1, 2, |range| {
        let mut hist = EventSizeHistogram::new();
        for k in range {
            let (prev, cur) = (&*windows[k], &*windows[k + 1]);
            // Events stream out of the pair diff and straight into the
            // histogram — no event set is materialized per pair.
            let pair = match direction {
                EventDirection::Up => EventSizeHistogram::from_diff_events(cur, prev),
                EventDirection::Down => EventSizeHistogram::from_diff_events(prev, cur),
            };
            hist.merge(&pair);
        }
        hist
    });
    let mut hist = EventSizeHistogram::new();
    for h in &chunk_hists {
        hist.merge(h);
    }
    hist
}

/// Figure 5(c): fraction of events coinciding with a BGP change, for
/// one window size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BgpCorrelation {
    /// Window size in days.
    pub window_days: usize,
    /// Percentage of up events whose address was covered by a BGP
    /// change within the window pair's span.
    pub up_pct: f64,
    /// Same for down events.
    pub down_pct: f64,
    /// Same for steadily active addresses (present in both windows) —
    /// the control group.
    pub steady_pct: f64,
}

/// Computes Figure 5(c) for one window size.
///
/// `day_offset` maps dataset day 0 onto the BGP timeline's day axis
/// (the paper's daily window starts mid-August; BGP days count from
/// the start of the year).
pub fn bgp_correlation<W: DailyWindows>(
    ds: &W,
    window_days: usize,
    bgp: &BgpTimeline,
    day_offset: u16,
) -> BgpCorrelation {
    bgp_correlation_par(ds, window_days, bgp, day_offset, &Parallelism::serial())
}

/// [`bgp_correlation`] with the window pairs split into chunk-range
/// subtasks, counting by prefix instead of walking every address.
///
/// Any two CIDR prefixes are nested or disjoint, so the *maximal*
/// changed prefixes of a span partition the changed address space —
/// and "events coinciding with a change" becomes a sum of prefix
/// counts: per maximal prefix `p`, the pair contributes
/// `|Cur ∩ p| − |Cur ∩ Prev ∩ p|` affected up events,
/// `|Prev ∩ p| − |Cur ∩ Prev ∩ p|` affected down events, and
/// `|Cur ∩ Prev ∩ p|` affected steady addresses. The totals are the
/// same integers the per-address membership walk produces, so the
/// percentages agree exactly.
pub fn bgp_correlation_par<W: DailyWindows>(
    ds: &W,
    window_days: usize,
    bgp: &BgpTimeline,
    day_offset: u16,
    par: &Parallelism,
) -> BgpCorrelation {
    let w = window_days;
    let n_windows = ds.num_days() / w;
    assert!(n_windows >= 2, "need at least two windows");
    let windows: Vec<Arc<W::Set>> =
        (0..n_windows).map(|i| ds.union(i * w..(i + 1) * w)).collect();
    // [up_hit, up_all, down_hit, down_all, steady_hit, steady_all]
    let chunk_totals = par.run(n_windows - 1, 2, |range| {
        let mut t = [0u64; 6];
        for k in range {
            let (prev, cur) = (&windows[k], &windows[k + 1]);
            let span_start = day_offset + (k * w) as u16;
            let span_end = day_offset + ((k + 2) * w) as u16;
            let changes = bgp.changes_in(span_start..span_end);
            let inter = cur.intersect(prev);
            let (cur_n, prev_n, inter_n) =
                (cur.len() as u64, prev.len() as u64, inter.len() as u64);
            for p in changes.maximal_prefixes() {
                let c = cur.count_in(p) as u64;
                let pv = prev.count_in(p) as u64;
                let it = inter.count_in(p) as u64;
                t[0] += c - it;
                t[2] += pv - it;
                t[4] += it;
            }
            t[1] += cur_n - inter_n;
            t[3] += prev_n - inter_n;
            t[5] += inter_n;
        }
        t
    });
    let mut tot = [0u64; 6];
    for t in chunk_totals {
        for (a, b) in tot.iter_mut().zip(t) {
            *a += b;
        }
    }
    let pct = |hit: u64, all: u64| if all == 0 { 0.0 } else { 100.0 * hit as f64 / all as f64 };
    BgpCorrelation {
        window_days,
        up_pct: pct(tot[0], tot[1]),
        down_pct: pct(tot[2], tot[3]),
        steady_pct: pct(tot[4], tot[5]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DailyDatasetBuilder;
    use ipactive_bgp::{Asn, BgpEvent, BgpEventKind, RoutingTable};
    use ipactive_net::{Addr, Block24};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn whole_block_flip_sizes_as_block_event() {
        let mut b = DailyDatasetBuilder::new(4);
        // Window size 2. Block X active in window 0 only; block Y in window 1 only.
        // A steady neighbor block bounds growth at /22 distance.
        for host in 0..=255u8 {
            b.record_hits(0, Block24::of(a("10.0.0.0")).addr(host), 1);
            b.record_hits(2, Block24::of(a("10.0.1.0")).addr(host), 1);
        }
        for d in 0..4 {
            b.record_hits(d, a("10.0.2.7"), 1); // steady
        }
        let ds = b.finish();
        let up = event_sizes(&ds, 2, EventDirection::Up);
        assert_eq!(up.total(), 256); // every addr of block Y
        // All events must be "bulky": mask <= /24 (block-or-larger).
        assert!(up.fraction_between(0, 24) > 0.999, "buckets: {:?}", up.figure5b_buckets());
        let down = event_sizes(&ds, 2, EventDirection::Down);
        assert_eq!(down.total(), 256);
        assert!(down.fraction_between(0, 24) > 0.999);
    }

    #[test]
    fn isolated_flips_size_as_single_addresses() {
        let mut b = DailyDatasetBuilder::new(4);
        // Dense steady block with two alternating addresses inside it.
        for host in 0..=255u8 {
            let addr = Block24::of(a("10.0.0.0")).addr(host);
            match host {
                10 => b.record_hits(0, addr, 1), // down after window 0
                11 => b.record_hits(2, addr, 1), // up in window 1
                _ => {
                    for d in 0..4 {
                        b.record_hits(d, addr, 1);
                    }
                }
            }
        }
        let ds = b.finish();
        let up = event_sizes(&ds, 2, EventDirection::Up);
        assert_eq!(up.total(), 1);
        assert!(up.fraction_between(29, 32) > 0.999);
    }

    #[test]
    fn empty_dataset_yields_empty_histogram() {
        let ds = DailyDatasetBuilder::new(4).finish();
        assert_eq!(event_sizes(&ds, 2, EventDirection::Up).total(), 0);
    }

    #[test]
    fn chunked_event_sizes_match_serial() {
        // Many windows (8 of size 1) so the pair loop actually chunks.
        let mut b = DailyDatasetBuilder::new(8);
        for d in 0..8usize {
            b.record_hits(d, a("10.0.0.1"), 1); // steady
            if d % 2 == 0 {
                b.record_hits(d, a("10.0.0.2"), 1); // flicker
            }
            if d % 3 == 0 {
                b.record_hits(d, a("10.0.4.9"), 1); // distant flicker
            }
        }
        let ds = b.finish();
        for dir in [EventDirection::Up, EventDirection::Down] {
            let serial = event_sizes(&ds, 1, dir);
            let chunked = event_sizes_par(&ds, 1, dir, &Parallelism::new(3));
            assert_eq!(serial, chunked);
        }
    }

    #[test]
    fn bgp_correlation_flags_only_covered_events() {
        let mut b = DailyDatasetBuilder::new(4);
        // Two up events in window pair (0,1): one inside a changed
        // prefix, one outside. Plus steady addresses in both regions.
        b.record_hits(2, a("10.0.0.1"), 1); // up, inside change
        b.record_hits(2, a("20.0.0.1"), 1); // up, outside change
        for d in 0..4 {
            b.record_hits(d, a("10.0.0.200"), 1); // steady, inside change
            b.record_hits(d, a("20.0.0.200"), 1); // steady, outside
        }
        b.record_hits(0, a("20.0.0.9"), 1); // down, outside change
        let ds = b.finish();

        let mut table = RoutingTable::new();
        table.announce("10.0.0.0/8".parse().unwrap(), Asn(1));
        table.announce("20.0.0.0/8".parse().unwrap(), Asn(2));
        let mut bgp = BgpTimeline::new(table);
        bgp.push(BgpEvent {
            day: 101, // inside the span 100..104 (offset 100)
            prefix: "10.0.0.0/16".parse().unwrap(),
            kind: BgpEventKind::OriginChange { to: Asn(9) },
        });

        let corr = bgp_correlation(&ds, 2, &bgp, 100);
        assert!((corr.up_pct - 50.0).abs() < 1e-9, "up {}", corr.up_pct);
        assert!((corr.down_pct - 0.0).abs() < 1e-9);
        assert!((corr.steady_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bgp_correlation_ignores_changes_outside_span() {
        let mut b = DailyDatasetBuilder::new(4);
        b.record_hits(2, a("10.0.0.1"), 1);
        b.record_hits(0, a("10.0.0.2"), 1);
        let ds = b.finish();
        let mut table = RoutingTable::new();
        table.announce("10.0.0.0/8".parse().unwrap(), Asn(1));
        let mut bgp = BgpTimeline::new(table);
        bgp.push(BgpEvent {
            day: 300,
            prefix: "10.0.0.0/16".parse().unwrap(),
            kind: BgpEventKind::Withdraw,
        });
        let corr = bgp_correlation(&ds, 2, &bgp, 0);
        assert_eq!(corr.up_pct, 0.0);
        assert_eq!(corr.down_pct, 0.0);
    }

    #[test]
    fn count_based_correlation_matches_per_address_walk() {
        // Nested and disjoint changed prefixes plus events scattered
        // across them: the prefix-count totals must equal a literal
        // per-address `affects` membership walk.
        let mut b = DailyDatasetBuilder::new(8);
        for d in 0..8usize {
            b.record_hits(d, a("10.0.0.1"), 1); // steady inside /16 and /24
            b.record_hits(d, a("10.1.0.1"), 1); // steady outside changes
            if d % 2 == 0 {
                b.record_hits(d, a("10.0.0.2"), 1); // flicker inside /24
                b.record_hits(d, a("10.0.9.2"), 1); // flicker inside /16 only
            }
            if d % 3 == 0 {
                b.record_hits(d, a("172.16.0.5"), 1); // flicker inside disjoint /12
            }
        }
        b.record_hits(7, a("192.168.3.3"), 1); // late up, unrouted region
        let ds = b.finish();

        let mut table = RoutingTable::new();
        table.announce("10.0.0.0/8".parse().unwrap(), Asn(1));
        table.announce("172.16.0.0/12".parse().unwrap(), Asn(2));
        let mut bgp = BgpTimeline::new(table);
        for (day, pfx) in [(1u16, "10.0.0.0/16"), (2, "10.0.0.0/24"), (3, "172.16.0.0/12")] {
            bgp.push(BgpEvent {
                day,
                prefix: pfx.parse().unwrap(),
                kind: BgpEventKind::OriginChange { to: Asn(9) },
            });
        }

        // Oracle: the historical per-address membership walk.
        let w = 2usize;
        let n_windows = ds.num_days / w;
        let (mut up_hit, mut up_all) = (0u64, 0u64);
        let (mut down_hit, mut down_all) = (0u64, 0u64);
        let (mut steady_hit, mut steady_all) = (0u64, 0u64);
        let mut prev = ds.window_union(0..w);
        for i in 1..n_windows {
            let cur = ds.window_union(i * w..(i + 1) * w);
            let changes = bgp.changes_in((((i - 1) * w) as u16)..(((i + 1) * w) as u16));
            let count = |set: &ipactive_net::AddrSet| {
                set.iter().filter(|&x| changes.affects(x)).count() as u64
            };
            let ups = cur.difference(&prev);
            let downs = prev.difference(&cur);
            let steady = cur.intersect(&prev);
            up_hit += count(&ups);
            up_all += ups.len() as u64;
            down_hit += count(&downs);
            down_all += downs.len() as u64;
            steady_hit += count(&steady);
            steady_all += steady.len() as u64;
            prev = cur;
        }
        let pct = |h: u64, n: u64| if n == 0 { 0.0 } else { 100.0 * h as f64 / n as f64 };

        for pool in [Parallelism::serial(), Parallelism::new(3)] {
            let corr = bgp_correlation_par(&ds, w, &bgp, 0, &pool);
            assert_eq!(corr.up_pct, pct(up_hit, up_all));
            assert_eq!(corr.down_pct, pct(down_hit, down_all));
            assert_eq!(corr.steady_pct, pct(steady_hit, steady_all));
        }
    }
}
