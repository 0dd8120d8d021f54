//! Property-based tests for the analysis library: invariants that must
//! hold for *any* activity history, not just the fixtures.

use ipactive_bgp::Asn;
use ipactive_core::census::{self, CensusRow};
use ipactive_core::churn::{DayChurn, WeekDrift, WindowChurn};
use ipactive_core::geo::{self, CountryVisibility};
use ipactive_core::stats::MinMedMax;
use ipactive_core::visibility::VisibilitySplit;
use ipactive_core::{blocks, change, churn, events, matrix, stats, traffic};
use ipactive_dns::{classify_block, AssignmentHint, NamingScheme, PtrTable};
use ipactive_core::{AnalysisCtx, Cadence, Daily, SlotMatrix, SlotRow, Weekly, Windows};
use ipactive_core::{DailyDataset, DailyDatasetBuilder, WeeklyDataset, WeeklyDatasetBuilder};
use ipactive_net::{covering_mask, EventSizeHistogram};
use ipactive_net::{ActiveSet, Addr, AddrSet, Block24, Prefix, RefSet, TieredSet};
use ipactive_rir::{subscriber_ranks, CountryCode, Delegation, DelegationDb, Rir};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

const DAYS: usize = 12;

/// A random daily dataset over a handful of blocks.
fn arb_dataset() -> impl Strategy<Value = ipactive_core::DailyDataset> {
    // (block_index, host, day, hits) tuples.
    prop::collection::vec(
        (0u32..4, any::<u8>(), 0usize..DAYS, 1u64..500),
        0..300,
    )
    .prop_map(|records| {
        let mut b = DailyDatasetBuilder::new(DAYS);
        for (blk, host, day, hits) in records {
            let block = Block24::new(0x0A_0000 + blk);
            b.record_hits(day, block.addr(host), hits);
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Up/down events are conserved: between consecutive days,
    /// |active(d+1)| - |active(d)| == up - down.
    #[test]
    fn churn_events_are_conserved(ds in arb_dataset()) {
        let series = churn::daily_series(&ds);
        for w in series.windows(2) {
            let delta = w[1].active as i64 - w[0].active as i64;
            prop_assert_eq!(delta, w[1].up as i64 - w[1].down as i64);
        }
    }

    /// The daily series matches set computations done the slow way.
    #[test]
    fn daily_series_matches_set_difference(ds in arb_dataset()) {
        let series = churn::daily_series(&ds);
        for (d, point) in series.iter().enumerate().skip(1) {
            let prev = ds.unit::<AddrSet>(d - 1);
            let cur = ds.unit::<AddrSet>(d);
            prop_assert_eq!(point.active, cur.len());
            prop_assert_eq!(point.up, cur.difference(&prev).len());
            prop_assert_eq!(point.down, prev.difference(&cur).len());
        }
    }

    /// STU and FD bounds and consistency: 0 ≤ STU ≤ 1, FD ≤ 256,
    /// and STU ≤ FD/256 (an address contributes at most all days).
    #[test]
    fn stu_fd_bounds(ds in arb_dataset()) {
        for rec in &ds.blocks {
            let m = matrix::BlockMetrics::of(rec, 0..ds.num_days);
            prop_assert!(m.fd <= 256);
            prop_assert!((0.0..=1.0).contains(&m.stu));
            prop_assert!(m.stu <= m.fd as f64 / 256.0 + 1e-12);
            // A nonempty block has nonzero metrics.
            if rec.any_active(0..ds.num_days) {
                prop_assert!(m.fd >= 1);
                prop_assert!(m.stu > 0.0);
            }
        }
    }

    /// Window aggregation only merges activity: the union of windows
    /// of any size equals the all-days union, and per-window unions
    /// never exceed it.
    #[test]
    fn window_unions_nest(ds in arb_dataset(), w in 1usize..=DAYS) {
        let all = ds.all_active::<AddrSet>();
        let n_windows = ds.num_days / w;
        let mut seen = ipactive_net::AddrSet::new();
        for i in 0..n_windows {
            let win = ds.window::<AddrSet>(i * w..(i + 1) * w);
            prop_assert!(win.len() <= all.len());
            for a in win.iter() {
                prop_assert!(all.contains(a));
            }
            seen = seen.union(&win);
        }
        // Windows cover all days when w divides the window count.
        if n_windows * w == ds.num_days {
            prop_assert_eq!(seen.len(), all.len());
        }
    }

    /// Event-size histograms account for exactly the up events.
    #[test]
    fn event_sizes_total_matches_up_count(ds in arb_dataset(), w in 1usize..=4) {
        let n_windows = ds.num_days / w;
        if n_windows < 2 {
            return Ok(());
        }
        let hist = events::event_sizes(&ds, w, events::EventDirection::Up);
        let mut expected = 0u64;
        let mut prev = ds.window::<AddrSet>(0..w);
        for i in 1..n_windows {
            let cur = ds.window::<AddrSet>(i * w..(i + 1) * w);
            expected += cur.difference(&prev).len() as u64;
            prev = cur;
        }
        prop_assert_eq!(hist.total(), expected);
        // Bucket fractions sum to 1 when any events exist.
        if expected > 0 {
            let s: f64 = hist.figure5b_buckets().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    /// Change detection partitions the active blocks exactly.
    #[test]
    fn change_partition_is_exhaustive(ds in arb_dataset(), month in 1usize..=6) {
        let part = change::detect(&ds, month, 0.25);
        let active = ds.blocks.iter().filter(|r| r.any_active(0..ds.num_days)).count();
        prop_assert_eq!(part.major.len() + part.stable.len(), active);
        prop_assert_eq!(part.deltas.len(), active);
        for d in &part.deltas {
            prop_assert!(d.max_delta.abs() <= 1.0 + 1e-12);
            let is_major = part.major.contains(&d.block);
            prop_assert_eq!(is_major, d.max_delta.abs() > 0.25);
        }
    }

    /// Cumulative traffic shares are monotone and end at 1 (when any
    /// traffic exists); bin populations sum to the address count.
    #[test]
    fn cumulative_shares_invariants(ds in arb_dataset()) {
        let c = traffic::cumulative_shares(&ds);
        prop_assert!(c.ips.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        prop_assert!(c.traffic.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        let total = ds.total_active();
        if total > 0 {
            prop_assert!((c.ips.last().unwrap() - 1.0).abs() < 1e-9);
            prop_assert!((c.traffic.last().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    /// Figure 9(a) bins: every active address lands in exactly one bin.
    #[test]
    fn hits_bins_cover_population(ds in arb_dataset()) {
        let bins = traffic::hits_by_days_active(&ds);
        prop_assert_eq!(bins.len(), ds.num_days);
        // Recount addresses per bin by hand.
        let mut counts = vec![0usize; ds.num_days];
        for (_, t) in ds.ip_traffic() {
            counts[t.days_active as usize - 1] += 1;
        }
        for (bin, count) in bins.iter().zip(counts) {
            prop_assert_eq!(bin.is_some(), count > 0);
        }
    }

    /// top_share is monotone in the fraction and bounded by 1.
    #[test]
    fn top_share_monotone(mut hits in prop::collection::vec(0u64..10_000, 1..200)) {
        hits.sort_unstable();
        let s10 = traffic::top_share(&hits, 0.1);
        let s50 = traffic::top_share(&hits, 0.5);
        let s100 = traffic::top_share(&hits, 1.0);
        prop_assert!(s10 <= s50 + 1e-12);
        prop_assert!(s50 <= s100 + 1e-12);
        prop_assert!(s100 <= 1.0 + 1e-12);
        let total: u64 = hits.iter().sum();
        if total > 0 {
            prop_assert!((s100 - 1.0).abs() < 1e-12);
            // Top 10% always gets at least its proportional share.
            prop_assert!(s10 >= 0.1 - 1e-9);
        }
    }

    /// Potential-utilization categories never overlap impossible ways.
    #[test]
    fn potential_utilization_consistent(ds in arb_dataset()) {
        let p = blocks::potential_utilization(&ds);
        prop_assert!(p.low_fd_blocks <= p.active_blocks);
        prop_assert!(p.high_fd_blocks <= p.active_blocks);
        prop_assert!(p.high_fd_high_stu + p.high_fd_low_stu <= p.high_fd_blocks * 2);
        prop_assert!(p.high_fd_high_stu <= p.high_fd_blocks);
        prop_assert!(p.high_fd_low_stu <= p.high_fd_blocks);
        // FD<64 and FD>250 are disjoint.
        prop_assert!(p.low_fd_blocks + p.high_fd_blocks <= p.active_blocks);
    }
}

/// Deterministic regression: an address active every day must never
/// appear as an up or down event at any window size.
#[test]
fn always_on_address_never_churns() {
    let mut b = DailyDatasetBuilder::new(DAYS);
    let addr: Addr = "10.0.0.1".parse().unwrap();
    for d in 0..DAYS {
        b.record_hits(d, addr, 7);
    }
    // Noise neighbors.
    b.record_hits(0, "10.0.0.2".parse().unwrap(), 1);
    b.record_hits(DAYS - 1, "10.0.0.3".parse().unwrap(), 1);
    let ds = b.finish();
    for w in 1..=DAYS / 2 {
        let n = ds.num_days / w;
        let mut prev = ds.window::<AddrSet>(0..w);
        for i in 1..n {
            let cur = ds.window::<AddrSet>(i * w..(i + 1) * w);
            assert!(!cur.difference(&prev).contains(addr));
            assert!(!prev.difference(&cur).contains(addr));
            prev = cur;
        }
    }
}

// ---------------------------------------------------------------------
// Figure kernels against their per-address oracles. Each oracle is the
// body the kernel had before it counted per /24, per tile or per tail:
// it walks every address (or sorts a copy) and is kept here as the
// definition the counting kernel must equal bit for bit, `f64`s
// included.
// ---------------------------------------------------------------------

/// Hosts on both sides of the 64-host tile edges, and anywhere else.
fn arb_host() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), Just(0u8), Just(63), Just(64), Just(127), Just(128), Just(255)]
}

/// Days or weeks on both sides of the 64-slot tile edge, the last day
/// of the paper's window and the last a day matrix holds.
fn arb_slot() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..128, Just(0), Just(63), Just(64), Just(111), Just(127)]
}

/// A daily dataset over eight blocks and the paper's 112 days, the
/// full 128 or any window between, so both 64-day halves of the matrix
/// are active — with, at times, a host active on every day.
fn arb_daily() -> impl Strategy<Value = DailyDataset> {
    (
        prop_oneof![Just(112usize), Just(128), 1usize..=128],
        prop::collection::vec((0u32..8, arb_host(), arb_slot()), 0..400),
        prop_oneof![Just(None), arb_host().prop_map(Some)],
    )
        .prop_map(|(days, records, always_on)| {
            let mut b = DailyDatasetBuilder::new(days);
            for (blk, host, day) in records {
                b.record_hits(day % days, Block24::new(0x0A_0000 + blk).addr(host), 1);
            }
            for day in always_on.map_or(0..0, |_| 0..days) {
                b.record_hits(day, Block24::new(0x0A_0007).addr(always_on.unwrap()), 1);
            }
            b.finish()
        })
}

/// A weekly dataset over eight blocks and the paper's 52 weeks, the
/// full 64 or any count between — with, at times, a host active in
/// every week.
fn arb_weekly() -> impl Strategy<Value = WeeklyDataset> {
    (
        prop_oneof![Just(52usize), Just(64), 1usize..=64],
        prop::collection::vec((0u32..8, arb_host(), arb_slot(), 1u64..1_000), 0..400),
        prop_oneof![Just(None), arb_host().prop_map(Some)],
    )
        .prop_map(|(weeks, records, always_on)| {
            let mut b = WeeklyDatasetBuilder::new(weeks);
            for (blk, host, week, hits) in records {
                b.record_week(week % weeks, Block24::new(0x0A_0000 + blk).addr(host), hits);
            }
            for week in always_on.map_or(0..0, |_| 0..weeks) {
                b.record_week(week, Block24::new(0x0A_0007).addr(always_on.unwrap()), 1);
            }
            b.finish()
        })
}

/// Origin AS of a census block: three ASes share the eight blocks, and
/// every fourth block has no origin.
fn origin(block: Block24) -> Option<Asn> {
    (block.id() % 4 != 3).then_some(Asn(block.id() % 3))
}

/// An address in one of 24 `/24`s: three `/8`s, two `/16`s in each,
/// four `/24`s in each of those.
fn arb_addr() -> impl Strategy<Value = Addr> {
    (0usize..3, 0u32..2, 0u32..4, arb_host()).prop_map(|(a, b, c, host)| {
        Addr::new([10u32, 11, 41][a] << 24 | b << 16 | c << 8 | u32::from(host))
    })
}

/// `/8`–`/24` delegations, `/25`–`/28` ones that split a `/24`, and
/// undelegated gaps wherever none lands, over [`arb_addr`]'s space.
fn arb_db() -> impl Strategy<Value = DelegationDb> {
    let delegation = (arb_addr(), prop_oneof![8u8..=24, 25u8..=28], 0usize..5, 0usize..4);
    prop::collection::vec(delegation, 0..10).prop_map(|delegations| {
        let mut db = DelegationDb::new();
        for (addr, len, rir, cc) in delegations {
            db.insert(Delegation {
                prefix: Prefix::new(addr, len),
                rir: Rir::ALL[rir],
                country: CountryCode::new(["US", "DE", "CN", "BR"][cc]),
            });
        }
        db
    })
}

fn oracle_daily_census(
    ds: &DailyDataset,
    mut resolve: impl FnMut(Block24) -> Option<Asn>,
) -> CensusRow {
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

fn oracle_weekly_census(
    ws: &WeeklyDataset,
    mut resolve: impl FnMut(Block24) -> Option<Asn>,
) -> CensusRow {
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

fn oracle_by_rir<S: ActiveSet>(cdn: &S, icmp: &S, db: &DelegationDb) -> [VisibilitySplit; 5] {
    let mut out = [VisibilitySplit::default(); 5];
    let union = cdn.union(icmp);
    for addr in union.iter() {
        let Some(rir) = db.rir_of(addr) else { continue };
        let slot = &mut out[rir.index()];
        match (cdn.contains(addr), icmp.contains(addr)) {
            (true, true) => slot.both += 1,
            (true, false) => slot.cdn_only += 1,
            (false, true) => slot.icmp_only += 1,
            (false, false) => unreachable!("address from the union"),
        }
    }
    out
}

fn oracle_top_countries<S: ActiveSet>(
    cdn: &S,
    icmp: &S,
    db: &DelegationDb,
    n: usize,
) -> Vec<CountryVisibility> {
    let mut per_country: HashMap<CountryCode, VisibilitySplit> = HashMap::new();
    let union = cdn.union(icmp);
    for addr in union.iter() {
        let Some(country) = db.country_of(addr) else { continue };
        let slot = per_country.entry(country).or_default();
        match (cdn.contains(addr), icmp.contains(addr)) {
            (true, true) => slot.both += 1,
            (true, false) => slot.cdn_only += 1,
            (false, true) => slot.icmp_only += 1,
            (false, false) => unreachable!("address from the union"),
        }
    }
    let mut rows: Vec<CountryVisibility> = per_country
        .into_iter()
        .map(|(country, split)| CountryVisibility {
            country,
            split,
            ranks: subscriber_ranks(country),
        })
        .collect();
    rows.sort_by(|x, y| {
        y.split.total().cmp(&x.split.total()).then(x.country.cmp(&y.country))
    });
    rows.truncate(n);
    rows
}

fn oracle_year_drift(ws: &WeeklyDataset) -> Vec<WeekDrift> {
    let mut base = 0u64;
    let mut appear = vec![0u64; ws.num_weeks];
    let mut disappear = vec![0u64; ws.num_weeks];
    for (_, rows) in &ws.blocks {
        for &bits in rows.iter() {
            if bits == 0 {
                continue;
            }
            let in_base = bits & 1 != 0;
            if in_base {
                base += 1;
            }
            for w in 1..ws.num_weeks {
                let in_w = bits & (1u64 << w) != 0;
                match (in_base, in_w) {
                    (false, true) => appear[w] += 1,
                    (true, false) => disappear[w] += 1,
                    _ => {}
                }
            }
        }
    }
    let basef = base.max(1) as f64;
    (1..ws.num_weeks)
        .map(|w| WeekDrift {
            week: w,
            appear: appear[w] as usize,
            disappear: disappear[w] as usize,
            appear_frac: appear[w] as f64 / basef,
            disappear_frac: disappear[w] as f64 / basef,
        })
        .collect()
}

/// Takes hits in any order.
fn oracle_top_share(hits: &[u64], frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&frac));
    if hits.is_empty() || frac == 0.0 {
        return 0.0;
    }
    let total: u64 = hits.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut scratch = hits.to_vec();
    let k = ((frac * scratch.len() as f64).ceil() as usize).clamp(1, scratch.len());
    if k < scratch.len() {
        scratch.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    }
    let top: u64 = scratch[..k].iter().sum();
    top as f64 / total as f64
}

/// Takes values in any order.
fn oracle_gini(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<u64> = values.to_vec();
    v.sort_unstable();
    let n = v.len() as f64;
    let total: f64 = v.iter().map(|&x| x as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Fig 3(a) and 3(b) on backend `S` against the address walk.
fn geo_equals_the_oracle<S: ActiveSet>(
    cdn: &[Addr],
    icmp: &[Addr],
    db: &DelegationDb,
) -> Result<(), TestCaseError> {
    let (cdn, icmp): (S, S) = (cdn.iter().copied().collect(), icmp.iter().copied().collect());
    let backend = S::backend_name();
    prop_assert_eq!(geo::by_rir(&cdn, &icmp, db), oracle_by_rir(&cdn, &icmp, db), "{}", backend);
    for n in [1, 3, 16] {
        prop_assert_eq!(
            geo::top_countries(&cdn, &icmp, db, n),
            oracle_top_countries(&cdn, &icmp, db, n),
            "{} top {}",
            backend,
            n
        );
    }
    Ok(())
}

/// What the set differential needs of a cadence: every active address
/// of a dataset with its unit bits, read off the dataset's own fields
/// one address at a time, and an engine over the dataset.
trait PerAddress: Cadence {
    fn cells(ds: &Self::Dataset) -> Vec<(Addr, u128)>;
    fn engine<S: ActiveSet>(ds: &Self::Dataset) -> AnalysisCtx<S>;
}

impl PerAddress for Daily {
    fn cells(ds: &DailyDataset) -> Vec<(Addr, u128)> {
        let rows = ds.blocks.iter().flat_map(|r| r.rows.iter().zip(0u8..=255).map(move |(bits, h)| {
            (r.block.addr(h), bits.bits())
        }));
        rows.filter(|&(_, bits)| bits != 0).collect()
    }

    fn engine<S: ActiveSet>(ds: &DailyDataset) -> AnalysisCtx<S> {
        let no_weeks = WeeklyDatasetBuilder::new(0).finish();
        AnalysisCtx::new(Arc::new(ds.clone()), Arc::new(no_weeks))
    }
}

impl PerAddress for Weekly {
    fn cells(ws: &WeeklyDataset) -> Vec<(Addr, u128)> {
        let rows = ws.blocks.iter().flat_map(|(block, rows)| {
            rows.iter().zip(0u8..=255).map(move |(&bits, h)| (block.addr(h), u128::from(bits)))
        });
        rows.filter(|&(_, bits)| bits != 0).collect()
    }

    fn engine<S: ActiveSet>(ws: &WeeklyDataset) -> AnalysisCtx<S> {
        let no_days = DailyDatasetBuilder::new(0).finish();
        AnalysisCtx::new(Arc::new(no_days), Arc::new(ws.clone()))
    }
}

/// The addresses active in any unit of `units`, one address at a time.
fn oracle_window<S: ActiveSet>(cells: &[(Addr, u128)], units: Range<usize>) -> S {
    let active = |bits: u128| units.clone().any(|u| bits >> u & 1 == 1);
    S::from_sorted_vec(cells.iter().filter(|&&(_, bits)| active(bits)).map(|&(a, _)| a).collect())
}

/// One cadence, one backend: `unit`, `units_all`, `all_active` and
/// `window` — empty, reversed, single-unit and full — equal the
/// per-address oracle, and the engine's memoized [`Windows`] equal the
/// union of the dataset's unit sets on every window, asked for start
/// by start so each miss composes from the windows cached before it,
/// and the empty set on every reversed one.
fn slot_matrix_equals_the_oracle<C: PerAddress, S: ActiveSet>(
    ds: &C::Dataset,
) -> Result<(), TestCaseError> {
    let (cells, n, units) = (C::cells(ds), ds.num_slots(), C::UNITS);
    let bulk: Vec<S> = ds.units_all();
    prop_assert_eq!(bulk.len(), n);
    for (u, set) in bulk.iter().enumerate() {
        let want: S = oracle_window(&cells, u..u + 1);
        prop_assert_eq!(set, &want, "units_all, {} {}", units, u);
        prop_assert_eq!(&ds.unit::<S>(u), &want, "unit, {} {}", units, u);
    }
    prop_assert_eq!(ds.all_active::<S>(), oracle_window::<S>(&cells, 0..n));
    for range in [n / 2..n / 2, n..0, n / 2 + 1..n / 2, n - 1..n, 0..n] {
        let want: S = oracle_window(&cells, range.clone());
        prop_assert_eq!(ds.window::<S>(range.clone()), want, "{} {:?}", units, range);
    }
    let engine = C::engine::<S>(ds);
    let windows = engine.windows::<C>();
    prop_assert_eq!(windows.num_units(), n);
    for s in 0..=n {
        let mut joined = S::empty();
        for e in s..=n {
            if e > s {
                joined = joined.union(&bulk[e - 1]);
                prop_assert!(windows.union(e..s).is_empty(), "{} {}..{}", units, e, s);
            }
            prop_assert_eq!(&*windows.union(s..e), &joined, "{} {}..{}", units, s, e);
        }
    }
    Ok(())
}

/// Fig 5(b)'s histogram the way it was built before the per-/24
/// counts: every event of every consecutive window pair streamed out
/// of the pair and sized by its own covering-mask probe, over windows
/// read one address at a time.
fn oracle_event_sizes<S: ActiveSet>(
    cells: &[(Addr, u128)],
    n: usize,
    w: usize,
    direction: events::EventDirection,
) -> EventSizeHistogram {
    let mut hist = EventSizeHistogram::new();
    if w == 0 {
        return hist;
    }
    let windows: Vec<S> = (0..n / w).map(|i| oracle_window(cells, i * w..(i + 1) * w)).collect();
    for pair in windows.windows(2) {
        let (events, excl) = match direction {
            events::EventDirection::Up => (&pair[1], &pair[0]),
            events::EventDirection::Down => (&pair[0], &pair[1]),
        };
        events.for_each_difference(excl, |addr| hist.record(covering_mask(addr, excl)));
    }
    hist
}

/// [`events::event_sizes`] over the engine's windows on backend `S`
/// equals [`oracle_event_sizes`] on `S`.
fn event_sizes_equal_the_oracle<S: ActiveSet>(ds: &DailyDataset) -> Result<(), TestCaseError> {
    let (cells, n) = (Daily::cells(ds), ds.num_slots());
    let engine = Daily::engine::<S>(ds);
    let (windows, backend) = (engine.windows::<Daily>(), S::backend_name());
    for w in (0..=4).chain([n / 2, n]) {
        for direction in [events::EventDirection::Up, events::EventDirection::Down] {
            let want = oracle_event_sizes::<S>(&cells, n, w, direction);
            let got = events::event_sizes(windows, w, direction);
            prop_assert_eq!(got, want, "{} {} {:?}", backend, w, direction);
        }
    }
    Ok(())
}

// Section 4's churn analyses and Fig 8(b) are set queries over a
// `Windows` source. The bodies they replaced scanned every address's
// slot row; they are kept below as the oracles the set forms must
// equal, `f64`s included.

/// Fig 4(a) by a scan of every address's day row.
fn oracle_daily_series(ds: &DailyDataset) -> Vec<DayChurn> {
    let mut out: Vec<DayChurn> = (0..ds.num_days)
        .map(|day| DayChurn { day, active: 0, up: 0, down: 0 })
        .collect();
    for rec in &ds.blocks {
        for bits in rec.rows.iter().filter(|bits| !bits.is_empty()) {
            let mut prev = false;
            for (day, slot) in out.iter_mut().enumerate() {
                let cur = bits.get(day);
                if cur {
                    slot.active += 1;
                }
                if day > 0 {
                    match (prev, cur) {
                        (false, true) => slot.up += 1,
                        (true, false) => slot.down += 1,
                        _ => {}
                    }
                }
                prev = cur;
            }
        }
    }
    out
}

/// Mean active addresses per day-of-week, read off the day rows.
fn oracle_weekday_profile(ds: &DailyDataset) -> [f64; 7] {
    let active = |day: usize| {
        ds.blocks.iter().flat_map(|rec| rec.rows.iter()).filter(|bits| bits.get(day)).count()
    };
    let mut out = [0f64; 7];
    for (dow, o) in out.iter_mut().enumerate() {
        let days: Vec<usize> = (dow..ds.num_days).step_by(7).collect();
        let sum = days.iter().fold(0f64, |sum, &day| sum + active(day) as f64);
        *o = if days.is_empty() { 0.0 } else { sum / days.len() as f64 };
    }
    out
}

/// Raw per-pair up and down percentages for one window size, by a
/// scan of every address's row.
fn oracle_window_pair_percentages<M: SlotMatrix>(ds: &M, w: usize) -> (Vec<f64>, Vec<f64>) {
    let n_windows = ds.num_slots() / w;
    let masks: Vec<M::Row> = (0..n_windows).map(|i| M::Row::span(i * w..(i + 1) * w)).collect();
    let any = M::Row::span(0..ds.num_slots());
    // Per window: |union|; per pair: |W_{i+1} \ W_i| and |W_i \ W_{i+1}|.
    let mut sizes = vec![0u64; n_windows];
    let mut ups = vec![0u64; n_windows.saturating_sub(1)];
    let mut downs = vec![0u64; n_windows.saturating_sub(1)];
    for (_, rows) in ds.rows() {
        for &bits in rows.iter().filter(|bits| bits.meets(any)) {
            let mut prev_in = false;
            for (i, &mask) in masks.iter().enumerate() {
                let cur_in = bits.meets(mask);
                if cur_in {
                    sizes[i] += 1;
                }
                if i > 0 {
                    match (prev_in, cur_in) {
                        (false, true) => ups[i - 1] += 1,
                        (true, false) => downs[i - 1] += 1,
                        _ => {}
                    }
                }
                prev_in = cur_in;
            }
        }
    }
    let mut up_pct = Vec::new();
    let mut down_pct = Vec::new();
    for i in 0..n_windows.saturating_sub(1) {
        if sizes[i + 1] > 0 {
            up_pct.push(100.0 * ups[i] as f64 / sizes[i + 1] as f64);
        }
        if sizes[i] > 0 {
            down_pct.push(100.0 * downs[i] as f64 / sizes[i] as f64);
        }
    }
    (up_pct, down_pct)
}

/// Fig 4(b) by a row scan per window size.
fn oracle_window_sweep<M: SlotMatrix>(ds: &M, window_sizes: &[usize]) -> Vec<WindowChurn> {
    let zero = MinMedMax { min: 0.0, median: 0.0, max: 0.0 };
    window_sizes
        .iter()
        .filter(|&&w| w >= 1 && ds.num_slots() / w >= 2)
        .map(|&w| {
            let (up, down) = oracle_window_pair_percentages(ds, w);
            WindowChurn {
                window_days: w * M::Cadence::DAYS_PER_UNIT,
                up: MinMedMax::of(&up).unwrap_or(zero),
                down: MinMedMax::of(&down).unwrap_or(zero),
            }
        })
        .collect()
}

/// Fig 5(a)'s per-AS medians by a walk of every address's day row.
fn oracle_per_as_churn(
    ds: &DailyDataset,
    w: usize,
    min_ips: usize,
    mut resolve: impl FnMut(Block24) -> Option<Asn>,
) -> Vec<f64> {
    let n_windows = ds.num_days / w;
    struct AsAcc {
        active_ips: u64,
        ups: Vec<u64>,   // per pair
        sizes: Vec<u64>, // per window
    }
    let mut per_as: HashMap<Asn, AsAcc> = HashMap::new();
    for rec in &ds.blocks {
        let Some(asn) = resolve(rec.block) else { continue };
        let acc = per_as.entry(asn).or_insert_with(|| AsAcc {
            active_ips: 0,
            ups: vec![0; n_windows - 1],
            sizes: vec![0; n_windows],
        });
        for bits in rec.rows.iter().filter(|bits| !bits.is_empty()) {
            acc.active_ips += 1;
            let mut prev_in = false;
            for i in 0..n_windows {
                let cur_in = bits.any_in_range(i * w, (i + 1) * w);
                if cur_in {
                    acc.sizes[i] += 1;
                }
                if i > 0 && !prev_in && cur_in {
                    acc.ups[i - 1] += 1;
                }
                prev_in = cur_in;
            }
        }
    }
    let mut medians = Vec::new();
    for acc in per_as.values().filter(|acc| acc.active_ips as usize >= min_ips) {
        let pcts: Vec<f64> = (0..acc.ups.len())
            .filter(|&i| acc.sizes[i + 1] > 0)
            .map(|i| 100.0 * acc.ups[i] as f64 / acc.sizes[i + 1] as f64)
            .collect();
        if let Some(m) = MinMedMax::of(&pcts) {
            medians.push(m.median);
        }
    }
    stats::Ecdf::new(medians).samples().to_vec()
}

/// Fig 8(b)'s three filling-degree samples (all, static, dynamic) by
/// a walk of every block's 256 rows.
fn oracle_fd_by_assignment(ds: &DailyDataset, ptr: &PtrTable, min_records: usize) -> [Vec<f64>; 3] {
    let mut out: [Vec<f64>; 3] = Default::default();
    for rec in &ds.blocks {
        let fd = rec.filling_degree(0..ds.num_days);
        if fd == 0 {
            continue;
        }
        out[0].push(fd as f64);
        match classify_block(ptr, rec.block, min_records) {
            AssignmentHint::Static => out[1].push(fd as f64),
            AssignmentHint::Dynamic => out[2].push(fd as f64),
            AssignmentHint::Unknown => {}
        }
    }
    out.map(|samples| stats::Ecdf::new(samples).samples().to_vec())
}

/// PTR naming over [`arb_daily`]'s eight blocks: no zone, a keyword
/// zone of each kind, an opaque one, or a sparse one with a record for
/// one host in `one_in`.
fn arb_ptr() -> impl Strategy<Value = PtrTable> {
    let scheme = (0usize..6, prop_oneof![Just(1u8), Just(16), Just(64)]);
    prop::collection::vec(scheme, 8).prop_map(|schemes| {
        let mut ptr = PtrTable::new();
        for (blk, (kind, one_in)) in schemes.into_iter().enumerate() {
            let domain = "isp.example".to_string();
            let scheme = match kind {
                0 => continue,
                1 => NamingScheme::StaticKeyword { domain },
                2 => NamingScheme::DynamicKeyword { domain },
                3 => NamingScheme::PoolKeyword { domain },
                4 => NamingScheme::Opaque { domain },
                _ => NamingScheme::Partial {
                    inner: Box::new(NamingScheme::StaticKeyword { domain }),
                    one_in,
                },
            };
            ptr.set_scheme(Block24::new(0x0A_0000 + blk as u32), scheme);
        }
        ptr
    })
}

/// Fig 4(a), its weekday profile, the day sweep of Fig 4(b), Fig 5(a)
/// at three windows and two AS filters, and Fig 8(b) over one daily
/// source equal their row-scan oracles on the dataset behind it.
fn daily_analyses_equal_the_oracles<W: Windows<Cadence = Daily>>(
    days: &W,
    ds: &DailyDataset,
    ptr: &PtrTable,
    min_records: usize,
    source: &str,
) -> Result<(), TestCaseError> {
    let series = churn::daily_series(days);
    prop_assert_eq!(&series, &oracle_daily_series(ds), "{}", source);
    prop_assert_eq!(churn::weekday_profile(&series), oracle_weekday_profile(ds), "{}", source);
    let n = ds.num_days;
    let sizes = [1, 2, 3, 4, 7, 14, 21, 28, n / 3, n / 2, n];
    let sweep = churn::window_sweep(days, &sizes);
    prop_assert_eq!(sweep, oracle_window_sweep(ds, &sizes), "{}", source);
    for w in [1, 7, 28].into_iter().filter(|&w| n / w >= 2) {
        for min_ips in [1, 40] {
            let got = churn::per_as_churn(days, w, min_ips, origin);
            let want = oracle_per_as_churn(ds, w, min_ips, origin);
            prop_assert_eq!(got.samples(), &want[..], "{} {}d >= {}", source, w, min_ips);
        }
    }
    let split = blocks::fd_by_assignment(days, ptr, min_records);
    let [all, stat, dyn_] = oracle_fd_by_assignment(ds, ptr, min_records);
    prop_assert_eq!(split.all.samples(), &all[..], "{}", source);
    prop_assert_eq!(split.static_blocks.samples(), &stat[..], "{}", source);
    prop_assert_eq!(split.dynamic_blocks.samples(), &dyn_[..], "{}", source);
    prop_assert_eq!((split.n_static, split.n_dynamic), (stat.len(), dyn_.len()), "{}", source);
    Ok(())
}

/// The week sweep of Fig 4(b) over one weekly source equals its
/// row-scan oracle on the dataset behind it.
fn weekly_sweep_equals_the_oracle<W: Windows<Cadence = Weekly>>(
    weeks: &W,
    ws: &WeeklyDataset,
    source: &str,
) -> Result<(), TestCaseError> {
    let sizes = [1, 2, 4, 8, 13, ws.num_weeks / 2, ws.num_weeks];
    let sweep = churn::window_sweep(weeks, &sizes);
    prop_assert_eq!(sweep, oracle_window_sweep(ws, &sizes), "{} weeks", source);
    Ok(())
}

/// Both cadences' analyses on the engine's windows over backend `S`.
fn engine_analyses_equal_the_oracles<S: ActiveSet>(
    ds: &DailyDataset,
    ws: &WeeklyDataset,
    ptr: &PtrTable,
    min_records: usize,
) -> Result<(), TestCaseError> {
    let engine = AnalysisCtx::<S>::new(Arc::new(ds.clone()), Arc::new(ws.clone()));
    let (days, backend) = (engine.windows::<Daily>(), S::backend_name());
    daily_analyses_equal_the_oracles(days, ds, ptr, min_records, backend)?;
    weekly_sweep_equals_the_oracle(engine.windows::<Weekly>(), ws, backend)
}

/// [`slot_matrix_equals_the_oracle`] on both backends.
fn both_backends_equal_the_oracle<C: PerAddress>(ds: &C::Dataset) -> Result<(), TestCaseError> {
    slot_matrix_equals_the_oracle::<C, TieredSet>(ds)?;
    slot_matrix_equals_the_oracle::<C, RefSet>(ds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Table 1's daily row, and every day set and day window on both
    /// backends, fresh and memoized, over windows whose activity
    /// reaches both 64-day tiles.
    #[test]
    fn daily_kernels_equal_their_oracles(ds in arb_daily()) {
        prop_assert_eq!(census::daily_census(&ds, origin), oracle_daily_census(&ds, origin));
        both_backends_equal_the_oracle::<Daily>(&ds)?;
    }

    /// Table 1's weekly row, Fig 4(c), Fig 9(c)'s shares and Gini, and
    /// every week set and week window on both backends, fresh and
    /// memoized.
    #[test]
    fn weekly_kernels_equal_their_oracles(ws in arb_weekly()) {
        prop_assert_eq!(census::weekly_census(&ws, origin), oracle_weekly_census(&ws, origin));
        prop_assert_eq!(churn::year_drift(&ws), oracle_year_drift(&ws));
        let shares: Vec<f64> = ws.week_hits.iter().map(|h| oracle_top_share(h, 0.1)).collect();
        prop_assert_eq!(traffic::weekly_top_share(&ws, 0.1), shares);
        for hits in &ws.week_hits {
            prop_assert_eq!(stats::gini(hits), oracle_gini(hits));
        }
        both_backends_equal_the_oracle::<Weekly>(&ws)?;
    }

    /// Fig 3(a) and 3(b) on both backends, with /24s split by longer
    /// delegations and addresses no delegation covers.
    #[test]
    fn geo_kernels_equal_their_oracles(
        cdn in prop::collection::vec(arb_addr(), 0..300),
        icmp in prop::collection::vec(arb_addr(), 0..300),
        db in arb_db(),
    ) {
        geo_equals_the_oracle::<AddrSet>(&cdn, &icmp, &db)?;
        geo_equals_the_oracle::<TieredSet>(&cdn, &icmp, &db)?;
    }

    /// Fig 4(a), 4(b) of both cadences, 5(a) and 8(b) on the engine's
    /// windows over both backends and on the bare datasets, over
    /// 112-day windows, tile-edge hosts and blocks of every PTR kind.
    #[test]
    fn churn_and_blocks_equal_their_oracles(
        ds in arb_daily(),
        ws in arb_weekly(),
        ptr in arb_ptr(),
        min_records in prop_oneof![Just(0usize), Just(1), Just(16), 0usize..=256],
    ) {
        daily_analyses_equal_the_oracles(&ds, &ds, &ptr, min_records, "dataset")?;
        weekly_sweep_equals_the_oracle(&ws, &ws, "dataset")?;
        engine_analyses_equal_the_oracles::<TieredSet>(&ds, &ws, &ptr, min_records)?;
        engine_analyses_equal_the_oracles::<RefSet>(&ds, &ws, &ptr, min_records)?;
    }

    /// Fig 5(b) on both backends: up and down event sizes at windows
    /// 0 to 4 days, half and full width, against the per-event walk.
    #[test]
    fn event_sizes_equal_their_oracles(ds in arb_dataset()) {
        event_sizes_equal_the_oracle::<TieredSet>(&ds)?;
        event_sizes_equal_the_oracle::<RefSet>(&ds)?;
    }

    /// The tail sum and the ranked pass over sorted hits equal selection
    /// and sorting over the same hits in any order.
    #[test]
    fn top_share_and_gini_equal_their_oracles(
        hits in prop::collection::vec(prop_oneof![0u64..4, 0u64..1_000_000], 0..300),
        frac in prop_oneof![Just(0.1), 0.0f64..=1.0],
    ) {
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        prop_assert_eq!(traffic::top_share(&sorted, frac), oracle_top_share(&hits, frac));
        prop_assert_eq!(stats::gini(&sorted), oracle_gini(&hits));
    }
}
