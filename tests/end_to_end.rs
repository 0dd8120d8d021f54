//! End-to-end integration: generate a universe, run the paper's
//! analyses across crates, and assert the *shape* invariants the paper
//! reports — who wins, roughly by what factor, where the knees are.

use ipactive::bgp::RoutingTable;
use ipactive::cdnsim::{stream_pipeline, Cadence, Daily, Universe, UniverseConfig, Weekly};
use ipactive::core::{DailyDataset, SlotMatrix, WeeklyDataset};
use ipactive::net::AddrSet;
use ipactive::obs::Registry;
use ipactive::core::{blocks, change, churn, demographics, events, hosts, traffic, visibility};
use ipactive::dns::AssignmentHint;
use ipactive::probe::{PortScanner, ScanCampaign, TracerouteCampaign};

fn universe() -> Universe {
    Universe::generate(UniverseConfig::small(0xE2E))
}

#[test]
fn daily_churn_has_paper_shape() {
    let u = universe();
    let daily = u.build_daily();
    let series = churn::daily_series(&daily);
    let avg_active: f64 =
        series.iter().map(|d| d.active as f64).sum::<f64>() / series.len() as f64;
    let avg_up: f64 =
        series.iter().skip(1).map(|d| d.up as f64).sum::<f64>() / (series.len() - 1) as f64;
    let churn_pct = 100.0 * avg_up / avg_active;
    // Paper: ~8% daily. Allow a generous band but reject degenerate
    // worlds (0% = frozen; >30% = noise).
    assert!((3.0..25.0).contains(&churn_pct), "daily churn {churn_pct:.1}%");

    // Aggregation does not drive churn to zero (the paper's headline
    // of Figure 4(b)): the largest window still shows movement.
    let sweep = churn::window_sweep(&daily, &[1, 7, 14]);
    let w14 = sweep.iter().find(|w| w.window_days == 14).unwrap();
    assert!(w14.up.median > 1.0, "14d churn collapsed: {:?}", w14.up);
}

#[test]
fn year_long_drift_accumulates() {
    let u = universe();
    let weekly = u.build_weekly();
    let drift = churn::year_drift(&weekly);
    let first = drift.first().unwrap();
    let last = drift.last().unwrap();
    // Drift grows over the year and reaches double digits (paper: 25%).
    assert!(last.appear_frac > first.appear_frac);
    assert!(last.appear_frac > 0.10, "appear drift {:.2}", last.appear_frac);
    assert!(last.disappear_frac > 0.10, "disappear drift {:.2}", last.disappear_frac);
}

#[test]
fn long_term_churn_is_bulky_and_bgp_invisible() {
    let u = universe();
    let weekly = u.build_weekly();
    let weeks = weekly.num_weeks;
    let lt = churn::long_term(&weekly, 0..4, weeks - 4..weeks, u.bgp(), 7);
    assert!(!lt.appear.is_empty() && !lt.disappear.is_empty());
    // Table 2's key finding: the vast majority of long-term churn has
    // no BGP correlate.
    assert!(lt.appear_bgp.no_change > 0.7, "appear no-change {:?}", lt.appear_bgp);
    assert!(lt.disappear_bgp.no_change > 0.7, "disappear no-change {:?}", lt.disappear_bgp);
}

#[test]
fn event_sizes_get_bulkier_with_window() {
    let u = universe();
    let daily = u.build_daily();
    let h1 = events::event_sizes(&daily, 1, events::EventDirection::Up);
    let h14 = events::event_sizes(&daily, 14, events::EventDirection::Up);
    // Daily events are dominated by single addresses…
    assert!(h1.fraction_between(29, 32) > 0.5, "1d: {:?}", h1.figure5b_buckets());
    // …and a larger share of long-window events covers whole ranges.
    assert!(
        h14.fraction_between(0, 28) > h1.fraction_between(0, 28),
        "bulkiness must grow: 1d {:?} vs 14d {:?}",
        h1.figure5b_buckets(),
        h14.figure5b_buckets()
    );
}

#[test]
fn bgp_correlation_is_tiny_but_ordered() {
    let u = universe();
    let daily = u.build_daily();
    let offset = u.config().daily_offset as u16;
    let c = events::bgp_correlation(&daily, 7, u.bgp(), offset);
    // Figure 5(c): small percentages overall.
    assert!(c.up_pct < 20.0 && c.down_pct < 20.0 && c.steady_pct < 10.0, "{c:?}");
}

#[test]
fn static_blocks_fill_less_than_dynamic() {
    let u = universe();
    let daily = u.build_daily();
    let split = blocks::fd_by_assignment(&daily, u.ptr_table(), 16);
    assert!(split.n_static > 0 && split.n_dynamic > 0, "tagging found nothing");
    // Figure 8(b): static space is sparse, dynamic pools cycle full.
    let static_med = split.static_blocks.quantile(0.5);
    let dynamic_med = split.dynamic_blocks.quantile(0.5);
    assert!(
        static_med < 128.0 && dynamic_med > static_med,
        "static median {static_med}, dynamic median {dynamic_med}"
    );
    assert!(
        split.dynamic_blocks.fraction_le(250.0) < 0.8,
        "most dynamic pools should exceed FD 250"
    );
}

#[test]
fn change_detection_matches_restructure_rate() {
    let mut cfg = UniverseConfig::small(0x51);
    cfg.restructure_rate = 0.25;
    let u = Universe::generate(cfg);
    let daily = u.build_daily();
    let part = change::detect(&daily, daily.num_days / 4, change::DEFAULT_THRESHOLD);
    let frac = part.major_fraction();
    // Not every restructure crosses the ±0.25 STU threshold (switching
    // between two low-intensity policies moves STU little, and a
    // mid-month flip splits its delta across two months), and some
    // in-situ blocks do cross it. The detected rate must be nonzero
    // and well below the injected 25% + noise ceiling.
    assert!((0.02..0.60).contains(&frac), "major-change fraction {frac:.2}");
    // And with no injected restructures the rate must drop.
    let mut calm_cfg = UniverseConfig::small(0x51);
    calm_cfg.restructure_rate = 0.0;
    let calm = Universe::generate(calm_cfg);
    let calm_daily = calm.build_daily();
    let calm_part =
        change::detect(&calm_daily, calm_daily.num_days / 4, change::DEFAULT_THRESHOLD);
    assert!(
        calm_part.major_fraction() < frac,
        "calm {:.2} !< restructured {frac:.2}",
        calm_part.major_fraction()
    );
}

#[test]
fn traffic_concentrates_on_always_on_addresses() {
    let u = universe();
    let daily = u.build_daily();
    let shares = traffic::cumulative_shares(&daily);
    let ip_frac = shares.always_on_ip_fraction();
    let traffic_frac = shares.always_on_traffic_fraction();
    // Figure 9(b): always-on addresses out-earn their headcount by a
    // wide factor.
    assert!(traffic_frac > 2.0 * ip_frac, "ips {ip_frac:.2} traffic {traffic_frac:.2}");
}

#[test]
fn ua_scatter_has_gateway_and_bot_corners() {
    let u = universe();
    let daily = u.build_daily();
    let points = hosts::ua_scatter(&daily);
    assert!(!points.is_empty());
    let t = hosts::UaRegionThresholds::default();
    let mut regions = std::collections::HashMap::new();
    for p in &points {
        *regions.entry(hosts::classify(p, &t)).or_insert(0usize) += 1;
    }
    assert!(regions.get(&hosts::UaRegion::Gateway).copied().unwrap_or(0) > 0, "no gateways");
    assert!(regions.get(&hosts::UaRegion::Bot).copied().unwrap_or(0) > 0, "no bots");
    assert!(regions.get(&hosts::UaRegion::Bulk).copied().unwrap_or(0) > 0, "no bulk");
    // Traffic and host diversity correlate (positively) overall.
    let r = hosts::log_correlation(&points).unwrap();
    assert!(r > 0.2, "log-log correlation {r:.2}");
}

#[test]
fn demographics_are_bimodal_in_stu() {
    let u = universe();
    let daily = u.build_daily();
    let feats = demographics::features(&daily);
    let cube = demographics::cube(&feats);
    let marg = cube.stu_marginal();
    let total: u64 = marg.iter().sum();
    // Mass in both the lowest and highest STU third (Figure 11's
    // "strong division").
    let low: u64 = marg[..3].iter().sum();
    let high: u64 = marg[7..].iter().sum();
    assert!(low * 10 > total, "low-STU mass too small: {marg:?}");
    assert!(high * 10 > total, "high-STU mass too small: {marg:?}");
}

#[test]
fn cdn_sees_more_addresses_than_probing() {
    let u = universe();
    let daily = u.build_daily();
    let cdn: AddrSet = daily.all_active();
    let icmp = ScanCampaign::new(9, 8).run_union(&u);
    let split = visibility::split_addrs(&cdn, &icmp);
    // Figure 2(a): a large CDN-only share at address granularity…
    assert!(split.cdn_only_fraction() > 0.25, "cdn-only {:.2}", split.cdn_only_fraction());
    // …that shrinks when aggregating to /24s.
    let coarse = visibility::split_blocks(&cdn, &icmp);
    assert!(coarse.cdn_only_fraction() < split.cdn_only_fraction());
}

#[test]
fn icmp_only_space_is_substantially_infrastructure() {
    let u = universe();
    let daily = u.build_daily();
    let cdn: AddrSet = daily.all_active();
    let icmp = ScanCampaign::new(9, 8).run_union(&u);
    let icmp_only = icmp.difference(&cdn);
    let servers = PortScanner::new().scan_any(&u);
    let routers = TracerouteCampaign::new(10, 0.7).run(&u);
    let c = visibility::classify_icmp_only(&icmp_only, &servers, &routers);
    assert!(c.total() > 0);
    // Figure 2(b): a substantial fraction is identifiable infrastructure.
    assert!(
        c.infrastructure_fraction() > 0.2,
        "infrastructure fraction {:.2}",
        c.infrastructure_fraction()
    );
}

/// What the differential grid needs of a cadence beyond [`Cadence`]:
/// the direct build the pipeline must reproduce, and field-for-field
/// equality with block-level context on failure — sharper diagnostics
/// than a bare `assert_eq!` on the dataset.
trait Reference: Cadence {
    const NAME: &'static str;
    fn direct(u: &Universe) -> Self::Dataset;
    fn assert_equal(label: &str, a: &Self::Dataset, b: &Self::Dataset);
}

impl Reference for Daily {
    const NAME: &'static str = "daily";

    fn direct(u: &Universe) -> DailyDataset {
        u.build_daily()
    }

    fn assert_equal(label: &str, a: &DailyDataset, b: &DailyDataset) {
        assert_eq!(a.num_days, b.num_days, "{label}: day count");
        assert_eq!(a.blocks.len(), b.blocks.len(), "{label}: block count");
        for (x, y) in a.blocks.iter().zip(b.blocks.iter()) {
            assert_eq!(x.block, y.block, "{label}: block order");
            assert_eq!(x.rows, y.rows, "{label}: activity matrix of {}", x.block);
            assert_eq!(x.total_hits, y.total_hits, "{label}: total_hits of {}", x.block);
            assert_eq!(x.ua_samples, y.ua_samples, "{label}: ua_samples of {}", x.block);
            assert_eq!(x.ua_unique, y.ua_unique, "{label}: ua_unique of {}", x.block);
            assert_eq!(x.ip_traffic, y.ip_traffic, "{label}: ip_traffic of {}", x.block);
        }
    }
}

impl Reference for Weekly {
    const NAME: &'static str = "weekly";

    fn direct(u: &Universe) -> WeeklyDataset {
        u.build_weekly()
    }

    fn assert_equal(label: &str, a: &WeeklyDataset, b: &WeeklyDataset) {
        assert_eq!(a.num_weeks, b.num_weeks, "{label}: week count");
        assert_eq!(a.blocks, b.blocks, "{label}: block rows");
        assert_eq!(a.week_hits, b.week_hits, "{label}: weekly hit lists");
    }
}

/// The differential grid: every (workers, collectors) combination
/// must reproduce the direct build exactly — same blocks, same
/// activity matrices, same traffic and UA statistics. Worker count
/// changes slicing; collector count changes sharding and merge
/// fan-in; neither may leak into the data.
fn pipeline_matches_direct_build_across_the_grid<C: Reference>() {
    let u = Universe::generate(UniverseConfig::tiny(0xD1FF));
    let direct = C::direct(&u);
    for workers in [1usize, 2, 4, 7] {
        for collectors in [1usize, 2, 4] {
            let (ds, report) = stream_pipeline::<C>(&u, workers, collectors, &Registry::new());
            let label = format!("{} w={workers} c={collectors}", C::NAME);
            C::assert_equal(&label, &direct, &ds);
            assert_eq!(report.totals.frames_skipped, 0, "{label}: clean run skipped frames");
            assert_eq!(
                report.totals.records_written, report.totals.records_read,
                "{label}: record conservation"
            );
            assert_eq!(report.collectors(), collectors, "{label}: report fan-in");
            assert_eq!(report.workers, workers, "{label}: report fan-out");
        }
    }
}

#[test]
fn sharded_pipeline_matches_direct_build_across_the_grid() {
    pipeline_matches_direct_build_across_the_grid::<Daily>();
}

#[test]
fn sharded_weekly_pipeline_matches_direct_build_across_the_grid() {
    pipeline_matches_direct_build_across_the_grid::<Weekly>();
}

#[test]
fn routing_table_census_is_consistent() {
    let u = universe();
    let table: &RoutingTable = u.bgp().base();
    // Every active block resolves to its owning AS.
    let daily = u.build_daily();
    for rec in &daily.blocks {
        let origin = table.origin_of(rec.block.network()).expect("active block routed");
        let owner = u.as_of_block(rec.block).expect("active block owned").asn;
        assert_eq!(origin, owner);
    }
}

#[test]
fn ptr_tags_agree_with_ground_truth_policies() {
    use ipactive::cdnsim::AssignmentPolicy as P;
    let u = universe();
    let mut mismatches = 0usize;
    let mut tagged = 0usize;
    for e in &u.blocks {
        let hint = ipactive::dns::classify_block(u.ptr_table(), e.block, 16);
        if hint == AssignmentHint::Unknown {
            continue;
        }
        tagged += 1;
        let truly_static = matches!(e.policy, P::StaticSparse { .. } | P::StaticDense { .. });
        let truly_dynamic = matches!(
            e.policy,
            P::RoundRobin { .. } | P::DhcpShort { .. } | P::DhcpLong { .. }
        );
        match hint {
            AssignmentHint::Static if !truly_static => mismatches += 1,
            AssignmentHint::Dynamic if !truly_dynamic => mismatches += 1,
            _ => {}
        }
    }
    assert!(tagged > 10, "PTR tagging found too little: {tagged}");
    // PTR keywords never lie in the synthetic universe (the noise is
    // in coverage, not in wrong labels).
    assert_eq!(mismatches, 0);
}
