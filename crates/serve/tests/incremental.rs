//! Incremental equals batch, at every epoch: the observatory folds
//! only the arriving day into its live builders, and whatever the
//! batching, every dataset it publishes must `==` a batch build over
//! the logs so far — while epochs pinned earlier keep the rows they
//! were published with, and the ingest counters say each record was
//! folded exactly once and each median selected from scratch only for
//! an address the builder was not already tracking. The window
//! censuses the server answers from, extended epoch by epoch, must
//! count every window of both cadences as the engine's set has it, and
//! equal a census built in one go over the published datasets.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ipactive_core::{
    Daily, DailyDataset, DailyDatasetBuilder, WeeklyDataset, WeeklyDatasetBuilder, WindowCensus,
};
use ipactive_net::{ActiveSet, Addr, Block24};
use ipactive_obs::{json, Registry};
use ipactive_serve::{
    duplex, synthetic_day_log, wire, ChaosPlan, DayLog, EpochSnapshot, Observatory, QueryKind,
    Request, ServeConfig, Server, TraceContext,
};
use proptest::prelude::*;

/// The batch build over `logs`: fresh builders, every record, `finish`.
fn batch(logs: &[DayLog]) -> (DailyDataset, WeeklyDataset) {
    let mut db = DailyDatasetBuilder::new(logs.len());
    for (d, log) in logs.iter().enumerate() {
        for &(a, h) in &log.hits {
            db.record_hits(d, a, h);
        }
    }
    let weeks = logs.len() / 7;
    let mut wb = WeeklyDatasetBuilder::new(weeks);
    for (d, log) in logs[..weeks * 7].iter().enumerate() {
        for &(a, h) in &log.hits {
            wb.record_week(d / 7, a, h);
        }
    }
    (db.finish(), wb.finish())
}

/// One way to hand the next days to the observatory.
#[derive(Debug, Clone, Copy)]
enum Step {
    Day,
    PartialDay,
    Days(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..3, 0usize..5).prop_map(|(kind, k)| match kind {
        0 => Step::Day,
        1 => Step::PartialDay,
        _ => Step::Days(k),
    })
}

/// Day logs over three blocks and eight hosts, so one day's log names
/// the same address several times, with zero-hit records among them.
/// Up to 17 days: the 6 → 7 → 8 and 13 → 14 → 15 week boundaries.
fn arb_logs() -> impl Strategy<Value = Vec<DayLog>> {
    let record = (0u32..3, 0u8..8, 0u64..40);
    prop::collection::vec(prop::collection::vec(record, 0..40), 0..18).prop_map(|days| {
        days.into_iter()
            .map(|records| {
                let mut log = DayLog::new();
                for (blk, host, hits) in records {
                    log.record(Block24::new(0x0A_0000 + blk).addr(host), hits);
                }
                log
            })
            .collect()
    })
}

/// Every window of both cadences in `snap` counted by its census as
/// the engine's union set has it, and each census equal to one built
/// in one pass over the dataset it counts.
fn censuses_count_the_engines_windows(snap: &EpochSnapshot) -> Result<(), TestCaseError> {
    let (days, weeks) = (snap.day_census(), snap.week_census());
    prop_assert_eq!((days.num_units(), weeks.num_units()), (snap.days(), snap.weeks()));
    for e in 0..=snap.days() {
        for s in 0..=e {
            let want = snap.engine().day_window(s..e).len() as u64;
            let at = snap.epoch();
            prop_assert_eq!(days.count(s..e), want, "days {}..{} at epoch {}", s, e, at);
        }
    }
    for e in 0..=snap.weeks() {
        for s in 0..=e {
            let want = snap.engine().week_window(s..e).len() as u64;
            let at = snap.epoch();
            prop_assert_eq!(weeks.count(s..e), want, "weeks {}..{} at epoch {}", s, e, at);
        }
    }
    prop_assert_eq!(days, &WindowCensus::of(&**snap.daily()), "extended days != one pass");
    prop_assert_eq!(weeks, &WindowCensus::of(&**snap.weekly()), "extended weeks != one pass");
    Ok(())
}

/// An epoch pinned when it was published, with copies of what it held.
struct Pinned {
    snap: Arc<EpochSnapshot>,
    daily: DailyDataset,
    weekly: WeeklyDataset,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_publish_equals_the_batch_build(logs in arb_logs(), steps in prop::collection::vec(arb_step(), 1..24)) {
        let registry = Registry::new();
        let obs: Observatory = Observatory::new(&registry);
        let mut ingested = 0usize;
        let mut pinned: Vec<Pinned> = Vec::new();
        // The plan repeats until the logs run out (an all-empty plan
        // is cut short instead).
        for step in steps.iter().cycle().take(64) {
            let left = &logs[ingested..];
            let before = obs.pin();
            let snap = match *step {
                Step::Day | Step::PartialDay if left.is_empty() => break,
                Step::Day => {
                    ingested += 1;
                    obs.ingest_day(left[0].clone())
                }
                Step::PartialDay => {
                    ingested += 1;
                    obs.ingest_day_with_coverage(left[0].clone(), 0.5)
                }
                Step::Days(k) => {
                    let k = k.min(left.len());
                    ingested += k;
                    obs.ingest_days(left[..k].to_vec())
                }
            };
            prop_assert_eq!(snap.epoch(), before.epoch() + 1);
            prop_assert_eq!(snap.days(), ingested);
            prop_assert_eq!(snap.weeks(), ingested / 7);
            let (daily, weekly) = batch(&logs[..ingested]);
            prop_assert_eq!(&**snap.daily(), &daily, "daily differs at {} days", ingested);
            prop_assert_eq!(&**snap.weekly(), &weekly, "weekly differs at {} days", ingested);
            for week in &snap.weekly().week_hits {
                prop_assert!(week.windows(2).all(|w| w[0] <= w[1]), "week hits unsorted");
            }
            if before.weeks() == snap.weeks() {
                prop_assert!(
                    Arc::ptr_eq(before.weekly(), snap.weekly()),
                    "no week closed, so the weekly dataset carries over as it is"
                );
            }
            censuses_count_the_engines_windows(&snap)?;
            pinned.push(Pinned { snap, daily, weekly });
        }
        // Every epoch pinned along the way still holds exactly what it
        // was published with: no later fold reached its rows.
        for p in &pinned {
            prop_assert_eq!(&**p.snap.daily(), &p.daily, "epoch {} daily moved", p.snap.epoch());
            prop_assert_eq!(&**p.snap.weekly(), &p.weekly, "epoch {} weekly moved", p.snap.epoch());
            prop_assert_eq!(p.snap.day_census(), &WindowCensus::of(&p.daily));
            prop_assert_eq!(p.snap.week_census(), &WindowCensus::of(&p.weekly));
        }
    }
}

#[test]
fn a_census_extended_day_by_day_equals_one_built_in_bulk() {
    let logs: Vec<DayLog> = (0..30).map(|d| synthetic_day_log(13, d)).collect();
    let (daily, weekly) = (Observatory::new(&Registry::new()), Observatory::new(&Registry::new()));
    for log in &logs {
        daily.ingest_day(log.clone());
    }
    let bulk = weekly.ingest_days(logs);
    let one_by_one = daily.pin();
    assert_eq!((one_by_one.epoch(), bulk.epoch()), (30, 1));
    assert_eq!(one_by_one.day_census(), bulk.day_census());
    assert_eq!(one_by_one.week_census(), bulk.week_census());
    assert_eq!(bulk.week_census().num_units(), 4);
    assert_eq!(bulk.day_census().count(0..30), bulk.engine().day_window(0..30).len() as u64);
}

#[test]
fn an_empty_batch_publishes_the_same_data_again() {
    let registry = Registry::new();
    let obs: Observatory = Observatory::new(&registry);
    let first = obs.ingest_days(Vec::new());
    assert_eq!((first.epoch(), first.days(), first.weeks()), (1, 0, 0));
    obs.ingest_days((0..8).map(|d| synthetic_day_log(5, d)).collect());
    let before = obs.pin();
    let after = obs.ingest_days(Vec::new());
    assert_eq!(after.epoch(), before.epoch() + 1);
    assert_eq!(**after.daily(), **before.daily());
    assert!(Arc::ptr_eq(after.weekly(), before.weekly()));
    assert_eq!(after.window_coverage::<Daily>(0..8), 1.0);
}

#[test]
fn repeated_addresses_accumulate_and_zero_hit_records_stay_inactive() {
    let a = Addr::new(0x0A00_0001);
    let quiet = Addr::new(0x0A00_0002);
    let registry = Registry::new();
    let obs: Observatory = Observatory::new(&registry);
    let mut logs = Vec::new();
    for d in 0..7u64 {
        let mut log = DayLog::new();
        log.record(a, 3);
        log.record(quiet, 0);
        log.record(a, d);
        logs.push(log.clone());
        obs.ingest_day(log);
    }
    let snap = obs.pin();
    let rec = &snap.daily().blocks[0];
    assert_eq!(rec.ip_traffic.len(), 1, "the zero-hit address never became active");
    assert_eq!(rec.ip_traffic[0].total_hits, 7 * 3 + 21);
    assert_eq!(rec.ip_traffic[0].days_active, 7);
    assert_eq!(rec.ip_traffic[0].median_daily_hits, 6, "daily sums 3..=9");
    // One weekly value per non-zero record, as the batch build has it.
    assert_eq!(*snap.weekly().week_hits[0], vec![1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5, 6]);
    assert_eq!((&**snap.daily(), &**snap.weekly()), (&batch(&logs).0, &batch(&logs).1));
}

/// Ingests `days` synthetic days one at a time; returns the two ingest
/// counters and how many records were submitted in all and in complete
/// weeks.
fn counted_run(days: usize) -> ((u64, u64), (u64, u64)) {
    let registry = Registry::new();
    let obs: Observatory = Observatory::new(&registry);
    let (mut submitted, mut in_weeks) = (0u64, 0u64);
    for d in 0..days {
        let log = synthetic_day_log(11, d);
        submitted += log.hits.len() as u64;
        if d < days / 7 * 7 {
            in_weeks += log.hits.len() as u64;
        }
        obs.ingest_day(log);
    }
    let folded = (
        registry.counter("serve.ingest.records").get(),
        registry.counter("serve.ingest.weekly_records").get(),
    );
    (folded, (submitted, in_weeks))
}

#[test]
fn each_record_is_folded_once_however_long_the_history() {
    let (folded, submitted) = counted_run(16);
    assert_eq!(folded, submitted, "N single-day ingests fold N days of records, not N²/2");
    assert_eq!(counted_run(16).0, folded, "the counts repeat exactly");
}

/// Day `d` of a feed in which no address appears twice on one day:
/// hosts `0..8 + d / 2` of one block, so every earlier address returns
/// and an even day brings exactly one new one, with hit counts drawn
/// from five values so that medians tie, rise and fall.
fn returning_day(d: usize) -> DayLog {
    let mut log = DayLog::new();
    for h in 0..(8 + d / 2) as u8 {
        log.record(Block24::new(0x0A_0000).addr(h), 1 + (h as u64 * 7 + d as u64 * 3) % 5);
    }
    log
}

#[test]
fn a_publish_selects_medians_only_for_addresses_it_was_not_tracking() {
    let registry = Registry::new();
    let obs: Observatory = Observatory::new(&registry);
    let selects = || registry.counter("serve.ingest.median_selects").get();
    let mut logs: Vec<DayLog> = (0..3).map(returning_day).collect();
    // The first publish selects once per address seen, not per record.
    obs.ingest_days(logs.clone());
    assert_eq!(selects(), 9, "hosts 0..9 over three days");
    // Every later day selects for the address first seen that day and
    // for no returning one, however long the history has grown.
    for d in 3..100 {
        let before = selects();
        logs.push(returning_day(d));
        obs.ingest_day(returning_day(d));
        assert_eq!(selects() - before, (d % 2 == 0) as u64, "day {d}");
    }
    // A second record for an (address, day) changes a sample in place:
    // that address, and only that one, is selected for again — once,
    // not once per extra record — and is tracked again afterwards.
    let mut repeated = returning_day(100);
    let twice = [Block24::new(0x0A_0000).addr(3), Block24::new(0x0A_0000).addr(40)];
    for a in [twice[0], twice[1], twice[1]] {
        repeated.record(a, 9);
    }
    let before = selects();
    logs.push(repeated.clone());
    obs.ingest_day(repeated);
    assert_eq!(selects() - before, 1 + 2, "one new host, two hosts repeated");
    let before = selects();
    logs.push(returning_day(101));
    obs.ingest_day(returning_day(101));
    assert_eq!(selects(), before, "day 101: everyone returns, everyone is tracked");
    // And all of it is still the batch build.
    let snap = obs.pin();
    assert_eq!((&**snap.daily(), &**snap.weekly()), (&batch(&logs).0, &batch(&logs).1));
}

#[test]
fn telemetry_carries_the_ingest_counters() {
    let registry = Registry::new();
    let obs: Arc<Observatory> = Arc::new(Observatory::new(&registry));
    obs.ingest_days((0..8).map(|d| synthetic_day_log(5, d)).collect());
    let server = Server::start(
        obs,
        ServeConfig { workers: 1, queue_depth: 8, chaos: ChaosPlan::none(), slo: None },
    );
    let (client, server_end) = duplex();
    let (srx, stx) = server_end.split();
    server.attach(srx, stx);
    let (mut rx, mut tx) = client.split();
    let request = Request {
        id: 1,
        kind: QueryKind::Telemetry,
        budget_ms: 0,
        allow_degraded: false,
        trace: TraceContext::NONE,
    };
    wire::write_request(&mut tx, &request).unwrap();
    drop(tx);
    let response = wire::read_response(&mut rx).unwrap().expect("one response per request");
    server.shutdown();
    let body = response.body.expect("telemetry answers with a document");
    let records: usize = (0..8).map(|d| synthetic_day_log(5, d).hits.len()).sum();
    let weekly: usize = (0..7).map(|d| synthetic_day_log(5, d).hits.len()).sum();
    let doc = json::parse(&body).expect("telemetry is JSON");
    let counter = |name: &str| doc.get("counters").and_then(|c| c.get(name)).and_then(json::Json::as_f64);
    assert_eq!(counter("serve.ingest.records"), Some(records as f64), "{body}");
    assert_eq!(counter("serve.ingest.weekly_records"), Some(weekly as f64), "{body}");
    // One publish: one selection per address seen over the eight days.
    let seen: HashSet<Addr> =
        (0..8).flat_map(|d| synthetic_day_log(5, d).hits).map(|(a, _)| a).collect();
    assert_eq!(counter("serve.ingest.median_selects"), Some(seen.len() as f64), "{body}");
    // Present from the first publish, which has no window to refill.
    assert_eq!(counter("serve.ingest.median_refills"), Some(0.0), "{body}");
}

#[test]
fn the_129th_day_is_refused_and_the_observatory_keeps_working() {
    let registry = Registry::new();
    let obs: Observatory = Observatory::new(&registry);
    let day = |d: usize| {
        let mut log = DayLog::new();
        log.record(Addr::new(0x0A00_0000 + (d as u32 % 5)), 1 + d as u64);
        log
    };
    obs.ingest_days((0..120).map(day).collect());
    // A batch that would overflow is refused whole, not half-recorded.
    let refused = catch_unwind(AssertUnwindSafe(|| obs.ingest_days((120..130).map(day).collect())));
    assert!(refused.is_err());
    assert_eq!(obs.pin().days(), 120);
    for d in 120..128 {
        obs.ingest_day(day(d));
    }
    let full = obs.pin();
    assert_eq!((full.days(), full.weeks()), (128, 18));
    for _ in 0..2 {
        let refused = catch_unwind(AssertUnwindSafe(|| obs.ingest_day(day(128))));
        let payload = refused.err().expect("the 129th day is refused");
        let message = *payload.downcast::<String>().expect("a formatted panic message");
        assert!(message.contains("ingest refused"), "not a refusal: {message}");
    }
    // Nothing moved: same epoch, same data, and it still equals batch.
    let after = obs.pin();
    assert_eq!(after.epoch(), full.epoch());
    let logs: Vec<DayLog> = (0..128).map(day).collect();
    assert_eq!((&**after.daily(), &**after.weekly()), (&batch(&logs).0, &batch(&logs).1));
    assert_eq!(after.engine().day_window(0..128).len(), 5);
    assert_eq!(after.day_census().count(0..128), 5);
    assert_eq!(after.day_census().count(127..128), 1, "day 127 is counted");
    assert_eq!(after.week_census().count(0..18), 5);
}
