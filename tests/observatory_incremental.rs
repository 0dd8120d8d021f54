//! Smoke version of `crates/serve/tests/incremental.rs`, here so that
//! the tier-1 command runs it: an observatory fed day by day publishes,
//! at every epoch, datasets equal to a batch build over the same logs,
//! and folds each record once.

use std::sync::Arc;

use ipactive::core::{DailyDataset, DailyDatasetBuilder, WeeklyDataset, WeeklyDatasetBuilder};
use ipactive_obs::Registry;
use ipactive_serve::{synthetic_day_log, DayLog, Observatory};

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

#[test]
fn incremental_ingest_equals_batch_at_every_epoch() {
    let logs: Vec<DayLog> = (0..16).map(|d| synthetic_day_log(14, d)).collect();
    let registry = Registry::new();
    let obs: Observatory = Observatory::new(&registry);
    // Mixed batching across both week boundaries: 5 at once, then
    // single days (one from a partial feed), then 3 at once.
    let mut ingested = 0;
    let mut pinned = Vec::new();
    for step in [5usize, 1, 1, 1, 0, 1, 3, 1, 1, 1, 1] {
        let snap = match step {
            1 if ingested == 6 => obs.ingest_day_with_coverage(logs[ingested].clone(), 0.5),
            1 => obs.ingest_day(logs[ingested].clone()),
            k => obs.ingest_days(logs[ingested..ingested + k].to_vec()),
        };
        ingested += step;
        let (daily, weekly) = batch(&logs[..ingested]);
        assert_eq!((snap.days(), snap.weeks()), (ingested, ingested / 7));
        assert_eq!(**snap.daily(), daily, "daily differs at {ingested} days");
        assert_eq!(**snap.weekly(), weekly, "weekly differs at {ingested} days");
        assert!(snap.weekly().week_hits.iter().all(|w| w.windows(2).all(|p| p[0] <= p[1])));
        pinned.push((snap, daily, weekly));
    }
    assert_eq!(ingested, 16);
    // Readers pinned along the way still hold what was published.
    for (snap, daily, weekly) in &pinned {
        assert_eq!((&**snap.daily(), &**snap.weekly()), (daily, weekly));
    }
    // No week closed between 7 and 13 days: one weekly dataset, shared.
    assert!(Arc::ptr_eq(pinned[3].0.weekly(), pinned[6].0.weekly()));

    let submitted: usize = logs.iter().map(|l| l.hits.len()).sum();
    let in_weeks: usize = logs[..14].iter().map(|l| l.hits.len()).sum();
    assert_eq!(registry.counter("serve.ingest.records").get(), submitted as u64);
    assert_eq!(registry.counter("serve.ingest.weekly_records").get(), in_weeks as u64);
}
