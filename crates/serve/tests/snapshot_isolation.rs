//! Snapshot-isolation differential suite: concurrent readers over a
//! live ingest storm must see answers *byte-identical* to engines
//! batch-built over the same logs — at every epoch they pin, at any
//! reader parallelism, on every rerun.
//!
//! This is the serving-layer analogue of the repo's builder
//! differential tests: `Observatory` rebuilds datasets by replay and
//! carries caches forward across epochs, and nothing about epoch
//! timing, reader count, or cache carry-forward may change a single
//! answered byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ipactive_core::AnalysisCtx;
use ipactive_core::{DailyDatasetBuilder, WeeklyDatasetBuilder};
use ipactive_net::ActiveSet;
use ipactive_obs::{splitmix64, Registry};
use ipactive_serve::{synthetic_day_log, DayLog, Observatory};

const STORM_DAYS: usize = 12;
const LOG_SEED: u64 = 77;

/// Batch-builds a reference engine over the first `count` logs — the
/// ground truth every pinned epoch must agree with byte-for-byte.
fn batch_reference(logs: &[DayLog], count: usize) -> AnalysisCtx {
    let mut db = DailyDatasetBuilder::new(count);
    for (d, log) in logs[..count].iter().enumerate() {
        for &(a, h) in &log.hits {
            db.record_hits(d, a, h);
        }
    }
    let weeks = count / 7;
    let mut wb = WeeklyDatasetBuilder::new(weeks);
    for (w, week) in logs[..count].chunks_exact(7).enumerate() {
        for log in week {
            for &(a, h) in &log.hits {
                wb.record_week(w, a, h);
            }
        }
    }
    AnalysisCtx::new(Arc::new(db.finish()), Arc::new(wb.finish()))
}

/// Canonical bytes of a window answer: the sorted-iteration address
/// stream every `ActiveSet` backend promises.
fn window_bytes(engine: &AnalysisCtx, s: usize, e: usize) -> Vec<u32> {
    engine.day_window(s..e).iter().map(|a| a.bits()).collect()
}

/// Runs one full storm with `readers` concurrent reader threads:
/// ingest publishes the twelve days one epoch at a time while readers
/// pin epochs and check windows against the batch references the
/// whole time. Returns the final epoch's full-window bytes (the
/// cross-jobs / cross-rerun determinism anchor) plus how many window
/// checks the readers performed.
fn storm(readers: usize) -> (Vec<u32>, usize) {
    let logs: Vec<DayLog> = (0..STORM_DAYS).map(|d| synthetic_day_log(LOG_SEED, d)).collect();
    let refs: Arc<Vec<AnalysisCtx>> =
        Arc::new((0..=STORM_DAYS).map(|c| batch_reference(&logs, c)).collect());

    let registry = Registry::new();
    let obs: Arc<Observatory> = Arc::new(Observatory::new(&registry));
    let done = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for r in 0..readers {
        let obs = obs.clone();
        let refs = refs.clone();
        let done = done.clone();
        handles.push(thread::spawn(move || {
            let mut checked = 0usize;
            let mut state = splitmix64(0xC0FFEE ^ r as u64);
            while !done.load(Ordering::SeqCst) || checked == 0 {
                let snap = obs.pin();
                let days = snap.days();
                if days == 0 {
                    thread::yield_now();
                    continue;
                }
                // A deterministic-per-reader window inside the pinned
                // horizon; the *reference* for it depends only on the
                // pinned epoch's day count, never on later ingests.
                state = splitmix64(state);
                let s = (state % days as u64) as usize;
                state = splitmix64(state);
                let e = s + 1 + (state % (days - s) as u64) as usize;
                let live: Vec<u32> =
                    snap.engine().day_window(s..e).iter().map(|a| a.bits()).collect();
                let reference = window_bytes(&refs[days], s, e);
                assert_eq!(
                    live, reference,
                    "reader {r} saw a non-batch answer for {s}..{e} at {days} days"
                );
                // Weekly answers obey the complete-weeks rule at every
                // epoch too.
                let weeks = snap.weeks();
                if weeks > 0 {
                    let lw: Vec<u32> =
                        snap.engine().week_window(0..weeks).iter().map(|a| a.bits()).collect();
                    let rw: Vec<u32> =
                        refs[days].week_window(0..weeks).iter().map(|a| a.bits()).collect();
                    assert_eq!(lw, rw, "weekly answer diverged at {days} days");
                }
                checked += 1;
            }
            checked
        }));
    }

    // The ingest storm: one epoch per day, racing the readers.
    for log in &logs {
        obs.ingest_day(log.clone());
        thread::sleep(Duration::from_millis(1));
    }
    done.store(true, Ordering::SeqCst);
    let checked = handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();

    let snap = obs.pin();
    assert_eq!(snap.days(), STORM_DAYS);
    let final_bytes: Vec<u32> =
        snap.engine().day_window(0..STORM_DAYS).iter().map(|a| a.bits()).collect();
    (final_bytes, checked)
}

#[test]
fn live_readers_match_batch_builds_across_jobs_and_reruns() {
    // jobs=1 and jobs=4, plus a rerun of jobs=4: every pinned answer
    // is checked against the batch reference *inside* storm(); here we
    // additionally pin that the final dataset bytes are identical
    // across parallelism and across reruns.
    let (serial, checked_serial) = storm(1);
    let (par, checked_par) = storm(4);
    let (rerun, _) = storm(4);
    assert!(checked_serial > 0 && checked_par > 0);
    assert!(!serial.is_empty());
    assert_eq!(serial, par, "reader parallelism changed the final bytes");
    assert_eq!(par, rerun, "a rerun changed the final bytes");
    // And against a from-scratch batch build, closing the loop.
    let logs: Vec<DayLog> = (0..STORM_DAYS).map(|d| synthetic_day_log(LOG_SEED, d)).collect();
    let reference = window_bytes(&batch_reference(&logs, STORM_DAYS), 0, STORM_DAYS);
    assert_eq!(serial, reference);
}

#[test]
fn a_single_epoch_bulk_ingest_equals_the_day_by_day_storm() {
    let logs: Vec<DayLog> = (0..STORM_DAYS).map(|d| synthetic_day_log(LOG_SEED, d)).collect();
    let reg_a = Registry::new();
    let one_shot: Observatory = Observatory::new(&reg_a);
    one_shot.ingest_days(logs.clone());
    let reg_b = Registry::new();
    let day_by_day: Observatory = Observatory::new(&reg_b);
    for log in &logs {
        day_by_day.ingest_day(log.clone());
    }
    let a = one_shot.pin();
    let b = day_by_day.pin();
    assert_eq!(a.epoch(), 1, "bulk ingest publishes one epoch");
    assert_eq!(b.epoch(), STORM_DAYS as u64);
    assert_eq!(**a.daily(), **b.daily());
    assert_eq!(**a.weekly(), **b.weekly());
    let wa: Vec<u32> = a.engine().day_window(0..STORM_DAYS).iter().map(|x| x.bits()).collect();
    let wb: Vec<u32> = b.engine().day_window(0..STORM_DAYS).iter().map(|x| x.bits()).collect();
    assert_eq!(wa, wb);
}
