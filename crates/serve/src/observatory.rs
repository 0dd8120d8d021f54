//! Snapshot-isolated ingest: epoch-versioned immutable views of the
//! analysis engine.
//!
//! The observatory owns one live [`DailyDatasetBuilder`] and one live
//! [`WeeklyDatasetBuilder`] — the same accumulators, fed through the
//! same `record_hits` / `record_week`, that a batch build uses once
//! and throws away. Ingesting a day widens their window, folds *only
//! the arriving records* and publishes a snapshot of the builder, so
//! ingest does not grow with the history behind it. A publish costs:
//!
//! - the fold, O(day): one accumulator `add` per arriving record
//!   (`serve.ingest.records`, `serve.ingest.weekly_records`);
//! - the per-address medians, O(day): the daily builder *maintains*
//!   each address's median — two rank counters beside it, bumped by
//!   the day's sample, and at most one pass over that address's ≤ 128
//!   samples when the median moves to its neighbour. A median is
//!   selected from scratch only for an address the builder has not
//!   reported before, or whose day took a second record
//!   (`serve.ingest.median_selects`: zero for a day of returning
//!   addresses);
//! - the rows and `ip_traffic` summaries of *every* block, rebuilt
//!   into storage the snapshot owns: O(addresses), memcpy-class, about
//!   a millisecond at the benchmark's scale — the part that is not
//!   O(day) yet;
//! - a weekly snapshot one ingest in seven, sharing every closed week.
//!
//! The builders are order-insensitive and a snapshot is what
//! `finish()` would return at that moment, so the published dataset is
//! *equal* to a batch build over the same records — the property the
//! snapshot-isolation and incremental-equals-batch suites pin at every
//! epoch. Each new [`EpochSnapshot`]'s [`AnalysisCtx`] is seeded from
//! the previous epoch's cache via [`AnalysisCtx::extended_from`].
//! Readers pin an epoch with [`Observatory::pin`] — a cheap `Arc` clone
//! — and keep querying it unperturbed no matter how many epochs publish
//! behind them: a snapshot owns its rows and never aliases the
//! accumulator.
//!
//! Weekly data follows the *complete weeks only* rule: week `w` covers
//! days `7w..7w+7` and exists once its seventh day lands. Until then
//! the week's day logs wait in a buffer of at most six; the seventh
//! folds all of them into the weekly builder and a new weekly dataset
//! is published. The other six ingests in seven reuse the previous
//! `Arc<WeeklyDataset>`, and a closed week's sorted hit multiset is
//! shared between the builder and every later dataset rather than
//! copied or sorted again. Earlier weeks never change when a day
//! appends, so weekly cache slots carry forward under the same
//! reasoning as daily ones.
//!
//! Nothing else of the history is retained: no day log outlives its
//! week, and what the builders keep per address is its day bitmap and
//! one hit count per active day.

use ipactive_core::coverage::clamp_fraction;
use ipactive_core::{
    AnalysisCtx, Coverage, DailyDataset, DailyDatasetBuilder, WeeklyDataset, WeeklyDatasetBuilder,
};
use ipactive_net::{Addr, DayBits, PrefixDensity};
use ipactive_obs::{Event, EventKind, Registry};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// One day of observed activity: `(address, successful requests)`
/// records, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct DayLog {
    /// Per-address successful request counts for the day.
    pub hits: Vec<(Addr, u64)>,
}

impl DayLog {
    /// An empty log.
    pub fn new() -> DayLog {
        DayLog::default()
    }

    /// Records `hits` successful requests from `addr`.
    pub fn record(&mut self, addr: Addr, hits: u64) {
        self.hits.push((addr, hits));
    }
}

/// A deterministic synthetic day of activity — the data source for
/// the load generator and the chaos/differential harnesses. Pure in
/// `(seed, day)`: some addresses are diurnal stable hosts, some churn
/// in and out by day parity, a few are one-day visitors.
pub fn synthetic_day_log(seed: u64, day: usize) -> DayLog {
    let mut log = DayLog::new();
    let mut state = splitmix(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(day as u64 + 1));
    let blocks = 24usize;
    for b in 0..blocks {
        let base = 0x0a00_0000u32 + ((b as u32) << 8);
        // Stable hosts: always active, traffic varies by day.
        for h in 1..=6u32 {
            log.record(Addr::new(base | h), 10 + ((day as u64 + h as u64) % 7));
        }
        // Churners: half the block's middle range flips by day parity.
        for h in 32..40u32 {
            if (h as usize + day + b) % 2 == 0 {
                log.record(Addr::new(base | h), 1 + (h as u64 % 3));
            }
        }
        // Visitors: a few seeded one-day addresses.
        for _ in 0..3 {
            state = splitmix(state);
            let h = 64 + (state % 128) as u32;
            log.record(Addr::new(base | h), 1 + state % 5);
        }
    }
    log
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One published epoch: an immutable view of the datasets, the shared
/// analysis cache, per-day coverage provenance, and a lazily built
/// density approximation for degraded answers.
pub struct EpochSnapshot {
    epoch: u64,
    engine: Arc<AnalysisCtx>,
    /// Per-ingested-day collection completeness (1.0 = full feed).
    day_fractions: Arc<Vec<f64>>,
    density: OnceLock<Arc<PrefixDensity>>,
}

impl EpochSnapshot {
    /// The epoch number (0 = the empty pre-ingest epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Days ingested as of this epoch.
    pub fn days(&self) -> usize {
        self.engine.daily().num_days
    }

    /// Complete weeks as of this epoch (`days / 7`).
    pub fn weeks(&self) -> usize {
        self.engine.weekly().num_weeks
    }

    /// The epoch's memoized query engine.
    pub fn engine(&self) -> &AnalysisCtx {
        &self.engine
    }

    /// The epoch's daily dataset.
    pub fn daily(&self) -> &Arc<DailyDataset> {
        self.engine.daily()
    }

    /// The epoch's weekly dataset.
    pub fn weekly(&self) -> &Arc<WeeklyDataset> {
        self.engine.weekly()
    }

    /// Collection-completeness fraction of the *requested* day window:
    /// the mean per-day feed fraction over `days`, where days beyond
    /// the ingested horizon count as 0.0. Exactly 1.0 only when every
    /// requested day is ingested and was collected from a full feed —
    /// the condition for a non-degraded answer.
    ///
    /// The range comes off the wire unclamped, so the cost is bounded
    /// by the ingested days, not by what the request names.
    pub fn window_coverage(&self, days: Range<usize>) -> f64 {
        if days.is_empty() {
            return 1.0;
        }
        self.ingested_fraction_sum(days.clone()) / days.len() as f64
    }

    /// [`EpochSnapshot::window_coverage`] for a week window (weeks map
    /// to their seven days). Any `weeks` is answerable: the mapping
    /// saturates, and the mean is taken over the requested length.
    pub fn week_window_coverage(&self, weeks: Range<usize>) -> f64 {
        if weeks.is_empty() {
            return 1.0;
        }
        let days = weeks.start.saturating_mul(7)..weeks.end.saturating_mul(7);
        self.ingested_fraction_sum(days) / (weeks.len() as f64 * 7.0)
    }

    /// Sum of the feed fractions of the ingested days inside `days`.
    fn ingested_fraction_sum(&self, days: Range<usize>) -> f64 {
        let end = days.end.min(self.days());
        self.day_fractions[days.start.min(end)..end].iter().sum()
    }

    /// The coverage grid for the whole epoch (one shard, one slot per
    /// ingested day) — the provenance surface degraded answers quote.
    pub fn coverage(&self) -> Coverage {
        Coverage::from_slot_fractions(&self.day_fractions)
    }

    /// The all-days prefix-density index, built on first use from the
    /// (cached) union of every ingested day. Degraded answers quote
    /// counts from this O(1) approximation instead of composing sets
    /// they have no budget for.
    pub fn density(&self) -> Arc<PrefixDensity> {
        self.density
            .get_or_init(|| Arc::new(PrefixDensity::from_set(&*self.engine.all_active())))
            .clone()
    }
}

/// What the ingest half of the observatory owns, behind one mutex:
/// the live accumulators every published dataset is a snapshot of, the
/// day logs of the week still open, and the coverage annotations.
struct IngestState {
    daily: DailyDatasetBuilder,
    weekly: WeeklyDatasetBuilder,
    /// Logs of the days since the last complete week (at most six):
    /// weekly records exist for complete weeks only, so these wait for
    /// their seventh day and are dropped once folded.
    open_week: Vec<DayLog>,
    /// Per-ingested-day feed completeness; its length is the day count.
    fractions: Vec<f64>,
}

/// The always-on observatory: snapshot-isolated ingest over an
/// epoch-versioned immutable analysis engine. See the module docs.
pub struct Observatory {
    ingest: Mutex<IngestState>,
    current: RwLock<Arc<EpochSnapshot>>,
    registry: Registry,
    /// Chaos stall (µs) applied to every published engine's budgeted
    /// composition path; see [`AnalysisCtx::set_compose_stall`].
    compose_stall_us: AtomicU64,
}

impl Observatory {
    /// An empty observatory (epoch 0, zero days) metering into
    /// `registry`.
    pub fn new(registry: &Registry) -> Observatory {
        let daily = Arc::new(DailyDatasetBuilder::new(0).finish());
        let weekly = Arc::new(WeeklyDatasetBuilder::new(0).finish());
        let engine = AnalysisCtx::new_with_obs(daily, weekly, registry);
        Observatory {
            ingest: Mutex::new(IngestState {
                daily: DailyDatasetBuilder::new(0),
                weekly: WeeklyDatasetBuilder::new(0),
                open_week: Vec::new(),
                fractions: Vec::new(),
            }),
            current: RwLock::new(Arc::new(EpochSnapshot {
                epoch: 0,
                engine: Arc::new(engine),
                day_fractions: Arc::new(Vec::new()),
                density: OnceLock::new(),
            })),
            registry: registry.clone(),
            compose_stall_us: AtomicU64::new(0),
        }
    }

    /// The registry every epoch's engine meters into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Pins the current epoch: a cheap `Arc` clone that later ingests
    /// can never invalidate or mutate.
    pub fn pin(&self) -> Arc<EpochSnapshot> {
        self.current.read().expect("epoch lock poisoned").clone()
    }

    /// Ingests one fully-collected day and publishes a new epoch.
    ///
    /// # Panics
    /// Like every ingest entry point, if the day would be the 129th:
    /// the activity matrix holds [`DayBits::CAPACITY`] days. The batch
    /// is refused whole before anything is recorded, so the observatory
    /// keeps serving its current epoch and takes later calls.
    pub fn ingest_day(&self, log: DayLog) -> Arc<EpochSnapshot> {
        self.ingest_day_with_coverage(log, 1.0)
    }

    /// Ingests one day whose feed was only `fraction` complete (the
    /// "Lost in Space" case: a partial feed must be served honestly,
    /// not silently shrunk). The fraction travels with every epoch and
    /// annotates degraded answers over windows touching this day.
    pub fn ingest_day_with_coverage(
        &self,
        log: DayLog,
        fraction: f64,
    ) -> Arc<EpochSnapshot> {
        self.ingest_batch(vec![(log, fraction)])
    }

    /// Ingests several days and publishes a *single* new epoch.
    pub fn ingest_days(&self, logs: Vec<DayLog>) -> Arc<EpochSnapshot> {
        self.ingest_batch(logs.into_iter().map(|l| (l, 1.0)).collect())
    }

    fn ingest_batch(&self, batch: Vec<(DayLog, f64)>) -> Arc<EpochSnapshot> {
        // The ingest lock serializes writers for the whole fold;
        // readers never take it.
        let mut state = self.ingest.lock().expect("ingest lock poisoned");
        let first = state.fractions.len();
        let count = first + batch.len();
        if count > DayBits::CAPACITY {
            // Refuse before touching anything, and let go of the lock
            // first so the refusal does not poison it.
            drop(state);
            panic!(
                "ingest refused: {count} days exceed the {}-day activity matrix",
                DayBits::CAPACITY
            );
        }

        // Fold only the arriving records into the live accumulators,
        // through the very calls a batch build makes. Builders are
        // order-insensitive and a snapshot is what `finish()` would
        // return now, so each published dataset is *equal* to a batch
        // build over every record so far — the byte-identity anchor.
        // The expensive state (every materialized activity set)
        // carries forward below instead of being recomputed.
        let state = &mut *state;
        let (mut records, mut weekly_records) = (0u64, 0u64);
        state.daily.grow(count);
        for (d, (log, fraction)) in (first..).zip(batch) {
            for &(addr, hits) in &log.hits {
                state.daily.record_hits(d, addr, hits);
            }
            records += log.hits.len() as u64;
            state.fractions.push(clamp_fraction(fraction));
            state.open_week.push(log);
            if state.open_week.len() == 7 {
                let w = d / 7;
                state.weekly.grow(w + 1);
                // One exact allocation for the week's multiset, which
                // every later epoch shares.
                let records = state.open_week.iter().map(|log| log.hits.len()).sum();
                state.weekly.reserve_week(w, records);
                for log in state.open_week.drain(..) {
                    for &(addr, hits) in &log.hits {
                        state.weekly.record_week(w, addr, hits);
                    }
                    weekly_records += log.hits.len() as u64;
                }
            }
        }

        let prev = self.pin();
        let selected = state.daily.medians_selected();
        let daily = Arc::new(state.daily.snapshot());
        let median_selects = state.daily.medians_selected() - selected;
        let weekly = if count / 7 > prev.weeks() {
            Arc::new(state.weekly.snapshot())
        } else {
            // No week closed: the weekly dataset carries over as it is.
            prev.weekly().clone()
        };
        let engine = AnalysisCtx::extended_from(&prev.engine, daily, weekly, &self.registry);
        let stall = self.compose_stall_us.load(Ordering::SeqCst);
        engine.set_compose_stall(Duration::from_micros(stall));
        let snapshot = Arc::new(EpochSnapshot {
            epoch: prev.epoch + 1,
            engine: Arc::new(engine),
            day_fractions: Arc::new(state.fractions.clone()),
            density: OnceLock::new(),
        });

        // The atomic swap: one short write-lock to replace the Arc.
        *self.current.write().expect("epoch lock poisoned") = snapshot.clone();
        self.registry.gauge("serve.epoch").set(snapshot.epoch as i64);
        self.registry.gauge("serve.days").set(count as i64);
        // Ingest cost as an exact count: every record is folded once
        // into each builder, whatever the history behind it, and a
        // median is selected from scratch only for an address new to
        // the builder or one whose day took a second record.
        self.registry.counter("serve.ingest.records").add(records);
        self.registry.counter("serve.ingest.weekly_records").add(weekly_records);
        self.registry.counter("serve.ingest.median_selects").add(median_selects);
        self.registry.emit(
            Event::new(EventKind::EpochPublish)
                .day(count as u16)
                .offset(snapshot.epoch)
                .detail(format!("published epoch {} with {count} days", snapshot.epoch)),
        );
        snapshot
    }

    /// Chaos injection: every epoch published from now on stalls its
    /// *budgeted* composition path by `stall` per uncached unit build
    /// (and the current epoch is updated in place). Zero disables.
    pub fn set_compose_stall(&self, stall: Duration) {
        self.compose_stall_us.store(stall.as_micros() as u64, Ordering::SeqCst);
        self.pin().engine.set_compose_stall(stall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipactive_net::ActiveSet;

    fn reference_engine(logs: &[DayLog]) -> AnalysisCtx {
        let mut db = DailyDatasetBuilder::new(logs.len());
        for (d, log) in logs.iter().enumerate() {
            for &(a, h) in &log.hits {
                db.record_hits(d, a, h);
            }
        }
        let weeks = logs.len() / 7;
        let mut wb = WeeklyDatasetBuilder::new(weeks);
        for (w, week) in logs.chunks_exact(7).enumerate() {
            for log in week {
                for &(a, h) in &log.hits {
                    wb.record_week(w, a, h);
                }
            }
        }
        AnalysisCtx::new(Arc::new(db.finish()), Arc::new(wb.finish()))
    }

    #[test]
    fn incremental_ingest_equals_batch_build() {
        let logs: Vec<DayLog> = (0..10).map(|d| synthetic_day_log(7, d)).collect();
        let reg = Registry::new();
        let obs: Observatory = Observatory::new(&reg);
        for log in &logs {
            obs.ingest_day(log.clone());
        }
        let snap = obs.pin();
        assert_eq!(snap.epoch(), 10);
        assert_eq!(snap.days(), 10);
        assert_eq!(snap.weeks(), 1);
        let reference = reference_engine(&logs);
        assert_eq!(**snap.daily(), **reference.daily(), "daily dataset differs from batch");
        assert_eq!(**snap.weekly(), **reference.weekly(), "weekly dataset differs from batch");
        assert_eq!(*snap.engine().day_window(2..9), *reference.day_window(2..9));
        assert_eq!(*snap.engine().week_window(0..1), *reference.week_window(0..1));
    }

    #[test]
    fn readers_pinned_to_an_epoch_are_never_invalidated() {
        let reg = Registry::new();
        let obs: Observatory = Observatory::new(&reg);
        obs.ingest_days((0..6).map(|d| synthetic_day_log(3, d)).collect());
        let pinned = obs.pin();
        let before = pinned.engine().day_window(1..5);
        // Ingest storms past the pinned reader.
        for d in 6..12 {
            obs.ingest_day(synthetic_day_log(3, d));
        }
        // The pinned epoch still answers, identically, and the grown
        // epoch shares the very same Arc for the old window.
        let after = pinned.engine().day_window(1..5);
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(pinned.days(), 6);
        let fresh = obs.pin();
        assert_eq!(fresh.days(), 12);
        assert!(
            Arc::ptr_eq(&before, &fresh.engine().day_window(1..5)),
            "carry-forward must share the pinned epoch's sets"
        );
    }

    #[test]
    fn window_coverage_annotates_partial_feeds_and_horizons() {
        let reg = Registry::new();
        let obs: Observatory = Observatory::new(&reg);
        obs.ingest_day(synthetic_day_log(1, 0));
        obs.ingest_day_with_coverage(synthetic_day_log(1, 1), 0.5);
        let snap = obs.pin();
        assert_eq!(snap.window_coverage(0..1), 1.0);
        assert!((snap.window_coverage(0..2) - 0.75).abs() < 1e-12);
        // A window reaching past the ingested horizon dilutes to zero
        // for the unknown days.
        assert!((snap.window_coverage(0..4) - 1.5 / 4.0).abs() < 1e-12);
        assert_eq!(snap.coverage().num_slots(), 2);
        assert!(!snap.coverage().is_complete());
    }

    #[test]
    fn a_day_with_a_nan_feed_fraction_counts_as_nothing_known() {
        // `collected / expected` over an empty expected feed.
        let reg = Registry::new();
        let obs: Observatory = Observatory::new(&reg);
        obs.ingest_day(synthetic_day_log(1, 0));
        obs.ingest_day_with_coverage(synthetic_day_log(1, 1), f64::NAN);
        obs.ingest_day(synthetic_day_log(1, 2));
        let snap = obs.pin();
        assert!((snap.window_coverage(0..3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(snap.window_coverage(0..1), 1.0);
        assert_eq!(snap.coverage().get(0, 1), 0.0);
        obs.ingest_day_with_coverage(synthetic_day_log(1, 3), f64::INFINITY);
        obs.ingest_day_with_coverage(synthetic_day_log(1, 4), f64::NEG_INFINITY);
        assert_eq!(obs.pin().window_coverage(3..5), 0.5);
    }

    #[test]
    fn week_coverage_saturates_instead_of_wrapping() {
        let reg = Registry::new();
        let obs: Observatory = Observatory::new(&reg);
        obs.ingest_days((0..14).map(|d| synthetic_day_log(1, d)).collect());
        let snap = obs.pin();
        assert_eq!(snap.week_window_coverage(0..2), 1.0);
        assert!((snap.week_window_coverage(0..4) - 0.5).abs() < 1e-12);
        // `weeks.end * 7` used to wrap to 12 here (a coverage of 1.0
        // in release, an overflow panic in debug).
        assert!(snap.week_window_coverage(0..usize::MAX / 7 + 2) < 1e-15);
    }

    #[test]
    fn density_is_lazy_shared_and_counts_the_union() {
        let reg = Registry::new();
        let obs: Observatory = Observatory::new(&reg);
        obs.ingest_days((0..4).map(|d| synthetic_day_log(9, d)).collect());
        let snap = obs.pin();
        let density = snap.density();
        assert!(Arc::ptr_eq(&density, &snap.density()), "density memoizes");
        assert_eq!(density.total(), snap.engine().all_active().len() as u64);
    }

    #[test]
    fn synthetic_logs_are_pure_in_seed_and_day() {
        let a = synthetic_day_log(42, 3);
        let b = synthetic_day_log(42, 3);
        assert_eq!(a.hits, b.hits);
        assert_ne!(synthetic_day_log(42, 4).hits, a.hits);
        assert_ne!(synthetic_day_log(43, 3).hits, a.hits);
    }
}
