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
//!   (`serve.ingest.records`, `serve.ingest.weekly_records`), run on
//!   every core — the daily builder's shards are folded side by side
//!   by [`DailyDatasetBuilder::record_days`], and a week that
//!   closes is folded as one more share beside them. The daily builder
//!   keeps each block in the form a dataset publishes it, so the same
//!   `add` brings the block's record up to date: the address's row
//!   bit, day count, total and, when its rank window holds it, its
//!   median;
//! - the per-address medians, O(day): the daily builder *maintains*
//!   each address's median in a rank window — the six samples ranked
//!   around it, sorted, and the count ranked below them — which the
//!   day's sample moves in O(1) and the fold reads into the published
//!   entry. Only a median that has walked out of its window is ranked
//!   again at the publish, by one selection over that address's ≤ 128
//!   samples (`serve.ingest.median_refills`: a few hundred of ~35 k
//!   tracked addresses a day at the benchmark's scale). A median is
//!   selected from scratch only for an address the builder has not
//!   reported before, or whose day took a second record
//!   (`serve.ingest.median_selects`: zero for a day of returning
//!   addresses);
//! - a copy of every block's record — its rows and `ip_traffic`
//!   summaries, two allocations and a memcpy a block, with no walk
//!   over its hosts: O(addresses), memcpy-only, the one part that is
//!   not O(day). It runs on the ingest thread alone, so every published
//!   dataset lives in that thread's heap; built on a helper it cost a
//!   second allocator arena's worth of peak memory and no time;
//! - a weekly snapshot one ingest in seven, sharing every closed week;
//! - the window censuses, O(days) for a day: the fold counts, for each
//!   new day, the addresses it adds to every window ending on it (each
//!   record that puts its address on a later day than all it had is
//!   one, after its previous active day), and
//!   [`WindowCensus::appended`] turns the counts into a column appended
//!   to the previous epoch's [`WindowCensus`], whose columns it
//!   shares (`serve.ingest.census_fold_days` counts the days counted
//!   so; a fold that cannot vouch for its counts leaves the column to
//!   one pass over the daily rows). When a week closes, one pass over
//!   the weekly rows extends the weekly census. Every window answer is
//!   then a lookup; no publish composes or caches a window set for the
//!   server.
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
//! A served weekly dataset's `week_hits[w]` holds one value per
//! non-zero day-log record of week `w`, not one per address-week: an
//! address active on five days of the week contributes five values.
//! The batch reference the tests and the benchmark build
//! (`record_week` once per record) has the same rule, so the two stay
//! equal, but it is not what [`WeeklyDataset::week_hits`] documents or
//! what the simulator's weekly emitter writes (each address's weekly
//! total). No served query reads `week_hits` today; summing per
//! address before `record_week` has to change this fold and the
//! benchmark's reference together.
//!
//! Nothing else of the history is retained: no day log outlives its
//! week, and what the builders keep per address beyond its published
//! summary and row is one hit count per active day and its rank
//! window.

use ipactive_core::coverage::clamp_fraction;
use ipactive_core::{
    AnalysisCtx, Cadence, Coverage, Daily, DailyDataset, DailyDatasetBuilder, Weekly,
    WeeklyDataset, WeeklyDatasetBuilder, WindowCensus,
};
use ipactive_net::{Addr, DayBits, PrefixDensity};
use ipactive_obs::{splitmix64, Event, EventKind, Registry};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

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
    let mut state = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(day as u64 + 1));
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
            state = splitmix64(state);
            let h = 64 + (state % 128) as u32;
            log.record(Addr::new(base | h), 1 + state % 5);
        }
    }
    log
}

/// One published epoch: an immutable view of the datasets, the shared
/// analysis cache, the window censuses of both cadences, per-day
/// coverage provenance, and a lazily built density approximation for
/// degraded answers.
pub struct EpochSnapshot {
    epoch: u64,
    engine: Arc<AnalysisCtx>,
    day_census: WindowCensus<Daily>,
    week_census: WindowCensus<Weekly>,
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

    /// The count of every window of the epoch's days.
    pub fn day_census(&self) -> &WindowCensus<Daily> {
        &self.day_census
    }

    /// The count of every window of the epoch's complete weeks.
    pub fn week_census(&self) -> &WindowCensus<Weekly> {
        &self.week_census
    }

    /// Collection-completeness fraction of the *requested* window of
    /// `C`'s units: the mean per-day feed fraction over the days the
    /// units span, where days beyond the ingested horizon count as
    /// 0.0. Exactly 1.0 only when every requested day is ingested and
    /// was collected from a full feed — the condition for a
    /// non-degraded answer.
    ///
    /// The range comes off the wire unclamped, so the cost is bounded
    /// by the ingested days, not by what the request names; any range
    /// is answerable, since the unit-to-day mapping saturates and the
    /// mean is taken over the requested length.
    pub fn window_coverage<C: Cadence>(&self, units: Range<usize>) -> f64 {
        if units.is_empty() {
            return 1.0;
        }
        let days = units.start.saturating_mul(C::DAYS_PER_UNIT)
            ..units.end.saturating_mul(C::DAYS_PER_UNIT);
        self.ingested_fraction_sum(days) / (units.len() as f64 * C::DAYS_PER_UNIT as f64)
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
    /// daily blocks' own counts: a block's `ip_traffic` holds one entry
    /// per address active on any ingested day, so the index costs
    /// O(blocks) and composes no set. It equals the index of the
    /// all-days union. Prefix counts read it, and the degraded answer
    /// after a worker panic quotes it.
    pub fn density(&self) -> Arc<PrefixDensity> {
        self.density
            .get_or_init(|| {
                let blocks = &self.daily().blocks;
                let counts = blocks.iter().map(|r| (r.block.id(), r.ip_traffic.len() as u64));
                Arc::new(PrefixDensity::from_block_counts(counts.filter(|&(_, n)| n > 0)))
            })
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
                day_census: WindowCensus::new(),
                week_census: WindowCensus::new(),
                day_fractions: Arc::new(Vec::new()),
                density: OnceLock::new(),
            })),
            registry: registry.clone(),
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

        // Fold only the arriving records into the live accumulators.
        // Builders are order-insensitive and a snapshot is what
        // `finish()` would return now, so each published dataset is
        // *equal* to a batch build over every record so far — the
        // byte-identity anchor. The expensive state (every
        // materialized activity set) carries forward below instead of
        // being recomputed.
        let state = &mut *state;
        let prev = self.pin();
        let (mut records, mut weekly_records) = (0u64, 0u64);
        // The day census grows by the columns each fold counts, until a
        // fold cannot vouch for its counts; then the rows are counted.
        let mut day_census = Some(prev.day_census.clone());
        state.daily.grow(count);
        // One fold per week the batch reaches: its days go into the
        // daily shards on every core and, if that completes the week,
        // the week's seven logs go into the weekly builder as one more
        // share beside them and are dropped.
        let mut batch = batch.into_iter();
        let mut day = first;
        while day < count {
            let (w, end) = (day / 7, (day / 7 * 7 + 7).min(count));
            for (log, fraction) in batch.by_ref().take(end - day) {
                records += log.hits.len() as u64;
                state.fractions.push(clamp_fraction(fraction));
                state.open_week.push(log);
            }
            let closes = end % 7 == 0;
            if closes {
                state.weekly.grow(w + 1);
                // One exact allocation for the week's multiset, which
                // every later epoch shares.
                let len = state.open_week.iter().map(|log| log.hits.len()).sum();
                state.weekly.reserve_week(w, len);
                weekly_records += len as u64;
            }
            let open = &state.open_week;
            let days: Vec<&[(Addr, u64)]> =
                open[open.len() - (end - day)..].iter().map(|log| &log.hits[..]).collect();
            let weekly = &mut state.weekly;
            let counted = state.daily.record_days(day, &days, || {
                if closes {
                    for log in open {
                        for &(addr, hits) in &log.hits {
                            weekly.record_week(w, addr, hits);
                        }
                    }
                }
            });
            day_census = day_census.zip(counted).map(|(census, days)| census.appended(&days));
            if closes {
                state.open_week.clear();
            }
            day = end;
        }

        let (selected, refilled) = (state.daily.medians_selected(), state.daily.median_refills());
        let daily = Arc::new(state.daily.snapshot());
        let median_selects = state.daily.medians_selected() - selected;
        let median_refills = state.daily.median_refills() - refilled;
        let census_fold_days = if day_census.is_some() { count - first } else { 0 };
        let day_census = day_census.unwrap_or_else(|| prev.day_census.extended(&*daily));
        let (weekly, week_census) = if count / 7 > prev.weeks() {
            let weekly = Arc::new(state.weekly.snapshot());
            let week_census = prev.week_census.extended(&*weekly);
            (weekly, week_census)
        } else {
            // No week closed: the weekly data carries over as it is.
            (prev.weekly().clone(), prev.week_census.clone())
        };
        let engine = AnalysisCtx::extended_from(&prev.engine, daily, weekly, &self.registry);
        let snapshot = Arc::new(EpochSnapshot {
            epoch: prev.epoch + 1,
            engine: Arc::new(engine),
            day_census,
            week_census,
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
        // the builder or one whose day took a second record; a tracked
        // one is refilled only when it has left its rank window.
        self.registry.counter("serve.ingest.records").add(records);
        self.registry.counter("serve.ingest.weekly_records").add(weekly_records);
        self.registry.counter("serve.ingest.median_selects").add(median_selects);
        self.registry.counter("serve.ingest.median_refills").add(median_refills);
        // Days whose census column the fold counted, not a pass over
        // the rows.
        self.registry.counter("serve.ingest.census_fold_days").add(census_fold_days as u64);
        self.registry.emit(
            Event::new(EventKind::EpochPublish)
                .day(count as u16)
                .offset(snapshot.epoch)
                .detail(format!("published epoch {} with {count} days", snapshot.epoch)),
        );
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipactive_core::{Daily, Weekly};
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
        assert_eq!(snap.window_coverage::<Daily>(0..1), 1.0);
        assert!((snap.window_coverage::<Daily>(0..2) - 0.75).abs() < 1e-12);
        // A window reaching past the ingested horizon dilutes to zero
        // for the unknown days.
        assert!((snap.window_coverage::<Daily>(0..4) - 1.5 / 4.0).abs() < 1e-12);
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
        assert!((snap.window_coverage::<Daily>(0..3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(snap.window_coverage::<Daily>(0..1), 1.0);
        assert_eq!(snap.coverage().get(0, 1), 0.0);
        obs.ingest_day_with_coverage(synthetic_day_log(1, 3), f64::INFINITY);
        obs.ingest_day_with_coverage(synthetic_day_log(1, 4), f64::NEG_INFINITY);
        assert_eq!(obs.pin().window_coverage::<Daily>(3..5), 0.5);
    }

    #[test]
    fn week_coverage_saturates_instead_of_wrapping() {
        let reg = Registry::new();
        let obs: Observatory = Observatory::new(&reg);
        obs.ingest_days((0..14).map(|d| synthetic_day_log(1, d)).collect());
        let snap = obs.pin();
        assert_eq!(snap.window_coverage::<Weekly>(0..2), 1.0);
        assert!((snap.window_coverage::<Weekly>(0..4) - 0.5).abs() < 1e-12);
        // `weeks.end * 7` used to wrap to 12 here (a coverage of 1.0
        // in release, an overflow panic in debug).
        assert!(snap.window_coverage::<Weekly>(0..usize::MAX / 7 + 2) < 1e-15);
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
        assert_eq!(*density, PrefixDensity::from_set(&*snap.engine().all_active()));
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
