//! The analysis engine: one memoized activity-set cache shared by the
//! entire figure suite and the always-on observatory.
//!
//! Every figure and table of the paper is a window query over the same
//! two immutable activity matrices (Section 4.1's sliding windows), so
//! [`AnalysisCtx`] memoizes window unions — a one-unit window is a
//! day's or a week's set — as `Arc`-shared [`ActiveSet`] values keyed
//! by their range. A set is computed at most once per session and then
//! shared by reference across figures and across the worker threads of
//! the bench crate's `Repro::run_all`.
//!
//! ## Slot layout
//!
//! The key space is finite and known at construction: `d` days, `w`
//! weeks, and every window `s..e` with `0 ≤ s < e ≤ d` (resp. `w`).
//! So the cache is not a locked map but a flat, pre-keyed table of
//! [`OnceLock`] slots, and there is one type for it, [`WindowCache`]:
//! one [`Cadence`]'s dataset, one slot per unit (day or week) and a
//! triangular vector of multi-unit windows indexed by `window_slot`.
//! The context holds it twice — over the daily dataset's days and the
//! weekly dataset's weeks — and [`AnalysisCtx::windows`] picks one by
//! cadence. It is a [`Windows`] source, and every query is one body
//! on it whatever the cadence. A hit is one lock-free
//! `OnceLock::get`; a miss computes inside `get_or_init`, so racing
//! readers of the same key block on the winner instead of each
//! recomputing the set (the old mutex-map design computed first and
//! re-checked the map afterwards, wasting a full scan per racing
//! loser). One-unit windows alias the unit slot;
//! a multi-unit window miss *composes*: starting at the window's left
//! edge it repeatedly grabs the longest already-cached sub-window
//! (falling back to the single unit set), then merges the pieces with
//! one k-way [`ActiveSet::union_many`] pass. Because union is
//! associative and the tiered representation is canonical, the result
//! is byte-identical no matter which sub-windows happened to be cached
//! first.
//!
//! Composition reads slots *uncounted*: only the public query is
//! metered, as one hit (slot populated) or one miss (this call
//! computed it). Hit/miss totals are therefore a pure function of
//! the query set — exactly one miss per distinct key ever touched,
//! plus one hit per repeat — independent of thread count,
//! interleaving, and whatever composition tree a miss used.
//!
//! The cache needs no invalidation by construction: datasets never
//! change after `finish()`, and the context holds them behind `Arc`,
//! so a cached entry can never go stale. Correctness-neutrality
//! (cached results byte-identical to fresh computation) is pinned by
//! the differential tests in the bench crate's `tests/engine.rs`.
//!
//! ## Epoch carry-forward
//!
//! An always-on observatory appends days to its dataset, which *adds*
//! cache keys but never invalidates existing ones: a window `s..e`
//! over the first `d` days names the same set whether the dataset has
//! `d` days or `d + 1`. [`AnalysisCtx::extended_from`] exploits this —
//! it builds the cache for the grown dataset and seeds it with every
//! slot the previous epoch already materialized (remapping window
//! slots through the new triangular layout), so publishing a new day
//! costs zero recomputation of history and readers of the new epoch
//! share the very same `Arc`s the old epoch handed out.

use crate::cadence::{Cadence, Daily, SlotMatrix, Weekly, Windows};
use crate::{DailyDataset, WeeklyDataset};
use ipactive_net::{ActiveSet, TieredSet};
use ipactive_obs::{Counter, Event, EventKind, Registry};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Hit/miss accounting for one [`AnalysisCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered by handing out an already-computed set.
    pub hits: u64,
    /// Queries that had to compute (and then cache) their set.
    pub misses: u64,
}

/// The argument of [`AnalysisCtx::day_window_within`]. The engine
/// answers every window in full, so [`QueryBudget::unlimited`] is the
/// only value there is. Kept by name for `benchmark/` (ROADMAP item 1).
#[derive(Debug, Clone, Copy)]
pub struct QueryBudget {
    _unlimited: (),
}

impl QueryBudget {
    /// The one budget: none. Kept by name for `benchmark/` (ROADMAP
    /// item 1).
    pub fn unlimited() -> QueryBudget {
        QueryBudget { _unlimited: () }
    }
}

/// Flat index of window `s..e` (`0 ≤ s < e ≤ d_max`) in a triangular
/// table of `d_max(d_max+1)/2` slots: the windows starting at `s`
/// occupy a contiguous run of `d_max − s` slots.
fn window_slot(d_max: usize, s: usize, e: usize) -> usize {
    debug_assert!(s < e && e <= d_max);
    // offset(s) = Σ_{t<s} (d_max − t) = s(2·d_max − s + 1)/2, written
    // without an `s − 1` that would underflow at s = 0.
    s * (2 * d_max - s + 1) / 2 + (e - s - 1)
}

const HIT_ONE: u64 = 1 << 32;

/// The accounting and the bypass switch one [`AnalysisCtx`] shares
/// between its two window caches.
struct Meter {
    registry: Registry,
    /// Run-wide observability counters (`engine.cache.hit` /
    /// `engine.cache.miss`) — monotonic, shared with whatever else
    /// meters into the registry, never rewound.
    hits: Counter,
    misses: Counter,
    /// This context's own view of the same traffic, packed into one
    /// word — hits in the high 32 bits, misses in the low 32 — so
    /// [`AnalysisCtx::stats`] is a single coherent load and
    /// [`AnalysisCtx::reset_stats`] a single store, with no torn
    /// hit/miss pairs under concurrency. Each class saturates
    /// correctness at 2³² queries, far beyond a figure suite.
    local: AtomicU64,
    bypass: AtomicBool,
}

impl Meter {
    fn new(registry: &Registry) -> Meter {
        Meter {
            registry: registry.clone(),
            hits: registry.counter("engine.cache.hit"),
            misses: registry.counter("engine.cache.miss"),
            local: AtomicU64::new(0),
            bypass: AtomicBool::new(false),
        }
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.inc();
            self.local.fetch_add(HIT_ONE, Ordering::Relaxed);
        } else {
            self.misses.inc();
            self.local.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queries `slot`, counting a hit when the set is already there
    /// and a miss when this call's closure computes it. A racing
    /// reader blocks inside `get_or_init` until the winner finishes
    /// and then counts a hit: every key is computed exactly once, and
    /// the counts depend only on the query set.
    fn query_slot<S>(&self, slot: &OnceLock<Arc<S>>, compute: impl FnOnce() -> Arc<S>) -> Arc<S> {
        if let Some(set) = slot.get() {
            self.record(true);
            return set.clone();
        }
        let mut computed = false;
        let set = slot
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        self.record(!computed);
        set
    }

    fn bypass(&self) -> bool {
        self.bypass.load(Ordering::SeqCst)
    }
}

/// One cadence's dataset and its memoized sets: what
/// [`AnalysisCtx::windows`] hands out, a [`Windows`] source that
/// answers every union from the cache. [`AnalysisCtx`] holds one over
/// the daily dataset's days and one over the weekly dataset's weeks,
/// metering both into one account.
pub struct WindowCache<S, C: Cadence> {
    data: Arc<C::Dataset>,
    meter: Arc<Meter>,
    /// One slot per unit (day or week).
    units: Vec<OnceLock<Arc<S>>>,
    /// Triangular window table (see [`window_slot`]); the length-1
    /// diagonal entries stay empty — those queries alias the `units`
    /// slots.
    windows: Vec<OnceLock<Arc<S>>>,
}

impl<S: ActiveSet, C: Cadence> WindowCache<S, C> {
    /// An empty cache over `data`.
    fn new(data: Arc<C::Dataset>, meter: &Arc<Meter>) -> Self {
        let n = data.num_slots();
        WindowCache {
            data,
            meter: meter.clone(),
            units: (0..n).map(|_| OnceLock::new()).collect(),
            windows: (0..n * (n + 1) / 2).map(|_| OnceLock::new()).collect(),
        }
    }

    /// A cache over `data` seeded with every slot `prev` already
    /// materialized: unit slots copy across directly, window slots
    /// remap through the new triangular layout. The carried `Arc`s are
    /// shared, not cloned data.
    ///
    /// # Panics
    /// If `data` has fewer units than `prev`'s dataset.
    fn carried_from(prev: &Self, data: Arc<C::Dataset>, meter: &Arc<Meter>) -> Self {
        let (n_old, n) = (prev.units.len(), data.num_slots());
        assert!(n_old <= n, "extended dataset must not shrink ({n_old} -> {n} {})", C::UNITS);
        let fresh = WindowCache::new(data, meter);
        for (old, new) in prev.units.iter().zip(&fresh.units) {
            if let Some(set) = old.get() {
                let _ = new.set(set.clone());
            }
        }
        for s in 0..n_old {
            for e in s + 2..=n_old {
                if let Some(set) = prev.windows[window_slot(n_old, s, e)].get() {
                    let _ = fresh.windows[window_slot(n, s, e)].set(set.clone());
                }
            }
        }
        fresh
    }

    /// The slot of the multi-unit window `s..e`.
    fn slot(&self, s: usize, e: usize) -> &OnceLock<Arc<S>> {
        &self.windows[window_slot(self.units.len(), s, e)]
    }

    /// The set of unit `u`, memoized.
    fn unit(&self, u: usize) -> Arc<S> {
        if self.meter.bypass() {
            return Arc::new(self.data.unit(u));
        }
        self.meter.query_slot(&self.units[u], || Arc::new(self.data.unit(u)))
    }

    /// Composes the union of `range` from cached material without
    /// touching the public hit/miss counters: greedily take the
    /// longest already-cached window starting at the cursor, else the
    /// (memoized, uncounted) single unit set, then one k-way merge.
    /// Probing the slot of `range` itself just reads `None`.
    fn compose(&self, range: Range<usize>) -> Arc<S> {
        let _span = self.meter.registry.span("engine.compose");
        let mut parts: Vec<Arc<S>> = Vec::new();
        let mut s = range.start;
        while s < range.end {
            let longest =
                (s + 2..=range.end).rev().find_map(|e| Some((self.slot(s, e).get()?, e)));
            match longest {
                Some((set, e)) => {
                    parts.push(set.clone());
                    s = e;
                }
                None => {
                    parts.push(self.units[s].get_or_init(|| Arc::new(self.data.unit(s))).clone());
                    s += 1;
                }
            }
        }
        if parts.len() == 1 {
            return parts.pop().expect("non-empty range composes at least one part");
        }
        let refs: Vec<&S> = parts.iter().map(|p| &**p).collect();
        Arc::new(S::union_many(&refs))
    }

    /// Populates every unit slot from one transposed pass over the
    /// dataset, uncounted; slots already populated keep their sets.
    fn prewarm(&self) {
        if self.units.iter().any(|s| s.get().is_none()) {
            for (slot, set) in self.units.iter().zip(self.data.units_all::<S>()) {
                slot.get_or_init(|| Arc::new(set));
            }
        }
    }
}

impl<S: ActiveSet, C: Cadence> Windows for WindowCache<S, C> {
    type Cadence = C;
    type Set = S;

    fn num_units(&self) -> usize {
        self.units.len()
    }

    /// The union over `range`, memoized; an empty or reversed range is
    /// the empty set. A miss composes inside the slot's `get_or_init`
    /// from the longest cached sub-windows merged in one
    /// [`ActiveSet::union_many`] pass, so e.g. a 28-day window over a
    /// sweep that already cached its two 14-day halves costs one 2-way
    /// merge instead of a fresh matrix scan or a 28-way one.
    fn union(&self, range: Range<usize>) -> Arc<S> {
        if self.meter.bypass() {
            return Arc::new(self.data.window(range));
        }
        assert!(range.end <= self.units.len(), "window outside dataset");
        match range.len() {
            0 => return Arc::new(S::empty()),
            // A one-unit window and the unit's set are the same query;
            // give them the same cache slot.
            1 => return self.unit(range.start),
            _ => {}
        }
        self.meter.query_slot(self.slot(range.start, range.end), || self.compose(range))
    }
}

/// Memoized window-query context over one daily and one weekly
/// dataset.
///
/// See the module docs for the slot layout and the composition miss
/// path. Generic over the [`ActiveSet`] backend the cache
/// materializes; defaults to the tiered compressed representation.
/// The cache logic (slot layout, hit/miss accounting, bypass) is
/// backend-independent, which is what the differential suite in the
/// bench crate's `tests/engine.rs` pins.
pub struct AnalysisCtx<S: ActiveSet = TieredSet> {
    pub(crate) days: WindowCache<S, Daily>,
    pub(crate) weeks: WindowCache<S, Weekly>,
    meter: Arc<Meter>,
}

impl<S: ActiveSet> AnalysisCtx<S> {
    /// Builds an empty cache over the two datasets, metering into a
    /// private registry.
    pub fn new(daily: Arc<DailyDataset>, weekly: Arc<WeeklyDataset>) -> Self {
        AnalysisCtx::new_with_obs(daily, weekly, &Registry::new())
    }

    /// [`AnalysisCtx::new`] with an explicit observability registry:
    /// cache traffic is published as `engine.cache.hit` /
    /// `engine.cache.miss`, the dataset extents as `engine.days` /
    /// `engine.weeks` gauges, and bypass toggles as
    /// [`EventKind::CacheBypass`] journal events.
    pub fn new_with_obs(
        daily: Arc<DailyDataset>,
        weekly: Arc<WeeklyDataset>,
        registry: &Registry,
    ) -> Self {
        let meter = Arc::new(Meter::new(registry));
        let (days, weeks) = (WindowCache::new(daily, &meter), WindowCache::new(weekly, &meter));
        AnalysisCtx::with_caches(days, weeks, meter)
    }

    fn with_caches(
        days: WindowCache<S, Daily>,
        weeks: WindowCache<S, Weekly>,
        meter: Arc<Meter>,
    ) -> Self {
        meter.registry.gauge("engine.days").set(days.units.len() as i64);
        meter.registry.gauge("engine.weeks").set(weeks.units.len() as i64);
        AnalysisCtx { days, weeks, meter }
    }

    /// Builds the cache for a *grown* pair of datasets, carrying
    /// forward every slot `prev` already materialized.
    ///
    /// Caller contract: the new datasets must extend the old ones —
    /// same records for the shared day/week prefix, new days/weeks
    /// appended at the end — which is exactly what an append-only
    /// ingest produces. Under that contract every cached set still
    /// names the same value (appending a day adds keys, it never
    /// changes an existing window), so unit slots copy across directly
    /// and window slots remap through the new triangular layout. The
    /// carried `Arc`s are *shared*, not cloned data: a reader pinned
    /// to the old epoch and a reader of the new one hand out the very
    /// same sets, which is what makes concurrent-ingest answers
    /// byte-identical to a batch build (pinned by the serve crate's
    /// snapshot-isolation differential tests).
    ///
    /// # Panics
    /// If either new dataset is shorter than `prev`'s.
    pub fn extended_from(
        prev: &AnalysisCtx<S>,
        daily: Arc<DailyDataset>,
        weekly: Arc<WeeklyDataset>,
        registry: &Registry,
    ) -> Self {
        let meter = Arc::new(Meter::new(registry));
        let days = WindowCache::carried_from(&prev.days, daily, &meter);
        let weeks = WindowCache::carried_from(&prev.weeks, weekly, &meter);
        AnalysisCtx::with_caches(days, weeks, meter)
    }

    /// The memoized windows of cadence `C`: `windows::<Daily>()` over
    /// the daily dataset's days, `windows::<Weekly>()` over the weekly
    /// dataset's weeks.
    pub fn windows<C: Cadence>(&self) -> &WindowCache<S, C> {
        C::windows(self)
    }

    /// The daily dataset the context answers for.
    pub fn daily(&self) -> &Arc<DailyDataset> {
        &self.days.data
    }

    /// The weekly dataset the context answers for.
    pub fn weekly(&self) -> &Arc<WeeklyDataset> {
        &self.weeks.data
    }

    /// `windows::<Daily>().union(days)`.
    pub fn day_window(&self, days: Range<usize>) -> Arc<S> {
        self.days.union(days)
    }

    /// `windows::<Weekly>().union(weeks)`.
    pub fn week_window(&self, weeks: Range<usize>) -> Arc<S> {
        self.weeks.union(weeks)
    }

    /// [`AnalysisCtx::day_window`], never `Err`. Kept by name for
    /// `benchmark/` (ROADMAP item 1), whose hit-path probe calls it.
    pub fn day_window_within(
        &self,
        days: Range<usize>,
        _budget: &QueryBudget,
    ) -> Result<Arc<S>, Infallible> {
        Ok(self.day_window(days))
    }

    /// Union of all days — the figure suite's "CDN union".
    pub fn all_active(&self) -> Arc<S> {
        self.days.union(0..self.days.units.len())
    }

    /// Populates every day/week unit slot from one transposed pass per
    /// dataset ([`SlotMatrix::units_all`]) instead of `num_days +
    /// num_weeks` separate matrix scans.
    ///
    /// Called once before a figure run so the first figure to touch a
    /// wide window doesn't absorb every unit-set build on its own
    /// clock. Like all composition-side slot writes this is uncounted:
    /// [`AnalysisCtx::stats`] stays a pure function of the public
    /// query set. A no-op under bypass, and slots already populated
    /// (racing queries, a second call) keep their existing sets.
    pub fn prewarm_units(&self) {
        if self.meter.bypass() {
            return;
        }
        let _span = self.meter.registry.span("engine.prewarm_units");
        self.days.prewarm();
        self.weeks.prewarm();
    }

    /// Current hit/miss counters (since construction or the last
    /// [`AnalysisCtx::reset_stats`]) — decoded from one atomic load,
    /// so the pair is always a consistent snapshot.
    pub fn stats(&self) -> CacheStats {
        let packed = self.meter.local.load(Ordering::Relaxed);
        CacheStats { hits: packed >> 32, misses: packed & (HIT_ONE - 1) }
    }

    /// Zeroes the hit/miss view (cached sets are kept) in one atomic
    /// store. The run-wide `engine.cache.*` registry counters are
    /// monotonic and unaffected — only this context's
    /// [`AnalysisCtx::stats`] view moves.
    pub fn reset_stats(&self) {
        self.meter.local.store(0, Ordering::Relaxed);
    }

    /// When bypassing, every query computes a fresh set and neither
    /// reads nor populates the cache — the uncached baseline the
    /// differential suite compares against and the benchmark ledger's
    /// `bench.suite_uncached_ms` row times. Toggles are journaled
    /// as [`EventKind::CacheBypass`] events.
    pub fn set_bypass(&self, on: bool) {
        let was = self.meter.bypass.swap(on, Ordering::SeqCst);
        if was != on {
            self.meter.registry.emit(Event::new(EventKind::CacheBypass).detail(if on {
                "cache bypass enabled"
            } else {
                "cache bypass disabled"
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DailyDatasetBuilder, WeeklyDatasetBuilder};
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn ctx() -> AnalysisCtx {
        let mut d = DailyDatasetBuilder::new(5);
        d.record_hits(0, a("10.0.0.1"), 3);
        d.record_hits(2, a("10.0.0.2"), 1);
        d.record_hits(4, a("10.0.1.7"), 9);
        let mut w = WeeklyDatasetBuilder::new(4);
        w.record_week(0, a("10.0.0.1"), 2);
        w.record_week(3, a("10.0.2.8"), 5);
        AnalysisCtx::new(Arc::new(d.finish()), Arc::new(w.finish()))
    }

    #[test]
    fn window_slots_are_unique_and_in_bounds() {
        for d_max in [1usize, 2, 5, 52, 112] {
            let mut seen = vec![false; d_max * (d_max + 1) / 2];
            for s in 0..d_max {
                for e in s + 1..=d_max {
                    let idx = window_slot(d_max, s, e);
                    assert!(!seen[idx], "slot collision at {s}..{e} (d_max {d_max})");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "unused slots with d_max {d_max}");
        }
    }

    #[test]
    fn memoizes_by_identity_and_counts_hits() {
        let ctx = ctx();
        let first = ctx.day_window(0..5);
        let again = ctx.day_window(0..5);
        assert!(Arc::ptr_eq(&first, &again), "second query must share the first set");
        // Composition is uncounted: the cold query is exactly 1 miss
        // (however many day sets it materialized internally), the
        // repeat exactly 1 hit.
        assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(*first, ctx.daily().window::<TieredSet>(0..5));
    }

    #[test]
    fn composed_windows_reuse_cached_day_sets() {
        let ctx = ctx();
        ctx.prewarm_units(); // fills every day slot, uncounted
        let warmed = ctx.days.units[2].get().expect("prewarm fills the day slot").clone();
        let window = ctx.day_window(1..4);
        // The composed miss reads the warmed day slots uncounted: the
        // public ledger sees exactly the one window query.
        assert_eq!(ctx.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(*window, ctx.daily().window::<TieredSet>(1..4));
        // Day slots were shared, not recomputed: querying one now is
        // a hit on the same Arc the composition consumed.
        let day = ctx.day_window(2..3);
        assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 1 });
        assert!(Arc::ptr_eq(&day, &warmed));
    }

    #[test]
    fn composed_windows_reuse_cached_sub_windows() {
        let ctx = ctx();
        ctx.day_window(0..2);
        ctx.day_window(2..4);
        ctx.reset_stats();
        // 0..5 decomposes into the two cached halves plus day 4; the
        // result must still equal a fresh full-range union, and the
        // ledger still sees one miss.
        let window = ctx.day_window(0..5);
        assert_eq!(ctx.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(*window, ctx.daily().window::<TieredSet>(0..5));
    }

    #[test]
    fn one_day_windows_share_the_day_set_slot() {
        // A one-unit window answers from the unit slot that
        // composition and the prewarm fill, not from the window table.
        fn composed<C: Cadence>() {
            let ctx = ctx();
            let windows = ctx.windows::<C>();
            windows.union(1..4); // composes units 1, 2, 3 into their slots
            ctx.reset_stats();
            let unit = windows.union(2..3);
            assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 0 }, "{}", C::UNITS);
            let consumed = windows.units[2].get().expect("compose fills the unit slot");
            assert!(Arc::ptr_eq(&unit, consumed), "{}", C::UNITS);
        }
        fn prewarmed<C: Cadence>() {
            let ctx = ctx();
            ctx.prewarm_units();
            let windows = ctx.windows::<C>();
            for u in 0..windows.num_units() {
                let unit = windows.union(u..u + 1);
                assert!(Arc::ptr_eq(&unit, windows.units[u].get().unwrap()), "{}", C::UNITS);
            }
            let n = windows.num_units() as u64;
            assert_eq!(ctx.stats(), CacheStats { hits: n, misses: 0 }, "{}", C::UNITS);
        }
        composed::<Daily>();
        composed::<Weekly>();
        prewarmed::<Daily>();
        prewarmed::<Weekly>();
    }

    #[test]
    fn weekly_queries_match_fresh_computation() {
        let ctx = ctx();
        assert_eq!(*ctx.week_window(3..4), ctx.weekly().unit::<TieredSet>(3));
        assert_eq!(*ctx.week_window(0..4), ctx.weekly().window::<TieredSet>(0..4));
        assert_eq!(*ctx.week_window(1..2), ctx.weekly().unit::<TieredSet>(1));
    }

    #[test]
    fn bypass_computes_fresh_and_leaves_the_cache_cold() {
        let ctx = ctx();
        ctx.set_bypass(true);
        let x = ctx.day_window(0..5);
        let y = ctx.day_window(0..5);
        assert!(!Arc::ptr_eq(&x, &y), "bypass must not share results");
        assert_eq!(x, y, "...but they are still equal");
        assert_eq!(ctx.stats(), CacheStats::default());
        ctx.set_bypass(false);
        ctx.day_window(0..5);
        assert_eq!(ctx.stats().misses, 1, "bypass must not have populated the cache");
    }

    #[test]
    fn registry_counters_mirror_stats_and_survive_reset() {
        use ipactive_obs::SnapshotMode;
        let reg = Registry::new();
        let mut d = DailyDatasetBuilder::new(5);
        d.record_hits(0, a("10.0.0.1"), 3);
        let mut w = WeeklyDatasetBuilder::new(4);
        w.record_week(0, a("10.0.0.1"), 2);
        let ctx: AnalysisCtx =
            AnalysisCtx::new_with_obs(Arc::new(d.finish()), Arc::new(w.finish()), &reg);
        ctx.day_window(0..5);
        ctx.day_window(0..5);
        ctx.week_window(1..2);
        assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 2 });
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.counter("engine.cache.hit"), 1);
        assert_eq!(snap.counter("engine.cache.miss"), 2);
        assert_eq!(snap.gauge("engine.days"), 5);
        assert_eq!(snap.gauge("engine.weeks"), 4);

        // reset_stats rewinds the view, never the run-wide counters.
        ctx.reset_stats();
        assert_eq!(ctx.stats(), CacheStats::default());
        ctx.day_window(0..5);
        assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 0 });
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.counter("engine.cache.hit"), 2, "registry counter stays monotonic");

        // Bypass transitions (not repeats) are journaled.
        ctx.set_bypass(true);
        ctx.set_bypass(true);
        ctx.set_bypass(false);
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.events_of(EventKind::CacheBypass).count(), 2);
    }

    #[test]
    fn stats_snapshots_never_tear_under_concurrent_traffic() {
        // Regression for the old two-read reset/stats pair: hammer one
        // cached key from many threads while a reader snapshots; every
        // snapshot must decode to totals consistent with the traffic
        // so far (hits can never exceed queries issued, and the final
        // tally is exact).
        let ctx = Arc::new(ctx());
        ctx.day_window(0..1); // 1 miss, slot warm
        const THREADS: usize = 8;
        const QUERIES: usize = 200;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || {
                    for _ in 0..QUERIES {
                        ctx.day_window(0..1);
                    }
                });
            }
            for _ in 0..100 {
                let s = ctx.stats();
                assert!(s.misses == 1, "exactly one computation ever: {s:?}");
                assert!(s.hits <= (THREADS * QUERIES) as u64);
            }
        });
        assert_eq!(
            ctx.stats(),
            CacheStats { hits: (THREADS * QUERIES) as u64, misses: 1 },
            "totals are a pure function of the query set"
        );
        ctx.reset_stats();
        assert_eq!(ctx.stats(), CacheStats::default());
    }

    #[test]
    fn trait_paths_route_through_the_cache() {
        let ctx = ctx();
        let days = ctx.windows::<Daily>();
        let via_trait = days.union(1..4);
        let direct = ctx.day_window(1..4);
        assert!(Arc::ptr_eq(&via_trait, &direct));
        assert_eq!(days.num_units(), 5);
        assert_eq!(ctx.windows::<Weekly>().num_units(), 4);
        let wk = ctx.windows::<Weekly>().union(0..2);
        assert!(Arc::ptr_eq(&wk, &ctx.week_window(0..2)));
    }

    /// Empty, reversed and full-width windows answer alike on every
    /// path — cached, bypassed and, for days, `day_window_within` — on
    /// both cadences: the first two the empty set, the last everything
    /// the matrix holds, over a 128-day and a 64-week matrix active in
    /// both edge slots.
    #[test]
    fn empty_reversed_and_full_width_windows_answer_alike_on_every_path() {
        type Within<'a> = Option<&'a dyn Fn(Range<usize>) -> Arc<TieredSet>>;
        fn check<C: Cadence>(ctx: &AnalysisCtx, within: Within) {
            let windows = ctx.windows::<C>();
            let n = windows.num_units();
            let (none, all) = (TieredSet::empty(), windows.data.all_active::<TieredSet>());
            assert_eq!(all.len(), 2);
            for bypass in [false, true] {
                ctx.set_bypass(bypass);
                let reversed = Range { start: 5, end: 2 };
                let cases = [(reversed, &none), (n..0, &none), (3..3, &none), (0..n, &all)];
                for (range, want) in cases {
                    let path = format!("{} {range:?}, bypass {bypass}", C::UNITS);
                    assert_eq!(*windows.union(range.clone()), *want, "{path}");
                    if let Some(within) = within {
                        assert_eq!(*within(range), *want, "day_window_within {path}");
                    }
                }
            }
            ctx.set_bypass(false);
        }
        let (mut d, mut w) = (DailyDatasetBuilder::new(128), WeeklyDatasetBuilder::new(64));
        for (slot, host) in [(0, "10.0.0.1"), (127, "10.0.9.255")] {
            d.record_hits(slot, a(host), 1);
            w.record_week(slot / 2, a(host), 1);
        }
        let ctx: AnalysisCtx = AnalysisCtx::new(Arc::new(d.finish()), Arc::new(w.finish()));
        let within = |days| ctx.day_window_within(days, &QueryBudget::unlimited()).unwrap();
        check::<Daily>(&ctx, Some(&within));
        check::<Weekly>(&ctx, None);
    }

    /// Grows the 5-day context's dataset by appending a day and
    /// rebuilding from the same record prefix.
    fn grown_datasets() -> (Arc<DailyDataset>, Arc<WeeklyDataset>) {
        let mut d = DailyDatasetBuilder::new(6);
        d.record_hits(0, a("10.0.0.1"), 3);
        d.record_hits(2, a("10.0.0.2"), 1);
        d.record_hits(4, a("10.0.1.7"), 9);
        d.record_hits(5, a("10.0.3.3"), 4); // the appended day
        let mut w = WeeklyDatasetBuilder::new(4);
        w.record_week(0, a("10.0.0.1"), 2);
        w.record_week(3, a("10.0.2.8"), 5);
        (Arc::new(d.finish()), Arc::new(w.finish()))
    }

    #[test]
    fn extended_from_carries_cached_slots_by_identity() {
        let prev = ctx();
        let d0 = prev.day_window(0..1);
        let w03 = prev.day_window(0..3);
        let wk = prev.week_window(0..4);
        let (daily, weekly) = grown_datasets();
        let next = AnalysisCtx::extended_from(&prev, daily, weekly, &Registry::new());
        // Carried slots hand out the very same Arcs — a hit, not a
        // recomputation, and shared with readers of the old epoch.
        next.reset_stats();
        assert!(Arc::ptr_eq(&next.day_window(0..1), &d0));
        assert!(Arc::ptr_eq(&next.day_window(0..3), &w03));
        assert!(Arc::ptr_eq(&next.week_window(0..4), &wk));
        assert_eq!(next.stats().misses, 0, "carried slots must all hit");
        // Windows touching the new day compose fresh and match a
        // batch-built context byte for byte.
        let grown = next.day_window(0..6);
        let (daily2, weekly2) = grown_datasets();
        let batch: AnalysisCtx = AnalysisCtx::new(daily2, weekly2);
        assert_eq!(*grown, *batch.day_window(0..6));
        assert_eq!(*next.day_window(0..3), *batch.day_window(0..3));
    }

    #[test]
    #[should_panic(expected = "must not shrink")]
    fn extended_from_rejects_shrinking_datasets() {
        let (daily, weekly) = grown_datasets();
        let big: AnalysisCtx = AnalysisCtx::new(daily, weekly);
        let small = ctx();
        let _ = AnalysisCtx::extended_from(
            &big,
            small.daily().clone(),
            small.weekly().clone(),
            &Registry::new(),
        );
    }
}
