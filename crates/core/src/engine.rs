//! The analysis engine: one memoized activity-set cache shared by the
//! entire figure suite and the always-on observatory.
//!
//! Every figure and table of the paper is a window query over the same
//! two immutable activity matrices (Section 4.1's sliding windows), so
//! [`AnalysisCtx`] memoizes the three query shapes — `day_set(d)`,
//! `week_set(w)`, `window_union(range)` — as `Arc`-shared
//! [`ActiveSet`] values keyed by their range. A set is computed at
//! most once per session and then shared by reference across figures
//! and across the worker threads of the bench crate's `Repro::run_all`.
//!
//! ## Slot layout
//!
//! The key space is finite and known at construction: `d` days, `w`
//! weeks, and every window `s..e` with `0 ≤ s < e ≤ d` (resp. `w`).
//! So the cache is not a locked map but a flat, pre-keyed table of
//! [`OnceLock`] slots, and there is one private type for it,
//! `WindowCache`: a dataset, one slot per unit (day or week) and a
//! triangular vector of multi-unit windows indexed by `window_slot`.
//! The context holds it twice — over the daily dataset's days and the
//! weekly dataset's weeks — and every query, budgeted or not, is one
//! body on that type; `day_*`/`week_*` only pick the cache. A hit is
//! one lock-free `OnceLock::get`; a miss computes inside
//! `get_or_init`, so racing readers of the same key block on the
//! winner instead of each recomputing the set (the old mutex-map
//! design computed first and re-checked the map afterwards, wasting a
//! full scan per racing loser). One-unit windows alias the unit slot;
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
//!
//! ## Deadline budgets
//!
//! The serving layer answers queries under a per-request wall-clock
//! budget. [`AnalysisCtx::day_window_within`] /
//! [`AnalysisCtx::week_window_within`] run the same composition as the
//! unbudgeted queries but check a [`QueryBudget`] at every
//! slot-composition boundary; an exceeded budget returns
//! [`DeadlineExceeded`] carrying how many units of the window had been
//! composed — partial-progress provenance the serving layer forwards
//! to the client. Cached answers are handed out even when the budget
//! is already spent (a hit costs nothing).

use crate::{DailyDataset, DailyWindows, WeeklyDataset, WeeklyWindows};
use ipactive_net::{ActiveSet, TieredSet};
use ipactive_obs::{Counter, Event, EventKind, Registry};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Hit/miss accounting for one [`AnalysisCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered by handing out an already-computed set.
    pub hits: u64,
    /// Queries that had to compute (and then cache) their set.
    pub misses: u64,
}

/// A per-query wall-clock compute budget.
///
/// Checked at slot-composition boundaries by the `*_within` queries;
/// [`QueryBudget::unlimited`] never expires and makes the budgeted
/// paths behave exactly like their unbudgeted counterparts.
#[derive(Debug, Clone, Copy)]
pub struct QueryBudget {
    deadline: Option<Instant>,
}

impl QueryBudget {
    /// A budget that never expires.
    pub fn unlimited() -> QueryBudget {
        QueryBudget { deadline: None }
    }

    /// A budget expiring `budget` from now.
    pub fn within(budget: Duration) -> QueryBudget {
        QueryBudget { deadline: Some(Instant::now() + budget) }
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A budgeted query ran out of time mid-composition.
///
/// Partial-progress provenance: `units_done` of `units_total`
/// single-day (or single-week) spans of the requested window had been
/// covered by cached sub-windows or freshly materialized units when
/// the deadline fired. `units_done == units_total` means every piece
/// was gathered but the final k-way merge had not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// Units of the window already composed.
    pub units_done: usize,
    /// Total units in the requested window.
    pub units_total: usize,
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

/// What a [`WindowCache`] asks of the dataset it memoizes: its units
/// (days of the daily dataset, weeks of the weekly one) and fresh,
/// uncached unions over them.
trait UnitSource {
    /// Units in the dataset's window.
    fn num_units(&self) -> usize;
    /// The set active in unit `u`.
    fn unit<S: ActiveSet>(&self, u: usize) -> S;
    /// Every unit's set, from one transposed pass over the dataset.
    fn units_all<S: ActiveSet>(&self) -> Vec<S>;
    /// The union over `range`, computed fresh from the matrix.
    fn window<S: ActiveSet>(&self, range: Range<usize>) -> S;
}

impl UnitSource for DailyDataset {
    fn num_units(&self) -> usize {
        self.num_days
    }
    fn unit<S: ActiveSet>(&self, d: usize) -> S {
        self.day_set_as(d)
    }
    fn units_all<S: ActiveSet>(&self) -> Vec<S> {
        self.day_sets_all()
    }
    fn window<S: ActiveSet>(&self, days: Range<usize>) -> S {
        self.window_union_as(days)
    }
}

impl UnitSource for WeeklyDataset {
    fn num_units(&self) -> usize {
        self.num_weeks
    }
    fn unit<S: ActiveSet>(&self, w: usize) -> S {
        self.week_set_as(w)
    }
    fn units_all<S: ActiveSet>(&self) -> Vec<S> {
        self.week_sets_all()
    }
    fn window<S: ActiveSet>(&self, weeks: Range<usize>) -> S {
        self.window_union_as(weeks)
    }
}

const HIT_ONE: u64 = 1 << 32;

/// The accounting and switches one [`AnalysisCtx`] shares between its
/// two window caches.
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
    /// Chaos injection point (µs slept before each uncached unit
    /// materialization on the *budgeted* paths); 0 = disabled. Lets
    /// the chaos harness make `DeadlineExceeded` reachable
    /// deterministically without slowing the unbudgeted hot path.
    compose_stall_us: AtomicU64,
}

impl Meter {
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

    fn chaos_stall(&self) {
        let us = self.compose_stall_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
    }
}

/// One dataset and its memoized sets — [`AnalysisCtx`] holds one over
/// the daily dataset's days and one over the weekly dataset's weeks.
struct WindowCache<S, D> {
    data: Arc<D>,
    /// One slot per unit (day or week).
    units: Vec<OnceLock<Arc<S>>>,
    /// Triangular window table (see [`window_slot`]); the length-1
    /// diagonal entries stay empty — those queries alias the `units`
    /// slots.
    windows: Vec<OnceLock<Arc<S>>>,
}

impl<S: ActiveSet, D: UnitSource> WindowCache<S, D> {
    /// An empty cache over `data`.
    fn new(data: Arc<D>) -> Self {
        let n = data.num_units();
        WindowCache {
            data,
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
    /// If `data` has fewer units than `prev`'s dataset (`cadence`
    /// names it in the message).
    fn carried_from(prev: &Self, data: Arc<D>, cadence: &str) -> Self {
        let (n_old, n) = (prev.units.len(), data.num_units());
        assert!(n_old <= n, "extended {cadence} dataset must not shrink ({n_old} -> {n})");
        let fresh = WindowCache::new(data);
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
    fn unit(&self, meter: &Meter, u: usize) -> Arc<S> {
        if meter.bypass() {
            return Arc::new(self.data.unit(u));
        }
        meter.query_slot(&self.units[u], || Arc::new(self.data.unit(u)))
    }

    /// The union over `range`, memoized; a miss composes (see
    /// [`WindowCache::compose_within`]) inside the slot's
    /// `get_or_init`.
    fn window(&self, meter: &Meter, range: Range<usize>) -> Arc<S> {
        if meter.bypass() {
            return Arc::new(self.data.window(range));
        }
        assert!(range.end <= self.units.len(), "window outside dataset");
        match range.len() {
            0 => return Arc::new(S::empty()),
            // A one-unit window and the unit's set are the same query;
            // give them the same cache slot.
            1 => return self.unit(meter, range.start),
            _ => {}
        }
        meter.query_slot(self.slot(range.start, range.end), || {
            self.compose_within(meter, range.clone(), &QueryBudget::unlimited())
                .expect("an unlimited budget never expires")
        })
    }

    /// [`WindowCache::window`] under a deadline budget (semantics in
    /// [`AnalysisCtx::day_window_within`]).
    fn window_within(
        &self,
        meter: &Meter,
        range: Range<usize>,
        budget: &QueryBudget,
    ) -> Result<Arc<S>, DeadlineExceeded> {
        assert!(range.end <= self.units.len(), "window outside dataset");
        if range.is_empty() {
            return Ok(Arc::new(S::empty()));
        }
        if range.len() == 1 {
            // Cached units are free; an uncached unit build is charged
            // against the budget as one boundary.
            let cached = !meter.bypass() && self.units[range.start].get().is_some();
            if !cached && budget.expired() {
                return Err(DeadlineExceeded { units_done: 0, units_total: 1 });
            }
            return Ok(self.window(meter, range));
        }
        if meter.bypass() {
            if budget.expired() {
                return Err(DeadlineExceeded { units_done: 0, units_total: range.len() });
            }
            return Ok(Arc::new(self.data.window(range)));
        }
        let slot = self.slot(range.start, range.end);
        if let Some(set) = slot.get() {
            meter.record(true);
            return Ok(set.clone());
        }
        let set = self.compose_within(meter, range, budget)?;
        let _ = slot.set(set);
        meter.record(false);
        Ok(slot.get().expect("slot was just set").clone())
    }

    /// Composes the union of `range` from cached material without
    /// touching the public hit/miss counters: greedily take the
    /// longest already-cached window starting at the cursor, else the
    /// (memoized, uncounted) single unit set, then one k-way merge.
    /// Probing the slot of `range` itself just reads `None`.
    ///
    /// The deadline is checked at every slot-composition boundary —
    /// before each greedy step and before the final merge. The stall
    /// injection point (see [`AnalysisCtx::set_compose_stall`]) fires
    /// before each uncached unit materialization, *after* the boundary
    /// check, so an injected stall is charged to the following
    /// boundary exactly like a genuinely slow set build.
    fn compose_within(
        &self,
        meter: &Meter,
        range: Range<usize>,
        budget: &QueryBudget,
    ) -> Result<Arc<S>, DeadlineExceeded> {
        let _span = meter.registry.span("engine.compose");
        let units_total = range.len();
        let mut parts: Vec<Arc<S>> = Vec::new();
        let mut s = range.start;
        while s < range.end {
            if budget.expired() {
                return Err(DeadlineExceeded { units_done: s - range.start, units_total });
            }
            let longest =
                (s + 2..=range.end).rev().find_map(|e| Some((self.slot(s, e).get()?, e)));
            match longest {
                Some((set, e)) => {
                    parts.push(set.clone());
                    s = e;
                }
                None => {
                    meter.chaos_stall();
                    parts.push(self.units[s].get_or_init(|| Arc::new(self.data.unit(s))).clone());
                    s += 1;
                }
            }
        }
        if parts.len() == 1 {
            return Ok(parts.pop().expect("non-empty range composes at least one part"));
        }
        if budget.expired() {
            return Err(DeadlineExceeded { units_done: units_total, units_total });
        }
        let refs: Vec<&S> = parts.iter().map(|p| &**p).collect();
        Ok(Arc::new(S::union_many(&refs)))
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
    days: WindowCache<S, DailyDataset>,
    weeks: WindowCache<S, WeeklyDataset>,
    meter: Meter,
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
        AnalysisCtx::with_caches(WindowCache::new(daily), WindowCache::new(weekly), registry)
    }

    fn with_caches(
        days: WindowCache<S, DailyDataset>,
        weeks: WindowCache<S, WeeklyDataset>,
        registry: &Registry,
    ) -> Self {
        registry.gauge("engine.days").set(days.units.len() as i64);
        registry.gauge("engine.weeks").set(weeks.units.len() as i64);
        AnalysisCtx {
            days,
            weeks,
            meter: Meter {
                registry: registry.clone(),
                hits: registry.counter("engine.cache.hit"),
                misses: registry.counter("engine.cache.miss"),
                local: AtomicU64::new(0),
                bypass: AtomicBool::new(false),
                compose_stall_us: AtomicU64::new(0),
            },
        }
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
        let days = WindowCache::carried_from(&prev.days, daily, "daily");
        let weeks = WindowCache::carried_from(&prev.weeks, weekly, "weekly");
        AnalysisCtx::with_caches(days, weeks, registry)
    }

    /// The daily dataset the context answers for.
    pub fn daily(&self) -> &Arc<DailyDataset> {
        &self.days.data
    }

    /// The weekly dataset the context answers for.
    pub fn weekly(&self) -> &Arc<WeeklyDataset> {
        &self.weeks.data
    }

    /// Addresses active on day `d`, memoized.
    pub fn day_set(&self, d: usize) -> Arc<S> {
        self.days.unit(&self.meter, d)
    }

    /// Addresses active in week `w`, memoized.
    pub fn week_set(&self, w: usize) -> Arc<S> {
        self.weeks.unit(&self.meter, w)
    }

    /// Union of the day window `days`, memoized.
    ///
    /// A miss composes from the longest cached sub-windows merged in
    /// one [`ActiveSet::union_many`] pass, so e.g. a 28-day window
    /// over a sweep that already cached its two 14-day halves costs
    /// one 2-way merge instead of a fresh matrix scan or a 28-way one.
    pub fn day_window(&self, days: Range<usize>) -> Arc<S> {
        self.days.window(&self.meter, days)
    }

    /// Union of the week window `weeks`, memoized (composition as in
    /// [`AnalysisCtx::day_window`]).
    pub fn week_window(&self, weeks: Range<usize>) -> Arc<S> {
        self.weeks.window(&self.meter, weeks)
    }

    /// [`AnalysisCtx::day_window`] under a deadline budget.
    ///
    /// A cached window is handed out even when the budget is already
    /// spent (a hit costs nothing). A miss composes with the budget
    /// checked at every slot boundary; running out returns
    /// [`DeadlineExceeded`] with partial-progress provenance and
    /// caches nothing. A successful budgeted miss publishes its set
    /// into the same slot the unbudgeted query uses, so later queries
    /// of either flavor hit.
    ///
    /// Metering: one hit per cached answer, one miss per call that
    /// computed, nothing on `Err`. Unlike [`AnalysisCtx::day_window`],
    /// two budgeted misses racing on one key may both count a miss
    /// (abortable composition cannot run inside `get_or_init`); the
    /// slot still keeps a single canonical set.
    pub fn day_window_within(
        &self,
        days: Range<usize>,
        budget: &QueryBudget,
    ) -> Result<Arc<S>, DeadlineExceeded> {
        self.days.window_within(&self.meter, days, budget)
    }

    /// [`AnalysisCtx::week_window`] under a deadline budget; semantics
    /// as in [`AnalysisCtx::day_window_within`].
    pub fn week_window_within(
        &self,
        weeks: Range<usize>,
        budget: &QueryBudget,
    ) -> Result<Arc<S>, DeadlineExceeded> {
        self.weeks.window_within(&self.meter, weeks, budget)
    }

    /// Union of all days — the figure suite's "CDN union".
    pub fn all_active(&self) -> Arc<S> {
        self.day_window(0..self.days.units.len())
    }

    /// Populates every day/week unit slot from one transposed pass per
    /// dataset ([`DailyDataset::day_sets_all`] /
    /// [`WeeklyDataset::week_sets_all`]) instead of `num_days +
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

    /// Chaos injection: sleep `stall` before every uncached unit
    /// materialization on the budgeted composition paths (zero
    /// disables). Deterministic harnesses use this to make slow slot
    /// builds — and therefore `DeadlineExceeded` — reachable on
    /// demand; the unbudgeted hot path never consults it.
    pub fn set_compose_stall(&self, stall: Duration) {
        self.meter.compose_stall_us.store(stall.as_micros() as u64, Ordering::SeqCst);
    }
}

impl<S: ActiveSet> DailyWindows for AnalysisCtx<S> {
    type Set = S;

    fn num_days(&self) -> usize {
        self.days.units.len()
    }

    fn union(&self, days: Range<usize>) -> Arc<S> {
        self.day_window(days)
    }
}

impl<S: ActiveSet> WeeklyWindows for AnalysisCtx<S> {
    type Set = S;

    fn num_weeks(&self) -> usize {
        self.weeks.units.len()
    }

    fn union(&self, weeks: Range<usize>) -> Arc<S> {
        self.week_window(weeks)
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
        assert_eq!(*first, ctx.daily().window_union_as(0..5));
    }

    #[test]
    fn composed_windows_reuse_cached_day_sets() {
        let ctx = ctx();
        for d in 0..5 {
            ctx.day_set(d); // warm every day slot: 5 misses
        }
        ctx.reset_stats();
        let window = ctx.day_window(1..4);
        // The composed miss reads the warmed day slots uncounted: the
        // public ledger sees exactly the one window query.
        assert_eq!(ctx.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(*window, ctx.daily().window_union_as(1..4));
        // Day slots were shared, not recomputed: querying one now is
        // a hit on the same Arc the composition consumed.
        let day = ctx.day_set(2);
        assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 1 });
        assert!(day.len() <= window.len());
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
        assert_eq!(*window, ctx.daily().window_union_as(0..5));
    }

    #[test]
    fn one_day_windows_share_the_day_set_slot() {
        let ctx = ctx();
        let via_window = ctx.day_window(2..3);
        let via_day = ctx.day_set(2);
        assert!(Arc::ptr_eq(&via_window, &via_day));
        assert_eq!(ctx.stats().misses, 1);
    }

    #[test]
    fn weekly_queries_match_fresh_computation() {
        let ctx = ctx();
        assert_eq!(*ctx.week_set(3), ctx.weekly().week_set_as(3));
        assert_eq!(*ctx.week_window(0..4), ctx.weekly().window_union_as(0..4));
        assert_eq!(*ctx.week_window(1..2), ctx.weekly().week_set_as(1));
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
        ctx.week_set(1);
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
        ctx.day_set(0); // 1 miss, slot warm
        const THREADS: usize = 8;
        const QUERIES: usize = 200;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || {
                    for _ in 0..QUERIES {
                        ctx.day_set(0);
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
        let via_trait = DailyWindows::union(&ctx, 1..4);
        let direct = ctx.day_window(1..4);
        assert!(Arc::ptr_eq(&via_trait, &direct));
        assert_eq!(DailyWindows::num_days(&ctx), 5);
        assert_eq!(WeeklyWindows::num_weeks(&ctx), 4);
        let wk = WeeklyWindows::union(&ctx, 0..2);
        assert!(Arc::ptr_eq(&wk, &ctx.week_window(0..2)));
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
        let d0 = prev.day_set(0);
        let w03 = prev.day_window(0..3);
        let wk = prev.week_window(0..4);
        let (daily, weekly) = grown_datasets();
        let next = AnalysisCtx::extended_from(&prev, daily, weekly, &Registry::new());
        // Carried slots hand out the very same Arcs — a hit, not a
        // recomputation, and shared with readers of the old epoch.
        next.reset_stats();
        assert!(Arc::ptr_eq(&next.day_set(0), &d0));
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

    #[test]
    fn budgeted_queries_match_unbudgeted_and_cache_normally() {
        let ctx = ctx();
        let budget = QueryBudget::unlimited();
        let set = ctx.day_window_within(0..5, &budget).expect("unlimited budget");
        assert_eq!(*set, ctx.daily().window_union_as(0..5));
        // The budgeted miss populated the shared slot: the unbudgeted
        // query now hits the same Arc.
        assert!(Arc::ptr_eq(&set, &ctx.day_window(0..5)));
        assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 1 });
        let wk = ctx.week_window_within(0..4, &budget).unwrap();
        assert_eq!(*wk, ctx.weekly().window_union_as(0..4));
        // Empty and one-unit windows stay budget-exempt when cached.
        assert!(ctx.day_window_within(0..0, &budget).unwrap().is_empty());
    }

    #[test]
    fn expired_budget_returns_partial_progress_provenance() {
        let ctx = ctx();
        let spent = QueryBudget::within(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(spent.expired());
        let err = ctx.day_window_within(0..5, &spent).unwrap_err();
        assert_eq!(err, DeadlineExceeded { units_done: 0, units_total: 5 });
        // Nothing was cached by the failed query.
        assert_eq!(ctx.stats(), CacheStats::default());
        // An uncached single unit is also charged.
        let err = ctx.day_window_within(2..3, &spent).unwrap_err();
        assert_eq!(err.units_total, 1);
        // ...but a cached answer is free even over budget.
        ctx.day_window(0..5);
        ctx.day_set(2);
        assert!(ctx.day_window_within(0..5, &spent).is_ok());
        assert!(ctx.day_window_within(2..3, &spent).is_ok());
        assert!(ctx.week_window_within(0..4, &spent).is_err());
    }

    #[test]
    fn compose_stall_makes_midflight_deadlines_reachable() {
        let ctx = ctx();
        // 5 uncached units at ≥2ms each against a ~3ms budget: the
        // deadline fires at a slot boundary strictly inside the
        // window, so the provenance shows genuine partial progress.
        ctx.set_compose_stall(Duration::from_millis(2));
        let budget = QueryBudget::within(Duration::from_millis(3));
        match ctx.day_window_within(0..5, &budget) {
            Err(err) => {
                assert!(err.units_total == 5);
                assert!(err.units_done < 5, "stall must abort before the window completes");
            }
            // On a heavily loaded machine the budget may survive the
            // stalls; the query must then be exact.
            Ok(set) => assert_eq!(*set, ctx.daily().window_union_as(0..5)),
        }
        ctx.set_compose_stall(Duration::ZERO);
        let set = ctx.day_window_within(0..5, &QueryBudget::unlimited()).unwrap();
        assert_eq!(*set, ctx.daily().window_union_as(0..5));
    }
}
