//! Differential suite for the analysis engine: the memoized cache and
//! the parallel `run_all` must be invisible in the output — every
//! figure byte-identical to a serial run with the cache bypassed.

use ipactive_bench::{AnalysisCtx, Repro, Scale, EXPERIMENTS};
use std::sync::Arc;

#[test]
fn run_all_parallel_is_byte_identical_to_serial_uncached() {
    let repro = Repro::new(0xCAFE, Scale::Tiny);
    let baseline = repro.run_serial_uncached();
    let cached = repro.run_all(4);

    assert_eq!(baseline.figures.len(), EXPERIMENTS.len());
    assert_eq!(cached.figures.len(), EXPERIMENTS.len());
    for (b, c) in baseline.figures.iter().zip(&cached.figures) {
        assert_eq!(b.name, c.name, "report order must follow EXPERIMENTS");
        assert_eq!(b.output, c.output, "{} output diverged under the cache", b.name);
    }
    assert_eq!(baseline.combined_output(), cached.combined_output());
    assert!(
        cached.cache.hits > 0,
        "the figure suite shares window queries, so a full run must hit the cache"
    );
}

#[test]
fn run_all_output_follows_experiments_order_regardless_of_jobs() {
    let repro = Repro::new(0xBEEF, Scale::Tiny);
    let one = repro.run_all(1);
    let many = repro.run_all(7);
    for ((f1, f7), name) in one.figures.iter().zip(&many.figures).zip(EXPERIMENTS) {
        assert_eq!(f1.name, name);
        assert_eq!(f7.name, name);
        assert_eq!(f1.output, f7.output);
    }
    // The second pass answers every query from the first pass's cache.
    assert_eq!(many.cache.misses, 0, "warm run must not miss");
}

#[test]
fn run_all_matches_the_per_figure_run_api() {
    let repro = Repro::new(0xCAFE, Scale::Tiny);
    let report = repro.run_all(3);
    for f in &report.figures {
        assert_eq!(f.output, repro.run(f.name).unwrap(), "{} diverged from run()", f.name);
    }
}

#[test]
fn engine_queries_match_fresh_dataset_computation() {
    use ipactive_net::{ActiveSet, TieredSet};
    let repro = Repro::new(0xCAFE, Scale::Tiny);
    let days = repro.daily.num_days;
    let weeks = repro.weekly.num_weeks;
    assert_eq!(*repro.engine.all_active(), repro.daily.all_active_as::<TieredSet>());
    for d in [0, days / 2, days - 1] {
        assert_eq!(*repro.engine.day_set(d), repro.daily.day_set_as::<TieredSet>(d));
        // The tiered set must hold exactly the addresses of the Vec oracle.
        assert!(repro.engine.day_set(d).iter().eq(repro.daily.day_set(d).iter()));
    }
    assert_eq!(
        *repro.engine.day_window(0..days / 2),
        repro.daily.window_union_as::<TieredSet>(0..days / 2)
    );
    assert!(repro
        .engine
        .day_window(0..days / 2)
        .iter()
        .eq(repro.daily.window_union(0..days / 2).iter()));
    for w in [0, weeks - 1] {
        assert_eq!(*repro.engine.week_set(w), repro.weekly.week_set_as::<TieredSet>(w));
        assert!(repro.engine.week_set(w).iter().eq(repro.weekly.week_set(w).iter()));
    }
    assert_eq!(
        *repro.engine.week_window(0..weeks),
        repro.weekly.window_union_as::<TieredSet>(0..weeks)
    );
    assert!(repro.engine.week_window(0..weeks).iter().eq(repro.weekly.window_union(0..weeks).iter()));
    // Memoization is by identity: repeated queries share one set.
    assert!(Arc::ptr_eq(&repro.engine.all_active(), &repro.engine.all_active()));
}

#[test]
fn validate_still_passes_through_the_engine() {
    use ipactive_bench::CheckOutcome;
    let repro = Repro::new(0xCAFE, Scale::Tiny);
    // Warm the cache with a full figure pass first, so validate()
    // exercises cached sets rather than computing fresh ones.
    let _ = repro.run_all(2);
    let failures: Vec<_> = repro
        .validate()
        .into_iter()
        .filter(|c| matches!(c.outcome, CheckOutcome::Fail(_)))
        .collect();
    assert!(failures.is_empty(), "failed checks: {failures:#?}");
}

#[test]
fn tiered_and_reference_backends_are_byte_identical() {
    use ipactive_net::{RefSet, TieredSet};
    // The set representation must be invisible end-to-end: a full
    // figure pass on the tiered backend and on the sorted-Vec oracle
    // must render byte-identical output AND take the same cache path
    // (identical hit/miss counts — same queries, same memoization).
    let tiered = Repro::<TieredSet>::with_backend(0xCAFE, Scale::Tiny);
    let reference = Repro::<RefSet>::with_backend(0xCAFE, Scale::Tiny);
    let rt = tiered.run_all(2);
    let rr = reference.run_all(2);
    assert_eq!(rt.figures.len(), rr.figures.len());
    for (t, r) in rt.figures.iter().zip(&rr.figures) {
        assert_eq!(t.name, r.name, "figure order diverged across backends");
        assert_eq!(t.output, r.output, "{} diverged across backends", t.name);
    }
    assert_eq!(rt.combined_output(), rr.combined_output());
    assert_eq!(rt.cache, rr.cache, "cache hit/miss counters diverged across backends");
    assert_eq!(tiered.engine.stats(), reference.engine.stats());
}

#[test]
fn run_all_is_deterministic_across_thread_counts_and_reruns() {
    // One fresh session per point, so every run starts cache-cold:
    // figure bytes AND cache hit/miss totals must be a pure function
    // of the query set — independent of the thread count, and stable
    // across reruns of the same thread count.
    let runs: Vec<_> = [1usize, 2, 8, 2]
        .iter()
        .map(|&jobs| {
            let repro = Repro::new(0xD15C, Scale::Tiny);
            let report = repro.run_all(jobs);
            (jobs, report.combined_output(), report.cache)
        })
        .collect();
    let (_, first_out, first_cache) = &runs[0];
    for (jobs, out, cache) in &runs[1..] {
        assert_eq!(out, first_out, "output bytes diverged at jobs {jobs}");
        assert_eq!(cache, first_cache, "cache totals diverged at jobs {jobs}");
    }
}

mod counting_backend {
    //! A [`RefSet`] wrapper that counts *expensive computations* — a
    //! streaming build (one `SetBuilder::finish`) or a k-way
    //! `union_many` — so tests can assert how many times the engine
    //! really computed, independent of its hit/miss bookkeeping.
    use ipactive_net::{ActiveSet, Addr, AddrBits256, Block24, Prefix, RefSet, SetBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub static COMPUTES: AtomicUsize = AtomicUsize::new(0);

    #[derive(Clone, Default, Debug, PartialEq, Eq)]
    pub struct CountingSet(RefSet);

    impl FromIterator<Addr> for CountingSet {
        fn from_iter<I: IntoIterator<Item = Addr>>(iter: I) -> Self {
            CountingSet(RefSet::from_iter(iter))
        }
    }

    pub struct CountingBuilder(<RefSet as ActiveSet>::Builder);

    impl SetBuilder for CountingBuilder {
        type Set = CountingSet;
        fn new() -> Self {
            CountingBuilder(<RefSet as ActiveSet>::Builder::new())
        }
        fn push_block(&mut self, block: Block24, bits: &AddrBits256) {
            self.0.push_block(block, bits);
        }
        fn finish(self) -> CountingSet {
            COMPUTES.fetch_add(1, Ordering::SeqCst);
            CountingSet(self.0.finish())
        }
    }

    impl ActiveSet for CountingSet {
        type Iter<'a> = <RefSet as ActiveSet>::Iter<'a>;
        type Builder = CountingBuilder;
        fn backend_name() -> &'static str {
            "counting"
        }
        fn empty() -> Self {
            CountingSet(RefSet::empty())
        }
        fn from_sorted_vec(addrs: Vec<Addr>) -> Self {
            CountingSet(RefSet::from_sorted_vec(addrs))
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn contains(&self, addr: Addr) -> bool {
            self.0.contains(addr)
        }
        fn count_in(&self, prefix: Prefix) -> usize {
            self.0.count_in(prefix)
        }
        fn iter(&self) -> Self::Iter<'_> {
            <RefSet as ActiveSet>::iter(&self.0)
        }
        fn insert(&mut self, addr: Addr) -> bool {
            self.0.insert(addr)
        }
        fn union(&self, other: &Self) -> Self {
            CountingSet(self.0.union(&other.0))
        }
        fn union_many(sets: &[&Self]) -> Self {
            COMPUTES.fetch_add(1, Ordering::SeqCst);
            let inner: Vec<&RefSet> = sets.iter().map(|s| &s.0).collect();
            CountingSet(RefSet::union_many(&inner))
        }
        fn intersect(&self, other: &Self) -> Self {
            CountingSet(self.0.intersect(&other.0))
        }
        fn difference(&self, other: &Self) -> Self {
            CountingSet(self.0.difference(&other.0))
        }
        fn intersect_len(&self, other: &Self) -> usize {
            self.0.intersect_len(&other.0)
        }
        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }
    }
}

#[test]
fn racing_queries_compute_each_key_exactly_once() {
    // Regression for the old mutex-map miss path, which computed the
    // window union BEFORE re-checking the map: every racing loser
    // burned a full computation and then threw it away (counted as a
    // "hit", so the stats never showed the waste). With per-key slots,
    // losers block on the winner — the computation count equals the
    // distinct-key count no matter how many threads collide.
    use counting_backend::{CountingSet, COMPUTES};
    use ipactive_bench::CacheStats;
    use ipactive_core::{DailyDatasetBuilder, WeeklyDatasetBuilder};
    use std::sync::atomic::Ordering;
    use std::sync::Barrier;

    let mut d = DailyDatasetBuilder::new(5);
    let mut w = WeeklyDatasetBuilder::new(2);
    for day in 0..5 {
        d.record_hits(day, format!("10.{day}.0.1").parse().unwrap(), 1 + day as u64);
    }
    w.record_week(0, "10.0.0.1".parse().unwrap(), 1);
    let ctx: AnalysisCtx<CountingSet> =
        AnalysisCtx::new(Arc::new(d.finish()), Arc::new(w.finish()));

    const THREADS: usize = 16;
    let barrier = Barrier::new(THREADS);

    // Phase 1: every thread storms the same cold key.
    let before = COMPUTES.load(Ordering::SeqCst);
    let sets = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    ctx.day_window(0..5)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    assert_eq!(
        COMPUTES.load(Ordering::SeqCst) - before,
        6,
        "one build per day set plus one union_many — racing losers must not recompute"
    );
    for s in &sets[1..] {
        assert!(Arc::ptr_eq(s, &sets[0]), "all racers must share the winner's set");
    }
    assert_eq!(ctx.stats(), CacheStats { hits: (THREADS - 1) as u64, misses: 1 });

    // Phase 2: four cold window keys over already-warm day sets, four
    // threads colliding on each.
    ctx.reset_stats();
    let before = COMPUTES.load(Ordering::SeqCst);
    std::thread::scope(|scope| {
        let (barrier, ctx) = (&barrier, &ctx);
        for t in 0..THREADS {
            scope.spawn(move || {
                barrier.wait();
                let s = t % 4;
                ctx.day_window(s..s + 2)
            });
        }
    });
    assert_eq!(
        COMPUTES.load(Ordering::SeqCst) - before,
        4,
        "one union_many per distinct key; member day sets were already cached"
    );
    // Per key: 1 miss + 3 loser hits; composition reads the warm day
    // slots uncounted, so the ledger is exactly 4·3 hits, 4 misses.
    assert_eq!(ctx.stats(), CacheStats { hits: 12, misses: 4 });
}
