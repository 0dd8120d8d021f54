//! The block walk's allocation budget: walking a block costs what its
//! output owns plus the caller's scratch — not a `Vec` per day, per
//! active address or per User-Agent sample.
//!
//! The collectors' decode loop has the same kind of budget: draining a
//! log into a builder costs what the builder allocates, plus the
//! reader's one buffer.
//!
//! The counter is per thread — the test harness allocates on its own
//! threads whenever it likes — and everything measured here runs on
//! the calling thread: the emitters always do, and a sweep over one
//! block does.

use ipactive_cdnsim::{
    collect_stream, emit_logs, AssignmentPolicy, Cadence, Daily, Universe, UniverseConfig, Weekly,
};
use ipactive_logfmt::{FrameReader, ReadMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Not counting beats panicking in an allocator, should a thread
    // allocate while its locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the counter is a
// statistic and touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is passed on as it came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get();
    let out = f();
    (out, ALLOCATIONS.get() - before)
}

/// A universe of `copies` identical 400-subscriber `DhcpShort` blocks
/// — the heaviest kind there is, sharing addresses every day — alive
/// all year, observed over the last `daily_days` days of `weeks` weeks.
/// The copies share a seed, so they need the same of a scratch: the
/// first walk warms it up for the rest.
fn dhcp_short_blocks(copies: u32, daily_days: usize, weeks: usize) -> Universe {
    let mut config = UniverseConfig::tiny(7);
    config.weeks = weeks;
    config.daily_days = daily_days;
    config.daily_offset = weeks * 7 - daily_days;
    let mut u = Universe::generate(config);
    u.blocks.truncate(1);
    let first = &mut u.blocks[0];
    first.policy = AssignmentPolicy::DhcpShort { subscribers: 400 };
    first.restructure = None;
    first.outage = None;
    first.alive_weeks = (0, weeks as u16);
    for copy in 1..copies {
        let mut e = u.blocks[0].clone();
        e.block = ipactive_net::Block24::new(e.block.id() + copy);
        u.blocks.push(e);
    }
    u
}

/// What walking one block with a warmed-up scratch allocates when a
/// log is emitted at cadence `C`: the difference between emitting four
/// blocks and emitting one.
fn per_warm_walk<C: Cadence>(daily_days: usize, weeks: usize) -> (u64, u64) {
    let emit = |copies| {
        let u = dhcp_short_blocks(copies, daily_days, weeks);
        allocations(|| emit_logs::<C>(&u, std::io::sink()).unwrap())
    };
    let ((one_records, one), (four_records, four)) = (emit(1), emit(4));
    assert_eq!(four_records - 1, 4 * (one_records - 1), "copies must emit alike");
    ((four - one) / 3, one_records)
}

#[test]
fn a_walk_allocates_for_its_output_not_for_its_days() {
    // Emitters, scratch warm. A quarter of the days, then all of them:
    // eight times the records and not one allocation more — the
    // simulators (their subscriber table) are all a walk allocates.
    let (short_walk, short_records) = per_warm_walk::<Daily>(14, 52);
    let (long_walk, long_records) = per_warm_walk::<Daily>(112, 52);
    assert!(long_records > 6 * short_records);
    assert_eq!(long_walk, short_walk, "daily: allocations grew with the days walked");
    assert!(long_walk <= 2, "daily: {long_walk} allocations per warm walk");

    let (short_walk, short_records) = per_warm_walk::<Weekly>(14, 13);
    let (long_walk, long_records) = per_warm_walk::<Weekly>(14, 52);
    assert!(long_records > 3 * short_records);
    assert_eq!(long_walk, short_walk, "weekly: allocations grew with the weeks walked");
    assert!(long_walk <= 2, "weekly: {long_walk} allocations per warm walk");

    // Accumulators. One block, so the sweep stays on this thread with
    // one cold scratch. Eight times the days may cost the UA-hash
    // buffer a few more doublings and nothing else; before the walk it
    // was a `Vec` per day, per active address and per sample — tens of
    // thousands.
    let (few_days, many_days) = (dhcp_short_blocks(1, 14, 52), dhcp_short_blocks(1, 112, 52));
    let (short, few) = allocations(|| few_days.build_daily());
    let (long, many) = allocations(|| many_days.build_daily());
    assert!(long.total_active() >= short.total_active());
    assert!(many <= few + 6, "daily: {few} allocations for 14 days, {many} for 112");

    // The weekly output owns a hit list per week, each grown by
    // doubling to at most 256 entries and copied once into place; the
    // walk itself adds nothing.
    let (year, allocated) = allocations(|| many_days.build_weekly());
    assert_eq!(year.num_weeks, 52);
    assert!(allocated < 52 * 9 + 64, "weekly: {allocated} allocations for 52 weeks of one block");
}

#[test]
fn collecting_a_log_allocates_what_its_builder_does() {
    // The collectors' one decode loop (`FrameReader::for_each` under
    // `drain`) against the same records folded straight into a builder:
    // the difference is the reader's buffer and the report, nothing a
    // frame.
    fn collected_against_folded<C: Cadence>(u: &Universe) -> (u64, u64, usize)
    where
        C::Dataset: PartialEq + std::fmt::Debug,
    {
        let slots = C::slots(u);
        let mut log = Vec::new();
        emit_logs::<C>(u, &mut log).unwrap();
        let records = FrameReader::new(&log[..], ReadMode::Strict).read_all().unwrap();
        let frames = records.len();
        let (folded, by_fold) = allocations(|| {
            let mut builder = C::new(slots);
            for record in records {
                assert!(C::fold(record, slots, &mut builder));
            }
            C::finish(builder, None)
        });
        let ((collected, stats), by_collect) =
            allocations(|| collect_stream::<C>(&log[..], slots).unwrap());
        assert_eq!(stats.records_read, frames as u64);
        assert_eq!(collected, folded);
        (by_collect, by_fold, frames)
    }
    let u = dhcp_short_blocks(4, 112, 52);
    for (cadence, (by_collect, by_fold, frames)) in [
        ("daily", collected_against_folded::<Daily>(&u)),
        ("weekly", collected_against_folded::<Weekly>(&u)),
    ] {
        assert!(frames > 40_000, "{cadence}: only {frames} frames");
        // The builders' hash tables are seeded per instance, so two
        // builds of one dataset may differ by a rehash or two.
        assert!(
            by_collect <= by_fold + 8,
            "{cadence}: {by_collect} allocations collecting {frames} frames, {by_fold} folding them"
        );
    }
}
