//! Proptest-driven fault injection for the sharded collector path.
//!
//! The edge half of the pipeline is deterministic, so the universe and
//! its shard buffers are built once; each property case then damages
//! them the way flaky transport would — truncation, bit flips, whole
//! garbage buffers — and asserts the collector contract: the
//! multi-collector path never panics, damage is *counted* on exactly
//! the collector that saw it, and clean shards still merge into
//! exactly their slice of the direct build.

use ipactive::cdnsim::{
    collect_daily_sharded, collect_stream, collect_weekly_sharded, emit_shards, shard_of,
    slot_batches_from_buffers, supervised_collect_daily, Cadence, Daily, FaultPlan,
    PipelineReport, PipelineStats, RetryPolicy, Universe, UniverseConfig, Weekly,
};
use ipactive::core::DailyDataset;
use ipactive::logfmt::{BlockDay, FrameReader, FrameWriter, ReadMode, Record};
use ipactive::net::{Addr, Block24};
use proptest::prelude::*;
use std::sync::OnceLock;

const COLLECTORS: usize = 4;

struct Fixture {
    universe: Universe,
    daily_shards: Vec<Vec<u8>>,
    weekly_shards: Vec<Vec<u8>>,
    direct: DailyDataset,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let universe = Universe::generate(UniverseConfig::tiny(0xFA17));
        let daily_shards = emit_shards::<Daily>(&universe, COLLECTORS).unwrap();
        let weekly_shards = emit_shards::<Weekly>(&universe, COLLECTORS).unwrap();
        let direct = universe.build_daily();
        Fixture { universe, daily_shards, weekly_shards, direct }
    })
}

/// One transport fault, positioned by a fraction of the buffer length
/// so the same strategy fits every shard size.
#[derive(Debug, Clone)]
enum Fault {
    /// Cut the buffer at `frac` of its length.
    Truncate(f64),
    /// XOR the byte at `frac` with a nonzero mask.
    BitFlip(f64, u8),
    /// Overwrite a run starting at `frac` with a repeated junk byte.
    Garbage(f64, u8, usize),
}

impl Fault {
    fn apply(&self, buf: &mut Vec<u8>) {
        if buf.is_empty() {
            return;
        }
        let last = buf.len() - 1;
        let at = |frac: f64| ((last as f64) * frac) as usize;
        match *self {
            Fault::Truncate(frac) => buf.truncate(at(frac)),
            Fault::BitFlip(frac, mask) => {
                let pos = at(frac);
                buf[pos] ^= mask;
            }
            Fault::Garbage(frac, byte, len) => {
                let start = at(frac);
                let end = (start + len).min(buf.len());
                buf[start..end].fill(byte);
            }
        }
    }
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Fault::Truncate),
        (0.0f64..1.0, 1u8..=255).prop_map(|(f, m)| Fault::BitFlip(f, m)),
        (0.0f64..1.0, any::<u8>(), 1usize..64).prop_map(|(f, b, n)| Fault::Garbage(f, b, n)),
    ]
}

/// What one collector is expected to have booked for its shard:
/// `(records_read, frames_skipped, resyncs, decode_errors, buffers,
/// bytes)`.
type Booked = (u64, u64, u64, u64, u64, u64);

/// The sharded collectors' contract spelled out longhand: each shard
/// read front to back by one tolerant `FrameReader` into its own
/// builder on this thread, the builders merged in shard order. Returns
/// the dataset and what each collector must have booked.
fn single_threaded_reference<C: Cadence>(
    shards: &[Vec<u8>],
    slots: usize,
) -> (C::Dataset, Vec<Booked>) {
    let mut merged = C::new(slots);
    let mut booked = Vec::new();
    for shard in shards {
        let mut reader = FrameReader::new(&shard[..], ReadMode::Tolerant);
        let mut builder = C::new(slots);
        let (mut records, mut refused, mut errors) = (0, 0, 0);
        loop {
            match reader.read() {
                Ok(Some(record)) => {
                    if C::fold(record, slots, &mut builder) {
                        records += 1;
                    } else {
                        refused += 1;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    errors += 1;
                    break;
                }
            }
        }
        let skipped = reader.skipped() + refused;
        booked.push((records, skipped, reader.resyncs(), errors, 1, shard.len() as u64));
        C::merge(&mut merged, builder);
    }
    (C::finish(merged, None), booked)
}

/// Holds one sharded collector's result against the longhand
/// reference: dataset, every per-collector counter, and the totals.
fn assert_matches_reference<C: Cadence>(
    label: &str,
    shards: &[Vec<u8>],
    slots: usize,
    (dataset, report): (C::Dataset, PipelineReport),
    coverage: impl Fn(&C::Dataset) -> bool,
) where
    C::Dataset: PartialEq + std::fmt::Debug,
{
    let (expect, booked) = single_threaded_reference::<C>(shards, slots);
    assert_eq!(dataset, expect, "{label}: dataset");
    assert!(!coverage(&dataset), "{label}: an unsupervised collect carries no coverage");
    let got: Vec<Booked> = report
        .per_collector
        .iter()
        .map(|c| {
            (c.records_read, c.frames_skipped, c.resyncs, c.decode_errors, c.buffers, c.bytes)
        })
        .collect();
    assert_eq!(got, booked, "{label}: per-collector counters");
    let totals = PipelineStats {
        records_written: 0,
        records_read: booked.iter().map(|b| b.0).sum(),
        frames_skipped: booked.iter().map(|b| b.1).sum(),
        resyncs: booked.iter().map(|b| b.2).sum(),
        bytes: booked.iter().map(|b| b.5).sum(),
    };
    assert_eq!(report.totals, totals, "{label}: totals");
    assert_eq!(report.workers, 0, "{label}: a replay has no edge workers");
}

/// Both cadences of one shard set against the reference.
fn assert_sharded_collectors_match_reference(label: &str, daily: &[Vec<u8>], weekly: &[Vec<u8>]) {
    let cfg = fixture().universe.config();
    let (days, weeks) = (cfg.daily_days, cfg.weeks);
    let result = collect_daily_sharded(daily, days);
    assert_matches_reference::<Daily>(label, daily, days, result, |d| d.coverage.is_some());
    let result = collect_weekly_sharded(weekly, weeks);
    assert_matches_reference::<Weekly>(label, weekly, weeks, result, |d| d.coverage.is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn corrupted_daily_shards_never_panic_and_damage_is_localized(
        victim in 0usize..COLLECTORS,
        faults in prop::collection::vec(arb_fault(), 1..4),
    ) {
        let fix = fixture();
        let days = fix.universe.config().daily_days;
        let mut shards = fix.daily_shards.clone();
        for fault in &faults {
            fault.apply(&mut shards[victim]);
        }
        // Contract 1: total — damaged input cannot panic or error out.
        let (damaged, report) = collect_daily_sharded(&shards, days);
        prop_assert_eq!(report.collectors(), COLLECTORS);
        // Contract 2: untouched collectors see a perfectly clean shard.
        for (c, stats) in report.per_collector.iter().enumerate() {
            if c != victim {
                prop_assert_eq!(stats.frames_skipped, 0, "clean shard {} skipped", c);
                prop_assert_eq!(stats.decode_errors, 0, "clean shard {} errored", c);
            }
        }
        // Contract 3: every block outside the victim shard matches the
        // direct build field-for-field — damage never crosses shards.
        for rec in &fix.direct.blocks {
            if shard_of(rec.block, COLLECTORS) != victim {
                let got = damaged.block(rec.block);
                prop_assert_eq!(got, Some(rec), "clean block {} diverged", rec.block);
            }
        }
    }

    #[test]
    fn corruption_is_always_counted_or_harmless(
        victim in 0usize..COLLECTORS,
        fault in arb_fault(),
    ) {
        let fix = fixture();
        let days = fix.universe.config().daily_days;
        let mut shards = fix.daily_shards.clone();
        fault.apply(&mut shards[victim]);
        let (damaged, report) = collect_daily_sharded(&shards, days);
        let stats = &report.per_collector[victim];
        let clean_reads = {
            let (_, clean_report) = collect_daily_sharded(&fix.daily_shards, days);
            clean_report.per_collector[victim].records_read
        };
        // CRC framing leaves exactly three outcomes: the fault landed in
        // a frame (skips or decode errors recorded), it cut the tail off
        // (fewer records decoded), or it was harmless (identical data).
        let counted = stats.frames_skipped > 0 || stats.decode_errors > 0;
        let shortened = stats.records_read < clean_reads;
        let harmless = damaged == fix.direct;
        prop_assert!(
            counted || shortened || harmless,
            "uncounted corruption: {:?} -> {:?}", fault, stats
        );
    }

    #[test]
    fn all_garbage_shards_decode_to_nothing(
        junk in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..512), 1..5),
    ) {
        // Streams of pure noise must fold zero records: the per-frame
        // CRC-32 makes accidental acceptance vanishingly unlikely, so
        // garbage can only ever be skipped, never decoded.
        let days = fixture().universe.config().daily_days;
        let (ds, report) = collect_daily_sharded(&junk, days);
        prop_assert_eq!(ds.blocks.len(), 0);
        prop_assert_eq!(report.totals.records_read, 0);
        for stats in &report.per_collector {
            // (A short junk buffer may simply run out during resync
            // without registering a full skipped frame — but it can
            // never yield a record.)
            prop_assert_eq!(stats.records_read, 0);
        }
    }

    #[test]
    fn sharded_collectors_equal_a_single_threaded_fold_clean_damaged_and_empty(
        victim in 0usize..COLLECTORS,
        faults in prop::collection::vec(arb_fault(), 1..4),
    ) {
        let fix = fixture();
        // The two inputs that do not depend on the case, held once.
        static CLEAN_AND_EMPTY: std::sync::Once = std::sync::Once::new();
        CLEAN_AND_EMPTY.call_once(|| {
            let (daily, weekly) = (&fix.daily_shards, &fix.weekly_shards);
            assert_sharded_collectors_match_reference("clean", daily, weekly);
            // No shards: the empty dataset and an empty report, not
            // the supervisor's topology error.
            assert_sharded_collectors_match_reference("empty", &[], &[]);
        });
        let (mut daily, mut weekly) = (fix.daily_shards.clone(), fix.weekly_shards.clone());
        for fault in &faults {
            fault.apply(&mut daily[victim]);
            fault.apply(&mut weekly[victim]);
        }
        assert_sharded_collectors_match_reference("damaged", &daily, &weekly);
    }

    #[test]
    fn corrupted_weekly_shards_never_panic(
        victim in 0usize..COLLECTORS,
        faults in prop::collection::vec(arb_fault(), 1..4),
    ) {
        let fix = fixture();
        let weeks = fix.universe.config().weeks;
        let mut shards = fix.weekly_shards.clone();
        for fault in &faults {
            fault.apply(&mut shards[victim]);
        }
        let (_, report) = collect_weekly_sharded(&shards, weeks);
        for (c, stats) in report.per_collector.iter().enumerate() {
            if c != victim {
                prop_assert_eq!(stats.frames_skipped, 0, "clean shard {} skipped", c);
                prop_assert_eq!(stats.decode_errors, 0, "clean shard {} errored", c);
            }
        }
    }
}

// ---------------------------------------------------------------------
// A frame can be intact — sync, length, CRC, record grammar all good —
// and still name a day or week the window does not have. That is the
// collector's to refuse, not the builder's to assert on: the record is
// counted as a skipped frame, never as read, and the drain goes on.
// ---------------------------------------------------------------------

const WINDOW: usize = 112;

fn addr(host: u8) -> Addr {
    Block24::new(0x0A_0000).addr(host)
}

/// Two good records around out-of-window ones of every kind that
/// carries a day, CRC-valid, in one stream.
fn stream_with_out_of_window_frames() -> Vec<u8> {
    let mut w = FrameWriter::new(Vec::new());
    for record in [
        Record::Hits { day: 3, addr: addr(1), hits: 10 },
        Record::Hits { day: 200, addr: addr(2), hits: 5 },
        Record::Hits { day: WINDOW as u16, addr: addr(2), hits: 5 },
        Record::UaSample { day: 200, addr: addr(1), ua_hash: 42 },
        Record::BlockDay(Box::new(BlockDay::new(u16::MAX, Block24::new(9), vec![(4, 1)]))),
        Record::Hits { day: WINDOW as u16 - 1, addr: addr(3), hits: 7 },
    ] {
        w.write(&record).unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn out_of_window_records_are_skipped_not_folded_daily() {
    let stream = stream_with_out_of_window_frames();
    let (dataset, stats) = collect_stream::<Daily>(&stream[..], WINDOW).unwrap();
    assert_eq!((stats.records_read, stats.frames_skipped, stats.resyncs), (2, 4, 0));
    assert_eq!(dataset.total_active(), 2);
    let block = &dataset.blocks[0];
    assert_eq!((dataset.blocks.len(), block.total_hits, block.ua_samples), (1, 17, 0));

    // The sharded entry point promises never to panic and never to
    // poison other shards: the bad frames stay on their collector.
    let clean = {
        let mut w = FrameWriter::new(Vec::new());
        w.write(&Record::Hits { day: 0, addr: Block24::new(77).addr(5), hits: 1 }).unwrap();
        w.finish().unwrap()
    };
    let (sharded, report) = collect_daily_sharded(&[clean, stream], WINDOW);
    assert_eq!(sharded.total_active(), 3);
    let per: Vec<_> =
        report.per_collector.iter().map(|c| (c.records_read, c.frames_skipped)).collect();
    assert_eq!(per, [(1, 0), (2, 4)]);
    assert_eq!((report.totals.records_read, report.totals.frames_skipped), (3, 4));
    assert!(report.per_collector.iter().all(|c| c.decode_errors == 0 && c.resyncs == 0));
}

#[test]
fn out_of_window_records_are_skipped_not_folded_weekly() {
    // The same stream read as a weekly log over 52 weeks: `day` carries
    // the week, so 3 is in, 111 and the rest are out.
    let stream = stream_with_out_of_window_frames();
    let (dataset, stats) = collect_stream::<Weekly>(&stream[..], 52).unwrap();
    assert_eq!((stats.records_read, stats.frames_skipped), (1, 5));
    assert_eq!(dataset.total_active(), 1);
    assert_eq!(*dataset.week_hits[3], vec![10]);

    let (sharded, report) = collect_weekly_sharded(&[stream.clone(), stream], 52);
    assert_eq!(sharded.total_active(), 1);
    assert_eq!(*sharded.week_hits[3], vec![10, 10]);
    assert_eq!((report.totals.records_read, report.totals.frames_skipped), (2, 10));
    assert!(report.per_collector.iter().all(|c| c.decode_errors == 0));
}

#[test]
fn out_of_window_records_are_skipped_not_batched_by_the_shard_replay() {
    // The distributed worker's replay step reads the same stream the
    // same way: refused frames are skipped, never read, and every slot
    // of the window is in the batch whether or not it got a record.
    let stream = stream_with_out_of_window_frames();
    let (batches, stats) = slot_batches_from_buffers(&[stream], WINDOW);
    assert_eq!((stats.records_read, stats.frames_skipped, stats.resyncs), (2, 4, 0));
    let slots: Vec<usize> = batches.iter().map(|(slot, _)| usize::from(*slot)).collect();
    assert_eq!(slots, (0..WINDOW).collect::<Vec<_>>());
    let kept: Vec<(usize, usize)> = batches
        .iter()
        .enumerate()
        .filter(|(_, (_, records))| !records.is_empty())
        .map(|(slot, (_, records))| (slot, records.len()))
        .collect();
    assert_eq!(kept, [(3, 1), (WINDOW - 1, 1)]);
}

#[test]
fn the_supervisor_refuses_to_call_an_out_of_window_decode_clean() {
    // No retry can repair a record the sender got wrong: the buffer is
    // salvaged on the last attempt — the good records kept, the loss
    // on the books — rather than passed as complete or lost whole.
    let buffers = vec![vec![stream_with_out_of_window_frames()]];
    let (dataset, report) =
        supervised_collect_daily(&buffers, WINDOW, &RetryPolicy::instant(2), &FaultPlan::none())
            .unwrap();
    assert_eq!(dataset.total_active(), 2);
    assert_eq!(report.retries(), 2);
    assert!(!report.fully_recovered());
    let outcome = &report.outcomes[0];
    assert!((outcome.completeness() - 2.0 / 6.0).abs() < 1e-12, "{}", outcome.completeness());
    let stats = &report.report.per_collector[0];
    assert_eq!((stats.records_read, stats.frames_skipped, stats.decode_errors), (2, 4, 0));
    // Nothing was wrong with the bytes, so nothing is dead-lettered.
    assert!(report.quarantine.is_empty());
}
