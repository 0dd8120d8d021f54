//! The log collection pipeline: edge serialization → framed wire
//! format → collector aggregation.
//!
//! Mirrors the paper's data path ("a log entry is created, which is
//! then processed and aggregated through a distributed data collection
//! framework", Section 3.2): edge workers serialize per-address
//! aggregates into the `ipactive-logfmt` framed stream; collectors
//! decode and fold them into a dataset. The pipeline and the direct
//! [`Universe::build_daily`] / [`Universe::build_weekly`] generators
//! produce *identical* datasets — a property the tests pin down — so
//! analyses don't care which path produced their input.
//!
//! # One body per step, one cadence parameter
//!
//! The paper's daily and weekly datasets come off the same logs
//! aggregated at two cadences, so every step is written once over a
//! [`Cadence`] — [`Daily`] or [`Weekly`], which name the builder, the
//! dataset, the window-checked fold, the per-block emitter and the
//! metric prefixes: [`emit_logs`], [`emit_shards`],
//! [`emit_shard_buffers`], [`collect_stream`], [`collect_store`],
//! [`stream_pipeline`] and
//! [`supervised_collect`](crate::supervised_collect). The functions
//! with a cadence in their name are one-line instantiations of these,
//! kept because the benchmark links them by name.
//!
//! # Sharded topology
//!
//! [`stream_pipeline`] is two steps. [`emit_shard_buffers`] cuts the
//! block list into `workers` slices and serializes each into one
//! buffer *per collector*, routing every `/24` block to the collector
//! that [`shard_of`] hashes it to; the slices run on up to `workers`
//! threads and each buffer lands at its slice's index, so the bytes
//! are the serial loop's. The supervisor at zero retries then runs one
//! collector thread per shard, each folding and sealing its own
//! builder; the builders merge (commutative and associative) and
//! finish once. Because blocks are partitioned by hash, no two
//! collectors ever see the same block, and the result is identical to
//! the direct build for any worker count, collector count or arrival
//! order.

use crate::supervisor::{supervise, FaultPlan, RetryPolicy};
use crate::universe::{claim_map, fold_week, infallible, BlockEntry, Scratch, Universe};
use ipactive_core::{
    Coverage, DailyDataset, DailyDatasetBuilder, WeeklyDataset, WeeklyDatasetBuilder,
};
use ipactive_logfmt::{
    BlockDay, FrameError, FrameReader, FrameWriter, Fs, FsckReport, LogStore, ReadMode, Record,
    StoreError,
};
use ipactive_net::Block24;
use ipactive_obs::{self as obs, Event, EventKind, Registry};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Aggregate counters from a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Records written by the edge side.
    pub records_written: u64,
    /// Records accepted by the collector.
    pub records_read: u64,
    /// Damaged frames skipped by the collector (tolerant mode).
    pub frames_skipped: u64,
    /// Times a collector lost framing and scanned for a new sync byte.
    pub resyncs: u64,
    /// Bytes moved over the "wire".
    pub bytes: u64,
}

/// Per-collector counters from a sharded pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Records this collector decoded and folded.
    pub records_read: u64,
    /// Damaged frames this collector skipped (tolerant mode).
    pub frames_skipped: u64,
    /// Times this collector lost framing and had to scan for a new
    /// sync byte (distinct from `frames_skipped`: a resync means the
    /// stream position itself was in doubt).
    pub resyncs: u64,
    /// Unrecoverable decode errors (stream abandoned mid-shard).
    pub decode_errors: u64,
    /// Shard buffers this collector received.
    pub buffers: u64,
    /// Bytes routed to this collector.
    pub bytes: u64,
    /// Wall-clock time this collector spent decoding and folding.
    pub elapsed: Duration,
}

impl CollectorStats {
    /// Decode throughput of this collector, in records per second
    /// (`0.0` when no time elapsed — [`ipactive_obs::rate`], so the
    /// observability plane and the reports agree on that case).
    pub fn records_per_sec(&self) -> f64 {
        obs::rate(self.records_read, self.elapsed)
    }

    /// Rebuilds one collector's view from a registry snapshot — the
    /// report structs are *views* over the metrics plane, not a second
    /// accounting path. `prefix` is the run's metric prefix (for
    /// example `pipeline.daily`); `shard` selects the
    /// `<prefix>.shard.<shard>.*` counter family and the
    /// `<prefix>.shard.<shard>` span.
    pub fn from_snapshot(snap: &obs::Snapshot, prefix: &str, shard: usize) -> CollectorStats {
        CollectorStats {
            records_read: snap.counter(&shard_metric(prefix, shard, "records")),
            frames_skipped: snap.counter(&shard_metric(prefix, shard, "frames_skipped")),
            resyncs: snap.counter(&shard_metric(prefix, shard, "resyncs")),
            decode_errors: snap.counter(&shard_metric(prefix, shard, "decode_errors")),
            buffers: snap.counter(&shard_metric(prefix, shard, "buffers")),
            bytes: snap.counter(&shard_metric(prefix, shard, "bytes")),
            elapsed: Duration::from_nanos(snap.span_total_ns(&collector_span_path(prefix, shard))),
        }
    }
}

/// Metric name for one per-shard counter: `<prefix>.shard.<i>.<field>`.
fn shard_metric(prefix: &str, shard: usize, field: &str) -> String {
    format!("{prefix}.shard.{shard}.{field}")
}

/// Span path a collector thread records under. Collector threads are
/// spawned fresh, so the span roots at top level regardless of what
/// the caller has open.
pub(crate) fn collector_span_path(prefix: &str, shard: usize) -> String {
    format!("{prefix}.shard.{shard}")
}

/// Pre-fetched counter handles for one collector shard. Handles are
/// resolved once per shard (registry lock taken at setup, not in the
/// decode loop); [`drain`] accumulates into locals and the collector
/// books them once per buffer, so the hot loop costs exactly what the
/// old `+=` fields did.
pub(crate) struct ShardMeters {
    registry: Registry,
    shard: u32,
    records: obs::Counter,
    frames_skipped: obs::Counter,
    resyncs: obs::Counter,
    decode_errors: obs::Counter,
    buffers: obs::Counter,
    bytes: obs::Counter,
}

impl ShardMeters {
    pub(crate) fn new(registry: &Registry, prefix: &str, shard: usize) -> ShardMeters {
        ShardMeters {
            registry: registry.clone(),
            shard: shard as u32,
            records: registry.counter(shard_metric(prefix, shard, "records")),
            frames_skipped: registry.counter(shard_metric(prefix, shard, "frames_skipped")),
            resyncs: registry.counter(shard_metric(prefix, shard, "resyncs")),
            decode_errors: registry.counter(shard_metric(prefix, shard, "decode_errors")),
            buffers: registry.counter(shard_metric(prefix, shard, "buffers")),
            bytes: registry.counter(shard_metric(prefix, shard, "bytes")),
        }
    }

    /// Counts one buffer's arrival (delivery and payload size) without
    /// touching decode outcomes — arrival and decode are charged
    /// separately because a supervised buffer may take several
    /// attempts and only the one that reaches the dataset is booked.
    pub(crate) fn count_buffer(&self, buf_len: usize) {
        self.buffers.inc();
        self.bytes.add(buf_len as u64);
    }

    /// Books the decode that reached the dataset: its records plus the
    /// damage tallies, with a journal event for the noteworthy
    /// condition (resyncs mean the stream position itself was in
    /// doubt; a decode error means the rest of the buffer was
    /// abandoned).
    pub(crate) fn add_decode(&self, d: &Drained) {
        self.records.add(d.records);
        if d.skipped > 0 {
            self.frames_skipped.add(d.skipped);
        }
        if d.resyncs > 0 {
            self.resyncs.add(d.resyncs);
            self.registry.emit(
                Event::new(EventKind::Resync)
                    .shard(self.shard)
                    .detail(format!("{} resync scans in one shard buffer", d.resyncs)),
            );
        }
        if d.error.is_some() {
            self.decode_errors.inc();
        }
    }

    /// The registry these meters write into.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Full accounting of a sharded pipeline run: aggregate totals plus
/// one [`CollectorStats`] per collector, in shard order.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Aggregate counters (write side + sum over collectors).
    pub totals: PipelineStats,
    /// Per-collector counters, indexed by shard.
    pub per_collector: Vec<CollectorStats>,
    /// Edge worker threads the run used.
    pub workers: usize,
    /// End-to-end wall-clock time of the run.
    pub elapsed: Duration,
}

impl PipelineReport {
    /// Number of collector shards the run used.
    pub fn collectors(&self) -> usize {
        self.per_collector.len()
    }

    /// End-to-end throughput, in records accepted per second.
    pub fn records_per_sec(&self) -> f64 {
        obs::rate(self.totals.records_read, self.elapsed)
    }
}

/// Maps a `/24` block to its collector shard. A SplitMix64 finalizer
/// disperses the (often sequential) block ids so shards stay balanced
/// for any universe layout; every edge worker uses the same function,
/// which is what guarantees collectors see disjoint block sets.
///
/// # Panics
/// If `collectors == 0` — there is no shard to map to. Pipeline entry
/// points validate topology up front (see [`validate_topology`]) so
/// this fires only on direct misuse.
pub fn shard_of(block: Block24, collectors: usize) -> usize {
    assert!(collectors >= 1, "shard_of: collectors must be >= 1");
    let mut x = block.id() as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % collectors as u64) as usize
}

/// Validates a pipeline topology, returning an `InvalidInput` error if
/// either side is zero. Fallible entry points call this instead of
/// asserting, so a mis-configured run fails with a proper error rather
/// than a release-mode modulo-by-zero deep inside [`shard_of`].
pub fn validate_topology(workers: usize, collectors: usize) -> io::Result<()> {
    if workers == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pipeline topology requires at least one worker",
        ));
    }
    if collectors == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pipeline topology requires at least one collector",
        ));
    }
    Ok(())
}

/// The slot (day or week index) a record belongs to, if it carries
/// payload. Cadence markers and stream terminators have none.
fn record_slot(record: &Record) -> Option<u16> {
    match record {
        Record::Hits { day, .. } | Record::UaSample { day, .. } => Some(*day),
        Record::BlockDay(bd) => Some(bd.day),
        Record::DayStart { .. } | Record::Finish => None,
    }
}

/// Whether a window of `num_slots` days (or weeks) can hold `record`.
/// A frame can be intact on the wire and still name a slot no dataset
/// of this window has; collectors refuse such a record instead of
/// handing it to a builder, whose own window assert would panic.
fn in_window(record: &Record, num_slots: usize) -> bool {
    !matches!(record_slot(record), Some(slot) if usize::from(slot) >= num_slots)
}

/// The cadence a log is aggregated at — everything that differs
/// between collecting the paper's daily and its weekly dataset. Every
/// collection step is one body generic over this trait; [`Daily`] and
/// [`Weekly`] are its two implementations.
pub trait Cadence {
    /// The accumulator records fold into.
    type Builder: Send;
    /// The immutable dataset a builder finishes into.
    type Dataset: Send;
    /// Metric prefix of unsupervised pipeline runs. One registry can
    /// carry one daily and one weekly run side by side without the
    /// counter families colliding; reports read cumulative counters
    /// under their prefix, so reuse a fresh registry per run.
    const PIPELINE_PREFIX: &'static str;
    /// Metric prefix of supervised runs.
    const SUPERVISOR_PREFIX: &'static str;

    /// Length, in slots of this cadence, of `universe`'s window.
    fn slots(universe: &Universe) -> usize;

    /// An empty builder over a window of `slots` days (or weeks).
    fn new(slots: usize) -> Self::Builder;

    /// Folds one decoded record into `builder` (ignoring cadence
    /// markers) — the single definition every collector shares.
    /// `false` if the record lies outside the `slots`-long window:
    /// nothing was folded, and the caller counts a skipped frame, not
    /// a record.
    fn fold(record: Record, slots: usize, builder: &mut Self::Builder) -> bool;

    /// Folds `other`'s accumulated records into `into` (commutative
    /// and associative up to [`finish`](Self::finish)).
    fn merge(into: &mut Self::Builder, other: Self::Builder);

    /// Does now what [`finish`](Self::finish) would otherwise do per
    /// address or per record (medians selected, weeks sorted), leaving
    /// a builder that folds, merges and finishes into the same dataset
    /// — what a collector thread calls before it hands its partial
    /// builder to the thread that merges them.
    fn seal(builder: &mut Self::Builder);

    /// Finalizes `builder`, attaching `coverage` when the run that
    /// filled it kept one.
    fn finish(builder: Self::Builder, coverage: Option<Coverage>) -> Self::Dataset;

    /// Serializes one block's records over the window into `writer`:
    /// one walk of the block over `scratch`, which the caller keeps
    /// from block to block.
    fn emit_block<W: Write>(
        universe: &Universe,
        e: &BlockEntry,
        scratch: &mut Scratch,
        writer: &mut FrameWriter<W>,
    ) -> io::Result<()>;
}

/// The daily cadence: 112 days of per-address hits and UA samples.
#[derive(Debug, Clone, Copy)]
pub struct Daily;

/// The weekly cadence: 52 weeks of per-address hit totals. A weekly
/// log's [`Record::Hits`] carries the week index in its `day` field.
#[derive(Debug, Clone, Copy)]
pub struct Weekly;

impl Cadence for Daily {
    type Builder = DailyDatasetBuilder;
    type Dataset = DailyDataset;
    const PIPELINE_PREFIX: &'static str = "pipeline.daily";
    const SUPERVISOR_PREFIX: &'static str = "supervisor.daily";

    fn slots(universe: &Universe) -> usize {
        universe.config().daily_days
    }

    fn new(num_days: usize) -> DailyDatasetBuilder {
        DailyDatasetBuilder::new(num_days)
    }

    fn fold(record: Record, num_days: usize, builder: &mut DailyDatasetBuilder) -> bool {
        if !in_window(&record, num_days) {
            return false;
        }
        match record {
            Record::Hits { day, addr, hits } => builder.record_hits(day as usize, addr, hits),
            Record::UaSample { day, addr, ua_hash } => {
                builder.record_ua(day as usize, addr, ua_hash)
            }
            Record::BlockDay(bd) => {
                for &(host, hits) in &bd.entries {
                    builder.record_hits(bd.day as usize, bd.block.addr(host), hits);
                }
            }
            Record::DayStart { .. } | Record::Finish => {}
        }
        true
    }

    fn merge(into: &mut DailyDatasetBuilder, other: DailyDatasetBuilder) {
        into.merge(other);
    }

    fn seal(builder: &mut DailyDatasetBuilder) {
        builder.seal();
    }

    fn finish(builder: DailyDatasetBuilder, coverage: Option<Coverage>) -> DailyDataset {
        DailyDataset { coverage, ..builder.finish() }
    }

    fn emit_block<W: Write>(
        universe: &Universe,
        e: &BlockEntry,
        scratch: &mut Scratch,
        writer: &mut FrameWriter<W>,
    ) -> io::Result<()> {
        let cfg = universe.config();
        universe.walk_days(e, scratch, cfg.daily_window(), |t, entries, _| {
            let day = (t - cfg.daily_offset) as u16;
            universe.ua_day(e, t).each(entries, |entry, samples| {
                let addr = e.block.addr(entry.host);
                writer.write(&Record::Hits { day, addr, hits: entry.hits as u64 })?;
                for ua_hash in samples {
                    writer.write(&Record::UaSample { day, addr, ua_hash })?;
                }
                Ok(())
            })
        })
    }
}

impl Cadence for Weekly {
    type Builder = WeeklyDatasetBuilder;
    type Dataset = WeeklyDataset;
    const PIPELINE_PREFIX: &'static str = "pipeline.weekly";
    const SUPERVISOR_PREFIX: &'static str = "supervisor.weekly";

    fn slots(universe: &Universe) -> usize {
        universe.config().weeks
    }

    fn new(num_weeks: usize) -> WeeklyDatasetBuilder {
        WeeklyDatasetBuilder::new(num_weeks)
    }

    fn fold(record: Record, num_weeks: usize, builder: &mut WeeklyDatasetBuilder) -> bool {
        if !in_window(&record, num_weeks) {
            return false;
        }
        if let Record::Hits { day, addr, hits } = record {
            builder.record_week(day as usize, addr, hits);
        }
        true
    }

    fn merge(into: &mut WeeklyDatasetBuilder, other: WeeklyDatasetBuilder) {
        into.merge(other);
    }

    fn seal(builder: &mut WeeklyDatasetBuilder) {
        builder.seal();
    }

    fn finish(builder: WeeklyDatasetBuilder, coverage: Option<Coverage>) -> WeeklyDataset {
        WeeklyDataset { coverage, ..builder.finish() }
    }

    /// One [`Record::Hits`] per active `(address, week)`.
    fn emit_block<W: Write>(
        universe: &Universe,
        e: &BlockEntry,
        scratch: &mut Scratch,
        writer: &mut FrameWriter<W>,
    ) -> io::Result<()> {
        universe.walk_days(e, scratch, 0..universe.config().weeks * 7, |t, entries, tables| {
            fold_week(t, entries, tables, |week, host, hits| {
                writer.write(&Record::Hits { day: week as u16, addr: e.block.addr(host), hits })
            })
        })
    }
}

/// What draining one stream came to.
pub(crate) struct Drained {
    /// Records folded.
    pub(crate) records: u64,
    /// Frames lost: damaged ones the reader skipped plus intact ones
    /// the fold refused as outside the window.
    pub(crate) skipped: u64,
    /// Resynchronization scans the reader needed.
    pub(crate) resyncs: u64,
    /// The error that ended the stream early, if one did; what was
    /// folded before it stands.
    pub(crate) error: Option<FrameError>,
}

/// Reads `reader` to its end through `fold` (`false` = record refused)
/// — the one decode loop under every collector.
pub(crate) fn drain<R: Read>(
    reader: &mut FrameReader<R>,
    mut fold: impl FnMut(Record) -> bool,
) -> Drained {
    let (mut records, mut refused) = (0u64, 0u64);
    let error = reader
        .for_each(|record| if fold(record) { records += 1 } else { refused += 1 })
        .err();
    Drained { records, skipped: reader.skipped() + refused, resyncs: reader.resyncs(), error }
}

/// Serializes the universe's logs at cadence `C` into `out`.
///
/// Records are emitted block-major (each block's slots consecutively);
/// slot indices are carried in every record, so the collector is
/// order-independent (the framing layer is cadence-agnostic: a weekly
/// log's `day` field is a week index, which [`collect_stream`] at the
/// same cadence reads back as one). Returns the number of records
/// written.
pub fn emit_logs<C: Cadence>(universe: &Universe, out: impl Write) -> io::Result<u64> {
    let mut writer = FrameWriter::new(out);
    let mut scratch = Scratch::new(universe);
    for e in &universe.blocks {
        C::emit_block(universe, e, &mut scratch, &mut writer)?;
    }
    let written = writer.frames_written() + 1; // +1 for the Finish frame
    writer.finish()?;
    Ok(written)
}

/// Walks one block through the packed daily encoding, handing `emit`
/// every record with its observation day: per day a
/// [`Record::UaSample`] per sample, then — if any address was active —
/// one [`Record::BlockDay`] holding the day's hits. The unit both the
/// packed stream and the store persist paths write.
fn walk_packed<E>(
    universe: &Universe,
    e: &BlockEntry,
    scratch: &mut Scratch,
    mut emit: impl FnMut(usize, Record) -> Result<(), E>,
) -> Result<(), E> {
    let cfg = universe.config();
    universe.walk_days(e, scratch, cfg.daily_window(), |t, entries, _| {
        let d = t - cfg.daily_offset;
        let mut hits: Vec<(u8, u64)> = Vec::with_capacity(entries.len());
        universe.ua_day(e, t).each(entries, |entry, samples| {
            hits.push((entry.host, entry.hits as u64));
            let addr = e.block.addr(entry.host);
            for ua_hash in samples {
                emit(d, Record::UaSample { day: d as u16, addr, ua_hash })?;
            }
            Ok(())
        })?;
        if !hits.is_empty() {
            hits.sort_unstable_by_key(|&(h, _)| h);
            emit(d, Record::BlockDay(Box::new(BlockDay::new(d as u16, e.block, hits))))?;
        }
        Ok(())
    })
}

/// Like [`emit_logs`] at the daily cadence, but batches each block's
/// day into one packed [`Record::BlockDay`] frame instead of
/// per-address records (UA samples stay per-record). Collectors decode
/// both forms into identical datasets; the packed stream is several
/// times smaller — see the `packed_stream_collects_identically` test.
pub fn emit_daily_logs_packed<W: Write>(universe: &Universe, out: W) -> io::Result<u64> {
    let mut writer = FrameWriter::new(out);
    let mut scratch = Scratch::new(universe);
    for e in &universe.blocks {
        walk_packed(universe, e, &mut scratch, |_, record| writer.write(&record))?;
    }
    let written = writer.frames_written() + 1;
    writer.finish()?;
    Ok(written)
}

/// Serializes `blocks` into one frame stream per collector, each
/// block routed to the collector [`shard_of`] names — what one edge
/// worker does with its slice of the universe.
fn route_blocks<C: Cadence>(
    universe: &Universe,
    blocks: &[BlockEntry],
    collectors: usize,
    scratch: &mut Scratch,
) -> io::Result<Vec<FrameWriter<Vec<u8>>>> {
    let mut writers: Vec<FrameWriter<Vec<u8>>> =
        (0..collectors).map(|_| FrameWriter::new(Vec::new())).collect();
    for e in blocks {
        C::emit_block(universe, e, scratch, &mut writers[shard_of(e.block, collectors)])?;
    }
    Ok(writers)
}

/// Serializes the universe's logs into `collectors` shard buffers,
/// each holding exactly the blocks [`shard_of`] routes to that
/// collector, on one thread — one slice of [`emit_shard_buffers`],
/// kept for replay and fault-injection testing against the sharded
/// collectors.
pub fn emit_shards<C: Cadence>(universe: &Universe, collectors: usize) -> io::Result<Vec<Vec<u8>>> {
    validate_topology(1, collectors)?;
    route_blocks::<C>(universe, &universe.blocks, collectors, &mut Scratch::new(universe))?
        .into_iter()
        .map(FrameWriter::finish)
        .collect()
}

/// [`emit_shards`] at the daily cadence (kept by name for the
/// benchmark).
pub fn emit_daily_shards(universe: &Universe, collectors: usize) -> io::Result<Vec<Vec<u8>>> {
    emit_shards::<Daily>(universe, collectors)
}

/// [`emit_shards`] at the weekly cadence (kept by name for the
/// benchmark).
pub fn emit_weekly_shards(universe: &Universe, collectors: usize) -> io::Result<Vec<Vec<u8>>> {
    emit_shards::<Weekly>(universe, collectors)
}

/// Serializes the universe's logs the way `workers` edge workers
/// would: each worker slice of the block list produces one buffer per
/// collector shard, and `result[shard]` lists that shard's buffers in
/// slice order. These retained buffers are what
/// [`supervised_collect`](crate::supervised_collect) replays on retry.
pub fn emit_shard_buffers<C: Cadence>(
    universe: &Universe,
    workers: usize,
    collectors: usize,
) -> io::Result<Vec<Vec<Vec<u8>>>> {
    Ok(emit_slices::<C>(universe, workers, collectors)?.0)
}

/// [`emit_shard_buffers`] and the number of records it wrote. The
/// slices run through [`claim_map`] on up to `workers` threads, one
/// scratch a thread, and each slice's buffers land at the slice's
/// index — every byte is where the serial loop put it, whichever
/// thread wrote it.
fn emit_slices<C: Cadence>(
    universe: &Universe,
    workers: usize,
    collectors: usize,
) -> io::Result<(Vec<Vec<Vec<u8>>>, u64)> {
    validate_topology(workers, collectors)?;
    let slices: Vec<&[BlockEntry]> =
        universe.blocks.chunks(universe.blocks.len().div_ceil(workers).max(1)).collect();
    let order: Vec<usize> = (0..slices.len()).collect();
    let (routed, _) = claim_map(&order, workers, || Scratch::new(universe), |scratch, i| {
        route_blocks::<C>(universe, slices[i], collectors, scratch)
    });
    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); collectors];
    let mut written = 0;
    for writers in routed {
        for (shard, writer) in out.iter_mut().zip(writers?) {
            written += writer.frames_written();
            shard.push(writer.finish()?);
        }
    }
    Ok((out, written))
}

/// Builds the packed record stream of every observation day of the
/// universe, block-major: each block is walked once and its records
/// land in their days' streams in block order.
fn daily_records(universe: &Universe) -> Vec<(u16, Vec<Record>)> {
    let mut days: Vec<(u16, Vec<Record>)> =
        (0..universe.config().daily_days).map(|d| (d as u16, Vec::new())).collect();
    let mut scratch = Scratch::new(universe);
    for e in &universe.blocks {
        infallible(walk_packed(universe, e, &mut scratch, |d, record| {
            days[d].1.push(record);
            Ok(())
        }));
    }
    days
}

/// Persists the universe's daily logs into a [`LogStore`] directory,
/// one packed file per observation day — the durable variant of
/// [`emit_daily_logs_packed`] — as one manifest-journaled batch
/// commit: after a crash at any point, a reader sees either *all* of
/// the run's days or none of them — never a prefix. Returns the
/// manifest generation that published the batch.
pub fn persist_daily_atomic<F: Fs>(
    universe: &Universe,
    store: &mut LogStore<F>,
) -> Result<u64, StoreError> {
    store.commit_days(&daily_records(universe))
}

/// Decodes a framed log stream into a dataset over `slots` days (or
/// weeks).
///
/// Runs in tolerant mode: damaged frames are counted and skipped, not
/// fatal — matching how a production collector survives partial edge
/// failures. An unrecoverable stream is the caller's error.
pub fn collect_stream<C: Cadence>(
    input: impl Read,
    slots: usize,
) -> Result<(C::Dataset, PipelineStats), FrameError> {
    let mut builder = C::new(slots);
    let mut reader = FrameReader::new(input, ReadMode::Tolerant);
    let drained = drain(&mut reader, |record| C::fold(record, slots, &mut builder));
    match drained.error {
        Some(e) => Err(e),
        None => Ok((
            C::finish(builder, None),
            PipelineStats {
                records_read: drained.records,
                frames_skipped: drained.skipped,
                resyncs: drained.resyncs,
                ..PipelineStats::default()
            },
        )),
    }
}

/// [`collect_stream`] at the daily cadence (kept by name for the
/// benchmark).
pub fn collect_daily<R: Read>(
    input: R,
    num_days: usize,
) -> Result<(DailyDataset, PipelineStats), FrameError> {
    collect_stream::<Daily>(input, num_days)
}

/// Folds every stored day into `builder`, tolerating damaged days, and
/// adds what was read and what was lost to `stats`.
fn fold_store<C: Cadence>(
    store: &LogStore<impl Fs>,
    slots: usize,
    builder: &mut C::Builder,
    stats: &mut PipelineStats,
) -> Result<(), StoreError> {
    let mut refused = 0;
    let damaged = store.for_each_day(|_, records| {
        for record in records {
            if C::fold(record, slots, builder) {
                stats.records_read += 1;
            } else {
                refused += 1;
            }
        }
    })?;
    stats.frames_skipped += damaged + refused;
    Ok(())
}

/// Rebuilds a dataset from a [`LogStore`] directory whose "days" are
/// slots of cadence `C` (distributed workers commit both cadences into
/// per-shard stores), tolerating damaged days: lost frames are
/// counted, never decoded wrongly.
pub fn collect_store<C: Cadence>(
    store: &LogStore<impl Fs>,
    slots: usize,
) -> Result<(C::Dataset, PipelineStats), StoreError> {
    let (mut builder, mut stats) = (C::new(slots), PipelineStats::default());
    fold_store::<C>(store, slots, &mut builder, &mut stats)?;
    Ok((C::finish(builder, None), stats))
}

/// [`collect_store`] at the daily cadence (kept by name for the
/// benchmark).
pub fn collect_from_store<F: Fs>(
    store: &LogStore<F>,
    num_days: usize,
) -> Result<(DailyDataset, PipelineStats), StoreError> {
    collect_store::<Daily>(store, num_days)
}

/// Like [`collect_store`] over the stores of every shard of a run —
/// `None` for a shard whose store was lost — folded into one builder
/// and finished once. Each store is verified first with an
/// [`ipactive_logfmt::fsck()`] dry run, and the dataset carries the
/// resulting `shards × slots` completeness grid as a [`Coverage`] — the
/// store-granular analogue of what the supervised collector reports
/// per shard. A day the fsck pass found damaged contributes its
/// surviving-record fraction; a day missing entirely (never written,
/// or lost with its manifest entry) contributes `0.0`, and a lost
/// shard a row of zeros.
///
/// The pass is strictly read-only; repairs are an explicit operator
/// action (`inspect fsck --repair`), never a side effect of
/// collection. Returns the dataset, the stats summed over the stores,
/// and the fsck report of each store present, in shard order.
pub fn collect_store_checked<C: Cadence>(
    stores: &[Option<LogStore<impl Fs>>],
    slots: usize,
) -> Result<(C::Dataset, PipelineStats, Vec<FsckReport>), StoreError> {
    let mut coverage = Coverage::from_shard_fractions(&vec![0.0; stores.len()], slots);
    let (mut builder, mut stats, mut reports) = (C::new(slots), PipelineStats::default(), vec![]);
    for (shard, store) in stores.iter().enumerate() {
        let Some(store) = store else { continue };
        let report = ipactive_logfmt::fsck(store.fs(), store.dir(), false)?;
        for (slot, fraction) in report.day_fractions() {
            if usize::from(slot) < slots {
                coverage.set(shard, usize::from(slot), fraction);
            }
        }
        fold_store::<C>(store, slots, &mut builder, &mut stats)?;
        reports.push(report);
    }
    Ok((C::finish(builder, Some(coverage)), stats, reports))
}

/// Decodes one shard's retained buffers (as produced by
/// [`emit_shard_buffers`]) into per-slot record batches ready for
/// [`LogStore::commit_days`] — the replay step of a distributed shard
/// worker. Slots with no records still appear in the batch (as empty
/// days) so the manifest commits the full window and store-level
/// coverage can distinguish "day observed, empty" from "day lost".
///
/// Decoding is tolerant and window-checked like every collector:
/// damaged frames and intact frames naming a slot outside the window
/// are counted as skipped in the returned stats, never as read and
/// never batched. Batch order and content are a pure function of the
/// buffer bytes, so two replays of the same shard commit
/// byte-identical day files.
pub fn slot_batches_from_buffers(
    buffers: &[impl AsRef<[u8]>],
    num_slots: usize,
) -> (Vec<(u16, Vec<Record>)>, PipelineStats) {
    let mut batches: Vec<(u16, Vec<Record>)> =
        (0..num_slots).map(|s| (s as u16, Vec::new())).collect();
    let mut stats = PipelineStats::default();
    for buf in buffers {
        let mut reader = FrameReader::new(buf.as_ref(), ReadMode::Tolerant);
        let drained = drain(&mut reader, |record| {
            if !in_window(&record, num_slots) {
                return false;
            }
            // Cadence markers carry no slot and have no day file to
            // go to.
            if let Some(slot) = record_slot(&record) {
                batches[usize::from(slot)].1.push(record);
            }
            true
        });
        stats.records_read += drained.records;
        // An unrecoverable stream: whatever was batched so far stands;
        // the abandonment itself counts as a lost frame so stats never
        // read clean.
        stats.frames_skipped += drained.skipped + u64::from(drained.error.is_some());
        stats.resyncs += drained.resyncs;
    }
    (batches, stats)
}

/// Assembles the final report as a *view over a registry snapshot*:
/// per-collector stats come from the `<prefix>.shard.<i>.*` counter
/// families and the collector spans; totals are sums over those plus
/// the write-side `<prefix>.records_written` counter. There is no
/// second accounting path — whatever the metrics say *is* the report.
pub(crate) fn assemble_report(
    registry: &Registry,
    prefix: &str,
    collectors: usize,
    elapsed: Duration,
) -> PipelineReport {
    let snap = registry.snapshot(obs::SnapshotMode::Timed);
    let per_collector: Vec<CollectorStats> =
        (0..collectors).map(|i| CollectorStats::from_snapshot(&snap, prefix, i)).collect();
    let mut totals = PipelineStats {
        records_written: snap.counter(&format!("{prefix}.records_written")),
        ..PipelineStats::default()
    };
    for s in &per_collector {
        totals.records_read += s.records_read;
        totals.frames_skipped += s.frames_skipped;
        totals.resyncs += s.resyncs;
        totals.bytes += s.bytes;
    }
    PipelineReport { totals, per_collector, workers: 0, elapsed }
}

/// Runs the full sharded pipeline: [`emit_shard_buffers`] serializes
/// the universe in `workers` slices, each `/24` block's frames routed
/// to one of `collectors` shards (see [`shard_of`]), and the
/// supervisor at zero retries folds each shard on a collector thread
/// of its own and merges the builders into one dataset.
///
/// The output equals [`Universe::build_daily`] (resp.
/// [`Universe::build_weekly`]) for *any* `(workers, collectors)` — the
/// differential suite in `tests/end_to_end.rs` pins this grid-wide.
/// Counters land under `C::PIPELINE_PREFIX` in `registry`, collector
/// timings under the `<prefix>.shard.<i>` spans, and noteworthy decode
/// conditions in the journal.
///
/// # Panics
/// If `workers` or `collectors` is zero.
pub fn stream_pipeline<C: Cadence>(
    universe: &Universe,
    workers: usize,
    collectors: usize,
    registry: &Registry,
) -> (C::Dataset, PipelineReport) {
    let start = Instant::now();
    let (buffers, written) =
        emit_slices::<C>(universe, workers, collectors).expect("invalid pipeline topology");
    registry.counter(format!("{}.records_written", C::PIPELINE_PREFIX)).add(written);
    let (dataset, report) = collect_unsupervised::<C>(&buffers, C::slots(universe), registry);
    (dataset, PipelineReport { workers, elapsed: start.elapsed(), ..report })
}

/// [`stream_pipeline`] at the daily cadence, metering into a throwaway
/// registry (kept by name for the benchmark).
pub fn parallel_pipeline(
    universe: &Universe,
    workers: usize,
    collectors: usize,
) -> (DailyDataset, PipelineReport) {
    stream_pipeline::<Daily>(universe, workers, collectors, &Registry::new())
}

/// Decodes each shard's buffers on a collector thread of its own and
/// merges the shards' builders into one dataset. Total: damaged or
/// truncated shards lose frames (counted per collector in the report)
/// but never panic and never poison other shards.
///
/// This is the supervised collector at zero retries: with no retry to
/// wait for, a buffer's first attempt is its salvage attempt, which
/// keeps every record that survives CRC and the window check and books
/// the damage — exactly what an unsupervised tolerant drain does. The
/// dataset carries no coverage, and an empty shard list is the empty
/// dataset.
fn collect_unsupervised<C: Cadence>(
    shard_buffers: &[impl AsRef<[Vec<u8>]> + Sync],
    slots: usize,
    registry: &Registry,
) -> (C::Dataset, PipelineReport) {
    let (builder, run) = supervise::<C>(
        shard_buffers,
        slots,
        &RetryPolicy::instant(0),
        &FaultPlan::none(),
        registry,
        C::PIPELINE_PREFIX,
    );
    (C::finish(builder, None), run.report)
}

/// [`collect_unsupervised`] over one buffer per shard, metering into
/// a throwaway registry.
fn collect_sharded<C: Cadence>(shards: &[Vec<u8>], slots: usize) -> (C::Dataset, PipelineReport) {
    let deliveries: Vec<&[Vec<u8>]> = shards.iter().map(std::slice::from_ref).collect();
    collect_unsupervised::<C>(&deliveries, slots, &Registry::new())
}

/// Decodes per-shard daily streams (from [`emit_daily_shards`])
/// concurrently, one collector per shard: the supervised collector at
/// zero retries — damaged shards lose frames, counted per collector,
/// but never panic and never poison other shards (kept by name for the
/// benchmark; the property suite feeds it corrupted shard buffers).
pub fn collect_daily_sharded(shards: &[Vec<u8>], num_days: usize) -> (DailyDataset, PipelineReport) {
    collect_sharded::<Daily>(shards, num_days)
}

/// Weekly counterpart of [`collect_daily_sharded`] (kept by name for
/// the benchmark).
pub fn collect_weekly_sharded(
    shards: &[Vec<u8>],
    num_weeks: usize,
) -> (WeeklyDataset, PipelineReport) {
    collect_sharded::<Weekly>(shards, num_weeks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;

    fn universe() -> Universe {
        Universe::generate(UniverseConfig::tiny(0x100))
    }

    fn assert_datasets_equal(a: &DailyDataset, b: &DailyDataset) {
        assert_eq!(a.num_days, b.num_days);
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (x, y) in a.blocks.iter().zip(b.blocks.iter()) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.rows, y.rows, "activity matrix mismatch in {}", x.block);
            assert_eq!(x.total_hits, y.total_hits);
            assert_eq!(x.ua_samples, y.ua_samples);
            assert_eq!(x.ua_unique, y.ua_unique);
            assert_eq!(x.ip_traffic, y.ip_traffic);
        }
    }

    fn wire_roundtrip<C: Cadence>(u: &Universe, direct: C::Dataset)
    where
        C::Dataset: PartialEq + std::fmt::Debug,
    {
        let mut buf = Vec::new();
        let written = emit_logs::<C>(u, &mut buf).unwrap();
        assert!(written > 0);
        let (collected, stats) = collect_stream::<C>(&buf[..], C::slots(u)).unwrap();
        assert_eq!(stats.frames_skipped, 0);
        assert_eq!(stats.records_read + 1, written); // Finish frame not counted as read
        assert_eq!(collected, direct);
    }

    #[test]
    fn wire_roundtrip_equals_direct_build() {
        let u = universe();
        wire_roundtrip::<Daily>(&u, u.build_daily());
        let mut buf = Vec::new();
        emit_logs::<Daily>(&u, &mut buf).unwrap();
        let (collected, _) = collect_daily(&buf[..], u.config().daily_days).unwrap();
        assert_datasets_equal(&u.build_daily(), &collected);
    }

    #[test]
    fn weekly_wire_roundtrip_equals_direct_build() {
        let u = universe();
        wire_roundtrip::<Weekly>(&u, u.build_weekly());
    }

    fn stream_pipeline_equals<C: Cadence>(u: &Universe, direct: C::Dataset)
    where
        C::Dataset: PartialEq + std::fmt::Debug,
    {
        let (collected, report) = stream_pipeline::<C>(u, 4, 2, &Registry::new());
        assert_eq!(collected, direct);
        assert_eq!(report.totals.records_written, report.totals.records_read);
        assert!(report.totals.bytes > 0);
        assert_eq!(report.totals.frames_skipped, 0);
        assert_eq!(report.collectors(), 2);
        assert_eq!(report.workers, 4);
    }

    #[test]
    fn parallel_pipeline_equals_direct_build() {
        let u = universe();
        stream_pipeline_equals::<Daily>(&u, u.build_daily());
        assert_datasets_equal(&u.build_daily(), &parallel_pipeline(&u, 4, 2).0);
    }

    #[test]
    fn parallel_pipeline_weekly_equals_direct_build() {
        let u = universe();
        stream_pipeline_equals::<Weekly>(&u, u.build_weekly());
    }

    #[test]
    fn per_collector_stats_sum_to_totals() {
        let u = universe();
        let (_, report) = parallel_pipeline(&u, 3, 4);
        let read: u64 = report.per_collector.iter().map(|s| s.records_read).sum();
        let bytes: u64 = report.per_collector.iter().map(|s| s.bytes).sum();
        let buffers: u64 = report.per_collector.iter().map(|s| s.buffers).sum();
        assert_eq!(read, report.totals.records_read);
        assert_eq!(bytes, report.totals.bytes);
        // Every worker sends one buffer to every collector.
        assert_eq!(buffers, 3 * 4);
        assert!(report.per_collector.iter().all(|s| s.decode_errors == 0));
        assert!(report.records_per_sec() > 0.0);
    }

    #[test]
    fn sharded_collect_equals_unsharded() {
        let u = universe();
        let num_days = u.config().daily_days;
        let collectors = 3;
        let shards = emit_daily_shards(&u, collectors).unwrap();
        let (sharded, report) = collect_daily_sharded(&shards, num_days);
        assert_datasets_equal(&u.build_daily(), &sharded);
        assert_eq!(report.collectors(), collectors);
        assert!(report.per_collector.iter().all(|s| s.frames_skipped == 0));
    }

    #[test]
    fn packed_stream_collects_identically() {
        let u = universe();
        let mut flat = Vec::new();
        let mut packed = Vec::new();
        emit_logs::<Daily>(&u, &mut flat).unwrap();
        emit_daily_logs_packed(&u, &mut packed).unwrap();
        assert!(
            packed.len() < flat.len(),
            "packed {} must beat flat {}",
            packed.len(),
            flat.len()
        );
        let (a, _) = collect_daily(&flat[..], u.config().daily_days).unwrap();
        let (b, _) = collect_daily(&packed[..], u.config().daily_days).unwrap();
        assert_eq!(a, b, "flat and packed encodings must fold to equal datasets");
        assert_datasets_equal(&a, &b);
        assert_datasets_equal(&a, &u.build_daily());
    }

    #[test]
    fn emitted_shards_are_byte_identical_to_three_part_framing() {
        // The writer assembles a frame in one scratch and writes it
        // once; the bytes must be what sync + length, payload and CRC
        // written one after the other always were.
        let u = universe();
        let mut packed = Vec::new();
        emit_daily_logs_packed(&u, &mut packed).unwrap(); // multi-byte lengths
        let mut streams = emit_daily_shards(&u, 3).unwrap();
        streams.extend(emit_weekly_shards(&u, 2).unwrap());
        streams.push(packed);
        for stream in &streams {
            let records = FrameReader::new(&stream[..], ReadMode::Strict).read_all().unwrap();
            assert!(!records.is_empty());
            let mut expect = Vec::with_capacity(stream.len());
            for record in records.iter().chain([&Record::Finish]) {
                let mut payload = Vec::new();
                record.encode(&mut payload);
                expect.push(0xA5);
                ipactive_logfmt::encode_u64(&mut expect, payload.len() as u64);
                expect.extend_from_slice(&payload);
                expect.extend_from_slice(&ipactive_logfmt::crc32(&payload).to_le_bytes());
            }
            assert!(*stream == expect, "emitted stream differs from three-part framing");
        }
        assert!(streams.last().unwrap().windows(2).any(|w| w[0] == 0xA5 && w[1] >= 0x80));
    }

    #[test]
    fn quarantined_hits_frame_does_not_leave_a_phantom_block() {
        use ipactive_net::Addr;
        // The supervisor salvage scenario: corruption claims a block's
        // only Hits frame while its UaSample frame survives. The
        // salvaged dataset must not materialize an activity-free
        // BlockRecord for that block.
        let addr = Addr::new(0x0A000001);
        let lost = Record::Hits { day: 0, addr, hits: 5 };
        let mut first = Vec::new();
        let mut w = FrameWriter::new(&mut first);
        w.write(&lost).unwrap();
        drop(w);
        let hits_frame_len = first.len();

        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        w.write(&lost).unwrap();
        w.write(&Record::UaSample { day: 0, addr, ua_hash: 99 }).unwrap();
        w.finish().unwrap();
        // Flip one checksum byte of the Hits frame: tolerant decode
        // quarantines exactly that frame, the UaSample lives on.
        buf[hits_frame_len - 1] ^= 0xFF;

        let (salvaged, stats) = collect_daily(&buf[..], 3).unwrap();
        assert_eq!(stats.frames_skipped, 1);
        assert!(
            salvaged.blocks.is_empty(),
            "phantom block emitted for a UA-only /24: {:?}",
            salvaged.blocks.first().map(|r| r.block)
        );
        // The salvaged dataset agrees with a clean run that never saw
        // the block at all — block censuses and equality line up.
        assert_eq!(salvaged, DailyDatasetBuilder::new(3).finish());
    }

    #[test]
    fn log_store_roundtrip_equals_direct_build() {
        let u = universe();
        let dir = std::env::temp_dir().join(format!(
            "ipactive-pipeline-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ipactive_logfmt::LogStore::open(&dir).unwrap();
        assert_eq!(persist_daily_atomic(&u, &mut store).unwrap(), 1);
        assert_eq!(store.committed_days().len(), u.config().daily_days);
        let (ds, stats) = collect_from_store(&store, u.config().daily_days).unwrap();
        assert_eq!(stats.frames_skipped, 0);
        assert_datasets_equal(&u.build_daily(), &ds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checked_collect_attaches_full_coverage_when_clean() {
        let u = universe();
        let num_days = u.config().daily_days;
        let fs = ipactive_logfmt::SimFs::new();
        let mut store = ipactive_logfmt::LogStore::open_on(fs.clone(), "/store").unwrap();
        persist_daily_atomic(&u, &mut store).unwrap();
        let (ds, stats, reports) =
            collect_store_checked::<Daily>(&[Some(store)], num_days).unwrap();
        assert!(reports[0].is_healthy(), "clean store flagged:\n{}", reports[0].render());
        assert_eq!(stats.frames_skipped, 0);
        let coverage = ds.coverage.as_ref().expect("checked collect must annotate coverage");
        assert!(coverage.is_complete());
        assert_eq!(coverage.num_slots(), num_days);
        assert_datasets_equal(&u.build_daily(), &ds);
    }

    #[test]
    fn checked_collect_degrades_coverage_for_a_damaged_day() {
        let u = universe();
        let num_days = u.config().daily_days;
        assert!(num_days >= 2, "need at least two days to damage one");
        let fs = ipactive_logfmt::SimFs::new();
        let mut store = ipactive_logfmt::LogStore::open_on(fs.clone(), "/store").unwrap();
        let gen = persist_daily_atomic(&u, &mut store).unwrap();
        // Cut the tail off day 1's file, mid-frame.
        let path = store.dir().join(ipactive_logfmt::manifest::gen_day_file_name(1, gen));
        let bytes = fs.visible(&path).unwrap();
        fs.put_file(&path, &bytes[..bytes.len() - bytes.len() / 4 - 1]);
        let (ds, _, reports) = collect_store_checked::<Daily>(&[Some(store)], num_days).unwrap();
        assert!(!reports[0].is_healthy());
        let coverage = ds.coverage.as_ref().unwrap();
        assert!(coverage.slot(1) < 1.0, "damaged day kept full coverage");
        assert_eq!(coverage.slot(0), 1.0, "undamaged day lost coverage");
        assert!(!coverage.is_complete());
    }

    #[test]
    fn zero_collectors_is_a_proper_error() {
        let u = universe();
        let err = emit_daily_shards(&u, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = emit_weekly_shards(&u, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(validate_topology(0, 1).is_err());
        assert!(validate_topology(1, 0).is_err());
        assert!(validate_topology(1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "collectors must be >= 1")]
    fn shard_of_rejects_zero_collectors() {
        let _ = shard_of(Block24::new(7), 0);
    }

    #[test]
    fn rate_is_zero_when_no_time_elapsed() {
        // The degenerate cases must render as 0.0, never inf/NaN —
        // shared with the obs snapshot renderer via ipactive_obs::rate.
        assert_eq!(obs::rate(1_000_000, Duration::ZERO), 0.0);
        assert_eq!(obs::rate(0, Duration::ZERO), 0.0);
        assert!(obs::rate(u64::MAX, Duration::from_nanos(1)).is_finite());
        let r = obs::rate(500, Duration::from_secs(2));
        assert!((r - 250.0).abs() < 1e-9);
        // Stats with zero elapsed flow through the same guard.
        let stats = CollectorStats { records_read: 42, ..CollectorStats::default() };
        assert_eq!(stats.records_per_sec(), 0.0);
        let report = PipelineReport {
            totals: PipelineStats { records_read: 42, ..PipelineStats::default() },
            ..PipelineReport::default()
        };
        assert_eq!(report.records_per_sec(), 0.0);
    }

    #[test]
    fn report_is_a_view_over_the_registry_snapshot() {
        let u = universe();
        let reg = Registry::new();
        let (_, report) = stream_pipeline::<Daily>(&u, 2, 3, &reg);
        let snap = reg.snapshot(obs::SnapshotMode::Timed);
        // Totals in the report are exactly the registry counters —
        // there is no second accounting path to drift.
        assert_eq!(
            report.totals.records_written,
            snap.counter("pipeline.daily.records_written")
        );
        for (i, s) in report.per_collector.iter().enumerate() {
            assert_eq!(s, &CollectorStats::from_snapshot(&snap, Daily::PIPELINE_PREFIX, i));
            assert_eq!(
                s.records_read,
                snap.counter(&format!("pipeline.daily.shard.{i}.records"))
            );
        }
        // counter_sum over one shard's family folds all six fields.
        let s0 = &report.per_collector[0];
        assert_eq!(
            snap.counter_sum("pipeline.daily.shard.0."),
            s0.records_read
                + s0.frames_skipped
                + s0.resyncs
                + s0.decode_errors
                + s0.buffers
                + s0.bytes
        );
        // Collector wall time comes from the span tree.
        assert!(snap.spans.iter().any(|sp| sp.path == "pipeline.daily.shard.0"));
    }

    #[test]
    fn resyncs_surface_in_report() {
        let u = universe();
        let num_days = u.config().daily_days;
        let mut shards = emit_daily_shards(&u, 2).unwrap();
        // Garbage before shard 1's first frame forces a resync scan.
        let mut dirty = vec![0x00, 0x13, 0x37];
        dirty.extend_from_slice(&shards[1]);
        shards[1] = dirty;
        let (_, report) = collect_daily_sharded(&shards, num_days);
        assert_eq!(report.per_collector[0].resyncs, 0);
        assert!(report.per_collector[1].resyncs >= 1);
        let summed: u64 = report.per_collector.iter().map(|s| s.resyncs).sum();
        assert_eq!(report.totals.resyncs, summed);
    }

    #[test]
    fn collector_survives_corruption() {
        let u = universe();
        let mut buf = Vec::new();
        emit_logs::<Daily>(&u, &mut buf).unwrap();
        // Corrupt a payload byte early in the stream.
        let pos = buf.len() / 3 + 2;
        buf[pos] ^= 0x40;
        let result = collect_daily(&buf[..], u.config().daily_days);
        if let Ok((ds, stats)) = result {
            // Tolerant mode: we may lose records but never fabricate.
            assert!(stats.frames_skipped >= 1 || ds.total_active() > 0);
        }
        // (A LostSync error is also acceptable — the point is no panic
        // and no silent wrong data.)
    }

    #[test]
    fn sharded_collector_survives_corruption_in_one_shard() {
        let u = universe();
        let num_days = u.config().daily_days;
        let collectors = 3;
        let mut shards = emit_daily_shards(&u, collectors).unwrap();
        let (clean, _) = collect_daily_sharded(&shards, num_days);
        // Trash shard 1 wholesale; shards 0 and 2 must decode intact.
        let pos = shards[1].len() / 2;
        shards[1].truncate(pos);
        shards[1].extend_from_slice(&[0xFF; 64]);
        let (damaged, report) = collect_daily_sharded(&shards, num_days);
        assert_eq!(report.per_collector[0].frames_skipped, 0);
        assert_eq!(report.per_collector[2].frames_skipped, 0);
        // Only shard 1's blocks can differ; every other block matches
        // the clean run exactly.
        for rec in &damaged.blocks {
            if shard_of(rec.block, collectors) != 1 {
                let clean_rec = clean.block(rec.block).expect("clean shard block");
                assert_eq!(rec, clean_rec);
            }
        }
    }

    #[test]
    fn hit_totals_saturate_on_intact_frames() {
        // Two CRC-valid frames whose hits sum past u64: a tolerant
        // collector survives anything that passes CRC, so the totals
        // pin at the ceiling the way the per-day sample beside them
        // does — no overflow panic in a debug build, no total smaller
        // than either addend in a release one.
        let addr = ipactive_net::Addr::from_octets(10, 1, 2, 3);
        let log = |days: &[u16]| {
            let mut w = FrameWriter::new(Vec::new());
            for &day in days {
                w.write(&Record::Hits { day, addr, hits: u64::MAX }).unwrap();
            }
            w.finish().unwrap()
        };
        let assert_saturated = |ds: &DailyDataset, records_read: u64, path: &str| {
            assert_eq!(records_read, 2, "{path}");
            let block = &ds.blocks[0];
            assert_eq!(block.total_hits, u64::MAX, "{path}: block total");
            assert_eq!(block.ip_traffic[0].total_hits, u64::MAX, "{path}: address total");
            assert_eq!(block.ip_traffic[0].median_daily_hits, u32::MAX, "{path}");
        };
        // Serial: both frames through one builder (`record_hits`).
        let (ds, stats) = collect_stream::<Daily>(&log(&[0, 1])[..], 4).unwrap();
        assert_saturated(&ds, stats.records_read, "serial");
        // Sharded: one frame a shard, same address (builder `merge`),
        // on different days and on the same day.
        for days in [[0, 1], [2, 2]] {
            let (ds, report) = collect_daily_sharded(&days.map(|day| log(&[day])), 4);
            assert_saturated(&ds, report.totals.records_read, "sharded");
        }
    }
}
