//! `collect_replay`: wire logs → datasets, with the simulator out of the
//! timed path.
//!
//! Set-up emits the daily and weekly logs once; the op decodes, folds,
//! finishes and merges them (`logfmt::frame`, the `core::dataset`
//! builders, `cdnsim::pipeline`). The same builders serve `serve_ingest`,
//! there re-run per day instead of once over a whole log.

use super::{Params, Samples, Workload};
use crate::trace::Tracer;
use ipactive_cdnsim::{
    collect_daily, collect_daily_sharded, collect_from_store, collect_weekly_sharded,
    emit_daily_shards, emit_weekly_shards, parallel_pipeline, persist_daily_atomic,
    supervised_collect_daily, FaultPlan, PipelineReport, RetryPolicy, Universe,
};
use ipactive_core::{DailyDataset, DailyDatasetBuilder, WeeklyDataset, WeeklyDatasetBuilder};
use ipactive_logfmt::{fsck, FrameReader, FrameWriter, LogStore, ReadMode, RealFs, Record};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Collector shards, as many as the box the bounds were set on has cores.
pub const SHARDS: usize = 2;

/// The emitted logs and what the ops over them must reproduce.
pub struct CollectReplay {
    universe: Universe,
    /// Daily log, one buffer per collector shard.
    pub daily: Vec<Vec<u8>>,
    /// Weekly log, one buffer per collector shard.
    pub weekly: Vec<Vec<u8>>,
    /// Datasets and record count of the first op; every later op must
    /// equal them, and `verify` holds them against the direct build.
    first: Option<(DailyDataset, WeeklyDataset, u64)>,
    store_dir: PathBuf,
}

impl CollectReplay {
    /// Emits both logs, the two cadences side by side.
    pub fn emit(universe: Universe, out_dir: &Path, t: &mut Tracer) -> CollectReplay {
        let ((daily, d0, d1), (weekly, w0, w1)) = std::thread::scope(|scope| {
            let weekly = scope.spawn(|| timed(|| emit_weekly_shards(&universe, SHARDS)));
            let daily = timed(|| emit_daily_shards(&universe, SHARDS));
            (daily, weekly.join().expect("weekly emitter panicked"))
        });
        t.add("cdnsim.pipeline.emit_daily", d0, d1);
        t.add("cdnsim.pipeline.emit_weekly", w0, w1);
        t.set(
            "logfmt.frame.daily_bytes",
            daily.iter().map(Vec::len).sum::<usize>() as f64,
        );
        t.set(
            "logfmt.frame.weekly_bytes",
            weekly.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let store_dir = out_dir.join(format!("store-{}", std::process::id()));
        CollectReplay {
            universe,
            daily,
            weekly,
            first: None,
            store_dir,
        }
    }

    /// One op: both logs collected through the sharded entry points.
    /// Returns the datasets, the records decoded, and what was wrong
    /// with the decode, if anything.
    pub fn collect(&self, t: &mut Tracer) -> (DailyDataset, WeeklyDataset, u64, Option<String>) {
        let cfg = self.universe.config();
        let (daily, dr) = t.span("cdnsim.pipeline.collect_daily_sharded", |_| {
            collect_daily_sharded(&self.daily, cfg.daily_days)
        });
        let (weekly, wr) = t.span("cdnsim.pipeline.collect_weekly_sharded", |_| {
            collect_weekly_sharded(&self.weekly, cfg.weeks)
        });
        let damage = [("daily", &dr), ("weekly", &wr)]
            .into_iter()
            .find_map(|(name, r)| {
                let PipelineReport {
                    totals,
                    per_collector,
                    ..
                } = r;
                let errors: u64 = per_collector.iter().map(|c| c.decode_errors).sum();
                (totals.frames_skipped + totals.resyncs + errors > 0).then(|| {
                    format!(
                        "{name} log: {} frames skipped, {} resyncs, {errors} decode errors",
                        totals.frames_skipped, totals.resyncs
                    )
                })
            });
        (
            daily,
            weekly,
            dr.totals.records_read + wr.totals.records_read,
            damage,
        )
    }
}

/// Runs an emitter into memory and says when it started and ended.
fn timed(emit: impl FnOnce() -> std::io::Result<Vec<Vec<u8>>>) -> (Vec<Vec<u8>>, Instant, Instant) {
    let start = Instant::now();
    let shards = emit().expect("Vec writers cannot fail");
    (shards, start, Instant::now())
}

/// Folds one decoded daily record the way every collector does.
fn fold_daily(record: Record, builder: &mut DailyDatasetBuilder) {
    match record {
        Record::Hits { day, addr, hits } => builder.record_hits(day as usize, addr, hits),
        Record::UaSample { day, addr, ua_hash } => builder.record_ua(day as usize, addr, ua_hash),
        Record::BlockDay(bd) => {
            for rec in bd.unpack() {
                if let Record::Hits { day, addr, hits } = rec {
                    builder.record_hits(day as usize, addr, hits);
                }
            }
        }
        Record::DayStart { .. } | Record::Finish => {}
    }
}

/// What a decoder saw of one or more buffers.
#[derive(Default)]
struct Tally {
    records: u64,
    skipped: u64,
    resyncs: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.records += other.records;
        self.skipped += other.skipped;
        self.resyncs += other.resyncs;
    }
}

/// Decodes `buf` to exhaustion; `keep` receives every record.
fn decode(buf: &[u8], mut keep: impl FnMut(Record)) -> Tally {
    let mut reader = FrameReader::new(buf, ReadMode::Tolerant);
    let mut records = 0;
    while let Ok(Some(record)) = reader.read() {
        records += 1;
        keep(record);
    }
    Tally {
        records,
        skipped: reader.skipped(),
        resyncs: reader.resyncs(),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

impl Workload for CollectReplay {
    const NAME: &'static str = "collect_replay";
    const OP_SPAN: &'static str = "collect_replay.op";

    fn setup(p: &Params, t: &mut Tracer) -> Self {
        let universe = Universe::generate(p.universe.clone());
        CollectReplay::emit(universe, &p.out_dir, t)
    }

    fn batch(&mut self, t: &mut Tracer, s: &mut Samples) -> bool {
        let (daily, weekly, records, damage) =
            s.time_op(|| t.op(Self::OP_SPAN, |t| self.collect(t)));
        s.units += records;
        if let Some(damage) = damage {
            s.fail(format!("collect_replay: {damage}"));
        } else {
            match &self.first {
                None => self.first = Some((daily, weekly, records)),
                Some((d, w, r)) if (d, w, *r) == (&daily, &weekly, records) => {}
                Some(_) => s.fail("collect_replay: an op's datasets differ from the first op's"),
            }
        }
        true
    }

    /// The collected datasets against the direct build of the same
    /// universe, the two cadences side by side.
    fn verify(&mut self, _t: &mut Tracer, s: &mut Samples) {
        let Some((daily, weekly, _)) = &self.first else {
            return;
        };
        let universe = &self.universe;
        let (want_daily, want_weekly) = std::thread::scope(|scope| {
            let weekly = scope.spawn(|| universe.build_weekly());
            (
                universe.build_daily(),
                weekly.join().expect("weekly build panicked"),
            )
        });
        if *daily != want_daily {
            s.fail("collect_replay: collected daily dataset differs from build_daily()");
        }
        if *weekly != want_weekly {
            s.fail("collect_replay: collected weekly dataset differs from build_weekly()");
        }
    }

    /// The op taken apart on one thread (decode, encode, fold, merge,
    /// finish), then the other collection paths over the same universe.
    fn probes(&mut self, t: &mut Tracer) {
        let cfg = self.universe.config().clone();
        let (days, weeks) = (cfg.daily_days, cfg.weeks);

        t.span("collect_replay.serial_split", |t| {
            // Each shard is decoded once into memory, so that encode and
            // fold are timed without the decoder; the daily spans are
            // per shard.
            let mut daily_tally = Tally::default();
            let mut merged = DailyDatasetBuilder::new(days);
            for buf in &self.daily {
                let mut decoded = Vec::new();
                daily_tally.add(t.span("logfmt.frame.decode_daily", |_| {
                    decode(buf, |r| decoded.push(r))
                }));
                t.span("logfmt.frame.encode_daily", |_| {
                    let mut w = FrameWriter::new(Vec::with_capacity(buf.len()));
                    for r in &decoded {
                        w.write(r).expect("Vec writer cannot fail");
                    }
                    w.finish().expect("Vec writer cannot fail")
                });
                let mut builder = DailyDatasetBuilder::new(days);
                t.span("core.dataset.daily_fold", |_| {
                    for r in decoded {
                        fold_daily(r, &mut builder);
                    }
                });
                t.span("core.dataset.daily_merge", |_| merged.merge(builder));
            }
            t.span("core.dataset.daily_finish", |_| merged.finish());

            let mut weekly_tally = Tally::default();
            let mut builder = WeeklyDatasetBuilder::new(weeks);
            for buf in &self.weekly {
                let mut decoded = Vec::new();
                weekly_tally.add(t.span("logfmt.frame.decode_weekly", |_| {
                    decode(buf, |r| decoded.push(r))
                }));
                t.span("core.dataset.weekly_fold", |_| {
                    for r in decoded {
                        if let Record::Hits { day, addr, hits } = r {
                            builder.record_week(day as usize, addr, hits);
                        }
                    }
                });
            }
            t.span("core.dataset.weekly_finish", |_| builder.finish());

            t.set("logfmt.frame.daily_records", daily_tally.records as f64);
            t.set("logfmt.frame.weekly_records", weekly_tally.records as f64);
            t.set(
                "logfmt.frame.skipped",
                (daily_tally.skipped + weekly_tally.skipped) as f64,
            );
            t.set(
                "logfmt.frame.resyncs",
                (daily_tally.resyncs + weekly_tally.resyncs) as f64,
            );
        });

        t.span("cdnsim.pipeline.collect_daily", |_| {
            // The serial fused collector reads one stream; give it the
            // shards one after the other.
            for buf in &self.daily {
                collect_daily(&buf[..], days).expect("clean log decodes");
            }
        });
        t.span("cdnsim.pipeline.parallel_pipeline", |_| {
            parallel_pipeline(&self.universe, 1, 1)
        });

        let buffers: Vec<Vec<Vec<u8>>> = std::mem::take(&mut self.daily)
            .into_iter()
            .map(|b| vec![b])
            .collect();
        t.span("cdnsim.supervisor.collect_daily", |_| {
            supervised_collect_daily(&buffers, days, &RetryPolicy::default(), &FaultPlan::none())
                .expect("fault-free supervised run")
        });
        self.daily = buffers.into_iter().flatten().collect();

        let dir = &self.store_dir;
        let _ = std::fs::remove_dir_all(dir);
        let mut store = LogStore::open_on(RealFs, dir).expect("store opens under the out dir");
        t.span("logfmt.store.commit", |_| {
            persist_daily_atomic(&self.universe, &mut store).expect("commit")
        });
        t.set("logfmt.store.disk_bytes", dir_bytes(dir) as f64);
        t.span("logfmt.store.replay", |_| {
            collect_from_store(&store, days).expect("replay")
        });
        t.span("logfmt.store.fsck", |_| {
            fsck(store.fs(), store.dir(), false).expect("fsck")
        });
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }
}
