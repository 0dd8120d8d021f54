//! The shard worker: one process, one shard, one leased store pair.
//!
//! A worker replays its shard's retained edge buffers (emitted by
//! `cdnsim::emit_shard_buffers::<C>` once per cadence) into per-day
//! record batches and commits them atomically — daily cadence first,
//! then weekly — into two manifest-journaled [`LogStore`] directories
//! under its shard directory. Progress is heartbeated by
//! republishing the shard's lease with a growing beat counter; the
//! beat is a function of *replay progress* (buffers decoded, stores
//! committed), never of wall-clock time, so a worker killed at a given
//! protocol point always leaves the same beat behind.
//!
//! The worker is resumable by construction: a respawned grant opens
//! the stores (whose `open` sweeps any tmp garbage its predecessor
//! left), skips any cadence whose full window is already committed,
//! and commits the rest. Because `commit_days` publishes a whole
//! batch atomically and a `kill -9` never destroys page-cache state
//! the way a power loss does, healing is exact: the healed store pair
//! is record-identical to an undisturbed run's.

use crate::plan::InjectionPoint;
use ipactive_cdnsim::{
    emit_shard_buffers, slot_batches_from_buffers, Daily, Universe, UniverseConfig, Weekly,
};
use ipactive_logfmt::{write_lease, Fs, FsFile, Lease, LogStore, Record, StoreError};
use ipactive_obs::{Registry, TraceContext};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Everything a worker needs to run one grant deterministically.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Universe the run replays; equal configs replay identical logs.
    pub universe: UniverseConfig,
    /// Run root; shard directories live directly under it.
    pub root: PathBuf,
    /// The shard this grant covers.
    pub shard: u32,
    /// Total shards in the run (the pipeline's `collectors`).
    pub shards: usize,
    /// Edge emitters per shard (the pipeline's `workers`): each
    /// produces one retained buffer per cadence.
    pub emitters: usize,
    /// Fencing epoch of this grant (from the coordinator's lease).
    pub epoch: u64,
    /// Which grant of this shard this is (0 = first assignment).
    pub attempt: u32,
    /// Trace context handed down with the grant (the coordinator's
    /// `coord.grant` span); [`TraceContext::NONE`] runs untraced.
    pub trace: TraceContext,
}

/// `<root>/shard-SSSS`.
pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
    root.join(format!("shard-{shard:04}"))
}

/// The shard's daily store directory.
pub fn daily_dir(root: &Path, shard: u32) -> PathBuf {
    shard_dir(root, shard).join("daily")
}

/// The shard's weekly store directory.
pub fn weekly_dir(root: &Path, shard: u32) -> PathBuf {
    shard_dir(root, shard).join("weekly")
}

/// Deterministic logical holder id for a grant — a pure function of
/// `(shard, attempt)`, never a pid, so lease bytes are identical run
/// to run.
pub fn holder_id(shard: u32, attempt: u32) -> u64 {
    (u64::from(shard) << 32) | u64::from(attempt)
}

/// Marker file a [`KillMode::Kill`](crate::KillMode::Kill) victim
/// writes when it reaches its pause point, announcing "I am frozen at
/// the scheduled state — kill me now".
pub fn marker_path(root: &Path, shard: u32, attempt: u32) -> PathBuf {
    shard_dir(root, shard).join(format!("paused-{attempt:02}.marker"))
}

/// Where a traced grant exports its span records — durable before the
/// worker pauses or exits, so the coordinator can stitch the worker's
/// side of the tree into its own store even after a `kill -9`.
pub fn trace_path(root: &Path, shard: u32, attempt: u32) -> PathBuf {
    shard_dir(root, shard).join(format!("trace-{attempt:02}.json"))
}

/// What a paused worker does at its injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseStyle {
    /// Return from [`run_worker`] with [`WorkerExit::Paused`] — the
    /// in-process (SimFs) harness's kill: the closure simply stops,
    /// leaving page-cache state intact, exactly like `kill -9`.
    ReturnEarly,
    /// Freeze the process: optionally write the pause marker, then
    /// spin until killed. The real-process harness's pause.
    Spin {
        /// Whether to announce the pause with a marker file
        /// (`false` models a silent wedge the coordinator must
        /// discover through beat stagnation).
        write_marker: bool,
    },
}

/// How a worker run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// Both stores committed; the shard is done.
    Completed,
    /// The run stopped at a scheduled injection point
    /// ([`PauseStyle::ReturnEarly`] only — a spinning pause never
    /// returns).
    Paused(InjectionPoint),
}

fn store_io(e: StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Extends accumulated per-slot batches with one buffer's decode.
fn extend_batches(acc: &mut [(u16, Vec<Record>)], buf: &[u8], num_slots: usize) {
    let (batch, _stats) = slot_batches_from_buffers(&[buf], num_slots);
    for ((_, dst), (_, src)) in acc.iter_mut().zip(batch) {
        dst.extend(src);
    }
}

/// Runs one grant of shard `cfg.shard` on the filesystem `fs`.
///
/// `pause_at` is this grant's scheduled injection point (if any);
/// `style` says what pausing means. Everything the worker writes —
/// lease renewals, day files, manifests — is a deterministic function
/// of `cfg` and the pause point.
pub fn run_worker<F: Fs>(
    fs: &F,
    cfg: &WorkerConfig,
    pause_at: Option<InjectionPoint>,
    style: PauseStyle,
    registry: &Registry,
) -> io::Result<WorkerExit> {
    let sdir = shard_dir(&cfg.root, cfg.shard);
    fs.create_dir_all(&sdir)?;

    // The worker's side of the grant's trace. Spans are structural
    // (protocol points and config-derived details only) so the tree
    // is identical however the grant is scheduled or killed.
    let run_ctx = registry.trace_span(
        cfg.trace,
        "worker.run",
        format!("shard {} attempt {}", cfg.shard, cfg.attempt),
    );
    // Persists the grant's span records next to its lease; called at
    // every exit point (pause or completion) so the coordinator can
    // stitch the worker's tree even across a process boundary.
    // Best-effort: tracing must never fail a grant.
    let export_trace = |fs: &F| {
        if let Some(doc) = registry.trace_json(cfg.trace.trace.0) {
            let _ = (|| -> io::Result<()> {
                let mut f = fs.create(&trace_path(&cfg.root, cfg.shard, cfg.attempt))?;
                f.write_all(doc.as_bytes())?;
                f.sync_all()
            })();
        }
    };

    let mut beat = 0u64;
    let publish = |fs: &F, beat: u64| {
        write_lease(
            fs,
            &sdir,
            &Lease {
                shard: cfg.shard,
                epoch: cfg.epoch,
                holder: holder_id(cfg.shard, cfg.attempt),
                attempt: cfg.attempt,
                beat,
            },
        )
    };
    // Pauses here if `point` is this grant's scheduled stop. Returns
    // `Some` to propagate a ReturnEarly exit; a Spin pause never
    // comes back.
    let pause = |fs: &F, point: InjectionPoint| -> io::Result<Option<WorkerExit>> {
        if pause_at != Some(point) {
            return Ok(None);
        }
        export_trace(fs);
        match style {
            PauseStyle::ReturnEarly => Ok(Some(WorkerExit::Paused(point))),
            PauseStyle::Spin { write_marker } => {
                if write_marker {
                    let mut m = fs.create(&marker_path(&cfg.root, cfg.shard, cfg.attempt))?;
                    m.write_all(point.to_string().as_bytes())?;
                    m.sync_all()?;
                }
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        }
    };

    // Beat 1: alive, lease acknowledged.
    beat += 1;
    publish(fs, beat)?;
    if let Some(exit) = pause(fs, InjectionPoint::Early)? {
        return Ok(exit);
    }

    // Replay: regenerate the universe and this shard's retained
    // buffers. (Emitting all shards and slicing ours is wasteful but
    // keeps the buffers bit-identical to the in-process pipeline's.)
    registry.trace_span(run_ctx, "worker.replay", format!("emitters {}", cfg.emitters));
    let universe = Universe::generate(cfg.universe.clone());
    let num_days = cfg.universe.daily_days;
    let num_weeks = cfg.universe.weeks;
    let daily_buffers = emit_shard_buffers::<Daily>(&universe, cfg.emitters, cfg.shards)?;
    let weekly_buffers = emit_shard_buffers::<Weekly>(&universe, cfg.emitters, cfg.shards)?;
    let shard_idx = cfg.shard as usize;

    let mut daily_batches: Vec<(u16, Vec<Record>)> =
        (0..num_days).map(|d| (d as u16, Vec::new())).collect();
    for (k, buf) in daily_buffers[shard_idx].iter().enumerate() {
        extend_batches(&mut daily_batches, buf, num_days);
        beat += 1;
        publish(fs, beat)?;
        if let Some(exit) = pause(fs, InjectionPoint::AfterBuffer(k as u32))? {
            return Ok(exit);
        }
    }
    let mut weekly_batches: Vec<(u16, Vec<Record>)> =
        (0..num_weeks).map(|w| (w as u16, Vec::new())).collect();
    for (k, buf) in weekly_buffers[shard_idx].iter().enumerate() {
        extend_batches(&mut weekly_batches, buf, num_weeks);
        beat += 1;
        publish(fs, beat)?;
        let point = InjectionPoint::AfterBuffer((cfg.emitters + k) as u32);
        if let Some(exit) = pause(fs, point)? {
            return Ok(exit);
        }
    }

    if let Some(exit) = pause(fs, InjectionPoint::PreCommit)? {
        return Ok(exit);
    }

    // Commit daily, then weekly. Each commit is atomic for its whole
    // window, so "already fully committed" is the only resume state a
    // predecessor can leave; skipping it makes healing idempotent.
    let mut daily_store =
        LogStore::open_on(fs.clone(), daily_dir(&cfg.root, cfg.shard)).map_err(store_io)?;
    if daily_store.committed_days().len() < num_days {
        daily_store.commit_days(&daily_batches).map_err(store_io)?;
    }
    registry.trace_span(run_ctx, "store.commit.daily", format!("days {num_days}"));
    beat += 1;
    publish(fs, beat)?;
    if let Some(exit) = pause(fs, InjectionPoint::MidCommit)? {
        return Ok(exit);
    }

    let mut weekly_store =
        LogStore::open_on(fs.clone(), weekly_dir(&cfg.root, cfg.shard)).map_err(store_io)?;
    if weekly_store.committed_days().len() < num_weeks {
        weekly_store.commit_days(&weekly_batches).map_err(store_io)?;
    }
    registry.trace_span(run_ctx, "store.commit.weekly", format!("weeks {num_weeks}"));
    beat += 1;
    publish(fs, beat)?;
    if let Some(exit) = pause(fs, InjectionPoint::PreExit)? {
        return Ok(exit);
    }

    export_trace(fs);
    Ok(WorkerExit::Completed)
}

/// The final beat a clean run of this topology publishes: alive + one
/// per buffer (both cadences) + one per store commit.
pub fn clean_beats(emitters: usize) -> u64 {
    1 + 2 * emitters as u64 + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipactive_logfmt::{read_lease, LeaseRead, SimFs};

    fn cfg(fs_root: &str, shard: u32) -> WorkerConfig {
        WorkerConfig {
            universe: UniverseConfig::tiny(0x5EED),
            root: PathBuf::from(fs_root),
            shard,
            shards: 2,
            emitters: 2,
            epoch: 1,
            attempt: 0,
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn worker_commits_both_cadences_and_beats_deterministically() {
        let fs = SimFs::new();
        let cfg = cfg("/run", 0);
        let exit =
            run_worker(&fs, &cfg, None, PauseStyle::ReturnEarly, &Registry::new()).unwrap();
        assert_eq!(exit, WorkerExit::Completed);
        let daily = LogStore::open_on(fs.clone(), daily_dir(&cfg.root, 0)).unwrap();
        assert_eq!(daily.committed_days().len(), cfg.universe.daily_days);
        let weekly = LogStore::open_on(fs.clone(), weekly_dir(&cfg.root, 0)).unwrap();
        assert_eq!(weekly.committed_days().len(), cfg.universe.weeks);
        match read_lease(&fs, &shard_dir(&cfg.root, 0), 0).unwrap() {
            LeaseRead::Held(l) => {
                assert_eq!(l.beat, clean_beats(2));
                assert_eq!(l.epoch, 1);
                assert_eq!(l.holder, holder_id(0, 0));
            }
            other => panic!("expected held lease, got {other:?}"),
        }
    }

    #[test]
    fn paused_worker_stops_with_the_scheduled_beat_and_respawn_heals() {
        let fs = SimFs::new();
        let cfg0 = cfg("/run", 1);
        let exit = run_worker(
            &fs,
            &cfg0,
            Some(InjectionPoint::MidCommit),
            PauseStyle::ReturnEarly,
            &Registry::new(),
        )
        .unwrap();
        assert_eq!(exit, WorkerExit::Paused(InjectionPoint::MidCommit));
        // Daily committed, weekly not: the mid-commit state.
        let daily = LogStore::open_on(fs.clone(), daily_dir(&cfg0.root, 1)).unwrap();
        assert_eq!(daily.committed_days().len(), cfg0.universe.daily_days);
        let weekly = LogStore::open_on(fs.clone(), weekly_dir(&cfg0.root, 1)).unwrap();
        assert!(weekly.committed_days().is_empty());
        // Successor grant finishes the job.
        let cfg1 = WorkerConfig { epoch: 2, attempt: 1, ..cfg0.clone() };
        let exit =
            run_worker(&fs, &cfg1, None, PauseStyle::ReturnEarly, &Registry::new()).unwrap();
        assert_eq!(exit, WorkerExit::Completed);
        let weekly = LogStore::open_on(fs.clone(), weekly_dir(&cfg0.root, 1)).unwrap();
        assert_eq!(weekly.committed_days().len(), cfg0.universe.weeks);
    }

    fn read_doc(fs: &SimFs, path: &Path) -> String {
        use std::io::Read as _;
        let mut buf = Vec::new();
        fs.open_read(path).unwrap().read_to_end(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn traced_grant_exports_its_span_tree_before_pausing_and_on_completion() {
        use ipactive_obs::trace::parse_trace_doc;
        use ipactive_obs::TraceId;

        let fs = SimFs::new();
        let reg = Registry::new();
        let tid = TraceId::mint(7, 1);
        // Span 1 plays the coordinator's grant span.
        let granted = reg.trace_span(TraceContext::root(tid), "coord.grant", "shard 0");
        let mut wcfg = cfg("/run", 0);
        wcfg.trace = granted;

        // Killed mid-commit: the exported tree already covers the
        // daily commit but not the weekly one.
        let exit = run_worker(
            &fs,
            &wcfg,
            Some(InjectionPoint::MidCommit),
            PauseStyle::ReturnEarly,
            &reg,
        )
        .unwrap();
        assert_eq!(exit, WorkerExit::Paused(InjectionPoint::MidCommit));
        let doc = read_doc(&fs, &trace_path(&wcfg.root, 0, 0));
        let (trace, spans) = parse_trace_doc(&doc).unwrap();
        assert_eq!(trace, tid.0);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"worker.run"));
        assert!(names.contains(&"store.commit.daily"));
        assert!(!names.contains(&"store.commit.weekly"), "killed before the weekly commit");

        // The healing grant continues the same trace in a fresh
        // registry (the process boundary), importing nothing: its
        // spans start after the handed-down parent seq.
        let reg2 = Registry::new();
        let wcfg2 = WorkerConfig { epoch: 2, attempt: 1, trace: granted, ..wcfg.clone() };
        let exit = run_worker(&fs, &wcfg2, None, PauseStyle::ReturnEarly, &reg2).unwrap();
        assert_eq!(exit, WorkerExit::Completed);
        let doc2 = read_doc(&fs, &trace_path(&wcfg.root, 0, 1));
        let (_, spans2) = parse_trace_doc(&doc2).unwrap();
        assert!(spans2.iter().all(|s| s.seq > granted.span), "worker seqs follow the grant span");
        assert!(spans2.iter().any(|s| s.name == "store.commit.weekly"));
    }
}
