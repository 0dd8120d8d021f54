//! The healing coordinator: grants shard leases, watches worker
//! health, and repairs or abandons what dead workers leave behind.
//!
//! One grant loop runs every collection: it queues `(shard, attempt)`
//! grants, holds up to [`CoordConfig::jobs`] of them, polls each until
//! it is done or dead, resolves the dead, and merges the shards'
//! stores. How a grant's worker runs is its launcher's business:
//!
//! * [`run_sim`] runs each grant in-process, to its end, on a
//!   [`SimFs`], modeling `kill -9` with [`SimFs::exit_process`] — the
//!   page cache survives, faults and op numbering reset. Kills can
//!   strike at protocol points (a [`KillPlan`]) or at *any single
//!   filesystem operation* (an [`OpKill`]), which is what makes
//!   exhaustive kill grids cheap.
//! * [`run_processes`] spawns each grant as a real OS process and
//!   `kill -9`s the scheduled victims: a [`KillMode::Kill`] victim
//!   freezes at its point and announces itself with a marker file; a
//!   [`KillMode::Stall`] victim freezes silently and must be caught by
//!   heartbeat stagnation (no beat movement for 200 polls of 25 ms).
//!
//! Either way a dead grant is resolved identically: read the corpse's
//! last heartbeat, journal the steal, `fsck --repair` both of its
//! stores, and regrant with the supervisor's [`RetryPolicy`] — or,
//! once retries are exhausted, record the loss as first-class
//! [`Coverage`](ipactive_core::Coverage) degradation (zeroed rows in
//! the merged grid plus a `quarantine/lost.why` sidecar), never as a
//! silently smaller dataset.

use crate::plan::{KillMode, KillPlan, KillSpec};
use crate::worker::{
    daily_dir, holder_id, marker_path, run_worker, shard_dir, trace_path, weekly_dir, PauseStyle,
    WorkerConfig, WorkerExit,
};
use ipactive_cdnsim::{collect_store_checked, Daily, RetryPolicy, UniverseConfig, Weekly};
use ipactive_core::{DailyDataset, WeeklyDataset};
use ipactive_logfmt::{
    fsck, read_lease, Fs, FsFile, FsckReport, Inject, Lease, LeaseError, LeaseRead, LogStore,
    RealFs, SimFs, StoreError,
};
use ipactive_obs::trace::parse_trace_doc;
use ipactive_obs::{Event, EventKind, Registry, TraceContext, TraceId};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The wait after a poll pass that resolved no grant.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Polls' worth of beat stagnation that wedge-kill a scheduled stall
/// victim; an unscheduled worker gets four times as long, so honest
/// slowness is never misread as a wedge.
const WEDGE_POLLS: u32 = 200;

/// One distributed run's shape: the universe to replay, where shard
/// directories live, and how many grants run at once.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Universe every worker replays (workers regenerate it from the
    /// same config, so no bytes cross the coordinator boundary).
    pub universe: UniverseConfig,
    /// Run root; `shard-SSSS/` directories live directly under it.
    pub root: PathBuf,
    /// Number of shards (= collector processes).
    pub shards: usize,
    /// Edge emitters per shard.
    pub emitters: usize,
    /// Regrant budget and backoff shape, shared with the in-process
    /// supervisor so both layers retry on the same terms.
    pub retry: RetryPolicy,
    /// Max grants held at once: concurrent worker processes for
    /// [`run_processes`]. [`run_sim`] runs each grant to its end as it
    /// is granted, so it is sequential whatever this says.
    pub jobs: usize,
}

impl CoordConfig {
    /// A config with default retries and one grant at a time.
    pub fn new(universe: UniverseConfig, root: PathBuf, shards: usize, emitters: usize) -> Self {
        CoordConfig { universe, root, shards, emitters, retry: RetryPolicy::default(), jobs: 1 }
    }
}

/// A kill scheduled at an exact filesystem operation ([`run_sim`]
/// only: only a [`SimFs`] can strike one): grant `(shard, attempt)`
/// dies the moment it issues its `at_op`-th operation. Sweeping
/// `at_op` over a clean run's op count kills a worker at *every*
/// reachable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpKill {
    /// Victim shard.
    pub shard: u32,
    /// Which grant of that shard dies.
    pub attempt: u32,
    /// Operation number (counted from the grant's start) that kills
    /// it.
    pub at_op: u64,
}

/// Per-shard account of how collection went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard.
    pub shard: u32,
    /// Grants issued (1 = finished on the first try).
    pub grants: u32,
    /// Whether retries were exhausted and the shard abandoned.
    pub lost: bool,
    /// Last heartbeat observed from the final grant.
    pub final_beat: u64,
}

/// The coordinator's result: the merged datasets (coverage-honest
/// about any abandoned shards) plus the per-shard ledger.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// Merged daily dataset across all shards.
    pub daily: DailyDataset,
    /// Merged weekly dataset across all shards.
    pub weekly: WeeklyDataset,
    /// One entry per shard, ascending.
    pub shard_reports: Vec<ShardReport>,
    /// Shards abandoned after retry exhaustion, ascending.
    pub lost_shards: Vec<u32>,
}

impl DistributedOutcome {
    /// Deterministic text summary (no paths, pids, or timings).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "distributed run: {} shards, {} lost\n",
            self.shard_reports.len(),
            self.lost_shards.len()
        ));
        for r in &self.shard_reports {
            out.push_str(&format!(
                "  shard {:04}: grants={} beat={}{}\n",
                r.shard,
                r.grants,
                r.final_beat,
                if r.lost { " LOST" } else { "" }
            ));
        }
        if let Some(cov) = &self.daily.coverage {
            out.push_str(&format!("  daily {}\n", cov.summary()));
        }
        if let Some(cov) = &self.weekly.coverage {
            out.push_str(&format!("  weekly {}\n", cov.summary()));
        }
        out
    }
}

fn store_io(e: StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Salt folded into the universe seed for per-grant trace ids, so
/// coordinator traces never collide with serve- or figure-minted ones
/// from the same seed.
const TRACE_SALT: u64 = 0xC0_0D17;

/// Mints the trace id for grant `(shard, attempt)` of a run — a pure
/// function of the universe seed and the grant's logical holder id,
/// so both launchers (and later inspection tooling) derive the same id.
pub fn grant_trace_id(universe_seed: u64, shard: u32, attempt: u32) -> TraceId {
    TraceId::mint(universe_seed ^ TRACE_SALT, holder_id(shard, attempt))
}

fn fsck_verdict(report: &FsckReport, cadence: &str) -> String {
    if report.is_healthy() {
        format!("{cadence} healthy")
    } else {
        format!(
            "{cadence} repaired: {} quarantined, {} orphans, {} stale manifests, {} tmp swept",
            report.quarantined.len(),
            report.orphans_removed.len(),
            report.stale_manifests.len(),
            report.tmp_swept.len()
        )
    }
}

/// What a poll saw of a held grant.
#[derive(Debug, Clone, Copy)]
enum Seen {
    /// Still at work.
    Running,
    /// Ended by itself; `clean` if it reported success.
    Exited { clean: bool },
    /// Killed at its pause point or for a wedge, for the journaled
    /// reason.
    Killed(&'static str),
}

/// How a grant's worker runs: the grant loop decides everything about
/// a grant, a launcher starts its worker, says what became of it, and
/// keeps time.
trait Launcher {
    /// A held grant; dropping one ends its worker.
    type Grant;
    /// Starts the worker of `grant`, whose scheduled death is `kill`.
    fn launch(
        &self,
        grant: &WorkerConfig,
        kill: Option<&KillSpec>,
        registry: &Registry,
    ) -> io::Result<Self::Grant>;
    /// What became of the worker; `beat` reads its last published beat.
    fn poll(&self, grant: &mut Self::Grant, beat: &dyn Fn() -> u64) -> io::Result<Seen>;
    /// Lets `d` pass.
    fn wait(&self, d: Duration);
}

/// One run's coordinator: the filesystem it reads and repairs, the
/// run's shape, and the registry it journals and traces into.
struct Coordinator<'a, F> {
    fs: &'a F,
    cfg: &'a CoordConfig,
    registry: &'a Registry,
}

impl<F: Fs> Coordinator<'_, F> {
    /// The grant loop: grants every shard, holds up to `cfg.jobs`
    /// grants, resolves each as done or dead (regrant after a backoff,
    /// or honest loss), and merges the shards' stores. It waits only
    /// after a poll pass that resolved nothing.
    fn drive<L: Launcher>(&self, launcher: &L, plan: &KillPlan) -> io::Result<DistributedOutcome> {
        let (cfg, registry) = (self.cfg, self.registry);
        self.fs.create_dir_all(&cfg.root)?;
        let mut queue: VecDeque<(u32, u32)> = (0..cfg.shards as u32).map(|s| (s, 0)).collect();
        // Dropped on every return, `?` included, ending each worker
        // still held.
        let mut held: Vec<(u32, u32, L::Grant)> = Vec::new();
        let mut shard_reports: Vec<ShardReport> = Vec::new();
        let mut lost_shards: Vec<u32> = Vec::new();
        while shard_reports.len() < cfg.shards {
            while held.len() < cfg.jobs.max(1) {
                let Some((shard, attempt)) = queue.pop_front() else { break };
                let epoch = u64::from(attempt) + 1;
                registry.emit(
                    Event::new(EventKind::WorkerSpawn).shard(shard).attempt(attempt).offset(epoch),
                );
                let grant = WorkerConfig {
                    universe: cfg.universe.clone(),
                    root: cfg.root.clone(),
                    shard,
                    shards: cfg.shards,
                    emitters: cfg.emitters,
                    epoch,
                    attempt,
                    trace: self.open_grant_trace(shard, attempt, epoch),
                };
                let kill = plan.for_grant(shard, attempt);
                held.push((shard, attempt, launcher.launch(&grant, kill, registry)?));
            }
            let mut resolved = false;
            let mut i = 0;
            while i < held.len() {
                let (shard, attempt) = (held[i].0, held[i].1);
                let beat = || self.last_beat(shard, attempt);
                let died = match launcher.poll(&mut held[i].2, &beat)? {
                    Seen::Running => {
                        i += 1;
                        continue;
                    }
                    Seen::Exited { clean } => {
                        (!clean || !self.stores_complete(shard)).then_some("holder exited")
                    }
                    Seen::Killed(reason) => Some(reason),
                };
                held.remove(i);
                resolved = true;
                let beat = beat();
                let event = Event::new(EventKind::WorkerHeartbeat).shard(shard).attempt(attempt);
                registry.emit(event.offset(beat));
                self.import_worker_trace(shard, attempt);
                let lost = match died {
                    None => false,
                    Some(reason) if self.resolve_dead(shard, attempt, reason)? => {
                        launcher.wait(cfg.retry.backoff(shard as usize, 0, attempt + 1));
                        queue.push_back((shard, attempt + 1));
                        continue;
                    }
                    Some(_) => {
                        lost_shards.push(shard);
                        true
                    }
                };
                let grants = attempt + 1;
                shard_reports.push(ShardReport { shard, grants, lost, final_beat: beat });
            }
            if !resolved {
                launcher.wait(POLL_INTERVAL);
            }
        }
        shard_reports.sort_by_key(|r| r.shard);
        lost_shards.sort_unstable();
        let (daily, weekly) = self.merge_shards(&lost_shards)?;
        Ok(DistributedOutcome { daily, weekly, shard_reports, lost_shards })
    }

    /// Opens the grant's trace with a `coord.grant` root span (seq 1)
    /// and returns the context workers hang their spans off.
    fn open_grant_trace(&self, shard: u32, attempt: u32, epoch: u64) -> TraceContext {
        let tid = grant_trace_id(self.cfg.universe.seed, shard, attempt);
        self.registry.trace_span(
            TraceContext::root(tid),
            "coord.grant",
            format!("shard {shard} attempt {attempt} epoch {epoch}"),
        )
    }

    /// Stitches a worker-exported span tree (its `trace-AA.json`) into
    /// the coordinator's trace store. Import is idempotent by sequence
    /// number, so an in-process grant (which shares a registry with
    /// its coordinator) and a worker process (which does not) both end
    /// up with one coherent tree. Best-effort: a missing or torn file
    /// just means the worker died before its first export.
    fn import_worker_trace(&self, shard: u32, attempt: u32) {
        use std::io::Read as _;
        let path = trace_path(&self.cfg.root, shard, attempt);
        let mut buf = Vec::new();
        let Ok(mut f) = self.fs.open_read(&path) else { return };
        if f.read_to_end(&mut buf).is_err() {
            return;
        }
        if let Ok(doc) = String::from_utf8(buf) {
            if let Ok((trace, spans)) = parse_trace_doc(&doc) {
                self.registry.import_trace(trace, spans);
            }
        }
    }

    /// Reads the beat the grant `(shard, attempt)` last published, or
    /// 0 if its lease never landed (or a different grant's lease is
    /// visible). A lease file that *exists but fails verification* is
    /// not silently conflated with "no lease": the corrupt file is
    /// moved into the shard's `quarantine/` directory with a `.why`
    /// sidecar and journaled, and only then does healing proceed from
    /// beat 0 — the same provenance discipline as `lost.why`.
    fn last_beat(&self, shard: u32, attempt: u32) -> u64 {
        match read_lease(self.fs, &shard_dir(&self.cfg.root, shard), shard) {
            Ok(LeaseRead::Held(l)) if l.holder == holder_id(shard, attempt) => l.beat,
            Ok(LeaseRead::Corrupt(err)) => {
                self.quarantine_corrupt_lease(shard, attempt, &err);
                0
            }
            _ => 0,
        }
    }

    /// Preserves the evidence of a corrupt lease: renames the file
    /// into the shard's `quarantine/` directory (which also makes the
    /// next poll read `Absent` instead of re-tripping on the same
    /// corpse), writes a `.why` sidecar naming the verification
    /// failure, and emits a `Quarantine` journal event. Best-effort on
    /// purpose — quarantine bookkeeping must never block healing.
    fn quarantine_corrupt_lease(&self, shard: u32, attempt: u32, err: &LeaseError) {
        let fs = self.fs;
        let sdir = shard_dir(&self.cfg.root, shard);
        let qdir = sdir.join("quarantine");
        let name = Lease::file_name(shard);
        let moved = fs
            .create_dir_all(&qdir)
            .and_then(|()| fs.rename(&Lease::path(&sdir, shard), &qdir.join(&name)))
            .is_ok();
        let sidecar = (|| {
            let mut why = fs.create(&qdir.join(format!("{name}.why")))?;
            why.write_all(
                format!("shard {shard:04} attempt {attempt}: lease failed verification: {err}\n")
                    .as_bytes(),
            )?;
            why.sync_all()
        })()
        .is_ok();
        self.registry.emit(
            Event::new(EventKind::Quarantine).shard(shard).attempt(attempt).detail(format!(
                "corrupt lease {name}: {err}{}",
                if moved && sidecar { "" } else { " (quarantine bookkeeping incomplete)" }
            )),
        );
    }

    /// The dead-grant resolution, after the loop journaled the
    /// corpse's last beat and stitched its trace: journal the steal,
    /// repair both stores, and decide regrant vs loss. Returns `true`
    /// if the shard should be regranted.
    fn resolve_dead(&self, shard: u32, attempt: u32, reason: &str) -> io::Result<bool> {
        let (fs, cfg, registry) = (self.fs, self.cfg, self.registry);
        registry.emit(
            Event::new(EventKind::LeaseSteal).shard(shard).attempt(attempt).detail(reason),
        );
        // The post-mortem hangs off the grant, after the worker's own
        // spans.
        registry.trace_span(
            TraceContext { trace: grant_trace_id(cfg.universe.seed, shard, attempt), span: 1 },
            "coord.steal",
            reason,
        );
        for (dir, cadence) in
            [(daily_dir(&cfg.root, shard), "daily"), (weekly_dir(&cfg.root, shard), "weekly")]
        {
            let report = fsck(fs, &dir, true).map_err(store_io)?;
            registry.emit(
                Event::new(EventKind::FsckVerdict)
                    .shard(shard)
                    .attempt(attempt)
                    .detail(fsck_verdict(&report, cadence)),
            );
        }
        if attempt < cfg.retry.max_retries {
            return Ok(true);
        }
        // Retries exhausted: the loss becomes first-class state — a
        // journal event plus a quarantine sidecar in the shard
        // directory explaining why its rows are zero in the merged
        // coverage grid.
        registry.emit(
            Event::new(EventKind::ShardLost)
                .shard(shard)
                .attempt(attempt)
                .detail("retries exhausted"),
        );
        let qdir = shard_dir(&cfg.root, shard).join("quarantine");
        fs.create_dir_all(&qdir)?;
        let mut why = fs.create(&qdir.join("lost.why"))?;
        why.write_all(
            format!("shard {shard:04} abandoned after {} grants: retries exhausted\n", attempt + 1)
                .as_bytes(),
        )?;
        why.sync_all()?;
        Ok(false)
    }

    /// Whether both of the shard's stores hold their full windows.
    fn stores_complete(&self, shard: u32) -> bool {
        let full = |dir: PathBuf, want: usize| match LogStore::open_on(self.fs.clone(), dir) {
            Ok(store) => store.committed_days().len() == want,
            Err(_) => false,
        };
        full(daily_dir(&self.cfg.root, shard), self.cfg.universe.daily_days)
            && full(weekly_dir(&self.cfg.root, shard), self.cfg.universe.weeks)
    }

    /// Folds every shard's stores into one builder per cadence, in
    /// shard order, and finishes each once. A lost shard has no store
    /// to read and contributes a zeroed coverage row — the grid stays
    /// `shards × window` so degradation is visible, not silent.
    fn merge_shards(&self, lost: &[u32]) -> io::Result<(DailyDataset, WeeklyDataset)> {
        let cfg = self.cfg;
        let stores = |dir: fn(&Path, u32) -> PathBuf| {
            (0..cfg.shards as u32)
                .map(|shard| {
                    if lost.contains(&shard) {
                        return Ok(None);
                    }
                    LogStore::open_on(self.fs.clone(), dir(&cfg.root, shard)).map(Some)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(store_io)
        };
        let (daily, _, _) =
            collect_store_checked::<Daily>(&stores(daily_dir)?, cfg.universe.daily_days)
                .map_err(store_io)?;
        let (weekly, _, _) =
            collect_store_checked::<Weekly>(&stores(weekly_dir)?, cfg.universe.weeks)
                .map_err(store_io)?;
        Ok((daily, weekly))
    }
}

/// Runs each grant to its end inside [`Launcher::launch`] on a shared
/// [`SimFs`]: every poll finds its grant over, so the loop never
/// waits, and time is logical.
struct InProcess<'a> {
    fs: &'a SimFs,
    op_kills: &'a [OpKill],
}

impl Launcher for InProcess<'_> {
    type Grant = Seen;

    fn launch(
        &self,
        grant: &WorkerConfig,
        kill: Option<&KillSpec>,
        registry: &Registry,
    ) -> io::Result<Seen> {
        // A fresh process: no inherited faults, op numbers from 0.
        self.fs.exit_process();
        if let Some(k) =
            self.op_kills.iter().find(|k| k.shard == grant.shard && k.attempt == grant.attempt)
        {
            // The kill is a power-cut *fault* (ops start failing at
            // `at_op`) followed by `exit_process` below — which,
            // unlike a real power cut, keeps the page cache. That is
            // exactly `kill -9` mid-syscall.
            let _ = self.fs.clone().with_fault(k.at_op, Inject::PowerCut);
        }
        let pause_at = kill.map(|k| k.point);
        let exit = run_worker(self.fs, grant, pause_at, PauseStyle::ReturnEarly, registry);
        // The grant is over either way; clear latched faults so
        // coordinator I/O runs on a healthy filesystem.
        self.fs.exit_process();
        // A paused worker is the scheduled victim, which cannot spin
        // in-process: its kill mode names the death.
        Ok(match exit {
            Ok(WorkerExit::Completed) => Seen::Exited { clean: true },
            Ok(_) if kill.is_some_and(|k| k.mode == KillMode::Stall) => {
                Seen::Killed("heartbeat stalled")
            }
            Ok(_) => Seen::Killed("holder exited"),
            Err(_) => Seen::Exited { clean: false },
        })
    }

    fn poll(&self, grant: &mut Seen, _beat: &dyn Fn() -> u64) -> io::Result<Seen> {
        Ok(*grant)
    }

    fn wait(&self, _d: Duration) {}
}

/// Spawns each grant as `worker_cmd + extra_args + structural args`.
struct Processes<'a> {
    worker_cmd: &'a [String],
    extra_args: &'a [String],
}

/// A worker process. Dropping it kills and reaps the process (a no-op
/// once it has been reaped), so no return path orphans a worker.
struct WorkerProcess {
    child: Child,
    marker: PathBuf,
    stall_victim: bool,
    /// The highest beat seen, and since when.
    beat: u64,
    since: Instant,
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Launcher for Processes<'_> {
    type Grant = WorkerProcess;

    fn launch(
        &self,
        grant: &WorkerConfig,
        kill: Option<&KillSpec>,
        _registry: &Registry,
    ) -> io::Result<WorkerProcess> {
        // The worker continues the grant's trace from `--parent-span`
        // in its own registry and exports it for stitching.
        let mut cmd = Command::new(&self.worker_cmd[0]);
        cmd.args(&self.worker_cmd[1..])
            .args(self.extra_args)
            .arg("--root")
            .arg(&grant.root)
            .args(["--shard", &grant.shard.to_string()])
            .args(["--shards", &grant.shards.to_string()])
            .args(["--emitters", &grant.emitters.to_string()])
            .args(["--epoch", &grant.epoch.to_string()])
            .args(["--attempt", &grant.attempt.to_string()])
            .args(["--trace-id", &grant.trace.trace.to_hex()])
            .args(["--parent-span", &grant.trace.span.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(k) = kill {
            cmd.args(["--pause-at", &k.point.to_string()]);
            if k.mode == KillMode::Stall {
                cmd.arg("--stall");
            }
        }
        Ok(WorkerProcess {
            child: cmd.spawn()?,
            marker: marker_path(&grant.root, grant.shard, grant.attempt),
            stall_victim: kill.is_some_and(|k| k.mode == KillMode::Stall),
            beat: 0,
            since: Instant::now(),
        })
    }

    fn poll(&self, w: &mut WorkerProcess, beat: &dyn Fn() -> u64) -> io::Result<Seen> {
        if let Some(status) = w.child.try_wait()? {
            return Ok(Seen::Exited { clean: status.success() });
        }
        let reason = if RealFs.exists(&w.marker) {
            // The victim announced it reached its pause point: answer
            // with the real thing. SIGKILL, no shutdown.
            "holder exited"
        } else {
            let now = beat();
            if now > w.beat {
                (w.beat, w.since) = (now, Instant::now());
            }
            let polls = if w.stall_victim { WEDGE_POLLS } else { 4 * WEDGE_POLLS };
            if w.since.elapsed() < POLL_INTERVAL * polls {
                return Ok(Seen::Running);
            }
            "heartbeat stalled"
        };
        w.child.kill()?;
        w.child.wait()?;
        Ok(Seen::Killed(reason))
    }

    fn wait(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Runs the whole distributed collection in-process on `fs`, one
/// grant at a time. Protocol-point kills come from `plan` (both
/// [`KillMode`]s stop the worker at its point), op-level kills from
/// `op_kills`; everything journaled and written is a deterministic
/// function of `(cfg, plan, op_kills)`.
pub fn run_sim(
    fs: &SimFs,
    cfg: &CoordConfig,
    plan: &KillPlan,
    op_kills: &[OpKill],
    registry: &Registry,
) -> io::Result<DistributedOutcome> {
    Coordinator { fs, cfg, registry }.drive(&InProcess { fs, op_kills }, plan)
}

/// Runs the distributed collection as real OS processes, up to
/// `cfg.jobs` at once. Each grant is `worker_cmd + extra_args +
/// structural args` (root, shard topology, epoch/attempt, trace and
/// any scheduled pause flags); `extra_args` threads universe
/// parameters the worker CLI understands (e.g. `--scale tiny --seed
/// 2015`). On an error return every worker still running is killed
/// and reaped first.
pub fn run_processes(
    cfg: &CoordConfig,
    plan: &KillPlan,
    worker_cmd: &[String],
    extra_args: &[String],
    registry: &Registry,
) -> io::Result<DistributedOutcome> {
    assert!(!worker_cmd.is_empty(), "worker_cmd must name an executable");
    Coordinator { fs: &RealFs, cfg, registry }.drive(&Processes { worker_cmd, extra_args }, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{InjectionPoint, KillSpec};
    use crate::worker::clean_beats;

    fn sim_cfg(root: &str, shards: usize) -> CoordConfig {
        CoordConfig::new(UniverseConfig::tiny(0x5EED), PathBuf::from(root), shards, 2)
    }

    use ipactive_obs::SnapshotMode;

    fn counts(registry: &Registry) -> Vec<(EventKind, usize)> {
        let snap = registry.snapshot(SnapshotMode::Deterministic);
        [
            EventKind::WorkerSpawn,
            EventKind::WorkerHeartbeat,
            EventKind::LeaseSteal,
            EventKind::FsckVerdict,
            EventKind::ShardLost,
        ]
        .into_iter()
        .map(|k| (k, snap.events_of(k).count()))
        .collect()
    }

    #[test]
    fn corrupt_lease_is_quarantined_with_provenance_not_silently_zeroed() {
        let fs = SimFs::new();
        let cfg = sim_cfg("/run", 1);
        let reg = Registry::new();
        let sdir = shard_dir(&cfg.root, 0);
        fs.create_dir_all(&sdir).unwrap();
        let lease_path = Lease::path(&sdir, 0);
        let mut f = fs.create(&lease_path).unwrap();
        f.write_all(b"IPLSLE1\x0athis is not a lease").unwrap();
        f.sync_all().unwrap();

        let coord = Coordinator { fs: &fs, cfg: &cfg, registry: &reg };
        assert_eq!(coord.last_beat(0, 0), 0, "healing proceeds from beat 0");
        // The corpse was moved aside, with a sidecar naming the
        // verification failure — evidence preserved, not destroyed.
        assert!(!fs.exists(&lease_path), "corrupt lease must be moved, not left in place");
        let qdir = sdir.join("quarantine");
        assert!(fs.exists(&qdir.join(Lease::file_name(0))));
        assert!(fs.exists(&qdir.join(format!("{}.why", Lease::file_name(0)))));
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.events_of(EventKind::Quarantine).count(), 1);

        // The rename makes the next poll read `Absent`: beat stays 0
        // and the quarantine is not re-tripped on the same corpse.
        assert_eq!(coord.last_beat(0, 0), 0);
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.events_of(EventKind::Quarantine).count(), 1);
    }

    #[test]
    fn undisturbed_sim_run_completes_every_shard_with_full_coverage() {
        let fs = SimFs::new();
        let cfg = sim_cfg("/run", 2);
        let reg = Registry::new();
        let out = run_sim(&fs, &cfg, &KillPlan::none(), &[], &reg).unwrap();
        assert!(out.lost_shards.is_empty());
        assert!(out.daily.coverage.as_ref().unwrap().is_complete());
        assert!(out.weekly.coverage.as_ref().unwrap().is_complete());
        for r in &out.shard_reports {
            assert_eq!(r.grants, 1);
            assert_eq!(r.final_beat, clean_beats(cfg.emitters));
        }
        assert_eq!(
            counts(&reg),
            vec![
                (EventKind::WorkerSpawn, 2),
                (EventKind::WorkerHeartbeat, 2),
                (EventKind::LeaseSteal, 0),
                (EventKind::FsckVerdict, 0),
                (EventKind::ShardLost, 0),
            ]
        );
    }

    #[test]
    fn killed_grant_is_healed_and_matches_undisturbed_run() {
        let undisturbed = {
            let fs = SimFs::new();
            let cfg = sim_cfg("/run", 2);
            run_sim(&fs, &cfg, &KillPlan::none(), &[], &Registry::new()).unwrap()
        };
        for point in [
            InjectionPoint::Early,
            InjectionPoint::PreCommit,
            InjectionPoint::MidCommit,
            InjectionPoint::PreExit,
        ] {
            let fs = SimFs::new();
            let cfg = sim_cfg("/run", 2);
            let plan = KillPlan::none().with(KillSpec {
                shard: 1,
                attempt: 0,
                point,
                mode: KillMode::Kill,
            });
            let reg = Registry::new();
            let out = run_sim(&fs, &cfg, &plan, &[], &reg).unwrap();
            assert!(out.lost_shards.is_empty(), "{point}");
            assert_eq!(out.daily, undisturbed.daily, "{point}");
            assert_eq!(out.weekly, undisturbed.weekly, "{point}");
            assert!(out.daily.coverage.as_ref().unwrap().is_complete(), "{point}");
            assert_eq!(out.shard_reports[1].grants, 2, "{point}");
            let snap = reg.snapshot(SnapshotMode::Deterministic);
            assert_eq!(snap.events_of(EventKind::LeaseSteal).count(), 1, "{point}");
            assert_eq!(snap.events_of(EventKind::FsckVerdict).count(), 2, "{point}");
        }
    }

    #[test]
    fn permanent_kill_exhausts_retries_into_honest_coverage_loss() {
        let fs = SimFs::new();
        let mut cfg = sim_cfg("/run", 2);
        cfg.retry = RetryPolicy::instant(2);
        let plan = KillPlan::none().permanent(0, InjectionPoint::PreCommit);
        let reg = Registry::new();
        let out = run_sim(&fs, &cfg, &plan, &[], &reg).unwrap();
        assert_eq!(out.lost_shards, vec![0]);
        assert_eq!(out.shard_reports[0].grants, 3, "initial grant + 2 retries");
        assert!(out.shard_reports[0].lost);
        let cov = out.daily.coverage.as_ref().unwrap();
        assert!(!cov.is_complete());
        assert_eq!(cov.degraded_shards(), vec![0], "exactly the lost shard");
        assert_eq!(out.weekly.coverage.as_ref().unwrap().degraded_shards(), vec![0]);
        assert!(cov.overall() > 0.0, "the surviving shard still counts");
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.events_of(EventKind::ShardLost).count(), 1);
        assert_eq!(snap.events_of(EventKind::WorkerSpawn).count(), 4, "3 grants + shard 1");
        assert!(fs.exists(&shard_dir(&cfg.root, 0).join("quarantine/lost.why")));
    }

    #[test]
    fn healed_grants_stitch_one_trace_per_grant_deterministically() {
        let plan = KillPlan::none().with(KillSpec {
            shard: 1,
            attempt: 0,
            point: InjectionPoint::MidCommit,
            mode: KillMode::Kill,
        });
        let fs = SimFs::new();
        let cfg = sim_cfg("/run", 2);
        let reg = Registry::new();
        run_sim(&fs, &cfg, &plan, &[], &reg).unwrap();

        // The killed grant is one stitched tree: grant → worker's
        // partial progress → post-mortem steal, seqs ascending.
        let spans = reg.trace_spans(grant_trace_id(cfg.universe.seed, 1, 0).0).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.first(), Some(&"coord.grant"));
        assert!(names.contains(&"worker.run"));
        assert!(names.contains(&"store.commit.daily"), "{names:?}");
        assert!(!names.contains(&"store.commit.weekly"), "killed mid-commit: {names:?}");
        assert!(names.contains(&"coord.steal"));
        assert_eq!(spans[0].seq, 1);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq), "seqs ascend: {spans:?}");

        // The healing grant is its own trace and ran to completion.
        let spans1 = reg.trace_spans(grant_trace_id(cfg.universe.seed, 1, 1).0).unwrap();
        assert!(spans1.iter().any(|s| s.name == "store.commit.weekly"));

        // The whole trace plane reproduces byte-for-byte.
        let reg2 = Registry::new();
        run_sim(&SimFs::new(), &sim_cfg("/run", 2), &plan, &[], &reg2).unwrap();
        assert_eq!(reg.traces_json(), reg2.traces_json());
    }

    #[test]
    fn op_level_kill_heals_exactly() {
        let undisturbed = {
            let fs = SimFs::new();
            let cfg = sim_cfg("/run", 2);
            run_sim(&fs, &cfg, &KillPlan::none(), &[], &Registry::new()).unwrap()
        };
        for at_op in [1u64, 5, 20, 60] {
            let fs = SimFs::new();
            let cfg = sim_cfg("/run", 2);
            let kills = [OpKill { shard: 0, attempt: 0, at_op }];
            let out = run_sim(&fs, &cfg, &KillPlan::none(), &kills, &Registry::new()).unwrap();
            assert!(out.lost_shards.is_empty(), "op {at_op}");
            assert_eq!(out.daily, undisturbed.daily, "op {at_op}");
            assert_eq!(out.weekly, undisturbed.weekly, "op {at_op}");
        }
    }
}
