//! Process-level crash harness: real workers, real `kill -9`.
//!
//! These tests drive [`ipactive_coord::run_processes`] against the
//! `repro` binary's hidden `worker` mode — separate OS processes
//! committing leased store pairs on the real filesystem — and murder
//! scheduled victims with genuine SIGKILL. The contract under test is
//! the repo's distributed-collection headline:
//!
//! > For any seeded kill schedule, the merged dataset is either
//! > bit-identical to the undisturbed (in-process) build, or
//! > coverage-honest about exactly the shards that were lost —
//! > deterministically.
//!
//! No wall-clock assertion anywhere: kills trigger on worker-written
//! marker files, stalls on heartbeat *stagnation* (a beat that has not
//! moved for far longer than any honest gap), so the suite cannot
//! flake on a slow machine. Each cell is also run through the
//! in-process launcher ([`ipactive_coord::run_sim`]) on the same
//! config, which must tell the same story byte for byte: that is what
//! lets the in-process kill grid stand in for real processes.

use ipactive_cdnsim::{shard_of, RetryPolicy, Universe, UniverseConfig};
use ipactive_coord::{
    run_processes, run_sim, shard_dir, CoordConfig, DistributedOutcome, InjectionPoint, KillMode,
    KillPlan, KillSpec,
};
use ipactive_logfmt::SimFs;
use ipactive_obs::{EventKind, Registry, SnapshotMode};
use std::path::PathBuf;

const SEED: u64 = 2015;

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_repro").to_string(), "worker".to_string()]
}

fn extra_args() -> Vec<String> {
    vec!["--seed".into(), SEED.to_string(), "--scale".into(), "tiny".into()]
}

fn fixture_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ipactive-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(root: PathBuf, shards: usize, jobs: usize) -> CoordConfig {
    let mut cfg = CoordConfig::new(UniverseConfig::tiny(SEED), root, shards, 2);
    cfg.jobs = jobs;
    cfg
}

fn run(tag: &str, shards: usize, jobs: usize, plan: &KillPlan) -> (DistributedOutcome, Registry) {
    let root = fixture_root(tag);
    let registry = Registry::new();
    let out = run_processes(&cfg(root.clone(), shards, jobs), plan, &worker_cmd(), &extra_args(), &registry)
        .expect("distributed run failed");
    let _ = std::fs::remove_dir_all(&root);
    (out, registry)
}

/// Runs `cfg` and `plan` again through the in-process launcher and
/// asserts it ends where the process run `(out, reg)` ended: the same
/// render, datasets and coverage, the same deterministic journal and
/// the same stitched traces.
fn assert_in_process_run_matches(
    tag: &str,
    cfg: &CoordConfig,
    plan: &KillPlan,
    out: &DistributedOutcome,
    reg: &Registry,
) {
    let sim_reg = Registry::new();
    let sim = run_sim(&SimFs::new(), cfg, plan, &[], &sim_reg).expect("in-process run failed");
    assert_eq!(sim.render(), out.render(), "{tag}: render diverged in-process");
    assert_eq!(sim.daily, out.daily, "{tag}: daily diverged in-process");
    assert_eq!(sim.weekly, out.weekly, "{tag}: weekly diverged in-process");
    assert_eq!(sim.daily.coverage, out.daily.coverage, "{tag}: daily coverage diverged");
    assert_eq!(sim.weekly.coverage, out.weekly.coverage, "{tag}: weekly coverage diverged");
    assert_eq!(
        sim_reg.snapshot(SnapshotMode::Deterministic).to_json(),
        reg.snapshot(SnapshotMode::Deterministic).to_json(),
        "{tag}: journal diverged in-process"
    );
    assert_eq!(sim_reg.traces_json(), reg.traces_json(), "{tag}: traces diverged in-process");
}

fn event_counts(registry: &Registry) -> Vec<(String, usize)> {
    let snap = registry.snapshot(SnapshotMode::Deterministic);
    [
        EventKind::WorkerSpawn,
        EventKind::WorkerHeartbeat,
        EventKind::LeaseSteal,
        EventKind::FsckVerdict,
        EventKind::ShardLost,
    ]
    .into_iter()
    .map(|k| (k.as_str().to_string(), snap.events_of(k).count()))
    .collect()
}

/// The CI kill matrix, in-tree: {crash-early, crash-mid-commit,
/// stall} victims are SIGKILLed at their announced pause points (or
/// wedge-killed on beat stagnation), healed by regrant, and the
/// merged result must be bit-identical to the direct in-process
/// build — same blocks, same counts, full coverage — and each cell
/// must end exactly where the in-process launcher ends it.
#[test]
fn kill_matrix_heals_to_the_in_process_datasets() {
    let universe = Universe::generate(UniverseConfig::tiny(SEED));
    let ref_daily = universe.build_daily();
    let ref_weekly = universe.build_weekly();

    let matrix: [(&str, KillSpec); 3] = [
        ("early", KillSpec {
            shard: 1,
            attempt: 0,
            point: InjectionPoint::Early,
            mode: KillMode::Kill,
        }),
        ("midcommit", KillSpec {
            shard: 1,
            attempt: 0,
            point: InjectionPoint::MidCommit,
            mode: KillMode::Kill,
        }),
        ("stall", KillSpec {
            shard: 1,
            attempt: 0,
            point: InjectionPoint::PreCommit,
            mode: KillMode::Stall,
        }),
    ];
    for (tag, spec) in matrix {
        let plan = KillPlan::none().with(spec);
        let tag_root = format!("matrix-{tag}");
        let (out, reg) = run(&tag_root, 2, 2, &plan);
        assert!(out.lost_shards.is_empty(), "{tag}: shard lost");
        assert_eq!(out.daily, ref_daily, "{tag}: daily diverged from in-process build");
        assert_eq!(out.weekly, ref_weekly, "{tag}: weekly diverged from in-process build");
        assert!(out.daily.coverage.as_ref().unwrap().is_complete(), "{tag}");
        assert!(out.weekly.coverage.as_ref().unwrap().is_complete(), "{tag}");
        assert_eq!(out.shard_reports[1].grants, 2, "{tag}: expected exactly one regrant");
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        let steals: Vec<_> = snap.events_of(EventKind::LeaseSteal).collect();
        assert_eq!(steals.len(), 1, "{tag}");
        let want = match spec.mode {
            KillMode::Kill => "holder exited",
            KillMode::Stall => "heartbeat stalled",
        };
        assert_eq!(steals[0].detail, want, "{tag}");
        assert_eq!(snap.events_of(EventKind::FsckVerdict).count(), 2, "{tag}");
        let same_cfg = cfg(fixture_root(&tag_root), 2, 2);
        assert_in_process_run_matches(tag, &same_cfg, &plan, &out, &reg);
    }
}

/// Retry exhaustion in real processes: a shard whose every grant is
/// SIGKILLed ends as honest, first-class loss — zeroed coverage rows
/// for exactly that shard, a `lost.why` sidecar, a `shard_lost`
/// journal event — while the surviving shard's blocks are complete
/// and correct.
#[test]
fn permanently_killed_shard_becomes_honest_coverage_loss() {
    let root = fixture_root("permanent");
    let registry = Registry::new();
    let mut cfg = cfg(root.clone(), 2, 2);
    cfg.retry = RetryPolicy {
        max_retries: 1,
        ..RetryPolicy::instant(1)
    };
    let plan = KillPlan::none().permanent(0, InjectionPoint::PreCommit);
    let out = run_processes(&cfg, &plan, &worker_cmd(), &extra_args(), &registry)
        .expect("distributed run failed");

    assert_eq!(out.lost_shards, vec![0]);
    assert_eq!(out.shard_reports[0].grants, 2, "initial grant + one retry");
    assert!(out.shard_reports[0].lost);
    let cov = out.daily.coverage.as_ref().unwrap();
    assert_eq!(cov.degraded_shards(), vec![0], "exactly the killed shard is degraded");
    assert_eq!(out.weekly.coverage.as_ref().unwrap().degraded_shards(), vec![0]);
    // Every surviving block belongs to the surviving shard: the loss
    // removed shard 0's partition wholesale, nothing else.
    let universe = Universe::generate(UniverseConfig::tiny(SEED));
    let ref_daily = universe.build_daily();
    assert!(!out.daily.blocks.is_empty(), "surviving shard contributed data");
    for rec in &out.daily.blocks {
        assert_eq!(shard_of(rec.block, 2), 1, "block {} from the lost shard leaked", rec.block);
    }
    let expect_survivors =
        ref_daily.blocks.iter().filter(|r| shard_of(r.block, 2) == 1).count();
    assert_eq!(out.daily.blocks.len(), expect_survivors, "survivor partition incomplete");

    let why = std::fs::read_to_string(shard_dir(&root, 0).join("quarantine/lost.why"))
        .expect("lost.why sidecar");
    assert_eq!(why, "shard 0000 abandoned after 2 grants: retries exhausted\n");
    let snap = registry.snapshot(SnapshotMode::Deterministic);
    assert_eq!(snap.events_of(EventKind::ShardLost).count(), 1);
    let _ = std::fs::remove_dir_all(&root);
    assert_in_process_run_matches("permanent", &cfg, &plan, &out, &registry);
}

/// Coordinator determinism (the flake-proofing contract): the same
/// seed and kill schedule produce identical merged datasets, coverage
/// grids, per-shard ledgers, and journal event counts — across
/// reruns AND across `jobs = 1` vs `jobs = 4`.
#[test]
fn same_seed_and_kill_schedule_is_deterministic_across_reruns_and_jobs() {
    let plan = KillPlan::none()
        .with(KillSpec {
            shard: 1,
            attempt: 0,
            point: InjectionPoint::MidCommit,
            mode: KillMode::Kill,
        })
        .with(KillSpec {
            shard: 2,
            attempt: 0,
            point: InjectionPoint::Early,
            mode: KillMode::Stall,
        });
    let runs: Vec<(DistributedOutcome, Registry)> = [("det-a", 1), ("det-b", 1), ("det-c", 4)]
        .into_iter()
        .map(|(tag, jobs)| run(tag, 4, jobs, &plan))
        .collect();
    let (base, base_reg) = &runs[0];
    assert!(base.lost_shards.is_empty());
    assert_eq!(base.shard_reports[1].grants, 2);
    assert_eq!(base.shard_reports[2].grants, 2);
    for (out, reg) in &runs[1..] {
        assert_eq!(out.daily, base.daily, "merged daily dataset diverged");
        assert_eq!(out.weekly, base.weekly, "merged weekly dataset diverged");
        assert_eq!(out.daily.coverage, base.daily.coverage, "daily coverage grid diverged");
        assert_eq!(out.weekly.coverage, base.weekly.coverage, "weekly coverage grid diverged");
        assert_eq!(out.shard_reports, base.shard_reports, "per-shard ledger diverged");
        assert_eq!(out.render(), base.render(), "outcome render diverged");
        assert_eq!(event_counts(reg), event_counts(base_reg), "journal event counts diverged");
    }
}

/// An error return ends every worker the coordinator still holds.
/// Shard 0's worker sleeps; shard 1's turns its daily store into a
/// regular file and exits 1, so repairing its remains fails and the
/// run returns `Err` while shard 0's worker is still running. That
/// worker must be killed and reaped, not left writing under the root.
#[test]
fn an_error_return_kills_and_reaps_every_running_worker() {
    const SCRIPT: &str = r#"
while [ $# -gt 0 ]; do
  case "$1" in --root) root=$2; shift ;; --shard) shard=$2; shift ;; esac
  shift
done
if [ "$shard" = 0 ]; then
  echo $$ > "$root/pid0.tmp" && mv "$root/pid0.tmp" "$root/pid0"
  exec sleep 30
fi
until [ -e "$root/pid0" ]; do sleep 0.01; done
mkdir -p "$root/shard-0001" && : > "$root/shard-0001/daily"
exit 1
"#;
    let root = fixture_root("orphan");
    let worker_cmd: Vec<String> = ["sh", "-c", SCRIPT, "w"].map(String::from).to_vec();
    let cfg = cfg(root.clone(), 2, 2);
    let result = run_processes(&cfg, &KillPlan::none(), &worker_cmd, &[], &Registry::new());
    let pid = std::fs::read_to_string(root.join("pid0")).expect("shard 0 wrote its pid");
    let pid = pid.trim();
    let orphaned = std::path::Path::new(&format!("/proc/{pid}")).exists();
    if orphaned {
        let _ = std::process::Command::new("kill").args(["-9", pid]).status();
    }
    let _ = std::fs::remove_dir_all(&root);
    assert!(result.is_err(), "repairing a store that is a regular file must fail the run");
    assert!(!orphaned, "worker {pid} outlived the failed run");
}
