//! Differential suite for the supervised self-healing pipeline.
//!
//! One test per `{fault kind} × {collector count}` cell — named
//! `{kind}_collectors_{n}` so CI's fault-matrix job can run each cell
//! as its own filtered invocation. Every cell pins the two halves of
//! the supervision contract, deterministically under fixed seeds:
//!
//! * **Recovery**: a transient fault (clears after one failed attempt)
//!   heals via checkpointed replay — the dataset is bit-identical to
//!   the fault-free run and coverage is complete.
//! * **Degradation**: a permanent fault exhausts its retries but the
//!   run still completes — per-shard completeness drops below 1.0 for
//!   exactly the faulted shard, untouched shards match the clean run
//!   block-for-block, and (for corruption) the undecodable frames are
//!   dead-lettered with correct shard/buffer provenance.

use ipactive::cdnsim::{
    emit_shard_buffers, shard_of, supervised_collect, Cadence, Daily, Fault, FaultKind, FaultPlan,
    RetryPolicy, SupervisedReport, Universe, UniverseConfig, Weekly,
};
use ipactive::core::{DailyDataset, WeeklyDataset};
use ipactive::obs::Registry;
use std::fmt::Debug;
use std::sync::OnceLock;

const WORKERS: usize = 3;
const PLAN_SEED: u64 = 0xD00D_FEED;

fn universe() -> &'static Universe {
    static FIX: OnceLock<Universe> = OnceLock::new();
    FIX.get_or_init(|| Universe::generate(UniverseConfig::tiny(0x5AFE)))
}

/// The direct build a fault-free supervised run must reproduce.
trait Reference: Cadence {
    fn direct() -> &'static Self::Dataset;
}

impl Reference for Daily {
    fn direct() -> &'static DailyDataset {
        static FIX: OnceLock<DailyDataset> = OnceLock::new();
        FIX.get_or_init(|| universe().build_daily())
    }
}

impl Reference for Weekly {
    fn direct() -> &'static WeeklyDataset {
        static FIX: OnceLock<WeeklyDataset> = OnceLock::new();
        FIX.get_or_init(|| universe().build_weekly())
    }
}

/// The supervised collector at cadence `C`, metered into a registry of
/// its own (reports read cumulative counters, so one per run).
fn collect<C: Cadence>(
    buffers: &[Vec<Vec<u8>>],
    policy: &RetryPolicy,
    plan: &FaultPlan,
) -> (C::Dataset, SupervisedReport) {
    supervised_collect::<C>(buffers, C::slots(universe()), policy, plan, &Registry::new()).unwrap()
}

/// The fault-free supervised baseline for a topology: equals the
/// direct build (dataset equality ignores coverage provenance) and
/// reports complete coverage.
fn baseline<C: Reference>(collectors: usize) -> C::Dataset
where
    C::Dataset: PartialEq + Debug + 'static,
{
    let buffers = emit_shard_buffers::<C>(universe(), WORKERS, collectors).unwrap();
    let (clean, report) = collect::<C>(&buffers, &RetryPolicy::instant(3), &FaultPlan::none());
    assert_eq!(&clean, C::direct(), "fault-free supervised run diverged from direct build");
    assert!(report.coverage.is_complete());
    assert_eq!(report.retries(), 0);
    assert!(report.quarantine.is_empty());
    clean
}

/// A transient fault on one delivery: it fails `persist_attempts`
/// times, then the replay of the retained buffer succeeds. Output
/// must be bit-identical to the fault-free run, coverage complete,
/// and the whole thing deterministic run-to-run.
fn transient_recovers<C: Reference>(fault: Fault, collectors: usize)
where
    C::Dataset: PartialEq + Debug + 'static,
{
    let kind = fault.kind;
    let buffers = emit_shard_buffers::<C>(universe(), WORKERS, collectors).unwrap();
    let policy = RetryPolicy::instant(3);
    let clean = baseline::<C>(collectors);
    let plan = FaultPlan::new(PLAN_SEED).with_fault(fault);
    let (healed, report) = collect::<C>(&buffers, &policy, &plan);
    assert_eq!(healed, clean, "{kind:?}: recovered run must be bit-identical to fault-free");
    assert!(report.coverage.is_complete(), "{kind:?}: recovered run must report full coverage");
    assert!(report.fully_recovered());
    let victim = &report.outcomes[fault.shard].buffers[fault.buffer];
    assert!(victim.recovered(), "{kind:?}: the faulted buffer should retry-succeed");
    assert_eq!(victim.attempts, fault.persist_attempts + 1);
    assert_eq!(victim.fault, Some(kind));

    // Determinism: same seeds, same everything.
    let (again, report2) = collect::<C>(&buffers, &policy, &plan);
    assert_eq!(again, healed);
    assert_eq!(report2.outcomes, report.outcomes);
    assert_eq!(report2.quarantine, report.quarantine);
}

/// Permanent fault on (shard 0, buffer 0): retries exhaust, the run
/// still completes, and the damage is precisely accounted.
fn permanent_degrades(kind: FaultKind, collectors: usize) {
    let buffers = emit_shard_buffers::<Daily>(universe(), WORKERS, collectors).unwrap();
    let policy = RetryPolicy::instant(2);
    let clean = baseline::<Daily>(collectors);
    let plan = FaultPlan::new(PLAN_SEED).with_fault(Fault {
        shard: 0,
        buffer: 0,
        kind,
        persist_attempts: Fault::PERMANENT,
    });
    let (degraded, report) = collect::<Daily>(&buffers, &policy, &plan);

    // Completeness < 1.0 for exactly the faulted shard.
    assert_eq!(report.coverage.degraded_shards(), vec![0], "{kind:?}");
    assert!(report.coverage.shard(0) < 1.0, "{kind:?}: shard 0 must report loss");
    for shard in 1..collectors {
        assert_eq!(report.coverage.shard(shard), 1.0, "{kind:?}: shard {shard} was untouched");
    }
    assert!(!report.fully_recovered());
    let victim = &report.outcomes[0].buffers[0];
    assert!(victim.completeness < 1.0);
    assert_eq!(victim.attempts, policy.max_retries + 1, "{kind:?}: all attempts consumed");

    // The dataset carries the same coverage grid the report does.
    let carried = degraded.coverage.clone().expect("supervised dataset carries coverage");
    assert_eq!(carried, report.coverage);

    // Blocks of untouched shards match the clean run exactly.
    for rec in &clean.blocks {
        if shard_of(rec.block, collectors) != 0 {
            assert_eq!(
                degraded.block(rec.block),
                Some(rec),
                "{kind:?}: block {} outside the faulted shard diverged",
                rec.block
            );
        }
    }

    // Quarantine provenance: every dead letter names the faulted
    // delivery; corruption must actually produce some.
    for letter in &report.quarantine {
        assert_eq!((letter.shard, letter.buffer), (0, 0), "{kind:?}: bad provenance");
        assert!(
            letter.frame.offset <= buffers[0][0].len() as u64,
            "{kind:?}: offset beyond the delivered stream"
        );
    }
    if kind == FaultKind::Corrupt {
        assert!(
            !report.quarantine.is_empty(),
            "corrupt salvage must dead-letter the damaged frames"
        );
    }

    // Determinism: the degraded run replays bit-identically too.
    let (again, report2) = collect::<Daily>(&buffers, &policy, &plan);
    assert_eq!(again, degraded);
    assert_eq!(report2.coverage, report.coverage);
    assert_eq!(report2.outcomes, report.outcomes);
    assert_eq!(report2.quarantine, report.quarantine);
}

macro_rules! fault_matrix {
    ($($name:ident => ($kind:expr, $collectors:expr);)*) => {
        $(
            #[test]
            fn $name() {
                // One failed attempt and its first retry on (shard 0,
                // buffer 0); the second retry succeeds.
                let fault = Fault { shard: 0, buffer: 0, kind: $kind, persist_attempts: 2 };
                transient_recovers::<Daily>(fault, $collectors);
                permanent_degrades($kind, $collectors);
            }
        )*
    };
}

fault_matrix! {
    crash_collectors_1 => (FaultKind::Crash, 1);
    crash_collectors_2 => (FaultKind::Crash, 2);
    crash_collectors_4 => (FaultKind::Crash, 4);
    corrupt_collectors_1 => (FaultKind::Corrupt, 1);
    corrupt_collectors_2 => (FaultKind::Corrupt, 2);
    corrupt_collectors_4 => (FaultKind::Corrupt, 4);
    drop_collectors_1 => (FaultKind::Drop, 1);
    drop_collectors_2 => (FaultKind::Drop, 2);
    drop_collectors_4 => (FaultKind::Drop, 4);
    stall_collectors_1 => (FaultKind::Stall, 1);
    stall_collectors_2 => (FaultKind::Stall, 2);
    stall_collectors_4 => (FaultKind::Stall, 4);
}

#[test]
fn real_sync_corruption_is_never_reported_complete() {
    // A clobbered sync byte makes the tolerant reader silently swallow
    // frames during its resync scan: `skipped` may stay 0 and only
    // `resyncs` moves. The checkpoint predicate must treat that as a
    // dirty decode — the run degrades with coverage < 1.0 instead of
    // merging the lossy attempt as clean (which would break the
    // "coverage 1.0 => bit-identical data" invariant).
    let clean = baseline::<Daily>(2);
    let mut buffers = emit_shard_buffers::<Daily>(universe(), WORKERS, 2).unwrap();
    buffers[0][0][0] = 0x00; // real corruption: frame 0's sync byte, shard 0
    let (degraded, report) =
        collect::<Daily>(&buffers, &RetryPolicy::instant(2), &FaultPlan::none());
    assert!(
        !report.coverage.is_complete(),
        "desync-swallowed frames must not report full coverage"
    );
    assert_eq!(report.coverage.degraded_shards(), vec![0]);
    assert_eq!(report.coverage.shard(1), 1.0);
    let victim = &report.outcomes[0].buffers[0];
    assert!(victim.completeness < 1.0);
    assert_eq!(victim.attempts, 3, "the buffer itself is damaged, so every replay fails");
    // The salvage pass dead-letters the garbage run with provenance.
    assert!(report.quarantine.iter().any(|l| (l.shard, l.buffer) == (0, 0)));
    // Untouched shard-1 blocks still match the clean run exactly.
    for rec in &clean.blocks {
        if shard_of(rec.block, 2) != 0 {
            assert_eq!(degraded.block(rec.block), Some(rec));
        }
    }
}

#[test]
fn weekly_supervised_transient_corrupt_recovers() {
    let fault = Fault { shard: 1, buffer: 1, kind: FaultKind::Corrupt, persist_attempts: 1 };
    transient_recovers::<Weekly>(fault, 2);
}

#[test]
fn mixed_fault_storm_is_deterministic_and_accounted() {
    // A scattered plan mixing all four kinds over every delivery:
    // whatever heals must heal identically twice, and whatever is
    // lost must be visible in coverage.
    let collectors = 4;
    let buffers = emit_shard_buffers::<Daily>(universe(), WORKERS, collectors).unwrap();
    let policy = RetryPolicy::instant(2);
    let buffers_per_shard = buffers.iter().map(Vec::len).max().unwrap();
    let plan = FaultPlan::scatter(PLAN_SEED, collectors, buffers_per_shard, 12);
    let (a, report_a) = collect::<Daily>(&buffers, &policy, &plan);
    let (b, report_b) = collect::<Daily>(&buffers, &policy, &plan);
    assert_eq!(a, b);
    assert_eq!(report_a.coverage, report_b.coverage);
    assert_eq!(report_a.outcomes, report_b.outcomes);
    assert_eq!(report_a.quarantine, report_b.quarantine);
    // Every buffer that did not fully succeed must pull its shard's
    // coverage below 1.0 — no silent loss.
    for outcome in &report_a.outcomes {
        let lost = outcome.buffers.iter().any(|b| !b.succeeded());
        assert_eq!(
            report_a.coverage.shard(outcome.shard) < 1.0,
            lost,
            "shard {} coverage must reflect its buffer outcomes",
            outcome.shard
        );
    }
}
