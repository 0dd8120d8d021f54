//! Seeded kill schedules: *where* in the worker protocol a process
//! dies, expressed as named injection points so a schedule is readable
//! in CI configs and replays identically run to run.

use std::fmt;

/// A named point in the worker protocol where chaos can strike. The
/// points bracket every state transition that matters to crash
/// safety: before any work, between buffer replays, around each store
/// commit, and after everything durable is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// After the worker acknowledged its lease, before any replay —
    /// the "crash-early" cell: nothing committed, nothing lost.
    Early,
    /// After replaying (and heartbeating) buffer `k`. Buffers number
    /// daily first, then weekly, so `k` ranges over
    /// `0..2 * emitters`.
    AfterBuffer(u32),
    /// All buffers replayed, neither store committed.
    PreCommit,
    /// The daily store committed, the weekly store not — the
    /// "crash-mid-commit" cell: the handoff must publish one cadence
    /// atomically and leave the other cleanly absent.
    MidCommit,
    /// Both stores committed; only the clean exit remains. Healing a
    /// kill here must be a no-op resume.
    PreExit,
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectionPoint::Early => write!(f, "early"),
            InjectionPoint::AfterBuffer(k) => write!(f, "after-buffer-{k}"),
            InjectionPoint::PreCommit => write!(f, "pre-commit"),
            InjectionPoint::MidCommit => write!(f, "mid-commit"),
            InjectionPoint::PreExit => write!(f, "pre-exit"),
        }
    }
}

impl InjectionPoint {
    /// Parses the `Display` form back (`early`, `after-buffer-K`,
    /// `pre-commit`, `mid-commit`, `pre-exit`).
    pub fn parse(s: &str) -> Option<InjectionPoint> {
        match s {
            "early" => Some(InjectionPoint::Early),
            "pre-commit" => Some(InjectionPoint::PreCommit),
            "mid-commit" => Some(InjectionPoint::MidCommit),
            "pre-exit" => Some(InjectionPoint::PreExit),
            _ => s
                .strip_prefix("after-buffer-")
                .and_then(|k| k.parse().ok())
                .map(InjectionPoint::AfterBuffer),
        }
    }
}

/// How the scheduled victim dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// The worker halts at the injection point and is `kill -9`ed the
    /// moment the harness observes it there (it announces the pause
    /// with a marker file). Models a sudden process death at an exact
    /// protocol state.
    Kill,
    /// The worker halts at the injection point *silently* — no
    /// marker, no further heartbeats. The coordinator must discover
    /// the wedge through beat stagnation and kill it itself. Models a
    /// livelocked or deadlocked worker.
    Stall,
}

/// One scheduled death: the grant it strikes and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Victim shard.
    pub shard: u32,
    /// Which grant of that shard dies (0 = the first assignment, so
    /// `attempt < n` kills every grant up to the `n`th and exercises
    /// retry exhaustion).
    pub attempt: u32,
    /// Protocol point the victim halts at.
    pub point: InjectionPoint,
    /// Kill choreography.
    pub mode: KillMode,
}

/// A deterministic kill schedule: the process-granularity analogue of
/// the supervisor's `FaultPlan`. An empty plan is an undisturbed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KillPlan {
    specs: Vec<KillSpec>,
}

impl KillPlan {
    /// The undisturbed schedule.
    pub fn none() -> KillPlan {
        KillPlan::default()
    }

    /// Adds a scheduled death (builder style).
    pub fn with(mut self, spec: KillSpec) -> KillPlan {
        self.specs.push(spec);
        self
    }

    /// A spec that kills `shard` on every grant — retry exhaustion,
    /// the path that must end in honest coverage loss rather than a
    /// dataset silently missing a shard.
    pub fn permanent(self, shard: u32, point: InjectionPoint) -> KillPlan {
        // u32::MAX attempts is unreachable; `for_grant` matches any
        // attempt at or below the spec's, so this spec fires forever.
        self.with(KillSpec { shard, attempt: u32::MAX, point, mode: KillMode::Kill })
    }

    /// The scheduled death for grant `(shard, attempt)`, if any. A
    /// spec matches its exact attempt, except `attempt == u32::MAX`
    /// specs ([`KillPlan::permanent`]) which match every attempt.
    pub fn for_grant(&self, shard: u32, attempt: u32) -> Option<&KillSpec> {
        self.specs
            .iter()
            .find(|s| s.shard == shard && (s.attempt == attempt || s.attempt == u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_points_roundtrip_through_display() {
        let points = [
            InjectionPoint::Early,
            InjectionPoint::AfterBuffer(0),
            InjectionPoint::AfterBuffer(17),
            InjectionPoint::PreCommit,
            InjectionPoint::MidCommit,
            InjectionPoint::PreExit,
        ];
        for p in points {
            assert_eq!(InjectionPoint::parse(&p.to_string()), Some(p), "{p}");
        }
        assert_eq!(InjectionPoint::parse("after-buffer-"), None);
        assert_eq!(InjectionPoint::parse("later"), None);
    }

    #[test]
    fn plans_match_grants_exactly_and_permanently() {
        let plan = KillPlan::none()
            .with(KillSpec {
                shard: 1,
                attempt: 0,
                point: InjectionPoint::MidCommit,
                mode: KillMode::Kill,
            })
            .permanent(2, InjectionPoint::Early);
        assert!(plan.for_grant(1, 0).is_some());
        assert!(plan.for_grant(1, 1).is_none(), "transient spec fires once");
        assert!(plan.for_grant(2, 0).is_some());
        assert!(plan.for_grant(2, 9).is_some(), "permanent spec fires forever");
        assert!(plan.for_grant(0, 0).is_none());
    }
}
