//! Seeded, deterministic fault injection for the serving layer.
//!
//! A [`ChaosPlan`] is pure data: given the executed-query sequence
//! number it answers "what goes wrong here?". The same `(seed,
//! periods)` always injects the same faults at the same points, so a
//! chaos soak that fails can be replayed exactly by pinning the seed.
//! Faults are keyed on *executed* sequence numbers (assigned by the
//! worker that dequeues a query), not request ids, so load-shed
//! requests never consume an injection slot and a plan with
//! `panic_period = n` is guaranteed one panic in every `n` executed
//! queries.

use ipactive_obs::splitmix64;

/// What the plan injects for one executed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Execute normally.
    None,
    /// Panic inside the query worker (exercises `catch_unwind` +
    /// journaled `query_panic` + degraded answering).
    Panic,
    /// Hold the query worker before the query starts (exercises queue
    /// pressure, latency and load shedding; the answer stays exact).
    Stall,
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed that picks *which* residue inside each period faults.
    pub seed: u64,
    /// Panic every `panic_period` executed queries; `0` disables.
    pub panic_period: u64,
    /// Stall every `stall_period` executed queries; `0` disables.
    pub stall_period: u64,
    /// Stall duration in microseconds, slept once by the worker before
    /// it starts the query when a `Stall` fires.
    pub stall_us: u64,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            panic_period: 0,
            stall_period: 0,
            stall_us: 0,
        }
    }

    /// True when the plan can inject at least one fault kind.
    pub fn is_active(&self) -> bool {
        self.panic_period != 0 || self.stall_period != 0
    }

    /// The fault (if any) for executed query number `seq`.
    ///
    /// Panics win over stalls when both periods land on the same
    /// residue — a panicking worker never reaches the stall point.
    pub fn action(&self, seq: u64) -> ChaosAction {
        if self.panic_period != 0
            && seq % self.panic_period == splitmix64(self.seed) % self.panic_period
        {
            return ChaosAction::Panic;
        }
        if self.stall_period != 0
            && seq % self.stall_period == splitmix64(self.seed ^ 0x5741_4c4c) % self.stall_period
        {
            return ChaosAction::Stall;
        }
        ChaosAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_none_plan_never_fires() {
        let plan = ChaosPlan::none();
        assert!(!plan.is_active());
        for seq in 0..1000 {
            assert_eq!(plan.action(seq), ChaosAction::None);
        }
    }

    #[test]
    fn same_seed_gives_an_identical_schedule() {
        let plan = ChaosPlan {
            seed: 42,
            panic_period: 13,
            stall_period: 7,
            stall_us: 500,
        };
        let a: Vec<ChaosAction> = (0..500).map(|s| plan.action(s)).collect();
        let b: Vec<ChaosAction> = (0..500).map(|s| plan.action(s)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_period_window_contains_exactly_one_panic() {
        let plan = ChaosPlan {
            seed: 7,
            panic_period: 11,
            stall_period: 0,
            stall_us: 0,
        };
        for window in 0..20u64 {
            let panics = (window * 11..(window + 1) * 11)
                .filter(|&s| plan.action(s) == ChaosAction::Panic)
                .count();
            assert_eq!(panics, 1, "window {window}");
        }
    }

    #[test]
    fn different_seeds_move_the_fault_residue() {
        let hit = |seed: u64| {
            let plan = ChaosPlan {
                seed,
                panic_period: 101,
                stall_period: 0,
                stall_us: 0,
            };
            (0..101).find(|&s| plan.action(s) == ChaosAction::Panic).unwrap()
        };
        let residues: std::collections::HashSet<u64> = (0..16).map(hit).collect();
        assert!(residues.len() > 1, "seed must influence placement");
    }

    #[test]
    fn stalls_fire_when_enabled_and_panics_take_precedence() {
        let plan = ChaosPlan {
            seed: 3,
            panic_period: 5,
            stall_period: 5,
            stall_us: 100,
        };
        let mut saw_stall = false;
        for seq in 0..25 {
            match plan.action(seq) {
                ChaosAction::Stall => saw_stall = true,
                ChaosAction::Panic => {
                    // Precedence: a seq matching both must report Panic,
                    // which action() guarantees structurally.
                }
                ChaosAction::None => {}
            }
        }
        // With equal periods the stall residue may collide with the
        // panic residue; only assert stalls fire for a plan where the
        // residues differ.
        if splitmix64(3) % 5 != splitmix64(3 ^ 0x5741_4c4c) % 5 {
            assert!(saw_stall);
        }
    }
}
