//! # ipactive-coord
//!
//! Process-level distributed collection for the "Beyond Counting"
//! reproduction: each collector shard runs as its own OS process,
//! replaying its share of the edge logs into a private
//! manifest-journaled store pair, while a coordinator hands out
//! CRC-protected lease files, watches heartbeats, and heals whatever
//! dead workers leave behind.
//!
//! The crate's organizing bet is that **`kill -9` is a test input,
//! not an accident**. A kill schedule ([`KillPlan`], [`OpKill`]) is
//! part of a run's configuration, and the contract — enforced by the
//! harnesses in this crate and in `ipactive-bench` — is:
//!
//! > For any seeded kill schedule, the merged dataset is either
//! > **bit-identical** to the undisturbed run's, or (when retries are
//! > exhausted) **coverage-honest** about exactly the shards that
//! > were lost — deterministically, run after run.
//!
//! Module map:
//!
//! * [`plan`] — named injection points and seeded kill schedules.
//! * [`worker`] — the shard worker: lease heartbeats keyed to replay
//!   progress, resumable atomic commits, pause-point choreography.
//! * [`coordinator`] — the healing loop: lease grants, wedge
//!   detection, `fsck --repair` on orphaned stores, regrant vs
//!   honest loss, and the coverage-carrying merge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod plan;
pub mod worker;

pub use coordinator::{
    grant_trace_id, run_processes, run_sim, CoordConfig, DistributedOutcome, OpKill, ShardReport,
};
pub use plan::{InjectionPoint, KillMode, KillPlan, KillSpec};
pub use worker::{
    clean_beats, daily_dir, holder_id, marker_path, run_worker, shard_dir, trace_path, weekly_dir,
    PauseStyle, WorkerConfig, WorkerExit,
};
