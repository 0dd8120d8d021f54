//! # ipactive-cdnsim
//!
//! The synthetic-Internet + CDN-observatory substrate.
//!
//! The paper's raw material — a year of per-address request logs from
//! a global CDN — is proprietary. This crate builds its structural
//! equivalent: a deterministic generative model of Autonomous Systems,
//! address blocks, assignment policies (static, round-robin pools,
//! DHCP with short and long leases, carrier-grade-NAT gateways,
//! crawler farms, server/router infrastructure) and subscriber
//! behaviour (weekday/weekend rhythms, subscriber churn, heavy-tailed
//! traffic, multi-device User-Agent populations). The model *implements
//! the operational practices* whose fingerprints the paper reads off
//! its data, so every analysis in `ipactive-core` recovers those
//! fingerprints from generated datasets rather than having them
//! hard-coded.
//!
//! Entry point: [`Universe::generate`] with a [`UniverseConfig`], then
//! [`Universe::build_daily`] / [`Universe::build_weekly`] for the two
//! paper datasets (or [`Universe::build_datasets`] for both from one
//! sweep); the universe also exposes the RIR delegation
//! database, reverse-DNS table, BGP timeline, and implements
//! [`ipactive_probe::ProbeTarget`] for the scanners.
//!
//! ```
//! use ipactive_cdnsim::{Universe, UniverseConfig};
//!
//! let uni = Universe::generate(UniverseConfig::tiny(42));
//! let daily = uni.build_daily();
//! assert!(daily.total_active() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behavior;
mod config;
mod growth;
mod pipeline;
mod policy;
pub mod requests;
mod supervisor;
pub mod ua;
mod universe;

pub use behavior::SeedMixer;
pub use config::{AsKind, CountryProfile, UniverseConfig, COUNTRY_PROFILES};
pub use growth::{monthly_counts, GrowthModel};
pub use pipeline::{
    collect_daily, collect_daily_sharded, collect_from_store, collect_store,
    collect_store_checked, collect_stream, collect_weekly_sharded, emit_daily_logs_packed,
    emit_daily_shards, emit_logs, emit_shard_buffers, emit_shards, emit_weekly_shards,
    parallel_pipeline, persist_daily_atomic, shard_of, slot_batches_from_buffers,
    stream_pipeline, validate_topology, Cadence, CollectorStats, Daily, PipelineReport,
    PipelineStats, Weekly,
};
pub use supervisor::{
    supervised_collect, supervised_collect_daily, BufferOutcome, DeadLetter, Fault, FaultKind,
    FaultPlan, RetryPolicy, ShardOutcome, SupervisedReport,
};
pub use policy::{AssignmentPolicy, DayEntry, HostPopulation, PolicySim};
pub use universe::{AsEntry, BlockEntry, PopulationSummary, Universe};
