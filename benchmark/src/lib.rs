//! The repository's single benchmark: five workloads over build, collect,
//! figures and serving, each measured from outside the crates by timing
//! calls into their public functions. See `README.md` beside this crate
//! for the workloads, the metrics and the rules that keep them steady.

#![forbid(unsafe_code)]

pub mod cli;
pub mod inputs;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
