//! # ipactive-serve
//!
//! The always-on observatory: Richter et al. frame address-space
//! activity as something to *observe continuously*, and this crate is
//! the serving layer that makes the repo's batch analyses long-lived —
//! days append incrementally while concurrent readers query activity,
//! churn, and density over arbitrary windows.
//!
//! ## Architecture
//!
//! * [`Observatory`] — snapshot-isolated ingest. Each
//!   [`Observatory::ingest_day`] folds the arriving day — and only
//!   that day — into the observatory's live dataset builders and
//!   publishes a snapshot of them as a new immutable
//!   [`EpochSnapshot`] by an atomic `Arc` swap; the new epoch's
//!   [`AnalysisCtx`](ipactive_core::AnalysisCtx) carries forward every
//!   cache slot the previous epoch materialized (appending a day adds
//!   keys, it never invalidates a window), so readers pinned to an
//!   older epoch are never disturbed and concurrent-ingest answers are
//!   byte-identical to a batch build. Each epoch also carries a
//!   [`WindowCensus`](ipactive_core::WindowCensus) per cadence, the
//!   count of every window, extended by the new day's column.
//! * [`wire`] — the length-prefixed binary protocol (varint frames
//!   with a trailing CRC, the same idiom as `logfmt::lease`); frames
//!   without a body are built in and parsed from the stack, and
//!   [`wire::RequestReader`] parses every frame one wake of the
//!   transport delivered, in place.
//! * [`Server`] — the threaded query front-end: a *bounded* admission
//!   queue, filled and drained in batches, that load-sheds with an
//!   explicit `Overloaded` response, window and prefix counts answered
//!   exactly in O(1) from the epoch's census and density index (a
//!   request's `budget_ms` and `allow_degraded` are ignored),
//!   `catch_unwind` isolation per query worker
//!   (panics journal a `query_panic` event and the request is answered
//!   degraded from the [`PrefixDensity`](ipactive_net::PrefixDensity)
//!   approximation, never dropped), and a first-class coverage
//!   annotation on every answer over a partial feed or past the
//!   horizon.
//! * [`ChaosPlan`] — seeded, deterministic fault injection (worker
//!   panics, stalls) for the soak tests.
//! * [`loadgen`] — the open-loop load generator behind
//!   `repro serve-bench`, reporting latency quantiles from the obs
//!   histogram plane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod handoff;
pub mod loadgen;
pub mod observatory;
pub mod pipe;
pub mod server;
pub mod slo;
pub mod wire;

pub use chaos::{ChaosAction, ChaosPlan};
pub use ipactive_obs::{TraceContext, TraceId};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use observatory::{synthetic_day_log, DayLog, EpochSnapshot, Observatory};
pub use pipe::{duplex, DuplexConn, PipeReader, PipeWriter};
pub use server::{ServeConfig, Server};
pub use slo::{SloMonitor, SloPolicy};
pub use wire::{QueryKind, Request, Response, Status, WireError};
