//! # ipactive-core
//!
//! The analysis library reproducing *Beyond Counting: New Perspectives
//! on the Active IPv4 Address Space* (Richter et al., IMC 2016): data
//! model and every metric and analysis from the paper.
//!
//! ## Data model
//!
//! * [`DailyDataset`] — per-`/24` activity matrices (address × day
//!   bits) plus per-address traffic summaries over the paper's
//!   112-day daily window (Section 3.2, Table 1).
//! * [`WeeklyDataset`] — 52 weeks of activity bits and per-week
//!   traffic multisets for the year-long view.
//!
//! Both are one activity matrix read at a [`Cadence`] — [`Daily`] or
//! [`Weekly`]. Each is a [`SlotMatrix`]: 256 rows of slot bits per
//! active `/24`, from which one body per query materializes a unit's
//! set, a window union, every unit's set, or all activity. Analyses
//! ask for window unions through one [`Windows`] trait, which a dataset
//! answers fresh and [`AnalysisCtx::windows`] answers memoized; a
//! daily-only analysis takes `W: Windows<Cadence = Daily>`. A question
//! that only counts a window's addresses needs no set: a
//! [`WindowCensus`] holds every window's count of one cadence and grows
//! by appending a column per unit.
//!
//! ## Analyses (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §3.2/3.3 visibility vs ICMP (Fig 2) | [`visibility`] |
//! | §3.4 geography (Fig 3) | [`geo`] |
//! | §4.1 churn & volatility (Fig 4) | [`churn`] |
//! | §4.2 per-AS / event sizes / BGP (Fig 5, Table 2) | [`churn`], [`events`] |
//! | §5.1 FD & STU metrics (Fig 6/7) | [`matrix`] |
//! | §5.2 change detection (Fig 8a) | [`change`] |
//! | §5.3/5.4 addressing practice (Fig 8b/8c) | [`blocks`] |
//! | §6 traffic & devices (Fig 9/10) | [`traffic`], [`hosts`] |
//! | §7 demographics (Fig 11/12) | [`demographics`] |
//! | §8 reputation lifetimes | [`persistence`] |
//! | §8 market / governance | [`market`] |
//! | related work: reliability | [`outages`] |
//! | §2 growth timeline (Fig 1) | [`timeline`] |
//! | Table 1 dataset census | [`census`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
mod cadence;
pub mod census;
pub mod change;
pub mod churn;
pub mod coverage;
mod dataset;
pub mod demographics;
pub mod engine;
pub mod events;
pub mod geo;
pub mod hosts;
pub mod market;
pub mod matrix;
pub mod outages;
pub mod par;
pub mod persistence;
pub mod stats;
pub mod timeline;
pub mod traffic;
pub mod visibility;
mod window_census;

pub use cadence::{Cadence, Daily, SlotMatrix, SlotRow, Weekly, Windows};
pub use coverage::Coverage;
pub use window_census::WindowCensus;
pub use engine::{AnalysisCtx, CacheStats, DeadlineExceeded, QueryBudget, WindowCache};
pub use dataset::{
    BlockRecord, DailyDataset, DailyDatasetBuilder, IpTraffic, WeeklyDataset,
    WeeklyDatasetBuilder,
};
