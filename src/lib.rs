//! # ipactive
//!
//! A Rust reproduction of **"Beyond Counting: New Perspectives on the
//! Active IPv4 Address Space"** (Richter, Smaragdakis, Plonka, Berger —
//! ACM IMC 2016): the paper's spatio-temporal address-activity
//! analyses as a reusable library, together with the full measurement
//! substrate they need (a synthetic Internet + CDN observatory, active
//! probing, BGP, reverse DNS, and RIR delegations).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`net`] — IPv4 addresses, prefixes, `/24` blocks, tries, bitsets,
//!   covering-mask event sizing.
//! * [`logfmt`] — the framed binary log wire format.
//! * [`rir`] — delegations, countries, registry exhaustion dates.
//! * [`dns`] — PTR synthesis and static/dynamic keyword tagging.
//! * [`bgp`] — routing tables, timelines, IP→AS resolution.
//! * [`probe`] — ICMP / port / traceroute scan simulators.
//! * [`cdnsim`] — the synthetic Internet and dataset generators.
//! * [`core`] — every analysis from the paper (churn, FD/STU, change
//!   detection, traffic, demographics, …).
//! * [`obs`] — the metrics/span/journal registry the collection
//!   pipeline and the analysis engine meter into.
//!
//! ## Quickstart
//!
//! ```
//! use ipactive::cdnsim::{Universe, UniverseConfig};
//! use ipactive::core::{churn, matrix::BlockMetrics};
//!
//! // A deterministic miniature Internet.
//! let universe = Universe::generate(UniverseConfig::tiny(7));
//! let daily = universe.build_daily();
//!
//! // Figure 4(a): daily actives and up/down events.
//! let series = churn::daily_series(&daily);
//! assert_eq!(series.len(), daily.num_days);
//!
//! // Figure 6 metrics for the busiest block.
//! let busiest = daily.blocks.iter().max_by_key(|b| b.total_hits).unwrap();
//! let m = BlockMetrics::of(busiest, 0..daily.num_days);
//! assert!(m.fd >= 1 && m.stu > 0.0);
//! ```

/// The most commonly used types, importable in one line:
/// `use ipactive::prelude::*;`.
pub mod prelude {
    pub use ipactive_bgp::{Asn, BgpTimeline, RoutingTable};
    pub use ipactive_cdnsim::{
        stream_pipeline, Cadence, CollectorStats, Daily, PipelineReport, Universe, UniverseConfig,
        Weekly,
    };
    pub use ipactive_core::matrix::BlockMetrics;
    pub use ipactive_core::{DailyDataset, DailyDatasetBuilder, SlotMatrix, WeeklyDataset};
    pub use ipactive_net::{Addr, AddrSet, Block24, Prefix};
    pub use ipactive_rir::{DelegationDb, Rir};
}

pub use ipactive_bgp as bgp;
pub use ipactive_cdnsim as cdnsim;
pub use ipactive_core as core;
pub use ipactive_dns as dns;
pub use ipactive_logfmt as logfmt;
pub use ipactive_net as net;
pub use ipactive_obs as obs;
pub use ipactive_probe as probe;
pub use ipactive_rir as rir;
