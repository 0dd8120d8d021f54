//! Universe construction and dataset generation.

use crate::behavior::{poisson, SeedMixer};
use crate::config::{AsKind, CountryProfile, UniverseConfig, COUNTRY_PROFILES};
use crate::policy::{AssignmentPolicy, BlockProbeProfile, DayEntry, HostPopulation, PolicySim};
use ipactive_bgp::{Asn, BgpEvent, BgpEventKind, BgpTimeline, RoutingTable};
use ipactive_core::{BlockRecord, DailyDataset, IpTraffic, WeeklyDataset};
use ipactive_dns::{NamingScheme, PtrTable};
use ipactive_net::{Addr, Block24, DayBits, Prefix};
use ipactive_probe::{ProbeTarget, ServiceSet};
use ipactive_rir::{CountryCode, Delegation, DelegationDb, Rir};
use rand::RngExt;
use std::cmp::Reverse;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One Autonomous System of the synthetic Internet.
#[derive(Debug, Clone)]
pub struct AsEntry {
    /// The AS number.
    pub asn: Asn,
    /// Network kind (drives policy mix and rhythms).
    pub kind: AsKind,
    /// Registration country.
    pub country: CountryCode,
    /// The registry the AS's space comes from.
    pub rir: Rir,
    /// The AS's contiguous address region.
    pub region: Prefix,
    /// Index range of the AS's blocks in [`Universe::blocks`].
    pub block_range: (usize, usize),
}

/// One `/24` block of the synthetic Internet.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// The block.
    pub block: Block24,
    /// Index of the owning AS in [`Universe::ases`].
    pub as_index: usize,
    /// Assignment policy at the start of the year.
    pub policy: AssignmentPolicy,
    /// Mid-window policy change: `(absolute_day, new_policy)`.
    pub restructure: Option<(usize, AssignmentPolicy)>,
    /// Weeks during which the block is in operation (half-open).
    pub alive_weeks: (u16, u16),
    /// A connectivity outage: `(first_dark_absolute_day, length_days)`.
    pub outage: Option<(usize, usize)>,
    pub(crate) seed: SeedMixer,
    pub(crate) probe: BlockProbeProfile,
}

/// The synthetic Internet: ASes, blocks, registry data, reverse DNS,
/// the BGP timeline — plus generators for the paper's two datasets.
#[derive(Debug)]
pub struct Universe {
    config: UniverseConfig,
    /// All ASes.
    pub ases: Vec<AsEntry>,
    /// All blocks, sorted by block id.
    pub blocks: Vec<BlockEntry>,
    delegations: DelegationDb,
    ptr: PtrTable,
    bgp: BgpTimeline,
}

/// Ground-truth `/24` counts per policy family
/// (see [`Universe::population_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopulationSummary {
    /// Allocated but unused blocks.
    pub unused: u32,
    /// Statically assigned blocks.
    pub static_blocks: u32,
    /// Dynamically assigned blocks (round-robin / DHCP).
    pub dynamic_blocks: u32,
    /// CGN/proxy gateway blocks.
    pub gateway_blocks: u32,
    /// Crawler blocks.
    pub bot_blocks: u32,
    /// Server blocks.
    pub server_blocks: u32,
    /// Router-interface blocks.
    pub router_blocks: u32,
    /// Active-but-not-WWW blocks.
    pub nonweb_blocks: u32,
    /// Blocks with a mid-window policy change.
    pub restructured: u32,
    /// Blocks with an injected outage.
    pub with_outage: u32,
}

impl PopulationSummary {
    /// Total blocks summarized.
    pub fn total(&self) -> u32 {
        self.unused
            + self.static_blocks
            + self.dynamic_blocks
            + self.gateway_blocks
            + self.bot_blocks
            + self.server_blocks
            + self.router_blocks
            + self.nonweb_blocks
    }
}

/// `/8` base octet per RIR for the synthetic address plan.
fn rir_base_octet(rir: Rir) -> u32 {
    match rir {
        Rir::Arin => 20,
        Rir::Ripe => 62,
        Rir::Apnic => 101,
        Rir::Lacnic => 177,
        Rir::Afrinic => 196,
    }
}

/// Blocks per AS region (a /18).
const REGION_BLOCKS: u32 = 64;

fn pick_country(m: SeedMixer) -> &'static CountryProfile {
    let total: u32 = COUNTRY_PROFILES.iter().map(|c| c.weight).sum();
    let mut roll = (m.unit() * total as f64) as u32;
    for c in &COUNTRY_PROFILES {
        if roll < c.weight {
            return c;
        }
        roll -= c.weight;
    }
    &COUNTRY_PROFILES[0]
}

fn draw_policy(kind: AsKind, m: SeedMixer) -> AssignmentPolicy {
    let roll = m.unit();
    let mut rng = m.child(1).rng();
    match kind {
        AsKind::ResidentialIsp => {
            if roll < 0.32 {
                AssignmentPolicy::DhcpShort { subscribers: rng.random_range(255..470) }
            } else if roll < 0.64 {
                AssignmentPolicy::DhcpLong {
                    subscribers: rng.random_range(90..240),
                    hold_days: *[21u16, 30, 45][rng.random_range(0..3)..][..1]
                        .first()
                        .unwrap(),
                }
            } else if roll < 0.70 {
                AssignmentPolicy::RoundRobin { subscribers: rng.random_range(25..130) }
            } else if roll < 0.82 {
                AssignmentPolicy::StaticSparse { subscribers: rng.random_range(8..70) }
            } else if roll < 0.90 {
                AssignmentPolicy::Gateway {
                    gateways: rng.random_range(1..6),
                    users_per_gateway: rng.random_range(150..1200),
                }
            } else {
                AssignmentPolicy::Unused
            }
        }
        AsKind::CellularIsp => {
            if roll < 0.62 {
                AssignmentPolicy::Gateway {
                    gateways: rng.random_range(2..8),
                    users_per_gateway: rng.random_range(400..2500),
                }
            } else if roll < 0.75 {
                AssignmentPolicy::DhcpShort { subscribers: rng.random_range(280..460) }
            } else {
                AssignmentPolicy::Unused
            }
        }
        AsKind::University => {
            if roll < 0.35 {
                AssignmentPolicy::StaticSparse { subscribers: rng.random_range(10..70) }
            } else if roll < 0.55 {
                AssignmentPolicy::StaticDense { subscribers: rng.random_range(120..230) }
            } else if roll < 0.63 {
                AssignmentPolicy::RoundRobin { subscribers: rng.random_range(30..120) }
            } else if roll < 0.85 {
                AssignmentPolicy::DhcpLong {
                    subscribers: rng.random_range(90..220),
                    hold_days: 30,
                }
            } else {
                AssignmentPolicy::ServerFarm { servers: rng.random_range(4..40) }
            }
        }
        AsKind::Enterprise => {
            if roll < 0.48 {
                AssignmentPolicy::StaticSparse { subscribers: rng.random_range(8..60) }
            } else if roll < 0.62 {
                AssignmentPolicy::ServerFarm { servers: rng.random_range(4..30) }
            } else if roll < 0.70 {
                AssignmentPolicy::NonWeb { hosts: rng.random_range(6..24) }
            } else {
                AssignmentPolicy::Unused
            }
        }
        AsKind::Hosting => {
            if roll < 0.45 {
                AssignmentPolicy::ServerFarm { servers: rng.random_range(20..120) }
            } else if roll < 0.65 {
                AssignmentPolicy::BotFarm { bots: rng.random_range(1..5) }
            } else if roll < 0.75 {
                AssignmentPolicy::NonWeb { hosts: rng.random_range(6..24) }
            } else {
                AssignmentPolicy::Unused
            }
        }
        AsKind::Infrastructure => {
            if roll < 0.55 {
                AssignmentPolicy::RouterInfra { interfaces: rng.random_range(8..48) }
            } else if roll < 0.75 {
                AssignmentPolicy::NonWeb { hosts: rng.random_range(6..24) }
            } else {
                AssignmentPolicy::Unused
            }
        }
    }
}

fn ptr_scheme(policy: &AssignmentPolicy, domain: String, m: SeedMixer) -> NamingScheme {
    let roll = m.unit();
    match policy {
        AssignmentPolicy::StaticSparse { .. } | AssignmentPolicy::StaticDense { .. } => {
            if roll < 0.72 {
                NamingScheme::StaticKeyword { domain }
            } else if roll < 0.88 {
                NamingScheme::Opaque { domain }
            } else {
                NamingScheme::None
            }
        }
        AssignmentPolicy::RoundRobin { .. }
        | AssignmentPolicy::DhcpShort { .. }
        | AssignmentPolicy::DhcpLong { .. } => {
            if roll < 0.48 {
                NamingScheme::DynamicKeyword { domain }
            } else if roll < 0.72 {
                NamingScheme::PoolKeyword { domain }
            } else if roll < 0.90 {
                NamingScheme::Opaque { domain }
            } else {
                NamingScheme::None
            }
        }
        AssignmentPolicy::Gateway { .. }
        | AssignmentPolicy::BotFarm { .. }
        | AssignmentPolicy::ServerFarm { .. } => NamingScheme::Opaque { domain },
        _ => NamingScheme::None,
    }
}

impl Universe {
    /// Builds the universe structure (ASes, blocks, registries, PTR,
    /// BGP). Deterministic in the config (and in particular its seed).
    pub fn generate(config: UniverseConfig) -> Universe {
        config.validate();
        let root = SeedMixer::new(config.seed);
        let mut ases = Vec::new();
        let mut blocks: Vec<BlockEntry> = Vec::new();
        let mut delegations = DelegationDb::new();
        let mut ptr = PtrTable::new();
        let mut base_table = RoutingTable::new();
        let mut pending_events: Vec<BgpEvent> = Vec::new();
        let mut region_cursor = [0u32; 5];
        let year_days = config.weeks * 7;
        // Probing happens during the daily window (the paper's scans
        // are from October, inside its Aug–Dec window).
        let scan_week = ((config.daily_offset + config.daily_days / 2) / 7) as u16;
        let mut as_counter = 0u64;

        for &(kind, count) in &config.as_counts {
            for _ in 0..count {
                let as_seed = root.child(0xA5).child(as_counter);
                let asn = Asn(64_496 + as_counter as u32);
                let country = pick_country(as_seed.child(1));
                let rir = country.rir;
                // Carve the AS's /18 region out of its RIR's /8.
                let cursor = &mut region_cursor[rir.index()];
                assert!(*cursor < (1 << 10), "RIR {rir} address plan exhausted");
                let region_base = (rir_base_octet(rir) << 24) | (*cursor << 14);
                *cursor += 1;
                let region = Prefix::new(Addr::new(region_base), 18);
                delegations.insert(Delegation {
                    prefix: region,
                    rir,
                    country: CountryCode::new(country.code),
                });

                // Block count: log-normal-ish around the configured mean.
                let n_blocks = ((config.mean_blocks_per_as
                    * (0.7 * as_seed.child(2).normal()).exp())
                .round() as u32)
                    .clamp(1, REGION_BLOCKS);
                // Announce only the covering prefix of the blocks in
                // use — registries delegate generously, but routing
                // advertises what is deployed (plus rounding up to a
                // power of two, as CIDR forces).
                let announced_len = 24 - (32 - (n_blocks.max(1) - 1).leading_zeros()) as u8;
                base_table.announce(Prefix::new(Addr::new(region_base), announced_len), asn);
                let first_block = blocks.len();
                let domain = format!("as{}.{}.example", asn.0, country.code.to_lowercase());
                for b in 0..n_blocks {
                    let block = Block24::new((region_base >> 8) + b);
                    let bseed = as_seed.child(0xB10C).child(b as u64);
                    let policy = draw_policy(kind, bseed.child(1));

                    // Year-scale lifecycle.
                    let mut alive = (0u16, config.weeks as u16);
                    let life_roll = bseed.child(2).unit();
                    if life_roll < config.partial_lifespan_rate {
                        let edge = bseed.child(3).unit();
                        let w = config.weeks as u16;
                        if edge < 0.5 {
                            alive = (((bseed.child(4).unit() * (w as f64 * 0.7)) as u16) + 1, w);
                        } else {
                            alive = (0, ((bseed.child(5).unit() * (w as f64 * 0.7)) as u16)
                                .max(2));
                        }
                    }

                    // Mid-window restructure (only meaningful where
                    // there is client activity to change).
                    let restructure = if policy.cdn_active()
                        && bseed.child(6).unit() < config.restructure_rate
                    {
                        let span = config.daily_days;
                        let at = config.daily_offset
                            + (span as f64 * (0.2 + 0.6 * bseed.child(7).unit())) as usize;
                        let new_policy = draw_policy(kind, bseed.child(8));
                        Some((at, new_policy))
                    } else {
                        None
                    };

                    // Connectivity outage inside the daily window
                    // (2..=6 dark days), independent of policy.
                    let outage = if policy.cdn_active()
                        && bseed.child(15).unit() < config.outage_rate
                    {
                        let len = 2 + (bseed.child(16).unit() * 5.0) as usize;
                        let latest = config.daily_days.saturating_sub(len + 2);
                        let at = config.daily_offset
                            + 1
                            + (bseed.child(17).unit() * latest.max(1) as f64) as usize;
                        Some((at, len))
                    } else {
                        None
                    };

                    // BGP visibility of lifecycle edges.
                    let vis = bseed.child(9).unit() < config.bgp_visibility_rate;
                    if alive.0 > 0 && vis {
                        pending_events.push(BgpEvent {
                            day: alive.0 * 7,
                            prefix: block.prefix(),
                            kind: BgpEventKind::Announce { origin: asn },
                        });
                    }
                    if (alive.1 as usize) < config.weeks && vis {
                        // Announce the /24 explicitly so the withdrawal
                        // is observable.
                        base_table.announce(block.prefix(), asn);
                        pending_events.push(BgpEvent {
                            day: alive.1 * 7,
                            prefix: block.prefix(),
                            kind: BgpEventKind::Withdraw,
                        });
                    }
                    // Restructure occasionally visible as origin change.
                    if let Some((at, _)) = restructure {
                        if bseed.child(10).unit() < config.bgp_visibility_rate {
                            pending_events.push(BgpEvent {
                                day: at as u16,
                                prefix: block.prefix(),
                                kind: BgpEventKind::OriginChange {
                                    to: Asn(asn.0 ^ 0x1_0000),
                                },
                            });
                        }
                    }
                    // Background routing noise on steady blocks.
                    if bseed.child(11).unit() < 0.01 {
                        let day = (bseed.child(12).unit() * (year_days as f64 - 2.0)) as u16 + 1;
                        pending_events.push(BgpEvent {
                            day,
                            prefix: block.prefix(),
                            kind: BgpEventKind::OriginChange { to: Asn(asn.0 ^ 0x2_0000) },
                        });
                    }

                    ptr.set_scheme(block, ptr_scheme(&policy, domain.clone(), bseed.child(13)));
                    // A block retired or not yet deployed at scan time
                    // has nothing to answer.
                    let probe = if alive.0 <= scan_week && scan_week < alive.1 {
                        policy.probe_profile(bseed.child(14), country)
                    } else {
                        AssignmentPolicy::Unused.probe_profile(bseed.child(14), country)
                    };
                    blocks.push(BlockEntry {
                        block,
                        as_index: ases.len(),
                        policy,
                        restructure,
                        alive_weeks: alive,
                        outage,
                        seed: bseed,
                        probe,
                    });
                }
                ases.push(AsEntry {
                    asn,
                    kind,
                    country: CountryCode::new(country.code),
                    rir,
                    region,
                    block_range: (first_block, blocks.len()),
                });
                as_counter += 1;
            }
        }

        blocks.sort_by_key(|b| b.block);
        // Re-point AS block ranges after the sort via lookup; ranges
        // remain contiguous because each AS owns a contiguous region.
        let mut by_as: Vec<(usize, usize)> = vec![(usize::MAX, 0); ases.len()];
        for (i, b) in blocks.iter().enumerate() {
            let slot = &mut by_as[b.as_index];
            slot.0 = slot.0.min(i);
            slot.1 = slot.1.max(i + 1);
        }
        for (a, range) in ases.iter_mut().zip(by_as) {
            if range.0 != usize::MAX {
                a.block_range = range;
            }
        }

        pending_events.sort_by_key(|e| e.day);
        let mut bgp = BgpTimeline::new(base_table);
        for e in pending_events {
            bgp.push(e);
        }

        Universe { config, ases, blocks, delegations, ptr, bgp }
    }

    /// Ground-truth population summary: `/24` counts per policy
    /// family. Useful for report headers and sanity checks.
    pub fn population_summary(&self) -> PopulationSummary {
        let mut s = PopulationSummary::default();
        for e in &self.blocks {
            match e.policy {
                AssignmentPolicy::Unused => s.unused += 1,
                AssignmentPolicy::StaticSparse { .. } | AssignmentPolicy::StaticDense { .. } => {
                    s.static_blocks += 1
                }
                AssignmentPolicy::RoundRobin { .. }
                | AssignmentPolicy::DhcpShort { .. }
                | AssignmentPolicy::DhcpLong { .. } => s.dynamic_blocks += 1,
                AssignmentPolicy::Gateway { .. } => s.gateway_blocks += 1,
                AssignmentPolicy::BotFarm { .. } => s.bot_blocks += 1,
                AssignmentPolicy::ServerFarm { .. } => s.server_blocks += 1,
                AssignmentPolicy::RouterInfra { .. } => s.router_blocks += 1,
                AssignmentPolicy::NonWeb { .. } => s.nonweb_blocks += 1,
            }
            if e.restructure.is_some() {
                s.restructured += 1;
            }
            if e.outage.is_some() {
                s.with_outage += 1;
            }
        }
        s
    }

    /// The generation config.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// The RIR delegation database.
    pub fn delegations(&self) -> &DelegationDb {
        &self.delegations
    }

    /// The reverse-DNS table.
    pub fn ptr_table(&self) -> &PtrTable {
        &self.ptr
    }

    /// The BGP timeline (day axis: 0 .. weeks×7).
    pub fn bgp(&self) -> &BgpTimeline {
        &self.bgp
    }

    /// The AS owning `block`, if it is part of the universe.
    pub fn as_of_block(&self, block: Block24) -> Option<&AsEntry> {
        self.blocks
            .binary_search_by_key(&block, |b| b.block)
            .ok()
            .map(|i| &self.ases[self.blocks[i].as_index])
    }

    fn entry_of(&self, block: Block24) -> Option<&BlockEntry> {
        self.blocks
            .binary_search_by_key(&block, |b| b.block)
            .ok()
            .map(|i| &self.blocks[i])
    }

    fn block_alive(&self, e: &BlockEntry, t: usize) -> bool {
        let week = (t / 7) as u16;
        week >= e.alive_weeks.0 && week < e.alive_weeks.1
    }

    /// Generates the daily dataset (the paper's 112-day per-day view):
    /// a [sweep](Self::build_datasets) with the daily accumulator alone.
    pub fn build_daily(&self) -> DailyDataset {
        let (records, _) = self.sweep(sweep_threads(), || (), |e, scratch, ()| {
            let mut sink = DailyAcc::new(self, e);
            infallible(self.walk_block(e, scratch, &mut sink));
            sink.finish(&mut scratch.tables)
        });
        self.daily_dataset(records)
    }

    /// Generates the weekly dataset (the paper's 52-week year view):
    /// a [sweep](Self::build_datasets) with the weekly accumulator
    /// alone.
    pub fn build_weekly(&self) -> WeeklyDataset {
        let threads = sweep_threads();
        let (rows, week_hits) = self.sweep(threads, || self.no_week_hits(), |e, scratch, hits| {
            let mut sink = WeeklyAcc::new(self, e, hits);
            infallible(self.walk_block(e, scratch, &mut sink));
            sink.finish()
        });
        self.weekly_dataset(threads, rows, week_hits)
    }

    /// Generates both datasets in one sweep: every block's year is
    /// simulated once and each day handed to the accumulators whose
    /// window holds it (the daily window lies inside the year). Equal
    /// to `(build_daily(), build_weekly())`, for the price of the
    /// weekly build alone.
    pub fn build_datasets(&self) -> (DailyDataset, WeeklyDataset) {
        self.datasets_on(sweep_threads())
    }

    fn datasets_on(&self, threads: usize) -> (DailyDataset, WeeklyDataset) {
        let (both, week_hits) = self.sweep(threads, || self.no_week_hits(), |e, scratch, hits| {
            let mut sinks = (DailyAcc::new(self, e), WeeklyAcc::new(self, e, hits));
            infallible(self.walk_block(e, scratch, &mut sinks));
            (sinks.0.finish(&mut scratch.tables), sinks.1.finish())
        });
        let (records, rows): (Vec<_>, Vec<_>) = both.into_iter().unzip();
        (self.daily_dataset(records), self.weekly_dataset(threads, rows, week_hits))
    }

    fn daily_dataset(&self, records: Vec<Option<BlockRecord>>) -> DailyDataset {
        let mut blocks: Vec<BlockRecord> = records.into_iter().flatten().collect();
        blocks.sort_by_key(|r| r.block);
        DailyDataset { num_days: self.config.daily_days, blocks, coverage: None }
    }

    /// One empty hit list per week: what each sweep thread's weekly
    /// accumulators append to.
    fn no_week_hits(&self) -> Vec<Vec<u64>> {
        vec![Vec::new(); self.config.weeks]
    }

    /// Assembles the weekly dataset from the per-block rows and the
    /// per-thread hit lists. Each week's list is sorted — the canonical
    /// order, matching `WeeklyDatasetBuilder::finish`, so direct builds
    /// and collector outputs compare by `==` — which also erases which
    /// thread happened to hold which block's hits.
    fn weekly_dataset(
        &self,
        threads: usize,
        rows: Vec<Option<(Block24, Box<[u64; 256]>)>>,
        week_hits: Vec<Vec<Vec<u64>>>,
    ) -> WeeklyDataset {
        let mut blocks: Vec<_> = rows.into_iter().flatten().collect();
        blocks.sort_by_key(|(b, _)| *b);
        let weeks: Vec<usize> = (0..self.config.weeks).collect();
        let (week_hits, _) = claim_map(&weeks, threads, || (), |(), w| {
            let mut week = Vec::with_capacity(week_hits.iter().map(|thread| thread[w].len()).sum());
            for thread in &week_hits {
                week.extend_from_slice(&thread[w]);
            }
            week.sort_unstable();
            Arc::new(week)
        });
        WeeklyDataset { num_weeks: self.config.weeks, blocks, week_hits, coverage: None }
    }

    /// Prepares the (pre-restructure, post-restructure) simulators of
    /// a block.
    fn block_sims(&self, e: &BlockEntry) -> (PolicySim, Option<(usize, PolicySim)>) {
        let inst = self.ases[e.as_index].kind.institutional();
        let sim1 = PolicySim::new(e.policy.clone(), e.seed, inst, self.config.weeks);
        let sim2 = e.restructure.as_ref().map(|(d, p)| {
            (*d, PolicySim::new(p.clone(), e.seed.child(0x7E57), inst, self.config.weeks))
        });
        (sim1, sim2)
    }

    /// The one walk over a block: builds its simulators once,
    /// evaluates each absolute day `sink` asks for exactly once —
    /// lifecycle and outage gating plus the applicable policy
    /// simulator — and hands the day to the sink. Every builder and
    /// every emitter goes through here, which is what makes them
    /// produce identical datasets.
    pub(crate) fn walk_block<S: BlockSink>(
        &self,
        e: &BlockEntry,
        scratch: &mut Scratch,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        let (before, restructured) = self.block_sims(e);
        let Scratch { entries, tables } = scratch;
        for t in sink.days() {
            // Outage: connectivity lost, nothing reaches the CDN.
            let dark = !self.block_alive(e, t)
                || matches!(e.outage, Some((start, len)) if t >= start && t < start + len);
            if dark {
                entries.clear();
            } else {
                let sim = match &restructured {
                    Some((change_day, after)) if t >= *change_day => after,
                    _ => &before,
                };
                sim.eval_day_into(t, entries);
            }
            sink.day(t, entries, tables)?;
        }
        Ok(())
    }

    /// [`walk_block`](Self::walk_block) with a closure for a sink:
    /// `visit` receives each of `days` once, in order.
    pub(crate) fn walk_days<E>(
        &self,
        e: &BlockEntry,
        scratch: &mut Scratch,
        days: Range<usize>,
        visit: impl FnMut(usize, &[DayEntry], &mut Tables) -> Result<(), E>,
    ) -> Result<(), E> {
        self.walk_block(e, scratch, &mut EachDay { days, visit })
    }

    /// Runs `per_block` over every block on `threads` threads, each
    /// with a scratch and a `state()` of its own, and returns the
    /// results in block order plus every thread's state. Threads claim
    /// blocks heaviest first, so the last claims are the cheap ones and
    /// no thread is left finishing a slice of 400-subscriber pools
    /// alone; which thread ran which block shows in nothing returned
    /// but the split of the states.
    fn sweep<S: Send, R: Send>(
        &self,
        threads: usize,
        state: impl Fn() -> S + Sync,
        per_block: impl Fn(&BlockEntry, &mut Scratch, &mut S) -> R + Sync,
    ) -> (Vec<R>, Vec<S>) {
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_by_key(|&i| Reverse(self.blocks[i].weight()));
        let (results, states) = claim_map(
            &order,
            threads,
            || (Scratch::new(self), state()),
            |(scratch, state), i| per_block(&self.blocks[i], scratch, state),
        );
        (results, states.into_iter().map(|(_, state)| state).collect())
    }

    /// The User-Agent sampler of block `e` on absolute day `t`.
    pub(crate) fn ua_day(&self, e: &BlockEntry, t: usize) -> UaDay {
        UaDay {
            seed: e.seed.child(0x0A9E).child(t as u64),
            sample_rate: self.config.ua_sample_rate as f64,
        }
    }

    /// Expands one block's activity on dataset day `d` (0-based within
    /// the daily window) into raw per-request log events — the
    /// pre-aggregation form of the same data [`Universe::build_daily`]
    /// summarizes (see [`crate::requests`]).
    pub fn raw_requests(&self, block: Block24, d: usize) -> Vec<crate::requests::RawRequest> {
        assert!(d < self.config.daily_days, "day outside the daily window");
        let Some(e) = self.entry_of(block) else { return Vec::new() };
        let t = self.config.daily_offset + d;
        let kind = self.ases[e.as_index].kind;
        let mut out = Vec::new();
        infallible(self.walk_days(e, &mut Scratch::new(self), t..t + 1, |_, entries, _| {
            for entry in entries {
                let shape = match entry.pop {
                    HostPopulation::Bot(_) => crate::requests::DiurnalShape::Flat,
                    _ if kind.institutional() => crate::requests::DiurnalShape::Institutional,
                    _ => crate::requests::DiurnalShape::Residential,
                };
                out.extend(crate::requests::expand_with_shape(
                    e.seed.child(0x4EA),
                    d as u16,
                    block.addr(entry.host),
                    entry.hits,
                    shape,
                ));
            }
            Ok(())
        }));
        out.sort_unstable_by_key(|r| r.time_s);
        out
    }
}

impl BlockEntry {
    /// What walking the block costs, relative to other blocks: the
    /// simulated population of the heavier of its two policies.
    fn weight(&self) -> usize {
        let after = self.restructure.as_ref().map_or(0, |(_, policy)| policy.population());
        self.policy.population().max(after)
    }
}

/// Discharges the `Result` of a walk whose sink cannot fail.
pub(crate) fn infallible(walked: Result<(), Infallible>) {
    if let Err(never) = walked {
        match never {}
    }
}

/// Consumer of one block's walk: names the days it wants and receives
/// each of them once, in order.
pub(crate) trait BlockSink {
    /// What can go wrong consuming a day ([`Infallible`] for the
    /// accumulators, the writer's error for the emitters).
    type Error;

    /// The absolute days to evaluate.
    fn days(&self) -> Range<usize>;

    /// The block's activity on absolute day `t` (empty when the block
    /// is dark), with the scratch tables the walk is not using itself.
    fn day(&mut self, t: usize, entries: &[DayEntry], tables: &mut Tables)
        -> Result<(), Self::Error>;
}

/// Two sinks on one walk: the union of their days is evaluated once
/// and each sink sees the days it asked for. They must not share a
/// scratch table.
impl<A: BlockSink, B: BlockSink<Error = A::Error>> BlockSink for (A, B) {
    type Error = A::Error;

    fn days(&self) -> Range<usize> {
        let (a, b) = (self.0.days(), self.1.days());
        a.start.min(b.start)..a.end.max(b.end)
    }

    fn day(&mut self, t: usize, entries: &[DayEntry], tables: &mut Tables) -> Result<(), A::Error> {
        if self.0.days().contains(&t) {
            self.0.day(t, entries, tables)?;
        }
        if self.1.days().contains(&t) {
            self.1.day(t, entries, tables)?;
        }
        Ok(())
    }
}

/// A closure as a sink over a fixed range of days.
struct EachDay<F> {
    days: Range<usize>,
    visit: F,
}

impl<E, F: FnMut(usize, &[DayEntry], &mut Tables) -> Result<(), E>> BlockSink for EachDay<F> {
    type Error = E;

    fn days(&self) -> Range<usize> {
        self.days.clone()
    }

    fn day(&mut self, t: usize, entries: &[DayEntry], tables: &mut Tables) -> Result<(), E> {
        (self.visit)(t, entries, tables)
    }
}

/// The buffers one block walk after another reuses — one per thread in
/// a sweep, one per call in the emitters — so that walking a block
/// allocates only what its output owns. A finished walk leaves every
/// table as it found it.
pub struct Scratch {
    entries: Vec<DayEntry>,
    tables: Tables,
}

/// The accumulator tables of a [`Scratch`], lent to the sink while
/// the walk fills the entry buffer.
pub(crate) struct Tables {
    daily_days: usize,
    /// The hit counts of host `h`'s active days so far, from
    /// `h * daily_days` on (the daily accumulator counts them).
    hits: Vec<u32>,
    /// The UA hashes sampled in the block so far.
    ua: Vec<u64>,
    /// Hits per host in the week being accumulated (see [`fold_week`]).
    week: [u64; 256],
}

impl Scratch {
    pub(crate) fn new(universe: &Universe) -> Scratch {
        let daily_days = universe.config.daily_days;
        Scratch {
            entries: Vec::with_capacity(256),
            tables: Tables {
                daily_days,
                hits: vec![0; 256 * daily_days],
                ua: Vec::new(),
                week: [0; 256],
            },
        }
    }
}

/// The daily accumulator: one block's window → its [`BlockRecord`].
struct DailyAcc<'a> {
    universe: &'a Universe,
    e: &'a BlockEntry,
    rows: Box<[DayBits; 256]>,
    days_active: [u8; 256],
    totals: [u64; 256],
    total_hits: u64,
    ua_samples: u64,
}

impl<'a> DailyAcc<'a> {
    fn new(universe: &'a Universe, e: &'a BlockEntry) -> Self {
        DailyAcc {
            universe,
            e,
            rows: Box::new([DayBits::new(); 256]),
            days_active: [0; 256],
            totals: [0; 256],
            total_hits: 0,
            ua_samples: 0,
        }
    }

    fn finish(self, tables: &mut Tables) -> Option<BlockRecord> {
        tables.ua.sort_unstable();
        tables.ua.dedup();
        let ua_unique = tables.ua.len() as u32;
        tables.ua.clear();
        let mut ip_traffic = Vec::new();
        for (h, &days_active) in self.days_active.iter().enumerate() {
            if days_active == 0 {
                continue;
            }
            // The samples are not read again, so select in place.
            let from = h * tables.daily_days;
            let samples = &mut tables.hits[from..from + days_active as usize];
            let mid = samples.len() / 2;
            ip_traffic.push(IpTraffic {
                host: h as u8,
                days_active,
                total_hits: self.totals[h],
                median_daily_hits: *samples.select_nth_unstable(mid).1,
            });
        }
        if ip_traffic.is_empty() {
            return None;
        }
        Some(BlockRecord {
            block: self.e.block,
            rows: self.rows,
            total_hits: self.total_hits,
            ua_samples: self.ua_samples,
            ua_unique,
            ip_traffic,
        })
    }
}

impl BlockSink for DailyAcc<'_> {
    type Error = Infallible;

    fn days(&self) -> Range<usize> {
        self.universe.config.daily_window()
    }

    fn day(&mut self, t: usize, entries: &[DayEntry], tables: &mut Tables) -> Result<(), Infallible> {
        let d = t - self.universe.config.daily_offset;
        self.universe.ua_day(self.e, t).each(entries, |entry, samples| {
            let h = entry.host as usize;
            self.rows[h].set(d);
            tables.hits[h * tables.daily_days + self.days_active[h] as usize] = entry.hits;
            self.days_active[h] += 1;
            self.totals[h] += entry.hits as u64;
            self.total_hits += entry.hits as u64;
            for hash in samples {
                self.ua_samples += 1;
                tables.ua.push(hash);
            }
            Ok(())
        })
    }
}

/// The weekly accumulator: one block's year → its activity rows, and
/// its per-(address, week) hit totals appended to `week_hits`.
struct WeeklyAcc<'a> {
    block: Block24,
    days: Range<usize>,
    rows: Box<[u64; 256]>,
    any: bool,
    week_hits: &'a mut [Vec<u64>],
}

impl<'a> WeeklyAcc<'a> {
    fn new(universe: &Universe, e: &BlockEntry, week_hits: &'a mut [Vec<u64>]) -> Self {
        WeeklyAcc {
            block: e.block,
            days: 0..universe.config.weeks * 7,
            rows: Box::new([0; 256]),
            any: false,
            week_hits,
        }
    }

    fn finish(self) -> Option<(Block24, Box<[u64; 256]>)> {
        self.any.then_some((self.block, self.rows))
    }
}

impl BlockSink for WeeklyAcc<'_> {
    type Error = Infallible;

    fn days(&self) -> Range<usize> {
        self.days.clone()
    }

    fn day(&mut self, t: usize, entries: &[DayEntry], tables: &mut Tables) -> Result<(), Infallible> {
        fold_week(t, entries, tables, |w, host, hits| {
            self.rows[host as usize] |= 1u64 << w;
            self.week_hits[w].push(hits);
            self.any = true;
            Ok(())
        })
    }
}

/// Adds absolute day `t` to the week being accumulated and, on the
/// week's last day, hands `emit` the `(week, host, hits)` of every
/// address active in it, by ascending host, leaving the table zeroed
/// for the next week. For walks over whole weeks.
pub(crate) fn fold_week<E>(
    t: usize,
    entries: &[DayEntry],
    tables: &mut Tables,
    mut emit: impl FnMut(usize, u8, u64) -> Result<(), E>,
) -> Result<(), E> {
    for entry in entries {
        tables.week[entry.host as usize] += entry.hits as u64;
    }
    if t % 7 == 6 {
        for (host, hits) in tables.week.iter_mut().enumerate() {
            if *hits > 0 {
                emit(t / 7, host as u8, std::mem::take(hits))?;
            }
        }
    }
    Ok(())
}

/// The User-Agent sampler of one (block, day) — see
/// [`Universe::ua_day`].
pub(crate) struct UaDay {
    seed: SeedMixer,
    sample_rate: f64,
}

impl UaDay {
    /// Hands `visit` each of the day's entries, in order, with the
    /// User-Agent hashes sampled for it — 1 in `ua_sample_rate` hits,
    /// Poisson-thinned — drawn as the iterator is advanced.
    ///
    /// An entry's draws are `poisson` and then `sample_ua` on
    /// `seed.child(host).rng()`. Most entries sample nothing, and below
    /// λ = 64 `poisson` says so on its first draw: zero when that draw
    /// is at most `exp(−λ)`. So the limits of up to 64 entries are taken
    /// in one loop, each entry's first draw comes from `first_unit()`,
    /// and only an entry that samples builds its generator and replays
    /// `poisson` from the start: the same draws for every entry.
    pub(crate) fn each<E>(
        &self,
        entries: &[DayEntry],
        mut visit: impl FnMut(&DayEntry, UaSamples) -> Result<(), E>,
    ) -> Result<(), E> {
        const CHUNK: usize = 64;
        let lambda_of = |entry: &DayEntry| entry.hits as f64 / self.sample_rate;
        for chunk in entries.chunks(CHUNK) {
            let mut limits = [0f64; CHUNK];
            for (limit, entry) in limits.iter_mut().zip(chunk) {
                *limit = (-lambda_of(entry)).exp();
            }
            for (entry, &limit) in chunk.iter().zip(&limits) {
                let (lambda, node) = (lambda_of(entry), self.seed.child(entry.host as u64));
                let mut samples = UaSamples { pop: entry.pop, left: 0, rng: None };
                if lambda >= 64.0 || node.first_unit() > limit {
                    let mut rng = node.rng();
                    samples.left = poisson(&mut rng, lambda);
                    samples.rng = Some(rng);
                }
                visit(entry, samples)?;
            }
        }
        Ok(())
    }
}

/// The User-Agent hashes sampled for one entry (see [`UaDay::each`]).
pub(crate) struct UaSamples {
    pop: HostPopulation,
    left: u64,
    /// `None` only when `left` is zero.
    rng: Option<rand::rngs::StdRng>,
}

impl Iterator for UaSamples {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let rng = self.rng.as_mut().expect("an entry that samples has its generator");
        Some(sample_ua(&self.pop, rng))
    }
}

/// Samples one User-Agent hash for the population behind an address:
/// picks a (device, app) of the subscriber and hashes the concrete
/// header string it renders (see [`crate::ua`]) — so distinctness in
/// the dataset reflects distinctness of actual strings.
fn sample_ua(pop: &HostPopulation, rng: &mut rand::rngs::StdRng) -> u64 {
    fn subscriber_ua(key: u64, rng: &mut rand::rngs::StdRng) -> u64 {
        // 1–3 devices per subscriber, a browser plus 0–4 app UAs each.
        let devices = 1 + (key % 3);
        let dev = rng.random_range(0..devices);
        let apps = 1 + ((key >> 8) % 5);
        let app = rng.random_range(0..apps);
        crate::ua::render_hash(key, dev, app)
    }
    match *pop {
        HostPopulation::Subscriber(key) => subscriber_ua(key, rng),
        HostPopulation::Gateway { base, users } => {
            let user = rng.random_range(0..users.max(1) as u64);
            subscriber_ua(SeedMixer::new(base).child(user).value(), rng)
        }
        HostPopulation::Bot(key) => crate::ua::render_bot_hash(key),
    }
}

/// How many threads a sweep runs on.
fn sweep_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

/// Runs `work` once per index in `order` on up to `threads` scoped
/// threads and returns the results by index (`order` is a permutation
/// of `0..order.len()`) plus each thread's state. A thread makes its
/// state with `init`, then claims the next unclaimed position of
/// `order` until none is left — so `order` decides what is started
/// first and a thread that drew cheap work simply claims more.
pub(crate) fn claim_map<S: Send, R: Send>(
    order: &[usize],
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> R + Sync,
) -> (Vec<R>, Vec<S>) {
    // Relaxed: the counter only hands out positions; `order` was
    // complete before any thread started and results travel back
    // through `join`.
    let next = AtomicUsize::new(0);
    let run = || {
        let mut state = init();
        let mut done = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, work(&mut state, i)));
        }
        (state, done)
    };
    let threads = threads.min(order.len());
    let per_thread = if threads <= 1 {
        vec![run()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(run)).collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("sweep thread panicked"))
                .collect()
        })
    };
    let mut results: Vec<Option<R>> = order.iter().map(|_| None).collect();
    let mut states = Vec::with_capacity(per_thread.len());
    for (state, done) in per_thread {
        states.push(state);
        for (i, result) in done {
            results[i] = Some(result);
        }
    }
    (results.into_iter().map(|r| r.expect("every index claimed once")).collect(), states)
}

impl ProbeTarget for Universe {
    fn icmp_response_probability(&self, addr: Addr) -> f64 {
        self.entry_of(Block24::of(addr))
            .map(|e| e.probe.icmp[addr.host_index() as usize] as f64)
            .unwrap_or(0.0)
    }

    fn open_services(&self, addr: Addr) -> ServiceSet {
        self.entry_of(Block24::of(addr))
            .map(|e| e.probe.services_of(addr.host_index()))
            .unwrap_or_default()
    }

    fn is_router_interface(&self, addr: Addr) -> bool {
        self.entry_of(Block24::of(addr))
            .map(|e| e.probe.routers.get(addr.host_index()))
            .unwrap_or(false)
    }

    fn candidate_blocks(&self) -> Vec<Block24> {
        self.blocks.iter().map(|b| b.block).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Universe {
        Universe::generate(UniverseConfig::tiny(0xBEEF))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert_eq!(a.ases.len(), b.ases.len());
        let da = a.build_daily();
        let db = b.build_daily();
        assert_eq!(da.total_active(), db.total_active());
        assert_eq!(da.blocks.len(), db.blocks.len());
        for (x, y) in da.blocks.iter().zip(db.blocks.iter()) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.total_hits, y.total_hits);
            assert_eq!(x.ua_unique, y.ua_unique);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Universe::generate(UniverseConfig::tiny(1));
        let b = Universe::generate(UniverseConfig::tiny(2));
        let (da, db) = (a.build_daily(), b.build_daily());
        assert_ne!(
            (da.total_active(), da.blocks.len()),
            (db.total_active(), db.blocks.len())
        );
    }

    #[test]
    fn blocks_are_sorted_and_owned() {
        let u = tiny();
        assert!(u.blocks.windows(2).all(|w| w[0].block < w[1].block));
        for (i, e) in u.blocks.iter().enumerate() {
            let a = &u.ases[e.as_index];
            assert!(a.region.contains(e.block.network()), "block outside AS region");
            let (lo, hi) = a.block_range;
            assert!(lo <= i && i < hi, "block range mismatch");
        }
        // as_of_block agrees.
        let e = &u.blocks[0];
        assert_eq!(u.as_of_block(e.block).unwrap().asn, u.ases[e.as_index].asn);
        assert!(u.as_of_block(Block24::new(1)).is_none());
    }

    #[test]
    fn delegations_cover_every_block() {
        let u = tiny();
        for e in &u.blocks {
            let d = u.delegations().lookup(e.block.network());
            assert!(d.is_some(), "block {} undelegated", e.block);
            let a = &u.ases[e.as_index];
            assert_eq!(d.unwrap().rir, a.rir);
            assert_eq!(d.unwrap().country, a.country);
        }
    }

    #[test]
    fn bgp_base_routes_every_block() {
        let u = tiny();
        let table = u.bgp().base();
        for e in &u.blocks {
            let origin = table.origin_of(e.block.addr(1));
            assert_eq!(origin, Some(u.ases[e.as_index].asn));
        }
    }

    #[test]
    fn daily_dataset_respects_window_and_activity() {
        let u = tiny();
        let ds = u.build_daily();
        assert_eq!(ds.num_days, u.config().daily_days);
        assert!(ds.total_active() > 50, "tiny universe too quiet: {}", ds.total_active());
        // Only CDN-active policies may appear.
        for rec in &ds.blocks {
            let e = u.entry_of(rec.block).unwrap();
            let active_any = e.policy.cdn_active()
                || e.restructure.as_ref().map(|(_, p)| p.cdn_active()).unwrap_or(false);
            assert!(active_any, "CDN-inactive block {} in dataset", rec.block);
        }
    }

    #[test]
    fn weekly_dataset_spans_year() {
        let u = tiny();
        let ws = u.build_weekly();
        assert_eq!(ws.num_weeks, u.config().weeks);
        assert!(ws.total_active() > 50);
        // Weekly activity must exist in most weeks.
        let active_weeks = (0..ws.num_weeks)
            .filter(|&w| !ws.week_hits[w].is_empty())
            .count();
        assert!(active_weeks > ws.num_weeks / 2);
    }

    #[test]
    fn weekly_and_daily_agree_where_they_overlap() {
        let u = tiny();
        let ds = u.build_daily();
        let ws = u.build_weekly();
        // Daily window [offset, offset+days) maps to weeks
        // offset/7 .. (offset+days)/7. An address active in the daily
        // dataset must be active in the covering weekly range.
        let daily_union = ds.all_active();
        let w0 = u.config().daily_offset / 7;
        let w1 = (u.config().daily_offset + u.config().daily_days).div_ceil(7);
        let weekly_union = ws.window_union(w0..w1.min(ws.num_weeks));
        for addr in daily_union.iter() {
            assert!(weekly_union.contains(addr), "daily-active {addr} missing weekly");
        }
    }

    #[test]
    fn one_sweep_builds_what_the_two_builders_build() {
        for config in [UniverseConfig::tiny(0xBEEF), UniverseConfig::small(0x5EED)] {
            let u = Universe::generate(config);
            assert_eq!(u.build_datasets(), (u.build_daily(), u.build_weekly()));
        }
    }

    #[test]
    fn datasets_do_not_depend_on_the_thread_count() {
        for seed in [0xBEEF, 2015] {
            let u = Universe::generate(UniverseConfig::tiny(seed));
            let one = u.datasets_on(1);
            assert!(one.0.total_active() > 50 && one.1.total_active() > 50);
            for threads in [2, 3, 8] {
                assert_eq!(u.datasets_on(threads), one, "{threads} threads");
            }
        }
    }

    #[test]
    fn claim_map_returns_results_by_index_whatever_the_claim_order() {
        let order = [3usize, 0, 4, 1, 2];
        for threads in [0, 1, 2, 8] {
            let (squares, states) = claim_map(&order, threads, || 0usize, |claimed, i| {
                *claimed += 1;
                i * i
            });
            assert_eq!(squares, [0, 1, 4, 9, 16]);
            assert_eq!(states.iter().sum::<usize>(), order.len());
            assert!(states.len() <= threads.max(1));
        }
        let (none, states) = claim_map(&[], 4, || (), |(), i| i);
        assert!(none.is_empty());
        assert_eq!(states.len(), 1);
    }

    #[test]
    fn the_walk_gates_and_switches_days_like_the_per_day_lookup_it_replaced() {
        // `entries_on` as it stood before the walk: lifecycle, then
        // outage, then whichever policy applies on the day.
        fn entries_on(
            e: &BlockEntry,
            sims: &(PolicySim, Option<(usize, PolicySim)>),
            t: usize,
        ) -> Vec<DayEntry> {
            let mut entries = Vec::new();
            let week = (t / 7) as u16;
            if week < e.alive_weeks.0 || week >= e.alive_weeks.1 {
                return entries;
            }
            if let Some((start, len)) = e.outage {
                if t >= start && t < start + len {
                    return entries;
                }
            }
            match &sims.1 {
                Some((cd, s2)) if t >= *cd => s2.eval_day_into(t, &mut entries),
                _ => sims.0.eval_day_into(t, &mut entries),
            }
            entries
        }

        let mut cfg = UniverseConfig::small(0x0D0);
        cfg.outage_rate = 0.3;
        cfg.restructure_rate = 0.4;
        cfg.partial_lifespan_rate = 0.4;
        let u = Universe::generate(cfg);
        let year = 0..u.config.weeks * 7;
        let mut scratch = Scratch::new(&u);
        let (mut outages, mut restructures, mut partial) = (0, 0, 0);
        for e in u.blocks.iter().filter(|e| e.weight() > 0).take(60) {
            outages += usize::from(e.outage.is_some());
            restructures += usize::from(e.restructure.is_some());
            partial += usize::from(e.alive_weeks != (0, u.config.weeks as u16));
            let sims = u.block_sims(e);
            let mut expected = year.clone();
            u.walk_days(e, &mut scratch, year.clone(), |t, entries, _| {
                assert_eq!(expected.next(), Some(t), "days out of order in {}", e.block);
                assert_eq!(entries, entries_on(e, &sims, t), "{} day {t}", e.block);
                Ok::<(), Infallible>(())
            })
            .unwrap();
            assert_eq!(expected.next(), None, "days missing in {}", e.block);
        }
        assert!(outages > 0 && restructures > 0 && partial > 0);
    }

    #[test]
    fn probe_target_is_consistent_with_ground_truth() {
        let u = tiny();
        let mut any_router = false;
        let mut any_server = false;
        for e in &u.blocks {
            match e.policy {
                AssignmentPolicy::RouterInfra { .. } => {
                    any_router = true;
                    let hosts: Vec<u8> = e.probe.routers.iter().collect();
                    assert!(!hosts.is_empty());
                    for h in hosts {
                        assert!(u.is_router_interface(e.block.addr(h)));
                    }
                }
                AssignmentPolicy::ServerFarm { .. } => {
                    any_server = true;
                    let (h, _) = e.probe.services[0];
                    assert!(!u.open_services(e.block.addr(h)).is_empty());
                }
                _ => {}
            }
        }
        assert!(any_router, "tiny universe should include router infra");
        assert!(any_server, "tiny universe should include servers");
        // Unknown space never responds.
        assert_eq!(u.icmp_response_probability(Addr::new(1)), 0.0);
        assert!(!u.is_router_interface(Addr::new(1)));
        assert!(u.open_services(Addr::new(1)).is_empty());
    }

    #[test]
    fn population_summary_accounts_for_every_block() {
        let u = tiny();
        let s = u.population_summary();
        assert_eq!(s.total() as usize, u.blocks.len());
        assert!(s.dynamic_blocks > 0);
        assert!(s.router_blocks > 0);
        assert!(s.restructured as usize <= u.blocks.len());
    }

    #[test]
    fn raw_requests_match_aggregates() {
        let u = tiny();
        let ds = u.build_daily();
        let rec = ds.blocks.iter().max_by_key(|r| r.total_hits).unwrap();
        // Pick a day the block is active on.
        let d = (0..u.config().daily_days)
            .find(|&d| rec.active_on(d) > 0)
            .expect("active day exists");
        let raw = u.raw_requests(rec.block, d);
        // Per-address counts must equal the aggregated hits that day.
        let agg = crate::requests::aggregate(raw.clone());
        let mut expected = 0u64;
        for (i, bits) in rec.rows.iter().enumerate() {
            if bits.get(d) {
                let t = rec.ip_traffic.iter().find(|t| t.host == i as u8).unwrap();
                let count = agg
                    .get(&(d as u16, rec.block.addr(i as u8)))
                    .copied()
                    .unwrap_or(0) as u64;
                assert!(count > 0, "active addr with no raw requests");
                let _ = t;
                expected += count;
            }
        }
        assert_eq!(raw.len() as u64, expected);
        // Arrival order.
        assert!(raw.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        // Outside the universe: empty.
        assert!(u.raw_requests(Block24::new(1), 0).is_empty());
    }

    #[test]
    fn outages_go_dark_and_are_detectable() {
        let mut cfg = UniverseConfig::small(0x0D0);
        cfg.outage_rate = 0.3;
        let u = Universe::generate(cfg);
        let with_outage: Vec<_> = u.blocks.iter().filter(|e| e.outage.is_some()).collect();
        assert!(!with_outage.is_empty(), "no outages injected");
        let ds = u.build_daily();
        let mut verified = 0;
        for e in &with_outage {
            let Some(rec) = ds.block(e.block) else { continue };
            let (start, len) = e.outage.unwrap();
            let rel = start - u.config().daily_offset;
            for d in rel..rel + len {
                assert_eq!(rec.active_on(d), 0, "block {} day {d} not dark", e.block);
            }
            verified += 1;
        }
        assert!(verified > 0);
        // The detector recovers at least some of them.
        let found = ipactive_core::outages::detect(
            &ds,
            &ipactive_core::outages::OutageParams::default(),
        );
        assert!(!found.is_empty(), "detector found nothing");
    }

    #[test]
    fn restructures_exist_at_configured_rate() {
        let mut cfg = UniverseConfig::small(3);
        cfg.restructure_rate = 0.5;
        let u = Universe::generate(cfg);
        let active: Vec<_> = u.blocks.iter().filter(|b| b.policy.cdn_active()).collect();
        let restructured = active.iter().filter(|b| b.restructure.is_some()).count();
        let frac = restructured as f64 / active.len() as f64;
        assert!((0.3..0.7).contains(&frac), "restructure fraction {frac}");
        // Change day inside the daily window.
        for b in &u.blocks {
            if let Some((d, _)) = b.restructure {
                assert!(d >= u.config().daily_offset);
                assert!(d < u.config().daily_offset + u.config().daily_days);
            }
        }
    }

    #[test]
    fn partial_lifespans_and_bgp_events() {
        let mut cfg = UniverseConfig::small(5);
        cfg.partial_lifespan_rate = 0.4;
        cfg.bgp_visibility_rate = 0.5;
        let u = Universe::generate(cfg);
        let partial = u
            .blocks
            .iter()
            .filter(|b| b.alive_weeks != (0, u.config().weeks as u16))
            .count();
        assert!(partial > 0);
        assert!(!u.bgp().events().is_empty());
        // Events are day-ordered (BgpTimeline::push would have panicked
        // otherwise); spot-check the first is within the year.
        assert!((u.bgp().events()[0].day as usize) < u.config().weeks * 7);
    }
}
