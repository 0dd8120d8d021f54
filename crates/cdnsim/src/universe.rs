//! Universe construction and dataset generation.

use crate::behavior::SeedMixer;
use crate::config::{AsKind, CountryProfile, UniverseConfig, COUNTRY_PROFILES};
use crate::policy::{AssignmentPolicy, BlockProbeProfile, HostPopulation, PolicySim};
use ipactive_bgp::{Asn, BgpEvent, BgpEventKind, BgpTimeline, RoutingTable};
use ipactive_core::{BlockRecord, DailyDataset, IpTraffic, WeeklyDataset};
use ipactive_dns::{NamingScheme, PtrTable};
use ipactive_net::{Addr, Block24, DayBits, Prefix};
use ipactive_probe::{ProbeTarget, ServiceSet};
use ipactive_rir::{CountryCode, Delegation, DelegationDb, Rir};
use rand::RngExt;
use std::collections::HashSet;
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
                    // Probing happens during the daily window (the
                    // paper's scans are from October, inside its
                    // Aug–Dec window); a block retired or not yet
                    // deployed then has nothing to answer.
                    let scan_week = ((config.daily_offset + config.daily_days / 2) / 7) as u16;
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

    /// Generates the daily dataset (the paper's 112-day per-day view),
    /// evaluating every block in parallel.
    pub fn build_daily(&self) -> DailyDataset {
        let cfg = &self.config;
        let records = parallel_map(&self.blocks, |e| self.block_daily(e));
        let mut blocks: Vec<BlockRecord> = records.into_iter().flatten().collect();
        blocks.sort_by_key(|r| r.block);
        DailyDataset { num_days: cfg.daily_days, blocks, coverage: None }
    }

    /// Prepares the (pre-restructure, post-restructure) simulators of
    /// a block.
    pub(crate) fn block_sims(&self, e: &BlockEntry) -> (PolicySim, Option<(usize, PolicySim)>) {
        let inst = self.ases[e.as_index].kind.institutional();
        let sim1 = PolicySim::new(e.policy.clone(), e.seed, inst, self.config.weeks);
        let sim2 = e.restructure.as_ref().map(|(d, p)| {
            (*d, PolicySim::new(p.clone(), e.seed.child(0x7E57), inst, self.config.weeks))
        });
        (sim1, sim2)
    }

    /// A block's activity on absolute day `t`: lifecycle gating plus
    /// the applicable policy simulator. Shared by the direct builders
    /// and the log pipeline so both produce identical datasets.
    pub(crate) fn entries_on(
        &self,
        e: &BlockEntry,
        sims: &(PolicySim, Option<(usize, PolicySim)>),
        t: usize,
    ) -> Vec<crate::policy::DayEntry> {
        if !self.block_alive(e, t) {
            return Vec::new();
        }
        if let Some((start, len)) = e.outage {
            if t >= start && t < start + len {
                return Vec::new(); // connectivity lost: nothing reaches the CDN
            }
        }
        match &sims.1 {
            Some((cd, s2)) if t >= *cd => s2.eval_day(t),
            _ => sims.0.eval_day(t),
        }
    }

    /// The User-Agent hashes sampled for one active (address, day)
    /// entry — 1 in `ua_sample_rate` hits, Poisson-thinned.
    pub(crate) fn ua_samples_for(
        &self,
        e: &BlockEntry,
        t: usize,
        entry: &crate::policy::DayEntry,
    ) -> Vec<u64> {
        let lambda = entry.hits as f64 / self.config.ua_sample_rate as f64;
        let mut rng = e
            .seed
            .child(0x0A9E)
            .child(t as u64)
            .child(entry.host as u64)
            .rng();
        let k = crate::behavior::poisson(&mut rng, lambda);
        (0..k).map(|_| sample_ua(&entry.pop, &mut rng)).collect()
    }

    /// Expands one block's activity on dataset day `d` (0-based within
    /// the daily window) into raw per-request log events — the
    /// pre-aggregation form of the same data [`Universe::build_daily`]
    /// summarizes (see [`crate::requests`]).
    pub fn raw_requests(&self, block: Block24, d: usize) -> Vec<crate::requests::RawRequest> {
        assert!(d < self.config.daily_days, "day outside the daily window");
        let Some(e) = self.entry_of(block) else { return Vec::new() };
        let sims = self.block_sims(e);
        let t = self.config.daily_offset + d;
        let kind = self.ases[e.as_index].kind;
        let mut out = Vec::new();
        for entry in self.entries_on(e, &sims, t) {
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
        out.sort_unstable_by_key(|r| r.time_s);
        out
    }

    fn block_daily(&self, e: &BlockEntry) -> Option<BlockRecord> {
        let cfg = &self.config;
        let sims = self.block_sims(e);
        let mut rows: Box<[DayBits; 256]> = Box::new([DayBits::new(); 256]);
        let mut daily: Vec<Vec<u32>> = vec![Vec::new(); 256];
        let mut totals = [0u64; 256];
        let mut total_hits = 0u64;
        let mut ua_samples = 0u64;
        let mut ua_hashes: HashSet<u64> = HashSet::new();
        for d in 0..cfg.daily_days {
            let t = cfg.daily_offset + d;
            for entry in self.entries_on(e, &sims, t) {
                let h = entry.host as usize;
                rows[h].set(d);
                daily[h].push(entry.hits);
                totals[h] += entry.hits as u64;
                total_hits += entry.hits as u64;
                for ua in self.ua_samples_for(e, t, &entry) {
                    ua_samples += 1;
                    ua_hashes.insert(ua);
                }
            }
        }
        let mut ip_traffic = Vec::new();
        for h in 0..256usize {
            if rows[h].is_empty() {
                continue;
            }
            // The samples are not read again, so select in place.
            let d = &mut daily[h];
            let mid = d.len() / 2;
            ip_traffic.push(IpTraffic {
                host: h as u8,
                days_active: rows[h].count() as u8,
                total_hits: totals[h],
                median_daily_hits: *d.select_nth_unstable(mid).1,
            });
        }
        if ip_traffic.is_empty() {
            return None;
        }
        Some(BlockRecord {
            block: e.block,
            rows,
            total_hits,
            ua_samples,
            ua_unique: ua_hashes.len() as u32,
            ip_traffic,
        })
    }

    /// Generates the weekly dataset (the paper's 52-week year view),
    /// evaluating every block in parallel.
    pub fn build_weekly(&self) -> WeeklyDataset {
        let cfg = &self.config;
        let per_block = parallel_map(&self.blocks, |e| self.block_weekly(e));
        let mut blocks = Vec::new();
        let mut week_hits: Vec<Vec<u64>> = vec![Vec::new(); cfg.weeks];
        for item in per_block.into_iter().flatten() {
            let (block, rows, hits) = item;
            blocks.push((block, rows));
            for (w, mut h) in hits.into_iter().enumerate() {
                week_hits[w].append(&mut h);
            }
        }
        blocks.sort_by_key(|(b, _)| *b);
        // Canonical order, matching WeeklyDatasetBuilder::finish — so
        // direct builds and collector outputs compare by `==`.
        let week_hits = week_hits
            .into_iter()
            .map(|mut week| {
                week.sort_unstable();
                Arc::new(week)
            })
            .collect();
        WeeklyDataset { num_weeks: cfg.weeks, blocks, week_hits, coverage: None }
    }

    #[allow(clippy::type_complexity)]
    fn block_weekly(
        &self,
        e: &BlockEntry,
    ) -> Option<(Block24, Box<[u64; 256]>, Vec<Vec<u64>>)> {
        let cfg = &self.config;
        let sims = self.block_sims(e);
        let mut rows: Box<[u64; 256]> = Box::new([0u64; 256]);
        let mut week_hits: Vec<Vec<u64>> = vec![Vec::new(); cfg.weeks];
        let mut any = false;
        for (w, week_slot) in week_hits.iter_mut().enumerate() {
            let mut acc = [0u64; 256];
            for dow in 0..7usize {
                let t = w * 7 + dow;
                for entry in self.entries_on(e, &sims, t) {
                    acc[entry.host as usize] += entry.hits as u64;
                }
            }
            for (h, &hits) in acc.iter().enumerate() {
                if hits > 0 {
                    rows[h] |= 1u64 << w;
                    week_slot.push(hits);
                    any = true;
                }
            }
        }
        if any {
            Some((e.block, rows, week_hits))
        } else {
            None
        }
    }
}

/// Samples one User-Agent hash for the population behind an address:
/// picks a (device, app) of the subscriber, renders the concrete
/// header string (see [`crate::ua`]), and hashes it — so distinctness
/// in the dataset reflects distinctness of actual strings.
fn sample_ua(pop: &HostPopulation, rng: &mut rand::rngs::StdRng) -> u64 {
    fn subscriber_ua(key: u64, rng: &mut rand::rngs::StdRng) -> u64 {
        // 1–3 devices per subscriber, a browser plus 0–4 app UAs each.
        let devices = 1 + (key % 3);
        let dev = rng.random_range(0..devices);
        let apps = 1 + ((key >> 8) % 5);
        let app = rng.random_range(0..apps);
        crate::ua::hash(&crate::ua::render(key, dev, app))
    }
    match *pop {
        HostPopulation::Subscriber(key) => subscriber_ua(key, rng),
        HostPopulation::Gateway { base, users } => {
            let user = rng.random_range(0..users.max(1) as u64);
            subscriber_ua(SeedMixer::new(base).child(user).value(), rng)
        }
        HostPopulation::Bot(key) => crate::ua::hash(&crate::ua::render_bot(key)),
    }
}

/// Runs `f` over `items` on a small thread pool (crossbeam scoped
/// threads), preserving order.
fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let threads = threads.min(items.len().max(1)).min(16);
    if threads <= 1 || items.len() < 8 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let out_chunks: Vec<&mut [Option<R>]> = out.chunks_mut(chunk).collect();
    crossbeam::scope(|scope| {
        for (slice, outs) in items.chunks(chunk).zip(out_chunks) {
            let f = &f;
            scope.spawn(move |_| {
                for (item, slot) in slice.iter().zip(outs.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    })
    .expect("worker thread panicked");
    out.into_iter().map(|o| o.expect("all slots filled")).collect()
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
