//! Address assignment policies and the per-day activity generator.
//!
//! Each `/24` block runs one policy; the policy decides, day by day,
//! which of the block's 256 addresses carry client traffic and how
//! much. The policies are the mechanisms whose fingerprints Section 5
//! of the paper reads off its activity matrices:
//!
//! * [`AssignmentPolicy::StaticSparse`] / `StaticDense` — Figure 6(a):
//!   fixed subscriber↔address mapping, horizontal activity bands.
//! * [`AssignmentPolicy::RoundRobin`] — Figure 6(b): an underutilized
//!   pool whose cursor walks the block, diagonal stripes.
//! * [`AssignmentPolicy::DhcpLong`] — Figure 6(c): sticky dynamic
//!   addresses with long leases.
//! * [`AssignmentPolicy::DhcpShort`] — Figure 6(d): ≤24h leases,
//!   daily reshuffle, near-complete filling.
//! * [`AssignmentPolicy::Gateway`] — CGN/proxy front addresses:
//!   always-on, huge traffic, very high User-Agent diversity
//!   (Figures 9/10's top-right corner).
//! * [`AssignmentPolicy::BotFarm`] — crawler addresses: huge traffic,
//!   one User-Agent (Figure 10's bottom-right corner).
//! * [`AssignmentPolicy::ServerFarm`] / `RouterInfra` / `NonWeb` —
//!   infrastructure invisible to the CDN but visible to probing
//!   (Figure 2(b)).

use crate::behavior::{lognormal, round_hits, weekday_factor, SeedMixer};
use crate::config::CountryProfile;
use ipactive_net::AddrBits256;
use ipactive_probe::ServiceSet;
use rand::RngExt;

/// Assignment policy of one `/24` block.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentPolicy {
    /// Allocated but unused space.
    Unused,
    /// Statically assigned, sparsely populated (e.g. small campus).
    StaticSparse {
        /// Number of subscribers (≪ 256).
        subscribers: u16,
    },
    /// Statically assigned, densely populated.
    StaticDense {
        /// Number of subscribers (≲ 256).
        subscribers: u16,
    },
    /// Dynamic pool assigned round-robin; underutilized pools show
    /// the Figure 6(b) diagonal pattern.
    RoundRobin {
        /// Concurrent subscribers per day (pool is the whole /24).
        subscribers: u16,
    },
    /// DHCP with ≤24h lease: fresh random addresses daily.
    DhcpShort {
        /// Subscriber population.
        subscribers: u16,
    },
    /// DHCP with a long lease: sticky mapping, occasional renumber.
    DhcpLong {
        /// Subscriber population.
        subscribers: u16,
        /// Days a subscriber keeps an address.
        hold_days: u16,
    },
    /// Carrier-grade NAT / proxy gateway front addresses.
    Gateway {
        /// Number of gateway addresses (from host 0 upward).
        gateways: u8,
        /// Users aggregated behind each gateway address.
        users_per_gateway: u32,
    },
    /// Crawler / bot farm.
    BotFarm {
        /// Number of bot addresses.
        bots: u8,
    },
    /// WWW/mail servers: no CDN client activity, probe-visible.
    ServerFarm {
        /// Number of server addresses.
        servers: u16,
    },
    /// Router interfaces: traceroute-visible, no client traffic.
    RouterInfra {
        /// Number of interface addresses.
        interfaces: u16,
    },
    /// Hosts active on the Internet but never talking to the CDN
    /// (the "unknown" slice of Figure 2(b)).
    NonWeb {
        /// Number of such hosts.
        hosts: u16,
    },
}

/// Who is behind an active address on a given day — drives User-Agent
/// sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPopulation {
    /// A single subscriber (possibly multi-device) keyed by a stable id.
    Subscriber(u64),
    /// A gateway aggregating `users` distinct users.
    Gateway {
        /// Stable base key; user `i` derives from `(base, i)`.
        base: u64,
        /// Aggregated user count.
        users: u32,
    },
    /// An automated client with a single User-Agent.
    Bot(u64),
}

/// One active address on one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayEntry {
    /// Host index within the block.
    pub host: u8,
    /// Successful requests issued that day.
    pub hits: u32,
    /// Population behind the address (for UA sampling).
    pub pop: HostPopulation,
}

/// Per-subscriber stable parameters, derived deterministically.
struct Subscriber {
    key: u64,
    base_rate: f64,
    intensity: f64,
    start_week: u16,
    end_week: u16,
}

fn subscriber(seed: SeedMixer, s: u16, weeks: usize) -> Subscriber {
    let m = seed.child(0x5B).child(s as u64);
    let key = m.value();
    // Activity propensity: most subscribers are online nearly every
    // day (always-on home routers, office networks), a tail is
    // intermittent — calibrated so aggregate daily churn lands near
    // the paper's ~8% (Figure 4(a)/(b)).
    let base_rate = 0.97 - 0.55 * m.child(1).unit().powf(2.2);
    // Traffic intensity: heavy-tailed, and *coupled to activity* —
    // heavy users are the ones online every day, which is what makes
    // Figure 9(a)'s median-hits curve rise with days active.
    let rate_boost = ((base_rate - 0.42) / 0.55).clamp(0.0, 1.0);
    let intensity =
        12.0 * (0.8 * m.child(2).normal()).exp() * (1.0 + 9.0 * rate_boost * rate_boost);
    // Subscriber lifespan: ~90% span the whole year, the rest join or
    // leave mid-year (long-term churn at single-address granularity).
    let roll = m.child(3).unit();
    let w = weeks as u16;
    let (start_week, end_week) = if roll < 0.90 {
        (0, w)
    } else if roll < 0.95 {
        ((m.child(4).unit() * (w as f64 * 0.8)) as u16 + 1, w)
    } else {
        (0, (m.child(5).unit() * (w as f64 * 0.8)) as u16 + 2)
    };
    Subscriber { key, base_rate, intensity, start_week, end_week }
}

/// What every subscriber of a block shares on absolute day `t`,
/// derived once per evaluated day instead of once per subscriber.
struct DayDraws {
    week: u16,
    weekday: f64,
    online: SeedMixer,
    hits: SeedMixer,
}

/// Subscribers a day's draws are taken for at a time — the length of
/// the stack arrays [`DayDraws::each_online`] runs its libm loops over.
const CHUNK: usize = 64;

impl DayDraws {
    fn new(seed: SeedMixer, institutional: bool, t: usize) -> DayDraws {
        DayDraws {
            week: (t / 7) as u16,
            weekday: weekday_factor(institutional, (t % 7) as u8),
            online: seed.child(0xD0).child(t as u64),
            hits: seed.child(0x417).child(t as u64),
        }
    }

    fn online(&self, s: usize, sub: &Subscriber) -> bool {
        if self.week < sub.start_week || self.week >= sub.end_week {
            return false;
        }
        self.online.child(s as u64).unit() < sub.base_rate * self.weekday
    }

    /// Hands `place` `(s, sub, hits)` for every subscriber online on the
    /// day, in subscriber order: the one hit draw of the four subscriber
    /// policies.
    ///
    /// A subscriber's hits are `round_hits(lognormal(rng, intensity,
    /// 0.9))` over the first two draws of `hits.child(s).rng()`. Taken a
    /// subscriber at a time, `ln → sqrt → cos → exp` is one dependent
    /// chain that waits on each call's latency; here a chunk's online
    /// coins and uniforms are drawn first, then each step runs as a
    /// straight loop of independent calls. Same inputs, same calls, same
    /// operations in the same order (Rust does not contract `a * b + c`
    /// into a fused multiply-add), so the same bits.
    fn each_online(&self, subs: &[Subscriber], mut place: impl FnMut(usize, &Subscriber, u32)) {
        for (c, chunk) in subs.chunks(CHUNK).enumerate() {
            let first = c * CHUNK;
            let mut online = [0u8; CHUNK];
            let (mut radius, mut cosine) = ([0f64; CHUNK], [0f64; CHUNK]);
            let mut n = 0;
            for (i, sub) in chunk.iter().enumerate() {
                if self.online(first + i, sub) {
                    let (u1, u2) = self.hits.child((first + i) as u64).two_units();
                    online[n] = i as u8;
                    radius[n] = u1;
                    cosine[n] = u2;
                    n += 1;
                }
            }
            let (online, radius, cosine) = (&online[..n], &mut radius[..n], &mut cosine[..n]);
            for r in radius.iter_mut() {
                *r = (-2.0 * r.max(f64::MIN_POSITIVE).ln()).sqrt();
            }
            for u in cosine.iter_mut() {
                *u = (2.0 * core::f64::consts::PI * *u).cos();
            }
            let mut hits = [0u32; CHUNK];
            for (k, &i) in online.iter().enumerate() {
                let z = radius[k] * cosine[k];
                hits[k] = round_hits(chunk[i as usize].intensity * (0.9 * z).exp());
            }
            for (&i, &hits) in online.iter().zip(&hits) {
                place(first + i as usize, &chunk[i as usize], hits);
            }
        }
    }
}

/// A seeded permutation of 0..=255 (Fisher–Yates).
fn permutation(seed: SeedMixer) -> [u8; 256] {
    let mut perm = [0u8; 256];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i as u8;
    }
    let mut rng = seed.rng();
    for i in (1..256usize).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// A policy bound to a block seed with per-subscriber state
/// precomputed — the fast path used by the dataset builders, which
/// evaluate hundreds of days per block.
pub struct PolicySim {
    policy: AssignmentPolicy,
    seed: SeedMixer,
    institutional: bool,
    subs: Vec<Subscriber>,
    /// `DhcpLong` only.
    leases: Option<Leases>,
}

/// The `DhcpLong` lease history of a block's subscribers, epoch by
/// epoch. Leases are sticky: most expiries renew in place, only ~15%
/// of them hand out a new address (Figure 6(c): "some IP addresses
/// having almost continuous activity") — so the host of an epoch is
/// the one drawn at the last renumbering epoch at or before it, epoch
/// 0 always drawing. Tabulating takes each draw once, where a day's
/// evaluation used to walk back through the epochs for every online
/// subscriber.
struct Leases {
    /// Days a subscriber keeps an address.
    hold: usize,
    /// Table width: epochs tabulated per subscriber.
    epochs: usize,
    /// The host of subscriber `s` in epoch `e`, at `s * epochs + e`.
    hosts: Vec<u8>,
}

impl Leases {
    fn new(seed: SeedMixer, subs: &[Subscriber], hold: usize) -> Leases {
        // A subscriber is looked up only while online, that is on a
        // day before `7 * end_week`, and its phase is below `hold`.
        let last_week = subs.iter().map(|sub| sub.end_week).max().unwrap_or(0) as usize;
        let epochs = (last_week * 7).div_ceil(hold) + 1;
        let mut hosts = Vec::with_capacity(subs.len() * epochs);
        for s in 0..subs.len() as u64 {
            let renumbers = seed.child(0x4E4E).child(s);
            let draws = seed.child(0xD1C).child(s);
            let mut host = 0;
            for epoch in 0..epochs as u64 {
                if epoch == 0 || renumbers.child(epoch).unit() < 0.15 {
                    host = (draws.child(epoch).value() % 256) as u8;
                }
                hosts.push(host);
            }
        }
        Leases { hold, epochs, hosts }
    }

    /// The host subscriber `s` holds on absolute day `t`.
    fn host(&self, s: usize, sub: &Subscriber, t: usize) -> u8 {
        let phase = (sub.key % self.hold as u64) as usize;
        self.hosts[s * self.epochs + (t + phase) / self.hold]
    }
}

impl PolicySim {
    /// Prepares the simulation state for one block.
    pub fn new(
        policy: AssignmentPolicy,
        seed: SeedMixer,
        institutional: bool,
        weeks: usize,
    ) -> PolicySim {
        let n_subs = match policy {
            AssignmentPolicy::StaticSparse { subscribers }
            | AssignmentPolicy::StaticDense { subscribers } => subscribers.min(256),
            AssignmentPolicy::RoundRobin { subscribers }
            | AssignmentPolicy::DhcpShort { subscribers }
            | AssignmentPolicy::DhcpLong { subscribers, .. } => subscribers,
            _ => 0,
        };
        let subs: Vec<Subscriber> = (0..n_subs).map(|s| subscriber(seed, s, weeks)).collect();
        let leases = match policy {
            AssignmentPolicy::DhcpLong { hold_days, .. } => {
                Some(Leases::new(seed, &subs, hold_days.max(1) as usize))
            }
            _ => None,
        };
        PolicySim { policy, seed, institutional, subs, leases }
    }

    /// Generates the block's activity for absolute day `t` into `out`,
    /// replacing what it held. Entries are host-deduplicated (shared
    /// addresses merge their hits) and keep their first-seen order.
    pub fn eval_day_into(&self, t: usize, out: &mut Vec<DayEntry>) {
        out.clear();
        let seed = self.seed;
        let day = DayDraws::new(seed, self.institutional, t);
        // Position of each host's entry in `out` (insertion order is
        // part of the emitted log, so the entries themselves stay put).
        const ABSENT: u16 = u16::MAX;
        let mut slot_of = [ABSENT; 256];
        let mut push = |host: u8, hits: u32, pop: HostPopulation| {
            let slot = &mut slot_of[host as usize];
            if *slot == ABSENT {
                *slot = out.len() as u16;
                out.push(DayEntry { host, hits, pop });
            } else {
                let e = &mut out[*slot as usize];
                e.hits = e.hits.saturating_add(hits);
            }
        };
        match self.policy {
            AssignmentPolicy::Unused
            | AssignmentPolicy::ServerFarm { .. }
            | AssignmentPolicy::RouterInfra { .. }
            | AssignmentPolicy::NonWeb { .. } => {}
            AssignmentPolicy::StaticSparse { .. } | AssignmentPolicy::StaticDense { .. } => {
                day.each_online(&self.subs, |s, sub, hits| {
                    // Stable spread over the block (coprime stride).
                    let host = ((s as u32 * 151 + 7) % 256) as u8;
                    push(host, hits, HostPopulation::Subscriber(sub.key));
                });
            }
            AssignmentPolicy::RoundRobin { subscribers } => {
                // The pool cursor creeps a few addresses per day,
                // producing the slow diagonal stripes of Figure 6(b)
                // (a fast cursor would look like daily reassignment).
                let mut idx = 0u32;
                let expected: u32 = (subscribers as f64 * 0.8) as u32 + 1;
                let step = (expected / 16).max(1);
                let cursor = (t as u32 * step) % 256;
                day.each_online(&self.subs, |_, sub, hits| {
                    let host = ((cursor + idx) % 256) as u8;
                    idx += 1;
                    push(host, hits, HostPopulation::Subscriber(sub.key));
                });
            }
            AssignmentPolicy::DhcpShort { .. } => {
                let perm = permutation(seed.child(0xDA11).child(t as u64));
                let mut idx = 0usize;
                day.each_online(&self.subs, |_, sub, hits| {
                    let host = perm[idx % 256];
                    idx += 1;
                    push(host, hits, HostPopulation::Subscriber(sub.key));
                });
            }
            AssignmentPolicy::DhcpLong { .. } => {
                let leases = self.leases.as_ref().expect("DhcpLong sims tabulate their leases");
                day.each_online(&self.subs, |s, sub, hits| {
                    push(leases.host(s, sub, t), hits, HostPopulation::Subscriber(sub.key));
                });
            }
            AssignmentPolicy::Gateway { gateways, users_per_gateway } => {
                for g in 0..gateways {
                    let m = seed.child(0x6A7E).child(g as u64);
                    let base = m.value();
                    // Aggregate traffic of many users; never a zero
                    // day. Gateway populations grow through the year —
                    // the mechanism behind the paper's traffic
                    // consolidation trend (Figure 9(c)).
                    let mut rng = m.child(t as u64).rng();
                    let per_user = 8.0 * weekday_factor(false, (t % 7) as u8);
                    let growth = 1.0 + 0.35 * (t as f64 / 364.0).min(1.0);
                    let hits = lognormal(
                        &mut rng,
                        users_per_gateway as f64 * per_user * growth,
                        0.25,
                    );
                    push(
                        g,
                        round_hits(hits),
                        HostPopulation::Gateway { base, users: users_per_gateway },
                    );
                }
            }
            AssignmentPolicy::BotFarm { bots } => {
                for bt in 0..bots {
                    let m = seed.child(0xB07).child(bt as u64);
                    if m.child(t as u64).unit() < 0.97 {
                        let mut rng = m.child(t as u64).child(1).rng();
                        let hits = lognormal(&mut rng, 25_000.0, 0.5);
                        push(bt, round_hits(hits), HostPopulation::Bot(m.value()));
                    }
                }
            }
        }
    }
}

impl AssignmentPolicy {
    /// Whether the policy ever produces CDN client traffic.
    pub fn cdn_active(&self) -> bool {
        !matches!(
            self,
            AssignmentPolicy::Unused
                | AssignmentPolicy::ServerFarm { .. }
                | AssignmentPolicy::RouterInfra { .. }
                | AssignmentPolicy::NonWeb { .. }
        )
    }

    /// One-shot convenience around [`PolicySim`]: generates the
    /// block's activity for absolute day `t`.
    pub fn eval_day(
        &self,
        seed: SeedMixer,
        institutional: bool,
        weeks: usize,
        t: usize,
    ) -> Vec<DayEntry> {
        let mut out = Vec::new();
        PolicySim::new(self.clone(), seed, institutional, weeks).eval_day_into(t, &mut out);
        out
    }

    /// How many subscribers, gateways or bots the policy simulates per
    /// day — what a block's evaluation cost follows.
    pub(crate) fn population(&self) -> usize {
        match *self {
            AssignmentPolicy::StaticSparse { subscribers }
            | AssignmentPolicy::StaticDense { subscribers }
            | AssignmentPolicy::RoundRobin { subscribers }
            | AssignmentPolicy::DhcpShort { subscribers }
            | AssignmentPolicy::DhcpLong { subscribers, .. } => subscribers as usize,
            AssignmentPolicy::Gateway { gateways, .. } => gateways as usize,
            AssignmentPolicy::BotFarm { bots } => bots as usize,
            AssignmentPolicy::Unused
            | AssignmentPolicy::ServerFarm { .. }
            | AssignmentPolicy::RouterInfra { .. }
            | AssignmentPolicy::NonWeb { .. } => 0,
        }
    }

    /// Precomputes the block's probe behaviour: per-host ICMP response
    /// probabilities, exposed services, and router-interface flags.
    pub fn probe_profile(&self, seed: SeedMixer, country: &CountryProfile) -> BlockProbeProfile {
        let mut icmp = Box::new([0f32; 256]);
        let mut services = Vec::new();
        let mut routers = AddrBits256::new();
        // Client-address responsiveness has two *persistent* gates —
        // NAT/firewall suppression and whether the address is actually
        // handed out — plus the per-probe country response rate. The
        // gates are per-host coins (not per-scan probabilities):
        // repeated scans of the same month see the same assignment, so
        // a scan campaign must not "discover" the unassigned tail of a
        // pool.
        let client_prob = |s: u16, occupancy: f64| -> f32 {
            let m = seed.child(0x1C3).child(s as u64);
            // NAT-suppressed hosts and addresses not handed out during
            // the scan period are equally silent.
            if m.unit() < country.nat_rate || m.child(9).unit() >= occupancy {
                0.0
            } else {
                country.icmp_base as f32
            }
        };
        match *self {
            AssignmentPolicy::Unused => {}
            AssignmentPolicy::StaticSparse { subscribers }
            | AssignmentPolicy::StaticDense { subscribers } => {
                for s in 0..subscribers.min(256) {
                    let host = ((s as u32 * 151 + 7) % 256) as usize;
                    let sub = subscriber(seed, s, 52);
                    icmp[host] = client_prob(s, sub.base_rate.max(0.4));
                }
            }
            AssignmentPolicy::RoundRobin { subscribers } => {
                let occupancy = (subscribers as f64 * 0.6 / 256.0).min(1.0);
                for host in 0..256u16 {
                    icmp[host as usize] = client_prob(host, occupancy);
                }
            }
            AssignmentPolicy::DhcpShort { subscribers } => {
                let occupancy = (subscribers as f64 * 0.6 / 256.0).min(1.0);
                for host in 0..256u16 {
                    icmp[host as usize] = client_prob(host, occupancy);
                }
            }
            AssignmentPolicy::DhcpLong { subscribers, .. } => {
                let occupancy = (subscribers as f64 * 0.6 / 256.0).min(1.0);
                for host in 0..256u16 {
                    icmp[host as usize] = client_prob(host, occupancy);
                }
            }
            AssignmentPolicy::Gateway { gateways, .. } => {
                for g in 0..gateways {
                    icmp[g as usize] = 0.9;
                }
            }
            AssignmentPolicy::BotFarm { bots } => {
                for bt in 0..bots {
                    icmp[bt as usize] = 0.8;
                }
            }
            AssignmentPolicy::ServerFarm { servers } => {
                for s in 0..servers.min(256) {
                    let host = ((s as u32 * 151 + 7) % 256) as usize;
                    icmp[host] = 0.85;
                    let set = if seed.child(0x5E4).child(s as u64).unit() < 0.7 {
                        ServiceSet::web()
                    } else {
                        ServiceSet::mail()
                    };
                    services.push((host as u8, set));
                }
            }
            AssignmentPolicy::RouterInfra { interfaces } => {
                for i in 0..interfaces.min(256) {
                    let host = ((i as u32 * 151 + 7) % 256) as usize;
                    icmp[host] = 0.95;
                    routers.set(host as u8);
                }
            }
            AssignmentPolicy::NonWeb { hosts } => {
                for h in 0..hosts.min(256) {
                    let host = ((h as u32 * 151 + 7) % 256) as usize;
                    icmp[host] = (country.icmp_base * 0.7) as f32;
                }
            }
        }
        BlockProbeProfile { icmp, services, routers }
    }
}

/// Probe-facing ground truth of one block.
#[derive(Debug, Clone)]
pub struct BlockProbeProfile {
    /// Per-host ICMP response probability.
    pub icmp: Box<[f32; 256]>,
    /// `(host, services)` pairs for server hosts.
    pub services: Vec<(u8, ServiceSet)>,
    /// Router interface hosts.
    pub routers: AddrBits256,
}

impl BlockProbeProfile {
    /// Services of a host (empty when not a server).
    pub fn services_of(&self, host: u8) -> ServiceSet {
        self.services
            .iter()
            .find(|(h, _)| *h == host)
            .map(|&(_, s)| s)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> SeedMixer {
        SeedMixer::new(0xFEED)
    }

    fn country() -> CountryProfile {
        crate::config::COUNTRY_PROFILES[0]
    }

    #[test]
    fn unused_and_infra_produce_no_traffic() {
        for p in [
            AssignmentPolicy::Unused,
            AssignmentPolicy::ServerFarm { servers: 10 },
            AssignmentPolicy::RouterInfra { interfaces: 4 },
            AssignmentPolicy::NonWeb { hosts: 9 },
        ] {
            assert!(!p.cdn_active());
            assert!(p.eval_day(seed(), false, 52, 5).is_empty());
        }
    }

    #[test]
    fn eval_is_deterministic() {
        let p = AssignmentPolicy::DhcpShort { subscribers: 120 };
        let a = p.eval_day(seed(), false, 52, 17);
        let b = p.eval_day(seed(), false, 52, 17);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn static_policy_is_sticky() {
        let p = AssignmentPolicy::StaticSparse { subscribers: 30 };
        // Hosts active on day 3 that are also active on day 40 must map
        // to identical (host, key) pairs: the mapping never moves.
        let d3 = p.eval_day(seed(), false, 52, 3);
        let d40 = p.eval_day(seed(), false, 52, 40);
        for e3 in &d3 {
            if let Some(e40) = d40.iter().find(|e| e.host == e3.host) {
                assert_eq!(e3.pop, e40.pop, "host {} switched subscriber", e3.host);
            }
        }
        // FD over many days stays ≤ subscriber count.
        let mut seen = std::collections::HashSet::new();
        for t in 0..60 {
            for e in p.eval_day(seed(), false, 52, t) {
                seen.insert(e.host);
            }
        }
        assert!(seen.len() <= 30);
        assert!(seen.len() >= 20, "most subscribers should appear: {}", seen.len());
    }

    #[test]
    fn dhcp_short_fills_the_block() {
        let p = AssignmentPolicy::DhcpShort { subscribers: 180 };
        let mut seen = std::collections::HashSet::new();
        for t in 0..60 {
            for e in p.eval_day(seed(), false, 52, t) {
                seen.insert(e.host);
            }
        }
        // Daily reshuffle over 60 days must cycle essentially the
        // whole /24 (the paper's FD > 250 signature).
        assert!(seen.len() > 250, "filling degree {}", seen.len());
    }

    #[test]
    fn dhcp_long_moves_slowly() {
        let p = AssignmentPolicy::DhcpLong { subscribers: 100, hold_days: 30 };
        // Count distinct hosts day-over-day for one subscriber-rich
        // window: consecutive days should mostly reuse addresses.
        let d10 = p.eval_day(seed(), false, 52, 10);
        let d11 = p.eval_day(seed(), false, 52, 11);
        let hosts10: std::collections::HashSet<u8> = d10.iter().map(|e| e.host).collect();
        let overlap = d11.iter().filter(|e| hosts10.contains(&e.host)).count();
        assert!(
            overlap * 2 > d11.len(),
            "long leases should keep most addresses: {overlap}/{}",
            d11.len()
        );
    }

    #[test]
    fn round_robin_cursor_advances() {
        let p = AssignmentPolicy::RoundRobin { subscribers: 40 };
        let d0: Vec<u8> = p.eval_day(seed(), false, 52, 0).iter().map(|e| e.host).collect();
        let d1: Vec<u8> = p.eval_day(seed(), false, 52, 1).iter().map(|e| e.host).collect();
        assert!(!d0.is_empty() && !d1.is_empty());
        // Different cursor ⇒ different host ranges on consecutive days.
        assert_ne!(d0[0], d1[0]);
    }

    #[test]
    fn gateways_are_always_on_and_heavy() {
        let p = AssignmentPolicy::Gateway { gateways: 3, users_per_gateway: 1000 };
        for t in 0..30 {
            let day = p.eval_day(seed(), false, 52, t);
            assert_eq!(day.len(), 3, "day {t}");
            for e in &day {
                assert!(e.hits > 2_000, "gateway hits {} too small", e.hits);
                assert!(matches!(e.pop, HostPopulation::Gateway { users: 1000, .. }));
            }
        }
    }

    #[test]
    fn bots_have_bot_population() {
        let p = AssignmentPolicy::BotFarm { bots: 2 };
        let day = p.eval_day(seed(), false, 52, 9);
        assert!(!day.is_empty());
        for e in &day {
            assert!(matches!(e.pop, HostPopulation::Bot(_)));
            assert!(e.hits > 4_000);
        }
    }

    #[test]
    fn institutional_blocks_rest_on_weekends() {
        let p = AssignmentPolicy::StaticDense { subscribers: 200 };
        let mut weekday_total = 0usize;
        let mut weekend_total = 0usize;
        for t in 0..56 {
            let n = p.eval_day(seed(), true, 52, t).len();
            if t % 7 >= 5 {
                weekend_total += n;
            } else {
                weekday_total += n;
            }
        }
        // 40 weekday slots vs 16 weekend slots; normalize per-day.
        let wd = weekday_total as f64 / 40.0;
        let we = weekend_total as f64 / 16.0;
        assert!(we < wd * 0.6, "weekend {we:.1} vs weekday {wd:.1}");
    }

    #[test]
    fn probe_profile_matches_policy() {
        let c = country();
        let p = AssignmentPolicy::RouterInfra { interfaces: 5 };
        let prof = p.probe_profile(seed(), &c);
        assert_eq!(prof.routers.count(), 5);
        for host in prof.routers.iter() {
            assert!(prof.icmp[host as usize] > 0.9);
        }
        let p = AssignmentPolicy::ServerFarm { servers: 8 };
        let prof = p.probe_profile(seed(), &c);
        assert_eq!(prof.services.len(), 8);
        let (h, set) = prof.services[0];
        assert!(!set.is_empty());
        assert!(!prof.services_of(h).is_empty());
        assert!(prof.services_of(h.wrapping_add(1)).is_empty());
        let p = AssignmentPolicy::Unused;
        let prof = p.probe_profile(seed(), &c);
        assert!(prof.icmp.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn nat_suppresses_client_icmp() {
        // With nat_rate = 1.0 every client host must be ICMP-silent.
        let mut c = country();
        c.nat_rate = 1.0;
        let p = AssignmentPolicy::DhcpShort { subscribers: 200 };
        let prof = p.probe_profile(seed(), &c);
        assert!(prof.icmp.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn shared_hosts_merge_hits() {
        // DhcpLong with many subscribers per 256 hosts will collide;
        // entries must be host-unique.
        let p = AssignmentPolicy::DhcpLong { subscribers: 400, hold_days: 7 };
        let day = p.eval_day(seed(), false, 52, 3);
        let mut hosts: Vec<u8> = day.iter().map(|e| e.host).collect();
        let before = hosts.len();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), before, "duplicate host entries");
    }
}
