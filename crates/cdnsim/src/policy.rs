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
use crate::fastmath::{self, fast_cos_2pi, fast_exp, fast_ln, Kernel, LaneLoop};
use ipactive_net::AddrBits256;
use ipactive_probe::ServiceSet;
use rand::RngCore;

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
    kernel: Kernel,
}

/// Subscribers a day's draws are taken for at a time — the length of
/// the stack arrays [`DayDraws::each_online`] runs its loops over.
const CHUNK: usize = 64;

/// The `f64` lanes of one AVX-512 vector: [`HitLanes`] runs a chunk's
/// subscribers rounded up to a multiple of it rather than all [`CHUNK`]
/// lanes, so a block's last, partial chunk costs what it holds.
const LANE_GROUP: usize = 8;

impl DayDraws {
    fn new(seed: SeedMixer, institutional: bool, t: usize, kernel: Kernel) -> DayDraws {
        DayDraws {
            week: (t / 7) as u16,
            weekday: weekday_factor(institutional, (t % 7) as u8),
            online: seed.child(0xD0).child(t as u64),
            hits: seed.child(0x417).child(t as u64),
            kernel,
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
    /// policies, through the day's [`Kernel`]. Every kernel hands out the
    /// same hits.
    fn each_online(&self, subs: &[Subscriber], place: impl FnMut(usize, &Subscriber, u32)) {
        match self.kernel {
            Kernel::Libm => self.each_online_libm(subs, place),
            Kernel::Lanes | Kernel::Avx512 => self.each_online_lanes(subs, place),
        }
    }

    /// [`Self::each_online`] rounding first: each chunk's [`HitLanes`]
    /// gives every lane its online coin and approximate variate, the
    /// online lanes are gathered without a branch (the coins are as
    /// unpredictable to a branch predictor as they are to anyone), and
    /// then rounded in subscriber order — through [`fastmath::round_clear`], or, for the
    /// rare variate within [`fastmath::EDGE`] of a rounding boundary,
    /// through [`Self::exact_hits`].
    fn each_online_lanes(
        &self,
        subs: &[Subscriber],
        mut place: impl FnMut(usize, &Subscriber, u32),
    ) {
        for (c, chunk) in subs.chunks(CHUNK).enumerate() {
            let first = c * CHUNK;
            let mut lanes = HitLanes::new(self, first, chunk);
            self.kernel.run(&mut lanes);
            let (mut online, mut n) = ([0u8; CHUNK], 0);
            for (i, &is_online) in lanes.is_online[..chunk.len()].iter().enumerate() {
                online[n] = i as u8;
                n += is_online as usize;
            }
            for &i in &online[..n] {
                let (sub, s) = (&chunk[i as usize], first + i as usize);
                let hits = fastmath::round_clear(lanes.x[i as usize])
                    .unwrap_or_else(|| self.exact_hits(s, sub));
                place(s, sub, hits);
            }
        }
    }

    /// Subscriber `s`'s hits through libm, operation for operation as
    /// [`Self::each_online_libm`] computes them.
    fn exact_hits(&self, s: usize, sub: &Subscriber) -> u32 {
        let (u1, u2) = self.hits.child(s as u64).two_units();
        let radius = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt();
        let cosine = (2.0 * core::f64::consts::PI * u2).cos();
        round_hits(sub.intensity * (0.9 * (radius * cosine)).exp())
    }

    /// [`Self::each_online`] through libm.
    ///
    /// A subscriber's hits are `round_hits(lognormal(rng, intensity,
    /// 0.9))` over the first two draws of `hits.child(s).rng()`. Taken a
    /// subscriber at a time, `ln → sqrt → cos → exp` is one dependent
    /// chain that waits on each call's latency; here a chunk's online
    /// coins and uniforms are drawn first, then each step runs as a
    /// straight loop of independent calls. Same inputs, same calls, same
    /// operations in the same order (Rust does not contract `a * b + c`
    /// into a fused multiply-add), so the same bits.
    fn each_online_libm(
        &self,
        subs: &[Subscriber],
        mut place: impl FnMut(usize, &Subscriber, u32),
    ) {
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

/// One chunk of [`DayDraws::each_online_lanes`]: every lane's online
/// coin and approximate hit variate, over the chunk's subscribers
/// rounded up to a whole vector of [`LANE_GROUP`] lanes — offline lanes
/// and the few past the chunk's end included, since a lane costs less
/// than a branch would.
///
/// A lane's variate is one long dependent chain (hash, `ln`, `√`,
/// `cos`, `exp`), so [`Self::run`] takes it in four short stages over
/// the chunk, each a loop whose iterations do not wait on one another:
/// the draws and the coin, `√(−2 ln u₁)`, `cos 2πu₂`, and `exp`. Each
/// lane still goes through the same operations in the same order, so
/// its bits are those of one loop taking every lane through the whole
/// chain.
struct HitLanes {
    online: SeedMixer,
    hits: SeedMixer,
    first: u64,
    /// How many lanes [`Self::run`] computes: a multiple of
    /// [`LANE_GROUP`], at most [`CHUNK`]. The rest keep their offline
    /// coin and a zero variate.
    lanes: usize,
    /// What the online coin must fall below: the day's online rate, or
    /// −1 outside the subscriber's lifespan and past the chunk's end.
    threshold: [f64; CHUNK],
    intensity: [f64; CHUNK],
    is_online: [bool; CHUNK],
    /// `intensity · exp(0.9 · √(−2 ln u₁) · cos 2πu₂)` through
    /// [`fastmath`], on the uniforms `two_units()` draws.
    x: [f64; CHUNK],
}

impl HitLanes {
    fn new(day: &DayDraws, first: usize, chunk: &[Subscriber]) -> HitLanes {
        let mut lanes = HitLanes {
            online: day.online,
            hits: day.hits,
            first: first as u64,
            lanes: chunk.len().next_multiple_of(LANE_GROUP),
            threshold: [-1.0; CHUNK],
            intensity: [0.0; CHUNK],
            is_online: [false; CHUNK],
            x: [0.0; CHUNK],
        };
        for (i, sub) in chunk.iter().enumerate() {
            if (sub.start_week..sub.end_week).contains(&day.week) {
                lanes.threshold[i] = sub.base_rate * day.weekday;
            }
            lanes.intensity[i] = sub.intensity;
        }
        lanes
    }
}

impl LaneLoop for HitLanes {
    #[inline(always)]
    fn run(&mut self) {
        // One body per whole number of vectors: every stage's trip count
        // is a constant, so none ends in a scalar remainder loop.
        match self.lanes {
            8 => self.stages::<8>(),
            16 => self.stages::<16>(),
            24 => self.stages::<24>(),
            32 => self.stages::<32>(),
            40 => self.stages::<40>(),
            48 => self.stages::<48>(),
            56 => self.stages::<56>(),
            _ => self.stages::<CHUNK>(),
        }
    }
}

impl HitLanes {
    /// The four stages over the first `N` lanes.
    #[inline(always)]
    fn stages<const N: usize>(&mut self) {
        let (mut radius, mut cosine) = ([0f64; N], [0f64; N]);
        for i in 0..N {
            let s = self.first + i as u64;
            (radius[i], cosine[i]) = self.hits.child(s).two_units();
            self.is_online[i] = self.online.child(s).unit() < self.threshold[i];
        }
        for r in &mut radius {
            *r = (-2.0 * fast_ln(r.max(f64::MIN_POSITIVE))).sqrt();
        }
        for c in &mut cosine {
            *c = fast_cos_2pi(*c);
        }
        for i in 0..N {
            self.x[i] = self.intensity[i] * fast_exp(0.9 * (radius[i] * cosine[i]));
        }
    }
}

/// A seeded permutation of 0..=255 (Fisher–Yates).
///
/// Swap `i` takes `rng.random_range(0..=i)`, which is the generator's
/// next word modulo `i + 1`; [`remainder`] gives that remainder with
/// multiplications instead of a 64-bit division.
fn permutation(seed: SeedMixer) -> [u8; 256] {
    let mut perm = [0u8; 256];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i as u8;
    }
    let mut rng = seed.rng();
    for i in (1..256usize).rev() {
        let j = remainder(rng.next_u64(), i + 1);
        perm.swap(i, j);
    }
    perm
}

/// `⌈2¹²⁸ / d⌉` for every divisor `d` in `2..=256` (entries 0 and 1 are
/// unused).
static RECIPROCALS: [u128; 257] = {
    let mut table = [0; 257];
    let mut d = 2;
    while d <= 256 {
        table[d] = u128::MAX / d as u128 + 1;
        d += 1;
    }
    table
};

/// `x % d` for `d` in `2..=256`, without a division: the fractional part
/// `f = c·x mod 2¹²⁸` of `x / d` in 128-bit fixed point (`c = ⌈2¹²⁸ / d⌉`),
/// then `⌊f·d / 2¹²⁸⌋`. With 128 fraction bits for 64-bit numerators
/// the remainder is exact for every `x` (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019).
#[inline]
fn remainder(x: u64, d: usize) -> usize {
    let fraction = RECIPROCALS[d].wrapping_mul(x as u128);
    let d = d as u128;
    // ⌊f·d / 2¹²⁸⌋ from f's two 64-bit halves; d ≤ 2⁸ keeps each
    // product below 2⁷².
    (((fraction >> 64) * d + ((fraction as u64 as u128 * d) >> 64)) >> 64) as usize
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
    kernel: Kernel,
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
        PolicySim { policy, seed, institutional, subs, leases, kernel: Kernel::dispatched() }
    }

    /// The same simulation with its subscriber hits drawn by `kernel`
    /// rather than [`Kernel::dispatched`] — every kernel gives the same
    /// days; the choice is for tests that hold them to each other.
    pub fn with_kernel(self, kernel: Kernel) -> PolicySim {
        PolicySim { kernel, ..self }
    }

    /// Generates the block's activity for absolute day `t` into `out`,
    /// replacing what it held. Entries are host-deduplicated (shared
    /// addresses merge their hits) and keep their first-seen order.
    pub fn eval_day_into(&self, t: usize, out: &mut Vec<DayEntry>) {
        out.clear();
        let seed = self.seed;
        let day = DayDraws::new(seed, self.institutional, t, self.kernel);
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

    /// `(s, hits)` of every subscriber `day` finds online.
    fn hits_by(day: &DayDraws, subs: &[Subscriber]) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        day.each_online(subs, |s, _, hits| out.push((s, hits)));
        out
    }

    /// The lane body as it was before its stages: one loop taking each
    /// lane through the whole chain. [`HitLanes::run`] must give its bits.
    struct Fused(HitLanes);

    impl LaneLoop for Fused {
        #[inline(always)]
        fn run(&mut self) {
            let lanes = &mut self.0;
            for i in 0..CHUNK {
                let s = lanes.first + i as u64;
                let (u1, u2) = lanes.hits.child(s).two_units();
                let radius = (-2.0 * fast_ln(u1.max(f64::MIN_POSITIVE))).sqrt();
                lanes.x[i] = lanes.intensity[i] * fast_exp(0.9 * (radius * fast_cos_2pi(u2)));
                lanes.is_online[i] = lanes.online.child(s).unit() < lanes.threshold[i];
            }
        }
    }

    /// The staged body, compiled for the baseline and, where the CPU has
    /// AVX-512, through the wrapper, against the fused loop over all
    /// [`CHUNK`] lanes: same coins, and the same variates to the bit on
    /// every lane the stages run.
    #[test]
    fn the_avx512_wrapper_computes_the_bodys_bits() {
        let wrapper = Kernel::dispatched() == Kernel::Avx512;
        if !wrapper {
            eprintln!("no AVX-512 on this CPU: the wrapper never runs here");
        }
        // 400 subscribers are six whole chunks and one of 16 with 48
        // lanes past its end; the shorter lists end in chunks of other
        // whole and partial vectors.
        let lists: Vec<Vec<Subscriber>> = [400, 8, 24, 37, 40, 48, 56, 63]
            .into_iter()
            .map(|n| (0..n).map(|s| subscriber(seed(), s, 52)).collect())
            .collect();
        let days = [0, 3, 5, 200, 363].into_iter().flat_map(|t| [(t, false), (t, true)]);
        for (t, institutional) in days {
            let day = DayDraws::new(seed(), institutional, t, Kernel::Avx512);
            for subs in &lists {
                for (c, chunk) in subs.chunks(CHUNK).enumerate() {
                    let lanes = || HitLanes::new(&day, c * CHUNK, chunk);
                    let mut fused = Fused(lanes());
                    fused.run();
                    let mut staged = lanes();
                    staged.run();
                    let mut bodies = vec![("baseline", staged)];
                    if wrapper {
                        let mut wrapped = lanes();
                        assert!(fastmath::run_on_avx512(&mut wrapped));
                        bodies.push(("AVX-512", wrapped));
                    }
                    let at = format!(
                        "day {t}, institutional {institutional}, {} subscribers, chunk {c}",
                        subs.len()
                    );
                    for (body, lanes) in &bodies {
                        assert_eq!(lanes.lanes, chunk.len().next_multiple_of(LANE_GROUP));
                        assert_eq!(lanes.is_online, fused.0.is_online, "{body}, {at}");
                        let run = lanes.x[..lanes.lanes].iter().zip(&fused.0.x);
                        for (i, (a, b)) in run.enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{body}, {at}, lane {i}");
                        }
                    }
                }
            }
        }
    }

    /// The stages' gain, as the dispatched kernel runs the lanes: best of
    /// nine passes each, staged and fused interleaved, over 64 days of
    /// six chunks. A debug build's timings say nothing, so CI runs it in
    /// release with `--ignored`.
    #[test]
    #[ignore = "timing: run in release with --ignored"]
    fn lane_stages_beat_the_fused_loop() {
        use std::hint::black_box;
        use std::time::{Duration, Instant};
        const REPS: usize = 40;
        let kernel = Kernel::dispatched();
        if kernel != Kernel::Avx512 || cfg!(debug_assertions) {
            eprintln!("kernel {kernel:?}, debug {}: nothing to time", cfg!(debug_assertions));
            return;
        }
        let subs: Vec<Subscriber> = (0..384).map(|s| subscriber(seed(), s, 52)).collect();
        let (mut staged, mut fused) = (Vec::new(), Vec::new());
        for t in 0..64 {
            let day = DayDraws::new(seed(), false, t, kernel);
            for (c, chunk) in subs.chunks(CHUNK).enumerate() {
                staged.push(HitLanes::new(&day, c * CHUNK, chunk));
                fused.push(Fused(HitLanes::new(&day, c * CHUNK, chunk)));
            }
        }
        fn pass(kernel: Kernel, lanes: &mut [impl LaneLoop]) -> Duration {
            let start = Instant::now();
            for _ in 0..REPS {
                for lanes in lanes.iter_mut() {
                    kernel.run(black_box(lanes));
                }
            }
            start.elapsed()
        }
        let (mut best_staged, mut best_fused) = (Duration::MAX, Duration::MAX);
        for _ in 0..9 {
            best_fused = best_fused.min(pass(kernel, &mut fused));
            best_staged = best_staged.min(pass(kernel, &mut staged));
        }
        let per_lane = |d: Duration| d.as_nanos() as f64 / (REPS * staged.len() * CHUNK) as f64;
        let ratio = best_staged.as_secs_f64() / best_fused.as_secs_f64();
        eprintln!(
            "HitLanes under {kernel:?}: staged {:.2} ns a lane, fused {:.2} ({ratio:.3} ×)",
            per_lane(best_staged),
            per_lane(best_fused)
        );
        assert!(ratio <= 0.85, "staged lanes at {ratio:.3} × the fused loop's time");
    }

    #[test]
    fn remainder_is_the_modulo_for_every_divisor_fisher_yates_takes() {
        let root = SeedMixer::new(0x3E3);
        for d in 2..=256usize {
            let dd = d as u64;
            let edges = [0, 1, dd - 1, dd, dd + 1, u64::MAX, u64::MAX - 1, u64::MAX / dd * dd];
            let draws = (0..2_000).map(|i| root.child(d as u64).child(i).value());
            for x in edges.into_iter().chain(edges.map(|e| e.wrapping_sub(dd))).chain(draws) {
                assert_eq!(remainder(x, d), (x % dd) as usize, "{x} % {d}");
            }
        }
    }

    /// What `permutation` drew with `random_range` before it took the
    /// remainder itself.
    #[test]
    fn permutation_draws_what_random_range_draws() {
        use rand::RngExt;
        for t in 0..200 {
            let seed = seed().child(0xDA11).child(t);
            let mut perm: [u8; 256] = std::array::from_fn(|i| i as u8);
            let mut rng = seed.rng();
            for i in (1..256usize).rev() {
                perm.swap(i, rng.random_range(0..=i));
            }
            assert_eq!(permutation(seed), perm, "day {t}");
        }
    }

    /// Intensities that put libm's variate on a half-integer, to within
    /// the ulp or two `(k + ½) / e · e` is off by: the approximation
    /// cannot decide any of them, and every kernel still hands out
    /// libm's hits.
    #[test]
    fn a_variate_on_a_rounding_boundary_is_rounded_by_libm() {
        let day = DayDraws::new(seed(), false, 10, Kernel::Lanes);
        let mut subs: Vec<Subscriber> = (0..130).map(|s| subscriber(seed(), s, 52)).collect();
        for (s, sub) in subs.iter_mut().enumerate() {
            let (u1, u2) = day.hits.child(s as u64).two_units();
            let radius = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt();
            let e = (0.9 * (radius * (2.0 * core::f64::consts::PI * u2).cos())).exp();
            sub.intensity = ((s * 7919 % 100_000) as f64 + 0.5) / e;
            (sub.base_rate, sub.start_week, sub.end_week) = (1.0, 0, 52);
        }
        let mut lanes = HitLanes::new(&day, 0, &subs[..CHUNK]);
        lanes.run();
        assert!(lanes.is_online.iter().all(|&online| online));
        assert!(lanes.x.iter().all(|&x| fastmath::round_clear(x).is_none()));
        let libm = hits_by(&DayDraws { kernel: Kernel::Libm, ..day }, &subs);
        assert_eq!(libm.len(), subs.len());
        for kernel in [Kernel::Lanes, Kernel::Avx512] {
            assert_eq!(hits_by(&DayDraws { kernel, ..day }, &subs), libm, "{kernel:?}");
        }
    }
}
