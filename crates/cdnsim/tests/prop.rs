//! Property tests for the synthetic universe: structural invariants
//! that must hold for any seed and any (valid) scale knobs.

use ipactive_cdnsim::{
    ua, AssignmentPolicy, Kernel, PolicySim, SeedMixer, Universe, UniverseConfig,
};
use ipactive_core::SlotMatrix;
use ipactive_net::AddrSet;
use ipactive_probe::ProbeTarget;
use proptest::prelude::*;

/// The per-day kernel as it stood at commit f65bcc6, before the
/// substrate sweep made it cheaper: a copy, kept as the oracle the
/// kernel in `ipactive_cdnsim::policy` must match bit for bit — one
/// derivation chain per subscriber per day, the `DhcpLong` walk back
/// to the last renumbering epoch, `round()` for the hit counts and a
/// fresh `Vec` per call. Change it only together with the universe's
/// pinned goldens (root `tests/determinism.rs`).
mod oracle {
    use ipactive_cdnsim::{AssignmentPolicy, DayEntry, HostPopulation, SeedMixer};
    use rand::rngs::StdRng;
    use rand::RngExt;

    fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
        let (u1, u2): (f64, f64) = (rng.random(), rng.random());
        let u1 = u1.max(f64::MIN_POSITIVE);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        median * (sigma * z).exp()
    }

    fn weekday_factor(institutional: bool, dow: u8) -> f64 {
        match (institutional, dow >= 5) {
            (true, true) => 0.55,
            (false, true) => 0.92,
            (_, false) => 1.0,
        }
    }

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
        let base_rate = 0.97 - 0.55 * m.child(1).unit().powf(2.2);
        let rate_boost = ((base_rate - 0.42) / 0.55).clamp(0.0, 1.0);
        let intensity =
            12.0 * (0.8 * m.child(2).normal()).exp() * (1.0 + 9.0 * rate_boost * rate_boost);
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

    fn online(sub: &Subscriber, seed: SeedMixer, s: u16, t: usize, institutional: bool) -> bool {
        let week = (t / 7) as u16;
        if week < sub.start_week || week >= sub.end_week {
            return false;
        }
        let p = sub.base_rate * weekday_factor(institutional, (t % 7) as u8);
        seed.child(0xD0).child(t as u64).child(s as u64).unit() < p
    }

    fn daily_hits(sub: &Subscriber, seed: SeedMixer, s: u16, t: usize) -> u32 {
        let mut rng = seed.child(0x417).child(t as u64).child(s as u64).rng();
        (lognormal(&mut rng, sub.intensity, 0.9).round() as u32).max(1)
    }

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

    pub struct Sim {
        policy: AssignmentPolicy,
        seed: SeedMixer,
        institutional: bool,
        subs: Vec<Subscriber>,
    }

    impl Sim {
        pub fn new(policy: AssignmentPolicy, seed: SeedMixer, institutional: bool, weeks: usize) -> Sim {
            let n_subs = match policy {
                AssignmentPolicy::StaticSparse { subscribers }
                | AssignmentPolicy::StaticDense { subscribers } => subscribers.min(256),
                AssignmentPolicy::RoundRobin { subscribers }
                | AssignmentPolicy::DhcpShort { subscribers }
                | AssignmentPolicy::DhcpLong { subscribers, .. } => subscribers,
                _ => 0,
            };
            let subs = (0..n_subs).map(|s| subscriber(seed, s, weeks)).collect();
            Sim { policy, seed, institutional, subs }
        }

        pub fn eval_day(&self, t: usize) -> Vec<DayEntry> {
            let seed = self.seed;
            let institutional = self.institutional;
            let mut acc: Vec<DayEntry> = Vec::new();
            let mut push = |host: u8, hits: u32, pop: HostPopulation| {
                match acc.iter_mut().find(|e| e.host == host) {
                    Some(e) => e.hits = e.hits.saturating_add(hits),
                    None => acc.push(DayEntry { host, hits, pop }),
                }
            };
            match self.policy {
                AssignmentPolicy::Unused
                | AssignmentPolicy::ServerFarm { .. }
                | AssignmentPolicy::RouterInfra { .. }
                | AssignmentPolicy::NonWeb { .. } => {}
                AssignmentPolicy::StaticSparse { .. } | AssignmentPolicy::StaticDense { .. } => {
                    for (s, sub) in self.subs.iter().enumerate() {
                        let s = s as u16;
                        if online(sub, seed, s, t, institutional) {
                            let host = ((s as u32 * 151 + 7) % 256) as u8;
                            push(host, daily_hits(sub, seed, s, t), HostPopulation::Subscriber(sub.key));
                        }
                    }
                }
                AssignmentPolicy::RoundRobin { subscribers } => {
                    let mut idx = 0u32;
                    let expected: u32 = (subscribers as f64 * 0.8) as u32 + 1;
                    let step = (expected / 16).max(1);
                    let cursor = (t as u32 * step) % 256;
                    for (s, sub) in self.subs.iter().enumerate() {
                        let s = s as u16;
                        if online(sub, seed, s, t, institutional) {
                            let host = ((cursor + idx) % 256) as u8;
                            idx += 1;
                            push(host, daily_hits(sub, seed, s, t), HostPopulation::Subscriber(sub.key));
                        }
                    }
                }
                AssignmentPolicy::DhcpShort { .. } => {
                    let perm = permutation(seed.child(0xDA11).child(t as u64));
                    let mut idx = 0usize;
                    for (s, sub) in self.subs.iter().enumerate() {
                        let s = s as u16;
                        if online(sub, seed, s, t, institutional) {
                            let host = perm[idx % 256];
                            idx += 1;
                            push(host, daily_hits(sub, seed, s, t), HostPopulation::Subscriber(sub.key));
                        }
                    }
                }
                AssignmentPolicy::DhcpLong { hold_days, .. } => {
                    let hold = hold_days.max(1) as usize;
                    for (s, sub) in self.subs.iter().enumerate() {
                        let s = s as u16;
                        if online(sub, seed, s, t, institutional) {
                            let phase = (sub.key % hold as u64) as usize;
                            let epoch = (t + phase) / hold;
                            let mut renumber_epoch = epoch;
                            while renumber_epoch > 0
                                && seed
                                    .child(0x4E4E)
                                    .child(s as u64)
                                    .child(renumber_epoch as u64)
                                    .unit()
                                    >= 0.15
                            {
                                renumber_epoch -= 1;
                            }
                            let host = (seed
                                .child(0xD1C)
                                .child(s as u64)
                                .child(renumber_epoch as u64)
                                .value()
                                % 256) as u8;
                            push(host, daily_hits(sub, seed, s, t), HostPopulation::Subscriber(sub.key));
                        }
                    }
                }
                AssignmentPolicy::Gateway { gateways, users_per_gateway } => {
                    for g in 0..gateways {
                        let m = seed.child(0x6A7E).child(g as u64);
                        let base = m.value();
                        let mut rng = m.child(t as u64).rng();
                        let per_user = 8.0 * weekday_factor(false, (t % 7) as u8);
                        let growth = 1.0 + 0.35 * (t as f64 / 364.0).min(1.0);
                        let hits =
                            lognormal(&mut rng, users_per_gateway as f64 * per_user * growth, 0.25);
                        push(
                            g,
                            (hits.round() as u32).max(1),
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
                            push(bt, (hits.round() as u32).max(1), HostPopulation::Bot(m.value()));
                        }
                    }
                }
            }
            acc
        }
    }
}

/// Every policy variant, sized to reach the corners: pools above 256
/// subscribers (shared addresses merge), every lease length the
/// universe draws plus the degenerate 1 and 7, the inactive kinds, and
/// the subscriber policies at the edges of the kernel's chunks.
fn kernel_policies() -> Vec<AssignmentPolicy> {
    let mut policies = vec![
        AssignmentPolicy::Unused,
        AssignmentPolicy::StaticSparse { subscribers: 40 },
        AssignmentPolicy::StaticDense { subscribers: 300 },
        AssignmentPolicy::RoundRobin { subscribers: 120 },
        AssignmentPolicy::DhcpShort { subscribers: 180 },
        AssignmentPolicy::DhcpShort { subscribers: 460 },
        AssignmentPolicy::Gateway { gateways: 5, users_per_gateway: 1800 },
        AssignmentPolicy::BotFarm { bots: 4 },
        AssignmentPolicy::ServerFarm { servers: 30 },
        AssignmentPolicy::RouterInfra { interfaces: 12 },
        AssignmentPolicy::NonWeb { hosts: 9 },
    ];
    for hold_days in [1, 7, 21, 30, 45] {
        policies.push(AssignmentPolicy::DhcpLong { subscribers: 150, hold_days });
    }
    policies.push(AssignmentPolicy::DhcpLong { subscribers: 400, hold_days: 30 });
    // Populations on either side of the kernel's 64-subscriber chunks.
    for subscribers in [63, 64, 65, 128, 129] {
        policies.extend([
            AssignmentPolicy::StaticDense { subscribers },
            AssignmentPolicy::RoundRobin { subscribers },
            AssignmentPolicy::DhcpShort { subscribers },
            AssignmentPolicy::DhcpLong { subscribers, hold_days: 30 },
        ]);
    }
    policies
}

/// `eval_day_into` equals the old kernel on every day of a year, for
/// every policy — at the block seed and at the seed a restructured
/// block's second policy runs on, on residential and institutional
/// rhythms, and over a year short enough that subscriber lifespans
/// overhang it (days past the year's end included).
#[test]
fn the_kernel_equals_the_old_kernel_on_every_day_of_the_year() {
    let block = SeedMixer::new(0x5EED).child(0xB10C).child(3);
    let mut day = Vec::new();
    for (seed, institutional, weeks) in
        [(block, false, 52), (block.child(0x7E57), true, 52), (block.child(9), false, 4)]
    {
        for policy in kernel_policies() {
            let sim = PolicySim::new(policy.clone(), seed, institutional, weeks);
            let old = oracle::Sim::new(policy.clone(), seed, institutional, weeks);
            for t in 0..(weeks + 2) * 7 {
                sim.eval_day_into(t, &mut day);
                assert_eq!(day, old.eval_day(t), "{policy:?}, day {t} of {weeks} weeks");
            }
            // The one-shot spelling is the same kernel.
            assert_eq!(policy.eval_day(seed, institutional, weeks, 17), old.eval_day(17));
        }
    }
}

/// The lane kernels — the body compiled for the baseline, and for
/// AVX-512 where the CPU has it — equal the libm loops on every day, for
/// every policy, at the seeds and rhythms the oracle test walks: both
/// sides of the kernel selector give the same days.
#[test]
fn every_kernel_equals_the_libm_loops_on_every_day_of_the_year() {
    eprintln!("dispatched kernel: {:?}", Kernel::dispatched());
    let block = SeedMixer::new(0x5EED).child(0xB10C).child(3);
    let (mut reference, mut day) = (Vec::new(), Vec::new());
    for (seed, institutional, weeks) in
        [(block, false, 52), (block.child(0x7E57), true, 52), (block.child(9), false, 4)]
    {
        for policy in kernel_policies() {
            let sim = |kernel| {
                PolicySim::new(policy.clone(), seed, institutional, weeks).with_kernel(kernel)
            };
            let libm = sim(Kernel::Libm);
            for kernel in [Kernel::Lanes, Kernel::Avx512] {
                let lanes = sim(kernel);
                for t in 0..(weeks + 2) * 7 {
                    libm.eval_day_into(t, &mut reference);
                    lanes.eval_day_into(t, &mut day);
                    assert_eq!(day, reference, "{kernel:?}, {policy:?}, day {t} of {weeks} weeks");
                }
            }
        }
    }
}

/// The streamed hash is the hash of the rendered string, for every
/// (device, app) a subscriber can have and for crawlers.
#[test]
fn render_hash_is_hash_of_render() {
    for i in 0..10_000u64 {
        let key = SeedMixer::new(0xA9E).child(i).value();
        for device in 0..3 {
            for app in 0..5 {
                assert_eq!(
                    ua::render_hash(key, device, app),
                    ua::hash(&ua::render(key, device, app)),
                    "key {key:#x} device {device} app {app}"
                );
            }
        }
        assert_eq!(ua::render_bot_hash(key), ua::hash(&ua::render_bot(key)));
        assert_eq!(ua::render_bot_hash(i), ua::hash(&ua::render_bot(i)));
    }
}

fn arb_config() -> impl Strategy<Value = UniverseConfig> {
    (
        any::<u64>(),
        0.0f64..=0.3,  // restructure_rate
        0.0f64..=0.3,  // partial_lifespan_rate
        0.0f64..=0.5,  // bgp_visibility_rate
    )
        .prop_map(|(seed, restructure, lifespan, bgp_vis)| {
            let mut c = UniverseConfig::tiny(seed);
            c.restructure_rate = restructure;
            c.partial_lifespan_rate = lifespan;
            c.bgp_visibility_rate = bgp_vis;
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn universe_structural_invariants(cfg in arb_config()) {
        let u = Universe::generate(cfg);
        // Blocks sorted and unique.
        prop_assert!(u.blocks.windows(2).all(|w| w[0].block < w[1].block));
        for (i, e) in u.blocks.iter().enumerate() {
            let a = &u.ases[e.as_index];
            // Ownership is consistent both ways.
            prop_assert!(a.region.contains(e.block.network()));
            prop_assert!(a.block_range.0 <= i && i < a.block_range.1);
            // Every block is delegated with matching registry data.
            let d = u.delegations().lookup(e.block.network());
            prop_assert!(d.is_some());
            prop_assert_eq!(d.unwrap().rir, a.rir);
            // Every block is routed to its owner at day 0.
            prop_assert_eq!(u.bgp().base().origin_of(e.block.addr(9)), Some(a.asn));
            // Lifecycle weeks are within the year.
            prop_assert!(e.alive_weeks.0 < e.alive_weeks.1);
            prop_assert!(e.alive_weeks.1 as usize <= u.config().weeks);
            // Restructure day inside the daily window.
            if let Some((day, _)) = e.restructure {
                prop_assert!(day >= u.config().daily_offset);
                prop_assert!(day < u.config().daily_offset + u.config().daily_days);
            }
        }
        // BGP events stay within the year.
        for ev in u.bgp().events() {
            prop_assert!((ev.day as usize) <= u.config().weeks * 7);
        }
    }

    #[test]
    fn datasets_respect_ground_truth(cfg in arb_config()) {
        let u = Universe::generate(cfg);
        let daily = u.build_daily();
        for rec in &daily.blocks {
            // Activity only in universe blocks.
            let entry = u
                .blocks
                .iter()
                .find(|e| e.block == rec.block);
            prop_assert!(entry.is_some(), "dataset block {} not in universe", rec.block);
            // Hits accounting: per-IP totals sum to the block total.
            let ip_sum: u64 = rec.ip_traffic.iter().map(|t| t.total_hits).sum();
            prop_assert_eq!(ip_sum, rec.total_hits);
            // days_active agrees with the bit rows.
            for t in &rec.ip_traffic {
                prop_assert_eq!(
                    t.days_active as u32,
                    rec.rows[t.host as usize].count()
                );
                prop_assert!(t.total_hits >= t.days_active as u64);
            }
            // UA uniques can never exceed samples.
            prop_assert!(rec.ua_unique as u64 <= rec.ua_samples);
        }
    }

    #[test]
    fn probe_target_is_in_bounds(cfg in arb_config()) {
        let u = Universe::generate(cfg);
        for block in u.candidate_blocks().into_iter().take(8) {
            for host in [0u8, 1, 127, 255] {
                let addr = block.addr(host);
                let p = u.icmp_response_probability(addr);
                prop_assert!((0.0..=1.0).contains(&p));
                // Routers and servers never overlap in one address.
                let router = u.is_router_interface(addr);
                let server = !u.open_services(addr).is_empty();
                prop_assert!(!(router && server));
            }
        }
    }

    #[test]
    fn weekly_contains_daily_window(cfg in arb_config()) {
        let u = Universe::generate(cfg);
        let daily = u.build_daily();
        let weekly = u.build_weekly();
        let w0 = u.config().daily_offset / 7;
        let w1 = (u.config().daily_offset + u.config().daily_days)
            .div_ceil(7)
            .min(weekly.num_weeks);
        let weekly_union: AddrSet = weekly.window(w0..w1);
        for addr in daily.all_active::<AddrSet>().iter() {
            prop_assert!(weekly_union.contains(addr));
        }
    }
}
