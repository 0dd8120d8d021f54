//! Universe configuration: scale knobs, AS mix, country profiles.

use ipactive_rir::Rir;

/// What kind of network an AS is — determines its block-policy mix,
/// user rhythm, and probe behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// Residential broadband ISP (DHCP pools, some CGN).
    ResidentialIsp,
    /// Cellular operator (almost everything behind CGN gateways).
    CellularIsp,
    /// University / academic network (lots of static space).
    University,
    /// Corporate enterprise network.
    Enterprise,
    /// Hosting / datacenter provider (servers, crawlers).
    Hosting,
    /// Backbone / infrastructure operator (routers, no WWW clients).
    Infrastructure,
}

impl AsKind {
    /// All kinds.
    pub const ALL: [AsKind; 6] = [
        AsKind::ResidentialIsp,
        AsKind::CellularIsp,
        AsKind::University,
        AsKind::Enterprise,
        AsKind::Hosting,
        AsKind::Infrastructure,
    ];

    /// Whether user activity follows institutional (weekday-heavy)
    /// rhythms.
    pub fn institutional(self) -> bool {
        matches!(self, AsKind::University | AsKind::Enterprise)
    }
}

/// Per-country modelling parameters.
#[derive(Debug, Clone, Copy)]
pub struct CountryProfile {
    /// ISO alpha-2 code.
    pub code: &'static str,
    /// The registry the country's space is delegated from.
    pub rir: Rir,
    /// Base probability that a reachable, unfirewalled host in this
    /// country answers ICMP (the paper observes ~80% in CN vs ~25% in
    /// JP, Section 3.4).
    pub icmp_base: f64,
    /// Probability that a client host sits behind a NAT/firewall that
    /// silently drops unsolicited probes.
    pub nat_rate: f64,
    /// Relative weight when assigning ASes to countries.
    pub weight: u32,
}

/// The modelled countries. Weights approximate the paper's Figure 3(b)
/// ordering; `icmp_base`/`nat_rate` reproduce its per-country ICMP
/// response-rate spread.
pub const COUNTRY_PROFILES: [CountryProfile; 16] = [
    CountryProfile { code: "US", rir: Rir::Arin, icmp_base: 0.75, nat_rate: 0.55, weight: 24 },
    CountryProfile { code: "CN", rir: Rir::Apnic, icmp_base: 0.92, nat_rate: 0.08, weight: 22 },
    CountryProfile { code: "JP", rir: Rir::Apnic, icmp_base: 0.45, nat_rate: 0.75, weight: 12 },
    CountryProfile { code: "BR", rir: Rir::Lacnic, icmp_base: 0.70, nat_rate: 0.50, weight: 10 },
    CountryProfile { code: "DE", rir: Rir::Ripe, icmp_base: 0.70, nat_rate: 0.50, weight: 9 },
    CountryProfile { code: "KR", rir: Rir::Apnic, icmp_base: 0.70, nat_rate: 0.50, weight: 7 },
    CountryProfile { code: "GB", rir: Rir::Ripe, icmp_base: 0.65, nat_rate: 0.55, weight: 7 },
    CountryProfile { code: "FR", rir: Rir::Ripe, icmp_base: 0.70, nat_rate: 0.50, weight: 7 },
    CountryProfile { code: "RU", rir: Rir::Ripe, icmp_base: 0.75, nat_rate: 0.40, weight: 6 },
    CountryProfile { code: "IT", rir: Rir::Ripe, icmp_base: 0.65, nat_rate: 0.55, weight: 5 },
    CountryProfile { code: "IN", rir: Rir::Apnic, icmp_base: 0.70, nat_rate: 0.55, weight: 5 },
    CountryProfile { code: "MX", rir: Rir::Lacnic, icmp_base: 0.65, nat_rate: 0.55, weight: 4 },
    CountryProfile { code: "AR", rir: Rir::Lacnic, icmp_base: 0.65, nat_rate: 0.55, weight: 3 },
    CountryProfile { code: "ZA", rir: Rir::Afrinic, icmp_base: 0.55, nat_rate: 0.60, weight: 3 },
    CountryProfile { code: "NG", rir: Rir::Afrinic, icmp_base: 0.45, nat_rate: 0.70, weight: 3 },
    CountryProfile { code: "EG", rir: Rir::Afrinic, icmp_base: 0.50, nat_rate: 0.65, weight: 3 },
];

/// Scale and behaviour knobs for [`crate::Universe::generate`].
///
/// Presets trade realism volume for speed:
/// * [`UniverseConfig::tiny`] — unit tests (tens of blocks, instant).
/// * [`UniverseConfig::small`] — integration tests and examples.
/// * [`UniverseConfig::default_scale`] — the figure-regeneration
///   harness (thousands of blocks; seconds in release builds).
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Root seed; equal configs with equal seeds generate identical
    /// universes and datasets.
    pub seed: u64,
    /// ASes of each kind: (kind, count).
    pub as_counts: [(AsKind, u32); 6],
    /// Mean `/24` blocks per AS (log-normal-ish spread around it).
    pub mean_blocks_per_as: f64,
    /// Days in the daily dataset window (paper: 112; must be ≤ 128).
    pub daily_days: usize,
    /// Weeks in the weekly dataset (paper: 52; must be ≤ 64).
    pub weeks: usize,
    /// Absolute day (0-based within the year) the daily window starts
    /// (paper: Aug 17 ≈ day 224 = week 32).
    pub daily_offset: usize,
    /// One of every `ua_sample_rate` hits records a User-Agent sample
    /// (paper: 4096 ≈ "1 out of 4K").
    pub ua_sample_rate: u32,
    /// Fraction of blocks that switch assignment policy mid-window
    /// (drives Figures 7/8(a); paper finds ≈ 9.8% major change).
    pub restructure_rate: f64,
    /// Fraction of blocks with a partial-year lifespan (drives the
    /// year-scale appear/disappear churn of Figure 4(c)/Table 2).
    pub partial_lifespan_rate: f64,
    /// Probability that a block lifecycle edge (activation/retirement)
    /// is visible in BGP (Table 2 shows ~90% of long-term churn is
    /// invisible to BGP).
    pub bgp_visibility_rate: f64,
    /// Fraction of blocks that suffer one multi-day outage inside the
    /// daily window (connectivity loss, not reconfiguration — the
    /// related-work reliability thread).
    pub outage_rate: f64,
}

impl UniverseConfig {
    fn base(seed: u64) -> Self {
        UniverseConfig {
            seed,
            as_counts: [
                (AsKind::ResidentialIsp, 0),
                (AsKind::CellularIsp, 0),
                (AsKind::University, 0),
                (AsKind::Enterprise, 0),
                (AsKind::Hosting, 0),
                (AsKind::Infrastructure, 0),
            ],
            mean_blocks_per_as: 6.0,
            daily_days: 112,
            weeks: 52,
            daily_offset: 224,
            ua_sample_rate: 4096,
            restructure_rate: 0.10,
            partial_lifespan_rate: 0.15,
            bgp_visibility_rate: 0.12,
            outage_rate: 0.02,
        }
    }

    /// Minimal universe for unit tests: a handful of ASes, a short
    /// window, aggressive UA sampling so small traffic still yields
    /// samples.
    pub fn tiny(seed: u64) -> Self {
        let mut c = Self::base(seed);
        c.as_counts = [
            (AsKind::ResidentialIsp, 2),
            (AsKind::CellularIsp, 1),
            (AsKind::University, 1),
            (AsKind::Enterprise, 1),
            (AsKind::Hosting, 1),
            (AsKind::Infrastructure, 1),
        ];
        c.mean_blocks_per_as = 3.0;
        c.daily_days = 28;
        c.weeks = 12;
        c.daily_offset = 28;
        c.ua_sample_rate = 64;
        c
    }

    /// Mid-size universe: fast enough for integration tests and
    /// examples in debug builds, large enough for stable statistics.
    pub fn small(seed: u64) -> Self {
        let mut c = Self::base(seed);
        c.as_counts = [
            (AsKind::ResidentialIsp, 14),
            (AsKind::CellularIsp, 4),
            (AsKind::University, 6),
            (AsKind::Enterprise, 8),
            (AsKind::Hosting, 5),
            (AsKind::Infrastructure, 3),
        ];
        c.mean_blocks_per_as = 5.0;
        c.daily_days = 56;
        c.weeks = 26;
        c.daily_offset = 112;
        c.ua_sample_rate = 512;
        c
    }

    /// The full-scale preset used by the figure-regeneration harness:
    /// the paper's 112-day/52-week geometry over a few thousand `/24`
    /// blocks.
    pub fn default_scale(seed: u64) -> Self {
        let mut c = Self::base(seed);
        c.as_counts = [
            (AsKind::ResidentialIsp, 110),
            (AsKind::CellularIsp, 30),
            (AsKind::University, 45),
            (AsKind::Enterprise, 60),
            (AsKind::Hosting, 35),
            (AsKind::Infrastructure, 20),
        ];
        c.mean_blocks_per_as = 7.0;
        c
    }

    /// Returns the config with every AS count multiplied by `factor`
    /// (rounded, at least one AS of each kind that had any) — the
    /// single dial for "the same world, bigger".
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        for (_, n) in &mut self.as_counts {
            if *n > 0 {
                *n = ((*n as f64 * factor).round() as u32).max(1);
            }
        }
        self
    }

    /// The absolute days of the daily window.
    pub(crate) fn daily_window(&self) -> std::ops::Range<usize> {
        self.daily_offset..self.daily_offset + self.daily_days
    }

    /// Total configured AS count.
    pub fn total_ases(&self) -> u32 {
        self.as_counts.iter().map(|&(_, n)| n).sum()
    }

    /// Validates internal consistency (panics on violation). Called by
    /// `Universe::generate`.
    pub fn validate(&self) {
        assert!(self.daily_days >= 2 && self.daily_days <= 128, "daily window out of range");
        assert!(self.weeks >= 2 && self.weeks <= 64, "weeks out of range");
        assert!(
            self.daily_offset + self.daily_days <= self.weeks * 7,
            "daily window must fit inside the weekly year"
        );
        assert!(self.ua_sample_rate >= 1);
        assert!((0.0..=1.0).contains(&self.restructure_rate));
        assert!((0.0..=1.0).contains(&self.partial_lifespan_rate));
        assert!((0.0..=1.0).contains(&self.bgp_visibility_rate));
        assert!((0.0..=1.0).contains(&self.outage_rate));
        assert!(self.total_ases() > 0, "universe needs at least one AS");
        assert!(self.mean_blocks_per_as >= 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        UniverseConfig::tiny(1).validate();
        UniverseConfig::small(1).validate();
        UniverseConfig::default_scale(1).validate();
    }

    #[test]
    fn preset_scales_are_ordered() {
        let t = UniverseConfig::tiny(1).total_ases();
        let s = UniverseConfig::small(1).total_ases();
        let d = UniverseConfig::default_scale(1).total_ases();
        assert!(t < s && s < d);
    }

    #[test]
    #[should_panic(expected = "daily window must fit")]
    fn validate_rejects_overhanging_daily_window() {
        let mut c = UniverseConfig::tiny(1);
        c.daily_offset = 80;
        c.validate();
    }

    #[test]
    fn scaled_multiplies_as_counts() {
        let base = UniverseConfig::small(1);
        let double = UniverseConfig::small(1).scaled(2.0);
        assert_eq!(double.total_ases(), 2 * base.total_ases());
        // Tiny factors never zero out a populated kind.
        let shrunk = UniverseConfig::small(1).scaled(0.01);
        assert!(shrunk.as_counts.iter().all(|&(_, n)| n >= 1));
        shrunk.validate();
    }

    #[test]
    fn country_profiles_cover_all_rirs() {
        for rir in Rir::ALL {
            assert!(
                COUNTRY_PROFILES.iter().any(|c| c.rir == rir),
                "no country for {rir}"
            );
        }
        // Codes are unique.
        let mut codes: Vec<&str> = COUNTRY_PROFILES.iter().map(|c| c.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), COUNTRY_PROFILES.len());
        // Probabilities are sane.
        for c in COUNTRY_PROFILES {
            assert!((0.0..=1.0).contains(&c.icmp_base));
            assert!((0.0..=1.0).contains(&c.nat_rate));
            assert!(c.weight > 0);
        }
    }

    #[test]
    fn institutional_kinds() {
        assert!(AsKind::University.institutional());
        assert!(AsKind::Enterprise.institutional());
        assert!(!AsKind::ResidentialIsp.institutional());
        assert!(!AsKind::CellularIsp.institutional());
    }
}
