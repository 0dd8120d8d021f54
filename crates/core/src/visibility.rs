//! Passive (CDN) versus active (ICMP) visibility — Section 3,
//! Figure 2.

use ipactive_bgp::{Asn, RoutingTable};
use ipactive_net::{ActiveSet, Block24};
use std::collections::HashSet;

#[cfg(test)]
use ipactive_net::AddrSet;

/// A three-way split of observed entities (Figure 2(a)'s bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VisibilitySplit {
    /// Seen by the CDN only.
    pub cdn_only: usize,
    /// Seen by both the CDN and ICMP scans.
    pub both: usize,
    /// Seen in ICMP scans only.
    pub icmp_only: usize,
}

impl VisibilitySplit {
    /// Total entities seen by either method.
    pub fn total(&self) -> usize {
        self.cdn_only + self.both + self.icmp_only
    }

    /// Fraction of the combined population seen only by the CDN —
    /// the paper's ">40% of addresses invisible to ICMP" number.
    pub fn cdn_only_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.cdn_only as f64 / self.total() as f64
        }
    }

    /// Fraction seen only by ICMP.
    pub fn icmp_only_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.icmp_only as f64 / self.total() as f64
        }
    }
}

/// Address-level visibility split.
///
/// ```
/// use ipactive_core::visibility::split_addrs;
/// use ipactive_net::AddrSet;
/// let cdn: AddrSet = ["10.0.0.1", "10.0.0.2"].iter().map(|s| s.parse().unwrap()).collect();
/// let icmp: AddrSet = ["10.0.0.2", "10.0.0.3"].iter().map(|s| s.parse().unwrap()).collect();
/// let s = split_addrs(&cdn, &icmp);
/// assert_eq!((s.cdn_only, s.both, s.icmp_only), (1, 1, 1));
/// ```
pub fn split_addrs<S: ActiveSet>(cdn: &S, icmp: &S) -> VisibilitySplit {
    let both = cdn.intersect_len(icmp);
    VisibilitySplit {
        cdn_only: cdn.len() - both,
        both,
        icmp_only: icmp.len() - both,
    }
}

/// `/24`-level visibility split (an entity is "seen" when any of its
/// addresses is).
pub fn split_blocks<S: ActiveSet>(cdn: &S, icmp: &S) -> VisibilitySplit {
    let cb: HashSet<Block24> = cdn.blocks24().into_iter().collect();
    let ib: HashSet<Block24> = icmp.blocks24().into_iter().collect();
    let both = cb.intersection(&ib).count();
    VisibilitySplit { cdn_only: cb.len() - both, both, icmp_only: ib.len() - both }
}

/// Routed-prefix-level split: an announced prefix is "seen" by a
/// method if any of that method's addresses falls inside it.
pub fn split_prefixes<S: ActiveSet>(cdn: &S, icmp: &S, table: &RoutingTable) -> VisibilitySplit {
    let mut split = VisibilitySplit::default();
    for route in table.routes() {
        let c = cdn.any_in(route.prefix);
        let i = icmp.any_in(route.prefix);
        match (c, i) {
            (true, true) => split.both += 1,
            (true, false) => split.cdn_only += 1,
            (false, true) => split.icmp_only += 1,
            (false, false) => {}
        }
    }
    split
}

/// AS-level split via origin lookup.
pub fn split_ases<S: ActiveSet>(cdn: &S, icmp: &S, table: &RoutingTable) -> VisibilitySplit {
    let collect = |set: &S| -> HashSet<Asn> {
        let mut out = HashSet::new();
        // One lookup per touched /24 is enough: origins are uniform
        // below /24 in any realistic table, and both sets aggregate
        // identically so the comparison stays fair.
        for block in set.blocks24() {
            if let Some(asn) = table.origin_of(block.network()) {
                out.insert(asn);
            }
        }
        out
    };
    let ca = collect(cdn);
    let ia = collect(icmp);
    let both = ca.intersection(&ia).count();
    VisibilitySplit { cdn_only: ca.len() - both, both, icmp_only: ia.len() - both }
}

/// Capture/recapture estimate of the *total* active population from
/// the CDN and ICMP sightings (see [`crate::stats::chapman`]): the
/// two methods are treated as independent captures, so addresses
/// invisible to both can be extrapolated — the paper's nod to Zander
/// et al.'s statistical estimates.
///
/// Returns `None` when either sample is empty. Note the independence
/// assumption is violated in practice (NAT hides hosts from ICMP in a
/// correlated way), which biases the estimate up — the paper makes the
/// same caveat about all capture/recapture address censuses.
pub fn estimate_population<S: ActiveSet>(cdn: &S, icmp: &S) -> Option<f64> {
    if cdn.is_empty() || icmp.is_empty() {
        return None;
    }
    let overlap = cdn.intersect_len(icmp) as u64;
    Some(crate::stats::chapman(cdn.len() as u64, icmp.len() as u64, overlap))
}

/// Classification of ICMP-only addresses (Figure 2(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IcmpOnlyClasses {
    /// Answering an application service only.
    pub server: usize,
    /// Appearing in traceroutes *and* answering a service.
    pub server_router: usize,
    /// Appearing in traceroutes only.
    pub router: usize,
    /// Neither: unused, non-web-active, or infrastructure we can't see.
    pub unknown: usize,
}

impl IcmpOnlyClasses {
    /// Total classified addresses.
    pub fn total(&self) -> usize {
        self.server + self.server_router + self.router + self.unknown
    }

    /// Fraction attributable to server or router infrastructure.
    pub fn infrastructure_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.server + self.server_router + self.router) as f64 / self.total() as f64
        }
    }
}

/// Classifies the ICMP-only population against port-scan (`servers`)
/// and traceroute (`routers`) observations.
pub fn classify_icmp_only<S: ActiveSet>(
    icmp_only: &S,
    servers: &S,
    routers: &S,
) -> IcmpOnlyClasses {
    let mut out = IcmpOnlyClasses::default();
    for addr in icmp_only.iter() {
        match (servers.contains(addr), routers.contains(addr)) {
            (true, true) => out.server_router += 1,
            (true, false) => out.server += 1,
            (false, true) => out.router += 1,
            (false, false) => out.unknown += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipactive_net::Addr;

    fn set(addrs: &[&str]) -> AddrSet {
        addrs.iter().map(|s| s.parse::<Addr>().unwrap()).collect()
    }

    #[test]
    fn addr_split_counts() {
        let cdn = set(&["10.0.0.1", "10.0.0.2", "10.0.0.3"]);
        let icmp = set(&["10.0.0.3", "10.0.0.4"]);
        let s = split_addrs(&cdn, &icmp);
        assert_eq!(s, VisibilitySplit { cdn_only: 2, both: 1, icmp_only: 1 });
        assert_eq!(s.total(), 4);
        assert!((s.cdn_only_fraction() - 0.5).abs() < 1e-12);
        assert!((s.icmp_only_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn block_split_aggregates() {
        // Different addrs of the same /24 seen by each method → "both".
        let cdn = set(&["10.0.0.1", "10.0.1.1"]);
        let icmp = set(&["10.0.0.200", "10.0.2.1"]);
        let s = split_blocks(&cdn, &icmp);
        assert_eq!(s, VisibilitySplit { cdn_only: 1, both: 1, icmp_only: 1 });
    }

    #[test]
    fn incongruity_shrinks_with_aggregation() {
        // The paper's headline: NAT'd clients make the IP-level CDN-only
        // share large, but the same /24s are often visible to both.
        let cdn = set(&["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]);
        let icmp = set(&["10.0.0.4"]); // only the NAT gateway answers
        let ip = split_addrs(&cdn, &icmp);
        let blocks = split_blocks(&cdn, &icmp);
        assert!(ip.cdn_only_fraction() > blocks.cdn_only_fraction());
        assert_eq!(blocks.cdn_only_fraction(), 0.0);
    }

    #[test]
    fn prefix_and_as_splits() {
        let mut table = RoutingTable::new();
        table.announce("10.0.0.0/16".parse().unwrap(), Asn(1));
        table.announce("20.0.0.0/16".parse().unwrap(), Asn(2));
        table.announce("30.0.0.0/16".parse().unwrap(), Asn(3));
        let cdn = set(&["10.0.0.1", "20.0.0.1"]);
        let icmp = set(&["20.0.9.9", "30.0.0.1"]);
        let p = split_prefixes(&cdn, &icmp, &table);
        assert_eq!(p, VisibilitySplit { cdn_only: 1, both: 1, icmp_only: 1 });
        let a = split_ases(&cdn, &icmp, &table);
        assert_eq!(a, VisibilitySplit { cdn_only: 1, both: 1, icmp_only: 1 });
    }

    #[test]
    fn icmp_only_classification() {
        let icmp_only = set(&["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]);
        let servers = set(&["10.0.0.1", "10.0.0.2"]);
        let routers = set(&["10.0.0.2", "10.0.0.3"]);
        let c = classify_icmp_only(&icmp_only, &servers, &routers);
        assert_eq!(c.server, 1);
        assert_eq!(c.server_router, 1);
        assert_eq!(c.router, 1);
        assert_eq!(c.unknown, 1);
        assert_eq!(c.total(), 4);
        assert!((c.infrastructure_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn population_estimate_extrapolates_hidden_addresses() {
        // 100 CDN addresses, 50 ICMP addresses, 25 overlap → Chapman
        // estimates ~198 total: more than either sighting saw.
        let cdn: AddrSet =
            (0u32..100).map(|i| Addr::new(0x0A000000 + i)).collect();
        let icmp: AddrSet =
            (75u32..125).map(|i| Addr::new(0x0A000000 + i)).collect();
        let est = estimate_population(&cdn, &icmp).unwrap();
        assert!(est > 190.0 && est < 210.0, "estimate {est}");
        assert!(est > cdn.union(&icmp).len() as f64);
        assert!(estimate_population(&AddrSet::new(), &icmp).is_none());
    }

    #[test]
    fn empty_sets_are_harmless() {
        let empty = AddrSet::new();
        let s = split_addrs(&empty, &empty);
        assert_eq!(s.total(), 0);
        assert_eq!(s.cdn_only_fraction(), 0.0);
        let c = classify_icmp_only(&empty, &empty, &empty);
        assert_eq!(c.total(), 0);
    }
}
