//! Geographic dissection of visibility (Section 3.4, Figure 3).

use crate::visibility::VisibilitySplit;
use ipactive_net::{ActiveSet, Block24};
use ipactive_rir::{subscriber_ranks, CountryCode, Delegation, DelegationDb, Rir, SubscriberRanks};
use std::collections::HashMap;

#[cfg(test)]
use ipactive_net::AddrSet;

/// Per-RIR visibility splits, indexed per [`Rir::index`] —
/// Figure 3(a).
pub fn by_rir<S: ActiveSet>(cdn: &S, icmp: &S, db: &DelegationDb) -> [VisibilitySplit; 5] {
    let mut out = [VisibilitySplit::default(); 5];
    tally(cdn, icmp, db, |d, split| add(&mut out[d.rir.index()], split));
    out
}

/// Hands every seen address's split, grouped as coarsely as the
/// answer allows, to `f` with the delegation covering it; undelegated
/// addresses are dropped.
///
/// The per-`/24` splits come from a merge walk of the two sets' block
/// counts and their intersection's, so no union is built and no member
/// visited. A `/24` no delegation splits resolves with one lookup of
/// its network address; one that a longer delegation splits
/// ([`DelegationDb::is_split`]) is resolved address by address, inside
/// that `/24` only.
fn tally<S: ActiveSet>(
    cdn: &S,
    icmp: &S,
    db: &DelegationDb,
    mut f: impl FnMut(Delegation, VisibilitySplit),
) {
    for (block, split) in block_splits(cdn, icmp) {
        if !db.is_split(block) {
            if let Some(d) = db.lookup(block.network()) {
                f(d, split);
            }
            continue;
        }
        for addr in block.addrs() {
            let (c, i) = (cdn.contains(addr), icmp.contains(addr));
            if !(c || i) {
                continue;
            }
            if let Some(d) = db.lookup(addr) {
                let (cdn_only, both) = (usize::from(c && !i), usize::from(c && i));
                f(d, VisibilitySplit { cdn_only, both, icmp_only: usize::from(i && !c) });
            }
        }
    }
}

/// The visibility split of every `/24` either set touches, ascending.
fn block_splits<S: ActiveSet>(cdn: &S, icmp: &S) -> Vec<(Block24, VisibilitySplit)> {
    let (c, i, b) = (cdn.block_counts(), icmp.block_counts(), cdn.intersect_block_counts(icmp));
    let (mut ci, mut ii, mut bi) = (0, 0, 0);
    let mut out = Vec::with_capacity(c.len().max(i.len()));
    // The count of `block` in `counts`, stepping past it.
    let take = |counts: &[(Block24, u32)], at: &mut usize, block: Block24| match counts.get(*at) {
        Some(&(b, n)) if b == block => {
            *at += 1;
            n as usize
        }
        _ => 0,
    };
    loop {
        let block = match (c.get(ci), i.get(ii)) {
            (None, None) => return out,
            (Some(&(x, _)), None) | (None, Some(&(x, _))) => x,
            (Some(&(x, _)), Some(&(y, _))) => x.min(y),
        };
        let (nc, ni) = (take(&c, &mut ci, block), take(&i, &mut ii, block));
        let both = take(&b, &mut bi, block);
        out.push((block, VisibilitySplit { cdn_only: nc - both, both, icmp_only: ni - both }));
    }
}

fn add(into: &mut VisibilitySplit, split: VisibilitySplit) {
    into.cdn_only += split.cdn_only;
    into.both += split.both;
    into.icmp_only += split.icmp_only;
}

/// One Figure 3(b) bar: a country's visibility split plus its ITU
/// subscriber ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountryVisibility {
    /// The country.
    pub country: CountryCode,
    /// Its visibility split.
    pub split: VisibilitySplit,
    /// ITU broadband/cellular ranks, if in the Figure 3(b) table.
    pub ranks: Option<SubscriberRanks>,
}

impl CountryVisibility {
    /// Fraction of this country's seen addresses that answer ICMP —
    /// the "80% in China vs 25% in Japan" observation.
    pub fn icmp_response_rate(&self) -> f64 {
        let seen = self.split.total();
        if seen == 0 {
            0.0
        } else {
            (self.split.both + self.split.icmp_only) as f64 / seen as f64
        }
    }
}

/// Computes Figure 3(b): the top `n` countries by combined visible
/// addresses, each with its split and ITU ranks.
pub fn top_countries<S: ActiveSet>(
    cdn: &S,
    icmp: &S,
    db: &DelegationDb,
    n: usize,
) -> Vec<CountryVisibility> {
    let mut per_country: HashMap<CountryCode, VisibilitySplit> = HashMap::new();
    tally(cdn, icmp, db, |d, split| add(per_country.entry(d.country).or_default(), split));
    let mut rows: Vec<CountryVisibility> = per_country
        .into_iter()
        .map(|(country, split)| CountryVisibility {
            country,
            split,
            ranks: subscriber_ranks(country),
        })
        .collect();
    rows.sort_by(|x, y| {
        y.split.total().cmp(&x.split.total()).then(x.country.cmp(&y.country))
    });
    rows.truncate(n);
    rows
}

/// CDN-added visibility per RIR: how much the CDN grows the visible
/// address pool relative to ICMP alone (the paper's "+150% in the
/// African region").
pub fn cdn_gain_over_icmp(split: &VisibilitySplit) -> f64 {
    let icmp_seen = split.both + split.icmp_only;
    if icmp_seen == 0 {
        if split.cdn_only > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        split.cdn_only as f64 / icmp_seen as f64
    }
}

/// Re-exported display order for the Figure 3(a) bars.
pub fn rir_display_order() -> [Rir; 5] {
    Rir::ALL
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipactive_net::Addr;
    use ipactive_rir::Delegation;

    fn set(addrs: &[&str]) -> AddrSet {
        addrs.iter().map(|s| s.parse::<Addr>().unwrap()).collect()
    }

    fn db() -> DelegationDb {
        let mut db = DelegationDb::new();
        for (p, rir, cc) in [
            ("10.0.0.0/8", Rir::Arin, "US"),
            ("80.0.0.0/8", Rir::Ripe, "DE"),
            ("1.0.0.0/8", Rir::Apnic, "CN"),
            ("41.0.0.0/8", Rir::Afrinic, "ZA"),
        ] {
            db.insert(Delegation {
                prefix: p.parse().unwrap(),
                rir,
                country: CountryCode::new(cc),
            });
        }
        db
    }

    #[test]
    fn rir_grouping() {
        let cdn = set(&["10.0.0.1", "10.0.0.2", "80.1.1.1"]);
        let icmp = set(&["10.0.0.2", "1.2.3.4"]);
        let grouped = by_rir(&cdn, &icmp, &db());
        let arin = grouped[Rir::Arin.index()];
        assert_eq!(arin, VisibilitySplit { cdn_only: 1, both: 1, icmp_only: 0 });
        let ripe = grouped[Rir::Ripe.index()];
        assert_eq!(ripe.cdn_only, 1);
        let apnic = grouped[Rir::Apnic.index()];
        assert_eq!(apnic.icmp_only, 1);
        assert_eq!(grouped[Rir::Lacnic.index()].total(), 0);
    }

    #[test]
    fn a_24_split_by_a_longer_delegation_is_counted_per_address() {
        let mut db = db();
        db.insert(Delegation {
            prefix: "10.0.0.128/25".parse().unwrap(),
            rir: Rir::Lacnic,
            country: CountryCode::new("BR"),
        });
        let cdn = set(&["10.0.0.1", "10.0.0.200", "10.0.1.5"]);
        let icmp = set(&["10.0.0.200", "10.0.0.201"]);
        let grouped = by_rir(&cdn, &icmp, &db);
        let arin = VisibilitySplit { cdn_only: 2, both: 0, icmp_only: 0 };
        assert_eq!(grouped[Rir::Arin.index()], arin);
        let lacnic = VisibilitySplit { cdn_only: 0, both: 1, icmp_only: 1 };
        assert_eq!(grouped[Rir::Lacnic.index()], lacnic);
        let rows = top_countries(&cdn, &icmp, &db, 5);
        let rows: Vec<_> = rows.iter().map(|r| (r.country.as_str(), r.split)).collect();
        assert_eq!(rows, [("BR", lacnic), ("US", arin)]);
    }

    #[test]
    fn undelegated_addresses_are_skipped() {
        let cdn = set(&["200.0.0.1"]); // not in the fixture db
        let grouped = by_rir(&cdn, &AddrSet::new(), &db());
        assert!(grouped.iter().all(|s| s.total() == 0));
    }

    #[test]
    fn top_countries_sorted_and_ranked() {
        let cdn = set(&["10.0.0.1", "10.0.0.2", "10.0.0.3", "1.1.1.1", "80.1.1.1"]);
        let icmp = set(&["1.1.1.1", "1.1.1.2"]);
        let rows = top_countries(&cdn, &icmp, &db(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].country.as_str(), "US");
        assert_eq!(rows[0].split.total(), 3);
        assert_eq!(rows[1].country.as_str(), "CN");
        assert_eq!(rows[1].split.total(), 2);
        assert!(rows[0].ranks.is_some());
        // CN: 2 addrs, both ICMP-visible -> response rate 1.0.
        assert!((rows[1].icmp_response_rate() - 1.0).abs() < 1e-12);
        // US: 3 addrs, none ICMP-visible.
        assert_eq!(rows[0].icmp_response_rate(), 0.0);
    }

    #[test]
    fn cdn_gain_metric() {
        let s = VisibilitySplit { cdn_only: 150, both: 80, icmp_only: 20 };
        assert!((cdn_gain_over_icmp(&s) - 1.5).abs() < 1e-12);
        let none = VisibilitySplit { cdn_only: 5, both: 0, icmp_only: 0 };
        assert!(cdn_gain_over_icmp(&none).is_infinite());
        assert_eq!(cdn_gain_over_icmp(&VisibilitySplit::default()), 0.0);
    }
}
