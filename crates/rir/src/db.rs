//! Delegation database: prefix → (RIR, country).

use crate::{CountryCode, Rir};
use ipactive_net::{Addr, Block24, Prefix, PrefixTrie};
use std::collections::HashSet;

/// One address-space delegation, as in the NRO extended allocation files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delegation {
    /// The delegated prefix.
    pub prefix: Prefix,
    /// The registry that made the delegation.
    pub rir: Rir,
    /// Country the registrant is registered in.
    pub country: CountryCode,
}

/// Longest-prefix-match database of delegations.
///
/// Lookups return the most specific delegation covering an address,
/// mirroring how per-country assignments nest inside regional
/// allocations in the real delegation files.
///
/// ```
/// use ipactive_rir::{CountryCode, Delegation, DelegationDb, Rir};
/// let mut db = DelegationDb::new();
/// db.insert(Delegation {
///     prefix: "24.0.0.0/8".parse().unwrap(),
///     rir: Rir::Arin,
///     country: CountryCode::new("US"),
/// });
/// let d = db.lookup("24.1.2.3".parse().unwrap()).unwrap();
/// assert_eq!(d.rir, Rir::Arin);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DelegationDb {
    trie: PrefixTrie<(Rir, CountryCode)>,
    /// The `/24`s a delegation longer than `/24` lies inside.
    split: HashSet<Block24>,
}

impl DelegationDb {
    /// An empty database.
    pub fn new() -> Self {
        DelegationDb::default()
    }

    /// Adds (or replaces) a delegation.
    pub fn insert(&mut self, d: Delegation) {
        if d.prefix.len() > 24 {
            self.split.insert(Block24::of(d.prefix.network()));
        }
        self.trie.insert(d.prefix, (d.rir, d.country));
    }

    /// Whether a delegation longer than `/24` lies inside `block`, so
    /// that its addresses may resolve to different delegations. For any
    /// other block, [`lookup`](Self::lookup) of its network address
    /// answers for all 256 of them.
    pub fn is_split(&self, block: Block24) -> bool {
        self.split.contains(&block)
    }

    /// Number of delegations stored.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Most specific delegation covering `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<Delegation> {
        self.trie
            .longest_match(addr)
            .map(|(prefix, &(rir, country))| Delegation { prefix, rir, country })
    }

    /// The registry for `addr`, if delegated.
    pub fn rir_of(&self, addr: Addr) -> Option<Rir> {
        self.lookup(addr).map(|d| d.rir)
    }

    /// The registration country for `addr`, if delegated.
    pub fn country_of(&self, addr: Addr) -> Option<CountryCode> {
        self.lookup(addr).map(|d| d.country)
    }

    /// All delegations in address order.
    pub fn iter(&self) -> Vec<Delegation> {
        self.trie
            .iter()
            .into_iter()
            .map(|(prefix, &(rir, country))| Delegation { prefix, rir, country })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deleg(p: &str, rir: Rir, cc: &str) -> Delegation {
        Delegation { prefix: p.parse().unwrap(), rir, country: CountryCode::new(cc) }
    }

    #[test]
    fn lookup_prefers_most_specific() {
        let mut db = DelegationDb::new();
        db.insert(deleg("80.0.0.0/8", Rir::Ripe, "GB"));
        db.insert(deleg("80.1.0.0/16", Rir::Ripe, "DE"));
        let d = db.lookup("80.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(d.country.as_str(), "DE");
        let d = db.lookup("80.2.2.3".parse().unwrap()).unwrap();
        assert_eq!(d.country.as_str(), "GB");
        assert!(db.lookup("81.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn convenience_accessors() {
        let mut db = DelegationDb::new();
        db.insert(deleg("1.0.0.0/8", Rir::Apnic, "CN"));
        let a: Addr = "1.2.3.4".parse().unwrap();
        assert_eq!(db.rir_of(a), Some(Rir::Apnic));
        assert_eq!(db.country_of(a).unwrap().as_str(), "CN");
        assert_eq!(db.rir_of("2.0.0.0".parse().unwrap()), None);
    }

    #[test]
    fn iter_returns_address_order() {
        let mut db = DelegationDb::new();
        db.insert(deleg("200.0.0.0/8", Rir::Lacnic, "BR"));
        db.insert(deleg("41.0.0.0/8", Rir::Afrinic, "ZA"));
        db.insert(deleg("100.0.0.0/8", Rir::Arin, "US"));
        let all = db.iter();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].country.as_str(), "ZA");
        assert_eq!(all[2].country.as_str(), "BR");
    }

    #[test]
    fn only_delegations_longer_than_a_24_split_it() {
        let mut db = DelegationDb::new();
        db.insert(deleg("80.0.0.0/8", Rir::Ripe, "GB"));
        db.insert(deleg("80.1.2.0/24", Rir::Ripe, "DE"));
        db.insert(deleg("80.1.3.128/25", Rir::Ripe, "FR"));
        db.insert(deleg("80.1.4.7/32", Rir::Ripe, "NL"));
        let block = |s: &str| Block24::of(s.parse().unwrap());
        assert!(!db.is_split(block("80.0.0.0")));
        assert!(!db.is_split(block("80.1.2.0")));
        assert!(db.is_split(block("80.1.3.0")));
        assert!(db.is_split(block("80.1.4.0")));
        assert_eq!(db.country_of("80.1.3.1".parse().unwrap()).unwrap().as_str(), "GB");
        assert_eq!(db.country_of("80.1.3.129".parse().unwrap()).unwrap().as_str(), "FR");
    }

    #[test]
    fn replace_updates_value() {
        let mut db = DelegationDb::new();
        db.insert(deleg("10.0.0.0/8", Rir::Arin, "US"));
        db.insert(deleg("10.0.0.0/8", Rir::Arin, "CA"));
        assert_eq!(db.len(), 1);
        assert_eq!(db.country_of("10.1.1.1".parse().unwrap()).unwrap().as_str(), "CA");
    }
}
