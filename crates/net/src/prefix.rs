//! CIDR prefixes.

use crate::Addr;
use core::fmt;
use core::str::FromStr;

/// An IPv4 CIDR prefix: a network base address plus a mask length.
///
/// The base is always stored in canonical form (host bits zeroed), so two
/// `Prefix` values compare equal iff they denote the same address range.
///
/// ```
/// use ipactive_net::{Addr, Prefix};
/// let p: Prefix = "198.51.100.0/22".parse().unwrap();
/// assert_eq!(p.len(), 22);
/// assert_eq!(p.num_addrs(), 1024);
/// assert!(p.contains("198.51.103.255".parse().unwrap()));
/// assert!(!p.contains("198.51.104.0".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    base: u32,
    len: u8,
}

impl Prefix {
    /// The whole IPv4 space, `0.0.0.0/0`.
    pub const ALL: Prefix = Prefix { base: 0, len: 0 };

    /// Creates a prefix from a base address and mask length, canonicalizing
    /// the base (zeroing host bits). Panics if `len > 32`.
    #[inline]
    pub fn new(base: Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Prefix { base: base.bits() & Self::mask_bits(len), len }
    }

    /// The netmask as a `u32` for a given prefix length.
    #[inline]
    pub const fn mask_bits(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network (base) address.
    #[inline]
    pub const fn network(self) -> Addr {
        Addr::new(self.base)
    }

    /// The mask length (0..=32).
    #[inline]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// `true` only for the degenerate `/0` prefix viewed as "no mask bits".
    /// Provided to satisfy the `len`/`is_empty` convention; a prefix always
    /// contains at least one address.
    #[inline]
    pub const fn is_empty(self) -> bool {
        false
    }

    /// The highest address inside the prefix.
    #[inline]
    pub const fn last(self) -> Addr {
        Addr::new(self.base | !Self::mask_bits(self.len))
    }

    /// Number of addresses covered (2^(32-len)); saturates at `u32::MAX`
    /// for `/0` (which covers 2^32, one more than `u32::MAX`).
    #[inline]
    pub const fn num_addrs(self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len)
        }
    }

    /// Whether `addr` falls inside this prefix.
    #[inline]
    pub const fn contains(self, addr: Addr) -> bool {
        addr.bits() & Self::mask_bits(self.len) == self.base
    }

    /// Whether `other` is fully contained in `self` (including equality).
    #[inline]
    pub const fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && (other.base & Self::mask_bits(self.len)) == self.base
    }

    /// The prefix one bit shorter that contains this one, or `None` for `/0`.
    #[inline]
    pub fn supernet(self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(Addr::new(self.base), self.len - 1))
        }
    }

    /// The two halves of this prefix, or `None` for `/32`.
    #[inline]
    pub fn split(self) -> Option<(Prefix, Prefix)> {
        if self.len == 32 {
            return None;
        }
        let child_len = self.len + 1;
        let hi_base = self.base | (1u32 << (32 - child_len));
        Some((
            Prefix { base: self.base, len: child_len },
            Prefix { base: hi_base, len: child_len },
        ))
    }

    /// The containing prefix of `addr` at mask length `len`.
    #[inline]
    pub fn containing(addr: Addr, len: u8) -> Prefix {
        Prefix::new(addr, len)
    }

    /// Expands the half-open address range `[start, start+count)` into
    /// the minimal ordered list of CIDR prefixes covering it exactly.
    ///
    /// The classic allocation-file expansion: each step takes the
    /// largest power-of-two block that is aligned at the cursor and no
    /// larger than what remains.
    ///
    /// ```
    /// use ipactive_net::{Addr, Prefix};
    /// let ps = Prefix::cover_range("10.0.0.0".parse().unwrap(), 768);
    /// let strs: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
    /// assert_eq!(strs, vec!["10.0.0.0/23", "10.0.2.0/24"]);
    /// ```
    pub fn cover_range(start: Addr, count: u64) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut cur = start.bits() as u64;
        let mut remaining = count.min((1u64 << 32) - cur);
        while remaining > 0 {
            let align =
                if cur == 0 { 1u64 << 32 } else { 1u64 << cur.trailing_zeros().min(32) };
            let size = align.min(1u64 << (63 - remaining.leading_zeros()));
            let len = 32 - size.trailing_zeros() as u8;
            out.push(Prefix::new(Addr::new(cur as u32), len));
            cur += size;
            remaining -= size;
        }
        out
    }

    /// Iterator over all addresses in the prefix, in increasing order.
    ///
    /// Covers at most 2^32 addresses; intended for small prefixes.
    pub fn addrs(self) -> impl Iterator<Item = Addr> {
        let start = self.base as u64;
        let count = if self.len == 0 { 1u64 << 32 } else { 1u64 << (32 - self.len) };
        (start..start + count).map(|v| Addr::new(v as u32))
    }

    /// Iterator over the `/24` sub-blocks of this prefix. For prefixes
    /// longer than `/24`, yields the single containing `/24`.
    pub fn blocks24(self) -> impl Iterator<Item = crate::Block24> {
        let first = self.base >> 8;
        let last = if self.len >= 24 { first } else { (self.last().bits()) >> 8 };
        (first..=last).map(crate::Block24::new)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Prefixes order by base address first, then by mask length (shorter —
/// i.e. larger — prefixes first). This makes a sorted list of prefixes
/// place covering prefixes immediately before their subnets.
impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.base, self.len).cmp(&(other.base, other.len))
    }
}

/// Error returned when parsing a [`Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError {
    input: String,
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 prefix: {:?}", self.input)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePrefixError { input: s.to_owned() };
        let (addr, len) = s.split_once('/').ok_or_else(err)?;
        let addr: Addr = addr.parse().map_err(|_| err())?;
        let len: u8 = len.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_base() {
        assert_eq!(p("10.1.2.3/16"), p("10.1.0.0/16"));
        assert_eq!(p("10.1.2.3/16").network().to_string(), "10.1.0.0");
    }

    #[test]
    fn contains_boundaries() {
        let pre = p("198.51.100.0/22");
        assert!(pre.contains("198.51.100.0".parse().unwrap()));
        assert!(pre.contains("198.51.103.255".parse().unwrap()));
        assert!(!pre.contains("198.51.99.255".parse().unwrap()));
        assert!(!pre.contains("198.51.104.0".parse().unwrap()));
    }

    #[test]
    fn covers_is_reflexive_and_hierarchical() {
        let a = p("10.0.0.0/8");
        let b = p("10.5.0.0/16");
        let c = p("11.0.0.0/8");
        assert!(a.covers(a));
        assert!(a.covers(b));
        assert!(!b.covers(a));
        assert!(!a.covers(c));
        assert!(Prefix::ALL.covers(a));
    }

    #[test]
    fn split_and_supernet_are_inverses() {
        let pre = p("192.0.2.0/24");
        let (lo, hi) = pre.split().unwrap();
        assert_eq!(lo, p("192.0.2.0/25"));
        assert_eq!(hi, p("192.0.2.128/25"));
        assert_eq!(lo.supernet().unwrap(), pre);
        assert_eq!(hi.supernet().unwrap(), pre);
        assert!(p("1.2.3.4/32").split().is_none());
        assert!(Prefix::ALL.supernet().is_none());
    }

    #[test]
    fn num_addrs_and_last() {
        assert_eq!(p("192.0.2.0/24").num_addrs(), 256);
        assert_eq!(p("192.0.2.0/31").num_addrs(), 2);
        assert_eq!(p("192.0.2.7/32").num_addrs(), 1);
        assert_eq!(p("192.0.2.0/24").last().to_string(), "192.0.2.255");
        assert_eq!(Prefix::ALL.last(), Addr::MAX);
    }

    #[test]
    fn addr_iteration() {
        let addrs: Vec<_> = p("203.0.113.252/30").addrs().collect();
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0].to_string(), "203.0.113.252");
        assert_eq!(addrs[3].to_string(), "203.0.113.255");
    }

    #[test]
    fn blocks24_enumeration() {
        let blocks: Vec<_> = p("10.0.0.0/22").blocks24().collect();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].network().to_string(), "10.0.0.0");
        assert_eq!(blocks[3].network().to_string(), "10.0.3.0");
        // A /26 still reports its single containing /24.
        let blocks: Vec<_> = p("10.0.0.64/26").blocks24().collect();
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn ordering_groups_supernets_first() {
        let mut v = vec![p("10.0.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "/8", "10.0.0.0/8/9"] {
            assert!(s.parse::<Prefix>().is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn cover_range_exact() {
        let start: Addr = "192.0.2.128".parse().unwrap();
        let ps = Prefix::cover_range(start, 384);
        let mut cursor = start.bits() as u64;
        for p in &ps {
            assert_eq!(p.network().bits() as u64, cursor);
            cursor += p.num_addrs() as u64;
        }
        assert_eq!(cursor - start.bits() as u64, 384);
        // Degenerate cases.
        assert!(Prefix::cover_range(start, 0).is_empty());
        assert_eq!(Prefix::cover_range(Addr::MIN, 1 << 32), vec![Prefix::ALL]);
        assert_eq!(
            Prefix::cover_range("1.2.3.4".parse().unwrap(), 1),
            vec![p("1.2.3.4/32")]
        );
        // Counts past the top of the space are clamped.
        let ps = Prefix::cover_range(Addr::MAX, 100);
        assert_eq!(ps, vec![p("255.255.255.255/32")]);
    }

    #[test]
    fn display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.128/25", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }
}
