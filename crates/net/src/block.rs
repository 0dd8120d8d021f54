//! `/24` block identifiers.
//!
//! The paper's spatio-temporal metrics (filling degree, spatio-temporal
//! utilization) are defined over `/24` blocks — "the smallest distinct,
//! globally-routed entity" (Section 5.1). [`Block24`] is a compact
//! 24-bit identifier for such a block (the address' top three octets).

use crate::{Addr, Prefix};
use core::fmt;

/// Identifier of a `/24` CIDR block: the upper 24 bits of its addresses.
///
/// `Block24` is `Copy + Ord` and only 4 bytes, so it is used as the key
/// for all per-block aggregation maps. Blocks order numerically, i.e. in
/// address-space order.
///
/// ```
/// use ipactive_net::{Addr, Block24};
/// let b = Block24::of("203.0.113.77".parse().unwrap());
/// assert_eq!(b.network().to_string(), "203.0.113.0");
/// assert_eq!(b.addr(77).to_string(), "203.0.113.77");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Block24(u32);

impl Block24 {
    /// Number of addresses in a `/24` block.
    pub const SIZE: usize = 256;

    /// Creates a block id from the upper 24 bits (`addr >> 8`).
    /// Panics if `id` does not fit in 24 bits.
    #[inline]
    pub fn new(id: u32) -> Self {
        assert!(id < (1 << 24), "block id {id:#x} exceeds 24 bits");
        Block24(id)
    }

    /// The block containing `addr`.
    #[inline]
    pub const fn of(addr: Addr) -> Self {
        Block24(addr.bits() >> 8)
    }

    /// The raw 24-bit identifier.
    #[inline]
    pub const fn id(self) -> u32 {
        self.0
    }

    /// The block's network address (`x.y.z.0`).
    #[inline]
    pub const fn network(self) -> Addr {
        Addr::new(self.0 << 8)
    }

    /// The `i`-th address within the block (`x.y.z.i`).
    #[inline]
    pub const fn addr(self, i: u8) -> Addr {
        Addr::new((self.0 << 8) | i as u32)
    }

    /// The block as a [`Prefix`] of length 24.
    #[inline]
    pub fn prefix(self) -> Prefix {
        Prefix::new(self.network(), 24)
    }

    /// Iterator over the 256 addresses of the block, in order.
    pub fn addrs(self) -> impl Iterator<Item = Addr> {
        let base = self.0 << 8;
        (0u32..256).map(move |i| Addr::new(base | i))
    }

    /// The next block in address-space order, or `None` at the top.
    #[inline]
    pub fn next(self) -> Option<Self> {
        if self.0 + 1 < (1 << 24) {
            Some(Block24(self.0 + 1))
        } else {
            None
        }
    }
}

impl fmt::Display for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/24", self.network())
    }
}

impl fmt::Debug for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block24({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_and_network() {
        let b = Block24::of("10.20.30.40".parse().unwrap());
        assert_eq!(b.network().to_string(), "10.20.30.0");
        assert_eq!(b.id(), (10 << 16) | (20 << 8) | 30);
    }

    #[test]
    fn addr_indexing() {
        let b = Block24::of("192.0.2.0".parse().unwrap());
        assert_eq!(b.addr(0).to_string(), "192.0.2.0");
        assert_eq!(b.addr(255).to_string(), "192.0.2.255");
    }

    #[test]
    fn all_contained_addrs_map_back() {
        let b = Block24::new(0x00C000);
        for a in b.addrs() {
            assert_eq!(Block24::of(a), b);
        }
        assert_eq!(b.addrs().count(), Block24::SIZE);
    }

    #[test]
    fn prefix_conversion() {
        let b = Block24::of("172.16.5.99".parse().unwrap());
        let p = b.prefix();
        assert_eq!(p.to_string(), "172.16.5.0/24");
        assert!(p.contains(b.addr(0)));
        assert!(p.contains(b.addr(255)));
    }

    #[test]
    fn ordering_is_address_order() {
        let a = Block24::of("10.0.0.0".parse().unwrap());
        let b = Block24::of("10.0.1.0".parse().unwrap());
        let c = Block24::of("11.0.0.0".parse().unwrap());
        assert!(a < b && b < c);
    }

    #[test]
    fn next_wraps_to_none_at_top() {
        let top = Block24::new((1 << 24) - 1);
        assert!(top.next().is_none());
        assert_eq!(Block24::new(5).next(), Some(Block24::new(6)));
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn new_rejects_oversized_ids() {
        Block24::new(1 << 24);
    }

    #[test]
    fn display_format() {
        assert_eq!(Block24::of("198.51.100.9".parse().unwrap()).to_string(), "198.51.100.0/24");
    }
}
