//! IPv4 address newtype.
//!
//! [`Addr`] wraps a host-order `u32`. Compared to `std::net::Ipv4Addr` it
//! is `Copy + Ord` with cheap arithmetic, which the analysis layers rely
//! on for sorted-set range queries and prefix math.

use core::fmt;
use core::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
///
/// Ordering is numeric, which matches the natural ordering of the
/// address space (e.g. `10.0.0.0 < 10.0.0.1 < 10.0.1.0`).
///
/// ```
/// use ipactive_net::Addr;
/// let a = Addr::new(0xC0000201);
/// assert_eq!(a.to_string(), "192.0.2.1");
/// assert_eq!(a.octets(), [192, 0, 2, 1]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// The lowest address, `0.0.0.0`.
    pub const MIN: Addr = Addr(0);
    /// The highest address, `255.255.255.255`.
    pub const MAX: Addr = Addr(u32::MAX);

    /// Creates an address from its host-order `u32` representation.
    #[inline]
    pub const fn new(bits: u32) -> Self {
        Addr(bits)
    }

    /// Creates an address from four dotted-quad octets.
    #[inline]
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the host-order `u32` representation.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Returns the four dotted-quad octets, most significant first.
    #[inline]
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Returns the address `n` above this one, saturating at `255.255.255.255`.
    #[inline]
    pub const fn saturating_add(self, n: u32) -> Self {
        Addr(self.0.saturating_add(n))
    }

    /// Returns the numerically next address, or `None` at the top of the space.
    #[inline]
    pub const fn next(self) -> Option<Self> {
        match self.0.checked_add(1) {
            Some(v) => Some(Addr(v)),
            None => None,
        }
    }

    /// Index of this address within its containing `/24` block (the last octet).
    #[inline]
    pub const fn host_index(self) -> u8 {
        (self.0 & 0xFF) as u8
    }

    /// Whether this address falls in conventional unicast space actually
    /// usable by clients (excludes `0.0.0.0/8`, loopback `127.0.0.0/8`,
    /// and class D/E `224.0.0.0/3`).
    #[inline]
    pub const fn is_client_unicast(self) -> bool {
        let top = self.0 >> 24;
        top != 0 && top != 127 && top < 224
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({self})")
    }
}

impl From<std::net::Ipv4Addr> for Addr {
    fn from(a: std::net::Ipv4Addr) -> Self {
        Addr(u32::from(a))
    }
}

impl From<Addr> for std::net::Ipv4Addr {
    fn from(a: Addr) -> Self {
        std::net::Ipv4Addr::from(a.0)
    }
}

impl From<u32> for Addr {
    fn from(bits: u32) -> Self {
        Addr(bits)
    }
}

/// Error returned when parsing an [`Addr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError {
    input: String,
}

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address: {:?}", self.input)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Addr {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddrError { input: s.to_owned() };
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            if part.is_empty() || part.len() > 3 || (part.len() > 1 && part.starts_with('0')) {
                return Err(err());
            }
            *slot = part.parse::<u8>().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(Addr::from_octets(octets[0], octets[1], octets[2], octets[3]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_display_parse() {
        for bits in [0u32, 1, 0xC0000201, 0x0A000001, u32::MAX, 0x7F000001] {
            let a = Addr::new(bits);
            let parsed: Addr = a.to_string().parse().unwrap();
            assert_eq!(parsed, a);
        }
    }

    #[test]
    fn octet_construction_matches_bits() {
        assert_eq!(Addr::from_octets(192, 0, 2, 1).bits(), 0xC0000201);
        assert_eq!(Addr::from_octets(0, 0, 0, 0), Addr::MIN);
        assert_eq!(Addr::from_octets(255, 255, 255, 255), Addr::MAX);
    }

    #[test]
    fn ordering_is_numeric() {
        let lo: Addr = "10.0.0.0".parse().unwrap();
        let mid: Addr = "10.0.0.255".parse().unwrap();
        let hi: Addr = "10.0.1.0".parse().unwrap();
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn next_and_saturating_add() {
        assert_eq!(Addr::MIN.next(), Some(Addr::new(1)));
        assert_eq!(Addr::MAX.next(), None);
        assert_eq!(Addr::MAX.saturating_add(10), Addr::MAX);
    }

    #[test]
    fn host_index_is_last_octet() {
        let a: Addr = "198.51.100.37".parse().unwrap();
        assert_eq!(a.host_index(), 37);
    }

    #[test]
    fn client_unicast_classification() {
        assert!(Addr::from_octets(1, 2, 3, 4).is_client_unicast());
        assert!(Addr::from_octets(223, 255, 255, 255).is_client_unicast());
        assert!(!Addr::from_octets(0, 1, 2, 3).is_client_unicast());
        assert!(!Addr::from_octets(127, 0, 0, 1).is_client_unicast());
        assert!(!Addr::from_octets(224, 0, 0, 1).is_client_unicast());
        assert!(!Addr::from_octets(240, 0, 0, 1).is_client_unicast());
    }

    #[test]
    fn rejects_malformed_strings() {
        for s in ["", "1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "a.b.c.d", "1..2.3"] {
            assert!(s.parse::<Addr>().is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn std_conversions() {
        let std_addr = std::net::Ipv4Addr::new(203, 0, 113, 9);
        let a: Addr = std_addr.into();
        assert_eq!(std::net::Ipv4Addr::from(a), std_addr);
    }
}
