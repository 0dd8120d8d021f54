//! Compact bitsets used throughout the analysis pipeline.
//!
//! * [`DayBits`] — up to 128 observation days for a single address
//!   (the daily dataset in the paper spans 112 days).
//! * [`AddrBits256`] — the 256 addresses of one `/24` block.

use core::fmt;

/// Activity bitset over observation days (bit `d` = active on day `d`).
///
/// Backed by a single `u128`; the paper's daily dataset covers 112 days,
/// comfortably inside the 128-day capacity.
///
/// ```
/// use ipactive_net::DayBits;
/// let mut days = DayBits::new();
/// days.set(0);
/// days.set(111);
/// assert_eq!(days.count(), 2);
/// assert!(days.get(111));
/// assert_eq!(days.iter().collect::<Vec<_>>(), vec![0, 111]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DayBits(u128);

impl DayBits {
    /// Maximum representable day index + 1.
    pub const CAPACITY: usize = 128;

    /// An empty set (no active days).
    #[inline]
    pub const fn new() -> Self {
        DayBits(0)
    }

    /// Constructs from a raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u128) -> Self {
        DayBits(bits)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Marks day `d` active. Panics if `d >= 128`.
    #[inline]
    pub fn set(&mut self, d: usize) {
        assert!(d < Self::CAPACITY, "day {d} out of range");
        self.0 |= 1u128 << d;
    }

    /// Clears day `d`. Panics if `d >= 128`.
    #[inline]
    pub fn clear(&mut self, d: usize) {
        assert!(d < Self::CAPACITY, "day {d} out of range");
        self.0 &= !(1u128 << d);
    }

    /// Whether day `d` is active. Panics if `d >= 128`.
    #[inline]
    pub fn get(self, d: usize) -> bool {
        assert!(d < Self::CAPACITY, "day {d} out of range");
        self.0 & (1u128 << d) != 0
    }

    /// Whether every active day is earlier than `d` — setting `d` would
    /// add the latest day. Panics if `d >= 128`.
    #[inline]
    pub fn all_before(self, d: usize) -> bool {
        assert!(d < Self::CAPACITY, "day {d} out of range");
        self.0 >> d == 0
    }

    /// Number of active days.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no day is active.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of active days within `[start, end)`.
    #[inline]
    pub fn count_range(self, start: usize, end: usize) -> u32 {
        assert!(start <= end && end <= Self::CAPACITY, "range {start}..{end} out of bounds");
        if start == end {
            return 0;
        }
        let width = end - start;
        let mask = if width == Self::CAPACITY { u128::MAX } else { ((1u128 << width) - 1) << start };
        (self.0 & mask).count_ones()
    }

    /// Whether any day within `[start, end)` is active.
    #[inline]
    pub fn any_in_range(self, start: usize, end: usize) -> bool {
        self.count_range(start, end) > 0
    }

    /// Iterator over active day indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        core::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let d = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(d)
            }
        })
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        DayBits(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersect(self, other: Self) -> Self {
        DayBits(self.0 & other.0)
    }
}

impl fmt::Debug for DayBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DayBits[{} days]", self.count())
    }
}

/// Bitset over the 256 addresses of a `/24` block (bit `i` = `x.y.z.i`).
///
/// ```
/// use ipactive_net::AddrBits256;
/// let mut b = AddrBits256::new();
/// b.set(0);
/// b.set(255);
/// assert_eq!(b.count(), 2);
/// assert!(b.get(255) && !b.get(128));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AddrBits256([u64; 4]);

impl AddrBits256 {
    /// An empty set.
    #[inline]
    pub const fn new() -> Self {
        AddrBits256([0; 4])
    }

    /// A set with all 256 addresses present.
    #[inline]
    pub const fn full() -> Self {
        AddrBits256([u64::MAX; 4])
    }

    /// Constructs from four backing words, least significant first
    /// (word `w` holds host indices `64w..64w+63`).
    #[inline]
    pub const fn from_words(words: [u64; 4]) -> Self {
        AddrBits256(words)
    }

    /// Marks host index `i` present.
    #[inline]
    pub fn set(&mut self, i: u8) {
        self.0[(i >> 6) as usize] |= 1u64 << (i & 63);
    }

    /// Clears host index `i`.
    #[inline]
    pub fn clear(&mut self, i: u8) {
        self.0[(i >> 6) as usize] &= !(1u64 << (i & 63));
    }

    /// Whether host index `i` is present.
    #[inline]
    pub fn get(&self, i: u8) -> bool {
        self.0[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
    }

    /// Number of present addresses (0..=256).
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        AddrBits256([
            self.0[0] | other.0[0],
            self.0[1] | other.0[1],
            self.0[2] | other.0[2],
            self.0[3] | other.0[3],
        ])
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(&self, other: &Self) -> Self {
        AddrBits256([
            self.0[0] & other.0[0],
            self.0[1] & other.0[1],
            self.0[2] & other.0[2],
            self.0[3] & other.0[3],
        ])
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub fn difference(&self, other: &Self) -> Self {
        AddrBits256([
            self.0[0] & !other.0[0],
            self.0[1] & !other.0[1],
            self.0[2] & !other.0[2],
            self.0[3] & !other.0[3],
        ])
    }

    /// The backing 64-bit words, least significant first (word `w`
    /// holds host indices `64w..64w+63`).
    #[inline]
    pub const fn words(&self) -> &[u64; 4] {
        &self.0
    }

    /// Iterator over present host indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..4usize).flat_map(move |w| {
            let mut word = self.0[w];
            core::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as u8;
                    word &= word - 1;
                    Some(((w as u8) << 6) | bit)
                }
            })
        })
    }
}

impl fmt::Debug for AddrBits256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AddrBits256[{} addrs]", self.count())
    }
}

impl FromIterator<u8> for AddrBits256 {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut s = AddrBits256::new();
        for i in iter {
            s.set(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daybits_set_get_clear() {
        let mut d = DayBits::new();
        assert!(d.is_empty());
        d.set(5);
        d.set(127);
        assert!(d.get(5) && d.get(127) && !d.get(6));
        d.clear(5);
        assert!(!d.get(5));
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn daybits_count_range_edges() {
        let mut d = DayBits::new();
        for day in [0usize, 1, 63, 64, 100, 127] {
            d.set(day);
        }
        assert_eq!(d.count_range(0, 128), 6);
        assert_eq!(d.count_range(0, 0), 0);
        assert_eq!(d.count_range(0, 1), 1);
        assert_eq!(d.count_range(1, 64), 2);
        assert_eq!(d.count_range(64, 128), 3);
        assert_eq!(d.count_range(101, 127), 0);
        assert!(d.any_in_range(60, 70));
        assert!(!d.any_in_range(2, 63));
        assert!(!d.all_before(0) && !d.all_before(127));
        d.clear(127);
        assert!(d.all_before(127) && d.all_before(101) && !d.all_before(100));
        assert!(DayBits::new().all_before(0) && DayBits::new().all_before(127));
    }

    #[test]
    fn daybits_iter_ascending() {
        let mut d = DayBits::new();
        for day in [90usize, 3, 45] {
            d.set(day);
        }
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![3, 45, 90]);
    }

    #[test]
    fn daybits_union_intersect() {
        let mut a = DayBits::new();
        a.set(1);
        a.set(2);
        let mut b = DayBits::new();
        b.set(2);
        b.set(3);
        assert_eq!(a.union(b).count(), 3);
        assert_eq!(a.intersect(b).iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn daybits_rejects_day_128() {
        DayBits::new().set(128);
    }

    #[test]
    fn addrbits_basics() {
        let mut b = AddrBits256::new();
        assert!(b.is_empty());
        for i in [0u8, 63, 64, 128, 255] {
            b.set(i);
        }
        assert_eq!(b.count(), 5);
        assert!(b.get(64) && !b.get(65));
        b.clear(64);
        assert_eq!(b.count(), 4);
        assert_eq!(AddrBits256::full().count(), 256);
    }

    #[test]
    fn addrbits_set_algebra() {
        let a: AddrBits256 = [1u8, 2, 3].into_iter().collect();
        let b: AddrBits256 = [3u8, 4].into_iter().collect();
        assert_eq!(a.union(&b).count(), 4);
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn addrbits_iter_order_and_roundtrip() {
        let src = [200u8, 5, 100, 64, 63];
        let b: AddrBits256 = src.into_iter().collect();
        let got: Vec<u8> = b.iter().collect();
        assert_eq!(got, vec![5, 63, 64, 100, 200]);
    }
}
