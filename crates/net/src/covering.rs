//! Event sizing: the *smallest covering prefix mask* (Section 4.2).
//!
//! For a per-address up event (address absent in window *i*, present in
//! window *i+1*) the paper asks: how large an address range flipped
//! together? It finds the smallest mask `m` (largest prefix) such that
//! *every* address inside the prefix either had an up event itself or
//! was inactive in both windows. Equivalently — since both cases demand
//! absence in window *i* — the largest prefix around the event address
//! containing **no** address active in window *i*.
//!
//! Down events are symmetric with the roles of the two windows swapped,
//! so callers pass "the snapshot in which the event population must be
//! absent" as `exclusion`.
//!
//! [`covering_mask`] sizes one event; it is the definition. A figure
//! never sizes events one at a time: [`EventSizeHistogram::from_diff_events`]
//! takes a window pair's mask counts from
//! [`ActiveSet::diff_mask_counts`], which the tiered backend counts a
//! `/24` at a time — one mask for a whole block the exclusion lacks,
//! free-block levels of the bitmap for a block both hold.

use crate::{ActiveSet, Addr};

#[cfg(test)]
use crate::AddrSet;

/// Computes the smallest covering mask for an event at `addr`.
///
/// `exclusion` is the set of addresses whose presence *limits* growth:
/// for up events pass the *earlier* snapshot's active set, for down
/// events the *later* one. Returns the mask length `m ∈ 0..=32`; the
/// event then "affects" the prefix `Prefix::containing(addr, m)`.
///
/// The trait default grows the prefix one mask at a time through
/// range-emptiness probes; the tiered backend answers with one
/// directory search and its two nearest members.
///
/// ```
/// use ipactive_net::{covering_mask, Addr, AddrSet};
/// // Whole /24 flipped: nothing from the old snapshot survives nearby.
/// let old = AddrSet::from_unsorted(vec!["10.0.1.7".parse().unwrap()]);
/// let m = covering_mask("10.0.0.42".parse().unwrap(), &old);
/// assert_eq!(m, 24); // the /23 would include 10.0.1.7, so growth stops at /24
/// ```
pub fn covering_mask<S: ActiveSet>(addr: Addr, exclusion: &S) -> u8 {
    // Backends may specialize the growth walk; the trait default is the
    // one-mask-at-a-time loop this function always performed.
    exclusion.covering_mask(addr)
}

/// Histogram of event sizes keyed by covering mask length (0..=32).
///
/// Mirrors Figure 5(b): fraction of per-address events whose covering
/// mask falls in each bucket. Buckets can be re-grouped for display
/// (e.g. `>= /16`, `/20`, `/24`, `/28`, `/32`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventSizeHistogram {
    counts: [u64; 33],
}

impl Default for EventSizeHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSizeHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        EventSizeHistogram { counts: [0; 33] }
    }

    /// Records one event with covering mask `m`.
    pub fn record(&mut self, mask: u8) {
        assert!(mask <= 32, "mask {mask} out of range");
        self.counts[mask as usize] += 1;
    }

    /// Builds the histogram for a whole event population.
    ///
    /// `events` are the per-address events; `exclusion` as in
    /// [`covering_mask`].
    pub fn from_events<S: ActiveSet>(events: &S, exclusion: &S) -> Self {
        let mut h = Self::new();
        for addr in events.iter() {
            h.record(covering_mask(addr, exclusion));
        }
        h
    }

    /// Builds the histogram for the event population `cur \ prev`,
    /// sized against `prev` as the exclusion set, without
    /// materializing or visiting the events: the counts are
    /// [`ActiveSet::diff_mask_counts`]'s, equal to
    /// `from_events(&cur.difference(prev), prev)`. Down events swap
    /// the operands — the exclusion is always the window the events
    /// are absent from, which is exactly the subtracted one.
    pub fn from_diff_events<S: ActiveSet>(cur: &S, prev: &S) -> Self {
        EventSizeHistogram { counts: cur.diff_mask_counts(prev) }
    }

    /// Raw count for a mask length.
    pub fn count(&self, mask: u8) -> u64 {
        self.counts[mask as usize]
    }

    /// Total number of recorded events.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of events whose mask is in `lo..=hi` (inclusive).
    pub fn fraction_between(&self, lo: u8, hi: u8) -> f64 {
        assert!(lo <= hi && hi <= 32);
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let n: u64 = (lo..=hi).map(|m| self.counts[m as usize]).sum();
        n as f64 / total as f64
    }

    /// The Figure 5(b) display buckets:
    /// `(>= /16, /17../20, /21../24, /25../28, /29../32)` fractions.
    pub fn figure5b_buckets(&self) -> [f64; 5] {
        [
            self.fraction_between(0, 16),
            self.fraction_between(17, 20),
            self.fraction_between(21, 24),
            self.fraction_between(25, 28),
            self.fraction_between(29, 32),
        ]
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &EventSizeHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn set(addrs: &[&str]) -> AddrSet {
        addrs.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn isolated_event_next_to_steady_neighbor_is_slash32() {
        // 10.0.0.42 flips up; 10.0.0.43 was active before — can't grow at all.
        let old = set(&["10.0.0.43"]);
        assert_eq!(covering_mask(a("10.0.0.42"), &old), 32);
    }

    #[test]
    fn pair_event_is_slash31() {
        // Exclusion first appears two addresses away (the /31 partner is free).
        let old = set(&["10.0.0.40"]);
        assert_eq!(covering_mask(a("10.0.0.42"), &old), 31);
    }

    #[test]
    fn empty_exclusion_grows_to_slash0() {
        assert_eq!(covering_mask(a("10.0.0.42"), &AddrSet::new()), 0);
    }

    #[test]
    fn block_sized_event() {
        // Nearest old activity is in the adjacent /24 at even distance, so the
        // covering prefix is exactly the /24.
        let old = set(&["10.0.1.0"]);
        assert_eq!(covering_mask(a("10.0.0.128"), &old), 24);
    }

    #[test]
    fn growth_is_monotonic_in_exclusion() {
        // Removing exclusion addresses can only let the mask shrink (grow range).
        let addr = a("192.0.2.77");
        let dense = set(&["192.0.2.76", "192.0.2.100", "192.0.3.1"]);
        let sparse = set(&["192.0.3.1"]);
        assert!(covering_mask(addr, &dense) >= covering_mask(addr, &sparse));
    }

    #[test]
    fn event_addr_in_exclusion_is_ignored_only_if_absent() {
        // covering_mask assumes addr itself is not in the exclusion set
        // (an up event can't be active in the old window). If it is, /32.
        let old = set(&["10.0.0.42"]);
        assert_eq!(covering_mask(a("10.0.0.42"), &old), 32);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = EventSizeHistogram::new();
        h.record(32);
        h.record(32);
        h.record(24);
        h.record(16);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(32), 2);
        assert!((h.fraction_between(29, 32) - 0.5).abs() < 1e-12);
        assert!((h.fraction_between(0, 16) - 0.25).abs() < 1e-12);
        let buckets = h.figure5b_buckets();
        assert!((buckets.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_from_events() {
        // Two up events in an otherwise-dead /24: both should cover big ranges.
        let events = set(&["10.0.0.1", "10.0.0.2"]);
        let old = set(&["10.1.0.0"]);
        let h = EventSizeHistogram::from_events(&events, &old);
        assert_eq!(h.total(), 2);
        assert!(h.fraction_between(0, 24) > 0.99);
    }

    #[test]
    fn histogram_merge() {
        let mut h1 = EventSizeHistogram::new();
        h1.record(32);
        let mut h2 = EventSizeHistogram::new();
        h2.record(24);
        h2.record(32);
        h1.merge(&h2);
        assert_eq!(h1.total(), 3);
        assert_eq!(h1.count(32), 2);
    }

    #[test]
    fn empty_histogram_fraction_is_zero() {
        assert_eq!(EventSizeHistogram::new().fraction_between(0, 32), 0.0);
    }
}
