//! The [`ActiveSet`] abstraction: what an "active address set" must
//! provide so the analysis layers can run against interchangeable
//! backends.
//!
//! Two implementations live in this crate:
//!
//! * [`crate::AddrSet`] (aliased [`crate::RefSet`]) — the sorted-`Vec`
//!   reference. Simple, obviously correct, and the oracle the
//!   differential property suite checks every other backend against.
//! * [`crate::TieredSet`] — the Roaring-style chunked representation
//!   that makes paper-scale (~1.2B address) runs fit in memory.
//!
//! Both iterate ascending and implement identical set algebra, so any
//! analysis generic over `S: ActiveSet` produces byte-identical output
//! regardless of the backend — an invariant pinned by
//! `crates/net/tests/tiered_prop.rs` and the figure-suite differential
//! test in `crates/bench/tests/engine.rs`.

use crate::{Addr, AddrBits256, Block24, Prefix};

/// Streaming constructor for an [`ActiveSet`], fed one `/24` block at a
/// time in ascending block order.
///
/// This is how the dataset layers materialize day/week activity sets:
/// they already hold per-block bitmaps, so handing whole blocks to the
/// builder avoids both a counting pre-pass and a per-address sort —
/// and lets a chunked backend adopt each block without rewriting it.
pub trait SetBuilder: Sized {
    /// The set type this builder produces.
    type Set: ActiveSet;

    /// A builder holding no addresses yet.
    fn new() -> Self;

    /// Appends the members of `block` given by `bits`.
    ///
    /// Blocks must arrive in strictly ascending order; an empty `bits`
    /// is allowed and contributes nothing.
    fn push_block(&mut self, block: Block24, bits: &AddrBits256);

    /// Finalizes the set.
    fn finish(self) -> Self::Set;
}

/// An immutable-flavored set of IPv4 addresses with ascending
/// iteration, prefix range queries, and linear-merge set algebra.
///
/// Implementations must agree exactly: for any two sets with equal
/// membership, every method here returns equal results (and `iter`
/// yields the same ascending sequence). The analysis stack relies on
/// this to swap backends without disturbing figure output.
pub trait ActiveSet:
    Sized
    + Clone
    + Default
    + core::fmt::Debug
    + PartialEq
    + Eq
    + Send
    + Sync
    + FromIterator<Addr>
    + 'static
{
    /// Ascending iterator over members.
    type Iter<'a>: Iterator<Item = Addr> + 'a
    where
        Self: 'a;

    /// The streaming block-wise constructor for this backend.
    type Builder: SetBuilder<Set = Self>;

    /// A short stable identifier for reports (`"ref"`, `"tiered"`).
    fn backend_name() -> &'static str;

    /// An empty set.
    fn empty() -> Self;

    /// Builds from a sorted, deduplicated vector of addresses.
    fn from_sorted_vec(addrs: Vec<Addr>) -> Self;

    /// Number of members.
    fn len(&self) -> usize;

    /// Whether the set has no members.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    fn contains(&self, addr: Addr) -> bool;

    /// Number of members inside `prefix`.
    fn count_in(&self, prefix: Prefix) -> usize;

    /// Whether any member falls inside `prefix` (the hot primitive
    /// behind covering-mask growth; backends should short-circuit).
    fn any_in(&self, prefix: Prefix) -> bool {
        self.count_in(prefix) > 0
    }

    /// The smallest covering mask for an event at `addr` when this set
    /// is the exclusion population: the largest prefix around `addr`
    /// containing no member (see [`crate::covering_mask`] for the
    /// figure-5(b) semantics). The default grows one mask bit at a time
    /// through [`ActiveSet::any_in`]; backends may override with an
    /// equivalent faster walk. Must agree with the default exactly.
    fn covering_mask(&self, addr: Addr) -> u8 {
        let mut mask = 32u8;
        while mask > 0 {
            let candidate = Prefix::containing(addr, mask - 1);
            if self.any_in(candidate) {
                break;
            }
            mask -= 1;
        }
        mask
    }

    /// Ascending iterator over members.
    fn iter(&self) -> Self::Iter<'_>;

    /// Inserts one address; returns whether it was newly added.
    fn insert(&mut self, addr: Addr) -> bool;

    /// Set union.
    fn union(&self, other: &Self) -> Self;

    /// Union of many sets in one pass.
    ///
    /// The default folds pairwise (correct for any backend, and what
    /// the reference oracle uses); chunked backends override it with a
    /// k-way merge so an n-day window union materializes no n−1
    /// intermediate sets. Must equal the pairwise fold exactly.
    fn union_many(sets: &[&Self]) -> Self {
        sets.iter().fold(Self::empty(), |acc, s| acc.union(s))
    }

    /// Set intersection.
    fn intersect(&self, other: &Self) -> Self;

    /// Set difference (`self \ other`).
    fn difference(&self, other: &Self) -> Self;

    /// Size of the intersection without materializing it.
    fn intersect_len(&self, other: &Self) -> usize;

    /// Calls `f` with every member of `self \ other`, ascending — the
    /// streaming form of [`ActiveSet::difference`] for consumers that
    /// size each element and drop it (event sizing walks one window
    /// pair per histogram merge and never needs the set). The default
    /// materializes the difference; chunked backends override with a
    /// merge walk that allocates nothing. Must visit exactly the
    /// members of [`ActiveSet::difference`], in iteration order.
    fn for_each_difference(&self, other: &Self, mut f: impl FnMut(Addr)) {
        for addr in self.difference(other).iter() {
            f(addr);
        }
    }

    /// Calls `f` with the covering mask of every event in `self \
    /// other`, sized against `other` as the exclusion population (up
    /// events: `cur.diff_event_masks(&prev, …)`; down events swap the
    /// operands), in event order: [`ActiveSet::covering_mask`] over
    /// [`ActiveSet::for_each_difference`]. One probe per event; the
    /// reference that [`ActiveSet::diff_mask_counts`] is defined by.
    fn diff_event_masks(&self, other: &Self, mut f: impl FnMut(u8)) {
        self.for_each_difference(other, |addr| f(other.covering_mask(addr)));
    }

    /// The covering-mask histogram of the events `self \ other` sized
    /// against `other`: entry `m` counts the events whose smallest
    /// covering prefix is a `/m` — the whole event-sizing inner loop of
    /// one window pair. The default folds
    /// [`ActiveSet::diff_event_masks`] and is the definition; chunked
    /// backends override it with per-/24 counts that visit no event.
    /// Must equal the default exactly.
    fn diff_mask_counts(&self, other: &Self) -> [u64; 33] {
        let mut counts = [0u64; 33];
        self.diff_event_masks(other, |mask| counts[mask as usize] += 1);
        counts
    }

    /// Approximate resident heap + inline size of this set, in bytes.
    /// The benchmark ledger's `net.*.memory_mb` rows sum this over the
    /// day sets of each backend.
    fn memory_bytes(&self) -> usize;

    /// The distinct `/24` blocks touched by this set, ascending.
    fn blocks24(&self) -> Vec<Block24> {
        let mut out: Vec<Block24> = Vec::new();
        for a in self.iter() {
            let b = Block24::of(a);
            if out.last() != Some(&b) {
                out.push(b);
            }
        }
        out
    }

    /// Per-`/24` member counts, ascending by block — the whole
    /// `count_in(block)` column in one pass. The default groups the
    /// ascending iterator; chunked backends return their chunk
    /// directory without touching members. Must equal the default
    /// exactly.
    fn block_counts(&self) -> Vec<(Block24, u32)> {
        let mut out: Vec<(Block24, u32)> = Vec::new();
        for a in self.iter() {
            let b = Block24::of(a);
            match out.last_mut() {
                Some((last, n)) if *last == b => *n += 1,
                _ => out.push((b, 1)),
            }
        }
        out
    }

    /// Per-`/24` counts of `self ∩ other`, ascending by block, blocks
    /// with an empty intersection omitted. The default materializes
    /// the intersection; chunked backends walk the two chunk lists
    /// and popcount, allocating no set. Must equal the default
    /// exactly.
    fn intersect_block_counts(&self, other: &Self) -> Vec<(Block24, u32)> {
        self.intersect(other).block_counts()
    }

    /// The minimal ordered list of CIDR prefixes covering *exactly*
    /// this set. Same contract (and algorithm) as
    /// [`crate::AddrSet::to_prefixes`], so backends agree byte-for-byte.
    fn to_prefixes(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut iter = self.iter().peekable();
        while let Some(start) = iter.next() {
            // Extend the maximal consecutive run starting here.
            let mut len = 1u64;
            let mut prev = start;
            while let Some(&next) = iter.peek() {
                if next.bits() as u64 == prev.bits() as u64 + 1 {
                    prev = next;
                    iter.next();
                    len += 1;
                } else {
                    break;
                }
            }
            out.extend(Prefix::cover_range(start, len));
        }
        out
    }
}
