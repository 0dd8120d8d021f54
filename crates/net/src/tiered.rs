//! Tiered compressed address sets (Roaring-style) and the per-prefix
//! density index.
//!
//! [`TieredSet`] chunks the IPv4 space by `/24`: each non-empty block
//! becomes one chunk keyed by its top 24 bits, stored in one of two
//! representations:
//!
//! * **Sparse** — an explicit sorted array of host octets, for up to
//!   [`SPARSE_MAX`] members (≤ 16 bytes);
//! * **Dense** — the full 256-bit bitmap (32 bytes), for everything
//!   else.
//!
//! The representation is a *pure function of chunk content* (see
//! [`canonical_repr`]): two sets with equal membership are structurally
//! identical, so the derived `PartialEq` is content equality and
//! snapshots hash/compare deterministically. The property suite in
//! `tests/tiered_prop.rs` drives arbitrary operation sequences against
//! the sorted-`Vec` reference ([`crate::RefSet`]) and asserts
//! bit-identical results, plus explicit dense↔sparse threshold
//! crossings in both directions.
//!
//! Set algebra walks the two chunk lists in one linear merge; matching
//! chunks are combined through the 256-bit bitmap and re-canonicalized,
//! so every operation's output is canonical by construction.
//!
//! [`PrefixDensity`] is the counting index over a snapshot: one hash
//! map per prefix length 0..=24 from prefix key to active-address
//! count, giving O(1) density queries for any /8–/24 (indeed /0–/24)
//! prefix — the primitive behind prefix-level utilization views.

use std::collections::HashMap;

use crate::active::{ActiveSet, SetBuilder};
use crate::{Addr, AddrBits256, Block24, Prefix};

/// Largest chunk population stored as an explicit sparse array.
pub const SPARSE_MAX: usize = 16;

/// One `/24` chunk's physical representation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Repr {
    /// Sorted host octets, `1..=SPARSE_MAX` of them.
    Sparse(Vec<u8>),
    /// Full 256-bit bitmap.
    Dense(Box<AddrBits256>),
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Chunk {
    /// Top 24 bits of every member address.
    key: u32,
    /// Member count (1..=256); cached so len/density never rescan.
    count: u16,
    repr: Repr,
}

/// The canonical representation for a chunk with the given contents,
/// or `None` if the chunk is empty (empty chunks are never stored).
///
/// Canonical choice: sparse while the population fits, else dense.
/// Being a pure function of content is what makes equal sets
/// structurally equal.
fn canonical_repr(bits: &AddrBits256) -> Option<(Repr, u16)> {
    let n = bits.count();
    if n == 0 {
        return None;
    }
    let repr = if n as usize <= SPARSE_MAX {
        Repr::Sparse(bits.iter().collect())
    } else {
        Repr::Dense(Box::new(*bits))
    };
    Some((repr, n as u16))
}

impl Repr {
    fn to_bits(&self) -> AddrBits256 {
        match self {
            Repr::Sparse(hosts) => hosts.iter().copied().collect(),
            Repr::Dense(bits) => **bits,
        }
    }

    fn contains(&self, h: u8) -> bool {
        match self {
            Repr::Sparse(hosts) => hosts.binary_search(&h).is_ok(),
            Repr::Dense(bits) => bits.get(h),
        }
    }

    /// Members with host octet in `lo..=hi`.
    fn count_range(&self, lo: u8, hi: u8) -> usize {
        match self {
            Repr::Sparse(hosts) => {
                let a = hosts.partition_point(|&h| h < lo);
                let b = hosts.partition_point(|&h| h <= hi);
                b - a
            }
            Repr::Dense(bits) => {
                (0..4usize)
                    .map(|w| {
                        let word = bits.words()[w];
                        let base = (w as u16) << 6;
                        // Clip the 64-bit word to [lo, hi].
                        let wlo = (lo as u16).max(base).min(base + 64) - base;
                        let whi = ((hi as u16 + 1).max(base).min(base + 64)) - base;
                        if wlo >= whi {
                            0
                        } else {
                            let mask = if whi - wlo == 64 {
                                u64::MAX
                            } else {
                                ((1u64 << (whi - wlo)) - 1) << wlo
                            };
                            (word & mask).count_ones() as usize
                        }
                    })
                    .sum()
            }
        }
    }

    /// Largest member `≤ h`, if any.
    fn pred(&self, h: u8) -> Option<u8> {
        match self {
            Repr::Sparse(hosts) => {
                let i = hosts.partition_point(|&x| x <= h);
                i.checked_sub(1).map(|i| hosts[i])
            }
            Repr::Dense(bits) => {
                let words = bits.words();
                let mut wi = (h >> 6) as usize;
                let off = h & 63;
                let mask = if off == 63 { u64::MAX } else { (1u64 << (off + 1)) - 1 };
                let mut w = words[wi] & mask;
                loop {
                    if w != 0 {
                        return Some(((wi as u8) << 6) | (63 - w.leading_zeros() as u8));
                    }
                    wi = wi.checked_sub(1)?;
                    w = words[wi];
                }
            }
        }
    }

    /// Smallest member `≥ h`, if any.
    fn succ(&self, h: u8) -> Option<u8> {
        match self {
            Repr::Sparse(hosts) => {
                let i = hosts.partition_point(|&x| x < h);
                hosts.get(i).copied()
            }
            Repr::Dense(bits) => {
                let words = bits.words();
                let mut wi = (h >> 6) as usize;
                let mut w = words[wi] & (u64::MAX << (h & 63));
                loop {
                    if w != 0 {
                        return Some(((wi as u8) << 6) | w.trailing_zeros() as u8);
                    }
                    wi += 1;
                    if wi == 4 {
                        return None;
                    }
                    w = words[wi];
                }
            }
        }
    }

    /// Smallest member (chunks are never empty).
    fn first(&self) -> u8 {
        match self {
            Repr::Sparse(hosts) => hosts[0],
            Repr::Dense(bits) => bits.iter().next().expect("dense chunk is non-empty"),
        }
    }

    /// Largest member (chunks are never empty).
    fn last(&self) -> u8 {
        match self {
            Repr::Sparse(hosts) => *hosts.last().expect("sparse chunk is non-empty"),
            Repr::Dense(_) => self.pred(255).expect("dense chunk is non-empty"),
        }
    }

    /// Heap bytes held by this representation.
    fn heap_bytes(&self) -> usize {
        match self {
            Repr::Sparse(hosts) => hosts.capacity(),
            Repr::Dense(_) => core::mem::size_of::<AddrBits256>(),
        }
    }
}

/// Per-backend chunk representation tallies, for reports and the
/// threshold-transition property tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReprCensus {
    /// Chunks stored as explicit sparse arrays.
    pub sparse: usize,
    /// Chunks stored as dense bitmaps.
    pub dense: usize,
}

impl ReprCensus {
    /// Total chunks.
    pub fn total(&self) -> usize {
        self.sparse + self.dense
    }
}

/// A tiered, chunked set of IPv4 addresses.
///
/// Same observable contract as [`crate::AddrSet`] (the analysis layers
/// use either through [`ActiveSet`]), but resident memory scales with
/// *structure* rather than population: a fully-lit /24 costs 64 bytes
/// (directory entry plus bitmap) instead of 1 KiB of sorted `u32`s.
///
/// ```
/// use ipactive_net::{ActiveSet, Addr, TieredSet};
/// let set: TieredSet = (0u32..600).map(|i| Addr::new(0x0A000000 + i)).collect();
/// assert_eq!(set.len(), 600);
/// assert!(set.contains(Addr::new(0x0A000101)));
/// assert_eq!(set.repr_census().total(), 3); // spans three /24 chunks
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TieredSet {
    /// Non-empty chunks, strictly ascending by key.
    chunks: Vec<Chunk>,
    /// Cached total population.
    len: usize,
}

impl core::fmt::Debug for TieredSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let c = self.repr_census();
        write!(
            f,
            "TieredSet[{} addrs in {} chunks: {} sparse, {} dense]",
            self.len,
            c.total(),
            c.sparse,
            c.dense
        )
    }
}

enum MergeKind {
    Union,
    Intersect,
    Difference,
}

/// First index `>= from` whose chunk key is `>= key`.
///
/// Exponential probing then a binary search over the overshoot window:
/// O(log gap) instead of the two-pointer loop's O(gap) when one side of
/// a merge is far ahead (skewed inputs). Requires `chunks[from].key <
/// key`, which is what the merge's unequal-key branches guarantee.
fn gallop(chunks: &[Chunk], from: usize, key: u32) -> usize {
    debug_assert!(chunks[from].key < key);
    let mut lo = from;
    let mut step = 1usize;
    let hi = loop {
        let probe = lo + step;
        if probe >= chunks.len() {
            break chunks.len();
        }
        if chunks[probe].key >= key {
            break probe;
        }
        lo = probe;
        step <<= 1;
    };
    lo + 1 + chunks[lo + 1..hi].partition_point(|c| c.key < key)
}

impl TieredSet {
    /// An empty set.
    pub fn new() -> Self {
        TieredSet::default()
    }

    /// Builds a set from arbitrary input, sorting and deduplicating.
    pub fn from_unsorted(mut addrs: Vec<Addr>) -> Self {
        addrs.sort_unstable();
        addrs.dedup();
        Self::from_sorted(addrs)
    }

    /// Builds a set from input that is already sorted and deduplicated.
    ///
    /// # Panics
    /// In debug builds, panics if the invariant does not hold.
    pub fn from_sorted(addrs: Vec<Addr>) -> Self {
        debug_assert!(addrs.windows(2).all(|w| w[0] < w[1]), "input not sorted/deduped");
        let mut b = TieredSetBuilder::new();
        let mut i = 0;
        while i < addrs.len() {
            let key = addrs[i].bits() >> 8;
            let mut bits = AddrBits256::new();
            while i < addrs.len() && addrs[i].bits() >> 8 == key {
                bits.set(addrs[i].host_index());
                i += 1;
            }
            b.push_block(Block24::new(key), &bits);
        }
        b.finish()
    }

    /// Tallies which representation each chunk currently uses.
    pub fn repr_census(&self) -> ReprCensus {
        let mut c = ReprCensus::default();
        for chunk in &self.chunks {
            match chunk.repr {
                Repr::Sparse(_) => c.sparse += 1,
                Repr::Dense(_) => c.dense += 1,
            }
        }
        c
    }

    /// Number of chunks (distinct non-empty `/24` blocks).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether every structural invariant holds: keys strictly
    /// ascending, every chunk canonical for its contents with a correct
    /// cached count, and the cached total consistent. The property
    /// suite calls this after every operation.
    pub fn is_canonical(&self) -> bool {
        let mut total = 0usize;
        let mut prev_key: Option<u32> = None;
        for c in &self.chunks {
            if prev_key.is_some_and(|p| p >= c.key) {
                return false;
            }
            prev_key = Some(c.key);
            let bits = c.repr.to_bits();
            match canonical_repr(&bits) {
                Some((repr, count)) if repr == c.repr && count == c.count => {}
                _ => return false,
            }
            total += c.count as usize;
        }
        total == self.len
    }

    /// Builds the O(1) per-prefix density index for this snapshot.
    ///
    /// Costs one pass over the chunks per level; the result is
    /// independent of representation tiers (pinned against the
    /// reference backend by the property suite).
    pub fn prefix_density(&self) -> PrefixDensity {
        PrefixDensity::from_block_counts(
            self.chunks.iter().map(|c| (c.key, c.count as u64)),
        )
    }

    fn merge(&self, other: &Self, kind: MergeKind) -> Self {
        let mut chunks = Vec::with_capacity(match kind {
            MergeKind::Union => self.chunks.len() + other.chunks.len(),
            MergeKind::Intersect => self.chunks.len().min(other.chunks.len()),
            MergeKind::Difference => self.chunks.len(),
        });
        let mut len = 0usize;
        let mut push = |c: Chunk| {
            len += c.count as usize;
            chunks.push(c);
        };
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (a, b) = (&self.chunks[i], &other.chunks[j]);
            match a.key.cmp(&b.key) {
                core::cmp::Ordering::Less => {
                    // Gallop to the next possible key match and handle
                    // the whole skipped run at once.
                    let stop = gallop(&self.chunks, i, b.key);
                    if !matches!(kind, MergeKind::Intersect) {
                        self.chunks[i..stop].iter().for_each(|c| push(c.clone()));
                    }
                    i = stop;
                }
                core::cmp::Ordering::Greater => {
                    let stop = gallop(&other.chunks, j, a.key);
                    if matches!(kind, MergeKind::Union) {
                        other.chunks[j..stop].iter().for_each(|c| push(c.clone()));
                    }
                    j = stop;
                }
                core::cmp::Ordering::Equal => {
                    if a.repr == b.repr {
                        // Identical chunks (steady blocks dominate
                        // real window pairs): the result is the chunk
                        // itself for union/intersect and empty for
                        // difference — no bitmap round-trip, and the
                        // clone is already canonical.
                        if !matches!(kind, MergeKind::Difference) {
                            push(a.clone());
                        }
                        i += 1;
                        j += 1;
                        continue;
                    }
                    let (x, y) = (a.repr.to_bits(), b.repr.to_bits());
                    let bits = match kind {
                        MergeKind::Union => x.union(&y),
                        MergeKind::Intersect => x.intersect(&y),
                        MergeKind::Difference => x.difference(&y),
                    };
                    if let Some((repr, count)) = canonical_repr(&bits) {
                        push(Chunk { key: a.key, count, repr });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        match kind {
            MergeKind::Union => {
                self.chunks[i..].iter().for_each(|c| push(c.clone()));
                other.chunks[j..].iter().for_each(|c| push(c.clone()));
            }
            MergeKind::Difference => {
                self.chunks[i..].iter().for_each(|c| push(c.clone()));
            }
            MergeKind::Intersect => {}
        }
        TieredSet { chunks, len }
    }

    fn chunk_index(&self, key: u32) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&key, |c| c.key)
    }
}

impl FromIterator<Addr> for TieredSet {
    fn from_iter<T: IntoIterator<Item = Addr>>(iter: T) -> Self {
        TieredSet::from_unsorted(iter.into_iter().collect())
    }
}

/// Streaming block-wise builder for [`TieredSet`].
///
/// Chunks materialize straight into canonical form, so construction
/// never allocates a full bitmap for blocks that end up sparse — the
/// fix for the old counting-pass + `Vec::with_capacity` pre-sizing in
/// the dataset layers.
pub struct TieredSetBuilder {
    chunks: Vec<Chunk>,
    len: usize,
}

impl SetBuilder for TieredSetBuilder {
    type Set = TieredSet;

    fn new() -> Self {
        TieredSetBuilder { chunks: Vec::new(), len: 0 }
    }

    fn push_block(&mut self, block: Block24, bits: &AddrBits256) {
        debug_assert!(
            !self.chunks.last().is_some_and(|c| c.key >= block.id()),
            "blocks must arrive in ascending order"
        );
        if let Some((repr, count)) = canonical_repr(bits) {
            self.len += count as usize;
            self.chunks.push(Chunk { key: block.id(), count, repr });
        }
    }

    fn finish(self) -> TieredSet {
        TieredSet { chunks: self.chunks, len: self.len }
    }
}

/// Ascending iterator over a [`TieredSet`]'s members.
pub struct TieredIter<'a> {
    chunks: &'a [Chunk],
    next_chunk: usize,
    cur: Option<(u32, HostIter<'a>)>,
}

enum HostIter<'a> {
    Sparse(core::slice::Iter<'a, u8>),
    Dense { words: [u64; 4], w: usize },
}

impl HostIter<'_> {
    fn of(repr: &Repr) -> HostIter<'_> {
        match repr {
            Repr::Sparse(hosts) => HostIter::Sparse(hosts.iter()),
            Repr::Dense(bits) => HostIter::Dense { words: *bits.words(), w: 0 },
        }
    }

    fn next(&mut self) -> Option<u8> {
        match self {
            HostIter::Sparse(it) => it.next().copied(),
            HostIter::Dense { words, w } => loop {
                if *w == 4 {
                    return None;
                }
                if words[*w] == 0 {
                    *w += 1;
                    continue;
                }
                let bit = words[*w].trailing_zeros() as u8;
                words[*w] &= words[*w] - 1;
                return Some(((*w as u8) << 6) | bit);
            },
        }
    }
}

impl Iterator for TieredIter<'_> {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        loop {
            if let Some((base, hosts)) = &mut self.cur {
                if let Some(h) = hosts.next() {
                    return Some(Addr::new(*base | h as u32));
                }
                self.cur = None;
            }
            let c = self.chunks.get(self.next_chunk)?;
            self.next_chunk += 1;
            self.cur = Some((c.key << 8, HostIter::of(&c.repr)));
        }
    }
}

impl ActiveSet for TieredSet {
    type Iter<'a> = TieredIter<'a>;
    type Builder = TieredSetBuilder;

    fn backend_name() -> &'static str {
        "tiered"
    }

    fn empty() -> Self {
        TieredSet::new()
    }

    fn from_sorted_vec(addrs: Vec<Addr>) -> Self {
        TieredSet::from_sorted(addrs)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, addr: Addr) -> bool {
        match self.chunk_index(addr.bits() >> 8) {
            Ok(i) => self.chunks[i].repr.contains(addr.host_index()),
            Err(_) => false,
        }
    }

    fn count_in(&self, prefix: Prefix) -> usize {
        let (net, last) = (prefix.network().bits(), prefix.last().bits());
        if prefix.len() > 24 {
            // Part of one chunk; count the host sub-range inside it.
            match self.chunk_index(net >> 8) {
                Ok(i) => self.chunks[i].repr.count_range(net as u8, last as u8),
                Err(_) => 0,
            }
        } else {
            // /0../24 prefixes cover whole chunks: sum cached counts
            // (a /24 is one chunk, whatever its representation).
            let lo = self.chunks.partition_point(|c| c.key < net >> 8);
            let hi = self.chunks.partition_point(|c| c.key <= last >> 8);
            self.chunks[lo..hi].iter().map(|c| c.count as usize).sum()
        }
    }

    fn any_in(&self, prefix: Prefix) -> bool {
        let (net, last) = (prefix.network().bits(), prefix.last().bits());
        if prefix.len() > 24 {
            match self.chunk_index(net >> 8) {
                Ok(i) => self.chunks[i].repr.count_range(net as u8, last as u8) > 0,
                Err(_) => false,
            }
        } else {
            // Any chunk keyed inside the prefix is non-empty by invariant.
            let lo = self.chunks.partition_point(|c| c.key < net >> 8);
            lo < self.chunks.len() && self.chunks[lo].key <= last >> 8
        }
    }

    /// Closed form instead of the default's per-mask growth walk: the
    /// result is `min(32, 1 + cpl)` where `cpl` is the longest common
    /// prefix between `addr` and any member — and that maximum is
    /// always attained by the nearest member below or above `addr`
    /// (values between two numbers sharing a prefix share it too). So
    /// one chunk binary search plus two neighbor probes replaces up
    /// to 32 range-emptiness checks. Agreement with the default walk
    /// is pinned by `covering_mask_override_matches_default_walk` and
    /// the property suite.
    fn covering_mask(&self, addr: Addr) -> u8 {
        let bits = addr.bits();
        let (key, h) = (bits >> 8, addr.host_index());
        let (i, own) = match self.chunk_index(key) {
            Ok(i) => (i, Some(&self.chunks[i].repr)),
            Err(i) => (i, None),
        };
        // Nearest member ≤ addr: in addr's own chunk if present there,
        // else the last member of the previous chunk (chunks are
        // sorted and never empty).
        let pred = own
            .and_then(|repr| repr.pred(h))
            .map(|p| (key << 8) | p as u32)
            .or_else(|| {
                let c = self.chunks[..i].last()?;
                Some((c.key << 8) | c.repr.last() as u32)
            });
        // Nearest member ≥ addr, symmetrically.
        let next_chunk = i + usize::from(own.is_some());
        let succ = own
            .and_then(|repr| repr.succ(h))
            .map(|s| (key << 8) | s as u32)
            .or_else(|| {
                let c = self.chunks.get(next_chunk)?;
                Some((c.key << 8) | c.repr.first() as u32)
            });
        let cpl = [pred, succ]
            .into_iter()
            .flatten()
            .map(|n| (bits ^ n).leading_zeros())
            .max();
        match cpl {
            // `cpl == 32` means addr itself is a member: still /32.
            Some(cpl) => (cpl + 1).min(32) as u8,
            None => 0, // empty exclusion: growth reaches /0
        }
    }

    fn iter(&self) -> TieredIter<'_> {
        TieredIter { chunks: &self.chunks, next_chunk: 0, cur: None }
    }

    fn insert(&mut self, addr: Addr) -> bool {
        let (key, h) = (addr.bits() >> 8, addr.host_index());
        match self.chunk_index(key) {
            Ok(i) => {
                let c = &mut self.chunks[i];
                if c.repr.contains(h) {
                    return false;
                }
                let mut bits = c.repr.to_bits();
                bits.set(h);
                let (repr, count) =
                    canonical_repr(&bits).expect("chunk non-empty after insert");
                c.repr = repr;
                c.count = count;
                self.len += 1;
                true
            }
            Err(i) => {
                self.chunks.insert(i, Chunk { key, count: 1, repr: Repr::Sparse(vec![h]) });
                self.len += 1;
                true
            }
        }
    }

    fn union(&self, other: &Self) -> Self {
        self.merge(other, MergeKind::Union)
    }

    /// K-way union: one pass over all chunk lists, each output chunk
    /// OR'd straight from every input holding it — an n-day window
    /// union materializes no intermediate sets.
    fn union_many(sets: &[&Self]) -> Self {
        match sets {
            [] => return TieredSet::new(),
            [only] => return (*only).clone(),
            _ => {}
        }
        let mut cursors = vec![0usize; sets.len()];
        let mut chunks = Vec::new();
        let mut len = 0usize;
        let mut matching: Vec<&Chunk> = Vec::with_capacity(sets.len());
        loop {
            // Keys are 24-bit, so u32::MAX doubles as "all exhausted".
            let mut min_key = u32::MAX;
            for (s, &c) in sets.iter().zip(cursors.iter()) {
                if let Some(chunk) = s.chunks.get(c) {
                    min_key = min_key.min(chunk.key);
                }
            }
            if min_key == u32::MAX {
                break;
            }
            matching.clear();
            for (s, c) in sets.iter().zip(cursors.iter_mut()) {
                if let Some(chunk) = s.chunks.get(*c) {
                    if chunk.key == min_key {
                        matching.push(chunk);
                        *c += 1;
                    }
                }
            }
            if let [only] = matching[..] {
                // Already canonical: adopt it without re-deriving.
                len += only.count as usize;
                chunks.push(only.clone());
            } else if matching[1..].iter().all(|c| c.repr == matching[0].repr) {
                // Every operand contributes the identical chunk (steady
                // blocks dominate overlapping windows): adopt it.
                len += matching[0].count as usize;
                chunks.push(matching[0].clone());
            } else {
                let mut bits = matching[0].repr.to_bits();
                for c in &matching[1..] {
                    bits = bits.union(&c.repr.to_bits());
                }
                let (repr, count) =
                    canonical_repr(&bits).expect("chunks are non-empty by invariant");
                len += count as usize;
                chunks.push(Chunk { key: min_key, count, repr });
            }
        }
        TieredSet { chunks, len }
    }

    fn intersect(&self, other: &Self) -> Self {
        self.merge(other, MergeKind::Intersect)
    }

    fn difference(&self, other: &Self) -> Self {
        self.merge(other, MergeKind::Difference)
    }

    fn intersect_len(&self, other: &Self) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0usize);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (a, b) = (&self.chunks[i], &other.chunks[j]);
            match a.key.cmp(&b.key) {
                core::cmp::Ordering::Less => i = gallop(&self.chunks, i, b.key),
                core::cmp::Ordering::Greater => j = gallop(&other.chunks, j, a.key),
                core::cmp::Ordering::Equal => {
                    if a.repr == b.repr {
                        // Identical chunks (steady blocks dominate
                        // adjacent windows): the cached count is the
                        // overlap, no bitmap round-trip needed.
                        n += a.count as usize;
                    } else {
                        n += a.repr.to_bits().intersect(&b.repr.to_bits()).count() as usize;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    fn for_each_difference(&self, other: &Self, mut f: impl FnMut(Addr)) {
        // One merge walk over the two chunk lists, visiting survivors
        // in ascending order without building a set. Chunks with no
        // counterpart stream their hosts directly; matching chunks
        // diff four words and scan the set bits.
        let mut j = 0;
        for a in &self.chunks {
            while j < other.chunks.len() && other.chunks[j].key < a.key {
                j += 1;
            }
            let base = a.key << 8;
            if j < other.chunks.len() && other.chunks[j].key == a.key {
                if a.repr == other.chunks[j].repr {
                    // Identical chunk on both sides (the steady-block
                    // common case): no survivors, skip the word walk.
                    continue;
                }
                let b_bits = other.chunks[j].repr.to_bits();
                for (w, (x, y)) in
                    a.repr.to_bits().words().iter().zip(b_bits.words()).enumerate()
                {
                    let mut bits = x & !y;
                    while bits != 0 {
                        let h = (w as u32) * 64 + bits.trailing_zeros();
                        bits &= bits - 1;
                        f(Addr::new(base | h));
                    }
                }
            } else {
                let mut hosts = HostIter::of(&a.repr);
                while let Some(h) = hosts.next() {
                    f(Addr::new(base | h as u32));
                }
            }
        }
    }

    fn diff_event_masks(&self, other: &Self, mut f: impl FnMut(u8)) {
        // The fused form of `for_each_difference` + `covering_mask`:
        // events ascend, so the walk's cursor `j` — the first
        // exclusion chunk with key ≥ the event's key — is exactly the
        // insertion point `covering_mask` would binary-search for,
        // and the neighbor probes become cursor-local.
        let exc = &other.chunks;
        let mut j = 0usize;
        for a in &self.chunks {
            while j < exc.len() && exc[j].key < a.key {
                j += 1;
            }
            let matched = j < exc.len() && exc[j].key == a.key;
            let own = matched.then(|| &exc[j].repr);
            let next_chunk = j + usize::from(matched);
            let base = a.key << 8;
            // `covering_mask`'s closed form with (i, own) resolved by
            // the cursor instead of `chunk_index`.
            let size = |h: u8| -> u8 {
                let bits = base | h as u32;
                let pred = own
                    .and_then(|repr| repr.pred(h))
                    .map(|p| base | p as u32)
                    .or_else(|| {
                        let c = exc[..j].last()?;
                        Some((c.key << 8) | c.repr.last() as u32)
                    });
                let succ = own
                    .and_then(|repr| repr.succ(h))
                    .map(|s| base | s as u32)
                    .or_else(|| {
                        let c = exc.get(next_chunk)?;
                        Some((c.key << 8) | c.repr.first() as u32)
                    });
                let cpl = [pred, succ]
                    .into_iter()
                    .flatten()
                    .map(|n| (bits ^ n).leading_zeros())
                    .max();
                match cpl {
                    Some(cpl) => (cpl + 1).min(32) as u8,
                    None => 0,
                }
            };
            if matched && a.repr == exc[j].repr {
                // Identical chunk on both sides: no events here.
                continue;
            }
            if matched {
                let y_bits = exc[j].repr.to_bits();
                for (w, (x, y)) in
                    a.repr.to_bits().words().iter().zip(y_bits.words()).enumerate()
                {
                    let mut word = x & !y;
                    while word != 0 {
                        let h = (w * 64) as u8 + word.trailing_zeros() as u8;
                        word &= word - 1;
                        f(size(h));
                    }
                }
            } else {
                let mut hosts = HostIter::of(&a.repr);
                while let Some(h) = hosts.next() {
                    f(size(h));
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + self.chunks.capacity() * core::mem::size_of::<Chunk>()
            + self.chunks.iter().map(|c| c.repr.heap_bytes()).sum::<usize>()
    }

    fn blocks24(&self) -> Vec<Block24> {
        self.chunks.iter().map(|c| Block24::new(c.key)).collect()
    }

    fn block_counts(&self) -> Vec<(Block24, u32)> {
        // The chunk directory *is* the answer: keys ascend and counts
        // are cached per chunk.
        self.chunks.iter().map(|c| (Block24::new(c.key), c.count as u32)).collect()
    }

    fn intersect_block_counts(&self, other: &Self) -> Vec<(Block24, u32)> {
        // One merge walk over the two chunk lists; matching chunks
        // cost four AND+popcount words, and no set is materialized.
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (a, b) = (&self.chunks[i], &other.chunks[j]);
            match a.key.cmp(&b.key) {
                core::cmp::Ordering::Less => i += 1,
                core::cmp::Ordering::Greater => j += 1,
                core::cmp::Ordering::Equal => {
                    let (x, y) = (a.repr.to_bits(), b.repr.to_bits());
                    let n: u32 = x
                        .words()
                        .iter()
                        .zip(y.words())
                        .map(|(p, q)| (p & q).count_ones())
                        .sum();
                    if n > 0 {
                        out.push((Block24::new(a.key), n));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

/// O(1) active-count index over every /0–/24 prefix of a snapshot.
///
/// One hash map per prefix length; the key for a length-`l` prefix is
/// its network address shifted down by `32 − l` bits. Built from a
/// [`TieredSet`]'s chunk counts (each chunk contributes to one key per
/// level) or from any ascending address iterator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixDensity {
    /// `levels[l]` maps `network >> (32 - l)` to the member count, for
    /// `l` in 1..=24; level 0 is the total.
    levels: Vec<HashMap<u32, u64>>,
    total: u64,
}

impl PrefixDensity {
    /// Deepest indexed prefix length.
    pub const MAX_LEN: u8 = 24;

    fn from_block_counts(blocks: impl Iterator<Item = (u32, u64)>) -> Self {
        let mut levels: Vec<HashMap<u32, u64>> =
            (0..=Self::MAX_LEN).map(|_| HashMap::new()).collect();
        let mut total = 0u64;
        for (key, count) in blocks {
            total += count;
            for l in 1..=Self::MAX_LEN {
                *levels[l as usize].entry(key >> (Self::MAX_LEN - l)).or_insert(0) += count;
            }
        }
        PrefixDensity { levels, total }
    }

    /// Builds the index from any backend by grouping its ascending
    /// iterator into `/24` blocks.
    pub fn from_set<S: ActiveSet>(set: &S) -> Self {
        let mut blocks: Vec<(u32, u64)> = Vec::new();
        for a in set.iter() {
            let key = a.bits() >> 8;
            match blocks.last_mut() {
                Some((k, n)) if *k == key => *n += 1,
                _ => blocks.push((key, 1)),
            }
        }
        Self::from_block_counts(blocks.into_iter())
    }

    /// Active addresses inside `prefix`, in O(1).
    ///
    /// # Panics
    /// If `prefix.len() > 24` — host-granular counts stay with the set
    /// itself (`count_in`), the index covers aggregation levels only.
    pub fn count(&self, prefix: Prefix) -> u64 {
        let l = prefix.len();
        assert!(l <= Self::MAX_LEN, "PrefixDensity indexes /0../24, got /{l}");
        if l == 0 {
            return self.total;
        }
        let key = prefix.network().bits() >> (32 - l as u32);
        self.levels[l as usize].get(&key).copied().unwrap_or(0)
    }

    /// Total population of the snapshot.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct prefixes with at least one active address at
    /// the given level.
    pub fn active_prefixes(&self, len: u8) -> usize {
        assert!((1..=Self::MAX_LEN).contains(&len));
        self.levels[len as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn set(addrs: &[&str]) -> TieredSet {
        addrs.iter().map(|s| a(s)).collect()
    }

    #[test]
    fn from_unsorted_dedups_sorts_and_is_canonical() {
        let s = set(&["9.9.9.9", "1.1.1.1", "9.9.9.9", "5.5.5.5"]);
        assert_eq!(s.len(), 3);
        assert!(s.is_canonical());
        let v: Vec<String> = s.iter().map(|a| a.to_string()).collect();
        assert_eq!(v, vec!["1.1.1.1", "5.5.5.5", "9.9.9.9"]);
    }

    #[test]
    fn representation_thresholds() {
        // The rule is population alone: 16 hosts are sparse and 17 are
        // dense, whether scattered or one contiguous run.
        for stride in [1u32, 2] {
            let hosts = |n: u32| (0..n).map(move |i| Addr::new(0x0A000000 + stride * i));
            let sparse: TieredSet = hosts(SPARSE_MAX as u32).collect();
            assert_eq!(sparse.repr_census(), ReprCensus { sparse: 1, dense: 0 });
            let dense: TieredSet = hosts(SPARSE_MAX as u32 + 1).collect();
            assert_eq!(dense.repr_census(), ReprCensus { sparse: 0, dense: 1 });
            assert!(sparse.is_canonical() && dense.is_canonical());
        }
    }

    #[test]
    fn threshold_crossings_stay_canonical_in_both_directions() {
        let host = |i: u32| Addr::new(0x0A000000 + i);
        let mut s = TieredSet::new();
        for i in 0..=255u32 {
            assert!(s.insert(host(i)));
            assert!(!s.insert(host(i)));
            assert!(s.is_canonical(), "not canonical after {} inserts", i + 1);
            let dense = usize::from(i as usize >= SPARSE_MAX);
            assert_eq!(s.repr_census(), ReprCensus { sparse: 1 - dense, dense });
        }
        assert_eq!(s.len(), 256);
        // A fully lit /24 is one chunk holding the 32-byte bitmap.
        assert_eq!(s.chunks[0].repr.heap_bytes(), 32);
        // Difference walks the population back down across the threshold.
        for keep in (0..=255u32).rev() {
            let drop: TieredSet = (keep..256).map(host).collect();
            let rest = s.difference(&drop);
            assert!(rest.is_canonical(), "not canonical with {keep} hosts left");
            assert_eq!(rest.len(), keep as usize);
            let expect = match keep as usize {
                0 => ReprCensus::default(),
                n if n <= SPARSE_MAX => ReprCensus { sparse: 1, dense: 0 },
                _ => ReprCensus { sparse: 0, dense: 1 },
            };
            assert_eq!(rest.repr_census(), expect);
        }
    }

    #[test]
    fn set_algebra_matches_reference_semantics() {
        let x = set(&["1.0.0.1", "1.0.0.2", "1.0.0.3", "2.0.0.1"]);
        let y = set(&["1.0.0.3", "1.0.0.4", "3.0.0.1"]);
        assert_eq!(x.union(&y).len(), 6);
        assert_eq!(x.intersect(&y).len(), 1);
        assert_eq!(x.intersect_len(&y), 1);
        let diff = x.difference(&y);
        assert_eq!(diff.len(), 3);
        assert!(diff.contains(a("2.0.0.1")) && !diff.contains(a("1.0.0.3")));
        for s in [x.union(&y), x.intersect(&y), diff] {
            assert!(s.is_canonical());
        }
    }

    #[test]
    fn count_in_and_any_in_across_granularities() {
        let s = set(&["10.0.0.5", "10.0.0.200", "10.0.1.3", "10.0.3.1", "11.0.0.1"]);
        assert_eq!(s.count_in("10.0.0.0/24".parse().unwrap()), 2);
        assert_eq!(s.count_in("10.0.0.0/22".parse().unwrap()), 4);
        assert_eq!(s.count_in("10.0.0.0/8".parse().unwrap()), 4);
        assert_eq!(s.count_in("10.0.0.0/25".parse().unwrap()), 1);
        assert_eq!(s.count_in("10.0.0.128/25".parse().unwrap()), 1);
        assert_eq!(s.count_in("10.0.2.0/24".parse().unwrap()), 0);
        assert_eq!(s.count_in("0.0.0.0/0".parse().unwrap()), 5);
        assert!(s.any_in("10.0.3.0/24".parse().unwrap()));
        assert!(s.any_in("10.0.2.0/23".parse().unwrap())); // covers 10.0.3.1
        assert!(!s.any_in("10.0.4.0/23".parse().unwrap()));
        assert!(!TieredSet::new().any_in("0.0.0.0/0".parse().unwrap()));
    }

    #[test]
    fn union_many_matches_pairwise_fold() {
        let days: Vec<TieredSet> = vec![
            set(&["1.0.0.1", "1.0.0.2", "2.0.0.9"]),
            set(&["1.0.0.2", "3.0.0.7"]),
            (0..300u32).map(|i| Addr::new(0x0A000000 + i)).collect(),
            TieredSet::new(),
            set(&["3.0.0.7", "10.0.0.5"]),
        ];
        let refs: Vec<&TieredSet> = days.iter().collect();
        let kway = TieredSet::union_many(&refs);
        let fold = refs.iter().fold(TieredSet::new(), |acc, s| acc.union(s));
        assert_eq!(kway, fold);
        assert!(kway.is_canonical());
        assert_eq!(TieredSet::union_many(&[]), TieredSet::new());
        assert_eq!(TieredSet::union_many(&[&days[0]]), days[0]);
    }

    #[test]
    fn gallop_merges_handle_skewed_inputs() {
        // One chunk on the left, many on the right (and vice versa):
        // the galloping advance must not skip or duplicate chunks.
        let wide: TieredSet = (0..64u32).map(|b| Addr::new(b << 16 | 5)).collect();
        let narrow = set(&["0.32.0.5", "0.63.0.9"]);
        assert_eq!(wide.union(&narrow).len(), 65);
        assert_eq!(wide.intersect(&narrow).len(), 1);
        assert_eq!(wide.intersect_len(&narrow), 1);
        assert_eq!(narrow.intersect_len(&wide), 1);
        assert_eq!(wide.difference(&narrow).len(), 63);
        assert_eq!(narrow.difference(&wide).len(), 1);
        for s in [wide.union(&narrow), wide.intersect(&narrow), wide.difference(&narrow)] {
            assert!(s.is_canonical());
        }
    }

    #[test]
    fn covering_mask_override_matches_default_walk() {
        use crate::AddrSet;
        let members = ["10.0.0.43", "10.0.0.200", "10.0.4.1", "10.1.0.1", "192.0.0.1"];
        let tiered = set(&members);
        let reference: AddrSet = members.iter().map(|s| a(s)).collect();
        let probes = [
            "10.0.0.42",  // /31 partner of a member
            "10.0.0.40",  // nearby member limits growth
            "10.0.0.201", "10.0.1.77", // own /24 occupied vs absent
            "10.0.5.1", "10.128.0.1", "11.0.0.1", "250.0.0.1",
        ];
        for p in probes {
            let addr = a(p);
            assert_eq!(
                ActiveSet::covering_mask(&tiered, addr),
                ActiveSet::covering_mask(&reference, addr),
                "probe {p}"
            );
        }
        // Empty exclusion grows all the way to /0 on both paths.
        assert_eq!(ActiveSet::covering_mask(&TieredSet::new(), a("1.2.3.4")), 0);

        // Exhaustive sweep across both chunk representations: a
        // scattered dense chunk, a one-run dense chunk, a sparse chunk,
        // and the gaps between them, probing every address in the span plus
        // far-away strays on both sides.
        let mut members: Vec<Addr> = Vec::new();
        members.extend((0u32..200).map(|i| Addr::new(0x0A000500 + (i * 5) % 256))); // dense
        members.extend((16u32..80).map(|i| Addr::new(0x0A000900 + i))); // one run
        members.extend([3u32, 77, 130].map(|i| Addr::new(0x0A000C00 + i))); // sparse
        let tiered: TieredSet = members.iter().copied().collect();
        let reference: AddrSet = members.into_iter().collect();
        for bits in 0x0A000400..0x0A000E00u32 {
            let addr = Addr::new(bits);
            assert_eq!(
                ActiveSet::covering_mask(&tiered, addr),
                ActiveSet::covering_mask(&reference, addr),
                "sweep probe {addr:?}"
            );
        }
        for stray in ["0.0.0.0", "9.255.255.255", "10.0.13.0", "255.255.255.255"] {
            let addr = a(stray);
            assert_eq!(
                ActiveSet::covering_mask(&tiered, addr),
                ActiveSet::covering_mask(&reference, addr),
                "stray probe {stray}"
            );
        }
    }

    #[test]
    fn block_count_overrides_match_default_grouping() {
        use crate::RefSet;
        // Mixed representations on both sides: dense and sparse
        // chunks, plus chunks present in only one operand.
        let left: Vec<Addr> = (0u32..200)
            .map(|i| Addr::new(0x0A000500 + (i * 5) % 256))
            .chain((16u32..80).map(|i| Addr::new(0x0A000900 + i)))
            .chain([3u32, 77, 130].map(|i| Addr::new(0x0A000C00 + i)))
            .collect();
        let right: Vec<Addr> = (0u32..256)
            .map(|i| Addr::new(0x0A000500 + i)) // full /24 overlapping the dense chunk
            .chain((60u32..100).map(|i| Addr::new(0x0A000900 + i)))
            .chain([9u32].map(|i| Addr::new(0x0A000D00 + i))) // only-right chunk
            .collect();
        let (lt, rt): (TieredSet, TieredSet) =
            (left.iter().copied().collect(), right.iter().copied().collect());
        let (lr, rr): (RefSet, RefSet) =
            (left.into_iter().collect(), right.into_iter().collect());
        // RefSet runs the trait defaults; the overrides must agree.
        assert_eq!(lt.block_counts(), lr.block_counts());
        assert_eq!(rt.block_counts(), rr.block_counts());
        assert_eq!(lt.intersect_block_counts(&rt), lr.intersect_block_counts(&rr));
        assert_eq!(rt.intersect_block_counts(&lt), rr.intersect_block_counts(&lr));
        assert_eq!(TieredSet::new().block_counts(), vec![]);
        assert_eq!(lt.intersect_block_counts(&TieredSet::new()), vec![]);
    }

    #[test]
    fn streaming_difference_matches_materialized() {
        // Same mixed-representation fixture shape as the block-count
        // test: the streaming walk must visit exactly the members of
        // `difference`, ascending, for every chunk pairing (matched,
        // only-left, only-right, empty operands).
        let left: Vec<Addr> = (0u32..200)
            .map(|i| Addr::new(0x0A000500 + (i * 5) % 256))
            .chain((16u32..80).map(|i| Addr::new(0x0A000900 + i)))
            .chain([3u32, 77, 130].map(|i| Addr::new(0x0A000C00 + i)))
            .collect();
        let right: Vec<Addr> = (0u32..256)
            .map(|i| Addr::new(0x0A000500 + i))
            .chain((60u32..100).map(|i| Addr::new(0x0A000900 + i)))
            .chain([9u32].map(|i| Addr::new(0x0A000D00 + i)))
            .collect();
        let (lt, rt): (TieredSet, TieredSet) =
            (left.into_iter().collect(), right.into_iter().collect());
        for (a, b) in [(&lt, &rt), (&rt, &lt), (&lt, &TieredSet::new()), (&TieredSet::new(), &lt)]
        {
            let mut streamed = Vec::new();
            a.for_each_difference(b, |addr| streamed.push(addr));
            let materialized: Vec<Addr> = a.difference(b).iter().collect();
            assert_eq!(streamed, materialized);

            // The fused event-mask walk must equal sizing each
            // streamed event against `b` with the plain covering mask
            // (the trait-default path).
            let mut fused = Vec::new();
            a.diff_event_masks(b, |m| fused.push(m));
            let unfused: Vec<u8> = materialized.iter().map(|&x| b.covering_mask(x)).collect();
            assert_eq!(fused, unfused);
        }
    }

    #[test]
    fn builder_skips_empty_blocks() {
        let mut b = TieredSetBuilder::new();
        b.push_block(Block24::new(1), &AddrBits256::new());
        let mut bits = AddrBits256::new();
        bits.set(7);
        b.push_block(Block24::new(2), &bits);
        let s = b.finish();
        assert_eq!(s.num_chunks(), 1);
        assert_eq!(s.len(), 1);
        assert!(s.is_canonical());
    }

    #[test]
    fn memory_stays_structural_for_dense_blocks() {
        use crate::RefSet;
        // 2 048 fully lit /24s: half a million addresses, one bitmap
        // chunk each, against four bytes an address in the sorted Vec.
        let addrs = || (0..2048u32 * 256).map(|i| Addr::new(0x0A000000 + i));
        let tiered: TieredSet = addrs().collect();
        let reference: RefSet = addrs().collect();
        assert_eq!(tiered.repr_census(), ReprCensus { sparse: 0, dense: 2048 });
        assert!(
            tiered.memory_bytes() * 10 < reference.memory_bytes(),
            "tiered {} bytes vs reference {}",
            tiered.memory_bytes(),
            reference.memory_bytes()
        );
    }

    #[test]
    fn prefix_density_counts_match_count_in() {
        let s = set(&["10.0.0.5", "10.0.0.200", "10.0.1.3", "10.7.3.1", "11.0.0.1"]);
        let d = s.prefix_density();
        assert_eq!(d.total(), 5);
        for p in ["10.0.0.0/24", "10.0.0.0/16", "10.0.0.0/8", "0.0.0.0/0", "12.0.0.0/8"] {
            let p: Prefix = p.parse().unwrap();
            assert_eq!(d.count(p), s.count_in(p) as u64, "mismatch at {p}");
        }
        assert_eq!(d.active_prefixes(24), 4);
        assert_eq!(d.active_prefixes(8), 2);
        // Same index from the generic path.
        assert_eq!(PrefixDensity::from_set(&s), d);
    }

    #[test]
    #[should_panic(expected = "indexes /0../24")]
    fn prefix_density_rejects_host_prefixes() {
        set(&["10.0.0.1"]).prefix_density().count("10.0.0.0/32".parse().unwrap());
    }

    #[test]
    fn to_prefixes_and_blocks24_match_reference() {
        use crate::AddrSet;
        let addrs: Vec<Addr> = (0u32..300)
            .map(|i| Addr::new(0x0A000000 + i))
            .chain([a("10.0.2.7"), a("10.9.0.1")])
            .collect();
        let t = TieredSet::from_unsorted(addrs.clone());
        let r = AddrSet::from_unsorted(addrs);
        assert_eq!(ActiveSet::to_prefixes(&t), r.to_prefixes());
        assert_eq!(ActiveSet::blocks24(&t), r.blocks24());
    }
}
