//! Tiered compressed address sets (Roaring-style) and the per-prefix
//! density index.
//!
//! [`TieredSet`] chunks the IPv4 space by `/24`: each non-empty block
//! is one chunk keyed by its top 24 bits, and its members are held in
//! one of two tiers, chosen by population alone:
//!
//! * **Sparse** — sorted host octets, for up to [`SPARSE_MAX`] members
//!   (one byte each);
//! * **Dense** — the full 256-bit bitmap (32 bytes), for everything
//!   else.
//!
//! A set is four flat arrays, not one heap block per chunk: `heads`
//! (`key << 8 | count − 1` — keys are 24-bit and counts 1..=256, so one
//! word sorts by key and carries the population), `offs` (where the
//! chunk's payload starts), and the two payload arenas `dense` (one
//! aligned bitmap per dense chunk) and `sparse` (`count` host octets
//! per sparse chunk), both packed in key order with no gaps. That is 8
//! directory bytes a chunk plus 32 per bitmap or 1 per sparse host, at
//! most four heap blocks a set: a clone is four `memcpy`s, and every
//! operation allocates a constant number of times whatever the chunk
//! count (`tests/alloc.rs` pins the numbers). Results are trimmed to
//! exact size before they are returned, so a cached set retains no
//! slack (`memory_bytes` counts capacity).
//!
//! The layout is a *pure function of content*: two sets with equal
//! membership hold equal arrays, so the derived `PartialEq` is content
//! equality and snapshots hash/compare deterministically
//! ([`TieredSet::is_canonical`] checks every clause). The property
//! suite in `tests/tiered_prop.rs` drives arbitrary operation sequences
//! against the sorted-`Vec` reference ([`crate::RefSet`]) and asserts
//! bit-identical results, explicit dense↔sparse threshold crossings in
//! both directions, and that the construction route leaks into neither
//! the arrays nor their capacity.
//!
//! Set algebra walks the two directories in one galloping merge: runs
//! of chunks only one side holds — and runs both sides hold identically
//! — are copied as slices with their offsets rebased; chunks that
//! differ combine through the 256-bit bitmap and are re-tiered, so
//! every operation's output is canonical by construction.
//!
//! [`PrefixDensity`] is the counting index over a snapshot: one hash
//! map per prefix length 0..=24 from prefix key to active-address
//! count, giving O(1) density queries for any /8–/24 (indeed /0–/24)
//! prefix — the primitive behind prefix-level utilization views.

use core::cmp::Ordering;
use core::ops::Range;
use std::collections::HashMap;

use crate::active::{ActiveSet, SetBuilder};
use crate::{Addr, AddrBits256, Block24, Prefix};

/// Largest chunk population stored as explicit sparse host octets.
pub const SPARSE_MAX: usize = 16;

/// Member count (1..=256) carried in the low byte of a directory word.
fn count_of(head: u32) -> usize {
    (head & 0xFF) as usize + 1
}

/// One chunk's members, borrowed from the arenas. The tier is the
/// canonical one for the content — sparse while the population fits,
/// else dense — so equal views are equal chunks and vice versa.
#[derive(Clone, Copy, PartialEq, Eq)]
enum View<'a> {
    /// Sorted host octets, `1..=SPARSE_MAX` of them.
    Sparse(&'a [u8]),
    /// Full 256-bit bitmap.
    Dense(&'a AddrBits256),
}

impl View<'_> {
    fn to_bits(self) -> AddrBits256 {
        match self {
            View::Sparse(hosts) => hosts.iter().copied().collect(),
            View::Dense(bits) => *bits,
        }
    }

    /// ORs the members into `acc`.
    fn or_into(self, acc: &mut AddrBits256) {
        match self {
            View::Sparse(hosts) => hosts.iter().for_each(|&h| acc.set(h)),
            View::Dense(bits) => *acc = acc.union(bits),
        }
    }

    /// Members shared with `other` (callers answer the identical-chunk
    /// case from the directory without coming here).
    fn intersect_count(self, other: View<'_>) -> usize {
        match (self, other) {
            (View::Sparse(hosts), View::Dense(bits)) | (View::Dense(bits), View::Sparse(hosts)) => {
                hosts.iter().filter(|&&h| bits.get(h)).count()
            }
            _ => self.to_bits().intersect(&other.to_bits()).count() as usize,
        }
    }

    fn contains(self, h: u8) -> bool {
        match self {
            View::Sparse(hosts) => hosts.binary_search(&h).is_ok(),
            View::Dense(bits) => bits.get(h),
        }
    }

    /// Members with host octet in `lo..=hi`.
    fn count_range(self, lo: u8, hi: u8) -> usize {
        match self {
            View::Sparse(hosts) => {
                let a = hosts.partition_point(|&h| h < lo);
                let b = hosts.partition_point(|&h| h <= hi);
                b - a
            }
            View::Dense(bits) => {
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
    fn pred(self, h: u8) -> Option<u8> {
        match self {
            View::Sparse(hosts) => {
                let i = hosts.partition_point(|&x| x <= h);
                i.checked_sub(1).map(|i| hosts[i])
            }
            View::Dense(bits) => {
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
    fn succ(self, h: u8) -> Option<u8> {
        match self {
            View::Sparse(hosts) => {
                let i = hosts.partition_point(|&x| x < h);
                hosts.get(i).copied()
            }
            View::Dense(bits) => {
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
    fn first(self) -> u8 {
        self.succ(0).expect("chunks are non-empty by invariant")
    }

    /// Largest member (chunks are never empty).
    fn last(self) -> u8 {
        self.pred(255).expect("chunks are non-empty by invariant")
    }
}

/// Calls `f` with every set host index of `bits`, ascending.
fn for_each_bit(bits: &AddrBits256, mut f: impl FnMut(u8)) {
    for (w, &word) in bits.words().iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(((w as u8) << 6) | word.trailing_zeros() as u8);
            word &= word - 1;
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
/// *structure* rather than population: a fully-lit /24 costs 40 bytes
/// (two directory words plus its bitmap) instead of 1 KiB of sorted
/// `u32`s, a lone host 9, and a set of any size is at most four heap
/// blocks.
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
    /// `key << 8 | count − 1` per chunk, strictly ascending by key.
    heads: Vec<u32>,
    /// Per chunk: the index of its bitmap in `dense` if its count
    /// exceeds [`SPARSE_MAX`], else the offset of its first host octet
    /// in `sparse`.
    offs: Vec<u32>,
    /// Bitmaps of the dense chunks, in key order.
    dense: Vec<AddrBits256>,
    /// Sorted host octets of the sparse chunks, in key order.
    sparse: Vec<u8>,
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum MergeKind {
    Union,
    Intersect,
    Difference,
}

/// First index `>= from` whose chunk key is `>= key`.
///
/// Exponential probing then a binary search over the overshoot window:
/// O(log gap) instead of the two-pointer loop's O(gap) when one side of
/// a merge is far ahead (skewed inputs). Requires `heads[from]`'s key
/// `< key`, which is what the merge's unequal-key branches guarantee.
fn gallop(heads: &[u32], from: usize, key: u32) -> usize {
    debug_assert!(heads[from] >> 8 < key);
    let mut lo = from;
    let mut step = 1usize;
    let hi = loop {
        let probe = lo + step;
        if probe >= heads.len() {
            break heads.len();
        }
        if heads[probe] >> 8 >= key {
            break probe;
        }
        lo = probe;
        step <<= 1;
    };
    lo + 1 + heads[lo + 1..hi].partition_point(|&h| h >> 8 < key)
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
        ReprCensus { sparse: self.heads.len() - self.dense.len(), dense: self.dense.len() }
    }

    /// Number of chunks (distinct non-empty `/24` blocks).
    pub fn num_chunks(&self) -> usize {
        self.heads.len()
    }

    /// Whether every structural invariant holds: keys strictly
    /// ascending; every chunk in the tier its count dictates, with
    /// exactly that many members (a bitmap of that population, or that
    /// many strictly ascending octets); payloads contiguous in key
    /// order from offset 0 with no bytes left over; and the cached
    /// total consistent. The property suite calls this after every
    /// operation.
    pub fn is_canonical(&self) -> bool {
        if self.offs.len() != self.heads.len() {
            return false;
        }
        let (mut d, mut s, mut total) = (0usize, 0usize, 0usize);
        for (i, (&h, &o)) in self.heads.iter().zip(&self.offs).enumerate() {
            if i > 0 && self.heads[i - 1] >> 8 >= h >> 8 {
                return false;
            }
            let n = count_of(h);
            let ok = if n > SPARSE_MAX {
                d += 1;
                o as usize == d - 1 && self.dense.get(d - 1).is_some_and(|b| b.count() as usize == n)
            } else {
                s += n;
                o as usize == s - n
                    && self.sparse.get(s - n..s).is_some_and(|v| v.windows(2).all(|w| w[0] < w[1]))
            };
            if !ok {
                return false;
            }
            total += n;
        }
        d == self.dense.len() && s == self.sparse.len() && total == self.len
    }

    /// Builds the O(1) per-prefix density index for this snapshot.
    ///
    /// Costs one pass over the chunks per level; the result is
    /// independent of representation tiers (pinned against the
    /// reference backend by the property suite).
    pub fn prefix_density(&self) -> PrefixDensity {
        PrefixDensity::from_block_counts(
            self.heads.iter().map(|&h| (h >> 8, count_of(h) as u64)),
        )
    }

    fn with_capacity(chunks: usize, dense: usize, sparse: usize) -> Self {
        TieredSet {
            heads: Vec::with_capacity(chunks),
            offs: Vec::with_capacity(chunks),
            dense: Vec::with_capacity(dense),
            sparse: Vec::with_capacity(sparse),
            len: 0,
        }
    }

    /// Gives back whatever the arrays reserved beyond their contents,
    /// so a result that gets cached holds exactly its own bytes.
    fn trimmed(mut self) -> Self {
        self.heads.shrink_to_fit();
        self.offs.shrink_to_fit();
        self.dense.shrink_to_fit();
        self.sparse.shrink_to_fit();
        self
    }

    fn view(&self, i: usize) -> View<'_> {
        let (n, o) = (count_of(self.heads[i]), self.offs[i] as usize);
        if n > SPARSE_MAX {
            View::Dense(&self.dense[o])
        } else {
            View::Sparse(&self.sparse[o..o + n])
        }
    }

    /// Whether chunk `i` here and chunk `j` of `other` are the same
    /// block with the same members.
    fn same_chunk(&self, i: usize, other: &Self, j: usize) -> bool {
        self.heads[i] == other.heads[j] && self.view(i) == other.view(j)
    }

    fn chunk_index(&self, key: u32) -> Result<usize, usize> {
        self.heads.binary_search_by_key(&key, |&h| h >> 8)
    }

    /// Appends the chunk of block `key` holding `bits` in its canonical
    /// tier; an empty `bits` appends nothing. Keys must ascend.
    fn push_bits(&mut self, key: u32, bits: &AddrBits256) {
        let n = bits.count() as usize;
        if n == 0 {
            return;
        }
        self.heads.push(key << 8 | (n as u32 - 1));
        if n > SPARSE_MAX {
            self.offs.push(self.dense.len() as u32);
            self.dense.push(*bits);
        } else {
            self.offs.push(self.sparse.len() as u32);
            for_each_bit(bits, |h| self.sparse.push(h));
        }
        self.len += n;
    }

    /// Appends chunks `run` of `src` as they are (already canonical):
    /// three slice copies, the offsets rebased onto this set's arenas.
    fn push_run(&mut self, src: &Self, run: Range<usize>) {
        let (d0, s0) = (self.dense.len(), self.sparse.len());
        let (mut d, mut s) = (d0, s0);
        // Where the run's payloads start in `src`'s arenas: offsets
        // ascend within a tier, so the first of each is the smallest.
        let (mut src_d, mut src_s) = (usize::MAX, usize::MAX);
        for (&h, &o) in src.heads[run.clone()].iter().zip(&src.offs[run.clone()]) {
            let n = count_of(h);
            if n > SPARSE_MAX {
                src_d = src_d.min(o as usize);
                self.offs.push(d as u32);
                d += 1;
            } else {
                src_s = src_s.min(o as usize);
                self.offs.push(s as u32);
                s += n;
            }
            self.len += n;
        }
        self.heads.extend_from_slice(&src.heads[run]);
        if d > d0 {
            self.dense.extend_from_slice(&src.dense[src_d..src_d + (d - d0)]);
        }
        if s > s0 {
            self.sparse.extend_from_slice(&src.sparse[src_s..src_s + (s - s0)]);
        }
    }

    fn merge(&self, other: &Self, kind: MergeKind) -> Self {
        use MergeKind::*;
        let (a, b) = (self, other);
        let (na, nb) = (a.heads.len(), b.heads.len());
        let (da, db) = (a.dense.len(), b.dense.len());
        // Upper bounds from the operands, so no array ever regrows: a
        // bitmap in the result is owed to a bitmap in an operand or (in
        // a union) to a pair of sparse chunks; a sparse chunk in the
        // result is no longer than the operand chunks it came from, or
        // than SPARSE_MAX where it came from a bitmap.
        let mut out = match kind {
            Union => Self::with_capacity(
                na + nb,
                da + db + (na - da).min(nb - db),
                a.sparse.len() + b.sparse.len(),
            ),
            Intersect => Self::with_capacity(
                na.min(nb),
                da.min(db),
                (na.min(nb) * SPARSE_MAX).min(a.len).min(b.len),
            ),
            Difference => Self::with_capacity(na, da, a.sparse.len() + da * SPARSE_MAX),
        };
        let (mut i, mut j) = (0, 0);
        while i < na && j < nb {
            let (ka, kb) = (a.heads[i] >> 8, b.heads[j] >> 8);
            match ka.cmp(&kb) {
                Ordering::Less => {
                    // Gallop to the next possible key match and handle
                    // the whole skipped run at once.
                    let stop = gallop(&a.heads, i, kb);
                    if kind != Intersect {
                        out.push_run(a, i..stop);
                    }
                    i = stop;
                }
                Ordering::Greater => {
                    let stop = gallop(&b.heads, j, ka);
                    if kind == Union {
                        out.push_run(b, j..stop);
                    }
                    j = stop;
                }
                Ordering::Equal => {
                    // Identical chunks (steady blocks dominate real
                    // window pairs) come in runs: the result is the run
                    // itself for union/intersect and empty for
                    // difference — no bitmap round-trip, and the copy
                    // is already canonical.
                    let mut same = 0;
                    while i + same < na && j + same < nb && a.same_chunk(i + same, b, j + same) {
                        same += 1;
                    }
                    if same > 0 {
                        if kind != Difference {
                            out.push_run(a, i..i + same);
                        }
                        i += same;
                        j += same;
                        continue;
                    }
                    let (x, y) = (a.view(i).to_bits(), b.view(j).to_bits());
                    let bits = match kind {
                        Union => x.union(&y),
                        Intersect => x.intersect(&y),
                        Difference => x.difference(&y),
                    };
                    out.push_bits(ka, &bits);
                    i += 1;
                    j += 1;
                }
            }
        }
        if kind != Intersect {
            out.push_run(a, i..na);
        }
        if kind == Union {
            out.push_run(b, j..nb);
        }
        out.trimmed()
    }

    /// The covering mask of an event at `bits` against this exclusion
    /// set, with the chunk search already done: `i` is the first chunk
    /// keyed at or after the event's block and `own` that chunk's view
    /// when it *is* the event's block.
    ///
    /// Closed form instead of [`ActiveSet::covering_mask`]'s per-mask
    /// growth walk: the result is `min(32, 1 + cpl)` where `cpl` is the
    /// longest common prefix between the event and any member — and
    /// that maximum is always attained by the nearest member below or
    /// above (values between two numbers sharing a prefix share it
    /// too). So two neighbor probes replace up to 32 range-emptiness
    /// checks. Agreement with the default walk is pinned by
    /// `covering_mask_override_matches_default_walk` and the property
    /// suite.
    fn mask_at(&self, i: usize, own: Option<View<'_>>, bits: u32) -> u8 {
        let (base, h) = (bits & !0xFF, bits as u8);
        // Nearest member ≤ the event: in its own chunk if present
        // there, else the last member of the previous chunk (chunks
        // are sorted and never empty).
        let pred = own.and_then(|v| v.pred(h)).map(|p| base | p as u32).or_else(|| {
            let p = i.checked_sub(1)?;
            Some((self.heads[p] & !0xFF) | self.view(p).last() as u32)
        });
        // Nearest member ≥ the event, symmetrically.
        let succ = own.and_then(|v| v.succ(h)).map(|s| base | s as u32).or_else(|| {
            let n = i + usize::from(own.is_some());
            let head = self.heads.get(n)?;
            Some((head & !0xFF) | self.view(n).first() as u32)
        });
        let cpl = [pred, succ].into_iter().flatten().map(|n| (bits ^ n).leading_zeros()).max();
        match cpl {
            // `cpl == 32` means the event is itself a member: still /32.
            Some(cpl) => (cpl + 1).min(32) as u8,
            None => 0, // empty exclusion: growth reaches /0
        }
    }

    /// One merge walk over the two directories, calling `f(j, head, a,
    /// own)` for every chunk `a` (directory word `head`) of `self` that
    /// `other` does not hold identically — `own` being the same block's
    /// chunk in `other`, if any, and `j` the first chunk of `other`
    /// keyed at or after it: the position [`TieredSet::mask_at`] takes.
    /// Identical chunks (the steady-block common case) have no
    /// difference and are skipped without a word walk.
    fn diff_chunks<'a>(
        &'a self,
        other: &'a Self,
        mut f: impl FnMut(usize, u32, View<'a>, Option<View<'a>>),
    ) {
        let mut j = 0;
        for (i, &head) in self.heads.iter().enumerate() {
            while j < other.heads.len() && other.heads[j] >> 8 < head >> 8 {
                j += 1;
            }
            let a = self.view(i);
            let matched = other.heads.get(j).is_some_and(|&o| o >> 8 == head >> 8);
            let own = matched.then(|| other.view(j));
            if own != Some(a) {
                f(j, head, a, own);
            }
        }
    }
}

/// Adds to `counts` the covering masks of the events inside one /24 —
/// the members of `chunk` that `excl` lacks, `excl` being non-empty —
/// without sizing any event. Level `k` marks the hosts whose aligned
/// `2^k`-block holds no member of `excl`: level 0 is `!excl`, and a
/// block is free at `k + 1` when both of its halves are free at `k` —
/// the level ANDed with itself, its halves swapped. An event's mask is
/// `32 − k` for the largest level `k` that still marks it, so each
/// level's events that the next one drops are counted there. The /24
/// itself is never free (it holds `excl`), so every mask is /25 or
/// longer.
fn count_free_levels(chunk: &AddrBits256, excl: &AddrBits256, counts: &mut [u64; 33]) {
    // Swaps the aligned halves of every `2^(k+1)`-bit group: inside
    // each word up to 64-bit groups, whole words beyond.
    fn swap_halves(k: usize, level: &AddrBits256) -> AddrBits256 {
        const LOW: [u64; 6] = [
            0x5555_5555_5555_5555,
            0x3333_3333_3333_3333,
            0x0F0F_0F0F_0F0F_0F0F,
            0x00FF_00FF_00FF_00FF,
            0x0000_FFFF_0000_FFFF,
            0x0000_0000_FFFF_FFFF,
        ];
        let w = level.words();
        AddrBits256::from_words(match k {
            0..=5 => w.map(|x| (x >> (1 << k)) & LOW[k] | (x & LOW[k]) << (1 << k)),
            6 => [w[1], w[0], w[3], w[2]],
            _ => [w[2], w[3], w[0], w[1]],
        })
    }
    let mut free = AddrBits256::full().difference(excl);
    let mut left = chunk.intersect(&free);
    for k in 0..8 {
        let next = free.intersect(&swap_halves(k, &free));
        counts[32 - k] += u64::from(left.difference(&next).count());
        left = left.intersect(&next);
        if left.is_empty() {
            return;
        }
        free = next;
    }
}

impl FromIterator<Addr> for TieredSet {
    fn from_iter<T: IntoIterator<Item = Addr>>(iter: T) -> Self {
        TieredSet::from_unsorted(iter.into_iter().collect())
    }
}

/// Streaming block-wise builder for [`TieredSet`].
///
/// Blocks append straight onto the arenas in canonical form, so
/// construction never holds a full bitmap for a block that ends up
/// sparse, and `finish` trims the arrays to their contents.
pub struct TieredSetBuilder(TieredSet);

impl SetBuilder for TieredSetBuilder {
    type Set = TieredSet;

    fn new() -> Self {
        TieredSetBuilder(TieredSet::new())
    }

    fn push_block(&mut self, block: Block24, bits: &AddrBits256) {
        debug_assert!(
            !self.0.heads.last().is_some_and(|&h| h >> 8 >= block.id()),
            "blocks must arrive in ascending order"
        );
        self.0.push_bits(block.id(), bits);
    }

    fn finish(self) -> TieredSet {
        self.0.trimmed()
    }
}

/// Ascending iterator over a [`TieredSet`]'s members.
pub struct TieredIter<'a> {
    set: &'a TieredSet,
    next_chunk: usize,
    /// The current chunk's block base and its members not yet yielded,
    /// as a bitmap whatever the chunk's tier; `w` is the first word that
    /// may still hold one.
    base: u32,
    words: [u64; 4],
    w: usize,
}

impl Iterator for TieredIter<'_> {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        loop {
            while self.w < 4 {
                let word = self.words[self.w];
                if word != 0 {
                    self.words[self.w] = word & (word - 1);
                    let h = (self.w as u32) << 6 | word.trailing_zeros();
                    return Some(Addr::new(self.base | h));
                }
                self.w += 1;
            }
            let head = self.set.heads.get(self.next_chunk)?;
            self.base = head & !0xFF;
            self.words = *self.set.view(self.next_chunk).to_bits().words();
            self.w = 0;
            self.next_chunk += 1;
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
            Ok(i) => self.view(i).contains(addr.host_index()),
            Err(_) => false,
        }
    }

    fn count_in(&self, prefix: Prefix) -> usize {
        let (net, last) = (prefix.network().bits(), prefix.last().bits());
        if prefix.len() > 24 {
            // Part of one chunk; count the host sub-range inside it.
            match self.chunk_index(net >> 8) {
                Ok(i) => self.view(i).count_range(net as u8, last as u8),
                Err(_) => 0,
            }
        } else {
            // /0../24 prefixes cover whole chunks: sum the counts the
            // directory carries (a /24 is one chunk, whatever its tier).
            let lo = self.heads.partition_point(|&h| h >> 8 < net >> 8);
            let hi = self.heads.partition_point(|&h| h >> 8 <= last >> 8);
            self.heads[lo..hi].iter().map(|&h| count_of(h)).sum()
        }
    }

    fn any_in(&self, prefix: Prefix) -> bool {
        let (net, last) = (prefix.network().bits(), prefix.last().bits());
        if prefix.len() > 24 {
            match self.chunk_index(net >> 8) {
                Ok(i) => self.view(i).count_range(net as u8, last as u8) > 0,
                Err(_) => false,
            }
        } else {
            // Any chunk keyed inside the prefix is non-empty by invariant.
            let lo = self.heads.partition_point(|&h| h >> 8 < net >> 8);
            self.heads.get(lo).is_some_and(|&h| h >> 8 <= last >> 8)
        }
    }

    /// One directory binary search, then `TieredSet::mask_at`'s two
    /// neighbor probes, instead of the default's per-mask growth walk.
    fn covering_mask(&self, addr: Addr) -> u8 {
        let (i, own) = match self.chunk_index(addr.bits() >> 8) {
            Ok(i) => (i, Some(self.view(i))),
            Err(i) => (i, None),
        };
        self.mask_at(i, own, addr.bits())
    }

    fn iter(&self) -> TieredIter<'_> {
        TieredIter { set: self, next_chunk: 0, base: 0, words: [0; 4], w: 4 }
    }

    /// O(chunks): the arenas are packed, so a new member rebuilds the
    /// set through a one-address union. Nothing outside the test suites
    /// inserts one address at a time — sets are built block-wise by
    /// [`TieredSetBuilder`] and combined by the algebra.
    fn insert(&mut self, addr: Addr) -> bool {
        if self.contains(addr) {
            return false;
        }
        let single = TieredSet {
            heads: vec![addr.bits() & !0xFF],
            offs: vec![0],
            dense: Vec::new(),
            sparse: vec![addr.host_index()],
            len: 1,
        };
        *self = self.union(&single);
        true
    }

    fn union(&self, other: &Self) -> Self {
        self.merge(other, MergeKind::Union)
    }

    /// K-way union: one pass over all directories, each output chunk
    /// OR'd straight from every input holding it — an n-day window
    /// union materializes no intermediate sets.
    fn union_many(sets: &[&Self]) -> Self {
        match sets {
            [] => return TieredSet::new(),
            [only] => return (*only).clone(),
            // What a window compose mostly is — the longest cached
            // sub-window plus one unit: the galloping pairwise merge
            // copies whole runs where this loop goes chunk by chunk.
            [a, b] => return a.union(b),
            _ => {}
        }
        // One cursor per operand: (key of its next chunk, that chunk's
        // index). Keys are 24-bit, so u32::MAX both marks an exhausted
        // operand and sorts after every live one.
        let front = |s: &Self, i: u32| s.heads.get(i as usize).map_or(u32::MAX, |h| h >> 8);
        let mut cur: Vec<(u32, u32)> = sets.iter().map(|s| (front(s, 0), 0)).collect();
        let min_key = |cur: &[(u32, u32)]| {
            let key = cur.iter().map(|c| c.0).min().expect("three or more operands");
            (key != u32::MAX).then_some(key)
        };
        // Reserved from the operands like `merge` — no more chunks than
        // they hold together, nor than there are /24s — and trimmed.
        let chunks = sets.iter().map(|s| s.heads.len()).sum::<usize>().min(1 << 24);
        let sparse_in: usize = sets.iter().map(|s| s.sparse.len()).sum();
        let mut out = Self::with_capacity(chunks, chunks, sparse_in.min(chunks * SPARSE_MAX));
        while let Some(key) = min_key(&cur) {
            // The first operand holding the key, and the OR of all of
            // them once one is found to differ from the first.
            let mut first: Option<(&Self, usize)> = None;
            let mut acc: Option<AddrBits256> = None;
            for (c, &s) in cur.iter_mut().zip(sets) {
                if c.0 != key {
                    continue;
                }
                let i = c.1 as usize;
                *c = (front(s, c.1 + 1), c.1 + 1);
                match first {
                    None => first = Some((s, i)),
                    // The identical chunk again (steady blocks dominate
                    // overlapping windows): nothing to add.
                    Some((f, fi)) if acc.is_none() && f.same_chunk(fi, s, i) => {}
                    Some((f, fi)) => {
                        s.view(i).or_into(acc.get_or_insert_with(|| f.view(fi).to_bits()));
                    }
                }
            }
            match (acc, first) {
                (Some(bits), _) => out.push_bits(key, &bits),
                // Already canonical: adopt it without re-deriving.
                (None, Some((s, i))) => out.push_run(s, i..i + 1),
                (None, None) => unreachable!("some operand holds the minimum key"),
            }
        }
        out.trimmed()
    }

    fn intersect(&self, other: &Self) -> Self {
        self.merge(other, MergeKind::Intersect)
    }

    fn difference(&self, other: &Self) -> Self {
        self.merge(other, MergeKind::Difference)
    }

    fn intersect_len(&self, other: &Self) -> usize {
        let (a, b) = (self, other);
        let (mut i, mut j, mut n) = (0, 0, 0usize);
        while i < a.heads.len() && j < b.heads.len() {
            let (ha, hb) = (a.heads[i], b.heads[j]);
            match (ha >> 8).cmp(&(hb >> 8)) {
                Ordering::Less => i = gallop(&a.heads, i, hb >> 8),
                Ordering::Greater => j = gallop(&b.heads, j, ha >> 8),
                Ordering::Equal => {
                    // Identical chunks (steady blocks dominate adjacent
                    // windows): the directory's count is the overlap,
                    // no bitmap round-trip needed.
                    let (x, y) = (a.view(i), b.view(j));
                    n += if ha == hb && x == y { count_of(ha) } else { x.intersect_count(y) };
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    fn for_each_difference(&self, other: &Self, mut f: impl FnMut(Addr)) {
        self.diff_chunks(other, |_, head, a, own| {
            let bits = a.to_bits();
            let survivors = own.map_or(bits, |b| bits.difference(&b.to_bits()));
            for_each_bit(&survivors, |h| f(Addr::new((head & !0xFF) | h as u32)));
        });
    }

    /// Counts a /24 at a time. A chunk `other` lacks has its neighbours
    /// in other /24s, so all its members share the one mask `mask_at`
    /// gives the block; a chunk both hold counts its events by
    /// free-block level (`count_free_levels`).
    fn diff_mask_counts(&self, other: &Self) -> [u64; 33] {
        let mut counts = [0u64; 33];
        self.diff_chunks(other, |j, head, a, own| match own {
            None => counts[other.mask_at(j, None, head & !0xFF) as usize] += count_of(head) as u64,
            Some(b) => count_free_levels(&a.to_bits(), &b.to_bits(), &mut counts),
        });
        counts
    }

    fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + (self.heads.capacity() + self.offs.capacity()) * core::mem::size_of::<u32>()
            + self.dense.capacity() * core::mem::size_of::<AddrBits256>()
            + self.sparse.capacity()
    }

    fn blocks24(&self) -> Vec<Block24> {
        self.heads.iter().map(|&h| Block24::new(h >> 8)).collect()
    }

    fn block_counts(&self) -> Vec<(Block24, u32)> {
        // The directory *is* the answer: keys ascend and every word
        // carries its chunk's count.
        self.heads.iter().map(|&h| (Block24::new(h >> 8), count_of(h) as u32)).collect()
    }

    fn intersect_block_counts(&self, other: &Self) -> Vec<(Block24, u32)> {
        // One merge walk over the two directories; matching chunks cost
        // four AND+popcount words, and no set is materialized.
        let (a, b) = (self, other);
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.heads.len() && j < b.heads.len() {
            let (ka, kb) = (a.heads[i] >> 8, b.heads[j] >> 8);
            match ka.cmp(&kb) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let (x, y) = (a.view(i), b.view(j));
                    let n = if x == y { count_of(a.heads[i]) } else { x.intersect_count(y) };
                    if n > 0 {
                        out.push((Block24::new(ka), n as u32));
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
        // A fully lit /24 is two directory words and the 32-byte bitmap.
        assert_eq!(s.memory_bytes(), core::mem::size_of::<TieredSet>() + 8 + 32);
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

            // The per-/24 mask counts must equal sizing each streamed
            // event against `b` with the plain covering mask (the
            // trait-default path).
            let mut per_event = [0u64; 33];
            materialized.iter().for_each(|&x| per_event[b.covering_mask(x) as usize] += 1);
            assert_eq!(a.diff_mask_counts(b), per_event);
        }
    }

    /// `diff_mask_counts` against the per-event reference walk, which
    /// the trait default runs.
    fn assert_counts_match_the_walk(events: &TieredSet, excl: &TieredSet) -> [u64; 33] {
        let mut walk = [0u64; 33];
        events.diff_event_masks(excl, |m| walk[m as usize] += 1);
        let counts = events.diff_mask_counts(excl);
        assert_eq!(counts, walk);
        assert_eq!(counts.iter().sum::<u64>(), events.difference(excl).len() as u64);
        counts
    }

    #[test]
    fn mask_counts_of_blocks_bounded_by_neighbouring_blocks() {
        // Events fill blocks the exclusion lacks; its nearest members
        // sit in adjacent or farther /24s, so each block shares one
        // mask of /24 or shorter.
        let lit = |key: u32, hosts: Range<u32>| hosts.map(move |h| Addr::new(key << 8 | h));
        let events: TieredSet = lit(0x0A_0000, 0..256)
            .chain(lit(0x0A_0004, 7..9))
            .chain(lit(0x0A_0010, 3..4))
            .collect();
        let excl: TieredSet = [0x0A_0001u32, 0x0A_0006, 0x0A_0020]
            .into_iter()
            .map(|k| Addr::new(k << 8 | 9))
            .collect();
        let counts = assert_counts_match_the_walk(&events, &excl);
        // 10.0.0.0/24 against 10.0.1.9: /24. 10.0.4.x between 10.0.1.9
        // and 10.0.6.9: /23. 10.0.16.3 between 10.0.6.9 and 10.0.32.9: /20.
        let mut want = [0u64; 33];
        (want[24], want[23], want[20]) = (256, 2, 1);
        assert_eq!(counts, want);
    }

    #[test]
    fn mask_counts_at_every_distance_inside_a_block() {
        // One exclusion member at host 0, events at distance 2^k: the
        // event at host 2^k first shares a block with it at /(31 − k),
        // so it sizes as /(32 − k) — every mask from /32 to /25.
        let block = |hosts: &[u32]| -> TieredSet {
            hosts.iter().map(|&h| Addr::new(0x0A00_0500 | h)).collect()
        };
        let excl = block(&[0]);
        let events = block(&[1, 2, 4, 8, 16, 32, 64, 128]);
        let counts = assert_counts_match_the_walk(&events, &excl);
        let mut want = [0u64; 33];
        (25..=32).for_each(|m| want[m] = 1);
        assert_eq!(counts, want);
        // The mirror image: the member at host 255, every other host
        // an event.
        let excl = block(&[255]);
        let events = block(&(0..255).collect::<Vec<_>>());
        let counts = assert_counts_match_the_walk(&events, &excl);
        for k in 0..8 {
            assert_eq!(counts[32 - k], 1 << k, "/{}", 32 - k);
        }
    }

    #[test]
    fn mask_counts_at_hosts_0_and_255() {
        // Events at both ends of two blocks. The exclusion holds host
        // 128 of the first, host 255 of the block before it and host 0
        // of the block after the second.
        let addrs = |v: &[u32]| -> TieredSet { v.iter().map(|&b| Addr::new(b)).collect() };
        let events = addrs(&[0x0A00_0500, 0x0A00_05FF, 0x0A00_0600, 0x0A00_06FF]);
        let excl = addrs(&[0x0A00_04FF, 0x0A00_0580, 0x0A00_0700]);
        let counts = assert_counts_match_the_walk(&events, &excl);
        // 10.0.5.0 grows to .0/25 and 10.0.5.255 to .192/26 around
        // host 128; 10.0.6.0/24 shares its /23 with 10.0.7.0: /24 each.
        let mut want = [0u64; 33];
        (want[25], want[26], want[24]) = (1, 1, 2);
        assert_eq!(counts, want);
    }

    #[test]
    fn mask_counts_against_an_empty_exclusion_are_all_slash_0() {
        let events: TieredSet = (0u32..600).map(|i| Addr::new(0x0A00_0000 + i * 3)).collect();
        let counts = assert_counts_match_the_walk(&events, &TieredSet::new());
        let mut want = [0u64; 33];
        want[0] = 600;
        assert_eq!(counts, want);
        assert_eq!(TieredSet::new().diff_mask_counts(&events), [0; 33]);
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
