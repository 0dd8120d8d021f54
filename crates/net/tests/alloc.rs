//! `TieredSet`'s allocation budget: a set is four arrays, so what an
//! operation asks of the allocator is a small constant — the result's
//! arrays, reserved once from the operands' sizes, and one trim each —
//! whatever the number of chunks. One heap block per chunk (what the
//! type was before the flat layout) fails every check here by three
//! orders of magnitude.
//!
//! The counter is per thread — the test harness allocates on its own
//! threads whenever it likes — and everything measured here runs on
//! the calling thread. A `realloc` counts as an allocation.

use ipactive_net::{
    ActiveSet, AddrBits256, Block24, SetBuilder, TieredSet, TieredSetBuilder, SPARSE_MAX,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Not counting beats panicking in an allocator, should a thread
    // allocate while its locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the counter is a
// statistic and touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is passed on as it came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get();
    let out = f();
    (out, ALLOCATIONS.get() - before)
}

/// A builder holding `chunks` blocks, a third of them sparse (1 to
/// `SPARSE_MAX` hosts) and the rest dense (17 to 216), host patterns and
/// the odd skipped block varying with `salt` so that operands overlap
/// on most keys, coincide exactly on some chunks and differ on others.
fn mixed_builder(chunks: u32, salt: u32) -> TieredSetBuilder {
    let mut b = TieredSetBuilder::new();
    for c in 0..chunks {
        if (c + salt) % 11 == 0 {
            continue; // a block only the other operands hold
        }
        let steady = c % 5 == 0; // the same members under every salt
        let shift = if steady { 0 } else { salt };
        let hosts = if c % 3 == 0 { 1 + c % SPARSE_MAX as u32 } else { 17 + (c * 7) % 200 };
        let bits: AddrBits256 = (0..hosts).map(|h| ((h * 5 + c + shift) % 256) as u8).collect();
        b.push_block(Block24::new(0x0A_0000 + c * 2), &bits);
    }
    b
}

fn mixed(chunks: u32, salt: u32) -> TieredSet {
    mixed_builder(chunks, salt).finish()
}

/// Allocations of each operation over `chunks`-chunk operands, in the
/// order of [`BUDGETS`].
fn costs(chunks: u32) -> [u64; 7] {
    let operands: Vec<TieredSet> = (0..8).map(|salt| mixed(chunks, salt)).collect();
    let (a, b) = (&operands[0], &operands[1]);
    let census = a.repr_census();
    assert!(census.sparse > chunks as usize / 4 && census.dense > chunks as usize / 2);
    let refs: Vec<&TieredSet> = operands.iter().collect();

    let (union, union_allocs) = allocations(|| a.union(b));
    let (intersect, intersect_allocs) = allocations(|| a.intersect(b));
    let (difference, difference_allocs) = allocations(|| a.difference(b));
    let (many, many_allocs) = allocations(|| TieredSet::union_many(&refs));
    let (clone, clone_allocs) = allocations(|| a.clone());
    let builder = mixed_builder(chunks, 0);
    let (built, finish_allocs) = allocations(|| builder.finish());
    let (masks, masks_allocs) = allocations(|| a.diff_mask_counts(b));

    // The operations did real work on both tiers.
    assert!(union.num_chunks() > a.num_chunks() && many.num_chunks() >= union.num_chunks());
    assert!(intersect.num_chunks() > chunks as usize / 2);
    assert!(!difference.is_empty() && difference.len() < a.len());
    assert_eq!(intersect.len() + difference.len(), a.len());
    assert!(clone == *a && built == *a);
    for set in [&union, &intersect, &difference, &many, &built] {
        assert!(set.is_canonical());
    }
    assert_eq!(masks.iter().sum::<u64>(), difference.len() as u64);
    assert!(masks[..=24].iter().any(|&n| n > 0) && masks[25..].iter().any(|&n| n > 0));
    [
        union_allocs,
        intersect_allocs,
        difference_allocs,
        many_allocs,
        clone_allocs,
        finish_allocs,
        masks_allocs,
    ]
}

/// Four arrays reserved, four trimmed; the k-way union adds its cursor
/// table; a clone copies four arrays and `finish` trims four; the
/// event-size counts build nothing.
const BUDGETS: [(&str, u64); 7] = [
    ("union", 8),
    ("intersect", 8),
    ("difference", 8),
    ("union_many of 8", 9),
    ("clone", 4),
    ("SetBuilder::finish", 4),
    ("diff_mask_counts", 0),
];

#[test]
fn operations_allocate_a_constant_whatever_the_chunk_count() {
    let (small, large) = (costs(256), costs(2048));
    for (((op, budget), small), large) in BUDGETS.into_iter().zip(small).zip(large) {
        assert!(large <= budget, "{op}: {large} allocations over 2048-chunk operands");
        assert_eq!(small, large, "{op}: allocations grew with the chunk count");
    }
}
