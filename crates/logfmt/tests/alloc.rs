//! The replay loop's allocation budget: reading an undamaged stream of
//! per-address records costs the reader its one buffer, not a heap
//! allocation per frame.
//!
//! Alone in its test binary: the counter is process-wide, and another
//! test allocating on another thread would be counted.

use ipactive_logfmt::{FrameReader, FrameWriter, ReadMode, Record};
use ipactive_net::Addr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the counter is a
// statistic and touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed on as it came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn an_undamaged_stream_is_read_without_an_allocation_per_frame() {
    const FRAMES: u32 = 50_000;
    let mut stream = Vec::new();
    let mut w = FrameWriter::new(&mut stream);
    for i in 0..FRAMES {
        let addr = Addr::new(0x0A00_0000 + i / 3);
        let day = (i % 112) as u16;
        w.write(&Record::Hits { day, addr, hits: 1 + u64::from(i) * 977 }).unwrap();
        if i % 16 == 0 {
            w.write(&Record::UaSample { day, addr, ua_hash: u64::from(i) << 20 }).unwrap();
        }
    }
    w.finish().unwrap();
    assert!(stream.len() > 4 * 128 * 1024, "must span several refills: {}", stream.len());

    for mode in [ReadMode::Strict, ReadMode::Tolerant] {
        // A `read()` a record, then `for_each()`, the loop under every
        // collector: the same records for the same budget.
        for looped in [false, true] {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let mut reader = FrameReader::new(&stream[..], mode);
            let (mut records, mut hits) = (0u32, 0u64);
            let mut tally = |record| {
                records += 1;
                if let Record::Hits { hits: h, .. } = record {
                    hits = hits.wrapping_add(h);
                }
            };
            if looped {
                reader.for_each(tally).unwrap();
            } else {
                while let Some(record) = reader.read().unwrap() {
                    tally(record);
                }
            }
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(records, FRAMES + FRAMES.div_ceil(16));
            assert!(hits > 0);
            assert_eq!(reader.position(), stream.len() as u64);
            // The reader's buffer, and nothing that scales with the
            // frames.
            assert!(
                allocations < 16,
                "{allocations} allocations for {records} frames ({mode:?}, for_each: {looped})"
            );
        }
    }
}
