//! The wire codec's allocation budget: a frame without a body is built
//! in and parsed from the stack, so a steady-state hit costs the
//! allocator nothing on either side of the connection; a response with
//! a body allocates for the body and nothing else.
//!
//! The counter is per thread — the test harness allocates on its own
//! threads whenever it likes — and everything measured here runs on
//! the calling thread.

use ipactive_serve::wire::{read_request, read_response, write_request, write_response};
use ipactive_serve::{QueryKind, Request, Response, Status, TraceContext, TraceId};
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

const ROUND_TRIPS: u64 = 1_000;

/// The longest frames there are without a body: every varint at ten
/// bytes but the ones a `u8`/`u32` field bounds.
fn widest_request(id: u64) -> Request {
    Request {
        id: u64::MAX - id,
        kind: QueryKind::DayWindow { start: u64::MAX, end: u64::MAX },
        budget_ms: u64::MAX,
        allow_degraded: true,
        trace: TraceContext { trace: TraceId(u64::MAX), span: u64::MAX },
    }
}

fn widest_response(id: u64, body: Option<String>) -> Response {
    Response {
        id: u64::MAX - id,
        epoch: u64::MAX,
        status: Status::Degraded,
        value: u64::MAX,
        coverage_ppm: u64::MAX,
        from_density: true,
        trace_id: u64::MAX,
        body,
    }
}

#[test]
fn a_frame_without_a_body_round_trips_without_allocating() {
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    // One warm-up of each, so nothing lazy is charged to the loop.
    write_request(&mut buf, &widest_request(0)).unwrap();
    write_response(&mut buf, &widest_response(0, None)).unwrap();

    let ((), allocated) = allocations(|| {
        for id in 0..ROUND_TRIPS {
            // The hit a server sees most, and the widest there is.
            for req in [
                Request {
                    id,
                    kind: QueryKind::DayWindow { start: 3, end: 17 },
                    budget_ms: 0,
                    allow_degraded: false,
                    trace: TraceContext::NONE,
                },
                widest_request(id),
            ] {
                buf.clear();
                write_request(&mut buf, &req).unwrap();
                assert_eq!(read_request(&mut &buf[..]).unwrap(), Some(req));
            }
        }
    });
    assert_eq!(allocated, 0, "request round trips: {allocated} allocations in {ROUND_TRIPS}");

    let narrow = Response {
        id: 7,
        epoch: 1,
        status: Status::Ok,
        value: 123_456,
        coverage_ppm: Response::FULL_COVERAGE,
        from_density: false,
        trace_id: 0,
        body: None,
    };
    let wide = widest_response(1, None);
    let ((), allocated) = allocations(|| {
        for _ in 0..ROUND_TRIPS {
            for resp in [&narrow, &wide] {
                buf.clear();
                write_response(&mut buf, resp).unwrap();
                assert_eq!(read_response(&mut &buf[..]).unwrap().as_ref(), Some(resp));
            }
        }
    });
    assert_eq!(allocated, 0, "response round trips: {allocated} allocations in {ROUND_TRIPS}");
}

#[test]
fn a_response_with_a_body_allocates_for_the_body_only() {
    let body = "{\"traces\": []}".repeat(64);
    let resp = widest_response(2, Some(body));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    write_response(&mut buf, &resp).unwrap();

    // Writing: the payload once it has outgrown the stack, and the
    // frame around it. Reading: the payload, and the body's `String`.
    buf.clear();
    let ((), writing) = allocations(|| write_response(&mut buf, &resp).unwrap());
    let (got, reading) = allocations(|| read_response(&mut &buf[..]).unwrap());
    assert_eq!(got.as_ref(), Some(&resp));
    assert!((1..=2).contains(&writing), "{writing} allocations writing a body");
    assert!((1..=2).contains(&reading), "{reading} allocations reading a body");
}
