//! `RequestReader` against the frame-at-a-time oracle.
//!
//! `wire::read_request` reads one frame with one small `read` per
//! field and is kept as it is; `wire::RequestReader` reads a wake's
//! worth of bytes at once and parses frames out of its own buffer. The
//! properties here say the second is the first, made faster: for any
//! byte stream — valid, damaged or random — and any way the transport
//! cuts it into chunks, both deliver the same requests and end in the
//! same way, neither panics, and neither lets a length prefix make it
//! allocate more than the largest frame the protocol allows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

use ipactive_logfmt::{crc32, encode_u64};
use ipactive_serve::wire::{read_request, write_request, RequestReader};
use ipactive_serve::{QueryKind, Request, TraceContext, TraceId, WireError};
use proptest::prelude::*;

/// `wire::MAX_FRAME`: the longest payload a length prefix may declare.
const MAX_FRAME: usize = 1 << 20;
/// `wire::READ_BUF`: what a `RequestReader` allocates before any frame.
const READ_BUF: usize = 8 * 1024;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // Not noting beats panicking in an allocator, should a thread
    // allocate while its locals are being torn down.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

struct Sizing;

// SAFETY: every call is handed to `System` unchanged; the high-water
// mark is a statistic and touches no memory the allocator manages.
unsafe impl GlobalAlloc for Sizing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is passed on as it came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Sizing = Sizing;

/// `f`'s result and the largest single allocation this thread asked
/// for while running it.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.set(0);
    let out = f();
    (out, LARGEST.get())
}

/// A source that hands out the stream in chunks of the given sizes,
/// over and over.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    calls: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.sizes[self.calls % self.sizes.len()];
        self.calls += 1;
        let n = chunk.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Everything a caller sees of a reader run to its end: the requests
/// in order, then `None` for a clean end or the error's `Debug` text.
type Observed = (Vec<Request>, Option<String>);

fn observe(mut next: impl FnMut() -> Result<Option<Request>, WireError>) -> Observed {
    let mut requests = Vec::new();
    loop {
        match next() {
            Ok(Some(req)) => requests.push(req),
            Ok(None) => return (requests, None),
            Err(e) => return (requests, Some(format!("{e:?}"))),
        }
    }
}

/// Both readers over `stream`, the batching one fed in `sizes` chunks.
/// Fails the test if either asks the allocator for more than a frame
/// and a buffer; returns what they saw.
fn both(stream: &[u8], sizes: &[usize]) -> (Observed, Observed) {
    let ((oracle, batched), largest) = largest_allocation(|| {
        let mut whole = stream;
        let oracle = observe(|| read_request(&mut whole));
        let mut reader = RequestReader::new(Chunked { data: stream, sizes, calls: 0 });
        let batched = observe(|| reader.read());
        (oracle, batched)
    });
    assert!(
        largest <= MAX_FRAME + READ_BUF,
        "a reader asked for {largest} bytes at once over a {}-byte stream",
        stream.len()
    );
    (oracle, batched)
}

fn arb_kind() -> impl Strategy<Value = QueryKind> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(start, end)| QueryKind::DayWindow { start, end }),
        (0u64..400, 0u64..400).prop_map(|(start, end)| QueryKind::WeekWindow { start, end }),
        (any::<u32>(), any::<u8>()).prop_map(|(base, len)| QueryKind::PrefixCount { base, len }),
        Just(QueryKind::Status),
        Just(QueryKind::Telemetry),
        any::<u64>().prop_map(|trace_id| QueryKind::Trace { trace_id }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (any::<u64>(), arb_kind(), 0u64..5_000, any::<bool>(), any::<u64>(), 0u64..64).prop_map(
        |(id, kind, budget_ms, allow_degraded, trace, span)| Request {
            id,
            kind,
            budget_ms,
            allow_degraded,
            trace: TraceContext { trace: TraceId(trace), span },
        },
    )
}

/// One request as a frame, its payload followed by `padding` bytes a
/// newer peer might have appended (decoders ignore a payload's tail);
/// enough of them and the frame outgrows the reader's buffer.
fn frame(req: &Request, padding: usize) -> Vec<u8> {
    let mut plain = Vec::new();
    write_request(&mut plain, req).expect("Vec writer cannot fail");
    // A request's payload is shorter than 128 bytes: one prefix byte.
    let mut payload = plain[1..plain.len() - 4].to_vec();
    payload.resize(payload.len() + padding, 0xEE);
    let mut out = Vec::new();
    encode_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Mostly bare frames, some with a padded tail, a few longer than the
/// read-ahead buffer.
fn arb_padding() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(0usize), Just(0usize), 0usize..300, 8_000usize..20_000]
}

fn arb_stream() -> impl Strategy<Value = (Vec<Request>, Vec<u8>, Vec<usize>)> {
    prop::collection::vec((arb_request(), arb_padding()), 0..12).prop_map(|frames| {
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for (req, padding) in &frames {
            stream.extend_from_slice(&frame(req, *padding));
            ends.push(stream.len());
        }
        (frames.into_iter().map(|(req, _)| req).collect(), stream, ends)
    })
}

fn arb_chunks() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        prop::collection::vec(1usize..8, 1..6),
        prop::collection::vec(1usize..200, 1..6),
        prop::collection::vec(1usize..40_000, 1..4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn valid_streams_read_the_same_under_any_chunking(
        (requests, stream, _) in arb_stream(),
        sizes in arb_chunks(),
    ) {
        let (oracle, batched) = both(&stream, &sizes);
        prop_assert_eq!(&oracle, &(requests, None), "the oracle itself must round-trip");
        prop_assert_eq!(batched, oracle);
    }

    #[test]
    fn a_stream_cut_anywhere_ends_cleanly_between_frames_and_truncated_inside_one(
        (requests, stream, ends) in arb_stream(),
        sizes in arb_chunks(),
        cut in 0.0f64..1.0,
    ) {
        let cut = (stream.len() as f64 * cut) as usize;
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let between = cut == 0 || ends.contains(&cut);
        let (oracle, batched) = both(&stream[..cut], &sizes);
        prop_assert_eq!(&batched, &oracle);
        prop_assert_eq!(&batched.0[..], &requests[..whole]);
        let want = if between { None } else { Some("Truncated".to_string()) };
        prop_assert_eq!(batched.1, want);
    }

    #[test]
    fn a_flipped_bit_ends_both_readers_the_same_way(
        (_, mut stream, _) in arb_stream(),
        sizes in arb_chunks(),
        at in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        if !stream.is_empty() {
            let at = ((stream.len() - 1) as f64 * at) as usize;
            stream[at] ^= mask;
        }
        let (oracle, batched) = both(&stream, &sizes);
        prop_assert_eq!(batched, oracle);
    }

    #[test]
    fn a_length_prefix_over_the_cap_is_refused_before_it_is_believed(
        (requests, mut stream, _) in arb_stream(),
        sizes in arb_chunks(),
        excess in 1u64..u64::MAX - MAX_FRAME as u64,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let declared = MAX_FRAME as u64 + excess;
        encode_u64(&mut stream, declared);
        stream.extend_from_slice(&tail);
        let (oracle, batched) = both(&stream, &sizes);
        prop_assert_eq!(&batched, &oracle);
        prop_assert_eq!(batched, (requests, Some(format!("Oversized({declared})"))));
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_end_both_readers_the_same_way(
        stream in prop::collection::vec(any::<u8>(), 0..400),
        sizes in arb_chunks(),
    ) {
        let (oracle, batched) = both(&stream, &sizes);
        prop_assert_eq!(batched, oracle);
    }

    #[test]
    fn a_believable_length_over_garbage_never_panics(
        declared in 0usize..=MAX_FRAME,
        body in prop::collection::vec(any::<u8>(), 0..2_000),
        sizes in arb_chunks(),
    ) {
        // The largest allocation either reader may make: the prefix is
        // within the cap, so the frame is waited for — and never comes.
        let mut stream = Vec::new();
        encode_u64(&mut stream, declared as u64);
        stream.extend_from_slice(&body);
        let (oracle, batched) = both(&stream, &sizes);
        prop_assert_eq!(batched, oracle);
    }
}
