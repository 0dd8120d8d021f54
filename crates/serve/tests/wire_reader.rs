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
//!
//! The client's side of the connection, `wire::read_response`, has no
//! second implementation to be compared with, so its properties are the
//! decoder's own: no byte stream makes it panic or allocate past the
//! cap, each ends in a `WireError` or in responses, every response
//! written is the response read, and whatever bytes decode to a
//! response, that response re-encodes to bytes that decode to it again
//! (not to the same bytes: the tail fields are append-only, so a
//! shorter, older frame is as valid as the one written today).
//!
//! Both formats end in a trailer of two varints that an older peer
//! leaves off — a request's `(trace_id, parent_span)`, a response's
//! `(trace_id, body_len)` — and the two `a_trailer_*` properties are that
//! trailer's: a field is read in full, or it and what lies behind it
//! are absent and read as 0, or the frame is refused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

use ipactive_logfmt::{crc32, decode_u64, encode_u64};
use ipactive_serve::wire::{
    read_request, read_response, write_request, write_response, RequestReader,
};
use ipactive_serve::{QueryKind, Request, Response, Status, TraceContext, TraceId, WireError};
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
    sealed(&payload)
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

/// Any response the server can send: every status, with and without a
/// trace id, with and without a body. A body is never empty — its
/// length doubles as the "no body" marker, so `Some("")` is written as
/// `None` — and may hold any text, multi-byte characters included.
fn arb_response() -> impl Strategy<Value = Response> {
    let status = prop_oneof![
        Just(Status::Ok),
        Just(Status::Degraded),
        Just(Status::DeadlineExceeded),
        Just(Status::Overloaded),
        Just(Status::BadRequest),
    ];
    let scalars = (any::<u64>(), any::<u64>(), status, any::<u64>(), 0u64..=1_000_000);
    let progress = (any::<u64>(), any::<u64>(), any::<bool>());
    let trace_id = prop_oneof![Just(0u64), any::<u64>()];
    let body = prop_oneof![
        Just(None),
        // Scalar values from anywhere in Unicode; surrogates fall back.
        prop::collection::vec(any::<u32>(), 1..300).prop_map(|points| {
            let point = |p: u32| char::from_u32(p % 0x11_0000).unwrap_or('\u{FFFD}');
            Some(points.into_iter().map(point).collect::<String>())
        }),
    ];
    (scalars, progress, trace_id, body).prop_map(
        |((id, epoch, status, value, coverage_ppm), (done, total, from_density), trace_id, body)| {
            Response {
                id,
                epoch,
                status,
                value,
                coverage_ppm,
                units_done: done,
                units_total: total,
                from_density,
                trace_id,
                body,
            }
        },
    )
}

fn response_frame(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    write_response(&mut out, resp).expect("Vec writer cannot fail");
    out
}

/// `payload` sealed as a frame: length prefix in front, CRC behind.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// A frame's payload: what lies between its length prefix and its CRC.
fn payload(frame: &[u8]) -> Vec<u8> {
    let mut rest = frame;
    let len = decode_u64(&mut rest).expect("the writer's own prefix") as usize;
    rest[..len].to_vec()
}

fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_u64(&mut out, v);
    out
}

/// The trailer's two varints as the format documents them, read with
/// `decode_u64` and nothing else: each is there in full, or the payload
/// ended in front of it and it reads as 0. `Err` is the `Debug` text of
/// the `WireError` a torn or overflowing varint must become.
fn trailer(t: &mut &[u8]) -> Result<(u64, u64), String> {
    let mut field = || match t.is_empty() {
        true => Ok(0),
        false => decode_u64(t).map_err(|e| format!("Varint({e:?})")),
    };
    Ok((field()?, field()?))
}

/// What a reader run to its end must make of one sealed frame: the
/// one message and a clean end, or nothing and the error.
fn one<T>(want: Result<T, String>) -> (Vec<T>, Option<String>) {
    match want {
        Ok(message) => (vec![message], None),
        Err(e) => (vec![], Some(e)),
    }
}

/// Runs `read_response` over `stream` to its end and returns what it
/// saw: the responses in order, then `None` for a clean end or the
/// error's `Debug` text. Getting here at all is the never-panics
/// property. Fails the test if the reader asked the allocator for more
/// than a frame (and the few bytes of text a lossy body decode may
/// add), or if a response it accepted does not survive being written
/// and read again.
fn responses(stream: &[u8]) -> (Vec<Response>, Option<String>) {
    let ((seen, end), largest) = largest_allocation(|| {
        let mut rest = stream;
        let mut seen = Vec::new();
        loop {
            match read_response(&mut rest) {
                Ok(Some(resp)) => seen.push(resp),
                Ok(None) => return (seen, None),
                Err(e) => return (seen, Some(format!("{e:?}"))),
            }
        }
    });
    assert!(
        largest <= MAX_FRAME + 3 * stream.len(),
        "read_response asked for {largest} bytes at once over a {}-byte stream",
        stream.len()
    );
    for resp in &seen {
        let again = read_response(&mut &response_frame(resp)[..]);
        assert_eq!(again.ok().flatten().as_ref(), Some(resp), "re-encoding changed the response");
    }
    (seen, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn written_responses_are_the_responses_read(
        sent in prop::collection::vec(arb_response(), 0..8),
    ) {
        let stream: Vec<u8> = sent.iter().flat_map(response_frame).collect();
        prop_assert_eq!(responses(&stream), (sent, None));
    }

    #[test]
    fn a_response_cut_anywhere_is_truncated_never_half_read(resp in arb_response()) {
        let bytes = response_frame(&resp);
        prop_assert_eq!(responses(&bytes[..0]), (vec![], None));
        for cut in 1..bytes.len() {
            prop_assert_eq!(
                responses(&bytes[..cut]),
                (vec![], Some("Truncated".to_string())),
                "cut at {} of {}", cut, bytes.len()
            );
        }
        prop_assert_eq!(responses(&bytes), (vec![resp], None));
    }

    #[test]
    fn a_flipped_bit_in_a_response_stream_never_panics(
        sent in prop::collection::vec(arb_response(), 1..5),
        at in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let mut stream: Vec<u8> = sent.iter().flat_map(response_frame).collect();
        let at = ((stream.len() - 1) as f64 * at) as usize;
        stream[at] ^= mask;
        let (seen, _) = responses(&stream);
        // Frames in front of the damaged one are untouched.
        let mut intact = 0;
        let mut end = 0;
        for resp in &sent {
            end += response_frame(resp).len();
            if end <= at {
                intact += 1;
            }
        }
        prop_assert!(seen.len() >= intact);
        prop_assert_eq!(&seen[..intact], &sent[..intact]);
    }

    #[test]
    fn a_response_mutated_and_resealed_decodes_canonically_or_not_at_all(
        resp in arb_response(),
        at in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        // Past the CRC's guard: the damaged payload carries a fresh,
        // matching checksum, so the field decoder itself is what stands
        // between these bytes and a panic. `responses` re-encodes what
        // it accepts.
        let mut payload = payload(&response_frame(&resp));
        let at = ((payload.len() - 1) as f64 * at) as usize;
        payload[at] = byte;
        let (seen, end) = responses(&sealed(&payload));
        prop_assert!(seen.len() == 1 || end.is_some(), "a sealed frame is a response or an error");
        // Every shorter payload is a frame some older or damaged peer
        // could have sealed, too.
        for keep in 0..payload.len() {
            responses(&sealed(&payload[..keep]));
        }
    }

    /// Fails if `decode_u64_tail` loses its `is_empty` arm (a payload
    /// that ends after `flags`, or after `trace_id`, becomes
    /// `Varint(Truncated)` where the defaults are documented) and fails
    /// if it answers a torn varint with the default instead of the
    /// error (`decode_u64(buf).or(Ok(0))`: a cut inside the trace id
    /// reads as an untraced frame).
    #[test]
    fn a_trailer_cut_anywhere_reads_as_absent_fields_or_an_error_never_as_half_an_id(
        req in arb_request(),
        resp in arb_response(),
        sizes in arb_chunks(),
    ) {
        let torn = "Varint(Truncated)".to_string();

        let bytes = payload(&frame(&req, 0));
        let span_at = bytes.len() - varint(req.trace.span).len();
        let flags_end = span_at - varint(req.trace.trace.0).len();
        for keep in flags_end..=bytes.len() {
            let want = match keep {
                k if k == flags_end => Ok(Request { trace: TraceContext::NONE, ..req }),
                k if k == span_at => {
                    Ok(Request { trace: TraceContext::root(req.trace.trace), ..req })
                }
                k if k == bytes.len() => Ok(req),
                _ => Err(torn.clone()),
            };
            let (oracle, batched) = both(&sealed(&bytes[..keep]), &sizes);
            prop_assert_eq!(&oracle, &one(want), "request kept {} of {}", keep, bytes.len());
            prop_assert_eq!(batched, oracle);
        }

        let bytes = payload(&response_frame(&resp));
        let body_len = resp.body.as_ref().map_or(0, String::len);
        let body_at = bytes.len() - body_len;
        let len_at = body_at - varint(body_len as u64).len();
        let flags_end = len_at - varint(resp.trace_id).len();
        for keep in flags_end..=bytes.len() {
            let want = match keep {
                k if k == flags_end => Ok(Response { trace_id: 0, body: None, ..resp.clone() }),
                k if k == len_at => Ok(Response { body: None, ..resp.clone() }),
                k if k == bytes.len() => Ok(resp.clone()),
                k if k < body_at => Err(torn.clone()),
                _ => Err("Truncated".to_string()),
            };
            let seen = responses(&sealed(&bytes[..keep]));
            prop_assert_eq!(seen, one(want), "response kept {} of {}", keep, bytes.len());
        }
    }

    /// Fails if `decode_u64_tail` takes an overflowing varint for an
    /// absent one (`Err(VarintError::Overflow) => Ok(0)`: a ten-byte
    /// trace id whose last byte is overwritten reads as untraced), which
    /// no cut can show — a cut varint is only ever `Truncated`.
    #[test]
    fn a_trailer_mutated_and_resealed_decodes_canonically_or_not_at_all(
        req in arb_request(),
        resp in arb_response(),
        sizes in arb_chunks(),
        at in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        // One byte of the two varints overwritten and the payload sealed
        // again: the fields in front are what was sent, and the trailer
        // is what `trailer` reads off the damaged bytes — a longer id
        // that swallowed its neighbour, a shorter one followed by bytes
        // a decoder ignores — or its error. `both` holds the two request
        // readers against each other; `responses` re-encodes what it
        // accepts.
        let mut bytes = payload(&frame(&req, 0));
        let flags_end =
            bytes.len() - varint(req.trace.trace.0).len() - varint(req.trace.span).len();
        let at_req = flags_end + ((bytes.len() - flags_end - 1) as f64 * at) as usize;
        bytes[at_req] = byte;
        let want = trailer(&mut &bytes[flags_end..]).map(|(trace, span)| {
            Request { trace: TraceContext { trace: TraceId(trace), span }, ..req }
        });
        let (oracle, batched) = both(&sealed(&bytes), &sizes);
        prop_assert_eq!(&oracle, &one(want));
        prop_assert_eq!(batched, oracle);

        let mut bytes = payload(&response_frame(&resp));
        let body_len = resp.body.as_ref().map_or(0, String::len);
        let body_at = bytes.len() - body_len;
        let flags_end = body_at - varint(body_len as u64).len() - varint(resp.trace_id).len();
        bytes[flags_end + ((body_at - flags_end - 1) as f64 * at) as usize] = byte;
        let mut rest = &bytes[flags_end..];
        let want = trailer(&mut rest).and_then(|(trace_id, len)| {
            let body = match len as usize {
                0 => None,
                len if len > rest.len() => return Err("Truncated".to_string()),
                len => Some(String::from_utf8_lossy(&rest[..len]).into_owned()),
            };
            Ok(Response { trace_id, body, ..resp.clone() })
        });
        prop_assert_eq!(responses(&sealed(&bytes)), one(want));
    }

    #[test]
    fn a_response_length_over_the_cap_is_refused_before_it_is_believed(
        sent in prop::collection::vec(arb_response(), 0..4),
        excess in 1u64..u64::MAX - MAX_FRAME as u64,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut stream: Vec<u8> = sent.iter().flat_map(response_frame).collect();
        let declared = MAX_FRAME as u64 + excess;
        encode_u64(&mut stream, declared);
        stream.extend_from_slice(&tail);
        prop_assert_eq!(responses(&stream), (sent, Some(format!("Oversized({declared})"))));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_response_reader(
        stream in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        responses(&stream);
    }

    #[test]
    fn a_believable_response_length_over_garbage_never_panics(
        declared in 0usize..=MAX_FRAME,
        body in prop::collection::vec(any::<u8>(), 0..2_000),
    ) {
        let mut stream = Vec::new();
        encode_u64(&mut stream, declared as u64);
        stream.extend_from_slice(&body);
        responses(&stream);
    }

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
