//! Length-prefixed binary protocol for observatory queries.
//!
//! Frames reuse the `logfmt` lease idiom: a varint length prefix, the
//! payload, then a little-endian CRC-32 of the payload. A torn or
//! bit-flipped frame is *detected*, never half-parsed. Integers inside
//! payloads are LEB128 varints. A layout grows only at its trailer,
//! with one exception: responses lost two always-zero progress varints
//! after `coverage_ppm` when the deadline status was retired, so a
//! response frame written before that does not decode today.
//!
//! ```text
//! frame    := varint(payload_len) payload crc32(payload) as 4 LE bytes
//! request  := 0x51 varint(id) kind:u8 varint(a) varint(b)
//!             varint(budget_ms) flags:u8          ; read and ignored
//!             [varint(trace_id) varint(parent_span)]   ; absent = untraced
//! response := 0x52 varint(id) varint(epoch) status:u8 varint(value)
//!             varint(coverage_ppm)
//!             flags:u8                            ; flags bit0 = from_density
//!             [varint(trace_id) varint(body_len) body] ; absent = untraced, no body
//! status   := 0 Ok | 1 Degraded | 3 Overloaded | 4 BadRequest  ; 2 is retired
//! ```
//!
//! The bracketed trailers are the trace-context propagation added for
//! the distributed tracing plane: requests carry the client's
//! `(trace_id, parent_span)` so server-side spans hang off the
//! client's root, responses echo the trace id and may carry a JSON
//! body (the `Telemetry` / `Trace` kinds). Decoders treat a missing
//! trailer as "untraced / no body", so a pre-trace client's requests
//! still decode.
//!
//! Two readers, one format. [`read_request`] / [`read_response`] take
//! one frame at a time from any `Read` and consume not a byte past it:
//! what a client with one stream and no buffer of its own needs, and
//! the oracle. [`RequestReader`] owns a read-ahead buffer, asks its
//! source once per wake and parses every frame that arrived in place:
//! what the server's connection loop runs on. A frame without a body —
//! every request, every scalar answer — is built in a stack array,
//! written with one `write_all`, and parsed from a stack array or
//! where it lies in the read-ahead buffer, so the steady state
//! allocates nothing here (`tests/alloc.rs`).

use std::fmt;
use std::io::{self, Read, Write};

use ipactive_logfmt::{crc32, decode_u64, encode_u64, VarintError};
use ipactive_obs::{TraceContext, TraceId};

/// First payload byte of every request frame.
const REQUEST_MAGIC: u8 = 0x51;
/// First payload byte of every response frame.
const RESPONSE_MAGIC: u8 = 0x52;
/// Upper bound on a sane frame; anything larger is a corrupt length.
const MAX_FRAME: u64 = 1 << 20;
/// Longest LEB128 encoding of a `u64`.
const VARINT_MAX: usize = 10;

/// Error reading or decoding a wire frame.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error.
    Io(io::Error),
    /// The stream ended inside a frame (a clean EOF *between* frames is
    /// reported as `Ok(None)` by `read_frame`, not as an error).
    Truncated,
    /// A varint field was malformed.
    Varint(VarintError),
    /// The payload CRC did not match: the frame was damaged in flight.
    CrcMismatch,
    /// The length prefix exceeded the sanity cap.
    Oversized(u64),
    /// The payload did not start with the expected magic byte.
    BadMagic(u8),
    /// Unknown query kind or status discriminant.
    BadDiscriminant(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Truncated => write!(f, "frame truncated mid-stream"),
            WireError::Varint(e) => write!(f, "bad varint field: {e}"),
            WireError::CrcMismatch => write!(f, "frame CRC mismatch"),
            WireError::Oversized(n) => write!(f, "frame length {n} exceeds cap {MAX_FRAME}"),
            WireError::BadMagic(b) => write!(f, "unexpected frame magic {b:#04x}"),
            WireError::BadDiscriminant(b) => write!(f, "unknown discriminant {b}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<VarintError> for WireError {
    fn from(e: VarintError) -> Self {
        WireError::Varint(e)
    }
}

/// What a request asks the observatory to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Distinct active addresses over the half-open day window `start..end`.
    DayWindow {
        /// First day (inclusive).
        start: u64,
        /// One past the last day.
        end: u64,
    },
    /// Distinct active addresses over the half-open week window `start..end`.
    WeekWindow {
        /// First week (inclusive).
        start: u64,
        /// One past the last week.
        end: u64,
    },
    /// Active-address count inside one prefix, answered from the
    /// density index (`len` ≤ 24).
    PrefixCount {
        /// Prefix base address.
        base: u32,
        /// Prefix length in bits.
        len: u8,
    },
    /// Server status probe: answers with the current epoch and ingested
    /// day count (in `value`), never touches the engine.
    Status,
    /// Live telemetry probe: answers with the server registry's
    /// deterministic metrics snapshot as the response JSON body.
    Telemetry,
    /// Trace lookup: answers with the stitched span tree of
    /// `trace_id` as the response JSON body (`BadRequest` when the
    /// trace is unknown).
    Trace {
        /// The trace id to look up.
        trace_id: u64,
    },
}

impl QueryKind {
    /// Stable lowercase label, used as span detail and in CLI output.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::DayWindow { .. } => "day_window",
            QueryKind::WeekWindow { .. } => "week_window",
            QueryKind::PrefixCount { .. } => "prefix_count",
            QueryKind::Status => "status",
            QueryKind::Telemetry => "telemetry",
            QueryKind::Trace { .. } => "trace",
        }
    }

    fn discriminant(self) -> u8 {
        match self {
            QueryKind::DayWindow { .. } => 1,
            QueryKind::WeekWindow { .. } => 2,
            QueryKind::PrefixCount { .. } => 3,
            QueryKind::Status => 4,
            QueryKind::Telemetry => 5,
            QueryKind::Trace { .. } => 6,
        }
    }

    fn operands(self) -> (u64, u64) {
        match self {
            QueryKind::DayWindow { start, end } | QueryKind::WeekWindow { start, end } => {
                (start, end)
            }
            QueryKind::PrefixCount { base, len } => (u64::from(base), u64::from(len)),
            QueryKind::Status | QueryKind::Telemetry => (0, 0),
            QueryKind::Trace { trace_id } => (trace_id, 0),
        }
    }
}

/// One query addressed to the observatory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The computation being requested.
    pub kind: QueryKind,
    /// Carried on the wire and ignored: every query is answered in
    /// full. Kept by name for `benchmark/` (ROADMAP item 1).
    pub budget_ms: u64,
    /// Carried on the wire (flags bit 0) and ignored. Kept by name for
    /// `benchmark/` (ROADMAP item 1).
    pub allow_degraded: bool,
    /// Trace context propagated from the client
    /// ([`TraceContext::NONE`] for untraced requests): server-side
    /// spans hang off `trace.span` so the client's root and the
    /// server's tree stitch into one trace.
    pub trace: TraceContext,
}

/// Outcome class of a response; every admitted request gets exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Exact answer from fully ingested data.
    Ok,
    /// An answer was produced but is *not* the exact batch answer —
    /// either the window coverage is partial or the value came from the
    /// density approximation. Inspect `coverage_ppm` / `from_density`.
    Degraded,
    /// The admission queue was full; the request was never executed.
    Overloaded,
    /// The request was malformed or out of range.
    BadRequest,
}

impl Status {
    fn discriminant(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Degraded => 1,
            Status::Overloaded => 3,
            Status::BadRequest => 4,
        }
    }

    fn from_discriminant(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::Degraded,
            3 => Status::Overloaded,
            4 => Status::BadRequest,
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// The observatory's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Epoch of the snapshot the answer was computed against.
    pub epoch: u64,
    /// Outcome class.
    pub status: Status,
    /// The count (or, for `Status` probes, the ingested day count).
    pub value: u64,
    /// Window coverage in parts-per-million: `1_000_000` means every
    /// day in the window was fully fed; less annotates partial feeds or
    /// a clamped horizon.
    pub coverage_ppm: u64,
    /// True when `value` came from the [`PrefixDensity`]
    /// approximation rather than exact set composition.
    ///
    /// [`PrefixDensity`]: ipactive_net::PrefixDensity
    pub from_density: bool,
    /// Echo of the request's trace id (`0` for untraced requests), so
    /// the client can link this answer's latency observation back to
    /// its trace.
    pub trace_id: u64,
    /// JSON document body for `Telemetry` / `Trace` answers; `None`
    /// for every scalar answer.
    pub body: Option<String>,
}

impl Response {
    /// Coverage denominator: one million, i.e. a fully-fed window.
    pub const FULL_COVERAGE: u64 = 1_000_000;
}

/// Payload bytes kept on the stack: every frame without a body fits
/// (the longest has three single bytes and six varints of at most ten
/// bytes), so writing or reading one allocates nothing. Below 128, so
/// such a frame's length prefix is one byte.
const INLINE: usize = 96;

/// A frame without a body, built in place on the stack: the length
/// byte, the payload's scalar fields as they are appended, and room
/// for the CRC.
struct ScalarFrame {
    bytes: [u8; 1 + INLINE + 4],
    /// End of the payload so far.
    end: usize,
}

impl ScalarFrame {
    fn new(magic: u8) -> ScalarFrame {
        let mut bytes = [0; 1 + INLINE + 4];
        bytes[1] = magic;
        ScalarFrame { bytes, end: 2 }
    }

    #[inline]
    fn push(&mut self, byte: u8) {
        self.bytes[self.end] = byte;
        self.end += 1;
    }

    /// Appends `v` as a LEB128 varint, byte for byte what
    /// `logfmt::encode_u64` appends to a `Vec`.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.push(v as u8);
    }

    fn payload(&self) -> &[u8] {
        &self.bytes[1..self.end]
    }

    /// Lays the length in front of the payload and the CRC behind it.
    fn seal(&mut self) -> &[u8] {
        let crc = crc32(self.payload());
        self.bytes[0] = (self.end - 1) as u8;
        self.bytes[self.end..self.end + 4].copy_from_slice(&crc.to_le_bytes());
        &self.bytes[..self.end + 4]
    }
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(b)
}

/// Decodes a trailer varint: an exhausted payload means the peer
/// predates the trailer and the default (0) applies.
fn decode_u64_tail(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.is_empty() {
        Ok(0)
    } else {
        Ok(decode_u64(buf)?)
    }
}

fn decode_request(mut p: &[u8]) -> Result<Request, WireError> {
    let magic = take_u8(&mut p)?;
    if magic != REQUEST_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let id = decode_u64(&mut p)?;
    let kind_b = take_u8(&mut p)?;
    let a = decode_u64(&mut p)?;
    let b = decode_u64(&mut p)?;
    let kind = match kind_b {
        1 => QueryKind::DayWindow { start: a, end: b },
        2 => QueryKind::WeekWindow { start: a, end: b },
        3 => QueryKind::PrefixCount {
            base: u32::try_from(a).map_err(|_| WireError::BadDiscriminant(kind_b))?,
            len: u8::try_from(b).map_err(|_| WireError::BadDiscriminant(kind_b))?,
        },
        4 => QueryKind::Status,
        5 => QueryKind::Telemetry,
        6 => QueryKind::Trace { trace_id: a },
        other => return Err(WireError::BadDiscriminant(other)),
    };
    let budget_ms = decode_u64(&mut p)?;
    let flags = take_u8(&mut p)?;
    let trace = TraceId(decode_u64_tail(&mut p)?);
    let span = decode_u64_tail(&mut p)?;
    Ok(Request {
        id,
        kind,
        budget_ms,
        allow_degraded: flags & 1 != 0,
        trace: TraceContext { trace, span },
    })
}

fn decode_response(mut p: &[u8]) -> Result<Response, WireError> {
    let magic = take_u8(&mut p)?;
    if magic != RESPONSE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let id = decode_u64(&mut p)?;
    let epoch = decode_u64(&mut p)?;
    let status = Status::from_discriminant(take_u8(&mut p)?)?;
    let value = decode_u64(&mut p)?;
    let coverage_ppm = decode_u64(&mut p)?;
    let flags = take_u8(&mut p)?;
    let trace_id = decode_u64_tail(&mut p)?;
    let body = match decode_u64_tail(&mut p)? {
        0 => None,
        len => {
            let len = usize::try_from(len).map_err(|_| WireError::Truncated)?;
            if len > p.len() {
                return Err(WireError::Truncated);
            }
            let (bytes, _rest) = p.split_at(len);
            Some(String::from_utf8_lossy(bytes).into_owned())
        }
    };
    Ok(Response {
        id,
        epoch,
        status,
        value,
        coverage_ppm,
        from_density: flags & 1 != 0,
        trace_id,
        body,
    })
}

/// Writes `payload` as one frame with one `write_all`, so a frame
/// crosses a pipe (and wakes its reader) once, not in pieces. The
/// allocating path: a frame without a body is a [`ScalarFrame`].
fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 16);
    encode_u64(&mut frame, payload.len() as u64);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame)
}

/// Reads one byte; `None` at end of stream.
fn read_byte<R: Read + ?Sized>(r: &mut R) -> Result<Option<u8>, WireError> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Reads one frame and hands its payload to `decode`. `Ok(None)`
/// means the peer closed the stream cleanly *between* frames; EOF
/// inside a frame is [`WireError::Truncated`].
fn read_frame<R: Read + ?Sized, T>(
    r: &mut R,
    decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    // The length prefix is gathered byte by byte — nothing past the
    // frame may be consumed, and a clean EOF before the first byte
    // must stay distinguishable from a torn frame — and then decoded
    // by the one varint rule, so an over-long prefix is an overflow
    // here exactly as in `RequestReader`.
    let mut prefix = [0u8; VARINT_MAX];
    let mut n = 0;
    loop {
        match read_byte(r)? {
            Some(byte) => prefix[n] = byte,
            None if n == 0 => return Ok(None),
            None => return Err(WireError::Truncated),
        }
        n += 1;
        if prefix[n - 1] & 0x80 == 0 || n == VARINT_MAX {
            break;
        }
    }
    let len = decode_u64(&mut &prefix[..n])?;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let len = len as usize;
    // Payload and CRC: on the stack when they fit, which every frame
    // without a body does.
    let mut inline = [0u8; INLINE + 4];
    let mut heap = Vec::new();
    let frame = if len <= INLINE {
        &mut inline[..len + 4]
    } else {
        heap.resize(len + 4, 0);
        &mut heap[..]
    };
    r.read_exact(frame)?;
    let (payload, crc) = frame.split_at(len);
    if crc != crc32(payload).to_le_bytes() {
        return Err(WireError::CrcMismatch);
    }
    decode(payload).map(Some)
}

/// Size of the read-ahead buffer a [`RequestReader`] starts with:
/// several hundred request frames, far more than a wake delivers.
const READ_BUF: usize = 8 * 1024;

/// Reads request frames off a stream a wake at a time.
///
/// Where [`read_request`] asks the source for a frame's length byte by
/// byte, then its payload, then its CRC, this reader asks once for as
/// much as there is room for and parses every complete frame out of
/// its own buffer in place: a server whose client has 32 requests in
/// flight pays one `read` for all that have arrived, and
/// [`read_buffered`](RequestReader::read_buffered) tells it when to
/// stop decoding and admit the batch. What the two deliver is the same
/// for every byte stream and every way of chunking it (the proptests
/// in `tests/wire_reader.rs` hold them against each other).
///
/// The buffer grows only for a frame longer than it, and never beyond
/// the largest frame the protocol allows. After an error the stream is
/// unsynchronized, as with `read_request`: hang up.
pub struct RequestReader<R> {
    src: R,
    /// `buf[start..end]` is read and not yet parsed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes, counted from `start`, the frame under way needs before
    /// it can be parsed (one more than there are while its length
    /// prefix is incomplete).
    need: usize,
    eof: bool,
}

impl<R: Read> RequestReader<R> {
    /// Wraps `src`; nothing is read until the first call.
    pub fn new(src: R) -> RequestReader<R> {
        RequestReader { src, buf: vec![0; READ_BUF], start: 0, end: 0, need: 1, eof: false }
    }

    /// The next request, reading from the source only if no complete
    /// frame is buffered; `Ok(None)` on clean EOF between frames.
    pub fn read(&mut self) -> Result<Option<Request>, WireError> {
        loop {
            if let Some(req) = self.read_buffered()? {
                return Ok(Some(req));
            }
            if self.eof {
                return if self.start == self.end { Ok(None) } else { Err(WireError::Truncated) };
            }
            self.fill()?;
        }
    }

    /// The next request if a complete frame is already buffered;
    /// `Ok(None)` when getting one would mean reading the source.
    pub fn read_buffered(&mut self) -> Result<Option<Request>, WireError> {
        let unparsed = &self.buf[self.start..self.end];
        let mut rest = unparsed;
        let len = match decode_u64(&mut rest) {
            Ok(len) => len,
            Err(VarintError::Truncated) => {
                self.need = unparsed.len() + 1;
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        if len > MAX_FRAME {
            return Err(WireError::Oversized(len));
        }
        let len = len as usize;
        if rest.len() < len + 4 {
            self.need = unparsed.len() - rest.len() + len + 4;
            return Ok(None);
        }
        let (payload, rest) = rest.split_at(len);
        let (crc, rest) = rest.split_at(4);
        self.start = self.end - rest.len();
        if crc != crc32(payload).to_le_bytes() {
            return Err(WireError::CrcMismatch);
        }
        decode_request(payload).map(Some)
    }

    /// One `read` of the source into the free tail of the buffer, after
    /// moving what is unparsed to the front and making room for the
    /// frame under way.
    fn fill(&mut self) -> Result<(), WireError> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < self.need {
            self.buf.reserve_exact(self.need - self.buf.len());
            self.buf.resize(self.need, 0);
        }
        let n = loop {
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        self.end += n;
        self.eof = n == 0;
        Ok(())
    }
}

/// Writes one request frame.
pub fn write_request<W: Write + ?Sized>(w: &mut W, req: &Request) -> io::Result<()> {
    let mut f = ScalarFrame::new(REQUEST_MAGIC);
    f.varint(req.id);
    f.push(req.kind.discriminant());
    let (a, b) = req.kind.operands();
    f.varint(a);
    f.varint(b);
    f.varint(req.budget_ms);
    f.push(u8::from(req.allow_degraded));
    f.varint(req.trace.trace.0);
    f.varint(req.trace.span);
    w.write_all(f.seal())
}

/// Reads one request frame; `Ok(None)` on clean EOF.
pub fn read_request<R: Read + ?Sized>(r: &mut R) -> Result<Option<Request>, WireError> {
    read_frame(r, decode_request)
}

/// Writes one response frame.
pub fn write_response<W: Write + ?Sized>(w: &mut W, resp: &Response) -> io::Result<()> {
    let mut f = ScalarFrame::new(RESPONSE_MAGIC);
    f.varint(resp.id);
    f.varint(resp.epoch);
    f.push(resp.status.discriminant());
    f.varint(resp.value);
    f.varint(resp.coverage_ppm);
    f.push(u8::from(resp.from_density));
    f.varint(resp.trace_id);
    match &resp.body {
        None => {
            f.varint(0);
            w.write_all(f.seal())
        }
        Some(body) => {
            f.varint(body.len() as u64);
            let mut payload = Vec::with_capacity(f.payload().len() + body.len());
            payload.extend_from_slice(f.payload());
            payload.extend_from_slice(body.as_bytes());
            write_frame(w, &payload)
        }
    }
}

/// Reads one response frame; `Ok(None)` on clean EOF.
pub fn read_response<R: Read + ?Sized>(r: &mut R) -> Result<Option<Response>, WireError> {
    read_frame(r, decode_response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request {
                id: 0,
                kind: QueryKind::DayWindow { start: 0, end: 7 },
                budget_ms: 0,
                allow_degraded: false,
                trace: TraceContext::NONE,
            },
            Request {
                id: u64::MAX,
                kind: QueryKind::WeekWindow { start: 3, end: 52 },
                budget_ms: 25,
                allow_degraded: true,
                trace: TraceContext { trace: TraceId(0xDEAD_BEEF), span: 3 },
            },
            Request {
                id: 17,
                kind: QueryKind::PrefixCount {
                    base: 0x0a00_0000,
                    len: 24,
                },
                budget_ms: 1,
                allow_degraded: false,
                trace: TraceContext::NONE,
            },
            Request {
                id: 1,
                kind: QueryKind::Status,
                budget_ms: 0,
                allow_degraded: true,
                trace: TraceContext::NONE,
            },
            Request {
                id: 2,
                kind: QueryKind::Telemetry,
                budget_ms: 0,
                allow_degraded: true,
                trace: TraceContext::NONE,
            },
            Request {
                id: 3,
                kind: QueryKind::Trace { trace_id: 0xABCD },
                budget_ms: 0,
                allow_degraded: true,
                trace: TraceContext::NONE,
            },
        ]
    }

    /// A frame's payload, copied out.
    fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
        super::read_frame(r, |payload| Ok(payload.to_vec()))
    }

    /// The payload of `resp`'s frame.
    fn encode_response(resp: &Response) -> Vec<u8> {
        let mut frame = Vec::new();
        write_response(&mut frame, resp).unwrap();
        read_frame(&mut &frame[..]).unwrap().unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn sample_responses() -> Vec<Response> {
        let scalar = Response {
            id: 42,
            epoch: 9,
            status: Status::Degraded,
            value: 123_456,
            coverage_ppm: 750_000,
            from_density: true,
            trace_id: 0,
            body: None,
        };
        let body = Some("{\n  \"traces\": []\n}\n".to_string());
        vec![
            scalar.clone(),
            Response { trace_id: 0xDEAD_BEEF, ..scalar.clone() },
            Response { status: Status::Ok, from_density: false, body: body.clone(), ..scalar.clone() },
            Response { id: u64::MAX, trace_id: 5, body, ..scalar },
        ]
    }

    /// The exact frames the protocol put on the wire before the
    /// allocation-free codec: whoever changes how frames are built may
    /// not change what they are.
    #[test]
    fn wire_bytes_are_pinned() {
        const REQUESTS: [&str; 6] = [
            "095100010007000000003f967797",
            "1651ffffffffffffffffff010203341901effdb6f50d03c0481a07",
            "0c511103808080501801000000b2ac9e01",
            "09510104000000010000210f07ba",
            "095102050000000100007603ff92",
            "0b510306cdd702000001000090d55789",
        ];
        // No body and untraced, no body and traced, body and
        // untraced, body and traced.
        const RESPONSES: [&str; 4] = [
            "0d522a0901c0c407b0e32d0100003f6583a5",
            "11522a0901c0c407b0e32d01effdb6f50d0044410c18",
            "20522a0900c0c407b0e32d0000137b0a202022747261636573223a205b5d0a7d0ad1cf1f89",
            "2952ffffffffffffffffff010901c0c407b0e32d0105137b0a202022747261636573223a205b5d0a7d0a9db472b5",
        ];
        for (req, want) in sample_requests().iter().zip(REQUESTS) {
            let mut buf = Vec::new();
            write_request(&mut buf, req).unwrap();
            assert_eq!(hex(&buf), want, "{req:?}");
        }
        for (resp, want) in sample_responses().iter().zip(RESPONSES) {
            let mut buf = Vec::new();
            write_response(&mut buf, resp).unwrap();
            assert_eq!(hex(&buf), want, "{resp:?}");
        }
    }

    #[test]
    fn requests_round_trip_through_one_stream() {
        let mut buf = Vec::new();
        let reqs = sample_requests();
        for r in &reqs {
            write_request(&mut buf, r).unwrap();
        }
        let mut cursor = &buf[..];
        for want in &reqs {
            let got = read_request(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(read_request(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response {
            id: 42,
            epoch: 9,
            status: Status::Degraded,
            value: 123_456,
            coverage_ppm: 750_000,
            from_density: true,
            trace_id: 0xDEAD_BEEF,
            body: None,
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let got = read_response(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn response_bodies_round_trip() {
        let resp = Response {
            id: 7,
            epoch: 1,
            status: Status::Ok,
            value: 0,
            coverage_ppm: Response::FULL_COVERAGE,
            from_density: false,
            trace_id: 5,
            body: Some("{\n  \"traces\": []\n}\n".to_string()),
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let got = read_response(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn pre_trace_frames_decode_as_untraced() {
        // A request frame exactly as a pre-trace client would encode
        // it: no trailing (trace_id, parent_span) varints.
        let mut p = Vec::new();
        p.push(REQUEST_MAGIC);
        encode_u64(&mut p, 11); // id
        p.push(4); // Status
        encode_u64(&mut p, 0);
        encode_u64(&mut p, 0);
        encode_u64(&mut p, 0); // budget
        p.push(1); // allow_degraded
        let mut buf = Vec::new();
        write_frame(&mut buf, &p).unwrap();
        let req = read_request(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(req.id, 11);
        assert_eq!(req.trace, TraceContext::NONE, "missing trailer means untraced");

        // And a pre-trace response: no trace_id, no body.
        let mut p = Vec::new();
        p.push(RESPONSE_MAGIC);
        encode_u64(&mut p, 11);
        encode_u64(&mut p, 2); // epoch
        p.push(0); // Ok
        encode_u64(&mut p, 99); // value
        encode_u64(&mut p, Response::FULL_COVERAGE);
        p.push(0); // flags
        let mut buf = Vec::new();
        write_frame(&mut buf, &p).unwrap();
        let resp = read_response(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(resp.trace_id, 0);
        assert_eq!(resp.body, None);
        assert_eq!(resp.value, 99);
    }

    #[test]
    fn body_length_beyond_payload_is_truncation() {
        let resp = Response {
            id: 1,
            epoch: 1,
            status: Status::Ok,
            value: 0,
            coverage_ppm: 0,
            from_density: false,
            trace_id: 0,
            body: Some("abcdef".to_string()),
        };
        let payload = encode_response(&resp);
        // Chop the body bytes off but keep the length varint intact.
        let torn = &payload[..payload.len() - 3];
        let err = decode_response(torn).unwrap_err();
        assert!(matches!(err, WireError::Truncated), "got {err}");
    }

    #[test]
    fn corrupt_crc_is_detected_not_parsed() {
        let mut buf = Vec::new();
        write_request(&mut buf, &sample_requests()[0]).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = read_request(&mut &buf[..]).unwrap_err();
        assert!(
            matches!(err, WireError::CrcMismatch | WireError::BadMagic(_)),
            "flipped bit must surface as corruption, got {err}"
        );
    }

    #[test]
    fn truncation_mid_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_request(&mut buf, &sample_requests()[1]).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_request(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, WireError::Truncated), "got {err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, MAX_FRAME + 1);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, WireError::Oversized(_)), "got {err}");
    }

    #[test]
    fn an_over_long_length_prefix_is_an_overflow_not_a_frame() {
        // A valid frame whose one-byte length is re-spelt as ten bytes
        // with bits beyond the 64th set: shifted out of a hand-rolled
        // decoder, they made this a frame of the original length.
        let mut frame = Vec::new();
        write_request(&mut frame, &sample_requests()[0]).unwrap();
        let mut padded = vec![frame[0] | 0x80];
        padded.extend_from_slice(&[0x80; 8]);
        padded.push(0x7E);
        padded.extend_from_slice(&frame[1..]);
        // Nine empty continuation bytes, then a tenth carrying bit 64:
        // this one read as length 0 and then as a torn frame.
        let mut shifted_out = vec![0x80; 9];
        shifted_out.push(0x02);
        for bytes in [padded, shifted_out] {
            let err = read_request(&mut &bytes[..]).unwrap_err();
            assert!(matches!(err, WireError::Varint(VarintError::Overflow)), "read_request: {err}");
            let err = RequestReader::new(&bytes[..]).read().unwrap_err();
            assert!(matches!(err, WireError::Varint(VarintError::Overflow)), "RequestReader: {err}");
        }
    }

    #[test]
    fn the_batch_reader_delivers_what_arrived_and_then_waits() {
        let reqs = sample_requests();
        let mut stream = Vec::new();
        for r in &reqs {
            write_request(&mut stream, r).unwrap();
        }
        // All six frames and the head of a seventh arrive at once.
        let whole = stream.len();
        stream.extend_from_slice(&stream.clone()[..5]);
        let mut reader = RequestReader::new(&stream[..]);
        assert_eq!(reader.read().unwrap().as_ref(), Some(&reqs[0]));
        for want in &reqs[1..] {
            assert_eq!(reader.read_buffered().unwrap().as_ref(), Some(want));
        }
        assert!(reader.read_buffered().unwrap().is_none(), "a partial frame is not an answer yet");
        assert_eq!(reader.start, whole);
        let err = reader.read().unwrap_err();
        assert!(matches!(err, WireError::Truncated), "the stream ends inside it: {err}");
    }

    #[test]
    fn unknown_kind_discriminant_is_rejected() {
        let mut p = Vec::new();
        p.push(REQUEST_MAGIC);
        encode_u64(&mut p, 5); // id
        p.push(9); // bogus kind
        encode_u64(&mut p, 0);
        encode_u64(&mut p, 0);
        encode_u64(&mut p, 0);
        p.push(0);
        let mut buf = Vec::new();
        write_frame(&mut buf, &p).unwrap();
        let err = read_request(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, WireError::BadDiscriminant(9)), "got {err}");

        // Status 2 was the deadline status; retired, it is no status.
        let mut p = Vec::new();
        p.push(RESPONSE_MAGIC);
        encode_u64(&mut p, 5); // id
        encode_u64(&mut p, 1); // epoch
        p.push(2); // status
        encode_u64(&mut p, 0); // value
        encode_u64(&mut p, 0); // coverage_ppm
        p.push(0); // flags
        let mut buf = Vec::new();
        write_frame(&mut buf, &p).unwrap();
        let err = read_response(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, WireError::BadDiscriminant(2)), "got {err}");
    }
}
