//! Length-delimited, checksummed framing.
//!
//! Frame layout on the wire:
//!
//! ```text
//! +--------+-------------------+------------------+----------------+
//! | 0xA5   | payload_len (LEB) | payload          | crc32 (4B LE)  |
//! +--------+-------------------+------------------+----------------+
//! ```
//!
//! The CRC covers the payload bytes only. The leading sync byte lets a
//! tolerant reader distinguish "clean end of stream" from "stream died
//! mid-frame" and catch gross desynchronization cheaply.

use crate::record::{decode_in_place, DecodeError, Record};
use crate::varint::{decode_u64, encode_u64_at_end, VarintError, MAX_LEN};
use crate::crc::crc32;
use std::io::{self, Read, Write};
use std::ops::Range;

/// Frame sync byte. A value unlikely to begin valid varint runs.
pub(crate) const SYNC: u8 = 0xA5;

/// Upper bound on a single frame payload; anything larger is treated as
/// corruption (records are tiny — tens of bytes).
pub(crate) const MAX_PAYLOAD: u64 = 1 << 16;

/// How a [`FrameReader`] reacts to damaged frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Return an error on the first damaged frame.
    Strict,
    /// Skip frames with bad checksums or undecodable payloads, scan
    /// forward to the next sync byte after desynchronization, and keep
    /// reading. Data can be lost but never fabricated (every delivered
    /// frame passed its CRC). Skipped frames are counted in
    /// [`FrameReader::skipped`], resynchronizations in
    /// [`FrameReader::resyncs`].
    Tolerant,
}

/// Widest frame header: the sync byte plus a full-width length varint.
const HEADER_MAX: usize = 1 + MAX_LEN;

/// Streaming writer of framed [`Record`]s.
pub struct FrameWriter<W: Write> {
    inner: W,
    // Persistent frame scratch: `write` is the hottest path in the
    // pipeline, and a fresh Vec per record was a measurable allocator
    // tax.
    scratch: Vec<u8>,
    written: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        FrameWriter { inner, scratch: Vec::with_capacity(64), written: 0 }
    }

    /// Writes one record as a frame.
    pub fn write(&mut self, rec: &Record) -> io::Result<()> {
        // The payload goes behind a gap wide enough for any header;
        // once its length is known the header is laid right-aligned
        // into the gap, so the frame is contiguous and leaves in one
        // write.
        self.scratch.clear();
        self.scratch.resize(HEADER_MAX, 0);
        rec.encode(&mut self.scratch);
        let (gap, payload) = self.scratch.split_at_mut(HEADER_MAX);
        let frame_at = encode_u64_at_end(gap, payload.len() as u64) - 1;
        gap[frame_at] = SYNC;
        let crc = crc32(payload);
        self.scratch.extend_from_slice(&crc.to_le_bytes());
        self.inner.write_all(&self.scratch[frame_at..])?;
        self.written += 1;
        Ok(())
    }

    /// Number of frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.written
    }

    /// Writes the [`Record::Finish`] marker and flushes, consuming the
    /// writer and returning the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.write(&Record::Finish)?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Error from [`FrameReader::read`].
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Stream ended inside a frame.
    TruncatedFrame,
    /// Sync byte missing where a frame should begin.
    LostSync {
        /// The byte found instead of the sync marker.
        found: u8,
    },
    /// Declared payload length is implausible.
    OversizedFrame(u64),
    /// Payload length field malformed.
    BadLength(VarintError),
    /// Checksum mismatch (strict mode only; tolerant mode skips).
    BadChecksum,
    /// Payload did not decode as a record (strict mode only).
    BadRecord(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::TruncatedFrame => write!(f, "stream truncated mid-frame"),
            FrameError::LostSync { found } => write!(f, "lost frame sync (found {found:#04x})"),
            FrameError::OversizedFrame(n) => write!(f, "frame length {n} exceeds limit"),
            FrameError::BadLength(e) => write!(f, "bad frame length: {e}"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadRecord(e) => write!(f, "bad record payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Maximum bytes of a damaged frame captured into its
/// [`QuarantinedFrame`] — enough for post-mortem, bounded so a long
/// garbage run cannot balloon the quarantine.
pub const QUARANTINE_CAPTURE_CAP: usize = 256;

/// Why a frame landed in the quarantine (tolerant mode only; strict
/// mode surfaces the matching [`FrameError`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The payload length varint was malformed.
    BadLength,
    /// The declared payload length exceeded the frame size limit.
    Oversized,
    /// The payload failed its CRC-32 check.
    BadChecksum,
    /// The payload passed its CRC but did not decode as a record.
    BadRecord,
    /// The stream ended inside the frame.
    Truncated,
    /// A garbage run between frames (the reader scanned forward to the
    /// next sync byte).
    Desync,
}

/// One undecodable frame (or inter-frame garbage run) retained for
/// post-mortem instead of being silently discarded: where in the
/// stream it began, what kind of damage it showed, and up to
/// [`QUARANTINE_CAPTURE_CAP`] bytes of the offending content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFrame {
    /// Byte offset in the stream where the damaged region began.
    pub offset: u64,
    /// Captured prefix of the offending payload or garbage run
    /// (empty when the damage left nothing to capture, e.g. a
    /// truncation inside the header).
    pub captured: Vec<u8>,
    /// The damage classification.
    pub reason: QuarantineReason,
}

/// Size of a reader's read-ahead buffer. The largest frame
/// (`HEADER_MAX + MAX_PAYLOAD + 4` bytes) fits twice over, so a frame
/// is always parsed from one contiguous slice and refills stay large.
const READ_BUF: usize = 128 * 1024;

/// Streaming reader of framed [`Record`]s.
///
/// `read()` returns `Ok(None)` when the stream ends cleanly: either at
/// a [`Record::Finish`] marker or at EOF on a frame boundary.
///
/// The reader buffers for itself: it takes bytes from the source in
/// large reads into one fixed buffer and parses each frame — sync,
/// length, payload, CRC — in place from it, so an undamaged stream is
/// decoded without a heap allocation per frame and the source needs no
/// `BufReader` of its own. The source may therefore be read past the
/// last frame delivered; [`FrameReader::position`] and quarantine
/// offsets count the bytes frames consumed, never the read-ahead, and
/// what is delivered does not depend on how the source chunks its
/// reads.
///
/// One frame grammar, two readers of it. The general path takes a
/// frame of any size and kind, clean or damaged, refilling as it goes.
/// In front of it an in-place path takes the frames logs are made of —
/// clean, small, wholly buffered — checking sync, length and CRC-32 the
/// same way and decoding varints a word at a time; it consumes nothing
/// unless it delivers, and leaves everything else, untouched, to the
/// general path. [`read`](Self::read) runs it a frame a call,
/// [`for_each`](Self::for_each) as one loop over the buffer.
///
/// In tolerant mode the reader can additionally *quarantine* what it
/// skips: enable capture with [`FrameReader::capture_quarantine`] and
/// every damaged frame is retained as a [`QuarantinedFrame`] with its
/// stream offset — the raw material a dead-letter queue needs for
/// post-mortem. Capture is off by default (zero overhead).
pub struct FrameReader<R: Read> {
    inner: R,
    mode: ReadMode,
    /// Read-ahead: `buf[start..end]` came off `inner` and no frame has
    /// consumed it yet. Bytes just before `start` stay readable until
    /// the next refill, which is what quarantine capture copies from.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    skipped: u64,
    resyncs: u64,
    truncated: bool,
    finished: bool,
    /// Stream offset of `buf[start]`.
    pos: u64,
    capture: bool,
    quarantine: Vec<QuarantinedFrame>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte source.
    pub fn new(inner: R, mode: ReadMode) -> Self {
        FrameReader {
            inner,
            mode,
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
            skipped: 0,
            resyncs: 0,
            truncated: false,
            finished: false,
            pos: 0,
            capture: false,
            quarantine: Vec::new(),
        }
    }

    /// Number of damaged frames skipped (tolerant mode).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Number of times the reader had to scan for a new sync byte
    /// after losing framing (tolerant mode).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Whether the stream ended *inside* a frame (tolerant mode) —
    /// the signature of a file cut short at EOF, as opposed to frames
    /// lost mid-stream, which move [`FrameReader::skipped`] without
    /// setting this flag. A truncated tail also counts as one skipped
    /// frame, so `skipped() - truncated_tail() as u64` is the
    /// mid-stream loss alone.
    pub fn truncated_tail(&self) -> bool {
        self.truncated
    }

    /// Current byte offset in the stream: the bytes frames (and
    /// skipped garbage) have consumed so far. The reader may have
    /// taken more than that from the source.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Enables (or disables) quarantine capture of damaged frames.
    pub fn capture_quarantine(mut self, enabled: bool) -> Self {
        self.capture = enabled;
        self
    }

    /// The frames quarantined so far (empty unless capture is on).
    pub fn quarantine(&self) -> &[QuarantinedFrame] {
        &self.quarantine
    }

    /// Drains the quarantine, transferring ownership to the caller.
    pub fn take_quarantine(&mut self) -> Vec<QuarantinedFrame> {
        std::mem::take(&mut self.quarantine)
    }

    /// Counts one damaged frame and, with capture on, retains its
    /// content — a range of `buf` not yet refilled over — capped.
    fn skip_frame(&mut self, offset: u64, reason: QuarantineReason, content: Range<usize>) {
        self.skipped += 1;
        if self.capture {
            let content = &self.buf[content];
            let captured = content[..content.len().min(QUARANTINE_CAPTURE_CAP)].to_vec();
            self.quarantine.push(QuarantinedFrame { offset, captured, reason });
        }
    }

    /// Whether `n` unconsumed bytes are buffered, reading ahead if
    /// not; `false` means the stream ends before the `n`-th.
    #[inline]
    fn ensure(&mut self, n: usize) -> io::Result<bool> {
        if self.end - self.start >= n {
            return Ok(true);
        }
        self.refill(n)
    }

    #[cold]
    fn refill(&mut self, n: usize) -> io::Result<bool> {
        debug_assert!(n <= READ_BUF);
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        while self.end < n {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(got) => self.end += got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    #[inline]
    fn consume(&mut self, n: usize) {
        self.start += n;
        self.pos += n as u64;
    }

    /// Reads the next record, `Ok(None)` at clean end of stream.
    pub fn read(&mut self) -> Result<Option<Record>, FrameError> {
        if !self.finished {
            if let Some((record, next)) = frame_in_place(&self.buf[..self.end], self.start) {
                self.consume(next - self.start);
                return Ok(Some(record));
            }
        }
        self.read_frame()
    }

    /// Reads the stream to its end, handing `deliver` every record
    /// [`read`](Self::read) would have returned, in order, and stops at
    /// the first error `read` would have, with the reader where `read`
    /// would have left it. The loop under every collector: runs of
    /// in-place frames cost no `Result<Option<Record>>` per record.
    pub fn for_each(&mut self, mut deliver: impl FnMut(Record)) -> Result<(), FrameError> {
        loop {
            if !self.finished {
                let (buf, mut at) = (&self.buf[..self.end], self.start);
                while let Some((record, next)) = frame_in_place(buf, at) {
                    deliver(record);
                    at = next;
                }
                self.consume(at - self.start);
            }
            match self.read_frame()? {
                Some(record) => deliver(record),
                None => return Ok(()),
            }
        }
    }

    /// The general path: one frame of any size and kind, clean or
    /// damaged, buffered or not — everything [`frame_in_place`] leaves.
    fn read_frame(&mut self) -> Result<Option<Record>, FrameError> {
        let tolerant = self.mode == ReadMode::Tolerant;
        loop {
            if self.finished {
                return Ok(None);
            }
            // Offset of the frame (or garbage run) about to be read.
            let frame_start = self.pos;
            // Sync byte, or EOF on a frame boundary.
            if !self.ensure(1)? {
                return Ok(None);
            }
            let sync = self.buf[self.start];
            self.consume(1);
            if sync != SYNC {
                if !tolerant {
                    return Err(FrameError::LostSync { found: sync });
                }
                // Scan forward to the next sync byte. A false positive
                // (0xA5 inside data) is harmless: its CRC will not
                // verify and we scan again.
                self.resyncs += 1;
                if self.scan_to_sync(frame_start, sync)? {
                    return Ok(None);
                }
            }
            // Payload length.
            let len_start = self.pos;
            let len = self.read_len();
            let len_field = self.start - (self.pos - len_start) as usize..self.start;
            let len = match len {
                Ok(len) if len <= MAX_PAYLOAD => len as usize,
                Ok(len) if !tolerant => return Err(FrameError::OversizedFrame(len)),
                // Mid-stream garbage: drop the frame and rescan from
                // here.
                Ok(_) => {
                    self.skip_frame(frame_start, QuarantineReason::Oversized, len_field);
                    continue;
                }
                Err(FrameError::BadLength(_)) if tolerant => {
                    self.skip_frame(frame_start, QuarantineReason::BadLength, len_field);
                    continue;
                }
                // EOF inside the length field: stream over.
                Err(FrameError::TruncatedFrame) if tolerant => {
                    self.skip_frame(frame_start, QuarantineReason::Truncated, len_field);
                    self.truncated = true;
                    return Ok(None);
                }
                Err(e) => return Err(e),
            };
            // Payload and checksum.
            if !self.ensure(len + 4)? {
                // The stream ends inside the frame. Cut inside the
                // payload, nothing of it counts as consumed; cut inside
                // the checksum, the payload does. Either way what was
                // read ahead of the cut is dropped: the stream is over.
                let kept = if self.end - self.start >= len { len } else { 0 };
                self.consume(kept);
                let payload = self.start - kept..self.start;
                self.start = self.end;
                if !tolerant {
                    return Err(FrameError::TruncatedFrame);
                }
                self.skip_frame(frame_start, QuarantineReason::Truncated, payload);
                self.truncated = true;
                return Ok(None);
            }
            let payload_at = self.start;
            let (payload, crc) = self.buf[payload_at..payload_at + len + 4].split_at(len);
            let crc = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
            let outcome = if crc32(payload) != crc {
                Err((FrameError::BadChecksum, QuarantineReason::BadChecksum))
            } else {
                Record::decode(payload)
                    .map_err(|e| (FrameError::BadRecord(e), QuarantineReason::BadRecord))
            };
            self.consume(len + 4);
            match outcome {
                Ok(Record::Finish) => {
                    self.finished = true;
                    return Ok(None);
                }
                Ok(rec) => return Ok(Some(rec)),
                Err((error, _)) if !tolerant => return Err(error),
                Err((_, reason)) => {
                    self.skip_frame(frame_start, reason, payload_at..payload_at + len)
                }
            }
        }
    }

    /// Consumes a garbage run up to and including the next sync byte
    /// and quarantines it (`first` is the run's already consumed first
    /// byte); `true` if the stream ended before a sync byte turned up.
    fn scan_to_sync(&mut self, run_start: u64, first: u8) -> io::Result<bool> {
        // `Vec::new()` never allocates, so the capture-off path stays
        // zero overhead.
        let mut run = if self.capture { vec![first] } else { Vec::new() };
        let ended = loop {
            if !self.ensure(1)? {
                break true;
            }
            let ahead = &self.buf[self.start..self.end];
            let sync_at = ahead.iter().position(|&b| b == SYNC);
            let garbage = sync_at.unwrap_or(ahead.len());
            if self.capture {
                let room = QUARANTINE_CAPTURE_CAP - run.len();
                run.extend_from_slice(&ahead[..garbage.min(room)]);
            }
            self.consume(garbage + usize::from(sync_at.is_some()));
            if sync_at.is_some() {
                break false;
            }
        };
        if self.capture {
            self.quarantine.push(QuarantinedFrame {
                offset: run_start,
                captured: run,
                reason: QuarantineReason::Desync,
            });
        }
        Ok(ended)
    }

    /// Parses the length varint in place, consuming exactly the bytes
    /// the field occupies — also when it is malformed or cut short, so
    /// the caller can quarantine them.
    fn read_len(&mut self) -> Result<u64, FrameError> {
        let mut n = 0;
        loop {
            if !self.ensure(n + 1)? {
                self.consume(n);
                return Err(FrameError::TruncatedFrame);
            }
            let b = self.buf[self.start + n];
            n += 1;
            if b & 0x80 == 0 {
                break;
            }
            if n >= MAX_LEN {
                self.consume(n);
                return Err(FrameError::BadLength(VarintError::Overflow));
            }
        }
        let mut field = &self.buf[self.start..self.start + n];
        let len = decode_u64(&mut field).map_err(FrameError::BadLength);
        self.consume(n);
        len
    }

    /// Drains the stream into a vector (convenience for tests/tools).
    pub fn read_all(&mut self) -> Result<Vec<Record>, FrameError> {
        let mut out = Vec::new();
        self.for_each(|rec| out.push(rec))?;
        Ok(out)
    }
}

/// The frame at `buf[at..]` parsed where it lies, if it is small,
/// wholly buffered and one the general path would deliver: sync byte, a
/// one-byte length (every `DayStart`, `Hits` and `UaSample` frame), the
/// payload's CRC-32, then [`decode_in_place`], whose word reads want a
/// few buffered bytes behind the payload (the CRC and the next frame).
/// Returns the record and the index just past its frame.
///
/// `None` is every other case — a longer length field, a `BlockDay` or
/// `Finish`, a frame straddling the end of the buffer, a bad checksum,
/// an undecodable payload, no sync byte, nothing buffered — with
/// nothing consumed or counted: [`FrameReader::read_frame`] starts on
/// the same byte as if this had never run, so what a reader delivers is
/// a function of the byte stream alone, whichever path read it.
#[inline]
fn frame_in_place(buf: &[u8], at: usize) -> Option<(Record, usize)> {
    let [sync, len, rest @ ..] = buf.get(at..)? else { return None };
    if *sync != SYNC || *len >= 0x80 {
        return None;
    }
    let len = usize::from(*len);
    let crc = rest.get(len..len + 4)?;
    if crc32(&rest[..len]) != u32::from_le_bytes(crc.try_into().ok()?) {
        return None;
    }
    let record = decode_in_place(rest, len)?;
    Some((record, at + 2 + len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipactive_net::Addr;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::DayStart { day: 0 },
            Record::Hits { day: 0, addr: Addr::from_octets(10, 0, 0, 1), hits: 3 },
            Record::Hits { day: 0, addr: Addr::from_octets(10, 0, 0, 2), hits: 999_999 },
            Record::UaSample { day: 0, addr: Addr::from_octets(10, 0, 0, 1), ua_hash: 42 },
            Record::DayStart { day: 1 },
            Record::Hits { day: 1, addr: Addr::from_octets(192, 0, 2, 200), hits: 1 },
        ]
    }

    fn encode_stream(records: &[Record]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        for r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn roundtrip_stream() {
        let records = sample_records();
        let buf = encode_stream(&records);
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        assert_eq!(r.read_all().unwrap(), records);
        assert_eq!(r.skipped(), 0);
    }

    #[test]
    fn finish_marker_terminates_even_with_trailing_data() {
        let records = sample_records();
        let mut buf = encode_stream(&records);
        buf.extend_from_slice(b"trailing garbage that must never be read");
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        assert_eq!(r.read_all().unwrap(), records);
    }

    #[test]
    fn eof_on_frame_boundary_is_clean() {
        // Stream without a Finish marker: still a clean end.
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        w.write(&Record::DayStart { day: 9 }).unwrap();
        assert_eq!(w.frames_written(), 1);
        drop(w);
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        assert_eq!(r.read().unwrap(), Some(Record::DayStart { day: 9 }));
        assert_eq!(r.read().unwrap(), None);
    }

    #[test]
    fn truncation_mid_frame_detected() {
        let buf = encode_stream(&sample_records());
        // Cut inside the second frame.
        let cut = buf.len() / 2;
        let mut r = FrameReader::new(&buf[..cut], ReadMode::Strict);
        let err = loop {
            match r.read() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncated stream read cleanly"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, FrameError::TruncatedFrame | FrameError::BadChecksum),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn strict_mode_rejects_corruption() {
        let mut buf = encode_stream(&sample_records());
        // Flip a bit inside the first frame's payload (skip sync+len).
        buf[3] ^= 0x10;
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        assert!(matches!(r.read(), Err(FrameError::BadChecksum)));
    }

    #[test]
    fn tolerant_mode_skips_corrupt_frames() {
        let records = sample_records();
        let mut buf = encode_stream(&records);
        buf[3] ^= 0x10; // corrupt payload of frame 0
        let mut r = FrameReader::new(&buf[..], ReadMode::Tolerant);
        let got = r.read_all().unwrap();
        assert_eq!(got, records[1..].to_vec());
        assert_eq!(r.skipped(), 1);
    }

    #[test]
    fn lost_sync_is_fatal_in_strict_mode() {
        let mut buf = encode_stream(&sample_records());
        buf[0] = 0x00; // clobber the first sync byte
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        assert!(matches!(r.read(), Err(FrameError::LostSync { found: 0 })));
    }

    #[test]
    fn tolerant_mode_resynchronizes_after_lost_sync() {
        let records = sample_records();
        let mut buf = encode_stream(&records);
        buf[0] = 0x00; // clobber the first sync byte
        let mut r = FrameReader::new(&buf[..], ReadMode::Tolerant);
        let got = r.read_all().unwrap();
        // Frame 0 is lost; everything after the resync point survives.
        assert!(r.resyncs() >= 1);
        assert!(!got.is_empty());
        for rec in &got {
            assert!(records.contains(rec), "fabricated {rec:?}");
        }
        assert!(got.len() >= records.len() - 1);
    }

    #[test]
    fn tolerant_mode_survives_length_field_corruption() {
        // Corrupting the length field desyncs the reader mid-stream;
        // it must scan to the next frame rather than give up.
        let records = sample_records();
        let mut buf = encode_stream(&records);
        // Find the second frame's length byte (sync at some offset).
        let second_sync = buf[1..].iter().position(|&b| b == SYNC).unwrap() + 1;
        buf[second_sync + 1] = 0x7F; // absurd length, still < MAX_PAYLOAD
        let mut r = FrameReader::new(&buf[..], ReadMode::Tolerant);
        let got = r.read_all().unwrap();
        for rec in &got {
            assert!(records.contains(rec), "fabricated {rec:?}");
        }
        // We must still recover at least one later record or cleanly end.
        assert!(r.skipped() + r.resyncs() >= 1 || got.len() == records.len());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = vec![SYNC];
        crate::varint::encode_u64(&mut buf, MAX_PAYLOAD + 1);
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        assert!(matches!(r.read(), Err(FrameError::OversizedFrame(_))));
    }

    #[test]
    fn quarantine_off_by_default() {
        let mut buf = encode_stream(&sample_records());
        buf[3] ^= 0x10;
        let mut r = FrameReader::new(&buf[..], ReadMode::Tolerant);
        r.read_all().unwrap();
        assert_eq!(r.skipped(), 1);
        assert!(r.quarantine().is_empty());
    }

    #[test]
    fn quarantine_captures_bad_checksum_with_offset() {
        let records = sample_records();
        let mut buf = encode_stream(&records);
        buf[3] ^= 0x10; // corrupt payload of frame 0 (sync at 0, len at 1..2)
        let mut r =
            FrameReader::new(&buf[..], ReadMode::Tolerant).capture_quarantine(true);
        let got = r.read_all().unwrap();
        assert_eq!(got, records[1..].to_vec());
        let q = r.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].offset, 0, "frame 0 begins at stream offset 0");
        assert_eq!(q[0].reason, QuarantineReason::BadChecksum);
        // The captured bytes are the damaged payload as read off the wire.
        assert_eq!(q[0].captured[1], buf[3]);
    }

    #[test]
    fn quarantine_offset_points_at_damaged_frame_not_stream_start() {
        let records = sample_records();
        let mut buf = encode_stream(&records);
        // Find the second frame's sync byte; corrupt its payload.
        let second_sync = buf[1..].iter().position(|&b| b == SYNC).unwrap() + 1;
        buf[second_sync + 2] ^= 0xFF;
        let mut r =
            FrameReader::new(&buf[..], ReadMode::Tolerant).capture_quarantine(true);
        r.read_all().unwrap();
        let q = r.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].offset, second_sync as u64);
    }

    #[test]
    fn quarantine_captures_desync_garbage_run() {
        let records = sample_records();
        let buf = encode_stream(&records);
        let mut dirty = vec![0xDE, 0xAD, 0xBE]; // garbage before frame 0
        dirty.extend_from_slice(&buf);
        let mut r =
            FrameReader::new(&dirty[..], ReadMode::Tolerant).capture_quarantine(true);
        let got = r.read_all().unwrap();
        assert_eq!(got, records);
        let q = r.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].reason, QuarantineReason::Desync);
        assert_eq!(q[0].offset, 0);
        assert_eq!(q[0].captured, vec![0xDE, 0xAD, 0xBE]);
        assert_eq!(r.resyncs(), 1);
    }

    #[test]
    fn quarantine_captures_truncated_final_frame() {
        let buf = encode_stream(&sample_records());
        let cut = buf.len() - 3; // inside the Finish frame
        let mut r =
            FrameReader::new(&buf[..cut], ReadMode::Tolerant).capture_quarantine(true);
        let mut quarantined_offset = None;
        loop {
            match r.read() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => panic!("tolerant mode errored: {e}"),
            }
        }
        if let Some(q) = r.quarantine().last() {
            assert_eq!(q.reason, QuarantineReason::Truncated);
            quarantined_offset = Some(q.offset);
        }
        let off = quarantined_offset.expect("truncated frame quarantined");
        assert!(off < cut as u64);
        assert_eq!(r.skipped(), 1);
    }

    #[test]
    fn quarantine_capture_is_capped() {
        let records = sample_records();
        let buf = encode_stream(&records);
        let mut dirty = vec![0x42u8; QUARANTINE_CAPTURE_CAP * 4];
        dirty.extend_from_slice(&buf);
        let mut r =
            FrameReader::new(&dirty[..], ReadMode::Tolerant).capture_quarantine(true);
        let got = r.read_all().unwrap();
        assert_eq!(got, records, "reader must still resync past the cap");
        let q = r.take_quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].captured.len(), QUARANTINE_CAPTURE_CAP);
        assert!(r.quarantine().is_empty(), "take_quarantine drains");
    }

    #[test]
    fn position_tracks_bytes_consumed() {
        let buf = encode_stream(&sample_records());
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        assert_eq!(r.position(), 0);
        r.read_all().unwrap();
        assert_eq!(r.position(), buf.len() as u64);
    }

    #[test]
    fn position_counts_frames_consumed_not_bytes_read_ahead() {
        // The whole stream fits the read buffer and is taken from the
        // source by the first read; the position still moves a frame
        // at a time.
        let records = sample_records();
        let buf = encode_stream(&records);
        let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
        let mut consumed = 0;
        for rec in &records {
            assert_eq!(r.read().unwrap().as_ref(), Some(rec));
            let mut frame = Vec::new();
            FrameWriter::new(&mut frame).write(rec).unwrap();
            consumed += frame.len() as u64;
            assert_eq!(r.position(), consumed);
        }
    }

    #[test]
    fn fuzz_random_corruption_never_yields_wrong_records() {
        // Deterministic LCG; flip one byte at every position in turn.
        let records = sample_records();
        let clean = encode_stream(&records);
        for pos in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[pos] ^= 0x5A;
            let mut r = FrameReader::new(&dirty[..], ReadMode::Tolerant);
            let mut got = Vec::new();
            loop {
                match r.read() {
                    Ok(Some(rec)) => got.push(rec),
                    Ok(None) => break,
                    Err(_) => break, // errors acceptable; silent wrong data is not
                }
            }
            // Every record we *did* read must be one of the originals
            // (corruption may drop records but CRC must stop fabrication).
            for rec in got {
                assert!(
                    records.contains(&rec),
                    "fabricated record {rec:?} after corrupting byte {pos}"
                );
            }
        }
    }
}
