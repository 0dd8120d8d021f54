//! Property-based tests for the log wire format.

use ipactive_logfmt::{decode_u64, encode_u64, FrameReader, FrameWriter, ReadMode, Record};
use ipactive_net::Addr;
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        any::<u16>().prop_map(|day| Record::DayStart { day }),
        (any::<u16>(), any::<u32>(), any::<u64>())
            .prop_map(|(day, a, hits)| Record::Hits { day, addr: Addr::new(a), hits }),
        (any::<u16>(), any::<u32>(), any::<u64>())
            .prop_map(|(day, a, ua_hash)| Record::UaSample { day, addr: Addr::new(a), ua_hash }),
    ]
}

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        encode_u64(&mut buf, v);
        prop_assert!(buf.len() <= 10);
        let mut slice = &buf[..];
        prop_assert_eq!(decode_u64(&mut slice).unwrap(), v);
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn varint_encoding_is_minimal(v in any::<u64>()) {
        let mut buf = Vec::new();
        encode_u64(&mut buf, v);
        // Length must match bit-width: ceil(bits/7), minimum 1.
        let bits = 64 - v.leading_zeros() as usize;
        let expect = core::cmp::max(1, bits.div_ceil(7));
        prop_assert_eq!(buf.len(), expect);
    }

    #[test]
    fn record_roundtrip(rec in arb_record(), held in prop::collection::vec(any::<u8>(), 0..16)) {
        // `encode` appends: what the `Vec` already holds stays as it is
        // and the record starts where it ends — `FrameWriter`'s scratch
        // keeps the room for a frame's header in front of the payload.
        let mut buf = held.clone();
        rec.encode(&mut buf);
        prop_assert_eq!(&buf[..held.len()], &held[..]);
        prop_assert_eq!(Record::decode(&buf[held.len()..]).unwrap(), rec);
    }

    #[test]
    fn stream_roundtrip(records in prop::collection::vec(arb_record(), 0..100)) {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let mut reader = FrameReader::new(&buf[..], ReadMode::Strict);
        prop_assert_eq!(reader.read_all().unwrap(), records);
    }

    #[test]
    fn corrupted_streams_never_fabricate(records in prop::collection::vec(arb_record(), 1..30),
                                         pos_frac in 0.0f64..1.0, mask in 1u8..=255) {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= mask;
        let mut reader = FrameReader::new(&buf[..], ReadMode::Tolerant);
        loop {
            match reader.read() {
                Ok(Some(rec)) => prop_assert!(records.contains(&rec), "fabricated {rec:?}"),
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reader differential: what the reader delivers is a function of the
// byte stream alone — not of how the source chunks its reads — and is
// what the byte-at-a-time reader it replaced delivered.
// ---------------------------------------------------------------------

use ipactive_logfmt::{
    crc32, BlockDay, DecodeError, QuarantineReason, QuarantinedFrame, VarintError,
    QUARANTINE_CAPTURE_CAP,
};
use ipactive_net::Block24;
use std::io::Read;

const SYNC: u8 = 0xA5;
const MAX_PAYLOAD: u64 = 1 << 16;

/// A source that hands out at most `chunk` bytes a call.
#[derive(Clone)]
struct Chunked<'a> {
    data: &'a [u8],
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Everything a caller can observe of one reader run to its end: each
/// `read()` result in order (errors by their `Debug` text, strict mode
/// keeps reading after one), then the counters.
#[derive(Debug, PartialEq)]
struct Observed {
    reads: Vec<Result<Record, String>>,
    skipped: u64,
    resyncs: u64,
    truncated_tail: bool,
    position: u64,
    quarantine: Vec<QuarantinedFrame>,
}

/// One reader run to its end a `read()` at a time and another through
/// `for_each()`, the loop the collectors run: the two must observe the
/// same, and that is what is returned.
fn observe<R: Read + Clone>(source: R, mode: ReadMode, stream_len: usize) -> Observed {
    let by_read = observe_with(source.clone(), mode, stream_len, false);
    let by_loop = observe_with(source, mode, stream_len, true);
    assert!(by_read == by_loop, "for_each() saw {by_loop:?}, read() saw {by_read:?}");
    by_read
}

fn observe_with<R: Read>(source: R, mode: ReadMode, stream_len: usize, looped: bool) -> Observed {
    let mut reader = FrameReader::new(source, mode).capture_quarantine(true);
    let mut reads = Vec::new();
    // Every call consumes a byte or ends the stream, so this bound is
    // never reached; it turns a reader that spins into a failure.
    for _ in 0..=stream_len + 1 {
        let more = if looped {
            reader.for_each(|rec| reads.push(Ok(rec))).map(|()| false)
        } else {
            reader.read().map(|rec| rec.map(|rec| reads.push(Ok(rec))).is_some())
        };
        match more {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => reads.push(Err(format!("{e:?}"))),
        }
    }
    assert!(matches!(reader.read(), Ok(None)), "reader did not come to rest");
    Observed {
        reads,
        skipped: reader.skipped(),
        resyncs: reader.resyncs(),
        truncated_tail: reader.truncated_tail(),
        position: reader.position(),
        quarantine: reader.take_quarantine(),
    }
}

/// The reference: the frame grammar read one byte at a time straight
/// off a slice, the way the reader worked before it buffered, with
/// payloads decoded by [`reference_decode`] — it shares no code with
/// the reader but the CRC table. Kept as the oracle for delivered
/// records, counters, position and quarantine.
struct Oracle<'a> {
    data: &'a [u8],
    at: usize,
    tolerant: bool,
    out: Observed,
    finished: bool,
}

impl Oracle<'_> {
    fn run(data: &[u8], mode: ReadMode) -> Observed {
        let mut o = Oracle {
            data,
            at: 0,
            tolerant: mode == ReadMode::Tolerant,
            out: Observed {
                reads: Vec::new(),
                skipped: 0,
                resyncs: 0,
                truncated_tail: false,
                position: 0,
                quarantine: Vec::new(),
            },
            finished: false,
        };
        while o.frame() {}
        o.out
    }

    fn byte(&mut self) -> Option<u8> {
        let b = self.data.get(self.at).copied()?;
        self.at += 1;
        self.out.position += 1;
        Some(b)
    }

    fn skip(&mut self, offset: u64, reason: QuarantineReason, bytes: &[u8]) {
        self.out.skipped += 1;
        self.quarantine(offset, reason, bytes);
    }

    fn quarantine(&mut self, offset: u64, reason: QuarantineReason, bytes: &[u8]) {
        let captured = bytes[..bytes.len().min(QUARANTINE_CAPTURE_CAP)].to_vec();
        self.out.quarantine.push(QuarantinedFrame { offset, captured, reason });
    }

    /// A stream cut inside a frame is over: the rest is gone without
    /// counting towards the position.
    fn truncated(&mut self, offset: u64, bytes: &[u8]) -> bool {
        self.at = self.data.len();
        if self.tolerant {
            self.skip(offset, QuarantineReason::Truncated, bytes);
            self.out.truncated_tail = true;
        } else {
            self.out.reads.push(Err("TruncatedFrame".into()));
        }
        self.tolerant // strict mode reads on and finds the end
    }

    /// One `read()` call's worth; `false` once the stream is over.
    fn frame(&mut self) -> bool {
        if self.finished {
            return false;
        }
        let frame_start = self.out.position;
        let Some(sync) = self.byte() else { return false };
        if sync != SYNC {
            if !self.tolerant {
                self.out.reads.push(Err(format!("LostSync {{ found: {sync} }}")));
                return true;
            }
            self.out.resyncs += 1;
            let mut run = vec![sync];
            let ended = loop {
                match self.byte() {
                    None => break true,
                    Some(SYNC) => break false,
                    Some(b) => run.push(b),
                }
            };
            self.quarantine(frame_start, QuarantineReason::Desync, &run);
            if ended {
                return false;
            }
        }
        let mut raw = Vec::new();
        let len = loop {
            let Some(b) = self.byte() else {
                return !self.truncated(frame_start, &raw);
            };
            raw.push(b);
            if b & 0x80 == 0 {
                break reference_varint(&mut &raw[..]);
            }
            if raw.len() >= 10 {
                break Err(VarintError::Overflow);
            }
        };
        let len = match len {
            Ok(len) if len <= MAX_PAYLOAD => len as usize,
            Ok(len) => {
                if self.tolerant {
                    self.skip(frame_start, QuarantineReason::Oversized, &raw);
                } else {
                    self.out.reads.push(Err(format!("OversizedFrame({len})")));
                }
                return true;
            }
            Err(e) => {
                if self.tolerant {
                    self.skip(frame_start, QuarantineReason::BadLength, &raw);
                } else {
                    self.out.reads.push(Err(format!("BadLength({e:?})")));
                }
                return true;
            }
        };
        let rest = &self.data[self.at..];
        if rest.len() < len {
            return !self.truncated(frame_start, &[]);
        }
        let payload = rest[..len].to_vec();
        self.at += len;
        self.out.position += len as u64;
        let rest = &self.data[self.at..];
        if rest.len() < 4 {
            return !self.truncated(frame_start, &payload);
        }
        let crc = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        self.at += 4;
        self.out.position += 4;
        let failure = if crc32_bytewise(&payload) != crc {
            Some(("BadChecksum".to_string(), QuarantineReason::BadChecksum))
        } else {
            match reference_decode(&payload) {
                Ok(Record::Finish) => {
                    self.finished = true;
                    return false;
                }
                Ok(rec) => {
                    self.out.reads.push(Ok(rec));
                    return true;
                }
                Err(e) => Some((format!("BadRecord({e:?})"), QuarantineReason::BadRecord)),
            }
        };
        let (error, reason) = failure.expect("delivered records returned above");
        if self.tolerant {
            self.skip(frame_start, reason, &payload);
        } else {
            self.out.reads.push(Err(error));
        }
        true
    }
}

/// CRC-32/ISO-HDLC one bit at a time: the definition, no tables.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

/// LEB128 one byte at a time: the definition, no words.
fn reference_varint(buf: &mut &[u8]) -> Result<u64, VarintError> {
    let mut value = 0u64;
    for i in 0..10 {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(VarintError::Truncated);
        };
        *buf = rest;
        let bits = u64::from(byte & 0x7F);
        if i == 9 && bits > 1 {
            return Err(VarintError::Overflow);
        }
        value |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(VarintError::Overflow)
}

/// The record grammar one byte at a time: what `Record::decode` must
/// return for every payload, `Ok` value or `Err` kind.
fn reference_decode(mut buf: &[u8]) -> Result<Record, DecodeError> {
    let Some((&kind, rest)) = buf.split_first() else {
        return Err(DecodeError::Truncated);
    };
    buf = rest;
    let day = |buf: &mut &[u8]| {
        u16::try_from(reference_varint(buf)?).map_err(|_| DecodeError::FieldRange("day"))
    };
    let addr = |buf: &mut &[u8]| {
        let bits = u32::try_from(reference_varint(buf)?);
        bits.map(Addr::new).map_err(|_| DecodeError::FieldRange("addr"))
    };
    let record = match kind {
        1 => Record::DayStart { day: day(&mut buf)? },
        2 => Record::Hits {
            day: day(&mut buf)?,
            addr: addr(&mut buf)?,
            hits: reference_varint(&mut buf)?,
        },
        3 => Record::UaSample {
            day: day(&mut buf)?,
            addr: addr(&mut buf)?,
            ua_hash: reference_varint(&mut buf)?,
        },
        4 => Record::Finish,
        5 => {
            let day = day(&mut buf)?;
            let block = match reference_varint(&mut buf)? {
                id if id < 1 << 24 => Block24::new(id as u32),
                _ => return Err(DecodeError::FieldRange("block")),
            };
            if buf.len() < 32 {
                return Err(DecodeError::Truncated);
            }
            let (bitmap, rest) = buf.split_at(32);
            buf = rest;
            let mut entries = Vec::new();
            for host in 0..=255u8 {
                if bitmap[usize::from(host / 8)] >> (host % 8) & 1 != 0 {
                    match reference_varint(&mut buf)? {
                        0 => return Err(DecodeError::FieldRange("hits")),
                        hits => entries.push((host, hits)),
                    }
                }
            }
            Record::BlockDay(Box::new(BlockDay { day, block, entries }))
        }
        unknown => return Err(DecodeError::UnknownKind(unknown)),
    };
    if buf.is_empty() {
        Ok(record)
    } else {
        Err(DecodeError::TrailingBytes(buf.len()))
    }
}

/// Holds every chunking of `stream`, in both modes, to the oracle.
fn assert_chunking_invariant(stream: &[u8]) -> Result<(), TestCaseError> {
    for mode in [ReadMode::Strict, ReadMode::Tolerant] {
        let want = Oracle::run(stream, mode);
        prop_assert_eq!(&observe(stream, mode, stream.len()), &want, "whole slice, {:?}", mode);
        for chunk in [1, 7, 4096] {
            let got = observe(Chunked { data: stream, chunk }, mode, stream.len());
            prop_assert_eq!(&got, &want, "{} bytes a read, {:?}", chunk, mode);
        }
    }
    Ok(())
}

/// One way transport or storage damages a stream, placed by a fraction
/// of its length.
#[derive(Debug, Clone)]
enum Damage {
    Flip(f64, u8),
    Insert(f64, Vec<u8>),
    Delete(f64, usize),
    Truncate(f64),
}

impl Damage {
    fn apply(&self, buf: &mut Vec<u8>) {
        let at = |frac: f64| (buf.len() as f64 * frac) as usize;
        match self {
            Damage::Flip(f, mask) => {
                let pos = at(*f).min(buf.len() - 1);
                buf[pos] ^= mask;
            }
            Damage::Insert(f, bytes) => {
                let pos = at(*f);
                buf.splice(pos..pos, bytes.iter().copied());
            }
            Damage::Delete(f, n) => {
                let pos = at(*f);
                let end = (pos + n).min(buf.len());
                buf.drain(pos..end);
            }
            Damage::Truncate(f) => {
                let pos = at(*f);
                buf.truncate(pos);
            }
        }
    }
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0.0f64..1.0, 1u8..=255).prop_map(|(f, m)| Damage::Flip(f, m)),
        (0.0f64..1.0, prop::collection::vec(any::<u8>(), 1..12))
            .prop_map(|(f, b)| Damage::Insert(f, b)),
        // Sync bytes and continuation bytes are what framing trips on.
        (0.0f64..1.0, 1usize..4).prop_map(|(f, n)| Damage::Insert(f, vec![SYNC; n])),
        (0.0f64..1.0, 1usize..12).prop_map(|(f, n)| Damage::Insert(f, vec![0xFF; n])),
        (0.0f64..1.0, 1usize..20).prop_map(|(f, n)| Damage::Delete(f, n)),
        (0.0f64..1.0).prop_map(Damage::Truncate),
    ]
}

/// Records of every kind and size, packed block days included.
fn arb_any_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        arb_record(),
        arb_record(),
        (any::<u16>(), any::<u32>(), prop::collection::vec(1u64..u64::MAX, 0..=256)).prop_map(
            |(day, block, hits)| {
                // Spread the entries over the hosts, ascending.
                let step = 256 / hits.len().max(1);
                let entries =
                    hits.iter().enumerate().map(|(i, &h)| ((i * step) as u8, h)).collect();
                Record::BlockDay(Box::new(BlockDay::new(day, Block24::new(block >> 8), entries)))
            }
        ),
    ]
}

fn encode_stream(records: &[Record], finish: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = FrameWriter::new(&mut buf);
    for r in records {
        w.write(r).unwrap();
    }
    if finish {
        w.finish().unwrap();
    }
    buf
}

/// A hand-laid frame around an arbitrary payload.
fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![SYNC];
    encode_u64(&mut frame, payload.len() as u64);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame
}

proptest! {
    #[test]
    fn clean_streams_read_the_same_however_chunked(
        records in prop::collection::vec(arb_any_record(), 0..60),
        finish in any::<bool>(),
    ) {
        let stream = encode_stream(&records, finish);
        assert_chunking_invariant(&stream)?;
        let got = observe(Chunked { data: &stream, chunk: 7 }, ReadMode::Strict, stream.len());
        let want: Vec<Result<Record, String>> = records.into_iter().map(Ok).collect();
        prop_assert_eq!(got.reads, want);
        prop_assert_eq!(got.position, stream.len() as u64);
    }

    #[test]
    fn damaged_streams_read_the_same_however_chunked(
        records in prop::collection::vec(arb_any_record(), 1..40),
        damage in prop::collection::vec(arb_damage(), 1..4),
    ) {
        let mut stream = encode_stream(&records, true);
        for d in &damage {
            if !stream.is_empty() {
                d.apply(&mut stream);
            }
        }
        assert_chunking_invariant(&stream)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_read_the_same_however_chunked(
        noise in prop::collection::vec(any::<u8>(), 0..600),
        // Dense in the bytes framing reacts to.
        grammar in prop::collection::vec(
            prop_oneof![Just(SYNC), Just(0x00u8), Just(0x01), Just(0x04), Just(0x80), Just(0xFF)],
            0..200,
        ),
    ) {
        assert_chunking_invariant(&noise)?;
        assert_chunking_invariant(&grammar)?;
    }
}

/// Bytes a record decoder reads as a varint field, or as the start of
/// one: minimal encodings over the whole domain and at the widths and
/// range limits the fields have, overlong ones, runs of continuation
/// bytes of every length around the ten-byte limit, and anything.
fn arb_field_bytes() -> impl Strategy<Value = Vec<u8>> {
    fn minimal(v: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_u64(&mut bytes, v);
        bytes
    }
    prop_oneof![
        any::<u64>().prop_map(minimal),
        any::<u32>().prop_map(|addr| minimal(addr.into())),
        (0u64..300).prop_map(minimal),
        // Either side of `u16::MAX`, `u32::MAX`, the seven-, eight- and
        // nine-byte forms, and the top of the domain.
        (prop_oneof![Just(16u32), Just(32), Just(49), Just(56), Just(63), Just(0)], 0u64..3)
            .prop_map(|(bit, past)| minimal((1u64 << bit).wrapping_sub(2).wrapping_add(past))),
        // Overlong: `0x80 0x00` and longer, up to an eleventh byte.
        (0u64..300, 0usize..10).prop_map(|(v, zeros)| {
            let mut bytes = minimal(v);
            *bytes.last_mut().expect("a varint has a byte") |= 0x80;
            bytes.resize(bytes.len() + zeros, 0x80);
            bytes.push(0x00);
            bytes
        }),
        // Seven to ten continuation bytes, then a last byte of any value
        // (as the tenth, more than 1 overflows).
        (7usize..11, any::<u8>()).prop_map(|(n, last)| {
            let mut bytes = vec![0xFF; n];
            bytes.push(last);
            bytes
        }),
        prop::collection::vec(any::<u8>(), 0..12),
    ]
}

/// What a strict reader makes of one frame around `payload`, with
/// `tail` behind it, as a `read()` and as a `for_each()` see it
/// (`observe` holds the two together): the record, the decode error,
/// or `None` for a `Finish`. A clean frame goes first, so that the one
/// under test is met with the buffer filled, as all but a stream's
/// first frame are.
fn read_framed(payload: &[u8], tail: &[u8]) -> Option<Result<Record, String>> {
    let first = Record::DayStart { day: 0 };
    let mut stream = encode_stream(std::slice::from_ref(&first), false);
    stream.extend_from_slice(&raw_frame(payload));
    stream.extend_from_slice(tail);
    let mut reads = observe(&stream[..], ReadMode::Strict, stream.len()).reads.into_iter();
    assert_eq!(reads.next(), Some(Ok(first)));
    reads.next()
}

proptest! {
    /// The record decoder's own differential. A frame small enough is
    /// decoded in place, a word at a time, reading past the payload
    /// into whatever is buffered behind it; for every payload the
    /// verdict is the byte-at-a-time reference's — `Ok` value or `Err`
    /// kind — and what is buffered behind it never changes it.
    #[test]
    fn record_decode_equals_the_reference_whatever_follows_the_payload(
        kind in prop_oneof![1u8..=3, 1u8..=3, 1u8..=5, any::<u8>()],
        fields in prop::collection::vec(arb_field_bytes(), 0..5),
        tail in prop::collection::vec(any::<u8>(), 0..24),
        // Dense in the bytes a word read must not be swayed by.
        other_tail in prop::collection::vec(
            prop_oneof![Just(0x00u8), Just(0x01), Just(0x7F), Just(0x80), Just(0xFF)],
            0..24,
        ),
    ) {
        let mut payload = vec![kind];
        payload.extend(fields.concat());
        // The payload whole, then every truncation of it.
        for keep in (0..=payload.len()).rev() {
            let whole = keep == payload.len();
            let payload = &payload[..keep];
            let want = reference_decode(payload);
            prop_assert_eq!(&Record::decode(payload), &want, "Record::decode of {:02X?}", payload);
            let want = match want {
                Ok(Record::Finish) => None,
                Ok(record) => Some(Ok(record)),
                Err(e) => Some(Err(format!("BadRecord({e:?})"))),
            };
            let tails: &[&[u8]] = if whole { &[&tail, &other_tail, &[]] } else { &[&tail] };
            for tail in tails {
                let got = read_framed(payload, tail);
                prop_assert_eq!(&got, &want, "{:02X?} before {:02X?}", payload, tail);
            }
        }
    }
}

#[test]
fn a_frame_of_exactly_max_payload_is_read_in_place() {
    // No record is that large, so the payload is junk behind a valid
    // CRC: the reader must take it as one whole frame (BadRecord, not
    // Oversized or Truncated) and deliver what follows it. One byte
    // more is over the limit.
    let tail = encode_stream(&[Record::DayStart { day: 7 }], true);
    for (len, reason) in [
        (MAX_PAYLOAD as usize, QuarantineReason::BadRecord),
        (MAX_PAYLOAD as usize + 1, QuarantineReason::Oversized),
    ] {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 | 0x08).collect();
        let mut stream = encode_stream(&[Record::DayStart { day: 1 }], false);
        let frame_at = stream.len() as u64;
        stream.extend_from_slice(&raw_frame(&payload));
        stream.extend_from_slice(&tail);
        for chunk in [1, 7, 4096, usize::MAX] {
            let got = observe(Chunked { data: &stream, chunk }, ReadMode::Tolerant, stream.len());
            assert_eq!(got.quarantine[0].reason, reason, "{len} bytes, chunk {chunk}");
            assert_eq!(got.quarantine[0].offset, frame_at);
            assert_eq!(got.reads[0], Ok(Record::DayStart { day: 1 }));
            if reason == QuarantineReason::BadRecord {
                assert_eq!(got.reads[1..], [Ok(Record::DayStart { day: 7 })]);
                assert_eq!((got.skipped, got.resyncs), (1, 0));
                assert_eq!(got.position, stream.len() as u64);
                assert_eq!(got.quarantine[0].captured, payload[..QUARANTINE_CAPTURE_CAP]);
            }
        }
        for mode in [ReadMode::Strict, ReadMode::Tolerant] {
            assert_eq!(Oracle::run(&stream, mode), observe(&stream[..], mode, stream.len()));
        }
    }
}

#[test]
fn frames_straddling_refill_boundaries_round_trip() {
    // Over a megabyte of frames from 4 bytes to 2.6 KB: whatever size
    // (at most 256 KiB) the reader's buffer has, frames of every kind
    // end up across its refill boundaries, at every chunking.
    let mut records = Vec::new();
    let mut x = 0x2015_u64;
    while records.len() < 4000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let n = (x >> 33) as usize % 257;
        let entries = (0..n).map(|i| (i as u8, x.rotate_left(i as u32) | 1)).collect();
        records.push(Record::BlockDay(Box::new(BlockDay::new(
            (x >> 20) as u16,
            Block24::new((x >> 40) as u32),
            entries,
        ))));
        records.push(Record::Hits { day: n as u16, addr: Addr::new(x as u32), hits: x >> 7 });
        records.push(Record::DayStart { day: n as u16 });
    }
    let stream = encode_stream(&records, true);
    assert!(stream.len() > 4 * 256 * 1024, "stream too short: {}", stream.len());
    let want: Vec<Result<Record, String>> = records.into_iter().map(Ok).collect();
    for chunk in [7, 4096, 100_000, usize::MAX] {
        let got = observe(Chunked { data: &stream, chunk }, ReadMode::Strict, stream.len());
        assert!(got.reads == want, "chunk {chunk}: records differ");
        assert_eq!(got.position, stream.len() as u64);
        assert_eq!((got.skipped, got.resyncs, got.truncated_tail), (0, 0, false));
    }
    // And with damage on both sides of every 64 KiB mark.
    let mut dirty = stream.clone();
    for mark in (65_536..dirty.len()).step_by(65_536) {
        dirty[mark - 1] ^= 0x40;
        dirty[mark + 1] ^= 0x01;
    }
    for mode in [ReadMode::Strict, ReadMode::Tolerant] {
        let want = Oracle::run(&dirty, mode);
        for chunk in [4096, 100_000, usize::MAX] {
            let got = observe(Chunked { data: &dirty, chunk }, mode, dirty.len());
            assert!(got == want, "chunk {chunk}, {mode:?}: damaged read differs from the oracle");
        }
    }
}

#[test]
fn crc32_equals_the_bitwise_definition_at_every_length_and_alignment() {
    let bytes: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
    for start in 0..8 {
        for len in 0..=64 {
            let data = &bytes[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start}, len {len}");
        }
    }
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
}

// ---------------------------------------------------------------------
// The two small CRC-sealed formats, store manifest and shard lease: no
// input panics a decoder, and a decoder accepts exactly the bytes its
// encoder writes — `encode(decode(b)) == b` for every `b` that decodes.
// ---------------------------------------------------------------------

use ipactive_logfmt::{DayMeta, Lease, Manifest};

/// One format under test: its decoder composed with its encoder.
type Recode = fn(&[u8]) -> Option<Vec<u8>>;

const MANIFEST: Recode = |bytes| Manifest::decode(bytes).ok().map(|m| m.encode());
const LEASE: Recode = |bytes| Lease::decode(bytes).ok().map(|l| l.encode());

/// The contract on one input: decoding returns (it did not panic if
/// we are here), and what decodes re-encodes to the same bytes.
fn assert_decodes_only_its_own_encoding(recode: Recode, bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Some(again) = recode(bytes) {
        prop_assert!(again == bytes, "decoded, but re-encodes as {again:02X?}: {bytes:02X?}");
    }
    Ok(())
}

/// Overwrites the trailing CRC-32 with the right one for the bytes
/// before it, so a mutated body gets past the checksum.
fn reseal(bytes: &mut [u8]) {
    if let Some(body_len) = bytes.len().checked_sub(4) {
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Every truncation, plain and re-sealed, a trailing byte, and every
/// single-byte mutation re-sealed, of one valid encoding.
fn assert_survives_truncation_and_mutation(
    recode: Recode,
    valid: &[u8],
) -> Result<(), TestCaseError> {
    prop_assert!(recode(valid).as_deref() == Some(valid), "a valid encoding must round-trip");
    for keep in 0..valid.len() {
        prop_assert!(recode(&valid[..keep]).is_none(), "truncation to {keep} bytes decoded");
        let mut resealed = valid[..keep].to_vec();
        reseal(&mut resealed);
        assert_decodes_only_its_own_encoding(recode, &resealed)?;
    }
    // One byte more than the encoder writes, behind a valid CRC.
    let mut longer = [&valid[..valid.len() - 4], &[0; 5][..]].concat();
    reseal(&mut longer);
    prop_assert!(recode(&longer).is_none(), "an encoding with a trailing byte decoded");
    for pos in 0..valid.len() - 4 {
        // 0x80 toggles a varint's continuation bit, 0x7F its payload.
        for mask in [0x01, 0x41, 0x7F, 0x80, 0xFF] {
            let mut dirty = valid.to_vec();
            dirty[pos] ^= mask;
            reseal(&mut dirty);
            assert_decodes_only_its_own_encoding(recode, &dirty)?;
        }
    }
    Ok(())
}

/// Whole-domain values mixed with small ones, whose varints are short
/// enough for a flipped continuation bit to swallow the next field.
fn arb_field() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..300, Just(0u64)]
}

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    let day = (any::<u16>(), arb_field(), arb_field(), arb_field(), any::<u32>()).prop_map(
        |(day, generation, records, file_len, file_crc)| {
            (day, DayMeta { generation, records, file_len, file_crc })
        },
    );
    (arb_field(), prop::collection::vec(day, 0..6))
        .prop_map(|(generation, days)| Manifest { generation, days: days.into_iter().collect() })
}

fn arb_lease() -> impl Strategy<Value = Lease> {
    (any::<u32>(), arb_field(), arb_field(), 0u32..5, arb_field()).prop_map(
        |(shard, epoch, holder, attempt, beat)| Lease { shard, epoch, holder, attempt, beat },
    )
}

proptest! {
    #[test]
    fn manifest_and_lease_decoders_never_panic_on_arbitrary_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..200),
        // A body of varint-shaped bytes behind the right magic and a
        // valid CRC: the inputs that reach the field parser.
        body in prop::collection::vec(
            prop_oneof![any::<u8>(), Just(0x00u8), Just(0x01), Just(0x02), Just(0x80), Just(0xFF)],
            0..48,
        ),
    ) {
        let lease = Lease { shard: 0, epoch: 0, holder: 0, attempt: 0, beat: 0 };
        for (recode, magic) in [(MANIFEST, Manifest::default().encode()), (LEASE, lease.encode())] {
            assert_decodes_only_its_own_encoding(recode, &noise)?;
            let mut sealed = magic[..8].to_vec();
            sealed.extend_from_slice(&body);
            sealed.extend_from_slice(&[0; 4]);
            reseal(&mut sealed);
            assert_decodes_only_its_own_encoding(recode, &sealed)?;
        }
    }

    #[test]
    fn manifest_decode_survives_every_truncation_and_resealed_mutation(m in arb_manifest()) {
        assert_survives_truncation_and_mutation(MANIFEST, &m.encode())?;
    }

    #[test]
    fn lease_decode_survives_every_truncation_and_resealed_mutation(l in arb_lease()) {
        assert_survives_truncation_and_mutation(LEASE, &l.encode())?;
    }
}
