//! The log record vocabulary.

use crate::varint::{decode_u64, decode_u64_word, encode_u64, VarintError};
use core::fmt;
use ipactive_net::{Addr, AddrBits256, Block24};

/// One record in the CDN log stream.
///
/// Records carry *aggregates*, matching the paper's processed dataset
/// ("we have access to the exact number of requests issued by each
/// single IP address", Section 3.2): edge servers pre-aggregate hits
/// per address per day, and sample one in N `User-Agent` strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Start-of-day marker; all following records belong to `day` until
    /// the next marker.
    DayStart {
        /// Observation day index (0-based).
        day: u16,
    },
    /// Aggregated successful WWW transactions for one address on one day.
    Hits {
        /// Observation day index.
        day: u16,
        /// The client address.
        addr: Addr,
        /// Number of successful requests ("hits") from `addr` that day.
        hits: u64,
    },
    /// One sampled `User-Agent` observation (stored as a 64-bit hash of
    /// the string; the analyses only need distinctness, and the hash
    /// keeps payloads fixed-size).
    UaSample {
        /// Observation day index.
        day: u16,
        /// The client address the sample was taken from.
        addr: Addr,
        /// 64-bit hash of the User-Agent string.
        ua_hash: u64,
    },
    /// A whole block's day in one frame: a 256-bit activity bitmap
    /// plus one hit count per active address. The packed form of the
    /// same information as 1..=256 [`Record::Hits`] records — edge
    /// servers batch per block to amortize framing overhead (the
    /// `blockday_is_compact` test holds the size win).
    BlockDay(Box<BlockDay>),
    /// End-of-stream marker written by [`crate::FrameWriter::finish`].
    Finish,
}

/// Payload of [`Record::BlockDay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDay {
    /// Observation day index.
    pub day: u16,
    /// The block.
    pub block: Block24,
    /// `(host index, hits)` for each active address, strictly
    /// ascending by host and with `hits > 0`.
    pub entries: Vec<(u8, u64)>,
}

impl BlockDay {
    /// Builds a packed record, validating the entry invariants.
    ///
    /// # Panics
    /// If entries are not strictly ascending by host or contain a
    /// zero hit count.
    pub fn new(day: u16, block: Block24, entries: Vec<(u8, u64)>) -> BlockDay {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be strictly ascending by host"
        );
        assert!(entries.iter().all(|&(_, h)| h > 0), "zero hit counts are not activity");
        BlockDay { day, block, entries }
    }

    /// Expands to the equivalent per-address [`Record::Hits`] records.
    pub fn unpack(&self) -> impl Iterator<Item = Record> + '_ {
        self.entries.iter().map(move |&(host, hits)| Record::Hits {
            day: self.day,
            addr: self.block.addr(host),
            hits,
        })
    }
}

/// Wire-format record kind tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    DayStart = 1,
    Hits = 2,
    UaSample = 3,
    Finish = 4,
    BlockDay = 5,
}

impl Kind {
    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::DayStart),
            2 => Some(Kind::Hits),
            3 => Some(Kind::UaSample),
            4 => Some(Kind::Finish),
            5 => Some(Kind::BlockDay),
            _ => None,
        }
    }
}

/// Error decoding a [`Record`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The kind byte is not a known record type.
    UnknownKind(u8),
    /// A varint field was malformed.
    Varint(VarintError),
    /// A field's value was out of range (e.g. day > u16::MAX).
    FieldRange(&'static str),
    /// Payload had trailing garbage after the last field.
    TrailingBytes(usize),
    /// Payload ended before the last field.
    Truncated,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownKind(k) => write!(f, "unknown record kind {k}"),
            DecodeError::Varint(e) => write!(f, "bad varint: {e}"),
            DecodeError::FieldRange(field) => write!(f, "field {field} out of range"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
            DecodeError::Truncated => write!(f, "record payload truncated"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<VarintError> for DecodeError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => DecodeError::Truncated,
            other => DecodeError::Varint(other),
        }
    }
}

impl Record {
    /// Encodes the record (kind byte + payload) into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Record::BlockDay(ref bd) => {
                buf.push(Kind::BlockDay as u8);
                encode_u64(buf, bd.day as u64);
                encode_u64(buf, bd.block.id() as u64);
                let mut bitmap = AddrBits256::new();
                for &(host, _) in &bd.entries {
                    bitmap.set(host);
                }
                for word in bitmap_words(&bitmap) {
                    buf.extend_from_slice(&word.to_le_bytes());
                }
                for &(_, hits) in &bd.entries {
                    encode_u64(buf, hits);
                }
            }
            Record::DayStart { day } => {
                buf.push(Kind::DayStart as u8);
                encode_u64(buf, day as u64);
            }
            Record::Hits { day, addr, hits } => {
                buf.push(Kind::Hits as u8);
                encode_u64(buf, day as u64);
                encode_u64(buf, addr.bits() as u64);
                encode_u64(buf, hits);
            }
            Record::UaSample { day, addr, ua_hash } => {
                buf.push(Kind::UaSample as u8);
                encode_u64(buf, day as u64);
                encode_u64(buf, addr.bits() as u64);
                encode_u64(buf, ua_hash);
            }
            Record::Finish => {
                buf.push(Kind::Finish as u8);
            }
        }
    }

    /// Decodes one record from `buf`; the buffer must contain exactly
    /// one record (frame payloads are length-delimited upstream).
    pub fn decode(mut buf: &[u8]) -> Result<Record, DecodeError> {
        let Some((&kind, rest)) = buf.split_first() else {
            return Err(DecodeError::Truncated);
        };
        buf = rest;
        let kind = Kind::from_u8(kind).ok_or(DecodeError::UnknownKind(kind))?;
        let rec = match kind {
            Kind::DayStart => {
                let day = field_u16(&mut buf, "day")?;
                Record::DayStart { day }
            }
            Kind::Hits => {
                let day = field_u16(&mut buf, "day")?;
                let addr = field_addr(&mut buf)?;
                let hits = decode_u64(&mut buf)?;
                Record::Hits { day, addr, hits }
            }
            Kind::UaSample => {
                let day = field_u16(&mut buf, "day")?;
                let addr = field_addr(&mut buf)?;
                let ua_hash = decode_u64(&mut buf)?;
                Record::UaSample { day, addr, ua_hash }
            }
            Kind::Finish => Record::Finish,
            Kind::BlockDay => {
                let day = field_u16(&mut buf, "day")?;
                let block = decode_u64(&mut buf)?;
                let block = u32::try_from(block)
                    .ok()
                    .filter(|&b| b < (1 << 24))
                    .map(Block24::new)
                    .ok_or(DecodeError::FieldRange("block"))?;
                if buf.len() < 32 {
                    return Err(DecodeError::Truncated);
                }
                // Four little-endian words, low hosts first: host `i` is
                // bit `i % 8` of byte `i / 8`.
                let (words, rest) = buf.split_at(32);
                buf = rest;
                let mut bitmap = AddrBits256::new();
                for i in 0..=255u8 {
                    if words[(i >> 3) as usize] & (1 << (i & 7)) != 0 {
                        bitmap.set(i);
                    }
                }
                let mut entries = Vec::with_capacity(bitmap.count() as usize);
                for host in bitmap.iter() {
                    let hits = decode_u64(&mut buf)?;
                    if hits == 0 {
                        return Err(DecodeError::FieldRange("hits"));
                    }
                    entries.push((host, hits));
                }
                Record::BlockDay(Box::new(BlockDay { day, block, entries }))
            }
        };
        if !buf.is_empty() {
            return Err(DecodeError::TrailingBytes(buf.len()));
        }
        Ok(rec)
    }
}

/// [`Record::decode`] of the `len`-byte payload at the front of `buf`
/// for the three small kinds, every varint read a word at a time —
/// which is why `buf` runs on past the payload: a read may take in
/// bytes behind it, none of which reaches a value, because a record is
/// delivered only if its last field ends exactly at `len`. Kind, field
/// ranges and length are checked as `decode` checks them; `None` is
/// anything but a delivered record, and `decode` gives the verdict.
#[inline]
pub(crate) fn decode_in_place(buf: &[u8], len: usize) -> Option<Record> {
    let kind = Kind::from_u8(*buf.first()?)?;
    if matches!(kind, Kind::Finish | Kind::BlockDay) {
        return None;
    }
    let mut at = 1;
    let mut field = || {
        let (value, width) = decode_u64_word(buf.get(at..)?)?;
        at += width;
        Some(value)
    };
    let day = u16::try_from(field()?).ok()?;
    let record = if kind == Kind::DayStart {
        Record::DayStart { day }
    } else {
        let addr = Addr::new(u32::try_from(field()?).ok()?);
        let last = field()?;
        if kind == Kind::Hits {
            Record::Hits { day, addr, hits: last }
        } else {
            Record::UaSample { day, addr, ua_hash: last }
        }
    };
    (at == len).then_some(record)
}

/// The four little-endian words of an address bitmap, low hosts first.
fn bitmap_words(bits: &AddrBits256) -> [u64; 4] {
    let mut words = [0u64; 4];
    for host in bits.iter() {
        words[(host >> 6) as usize] |= 1u64 << (host & 63);
    }
    words
}

fn field_u16(buf: &mut &[u8], name: &'static str) -> Result<u16, DecodeError> {
    let v = decode_u64(buf)?;
    u16::try_from(v).map_err(|_| DecodeError::FieldRange(name))
}

fn field_addr(buf: &mut &[u8]) -> Result<Addr, DecodeError> {
    let v = decode_u64(buf)?;
    let bits = u32::try_from(v).map_err(|_| DecodeError::FieldRange("addr"))?;
    Ok(Addr::new(bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: Record) {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(Record::decode(&buf).unwrap(), rec);
    }

    #[test]
    fn roundtrip_all_kinds() {
        roundtrip(Record::DayStart { day: 0 });
        roundtrip(Record::DayStart { day: u16::MAX });
        roundtrip(Record::Hits { day: 111, addr: Addr::new(0xC0000201), hits: 0 });
        roundtrip(Record::Hits { day: 1, addr: Addr::MAX, hits: u64::MAX });
        roundtrip(Record::UaSample { day: 7, addr: Addr::new(1), ua_hash: 0xDEAD_BEEF_CAFE_F00D });
        roundtrip(Record::Finish);
        roundtrip(Record::BlockDay(Box::new(BlockDay::new(
            42,
            Block24::new(0x0A0102),
            vec![(0, 1), (7, 300), (255, u64::MAX)],
        ))));
        // Empty and full blocks.
        roundtrip(Record::BlockDay(Box::new(BlockDay::new(1, Block24::new(3), vec![]))));
        roundtrip(Record::BlockDay(Box::new(BlockDay::new(
            1,
            Block24::new(3),
            (0..=255u8).map(|h| (h, h as u64 + 1)).collect(),
        ))));
    }

    #[test]
    fn blockday_is_equivalent_to_hits_records() {
        let bd = BlockDay::new(9, Block24::new(0x0A0000), vec![(3, 10), (200, 77)]);
        let unpacked: Vec<Record> = bd.unpack().collect();
        assert_eq!(unpacked.len(), 2);
        assert_eq!(
            unpacked[0],
            Record::Hits { day: 9, addr: "10.0.0.3".parse().unwrap(), hits: 10 }
        );
        assert_eq!(
            unpacked[1],
            Record::Hits { day: 9, addr: "10.0.0.200".parse().unwrap(), hits: 77 }
        );
    }

    #[test]
    fn blockday_is_compact() {
        // 100 active addresses as one packed record vs 100 Hits records.
        let entries: Vec<(u8, u64)> = (0..100u8).map(|h| (h, 50)).collect();
        let bd = Record::BlockDay(Box::new(BlockDay::new(5, Block24::new(7), entries.clone())));
        let mut packed = Vec::new();
        bd.encode(&mut packed);
        let mut flat = Vec::new();
        if let Record::BlockDay(bd) = &bd {
            for rec in bd.unpack() {
                rec.encode(&mut flat);
            }
        }
        assert!(
            packed.len() * 2 < flat.len(),
            "packed {} vs flat {}",
            packed.len(),
            flat.len()
        );
    }

    #[test]
    fn blockday_rejects_malformed_payloads() {
        // Truncated bitmap.
        let mut buf = vec![5u8];
        crate::varint::encode_u64(&mut buf, 1); // day
        crate::varint::encode_u64(&mut buf, 7); // block
        buf.extend_from_slice(&[0u8; 16]); // only half a bitmap
        assert_eq!(Record::decode(&buf), Err(DecodeError::Truncated));
        // Bitmap claims an entry but hits are missing.
        let mut buf = vec![5u8];
        crate::varint::encode_u64(&mut buf, 1);
        crate::varint::encode_u64(&mut buf, 7);
        let mut bitmap = [0u8; 32];
        bitmap[0] = 0b1; // host 0 active
        buf.extend_from_slice(&bitmap);
        assert_eq!(Record::decode(&buf), Err(DecodeError::Truncated));
        // Zero hits for an active host.
        crate::varint::encode_u64(&mut buf, 0);
        assert_eq!(Record::decode(&buf), Err(DecodeError::FieldRange("hits")));
        // Oversized block id.
        let mut buf = vec![5u8];
        crate::varint::encode_u64(&mut buf, 1);
        crate::varint::encode_u64(&mut buf, 1 << 24);
        buf.extend_from_slice(&[0u8; 32]);
        assert_eq!(Record::decode(&buf), Err(DecodeError::FieldRange("block")));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn blockday_new_rejects_unordered_entries() {
        BlockDay::new(1, Block24::new(1), vec![(5, 1), (5, 2)]);
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(Record::decode(&[99]), Err(DecodeError::UnknownKind(99)));
        assert_eq!(Record::decode(&[0]), Err(DecodeError::UnknownKind(0)));
    }

    #[test]
    fn empty_payload_rejected() {
        assert_eq!(Record::decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn truncated_fields_rejected() {
        let mut buf = Vec::new();
        Record::Hits { day: 300, addr: Addr::new(0x01020304), hits: 12345 }.encode(&mut buf);
        for cut in 1..buf.len() {
            assert!(
                Record::decode(&buf[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        Record::DayStart { day: 5 }.encode(&mut buf);
        buf.push(0);
        assert_eq!(Record::decode(&buf), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn day_overflow_rejected() {
        // Hand-encode a DayStart with day = 2^20.
        let mut buf = vec![1u8];
        crate::varint::encode_u64(&mut buf, 1 << 20);
        assert_eq!(Record::decode(&buf), Err(DecodeError::FieldRange("day")));
    }

    #[test]
    fn addr_overflow_rejected() {
        let mut buf = vec![2u8];
        crate::varint::encode_u64(&mut buf, 1); // day
        crate::varint::encode_u64(&mut buf, u64::from(u32::MAX) + 1); // addr
        crate::varint::encode_u64(&mut buf, 1); // hits
        assert_eq!(Record::decode(&buf), Err(DecodeError::FieldRange("addr")));
    }

    #[test]
    fn hits_encoding_is_compact_for_common_case() {
        // Small hit counts on low addresses should be a handful of bytes.
        let mut buf = Vec::new();
        Record::Hits { day: 3, addr: Addr::from_octets(10, 0, 0, 1), hits: 17 }.encode(&mut buf);
        assert!(buf.len() <= 8, "expected compact encoding, got {} bytes", buf.len());
    }
}
