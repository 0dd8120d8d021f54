//! # ipactive-logfmt
//!
//! Binary wire format for CDN access-log aggregates.
//!
//! The measurement substrate of this project mirrors the paper's data
//! collection path: edge servers aggregate per-IP request counts and
//! sampled `User-Agent` strings, serialize them into a compact framed
//! stream, and ship them to a collector. This crate defines that stream:
//!
//! * [`Record`] — the log record vocabulary (daily hit aggregates, UA
//!   samples, day boundaries, end-of-stream markers).
//! * [`FrameWriter`] / [`FrameReader`] — length-delimited, CRC-32
//!   checksummed framing over any `Write` / `Read` (or in-memory
//!   buffers via the `bytes` crate).
//! * Fault tolerance: the reader detects truncation and corruption and
//!   can either fail fast or skip damaged frames ([`ReadMode`]),
//!   mirroring the fault-injection philosophy of production network
//!   stacks.
//!
//! ```
//! use ipactive_logfmt::{FrameReader, FrameWriter, ReadMode, Record};
//!
//! let mut buf = Vec::new();
//! let mut w = FrameWriter::new(&mut buf);
//! w.write(&Record::DayStart { day: 3 }).unwrap();
//! w.write(&Record::Hits { day: 3, addr: 0xC0000201.into(), hits: 42 }).unwrap();
//! w.finish().unwrap();
//!
//! let mut r = FrameReader::new(&buf[..], ReadMode::Strict);
//! assert_eq!(r.read().unwrap(), Some(Record::DayStart { day: 3 }));
//! assert!(matches!(r.read().unwrap(), Some(Record::Hits { hits: 42, .. })));
//! assert_eq!(r.read().unwrap(), None); // Finish marker ends the stream.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod frame;
pub mod fsck;
pub mod lease;
pub mod manifest;
mod record;
mod store;
mod varint;
pub mod vfs;

pub use crc::crc32;
pub use frame::{
    FrameError, FrameReader, FrameWriter, QuarantineReason, QuarantinedFrame, ReadMode,
    QUARANTINE_CAPTURE_CAP,
};
pub use fsck::{fsck, record_fsck, DayCheck, DayVerdict, FsckReport, Quarantined};
pub use lease::{read_lease, write_lease, Lease, LeaseError, LeaseRead};
pub use manifest::{DayMeta, Manifest, ManifestError};
pub use record::{BlockDay, DecodeError, Record};
pub use store::{DayDamage, LogStore, StoreError};
pub use varint::{decode_u64, encode_u64, VarintError};
pub use vfs::{CrashStyle, Fs, FsFile, Inject, OpLabel, RealFs, SimFs};
