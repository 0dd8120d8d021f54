//! The store manifest: a CRC-protected, generation-journaled record of
//! which days are *committed*.
//!
//! A [`LogStore`](crate::LogStore) batch commit writes its day files
//! under generation-suffixed names (`day-0003.g000007.iplog`) and then
//! publishes them by writing a fresh manifest generation. Readers only
//! trust days the current manifest lists, so a crash anywhere inside a
//! multi-day batch leaves the previous manifest — and therefore the
//! previous fully-consistent day set — in force. There is never a
//! half-committed batch.
//!
//! ## Byte layout (`manifest-GGGGGG.mft`)
//!
//! ```text
//! +----------------+-----------------+------------------+
//! | magic "IPLSMF1\n" (8B)           | generation (LEB) |
//! +----------------+-----------------+------------------+
//! | num_days (LEB)                                      |
//! +-----------------------------------------------------+
//! | per day, ascending by day number:                   |
//! |   day (LEB) | file_generation (LEB)                 |
//! |   records (LEB) | file_len (LEB) | file_crc (4B LE) |
//! +-----------------------------------------------------+
//! | manifest_crc32 over all preceding bytes (4B LE)     |
//! +-----------------------------------------------------+
//! ```
//!
//! Every integer is the same LEB128 varint the frame layer uses; both
//! CRCs are the frame layer's CRC-32. The trailing manifest CRC makes
//! a torn manifest write detectable: decode fails, and the loader
//! falls back to the newest older generation that verifies. Decoding
//! accepts exactly the bytes [`Manifest::encode`] writes — trailing
//! bytes, repeated or descending days and over-long varints are
//! refused even under a valid CRC.
//!
//! This module is also the only place that builds or parses a store
//! file name, and the crate-private `resolve` is the only place that
//! decides which manifest file of a directory is in force: `open`
//! takes its answer, `fsck` its whole classification.

use crate::crc::crc32;
use crate::varint::{decode_u64, encode_u64, VarintError};
use crate::vfs::{read_file, Fs};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// File-name prefix of every manifest generation.
pub const MANIFEST_PREFIX: &str = "manifest-";
/// File-name suffix of every manifest generation.
pub const MANIFEST_SUFFIX: &str = ".mft";
const MAGIC: &[u8; 8] = b"IPLSMF1\n";

/// What the manifest records about one committed day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayMeta {
    /// Generation whose day file holds this day's bytes
    /// (`day-DDDD.gGGGGGG.iplog`).
    pub generation: u64,
    /// Number of data records in the day file (the Finish marker is
    /// not counted).
    pub records: u64,
    /// Exact byte length of the day file.
    pub file_len: u64,
    /// CRC-32 over the whole day file.
    pub file_crc: u32,
}

impl DayMeta {
    /// The footer of a day file holding `records` records in `bytes`,
    /// written under generation `generation`.
    pub(crate) fn of(generation: u64, records: u64, bytes: &[u8]) -> DayMeta {
        DayMeta { generation, records, file_len: bytes.len() as u64, file_crc: crc32(bytes) }
    }

    /// How `bytes` differ from the committed file (length first, then
    /// whole-file CRC), or `None` when the footer matches.
    pub(crate) fn mismatch(&self, bytes: &[u8]) -> Option<String> {
        if bytes.len() as u64 != self.file_len {
            Some(format!("file is {} bytes, manifest committed {}", bytes.len(), self.file_len))
        } else if crc32(bytes) != self.file_crc {
            Some("whole-file CRC mismatch against manifest".to_string())
        } else {
            None
        }
    }
}

/// The committed state of a store: its current generation and the
/// day → [`DayMeta`] map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Commit generation; each successful batch commit increments it.
    pub generation: u64,
    /// Committed days, keyed by day number.
    pub days: BTreeMap<u16, DayMeta>,
}

/// Why a manifest file failed to decode.
#[derive(Debug)]
pub enum ManifestError {
    /// The magic header did not match (or the file is too short).
    BadMagic,
    /// A varint field was malformed.
    BadField(VarintError),
    /// The file ended inside a field.
    Truncated,
    /// The trailing CRC-32 did not match the content.
    BadChecksum,
    /// A day number exceeded `u16`.
    DayOutOfRange(u64),
    /// The bytes verify but are not the ones [`Manifest::encode`]
    /// writes: trailing bytes, repeated or descending days, an
    /// over-long varint.
    NotCanonical,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::BadMagic => write!(f, "bad manifest magic"),
            ManifestError::BadField(e) => write!(f, "bad manifest field: {e}"),
            ManifestError::Truncated => write!(f, "manifest truncated"),
            ManifestError::BadChecksum => write!(f, "manifest checksum mismatch"),
            ManifestError::DayOutOfRange(d) => write!(f, "manifest day {d} out of range"),
            ManifestError::NotCanonical => {
                write!(f, "manifest bytes differ from their re-encoding")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Serializes the manifest, appending the trailing CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.days.len() * 16);
        buf.extend_from_slice(MAGIC);
        encode_u64(&mut buf, self.generation);
        encode_u64(&mut buf, self.days.len() as u64);
        for (&day, meta) in &self.days {
            encode_u64(&mut buf, u64::from(day));
            encode_u64(&mut buf, meta.generation);
            encode_u64(&mut buf, meta.records);
            encode_u64(&mut buf, meta.file_len);
            buf.extend_from_slice(&meta.file_crc.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and verifies a manifest file's bytes.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, ManifestError> {
        if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(ManifestError::BadMagic);
        }
        let (content, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(content) != stored {
            return Err(ManifestError::BadChecksum);
        }
        let mut rest = &content[MAGIC.len()..];
        let next = |rest: &mut &[u8]| -> Result<u64, ManifestError> {
            if rest.is_empty() {
                return Err(ManifestError::Truncated);
            }
            decode_u64(rest).map_err(ManifestError::BadField)
        };
        let generation = next(&mut rest)?;
        let num_days = next(&mut rest)?;
        let mut days = BTreeMap::new();
        for _ in 0..num_days {
            let day = next(&mut rest)?;
            let day = u16::try_from(day).map_err(|_| ManifestError::DayOutOfRange(day))?;
            let file_generation = next(&mut rest)?;
            let records = next(&mut rest)?;
            let file_len = next(&mut rest)?;
            if rest.len() < 4 {
                return Err(ManifestError::Truncated);
            }
            let (crc_raw, tail) = rest.split_at(4);
            let file_crc = u32::from_le_bytes(crc_raw.try_into().unwrap());
            rest = tail;
            days.insert(day, DayMeta { generation: file_generation, records, file_len, file_crc });
        }
        let manifest = Manifest { generation, days };
        // One comparison refuses everything `encode` cannot have
        // written: `rest` left over, a day `insert` overwrote or
        // re-ordered, a varint longer than it needs to be.
        if manifest.encode() != bytes {
            return Err(ManifestError::NotCanonical);
        }
        Ok(manifest)
    }

    /// The file name of generation `gen`'s manifest.
    pub fn file_name(gen: u64) -> String {
        format!("{MANIFEST_PREFIX}{gen:06}{MANIFEST_SUFFIX}")
    }

    /// The path of generation `gen`'s manifest under `dir`.
    pub fn path(dir: &Path, gen: u64) -> PathBuf {
        dir.join(Self::file_name(gen))
    }

    /// Parses a generation number out of a manifest file name.
    pub fn parse_file_name(name: &str) -> Option<u64> {
        name.strip_prefix(MANIFEST_PREFIX)?
            .strip_suffix(MANIFEST_SUFFIX)?
            .parse()
            .ok()
    }
}

/// Why [`resolve`] refuses a manifest file: `fsck` quarantines it with
/// this as the reason, `open` never loads it.
#[derive(Debug)]
pub(crate) enum Refusal {
    /// The file could not be read (a bad sector, or a live commit's
    /// sweep between the listing and the read).
    Unreadable(io::Error),
    /// Its bytes do not decode.
    Undecodable(ManifestError),
    /// Its bytes are a valid manifest — of this other generation.
    Misnamed(u64),
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::Unreadable(e) => write!(f, "manifest unreadable: {e}"),
            Refusal::Undecodable(e) => write!(f, "{e}"),
            Refusal::Misnamed(gen) => {
                write!(f, "manifest of generation {gen} under another generation's file name")
            }
        }
    }
}

/// Every manifest file of one store directory, classified — once,
/// here, so `LogStore::open_on` and `fsck` cannot disagree.
#[derive(Debug, Default)]
pub(crate) struct Resolved {
    /// The newest generation that decodes and encodes the generation
    /// its file is named for: the committed state.
    pub(crate) current: Option<Manifest>,
    /// Older generations that verify (superseded), newest first.
    pub(crate) stale: Vec<u64>,
    /// Generations that do not verify, newest first, and why.
    pub(crate) corrupt: Vec<(u64, Refusal)>,
}

/// Reads and classifies every manifest among `names` (the listing of
/// `dir`).
pub(crate) fn resolve<F: Fs>(fs: &F, dir: &Path, names: &[String]) -> Resolved {
    let mut gens: Vec<u64> = names.iter().filter_map(|n| Manifest::parse_file_name(n)).collect();
    gens.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = Resolved::default();
    for gen in gens {
        let decoded = read_file(fs, &Manifest::path(dir, gen))
            .map_err(Refusal::Unreadable)
            .and_then(|bytes| Manifest::decode(&bytes).map_err(Refusal::Undecodable));
        match decoded {
            Ok(m) if m.generation != gen => {
                out.corrupt.push((gen, Refusal::Misnamed(m.generation)));
            }
            Ok(m) if out.current.is_none() => out.current = Some(m),
            Ok(_) => out.stale.push(gen),
            Err(why) => out.corrupt.push((gen, why)),
        }
    }
    out
}

/// The file name of `day`'s generation-`gen` data file.
pub fn gen_day_file_name(day: u16, gen: u64) -> String {
    format!("day-{day:04}.g{gen:06}.iplog")
}

/// Parses `(day, generation)` out of a generational day-file name.
pub fn parse_gen_day_file_name(name: &str) -> Option<(u16, u64)> {
    let rest = name.strip_prefix("day-")?.strip_suffix(".iplog")?;
    let (day, gen) = rest.split_once(".g")?;
    // Reject e.g. "day-0001.g01.extra.iplog" masquerading as valid.
    if day.len() != 4 || gen.chars().any(|c| !c.is_ascii_digit()) {
        return None;
    }
    Some((day.parse().ok()?, gen.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut days = BTreeMap::new();
        days.insert(0, DayMeta { generation: 1, records: 10, file_len: 321, file_crc: 0xDEAD });
        days.insert(7, DayMeta { generation: 3, records: 0, file_len: 9, file_crc: 0 });
        days.insert(300, DayMeta { generation: 3, records: 1 << 40, file_len: u64::MAX, file_crc: u32::MAX });
        Manifest { generation: 3, days }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for pos in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[pos] ^= 0x41;
            assert!(
                Manifest::decode(&dirty).is_err(),
                "flip at byte {pos} slipped through"
            );
        }
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(Manifest::file_name(7), "manifest-000007.mft");
        assert_eq!(Manifest::parse_file_name("manifest-000007.mft"), Some(7));
        assert_eq!(Manifest::parse_file_name("manifest-junk.mft"), None);
        assert_eq!(Manifest::parse_file_name("day-0001.iplog"), None);
        assert_eq!(gen_day_file_name(3, 7), "day-0003.g000007.iplog");
        assert_eq!(parse_gen_day_file_name("day-0003.g000007.iplog"), Some((3, 7)));
        assert_eq!(parse_gen_day_file_name("day-0003.iplog"), None);
        assert_eq!(parse_gen_day_file_name("day-0003.g0x.iplog"), None);
    }
}
