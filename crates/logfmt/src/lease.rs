//! CRC-protected shard lease files for process-level coordination.
//!
//! A distributed collection run assigns each shard to a worker
//! *process* through a lease file living inside that shard's store
//! directory (`lease-0004.lse`). The lease is the unit of handoff:
//!
//! * the **coordinator** grants a shard by publishing a lease with a
//!   fresh `epoch` (a fencing token — strictly increasing across
//!   grants, so a late write from a deposed holder is recognizably
//!   stale);
//! * the **worker** heartbeats by republishing the lease with a larger
//!   `beat`. The beat counter is tied to replay *progress* (buffers
//!   decoded, days committed), never wall-clock time, so lease state
//!   is a deterministic function of how far the worker got;
//! * the coordinator detects a wedged worker as one whose beat stops
//!   advancing, and steals the shard by granting a new epoch to a
//!   successor.
//!
//! Every publish goes through the store's one `publish` step (unique
//! tmp + fsync + rename) followed by a directory fsync, and the tmp
//! names start with `.lease-` so [`LogStore::open`](crate::LogStore::open)'s
//! stale-tmp sweep disposes of a killed writer's leftovers. A torn or
//! bit-rotted lease fails its trailing CRC on decode (and bytes
//! [`Lease::encode`] cannot have written are refused even under a
//! valid one) and reads as [`LeaseRead::Corrupt`] — the coordinator
//! treats that exactly like an expired lease and fences a fresh epoch
//! over it.
//!
//! ## Byte layout (`lease-SSSS.lse`)
//!
//! ```text
//! +---------------------------+----------------+
//! | magic "IPLSLE1\n" (8B)    | shard (LEB)    |
//! +---------------------------+----------------+
//! | epoch (LEB) | holder (LEB)                 |
//! +----------------------------------------- --+
//! | attempt (LEB) | beat (LEB)                 |
//! +---------------------------------------------+
//! | lease_crc32 over all preceding bytes (4B LE)|
//! +---------------------------------------------+
//! ```

use crate::crc::crc32;
use crate::varint::{decode_u64, encode_u64, VarintError};
use crate::vfs::{publish, read_file, Fs};
use std::io;
use std::path::{Path, PathBuf};

/// File-name prefix of every lease file.
pub const LEASE_PREFIX: &str = "lease-";
/// File-name suffix of every lease file.
pub const LEASE_SUFFIX: &str = ".lse";
const MAGIC: &[u8; 8] = b"IPLSLE1\n";

/// One shard's current lease: who holds it, under which fencing
/// epoch, and how far they have provably gotten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The shard this lease governs.
    pub shard: u32,
    /// Fencing token: strictly increases across grants/steals. A
    /// publish carrying an older epoch than the file's is a deposed
    /// holder's late write and must be ignored.
    pub epoch: u64,
    /// Logical id of the holding worker (assignment-order index, not
    /// a pid — lease bytes must stay deterministic run to run).
    pub holder: u64,
    /// Which reassignment attempt this grant is (0 = first grant).
    pub attempt: u32,
    /// Progress heartbeat: buffers replayed + days committed so far.
    /// Monotone within an epoch; a beat that stops advancing marks a
    /// wedged holder.
    pub beat: u64,
}

/// Why a lease file failed to decode.
#[derive(Debug)]
pub enum LeaseError {
    /// The magic header did not match (or the file is too short).
    BadMagic,
    /// A varint field was malformed.
    BadField(VarintError),
    /// The file ended inside a field.
    Truncated,
    /// The trailing CRC-32 did not match the content.
    BadChecksum,
    /// The shard or attempt field exceeded its type's range.
    FieldOutOfRange(u64),
    /// The bytes verify but are not the ones [`Lease::encode`] writes:
    /// trailing bytes or an over-long varint.
    NotCanonical,
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::BadMagic => write!(f, "bad lease magic"),
            LeaseError::BadField(e) => write!(f, "bad lease field: {e}"),
            LeaseError::Truncated => write!(f, "lease truncated"),
            LeaseError::BadChecksum => write!(f, "lease checksum mismatch"),
            LeaseError::FieldOutOfRange(v) => write!(f, "lease field {v} out of range"),
            LeaseError::NotCanonical => write!(f, "lease bytes differ from their re-encoding"),
        }
    }
}

impl std::error::Error for LeaseError {}

impl Lease {
    /// Serializes the lease, appending the trailing CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(MAGIC.len() + 5 * 10 + 4);
        buf.extend_from_slice(MAGIC);
        encode_u64(&mut buf, u64::from(self.shard));
        encode_u64(&mut buf, self.epoch);
        encode_u64(&mut buf, self.holder);
        encode_u64(&mut buf, u64::from(self.attempt));
        encode_u64(&mut buf, self.beat);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and verifies a lease file's bytes.
    pub fn decode(bytes: &[u8]) -> Result<Lease, LeaseError> {
        if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(LeaseError::BadMagic);
        }
        let (content, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(content) != stored {
            return Err(LeaseError::BadChecksum);
        }
        let mut rest = &content[MAGIC.len()..];
        let next = |rest: &mut &[u8]| -> Result<u64, LeaseError> {
            if rest.is_empty() {
                return Err(LeaseError::Truncated);
            }
            decode_u64(rest).map_err(LeaseError::BadField)
        };
        let shard = next(&mut rest)?;
        let shard = u32::try_from(shard).map_err(|_| LeaseError::FieldOutOfRange(shard))?;
        let epoch = next(&mut rest)?;
        let holder = next(&mut rest)?;
        let attempt = next(&mut rest)?;
        let attempt = u32::try_from(attempt).map_err(|_| LeaseError::FieldOutOfRange(attempt))?;
        let beat = next(&mut rest)?;
        let lease = Lease { shard, epoch, holder, attempt, beat };
        if lease.encode() != bytes {
            return Err(LeaseError::NotCanonical);
        }
        Ok(lease)
    }

    /// The file name of `shard`'s lease.
    pub fn file_name(shard: u32) -> String {
        format!("{LEASE_PREFIX}{shard:04}{LEASE_SUFFIX}")
    }

    /// The path of `shard`'s lease under `dir`.
    pub fn path(dir: &Path, shard: u32) -> PathBuf {
        dir.join(Self::file_name(shard))
    }
}

/// What a lease read found.
#[derive(Debug)]
pub enum LeaseRead {
    /// No lease file exists — the shard was never granted here.
    Absent,
    /// A lease file exists but fails verification (torn publish, bit
    /// rot). Coordinators treat this exactly like an expired lease.
    Corrupt(LeaseError),
    /// A verified lease.
    Held(Lease),
}

/// Durably publishes `lease` into `dir`: the store's `publish` step,
/// then the directory fsync that makes the rename survive. A killed
/// writer's tmp file is swept by the next
/// [`LogStore::open`](crate::LogStore::open) on the directory.
pub fn write_lease<F: Fs>(fs: &F, dir: &Path, lease: &Lease) -> io::Result<()> {
    publish(fs, dir, &Lease::file_name(lease.shard), &lease.encode())?;
    fs.sync_dir(dir)
}

/// Reads and verifies `shard`'s lease under `dir`. Only genuine I/O
/// failures (other than the file being absent) surface as errors;
/// damage is reported in-band as [`LeaseRead::Corrupt`].
pub fn read_lease<F: Fs>(fs: &F, dir: &Path, shard: u32) -> io::Result<LeaseRead> {
    match read_file(fs, &Lease::path(dir, shard)) {
        Ok(bytes) => Ok(Lease::decode(&bytes).map_or_else(LeaseRead::Corrupt, LeaseRead::Held)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(LeaseRead::Absent),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{CrashStyle, Inject, SimFs};

    fn sample() -> Lease {
        Lease { shard: 3, epoch: 7, holder: 2, attempt: 1, beat: 1 << 40 }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let l = sample();
        assert_eq!(Lease::decode(&l.encode()).unwrap(), l);
        let edge = Lease { shard: u32::MAX, epoch: u64::MAX, holder: 0, attempt: u32::MAX, beat: 0 };
        assert_eq!(Lease::decode(&edge.encode()).unwrap(), edge);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for pos in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[pos] ^= 0x41;
            assert!(Lease::decode(&dirty).is_err(), "flip at byte {pos} slipped through");
        }
    }

    #[test]
    fn file_name_is_pinned() {
        assert_eq!(Lease::file_name(4), "lease-0004.lse");
    }

    #[test]
    fn published_lease_survives_pessimist_crash() {
        let fs = SimFs::new();
        let dir = Path::new("/store/shard-0003");
        write_lease(&fs, dir, &sample()).unwrap();
        let fs = fs.crash(CrashStyle::Pessimist);
        match read_lease(&fs, dir, 3).unwrap() {
            LeaseRead::Held(l) => assert_eq!(l, sample()),
            other => panic!("expected a held lease, got {other:?}"),
        }
    }

    /// A publish cut down mid-protocol must never leave a half-lease
    /// visible under the final name: the old lease (or nothing)
    /// survives, and the damage is confined to a sweepable tmp.
    #[test]
    fn torn_publish_leaves_old_lease_or_absent_never_garbage() {
        let dir = Path::new("/store/shard-0003");
        // Count the ops of an undisturbed publish, then cut at each.
        let probe = SimFs::new();
        write_lease(&probe, dir, &sample()).unwrap();
        let total_ops = probe.ops();
        for cut in 0..total_ops {
            let fs = SimFs::new().with_fault(cut, Inject::PowerCut);
            let first = Lease { beat: 0, ..sample() };
            assert!(write_lease(&fs, dir, &first).is_err());
            let fs = fs.crash(CrashStyle::Torn { seed: cut });
            match read_lease(&fs, dir, 3).unwrap() {
                LeaseRead::Absent | LeaseRead::Held(_) => {}
                LeaseRead::Corrupt(e) => {
                    // Torn bytes under the final name are impossible:
                    // the rename only happens after the fsync.
                    panic!("cut at op {cut} left a corrupt published lease: {e}");
                }
            }
        }
    }

    /// Republishing (a heartbeat) replaces the lease atomically; a
    /// deposed holder's stale epoch remains detectable by compare.
    #[test]
    fn heartbeat_republish_replaces_atomically() {
        let fs = SimFs::new();
        let dir = Path::new("/store/shard-0003");
        write_lease(&fs, dir, &sample()).unwrap();
        let renewed = Lease { beat: sample().beat + 5, ..sample() };
        write_lease(&fs, dir, &renewed).unwrap();
        match read_lease(&fs, dir, 3).unwrap() {
            LeaseRead::Held(l) => assert_eq!(l, renewed),
            other => panic!("expected renewed lease, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_lease_reads_in_band() {
        let fs = SimFs::new();
        let dir = Path::new("/store/shard-0007");
        fs.put_file(&Lease::path(dir, 7), b"not a lease");
        assert!(matches!(read_lease(&fs, dir, 7).unwrap(), LeaseRead::Corrupt(_)));
        assert!(matches!(read_lease(&fs, dir, 8).unwrap(), LeaseRead::Absent));
    }
}
