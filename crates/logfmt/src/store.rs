//! On-disk log store: one framed file per observation day, published
//! in atomic batches by a journaled manifest.
//!
//! Production collectors persist their aggregates as a directory of
//! day files, each an independently framed stream — so a damaged or
//! missing day costs that day, not the dataset. [`LogStore`] provides
//! that layout with the same strict/tolerant read semantics as the
//! in-memory framing.
//!
//! There is one layout and one write path, [`LogStore::commit_days`]:
//! every day file of a batch is published under a generation-suffixed
//! name (`day-0003.g000007.iplog`) and made durable, then one new
//! [`Manifest`] generation publishes the whole batch atomically. A
//! store's days *are* its manifest's: readers resolve days through it
//! and never scan the directory, so a crash anywhere inside a batch
//! leaves the previous committed set — never a half-committed batch.
//! The manifest also records each day's record count, byte length and
//! whole-file CRC, which closes the one hole frame CRCs cannot: a file
//! truncated exactly on a frame boundary reads "cleanly" at the frame
//! layer but is caught by the footer check.
//!
//! All I/O goes through the [`Fs`] plane, so the crash-point suite in
//! `tests/crashpoints.rs` can run the store on [`SimFs`] and cut
//! power at every single operation; every file reaches its final name
//! through the plane's one `publish` step.
//!
//! [`SimFs`]: crate::SimFs

use crate::manifest::{self, gen_day_file_name, DayMeta, Manifest, ManifestError, Refusal};
use crate::vfs::{publish, read_file, Fs, RealFs};
use crate::{FrameError, FrameReader, FrameWriter, ReadMode, Record};
use ipactive_obs::{metrics::DECADE_BOUNDS, Counter, Event, EventKind, Histogram, Registry};
use std::io;
use std::path::{Path, PathBuf};

/// Pre-fetched handles into the store's observability registry — one
/// lookup at attach time, raw atomic increments on the I/O paths, so
/// instrumentation never adds an `Fs` operation (which would renumber
/// the crash-point grid) and never takes a lock mid-write.
#[derive(Debug, Clone)]
struct StoreObs {
    registry: Registry,
    /// `store.fsync` — every file or directory sync the store issues.
    fsync: Counter,
    /// `store.bytes_written` — bytes of day files and manifests.
    bytes_written: Counter,
    /// `store.day_writes` — day files written.
    day_writes: Counter,
    /// `store.records_written` / `store.records_read`.
    records_written: Counter,
    records_read: Counter,
    /// `store.day_reads` — day reads served.
    day_reads: Counter,
    /// Damage tallies from tolerant reads.
    frames_skipped: Counter,
    resyncs: Counter,
    lost_committed: Counter,
    /// `store.commits` — successful manifest commits.
    commits: Counter,
    /// `store.write.records` — records-per-day-write distribution.
    write_records: Histogram,
}

impl StoreObs {
    fn new(registry: &Registry) -> StoreObs {
        StoreObs {
            registry: registry.clone(),
            fsync: registry.counter("store.fsync"),
            bytes_written: registry.counter("store.bytes_written"),
            day_writes: registry.counter("store.day_writes"),
            records_written: registry.counter("store.records_written"),
            records_read: registry.counter("store.records_read"),
            day_reads: registry.counter("store.day_reads"),
            frames_skipped: registry.counter("store.frames_skipped"),
            resyncs: registry.counter("store.resyncs"),
            lost_committed: registry.counter("store.lost_committed"),
            commits: registry.counter("store.commits"),
            write_records: registry.histogram("store.write.records", DECADE_BOUNDS),
        }
    }

    /// Journals what a tolerant day read lost. Truncated tails and
    /// committed-record shortfalls are crash evidence; resyncs are
    /// framing damage.
    fn record_damage(&self, day: u16, damage: &DayDamage) {
        if damage.skipped > 0 {
            self.frames_skipped.add(damage.skipped);
        }
        if damage.resyncs > 0 {
            self.resyncs.add(damage.resyncs);
            self.registry.emit(
                Event::new(EventKind::Resync)
                    .day(day)
                    .detail(format!("{} resync scans reading day file", damage.resyncs)),
            );
        }
        if damage.truncated_tail {
            self.frames_skipped.inc();
            self.registry.emit(
                Event::new(EventKind::CrashRecovery)
                    .day(day)
                    .detail("day file ends inside a frame (truncated tail)"),
            );
        }
        if damage.lost_committed > 0 {
            self.lost_committed.add(damage.lost_committed);
            self.registry.emit(
                Event::new(EventKind::CrashRecovery)
                    .day(day)
                    .detail(format!("{} committed records missing", damage.lost_committed)),
            );
        }
    }
}

/// A directory of per-day framed log files and the manifest that
/// commits them, generic over the [`Fs`] it performs I/O through.
#[derive(Debug, Clone)]
pub struct LogStore<F: Fs = RealFs> {
    dir: PathBuf,
    fs: F,
    manifest: Option<Manifest>,
    obs: StoreObs,
}

/// Error from store operations, carrying the offending day and path
/// so supervisor logs and `fsck` output are actionable.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// The day being read or written, when the operation had one.
        day: Option<u16>,
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A day file's content was damaged (strict reads only).
    Frame {
        /// The day whose file is damaged.
        day: u16,
        /// The damaged file.
        path: PathBuf,
        /// The frame-level failure.
        source: FrameError,
    },
    /// Manifest files exist but none of them decodes cleanly — the
    /// committed state is unknowable and must not be guessed at.
    Manifest {
        /// The newest manifest file that failed to decode.
        path: PathBuf,
        /// Why it failed.
        source: ManifestError,
    },
    /// A committed day failed its manifest footer verification
    /// (strict reads only): wrong length, wrong whole-file CRC, or
    /// fewer records than the manifest promised.
    Committed {
        /// The day that failed verification.
        day: u16,
        /// The day file checked.
        path: PathBuf,
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { day: Some(day), path, source } => {
                write!(f, "io error on day {day} ({}): {source}", path.display())
            }
            StoreError::Io { day: None, path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            StoreError::Frame { day, path, source } => {
                write!(f, "frame error in day {day} ({}): {source}", path.display())
            }
            StoreError::Manifest { path, source } => {
                write!(f, "manifest error ({}): {source}", path.display())
            }
            StoreError::Committed { day, path, detail } => {
                write!(f, "committed day {day} failed verification ({}): {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Frame { source, .. } => Some(source),
            StoreError::Manifest { source, .. } => Some(source),
            StoreError::Committed { .. } => None,
        }
    }
}

impl StoreError {
    pub(crate) fn io(day: Option<u16>, path: &Path, source: io::Error) -> StoreError {
        StoreError::Io { day, path: path.to_path_buf(), source }
    }

    /// The day the error concerns, when it concerns one.
    pub fn day(&self) -> Option<u16> {
        match self {
            StoreError::Io { day, .. } => *day,
            StoreError::Frame { day, .. } | StoreError::Committed { day, .. } => Some(*day),
            StoreError::Manifest { .. } => None,
        }
    }

    /// The file or directory the error concerns.
    pub fn path(&self) -> &Path {
        match self {
            StoreError::Io { path, .. }
            | StoreError::Frame { path, .. }
            | StoreError::Manifest { path, .. }
            | StoreError::Committed { path, .. } => path,
        }
    }
}

/// Per-day damage accounting from a tolerant read, separating the two
/// shapes of loss that a single `skipped` counter used to conflate:
/// frames lost *inside* the file versus a file *cut short at EOF*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayDamage {
    /// Frames lost mid-file (bad checksum, bad record, lost framing).
    pub skipped: u64,
    /// Whether the file ended inside a frame — trailing truncation,
    /// the shape a power cut or torn write leaves behind.
    pub truncated_tail: bool,
    /// Times the reader lost framing and scanned for a new sync byte.
    pub resyncs: u64,
    /// Records the manifest promised for this day that did not
    /// materialize.
    pub lost_committed: u64,
}

impl DayDamage {
    /// Whether the read saw no damage of any shape.
    pub fn is_clean(&self) -> bool {
        self.skipped == 0 && !self.truncated_tail && self.resyncs == 0 && self.lost_committed == 0
    }

    /// Total damaged frames, counting a truncated tail as one — the
    /// quantity the old conflated `skipped` counter reported.
    pub fn lost_frames(&self) -> u64 {
        self.skipped + u64::from(self.truncated_tail)
    }
}

/// One day's records as the framed bytes of its day file — the only
/// encoder behind a commit and an `fsck` re-commit.
pub(crate) fn encode_day(records: &[Record]) -> Vec<u8> {
    let mut writer = FrameWriter::new(Vec::new());
    for rec in records {
        // Writing to a Vec cannot fail.
        writer.write(rec).expect("in-memory frame write");
    }
    writer.finish().expect("in-memory frame finish")
}

/// Scans a day file's bytes: the records that survive and the damage
/// account, measured against the `promised` record count of the day's
/// manifest footer (0 when no manifest commits the file). Fails only
/// in [`ReadMode::Strict`].
pub(crate) fn scan_day(
    bytes: &[u8],
    mode: ReadMode,
    promised: u64,
) -> Result<(Vec<Record>, DayDamage), FrameError> {
    let mut reader = FrameReader::new(bytes, mode);
    let records = reader.read_all()?;
    let truncated_tail = reader.truncated_tail();
    let damage = DayDamage {
        skipped: reader.skipped() - u64::from(truncated_tail),
        truncated_tail,
        resyncs: reader.resyncs(),
        lost_committed: promised.saturating_sub(records.len() as u64),
    };
    Ok((records, damage))
}

impl<F: Fs> LogStore<F> {
    /// Opens (creating if needed) a store rooted at `dir` on the given
    /// filesystem, sweeping any stale `.day-*.tmp` / `.manifest-*.tmp`
    /// / `.lease-*.tmp` files a crashed writer left behind — a tmp
    /// file is only meaningful to the call that created it, so on open
    /// every survivor is garbage. Loads the newest manifest generation
    /// that verifies; errors if manifests exist but none does.
    pub fn open_on(fs: F, dir: impl Into<PathBuf>) -> Result<LogStore<F>, StoreError> {
        Self::open_on_obs(fs, dir, &Registry::new())
    }

    /// [`LogStore::open_on`] with an explicit observability registry:
    /// the store records I/O counters (`store.fsync`,
    /// `store.bytes_written`, …) and journals recovery evidence
    /// (swept tmp files, truncated tails, committed-record loss) into
    /// `registry` for the life of this handle and its clones.
    pub fn open_on_obs(
        fs: F,
        dir: impl Into<PathBuf>,
        registry: &Registry,
    ) -> Result<LogStore<F>, StoreError> {
        let obs = StoreObs::new(registry);
        let dir = dir.into();
        fs.create_dir_all(&dir).map_err(|e| StoreError::io(None, &dir, e))?;
        let names = fs.read_dir_names(&dir).map_err(|e| StoreError::io(None, &dir, e))?;
        for name in &names {
            let stale = (name.starts_with(".day-")
                || name.starts_with(".manifest-")
                || name.starts_with(".lease-"))
                && name.ends_with(".tmp");
            if stale {
                // Best effort: a sweep that loses a race with a live
                // writer's cleanup must not fail the open.
                let _ = fs.remove_file(&dir.join(name));
                // Fixed, path-free detail: tmp names embed a pid, and
                // deterministic snapshots must not.
                obs.registry.emit(
                    Event::new(EventKind::CrashRecovery)
                        .detail("swept stale tmp file left by a crashed writer"),
                );
            }
        }
        // A torn or corrupt newest generation falls back to its
        // predecessor; if manifests exist but none verifies, that is
        // an error — guessing "nothing committed" would silently
        // unpublish data.
        let resolved = manifest::resolve(&fs, &dir, &names);
        if let (None, Some((gen, why))) = (&resolved.current, resolved.corrupt.into_iter().next()) {
            let path = Manifest::path(&dir, gen);
            return Err(match why {
                Refusal::Undecodable(source) => StoreError::Manifest { path, source },
                Refusal::Unreadable(e) => StoreError::io(None, &path, e),
                // A verdict on the file, not a decode failure of its bytes.
                Refusal::Misnamed(_) => {
                    let misnamed = io::Error::new(io::ErrorKind::InvalidData, why.to_string());
                    StoreError::io(None, &path, misnamed)
                }
            });
        }
        Ok(LogStore { dir, fs, manifest: resolved.current, obs })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem plane the store runs on.
    pub fn fs(&self) -> &F {
        &self.fs
    }

    /// The current committed manifest, if the store has one.
    pub fn manifest(&self) -> Option<&Manifest> {
        self.manifest.as_ref()
    }

    /// Publishes one file of a commit (not yet durable under its name
    /// — see [`LogStore::sync_dir`]) and accounts for it.
    fn publish(&self, day: Option<u16>, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        publish(&self.fs, &self.dir, name, bytes)
            .map_err(|e| StoreError::io(day, &self.dir.join(name), e))?;
        self.obs.fsync.inc();
        self.obs.bytes_written.add(bytes.len() as u64);
        Ok(())
    }

    /// Makes renames durable by fsyncing the store directory.
    fn sync_dir(&self) -> Result<(), StoreError> {
        self.fs.sync_dir(&self.dir).map_err(|e| StoreError::io(None, &self.dir, e))?;
        self.obs.fsync.inc();
        Ok(())
    }

    /// Atomically commits a batch of days: every day file is written
    /// under the next generation's name and made durable, then one
    /// new manifest generation publishes the whole batch. A reader
    /// (or a crash-and-reopen) observes either the previous committed
    /// set or the full new one — never part of the batch.
    ///
    /// Days already committed are superseded by the batch; days not
    /// in the batch stay committed untouched. Superseded generation
    /// files and old manifest generations are garbage-collected best
    /// effort after the commit point (a crash before the sweep leaves
    /// orphans for `fsck` to reconcile).
    ///
    /// Returns the new generation number.
    pub fn commit_days(&mut self, batch: &[(u16, Vec<Record>)]) -> Result<u64, StoreError> {
        let current = self.manifest.clone().unwrap_or_default();
        if batch.is_empty() {
            return Ok(current.generation);
        }
        for (i, (day, _)) in batch.iter().enumerate() {
            if batch[..i].iter().any(|(d, _)| d == day) {
                return Err(StoreError::io(
                    Some(*day),
                    &self.dir,
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("day {day} appears twice in one batch"),
                    ),
                ));
            }
        }
        let gen = current.generation + 1;
        let mut next = Manifest { generation: gen, days: current.days.clone() };
        for (day, records) in batch {
            let bytes = encode_day(records);
            self.publish(Some(*day), &gen_day_file_name(*day, gen), &bytes)?;
            self.obs.day_writes.inc();
            self.obs.records_written.add(records.len() as u64);
            self.obs.write_records.observe(records.len() as u64);
            next.days.insert(*day, DayMeta::of(gen, records.len() as u64, &bytes));
        }
        // One directory sync makes every batch file's name durable
        // before the manifest that references them can publish.
        self.sync_dir()?;
        // Commit point: the manifest's rename, then its directory sync.
        self.publish(None, &Manifest::file_name(gen), &next.encode())?;
        self.sync_dir()?;
        self.obs.commits.inc();

        // Post-commit sweep, best effort: the day files this batch
        // superseded and the manifest it replaced.
        for (day, _) in batch {
            if let Some(old) = current.days.get(day) {
                let _ = self.fs.remove_file(&self.dir.join(gen_day_file_name(*day, old.generation)));
            }
        }
        if self.manifest.is_some() {
            let _ = self.fs.remove_file(&Manifest::path(&self.dir, current.generation));
        }
        self.manifest = Some(next);
        Ok(gen)
    }

    /// The days the current manifest has committed, ascending (empty
    /// for a store that never committed). This is the store's one
    /// listing: a file the manifest does not name is not a day.
    pub fn committed_days(&self) -> Vec<u16> {
        self.manifest.as_ref().map(|m| m.days.keys().copied().collect()).unwrap_or_default()
    }

    /// Reads one day's records with the given tolerance. Returns the
    /// records plus a [`DayDamage`] account that distinguishes
    /// mid-file loss from trailing truncation, and verifies the
    /// manifest footer (length, whole-file CRC, record count), which
    /// catches truncation on a frame boundary that the frame layer
    /// alone would read as a clean stream. A day the manifest does not
    /// commit is a `NotFound` I/O error, whatever the mode.
    pub fn read_day(
        &self,
        day: u16,
        mode: ReadMode,
    ) -> Result<(Vec<Record>, DayDamage), StoreError> {
        let Some(meta) = self.manifest.as_ref().and_then(|m| m.days.get(&day)) else {
            let absent = io::Error::new(io::ErrorKind::NotFound, "day is not committed");
            return Err(StoreError::io(Some(day), &self.dir, absent));
        };
        let path = self.dir.join(gen_day_file_name(day, meta.generation));
        let bytes = read_file(&self.fs, &path).map_err(|e| StoreError::io(Some(day), &path, e))?;
        let strict = mode == ReadMode::Strict;
        if strict {
            if let Some(detail) = meta.mismatch(&bytes) {
                return Err(StoreError::Committed { day, path, detail });
            }
        }
        let (records, damage) = scan_day(&bytes, mode, meta.records)
            .map_err(|source| StoreError::Frame { day, path: path.clone(), source })?;
        if strict && (records.len() as u64) != meta.records {
            return Err(StoreError::Committed {
                day,
                path,
                detail: format!(
                    "read {} records, manifest committed {}",
                    records.len(),
                    meta.records
                ),
            });
        }
        self.obs.day_reads.inc();
        self.obs.records_read.add(records.len() as u64);
        self.obs.record_damage(day, &damage);
        Ok((records, damage))
    }

    /// Streams every committed day through `f`, in day order,
    /// tolerantly (a damaged day delivers what survived). Returns
    /// total damaged frames (mid-file skips plus truncated tails).
    pub fn for_each_day(
        &self,
        mut f: impl FnMut(u16, Vec<Record>),
    ) -> Result<u64, StoreError> {
        let mut lost = 0;
        for day in self.committed_days() {
            let (records, damage) = self.read_day(day, ReadMode::Tolerant)?;
            lost += damage.lost_frames();
            f(day, records);
        }
        Ok(lost)
    }
}

impl LogStore<RealFs> {
    /// Opens (creating if needed) a store rooted at `dir` on the real
    /// filesystem. See [`LogStore::open_on`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<LogStore<RealFs>, StoreError> {
        LogStore::open_on(RealFs, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipactive_net::Addr;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ipactive-logstore-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn recs(day: u16, n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| Record::Hits {
                day,
                addr: Addr::new(0x0A000000 + i),
                hits: (i as u64 + 1) * 3,
            })
            .collect()
    }

    /// The name of `day`'s file in a store that committed once.
    fn day_file(day: u16) -> String {
        gen_day_file_name(day, 1)
    }

    /// Flips one byte in the middle of the file at `path`.
    fn flip_mid_byte(path: &Path) {
        let mut bytes = fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn write_read_roundtrip() {
        let mut store = LogStore::open(tmpdir("roundtrip")).unwrap();
        store.commit_days(&[(0, recs(0, 10)), (3, recs(3, 5))]).unwrap();
        assert_eq!(store.committed_days(), vec![0, 3]);
        let (got, damage) = store.read_day(0, ReadMode::Strict).unwrap();
        assert_eq!(got, recs(0, 10));
        assert!(damage.is_clean());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn for_each_day_streams_in_order() {
        let mut store = LogStore::open(tmpdir("stream")).unwrap();
        store.commit_days(&[5u16, 1, 9].map(|day| (day, recs(day, 3)))).unwrap();
        let mut seen = Vec::new();
        let skipped = store
            .for_each_day(|day, records| {
                assert_eq!(records.len(), 3);
                seen.push(day);
            })
            .unwrap();
        assert_eq!(seen, vec![1, 5, 9]);
        assert_eq!(skipped, 0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn damaged_day_is_contained() {
        let mut store = LogStore::open(tmpdir("damage")).unwrap();
        store.commit_days(&[(0, recs(0, 20)), (1, recs(1, 20))]).unwrap();
        flip_mid_byte(&store.dir().join(day_file(0)));
        // Strict read of day 0 fails or loses data; tolerant succeeds.
        let (survived, damage) = store.read_day(0, ReadMode::Tolerant).unwrap();
        assert!(survived.len() < 20);
        assert!(!damage.is_clean());
        assert!(
            !damage.truncated_tail,
            "mid-file corruption must not be reported as trailing truncation"
        );
        for rec in &survived {
            assert!(recs(0, 20).contains(rec), "fabricated {rec:?}");
        }
        // Day 1 is untouched.
        let (clean, damage) = store.read_day(1, ReadMode::Strict).unwrap();
        assert_eq!(clean, recs(1, 20));
        assert!(damage.is_clean());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_day_is_an_io_error_with_context() {
        let store = LogStore::open(tmpdir("missing")).unwrap();
        match store.read_day(42, ReadMode::Strict) {
            Err(e @ StoreError::Io { day: Some(42), .. }) => {
                assert_eq!(e.day(), Some(42));
                assert_eq!(e.path(), store.dir(), "an uncommitted day has no file name");
                assert!(matches!(&e, StoreError::Io { source, .. }
                    if source.kind() == io::ErrorKind::NotFound));
                assert!(e.to_string().contains("day 42"), "display lacks day: {e}");
            }
            other => panic!("expected contextual io error, got {other:?}"),
        }
        // Tolerant mode cannot paper over an absent file either.
        assert!(matches!(store.read_day(42, ReadMode::Tolerant), Err(StoreError::Io { .. })));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Cuts `n` bytes off the end of a day file, landing mid-frame.
    fn truncate_day(store: &LogStore, day: u16, n: usize) {
        let path = store.dir().join(day_file(day));
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.len() > n, "test file too small to truncate");
        fs::write(&path, &bytes[..bytes.len() - n]).unwrap();
    }

    /// A strict read checks the day's footer before it scans a frame,
    /// so a cut inside the last frame is a `Committed` error (length
    /// mismatch), not a `Frame(TruncatedFrame)`.
    #[test]
    fn truncated_final_frame_strict_fails_the_footer_check() {
        let mut store = LogStore::open(tmpdir("trunc-strict")).unwrap();
        store.commit_days(&[(2, recs(2, 8))]).unwrap();
        truncate_day(&store, 2, 3);
        match store.read_day(2, ReadMode::Strict) {
            Err(StoreError::Committed { day: 2, path, detail }) => {
                assert!(path.to_string_lossy().contains("day-0002.g000001.iplog"));
                assert!(detail.contains("bytes"), "length mismatch expected: {detail}");
            }
            other => panic!("expected a footer mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncated_final_frame_tolerant_reports_truncation_not_skips() {
        let mut store = LogStore::open(tmpdir("trunc-tolerant")).unwrap();
        let written = recs(4, 8);
        store.commit_days(&[(4, written.clone())]).unwrap();
        truncate_day(&store, 4, 3);
        let (survived, damage) = store.read_day(4, ReadMode::Tolerant).unwrap();
        // The damaged tail (the Finish marker here) is the *trailing
        // truncation* shape: no mid-file skips, the flag set, every
        // intact frame before the cut surviving in order.
        assert_eq!(damage.skipped, 0, "trailing cut must not count as mid-file loss");
        assert!(damage.truncated_tail);
        assert_eq!(damage.lost_frames(), 1);
        assert_eq!(damage.lost_committed, 0, "only the Finish marker was cut");
        assert_eq!(survived, written, "intact prefix must survive unchanged");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn mid_file_corruption_reports_skips_not_truncation() {
        let mut store = LogStore::open(tmpdir("mid-corrupt")).unwrap();
        let written = recs(5, 20);
        store.commit_days(&[(5, written.clone())]).unwrap();
        // A bad checksum inside the file, with an intact tail after it.
        flip_mid_byte(&store.dir().join(day_file(5)));
        let (survived, damage) = store.read_day(5, ReadMode::Tolerant).unwrap();
        assert!(damage.skipped >= 1 || damage.resyncs >= 1, "corruption went unnoticed");
        assert!(
            !damage.truncated_tail,
            "mid-file corruption must not be reported as a trailing cut"
        );
        assert!(survived.len() < written.len());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncation_inside_a_record_loses_only_that_record() {
        let mut store = LogStore::open(tmpdir("trunc-mid")).unwrap();
        // Measure the framing overhead so the cut lands mid-way
        // through the final *data* frame, past the Finish marker.
        let path = store.dir().join(day_file(6));
        let finish_len = encode_day(&[]).len();
        let seven_len = encode_day(&recs(6, 7)).len();
        let written = recs(6, 8);
        store.commit_days(&[(6, written.clone())]).unwrap();
        let bytes = fs::read(&path).unwrap();
        let last_frame = bytes.len() - seven_len;
        let keep = seven_len - finish_len + last_frame / 2;
        fs::write(&path, &bytes[..keep]).unwrap();
        assert!(matches!(
            store.read_day(6, ReadMode::Strict),
            Err(StoreError::Committed { day: 6, .. })
        ));
        let (survived, damage) = store.read_day(6, ReadMode::Tolerant).unwrap();
        assert_eq!(damage.skipped, 0);
        assert!(damage.truncated_tail);
        assert_eq!(damage.lost_committed, 1);
        assert_eq!(survived, written[..7], "first seven records must survive");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn open_sweeps_stale_tmp_files_but_keeps_days() {
        let dir = tmpdir("sweep");
        LogStore::open(&dir).unwrap().commit_days(&[(1, recs(1, 4))]).unwrap();
        // Simulate crashed writers (old fixed-name scheme, new unique
        // scheme, and a manifest commit) plus an unrelated dotfile
        // that must survive.
        fs::write(dir.join(".day-0001.tmp"), b"half-written").unwrap();
        fs::write(dir.join(".day-0002.999-7.tmp"), b"half-written").unwrap();
        fs::write(dir.join(".manifest-000003.999-8.tmp"), b"half-written").unwrap();
        fs::write(dir.join(".lease-0004.999-9.tmp"), b"half-written").unwrap();
        fs::write(dir.join("lease-0004.lse"), b"published lease").unwrap();
        fs::write(dir.join(".keepme"), b"not ours").unwrap();
        let store = LogStore::open(&dir).unwrap();
        assert!(!dir.join(".day-0001.tmp").exists(), "stale tmp survived open");
        assert!(!dir.join(".day-0002.999-7.tmp").exists(), "stale tmp survived open");
        assert!(!dir.join(".manifest-000003.999-8.tmp").exists(), "stale manifest tmp survived");
        assert!(!dir.join(".lease-0004.999-9.tmp").exists(), "stale lease tmp survived open");
        assert!(dir.join("lease-0004.lse").exists(), "published lease must survive the sweep");
        assert!(dir.join(".keepme").exists(), "sweep must only touch our tmp files");
        assert_eq!(store.committed_days(), vec![1]);
        assert_eq!(store.read_day(1, ReadMode::Strict).unwrap().0, recs(1, 4));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn successful_writes_leave_no_tmp_files() {
        let mut store = LogStore::open(tmpdir("no-tmp")).unwrap();
        for day in 0..5u16 {
            store.commit_days(&[(day, recs(day, 3))]).unwrap();
        }
        let leftovers: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked tmp files: {leftovers:?}");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_store_has_no_days() {
        let store = LogStore::open(tmpdir("empty")).unwrap();
        assert!(store.committed_days().is_empty());
        assert!(store.manifest().is_none());
        assert_eq!(store.for_each_day(|_, _| panic!("no days")).unwrap(), 0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn batch_commit_roundtrip_and_reopen() {
        let dir = tmpdir("batch");
        let mut store = LogStore::open(&dir).unwrap();
        let gen = store.commit_days(&[(0, recs(0, 10)), (2, recs(2, 4))]).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(store.committed_days(), vec![0, 2]);
        let (got, damage) = store.read_day(0, ReadMode::Strict).unwrap();
        assert_eq!(got, recs(0, 10));
        assert!(damage.is_clean());
        // A fresh open resolves the same committed state.
        let reopened = LogStore::open(&dir).unwrap();
        assert_eq!(reopened.committed_days(), vec![0, 2]);
        assert_eq!(reopened.read_day(2, ReadMode::Strict).unwrap().0, recs(2, 4));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_commit_supersedes_and_garbage_collects() {
        let dir = tmpdir("batch-gc");
        let mut store = LogStore::open(&dir).unwrap();
        store.commit_days(&[(0, recs(0, 5)), (1, recs(1, 5))]).unwrap();
        let gen = store.commit_days(&[(1, recs(1, 9)), (2, recs(2, 2))]).unwrap();
        assert_eq!(gen, 2);
        assert_eq!(store.committed_days(), vec![0, 1, 2]);
        assert_eq!(store.read_day(1, ReadMode::Strict).unwrap().0, recs(1, 9));
        // Old generation's day-1 file and gen-1 manifest are swept.
        assert!(!dir.join("day-0001.g000001.iplog").exists());
        assert!(!dir.join("manifest-000001.mft").exists());
        assert!(dir.join("day-0000.g000001.iplog").exists(), "day 0 still lives in gen 1");
        let reopened = LogStore::open(&dir).unwrap();
        assert_eq!(reopened.read_day(1, ReadMode::Strict).unwrap().0, recs(1, 9));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn duplicate_day_in_batch_is_rejected() {
        let dir = tmpdir("batch-dup");
        let mut store = LogStore::open(&dir).unwrap();
        let err = store.commit_days(&[(3, recs(3, 1)), (3, recs(3, 2))]).unwrap_err();
        assert_eq!(err.day(), Some(3));
        assert!(store.committed_days().is_empty(), "rejected batch must not commit");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn committed_day_truncated_on_frame_boundary_is_caught() {
        // The hole frame CRCs cannot close: cut a committed file
        // exactly on a frame boundary (here: drop the final frames by
        // rewriting the file to a clean prefix). The frame layer reads
        // the prefix "cleanly"; the manifest footer must still object.
        let dir = tmpdir("boundary");
        let mut store = LogStore::open(&dir).unwrap();
        store.commit_days(&[(0, recs(0, 8))]).unwrap();
        let path = dir.join("day-0000.g000001.iplog");
        let bytes = fs::read(&path).unwrap();
        // Re-encode a shorter stream: frames for 3 records + Finish.
        let short = encode_day(&recs(0, 3));
        assert!(short.len() < bytes.len());
        fs::write(&path, &short).unwrap();
        match store.read_day(0, ReadMode::Strict) {
            Err(StoreError::Committed { day: 0, .. }) => {}
            other => panic!("footer check missed a boundary cut: {other:?}"),
        }
        let (salvaged, damage) = store.read_day(0, ReadMode::Tolerant).unwrap();
        assert_eq!(salvaged, recs(0, 3));
        assert_eq!(damage.lost_committed, 5, "manifest promised 8, file delivers 3");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_newest_manifest_falls_back_to_predecessor() {
        let dir = tmpdir("manifest-fallback");
        let mut store = LogStore::open(&dir).unwrap();
        store.commit_days(&[(0, recs(0, 4))]).unwrap();
        store.commit_days(&[(1, recs(1, 4))]).unwrap();
        // Forge a torn gen-3 manifest (half of gen 2's bytes).
        let gen2 = fs::read(dir.join("manifest-000002.mft")).unwrap();
        fs::write(dir.join("manifest-000003.mft"), &gen2[..gen2.len() / 2]).unwrap();
        let reopened = LogStore::open(&dir).unwrap();
        assert_eq!(reopened.manifest().unwrap().generation, 2);
        assert_eq!(reopened.committed_days(), vec![0, 1]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn sole_corrupt_manifest_is_an_error_not_amnesia() {
        let dir = tmpdir("manifest-corrupt");
        let mut store = LogStore::open(&dir).unwrap();
        store.commit_days(&[(0, recs(0, 4))]).unwrap();
        let path = dir.join("manifest-000001.mft");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        match LogStore::open(&dir) {
            Err(StoreError::Manifest { .. }) => {}
            other => panic!("corrupt sole manifest must fail open, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn store_counters_account_for_writes_reads_and_damage() {
        use ipactive_obs::{EventKind, Registry, SnapshotMode};
        let reg = Registry::new();
        let dir = tmpdir("obs");
        let mut store = LogStore::open_on_obs(RealFs, &dir, &reg).unwrap();

        // Each commit: 1 day file sync + batch dir sync + manifest
        // sync + post-rename dir sync = 4 syncs.
        store.commit_days(&[(0, recs(0, 10))]).unwrap();
        store.commit_days(&[(1, recs(1, 6))]).unwrap();

        let (got, _) = store.read_day(0, ReadMode::Tolerant).unwrap();
        assert_eq!(got.len(), 10);
        // Damage a day mid-file and read it back tolerantly.
        flip_mid_byte(&dir.join(day_file(0)));
        let (survived, damage) = store.read_day(0, ReadMode::Tolerant).unwrap();
        assert!(!damage.is_clean());

        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.counter("store.fsync"), 8);
        assert_eq!(snap.counter("store.day_writes"), 2);
        assert_eq!(snap.counter("store.records_written"), 16);
        assert_eq!(snap.counter("store.commits"), 2);
        assert_eq!(snap.counter("store.lost_committed"), damage.lost_committed);
        assert_eq!(snap.counter("store.day_reads"), 2);
        assert_eq!(snap.counter("store.records_read"), 10 + survived.len() as u64);
        assert_eq!(
            snap.counter("store.frames_skipped") + snap.counter("store.resyncs"),
            damage.skipped + damage.resyncs,
            "damage tallies must mirror the DayDamage account"
        );
        assert!(
            damage.resyncs == 0 || snap.events_of(EventKind::Resync).count() > 0,
            "resync damage must be journaled"
        );
        // Bytes are counted for day files and manifests alike.
        assert!(snap.counter("store.bytes_written") > 0);

        // A crashed writer's tmp swept on open is journaled.
        fs::write(dir.join(".day-0007.999-1.tmp"), b"half").unwrap();
        let reg2 = Registry::new();
        let _reopened = LogStore::open_on_obs(RealFs, &dir, &reg2).unwrap();
        let snap2 = reg2.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap2.events_of(EventKind::CrashRecovery).count(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    /// Golden, recorded at the parent of the one-layout change before
    /// any other edit: the files a fixed three-day first commit leaves
    /// (name, length, CRC-32) and the operation sequence that wrote
    /// them.
    #[test]
    fn commit_layout_and_syscall_sequence_are_pinned() {
        use crate::crc::crc32;
        use crate::vfs::{Fs as _, OpLabel, SimFs};
        use std::path::Path;
        let fs = SimFs::new();
        let mut store = LogStore::open_on(fs.clone(), "/store").unwrap();
        store.commit_days(&[(0, recs(0, 10)), (1, recs(1, 4)), (7, recs(7, 0))]).unwrap();
        let mut names = fs.read_dir_names(Path::new("/store")).unwrap();
        names.sort();
        let layout: Vec<(String, usize, u32)> = names
            .into_iter()
            .map(|n| {
                let bytes = fs.visible(&Path::new("/store").join(&n)).unwrap();
                (n, bytes.len(), crc32(&bytes))
            })
            .collect();
        let want = [
            ("day-0000.g000001.iplog", 137, 0xDD18DA3D),
            ("day-0001.g000001.iplog", 59, 0x92028CD7),
            ("day-0007.g000001.iplog", 7, 0xA4C5D813),
            ("manifest-000001.mft", 39, 0x2144DF1C),
        ];
        assert_eq!(layout.len(), want.len(), "files left by the commit: {layout:?}");
        for ((name, len, crc), (want_name, want_len, want_crc)) in layout.iter().zip(want) {
            assert_eq!((name.as_str(), *len, *crc), (want_name, want_len, want_crc));
        }
        // c = create, w = write, s = fsync, r = rename, D = dir fsync.
        let ops: String = fs
            .oplog()
            .iter()
            .map(|op| match op {
                OpLabel::Create(_) => 'c',
                OpLabel::Write(..) => 'w',
                OpLabel::SyncFile(_) => 's',
                OpLabel::Rename(..) => 'r',
                OpLabel::Remove(_) => 'x',
                OpLabel::SyncDir(_) => 'D',
            })
            .collect();
        assert_eq!(ops, "cwsrcwsrcwsrDcwsrD");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let dir = tmpdir("batch-empty");
        let mut store = LogStore::open(&dir).unwrap();
        assert_eq!(store.commit_days(&[]).unwrap(), 0);
        assert!(store.manifest().is_none());
        let _ = fs::remove_dir_all(dir);
    }
}
