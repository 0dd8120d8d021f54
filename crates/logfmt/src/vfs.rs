//! Injectable filesystem plane for crash-consistency testing.
//!
//! [`LogStore`](crate::LogStore) performs every I/O operation through
//! the [`Fs`] trait. Production code runs on [`RealFs`], a zero-cost
//! passthrough to `std::fs`. Tests run on [`SimFs`], an in-memory
//! filesystem that:
//!
//! * numbers every I/O operation (create, write, fsync, rename,
//!   directory sync, remove, …) so a harness can enumerate *crash
//!   points* and cut power at each one in turn;
//! * distinguishes *visible* state (what the running process observes)
//!   from *durable* state (what survives a power loss), with the
//!   page-cache semantics that make `fsync` discipline matter: file
//!   bytes persist only up to the last `sync_all`, and directory
//!   entries (creates, renames, removes) persist only up to the last
//!   directory sync;
//! * injects targeted faults — short writes, `ENOSPC`, silently
//!   dropped fsyncs, and power cuts — at any numbered operation.
//!
//! A power cut is modeled in two stages: from the cut onward every
//! operation fails with [`POWER_CUT_MSG`] (the process-side view of the
//! machine dying), and [`SimFs::crash`] then collapses visible state
//! into the bytes a reboot would find, under a chosen [`CrashStyle`].
//!
//! The plane also owns the one way a file becomes visible under its
//! final name: the crate-private `publish` (unique tmp → write → fsync
//! → rename) behind every day file, manifest and lease.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Error message carried by every operation refused after a simulated
/// power cut.
pub const POWER_CUT_MSG: &str = "simulated power cut";

/// A writable file handle produced by an [`Fs`].
pub trait FsFile: Write {
    /// Flushes the file's bytes to durable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations a [`LogStore`](crate::LogStore) needs.
///
/// Implementations must be cheaply cloneable handles: clones of one
/// [`SimFs`] share state, and [`RealFs`] is a unit type.
pub trait Fs: std::fmt::Debug + Clone + Send + Sync {
    /// Writable file handle type.
    type File: FsFile;
    /// Readable file handle type.
    type ReadFile: Read;

    /// Creates (truncating if present) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Self::File>;
    /// Opens a file for reading.
    fn open_read(&self, path: &Path) -> io::Result<Self::ReadFile>;
    /// Atomically renames `from` to `to`, replacing `to` if present.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// The file names (not paths) directly inside `dir`.
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Makes `dir`'s entries (renames, creates, removes) durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The production filesystem: a zero-sized passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealFs;

impl FsFile for std::fs::File {
    #[inline]
    fn sync_all(&mut self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
}

impl Fs for RealFs {
    type File = std::fs::File;
    type ReadFile = std::fs::File;

    #[inline]
    fn create(&self, path: &Path) -> io::Result<std::fs::File> {
        std::fs::File::create(path)
    }

    #[inline]
    fn open_read(&self, path: &Path) -> io::Result<std::fs::File> {
        std::fs::File::open(path)
    }

    #[inline]
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    #[inline]
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    #[inline]
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    }

    /// Directory fsync is a unix-filesystem notion; elsewhere the
    /// rename is already as durable as the platform allows.
    #[cfg(unix)]
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    #[inline]
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// Distinguishes concurrent publishers within one process; with the
/// pid it makes every tmp name unique, so two writers racing on one
/// destination never interleave into one tmp file.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Publishes `bytes` as `dir/name`, all or nothing: a uniquely named
/// `.{name}.{pid}-{ctr}.tmp` is created, written, fsynced and renamed
/// over the destination; a failed attempt removes its tmp file. This
/// is the one place the store, `fsck` and the lease plane make a tmp
/// file. The rename is durable only once the caller syncs `dir` — one
/// directory sync may cover a whole batch of publishes.
pub(crate) fn publish<F: Fs>(fs: &F, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let ctr = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}-{ctr}.tmp", std::process::id()));
    let result = (|| {
        let mut file = fs.create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs.rename(&tmp, &dir.join(name))
    })();
    if result.is_err() {
        let _ = fs.remove_file(&tmp);
    }
    result
}

/// The whole content of the file at `path`.
pub(crate) fn read_file<F: Fs>(fs: &F, path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    fs.open_read(path)?.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// What kind of fault to inject at a numbered operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// The machine loses power: the targeted operation and every one
    /// after it fail with [`POWER_CUT_MSG`]. Follow with
    /// [`SimFs::crash`] to obtain the rebooted disk state.
    PowerCut,
    /// The targeted write applies only the first half of its buffer,
    /// then fails with `ENOSPC` — a torn write at the process level.
    /// Non-write operations targeted by this fault fail cleanly.
    ShortWrite,
    /// The targeted operation fails with `ENOSPC` applying nothing.
    Enospc,
    /// The targeted `sync_all`/`sync_dir` returns `Ok` but persists
    /// nothing — a lying disk. Non-sync operations are untouched.
    DropSync,
}

/// One numbered I/O operation a [`SimFs`] performed, for harness
/// introspection ("cut power at every operation of this workload").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpLabel {
    /// `create(path)`.
    Create(PathBuf),
    /// `write(path, n_bytes)`.
    Write(PathBuf, usize),
    /// `sync_all(path)`.
    SyncFile(PathBuf),
    /// `rename(from, to)`.
    Rename(PathBuf, PathBuf),
    /// `remove_file(path)`.
    Remove(PathBuf),
    /// `sync_dir(dir)`.
    SyncDir(PathBuf),
}

/// How [`SimFs::crash`] collapses visible state into rebooted state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// Weakest-guarantee filesystem: only explicitly synced bytes and
    /// explicitly synced directory entries survive. Unsynced file
    /// tails vanish; unsynced creates/renames/removes roll back.
    Pessimist,
    /// Metadata-eager filesystem (ext4-ordered-like): the directory
    /// reflects every rename/create/remove that happened, but file
    /// *contents* still survive only up to their last fsync. This is
    /// the style that exposes the classic "rename before fsync"
    /// empty-file bug.
    Eager,
    /// Like [`CrashStyle::Pessimist`], but each file additionally
    /// keeps a deterministic, seed-derived prefix of its unsynced
    /// tail — a torn write straddling the power loss.
    Torn {
        /// Seed for the per-file surviving-prefix draw.
        seed: u64,
    },
}

#[derive(Debug, Clone, Default)]
struct Inode {
    data: Vec<u8>,
    /// Bytes durable on "disk" — `data[..synced_len]` survives a
    /// pessimist crash.
    synced_len: usize,
}

#[derive(Debug, Clone, Default)]
struct SimState {
    inodes: Vec<Inode>,
    /// Visible namespace: what the running process sees.
    live: BTreeMap<PathBuf, usize>,
    /// Durable namespace: entries as of the last directory sync.
    durable: BTreeMap<PathBuf, usize>,
    dirs: Vec<PathBuf>,
    ops: u64,
    oplog: Vec<OpLabel>,
    faults: Vec<(u64, Inject)>,
    drop_all_syncs: bool,
    powered_off: bool,
}

impl SimState {
    fn power_cut_err() -> io::Error {
        io::Error::other(POWER_CUT_MSG)
    }

    fn enospc() -> io::Error {
        // `ErrorKind::StorageFull` stabilized in 1.83, past our MSRV;
        // the message carries the ENOSPC meaning instead.
        io::Error::other("simulated ENOSPC")
    }

    /// Charges one operation: logs it, advances the counter, and
    /// returns the fault (if any) scheduled for it. A power cut, once
    /// hit, refuses this and every later operation.
    fn charge(&mut self, label: OpLabel) -> Result<Option<Inject>, io::Error> {
        if self.powered_off {
            return Err(Self::power_cut_err());
        }
        let n = self.ops;
        self.ops += 1;
        self.oplog.push(label);
        let fault = self.faults.iter().find(|&&(at, _)| at == n).map(|&(_, f)| f);
        if fault == Some(Inject::PowerCut) {
            self.powered_off = true;
            return Err(Self::power_cut_err());
        }
        Ok(fault)
    }
}

/// The simulated filesystem handle. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    state: Arc<Mutex<SimState>>,
}

impl SimFs {
    /// An empty simulated filesystem with no faults scheduled.
    pub fn new() -> SimFs {
        SimFs::default()
    }

    /// Schedules `inject` to fire on operation number `at` (0-based,
    /// in the order [`SimFs::oplog`] records). Builder-style.
    pub fn with_fault(self, at: u64, inject: Inject) -> SimFs {
        self.state.lock().unwrap().faults.push((at, inject));
        self
    }

    /// Makes *every* `sync_all`/`sync_dir` a silent no-op — a disk
    /// that acknowledges flushes it never performs.
    pub fn with_dropped_syncs(self) -> SimFs {
        self.state.lock().unwrap().drop_all_syncs = true;
        self
    }

    /// Number of operations performed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// The labeled operation log so far.
    pub fn oplog(&self) -> Vec<OpLabel> {
        self.state.lock().unwrap().oplog.clone()
    }

    /// Whether a scheduled power cut has fired.
    pub fn powered_off(&self) -> bool {
        self.state.lock().unwrap().powered_off
    }

    /// The visible content of `path` (test introspection).
    pub fn visible(&self, path: &Path) -> Option<Vec<u8>> {
        let st = self.state.lock().unwrap();
        st.live.get(path).map(|&ino| st.inodes[ino].data.clone())
    }

    /// A deep copy that shares nothing with `self` — the crash-point
    /// harness forks the disk at a cut point so one captured state can
    /// be rebooted under every [`CrashStyle`] independently.
    pub fn fork(&self) -> SimFs {
        SimFs { state: Arc::new(Mutex::new(self.state.lock().unwrap().clone())) }
    }

    /// Plants `bytes` at `path`, fully durable, without charging any
    /// operations — the test-side hammer for forging corruption that
    /// did not come from a simulated crash (bit rot, hostile edits).
    pub fn put_file(&self, path: &Path, bytes: &[u8]) {
        let mut st = self.state.lock().unwrap();
        let ino = st.inodes.len();
        st.inodes.push(Inode { data: bytes.to_vec(), synced_len: bytes.len() });
        st.live.insert(path.to_path_buf(), ino);
        st.durable.insert(path.to_path_buf(), ino);
    }

    /// Simulates a `kill -9` of the *process* without losing the
    /// *machine*: unlike [`SimFs::crash`], nothing is truncated or
    /// rolled back — written-but-unsynced bytes stay in the page cache
    /// and unsynced renames stay in the directory, exactly as a real
    /// OS keeps them when one process dies. Scheduled faults and the
    /// power-off latch are cleared so a successor process (a healing
    /// coordinator, a respawned worker) can keep operating on the same
    /// disk. The operation counter and oplog are reset so the
    /// successor's crash points number from zero.
    pub fn exit_process(&self) {
        let mut st = self.state.lock().unwrap();
        st.faults.clear();
        st.powered_off = false;
        st.ops = 0;
        st.oplog.clear();
    }

    /// Simulates the reboot after a power loss: collapses visible
    /// state into what a fresh mount would find under `style`, clears
    /// all faults and the power-off latch, and resets the operation
    /// counter. The returned handle is the rebooted disk (it shares
    /// state with `self`, which should be discarded).
    pub fn crash(self, style: CrashStyle) -> SimFs {
        {
            let mut st = self.state.lock().unwrap();
            let namespace = match style {
                CrashStyle::Pessimist | CrashStyle::Torn { .. } => st.durable.clone(),
                CrashStyle::Eager => st.live.clone(),
            };
            let mut inodes = std::mem::take(&mut st.inodes);
            for (path, &ino) in &namespace {
                let inode = &mut inodes[ino];
                let keep = match style {
                    CrashStyle::Pessimist | CrashStyle::Eager => inode.synced_len,
                    CrashStyle::Torn { seed } => {
                        let unsynced = inode.data.len() - inode.synced_len;
                        if unsynced == 0 {
                            inode.synced_len
                        } else {
                            // Deterministic surviving prefix of the
                            // unsynced tail, keyed on path and length.
                            let mut h = seed ^ inode.data.len() as u64;
                            for b in path.as_os_str().as_encoded_bytes() {
                                h = h.wrapping_mul(0x100000001B3) ^ u64::from(*b);
                            }
                            h ^= h >> 33;
                            h = h.wrapping_mul(0xFF51AFD7ED558CCD);
                            h ^= h >> 33;
                            inode.synced_len + (h % (unsynced as u64 + 1)) as usize
                        }
                    }
                };
                inode.data.truncate(keep);
                inode.synced_len = inode.data.len();
            }
            st.inodes = inodes;
            st.live = namespace.clone();
            st.durable = namespace;
            st.faults.clear();
            st.drop_all_syncs = false;
            st.powered_off = false;
            st.ops = 0;
            st.oplog.clear();
        }
        self
    }
}

/// Writable handle into a [`SimFs`] file.
#[derive(Debug)]
pub struct SimFile {
    state: Arc<Mutex<SimState>>,
    path: PathBuf,
    ino: usize,
}

impl Write for SimFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.state.lock().unwrap();
        let fault = st.charge(OpLabel::Write(self.path.clone(), buf.len()))?;
        match fault {
            Some(Inject::Enospc) => Err(SimState::enospc()),
            Some(Inject::ShortWrite) => {
                let half = buf.len() / 2;
                st.inodes[self.ino].data.extend_from_slice(&buf[..half]);
                Err(SimState::enospc())
            }
            _ => {
                st.inodes[self.ino].data.extend_from_slice(buf);
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Flushing user-space buffers is not a disk operation; the
        // simulated page cache (visible state) is already current.
        Ok(())
    }
}

impl FsFile for SimFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let fault = st.charge(OpLabel::SyncFile(self.path.clone()))?;
        match fault {
            Some(Inject::Enospc) => Err(SimState::enospc()),
            Some(Inject::DropSync) => Ok(()),
            _ if st.drop_all_syncs => Ok(()),
            _ => {
                let inode = &mut st.inodes[self.ino];
                inode.synced_len = inode.data.len();
                Ok(())
            }
        }
    }
}

impl Fs for SimFs {
    type File = SimFile;
    type ReadFile = io::Cursor<Vec<u8>>;

    fn create(&self, path: &Path) -> io::Result<SimFile> {
        let mut st = self.state.lock().unwrap();
        match st.charge(OpLabel::Create(path.to_path_buf()))? {
            Some(Inject::Enospc) | Some(Inject::ShortWrite) => Err(SimState::enospc()),
            _ => {
                st.inodes.push(Inode::default());
                let ino = st.inodes.len() - 1;
                st.live.insert(path.to_path_buf(), ino);
                Ok(SimFile { state: Arc::clone(&self.state), path: path.to_path_buf(), ino })
            }
        }
    }

    fn open_read(&self, path: &Path) -> io::Result<io::Cursor<Vec<u8>>> {
        let st = self.state.lock().unwrap();
        if st.powered_off {
            return Err(SimState::power_cut_err());
        }
        match st.live.get(path) {
            Some(&ino) => Ok(io::Cursor::new(st.inodes[ino].data.clone())),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such simulated file")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        match st.charge(OpLabel::Rename(from.to_path_buf(), to.to_path_buf()))? {
            Some(Inject::Enospc) => Err(SimState::enospc()),
            _ => match st.live.remove(from) {
                Some(ino) => {
                    st.live.insert(to.to_path_buf(), ino);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "rename source missing")),
            },
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        match st.charge(OpLabel::Remove(path.to_path_buf()))? {
            Some(Inject::Enospc) => Err(SimState::enospc()),
            _ => match st.live.remove(path) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "no such simulated file")),
            },
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        if st.powered_off {
            return Err(SimState::power_cut_err());
        }
        let path = path.to_path_buf();
        if !st.dirs.contains(&path) {
            st.dirs.push(path);
        }
        Ok(())
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.state.lock().unwrap();
        if st.powered_off {
            return Err(SimState::power_cut_err());
        }
        let mut out = Vec::new();
        for path in st.live.keys() {
            if path.parent() == Some(dir) {
                out.push(path.file_name().unwrap().to_string_lossy().into_owned());
            }
        }
        Ok(out)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        match st.charge(OpLabel::SyncDir(dir.to_path_buf()))? {
            Some(Inject::Enospc) => Err(SimState::enospc()),
            Some(Inject::DropSync) => Ok(()),
            _ if st.drop_all_syncs => Ok(()),
            _ => {
                st.durable = st.live.clone();
                Ok(())
            }
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().unwrap().live.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    /// create + write + fsync + rename + dir sync: the full durable
    /// protocol must survive a pessimist crash.
    #[test]
    fn synced_protocol_survives_pessimist_crash() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/s/.tmp")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        fs.rename(&p("/s/.tmp"), &p("/s/final")).unwrap();
        fs.sync_dir(&p("/s")).unwrap();
        let fs = fs.crash(CrashStyle::Pessimist);
        assert_eq!(read_file(&fs, &p("/s/final")).unwrap(), b"hello");
        assert!(!fs.exists(&p("/s/.tmp")));
    }

    /// Without the directory sync the rename rolls back on a
    /// pessimist crash — the file is simply gone.
    #[test]
    fn unsynced_rename_rolls_back_pessimist() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/s/.tmp")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        fs.rename(&p("/s/.tmp"), &p("/s/final")).unwrap();
        let fs = fs.crash(CrashStyle::Pessimist);
        assert!(!fs.exists(&p("/s/final")));
        assert!(!fs.exists(&p("/s/.tmp")));
    }

    /// Under the eager style the rename survives but unsynced content
    /// does not — the classic rename-before-fsync empty file.
    #[test]
    fn eager_crash_exposes_missing_content_fsync() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/s/.tmp")).unwrap();
        f.write_all(b"hello").unwrap();
        // No sync_all.
        fs.rename(&p("/s/.tmp"), &p("/s/final")).unwrap();
        fs.sync_dir(&p("/s")).unwrap();
        let fs = fs.crash(CrashStyle::Eager);
        assert_eq!(read_file(&fs, &p("/s/final")).unwrap(), b"", "unsynced bytes must not survive");
    }

    #[test]
    fn torn_crash_keeps_a_deterministic_prefix() {
        let surviving = |seed| {
            let fs = SimFs::new();
            let mut f = fs.create(&p("/s/f")).unwrap();
            f.write_all(b"abcd").unwrap();
            f.sync_all().unwrap();
            f.write_all(b"efghijkl").unwrap();
            fs.sync_dir(&p("/s")).unwrap();
            let fs = fs.crash(CrashStyle::Torn { seed });
            read_file(&fs, &p("/s/f")).unwrap()
        };
        let a = surviving(7);
        let b = surviving(7);
        assert_eq!(a, b, "same seed, same torn state");
        assert!(a.len() >= 4, "synced prefix always survives");
        assert!(a.starts_with(b"abcd"));
        assert!(a.len() <= 12);
    }

    #[test]
    fn power_cut_freezes_every_later_operation() {
        let fs = SimFs::new().with_fault(2, Inject::PowerCut);
        let mut f = fs.create(&p("/s/f")).unwrap(); // op 0
        f.write_all(b"x").unwrap(); // op 1
        let err = f.write_all(b"y").unwrap_err(); // op 2: cut
        assert_eq!(err.to_string(), POWER_CUT_MSG);
        assert!(fs.powered_off());
        assert!(fs.clone().create(&p("/s/g")).is_err(), "still dead");
    }

    #[test]
    fn short_write_applies_half_then_fails() {
        let fs = SimFs::new().with_fault(1, Inject::ShortWrite);
        let mut f = fs.create(&p("/s/f")).unwrap();
        let err = f.write_all(b"abcdef").unwrap_err();
        assert_eq!(err.to_string(), "simulated ENOSPC");
        assert_eq!(fs.visible(&p("/s/f")).unwrap(), b"abc");
    }

    #[test]
    fn dropped_sync_lies_and_loses_data() {
        let fs = SimFs::new().with_dropped_syncs();
        let mut f = fs.create(&p("/s/f")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap(); // lies
        fs.sync_dir(&p("/s")).unwrap(); // lies
        let fs = fs.crash(CrashStyle::Pessimist);
        assert!(!fs.exists(&p("/s/f")), "nothing was ever durable");
    }

    #[test]
    fn oplog_numbers_operations_in_order() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/s/a")).unwrap();
        f.write_all(b"z").unwrap();
        f.sync_all().unwrap();
        fs.rename(&p("/s/a"), &p("/s/b")).unwrap();
        fs.sync_dir(&p("/s")).unwrap();
        fs.remove_file(&p("/s/b")).unwrap();
        let log = fs.oplog();
        assert_eq!(log.len(), 6);
        assert!(matches!(log[0], OpLabel::Create(_)));
        assert!(matches!(log[1], OpLabel::Write(_, 1)));
        assert!(matches!(log[2], OpLabel::SyncFile(_)));
        assert!(matches!(log[3], OpLabel::Rename(_, _)));
        assert!(matches!(log[4], OpLabel::SyncDir(_)));
        assert!(matches!(log[5], OpLabel::Remove(_)));
        assert_eq!(fs.ops(), 6);
    }

    /// A killed process loses nothing that was already in the page
    /// cache: unsynced bytes and unsynced renames survive, and the
    /// successor process can operate on the same disk.
    #[test]
    fn exit_process_preserves_unsynced_state_and_unlatches() {
        let fs = SimFs::new().with_fault(3, Inject::PowerCut);
        let mut f = fs.create(&p("/s/.tmp")).unwrap(); // op 0
        f.write_all(b"unsynced").unwrap(); // op 1
        fs.rename(&p("/s/.tmp"), &p("/s/final")).unwrap(); // op 2
        // op 3: the injected "kill" halts the victim mid-protocol.
        assert!(fs.sync_dir(&p("/s")).is_err());
        assert!(fs.powered_off());
        fs.exit_process();
        assert!(!fs.powered_off());
        assert_eq!(fs.ops(), 0, "successor numbers ops from zero");
        // Page-cache state survived the kill intact.
        assert_eq!(read_file(&fs, &p("/s/final")).unwrap(), b"unsynced");
        // ...but none of it is durable: a machine crash now loses it.
        let fs = fs.crash(CrashStyle::Pessimist);
        assert!(!fs.exists(&p("/s/final")));
    }

    #[test]
    fn overwrite_reverts_to_old_content_on_pessimist_crash() {
        let fs = SimFs::new();
        let mut f = fs.create(&p("/s/f")).unwrap();
        f.write_all(b"old").unwrap();
        f.sync_all().unwrap();
        fs.sync_dir(&p("/s")).unwrap();
        // New writer truncates in place without completing the
        // durable protocol.
        let mut g = fs.create(&p("/s/f")).unwrap();
        g.write_all(b"newer").unwrap();
        let fs = fs.crash(CrashStyle::Pessimist);
        let got = read_file(&fs, &p("/s/f")).unwrap();
        assert_eq!(got, b"old", "durable entry still maps the old inode");
    }
}
