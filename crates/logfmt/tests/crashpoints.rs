//! Exhaustive crash-point recovery suite.
//!
//! For every numbered I/O operation of the store's one write protocol,
//! the manifest-journaled `commit_days` — run as a first-ever commit,
//! as a batch over an existing store, and as two successive single-day
//! commits — this harness cuts power *at* that operation, reboots the
//! simulated disk under every [`CrashStyle`], reopens the store, and
//! asserts the one invariant the whole design exists to uphold:
//!
//! > Every committed day reads back complete; every uncommitted day
//! > is absent. There is never a third state.
//!
//! The op count is discovered by running each workload once without
//! faults, so adding an fsync (or dropping one) automatically widens
//! (or shrinks) the enumeration — and a meta-test proves the harness
//! has teeth by feeding it a deliberately buggy writer and watching
//! the invariant break.

use ipactive_logfmt::{
    crc32, fsck, CrashStyle, DayMeta, FrameWriter, Fs, Inject, LogStore, Manifest, ReadMode,
    RealFs, Record, SimFs, StoreError,
};
use ipactive_net::Addr;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::PathBuf;

fn dir() -> PathBuf {
    PathBuf::from("/store")
}

fn recs(day: u16, salt: u32, n: u32) -> Vec<Record> {
    (0..n)
        .map(|i| Record::Hits {
            day,
            addr: Addr::new(0x0A00_0000 + salt * 1000 + i),
            hits: u64::from(i) * 7 + u64::from(salt) + 1,
        })
        .collect()
}

const STYLES: [CrashStyle; 4] = [
    CrashStyle::Pessimist,
    CrashStyle::Eager,
    CrashStyle::Torn { seed: 0xDEAD_BEEF },
    CrashStyle::Torn { seed: 42 },
];

fn reopen(fs: &SimFs, ctx: &str) -> LogStore<SimFs> {
    LogStore::open_on(fs.clone(), dir()).unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"))
}

type Days = Vec<(u16, Vec<Record>)>;

/// Every day the store lists, read back strictly and cleanly — a
/// listed day that is partial or unreadable is already a third state,
/// and so is a day the read path streams that the manifest does not
/// commit.
fn read_all(store: &LogStore<SimFs>, ctx: &str) -> Days {
    let mut streamed = Vec::new();
    let lost = store.for_each_day(|day, _| streamed.push(day)).unwrap();
    assert_eq!((streamed, lost), (store.committed_days(), 0), "{ctx}: streamed vs committed days");
    let read = |day| {
        let (got, damage) = store
            .read_day(day, ReadMode::Strict)
            .unwrap_or_else(|e| panic!("{ctx}: day {day} unreadable strictly: {e}"));
        assert!(damage.is_clean(), "{ctx}: day {day} read with damage {damage:?}");
        (day, got)
    };
    store.committed_days().into_iter().map(read).collect()
}

/// Asserts the store holds exactly `want`: no day missing, none
/// extra, none partial or fabricated.
fn assert_days_are(store: &LogStore<SimFs>, want: &Days, ctx: &str) {
    let got = read_all(store, ctx);
    assert!(
        got == *want,
        "{ctx}: days {:?} do not hold the expected records",
        store.committed_days()
    );
}

/// No tmp file may survive a reopen, whatever the crash left behind.
fn assert_no_tmp(fs: &SimFs, ctx: &str) {
    let names = fs.read_dir_names(&dir()).unwrap();
    let tmps: Vec<_> = names.iter().filter(|n| n.ends_with(".tmp")).collect();
    assert!(tmps.is_empty(), "{ctx}: tmp files survived reopen: {tmps:?}");
}

/// Runs `fsck` twice on the rebooted disk (repair, then verify) and
/// asserts it terminates with a converged, deterministic report.
fn assert_fsck_converges(fs: &SimFs, ctx: &str) {
    let first = fsck(fs, &dir(), true).unwrap_or_else(|e| panic!("{ctx}: fsck failed: {e}"));
    let second = fsck(fs, &dir(), false).unwrap();
    assert!(
        second.is_healthy(),
        "{ctx}: fsck repair did not converge.\nfirst:\n{}\nsecond:\n{}",
        first.render(),
        second.render(),
    );
    assert_eq!(
        second.render(),
        fsck(fs, &dir(), false).unwrap().render(),
        "{ctx}: nondeterministic report"
    );
}

// ---------------------------------------------------------------------------
// The workloads: a durable starting disk, a run of one or more commits,
// and the committed sets a reboot may find — one per commit of the run
// that published, in order. Anything else is a third state.
// ---------------------------------------------------------------------------

struct Workload {
    name: &'static str,
    /// Fewest operations the run may take before a step went missing.
    min_ops: u64,
    /// The store's committed days before the run.
    start: fn() -> Days,
    /// The batches the run commits, one `commit_days` each.
    batches: fn() -> Vec<Days>,
}

/// A store's first-ever commit: no manifest exists until it publishes.
const FIRST_COMMIT: Workload = Workload {
    name: "first commit",
    min_ops: 18,
    start: Vec::new,
    batches: || vec![vec![(0, recs(0, 1, 5)), (1, recs(1, 1, 7)), (2, recs(2, 1, 3))]],
};

/// A multi-day batch superseding one committed day and adding another.
const BATCH: Workload = Workload {
    name: "batch",
    min_ops: 12,
    start: || vec![(0, recs(0, 1, 5)), (1, recs(1, 1, 5))],
    batches: || vec![vec![(1, recs(1, 2, 8)), (2, recs(2, 1, 3))]],
};

/// Two successive single-day commits: over an existing day, then a
/// fresh one.
const SINGLE_DAYS: Workload = Workload {
    name: "single days",
    min_ops: 20,
    start: || vec![(0, recs(0, 1, 6))],
    batches: || vec![vec![(0, recs(0, 2, 9))], vec![(1, recs(1, 1, 4))]],
};

impl Workload {
    /// The starting disk: `start` committed durably (nothing at all
    /// on it when `start` is empty).
    fn setup(&self) -> SimFs {
        let fs = SimFs::new();
        LogStore::open_on(fs.clone(), dir()).unwrap().commit_days(&(self.start)()).unwrap();
        fs
    }

    fn run(&self, fs: &SimFs) -> Result<(), StoreError> {
        let mut store = LogStore::open_on(fs.clone(), dir())?;
        (self.batches)().iter().try_for_each(|batch| store.commit_days(batch).map(|_| ()))
    }

    /// The committed set after the first `n` batches of the run.
    fn state_after(&self, n: usize) -> Days {
        let mut days: std::collections::BTreeMap<u16, Vec<Record>> =
            (self.start)().into_iter().collect();
        days.extend((self.batches)().into_iter().take(n).flatten());
        days.into_iter().collect()
    }

    /// Asserts the reopened store is in one of the run's legal states
    /// and returns which: how many of its commits are visible.
    fn visible(&self, fs: &SimFs, ctx: &str) -> usize {
        let store = reopen(fs, ctx);
        let got = read_all(&store, ctx);
        (0..=(self.batches)().len()).find(|&n| self.state_after(n) == got).unwrap_or_else(|| {
            panic!("{ctx}: third state: committed days {:?}", store.committed_days())
        })
    }

    /// Cuts power at every operation of the run and hands each
    /// rebooted disk (one per style) to `visit`, with whether the run
    /// had returned `Ok` — a cut landing on the best-effort
    /// post-commit sweep is swallowed, so it may have.
    fn for_each_cut(&self, styles: &[CrashStyle], mut visit: impl FnMut(&SimFs, &str, bool)) {
        let probe = self.setup();
        let base = probe.ops();
        self.run(&probe).unwrap();
        let total = probe.ops() - base;
        assert!(
            total >= self.min_ops,
            "{}: shrank to {total} ops — protocol lost a step?",
            self.name
        );
        for cut in 0..total {
            let fs = self.setup().with_fault(base + cut, Inject::PowerCut);
            let returned_ok = self.run(&fs).is_ok();
            assert!(fs.powered_off(), "scheduled power cut never fired");
            for style in styles {
                let ctx = format!("{}: cut at op {cut}/{total}, {style:?}", self.name);
                visit(&fs.fork().crash(*style), &ctx, returned_ok);
            }
        }
    }

    /// The contract, at every cut point under all four styles: reopen,
    /// `fsck --repair`, reopen — the committed set is the one before or
    /// after each commit of the run, never in between, and the last
    /// one once the run returned `Ok`; and the enumeration straddles
    /// every commit point.
    fn assert_contract_at_every_cut(&self) {
        let commits = (self.batches)().len();
        let mut seen = BTreeSet::new();
        self.for_each_cut(&STYLES, |rebooted, ctx, returned_ok| {
            let n = self.visible(rebooted, ctx);
            assert_no_tmp(rebooted, ctx);
            assert!(
                !returned_ok || n == commits,
                "{ctx}: run returned Ok with {n} commits visible"
            );
            seen.insert(n);
            // fsck must terminate, converge, and preserve the
            // committed state it found.
            assert_fsck_converges(rebooted, ctx);
            assert_eq!(
                self.visible(rebooted, &format!("{ctx} (post-fsck)")),
                n,
                "{ctx}: fsck changed the committed set"
            );
        });
        assert!(
            seen.iter().copied().eq(0..=commits),
            "{}: crash points observed only {seen:?}",
            self.name
        );
    }
}

#[test]
fn a_first_ever_commit_is_all_or_nothing_under_a_power_cut_at_every_operation() {
    FIRST_COMMIT.assert_contract_at_every_cut();
}

#[test]
fn commit_days_is_atomic_under_a_power_cut_at_every_operation() {
    BATCH.assert_contract_at_every_cut();
}

#[test]
fn successive_single_day_commits_survive_a_power_cut_at_every_operation() {
    SINGLE_DAYS.assert_contract_at_every_cut();
}

// ---------------------------------------------------------------------------
// Repair is idempotent: a second repair pass finds nothing to do, and
// the repaired store accepts fresh batch commits.
// ---------------------------------------------------------------------------

/// Repairs the disk twice and asserts the second *repair* pass takes
/// zero actions — no quarantines, no orphan or stale-manifest
/// removals, no tmp sweeps. (Stronger than "the second dry run is
/// healthy": it pins that repair itself converges in one step, so a
/// healing coordinator re-running `fsck --repair` on a store it
/// already repaired — a regranted worker's predecessor crashed twice
/// — can never oscillate.) Then commits a fresh day batch through the
/// repaired store and reads it back, proving repair leaves the store
/// fully writable, not merely consistent.
fn assert_repair_idempotent_and_recommittable(fs: &SimFs, ctx: &str) {
    fsck(fs, &dir(), true).unwrap_or_else(|e| panic!("{ctx}: first repair failed: {e}"));
    let second =
        fsck(fs, &dir(), true).unwrap_or_else(|e| panic!("{ctx}: second repair failed: {e}"));
    assert!(
        second.quarantined.is_empty()
            && second.orphans_removed.is_empty()
            && second.stale_manifests.is_empty()
            && second.tmp_swept.is_empty(),
        "{ctx}: second repair found new actions:\n{}",
        second.render(),
    );
    assert!(second.is_healthy(), "{ctx}: repaired store not healthy:\n{}", second.render());
    // Round trip: the repaired store takes a new atomic batch.
    let mut store = reopen(fs, ctx);
    let mut want = read_all(&store, ctx);
    want.push((9, recs(9, 9, 5)));
    store
        .commit_days(&want[want.len() - 1..])
        .unwrap_or_else(|e| panic!("{ctx}: commit through repaired store failed: {e}"));
    assert_days_are(&reopen(fs, ctx), &want, &format!("{ctx} (fresh commit)"));
}

#[test]
fn fsck_repair_is_idempotent_on_every_crash_scenario() {
    let torn = |seed| CrashStyle::Torn { seed };
    for (workload, styles) in [
        (SINGLE_DAYS, [CrashStyle::Pessimist, torn(0xDEAD_BEEF)]),
        (BATCH, [CrashStyle::Pessimist, torn(42)]),
        (FIRST_COMMIT, [CrashStyle::Eager, torn(42)]),
    ] {
        workload.for_each_cut(&styles, |rebooted, ctx, _| {
            assert_repair_idempotent_and_recommittable(rebooted, ctx);
        });
    }
}

// ---------------------------------------------------------------------------
// Satellite: ENOSPC and short writes at every operation (tmp hygiene).
// ---------------------------------------------------------------------------

#[test]
fn commit_days_cleans_up_after_enospc_at_every_operation() {
    let probe = BATCH.setup();
    let base = probe.ops();
    BATCH.run(&probe).unwrap();
    let total = probe.ops() - base;
    let batch = &(BATCH.batches)()[0];

    for inject in [Inject::Enospc, Inject::ShortWrite] {
        for at in 0..total {
            let fs = BATCH.setup().with_fault(base + at, inject);
            let ctx = format!("{inject:?} at op {at}/{total}");
            let mut store = LogStore::open_on(fs.clone(), dir()).unwrap();
            // The injected op may land on the best-effort sweep, which
            // swallows it; then the commit succeeds.
            if store.commit_days(batch).is_err() {
                // The failed batch must leave the old commit in force
                // for *this* store handle too, not only a reopen —
                // whole, never a mix or a partial file.
                assert_eq!(store.committed_days(), vec![0, 1], "{ctx}");
                // Orphaned batch files may remain (fsck's job), but
                // tmp files must not — checked before a reopen, whose
                // sweep would hide a leak.
                assert_no_tmp(&fs, &ctx);
                BATCH.visible(&fs, &ctx);
                // Retrying the batch on the same handle succeeds.
                store.commit_days(batch).unwrap_or_else(|e| panic!("{ctx}: retry failed: {e}"));
            }
            assert_eq!(store.committed_days(), vec![0, 1, 2], "{ctx}");
            assert_eq!(BATCH.visible(&fs, &ctx), 1, "{ctx}");
            assert_fsck_converges(&fs, &ctx);
            assert_eq!(BATCH.visible(&fs, &format!("{ctx} (post-fsck)")), 1, "{ctx}");
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite: randomized torn-write fuzz, pinned seeds.
// ---------------------------------------------------------------------------

#[test]
fn torn_write_fuzz_with_pinned_seeds() {
    let probe = BATCH.setup();
    let base = probe.ops();
    BATCH.run(&probe).unwrap();
    let total = probe.ops() - base;

    for seed in 0..16u64 {
        // The seed drives both the cut point and the torn-prefix
        // selection, so each iteration explores a different tear.
        let cut = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % total;
        let fs = BATCH.setup().with_fault(base + cut, Inject::PowerCut);
        let _ = BATCH.run(&fs);
        assert!(fs.powered_off(), "scheduled power cut never fired");
        let rebooted = fs.crash(CrashStyle::Torn { seed });
        let ctx = format!("torn seed {seed}, cut at op {cut}");
        let n = BATCH.visible(&rebooted, &ctx);
        assert_fsck_converges(&rebooted, &ctx);
        assert_eq!(BATCH.visible(&rebooted, &format!("{ctx} (post-fsck)")), n, "{ctx}");
    }
}

// ---------------------------------------------------------------------------
// A disk that acknowledges fsyncs it never performs.
// ---------------------------------------------------------------------------

#[test]
fn dropped_fsyncs_are_detected_not_misread() {
    let fs = SimFs::new().with_dropped_syncs();
    let mut store = LogStore::open_on(fs.clone(), dir()).unwrap();
    store.commit_days(&[(0, recs(0, 1, 5))]).unwrap();
    drop(store);
    // Eager reboot: the namespace survived, but no byte was ever
    // truly synced — every file comes back empty.
    let rebooted = fs.crash(CrashStyle::Eager);
    match LogStore::open_on(rebooted.clone(), dir()) {
        // The truncated manifest must be rejected, not trusted.
        Err(StoreError::Manifest { .. }) => {}
        Ok(store) => {
            // (If no manifest survived at all, the store is simply
            // empty — also honest.)
            assert!(store.committed_days().is_empty(), "lying disk produced committed days");
        }
        Err(e) => panic!("unexpected open failure: {e}"),
    }
    // fsck quarantines the wreckage and converges.
    let report = fsck(&rebooted, &dir(), true).unwrap();
    assert!(!report.is_healthy(), "fsck missed a store written through a lying disk");
    assert!(fsck(&rebooted, &dir(), false).unwrap().is_healthy());
}

// ---------------------------------------------------------------------------
// Meta-test: the harness detects protocol bugs.
// ---------------------------------------------------------------------------

fn day_bytes(records: &[Record]) -> Vec<u8> {
    let mut w = FrameWriter::new(Vec::new());
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap()
}

/// A deliberately buggy writer: the commit protocol — day file,
/// manifest, sweep — with every fsync left out. Under an eager reboot
/// the renames survive but the bytes do not; the harness's invariant
/// check must notice the damage. If this test ever fails, the
/// simulator has stopped modeling the failure the real protocol's
/// fsyncs exist to prevent.
#[test]
fn harness_detects_a_writer_that_skips_fsync() {
    let fs = SINGLE_DAYS.setup();
    let v2 = recs(0, 2, 9);
    let put = |name: &str, bytes: &[u8]| {
        let tmp = dir().join(format!(".{name}.buggy.tmp"));
        fs.create(&tmp).unwrap().write_all(bytes).unwrap();
        // BUG: no sync_all.
        fs.rename(&tmp, &dir().join(name)).unwrap();
    };
    let bytes = day_bytes(&v2);
    let meta = DayMeta {
        generation: 2,
        records: 9,
        file_len: bytes.len() as u64,
        file_crc: crc32(&bytes),
    };
    put("day-0000.g000002.iplog", &bytes);
    // BUG: no sync_dir before the manifest, none after it.
    put(&Manifest::file_name(2), &Manifest { generation: 2, days: [(0, meta)].into() }.encode());
    fs.remove_file(&dir().join("day-0000.g000001.iplog")).unwrap();
    fs.remove_file(&Manifest::path(&dir(), 1)).unwrap();
    // Sanity: without a crash the buggy writer's commit reads back.
    assert_days_are(&reopen(&fs, "buggy writer"), &vec![(0, v2.clone())], "buggy writer, no crash");

    let rebooted = fs.crash(CrashStyle::Eager);
    let broken = match LogStore::open_on(rebooted.clone(), dir()) {
        Ok(store) => match store.read_day(0, ReadMode::Strict) {
            Ok((got, damage)) => {
                got != (SINGLE_DAYS.start)()[0].1 && got != v2 || !damage.is_clean()
            }
            Err(_) => true,
        },
        Err(_) => true,
    };
    assert!(
        broken,
        "buggy fsync-free writer survived an eager crash intact — the simulator lost its teeth"
    );
}

// ---------------------------------------------------------------------------
// Real-filesystem parity: the generic store on RealFs leaves exactly
// the files, byte for byte, that it leaves on SimFs.
// ---------------------------------------------------------------------------

#[test]
fn realfs_and_simfs_produce_identical_day_files() {
    let batch = [(3, recs(3, 1, 12))];
    let sim = SimFs::new();
    LogStore::open_on(sim.clone(), dir()).unwrap().commit_days(&batch).unwrap();
    let real_dir = std::env::temp_dir().join(format!("ipactive-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&real_dir);
    LogStore::open_on(RealFs, &real_dir).unwrap().commit_days(&batch).unwrap();
    let mut names = RealFs.read_dir_names(&real_dir).unwrap();
    names.sort();
    assert_eq!(names, ["day-0003.g000001.iplog", "manifest-000001.mft"]);
    assert_eq!(sim.read_dir_names(&dir()).unwrap(), names, "Fs indirection changed the file set");
    for name in &names {
        let real_bytes = std::fs::read(real_dir.join(name)).unwrap();
        assert_eq!(
            sim.visible(&dir().join(name)).unwrap(),
            real_bytes,
            "{name}: on-disk bytes differ"
        );
    }
    assert_eq!(sim.visible(&dir().join(&names[0])).unwrap(), day_bytes(&batch[0].1));
    let _ = std::fs::remove_dir_all(&real_dir);
}

// ---------------------------------------------------------------------------
// Crash during *open* (the tmp sweep) is harmless.
// ---------------------------------------------------------------------------

#[test]
fn power_cut_during_open_sweep_preserves_all_days() {
    // Leave a stale tmp behind so open has sweeping to do.
    let fs = SINGLE_DAYS.setup();
    fs.put_file(&dir().join(".day-0009.777-0.tmp"), b"stale");
    let probe = fs.fork();
    let base = probe.ops();
    LogStore::open_on(probe.clone(), dir()).unwrap();
    let total = probe.ops() - base;
    assert!(total >= 1, "open had nothing to sweep");
    for cut in 0..total {
        let f = fs.fork().with_fault(fs.ops() + cut, Inject::PowerCut);
        let _ = LogStore::open_on(f.clone(), dir());
        let rebooted = f.crash(CrashStyle::Pessimist);
        assert_days_are(
            &reopen(&rebooted, "open-sweep cut"),
            &(SINGLE_DAYS.start)(),
            "open-sweep cut",
        );
        assert_no_tmp(&rebooted, "open-sweep cut");
    }
}
