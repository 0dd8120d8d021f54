//! Store verification and repair (`fsck`).
//!
//! [`fsck`] walks a store directory *below* [`LogStore::open`], so it
//! can examine (and repair) a store whose sole manifest is torn, which
//! `open` rightly refuses to load. Both take the verdict on every
//! manifest file from the one resolver in [`crate::manifest`]. It
//! verifies three layers:
//!
//! 1. **Manifests** — every generation file decodes and is the
//!    generation its name says; the newest valid one is authoritative;
//!    corrupt ones are quarantined, stale older ones removed.
//! 2. **Footers** — every committed day's file matches its manifest
//!    entry (byte length, whole-file CRC, record count). This catches
//!    the truncation-on-a-frame-boundary case the frame layer reads
//!    as a clean stream.
//! 3. **Frames** — every committed day file is scanned tolerantly,
//!    counting surviving records, mid-file skips, resyncs and trailing
//!    truncation.
//!
//! With `repair`, damaged files are moved into a `quarantine/`
//! subdirectory with a `.why` provenance sidecar, salvageable records
//! are re-committed under a fresh manifest generation with corrected
//! footers, generation files no manifest references are removed, and
//! stale tmp files swept. One case adopts instead of removing: when
//! manifest files exist and *none* decodes, the newest generation file
//! of each day is the only surviving copy, and repair publishes a
//! fresh manifest over those files with footers computed from their
//! bytes. With no manifest file at all there is nothing to adopt —
//! generation files are then a first batch that never published.
//! Without `repair`, fsck is strictly read-only and reports what it
//! *would* do.
//!
//! The [`FsckReport`] is deterministic — same directory state, same
//! report, with file *names* only (never absolute paths) so golden
//! files diff cleanly across machines — and exposes
//! [`FsckReport::day_fractions`], the per-day completeness grid the
//! supervisor folds into a `Coverage`.
//!
//! [`LogStore::open`]: crate::LogStore::open

use crate::manifest::{self, gen_day_file_name, parse_gen_day_file_name, DayMeta, Manifest};
use crate::store::{encode_day, scan_day, DayDamage, StoreError};
use crate::vfs::{publish, read_file, Fs, FsFile};
use crate::ReadMode;
use ipactive_obs::{Event, EventKind, Registry};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Name of the quarantine subdirectory repairs move damaged files to.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Health verdict for one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DayVerdict {
    /// Every check passed.
    Clean,
    /// The file exists but lost frames, failed its footer, or both.
    Damaged,
    /// The manifest commits the day but its file is gone.
    Missing,
    /// An uncommitted generation file adopted because manifest files
    /// existed, none decoded, and it was the newest copy of the day.
    RecoveredOrphan,
}

impl DayVerdict {
    fn label(self) -> &'static str {
        match self {
            DayVerdict::Clean => "clean",
            DayVerdict::Damaged => "damaged",
            DayVerdict::Missing => "MISSING",
            DayVerdict::RecoveredOrphan => "recovered-orphan",
        }
    }
}

/// Everything fsck established about one day.
#[derive(Debug, Clone)]
pub struct DayCheck {
    /// File name the day resolved to (its pre-repair name).
    pub file: String,
    /// Whether the manifest fsck found in force commits this day
    /// (`false` is exactly a recovered orphan).
    pub committed: bool,
    /// Records that survive a tolerant read.
    pub records: u64,
    /// Records the manifest promised (`None` for a recovered orphan).
    pub expected: Option<u64>,
    /// Frame-level damage observed.
    pub damage: DayDamage,
    /// Whether the manifest footer (length / whole-file CRC) matched.
    pub footer_ok: bool,
    /// Overall verdict.
    pub verdict: DayVerdict,
}

impl DayCheck {
    /// Completeness in `[0, 1]`: the fraction of this day's records
    /// that are present and intact. Committed days measure against
    /// the manifest's promise; recovered orphans against survivors +
    /// losses (the best estimate available without a footer).
    pub fn fraction(&self) -> f64 {
        match self.verdict {
            DayVerdict::Missing => 0.0,
            _ => match self.expected {
                Some(0) | None => {
                    let lost = self.damage.lost_frames();
                    if lost == 0 {
                        1.0
                    } else {
                        self.records as f64 / (self.records + lost) as f64
                    }
                }
                Some(expected) => (self.records as f64 / expected as f64).min(1.0),
            },
        }
    }
}

/// One file moved to quarantine (or that a dry run would move).
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// Original file name.
    pub file: String,
    /// The day it held, when it was a day file.
    pub day: Option<u16>,
    /// Why it was quarantined — written verbatim to the `.why`
    /// provenance sidecar.
    pub reason: String,
}

/// The deterministic result of an fsck pass.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Generation of the authoritative manifest, if one verified.
    pub generation: Option<u64>,
    /// Per-day findings, keyed by day number.
    pub days: BTreeMap<u16, DayCheck>,
    /// Damaged or corrupt files quarantined (applied when `repaired`,
    /// planned otherwise).
    pub quarantined: Vec<Quarantined>,
    /// Orphaned generation day files removed as superseded.
    pub orphans_removed: Vec<String>,
    /// Stale (older valid) manifest generations removed.
    pub stale_manifests: Vec<String>,
    /// Stale tmp files swept.
    pub tmp_swept: Vec<String>,
    /// Whether repairs were applied (`false` = read-only dry run).
    pub repaired: bool,
}

impl FsckReport {
    /// Whether the store needs no attention at all.
    pub fn is_healthy(&self) -> bool {
        self.days.values().all(|d| d.verdict == DayVerdict::Clean)
            && self.quarantined.is_empty()
            && self.orphans_removed.is_empty()
            && self.stale_manifests.is_empty()
            && self.tmp_swept.is_empty()
    }

    /// Per-day completeness fractions, ascending by day — the grid a
    /// supervisor folds into its `Coverage` accounting.
    pub fn day_fractions(&self) -> Vec<(u16, f64)> {
        self.days.iter().map(|(&day, check)| (day, check.fraction())).collect()
    }

    /// Renders the report as deterministic, path-free text: the same
    /// directory state always produces byte-identical output, so CI
    /// can diff it against a committed golden file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        match self.generation {
            Some(gen) => push(
                &mut out,
                format!("manifest: generation {gen} ({} committed days)", {
                    self.days.values().filter(|d| d.committed).count()
                }),
            ),
            None => push(&mut out, "manifest: none".to_string()),
        }
        for (day, check) in &self.days {
            let kind = if check.committed { "committed" } else { "uncommitted" };
            let mut line = format!(
                "day {day:04}: {} {kind} ({}",
                check.verdict.label(),
                match check.expected {
                    Some(expected) => format!("{}/{expected} records", check.records),
                    None => format!("{} records", check.records),
                }
            );
            if check.damage.skipped > 0 {
                line.push_str(&format!(", {} mid-file skips", check.damage.skipped));
            }
            if check.damage.resyncs > 0 {
                line.push_str(&format!(", {} resyncs", check.damage.resyncs));
            }
            if check.damage.truncated_tail {
                line.push_str(", truncated tail");
            }
            if !check.footer_ok {
                line.push_str(", footer mismatch");
            }
            line.push(')');
            if check.verdict != DayVerdict::Missing {
                line.push_str(&format!(" [{}]", check.file));
            }
            push(&mut out, line);
        }
        let action = if self.repaired { "" } else { " (dry run)" };
        for q in &self.quarantined {
            push(&mut out, format!("quarantine{action}: {} — {}", q.file, q.reason));
        }
        for name in &self.orphans_removed {
            push(&mut out, format!("orphan removed{action}: {name}"));
        }
        for name in &self.stale_manifests {
            push(&mut out, format!("stale manifest removed{action}: {name}"));
        }
        for name in &self.tmp_swept {
            push(&mut out, format!("tmp swept{action}: {name}"));
        }
        let healthy = self.days.values().filter(|d| d.verdict == DayVerdict::Clean).count();
        let total: f64 = self.days.values().map(DayCheck::fraction).sum();
        let coverage = if self.days.is_empty() { 1.0 } else { total / self.days.len() as f64 };
        push(
            &mut out,
            format!(
                "summary: {} days, {healthy} clean; coverage {coverage:.4}",
                self.days.len()
            ),
        );
        out
    }
}

/// Moves `name` into the quarantine subdirectory and writes a `.why`
/// provenance sidecar next to it.
fn quarantine_file<F: Fs>(fs: &F, dir: &Path, name: &str, reason: &str) -> std::io::Result<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    fs.create_dir_all(&qdir)?;
    fs.rename(&dir.join(name), &qdir.join(name))?;
    let mut why = fs.create(&qdir.join(format!("{name}.why")))?;
    why.write_all(reason.as_bytes())?;
    why.write_all(b"\n")?;
    why.sync_all()
}

/// Verifies (and with `repair`, fixes) the store rooted at `dir` on
/// the filesystem `fs`. See the module docs for the full contract.
///
/// Errors are reserved for I/O failures that make the directory
/// itself unreadable (or a repair unwritable); damage *inside* the
/// store — an unreadable manifest included — is never an error, it is
/// the report's subject matter.
pub fn fsck<F: Fs>(fs: &F, dir: &Path, repair: bool) -> Result<FsckReport, StoreError> {
    let io = |path: &Path, e| StoreError::io(None, path, e);
    fs.create_dir_all(dir).map_err(|e| io(dir, e))?;
    let mut names = fs.read_dir_names(dir).map_err(|e| io(dir, e))?;
    names.sort();

    let mut report = FsckReport { repaired: repair, ..FsckReport::default() };
    let remove = |name: &str| {
        if repair {
            let _ = fs.remove_file(&dir.join(name));
        }
    };

    // Pass 1: sweep tmp files and list the generation day files. Any
    // other name is not the store's and is left alone.
    let mut gen_days: Vec<(u16, u64, &String)> = Vec::new();
    for name in &names {
        if name.starts_with('.') && name.ends_with(".tmp") {
            report.tmp_swept.push(name.clone());
            remove(name);
        } else if let Some((day, gen)) = parse_gen_day_file_name(name) {
            gen_days.push((day, gen, name));
        }
    }
    gen_days.sort();

    // Pass 2: the resolver's verdict on every manifest file — one is
    // authoritative, older valid ones are stale, the rest corrupt
    // (reported here, moved to quarantine in pass 6).
    let resolved = manifest::resolve(fs, dir, &names);
    for &gen in &resolved.stale {
        let name = Manifest::file_name(gen);
        remove(&name);
        report.stale_manifests.push(name);
    }
    for (gen, why) in &resolved.corrupt {
        let reason = format!("corrupt manifest generation {gen}: {why}");
        report.quarantined.push(Quarantined { file: Manifest::file_name(*gen), day: None, reason });
    }
    report.generation = resolved.current.as_ref().map(|m| m.generation);

    // Pass 3: verify committed days against their manifest footers
    // and a tolerant frame scan. `next_days` becomes the committed set
    // a repair publishes; `recommit` the salvage it rewrites first.
    let committed = resolved.current.map(|m| m.days).unwrap_or_default();
    let mut next_days = committed.clone();
    let mut recommit = Vec::new();
    for (&day, meta) in &committed {
        let name = gen_day_file_name(day, meta.generation);
        let mut check = DayCheck {
            file: name.clone(),
            committed: true,
            records: 0,
            expected: Some(meta.records),
            damage: DayDamage::default(),
            footer_ok: false,
            verdict: DayVerdict::Missing,
        };
        if let Ok(bytes) = read_file(fs, &dir.join(&name)) {
            let (records, damage) =
                scan_day(&bytes, ReadMode::Tolerant, meta.records).expect("tolerant read");
            check.records = records.len() as u64;
            check.damage = damage;
            check.footer_ok = meta.mismatch(&bytes).is_none();
            let clean = check.footer_ok && damage.is_clean() && check.records == meta.records;
            check.verdict = if clean { DayVerdict::Clean } else { DayVerdict::Damaged };
            if !clean {
                let reason = format!(
                    "committed day {day}: {} of {} records salvaged (footer {})",
                    check.records,
                    meta.records,
                    if check.footer_ok { "ok" } else { "mismatch" },
                );
                if repair {
                    let _ = quarantine_file(fs, dir, &name, &reason);
                    next_days.remove(&day);
                    if !records.is_empty() {
                        recommit.push((day, records));
                    }
                }
                report.quarantined.push(Quarantined { file: name, day: Some(day), reason });
            }
        } else {
            next_days.remove(&day);
        }
        report.days.insert(day, check);
    }

    // Pass 4: generation files the manifest in force does not
    // reference. They are a superseded generation or a crashed batch's
    // unpublished write and are removed — adopting one would resurrect
    // uncommitted data — except when manifest files exist and none
    // decodes: then the newest generation of each day is the only
    // surviving copy and is adopted. No manifest file at all means no
    // batch ever published, so there is nothing to adopt.
    let adopting = report.generation.is_none() && !resolved.corrupt.is_empty();
    let mut newest: BTreeMap<u16, u64> = BTreeMap::new();
    if adopting {
        // Ascending by (day, generation): the last insert wins.
        newest.extend(gen_days.iter().map(|&(day, gen, _)| (day, gen)));
    }
    for &(day, gen, name) in &gen_days {
        if committed.get(&day).is_some_and(|meta| meta.generation == gen) {
            continue;
        }
        if newest.get(&day) != Some(&gen) {
            report.orphans_removed.push(name.clone());
            remove(name);
            continue;
        }
        let Ok(bytes) = read_file(fs, &dir.join(name)) else {
            continue; // raced away between listing and read
        };
        let (records, damage) = scan_day(&bytes, ReadMode::Tolerant, 0).expect("tolerant read");
        next_days.insert(day, DayMeta::of(gen, records.len() as u64, &bytes));
        report.days.insert(
            day,
            DayCheck {
                file: name.clone(),
                committed: false,
                records: records.len() as u64,
                expected: None,
                damage,
                footer_ok: true,
                verdict: DayVerdict::RecoveredOrphan,
            },
        );
    }

    // Pass 5 (repair only): if the committed set changed — days
    // salvaged, lost or adopted — publish it as a fresh manifest
    // generation, with the commit protocol's own ordering.
    if repair && (next_days != committed || !recommit.is_empty()) {
        // One past every generation a manifest or day file in the
        // directory is named for, so no name is reused — not that of a
        // corrupt manifest pass 6 is about to move, nor an orphan's.
        let named = resolved.corrupt.iter().map(|c| c.0).chain(gen_days.iter().map(|d| d.1));
        let gen = 1 + named.chain(report.generation).max().unwrap_or(0);
        let mut next = Manifest { generation: gen, days: next_days };
        for (day, records) in &recommit {
            let bytes = encode_day(records);
            let name = gen_day_file_name(*day, gen);
            publish(fs, dir, &name, &bytes).map_err(|e| io(&dir.join(&name), e))?;
            next.days.insert(*day, DayMeta::of(gen, records.len() as u64, &bytes));
        }
        fs.sync_dir(dir).map_err(|e| io(dir, e))?;
        publish(fs, dir, &Manifest::file_name(gen), &next.encode()).map_err(|e| io(dir, e))?;
        fs.sync_dir(dir).map_err(|e| io(dir, e))?;
        if let Some(old) = report.generation {
            let _ = fs.remove_file(&Manifest::path(dir, old));
        }
        report.generation = Some(gen);
    }

    // Pass 6 (repair only): corrupt manifests leave last. Until an
    // adopted generation is durable they are what tells the successor
    // of an interrupted repair that the generation files belong to a
    // store that had published — to be adopted, not removed.
    if repair {
        for q in report.quarantined.iter().filter(|q| q.day.is_none()) {
            let _ = quarantine_file(fs, dir, &q.file, &q.reason);
        }
    }

    // The quarantine plan accumulates across passes in pass order;
    // sort it so the report is independent of traversal details.
    report.quarantined.sort_by(|a, b| a.file.cmp(&b.file));
    report.orphans_removed.sort();
    Ok(report)
}

/// Publishes an [`FsckReport`] into `registry`: every verdict becomes
/// `fsck.*` counters and journal events ([`EventKind::FsckQuarantine`]
/// / [`EventKind::FsckAdopt`] / [`EventKind::FsckSalvage`] /
/// [`EventKind::FsckRepair`]). They derive from the report itself —
/// not from a second scan — so a metrics view and a rendered report
/// of the same pass agree on counts by construction.
pub fn record_fsck(registry: &Registry, report: &FsckReport) {
    for q in &report.quarantined {
        let mut ev = Event::new(EventKind::FsckQuarantine).detail(q.reason.clone());
        if let Some(day) = q.day {
            ev = ev.day(day);
        }
        registry.emit(ev);
    }
    registry.counter("fsck.quarantined").add(report.quarantined.len() as u64);

    let mut clean = 0u64;
    let mut damaged = 0u64;
    let mut missing = 0u64;
    let mut adopted = 0u64;
    let mut salvaged = 0u64;
    for (&day, check) in &report.days {
        match check.verdict {
            DayVerdict::Clean => clean += 1,
            DayVerdict::Damaged => {
                damaged += 1;
                if check.records > 0 {
                    salvaged += check.records;
                    registry.emit(
                        Event::new(EventKind::FsckSalvage)
                            .day(day)
                            .detail(format!("{} records salvaged from damaged day", check.records)),
                    );
                }
            }
            DayVerdict::Missing => missing += 1,
            DayVerdict::RecoveredOrphan => {
                adopted += 1;
                registry.emit(
                    Event::new(EventKind::FsckAdopt)
                        .day(day)
                        .detail(format!("orphan generation adopted ({} records)", check.records)),
                );
            }
        }
    }
    registry.counter("fsck.days_clean").add(clean);
    registry.counter("fsck.days_damaged").add(damaged);
    registry.counter("fsck.days_missing").add(missing);
    registry.counter("fsck.adopted_orphans").add(adopted);
    registry.counter("fsck.salvaged_records").add(salvaged);
    registry.counter("fsck.orphans_removed").add(report.orphans_removed.len() as u64);
    registry.counter("fsck.stale_manifests").add(report.stale_manifests.len() as u64);
    registry.counter("fsck.tmp_swept").add(report.tmp_swept.len() as u64);

    if report.repaired && !report.is_healthy() {
        // Path-free fixed detail: tmp and quarantine names can embed
        // pids, which a deterministic snapshot must not.
        registry.emit(Event::new(EventKind::FsckRepair).detail(format!(
            "repair pass: {} quarantined, {} orphans removed, {} tmp swept",
            report.quarantined.len(),
            report.orphans_removed.len(),
            report.tmp_swept.len(),
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimFs;
    use crate::{LogStore, Record};
    use ipactive_net::Addr;
    use std::path::PathBuf;

    fn recs(day: u16, n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| Record::Hits { day, addr: Addr::new(0x0B000000 + i), hits: u64::from(i) + 1 })
            .collect()
    }

    fn dir() -> PathBuf {
        PathBuf::from("/store")
    }

    /// A fresh disk on which a store committed `n` records for each
    /// `(day, n)`, as generation 1.
    fn committed(days: &[(u16, u32)]) -> (SimFs, LogStore<SimFs>) {
        let fs = SimFs::new();
        let mut store = LogStore::open_on(fs.clone(), dir()).unwrap();
        let batch: Vec<_> = days.iter().map(|&(day, n)| (day, recs(day, n))).collect();
        store.commit_days(&batch).unwrap();
        (fs, store)
    }

    /// Flips one byte in the middle of `day`'s generation-1 file.
    fn flip_mid_byte(fs: &SimFs, day: u16) {
        let path = dir().join(gen_day_file_name(day, 1));
        let mut bytes = fs.visible(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        fs.put_file(&path, &bytes);
    }

    #[test]
    fn healthy_store_reports_clean() {
        let (fs, _) = committed(&[(0, 5), (1, 7)]);
        let report = fsck(&fs, &dir(), false).unwrap();
        assert!(report.is_healthy(), "unexpected findings:\n{}", report.render());
        assert_eq!(report.generation, Some(1));
        assert_eq!(report.day_fractions(), vec![(0, 1.0), (1, 1.0)]);
        assert_eq!(report.days[&1].expected, Some(7));
    }

    #[test]
    fn dry_run_is_read_only() {
        let (fs, _) = committed(&[(0, 6)]);
        flip_mid_byte(&fs, 0);
        let before = fs.read_dir_names(&dir()).unwrap();
        let report = fsck(&fs, &dir(), false).unwrap();
        assert!(!report.is_healthy());
        assert_eq!(report.days[&0].verdict, DayVerdict::Damaged);
        assert!(!report.days[&0].footer_ok);
        assert_eq!(
            fs.read_dir_names(&dir()).unwrap(),
            before,
            "dry run must not touch the directory"
        );
    }

    #[test]
    fn repair_quarantines_and_recommits_salvage() {
        let (fs, _) = committed(&[(0, 6), (1, 4)]);
        flip_mid_byte(&fs, 0);

        let report = fsck(&fs, &dir(), true).unwrap();
        assert_eq!(report.days[&0].verdict, DayVerdict::Damaged);
        assert_eq!(report.generation, Some(2), "repair must publish a corrected generation");
        assert!(fs.exists(&dir().join(QUARANTINE_DIR).join(gen_day_file_name(0, 1))));
        assert!(fs
            .exists(&dir().join(QUARANTINE_DIR).join(format!("{}.why", gen_day_file_name(0, 1)))));

        // The repaired store opens cleanly: day 0 holds the salvage
        // with a footer that now matches, day 1 is untouched.
        let repaired = LogStore::open_on(fs.clone(), dir()).unwrap();
        assert_eq!(repaired.manifest().unwrap().generation, 2);
        let (salvaged, damage) = repaired.read_day(0, ReadMode::Strict).unwrap();
        assert!(damage.is_clean());
        assert!(salvaged.len() < 6, "salvage should have lost the damaged frame(s)");
        assert_eq!(repaired.read_day(1, ReadMode::Strict).unwrap().0, recs(1, 4));
        // A second pass finds nothing left to do.
        let again = fsck(&fs, &dir(), false).unwrap();
        assert!(again.is_healthy(), "repair did not converge:\n{}", again.render());
    }

    #[test]
    fn repair_drops_missing_committed_day_from_manifest() {
        let (fs, _) = committed(&[(0, 3), (1, 3)]);
        fs.remove_file(&dir().join(gen_day_file_name(0, 1))).unwrap();
        let report = fsck(&fs, &dir(), true).unwrap();
        assert_eq!(report.days[&0].verdict, DayVerdict::Missing);
        assert_eq!(report.day_fractions()[0], (0, 0.0));
        let repaired = LogStore::open_on(fs.clone(), dir()).unwrap();
        assert_eq!(repaired.committed_days(), vec![1], "lost day must leave the manifest");
    }

    #[test]
    fn all_manifests_corrupt_recovers_orphans() {
        let (fs, mut store) = committed(&[(0, 5)]);
        store.commit_days(&[(1, recs(1, 2))]).unwrap();
        // Tear the sole manifest (gen 1 was GC'd by the second commit).
        let mpath = Manifest::path(&dir(), 2);
        let bytes = fs.visible(&mpath).unwrap();
        fs.put_file(&mpath, &bytes[..bytes.len() - 2]);
        assert!(LogStore::open_on(fs.clone(), dir()).is_err(), "open must refuse this store");

        assert_eq!(fsck(&fs, &dir(), false).unwrap().generation, None);
        let report = fsck(&fs, &dir(), true).unwrap();
        assert_eq!(report.generation, Some(3), "one past every generation named in the dir");
        assert_eq!(report.days[&0].verdict, DayVerdict::RecoveredOrphan);
        assert_eq!(report.days[&1].verdict, DayVerdict::RecoveredOrphan);
        assert!(!report.days[&0].committed && report.days[&0].expected.is_none());
        // After repair the store opens *with* a manifest over the
        // adopted files, where they lie, and their footers verify.
        let recovered = LogStore::open_on(fs.clone(), dir()).unwrap();
        assert_eq!(recovered.manifest().unwrap().generation, 3);
        assert_eq!(recovered.committed_days(), vec![0, 1]);
        assert_eq!(recovered.manifest().unwrap().days[&1].generation, 2, "adopted where it lies");
        assert_eq!(recovered.read_day(0, ReadMode::Strict).unwrap().0, recs(0, 5));
        assert_eq!(recovered.read_day(1, ReadMode::Strict).unwrap().0, recs(1, 2));
        let again = fsck(&fs, &dir(), false).unwrap();
        assert!(again.is_healthy(), "adoption did not converge:\n{}", again.render());
        assert!(again.days.values().all(|d| d.committed));
    }

    /// Adoption must survive its own interruption: whatever operation
    /// of the repair a power cut lands on, the next repair still finds
    /// a corrupt manifest to tell it the orphans were published data.
    #[test]
    fn an_interrupted_adoption_loses_no_day() {
        use crate::vfs::{CrashStyle, Inject};
        let (fs, mut store) = committed(&[(0, 5)]);
        store.commit_days(&[(1, recs(1, 2))]).unwrap();
        fs.sync_dir(&dir()).unwrap(); // the sweep of generation 1 is durable
        fs.put_file(&Manifest::path(&dir(), 2), b"rotted");
        let probe = fs.fork();
        fsck(&probe, &dir(), true).unwrap();
        let total = probe.ops() - fs.ops();
        assert!(total >= 6, "adoption shrank to {total} ops");
        for cut in 0..total {
            for style in [CrashStyle::Pessimist, CrashStyle::Eager] {
                let cut_fs = fs.fork().with_fault(fs.ops() + cut, Inject::PowerCut);
                let _ = fsck(&cut_fs, &dir(), true);
                let rebooted = cut_fs.crash(style);
                fsck(&rebooted, &dir(), true).unwrap();
                let healed = LogStore::open_on(rebooted, dir()).unwrap();
                assert_eq!(healed.committed_days(), vec![0, 1], "cut at op {cut}, {style:?}");
                assert_eq!(healed.read_day(0, ReadMode::Strict).unwrap().0, recs(0, 5));
                assert_eq!(healed.read_day(1, ReadMode::Strict).unwrap().0, recs(1, 2));
            }
        }
    }

    /// With no manifest file at all there is nothing to adopt:
    /// generation files are a first batch whose commit never published.
    #[test]
    fn an_unpublished_first_batch_is_removed_not_adopted() {
        let fs = SimFs::new();
        for day in 0..2 {
            fs.put_file(&dir().join(gen_day_file_name(day, 1)), &encode_day(&recs(day, 3)));
        }
        let report = fsck(&fs, &dir(), true).unwrap();
        assert_eq!(report.orphans_removed, [gen_day_file_name(0, 1), gen_day_file_name(1, 1)]);
        assert!(report.days.is_empty() && report.generation.is_none());
        assert!(fs.read_dir_names(&dir()).unwrap().is_empty());
        assert!(LogStore::open_on(fs.clone(), dir()).unwrap().committed_days().is_empty());
    }

    /// One verdict from the one resolver: a manifest whose encoded
    /// generation disagrees with its file name is corrupt — skipped by
    /// `open`, quarantined with a `.why` by repair, never "stale".
    #[test]
    fn a_manifest_under_another_generations_name_is_corrupt_to_open_and_fsck() {
        let fs = SimFs::new();
        let mut store = LogStore::open_on(fs.clone(), dir()).unwrap();
        for day in 0..3 {
            store.commit_days(&[(day, recs(day, 2))]).unwrap();
        }
        let gen3 = fs.visible(&Manifest::path(&dir(), 3)).unwrap();
        fs.put_file(&Manifest::path(&dir(), 5), &gen3);
        let opened = LogStore::open_on(fs.clone(), dir()).unwrap();
        assert_eq!(opened.manifest().unwrap().generation, 3, "open must skip the misnamed file");
        // Alone in the directory it is "no manifest verifies", not amnesia.
        let alone = fs.fork();
        alone.remove_file(&Manifest::path(&dir(), 3)).unwrap();
        let refused = LogStore::open_on(alone, dir()).expect_err("no manifest verifies");
        assert_eq!(refused.path(), Manifest::path(&dir(), 5));
        let report = fsck(&fs, &dir(), true).unwrap();
        assert_eq!(report.generation, Some(3));
        assert!(report.stale_manifests.is_empty(), "corrupt, not stale:\n{}", report.render());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].file, Manifest::file_name(5));
        let why = dir().join(QUARANTINE_DIR).join(format!("{}.why", Manifest::file_name(5)));
        let why = String::from_utf8(fs.visible(&why).expect("provenance sidecar")).unwrap();
        assert!(why.contains("generation 5") && why.contains("generation 3"), "{why}");
        assert!(fsck(&fs, &dir(), false).unwrap().is_healthy());
    }

    /// The ordinary fallback state — a valid manifest beside a torn
    /// newer one — with a damaged day on top: the generation repair
    /// publishes must not take the torn file's name, or quarantining
    /// the torn file afterwards would carry the fresh manifest away.
    #[test]
    fn repair_beside_a_torn_newer_manifest_keeps_the_manifest_it_publishes() {
        let (fs, mut store) = committed(&[(0, 6), (1, 4)]);
        let gen1 = fs.visible(&Manifest::path(&dir(), 1)).unwrap();
        store.commit_days(&[(2, recs(2, 3))]).unwrap();
        fs.put_file(&Manifest::path(&dir(), 1), &gen1); // as if the sweep never ran
        let gen2 = fs.visible(&Manifest::path(&dir(), 2)).unwrap();
        fs.put_file(&Manifest::path(&dir(), 2), &gen2[..gen2.len() - 2]);
        flip_mid_byte(&fs, 0);

        let report = fsck(&fs, &dir(), true).unwrap();
        assert_eq!(report.generation, Some(3), "one past every generation named in the dir");
        assert!(fs.exists(&dir().join(QUARANTINE_DIR).join(Manifest::file_name(2))));
        let repaired = LogStore::open_on(fs.clone(), dir()).unwrap();
        assert_eq!(repaired.manifest().unwrap().generation, 3);
        assert_eq!(repaired.committed_days(), vec![0, 1], "day 2 never published");
        let (salvaged, _) = repaired.read_day(0, ReadMode::Strict).unwrap();
        assert!(!salvaged.is_empty() && salvaged.len() < 6);
        assert_eq!(repaired.read_day(1, ReadMode::Strict).unwrap().0, recs(1, 4));
        let again = fsck(&fs, &dir(), false).unwrap();
        assert!(again.is_healthy(), "repair did not converge:\n{}", again.render());
    }

    /// A manifest that cannot be read is damage, not an fsck failure:
    /// it is quarantined like a torn one. (A directory under the
    /// manifest's name fails to read on every platform, root or not.)
    #[test]
    fn an_unreadable_manifest_is_corrupt_not_an_fsck_error() {
        let root = std::env::temp_dir().join(format!("ipactive-fsck-eio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        LogStore::open(&root).unwrap().commit_days(&[(0, recs(0, 5))]).unwrap();
        std::fs::create_dir(Manifest::path(&root, 2)).unwrap();
        assert_eq!(LogStore::open(&root).unwrap().committed_days(), vec![0], "open falls back");
        let report = fsck(&crate::RealFs, &root, true).unwrap();
        assert_eq!(report.generation, Some(1));
        assert_eq!(report.quarantined.len(), 1, "{}", report.render());
        assert!(report.quarantined[0].reason.contains("generation 2: manifest unreadable"));
        assert!(root.join(QUARANTINE_DIR).join(Manifest::file_name(2)).is_dir());
        // Alone in the directory: `open`'s I/O error, adopted over by repair.
        std::fs::remove_file(Manifest::path(&root, 1)).unwrap();
        std::fs::create_dir(Manifest::path(&root, 1)).unwrap();
        assert!(matches!(LogStore::open(&root), Err(StoreError::Io { .. })));
        assert_eq!(fsck(&crate::RealFs, &root, true).unwrap().generation, Some(2));
        let healed = LogStore::open(&root).unwrap();
        assert_eq!(healed.read_day(0, ReadMode::Strict).unwrap().0, recs(0, 5));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn orphans_under_a_valid_manifest_are_removed_not_adopted() {
        let (fs, _) = committed(&[(0, 5)]);
        // Plant a crashed batch's unpublished day file.
        let orphan = dir().join(gen_day_file_name(9, 2));
        fs.put_file(&orphan, b"whatever");
        let report = fsck(&fs, &dir(), true).unwrap();
        assert!(report.orphans_removed.contains(&gen_day_file_name(9, 2)));
        assert!(!fs.exists(&orphan), "uncommitted orphan must not survive repair");
        assert!(!report.days.contains_key(&9), "uncommitted data must not be resurrected");
    }

    #[test]
    fn render_is_deterministic_and_path_free() {
        let (fs, _) = committed(&[(0, 4), (2, 3)]);
        let a = fsck(&fs, &dir(), false).unwrap().render();
        let b = fsck(&fs, &dir(), false).unwrap().render();
        assert_eq!(a, b);
        assert!(!a.contains("/store"), "report must not leak paths:\n{a}");
        assert!(a.contains("manifest: generation 1"));
        assert!(a.contains("day 0000: clean committed (4/4 records)"));
        assert!(a.contains("day 0002: clean committed (3/3 records)"));
        assert!(a.contains("summary: 2 days, 2 clean; coverage 1.0000"));
    }

    #[test]
    fn record_fsck_events_agree_with_the_report() {
        use ipactive_obs::{Registry, SnapshotMode};
        let (fs, _) = committed(&[(0, 6), (1, 4), (2, 5)]);
        flip_mid_byte(&fs, 0);
        flip_mid_byte(&fs, 2);
        let reg = Registry::new();
        let report = fsck(&fs, &dir(), true).unwrap();
        record_fsck(&reg, &report);
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(
            snap.counter("fsck.quarantined"),
            report.quarantined.len() as u64,
            "metrics and report disagree on quarantine count"
        );
        assert_eq!(
            snap.events_of(EventKind::FsckQuarantine).count(),
            report.quarantined.len()
        );
        let damaged = report.days.values().filter(|d| d.verdict == DayVerdict::Damaged).count();
        assert_eq!(snap.counter("fsck.days_damaged"), damaged as u64);
        let salvaged: u64 = report
            .days
            .values()
            .filter(|d| d.verdict == DayVerdict::Damaged)
            .map(|d| d.records)
            .sum();
        assert_eq!(snap.counter("fsck.salvaged_records"), salvaged);
        assert_eq!(snap.events_of(EventKind::FsckSalvage).count(), 2);
        assert_eq!(snap.events_of(EventKind::FsckRepair).count(), 1, "repair pass is journaled");

        // A second pass over the repaired store publishes all-clean
        // numbers into a fresh registry.
        let reg2 = Registry::new();
        let again = fsck(&fs, &dir(), false).unwrap();
        record_fsck(&reg2, &again);
        assert!(again.is_healthy());
        let snap2 = reg2.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap2.counter("fsck.quarantined"), 0);
        assert_eq!(snap2.counter("fsck.days_clean"), again.days.len() as u64);
        assert_eq!(snap2.events.len(), 0, "healthy pass journals nothing");
    }

    #[test]
    fn adopted_orphans_are_journaled_as_fsck_adopt() {
        use ipactive_obs::{Registry, SnapshotMode};
        let (fs, _) = committed(&[(0, 5)]);
        let mpath = Manifest::path(&dir(), 1);
        let bytes = fs.visible(&mpath).unwrap();
        fs.put_file(&mpath, &bytes[..bytes.len() - 2]);
        let reg = Registry::new();
        let report = fsck(&fs, &dir(), true).unwrap();
        record_fsck(&reg, &report);
        assert_eq!(report.days[&0].verdict, DayVerdict::RecoveredOrphan);
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.counter("fsck.adopted_orphans"), 1);
        let adopt: Vec<_> = snap.events_of(EventKind::FsckAdopt).collect();
        assert_eq!(adopt.len(), 1);
        assert_eq!(adopt[0].day, Some(0));
    }

    #[test]
    fn damaged_day_fraction_counts_survivors() {
        let (fs, _) = committed(&[(0, 9)]);
        // Truncate mid-frame: the Finish marker (7 bytes) and part of
        // the last record are cut, leaving a truncated tail.
        let path = dir().join(gen_day_file_name(0, 1));
        let bytes = fs.visible(&path).unwrap();
        fs.put_file(&path, &bytes[..bytes.len() - 10]);
        let report = fsck(&fs, &dir(), false).unwrap();
        let check = &report.days[&0];
        assert_eq!(check.verdict, DayVerdict::Damaged);
        assert!(check.damage.truncated_tail);
        let (_, frac) = report.day_fractions()[0];
        assert!(frac > 0.8 && frac < 1.0, "fraction {frac} out of range");
    }
}
