//! Golden-file test for the `inspect fsck` pipeline.
//!
//! Drives the real binary end to end: build a deterministic corrupted
//! store fixture (`inspect mkstore --corrupt`), repair it
//! (`inspect fsck --repair`), and diff the repair report byte-for-byte
//! against the committed golden file. A final verify pass must come
//! back healthy — repair converges in one step.
//!
//! If an intentional change to the store format or the report layout
//! moves the output, regenerate the golden with:
//!
//! ```text
//! rm -rf /tmp/fsck-smoke
//! target/debug/inspect mkstore /tmp/fsck-smoke --seed 7 --scale tiny --corrupt
//! target/debug/inspect fsck /tmp/fsck-smoke --repair \
//!     > crates/bench/tests/golden/fsck_repair_report.txt
//! ```

use std::path::PathBuf;
use std::process::Command;

const GOLDEN: &str = include_str!("golden/fsck_repair_report.txt");

fn inspect() -> Command {
    Command::new(env!("CARGO_BIN_EXE_inspect"))
}

fn fixture_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipactive-fsck-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fsck_repair_report_matches_golden() {
    let dir = fixture_dir("repair");
    let built = inspect()
        .args(["mkstore", dir.to_str().unwrap(), "--seed", "7", "--scale", "tiny", "--corrupt"])
        .output()
        .expect("run inspect mkstore");
    assert!(built.status.success(), "mkstore failed: {}", String::from_utf8_lossy(&built.stderr));

    let repair = inspect()
        .args(["fsck", dir.to_str().unwrap(), "--repair"])
        .output()
        .expect("run inspect fsck --repair");
    let report = String::from_utf8(repair.stdout).expect("report is utf-8");
    assert_eq!(
        repair.status.code(),
        Some(1),
        "repair of a damaged store must exit 1; stderr: {}",
        String::from_utf8_lossy(&repair.stderr)
    );
    assert_eq!(
        report, GOLDEN,
        "fsck repair report drifted from the committed golden \
         (see the module docs for how to regenerate it)"
    );

    // The repaired store verifies healthy, with full coverage.
    let verify = inspect()
        .args(["fsck", dir.to_str().unwrap()])
        .output()
        .expect("run inspect fsck");
    assert_eq!(verify.status.code(), Some(0), "repair did not converge");
    let verified = String::from_utf8(verify.stdout).unwrap();
    assert!(
        verified.ends_with("coverage 1.0000\n"),
        "repaired store is not fully covered:\n{verified}"
    );

    // Quarantine provenance sidecars exist for both damaged days.
    for name in ["day-0000.g000001.iplog", "day-0001.g000001.iplog"] {
        let quarantined = dir.join("quarantine").join(name);
        assert!(quarantined.exists(), "missing quarantined file {name}");
        let why = std::fs::read_to_string(dir.join("quarantine").join(format!("{name}.why")))
            .expect("provenance sidecar");
        assert!(why.contains("salvaged"), "sidecar lacks provenance: {why}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `inspect metrics` and `inspect fsck` must agree on every verdict
/// count: both derive from the same [`ipactive_logfmt::FsckReport`],
/// and the snapshot's journal carries one `fsck_quarantine` event per
/// quarantine line in the rendered report.
#[test]
fn inspect_metrics_agrees_with_inspect_fsck() {
    let dir = fixture_dir("metrics");
    let built = inspect()
        .args(["mkstore", dir.to_str().unwrap(), "--seed", "7", "--scale", "tiny", "--corrupt"])
        .output()
        .expect("run inspect mkstore");
    assert!(built.status.success(), "mkstore failed: {}", String::from_utf8_lossy(&built.stderr));

    let fsck = inspect()
        .args(["fsck", dir.to_str().unwrap()])
        .output()
        .expect("run inspect fsck");
    assert_eq!(fsck.status.code(), Some(1), "dry fsck of a damaged store must exit 1");
    let report = String::from_utf8(fsck.stdout).expect("report is utf-8");

    let metrics = inspect()
        .args(["metrics", dir.to_str().unwrap()])
        .output()
        .expect("run inspect metrics");
    assert_eq!(
        metrics.status.code(),
        Some(1),
        "inspect metrics of a damaged store must exit 1; stderr: {}",
        String::from_utf8_lossy(&metrics.stderr)
    );
    let snapshot = ipactive_obs::json::parse(
        std::str::from_utf8(&metrics.stdout).expect("snapshot is utf-8"),
    )
    .expect("snapshot parses as JSON");
    let counter = |name: &str| -> u64 {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("snapshot lacks counter {name}")) as u64
    };

    let quarantine_lines =
        report.lines().filter(|l| l.starts_with("quarantine")).count() as u64;
    assert!(quarantine_lines > 0, "fixture damage produced no quarantine verdicts:\n{report}");
    assert_eq!(counter("fsck.quarantined"), quarantine_lines);

    let damaged_days = report.lines().filter(|l| l.contains(": damaged ")).count() as u64;
    assert_eq!(counter("fsck.days_damaged"), damaged_days);

    let summary = report.lines().find(|l| l.starts_with("summary: ")).expect("summary line");
    // "summary: 28 days, 26 clean; coverage 0.9..."
    let clean: u64 = summary
        .split(", ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("clean count in summary");
    assert_eq!(counter("fsck.days_clean"), clean);

    let quarantine_events = snapshot
        .get("events")
        .and_then(|e| e.as_array())
        .expect("events array")
        .iter()
        .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("fsck_quarantine"))
        .count() as u64;
    assert_eq!(
        quarantine_events, quarantine_lines,
        "journal events disagree with the rendered report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_on_a_healthy_store_exits_zero() {
    let dir = fixture_dir("healthy");
    let built = inspect()
        .args(["mkstore", dir.to_str().unwrap(), "--seed", "7", "--scale", "tiny"])
        .output()
        .expect("run inspect mkstore");
    assert!(built.status.success(), "mkstore failed: {}", String::from_utf8_lossy(&built.stderr));
    let verify = inspect()
        .args(["fsck", dir.to_str().unwrap()])
        .output()
        .expect("run inspect fsck");
    assert_eq!(verify.status.code(), Some(0));
    let report = String::from_utf8(verify.stdout).unwrap();
    assert!(report.contains("28 clean"), "unexpected report:\n{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mkstore` has one way to write a store and no flag to choose it:
/// `--atomic` is a usage error, not a silently accepted no-op.
#[test]
fn mkstore_atomic_is_a_usage_error() {
    let dir = fixture_dir("atomic-flag");
    let out = inspect()
        .args(["mkstore", dir.to_str().unwrap(), "--scale", "tiny", "--atomic"])
        .output()
        .expect("run inspect mkstore");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("inspect mkstore <DIR>") && !usage.contains("--atomic"), "{usage}");
    assert!(!dir.exists(), "a usage error must not create the store");
}
