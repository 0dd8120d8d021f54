//! Golden-file test for `repro validate`: drives the real binary at a
//! pinned seed and scale and compares its stdout byte for byte with
//! the committed record — every tag, experiment, claim, detail and the
//! summary line. CI's "Shape validation" step holds `--scale small`
//! against `golden/validate_small.txt` the same way.
//!
//! Both files were recorded from the binary that ran `validate` as a
//! second pass of analyses, before it became a table of bands over the
//! suite's records. If a deliberate change to a claim moves them,
//! regenerate with:
//!
//! ```text
//! target/release/repro validate --seed 2015 --scale tiny > crates/bench/tests/golden/validate_tiny.txt
//! target/release/repro validate --seed 2015 --scale small > crates/bench/tests/golden/validate_small.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/validate_tiny.txt");

#[test]
fn validate_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["validate", "--seed", "2015", "--scale", "tiny"])
        .output()
        .expect("run repro");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout, GOLDEN, "repro validate drifted from the committed golden");
    // `validate` exits nonzero exactly when a check failed.
    let failed = !GOLDEN.contains(" 0 failed,");
    assert_eq!(out.status.code(), Some(i32::from(failed)), "{}", String::from_utf8_lossy(&out.stderr));
}
