//! Full-scale shape validation as an (ignored-by-default) integration
//! test: run explicitly with
//!
//! ```sh
//! cargo test --release --test full_scale -- --ignored
//! ```
//!
//! It generates the paper-geometry universe (~2.4 K blocks, 112 days,
//! 52 weeks), runs the figure suite once and asserts every executable
//! shape claim — the 22 bands `Repro::validate` evaluates over the
//! measures the figures record, the same gate `repro validate`
//! provides as a binary — wired into the test harness for release
//! pipelines with time to spare.

use ipactive_bench::{CheckOutcome, Repro, Scale};

#[test]
#[ignore = "builds the full-scale universe; run with --ignored in release mode"]
fn full_scale_shape_validation() {
    let repro = Repro::new(2015, Scale::Full);
    let checks = repro.validate();
    assert!(checks.len() >= 20, "only {} checks ran", checks.len());
    let failures: Vec<_> = checks
        .iter()
        .filter(|c| matches!(c.outcome, CheckOutcome::Fail(_)))
        .collect();
    assert!(failures.is_empty(), "failed shape checks: {failures:#?}");
    let skips = checks
        .iter()
        .filter(|c| matches!(c.outcome, CheckOutcome::Skip(_)))
        .count();
    assert_eq!(skips, 0, "full scale must evaluate every check");
}
