//! The document gates CI runs, in tier-1: `inspect check` holds a
//! document to exactly the gates its command line names — a schema, and
//! ceilings on a `repro serve-bench` record — and exits 0 when every
//! gate holds, 1 when one fails and 2 when the command line or a
//! document is unusable. Every command line of the bench binaries goes
//! through one flag reader, so an unknown flag is a usage error (exit
//! 2) for `repro`, `repro worker` and `inspect` alike.

use std::path::PathBuf;
use std::process::{Command, Output};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn golden(name: &str) -> String {
    format!("{GOLDEN}/{name}")
}

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inspect")).args(args).output().expect("run inspect")
}

/// A scratch file under the temp dir, unique to this test process.
fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ipactive-check-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write scratch document");
    path
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn the_metrics_golden_validates_against_its_schema() {
    let (snapshot, schema) = (golden("metrics_snapshot.json"), golden("metrics_schema.json"));
    let out = inspect(&["check", &snapshot, "--schema", &schema]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stdout(&out), format!("{snapshot}: valid against {schema}\n"));
}

#[test]
fn the_trace_golden_validates_and_renders() {
    let (traces, schema) = (golden("trace_snapshot.json"), golden("trace_schema.json"));
    let out = inspect(&["check", &traces, "--schema", &schema]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = inspect(&["trace", &traces]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).starts_with("trace "), "{}", stdout(&out));
    // The schema gate belongs to `check` alone.
    assert_eq!(inspect(&["trace", &traces, "--schema", &schema]).status.code(), Some(2));
}

#[test]
fn a_counter_written_as_a_string_violates_the_schema() {
    let text = std::fs::read_to_string(golden("metrics_snapshot.json")).expect("golden snapshot");
    let broken = text.replacen("\"engine.cache.miss\": 1,", "\"engine.cache.miss\": \"1\",", 1);
    assert_ne!(broken, text, "the golden no longer has the counter this test rewrites");
    let path = scratch("string-counter.json", &broken);
    let out = inspect(&["check", path.to_str().unwrap(), "--schema", &golden("metrics_schema.json")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema violation"));
}

#[test]
fn a_missing_document_or_schema_exits_two() {
    let schema = golden("metrics_schema.json");
    assert_eq!(inspect(&["check", "/nonexistent/doc.json", "--schema", &schema]).status.code(), Some(2));
    let snapshot = golden("metrics_snapshot.json");
    assert_eq!(inspect(&["check", &snapshot, "--schema", "/nonexistent/s.json"]).status.code(), Some(2));
}

#[test]
fn check_runs_only_the_gates_it_names_and_needs_one() {
    let snapshot = golden("metrics_snapshot.json");
    assert_eq!(inspect(&["check", &snapshot]).status.code(), Some(2), "no gate named");
    assert_eq!(inspect(&["check"]).status.code(), Some(2), "no document named");
    // A ceiling reads fields a metrics snapshot does not have.
    assert_eq!(inspect(&["check", &snapshot, "--max-burns", "1"]).status.code(), Some(2));
}

/// A serve record with the fields the ceilings read.
const RECORD: &str = r#"{"config":{"seed":2016},"report":{"sent":500,"shed_rate":0.125,"p99_us":900.0},"slo":{"burns":2}}"#;

#[test]
fn a_serve_record_passes_its_ceilings_then_breaches_each_in_turn() {
    let path = scratch("serve-record.json", RECORD);
    let doc = path.to_str().unwrap();
    let check = |shed: &str, p99: &str, burns: &str| {
        inspect(&["check", doc, "--max-shed-rate", shed, "--max-p99-us", p99, "--max-burns", burns])
    };
    let pass = check("0.5", "1000", "2");
    assert_eq!(pass.status.code(), Some(0));
    assert_eq!(
        stdout(&pass),
        "shed rate: 0.1250 (gate: <= 0.5000)\n\
         client p99: 900 us (gate: <= 1000 us)\n\
         burned SLO windows: 2 (gate: <= 2)\n\
         slo-check: pass\n"
    );
    for (out, breach) in [
        (check("0.1", "1000", "2"), "FAIL  shed rate above the ceiling"),
        (check("0.5", "899", "2"), "FAIL  client p99 above the ceiling"),
        (check("0.5", "1000", "1"), "FAIL  burned windows above the ceiling"),
    ] {
        assert_eq!(out.status.code(), Some(1), "{breach}");
        let text = stdout(&out);
        assert_eq!(text.matches("FAIL").count(), 1, "{text}");
        assert!(text.contains(breach) && text.ends_with("slo-check: 1 breach(es)\n"), "{text}");
    }
    // Only the named ceilings run: the burned windows alone pass.
    let burns = inspect(&["check", doc, "--max-burns", "2"]);
    assert_eq!(stdout(&burns), "burned SLO windows: 2 (gate: <= 2)\nslo-check: pass\n");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_unknown_flag_is_a_usage_error_everywhere() {
    let run = |bin: &str, args: &[&str]| {
        let out = Command::new(bin).args(args).output().expect("run binary");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        out.status.code()
    };
    let (repro, inspect) = (env!("CARGO_BIN_EXE_repro"), env!("CARGO_BIN_EXE_inspect"));
    assert_eq!(run(repro, &["--no-such-flag"]), Some(2));
    assert_eq!(run(repro, &["worker", "--no-such-flag"]), Some(2));
    assert_eq!(run(repro, &["serve-bench", "--trace-requests", "4"]), Some(2));
    assert_eq!(run(inspect, &["--no-such-flag"]), Some(2));
    assert_eq!(run(inspect, &["check", "doc.json", "--no-such-flag"]), Some(2));
    assert_eq!(run(inspect, &["mkstore", "dir", "--scale", "huge"]), Some(2));
}
