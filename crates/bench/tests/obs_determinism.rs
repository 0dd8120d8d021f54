//! Differential tests for the observability plane's determinism
//! contract: a [`SnapshotMode::Deterministic`] snapshot is a pure
//! function of (input data, seeds, topology). It must not change
//! run-to-run, must not depend on how many worker threads regenerate
//! the figure suite, and under fault injection the journal must carry
//! exactly the retries and quarantines the supervised report accounts
//! for.

use ipactive_bench::{Repro, Scale};
use ipactive_obs::{EventKind, SnapshotMode};

fn det_json(repro: &Repro) -> String {
    repro.registry().snapshot(SnapshotMode::Deterministic).to_json()
}

/// `--jobs 1` vs `--jobs 4`: the full figure suite regenerated across
/// different thread counts (and, per cell, a fresh session each time)
/// must produce byte-identical deterministic snapshots — counters,
/// gauges, journal, all of it. This is what makes the snapshot
/// golden-testable in CI.
#[test]
fn deterministic_snapshot_is_byte_identical_across_job_counts() {
    for collectors in [1usize, 4] {
        let mut snaps = Vec::new();
        for jobs in [1usize, 4] {
            let (repro, _) = Repro::new_via_pipeline(11, Scale::Tiny, 2, collectors);
            repro.run_all(jobs);
            snaps.push(det_json(&repro));
        }
        assert_eq!(
            snaps[0], snaps[1],
            "collectors={collectors}: deterministic snapshot depends on the job count"
        );
    }
}

/// Different collector topologies lay the same records out over
/// different shard counters, so the documents differ — but the
/// aggregate totals must be invariant: the records written and the
/// sum over per-shard record counters do not depend on the topology.
#[test]
fn aggregate_counters_are_invariant_across_collector_topologies() {
    let snapshots: Vec<_> = [1usize, 4]
        .iter()
        .map(|&collectors| {
            let (repro, _) = Repro::new_via_pipeline(11, Scale::Tiny, 2, collectors);
            repro.registry().snapshot(SnapshotMode::Deterministic)
        })
        .collect();
    for key in ["pipeline.daily.records_written", "pipeline.weekly.records_written"] {
        assert_eq!(
            snapshots[0].counter(key),
            snapshots[1].counter(key),
            "{key} changed with the collector count"
        );
        assert!(snapshots[0].counter(key) > 0, "{key} was never incremented");
    }
    // Per-shard record counters sum to the same grand total.
    let shard_records = |snap: &ipactive_obs::Snapshot, prefix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(".records"))
            .map(|(_, v)| *v)
            .sum()
    };
    for prefix in ["pipeline.daily.shard.", "pipeline.weekly.shard."] {
        assert_eq!(
            shard_records(&snapshots[0], prefix),
            shard_records(&snapshots[1], prefix),
            "per-shard {prefix}*.records totals changed with the collector count"
        );
    }
}

/// The per-figure traces minted by `run_all` are structural — names
/// and config-derived details only, never timings — so the full trace
/// document must be byte-identical across `--jobs 1` and `--jobs 4`
/// and across independent reruns, and every figure must appear as its
/// own trace with a `figure` root span.
#[test]
fn figure_traces_are_byte_identical_across_job_counts_and_reruns() {
    let mut docs = Vec::new();
    for jobs in [1usize, 4, 1] {
        let repro = Repro::new(11, Scale::Tiny);
        repro.run_all(jobs);
        docs.push(repro.registry().traces_json());
    }
    assert_eq!(docs[0], docs[1], "figure traces depend on the job count");
    assert_eq!(docs[0], docs[2], "figure traces differ between reruns");
    let trace_count = docs[0].matches("\"trace_id\"").count();
    assert_eq!(
        trace_count,
        ipactive_bench::EXPERIMENTS.len(),
        "expected one trace per figure"
    );
    assert_eq!(
        docs[0].matches("\"name\": \"figure\"").count(),
        ipactive_bench::EXPERIMENTS.len(),
        "every figure trace roots at a `figure` span"
    );
    for name in ipactive_bench::EXPERIMENTS {
        assert!(
            docs[0].contains(&format!("\"detail\": \"{name}\"")),
            "figure {name} has no root span"
        );
    }
}

/// The supervised collector's per-shard traces are a pure function of
/// (seed, topology, fault plan): pinned inputs reproduce the trace
/// document byte for byte, and every injected fault surfaces in some
/// buffer span's detail.
#[test]
fn supervised_traces_reproduce_byte_for_byte_under_a_pinned_fault_plan() {
    let run = || {
        let (repro, summary) =
            Repro::new_supervised(2015, Scale::Tiny, 2, 2, 3).expect("supervised run");
        (repro.registry().traces_json(), summary)
    };
    let (first, summary) = run();
    let (second, _) = run();
    assert_eq!(first, second, "supervised traces differ between pinned reruns");
    assert!(
        first.contains("\"name\": \"collect.shard\""),
        "per-shard collection trace missing"
    );
    assert!(
        first.contains("\"name\": \"collect.buffer\""),
        "per-buffer child spans missing"
    );
    // Ground truth from the outcomes (the plan may schedule faults
    // that shadow each other or miss the real buffer grid): every
    // fault that actually struck a buffer surfaces in that buffer
    // span's detail.
    let mut struck = 0;
    for outcome in summary.daily.outcomes.iter().chain(&summary.weekly.outcomes) {
        for b in &outcome.buffers {
            if let Some(kind) = b.fault {
                struck += 1;
                let kind = format!("{kind:?}").to_lowercase();
                assert!(
                    first.contains(&format!("buffer {} bytes", b.buffer))
                        && first.contains(&format!("fault {kind}")),
                    "injected {kind} fault on buffer {} absent from the span details",
                    b.buffer
                );
            }
        }
    }
    assert!(struck > 0, "the pinned plan injected no faults at all");
}

/// Repeating a supervised run with the same pinned [`FaultPlan`]
/// inputs reproduces the snapshot byte for byte, and the journal's
/// retry/quarantine event counts equal the report's accounting — the
/// journal is a view over the same run, not a second source of truth.
#[test]
fn pinned_fault_plan_reproduces_snapshot_and_event_counts() {
    let run = || Repro::new_supervised(2015, Scale::Tiny, 2, 2, 3).expect("supervised run");
    let (first, summary) = run();
    let (second, _) = run();
    assert_eq!(
        det_json(&first),
        det_json(&second),
        "same seed + same fault plan must reproduce the snapshot byte for byte"
    );

    let snap = first.registry().snapshot(SnapshotMode::Deterministic);
    let retries_reported = summary.daily.retries() + summary.weekly.retries();
    assert_eq!(
        snap.counter("supervisor.daily.retries") + snap.counter("supervisor.weekly.retries"),
        retries_reported,
        "retry counters disagree with the supervised reports"
    );
    assert_eq!(
        snap.events_of(EventKind::Retry).count() as u64,
        retries_reported,
        "retry journal events disagree with the supervised reports"
    );
    let quarantined_reported = (summary.daily.quarantine.len() + summary.weekly.quarantine.len()) as u64;
    assert_eq!(
        snap.counter("supervisor.daily.quarantined_frames")
            + snap.counter("supervisor.weekly.quarantined_frames"),
        quarantined_reported,
        "quarantine counters disagree with the supervised reports"
    );
    assert_eq!(
        snap.events_of(EventKind::Quarantine).count() as u64,
        quarantined_reported,
        "quarantine journal events disagree with the supervised reports"
    );
}
