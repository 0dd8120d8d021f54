//! Every workload end to end at the smallest universe: the checks pass,
//! the counts repeat exactly, and a damaged log is caught.

use ipactive_benchmark::metrics::{END_TO_END, PER_LAYER};
use ipactive_benchmark::trace::Tracer;
use ipactive_benchmark::workloads::collect_replay::CollectReplay;
use ipactive_benchmark::workloads::{run, Params, RunResult, WORKLOADS};
use ipactive_cdnsim::{Universe, UniverseConfig};

fn tiny(trace: bool) -> Params {
    Params {
        universe: UniverseConfig::tiny(2015),
        seed: 9,
        seconds: 3600.0,
        trace,
        max_batches: Some(2),
        out_dir: env!("CARGO_TARGET_TMPDIR").into(),
    }
}

/// The paper-shape checks want a bigger universe than the smallest
/// preset (fig9b/fig9c fail there at the parent commit too); everything
/// else must hold at any scale.
fn real_failures(r: &RunResult) -> Vec<&String> {
    r.failures
        .iter()
        .filter(|f| !f.contains("shape check"))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    for name in WORKLOADS {
        let r = run(name, &tiny(false)).expect("known workload");
        assert!(real_failures(&r).is_empty(), "{name}: {:?}", r.failures);
        assert!(r.attempted >= 2, "{name} attempted {}", r.attempted);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        for (metric, value, _) in &r.metrics {
            assert!(*value > 0.0, "{name}/{metric} is {value}");
        }
        assert!(r.trace_json.is_none());
    }
    assert!(run("no_such_workload", &tiny(false)).is_none());
}

#[test]
fn the_traced_run_names_every_per_layer_metric_and_its_counts_repeat_exactly() {
    for name in WORKLOADS {
        let (a, b) = (
            run(name, &tiny(true)).unwrap(),
            run(name, &tiny(true)).unwrap(),
        );
        assert!(real_failures(&a).is_empty(), "{name}: {:?}", a.failures);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        let counts = |r: &RunResult| -> Vec<(&'static str, f64)> {
            r.metrics
                .iter()
                .filter(|m| m.2 == "count")
                .map(|m| (m.0, m.1))
                .collect()
        };
        assert_eq!(
            counts(&a),
            counts(&b),
            "{name}: a count differs between two runs"
        );
        assert!(
            counts(&a).iter().any(|c| c.1 > 0.0),
            "{name} counted nothing"
        );
        assert!(a
            .trace_json
            .as_deref()
            .is_some_and(|doc| doc.contains("\"spans\": [")));
    }
}

/// The smallest universe has 28 days: 24 ingested in bulk, 4 ops a cycle.
#[test]
fn serve_ingest_starts_over_when_the_days_run_out_and_still_checks_out() {
    let mut p = tiny(true);
    p.max_batches = Some(6);
    let r = run("serve_ingest", &p).expect("known workload");
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    assert_eq!((r.attempted, r.failed), (6, 0));
    let value = |name: &str| r.metrics.iter().find(|m| m.0 == name).expect(name).1;
    // The second server has seen the bulk and two more days.
    assert_eq!(value("serve.observatory.epochs"), 3.0);
    // Ops 1-4 first touch 25..=28 windows, ops 5 and 6 again 25 and 26.
    assert_eq!(
        value("serve.observatory.first_touch_windows"),
        f64::from(25 + 26 + 27 + 28 + 25 + 26)
    );
}

#[test]
fn one_flipped_byte_in_the_daily_log_fails_the_collect_replay_check() {
    let universe = Universe::generate(UniverseConfig::tiny(2015));
    let (want_daily, want_weekly) = (universe.build_daily(), universe.build_weekly());
    let mut t = Tracer::new(false);
    let mut state = CollectReplay::emit(universe, env!("CARGO_TARGET_TMPDIR").as_ref(), &mut t);

    let (daily, weekly, records, damage) = state.collect(&mut t);
    assert!(damage.is_none() && records > 0);
    assert!(
        daily == want_daily && weekly == want_weekly,
        "a clean log collects exactly"
    );

    let middle = state.daily[0].len() / 2;
    state.daily[0][middle] ^= 0x40;
    let (_, _, fewer, damage) = state.collect(&mut t);
    assert!(
        damage.is_some(),
        "the decoder must report the frame it skipped"
    );
    assert!(
        fewer < records,
        "and must not have decoded the damaged frame"
    );
}
