//! Self time from nested spans, and what a disabled tracer costs: nothing.

use ipactive_benchmark::trace::{child_cover, self_times, Span, Tracer};
use std::time::{Duration, Instant};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name: name.into(),
        start_ns,
        end_ns,
        parent,
        op: 1,
    }
}

#[test]
fn self_time_is_duration_minus_what_the_children_cover() {
    let spans = [
        span("op", 0, 1000, None),
        span("decode", 100, 400, Some(0)),
        span("fold", 400, 700, Some(0)),
        span("inner", 450, 500, Some(2)),
    ];
    assert_eq!(self_times(&spans), vec![400, 300, 250, 50]);
    assert!((child_cover(&spans, "op") - 0.6).abs() < 1e-12);
}

#[test]
fn children_that_overlap_are_covered_once_and_clipped_to_the_parent() {
    let spans = [
        span("setup", 100, 1100, None),
        // Two emitters side by side on two threads...
        span("emit_daily", 100, 600, Some(0)),
        span("emit_weekly", 200, 900, Some(0)),
        // ...and one interval that was still running when the parent ended.
        span("late", 1000, 1500, Some(0)),
    ];
    // Covered: 100..900 and 1000..1100.
    assert_eq!(self_times(&spans)[0], 1000 - 800 - 100);
}

#[test]
fn a_tracer_nests_spans_numbers_ops_and_adopts_foreign_intervals() {
    let mut t = Tracer::new(true);
    t.span("setup", |t| t.span("generate", |_| ()));
    for _ in 0..2 {
        t.op("op", |t| {
            let t0 = Instant::now();
            t.add("elsewhere", t0, t0 + Duration::from_nanos(5));
            t.span("layer", |_| ());
        });
    }
    let names: Vec<&str> = t.spans().iter().map(|s| &*s.name).collect();
    assert_eq!(
        names,
        [
            "setup",
            "generate",
            "op",
            "elsewhere",
            "layer",
            "op",
            "elsewhere",
            "layer"
        ]
    );
    let ops: Vec<u32> = t.spans().iter().map(|s| s.op).collect();
    assert_eq!(
        ops,
        [0, 0, 1, 1, 1, 2, 2, 2],
        "spans of one op share its id"
    );
    let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
    assert_eq!(
        parents,
        [
            None,
            Some(0),
            None,
            Some(2),
            Some(2),
            None,
            Some(5),
            Some(5)
        ]
    );
    assert_eq!(t.durations_ms("layer").len(), 2);
    assert!(t.median_ms("nothing").is_none());
    let doc = t.to_json("w");
    assert!(doc.contains("\"self_ns\"") && doc.contains("\"workload\": \"w\""));
}

#[test]
fn a_disabled_or_paused_tracer_runs_the_work_and_keeps_nothing() {
    let mut t = Tracer::new(false);
    assert_eq!(t.op("op", |t| t.span("layer", |_| 7)), 7);
    t.set("count", 1.0);
    assert!(t.spans().is_empty() && t.value("count").is_none());

    let mut t = Tracer::new(true);
    t.set_recording(false);
    t.span("unrecorded", |_| ());
    t.set_recording(true);
    t.span("recorded", |_| ());
    assert_eq!(t.spans().len(), 1);
}
