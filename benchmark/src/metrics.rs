//! The metric lists: what `BENCHMARK.json` names is what a run prints,
//! no more and no less (`tests/contract.rs` holds the two together).

/// Name and unit of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// a change may make the metric worse, as in `BENCHMARK.json`.
    pub bound: Option<f64>,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: None,
    }
}

const fn bounded(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: Some(bound),
    }
}

/// What a user of the system sees; every workload reports all four from
/// its untraced run.
///
/// The two timings are the best of their samples, not the median. The
/// host the bounds were set on is shared, and its neighbours slow a run
/// by up to a quarter for seconds to minutes at a time. Over twelve
/// 20-second runs of one binary in such a half hour the median op time
/// spread 12–19 % (quartile distance over median) and drifted up to 18 %
/// between the first six runs and the last six; the fastest op spread
/// 4–7 % (11 % on `serve_hot`) and drifted under 5 %. The fastest op is
/// what the program costs when nothing is in its way, which is the part a
/// change to the program can move. The traced run reports the median
/// beside it (`run.op_p50_ms`), without a bound.
///
/// The bounds are three times the widest spread `--calibrate` has shown
/// for the metric on any workload, no higher than the 0.25 a bound may
/// be: both timings sit at that cap (`collect_replay` spread 19 % in one
/// set of ten). `setup_s` is one sample a run and gets the cap outright.
pub const END_TO_END: [MetricDef; 4] = [
    // Universe, inputs, warm-up: process start to first timed op.
    bounded("setup_s", "s", 0.25),
    // Work units per second of the fastest batch of the timed section (a
    // batch is one op, or 16,384 requests of serve_hot).
    bounded("work_per_s", "1/s", 0.25),
    // Duration of the fastest op (of serve_hot: the lowest median round
    // trip of a batch).
    bounded("op_min_ms", "ms", 0.25),
    // VmHWM when the timed section ends.
    bounded("peak_rss_mb", "MB", 0.20),
];

macro_rules! figure {
    ($exp:literal) => {
        m(concat!("bench.figure.", $exp, "_ms"), "ms")
    };
}

/// Single-layer metrics of the traced run, layer = module. A `_ms` row
/// is the median duration of the spans called the same without `_ms`;
/// every other row is a value the workload set at that boundary. A
/// workload reports 0 for the layers it does not exercise.
pub const PER_LAYER: [MetricDef; 107] = [
    // dataset_build
    m("cdnsim.universe.generate_ms", "ms"),
    m("cdnsim.universe.build_daily_ms", "ms"),
    m("cdnsim.universe.build_weekly_ms", "ms"),
    m("cdnsim.universe.blocks", "count"),
    m("core.dataset.daily_addr_days", "count"),
    m("core.dataset.weekly_addr_weeks", "count"),
    // collect_replay
    m("cdnsim.pipeline.emit_daily_ms", "ms"),
    m("cdnsim.pipeline.emit_weekly_ms", "ms"),
    m("logfmt.frame.daily_bytes", "bytes"),
    m("logfmt.frame.daily_records", "count"),
    m("logfmt.frame.weekly_bytes", "bytes"),
    m("logfmt.frame.weekly_records", "count"),
    m("logfmt.frame.encode_daily_ms", "ms"),
    m("logfmt.frame.decode_daily_ms", "ms"),
    m("logfmt.frame.decode_weekly_ms", "ms"),
    m("logfmt.frame.skipped", "count"),
    m("logfmt.frame.resyncs", "count"),
    m("core.dataset.daily_fold_ms", "ms"),
    m("core.dataset.daily_finish_ms", "ms"),
    m("core.dataset.daily_merge_ms", "ms"),
    m("core.dataset.weekly_fold_ms", "ms"),
    m("core.dataset.weekly_finish_ms", "ms"),
    m("cdnsim.pipeline.collect_daily_ms", "ms"),
    m("cdnsim.pipeline.collect_daily_sharded_ms", "ms"),
    m("cdnsim.pipeline.collect_weekly_sharded_ms", "ms"),
    m("cdnsim.pipeline.parallel_pipeline_ms", "ms"),
    m("cdnsim.supervisor.collect_daily_ms", "ms"),
    m("logfmt.store.commit_ms", "ms"),
    m("logfmt.store.replay_ms", "ms"),
    m("logfmt.store.fsck_ms", "ms"),
    m("logfmt.store.disk_bytes", "bytes"),
    // figures_cold
    m("core.engine.prewarm_units_ms", "ms"),
    m("core.engine.all_active_ms", "ms"),
    m("core.engine.window_sweep_cold_ms", "ms"),
    m("core.engine.window_sweep_warm_ms", "ms"),
    m("core.engine.cache_hits", "count"),
    m("core.engine.cache_misses", "count"),
    figure!("fig1"),
    figure!("table1"),
    figure!("fig2a"),
    figure!("fig2b"),
    figure!("fig3a"),
    figure!("fig3b"),
    figure!("fig4a"),
    figure!("fig4b"),
    figure!("fig4c"),
    figure!("fig5a"),
    figure!("fig5b"),
    figure!("fig5c"),
    figure!("table2"),
    figure!("fig6"),
    figure!("fig7"),
    figure!("fig8a"),
    figure!("fig8b"),
    figure!("fig8c"),
    figure!("fig9a"),
    figure!("fig9b"),
    figure!("fig9c"),
    figure!("fig10"),
    figure!("fig11"),
    figure!("fig12"),
    m("bench.suite_warm_ms", "ms"),
    m("bench.suite_cold_jobs2_ms", "ms"),
    m("bench.suite_uncached_ms", "ms"),
    m("bench.prewarm_probes_ms", "ms"),
    m("net.tiered.build_ms", "ms"),
    m("net.tiered.memory_mb", "MB"),
    m("net.tiered.union_many_ms", "ms"),
    m("net.tiered.pair_union_ms", "ms"),
    m("net.tiered.pair_intersect_len_ms", "ms"),
    m("net.tiered.pair_difference_ms", "ms"),
    m("net.tiered.diff_event_masks_ms", "ms"),
    m("net.tiered.count_in_ms", "ms"),
    m("net.refset.build_ms", "ms"),
    m("net.refset.memory_mb", "MB"),
    m("net.refset.union_many_ms", "ms"),
    m("net.refset.pair_union_ms", "ms"),
    m("net.refset.pair_intersect_len_ms", "ms"),
    m("net.refset.pair_difference_ms", "ms"),
    m("net.refset.diff_event_masks_ms", "ms"),
    m("net.refset.count_in_ms", "ms"),
    // serve_hot
    m("serve.wire.request_codec_ns", "ns"),
    m("serve.wire.response_codec_ns", "ns"),
    m("serve.server.window_hit_per_s", "1/s"),
    m("serve.server.prefix_count_per_s", "1/s"),
    m("serve.server.status_per_s", "1/s"),
    m("serve.client.op_p99_ms", "ms"),
    m("core.engine.window_hit_ns", "ns"),
    m("serve.observatory.warm_all_windows_ms", "ms"),
    m("serve.server.executed", "count"),
    m("serve.server.shed", "count"),
    m("serve.server.degraded", "count"),
    m("serve.server.deadline_exceeded", "count"),
    m("obs.snapshot_ms", "ms"),
    m("obs.snapshot_bytes", "bytes"),
    // serve_ingest
    m("serve.observatory.bulk_ingest_ms", "ms"),
    m("serve.observatory.ingest_day_ms", "ms"),
    m("serve.observatory.first_touch_sweep_ms", "ms"),
    m("serve.observatory.first_touch_windows", "count"),
    m("serve.observatory.warm_panel_ms", "ms"),
    m("serve.observatory.epochs", "count"),
    m("core.dataset.replay_daily_ms", "ms"),
    m("core.dataset.replay_weekly_ms", "ms"),
    m("core.engine.extended_from_ms", "ms"),
    // every workload
    m("run.op_p50_ms", "ms"),
    m("trace.overhead_pct", "%"),
    m("trace.child_cover_pct", "%"),
];
