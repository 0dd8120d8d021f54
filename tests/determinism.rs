//! Reproducibility guarantees: identical seeds yield byte-identical
//! datasets and reports; different seeds yield different worlds.

use ipactive::cdnsim::{
    collect_daily_sharded, collect_stream, emit_logs, emit_shard_buffers, emit_shards,
    stream_pipeline, Cadence, Daily, PipelineReport, Universe, UniverseConfig, Weekly,
};
use ipactive::core::churn;
use ipactive::obs::Registry;

/// The streaming pipeline at cadence `C`, metered into a registry of
/// its own (reports read cumulative counters, so one per run).
fn pipeline<C: Cadence>(
    u: &Universe,
    workers: usize,
    collectors: usize,
) -> (C::Dataset, PipelineReport) {
    stream_pipeline::<C>(u, workers, collectors, &Registry::new())
}

#[test]
fn same_seed_same_world() {
    let a = Universe::generate(UniverseConfig::tiny(77));
    let b = Universe::generate(UniverseConfig::tiny(77));
    let da = a.build_daily();
    let db = b.build_daily();
    assert_eq!(da.blocks.len(), db.blocks.len());
    for (x, y) in da.blocks.iter().zip(db.blocks.iter()) {
        assert_eq!(x.block, y.block);
        assert_eq!(x.rows, y.rows);
        assert_eq!(x.total_hits, y.total_hits);
        assert_eq!(x.ua_samples, y.ua_samples);
        assert_eq!(x.ua_unique, y.ua_unique);
        assert_eq!(x.ip_traffic, y.ip_traffic);
    }
    let wa = a.build_weekly();
    let wb = b.build_weekly();
    assert_eq!(wa.blocks, wb.blocks);
    assert_eq!(wa.week_hits, wb.week_hits);
}

#[test]
fn different_seed_different_world() {
    let a = Universe::generate(UniverseConfig::tiny(1));
    let b = Universe::generate(UniverseConfig::tiny(2));
    let da = a.build_daily();
    let db = b.build_daily();
    let fingerprint = |d: &ipactive::core::DailyDataset| {
        (
            d.blocks.len(),
            d.total_active(),
            d.blocks.iter().map(|b| b.total_hits).sum::<u64>(),
        )
    };
    assert_ne!(fingerprint(&da), fingerprint(&db));
}

#[test]
fn wire_pipeline_is_bit_stable() {
    let u = Universe::generate(UniverseConfig::tiny(5));
    let mut buf1 = Vec::new();
    let mut buf2 = Vec::new();
    emit_logs::<Daily>(&u, &mut buf1).unwrap();
    emit_logs::<Daily>(&u, &mut buf2).unwrap();
    assert_eq!(buf1, buf2, "serialized log streams must be byte-identical");
}

#[test]
fn pipeline_and_direct_build_agree_regardless_of_workers() {
    let u = Universe::generate(UniverseConfig::tiny(6));
    let direct = u.build_daily();
    for workers in [1usize, 2, 5] {
        let (ds, _) = pipeline::<Daily>(&u, workers, 2);
        assert_eq!(ds, direct, "workers={workers}");
    }
}

/// The merged dataset must not depend on how many threads ran on
/// either side of the wire: every (workers, collectors) point yields
/// the *identical* value.
fn topology_invariant<C: Cadence>(grid: &[(usize, usize)])
where
    C::Dataset: PartialEq + std::fmt::Debug,
{
    let u = Universe::generate(UniverseConfig::tiny(6));
    let (reference, _) = pipeline::<C>(&u, 1, 1);
    for &(workers, collectors) in grid {
        let (ds, report) = pipeline::<C>(&u, workers, collectors);
        assert_eq!(ds, reference, "workers={workers} collectors={collectors}");
        assert_eq!(report.collectors(), collectors);
        assert_eq!(report.totals.records_written, report.totals.records_read);
    }
}

#[test]
fn sharded_pipeline_is_topology_invariant() {
    topology_invariant::<Daily>(&[(1, 3), (2, 2), (3, 1), (5, 4)]);
    topology_invariant::<Weekly>(&[(2, 3), (4, 2)]);
}

#[test]
fn sharded_merge_is_order_insensitive() {
    // Feeding the same shard buffers to the collector in any order —
    // forward, reversed, rotated — merges to the identical dataset.
    let u = Universe::generate(UniverseConfig::tiny(6));
    let days = u.config().daily_days;
    let shards = emit_shards::<Daily>(&u, 4).unwrap();
    let (forward, _) = collect_daily_sharded(&shards, days);

    let mut reversed = shards.clone();
    reversed.reverse();
    let (rev, _) = collect_daily_sharded(&reversed, days);
    assert_eq!(rev, forward);

    let mut rotated = shards.clone();
    rotated.rotate_left(2);
    let (rot, _) = collect_daily_sharded(&rotated, days);
    assert_eq!(rot, forward);
}

#[test]
fn same_seed_same_pipeline_report_counters() {
    // Reruns reproduce not just the dataset but the deterministic
    // counters of the report (times naturally differ).
    let u = Universe::generate(UniverseConfig::tiny(13));
    let (d1, r1) = pipeline::<Daily>(&u, 3, 2);
    let (d2, r2) = pipeline::<Daily>(&u, 3, 2);
    assert_eq!(d1, d2);
    assert_eq!(r1.totals, r2.totals);
    for (a, b) in r1.per_collector.iter().zip(r2.per_collector.iter()) {
        assert_eq!(a.records_read, b.records_read);
        assert_eq!(a.frames_skipped, b.frames_skipped);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.buffers, b.buffers);
    }
}

#[test]
fn analyses_are_stable_across_reruns() {
    let u = Universe::generate(UniverseConfig::tiny(9));
    let d1 = u.build_daily();
    let d2 = u.build_daily();
    let s1 = churn::daily_series(&d1);
    let s2 = churn::daily_series(&d2);
    assert_eq!(s1, s2);
}

#[test]
fn collect_from_serialized_stream_matches_direct() {
    let u = Universe::generate(UniverseConfig::tiny(8));
    let direct = u.build_daily();
    let mut buf = Vec::new();
    emit_logs::<Daily>(&u, &mut buf).unwrap();
    let (collected, stats) = collect_stream::<Daily>(&buf[..], u.config().daily_days).unwrap();
    assert_eq!(stats.frames_skipped, 0);
    assert_eq!(collected.total_active(), direct.total_active());
    assert_eq!(collected.blocks.len(), direct.blocks.len());
}

/// CRC-32 of the bytes `emit_logs` writes at the daily and the weekly
/// cadence: every value the substrate produces (which addresses, how
/// many hits, which UA hashes, in which order) ends up in them.
fn log_crcs(config: UniverseConfig) -> (u32, u32) {
    let u = Universe::generate(config);
    let mut daily = Vec::new();
    emit_logs::<Daily>(&u, &mut daily).unwrap();
    let mut weekly = Vec::new();
    emit_logs::<Weekly>(&u, &mut weekly).unwrap();
    (ipactive::logfmt::crc32(&daily), ipactive::logfmt::crc32(&weekly))
}

/// The universe's *values* are pinned, not only its reproducibility:
/// a change to the simulator that moves one bit of one record fails
/// here. The constants were captured at commit f65bcc6, before the
/// substrate sweep touched the kernel; a change that means to alter
/// the universe re-records them and says so.
#[test]
fn emitted_logs_match_the_pinned_universe() {
    assert_eq!(log_crcs(UniverseConfig::tiny(5)), (0x5296_9847, 0x9900_A178));
    assert_eq!(log_crcs(UniverseConfig::tiny(2015)), (0x835B_03D7, 0x6EA8_36E9));
}

/// CRC-32 of every buffer `emit_shard_buffers` writes for 3 worker
/// slices × 2 collectors, shard-major and in slice order, at the daily
/// and the weekly cadence. The slices are serialized in parallel; a
/// buffer placed at the wrong slice index moves these.
fn shard_buffer_crcs(config: UniverseConfig) -> (u32, u32) {
    let u = Universe::generate(config);
    let crc = |buffers: Vec<Vec<Vec<u8>>>| ipactive::logfmt::crc32(&buffers.concat().concat());
    (
        crc(emit_shard_buffers::<Daily>(&u, 3, 2).unwrap()),
        crc(emit_shard_buffers::<Weekly>(&u, 3, 2).unwrap()),
    )
}

/// Captured from the serial slice loop, before the slices ran on
/// threads of their own.
#[test]
fn emitted_shard_buffers_match_the_serial_emitter() {
    assert_eq!(shard_buffer_crcs(UniverseConfig::tiny(5)), (0xD650_4191, 0xC10C_4ADE));
    assert_eq!(shard_buffer_crcs(UniverseConfig::tiny(2015)), (0xC4E0_3DE0, 0x2355_36A1));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "small scale: run with --release (CI pipeline-differential)")]
fn emitted_logs_match_the_pinned_universe_at_small_scale() {
    assert_eq!(log_crcs(UniverseConfig::small(5)), (0x3E05_C062, 0xBDE8_1BE2));
    assert_eq!(log_crcs(UniverseConfig::small(2015)), (0x2829_93E3, 0xFC2B_0C2C));
}
