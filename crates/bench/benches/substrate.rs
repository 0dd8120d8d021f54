//! Benchmarks of the data substrate: universe generation, dataset
//! builds, probing campaigns, and the framed log pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use ipactive_cdnsim::{
    collect_daily_sharded, collect_stream, emit_logs, emit_shards, stream_pipeline, Daily,
    Universe, UniverseConfig,
};
use ipactive_probe::{IcmpScanner, PortScanner};
use std::hint::black_box;
use std::sync::OnceLock;

fn universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(|| Universe::generate(UniverseConfig::tiny(0x5AB5)))
}

fn bench_generate(c: &mut Criterion) {
    c.bench_function("universe_generate_tiny", |b| {
        b.iter(|| black_box(Universe::generate(UniverseConfig::tiny(0x77))))
    });
}

fn bench_builds(c: &mut Criterion) {
    let u = universe();
    c.bench_function("build_daily_tiny", |b| b.iter(|| black_box(u.build_daily())));
    c.bench_function("build_weekly_tiny", |b| b.iter(|| black_box(u.build_weekly())));
    // Both in one sweep: the year simulated once, not 112 + 364 days.
    c.bench_function("build_datasets_tiny", |b| b.iter(|| black_box(u.build_datasets())));
}

fn bench_probing(c: &mut Criterion) {
    let u = universe();
    c.bench_function("icmp_single_scan", |b| {
        b.iter(|| black_box(IcmpScanner::new(1).scan(u, 0)))
    });
    c.bench_function("port_scan_any", |b| {
        b.iter(|| black_box(PortScanner::new().scan_any(u)))
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let u = universe();
    let mut encoded = Vec::new();
    emit_logs::<Daily>(u, &mut encoded).unwrap();
    c.bench_function("logfmt_emit_daily", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            emit_logs::<Daily>(u, &mut buf).unwrap();
            black_box(buf.len())
        })
    });
    c.bench_function("logfmt_collect_daily", |b| {
        let days = u.config().daily_days;
        b.iter(|| black_box(collect_stream::<Daily>(&encoded[..], days).unwrap().1))
    });
}

/// The multi-collector scaling story: the same end-to-end pipeline at
/// one collector vs several, plus the isolated collector stage over
/// pre-encoded shards (where the scaling is purest — no generation
/// cost in the loop). On a ≥4-core machine `c4` beats `c1`.
fn bench_sharded_pipeline(c: &mut Criterion) {
    let u = universe();
    let mut group = c.benchmark_group("sharded_pipeline");
    for (workers, collectors) in [(1usize, 1usize), (4, 1), (4, 2), (4, 4)] {
        group.bench_function(format!("end_to_end_w{workers}_c{collectors}"), |b| {
            b.iter(|| {
                let registry = ipactive_obs::Registry::new();
                black_box(stream_pipeline::<Daily>(u, workers, collectors, &registry).1.totals)
            })
        });
    }
    for collectors in [1usize, 2, 4] {
        let shards = emit_shards::<Daily>(u, collectors).unwrap();
        group.bench_function(format!("collect_stage_c{collectors}"), |b| {
            b.iter(|| black_box(collect_daily_sharded(&shards, u.config().daily_days).1.totals))
        });
    }
    group.finish();
}

/// The log store's real-filesystem fast path. `LogStore` is generic
/// over its I/O plane; this group pins the cost of a store round-trip
/// on `RealFs` so a regression from the `Fs` indirection (which should
/// be zero-cost — the generic is monomorphized, the trait has no
/// dynamic dispatch) shows up as a diff against pre-refactor numbers.
fn bench_store(c: &mut Criterion) {
    use ipactive_cdnsim::{collect_store, persist_daily_atomic};
    use ipactive_logfmt::LogStore;

    let u = universe();
    let num_days = u.config().daily_days;
    let dir = std::env::temp_dir().join(format!("ipactive-bench-store-{}", std::process::id()));
    let mut group = c.benchmark_group("log_store");
    group.bench_function("persist_daily_atomic_realfs", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = LogStore::open(&dir).unwrap();
            black_box(persist_daily_atomic(u, &mut store).unwrap())
        })
    });
    {
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = LogStore::open(&dir).unwrap();
        persist_daily_atomic(u, &mut store).unwrap();
        group.bench_function("collect_from_store_realfs", |b| {
            b.iter(|| black_box(collect_store::<Daily>(&store, num_days).unwrap().1))
        });
        group.bench_function("fsck_dry_run_realfs", |b| {
            b.iter(|| {
                let report =
                    ipactive_logfmt::fsck(store.fs(), store.dir(), false).unwrap();
                black_box(report.is_healthy())
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_generate,
    bench_builds,
    bench_probing,
    bench_pipeline,
    bench_sharded_pipeline,
    bench_store
);
criterion_main!(benches);
