//! Wire pipeline with fault injection: serialize a universe's logs
//! through the framed binary format, damage the stream the way flaky
//! transport would, and show the collector surviving it — the
//! smoltcp-style robustness demonstration for the log path.
//!
//! ```sh
//! cargo run --release --example wire_pipeline
//! ```

use ipactive::cdnsim::{
    collect_stream, emit_daily_logs_packed, emit_logs, stream_pipeline, Daily, Universe,
    UniverseConfig,
};
use ipactive::obs::Registry;

fn main() {
    let universe = Universe::generate(UniverseConfig::small(99));
    let days = universe.config().daily_days;

    // Clean runs: flat vs packed framing.
    let mut flat = Vec::new();
    let flat_records = emit_logs::<Daily>(&universe, &mut flat).unwrap();
    let mut packed = Vec::new();
    let packed_records = emit_daily_logs_packed(&universe, &mut packed).unwrap();
    println!("== wire formats ==");
    println!(
        "flat   : {:>9} bytes, {:>8} records ({:.1} B/record)",
        flat.len(),
        flat_records,
        flat.len() as f64 / flat_records as f64
    );
    println!(
        "packed : {:>9} bytes, {:>8} records ({:.1}x smaller stream)",
        packed.len(),
        packed_records,
        flat.len() as f64 / packed.len() as f64
    );

    let (clean, stats) = collect_stream::<Daily>(&flat[..], days).unwrap();
    let total_hits = |ds: &ipactive::core::DailyDataset| -> u64 {
        ds.blocks.iter().map(|b| b.total_hits).sum()
    };
    let clean_hits = total_hits(&clean);
    println!(
        "\nclean collection: {} records -> {} active addrs, {} blocks, 0 skipped",
        stats.records_read,
        clean.total_active(),
        clean.blocks.len()
    );

    // Fault injection: flip bytes at regular intervals, as a corrupting
    // link would. CRC-protected frames must be dropped, never decoded
    // into wrong data.
    println!("\n== fault injection (one bit flip every N KiB) ==");
    println!(
        "{:>10} {:>9} {:>12} {:>11} {:>10}",
        "every", "skipped", "addrs kept", "addr loss", "hit loss"
    );
    for stride_kib in [256usize, 64, 16, 4] {
        let mut dirty = flat.clone();
        let mut injected = 0;
        let mut pos = stride_kib * 1024 / 2;
        while pos < dirty.len() {
            dirty[pos] ^= 0x20;
            injected += 1;
            pos += stride_kib * 1024;
        }
        match collect_stream::<Daily>(&dirty[..], days) {
            Ok((ds, stats)) => {
                let addr_loss = 1.0 - ds.total_active() as f64 / clean.total_active() as f64;
                let hit_loss = 1.0 - total_hits(&ds) as f64 / clean_hits as f64;
                println!(
                    "{:>7}KiB {:>9} {:>12} {:>10.2}% {:>9.3}%  ({} flips)",
                    stride_kib,
                    stats.frames_skipped,
                    ds.total_active(),
                    100.0 * addr_loss,
                    100.0 * hit_loss,
                    injected
                );
            }
            Err(e) => {
                println!(
                    "{:>7}KiB {:>9} {:>12} {:>11} {:>10}  ({} flips; stream abandoned: {e})",
                    stride_kib, "-", "-", "-", "-", injected
                );
            }
        }
    }
    println!("\nevery surviving record is guaranteed authentic (CRC-32 per frame);");
    println!("corruption can only ever drop data, not fabricate it.");

    // Sharded topology: same data path, fanned out. Every grid point
    // reproduces the clean dataset exactly (hash-partitioned blocks +
    // commutative builder merge), so only the throughput moves.
    println!("\n== sharded pipeline (workers x collectors) ==");
    println!("{:>8} {:>11} {:>12} {:>13}", "w x c", "records", "records/s", "identical?");
    for (workers, collectors) in [(1usize, 1usize), (4, 1), (4, 4)] {
        let (ds, report) =
            stream_pipeline::<Daily>(&universe, workers, collectors, &Registry::new());
        println!(
            "{:>4} x {:<3} {:>11} {:>12.0} {:>13}",
            workers,
            collectors,
            report.totals.records_read,
            report.records_per_sec(),
            if ds == clean { "yes" } else { "NO" },
        );
    }
}
