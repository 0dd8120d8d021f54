//! The shard-worker command line: the `repro` binary's hidden `worker`
//! mode, which the coordinator spawns as the worker process of every
//! grant.
//!
//! ```text
//! repro worker --root DIR --shard S --shards N --emitters E
//!              --epoch G --attempt A [--seed N] [--scale tiny|small|full]
//!              [--pause-at POINT] [--stall]
//!              [--trace-id HEX] [--parent-span SEQ]
//! ```
//!
//! `--pause-at` freezes the worker at a named injection point
//! ([`InjectionPoint`] spelling) after writing a pause marker — the
//! harness's cue to `kill -9` it there. With `--stall` the freeze is
//! silent (no marker): the coordinator must catch the wedge through
//! heartbeat stagnation. `--trace-id`/`--parent-span` continue the
//! coordinator's grant trace across the process boundary: the worker
//! records its spans after the handed-down parent sequence and
//! exports them to `shard-SSSS/trace-AA.json` for stitching. Exit
//! status: 0 when both stores committed; 1 on I/O failure; 2 on usage
//! errors.

use crate::Scale;
use ipactive_coord::{run_worker, InjectionPoint, PauseStyle, WorkerConfig, WorkerExit};
use ipactive_logfmt::RealFs;
use ipactive_obs::{Registry, TraceContext, TraceId};
use std::path::PathBuf;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro worker --root DIR --shard S --shards N --emitters E --epoch G --attempt A\n                    [--seed N] [--scale tiny|small|full] [--pause-at POINT] [--stall]\n                    [--trace-id HEX] [--parent-span SEQ]"
    );
    std::process::exit(2);
}

/// Parses worker argv and runs the grant to completion (or to its
/// scheduled pause). Never returns.
pub fn run(args: &[String]) -> ! {
    let mut seed: u64 = 2015;
    let mut scale = Scale::Tiny;
    let mut root: Option<PathBuf> = None;
    let mut shard: Option<u32> = None;
    let mut shards: Option<usize> = None;
    let mut emitters: Option<usize> = None;
    let mut epoch: Option<u64> = None;
    let mut attempt: Option<u32> = None;
    let mut pause_at: Option<InjectionPoint> = None;
    let mut stall = false;
    let mut trace_id = TraceId::NONE;
    let mut parent_span: u64 = 0;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage("missing value"));
        match arg.as_str() {
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage("--seed needs an integer")),
            "--scale" => {
                scale = match val().as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => usage("--scale needs tiny|small|full"),
                }
            }
            "--root" => root = Some(PathBuf::from(val())),
            "--shard" => shard = val().parse().ok(),
            "--shards" => shards = val().parse().ok(),
            "--emitters" => emitters = val().parse().ok(),
            "--epoch" => epoch = val().parse().ok(),
            "--attempt" => attempt = val().parse().ok(),
            "--pause-at" => {
                let v = val();
                pause_at = Some(
                    InjectionPoint::parse(&v)
                        .unwrap_or_else(|| usage("--pause-at needs an injection point")),
                )
            }
            "--stall" => stall = true,
            "--trace-id" => {
                trace_id = TraceId::from_hex(&val())
                    .unwrap_or_else(|| usage("--trace-id needs a hex trace id"))
            }
            "--parent-span" => {
                parent_span =
                    val().parse().unwrap_or_else(|_| usage("--parent-span needs an integer"))
            }
            other => usage(&format!("unknown worker flag: {other}")),
        }
    }
    let (Some(root), Some(shard), Some(shards), Some(emitters), Some(epoch), Some(attempt)) =
        (root, shard, shards, emitters, epoch, attempt)
    else {
        usage("--root/--shard/--shards/--emitters/--epoch/--attempt are all required")
    };

    let cfg = WorkerConfig {
        universe: scale.config(seed),
        root,
        shard,
        shards,
        emitters,
        epoch,
        attempt,
        trace: TraceContext { trace: trace_id, span: parent_span },
    };
    // The worker's span records live in a process-local registry; the
    // exported trace file is how they reach the coordinator.
    let registry = Registry::new();
    match run_worker(&RealFs, &cfg, pause_at, PauseStyle::Spin { write_marker: !stall }, &registry)
    {
        Ok(exit) => {
            // A Spin pause never returns, so reaching here with a
            // Paused exit is impossible; still, only Completed earns 0.
            std::process::exit(if exit == WorkerExit::Completed { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("error: worker shard {shard} attempt {attempt} failed: {e}");
            std::process::exit(1);
        }
    }
}
