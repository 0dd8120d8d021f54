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
//! exports them to `shard-SSSS/trace-AA.json` for stitching. The
//! arguments go through the [`Cli`] reader `repro` uses, so `--seed`
//! and `--scale` read exactly as they do there. Exit status: 0 when
//! both stores committed; 1 on I/O failure; 2 on usage errors.

use crate::cli::{die, Cli};
use crate::Scale;
use ipactive_coord::{run_worker, InjectionPoint, PauseStyle, WorkerConfig, WorkerExit};
use ipactive_logfmt::RealFs;
use ipactive_obs::{Registry, TraceContext, TraceId};
use std::path::PathBuf;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro worker --root DIR --shard S --shards N --emitters E --epoch G --attempt A\n                    [--seed N] [--scale tiny|small|full] [--pause-at POINT] [--stall]\n                    [--trace-id HEX] [--parent-span SEQ]"
    );
    std::process::exit(2);
}

/// Parses worker argv and runs the grant to completion (or to its
/// scheduled pause). Never returns.
pub fn run(args: &[String]) -> ! {
    let mut cli = Cli::new(args, usage).seeded(2015).scaled(Scale::Tiny);
    let mut root: Option<PathBuf> = None;
    let (mut shard, mut shards, mut emitters, mut epoch, mut attempt) =
        (None, None, None, None, None);
    let mut pause_at: Option<InjectionPoint> = None;
    let mut stall = false;
    let mut trace_id = TraceId::NONE;
    let mut parent_span: u64 = 0;
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--root" => root = Some(cli.parse("--root", "a path")),
            "--shard" => shard = Some(cli.parse("--shard", "an integer")),
            "--shards" => shards = Some(cli.parse("--shards", "an integer")),
            "--emitters" => emitters = Some(cli.parse("--emitters", "an integer")),
            "--epoch" => epoch = Some(cli.parse("--epoch", "an integer")),
            "--attempt" => attempt = Some(cli.parse("--attempt", "an integer")),
            "--pause-at" => {
                pause_at =
                    Some(cli.value_with("--pause-at", "an injection point", InjectionPoint::parse))
            }
            "--stall" => stall = true,
            "--trace-id" => {
                trace_id = cli.value_with("--trace-id", "a hex trace id", TraceId::from_hex)
            }
            "--parent-span" => parent_span = cli.parse("--parent-span", "an integer"),
            other => usage(&format!("unknown worker flag: {other}")),
        }
    }
    let (Some(root), Some(shard), Some(shards), Some(emitters), Some(epoch), Some(attempt)) =
        (root, shard, shards, emitters, epoch, attempt)
    else {
        usage("--root/--shard/--shards/--emitters/--epoch/--attempt are all required")
    };

    let cfg = WorkerConfig {
        universe: cli.scale().config(cli.seed()),
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
    let style = PauseStyle::Spin { write_marker: !stall };
    let exit = run_worker(&RealFs, &cfg, pause_at, style, &registry)
        .unwrap_or_else(|e| die(1, format!("worker shard {shard} attempt {attempt} failed: {e}")));
    // A Spin pause never returns, so reaching here with a Paused exit
    // is impossible; still, only Completed earns 0.
    std::process::exit(i32::from(exit != WorkerExit::Completed))
}
