//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT ...] [--seed N] [--scale tiny|small|full] [--out FILE]
//!       [--workers N] [--collectors M] [--faults K] [--jobs N]
//!       [--distributed N] [--dist-jobs J] [--dist-root DIR] [--kill SHARD:POINT[:stall]]...
//!       [--metrics-out FILE] [--metrics-deterministic] [--profile]
//! repro list | repro validate [--seed N] [--scale ...]
//! repro serve-bench [FLAGS]   (see `serve_bench` below)
//! ```
//!
//! With no experiment arguments, runs all of them in paper order.
//! Use a release build for `--scale full` (the default). `--out`
//! writes the combined report to a file as well as stdout.
//!
//! The full suite runs through `Repro::run_all` at every `--jobs`
//! (stderr: one `[full suite in ...]` line); `--jobs N` spreads it over
//! up to `N` threads (clamped to the machine's cores) sharing the
//! memoized activity-set cache, heavy figures first, with output
//! identical to one job. An explicit experiment list runs figure by
//! figure, at one job.
//! Per-figure wall time is the `figure.<name>` rows of `--profile`;
//! the perf record is the benchmark package (`benchmark/`,
//! EXPERIMENTS.md "Performance record").
//!
//! Every command line here — the experiment run, `serve-bench` and the
//! hidden `worker` mode — is read by `ipactive_bench::cli::Cli`, the
//! reader `inspect` uses too: a malformed value or an unknown flag is
//! usage and exit 2.
//!
//! `--workers`/`--collectors` route dataset construction through the
//! sharded log pipeline instead of the direct builders — the datasets
//! are identical (the differential suite proves it), so every
//! experiment is unaffected; the flags exist to exercise and time the
//! collection path at scale. `--faults` (below) and these two build
//! the session through `Cli::session`, the one step `inspect` takes
//! too; `--distributed` is `repro`'s alone.
//!
//! `--distributed N` builds the datasets through *process-level*
//! distributed collection: `N` shard workers run as separate OS
//! processes (this same binary's hidden `worker` mode), each
//! committing its shard into a leased, manifest-journaled store pair
//! under `--dist-root` (a temp directory by default), while the
//! coordinator heartbeat-watches them and heals failures. Up to
//! `--dist-jobs` workers run concurrently. Each `--kill
//! SHARD:POINT[:stall]` schedules a real `kill -9` (or silent stall)
//! for that shard's first grant at a named protocol point — the
//! coordinator fsck-repairs the remains and regrants, and the final
//! report plus `--metrics-out` journal show the whole story.
//!
//! `--faults K` runs the *supervised* pipeline with `K` deterministic
//! injected faults (crashes, corruption, drops, stalls seeded from
//! `--seed`): transient faults heal via checkpointed replay, permanent
//! ones degrade gracefully, and the printed summary reports per-shard
//! coverage, retries, and dead-lettered frames. `--faults 0` runs the
//! supervised path fault-free.
//!
//! Observability: `--metrics-out FILE` writes the session's metrics
//! snapshot (counters, gauges, histograms, event journal, span
//! timings) as JSON when the run finishes; add
//! `--metrics-deterministic` to strip timings so the document is
//! byte-stable run-to-run — the form the CI golden job diffs.
//! `--profile` prints the span timing tree (wall time per stage) to
//! stderr at exit.

use ipactive_bench::cli::{self, die, Cli};
use ipactive_bench::{CheckOutcome, Repro, Scale, EXPERIMENTS};
use ipactive_coord::{InjectionPoint, KillMode, KillPlan, KillSpec};
use ipactive_obs::SnapshotMode;

/// `--kill SHARD:POINT[:stall]` — one scheduled death for the
/// distributed run's first grant of `SHARD` at injection point
/// `POINT` (`early`, `after-buffer-K`, `pre-commit`, `mid-commit`,
/// `pre-exit`), `kill -9`ed at the marker by default or wedge-killed
/// after heartbeat stagnation with the `:stall` suffix.
fn parse_kill(spec: &str) -> Option<KillSpec> {
    let mut parts = spec.splitn(3, ':');
    let shard: u32 = parts.next()?.parse().ok()?;
    let point = InjectionPoint::parse(parts.next()?)?;
    let mode = match parts.next() {
        None => KillMode::Kill,
        Some("stall") => KillMode::Stall,
        Some(_) => return None,
    };
    Some(KillSpec { shard, attempt: 0, point, mode })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // Hidden worker mode: the distributed coordinator re-spawns
        // this same binary as `repro worker ...` for each shard grant.
        Some("worker") => ipactive_bench::worker_cli::run(&args[1..]),
        Some("serve-bench") => serve_bench(&args[1..]),
        _ => {}
    }
    let mut cli = Cli::new(&args, usage).seeded(2015).scaled(Scale::Full).sharded();
    let mut out_path: Option<String> = None;
    let mut distributed: Option<usize> = None;
    let mut dist_jobs: usize = 2;
    let mut dist_root: Option<String> = None;
    let mut kills: Vec<KillSpec> = Vec::new();
    let mut jobs: usize = 1;
    let mut metrics_out: Option<String> = None;
    let mut metrics_deterministic = false;
    let mut profile = false;
    let mut validate = false;
    let mut wanted: Vec<String> = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "list" => {
                for name in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "validate" => validate = true,
            "--out" => out_path = Some(cli.parse("--out", "a path")),
            "--distributed" => distributed = Some(cli.positive("--distributed")),
            "--dist-jobs" => dist_jobs = cli.positive("--dist-jobs"),
            "--dist-root" => dist_root = Some(cli.parse("--dist-root", "a path")),
            "--kill" => kills.push(cli.value_with("--kill", "SHARD:POINT[:stall]", parse_kill)),
            "--jobs" => jobs = cli.positive("--jobs"),
            "--metrics-out" => metrics_out = Some(cli.parse("--metrics-out", "a path")),
            "--metrics-deterministic" => metrics_deterministic = true,
            "--profile" => profile = true,
            name if EXPERIMENTS.contains(&name) => wanted.push(arg),
            other => usage(&format!("unknown experiment or flag: {other}")),
        }
    }
    let full_suite = wanted.is_empty() && !validate;
    if jobs > 1 && !full_suite {
        usage("--jobs regenerates the full suite; drop the experiment list");
    }

    let (seed, scale) = (cli.seed(), cli.scale());
    eprintln!("generating universe (seed {seed}, scale {scale:?}) ...");
    let start = std::time::Instant::now();
    let repro = match distributed {
        Some(shards) => distributed_session(&cli, shards, dist_jobs, dist_root, &kills),
        None => cli.session(),
    };
    eprintln!(
        "universe ready in {:.1}s: {} /24 blocks, {} ASes, {} active addresses (daily)",
        start.elapsed().as_secs_f64(),
        repro.universe.blocks.len(),
        repro.universe.ases.len(),
        repro.daily.total_active(),
    );

    let finish_obs = |repro: &Repro| {
        if profile {
            eprint!("{}", repro.registry().snapshot(SnapshotMode::Timed).render_profile());
        }
        if let Some(path) = &metrics_out {
            let mode = if metrics_deterministic {
                SnapshotMode::Deterministic
            } else {
                SnapshotMode::Timed
            };
            cli::write(path, repro.registry().snapshot(mode).to_json());
            eprintln!("metrics snapshot ({}) written to {path}", mode.as_str());
        }
    };

    if validate {
        let checks = repro.validate();
        let mut failed = 0;
        for c in &checks {
            let (tag, detail) = match &c.outcome {
                CheckOutcome::Pass => ("PASS", String::new()),
                CheckOutcome::Fail(d) => {
                    failed += 1;
                    ("FAIL", format!("  [{d}]"))
                }
                CheckOutcome::Skip(d) => ("skip", format!("  [{d}]")),
            };
            println!("{tag}  {:<8} {}{}", c.experiment, c.claim, detail);
        }
        println!(
            "\n{} checks: {} passed, {failed} failed, {} skipped",
            checks.len(),
            checks.iter().filter(|c| c.outcome == CheckOutcome::Pass).count(),
            checks.iter().filter(|c| matches!(c.outcome, CheckOutcome::Skip(_))).count(),
        );
        finish_obs(&repro);
        std::process::exit(i32::from(failed > 0));
    }

    let combined = if full_suite {
        let report = repro.run_all(jobs);
        for f in &report.figures {
            println!("{}", f.output);
        }
        eprintln!("[full suite in {:.2}s across {jobs} jobs]", report.total_ms / 1e3);
        report.combined_output()
    } else {
        let mut combined = String::new();
        for name in wanted {
            let t = std::time::Instant::now();
            let report = repro.run(&name).expect("validated above");
            println!("{report}");
            combined.push_str(&report);
            eprintln!("[{name} in {:.2}s]", t.elapsed().as_secs_f64());
        }
        combined
    };
    if let Some(path) = out_path {
        cli::write(&path, combined);
        eprintln!("report written to {path}");
    }
    finish_obs(&repro);
}

/// The session of `--distributed SHARDS`: process-level collection,
/// `--workers` emitters per shard worker (2 by default), the
/// coordinator's outcome printed to stderr. Exits 1 when collection
/// fails.
fn distributed_session(
    cli: &Cli,
    shards: usize,
    jobs: usize,
    root: Option<String>,
    kills: &[KillSpec],
) -> Repro {
    let (seed, scale, sharding) = (cli.seed(), cli.scale(), cli.sharding());
    if sharding.faults.is_some() {
        usage("--distributed and --faults are separate collection paths; pick one");
    }
    let emitters = sharding.workers.unwrap_or(2);
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(1, format!("cannot locate own executable: {e}")))
        .to_string_lossy()
        .into_owned();
    let worker_cmd = vec![exe, "worker".to_string()];
    let ephemeral = root.is_none();
    let root = root.map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ipactive-dist-{seed}-{}", std::process::id()))
    });
    let plan = kills.iter().fold(KillPlan::none(), |plan, spec| plan.with(*spec));
    eprintln!(
        "building datasets via distributed collection ({shards} worker processes x {emitters} emitters, {} scheduled kills) ...",
        kills.len()
    );
    let (repro, outcome) = Repro::new_distributed(
        seed,
        scale,
        shards,
        emitters,
        jobs,
        root.clone(),
        &worker_cmd,
        &plan,
    )
    .unwrap_or_else(|e| die(1, format!("distributed collection failed: {e}")));
    eprint!("{}", outcome.render());
    if ephemeral {
        let _ = std::fs::remove_dir_all(&root);
    }
    repro
}

/// `repro serve-bench` — stand up an in-process observatory server,
/// drive it with the open-loop load generator, and print the latency
/// and shed-rate record (to `--out FILE` when given, else to stdout).
///
/// ```text
/// repro serve-bench [--days N] [--requests N] [--rate R] [--workers N]
///                   [--queue-depth N] [--seed N]
///                   [--stall-period K] [--stall-us US] [--out FILE]
///                   [--traces-out FILE]
/// ```
///
/// `--stall-period K` holds the worker of every Kth executed query for
/// `--stall-us` before the query starts (deterministic, seeded), so the
/// admission queue, latency and shedding see realistic pressure. Both
/// default to off.
///
/// Before the open-loop storm, a closed-loop *traced pass* sends
/// [`TRACE_REQUESTS`] requests each carrying a minted trace id, then
/// writes the resulting span trees — byte-stable for a given seed — to
/// `--traces-out` when given. The SLO monitor runs throughout with the
/// default policy; the output JSON's `slo` object records the burn
/// count and last-window gauges, which `inspect check --max-burns`
/// gates in CI.
fn serve_bench(args: &[String]) -> ! {
    use ipactive_serve::{
        loadgen, synthetic_day_log, ChaosPlan, LoadgenConfig, Observatory, ServeConfig, Server,
        SloPolicy,
    };

    let mut cli = Cli::new(args, usage).seeded(2016);
    let mut days: usize = 28;
    let mut requests: u64 = 2000;
    let mut rate: f64 = 20_000.0;
    let mut workers: usize = 2;
    let mut queue_depth: usize = 64;
    let mut stall_period: u64 = 0;
    let mut stall_us: u64 = 0;
    let mut out: Option<String> = None;
    let mut traces_out: Option<String> = None;
    while let Some(arg) = cli.next() {
        let count = "a non-negative integer";
        match arg.as_str() {
            "--days" => days = cli.parse("--days", count),
            "--requests" => requests = cli.parse("--requests", count),
            "--rate" => {
                rate = cli.value_with("--rate", "a positive number", |v| {
                    v.parse().ok().filter(|&r: &f64| r > 0.0)
                })
            }
            "--workers" => workers = cli.parse::<usize>("--workers", count).max(1),
            "--queue-depth" => queue_depth = cli.parse::<usize>("--queue-depth", count).max(1),
            "--stall-period" => stall_period = cli.parse("--stall-period", count),
            "--stall-us" => stall_us = cli.parse("--stall-us", count),
            "--out" => out = Some(cli.parse("--out", "a path")),
            "--traces-out" => traces_out = Some(cli.parse("--traces-out", "a path")),
            other => usage(&format!("unknown flag: {other}")),
        }
    }
    let seed = cli.seed();

    let registry = ipactive_obs::Registry::new();
    let obs: std::sync::Arc<Observatory> = std::sync::Arc::new(Observatory::new(&registry));
    eprintln!("ingesting {days} synthetic days (seed {seed}) ...");
    obs.ingest_days((0..days).map(|d| synthetic_day_log(seed, d)).collect());
    let chaos = ChaosPlan { seed, panic_period: 0, stall_period, stall_us };
    let server = Server::start(
        obs,
        ServeConfig { workers, queue_depth, chaos, slo: Some(SloPolicy::default()) },
    );
    // Closed-loop traced pass first, against the fresh server: the
    // span trees it produces are a pure function of the seed, so the
    // traces file is written before the open-loop storm muddies the
    // registry with its own (also traced) requests.
    let traced_linked = loadgen::traced_pass(&server, seed, TRACE_REQUESTS);
    eprintln!(
        "traced pass: {traced_linked} of {TRACE_REQUESTS} responses echoed their minted trace id"
    );
    if let Some(path) = &traces_out {
        cli::write(path, registry.traces_json());
        eprintln!("trace span trees written to {path}");
    }
    eprintln!(
        "open-loop load: {requests} requests at {rate:.0}/s against {workers} workers (queue {queue_depth}) ..."
    );
    let report = loadgen::run(&server, &LoadgenConfig { requests, rate, seed });
    server.shutdown();
    eprintln!(
        "served {} of {}: {} ok, {} degraded, {} shed ({:.1}% shed rate)",
        report.answered(),
        report.sent,
        report.ok,
        report.degraded,
        report.overloaded,
        report.shed_rate * 100.0,
    );
    eprintln!(
        "client latency: p50 {:.0}us  p90 {:.0}us  p99 {:.0}us  ({:.0} req/s achieved)",
        report.p50_us, report.p90_us, report.p99_us, report.achieved_rate,
    );
    let snap = registry.snapshot(ipactive_obs::SnapshotMode::Deterministic);
    let burns = snap.counters.get("slo.burn").copied().unwrap_or(0);
    let shed_ppm = snap.gauges.get("slo.window.shed_ppm").copied().unwrap_or(0);
    let p99_gauge = snap.gauges.get("slo.window.p99_us").copied().unwrap_or(0);
    eprintln!(
        "slo: {burns} burned windows (last window: {shed_ppm} ppm shed, p99 {p99_gauge}us)"
    );
    let json = format!(
        concat!(
            "{{\"config\":{{\"days\":{},\"requests\":{},\"rate\":{:.1},\"workers\":{},",
            "\"queue_depth\":{},\"seed\":{},\"stall_period\":{},",
            "\"stall_us\":{},\"trace_requests\":{}}},\"report\":{},",
            "\"slo\":{{\"burns\":{},\"window_shed_ppm\":{},\"window_p99_us\":{},",
            "\"traced_linked\":{}}}}}\n"
        ),
        days,
        requests,
        rate,
        workers,
        queue_depth,
        seed,
        stall_period,
        stall_us,
        TRACE_REQUESTS,
        report.to_json(),
        burns,
        shed_ppm,
        p99_gauge,
        traced_linked,
    );
    match out {
        Some(path) => {
            cli::write(&path, &json);
            eprintln!("serve bench record written to {path}");
        }
        None => print!("{json}"),
    }
    std::process::exit(0);
}

/// Requests in `serve-bench`'s traced pass (the record's
/// `config.trace_requests`).
const TRACE_REQUESTS: u64 = 16;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: repro [EXPERIMENT ...] [--seed N] [--scale tiny|small|full] [--out FILE]");
    eprintln!("             [--workers N] [--collectors M] [--faults K] [--jobs N]");
    eprintln!("             [--distributed N] [--dist-jobs J] [--dist-root DIR] [--kill SHARD:POINT[:stall]]...");
    eprintln!("             [--metrics-out FILE] [--metrics-deterministic] [--profile]");
    eprintln!("       repro list | repro validate [--seed N] [--scale ...]");
    eprintln!("       repro serve-bench [--days N] [--requests N] [--rate R] [--workers N]");
    eprintln!("                         [--queue-depth N] [--seed N]");
    eprintln!("                         [--stall-period K] [--stall-us US] [--out FILE]");
    eprintln!("                         [--traces-out FILE]");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
