//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT ...] [--seed N] [--scale tiny|small|full] [--out FILE]
//!       [--workers N] [--collectors M] [--faults K] [--jobs N]
//! repro list
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
//! `--workers`/`--collectors` route dataset construction through the
//! sharded log pipeline instead of the direct builders — the datasets
//! are identical (the differential suite proves it), so every
//! experiment is unaffected; the flags exist to exercise and time the
//! collection path at scale.
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
    {
        // Hidden worker mode: the distributed coordinator re-spawns
        // this same binary as `repro worker ...` for each shard grant.
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.first().map(String::as_str) == Some("worker") {
            ipactive_bench::worker_cli::run(&args[1..]);
        }
        if args.first().map(String::as_str) == Some("serve-bench") {
            serve_bench(&args[1..]);
        }
    }
    let mut seed: u64 = 2015;
    let mut scale = Scale::Full;
    let mut out_path: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut collectors: Option<usize> = None;
    let mut faults: Option<usize> = None;
    let mut distributed: Option<usize> = None;
    let mut dist_jobs: usize = 2;
    let mut dist_root: Option<String> = None;
    let mut kills: Vec<KillSpec> = Vec::new();
    let mut jobs: usize = 1;
    let mut metrics_out: Option<String> = None;
    let mut metrics_deterministic = false;
    let mut profile = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "list" => {
                for name in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "validate" => {
                wanted.push("__validate__".to_string());
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    _ => usage("--scale needs tiny|small|full"),
                };
            }
            "--workers" => {
                workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--workers needs a positive integer")),
                );
            }
            "--collectors" => {
                collectors = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--collectors needs a positive integer")),
                );
            }
            "--faults" => {
                faults = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--faults needs a non-negative integer")),
                );
            }
            "--distributed" => {
                distributed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--distributed needs a positive shard count")),
                );
            }
            "--dist-jobs" => {
                dist_jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--dist-jobs needs a positive integer"));
            }
            "--dist-root" => {
                dist_root =
                    Some(args.next().unwrap_or_else(|| usage("--dist-root needs a path")));
            }
            "--kill" => {
                let spec = args.next().unwrap_or_else(|| usage("--kill needs SHARD:POINT"));
                kills.push(
                    parse_kill(&spec)
                        .unwrap_or_else(|| usage("--kill needs SHARD:POINT[:stall]")),
                );
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--jobs needs a positive integer"));
            }
            "--metrics-out" => {
                metrics_out =
                    Some(args.next().unwrap_or_else(|| usage("--metrics-out needs a path")));
            }
            "--metrics-deterministic" => metrics_deterministic = true,
            "--profile" => profile = true,
            "--help" | "-h" => {
                usage("");
            }
            name if EXPERIMENTS.contains(&name) => wanted.push(name.to_string()),
            other => usage(&format!("unknown experiment or flag: {other}")),
        }
    }
    let full_suite = wanted.is_empty();
    if jobs > 1 && !full_suite {
        usage("--jobs regenerates the full suite; drop the experiment list");
    }

    eprintln!("generating universe (seed {seed}, scale {scale:?}) ...");
    let start = std::time::Instant::now();
    let repro = if let Some(shards) = distributed {
        if faults.is_some() {
            usage("--distributed and --faults are separate collection paths; pick one");
        }
        let emitters = workers.unwrap_or(2);
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| {
                eprintln!("error: cannot locate own executable: {e}");
                std::process::exit(1);
            })
            .to_string_lossy()
            .into_owned();
        let worker_cmd = vec![exe, "worker".to_string()];
        let (root, ephemeral) = match &dist_root {
            Some(dir) => (std::path::PathBuf::from(dir), false),
            None => (
                std::env::temp_dir()
                    .join(format!("ipactive-dist-{seed}-{}", std::process::id())),
                true,
            ),
        };
        let mut plan = KillPlan::none();
        for spec in &kills {
            plan = plan.with(*spec);
        }
        eprintln!(
            "building datasets via distributed collection ({shards} worker processes x {emitters} emitters, {} scheduled kills) ...",
            kills.len()
        );
        match Repro::new_distributed(
            seed, scale, shards, emitters, dist_jobs, root.clone(), &worker_cmd, &plan,
        ) {
            Ok((repro, outcome)) => {
                eprint!("{}", outcome.render());
                if ephemeral {
                    let _ = std::fs::remove_dir_all(&root);
                }
                repro
            }
            Err(e) => {
                eprintln!("error: distributed collection failed: {e}");
                std::process::exit(1);
            }
        }
    } else if let Some(k) = faults {
        let w = workers.unwrap_or(1);
        let c = collectors.unwrap_or(2);
        eprintln!(
            "building datasets via supervised pipeline ({w} workers x {c} collectors, {k} injected faults) ..."
        );
        match Repro::new_supervised(seed, scale, w, c, k) {
            Ok((repro, summary)) => {
                eprint!("{}", summary.render());
                repro
            }
            Err(e) => {
                eprintln!("error: supervised pipeline failed: {e}");
                std::process::exit(1);
            }
        }
    } else if workers.is_some() || collectors.is_some() {
        let w = workers.unwrap_or(1);
        let c = collectors.unwrap_or(1);
        eprintln!("building datasets via sharded pipeline ({w} workers x {c} collectors) ...");
        let (repro, summary) = Repro::new_via_pipeline(seed, scale, w, c);
        eprint!("{}", summary.render());
        repro
    } else {
        Repro::new(seed, scale)
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
            let json = repro.registry().snapshot(mode).to_json();
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("metrics snapshot ({}) written to {path}", mode.as_str());
        }
    };

    if wanted.iter().any(|w| w == "__validate__") {
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
        std::process::exit(if failed > 0 { 1 } else { 0 });
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
        if let Err(e) = std::fs::write(&path, combined) {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("report written to {path}");
    }
    finish_obs(&repro);
}

/// `repro serve-bench` — stand up an in-process observatory server,
/// drive it with the open-loop load generator, and print the latency
/// and shed-rate record (to `--out FILE` when given, else to stdout).
///
/// ```text
/// repro serve-bench [--days N] [--requests N] [--rate R] [--workers N]
///                   [--queue-depth N] [--budget-ms MS] [--seed N]
///                   [--stall-period K] [--stall-us US] [--out FILE]
///                   [--traces-out FILE] [--trace-requests N]
/// ```
///
/// `--stall-period K` holds the worker of every Kth executed query for
/// `--stall-us` before the query starts (deterministic, seeded), so the
/// admission queue, latency and shedding see realistic pressure; the
/// query's deadline budget starts after the stall. Both default to off.
///
/// Before the open-loop storm, a closed-loop *traced pass* sends
/// `--trace-requests` requests (default 16) each carrying a minted
/// trace id, then writes the resulting span trees — byte-stable for a
/// given seed — to `--traces-out` when given. The SLO monitor runs
/// throughout with the default policy; the output JSON's `slo` object
/// records the burn count and last-window gauges, which
/// `inspect slo-check` gates in CI.
fn serve_bench(args: &[String]) -> ! {
    use ipactive_serve::{
        loadgen, synthetic_day_log, ChaosPlan, LoadgenConfig, Observatory, ServeConfig, Server,
        SloPolicy,
    };

    let sb_usage = |err: &str| -> ! {
        if !err.is_empty() {
            eprintln!("error: {err}\n");
        }
        eprintln!("usage: repro serve-bench [--days N] [--requests N] [--rate R] [--workers N]");
        eprintln!("                         [--queue-depth N] [--budget-ms MS] [--seed N]");
        eprintln!("                         [--stall-period K] [--stall-us US] [--out FILE]");
        eprintln!("                         [--traces-out FILE] [--trace-requests N]");
        std::process::exit(if err.is_empty() { 0 } else { 2 });
    };
    let mut days: usize = 28;
    let mut requests: u64 = 2000;
    let mut rate: f64 = 20_000.0;
    let mut workers: usize = 2;
    let mut queue_depth: usize = 64;
    let mut budget_ms: u64 = 0;
    let mut seed: u64 = 2016;
    let mut stall_period: u64 = 0;
    let mut stall_us: u64 = 0;
    let mut out: Option<String> = None;
    let mut traces_out: Option<String> = None;
    let mut trace_requests: u64 = 16;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |what: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| sb_usage(&format!("{what} needs a non-negative integer")))
        };
        match arg.as_str() {
            "--days" => days = num("--days") as usize,
            "--requests" => requests = num("--requests"),
            "--rate" => {
                rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r > 0.0)
                    .unwrap_or_else(|| sb_usage("--rate needs a positive number"));
            }
            "--workers" => workers = num("--workers").max(1) as usize,
            "--queue-depth" => queue_depth = num("--queue-depth").max(1) as usize,
            "--budget-ms" => budget_ms = num("--budget-ms"),
            "--seed" => seed = num("--seed"),
            "--stall-period" => stall_period = num("--stall-period"),
            "--stall-us" => stall_us = num("--stall-us"),
            "--out" => {
                out = Some(it.next().cloned().unwrap_or_else(|| sb_usage("--out needs a path")));
            }
            "--traces-out" => {
                traces_out =
                    Some(it.next().cloned().unwrap_or_else(|| sb_usage("--traces-out needs a path")));
            }
            "--trace-requests" => trace_requests = num("--trace-requests"),
            "--help" | "-h" => sb_usage(""),
            other => sb_usage(&format!("unknown flag: {other}")),
        }
    }

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
    let traced_linked = if trace_requests > 0 {
        let linked = loadgen::traced_pass(&server, seed, trace_requests);
        eprintln!(
            "traced pass: {linked} of {trace_requests} responses echoed their minted trace id"
        );
        if let Some(path) = &traces_out {
            let doc = registry.traces_json();
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("trace span trees written to {path}");
        }
        linked
    } else {
        0
    };
    eprintln!(
        "open-loop load: {requests} requests at {rate:.0}/s against {workers} workers (queue {queue_depth}) ..."
    );
    let report = loadgen::run(
        &server,
        &LoadgenConfig { requests, rate, budget_ms, allow_degraded: true, seed },
    );
    server.shutdown();
    eprintln!(
        "served {} of {}: {} ok, {} degraded, {} deadline, {} shed ({:.1}% shed rate)",
        report.answered(),
        report.sent,
        report.ok,
        report.degraded,
        report.deadline_exceeded,
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
            "\"queue_depth\":{},\"budget_ms\":{},\"seed\":{},\"stall_period\":{},",
            "\"stall_us\":{},\"trace_requests\":{}}},\"report\":{},",
            "\"slo\":{{\"burns\":{},\"window_shed_ppm\":{},\"window_p99_us\":{},",
            "\"traced_linked\":{}}}}}\n"
        ),
        days,
        requests,
        rate,
        workers,
        queue_depth,
        budget_ms,
        seed,
        stall_period,
        stall_us,
        trace_requests,
        report.to_json(),
        burns,
        shed_ppm,
        p99_gauge,
        traced_linked,
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("serve bench record written to {path}");
        }
        None => print!("{json}"),
    }
    std::process::exit(0);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: repro [EXPERIMENT ...] [--seed N] [--scale tiny|small|full] [--out FILE]");
    eprintln!("             [--workers N] [--collectors M] [--faults K] [--jobs N]");
    eprintln!("             [--distributed N] [--dist-jobs J] [--dist-root DIR] [--kill SHARD:POINT[:stall]]...");
    eprintln!("             [--metrics-out FILE] [--metrics-deterministic] [--profile]");
    eprintln!("       repro list | repro validate [--seed N] [--scale ...]");
    eprintln!("       repro serve-bench --help   (observatory server load generator)");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
