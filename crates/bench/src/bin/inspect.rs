//! `inspect` — drill into one `/24` of a synthetic universe the way
//! the paper drills into its Figure 6/7 exemplars: activity matrix,
//! FD/STU metrics, per-address traffic, reverse DNS, routing, probe
//! responses, and (optionally) the generator's ground truth.
//!
//! ```text
//! inspect <BLOCK|top|changed> [--seed N] [--scale tiny|small|full] [--truth]
//!         [--workers N] [--collectors M] [--faults K]
//! ```
//!
//! `--workers`/`--collectors` build the datasets through the sharded
//! log pipeline (identical output, printed throughput) instead of the
//! direct builders. `--faults K` uses the supervised pipeline with `K`
//! deterministic injected faults and prints coverage, retry, and
//! quarantine accounting — inspect a block of a degraded run to see
//! exactly what a lost shard looks like downstream.
//!
//! `BLOCK` is a `/24` network like `101.0.64.0`; `top` picks the
//! busiest block, `changed` the busiest block with a mid-window
//! restructure.
//!
//! Store-maintenance and observability subcommands ride along:
//!
//! ```text
//! inspect mkstore <DIR> [--seed N] [--scale tiny|small|full] [--corrupt]
//! inspect fsck <DIR> [--repair]
//! inspect metrics <DIR>
//! inspect metrics-check <SNAPSHOT.json> <SCHEMA.json>
//! inspect trace <TRACES.json> [TRACE_ID] [--schema FILE]
//! inspect slo-check <SERVE_RECORD.json> [--max-shed-rate F] [--max-p99-us F] [--max-burns N]
//! inspect worker --root DIR --shard S --shards N --emitters E --epoch G --attempt A ...
//! ```
//!
//! `worker` runs one distributed-collection shard grant (see
//! [`ipactive_bench::worker_cli`]) — it is the process the healing
//! coordinator spawns, exposed here so harnesses can drive a worker
//! directly.
//!
//! `mkstore` persists a deterministic universe into a log-store
//! directory as one manifest-journaled batch commit (`--corrupt` then
//! applies a fixed damage pattern, for fixtures).
//! `fsck` verifies the store — manifests, footers, frames — printing
//! the deterministic report to stdout; with `--repair` it quarantines
//! damaged files (with provenance sidecars), salvages what survives,
//! and reconciles orphans. Exit status: 0 when healthy, 1 when the
//! pass found (or repaired) damage.
//!
//! `metrics` opens a store with an observability registry attached,
//! tolerantly reads every day, runs a dry (non-repairing) fsck pass,
//! and prints the resulting deterministic metrics snapshot as JSON —
//! store counters, damage events, and fsck verdicts all in one
//! document, guaranteed to agree with `inspect fsck`'s report because
//! both derive from the same pass. `metrics-check` validates a
//! snapshot JSON document against a JSON-schema file (the CI
//! `metrics-golden` job drives it).
//!
//! `trace` renders the span trees from a trace document — either a
//! worker's exported single-trace file or the multi-trace document
//! `repro serve-bench --traces-out` writes — as an indented tree, one
//! line per span; name a `TRACE_ID` (hex) to print just that trace,
//! and `--schema` additionally validates the document against a
//! JSON-schema file. `slo-check` gates a record written by `repro
//! serve-bench` (`--out serve_record.json`): the client-observed shed
//! rate, p99, and (optionally) the server's burned SLO windows must
//! stay inside the given ceilings.

use ipactive_bench::{Repro, Scale};
use ipactive_core::{matrix, outages, persistence};
use ipactive_dns::classify_block;
use ipactive_net::{ActiveSet, Addr, Block24};

fn main() {
    {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.first().map(String::as_str) {
            Some("fsck") => run_fsck(&args[1..]),
            Some("mkstore") => run_mkstore(&args[1..]),
            Some("metrics") => run_metrics(&args[1..]),
            Some("metrics-check") => run_metrics_check(&args[1..]),
            Some("trace") => run_trace(&args[1..]),
            Some("slo-check") => run_slo_check(&args[1..]),
            Some("worker") => ipactive_bench::worker_cli::run(&args[1..]),
            _ => {}
        }
    }
    let mut seed: u64 = 2015;
    let mut scale = Scale::Small;
    let mut truth = false;
    let mut workers: Option<usize> = None;
    let mut collectors: Option<usize> = None;
    let mut faults: Option<usize> = None;
    let mut target: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    _ => usage(),
                };
            }
            "--truth" => truth = true,
            "--workers" => {
                workers = args.next().and_then(|v| v.parse().ok()).filter(|&n: &usize| n >= 1);
                if workers.is_none() {
                    usage();
                }
            }
            "--collectors" => {
                collectors = args.next().and_then(|v| v.parse().ok()).filter(|&n: &usize| n >= 1);
                if collectors.is_none() {
                    usage();
                }
            }
            "--faults" => {
                faults = args.next().and_then(|v| v.parse().ok());
                if faults.is_none() {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            other if target.is_none() => target = Some(other.to_string()),
            _ => usage(),
        }
    }
    let target = target.unwrap_or_else(|| "top".to_string());

    eprintln!("generating universe (seed {seed}, scale {scale:?}) ...");
    let repro = if let Some(k) = faults {
        let (w, c) = (workers.unwrap_or(1), collectors.unwrap_or(2));
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
        let (w, c) = (workers.unwrap_or(1), collectors.unwrap_or(1));
        let (repro, summary) = Repro::new_via_pipeline(seed, scale, w, c);
        eprint!("{}", summary.render());
        repro
    } else {
        Repro::new(seed, scale)
    };
    let daily = &repro.daily;
    // The engine's memoized union: the same set every figure shares.
    let active = repro.engine.all_active();
    eprintln!(
        "activity: {} distinct active addresses over {} days",
        active.len(),
        daily.num_days
    );
    let pop = repro.universe.population_summary();
    eprintln!(
        "population: {} blocks ({} static, {} dynamic, {} gateway, {} server, {} router)",
        pop.total(),
        pop.static_blocks,
        pop.dynamic_blocks,
        pop.gateway_blocks,
        pop.server_blocks,
        pop.router_blocks
    );

    let block = match target.as_str() {
        "top" => daily
            .blocks
            .iter()
            .max_by_key(|r| r.ip_traffic.len())
            .map(|r| r.block)
            .expect("universe has activity"),
        "changed" => repro
            .universe
            .blocks
            .iter()
            .filter(|e| e.restructure.is_some())
            .filter_map(|e| daily.block(e.block).map(|r| (e.block, r.ip_traffic.len())))
            .max_by_key(|&(_, n)| n)
            .map(|(b, _)| b)
            .expect("universe has restructured blocks"),
        s => {
            let addr: Addr = s.parse().unwrap_or_else(|_| {
                eprintln!("error: {s:?} is not an IPv4 address, 'top', or 'changed'");
                std::process::exit(2);
            });
            Block24::of(addr)
        }
    };

    println!("== {} ==", block);

    // Observable: dataset view.
    match daily.block(block) {
        Some(rec) => {
            let m = matrix::BlockMetrics::of(rec, 0..daily.num_days);
            println!("\nactivity ({} days): FD={} STU={:.3}", daily.num_days, m.fd, m.stu);
            for line in matrix::render(rec, daily.num_days, 16).lines() {
                println!("  |{line}|");
            }
            println!(
                "traffic: {} hits total, {} UA samples, {} unique UA strings",
                rec.total_hits, rec.ua_samples, rec.ua_unique
            );
            let mut heavy = rec.ip_traffic.clone();
            heavy.sort_by_key(|t| std::cmp::Reverse(t.total_hits));
            println!("heaviest addresses:");
            for t in heavy.iter().take(5) {
                println!(
                    "  {}  {:>4} days, {:>10} hits (median {}/day)",
                    block.addr(t.host),
                    t.days_active,
                    t.total_hits,
                    t.median_daily_hits
                );
            }
            let found = outages::block_outages(rec, daily.num_days, &outages::OutageParams::default());
            for o in &found {
                println!("outage detected: days {}..{} ({} dark days)", o.start, o.start + o.days, o.days);
            }
            if let Some(p) = persistence::block_persistence(rec, 0..daily.num_days) {
                println!(
                    "persistence: reuse ratio {:.2}, mean streak {:.1} days → TTL {:?}",
                    p.reuse_ratio,
                    p.mean_streak_days,
                    persistence::recommend_ttl(&p, false)
                );
            }
        }
        None => println!("\nno CDN activity in the daily window"),
    }

    // Year view from the weekly dataset.
    if let Ok(i) = repro
        .weekly
        .blocks
        .binary_search_by_key(&block, |(b, _)| *b)
    {
        let (_, rows) = &repro.weekly.blocks[i];
        println!(
            "\nyear view ({} weeks): FD={} STU={:.3}",
            repro.weekly.num_weeks,
            repro.weekly.filling_degree(block),
            repro.weekly.stu(block)
        );
        for line in matrix::render_weekly(rows, repro.weekly.num_weeks, 16).lines() {
            println!("  |{line}|");
        }
    }

    // Observable: reverse DNS and routing.
    let hint = classify_block(repro.universe.ptr_table(), block, 16);
    println!("\nreverse DNS classification: {hint:?}");
    if let Some(name) = repro.universe.ptr_table().name_of(block.addr(1)) {
        println!("  e.g. {} -> {}", block.addr(1), name);
    }
    match repro.universe.bgp().base().route_of(block.addr(1)) {
        Some(route) => println!("routing: {} via {}", route.prefix, route.origin),
        None => println!("routing: not announced"),
    }
    if let Some(d) = repro.universe.delegations().lookup(block.addr(1)) {
        println!("delegation: {} -> {} / {}", d.prefix, d.rir, d.country);
    }

    // Ground truth, if requested.
    if truth {
        if let Some(e) = repro.universe.blocks.iter().find(|e| e.block == block) {
            let a = &repro.universe.ases[e.as_index];
            println!("\n-- ground truth --");
            println!("owner: {} ({:?}, {})", a.asn, a.kind, a.country);
            println!("policy: {:?}", e.policy);
            if let Some((day, p)) = &e.restructure {
                println!("restructure at absolute day {day}: {p:?}");
            }
            if let Some((start, len)) = e.outage {
                println!("outage at absolute day {start} for {len} days");
            }
            println!("alive weeks: {:?} of {}", e.alive_weeks, repro.universe.config().weeks);
        } else {
            println!("\n-- ground truth --\nblock not part of this universe");
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: inspect <BLOCK|top|changed> [--seed N] [--scale tiny|small|full] [--truth]\n       [--workers N] [--collectors M] [--faults K]\n       inspect mkstore <DIR> [--seed N] [--scale tiny|small|full] [--corrupt]\n       inspect fsck <DIR> [--repair]\n       inspect metrics <DIR>\n       inspect metrics-check <SNAPSHOT.json> <SCHEMA.json>\n       inspect trace <TRACES.json> [TRACE_ID] [--schema FILE]\n       inspect slo-check <SERVE_RECORD.json> [--max-shed-rate F] [--max-p99-us F] [--max-burns N]"
    );
    std::process::exit(2);
}

/// `inspect trace <TRACES.json> [TRACE_ID] [--schema FILE]` — render
/// the span trees of a trace document as indented trees. Accepts both
/// document shapes the system writes: a single-trace file (a worker's
/// exported `trace-AA.json`, or a `Trace` wire response body) and the
/// multi-trace document from `repro serve-bench --traces-out` /
/// [`ipactive_obs::Registry::traces_json`]. A hex `TRACE_ID` narrows
/// the output to one trace; `--schema` first validates the document
/// against a JSON-schema-subset file. Exit status: 0 rendered, 1 when
/// the named trace is absent or the schema is violated, 2 unreadable.
fn run_trace(args: &[String]) -> ! {
    let mut path: Option<&str> = None;
    let mut wanted: Option<u64> = None;
    let mut schema_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => match it.next() {
                Some(p) => schema_path = Some(p),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other if wanted.is_none() && !other.starts_with('-') => {
                wanted = match u64::from_str_radix(other, 16) {
                    Ok(id) => Some(id),
                    Err(_) => {
                        eprintln!("error: {other:?} is not a hex trace id");
                        std::process::exit(2);
                    }
                }
            }
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    if let Some(schema_path) = schema_path {
        let schema_text = std::fs::read_to_string(schema_path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {schema_path}: {e}");
            std::process::exit(2);
        });
        let schema = ipactive_obs::json::parse(&schema_text).unwrap_or_else(|e| {
            eprintln!("error: {schema_path}: {e}");
            std::process::exit(2);
        });
        let doc = ipactive_obs::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        });
        if let Err(e) = ipactive_obs::json::check_schema(&doc, &schema) {
            eprintln!("error: {path}: schema violation: {e}");
            std::process::exit(1);
        }
        eprintln!("{path}: valid against {schema_path}");
    }
    // Both document shapes (one trace object, or a list of them under
    // "traces") go through the parser `coord` imports worker files with.
    let traces = ipactive_obs::trace::parse_traces(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    let mut printed = 0usize;
    for (trace, spans) in &traces {
        if wanted.is_some_and(|id| id != *trace) {
            continue;
        }
        printed += 1;
        println!("trace {trace:016x} ({} spans)", spans.len());
        // Indent each span under its parent; orphans (parent seq not
        // in the document — e.g. a worker file before stitching)
        // surface at the root level rather than vanishing.
        fn render(spans: &[ipactive_obs::SpanRecord], parent: u64, depth: usize) {
            for s in spans.iter().filter(|s| s.parent == parent) {
                let pad = "  ".repeat(depth + 1);
                if s.detail.is_empty() {
                    println!("{pad}{:>3}  {}", s.seq, s.name);
                } else {
                    println!("{pad}{:>3}  {}  [{}]", s.seq, s.name, s.detail);
                }
                render(spans, s.seq, depth + 1);
            }
        }
        render(spans, 0, 0);
        let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.seq).collect();
        for s in spans.iter().filter(|s| s.parent != 0 && !known.contains(&s.parent)) {
            println!("   {:>3}  {}  [{}]  (orphan: parent {} absent)", s.seq, s.name, s.detail, s.parent);
            render(spans, s.seq, 1);
        }
    }
    if printed == 0 {
        match wanted {
            Some(id) => eprintln!("error: trace {id:016x} not in {path}"),
            None => eprintln!("{path}: no traces"),
        }
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `inspect slo-check <SERVE_RECORD.json> [--max-shed-rate F]
/// [--max-p99-us F] [--max-burns N]` — gate a `repro serve-bench` record
/// against declared service-level objectives: the client-observed
/// shed rate (default ceiling 0.5) and p99 latency (default
/// 1,000,000 us) from the `report` object, plus — when `--max-burns`
/// is given — the server-side count of burned SLO windows from the
/// `slo` object. Exit status: 0 pass, 1 breach, 2 unreadable.
fn run_slo_check(args: &[String]) -> ! {
    let mut path: Option<&str> = None;
    let mut max_shed_rate = 0.5f64;
    let mut max_p99_us = 1_000_000.0f64;
    let mut max_burns: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> f64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: {flag} needs a number");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--max-shed-rate" => max_shed_rate = num("--max-shed-rate"),
            "--max-p99-us" => max_p99_us = num("--max-p99-us"),
            "--max-burns" => max_burns = Some(num("--max-burns")),
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = ipactive_obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    let field = |obj: &str, key: &str| -> f64 {
        doc.get(obj).and_then(|o| o.get(key)).and_then(|x| x.as_f64()).unwrap_or_else(|| {
            eprintln!("error: {path}: missing numeric field {obj}.{key}");
            std::process::exit(2);
        })
    };
    let shed_rate = field("report", "shed_rate");
    let p99_us = field("report", "p99_us");
    let mut failures = 0usize;
    println!("shed rate: {shed_rate:.4} (gate: <= {max_shed_rate:.4})");
    if shed_rate > max_shed_rate {
        println!("FAIL  shed rate above the ceiling");
        failures += 1;
    }
    println!("client p99: {p99_us:.0} us (gate: <= {max_p99_us:.0} us)");
    if p99_us > max_p99_us {
        println!("FAIL  client p99 above the ceiling");
        failures += 1;
    }
    if let Some(max_burns) = max_burns {
        let burns = field("slo", "burns");
        println!("burned SLO windows: {burns:.0} (gate: <= {max_burns:.0})");
        if burns > max_burns {
            println!("FAIL  burned windows above the ceiling");
            failures += 1;
        }
    }
    if failures == 0 {
        println!("slo-check: pass");
        std::process::exit(0);
    }
    println!("slo-check: {failures} breach(es)");
    std::process::exit(1);
}

/// `inspect metrics <DIR>` — read a store through an observability
/// registry (tolerant day reads plus a dry fsck pass) and print the
/// deterministic metrics snapshot. The fsck counters and events in
/// the snapshot derive from the same [`ipactive_logfmt::FsckReport`]
/// that `inspect fsck` renders, so the two commands agree on counts
/// by construction.
fn run_metrics(args: &[String]) -> ! {
    let mut dir: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    let registry = ipactive_obs::Registry::new();
    let opened = ipactive_logfmt::LogStore::open_on_obs(ipactive_logfmt::RealFs, dir, &registry);
    let store = match opened {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: cannot open store at {dir}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = store.for_each_day(|_, _| {}) {
        eprintln!("error: reading store days failed: {e}");
        std::process::exit(2);
    }
    let healthy = match ipactive_logfmt::fsck(store.fs(), store.dir(), false) {
        Ok(report) => {
            ipactive_logfmt::record_fsck(&registry, &report);
            report.is_healthy()
        }
        Err(e) => {
            eprintln!("error: fsck pass failed: {e}");
            std::process::exit(2);
        }
    };
    print!(
        "{}",
        registry.snapshot(ipactive_obs::SnapshotMode::Deterministic).to_json()
    );
    std::process::exit(if healthy { 0 } else { 1 });
}

/// `inspect metrics-check <SNAPSHOT.json> <SCHEMA.json>` — parse a
/// metrics snapshot and validate it against a JSON-schema-subset
/// document. Exit status: 0 valid, 1 invalid, 2 unreadable.
fn run_metrics_check(args: &[String]) -> ! {
    let (Some(snapshot_path), Some(schema_path), None) =
        (args.first(), args.get(1), args.get(2))
    else {
        usage()
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let parse = |path: &str, text: &str| {
        ipactive_obs::json::parse(text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        })
    };
    let snapshot = parse(snapshot_path, &read(snapshot_path));
    let schema = parse(schema_path, &read(schema_path));
    match ipactive_obs::json::check_schema(&snapshot, &schema) {
        Ok(()) => {
            println!("{snapshot_path}: valid against {schema_path}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {snapshot_path}: schema violation: {e}");
            std::process::exit(1);
        }
    }
}

/// `inspect fsck <DIR> [--repair]` — verify (and optionally repair) a
/// log-store directory, printing the deterministic report to stdout.
fn run_fsck(args: &[String]) -> ! {
    let mut dir: Option<&str> = None;
    let mut repair = false;
    for arg in args {
        match arg.as_str() {
            "--repair" => repair = true,
            "--help" | "-h" => usage(),
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    match ipactive_logfmt::fsck(&ipactive_logfmt::RealFs, std::path::Path::new(dir), repair) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(if report.is_healthy() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: fsck failed: {e}");
            std::process::exit(2);
        }
    }
}

/// `inspect mkstore <DIR> [--seed N] [--scale ...] [--corrupt]` —
/// commit a deterministic universe into a store directory; `--corrupt`
/// then applies a fixed damage pattern so CI can exercise
/// `fsck --repair` against a golden report.
fn run_mkstore(args: &[String]) -> ! {
    let mut dir: Option<String> = None;
    let mut seed: u64 = 2015;
    let mut scale = Scale::Tiny;
    let mut corrupt = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => usage(),
            },
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    _ => usage(),
                };
            }
            "--corrupt" => corrupt = true,
            "--help" | "-h" => usage(),
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    let universe = ipactive_cdnsim::Universe::generate(scale.config(seed));
    let num_days = universe.config().daily_days;
    let mut store = match ipactive_logfmt::LogStore::open(&dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: cannot open store at {dir}: {e}");
            std::process::exit(2);
        }
    };
    let gen = match ipactive_cdnsim::persist_daily_atomic(&universe, &mut store) {
        Ok(gen) => gen,
        Err(e) => {
            eprintln!("error: persist failed: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("committed {num_days} days (manifest generation {gen})");
    if corrupt {
        // A fixed damage pattern (independent of seed/scale knobs so
        // the golden fsck report stays stable): cut the tail off day
        // 1, flip a mid-file byte of day 0, plant a stale tmp file.
        let damage = |day: u16, f: &dyn Fn(&mut Vec<u8>)| {
            // The commit above wrote every day under `gen`.
            let path = store.dir().join(ipactive_logfmt::manifest::gen_day_file_name(day, gen));
            let mut bytes = std::fs::read(&path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {}: {e}", path.display());
                std::process::exit(2);
            });
            f(&mut bytes);
            std::fs::write(&path, bytes).expect("rewrite damaged day");
        };
        damage(1, &|bytes| bytes.truncate(bytes.len() - bytes.len() / 4 - 1));
        damage(0, &|bytes| {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x55;
        });
        std::fs::write(
            std::path::Path::new(&dir).join(".day-0042.1-1.tmp"),
            b"crashed writer residue",
        )
        .expect("plant tmp file");
        eprintln!("applied fixture damage: day 1 truncated, day 0 corrupted, stale tmp planted");
    }
    std::process::exit(0);
}
