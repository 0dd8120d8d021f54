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
//! `--workers`/`--collectors`/`--faults` build the session the way
//! `repro` does ([`Cli::session`]): through the sharded log pipeline
//! (identical output, printed throughput), or the supervised pipeline
//! with `K` deterministic injected faults, printing coverage, retry,
//! and quarantine accounting — inspect a block of a degraded run to see
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
//! inspect check <DOC.json> [--schema FILE] [--max-shed-rate F] [--max-p99-us F] [--max-burns N]
//! inspect trace <TRACES.json> [TRACE_ID]
//! ```
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
//! both derive from the same pass.
//!
//! `check` holds one JSON document to exactly the gates its command
//! line names: `--schema` validates it against a JSON-schema file (a
//! metrics snapshot or coordinator journal, a trace document), and the
//! three ceilings gate a record written by `repro serve-bench --out`:
//! the client-observed shed rate and p99, and the server's burned SLO
//! windows.
//!
//! `trace` renders the span trees from a trace document — either a
//! worker's exported single-trace file or the multi-trace document
//! `repro serve-bench --traces-out` writes — as an indented tree, one
//! line per span; name a `TRACE_ID` (hex) to print just that trace.

use ipactive_bench::cli::{die, Cli};
use ipactive_bench::Scale;
use ipactive_core::{matrix, outages, persistence};
use ipactive_dns::classify_block;
use ipactive_net::{ActiveSet, Addr, Block24};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("fsck") => run_fsck(rest),
        Some("mkstore") => run_mkstore(rest),
        Some("metrics") => run_metrics(rest),
        Some("check") => run_check(rest),
        Some("trace") => run_trace(rest),
        _ => {}
    }
    let mut cli = Cli::new(&args, usage).seeded(2015).scaled(Scale::Small).sharded();
    let mut truth = false;
    let mut target: Option<String> = None;
    for arg in cli.by_ref() {
        match arg.as_str() {
            "--truth" => truth = true,
            _ => operand(&mut target, arg),
        }
    }
    let target = target.unwrap_or_else(|| "top".to_string());

    eprintln!("generating universe (seed {}, scale {:?}) ...", cli.seed(), cli.scale());
    let repro = cli.session();
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
                die(2, format!("{s:?} is not an IPv4 address, 'top', or 'changed'"))
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

/// Prints the usage and exits 2. The error is not echoed: the usage
/// lines are the whole message.
fn usage(_err: &str) -> ! {
    eprintln!(
        "usage: inspect <BLOCK|top|changed> [--seed N] [--scale tiny|small|full] [--truth]\n       [--workers N] [--collectors M] [--faults K]\n       inspect mkstore <DIR> [--seed N] [--scale tiny|small|full] [--corrupt]\n       inspect fsck <DIR> [--repair]\n       inspect metrics <DIR>\n       inspect check <DOC.json> [--schema FILE] [--max-shed-rate F] [--max-p99-us F] [--max-burns N]\n       inspect trace <TRACES.json> [TRACE_ID]"
    );
    std::process::exit(2);
}

/// Takes `arg` as the operand `slot` names; a second operand, or an
/// unknown flag, is a usage error.
fn operand(slot: &mut Option<String>, arg: String) {
    if slot.is_some() || arg.starts_with('-') {
        usage("");
    }
    *slot = Some(arg);
}

/// The text of `path`; exits 2 when it cannot be read.
fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(2, format!("cannot read {path}: {e}")))
}

/// The JSON document at `path`; exits 2 when it cannot be read or
/// parsed.
fn read_json(path: &str) -> ipactive_obs::json::Json {
    ipactive_obs::json::parse(&read(path)).unwrap_or_else(|e| die(2, format!("{path}: {e}")))
}

/// A ceiling `check` can put on a `repro serve-bench` record: flag,
/// field, what the reading is called, its unit and digits, and what its
/// breach is called.
type Ceiling = (&'static str, [&'static str; 2], &'static str, &'static str, usize, &'static str);

/// The ceilings, in the order they print.
const CEILINGS: [Ceiling; 3] = [
    ("--max-shed-rate", ["report", "shed_rate"], "shed rate", "", 4, "shed rate"),
    ("--max-p99-us", ["report", "p99_us"], "client p99", " us", 0, "client p99"),
    ("--max-burns", ["slo", "burns"], "burned SLO windows", "", 0, "burned windows"),
];

/// `inspect check <DOC.json> [--schema FILE] [--max-shed-rate F]
/// [--max-p99-us F] [--max-burns N]` — hold a document to exactly the
/// gates named, and at least one must be: `--schema` validates it
/// against a JSON-schema-subset file, and each of [`CEILINGS`] caps a
/// reading of a `repro serve-bench` record. Exit status: 0 every gate
/// holds, 1 a gate fails, 2 usage, or a document unreadable or missing
/// a field a ceiling reads.
fn run_check(args: &[String]) -> ! {
    let mut cli = Cli::new(args, usage);
    let (mut path, mut schema, mut ceilings) = (None, None::<String>, [None; 3]);
    while let Some(arg) = cli.next() {
        match CEILINGS.iter().position(|c| c.0 == arg) {
            Some(i) => ceilings[i] = Some(cli.parse::<f64>(&arg, "a number")),
            None if arg == "--schema" => schema = Some(cli.parse("--schema", "a path")),
            None => operand(&mut path, arg),
        }
    }
    let Some(path) = path else { usage("") };
    if schema.is_none() && ceilings.iter().all(Option::is_none) {
        usage("");
    }
    let doc = read_json(&path);
    let mut failed = false;
    if let Some(schema) = schema {
        match ipactive_obs::json::check_schema(&doc, &read_json(&schema)) {
            Ok(()) => println!("{path}: valid against {schema}"),
            Err(e) => {
                eprintln!("error: {path}: schema violation: {e}");
                failed = true;
            }
        }
    }
    if ceilings.iter().all(Option::is_none) {
        std::process::exit(i32::from(failed));
    }
    let mut breaches = 0usize;
    for ((_, [obj, key], reading, unit, digits, breach), max) in CEILINGS.iter().zip(ceilings) {
        let Some(max) = max else { continue };
        let field = doc.get(obj).and_then(|o| o.get(key)).and_then(|x| x.as_f64());
        let v =
            field.unwrap_or_else(|| die(2, format!("{path}: missing numeric field {obj}.{key}")));
        println!("{reading}: {v:.digits$}{unit} (gate: <= {max:.digits$}{unit})");
        if v > max {
            println!("FAIL  {breach} above the ceiling");
            breaches += 1;
        }
    }
    if breaches == 0 {
        println!("slo-check: pass");
    } else {
        println!("slo-check: {breaches} breach(es)");
    }
    std::process::exit(i32::from(failed || breaches > 0));
}

/// `inspect trace <TRACES.json> [TRACE_ID]` — render the span trees of
/// a trace document as indented trees. Accepts both document shapes the
/// system writes: a single-trace file (a worker's exported
/// `trace-AA.json`, or a `Trace` wire response body) and the
/// multi-trace document from `repro serve-bench --traces-out` /
/// [`ipactive_obs::Registry::traces_json`]. A hex `TRACE_ID` narrows
/// the output to one trace. Exit status: 0 rendered, 1 when the named
/// trace is absent, 2 unreadable.
fn run_trace(args: &[String]) -> ! {
    let (mut path, mut id) = (None, None);
    for arg in Cli::new(args, usage) {
        operand(if path.is_none() { &mut path } else { &mut id }, arg);
    }
    let Some(path) = path else { usage("") };
    let wanted = id.map(|id| {
        u64::from_str_radix(&id, 16)
            .unwrap_or_else(|_| die(2, format!("{id:?} is not a hex trace id")))
    });
    // Both document shapes (one trace object, or a list of them under
    // "traces") go through the parser `coord` imports worker files with.
    let traces = ipactive_obs::trace::parse_traces(&read(&path))
        .unwrap_or_else(|e| die(2, format!("{path}: {e}")));
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

/// `inspect metrics <DIR>` — read a store through an observability
/// registry (tolerant day reads plus a dry fsck pass) and print the
/// deterministic metrics snapshot. The fsck counters and events in
/// the snapshot derive from the same [`ipactive_logfmt::FsckReport`]
/// that `inspect fsck` renders, so the two commands agree on counts
/// by construction.
fn run_metrics(args: &[String]) -> ! {
    let mut dir = None;
    for arg in Cli::new(args, usage) {
        operand(&mut dir, arg);
    }
    let Some(dir) = dir else { usage("") };
    let registry = ipactive_obs::Registry::new();
    let store = ipactive_logfmt::LogStore::open_on_obs(ipactive_logfmt::RealFs, &dir, &registry)
        .unwrap_or_else(|e| die(2, format!("cannot open store at {dir}: {e}")));
    if let Err(e) = store.for_each_day(|_, _| {}) {
        die(2, format!("reading store days failed: {e}"));
    }
    let report = ipactive_logfmt::fsck(store.fs(), store.dir(), false)
        .unwrap_or_else(|e| die(2, format!("fsck pass failed: {e}")));
    ipactive_logfmt::record_fsck(&registry, &report);
    print!("{}", registry.snapshot(ipactive_obs::SnapshotMode::Deterministic).to_json());
    std::process::exit(i32::from(!report.is_healthy()));
}

/// `inspect fsck <DIR> [--repair]` — verify (and optionally repair) a
/// log-store directory, printing the deterministic report to stdout.
fn run_fsck(args: &[String]) -> ! {
    let mut dir = None;
    let mut repair = false;
    for arg in Cli::new(args, usage) {
        match arg.as_str() {
            "--repair" => repair = true,
            _ => operand(&mut dir, arg),
        }
    }
    let Some(dir) = dir else { usage("") };
    let report =
        ipactive_logfmt::fsck(&ipactive_logfmt::RealFs, std::path::Path::new(&dir), repair)
            .unwrap_or_else(|e| die(2, format!("fsck failed: {e}")));
    print!("{}", report.render());
    std::process::exit(i32::from(!report.is_healthy()));
}

/// `inspect mkstore <DIR> [--seed N] [--scale ...] [--corrupt]` —
/// commit a deterministic universe into a store directory; `--corrupt`
/// then applies a fixed damage pattern so CI can exercise
/// `fsck --repair` against a golden report.
fn run_mkstore(args: &[String]) -> ! {
    let mut cli = Cli::new(args, usage).seeded(2015).scaled(Scale::Tiny);
    let mut dir = None;
    let mut corrupt = false;
    for arg in cli.by_ref() {
        match arg.as_str() {
            "--corrupt" => corrupt = true,
            _ => operand(&mut dir, arg),
        }
    }
    let Some(dir) = dir else { usage("") };
    let universe = ipactive_cdnsim::Universe::generate(cli.scale().config(cli.seed()));
    let num_days = universe.config().daily_days;
    let mut store = ipactive_logfmt::LogStore::open(&dir)
        .unwrap_or_else(|e| die(2, format!("cannot open store at {dir}: {e}")));
    let gen = ipactive_cdnsim::persist_daily_atomic(&universe, &mut store)
        .unwrap_or_else(|e| die(2, format!("persist failed: {e}")));
    eprintln!("committed {num_days} days (manifest generation {gen})");
    if corrupt {
        // A fixed damage pattern (independent of seed/scale knobs so
        // the golden fsck report stays stable): cut the tail off day
        // 1, flip a mid-file byte of day 0, plant a stale tmp file.
        let damage = |day: u16, f: &dyn Fn(&mut Vec<u8>)| {
            // The commit above wrote every day under `gen`.
            let path = store.dir().join(ipactive_logfmt::manifest::gen_day_file_name(day, gen));
            let mut bytes = std::fs::read(&path)
                .unwrap_or_else(|e| die(2, format!("cannot read {}: {e}", path.display())));
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
