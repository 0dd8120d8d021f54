//! Command line: one workload per process, or all five / a calibration
//! with every run in a child process, so that `VmHWM` is per workload.

use crate::inputs::universe_config;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::{self, Params, RunResult, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: ipactive-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                          [--calibrate RUNS]

  --workload NAME     one of: dataset_build collect_replay figures_cold serve_hot
                      serve_ingest. Without it, all five run, one child process each.
  --seed N            seed of the request streams and window panels (default 2015)
  --seconds S         length of the timed section (default 20)
  --trace 0|1         0: end-to-end metrics, tracing off. 1: per-layer metrics from
                      spans, written to benchmark/out/trace-NAME.json (default 0)
  --calibrate RUNS    the acceptance rule, rehearsed: run every workload RUNS times
                      untraced, each time with another --seed; print each metric's
                      median and quartile spread; exit 1 if a spread is over its bound

The last line on standard output of a --workload run is one JSON object:
{\"correct\": .., \"attempted\": .., \"failed\": .., \"metrics\": {NAME: {\"value\": .., \"unit\": ..}}}
The exit code is 1 when a correctness check failed, 2 on a usage error.";

/// Where a run writes: `benchmark/out` seen from the root of the
/// repository, where the command in `BENCHMARK.json` is run from — or
/// from inside `benchmark/`, where `cargo run` is as often typed.
fn out_dir() -> &'static str {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        "benchmark/out"
    } else {
        "out"
    }
}

const FLAGS: [&str; 5] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--calibrate",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 2015,
        seconds: 20.0,
        trace: false,
        calibrate: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => {
                let runs: usize = value.parse().map_err(|_| bad())?;
                if runs < 2 {
                    return Err("--calibrate needs at least 2 runs".into());
                }
                out.calibrate = Some(runs);
            }
        }
    }
    if let Some(name) = &out.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    Ok(out)
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, every value with all the digits it was measured to.
pub fn result_json(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run_one(name: &str, a: &Args) -> ExitCode {
    let params = Params {
        universe: universe_config(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        max_batches: None,
        out_dir: out_dir().into(),
    };
    let result = workloads::run(name, &params).expect("workload name was checked");
    if let Some(trace) = &result.trace_json {
        let path = params.out_dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&params.out_dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => eprintln!("{name}: trace written to {}", path.display()),
            Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&result));
    exit_code(result.correct)
}

/// 0 when every check held, 1 otherwise.
fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Reads back the flat result line this program itself printed (not a
/// general JSON parser); a metric it does not know is no result.
fn read_result(line: &str) -> Option<RunResult> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let (value, _unit) = rest.split_once(", \"unit\": \"")?;
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)?;
        metrics.push((def.name, value.parse().ok()?, def.unit));
    }
    Some(RunResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        failures: Vec::new(),
        metrics,
        trace_json: None,
    })
}

/// Runs one workload in a child process and reads its result line.
fn child(name: &str, a: &Args, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    read_result(line).ok_or_else(|| format!("the {name} run ({}) printed no result", output.status))
}

fn run_all(a: &Args) -> ExitCode {
    let mut ok = true;
    for name in WORKLOADS {
        match child(name, a, a.seed) {
            Ok(run) => {
                ok &= run.correct;
                println!(
                    "{name}: {} ops attempted, {} failed{}",
                    run.attempted,
                    run.failed,
                    if run.correct {
                        ""
                    } else {
                        "  <-- CHECK FAILED"
                    }
                );
                for (metric, value, unit) in &run.metrics {
                    println!("  {metric:<44} {value:>16.4} {unit}");
                }
            }
            Err(e) => {
                ok = false;
                println!("{name}: {e}");
            }
        }
    }
    exit_code(ok)
}

/// The acceptance rule, rehearsed: untraced runs of every workload,
/// `runs` times over with seeds `seed..seed + runs` (another seed each
/// run, as the rule has it). Prints per workload and metric the median,
/// the quartile spread as a share of it and the bound three times the
/// spread would need. Fails when a check failed or a spread is over the
/// metric's bound — `setup_s` excepted, as in the rule.
fn calibrate(a: &Args, runs: usize) -> ExitCode {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..runs {
        for name in WORKLOADS {
            match child(name, a, a.seed + i as u64) {
                Ok(run) => {
                    ok &= run.correct;
                    for (metric, value, _) in run.metrics {
                        values.entry((name, metric)).or_default().push(value);
                    }
                }
                Err(e) => {
                    ok = false;
                    eprintln!("{e}");
                }
            }
        }
    }
    println!(
        "{:<16} {:<12} {:>14} {:>8} {:>10} {:>7}",
        "workload", "metric", "median", "spread", "3 x spread", "bound"
    );
    for name in WORKLOADS {
        for def in END_TO_END {
            let Some(v) = values.get(&(name, def.name)).filter(|v| v.len() >= 2) else {
                continue;
            };
            let spread = quartile_spread(v);
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let over = spread > bound && def.name != "setup_s";
            ok &= !over;
            println!(
                "{name:<16} {:<12} {:>14.4} {:>7.2}% {:>9.2}% {:>6.0}%{}",
                def.name,
                median(v),
                spread * 100.0,
                spread * 300.0,
                bound * 100.0,
                if over { "  <-- SPREAD OVER BOUND" } else { "" }
            );
        }
    }
    exit_code(ok)
}

/// Entry point of the binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.calibrate) {
        (_, Some(runs)) => calibrate(&args, runs),
        (Some(name), None) => run_one(name, &args),
        (None, None) => run_all(&args),
    }
}
