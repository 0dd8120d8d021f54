//! The five workloads and the one driver that runs any of them.

pub mod collect_replay;
pub mod dataset_build;
pub mod figures_cold;
pub mod serve_hot;
pub mod serve_ingest;
mod serving;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{child_cover, Tracer};
use ipactive_cdnsim::UniverseConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "dataset_build",
    "collect_replay",
    "figures_cold",
    "serve_hot",
    "serve_ingest",
];

/// What a run is given.
#[derive(Debug, Clone)]
pub struct Params {
    /// The universe every input derives from.
    pub universe: UniverseConfig,
    /// Seed of the request streams and window panels.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Stop after this many batches even if time remains; the tests use
    /// it so that counts repeat exactly.
    pub max_batches: Option<u64>,
    /// Where the run may write: the trace document, and the log store
    /// the `logfmt.store.*` probes commit and replay.
    pub out_dir: PathBuf,
}

/// Tally of the timed section, filled by the workload.
#[derive(Debug, Default)]
pub struct Samples {
    /// One op-time sample per finished op, in nanoseconds (`serve_hot`,
    /// whose ops number millions: one per batch, the batch's median
    /// round trip).
    pub op_ns: Vec<u64>,
    /// Work units done.
    pub units: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a correctness check or came back other than `Ok`.
    pub failed: u64,
    /// Which checks broke (first few).
    pub failures: Vec<String>,
}

impl Samples {
    /// Counts one failed op and says which check broke.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 16 {
            let what = what.into();
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// Times `f` as one op.
    pub fn time_op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.op_ns.push(t0.elapsed().as_nanos() as u64);
        self.attempted += 1;
        out
    }
}

/// One workload: state built by `setup`, advanced by `batch`.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Name of the span that wraps one op (or one batch of ops).
    const OP_SPAN: &'static str;

    /// Builds universe, inputs and warm caches.
    fn setup(p: &Params, t: &mut Tracer) -> Self;

    /// Runs the next op (or batch of ops). `false` once the inputs are
    /// used up.
    fn batch(&mut self, t: &mut Tracer, s: &mut Samples) -> bool;

    /// Puts used-up inputs back, outside any op's time, so that the ops
    /// can go on; `false` when the workload has nothing to put back.
    fn rewind(&mut self, _t: &mut Tracer) -> bool {
        false
    }

    /// Checks that need more than the op's own result, after the timed
    /// section.
    fn verify(&mut self, _t: &mut Tracer, _s: &mut Samples) {}

    /// Single-layer measurements of the traced run that the op does not
    /// already make.
    fn probes(&mut self, _t: &mut Tracer) {}
}

/// What a run reports.
#[derive(Debug)]
pub struct RunResult {
    /// No check failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Which checks broke.
    pub failures: Vec<String>,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The trace document of a traced run.
    pub trace_json: Option<String>,
}

/// Runs the workload called `name`.
pub fn run(name: &str, p: &Params) -> Option<RunResult> {
    Some(match name {
        dataset_build::DatasetBuild::NAME => drive::<dataset_build::DatasetBuild>(p),
        collect_replay::CollectReplay::NAME => drive::<collect_replay::CollectReplay>(p),
        figures_cold::FiguresCold::NAME => drive::<figures_cold::FiguresCold>(p),
        serve_hot::ServeHot::NAME => drive::<serve_hot::ServeHot>(p),
        serve_ingest::ServeIngest::NAME => drive::<serve_ingest::ServeIngest>(p),
        _ => return None,
    })
}

fn drive<W: Workload>(p: &Params) -> RunResult {
    let mut t = Tracer::new(p.trace);

    let t0 = Instant::now();
    let mut state = W::setup(p, &mut t);
    let setup_s = t0.elapsed().as_secs_f64();
    eprintln!("{}: set-up {setup_s:.3} s", W::NAME);

    // The traced run records every other batch, so one process yields
    // the op time with and without recording.
    let mut s = Samples::default();
    let (mut recorded_ns, mut plain_ns) = (Vec::new(), Vec::new());
    let mut best_rate = 0.0f64;
    let mut busy_s = 0.0;
    let started = Instant::now();
    let mut batches = 0u64;
    while started.elapsed().as_secs_f64() < p.seconds
        && p.max_batches.is_none_or(|max| batches < max)
    {
        let record = p.trace && batches.is_multiple_of(2);
        t.set_recording(record);
        let (before, units_before, batch_started) = (s.op_ns.len(), s.units, Instant::now());
        let more = state.batch(&mut t, &mut s);
        let batch_s = batch_started.elapsed().as_secs_f64();
        busy_s += batch_s;
        best_rate = best_rate.max((s.units - units_before) as f64 / batch_s);
        if p.trace {
            let sink = if record {
                &mut recorded_ns
            } else {
                &mut plain_ns
            };
            sink.extend(s.op_ns[before..].iter().map(|&ns| ns as f64));
        }
        batches += 1;
        if !more {
            t.set_recording(p.trace);
            if !state.rewind(&mut t) {
                break;
            }
        }
    }
    let peak_rss_mb = peak_rss_mb();
    t.set_recording(true);

    // What the whole section looked like, for the reader of the log; the
    // reported numbers are the fastest op and the fastest batch.
    let mut op_ms: Vec<f64> = s.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    op_ms.sort_by(f64::total_cmp);
    if let (Some(min), Some(max)) = (op_ms.first(), op_ms.last()) {
        eprintln!(
            "{}: {} ops, {batches} batches, {} units in {busy_s:.3} s ({:.1}/s overall); \
             {} op times: min {min:.4} ms, median {:.4} ms, max {max:.4} ms",
            W::NAME,
            s.attempted,
            s.units,
            s.units as f64 / busy_s,
            op_ms.len(),
            median(&op_ms),
        );
    }

    state.verify(&mut t, &mut s);
    if s.attempted == 0 {
        s.fail("no op finished inside the timed section");
    }

    let metrics = if p.trace {
        state.probes(&mut t);
        let fastest = |ns: &[f64]| ns.iter().copied().min_by(f64::total_cmp);
        if let (Some(recorded), Some(plain)) = (fastest(&recorded_ns), fastest(&plain_ns)) {
            t.set("trace.overhead_pct", (recorded / plain - 1.0) * 100.0);
            t.set("run.op_p50_ms", median(&plain_ns) / 1e6);
        }
        t.set(
            "trace.child_cover_pct",
            child_cover(t.spans(), W::OP_SPAN) * 100.0,
        );
        per_layer_metrics(&t)
    } else {
        let values = BTreeMap::from([
            ("setup_s", setup_s),
            ("work_per_s", best_rate),
            ("op_min_ms", op_ms.first().copied().unwrap_or(0.0)),
            ("peak_rss_mb", peak_rss_mb),
        ]);
        END_TO_END
            .iter()
            .map(|d| (d.name, values[d.name], d.unit))
            .collect()
    };
    drop(state);

    RunResult {
        correct: s.failed == 0,
        attempted: s.attempted,
        failed: s.failed,
        failures: s.failures,
        metrics,
        trace_json: p.trace.then(|| t.to_json(W::NAME)),
    }
}

/// Every per-layer metric, from the tracer: a `_ms` row is the median
/// duration of the spans named like it, any other row the value set
/// under its name; 0 where this workload recorded neither.
fn per_layer_metrics(t: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|d| {
            let from_spans = d
                .name
                .strip_suffix("_ms")
                .and_then(|span| t.median_ms(span));
            let value = from_spans.or_else(|| t.value(d.name)).unwrap_or(0.0);
            (d.name, value, d.unit)
        })
        .collect()
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not there).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
