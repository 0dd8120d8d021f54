//! Unified observability plane for the ipactive workspace.
//!
//! Every subsystem of the reproduction — the sharded pipeline, the
//! self-healing supervisor, the crash-consistent log store, and the
//! memoized analysis engine — answers the same three operator
//! questions through this crate:
//!
//! 1. **What did the run do?** — the [`Registry`] holds sharded-atomic
//!    [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s under
//!    hierarchical dotted names (`pipeline.shard.3.records`,
//!    `store.fsync`, `engine.cache.hit`).
//! 2. **Where did the time go?** — RAII scoped spans
//!    ([`Registry::span`]) aggregate wall time per stage into a
//!    parent/child tree with call counts and min/max/total, rendered
//!    as an indented profile.
//! 3. **What got dropped?** — a bounded lock-free [`Journal`] of
//!    structured [`Event`]s (retry, quarantine, resync,
//!    crash-recovery, cache-bypass, fsck verdicts) with
//!    shard/day/offset provenance.
//!
//! All three drain into one [`Snapshot`], renderable as a sorted JSON
//! document. The **determinism contract**: a
//! [`SnapshotMode::Deterministic`] snapshot contains only quantities
//! that are functions of the input data and seeds — never of thread
//! scheduling or wall time — so its JSON is byte-identical run-to-run
//! and across worker counts. Wall time lives exclusively in the span
//! tree, which a deterministic snapshot strips.
//!
//! The crate is dependency-free so even `logfmt` at the bottom of the
//! workspace stack can instrument itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod metrics;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use journal::{Event, EventKind, Journal};
pub use metrics::{Counter, Gauge, Histogram};
pub use snapshot::{HistogramSnapshot, Snapshot, SnapshotMode, SpanSnapshot};
pub use span::{Span, SpanStat};
pub use trace::{SpanRecord, TraceContext, TraceId};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Records per second, guarding the zero-elapsed case.
///
/// The single shared rate helper for every renderer in the workspace
/// (pipeline reports, supervised summaries, snapshot rendering): a
/// zero or sub-resolution elapsed time yields `0.0`, never `inf` or
/// `NaN`.
pub fn rate(count: u64, elapsed: std::time::Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// One SplitMix64 step: the workspace's seeded mixer for every
/// deterministic choice that must be a pure function of its inputs —
/// trace ids, chaos residues, retry jitter, fault sites, synthetic
/// load. (The simulator keeps its own inlined copy inside its kernel.)
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One observability domain: a namespace of metrics, a span tree, and
/// an event journal that snapshot together.
///
/// Cloning is cheap (an `Arc` bump) and clones share state, so a
/// registry can be handed across threads and layers freely. Handles
/// returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram)
/// are themselves cheap clones that bypass the name lookup — fetch
/// them once outside a hot loop.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    traces: Mutex<trace::TraceStore>,
    journal: Journal,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.inner.counters.lock().unwrap().len())
            .field("events", &self.inner.journal.len())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// A fresh registry whose journal holds at most 65 536 events;
    /// later events are counted as dropped, never reallocated.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(BTreeMap::new()),
                traces: Mutex::new(trace::TraceStore::default()),
                journal: Journal::with_capacity(1 << 16),
            }),
        }
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.into()).or_default().clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: impl Into<String>) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.into()).or_default().clone()
    }

    /// The histogram registered under `name`, creating it with the
    /// given inclusive upper bucket bounds on first use (an implicit
    /// overflow bucket catches everything beyond the last bound).
    /// Bounds passed for an already-registered name are ignored.
    pub fn histogram(&self, name: impl Into<String>, bounds: &[u64]) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        map.entry(name.into()).or_insert_with(|| Histogram::new(bounds)).clone()
    }

    /// Appends `event` to the run journal (drop-counted past
    /// capacity).
    pub fn emit(&self, event: Event) {
        self.inner.journal.emit(event);
    }

    /// The registry's event journal.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Opens an RAII timing span named `name`, nested under any span
    /// already open on this thread. Dropping the guard records one
    /// observation into the span tree.
    pub fn span(&self, name: impl Into<String>) -> Span {
        Span::open(self.clone(), name.into())
    }

    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64) {
        let mut truncated = false;
        {
            let mut spans = self.inner.spans.lock().unwrap();
            // A *new* path whose parent already carries MAX_CHILDREN
            // direct children folds into the parent's `...` bucket;
            // existing paths keep aggregating normally, so the scan
            // only runs on first sight of a path.
            let key = if spans.contains_key(path) {
                path.to_string()
            } else if let Some((parent, leaf)) = path.rsplit_once('/') {
                let prefix = format!("{parent}/");
                let children = spans
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .filter(|(k, _)| !k[prefix.len()..].contains('/'))
                    .count();
                if leaf != span::FOLD && children >= span::MAX_CHILDREN {
                    truncated = true;
                    format!("{parent}/{}", span::FOLD)
                } else {
                    path.to_string()
                }
            } else {
                path.to_string()
            };
            spans.entry(key).or_default().record(elapsed_ns);
        }
        if truncated {
            self.counter("span.truncated").inc();
        }
    }

    /// Records one structural [`SpanRecord`] under `ctx` in the trace
    /// store and returns the child context (the new span's position),
    /// for handing to deeper stages or across a process boundary.
    ///
    /// An absent context passes through untouched — `detail` is not
    /// even formatted, so a hot path may pass `format_args!` and pay
    /// for the string only when the request is traced. A capped record
    /// bumps `trace.truncated` / `trace.dropped` and returns `ctx`
    /// unchanged — tracing degrades to counters, never to unbounded
    /// memory.
    pub fn trace_span(
        &self,
        ctx: TraceContext,
        name: impl Into<String>,
        detail: impl std::fmt::Display,
    ) -> TraceContext {
        if ctx.is_none() {
            return ctx;
        }
        let outcome = self.inner.traces.lock().unwrap().record(ctx, name, detail.to_string());
        match outcome {
            trace::RecordOutcome::Recorded(seq) => TraceContext { trace: ctx.trace, span: seq },
            trace::RecordOutcome::SpanCapped => {
                self.counter("trace.truncated").inc();
                ctx
            }
            trace::RecordOutcome::TraceCapped => {
                self.counter("trace.dropped").inc();
                ctx
            }
        }
    }

    /// Merges externally exported spans (e.g. a worker process's trace
    /// file) into trace `trace`; idempotent by sequence number.
    /// Returns how many spans were added.
    pub fn import_trace(&self, trace: u64, spans: Vec<SpanRecord>) -> usize {
        self.inner.traces.lock().unwrap().import(trace, spans)
    }

    /// The spans recorded under `trace`, in sequence order.
    pub fn trace_spans(&self, trace: u64) -> Option<Vec<SpanRecord>> {
        self.inner.traces.lock().unwrap().spans(trace).map(<[SpanRecord]>::to_vec)
    }

    /// All recorded trace ids, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.inner.traces.lock().unwrap().ids()
    }

    /// One trace as a deterministic JSON document, if recorded.
    pub fn trace_json(&self, trace: u64) -> Option<String> {
        self.inner.traces.lock().unwrap().trace_json(trace)
    }

    /// Every recorded trace as one deterministic JSON document.
    pub fn traces_json(&self) -> String {
        self.inner.traces.lock().unwrap().traces_json()
    }

    /// Drains the registry into an immutable [`Snapshot`].
    ///
    /// [`SnapshotMode::Deterministic`] strips the span tree (the only
    /// wall-time-bearing section) so the rendered JSON is byte-stable
    /// across runs and worker counts; [`SnapshotMode::Timed`] keeps
    /// it. Snapshotting does not reset anything — it is a read.
    pub fn snapshot(&self, mode: SnapshotMode) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        let spans = match mode {
            SnapshotMode::Deterministic => Vec::new(),
            SnapshotMode::Timed => self
                .inner
                .spans
                .lock()
                .unwrap()
                .iter()
                .map(|(path, stat)| SpanSnapshot {
                    path: path.clone(),
                    count: stat.count,
                    total_ns: stat.total_ns,
                    min_ns: stat.min_ns,
                    max_ns: stat.max_ns,
                })
                .collect(),
        };
        let (events, events_dropped) = self.inner.journal.drain_sorted();
        Snapshot { mode, counters, gauges, histograms, events, events_dropped, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rate_guards_zero_elapsed() {
        assert_eq!(rate(1000, Duration::ZERO), 0.0);
        assert!(rate(0, Duration::ZERO) == 0.0);
        let r = rate(100, Duration::from_secs(2));
        assert!((r - 50.0).abs() < 1e-9);
        assert!(rate(u64::MAX, Duration::from_nanos(1)).is_finite());
    }

    #[test]
    fn handles_share_state_with_the_registry() {
        let reg = Registry::new();
        let c = reg.counter("pipeline.shard.0.records");
        c.add(41);
        reg.counter("pipeline.shard.0.records").inc();
        assert_eq!(c.get(), 42);
        let g = reg.gauge("engine.days");
        g.set(28);
        assert_eq!(reg.gauge("engine.days").get(), 28);
    }

    #[test]
    fn snapshot_orders_names_lexicographically() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        reg.counter("m.middle").inc();
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn deterministic_snapshot_is_byte_identical_across_thread_counts() {
        let run = |threads: usize| -> String {
            let reg = Registry::new();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let reg = reg.clone();
                    scope.spawn(move || {
                        let c = reg.counter("work.items");
                        // Each thread count splits the same 1200 total
                        // increments differently.
                        for _ in 0..(1200 / threads) {
                            c.inc();
                        }
                        let _guard = reg.span("work");
                        reg.emit(
                            Event::new(EventKind::Retry).shard(t as u32).detail("transient"),
                        );
                    });
                }
            });
            // Same four events regardless of which threads existed.
            for t in threads..4 {
                reg.emit(Event::new(EventKind::Retry).shard(t as u32).detail("transient"));
            }
            reg.snapshot(SnapshotMode::Deterministic).to_json()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        assert!(!one.contains("\"spans\": ["), "deterministic mode must strip spans");
    }

    #[test]
    fn trace_spans_thread_contexts_through_the_registry() {
        let reg = Registry::new();
        let trace = TraceId::mint(7, 0);
        let root = reg.trace_span(TraceContext::root(trace), "client.request", "id 0");
        assert_eq!(root.span, 1);
        let child = reg.trace_span(root, "serve.admission", "day_window");
        assert_eq!(child.span, 2);
        assert_eq!(
            reg.trace_span(TraceContext::NONE, "ignored", ""),
            TraceContext::NONE,
            "untraced requests pass through"
        );
        let doc = reg.trace_json(trace.0).unwrap();
        assert!(doc.contains("serve.admission"));
        assert_eq!(reg.trace_ids(), vec![trace.0]);
        // Trace records live outside snapshots: the deterministic
        // metrics document is unchanged by recording them.
        let json = reg.snapshot(SnapshotMode::Deterministic).to_json();
        assert!(!json.contains("client.request"));
    }

    #[test]
    fn trace_detail_is_formatted_only_for_traced_requests() {
        struct Probe<'a>(&'a std::cell::Cell<bool>);
        impl std::fmt::Display for Probe<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(true);
                f.write_str("probed")
            }
        }
        let reg = Registry::new();
        let formatted = std::cell::Cell::new(false);
        reg.trace_span(TraceContext::NONE, "serve.answer", Probe(&formatted));
        assert!(!formatted.get(), "an untraced request must not pay for its detail string");
        let trace = TraceId::mint(7, 1);
        reg.trace_span(TraceContext::root(trace), "serve.answer", Probe(&formatted));
        assert!(formatted.get());
        assert_eq!(reg.trace_spans(trace.0).unwrap()[0].detail, "probed");
    }
}
