//! Spans recorded from the benchmark's own files, around its calls into
//! each layer. Kept in memory during the run and written out once at the
//! end; nothing inside `crates/` is instrumented.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `logfmt.frame.decode_daily`.
    pub name: Cow<'static, str>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Operation the span belongs to; spans of one op share it (0 is
    /// set-up and the layer probes, outside any op).
    pub op: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans beyond this many are counted, not kept: a request-level trace
/// of the serving workloads would otherwise run to millions of rows.
pub const MAX_SPANS: usize = 1 << 18;

/// The in-memory span and value recorder of one run.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    ops_started: u32,
    values: BTreeMap<&'static str, f64>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`; a disabled one runs every
    /// closure untimed, so the untraced pass pays nothing for it.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            recording: enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            ops_started: 0,
            values: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Pauses or resumes recording on an enabled tracer. The traced run
    /// alternates recorded and unrecorded batches to measure what
    /// recording itself costs.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends a span under whichever span is open, unless recording is
    /// off or [`MAX_SPANS`] are already held.
    fn push(&mut self, name: Cow<'static, str>, start: Instant, end: Instant) -> Option<u32> {
        if !self.recording {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Runs `f` inside a span called `name`, child of whichever span is
    /// open.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let start = Instant::now();
        let Some(idx) = self.push(name.into(), start, start) else {
            return f(self);
        };
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.ns(Instant::now());
        out
    }

    /// Runs `f` as one operation: a span called `name` whose descendants
    /// all carry a fresh op id.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        self.ops_started += 1;
        self.op = self.ops_started;
        let out = self.span(name, f);
        self.op = 0;
        out
    }

    /// Records an interval measured elsewhere (on another thread) as a
    /// finished child of the open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.push(Cow::Borrowed(name), start, end);
    }

    /// Records a count or rate taken at a layer boundary (last write
    /// wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.values.insert(name, value);
        }
    }

    /// The value recorded under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration in milliseconds of the spans called `name`, or
    /// `None` when the run recorded none.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let d = self.durations_ms(name);
        (!d.is_empty()).then(|| crate::stats::median(&d))
    }

    /// The trace document: every span with its self time, and the values.
    pub fn to_json(&self, workload: &str) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"dropped_spans\": {}, \"values\": {{",
            self.dropped
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        out.push_str("}, \"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"self_ns\": {own}}}",
                s.name, s.start_ns, s.end_ns, s.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children running in parallel overlap, so the
/// cover is the length of their union, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Share of the op spans' time that their direct children cover, over
/// all spans called `op_name` — how much of an op the per-layer spans
/// explain.
pub fn child_cover(spans: &[Span], op_name: &str) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.name == op_name {
            total += s.duration_ns();
            uncovered += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}
