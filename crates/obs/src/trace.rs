//! Distributed trace capture: per-request/per-grant trace contexts,
//! bounded structural span records, and deterministic JSON documents
//! that a coordinator or observatory can stitch across processes.
//!
//! The tracing plane deliberately records **structure, not time**: a
//! [`SpanRecord`] carries a sequence number, a parent link, a stage
//! name, and a request-derived detail string — never a latency, a
//! cache verdict, or a thread id. That is what lets trace documents
//! participate in the same byte-identical determinism contract as
//! [`SnapshotMode::Deterministic`](crate::SnapshotMode::Deterministic)
//! snapshots: the same seeds and inputs produce the same trace bytes
//! whatever the worker count. Wall time links back to a trace through
//! histogram *exemplars* (see [`crate::metrics::Histogram`]), which
//! live only in timed snapshots.
//!
//! Cross-process stitching works through [`TraceContext`]: the parent
//! process records a root span, ships `(trace_id, span_seq)` over its
//! boundary (wire frame or CLI flag), and the child process numbers
//! its own spans *after* the parent's (`next = max(last, parent) + 1`)
//! so a later [`TraceStore::import`] interleaves both sides into one
//! ordered tree without renumbering.

use std::collections::BTreeMap;

/// Hard cap on distinct traces retained by one [`TraceStore`]; later
/// traces are counted as dropped, never allocated.
pub const MAX_TRACES: usize = 1024;

/// Hard cap on spans retained per trace; later spans are counted as
/// truncated.
pub const MAX_SPANS_PER_TRACE: usize = 128;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 64-bit trace identifier. Zero is reserved for "no trace".
///
/// Minted deterministically from a seed and a unit number (request
/// index, grant holder id, shard) — never from a clock or an RNG — so
/// reruns of the same workload mint the same ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace id.
    pub const NONE: TraceId = TraceId(0);

    /// Deterministically mints a non-zero id from `(seed, unit)` via
    /// a splitmix64 finalizer. Distinct salts on `seed` keep id
    /// populations from different layers (loadgen, coordinator,
    /// figures) disjoint in practice.
    pub fn mint(seed: u64, unit: u64) -> TraceId {
        let id = splitmix(seed ^ splitmix(unit.wrapping_add(1)));
        TraceId(if id == 0 { 1 } else { id })
    }

    /// Whether this is the reserved absent id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The canonical 16-digit lowercase hex form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the canonical hex form (also accepts shorter strings).
    pub fn from_hex(s: &str) -> Option<TraceId> {
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// A propagatable position inside a trace: the trace id plus the
/// sequence number of the span that new child spans should hang off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this context belongs to ([`TraceId::NONE`] when the
    /// request is untraced).
    pub trace: TraceId,
    /// Sequence number of the parent span (0 = the trace root).
    pub span: u64,
}

impl TraceContext {
    /// The absent context (untraced request).
    pub const NONE: TraceContext = TraceContext { trace: TraceId::NONE, span: 0 };

    /// A context at the root of `trace`.
    pub fn root(trace: TraceId) -> TraceContext {
        TraceContext { trace, span: 0 }
    }

    /// Whether this context carries no trace.
    pub fn is_none(self) -> bool {
        self.trace.is_none()
    }
}

/// One recorded span: structural provenance only, per the module
/// contract — no wall time, no thread ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Per-trace sequence number (1-based; 0 is the implicit root).
    pub seq: u64,
    /// Sequence number of the parent span (0 = root).
    pub parent: u64,
    /// Stage name (`serve.admission`, `engine.compose`, ...).
    pub name: String,
    /// Request-derived deterministic detail (`days 0..10`).
    pub detail: String,
}

/// What [`TraceStore::record`] did with a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// Recorded; carries the assigned sequence number.
    Recorded(u64),
    /// The trace hit [`MAX_SPANS_PER_TRACE`]; the span was dropped.
    SpanCapped,
    /// The store hit [`MAX_TRACES`]; a new trace was refused.
    TraceCapped,
}

/// Bounded per-registry store of span records, keyed by trace id.
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: BTreeMap<u64, Vec<SpanRecord>>,
}

impl TraceStore {
    /// Records one span under `ctx`, assigning it the next sequence
    /// number after both the trace's last span and the context's
    /// parent span (so spans imported later from a child process that
    /// continued the numbering slot in between without collision).
    pub fn record(
        &mut self,
        ctx: TraceContext,
        name: impl Into<String>,
        detail: impl Into<String>,
    ) -> RecordOutcome {
        if ctx.is_none() {
            return RecordOutcome::TraceCapped;
        }
        if !self.traces.contains_key(&ctx.trace.0) && self.traces.len() >= MAX_TRACES {
            return RecordOutcome::TraceCapped;
        }
        let spans = self.traces.entry(ctx.trace.0).or_default();
        if spans.len() >= MAX_SPANS_PER_TRACE {
            return RecordOutcome::SpanCapped;
        }
        let last = spans.last().map(|s| s.seq).unwrap_or(0);
        let seq = last.max(ctx.span) + 1;
        spans.push(SpanRecord {
            seq,
            parent: ctx.span,
            name: name.into(),
            detail: detail.into(),
        });
        RecordOutcome::Recorded(seq)
    }

    /// Merges externally exported spans into trace `trace`, keeping
    /// the result sorted by sequence number. Import is idempotent:
    /// a span whose `seq` is already present is skipped, so a trace
    /// file can be re-read after a partial import (or alongside spans
    /// the local process already recorded through a shared registry)
    /// without duplication. Returns how many spans were added.
    pub fn import(&mut self, trace: u64, spans: Vec<SpanRecord>) -> usize {
        if trace == 0 || spans.is_empty() {
            return 0;
        }
        if !self.traces.contains_key(&trace) && self.traces.len() >= MAX_TRACES {
            return 0;
        }
        let existing = self.traces.entry(trace).or_default();
        let mut added = 0;
        for span in spans {
            if existing.len() >= MAX_SPANS_PER_TRACE {
                break;
            }
            if existing.iter().any(|s| s.seq == span.seq) {
                continue;
            }
            existing.push(span);
            added += 1;
        }
        if added > 0 {
            existing.sort_by_key(|s| s.seq);
        }
        added
    }

    /// The spans of `trace`, in sequence order, if it exists.
    pub fn spans(&self, trace: u64) -> Option<&[SpanRecord]> {
        self.traces.get(&trace).map(Vec::as_slice)
    }

    /// All trace ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.traces.keys().copied().collect()
    }

    /// Renders one trace as a deterministic JSON document (trailing
    /// newline), or `None` if the trace is unknown.
    pub fn trace_json(&self, trace: u64) -> Option<String> {
        let spans = self.traces.get(&trace)?;
        let mut out = String::with_capacity(256);
        render_trace(&mut out, trace, spans, "");
        out.push('\n');
        Some(out)
    }

    /// Renders every trace, ascending by id, as one deterministic
    /// JSON document (trailing newline).
    pub fn traces_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"traces\": [");
        let mut first = true;
        for (trace, spans) in &self.traces {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            render_trace(&mut out, *trace, spans, "    ");
        }
        out.push_str(if first { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }
}

fn render_trace(out: &mut String, trace: u64, spans: &[SpanRecord], indent: &str) {
    out.push_str(&format!("{{\"trace_id\": \"{:016x}\", \"spans\": [", trace));
    let mut first = true;
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n{indent}  {{\"seq\": {}, \"parent\": {}, \"name\": {}, \"detail\": {}}}",
            s.seq,
            s.parent,
            crate::snapshot::json_string(&s.name),
            crate::snapshot::json_string(&s.detail),
        ));
    }
    if first {
        out.push_str("]}");
    } else {
        out.push_str(&format!("\n{indent}]}}"));
    }
}

/// Parses a trace document in either shape the system writes — one
/// trace object (`{"trace_id": hex, "spans": [...]}`, what
/// [`TraceStore::trace_json`] renders and a worker exports) or the
/// `{"traces": [...]}` wrapper of [`TraceStore::traces_json`] — into
/// its `(trace_id, spans)` pairs, in document order.
///
/// Every malformed input is an `Err`; nothing panics. Integers travel
/// as JSON numbers, so sequence numbers are exact up to 2^53.
pub fn parse_traces(doc: &str) -> Result<Vec<(u64, Vec<SpanRecord>)>, String> {
    use crate::json::Json;
    let value = crate::json::parse(doc).map_err(|e| e.to_string())?;
    let one = |v: &Json| -> Result<(u64, Vec<SpanRecord>), String> {
        let trace = v
            .get("trace_id")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing or malformed trace_id")?;
        let spans = v
            .get("spans")
            .and_then(Json::as_array)
            .ok_or("missing spans array")?
            .iter()
            .map(|s| {
                let num = |key: &str| {
                    s.get(key)
                        .and_then(Json::as_f64)
                        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                        .map(|n| n as u64)
                        .ok_or_else(|| format!("span missing integer `{key}`"))
                };
                let text = |key: &str| {
                    s.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("span missing string `{key}`"))
                };
                Ok(SpanRecord {
                    seq: num("seq")?,
                    parent: num("parent")?,
                    name: text("name")?,
                    detail: text("detail")?,
                })
            })
            .collect::<Result<Vec<SpanRecord>, String>>()?;
        Ok((trace, spans))
    };
    match value.get("traces") {
        Some(list) => list.as_array().ok_or("`traces` is not an array")?.iter().map(one).collect(),
        None => Ok(vec![one(&value)?]),
    }
}

/// [`parse_traces`] for a document that must hold exactly one trace (a
/// worker's exported trace file): `(trace_id, spans)`.
pub fn parse_trace_doc(doc: &str) -> Result<(u64, Vec<SpanRecord>), String> {
    let mut traces = parse_traces(doc)?;
    match traces.len() {
        1 => Ok(traces.remove(0)),
        n => Err(format!("expected one trace, found {n}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_deterministic_nonzero_and_unit_distinct() {
        let a = TraceId::mint(0xC4A05, 0);
        let b = TraceId::mint(0xC4A05, 1);
        assert_eq!(a, TraceId::mint(0xC4A05, 0), "same seed+unit mints the same id");
        assert_ne!(a, b);
        assert!(!a.is_none() && !b.is_none());
        assert_eq!(TraceId::from_hex(&a.to_hex()), Some(a), "hex round-trips");
    }

    #[test]
    fn record_numbers_after_parent_and_last() {
        let mut store = TraceStore::default();
        let trace = TraceId(7);
        let root = TraceContext::root(trace);
        let RecordOutcome::Recorded(s1) = store.record(root, "client.request", "") else {
            panic!("root span refused")
        };
        assert_eq!(s1, 1);
        // A child process told "your parent is span 1" numbers from 2
        // even though its local store is empty.
        let mut remote = TraceStore::default();
        let ctx = TraceContext { trace, span: s1 };
        let RecordOutcome::Recorded(s2) = store.record(ctx, "serve.admission", "day_window") else {
            panic!()
        };
        assert_eq!(s2, 2);
        let RecordOutcome::Recorded(r2) = remote.record(ctx, "worker.run", "shard 0") else {
            panic!()
        };
        assert_eq!(r2, 2, "remote numbering continues after the shipped parent seq");
    }

    #[test]
    fn import_is_idempotent_and_sorted() {
        let mut coord = TraceStore::default();
        let trace = TraceId(9);
        coord.record(TraceContext::root(trace), "coord.grant", "shard 0");
        let mut worker = TraceStore::default();
        worker.record(TraceContext { trace, span: 1 }, "worker.run", "");
        worker.record(TraceContext { trace, span: 2 }, "store.commit", "");
        let exported = worker.trace_json(trace.0).unwrap();
        let (tid, spans) = parse_trace_doc(&exported).unwrap();
        assert_eq!(tid, trace.0);
        assert_eq!(coord.import(tid, spans.clone()), 2);
        assert_eq!(coord.import(tid, spans), 0, "re-import adds nothing");
        let seqs: Vec<u64> = coord.spans(trace.0).unwrap().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        // Post-import recording continues after the imported spans.
        let RecordOutcome::Recorded(s) =
            coord.record(TraceContext { trace, span: 1 }, "coord.steal", "heartbeat stalled")
        else {
            panic!()
        };
        assert_eq!(s, 4);
    }

    #[test]
    fn caps_bound_memory() {
        let mut store = TraceStore::default();
        let trace = TraceId(3);
        for _ in 0..MAX_SPANS_PER_TRACE {
            assert!(matches!(
                store.record(TraceContext::root(trace), "s", ""),
                RecordOutcome::Recorded(_)
            ));
        }
        assert_eq!(store.record(TraceContext::root(trace), "s", ""), RecordOutcome::SpanCapped);
        for i in 1..MAX_TRACES as u64 {
            store.record(TraceContext::root(TraceId(1_000 + i)), "s", "");
        }
        assert_eq!(
            store.record(TraceContext::root(TraceId(999_999)), "s", ""),
            RecordOutcome::TraceCapped
        );
        assert!(matches!(
            store.record(TraceContext::root(trace), "s", ""),
            RecordOutcome::SpanCapped
        ));
    }

    #[test]
    fn untraced_context_is_refused_cheaply() {
        let mut store = TraceStore::default();
        assert_eq!(store.record(TraceContext::NONE, "s", ""), RecordOutcome::TraceCapped);
        assert!(store.ids().is_empty());
    }

    #[test]
    fn json_documents_parse_and_sort_by_id() {
        let mut store = TraceStore::default();
        store.record(TraceContext::root(TraceId(0xBEEF)), "b", "two");
        store.record(TraceContext::root(TraceId(0xABBA)), "a", "one \"quoted\"");
        let all = store.traces_json();
        let value = crate::json::parse(&all).expect("traces document parses");
        let traces = value.get("traces").unwrap().as_array().unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].get("trace_id").unwrap().as_str(), Some("000000000000abba"));
        assert_eq!(traces[1].get("trace_id").unwrap().as_str(), Some("000000000000beef"));
        assert_eq!(store.trace_json(0x5050), None);
        let one = store.trace_json(0xABBA).unwrap();
        let (tid, spans) = parse_trace_doc(&one).unwrap();
        assert_eq!(tid, 0xABBA);
        assert_eq!(spans[0].detail, "one \"quoted\"");
        // One parser, both shapes: the wrapper yields every trace in id
        // order, a bare trace object yields itself.
        let parsed = parse_traces(&all).unwrap();
        assert_eq!(parsed.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![0xABBA, 0xBEEF]);
        assert_eq!(parsed[0], (tid, spans));
        assert_eq!(parse_traces(&one).unwrap(), parsed[..1]);
        assert!(parse_trace_doc(&all).unwrap_err().contains("found 2"));
        assert!(parse_traces("{\"traces\": 7}").is_err());
    }

    #[test]
    fn empty_store_renders_an_empty_list() {
        let store = TraceStore::default();
        assert_eq!(store.traces_json(), "{\n  \"traces\": []\n}\n");
        crate::json::parse(&store.traces_json()).unwrap();
    }
}
