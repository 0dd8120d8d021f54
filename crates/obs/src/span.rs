//! RAII scoped timing spans aggregated into a parent/child tree.
//!
//! A span opened while another span is open *on the same thread*
//! nests under it: the tree key is the `/`-joined path of open span
//! names (`repro/fig4a/pipeline`). Each distinct path aggregates call
//! count, total, min, and max wall time — a profile, not a trace, so
//! memory stays bounded no matter how hot the loop.
//!
//! Spans measure wall time and therefore live only in
//! [`SnapshotMode::Timed`](crate::SnapshotMode::Timed) snapshots; the
//! deterministic mode strips them (see the crate docs for the
//! contract).

use crate::Registry;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Maximum nesting depth a span path may reach; deeper spans fold
/// into their ancestor's [`FOLD`] bucket.
pub const MAX_DEPTH: usize = 16;

/// Maximum direct children one span path may grow; further *new*
/// sibling names fold into the parent's [`FOLD`] bucket (existing
/// paths keep aggregating normally).
pub const MAX_CHILDREN: usize = 64;

/// The synthetic leaf name that over-deep or over-wide span trees
/// aggregate under. Every fold bumps the `span.truncated` counter, so
/// pathological nesting degrades to one bucket plus a count — never
/// to unbounded memory.
pub const FOLD: &str = "...";

/// Aggregated timing for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Times this path was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Fastest single entry, nanoseconds.
    pub min_ns: u64,
    /// Slowest single entry, nanoseconds.
    pub max_ns: u64,
}

impl Default for SpanStat {
    fn default() -> SpanStat {
        SpanStat { count: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }
}

impl SpanStat {
    pub(crate) fn record(&mut self, elapsed_ns: u64) {
        self.count += 1;
        self.total_ns += elapsed_ns;
        self.min_ns = self.min_ns.min(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
    }
}

/// An open timing span; dropping it records one observation under its
/// path. Created by [`Registry::span`]. Guards must drop in LIFO order
/// (which scoped `let` bindings guarantee).
pub struct Span {
    registry: Registry,
    path: String,
    truncated: bool,
    start: Instant,
}

impl Span {
    pub(crate) fn open(registry: Registry, name: String) -> Span {
        let (path, truncated) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (path, truncated) = match stack.last() {
                // Past the depth cap the span folds into the parent's
                // `...` bucket; once the parent *is* a fold bucket,
                // deeper spans reuse it so runaway recursion costs one
                // path, not one per level.
                Some(parent_path) if stack.len() >= MAX_DEPTH => {
                    let path = if parent_path.rsplit('/').next() == Some(FOLD) {
                        parent_path.clone()
                    } else {
                        format!("{parent_path}/{FOLD}")
                    };
                    (path, true)
                }
                Some(parent_path) => (format!("{parent_path}/{name}"), false),
                None => (name, false),
            };
            stack.push(path.clone());
            (path, truncated)
        });
        Span { registry, path, truncated, start: Instant::now() }
    }

    /// The `/`-joined path this span records under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        if self.truncated {
            self.registry.counter("span.truncated").inc();
        }
        self.registry.record_span(&self.path, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnapshotMode;

    #[test]
    fn spans_nest_by_thread_stack() {
        let reg = Registry::new();
        {
            let _outer = reg.span("suite");
            {
                let _inner = reg.span("fig1");
                let _leaf = reg.span("pipeline");
            }
            let _inner2 = reg.span("fig2");
        }
        let snap = reg.snapshot(SnapshotMode::Timed);
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["suite", "suite/fig1", "suite/fig1/pipeline", "suite/fig2"]);
    }

    #[test]
    fn repeated_entries_aggregate() {
        let reg = Registry::new();
        for _ in 0..10 {
            let _s = reg.span("hot");
        }
        let snap = reg.snapshot(SnapshotMode::Timed);
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.count, 10);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
    }

    #[test]
    fn pathological_depth_folds_into_one_bucket() {
        fn recurse(reg: &Registry, depth: usize) {
            if depth == 0 {
                return;
            }
            let _s = reg.span("deep");
            recurse(reg, depth - 1);
        }
        let reg = Registry::new();
        recurse(&reg, 40);
        let snap = reg.snapshot(SnapshotMode::Timed);
        assert_eq!(
            snap.spans.len(),
            MAX_DEPTH + 1,
            "{MAX_DEPTH} real levels plus exactly one fold bucket"
        );
        let fold = snap.spans.iter().find(|s| s.path.ends_with(FOLD)).expect("fold bucket");
        assert_eq!(fold.count, (40 - MAX_DEPTH) as u64, "every over-deep entry aggregates");
        assert_eq!(
            snap.counter("span.truncated"),
            (40 - MAX_DEPTH) as u64,
            "truncation is counted, not silent"
        );
    }

    #[test]
    fn pathological_fanout_folds_new_children() {
        let reg = Registry::new();
        {
            let _parent = reg.span("parent");
            for i in 0..100 {
                let _c = reg.span(format!("child{i:03}"));
            }
        }
        let snap = reg.snapshot(SnapshotMode::Timed);
        assert_eq!(
            snap.spans.len(),
            1 + MAX_CHILDREN + 1,
            "parent, {MAX_CHILDREN} real children, one fold bucket"
        );
        let fold = snap.spans.iter().find(|s| s.path == format!("parent/{FOLD}")).unwrap();
        assert_eq!(fold.count, 100 - MAX_CHILDREN as u64);
        assert_eq!(snap.counter("span.truncated"), 100 - MAX_CHILDREN as u64);
        // An established path keeps aggregating even once the parent
        // is at cap.
        {
            let _parent = reg.span("parent");
            let _c = reg.span("child000");
        }
        let snap = reg.snapshot(SnapshotMode::Timed);
        let c0 = snap.spans.iter().find(|s| s.path == "parent/child000").unwrap();
        assert_eq!(c0.count, 2);
        assert_eq!(snap.counter("span.truncated"), 100 - MAX_CHILDREN as u64);
    }

    #[test]
    fn sibling_threads_root_their_own_stacks() {
        let reg = Registry::new();
        let _outer = reg.span("main");
        std::thread::scope(|scope| {
            let reg = reg.clone();
            scope.spawn(move || {
                let _worker = reg.span("worker");
            });
        });
        let snap = reg.snapshot(SnapshotMode::Timed);
        assert!(
            snap.spans.iter().any(|s| s.path == "worker"),
            "a span on a fresh thread roots at top level, not under main"
        );
    }
}
