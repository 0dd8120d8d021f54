//! `serve_hot`: steady-state serving capacity.
//!
//! Every window is cached before the clock starts, so `serve::{wire,
//! pipe, server}` admission and the engine's hit path do all the work,
//! compose and the builders none. A change that only helps misses must
//! move nothing here.

use super::serving::{batch_datasets, day_logs, Answer, Reference, Serving, IN_FLIGHT};
use super::{Params, Samples, Workload};
use crate::inputs::{RequestStream, SplitMix};
use crate::stats::{median, nearest_rank, tail_percentile};
use crate::trace::Tracer;
use ipactive_cdnsim::Universe;
use ipactive_core::QueryBudget;
use ipactive_net::ActiveSet;
use ipactive_obs::{SnapshotMode, TraceContext};
use ipactive_serve::wire::{read_request, read_response, write_request, write_response};
use ipactive_serve::{DayLog, QueryKind, Request};
use std::hint::black_box;
use std::time::Instant;

/// Requests per batch, about 35 ms of serving: the driver looks at the
/// clock between batches, and the fastest batch is the reported rate.
/// Short batches find the moments the shared host leaves the server
/// alone: over ten runs the best rate of 16,384 requests spread 7.7 %,
/// of 65,536 (the same batches taken four at a time) 12.7 %.
const BATCH: u64 = 1 << 14;

/// One answer in this many is kept and held against the reference.
const CHECK_EVERY: u64 = 4096;

/// One recorded round trip in this many, in the traced run: a span per
/// request would be millions of rows.
const SPAN_EVERY: u64 = 64;

/// A warm server, the request stream, and the answers kept for checking.
pub struct ServeHot {
    serving: Serving,
    logs: Vec<DayLog>,
    stream: RequestStream,
    kept: Vec<(QueryKind, u64)>,
    answered: u64,
    /// Round-trip times of the batch under way. One buffer, reused: a
    /// faster server fills more batches, not more memory, so
    /// `peak_rss_mb` does not rise with the request rate.
    latency_ns: Vec<u64>,
    /// p99 round trip of every finished batch.
    batch_p99_ns: Vec<f64>,
}

impl ServeHot {
    fn tally(&mut self, answer: Answer, t: &mut Tracer, s: &mut Samples) {
        self.latency_ns.push(answer.latency_ns);
        s.attempted += 1;
        s.units += 1;
        if let Some(fault) = answer.fault {
            s.fail(format!("serve_hot: {fault}"));
        }
        if self.answered.is_multiple_of(CHECK_EVERY) {
            self.kept.push((answer.kind, answer.response.value));
        }
        if self.answered.is_multiple_of(SPAN_EVERY) {
            t.add("serve_hot.round_trip", answer.sent, Instant::now());
        }
        self.answered += 1;
    }

    /// Turns the round trips gathered since the last call into one
    /// op-time sample (their median) and one p99.
    fn close_batch(&mut self, s: &mut Samples) {
        let n = self.latency_ns.len();
        // p99 needs ten samples beyond it, as every tail percentile does.
        if tail_percentile(n).is_none_or(|p| p < 0.99) {
            return;
        }
        let (p50, p99) = (nearest_rank(n, 0.5), nearest_rank(n, 0.99));
        self.batch_p99_ns
            .push(*self.latency_ns.select_nth_unstable(p99).1 as f64);
        s.op_ns
            .push(*self.latency_ns[..p99].select_nth_unstable(p50).1);
        self.latency_ns.clear();
    }

    /// Requests per second of a stream of `kinds` at the usual number
    /// outstanding (the pipeline is drained first and left drained).
    fn rate(&mut self, kinds: impl Iterator<Item = QueryKind>) -> f64 {
        while self.serving.receive().is_some() {}
        let t0 = Instant::now();
        let mut n = 0u64;
        for kind in kinds {
            self.serving.submit(kind);
            n += 1;
        }
        while self.serving.receive().is_some() {}
        n as f64 / t0.elapsed().as_secs_f64()
    }
}

impl Workload for ServeHot {
    const NAME: &'static str = "serve_hot";
    const OP_SPAN: &'static str = "serve_hot.batch";

    fn setup(p: &Params, t: &mut Tracer) -> Self {
        let universe = Universe::generate(p.universe.clone());
        let logs = day_logs(&universe, t);
        let serving = Serving::start();
        let snap = t.span("serve.observatory.bulk_ingest", |_| {
            serving.observatory.ingest_days(logs.clone())
        });
        // Shorter windows first: each longer one then composes from a
        // cached prefix and one more unit.
        t.span("serve.observatory.warm_all_windows", |_| {
            for (units, is_days) in [(snap.days(), true), (snap.weeks(), false)] {
                for len in 1..=units {
                    for start in 0..=units - len {
                        if is_days {
                            snap.engine().day_window(start..start + len);
                        } else {
                            snap.engine().week_window(start..start + len);
                        }
                    }
                }
            }
            snap.density();
        });
        let blocks = snap.engine().all_active().blocks24();
        let stream = RequestStream::new(p.seed, snap.days(), snap.weeks(), blocks);
        ServeHot {
            serving,
            logs,
            stream,
            kept: Vec::new(),
            answered: 0,
            latency_ns: Vec::with_capacity(BATCH as usize + IN_FLIGHT),
            batch_p99_ns: Vec::new(),
        }
    }

    /// A batch of [`BATCH`] requests; the pipeline stays full from one
    /// batch to the next, so there is no ramp inside the timed section.
    /// The batch's median round trip is its one op-time sample.
    fn batch(&mut self, t: &mut Tracer, s: &mut Samples) -> bool {
        t.op(Self::OP_SPAN, |t| {
            for _ in 0..BATCH {
                let kind = self.stream.next().expect("the stream is endless");
                if let Some(answer) = self.serving.submit(kind) {
                    self.tally(answer, t, s);
                }
            }
        });
        self.close_batch(s);
        true
    }

    /// Drains the pipeline, then: the server executed exactly what was
    /// sent, and the kept answers equal the reference engine's.
    fn verify(&mut self, t: &mut Tracer, s: &mut Samples) {
        while let Some(answer) = self.serving.receive() {
            self.tally(answer, t, s);
        }
        let (sent, executed) = (self.serving.sent(), self.serving.executed());
        if sent != executed || sent != s.attempted {
            s.fail(format!(
                "serve_hot: {sent} requests sent, {executed} executed, {} answered",
                s.attempted
            ));
        }
        t.set("serve.server.executed", executed as f64);
        let reference = Reference::new(batch_datasets(&self.logs, t));
        for &(kind, value) in &self.kept {
            let want = reference.answer(kind);
            if value != want {
                s.fail(format!(
                    "serve_hot: {kind:?} answered {value}, the reference says {want}"
                ));
            }
        }
        if !self.batch_p99_ns.is_empty() {
            t.set("serve.client.op_p99_ms", median(&self.batch_p99_ns) / 1e6);
        }
    }

    fn probes(&mut self, t: &mut Tracer) {
        let snapshot = self.serving.registry.snapshot(SnapshotMode::Deterministic);
        t.set("serve.server.shed", snapshot.counter("serve.shed") as f64);
        t.set(
            "serve.server.degraded",
            snapshot.counter("serve.degraded") as f64,
        );
        t.set(
            "serve.server.deadline_exceeded",
            snapshot.counter("serve.deadline") as f64,
        );

        // Wire codec: one frame written to and read back from memory.
        const CODEC_REPS: u32 = 200_000;
        let mut buf = Vec::with_capacity(128);
        let request = Request {
            id: 1 << 20,
            kind: QueryKind::DayWindow { start: 0, end: 2 },
            budget_ms: 0,
            allow_degraded: false,
            trace: TraceContext::NONE,
        };
        let t0 = Instant::now();
        for _ in 0..CODEC_REPS {
            buf.clear();
            write_request(&mut buf, &request).expect("Vec writer cannot fail");
            black_box(read_request(&mut &buf[..]).expect("own frame decodes"));
        }
        t.set(
            "serve.wire.request_codec_ns",
            t0.elapsed().as_nanos() as f64 / CODEC_REPS as f64,
        );
        self.serving.submit(request.kind);
        let response = self
            .serving
            .receive()
            .expect("one request is outstanding")
            .response;
        let t0 = Instant::now();
        for _ in 0..CODEC_REPS {
            buf.clear();
            write_response(&mut buf, &response).expect("Vec writer cannot fail");
            black_box(read_response(&mut &buf[..]).expect("own frame decodes"));
        }
        t.set(
            "serve.wire.response_codec_ns",
            t0.elapsed().as_nanos() as f64 / CODEC_REPS as f64,
        );

        // Single-kind streams: `Status` does no engine work, so its rate
        // is the ceiling wire + admission + threads impose.
        const STREAM: usize = 1 << 18;
        let mixed = self.stream.clone();
        let windows = mixed
            .clone()
            .filter(|k| matches!(k, QueryKind::DayWindow { .. }));
        let prefixes = mixed.filter(|k| matches!(k, QueryKind::PrefixCount { .. }));
        let rate = self.rate(windows.take(STREAM));
        t.set("serve.server.window_hit_per_s", rate);
        let rate = self.rate(prefixes.take(STREAM));
        t.set("serve.server.prefix_count_per_s", rate);
        let rate = self.rate(std::iter::repeat_n(QueryKind::Status, STREAM));
        t.set("serve.server.status_per_s", rate);

        // The engine's hit path alone, on the pinned snapshot.
        const HITS: u64 = 1 << 20;
        let snap = self.serving.observatory.pin();
        let budget = QueryBudget::unlimited();
        let mut rng = SplitMix(0x417);
        let t0 = Instant::now();
        for _ in 0..HITS {
            let (start, end) = rng.window(snap.days() as u64);
            let set = snap
                .engine()
                .day_window_within(start as usize..end as usize, &budget);
            black_box(set.expect("unlimited budget").len());
        }
        t.set(
            "core.engine.window_hit_ns",
            t0.elapsed().as_nanos() as f64 / HITS as f64,
        );

        let json = t.span("obs.snapshot", |_| {
            self.serving
                .registry
                .snapshot(SnapshotMode::Timed)
                .to_json()
        });
        t.set("obs.snapshot_bytes", json.len() as f64);
    }
}
