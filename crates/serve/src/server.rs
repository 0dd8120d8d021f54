//! The threaded query front-end: bounded admission, deadline budgets,
//! panic isolation, and honest degradation.
//!
//! Every request that reaches the server gets exactly one response,
//! and the response class is always truthful about what happened:
//!
//! * admission queue full → [`Status::Overloaded`], written
//!   immediately by the connection thread (the query never executes);
//! * window touching a partial feed or reaching past the ingested
//!   horizon → exact value over what exists, [`Status::Degraded`] with
//!   `coverage_ppm < 1_000_000`;
//! * worker panic → caught per query, journaled as `query_panic`, and
//!   the request is still answered (degraded, from the
//!   [`ipactive_net::PrefixDensity`] approximation, flagged
//!   `from_density`).
//!
//! No query composes a set, so none can outlast its budget: a window
//! is one lookup in the epoch's [`ipactive_core::WindowCensus`] and a
//! prefix count one in its density index, both exact. Nothing answers
//! [`Status::DeadlineExceeded`]; the status stays in the wire format.
//!
//! Nothing here returns a silently wrong answer: `Status::Ok` means
//! "exact over fully ingested, fully covered data", full stop.
//!
//! Between threads, work moves in batches and a thread parks only as
//! a last resort. A connection thread decodes every frame one wake of
//! its transport delivered ([`RequestReader`]), admits them into the
//! bounded queue under one lock (the head of the batch up to the free
//! depth, in arrival order; the rest is shed at once) and only then
//! blocks again; a worker takes its share of what is queued under one
//! lock and answers it job by job. Per request nothing is batched: its
//! own sequence number and chaos action, snapshot pin, panic boundary,
//! budget (started at execution), counters, latency observation, and
//! one response written the moment its answer is ready. Who waits for
//! whom, and when a wake-up is sent at all, is the crate-private
//! `handoff` module's business, shared with [`crate::pipe`].

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ipactive_core::{Cadence, Daily, Weekly, WindowCensus};
use ipactive_net::{Addr, Prefix, PrefixDensity};
use ipactive_obs::metrics::DECADE_BOUNDS;
use ipactive_obs::{Counter, Event, EventKind, Registry, SnapshotMode};

use crate::chaos::{ChaosAction, ChaosPlan};
use crate::handoff::Handoff;
use crate::observatory::{EpochSnapshot, Observatory};
use crate::slo::{SloMonitor, SloPolicy};
use crate::wire::{self, QueryKind, Request, RequestReader, Response, Status};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Query worker threads.
    pub workers: usize,
    /// Bounded admission queue depth; a full queue sheds load with
    /// explicit `Overloaded` responses instead of building backlog.
    pub queue_depth: usize,
    /// Deterministic fault-injection schedule.
    pub chaos: ChaosPlan,
    /// Declared SLO targets; `None` disables the windowed monitor.
    pub slo: Option<SloPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 2, queue_depth: 64, chaos: ChaosPlan::none(), slo: None }
    }
}

/// Panic payload for chaos-injected worker panics. Module-private so
/// only the chaos path can construct it; the quiet hook silences
/// exactly this payload and forwards every real panic.
struct InjectedQueryPanic;

/// Silences the default stderr backtrace for chaos-injected query
/// panics (they are expected and journaled); every other panic still
/// reaches the previous hook. Idempotent.
pub fn quiet_injected_query_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedQueryPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// One admitted query: the request plus the (frame-atomic) response
/// sink of the connection it arrived on.
struct Job {
    req: Request,
    out: Arc<Mutex<dyn Write + Send>>,
}

#[derive(Default)]
struct Queued {
    jobs: VecDeque<Job>,
    /// Jobs admitted since the server started.
    admitted: u64,
    /// Jobs one `take` hands out: an even split, between the workers,
    /// of what was queued when the last batch was admitted.
    share: usize,
    closed: bool,
}

/// The bounded queue between connection threads and workers. Jobs
/// cross it in batches — a connection admits everything one wake
/// delivered under one lock, a worker takes its share of what is
/// queued under one lock — and nobody is woken who is not parked
/// ([`Handoff`]).
///
/// The bound is on jobs *waiting*: admitted and not yet begun, whether
/// still queued or in a worker's share. A job a worker has taken frees
/// its place when the worker begins it, not when it is taken, so
/// taking in batches does not deepen the queue a request can wait in.
struct AdmissionQueue {
    queued: Handoff<Queued>,
    /// Jobs begun; each takes the next value as its sequence number.
    begun: AtomicU64,
    depth: usize,
    workers: usize,
}

impl AdmissionQueue {
    fn new(depth: usize, workers: usize) -> AdmissionQueue {
        AdmissionQueue {
            queued: Handoff::new(Queued::default()),
            begun: AtomicU64::new(0),
            depth,
            workers,
        }
    }

    /// Moves the head of `batch` into the queue, in arrival order, up
    /// to the free depth; what stays in `batch` found no room (or the
    /// queue closed) and is the caller's to shed.
    fn admit(&self, batch: &mut Vec<Job>) {
        self.queued.publish(|q| {
            if !q.closed {
                // A stale `begun` only makes the room look smaller.
                let waiting = q.admitted - self.begun.load(Ordering::SeqCst);
                let room = self.depth.saturating_sub(waiting as usize).min(batch.len());
                q.jobs.extend(batch.drain(..room));
                q.admitted += room as u64;
                q.share = q.jobs.len().div_ceil(self.workers);
            }
        });
    }

    /// Marks one taken job as begun — its place in the queue is free —
    /// and returns its sequence number among all jobs executed.
    fn begin(&self) -> u64 {
        self.begun.fetch_add(1, Ordering::SeqCst)
    }

    /// Waits for work and moves this worker's share of it — everything
    /// with one worker, an even split with more — into `share`, oldest
    /// first. `false` once the queue is closed *and* drained.
    fn take(&self, share: &mut Vec<Job>) -> bool {
        self.queued.wait(|q| {
            if q.jobs.is_empty() {
                return q.closed.then_some(false);
            }
            let n = q.share.min(q.jobs.len());
            share.extend(q.jobs.drain(..n));
            Some(true)
        })
    }

    /// Refuses all further admissions; workers drain what is queued
    /// and then see `take` return `false`.
    fn close(&self) {
        self.queued.publish(|q| q.closed = true);
    }
}

/// A counter whose handle is looked up the first time it counts and
/// kept from then on: the hot path pays no name lookup, and the
/// metrics document still lists a counter only once it has counted.
struct LazyCounter {
    name: &'static str,
    handle: OnceCell<Counter>,
}

impl LazyCounter {
    fn new(name: &'static str) -> LazyCounter {
        LazyCounter { name, handle: OnceCell::new() }
    }

    fn inc(&self, registry: &Registry) {
        self.handle.get_or_init(|| registry.counter(self.name)).inc();
    }
}

/// The always-on query front-end over one [`Observatory`].
pub struct Server {
    obs: Arc<Observatory>,
    queue: Arc<AdmissionQueue>,
    workers: Vec<JoinHandle<()>>,
    conns: Mutex<Vec<JoinHandle<()>>>,
    slo: Option<Arc<SloMonitor>>,
}

impl Server {
    /// Starts `config.workers` query workers over `obs`.
    pub fn start(obs: Arc<Observatory>, config: ServeConfig) -> Server {
        if config.chaos.panic_period != 0 {
            quiet_injected_query_panics();
        }
        let slo = config.slo.map(|policy| Arc::new(SloMonitor::new(policy, obs.registry())));
        let worker_count = config.workers.max(1);
        let queue = Arc::new(AdmissionQueue::new(config.queue_depth.max(1), worker_count));
        let workers = (0..worker_count)
            .map(|_| {
                let queue = queue.clone();
                let obs = obs.clone();
                let chaos = config.chaos;
                let slo = slo.clone();
                thread::spawn(move || worker_loop(queue, obs, chaos, slo))
            })
            .collect();
        Server { obs, queue, workers, conns: Mutex::new(Vec::new()), slo }
    }

    /// The observatory this server answers from.
    pub fn observatory(&self) -> &Arc<Observatory> {
        &self.obs
    }

    /// Queries executed so far (admitted and dequeued; shed requests
    /// never count).
    pub fn executed(&self) -> u64 {
        self.queue.begun.load(Ordering::SeqCst)
    }

    /// Attaches one client connection: `reader` carries request
    /// frames in, `writer` carries response frames out. Returns after
    /// spawning the connection thread; the thread exits when the
    /// client closes its write half.
    pub fn attach<R, W>(&self, reader: R, writer: W)
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let queue = self.queue.clone();
        let obs = self.obs.clone();
        let slo = self.slo.clone();
        let out: Arc<Mutex<dyn Write + Send>> = Arc::new(Mutex::new(writer));
        let handle = thread::spawn(move || connection_loop(reader, out, queue, obs, slo));
        self.conns.lock().expect("conn list poisoned").push(handle);
    }

    /// Shuts the server down: waits for attached connections to drain
    /// (they exit when their clients close), then stops and joins the
    /// workers. Call after client write halves are dropped.
    pub fn shutdown(self) {
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn list poisoned"));
        for c in conns {
            let _ = c.join();
        }
        self.queue.close(); // workers drain what is queued and exit
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Reads request frames off one connection a wake at a time: every
/// frame that has arrived is decoded, the batch is admitted into the
/// bounded queue under one lock, whatever found no room is shed with
/// an immediate `Overloaded` — and only then does the thread block on
/// the connection again.
fn connection_loop(
    reader: impl Read,
    out: Arc<Mutex<dyn Write + Send>>,
    queue: Arc<AdmissionQueue>,
    obs: Arc<Observatory>,
    slo: Option<Arc<SloMonitor>>,
) {
    let registry = obs.registry().clone();
    let requests = LazyCounter::new("serve.requests");
    let shed = LazyCounter::new("serve.shed");
    let mut reader = RequestReader::new(reader);
    let mut batch: Vec<Job> = Vec::new();
    loop {
        // Block for the first frame of a wake, then take those that
        // arrived with it out of the reader's buffer.
        let mut frame = reader.read();
        let eof = matches!(frame, Ok(None));
        while let Ok(Some(mut req)) = frame {
            requests.inc(&registry);
            // Admission is the first server-side span of a traced request;
            // downstream spans (answer, engine) hang off it.
            req.trace = registry.trace_span(req.trace, "serve.admission", req.kind.label());
            batch.push(Job { req, out: out.clone() });
            frame = reader.read_buffered();
        }
        queue.admit(&mut batch);
        for job in batch.drain(..) {
            // Load-shed (or server shutting down): explicit
            // Overloaded, never a dropped request.
            shed.inc(&registry);
            registry.emit(
                Event::new(EventKind::LoadShed).offset(job.req.id).detail("admission queue full"),
            );
            registry.trace_span(job.req.trace, "serve.shed", "admission queue full");
            if let Some(slo) = &slo {
                slo.record(Status::Overloaded, 0);
            }
            let resp = Response { status: Status::Overloaded, ..unanswered(&job.req, &obs.pin()) };
            write_locked(&job.out, &resp);
        }
        if frame.is_err() {
            // The stream is unsynchronized after a corrupt frame:
            // answer what we can attribute (id 0) and hang up.
            registry.counter("serve.bad_frames").inc();
            let resp = Response {
                id: 0,
                epoch: obs.pin().epoch(),
                status: Status::BadRequest,
                value: 0,
                coverage_ppm: 0,
                units_done: 0,
                units_total: 0,
                from_density: false,
                trace_id: 0,
                body: None,
            };
            write_locked(&out, &resp);
            return;
        }
        if eof {
            return;
        }
    }
}

fn write_locked(out: &Arc<Mutex<dyn Write + Send>>, resp: &Response) {
    let mut w = out.lock().expect("response sink poisoned");
    // A client that hung up mid-flight is not an error worth dying
    // over; the response is simply undeliverable.
    let _ = wire::write_response(&mut *w, resp);
    let _ = w.flush();
}

/// Takes this worker's share of the queue a wake at a time and
/// answers it job by job: each job is its own unit of execution (own
/// sequence number, snapshot pin, panic boundary, budget and latency)
/// and its response is written the moment it is ready — a slow job
/// holds back only the jobs behind it in the same share.
fn worker_loop(
    queue: Arc<AdmissionQueue>,
    obs: Arc<Observatory>,
    chaos: ChaosPlan,
    slo: Option<Arc<SloMonitor>>,
) {
    let registry = obs.registry().clone();
    let latency = registry.histogram("serve.latency_us", DECADE_BOUNDS);
    let panics = LazyCounter::new("serve.panics");
    let ok = LazyCounter::new("serve.ok");
    let degraded = LazyCounter::new("serve.degraded");
    let deadline = LazyCounter::new("serve.deadline");
    let overloaded = LazyCounter::new("serve.overloaded");
    let bad_request = LazyCounter::new("serve.bad_request");
    let mut share: Vec<Job> = Vec::new();
    while queue.take(&mut share) {
        for job in share.drain(..) {
            let action = chaos.action(queue.begin());
            let start = Instant::now();
            let snap = obs.pin();
            let mut req = job.req;
            req.trace =
                registry.trace_span(req.trace, "serve.answer", format_args!("id {}", req.id));

            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                match action {
                    ChaosAction::Panic => panic::panic_any(InjectedQueryPanic),
                    ChaosAction::Stall => thread::sleep(Duration::from_micros(chaos.stall_us)),
                    ChaosAction::None => {}
                }
                answer(&snap, &req, &registry)
            }));

            let resp = match outcome {
                Ok(resp) => resp,
                Err(_payload) => {
                    // The worker survived a panic: journal it and still
                    // answer — degraded, from the density approximation.
                    panics.inc(&registry);
                    registry.emit(
                        Event::new(EventKind::QueryPanic)
                            .offset(req.id)
                            .detail("query worker panicked; answered degraded"),
                    );
                    registry.trace_span(req.trace, "serve.panic", "answered degraded");
                    degraded_from_density(&snap, &req)
                }
            };
            let class = match resp.status {
                Status::Ok => &ok,
                Status::Degraded => &degraded,
                Status::DeadlineExceeded => &deadline,
                Status::Overloaded => &overloaded,
                Status::BadRequest => &bad_request,
            };
            class.inc(&registry);
            let us = start.elapsed().as_micros() as u64;
            latency.observe_traced(us, req.trace.trace);
            if let Some(slo) = &slo {
                slo.record(resp.status, us);
            }
            write_locked(&job.out, &resp);
        }
    }
}

fn ppm(fraction: f64) -> u64 {
    (fraction.clamp(0.0, 1.0) * Response::FULL_COVERAGE as f64).round() as u64
}

/// What every response to `req` out of `snap` starts as — the request's
/// id and trace, the epoch, and no claim at all: a `BadRequest` until
/// an arm says otherwise.
fn unanswered(req: &Request, snap: &EpochSnapshot) -> Response {
    Response {
        id: req.id,
        epoch: snap.epoch(),
        status: Status::BadRequest,
        value: 0,
        coverage_ppm: 0,
        units_done: 0,
        units_total: 0,
        from_density: false,
        trace_id: req.trace.trace.0,
        body: None,
    }
}

/// Computes the honest answer for one request against one pinned
/// epoch. Never panics on any decodable request: ranges are validated
/// and clamped *before* a census or the density index sees them.
fn answer(snap: &EpochSnapshot, req: &Request, registry: &Registry) -> Response {
    let refusal = unanswered(req, snap);
    match req.kind {
        QueryKind::Status => Response {
            status: Status::Ok,
            value: snap.days() as u64,
            coverage_ppm: ppm(snap.window_coverage::<Daily>(0..snap.days())),
            ..refusal
        },
        QueryKind::Telemetry => {
            // The live metrics plane: a deterministic sorted-JSON
            // snapshot of the registry, taken before this response's
            // own status counter lands so a fresh server answers with
            // reproducible bytes.
            let body = registry.snapshot(SnapshotMode::Deterministic).to_json();
            Response {
                status: Status::Ok,
                value: snap.days() as u64,
                coverage_ppm: Response::FULL_COVERAGE,
                body: Some(body),
                ..refusal
            }
        }
        QueryKind::Trace { trace_id } => match registry.trace_json(trace_id) {
            Some(body) => Response {
                status: Status::Ok,
                value: trace_id,
                coverage_ppm: Response::FULL_COVERAGE,
                body: Some(body),
                ..refusal
            },
            None => refusal,
        },
        QueryKind::PrefixCount { base, len } => {
            if len > PrefixDensity::MAX_LEN {
                return refusal;
            }
            registry.trace_span(req.trace, "engine.density", format_args!("len {len}"));
            // The density index answers prefix counts exactly in O(1);
            // `from_density` records the provenance all the same.
            let count = snap.density().count(Prefix::new(Addr::new(base), len));
            let cov = snap.window_coverage::<Daily>(0..snap.days());
            Response {
                status: if cov >= 1.0 { Status::Ok } else { Status::Degraded },
                value: count,
                coverage_ppm: ppm(cov),
                from_density: true,
                ..refusal
            }
        }
        QueryKind::DayWindow { start, end } => {
            answer_window(snap, req, registry, start..end, snap.day_census())
        }
        QueryKind::WeekWindow { start, end } => {
            answer_window(snap, req, registry, start..end, snap.week_census())
        }
    }
}

/// Answers a window query over `C`'s units — a `DayWindow` or a
/// `WeekWindow` — as Ok or Degraded, exactly and in O(1) whatever its
/// budget: `census` counts the window clamped to the ingested horizon.
/// The coverage is that of the *requested* window, so a horizon clamp
/// already shows up as coverage below 1.0.
fn answer_window<C: Cadence>(
    snap: &EpochSnapshot,
    req: &Request,
    registry: &Registry,
    units: Range<u64>,
    census: &WindowCensus<C>,
) -> Response {
    if units.start > units.end {
        return unanswered(req, snap);
    }
    let (s, e) = (units.start as usize, units.end as usize);
    let ce = e.min(census.num_units());
    let cs = s.min(ce);
    registry.trace_span(req.trace, "engine.compose", format_args!("{} {cs}..{ce}", C::UNITS));
    let cov = snap.window_coverage::<C>(s..e);
    Response {
        status: if cov >= 1.0 { Status::Ok } else { Status::Degraded },
        value: census.count(cs..ce),
        coverage_ppm: ppm(cov),
        ..unanswered(req, snap)
    }
}

/// Degraded answer built entirely from the density approximation —
/// the fallback after a worker panic, when no exact machinery can be
/// trusted for this request.
fn degraded_from_density(snap: &EpochSnapshot, req: &Request) -> Response {
    let density = snap.density();
    let (value, cov) = match req.kind {
        QueryKind::PrefixCount { base, len } if len <= PrefixDensity::MAX_LEN => (
            density.count(Prefix::new(Addr::new(base), len)),
            snap.window_coverage::<Daily>(0..snap.days()),
        ),
        QueryKind::DayWindow { start, end } if start <= end => {
            (density.total(), snap.window_coverage::<Daily>(start as usize..end as usize))
        }
        QueryKind::WeekWindow { start, end } if start <= end => {
            (density.total(), snap.window_coverage::<Weekly>(start as usize..end as usize))
        }
        QueryKind::Status => (snap.days() as u64, 1.0),
        // A telemetry/trace fetch that died mid-query has no density
        // fallback worth inventing; a degraded empty answer is honest.
        QueryKind::Telemetry | QueryKind::Trace { .. } => (0, 1.0),
        _ => return unanswered(req, snap),
    };
    Response {
        status: Status::Degraded,
        value,
        coverage_ppm: ppm(cov),
        from_density: true,
        ..unanswered(req, snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observatory::synthetic_day_log;
    use crate::pipe::duplex;
    use ipactive_core::SlotMatrix;
    use ipactive_net::{ActiveSet, AddrSet};
    use ipactive_obs::{Registry, SnapshotMode};
    use std::collections::HashMap;

    fn served_observatory(days: usize) -> (Registry, Arc<Observatory>) {
        let reg = Registry::new();
        let obs: Arc<Observatory> = Arc::new(Observatory::new(&reg));
        obs.ingest_days((0..days).map(|d| synthetic_day_log(11, d)).collect());
        (reg, obs)
    }

    /// Sends `reqs` over one connection and returns responses by id.
    fn exchange(server: &Server, reqs: &[Request]) -> HashMap<u64, Response> {
        let (client, server_end) = duplex();
        let (srx, stx) = server_end.split();
        server.attach(srx, stx);
        let (mut rx, mut tx) = client.split();
        for r in reqs {
            wire::write_request(&mut tx, r).unwrap();
        }
        drop(tx);
        let mut got = HashMap::new();
        while got.len() < reqs.len() {
            match wire::read_response(&mut rx).unwrap() {
                Some(resp) => {
                    got.insert(resp.id, resp);
                }
                None => break,
            }
        }
        got
    }

    fn req(id: u64, kind: QueryKind) -> Request {
        Request {
            id,
            kind,
            budget_ms: 0,
            allow_degraded: false,
            trace: ipactive_obs::TraceContext::NONE,
        }
    }

    /// `n` jobs with ids `from..from + n` and a sink nobody reads.
    fn jobs(from: u64, n: u64) -> Vec<Job> {
        let out: Arc<Mutex<dyn Write + Send>> = Arc::new(Mutex::new(std::io::sink()));
        (from..from + n)
            .map(|id| Job { req: req(id, QueryKind::Status), out: out.clone() })
            .collect()
    }

    fn ids(jobs: &[Job]) -> Vec<u64> {
        jobs.iter().map(|j| j.req.id).collect()
    }

    #[test]
    fn admission_takes_the_head_of_a_batch_up_to_the_free_depth() {
        let queue = AdmissionQueue::new(4, 1);
        let mut batch = jobs(0, 6);
        queue.admit(&mut batch);
        assert_eq!(ids(&batch), [4, 5], "the tail found no room and stays, in order");
        let mut again = jobs(6, 1);
        queue.admit(&mut again);
        assert_eq!(ids(&again), [6], "a full queue admits nothing");
        let mut share = Vec::new();
        assert!(queue.take(&mut share));
        assert_eq!(ids(&share), [0, 1, 2, 3], "admitted in arrival order");
        queue.admit(&mut again);
        assert_eq!(ids(&again), [6], "a job taken and not begun still holds its place");
        assert_eq!(queue.begin(), 0);
        queue.admit(&mut again);
        assert!(again.is_empty(), "beginning a job frees it");
    }

    #[test]
    fn a_closed_queue_refuses_everything_and_ends_once_drained() {
        let queue = AdmissionQueue::new(8, 1);
        queue.admit(&mut jobs(0, 3));
        queue.close();
        let mut late = jobs(3, 2);
        queue.admit(&mut late);
        assert_eq!(ids(&late), [3, 4], "closed: nothing is admitted");
        let mut share = Vec::new();
        assert!(queue.take(&mut share), "closed but not empty: the work is still handed out");
        assert_eq!(ids(&share), [0, 1, 2]);
        share.clear();
        assert!(!queue.take(&mut share), "closed and empty");
        assert!(share.is_empty());
    }

    #[test]
    fn a_worker_takes_an_even_share_of_what_is_queued() {
        let one = AdmissionQueue::new(16, 1);
        one.admit(&mut jobs(0, 10));
        let mut share = Vec::new();
        assert!(one.take(&mut share));
        assert_eq!(share.len(), 10, "a lone worker takes everything");

        let two = AdmissionQueue::new(16, 2);
        two.admit(&mut jobs(0, 10));
        let (mut first, mut second) = (Vec::new(), Vec::new());
        assert!(two.take(&mut first));
        assert!(two.take(&mut second));
        assert_eq!(ids(&first), [0, 1, 2, 3, 4]);
        assert_eq!(ids(&second), [5, 6, 7, 8, 9], "two workers split a batch of ten in half");
        two.admit(&mut jobs(10, 3));
        first.clear();
        assert!(two.take(&mut first));
        assert_eq!(ids(&first), [10, 11], "the split is of what is queued at admission");
    }

    #[test]
    fn exact_answers_match_the_engine_directly() {
        let (_reg, obs) = served_observatory(9);
        let want_window = obs.pin().engine().day_window(2..7).len() as u64;
        let server = Server::start(obs, ServeConfig::default());
        let got = exchange(
            &server,
            &[
                req(0, QueryKind::Status),
                req(1, QueryKind::DayWindow { start: 2, end: 7 }),
                req(2, QueryKind::WeekWindow { start: 0, end: 1 }),
                req(3, QueryKind::PrefixCount { base: 0x0a00_0000, len: 24 }),
            ],
        );
        assert_eq!(got.len(), 4);
        assert_eq!(got[&0].status, Status::Ok);
        assert_eq!(got[&0].value, 9, "status reports ingested days");
        assert_eq!(got[&1].status, Status::Ok);
        assert_eq!(got[&1].value, want_window);
        assert!(!got[&1].from_density);
        assert_eq!(got[&2].status, Status::Ok);
        assert_eq!(got[&3].status, Status::Ok);
        assert!(got[&3].from_density, "prefix counts carry index provenance");
        assert!(got[&3].value > 0);
        server.shutdown();
    }

    #[test]
    fn horizon_overruns_and_partial_feeds_answer_degraded_not_wrong() {
        let reg = Registry::new();
        let obs: Arc<Observatory> = Arc::new(Observatory::new(&reg));
        obs.ingest_day(synthetic_day_log(2, 0));
        obs.ingest_day_with_coverage(synthetic_day_log(2, 1), 0.5);
        let exact = obs.pin().engine().day_window(0..2).len() as u64;
        let server = Server::start(obs, ServeConfig::default());
        let got = exchange(
            &server,
            &[
                // Past the horizon: clamped, degraded, diluted coverage.
                req(0, QueryKind::DayWindow { start: 0, end: 4 }),
                // Inside the horizon but over a half-covered day.
                req(1, QueryKind::DayWindow { start: 0, end: 2 }),
                // Fully covered day: exact.
                req(2, QueryKind::DayWindow { start: 0, end: 1 }),
            ],
        );
        assert_eq!(got[&0].status, Status::Degraded);
        assert_eq!(got[&0].value, exact, "clamped value is exact over what exists");
        assert!(got[&0].coverage_ppm < Response::FULL_COVERAGE);
        assert_eq!(got[&1].status, Status::Degraded);
        assert_eq!(got[&1].coverage_ppm, 750_000);
        assert_eq!(got[&2].status, Status::Ok);
        assert_eq!(got[&2].coverage_ppm, Response::FULL_COVERAGE);
        server.shutdown();
    }

    #[test]
    fn a_nan_feed_fraction_degrades_by_exactly_the_day_it_lost() {
        let reg = Registry::new();
        let obs: Arc<Observatory> = Arc::new(Observatory::new(&reg));
        obs.ingest_day(synthetic_day_log(2, 0));
        obs.ingest_day_with_coverage(synthetic_day_log(2, 1), f64::NAN);
        obs.ingest_day(synthetic_day_log(2, 2));
        let server = Server::start(obs, ServeConfig::default());
        let got = exchange(
            &server,
            &[
                req(0, QueryKind::DayWindow { start: 0, end: 3 }),
                req(1, QueryKind::DayWindow { start: 2, end: 3 }),
                req(2, QueryKind::PrefixCount { base: 0x0a00_0000, len: 24 }),
            ],
        );
        assert_eq!((got[&0].status, got[&0].coverage_ppm), (Status::Degraded, 666_667));
        assert_eq!((got[&1].status, got[&1].coverage_ppm), (Status::Ok, Response::FULL_COVERAGE));
        assert_eq!(got[&2].coverage_ppm, 666_667, "prefix counts quote every ingested day");
        server.shutdown();
    }

    #[test]
    fn windows_far_past_the_horizon_answer_inside_their_budget() {
        // One frame naming 2^33 days held a worker for seconds, and
        // `end: u64::MAX` for good; a week end just past `u64::MAX / 7`
        // wrapped into a plausible coverage. None of it is malformed:
        // each is a window past the horizon, to be clamped and
        // labelled with (almost) no coverage.
        let (_reg, obs) = served_observatory(14);
        let exact_days = obs.pin().engine().day_window(0..14).len() as u64;
        let exact_weeks = obs.pin().engine().week_window(0..2).len() as u64;
        let server = Arc::new(Server::start(obs, ServeConfig::default()));
        let huge = |id, kind| Request { budget_ms: 5, allow_degraded: true, ..req(id, kind) };
        let reqs = [
            huge(0, QueryKind::DayWindow { start: 0, end: 1 << 33 }),
            huge(1, QueryKind::DayWindow { start: 0, end: u64::MAX }),
            huge(2, QueryKind::WeekWindow { start: 0, end: u64::MAX / 7 + 2 }),
            huge(3, QueryKind::WeekWindow { start: 0, end: u64::MAX }),
            huge(4, QueryKind::DayWindow { start: u64::MAX - 1, end: u64::MAX }),
            huge(5, QueryKind::DayWindow { start: 0, end: 14_000_000 }),
        ];
        // The exchange runs beside the test so that a wedged worker
        // fails it instead of hanging it.
        let (done, answered) = std::sync::mpsc::channel();
        let asked = Instant::now();
        let client = {
            let server = server.clone();
            thread::spawn(move || done.send(exchange(&server, &reqs)))
        };
        let got = answered
            .recv_timeout(Duration::from_secs(20))
            .expect("a window past the horizon wedged a worker");
        assert!(asked.elapsed() < Duration::from_secs(2), "took {:?}", asked.elapsed());
        for r in &reqs {
            assert_eq!(got[&r.id].status, Status::Degraded, "request {}", r.id);
            assert!(!got[&r.id].from_density, "request {}: clamped, not approximated", r.id);
        }
        // 14 covered days of 14 million requested is one in a million;
        // of 2^33 and beyond, less than half of that.
        assert_eq!(got[&5].coverage_ppm, 1);
        for id in 0..5 {
            assert_eq!(got[&id].coverage_ppm, 0, "request {id}");
        }
        assert_eq!([got[&0].value, got[&1].value, got[&5].value], [exact_days; 3]);
        assert_eq!([got[&2].value, got[&3].value], [exact_weeks; 2]);
        assert_eq!(got[&4].value, 0);
        client.join().expect("client thread").expect("the test is still listening");
        Arc::into_inner(server).expect("the client is gone").shutdown();
    }

    #[test]
    fn malformed_windows_get_bad_request_not_a_panic() {
        let (_reg, obs) = served_observatory(3);
        let server = Server::start(obs, ServeConfig::default());
        let got = exchange(
            &server,
            &[
                req(0, QueryKind::DayWindow { start: 5, end: 2 }),
                req(1, QueryKind::PrefixCount { base: 0, len: 30 }),
                req(2, QueryKind::Status),
            ],
        );
        assert_eq!(got[&0].status, Status::BadRequest);
        assert_eq!(got[&1].status, Status::BadRequest);
        assert_eq!(got[&2].status, Status::Ok, "server survives bad requests");
        server.shutdown();
    }

    #[test]
    fn a_window_answer_is_exact_and_never_deadline_exceeded_under_any_budget_or_stall() {
        let (_reg, obs) = served_observatory(14);
        let snap = obs.pin();
        // Counted off the datasets, so the engine caches no window.
        let want = |kind| match kind {
            QueryKind::DayWindow { start, end } => {
                snap.daily().window::<AddrSet>(start as usize..end as usize).len() as u64
            }
            QueryKind::WeekWindow { start, end } => {
                snap.weekly().window::<AddrSet>(start as usize..end as usize).len() as u64
            }
            _ => unreachable!(),
        };
        let kinds = [
            QueryKind::DayWindow { start: 0, end: 14 },
            QueryKind::DayWindow { start: 3, end: 11 },
            QueryKind::WeekWindow { start: 0, end: 2 },
        ];
        let wants: Vec<u64> = kinds.iter().map(|&k| want(k)).collect();
        // Every unit the engine builds for a budgeted window now sleeps
        // 50 ms first, and chaos holds every query 2 ms: a window
        // composed under a budget of 1 or 5 ms would run out of it.
        snap.engine().set_compose_stall(Duration::from_millis(50));
        let server = Server::start(
            obs,
            ServeConfig {
                chaos: ChaosPlan { seed: 9, panic_period: 0, stall_period: 1, stall_us: 2_000 },
                ..ServeConfig::default()
            },
        );
        let mut reqs = Vec::new();
        for (k, &kind) in kinds.iter().enumerate() {
            for (b, budget_ms) in [0, 1, 5].into_iter().enumerate() {
                for allow_degraded in [false, true] {
                    let id = (k * 6 + b * 2 + allow_degraded as usize) as u64;
                    reqs.push(Request { budget_ms, allow_degraded, ..req(id, kind) });
                }
            }
        }
        let got = exchange(&server, &reqs);
        server.shutdown();
        assert_eq!(got.len(), reqs.len());
        for r in &reqs {
            let resp = &got[&r.id];
            let k = r.id as usize / 6;
            assert_eq!(
                (resp.status, resp.value, resp.from_density, resp.units_done, resp.units_total),
                (Status::Ok, wants[k], false, 0, 0),
                "request {r:?}"
            );
        }
    }

    /// Both window kinds answer through one handler, and what they say
    /// is pinned as the two kinds always said it: the compose span
    /// reads `days a..b` or `weeks a..b` over the range clamped to the
    /// horizon, and the coverage is the requested window's — on an
    /// exact answer, budgeted or not, and on the density answer after a
    /// worker panic, which composes nothing.
    #[test]
    fn window_kinds_trace_and_cover_as_pinned_on_every_answer_path() {
        let (reg, obs) = served_observatory(15);
        let snap = obs.pin();
        let traced = |id: u64, kind: QueryKind, budget_ms: u64| Request {
            budget_ms,
            allow_degraded: true,
            trace: ipactive_obs::TraceContext::root(ipactive_obs::TraceId(0x7E57 + id)),
            ..req(id, kind)
        };
        let composed = |r: &Request| -> Vec<String> {
            let spans = reg.trace_spans(r.trace.trace.0).unwrap_or_default();
            spans.into_iter().filter(|s| s.name == "engine.compose").map(|s| s.detail).collect()
        };
        // 15 days ingested, two weeks complete; a budget changes nothing.
        let cases = [
            (traced(0, QueryKind::DayWindow { start: 3, end: 20 }, 0), "days 3..15", 705_882),
            (traced(1, QueryKind::WeekWindow { start: 1, end: 3 }, 0), "weeks 1..2", 571_429),
            (traced(2, QueryKind::DayWindow { start: 2, end: 20 }, 1), "days 2..15", 722_222),
            (traced(3, QueryKind::WeekWindow { start: 0, end: 3 }, 1), "weeks 0..2", 714_286),
        ];
        let exact = |kind| match kind {
            QueryKind::DayWindow { start, .. } => snap.engine().day_window(start as usize..15),
            QueryKind::WeekWindow { start, .. } => snap.engine().week_window(start as usize..2),
            _ => unreachable!(),
        };
        for (r, detail, ppm) in cases {
            let resp = answer(&snap, &r, &reg);
            assert_eq!(composed(&r), [detail], "request {}", r.id);
            let answered = (resp.status, resp.coverage_ppm, resp.from_density, resp.value);
            let want = (Status::Degraded, ppm, false, exact(r.kind).len() as u64);
            assert_eq!(answered, want, "request {}", r.id);
            let fallback = degraded_from_density(&snap, &r);
            assert_eq!(composed(&r), [detail], "the fallback composes nothing");
            assert_eq!(
                (fallback.status, fallback.coverage_ppm, fallback.from_density, fallback.value),
                (Status::Degraded, ppm, true, snap.density().total()),
                "request {}",
                r.id
            );
        }
    }

    #[test]
    fn injected_panics_are_caught_journaled_and_still_answered() {
        let (reg, obs) = served_observatory(6);
        let server = Server::start(
            obs,
            ServeConfig {
                workers: 1,
                queue_depth: 16,
                // Every executed query panics.
                chaos: ChaosPlan { seed: 3, panic_period: 1, stall_period: 0, stall_us: 0 },
                slo: None,
            },
        );
        let got = exchange(
            &server,
            &[
                req(0, QueryKind::DayWindow { start: 0, end: 6 }),
                req(1, QueryKind::Status),
            ],
        );
        assert_eq!(got.len(), 2, "panicked queries still answer");
        for resp in got.values() {
            assert_eq!(resp.status, Status::Degraded);
            assert!(resp.from_density);
        }
        server.shutdown();
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.counter("serve.panics"), 2);
        let (events, _) = reg.journal().drain_sorted();
        assert!(
            events.iter().any(|e| e.kind == EventKind::QueryPanic),
            "panic must be journaled"
        );
    }

    #[test]
    fn a_full_admission_queue_sheds_with_explicit_overloaded() {
        let (reg, obs) = served_observatory(6);
        let server = Server::start(
            obs,
            ServeConfig {
                workers: 1,
                queue_depth: 1,
                // Stall every query 20ms so the queue jams instantly.
                chaos: ChaosPlan { seed: 1, panic_period: 0, stall_period: 1, stall_us: 20_000 },
                slo: None,
            },
        );
        let reqs: Vec<Request> =
            (0..30).map(|i| req(i, QueryKind::DayWindow { start: 0, end: 3 })).collect();
        let got = exchange(&server, &reqs);
        assert_eq!(got.len(), 30, "every request answered, shed or not");
        let shed = got.values().filter(|r| r.status == Status::Overloaded).count();
        assert!(shed > 0, "a 1-deep queue against 20ms queries must shed");
        assert!(
            got.values().all(|r| matches!(r.status, Status::Ok | Status::Overloaded)),
            "unexpected status in {got:?}"
        );
        server.shutdown();
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        assert_eq!(snap.counter("serve.shed"), shed as u64);
        let (events, _) = reg.journal().drain_sorted();
        assert!(events.iter().any(|e| e.kind == EventKind::LoadShed));
    }

    #[test]
    fn a_chaos_stall_holds_the_worker_but_never_expires_a_budget() {
        // The worker sleeps the stall before the query's budget starts:
        // it costs latency and queue room, never a deadline.
        let (_reg, obs) = served_observatory(4);
        let server = Server::start(
            obs.clone(),
            ServeConfig {
                workers: 1,
                queue_depth: 4,
                chaos: ChaosPlan { seed: 5, panic_period: 0, stall_period: 1, stall_us: 50_000 },
                slo: None,
            },
        );
        let window = Request { budget_ms: 20, ..req(0, QueryKind::DayWindow { start: 0, end: 2 }) };
        let asked = Instant::now();
        let got = exchange(&server, &[window]);
        assert!(asked.elapsed() >= Duration::from_millis(50), "the stall never fired");
        server.shutdown();
        assert_eq!(got[&0].status, Status::Ok);
        assert!(!got[&0].from_density);
        assert_eq!(got[&0].value, obs.pin().engine().day_window(0..2).len() as u64);
    }

    #[test]
    fn corrupt_frames_hang_up_honestly() {
        let (_reg, obs) = served_observatory(2);
        let server = Server::start(obs, ServeConfig::default());
        let (client, server_end) = duplex();
        let (srx, stx) = server_end.split();
        server.attach(srx, stx);
        let (mut rx, mut tx) = client.split();
        tx.write_all(&[0x03, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]).unwrap();
        drop(tx);
        let resp = wire::read_response(&mut rx).unwrap().unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        assert!(wire::read_response(&mut rx).unwrap().is_none(), "then EOF");
        server.shutdown();
    }
}
