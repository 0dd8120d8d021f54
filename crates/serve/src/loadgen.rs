//! Open-loop load generator for the observatory server.
//!
//! *Open-loop* is the property that matters: the sender issues request
//! `i` at `start + i/rate` whether or not earlier responses have come
//! back, so a slow server faces a growing backlog instead of a
//! politely self-throttling client — the regime where load shedding
//! actually earns its keep (and where closed-loop generators famously
//! under-report tail latency).
//!
//! Latency is measured client-side (send to response, queue time
//! included) and recorded into the obs histogram plane; quantiles come
//! from [`Histogram::quantile`](ipactive_obs::Histogram::quantile).
//! Successful answers and admission sheds land in *separate*
//! histograms — an `Overloaded` turnaround measures queue-rejection
//! speed, not service time, and mixing the two made both quantiles
//! lie. Every request also carries a minted trace id, so the p99
//! bucket's exemplars link a tail latency straight to the trace that
//! explains it.
//!
//! [`traced_pass`] is the closed-loop complement: one request in
//! flight at a time, so the executed-sequence order (and therefore the
//! span trees, even under a pinned [`ChaosPlan`](crate::ChaosPlan)) is
//! deterministic. `repro serve-bench` runs it before the open-loop
//! storm to produce reproducible trace snapshots.

use std::io::Write as _;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use ipactive_obs::metrics::DECADE_BOUNDS;
use ipactive_obs::{splitmix64, TraceContext, TraceId};

use crate::pipe::duplex;
use crate::server::Server;
use crate::wire::{self, QueryKind, Request, Status};

/// Salt folded into the seed for open-loop client trace ids, so the
/// open-loop storm and [`traced_pass`] never collide on a trace.
const LOADGEN_TRACE_SALT: u64 = 0x10AD_6E4E;

/// Salt for [`traced_pass`] trace ids.
const TRACED_PASS_SALT: u64 = 0x72ACE;

/// Shape of one load-generation run.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Total requests to issue.
    pub requests: u64,
    /// Target offered rate in requests per second.
    pub rate: f64,
    /// Seed for the deterministic query mix.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig { requests: 200, rate: 2_000.0, seed: 1 }
    }
}

/// What one load run observed. Every issued request is accounted for
/// in exactly one status bucket — the server's "no silent drops"
/// contract, re-checked from the outside.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests issued.
    pub sent: u64,
    /// Exact answers.
    pub ok: u64,
    /// Degraded answers (partial coverage or density-approximated).
    pub degraded: u64,
    /// Load-shed at admission.
    pub overloaded: u64,
    /// Malformed requests.
    pub bad_request: u64,
    /// `overloaded / sent`.
    pub shed_rate: f64,
    /// Median client-observed latency over *answered* (non-shed)
    /// requests, microseconds.
    pub p50_us: f64,
    /// 90th percentile latency, microseconds.
    pub p90_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// Median shed-turnaround latency, microseconds (0 if no sheds).
    pub shed_p50_us: f64,
    /// 99th percentile shed turnaround, microseconds.
    pub shed_p99_us: f64,
    /// Trace ids sampled from the p99 latency bucket — the traces
    /// that explain the tail.
    pub p99_exemplars: Vec<u64>,
    /// Wall-clock for the whole run, milliseconds.
    pub elapsed_ms: u64,
    /// Offered rate actually achieved, requests per second.
    pub achieved_rate: f64,
}

impl LoadReport {
    /// Responses received, all classes.
    pub fn answered(&self) -> u64 {
        self.ok + self.degraded + self.overloaded + self.bad_request
    }

    /// The report as a single JSON object (hand-rolled; the repo
    /// carries no JSON dependency).
    pub fn to_json(&self) -> String {
        let exemplars: Vec<String> =
            self.p99_exemplars.iter().map(|id| format!("\"{}\"", TraceId(*id).to_hex())).collect();
        format!(
            concat!(
                "{{\"sent\":{},\"ok\":{},\"degraded\":{},",
                "\"overloaded\":{},\"bad_request\":{},\"shed_rate\":{:.6},",
                "\"p50_us\":{:.1},\"p90_us\":{:.1},\"p99_us\":{:.1},",
                "\"elapsed_ms\":{},\"achieved_rate\":{:.1},",
                "\"shed_p50_us\":{:.1},\"shed_p99_us\":{:.1},\"p99_exemplars\":[{}]}}"
            ),
            self.sent,
            self.ok,
            self.degraded,
            self.overloaded,
            self.bad_request,
            self.shed_rate,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.elapsed_ms,
            self.achieved_rate,
            self.shed_p50_us,
            self.shed_p99_us,
            exemplars.join(","),
        )
    }
}

/// The deterministic query mix: mostly day windows of varied width,
/// some week windows when weeks exist, an occasional prefix count and
/// status probe.
pub fn query_mix(i: u64, seed: u64, days: u64, weeks: u64) -> QueryKind {
    let r = splitmix64(seed ^ i.wrapping_mul(0x517c_c1b7_2722_0a95));
    match r % 10 {
        0 => QueryKind::Status,
        1 => QueryKind::PrefixCount {
            base: 0x0a00_0000 | (((r >> 8) % 24) as u32) << 8,
            len: 24,
        },
        2 | 3 if weeks > 0 => {
            let s = (r >> 16) % weeks;
            let e = s + 1 + (r >> 32) % (weeks - s);
            QueryKind::WeekWindow { start: s, end: e }
        }
        _ => {
            if days == 0 {
                return QueryKind::Status;
            }
            let s = (r >> 16) % days;
            let e = s + 1 + (r >> 32) % (days - s);
            QueryKind::DayWindow { start: s, end: e }
        }
    }
}

/// Runs one open-loop load against `server` over an in-process duplex
/// connection and collects every response.
pub fn run(server: &Server, config: &LoadgenConfig) -> LoadReport {
    let (client, server_end) = duplex();
    let (srv_rx, srv_tx) = server_end.split();
    server.attach(srv_rx, srv_tx);
    let (mut rx, mut tx) = client.split();

    let snap = server.observatory().pin();
    let (days, weeks) = (snap.days() as u64, snap.weeks() as u64);
    let registry = server.observatory().registry().clone();
    let latency = registry.histogram("serve.client.latency_us", DECADE_BOUNDS);
    let shed_latency = registry.histogram("serve.client.shed_latency_us", DECADE_BOUNDS);

    let sent_at: Arc<Vec<OnceLock<Instant>>> =
        Arc::new((0..config.requests).map(|_| OnceLock::new()).collect());
    let cfg = *config;
    let slab = sent_at.clone();
    let reg = registry.clone();
    let start = Instant::now();
    let sender = thread::spawn(move || {
        for i in 0..cfg.requests {
            // Open loop: request i fires at start + i/rate, no matter
            // how the server is doing. Sleep only when ahead.
            let target = start + Duration::from_secs_f64(i as f64 / cfg.rate.max(1e-9));
            let now = Instant::now();
            if target > now {
                thread::sleep(target - now);
            }
            let kind = query_mix(i, cfg.seed, days, weeks);
            let root = TraceContext::root(TraceId::mint(cfg.seed ^ LOADGEN_TRACE_SALT, i));
            let trace = reg.trace_span(root, "client.request", kind.label());
            let req = Request { id: i, kind, budget_ms: 0, allow_degraded: false, trace };
            let _ = slab[i as usize].set(Instant::now());
            if wire::write_request(&mut tx, &req).is_err() {
                return; // server gone; receiver will see EOF
            }
            let _ = tx.flush();
        }
        // tx drops here: half-close tells the server this client is
        // done sending; responses keep flowing the other way.
    });

    let mut report = LoadReport {
        sent: config.requests,
        ok: 0,
        degraded: 0,
        overloaded: 0,
        bad_request: 0,
        shed_rate: 0.0,
        p50_us: 0.0,
        p90_us: 0.0,
        p99_us: 0.0,
        shed_p50_us: 0.0,
        shed_p99_us: 0.0,
        p99_exemplars: Vec::new(),
        elapsed_ms: 0,
        achieved_rate: 0.0,
    };
    let mut answered = 0u64;
    while answered < config.requests {
        match wire::read_response(&mut rx) {
            Ok(Some(resp)) => {
                answered += 1;
                let at = sent_at.get(resp.id as usize).and_then(|s| s.get()).copied();
                match resp.status {
                    Status::Ok => report.ok += 1,
                    Status::Degraded => report.degraded += 1,
                    Status::Overloaded => report.overloaded += 1,
                    Status::BadRequest => report.bad_request += 1,
                }
                if let Some(at) = at {
                    let us = at.elapsed().as_micros() as u64;
                    if resp.status == Status::Overloaded {
                        // Shed turnaround is admission-queue speed,
                        // not service time: its own series.
                        shed_latency.observe(us);
                    } else {
                        latency.observe_traced(us, TraceId(resp.trace_id));
                    }
                }
            }
            Ok(None) => break, // server closed before answering all
            Err(_) => break,
        }
    }
    let _ = sender.join();
    let elapsed = start.elapsed();
    report.shed_rate = if report.sent == 0 {
        0.0
    } else {
        report.overloaded as f64 / report.sent as f64
    };
    report.p50_us = latency.quantile(0.50);
    report.p90_us = latency.quantile(0.90);
    report.p99_us = latency.quantile(0.99);
    report.shed_p50_us = shed_latency.quantile(0.50);
    report.shed_p99_us = shed_latency.quantile(0.99);
    let snap = latency.snapshot();
    if let Some(bucket) = snap.quantile_bucket(0.99) {
        report.p99_exemplars = snap.exemplars.get(bucket).cloned().unwrap_or_default();
    }
    report.elapsed_ms = elapsed.as_millis() as u64;
    report.achieved_rate = if elapsed.as_secs_f64() > 0.0 {
        report.sent as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    report
}

/// Mints the trace id [`traced_pass`] uses for its `i`-th request —
/// exposed so reproduction tooling can ask the server for exactly
/// those traces afterwards.
pub fn traced_pass_id(seed: u64, i: u64) -> TraceId {
    TraceId::mint(seed ^ TRACED_PASS_SALT, i)
}

/// Runs `requests` closed-loop traced requests against `server`: one
/// in flight at a time, each carrying a freshly minted trace id and a
/// `client.request` root span. Closed-loop means the server's
/// executed-sequence order is pinned, so the resulting span trees are
/// deterministic even under a seeded chaos plan. Returns the number
/// of responses whose echoed trace id matched the minted one.
pub fn traced_pass(server: &Server, seed: u64, requests: u64) -> u64 {
    let (client, server_end) = duplex();
    let (srv_rx, srv_tx) = server_end.split();
    server.attach(srv_rx, srv_tx);
    let (mut rx, mut tx) = client.split();

    let snap = server.observatory().pin();
    let (days, weeks) = (snap.days() as u64, snap.weeks() as u64);
    let registry = server.observatory().registry().clone();

    let mut linked = 0u64;
    for i in 0..requests {
        let kind = query_mix(i, seed, days, weeks);
        let tid = traced_pass_id(seed, i);
        let trace = registry.trace_span(TraceContext::root(tid), "client.request", kind.label());
        let req = Request {
            // Offset well past the open-loop id range so the two
            // request streams never alias in reports.
            id: 1_000_000 + i,
            kind,
            budget_ms: 0,
            allow_degraded: false,
            trace,
        };
        if wire::write_request(&mut tx, &req).is_err() {
            break;
        }
        let _ = tx.flush();
        match wire::read_response(&mut rx) {
            Ok(Some(resp)) if resp.trace_id == tid.0 => linked += 1,
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => break,
        }
    }
    linked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observatory::{synthetic_day_log, Observatory};
    use crate::server::ServeConfig;
    use ipactive_obs::Registry;

    #[test]
    fn every_request_is_answered_exactly_once() {
        let reg = Registry::new();
        let obs: Arc<Observatory> = Arc::new(Observatory::new(&reg));
        obs.ingest_days((0..8).map(|d| synthetic_day_log(5, d)).collect());
        let server = Server::start(obs, ServeConfig::default());
        let report = run(
            &server,
            &LoadgenConfig { requests: 120, rate: 50_000.0, ..LoadgenConfig::default() },
        );
        assert_eq!(report.sent, 120);
        assert_eq!(report.answered(), 120, "no silent drops: {report:?}");
        assert!(report.ok + report.degraded > 0);
        server.shutdown();
    }

    #[test]
    fn sheds_land_in_their_own_latency_series() {
        let reg = Registry::new();
        let obs: Arc<Observatory> = Arc::new(Observatory::new(&reg));
        obs.ingest_days((0..6).map(|d| synthetic_day_log(5, d)).collect());
        let server = Server::start(
            obs,
            ServeConfig {
                workers: 1,
                queue_depth: 1,
                chaos: crate::ChaosPlan {
                    seed: 1,
                    panic_period: 0,
                    stall_period: 1,
                    stall_us: 20_000,
                },
                slo: None,
            },
        );
        let report = run(
            &server,
            &LoadgenConfig { requests: 40, rate: 100_000.0, ..LoadgenConfig::default() },
        );
        assert!(report.overloaded > 0, "a jammed queue must shed: {report:?}");
        server.shutdown();
        // The success series only saw the non-shed answers; the shed
        // series only saw the sheds. Counts, not timings, are the
        // deterministic part.
        let snap = reg.snapshot(ipactive_obs::SnapshotMode::Timed);
        let hist = |name: &str| snap.histograms.get(name).map(|h| h.count).unwrap_or(0);
        assert_eq!(hist("serve.client.shed_latency_us"), report.overloaded);
        assert_eq!(hist("serve.client.latency_us"), report.answered() - report.overloaded);
    }

    #[test]
    fn traced_pass_links_every_response_to_its_minted_trace() {
        let reg = Registry::new();
        let obs: Arc<Observatory> = Arc::new(Observatory::new(&reg));
        obs.ingest_days((0..8).map(|d| synthetic_day_log(5, d)).collect());
        let server = Server::start(obs, ServeConfig::default());
        let linked = traced_pass(&server, 7, 12);
        assert_eq!(linked, 12, "every closed-loop response echoes its trace id");
        server.shutdown();
        // Each trace holds the client root plus server-side spans.
        for i in 0..12 {
            let tid = traced_pass_id(7, i);
            let spans = reg.trace_spans(tid.0).expect("trace recorded");
            assert!(spans.iter().any(|s| s.name == "client.request"));
            assert!(spans.iter().any(|s| s.name == "serve.admission"));
            assert!(spans.iter().any(|s| s.name == "serve.answer"));
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let report = LoadReport {
            sent: 10,
            ok: 7,
            degraded: 2,
            overloaded: 1,
            bad_request: 0,
            shed_rate: 0.1,
            p50_us: 120.0,
            p90_us: 900.0,
            p99_us: 4000.0,
            shed_p50_us: 15.0,
            shed_p99_us: 40.0,
            p99_exemplars: vec![0xDEAD_BEEF],
            elapsed_ms: 5,
            achieved_rate: 2000.0,
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"sent\":10"));
        assert!(json.contains("\"shed_rate\":0.100000"));
        assert!(json.contains("\"p99_us\":4000.0"));
        assert!(json.contains("\"shed_p99_us\":40.0"));
        assert!(json.contains("\"p99_exemplars\":[\"00000000deadbeef\"]"));
    }

    #[test]
    fn query_mix_is_deterministic_and_in_range() {
        for i in 0..500u64 {
            let q = query_mix(i, 9, 14, 2);
            assert_eq!(q, query_mix(i, 9, 14, 2));
            match q {
                QueryKind::DayWindow { start, end } => {
                    assert!(start < end && end <= 14);
                }
                QueryKind::WeekWindow { start, end } => {
                    assert!(start < end && end <= 2);
                }
                QueryKind::PrefixCount { len, .. } => assert!(len <= 24),
                QueryKind::Status => {}
                QueryKind::Telemetry | QueryKind::Trace { .. } => {
                    panic!("the mix never emits meta queries")
                }
            }
        }
    }
}
