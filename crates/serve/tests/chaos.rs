//! The pinned-seed chaos soak: stalled workers, ingest bursts
//! mid-query, injected worker panics, and an overload flood — under
//! all of which the server must uphold its contract:
//!
//! * no deadlocks (the test completes),
//! * every request gets exactly one response from the allowed set,
//! * every `Degraded` answer carries provenance (`coverage_ppm <
//!   1_000_000` or `from_density`),
//! * panics and sheds are journaled, epochs are journaled,
//! * and after the chaos clears, the same server still answers
//!   exactly.

use std::io::Write as _;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ipactive_net::ActiveSet;
use ipactive_obs::{EventKind, Registry, SnapshotMode};
use ipactive_serve::{
    duplex, loadgen, synthetic_day_log, wire, ChaosPlan, LoadgenConfig, Observatory, QueryKind,
    Request, Response, ServeConfig, Server, Status,
};

const SOAK_SEED: u64 = 0xC4A05;
const BASE_DAYS: usize = 10;

#[test]
fn pinned_seed_chaos_soak_answers_every_request_honestly() {
    let registry = Registry::new();
    let obs: Arc<Observatory> = Arc::new(Observatory::new(&registry));
    obs.ingest_days((0..BASE_DAYS).map(|d| synthetic_day_log(SOAK_SEED, d)).collect());
    let exact_base_window = obs.pin().engine().day_window(0..BASE_DAYS).len() as u64;
    let chaos = ChaosPlan {
        seed: SOAK_SEED,
        panic_period: 17, // at least one panic per 17 executed queries
        stall_period: 5,  // every 5th executed query stalls 3ms
        stall_us: 3_000,
    };
    let server = Server::start(
        obs.clone(),
        ServeConfig { workers: 2, queue_depth: 8, chaos, slo: None },
    );

    // Ingest bursts racing the query load: six more epochs publish
    // while clients are mid-flight.
    let burst_obs = obs.clone();
    let ingester = thread::spawn(move || {
        for d in BASE_DAYS..BASE_DAYS + 6 {
            burst_obs.ingest_day(synthetic_day_log(SOAK_SEED, d));
            thread::sleep(Duration::from_millis(2));
        }
    });

    // Phase A: two paced open-loop runs that differ only by seed, so
    // each sees its own query mix.
    let first =
        loadgen::run(&server, &LoadgenConfig { requests: 150, rate: 2_000.0, seed: SOAK_SEED });
    let second =
        loadgen::run(&server, &LoadgenConfig { requests: 150, rate: 2_000.0, seed: SOAK_SEED + 1 });
    ingester.join().expect("ingester panicked");

    // Every issued request answered, no silent drops, only allowed
    // classes (loadgen already buckets by status; the sums must close).
    assert_eq!(first.answered(), 150, "first run dropped answers: {first:?}");
    assert_eq!(second.answered(), 150, "second run dropped answers: {second:?}");
    assert_eq!(first.bad_request, 0);
    assert_eq!(second.bad_request, 0);

    // Phase B: an unpaced flood over one connection against the
    // 8-deep queue must shed — explicitly, never by dropping.
    let (client, server_end) = duplex();
    let (srx, stx) = server_end.split();
    server.attach(srx, stx);
    let (mut rx, mut tx) = client.split();
    let flood = 200u64;
    for i in 0..flood {
        wire::write_request(
            &mut tx,
            &Request {
                id: i,
                kind: QueryKind::DayWindow { start: 0, end: BASE_DAYS as u64 },
                budget_ms: 0,
                allow_degraded: true,
                trace: ipactive_serve::TraceContext::NONE,
            },
        )
        .unwrap();
    }
    tx.flush().unwrap();
    drop(tx);
    let mut responses: Vec<Response> = Vec::new();
    while responses.len() < flood as usize {
        match wire::read_response(&mut rx).unwrap() {
            Some(r) => responses.push(r),
            None => break,
        }
    }
    assert_eq!(responses.len(), flood as usize, "flood dropped answers");
    let shed = responses.iter().filter(|r| r.status == Status::Overloaded).count();
    assert!(shed > 0, "an unpaced flood against an 8-deep queue must shed");
    for r in &responses {
        match r.status {
            Status::Ok => assert_eq!(
                r.value, exact_base_window,
                "an Ok answer under chaos must equal the batch answer"
            ),
            Status::Degraded => assert!(
                r.coverage_ppm < Response::FULL_COVERAGE || r.from_density,
                "degraded without provenance: {r:?}"
            ),
            Status::Overloaded => {}
            Status::BadRequest => panic!("well-formed flood request got BadRequest"),
        }
    }

    // The chaos plan guarantees panics among executed queries.
    let executed = server.executed();
    assert!(executed >= 2 * 17, "soak too small to pin panic injection ({executed} executed)");
    server.shutdown();

    // After the storm: a fresh server over the same observatory, no
    // chaos, answers the original window exactly — degradation was a
    // mode, not a state.
    let calm = Server::start(obs.clone(), ServeConfig::default());
    let (client, server_end) = duplex();
    let (srx, stx) = server_end.split();
    calm.attach(srx, stx);
    let (mut rx, mut tx) = client.split();
    wire::write_request(
        &mut tx,
        &Request {
            id: 9_999,
            kind: QueryKind::DayWindow { start: 0, end: BASE_DAYS as u64 },
            budget_ms: 0,
            allow_degraded: false,
            trace: ipactive_serve::TraceContext::NONE,
        },
    )
    .unwrap();
    drop(tx);
    let resp = wire::read_response(&mut rx).unwrap().unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.value, exact_base_window);
    assert_eq!(resp.epoch, 1 + 6, "bulk epoch plus six burst epochs");
    calm.shutdown();

    // Metrics snapshot schema: the counter plane must close exactly
    // and the latency histograms must exist.
    let snap = registry.snapshot(SnapshotMode::Deterministic);
    let sent_total = 150 + 150 + flood + 1;
    assert_eq!(snap.counter("serve.requests"), sent_total);
    let worker_answers = snap.counter("serve.ok")
        + snap.counter("serve.degraded")
        + snap.counter("serve.bad_request")
        + snap.counter("serve.overloaded");
    assert_eq!(worker_answers, executed + 1, "every executed query answered once");
    assert_eq!(snap.counter("serve.shed") as usize, shed + first.overloaded as usize + second.overloaded as usize);
    assert!(snap.counter("serve.panics") >= 1, "panic injection must have fired");
    let json = snap.to_json();
    for key in ["serve.latency_us", "serve.client.latency_us", "serve.epoch", "serve.days"] {
        assert!(json.contains(key), "metrics snapshot missing {key}");
    }

    // Journal: epochs, panics, and sheds all leave records.
    let (events, _) = registry.journal().drain_sorted();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(EventKind::EpochPublish), 1 + 6, "bulk ingest + six bursts");
    assert!(count(EventKind::QueryPanic) >= 1);
    assert!(count(EventKind::LoadShed) >= shed);
}

/// One closed-loop request/response over a fresh connection.
fn fetch(server: &Server, req: &Request) -> Response {
    let (client, server_end) = duplex();
    let (srx, stx) = server_end.split();
    server.attach(srx, stx);
    let (mut rx, mut tx) = client.split();
    wire::write_request(&mut tx, req).unwrap();
    tx.flush().unwrap();
    drop(tx);
    wire::read_response(&mut rx).unwrap().expect("one response per request")
}

fn meta_req(id: u64, kind: QueryKind) -> Request {
    Request {
        id,
        kind,
        budget_ms: 0,
        allow_degraded: false,
        trace: ipactive_serve::TraceContext::NONE,
    }
}

/// One traced serving run under a pinned chaos plan: telemetry first
/// (fresh server, all-zero latency buckets → reproducible bytes),
/// then a closed-loop traced pass, then every trace fetched back over
/// the wire. Returns the full observable transcript.
fn traced_run(workers: usize) -> String {
    let registry = Registry::new();
    let obs: Arc<Observatory> = Arc::new(Observatory::new(&registry));
    obs.ingest_days((0..8).map(|d| synthetic_day_log(SOAK_SEED, d)).collect());
    let chaos = ChaosPlan { seed: SOAK_SEED, panic_period: 3, stall_period: 2, stall_us: 100 };
    let server = Server::start(obs, ServeConfig { workers, queue_depth: 64, chaos, slo: None });
    let mut transcript = String::new();
    let telemetry = fetch(&server, &meta_req(1, QueryKind::Telemetry));
    transcript.push_str(telemetry.body.as_deref().unwrap_or("<no body>"));
    let linked = loadgen::traced_pass(&server, SOAK_SEED, 24);
    assert_eq!(linked, 24, "closed-loop responses echo their trace ids");
    for i in 0..24 {
        let tid = loadgen::traced_pass_id(SOAK_SEED, i);
        let resp = fetch(&server, &meta_req(2, QueryKind::Trace { trace_id: tid.0 }));
        transcript.push_str(resp.body.as_deref().unwrap_or("<absent>"));
        transcript.push('\n');
    }
    server.shutdown();
    transcript
}

#[test]
fn traces_and_telemetry_are_byte_identical_across_worker_counts_and_reruns() {
    // Spans are structural (names and request-derived details, never
    // wall time), the traced pass is closed-loop (executed-sequence
    // order pinned), and telemetry is fetched before any latency
    // lands — so the whole transcript must be reproducible even with
    // chaos injecting panics and stalls.
    let one = traced_run(1);
    let four = traced_run(4);
    let rerun = traced_run(1);
    assert_eq!(one, rerun, "same worker count must reproduce exactly");
    assert_eq!(one, four, "worker count must not leak into traces or telemetry");
    assert!(one.contains("serve.answer"), "traces cover the server side");
}

#[test]
fn one_trace_id_recovers_the_whole_request_tree_with_an_exemplar() {
    let registry = Registry::new();
    let obs: Arc<Observatory> = Arc::new(Observatory::new(&registry));
    obs.ingest_days((0..6).map(|d| synthetic_day_log(SOAK_SEED, d)).collect());
    let server = Server::start(obs, ServeConfig::default());

    // The client mints the trace and opens the root span; everything
    // downstream hangs off the propagated context.
    let tid = ipactive_serve::TraceId::mint(SOAK_SEED, 42);
    let root = registry.trace_span(
        ipactive_serve::TraceContext::root(tid),
        "client.request",
        "day_window",
    );
    let resp = fetch(
        &server,
        &Request {
            id: 7,
            kind: QueryKind::DayWindow { start: 0, end: 6 },
            budget_ms: 0,
            allow_degraded: false,
            trace: root,
        },
    );
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.trace_id, tid.0, "the response echoes the trace id");

    // The stitched tree is served live over the wire.
    let trace = fetch(&server, &meta_req(8, QueryKind::Trace { trace_id: tid.0 }));
    let body = trace.body.expect("trace body");
    for name in ["client.request", "serve.admission", "serve.answer", "engine.compose"] {
        assert!(body.contains(name), "trace body missing {name}: {body}");
    }

    // And the latency histogram's exemplars link back to it.
    let snap = registry
        .histogram("serve.latency_us", ipactive_obs::metrics::DECADE_BOUNDS)
        .snapshot();
    assert!(
        snap.exemplars.iter().flatten().any(|&id| id == tid.0),
        "serve.latency_us must hold the trace as an exemplar"
    );
    server.shutdown();
}

#[test]
fn the_same_chaos_seed_injects_the_same_faults() {
    // The soak above relies on replayability; pin it directly.
    let plan = ChaosPlan { seed: SOAK_SEED, panic_period: 17, stall_period: 5, stall_us: 3_000 };
    let trace: Vec<_> = (0..200).map(|s| plan.action(s)).collect();
    let replay: Vec<_> = (0..200).map(|s| plan.action(s)).collect();
    assert_eq!(trace, replay);
    assert!(trace.contains(&ipactive_serve::ChaosAction::Panic));
    assert!(trace.contains(&ipactive_serve::ChaosAction::Stall));
}
