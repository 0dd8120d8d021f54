//! What the two serving workloads share: day logs decoded from the
//! emitted wire log, an observatory behind a one-worker server, a
//! closed-loop client, and the reference every answer is held against.

use crate::trace::Tracer;
use ipactive_cdnsim::{emit_daily_shards, Universe};
use ipactive_core::{
    AnalysisCtx, DailyDataset, DailyDatasetBuilder, WeeklyDataset, WeeklyDatasetBuilder,
};
use ipactive_logfmt::{FrameReader, ReadMode, Record};
use ipactive_net::{ActiveSet, Addr, Prefix};
use ipactive_obs::{Registry, TraceContext};
use ipactive_serve::wire::{read_response, write_request};
use ipactive_serve::{
    duplex, ChaosPlan, DayLog, Observatory, PipeReader, PipeWriter, QueryKind, Request, Response,
    ServeConfig, Server, Status,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Requests the client keeps outstanding. Below the admission queue's
/// depth, so nothing is shed; enough that client, connection and worker
/// threads all stay busy and the numbers are CPU cost per request, not
/// futex wake-up latency.
pub const IN_FLIGHT: usize = 32;

/// Admission queue depth of the server under test.
const QUEUE_DEPTH: usize = 64;

/// Emits the universe's daily log as one stream and decodes it into one
/// [`DayLog`] per day, the form the observatory ingests.
pub fn day_logs(universe: &Universe, t: &mut Tracer) -> Vec<DayLog> {
    let shards = t.span("cdnsim.pipeline.emit_daily", |_| {
        emit_daily_shards(universe, 1).expect("Vec writers cannot fail")
    });
    let mut logs = vec![DayLog::new(); universe.config().daily_days];
    t.span("logfmt.frame.decode_daily", |_| {
        let mut reader = FrameReader::new(&shards[0][..], ReadMode::Strict);
        while let Some(record) = reader.read().expect("a freshly emitted log decodes") {
            if let Record::Hits { day, addr, hits } = record {
                logs[day as usize].record(addr, hits);
            }
        }
    });
    logs
}

/// The batch build over `logs`: the same fold and finish the observatory
/// replays on every ingest, called from here.
pub fn batch_datasets(logs: &[DayLog], t: &mut Tracer) -> (DailyDataset, WeeklyDataset) {
    let daily = t.span("core.dataset.replay_daily", |_| {
        let mut builder = DailyDatasetBuilder::new(logs.len());
        for (d, log) in logs.iter().enumerate() {
            for &(addr, hits) in &log.hits {
                builder.record_hits(d, addr, hits);
            }
        }
        builder.finish()
    });
    let weekly = t.span("core.dataset.replay_weekly", |_| {
        let weeks = logs.len() / 7;
        let mut builder = WeeklyDatasetBuilder::new(weeks);
        for (d, log) in logs[..weeks * 7].iter().enumerate() {
            for &(addr, hits) in &log.hits {
                builder.record_week(d / 7, addr, hits);
            }
        }
        builder.finish()
    });
    (daily, weekly)
}

/// An engine of its own over the batch build of `logs`, sharing no cache
/// with the server's: what a served answer must equal.
pub struct Reference {
    engine: AnalysisCtx,
}

impl Reference {
    /// Wraps the batch-built datasets.
    pub fn new((daily, weekly): (DailyDataset, WeeklyDataset)) -> Reference {
        Reference {
            engine: AnalysisCtx::new(Arc::new(daily), Arc::new(weekly)),
        }
    }

    /// The datasets the reference answers from.
    pub fn datasets(&self) -> (&DailyDataset, &WeeklyDataset) {
        (self.engine.daily(), self.engine.weekly())
    }

    /// The exact value of `kind`.
    pub fn answer(&self, kind: QueryKind) -> u64 {
        match kind {
            QueryKind::DayWindow { start, end } => {
                self.engine.day_window(start as usize..end as usize).len() as u64
            }
            QueryKind::WeekWindow { start, end } => {
                self.engine.week_window(start as usize..end as usize).len() as u64
            }
            QueryKind::PrefixCount { base, len } => {
                self.engine
                    .all_active()
                    .count_in(Prefix::new(Addr::new(base), len)) as u64
            }
            other => unreachable!("the benchmark never sends {other:?}"),
        }
    }
}

/// One answered request.
pub struct Answer {
    /// What was asked.
    pub kind: QueryKind,
    /// The server's reply.
    pub response: Response,
    /// Send to receive, in nanoseconds.
    pub latency_ns: u64,
    /// When the request was sent.
    pub sent: Instant,
    /// `None` when the reply is what a correct server sends: the id of
    /// the oldest outstanding request, `Status::Ok`.
    pub fault: Option<String>,
}

/// An observatory behind a one-worker server, and one closed-loop client
/// connection to it.
pub struct Serving {
    /// The observatory the server answers from.
    pub observatory: Arc<Observatory>,
    /// Registry the observatory and server meter into.
    pub registry: Registry,
    server: Option<Server>,
    link: Option<(PipeReader, PipeWriter)>,
    outstanding: VecDeque<(u64, QueryKind, Instant)>,
    next_id: u64,
}

impl Serving {
    /// Starts the server (one worker, queue depth 64, no chaos, no SLO
    /// monitor) over an empty observatory and connects the client.
    pub fn start() -> Serving {
        let registry = Registry::new();
        let observatory: Arc<Observatory> = Arc::new(Observatory::new(&registry));
        let server = Server::start(
            observatory.clone(),
            ServeConfig {
                workers: 1,
                queue_depth: QUEUE_DEPTH,
                chaos: ChaosPlan::none(),
                slo: None,
            },
        );
        let (client, server_end) = duplex();
        let (srx, stx) = server_end.split();
        server.attach(srx, stx);
        Serving {
            observatory,
            registry,
            server: Some(server),
            link: Some(client.split()),
            outstanding: VecDeque::with_capacity(IN_FLIGHT),
            next_id: 0,
        }
    }

    /// Queries the server has executed.
    pub fn executed(&self) -> u64 {
        self.server.as_ref().map_or(0, Server::executed)
    }

    /// Requests sent so far.
    pub fn sent(&self) -> u64 {
        self.next_id
    }

    /// Sends `kind`; with [`IN_FLIGHT`] requests already outstanding it
    /// first waits for the oldest one's answer and returns it.
    pub fn submit(&mut self, kind: QueryKind) -> Option<Answer> {
        let answer = if self.outstanding.len() >= IN_FLIGHT {
            self.receive()
        } else {
            None
        };
        let request = Request {
            id: self.next_id,
            kind,
            budget_ms: 0,
            allow_degraded: false,
            trace: TraceContext::NONE,
        };
        let (_, tx) = self.link.as_mut().expect("link is open until drop");
        let sent = Instant::now();
        write_request(tx, &request).expect("server hung up");
        self.outstanding.push_back((request.id, kind, sent));
        self.next_id += 1;
        answer
    }

    /// Waits for the next answer; `None` when nothing is outstanding.
    pub fn receive(&mut self) -> Option<Answer> {
        let (id, kind, sent) = self.outstanding.pop_front()?;
        let (rx, _) = self.link.as_mut().expect("link is open until drop");
        let response = read_response(rx)
            .expect("undecodable response")
            .expect("server hung up");
        let latency_ns = sent.elapsed().as_nanos() as u64;
        let fault = if response.id != id {
            Some(format!("request {id} answered with id {}", response.id))
        } else if response.status != Status::Ok {
            Some(format!(
                "request {id} ({kind:?}) came back {:?}",
                response.status
            ))
        } else {
            None
        };
        Some(Answer {
            kind,
            response,
            latency_ns,
            sent,
            fault,
        })
    }
}

impl Drop for Serving {
    /// Hangs up, which lets the connection thread end, then stops and
    /// joins the server's threads.
    fn drop(&mut self) {
        self.link = None;
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
