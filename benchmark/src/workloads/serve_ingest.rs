//! `serve_ingest`: writes beside reads.
//!
//! Each op ingests one more day and then asks, through the server, for
//! every window that ends on the new day (all first-touch, all through
//! compose) and for a fixed panel of older windows (all carried forward
//! by `AnalysisCtx::extended_from`). `Observatory::ingest_batch` replays
//! every day into fresh builders, so today the op is almost all ingest;
//! a faster ingest that loses the carry-forward, or a faster compose that
//! slows folding, shows here.

use super::serving::{batch_datasets, day_logs, Answer, Reference, Serving};
use super::{Params, Samples, Workload};
use crate::inputs::window_panel;
use crate::trace::Tracer;
use ipactive_cdnsim::Universe;
use ipactive_core::{AnalysisCtx, DailyDataset, WeeklyDataset};
use ipactive_obs::Registry;
use ipactive_serve::{DayLog, QueryKind};
use std::sync::Arc;

/// Windows in the panel that is warmed in set-up and asked for again
/// after every ingest.
const PANEL: usize = 256;

/// Share of the days ingested in bulk; the rest arrive one per op. Every
/// ingest replays all days so far, so an op's cost grows with the day it
/// ingests: the bulk is large enough that the cheapest and the dearest
/// op of a cycle differ by an eighth, not by a third.
const BULK_SHARE: f64 = 0.875;

/// A server over the bulk-ingested days, the days still to arrive, and
/// every answer given so far.
pub struct ServeIngest {
    serving: Serving,
    logs: Vec<DayLog>,
    bulk: usize,
    ingested: usize,
    panel: Vec<(usize, usize)>,
    answers: Vec<(QueryKind, u64)>,
    cycle_end: Option<(Arc<DailyDataset>, Arc<WeeklyDataset>)>,
}

impl ServeIngest {
    /// Replaces the server with a fresh one over the first `bulk` days,
    /// ingested as one epoch, with the panel asked for once so that every
    /// later ingest has it to carry forward. The old server goes before
    /// the new one fills, so the two never hold their datasets at once.
    fn restart(&mut self, t: &mut Tracer) {
        self.serving = Serving::start();
        let snap = t.span("serve.observatory.bulk_ingest", |_| {
            let bulk = self.logs[..self.bulk].to_vec();
            self.serving.observatory.ingest_days(bulk)
        });
        t.span("serve.observatory.warm_panel", |_| {
            for &(start, end) in &self.panel {
                snap.engine().day_window(start..end);
            }
        });
        self.ingested = self.bulk;
    }

    /// Asks for `windows` through the server and keeps the answers.
    fn ask(&mut self, windows: impl Iterator<Item = (usize, usize)>, s: &mut Samples) {
        let kinds = windows.map(|(start, end)| QueryKind::DayWindow {
            start: start as u64,
            end: end as u64,
        });
        let mut answers: Vec<Answer> = Vec::new();
        for kind in kinds {
            answers.extend(self.serving.submit(kind));
        }
        while let Some(answer) = self.serving.receive() {
            answers.push(answer);
        }
        for answer in answers {
            if let Some(fault) = answer.fault {
                s.fail(format!("serve_ingest: {fault}"));
            }
            self.answers.push((answer.kind, answer.response.value));
        }
    }
}

impl Workload for ServeIngest {
    const NAME: &'static str = "serve_ingest";
    const OP_SPAN: &'static str = "serve_ingest.op";

    fn setup(p: &Params, t: &mut Tracer) -> Self {
        let universe = Universe::generate(p.universe.clone());
        let logs = day_logs(&universe, t);
        let bulk = (logs.len() as f64 * BULK_SHARE) as usize;
        let panel = window_panel(p.seed, bulk, PANEL.min(bulk * (bulk - 1) / 2));
        let mut state = ServeIngest {
            serving: Serving::start(),
            logs,
            bulk,
            ingested: 0,
            panel,
            answers: Vec::new(),
            cycle_end: None,
        };
        state.restart(t);
        state
    }

    fn batch(&mut self, t: &mut Tracer, s: &mut Samples) -> bool {
        let Some(log) = self.logs.get(self.ingested).cloned() else {
            return false;
        };
        let day = self.ingested;
        s.units += log.hits.len() as u64;
        let failed_before = s.failed;
        let t0 = std::time::Instant::now();
        t.op(Self::OP_SPAN, |t| {
            t.span("serve.observatory.ingest_day", |_| {
                self.serving.observatory.ingest_day(log)
            });
            self.ingested += 1;
            t.span("serve.observatory.first_touch_sweep", |_| {
                let panel = std::mem::take(&mut self.panel);
                let new = (0..=day).map(|start| (start, day + 1));
                self.ask(new.chain(panel.iter().copied()), s);
                self.panel = panel;
            });
        });
        s.op_ns.push(t0.elapsed().as_nanos() as u64);
        s.attempted += 1;
        // Several bad answers in one op are one failed op.
        s.failed = s.failed.min(failed_before + 1);
        self.ingested < self.logs.len()
    }

    /// Every day is in: keeps the datasets this cycle ended on for
    /// `verify`, and goes back to a fresh server over the bulk, as set-up
    /// left it.
    fn rewind(&mut self, t: &mut Tracer) -> bool {
        let snap = self.serving.observatory.pin();
        self.cycle_end = Some((snap.daily().clone(), snap.weekly().clone()));
        drop(snap);
        self.restart(t);
        true
    }

    /// The served datasets — where the run stopped, and where the last
    /// full cycle ended — against a batch build over the same logs, and
    /// every answer given against the reference engine over all days.
    fn verify(&mut self, t: &mut Tracer, s: &mut Samples) {
        let snap = self.serving.observatory.pin();
        t.set("serve.observatory.epochs", snap.epoch() as f64);
        t.set(
            "serve.observatory.first_touch_windows",
            self.answers
                .len()
                .saturating_sub(s.attempted as usize * self.panel.len()) as f64,
        );
        let (daily, weekly) = batch_datasets(&self.logs[..self.ingested], t);
        if (&daily, &weekly) != (&**snap.daily(), &**snap.weekly()) {
            s.fail(
                "serve_ingest: the served datasets differ from a batch build over the same logs",
            );
        }
        let reference = Reference::new(batch_datasets(&self.logs, t));
        if let Some((daily, weekly)) = &self.cycle_end {
            if reference.datasets() != (&**daily, &**weekly) {
                s.fail(
                    "serve_ingest: a full cycle's datasets differ from a batch build over all logs",
                );
            }
        }
        for &(kind, value) in &self.answers {
            let want = reference.answer(kind);
            if value != want {
                s.fail(format!(
                    "serve_ingest: {kind:?} answered {value}, the reference says {want}"
                ));
            }
        }
    }

    /// Carrying every cached slot into a new engine, on its own.
    fn probes(&mut self, t: &mut Tracer) {
        let snap = self.serving.observatory.pin();
        t.span("core.engine.extended_from", |_| {
            AnalysisCtx::extended_from(
                snap.engine(),
                snap.daily().clone(),
                snap.weekly().clone(),
                &Registry::new(),
            )
        });
    }
}
