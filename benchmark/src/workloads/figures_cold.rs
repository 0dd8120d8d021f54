//! `figures_cold`: datasets → the paper's 24 tables and figures, from an
//! empty analysis cache, on one thread.
//!
//! The researcher's cold report at `--jobs 1`: `core::engine` compose,
//! the `net::tiered` merges and the `core::{churn, events, …}` kernels
//! do the work, the dataset builders none.

use super::{Params, Samples, Workload};
use crate::inputs::window_panel;
use crate::trace::Tracer;
use ipactive_bench::{AnalysisCtx, CheckOutcome, Repro, Scale, EXPERIMENTS};
use ipactive_cdnsim::Universe;
use ipactive_core::DailyDataset;
use ipactive_net::{ActiveSet, RefSet, TieredSet};
use std::hint::black_box;
use std::sync::Arc;

/// Windows in the seeded panel the engine sweep probes ask for.
const PANEL: usize = 256;

/// The session and the report every op must reproduce byte for byte.
pub struct FiguresCold {
    repro: Repro,
    seed: u64,
    first: Option<String>,
}

impl FiguresCold {
    /// Replaces the session's engine with an empty one over the same
    /// datasets: the next query of every window is a miss again.
    fn reset_engine(&mut self) {
        self.repro.engine = AnalysisCtx::new_with_obs(
            self.repro.daily.clone(),
            self.repro.weekly.clone(),
            self.repro.registry(),
        );
    }
}

impl Workload for FiguresCold {
    const NAME: &'static str = "figures_cold";
    const OP_SPAN: &'static str = "figures_cold.op";

    /// `Repro::new` takes a scale preset, not a config, so the session
    /// shell is built at the smallest preset and the benchmark universe
    /// and its datasets are put into the session's public fields — the
    /// same door the op uses to install a fresh engine. The probes run
    /// afterwards, so they scan the universe that was put in.
    fn setup(p: &Params, t: &mut Tracer) -> Self {
        let universe = Universe::generate(p.universe.clone());
        let daily = Arc::new(universe.build_daily());
        let weekly = Arc::new(universe.build_weekly());
        let mut repro = Repro::new(p.universe.seed, Scale::Tiny);
        repro.universe = universe;
        repro.daily = daily;
        repro.weekly = weekly;
        let mut state = FiguresCold {
            repro,
            seed: p.seed,
            first: None,
        };
        state.reset_engine();
        t.span("bench.prewarm_probes", |_| state.repro.prewarm_probes());
        state
    }

    fn batch(&mut self, t: &mut Tracer, s: &mut Samples) -> bool {
        let output = s.time_op(|| {
            t.op(Self::OP_SPAN, |t| {
                t.span("figures_cold.reset_engine", |_| self.reset_engine());
                t.span("bench.run_all", |_| self.repro.run_all(1))
                    .combined_output()
            })
        });
        s.units += EXPERIMENTS.len() as u64;
        match &self.first {
            None => self.first = Some(output),
            Some(first) if *first == output => {}
            Some(_) => s.fail("figures_cold: an op's report differs from the first op's"),
        }
        true
    }

    /// The report against a two-job run, and the paper-shape checks.
    fn verify(&mut self, _t: &mut Tracer, s: &mut Samples) {
        let Some(first) = self.first.take() else {
            return;
        };
        self.reset_engine();
        if self.repro.run_all(2).combined_output() != first {
            s.fail("figures_cold: the --jobs 1 report differs from the --jobs 2 report");
        }
        for check in self.repro.validate() {
            if let CheckOutcome::Fail(detail) = check.outcome {
                s.fail(format!(
                    "figures_cold: shape check {} `{}` failed: {detail}",
                    check.experiment, check.claim
                ));
            }
        }
    }

    fn probes(&mut self, t: &mut Tracer) {
        let days = self.repro.daily.num_days;
        let panel = window_panel(self.seed, days, PANEL.min(days * (days - 1) / 2));

        self.reset_engine();
        let engine = &self.repro.engine;
        t.span("core.engine.prewarm_units", |_| engine.prewarm_units());
        t.span("core.engine.all_active", |_| engine.all_active());
        for sweep in [
            "core.engine.window_sweep_cold",
            "core.engine.window_sweep_warm",
        ] {
            t.span(sweep, |_| {
                for &(start, end) in &panel {
                    black_box(engine.day_window(start..end));
                }
            });
        }

        // Per figure, in paper order, on one fresh prewarmed engine.
        self.reset_engine();
        self.repro.engine.prewarm_units();
        for exp in EXPERIMENTS {
            t.span(format!("bench.figure.{exp}"), |_| self.repro.run(exp));
        }

        self.reset_engine();
        let cold = t.span("bench.suite_cold_jobs2", |_| self.repro.run_all(2));
        t.set("core.engine.cache_hits", cold.cache.hits as f64);
        t.set("core.engine.cache_misses", cold.cache.misses as f64);
        t.span("bench.suite_warm", |_| self.repro.run_all(1));
        t.span("bench.suite_uncached", |_| self.repro.run_serial_uncached());

        set_kernels::<TieredSet>(&self.repro.daily, t, &TIERED);
        set_kernels::<RefSet>(&self.repro.daily, t, &REFSET);
    }
}

/// Span and value names of [`set_kernels`] on one backend, in the order
/// it uses them: build, memory, union of all, then the pairwise kernels.
type KernelRows = [&'static str; 8];

const TIERED: KernelRows = [
    "net.tiered.build",
    "net.tiered.memory_mb",
    "net.tiered.union_many",
    "net.tiered.pair_union",
    "net.tiered.pair_intersect_len",
    "net.tiered.pair_difference",
    "net.tiered.diff_event_masks",
    "net.tiered.count_in",
];

const REFSET: KernelRows = [
    "net.refset.build",
    "net.refset.memory_mb",
    "net.refset.union_many",
    "net.refset.pair_union",
    "net.refset.pair_intersect_len",
    "net.refset.pair_difference",
    "net.refset.diff_event_masks",
    "net.refset.count_in",
];

/// The eight set kernels the engine and the figure code lean on, over
/// the real day sets, on backend `S`.
fn set_kernels<S: ActiveSet>(daily: &DailyDataset, t: &mut Tracer, rows: &KernelRows) {
    let [build, memory_mb, union_many, pair_union, pair_intersect_len, pair_difference, diff_event_masks, count_in] =
        *rows;
    let sets: Vec<S> = t.span(build, |_| daily.day_sets_all::<S>());
    let bytes: usize = sets.iter().map(|s| s.memory_bytes()).sum();
    t.set(memory_mb, bytes as f64 / (1024.0 * 1024.0));
    let refs: Vec<&S> = sets.iter().collect();
    let all = t.span(union_many, |_| S::union_many(&refs));
    let pairs = || sets.windows(2).map(|w| (&w[0], &w[1]));
    t.span(pair_union, |_| {
        pairs().for_each(|(a, b)| {
            black_box(a.union(b));
        })
    });
    t.span(pair_intersect_len, |_| {
        pairs().for_each(|(a, b)| {
            black_box(a.intersect_len(b));
        })
    });
    t.span(pair_difference, |_| {
        pairs().for_each(|(a, b)| {
            black_box(a.difference(b));
        })
    });
    t.span(diff_event_masks, |_| {
        let mut events = 0u64;
        pairs().for_each(|(prev, cur)| cur.diff_event_masks(prev, |m| events += u64::from(m)));
        black_box(events)
    });
    let blocks = all.blocks24();
    t.span(count_in, |_| {
        for set in &sets {
            for block in blocks.iter().step_by(16) {
                black_box(set.count_in(block.prefix()));
            }
        }
    });
}
