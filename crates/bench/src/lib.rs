//! # ipactive-bench
//!
//! The figure-regeneration harness: one function per table and figure
//! of the paper, each generating the corresponding data series from a
//! synthetic universe and formatting it the way the paper reports it.
//! The `repro` binary drives these; EXPERIMENTS.md records paper-vs-
//! measured for every entry.

#![forbid(unsafe_code)]

mod bands;
pub mod cli;
pub mod worker_cli;

pub use bands::{Check, CheckOutcome};

// The analysis engine moved down into `ipactive-core` so the serving
// layer can build on it without a bench dependency; re-exported here
// so existing callers keep their import paths.
pub use ipactive_core::engine::{AnalysisCtx, CacheStats};

use ipactive_cdnsim::{
    emit_shard_buffers, monthly_counts, stream_pipeline, supervised_collect, Daily, FaultPlan,
    GrowthModel, PipelineReport, RetryPolicy, SupervisedReport, Universe, UniverseConfig, Weekly,
};
use ipactive_obs::{Registry, TraceContext, TraceId};
use ipactive_core::par::claim_map;
use ipactive_core::{
    blocks, census, change, churn, demographics, events, geo, hosts, matrix, timeline,
    traffic, visibility, DailyDataset, WeeklyDataset,
};
use ipactive_net::{ActiveSet, TieredSet};
use ipactive_probe::{PortScanner, ScanCampaign, TracerouteCampaign};
use ipactive_rir::{YearMonth, RIR_EXHAUSTION};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Universe scale for a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale (seconds even in debug builds).
    Tiny,
    /// Integration scale.
    Small,
    /// Full harness scale (use release builds).
    Full,
}

impl Scale {
    /// The matching universe config.
    pub fn config(self, seed: u64) -> UniverseConfig {
        match self {
            Scale::Tiny => UniverseConfig::tiny(seed),
            Scale::Small => UniverseConfig::small(seed),
            Scale::Full => UniverseConfig::default_scale(seed),
        }
    }

    /// The CLI spelling of the scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// The scale a CLI spelling names.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Small, Scale::Full].into_iter().find(|s| s.name() == name)
    }
}

/// A reproduction session: one universe plus its two datasets, the
/// shared analysis engine, and lazily-run probing campaigns.
///
/// Generic over the [`ActiveSet`] backend every activity set
/// materializes into; defaults to the tiered compressed
/// representation. `Repro::<ipactive_net::RefSet>` runs the identical
/// suite on the sorted-`Vec` oracle — the figure-differential test in
/// `tests/engine.rs` pins that both backends produce byte-identical
/// output.
pub struct Repro<S: ActiveSet = TieredSet> {
    /// The synthetic Internet.
    pub universe: Universe,
    /// The daily dataset (shared with [`Repro::engine`]).
    pub daily: Arc<DailyDataset>,
    /// The weekly dataset (shared with [`Repro::engine`]).
    pub weekly: Arc<WeeklyDataset>,
    /// The memoized activity-set cache every figure queries through.
    pub engine: AnalysisCtx<S>,
    registry: Registry,
    seed: u64,
    icmp: OnceLock<S>,
    servers: OnceLock<S>,
    routers: OnceLock<S>,
}

/// Throughput accounting for a pipeline-built [`Repro`] session: one
/// [`PipelineReport`] per dataset cadence.
pub struct PipelineRunSummary {
    /// Report of the daily-dataset pipeline run.
    pub daily: PipelineReport,
    /// Report of the weekly-dataset pipeline run.
    pub weekly: PipelineReport,
}

impl PipelineRunSummary {
    /// Renders both reports as an operator-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, report) in [("daily", &self.daily), ("weekly", &self.weekly)] {
            let _ = writeln!(
                out,
                "{name}: {} records, {:.1} MiB over {} workers -> {} collectors in {:.2}s ({:.0} records/s)",
                report.totals.records_read,
                report.totals.bytes as f64 / (1024.0 * 1024.0),
                report.workers,
                report.collectors(),
                report.elapsed.as_secs_f64(),
                report.records_per_sec(),
            );
            for (i, s) in report.per_collector.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  collector {i}: {:>10} records, {:>8} buffers, {:>6.1} MiB, {} skipped, {} resyncs ({:.0} records/s)",
                    s.records_read,
                    s.buffers,
                    s.bytes as f64 / (1024.0 * 1024.0),
                    s.frames_skipped,
                    s.resyncs,
                    s.records_per_sec(),
                );
            }
        }
        out
    }
}

/// Accounting for a supervised (fault-injected or self-healing)
/// pipeline run: one [`SupervisedReport`] per dataset cadence.
pub struct SupervisedRunSummary {
    /// Supervised report of the daily-dataset run.
    pub daily: SupervisedReport,
    /// Supervised report of the weekly-dataset run.
    pub weekly: SupervisedReport,
    /// The fault plan the run was driven with.
    pub plan: FaultPlan,
}

impl SupervisedRunSummary {
    /// Renders both supervised reports — coverage, retries, and
    /// quarantine — as an operator-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fault plan: {} faults (seed {:#x})", self.plan.faults().len(), self.plan.seed);
        for (name, sup) in [("daily", &self.daily), ("weekly", &self.weekly)] {
            let _ = writeln!(
                out,
                "{name}: {} records over {} collectors, {} retries, {} dead-lettered frames, {}",
                sup.report.totals.records_read,
                sup.report.collectors(),
                sup.retries(),
                sup.quarantine.len(),
                sup.coverage.summary(),
            );
            for outcome in &sup.outcomes {
                let recovered =
                    outcome.buffers.iter().filter(|b| b.recovered()).count();
                let lost =
                    outcome.buffers.iter().filter(|b| !b.succeeded()).count();
                if recovered > 0 || lost > 0 {
                    let _ = writeln!(
                        out,
                        "  shard {}: completeness {:.3}, {} retries, {} buffers recovered, {} degraded",
                        outcome.shard,
                        outcome.completeness(),
                        outcome.retries(),
                        recovered,
                        lost,
                    );
                }
            }
        }
        out
    }
}

/// The experiment identifiers, in paper order.
pub const EXPERIMENTS: [&str; 24] = [
    "fig1", "table1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c",
    "fig5a", "fig5b", "fig5c", "table2", "fig6", "fig7", "fig8a", "fig8b", "fig8c",
    "fig9a", "fig9b", "fig9c", "fig10", "fig11", "fig12",
];

/// [`EXPERIMENTS`] indices in scheduling order: the measured
/// heavyweights first, so the figures that dominate the critical path
/// start before the cheap ones instead of landing on whichever worker
/// drains last. A pure constant — workers pull from this list through
/// a shared counter, and the report is still assembled in
/// [`EXPERIMENTS`] order, so output bytes never depend on it.
const HEAVY_FIRST: [usize; 24] = [
    10, 11, 7, 6, 9, 20, 16, // fig5b fig5c fig4b fig4a fig5a fig9c fig8b
    0, 1, 2, 3, 4, 5, 8, 12, 13, 14, 15, 17, 18, 19, 21, 22, 23,
];

/// Salt for per-figure trace ids: `mint(seed ^ FIG_SALT, figure
/// index)`, so a suite run's traces are a pure function of the seed
/// and every rerun (at any `--jobs`) mints the same ids.
const FIG_SALT: u64 = 0xF19_93BE;

impl<S: ActiveSet> Repro<S> {
    fn assemble(
        universe: Universe,
        daily: DailyDataset,
        weekly: WeeklyDataset,
        seed: u64,
        registry: Registry,
    ) -> Self {
        let daily = Arc::new(daily);
        let weekly = Arc::new(weekly);
        Repro {
            universe,
            engine: AnalysisCtx::new_with_obs(daily.clone(), weekly.clone(), &registry),
            daily,
            weekly,
            registry,
            seed,
            icmp: OnceLock::new(),
            servers: OnceLock::new(),
            routers: OnceLock::new(),
        }
    }

    /// The session-wide metrics registry. Every stage that built this
    /// session — pipeline collectors, the supervisor, the analysis
    /// engine's cache — accumulates into this one registry, so a
    /// single snapshot describes the whole run.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Builds the session over an explicit set backend (generates the
    /// universe and both datasets). `Repro::new` is the default-backend
    /// spelling; the differential suite calls this with both backends.
    pub fn with_backend(seed: u64, scale: Scale) -> Self {
        let registry = Registry::new();
        let universe = Universe::generate(scale.config(seed));
        let (daily, weekly) = {
            let _span = registry.span("repro.build");
            universe.build_datasets()
        };
        Repro::assemble(universe, daily, weekly, seed, registry)
    }
}

/// Constructors on the default (tiered) backend. Like
/// `HashMap::new`'s relationship to its hasher parameter, these live
/// on the defaulted type so plain `Repro::new(...)` needs no
/// annotation; `Repro::<S>::with_backend` is the generic spelling.
impl Repro {
    /// Builds the session (generates the universe and both datasets).
    pub fn new(seed: u64, scale: Scale) -> Repro {
        Repro::with_backend(seed, scale)
    }

    /// Builds the session with both datasets produced by the sharded
    /// log pipeline (`workers` edge threads × `collectors` collector
    /// threads) instead of the direct builders. The datasets are
    /// guaranteed identical to [`Repro::new`]'s — the differential
    /// suite pins that — so every experiment runs unchanged; the
    /// returned summary reports the pipeline's per-stage throughput.
    pub fn new_via_pipeline(
        seed: u64,
        scale: Scale,
        workers: usize,
        collectors: usize,
    ) -> (Repro, PipelineRunSummary) {
        let registry = Registry::new();
        let universe = Universe::generate(scale.config(seed));
        let (daily, daily_report) = {
            let _span = registry.span("repro.pipeline.daily");
            stream_pipeline::<Daily>(&universe, workers, collectors, &registry)
        };
        let (weekly, weekly_report) = {
            let _span = registry.span("repro.pipeline.weekly");
            stream_pipeline::<Weekly>(&universe, workers, collectors, &registry)
        };
        let repro = Repro::assemble(universe, daily, weekly, seed, registry);
        (repro, PipelineRunSummary { daily: daily_report, weekly: weekly_report })
    }

    /// Builds the session through the *supervised* pipeline with
    /// `faults` deterministic injected faults (crashes, corruption,
    /// drops, stalls — see [`FaultPlan::scatter`]). Transient faults
    /// heal via checkpointed replay, so with few faults the datasets
    /// usually equal [`Repro::new`]'s; permanent faults degrade the
    /// run gracefully and the datasets carry a coverage grid saying
    /// exactly which shards lost data. With `faults == 0` this is a
    /// supervised-but-clean run (coverage 1.0).
    pub fn new_supervised(
        seed: u64,
        scale: Scale,
        workers: usize,
        collectors: usize,
        faults: usize,
    ) -> std::io::Result<(Repro, SupervisedRunSummary)> {
        let registry = Registry::new();
        let universe = Universe::generate(scale.config(seed));
        let daily_buffers = emit_shard_buffers::<Daily>(&universe, workers, collectors)?;
        let weekly_buffers = emit_shard_buffers::<Weekly>(&universe, workers, collectors)?;
        let buffers_per_shard =
            daily_buffers.iter().map(Vec::len).max().unwrap_or(0);
        let plan = FaultPlan::scatter(seed, collectors, buffers_per_shard, faults);
        let policy = RetryPolicy::default();
        let (daily, daily_report) = {
            let _span = registry.span("repro.supervised.daily");
            supervised_collect::<Daily>(
                &daily_buffers,
                universe.config().daily_days,
                &policy,
                &plan,
                &registry,
            )?
        };
        let (weekly, weekly_report) = {
            let _span = registry.span("repro.supervised.weekly");
            supervised_collect::<Weekly>(
                &weekly_buffers,
                universe.config().weeks,
                &policy,
                &plan,
                &registry,
            )?
        };
        let repro = Repro::assemble(universe, daily, weekly, seed, registry);
        Ok((repro, SupervisedRunSummary { daily: daily_report, weekly: weekly_report, plan }))
    }

    /// Builds the session through *process-level* distributed
    /// collection: `shards` separate worker OS processes (spawned
    /// from `worker_cmd`, e.g. the current binary's hidden `worker`
    /// mode) each replay their shard into a leased store pair under
    /// `root`, while the coordinator heartbeat-watches them, `kill
    /// -9`s any scheduled victims in `plan`, fsck-repairs what the
    /// dead leave behind, and regrants or records honest coverage
    /// loss. The merged datasets are identical to [`Repro::new`]'s
    /// whenever no shard is permanently lost.
    #[allow(clippy::too_many_arguments)]
    pub fn new_distributed(
        seed: u64,
        scale: Scale,
        shards: usize,
        emitters: usize,
        jobs: usize,
        root: std::path::PathBuf,
        worker_cmd: &[String],
        plan: &ipactive_coord::KillPlan,
    ) -> std::io::Result<(Repro, ipactive_coord::DistributedOutcome)> {
        let registry = Registry::new();
        let mut cfg = ipactive_coord::CoordConfig::new(scale.config(seed), root, shards, emitters);
        cfg.jobs = jobs;
        let extra_args = [
            "--seed".to_string(),
            seed.to_string(),
            "--scale".to_string(),
            scale.name().to_string(),
        ];
        let outcome = {
            let _span = registry.span("repro.distributed");
            ipactive_coord::run_processes(&cfg, plan, worker_cmd, &extra_args, &registry)?
        };
        let universe = Universe::generate(scale.config(seed));
        let repro = Repro::assemble(
            universe,
            outcome.daily.clone(),
            outcome.weekly.clone(),
            seed,
            registry,
        );
        Ok((repro, outcome))
    }
}

impl<S: ActiveSet> Repro<S> {
    fn cdn_union(&self) -> Arc<S> {
        self.engine.all_active()
    }

    // The probe campaigns hand back reference sets; re-materialize
    // into the session backend once (the campaign output is sorted, so
    // the conversion is a straight streaming build).
    fn icmp_union(&self) -> &S {
        self.icmp.get_or_init(|| {
            let scan = ScanCampaign::new(self.seed ^ 0x1C0F, 8).run_union(&self.universe);
            S::from_sorted_vec(scan.iter().collect())
        })
    }

    fn server_set(&self) -> &S {
        self.servers.get_or_init(|| {
            S::from_sorted_vec(PortScanner::new().scan_any(&self.universe).iter().collect())
        })
    }

    fn router_set(&self) -> &S {
        self.routers.get_or_init(|| {
            let run = TracerouteCampaign::new(self.seed ^ 0x712CE, 0.7).run(&self.universe);
            S::from_sorted_vec(run.iter().collect())
        })
    }

    /// Runs one experiment by name, returning its report text.
    pub fn run(&self, name: &str) -> Option<String> {
        self.record(name).map(|f| f.text)
    }

    /// Runs one experiment by name, returning its whole record.
    fn record(&self, name: &str) -> Option<Figure> {
        Some(match name {
            "fig1" => self.fig1(),
            "table1" => self.table1(),
            "fig2a" => self.fig2a(),
            "fig2b" => self.fig2b(),
            "fig3a" => self.fig3a(),
            "fig3b" => self.fig3b(),
            "fig4a" => self.fig4a(),
            "fig4b" => self.fig4b(),
            "fig4c" => self.fig4c(),
            "fig5a" => self.fig5a(),
            "fig5b" => self.fig5b(),
            "fig5c" => self.fig5c(),
            "table2" => self.table2(),
            "fig6" => self.fig6(),
            "fig7" => self.fig7(),
            "fig8a" => self.fig8a(),
            "fig8b" => self.fig8b(),
            "fig8c" => self.fig8c(),
            "fig9a" => self.fig9a(),
            "fig9b" => self.fig9b(),
            "fig9c" => self.fig9c(),
            "fig10" => self.fig10(),
            "fig11" => self.fig11(),
            "fig12" => self.fig12(),
            _ => return None,
        })
    }

    /// Figure 1: monthly unique actives 2008–2016, regression, gap.
    fn fig1(&self) -> Figure {
        let pts = monthly_counts(&GrowthModel { seed: self.seed, ..GrowthModel::default() });
        let fit = timeline::fit_until(&pts, YearMonth::new(2014, 1)).expect("series fits");
        let onset = timeline::detect_stagnation(&pts, &fit, 0.5, 24);
        let mut out = header(
            "Figure 1 — monthly unique active IPv4 addresses",
            "paper: linear growth (~8M/month) until 2014, then stagnation below 1B",
        );
        for p in pts.iter().step_by(6) {
            let bar = "#".repeat((p.active / 25_000_000) as usize);
            let _ = writeln!(out, "  {}  {:>12}  {}", p.month, big(p.active), bar);
        }
        let _ = writeln!(
            out,
            "  pre-2014 fit: slope {}/month, r² {:.4}",
            big(fit.slope as u64),
            fit.r2
        );
        out.measure("r2", fit.r2);
        if let Some(m) = onset {
            let _ = writeln!(out, "  stagnation onset detected: {m}");
            out.measure("onset_year", f64::from(m.year));
        }
        if let Some(gap) = timeline::stagnation_gap(&pts, &fit, YearMonth::new(2015, 12)) {
            let _ = writeln!(out, "  2015-12 shortfall vs extrapolation: {:.1}%", gap * 100.0);
        }
        let _ = writeln!(out, "  RIR exhaustion marks:");
        for (rir, ym) in RIR_EXHAUSTION {
            let _ = writeln!(out, "    {ym}  {rir}");
        }
        out
    }

    /// Table 1: dataset totals and per-snapshot averages.
    fn table1(&self) -> Figure {
        let table = self.universe.bgp().base();
        let resolve = |b: ipactive_net::Block24| table.origin_of(b.network());
        let d = census::daily_census(&self.daily, resolve);
        let w = census::weekly_census(&self.weekly, resolve);
        let mut out = header(
            "Table 1 — dataset census (totals and per-snapshot averages)",
            "paper: daily 975M/655M IPs, 5.9M/5.1M /24s, 50.7K/47.9K ASes; weekly 1.2B/790M",
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>12} {:>9} {:>9} {:>7} {:>7}",
            "", "IPs total", "IPs avg", "/24 tot", "/24 avg", "AS tot", "AS avg"
        );
        for (label, row) in [("Daily", d), ("Weekly", w)] {
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>12} {:>9} {:>9} {:>7} {:>7}",
                format!("{label} ({} snapshots)", row.snapshots),
                big(row.ips_total),
                big(row.ips_avg as u64),
                big(row.blocks_total),
                big(row.blocks_avg as u64),
                big(row.ases_total),
                big(row.ases_avg as u64),
            );
        }
        out.measure("ips_total", d.ips_total as f64);
        out.measure("ips_avg", d.ips_avg);
        out
    }

    /// Figure 2(a): visibility CDN vs ICMP at four granularities.
    fn fig2a(&self) -> Figure {
        let cdn = self.cdn_union();
        let icmp = self.icmp_union();
        let table = self.universe.bgp().base();
        let rows = [
            ("IPs", visibility::split_addrs(&*cdn, icmp)),
            ("/24s", visibility::split_blocks(&*cdn, icmp)),
            ("prefixes", visibility::split_prefixes(&*cdn, icmp, table)),
            ("ASes", visibility::split_ases(&*cdn, icmp, table)),
        ];
        let mut out = header(
            "Figure 2(a) — CDN vs ICMP visibility by granularity",
            "paper: >40% of IPs are CDN-only; the gap shrinks at /24, prefix, AS level",
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>14} {:>14} {:>14}",
            "unit", "N", "CDN only", "CDN & ICMP", "ICMP only"
        );
        out.measure("cdn_only_ip", rows[0].1.cdn_only_fraction());
        out.measure("cdn_only_24", rows[1].1.cdn_only_fraction());
        for (label, s) in rows {
            let _ = writeln!(
                out,
                "  {:<10} {:>10} {:>13.1}% {:>13.1}% {:>13.1}%",
                label,
                big(s.total() as u64),
                100.0 * s.cdn_only_fraction(),
                100.0 * (1.0 - s.cdn_only_fraction() - s.icmp_only_fraction()),
                100.0 * s.icmp_only_fraction(),
            );
        }
        if let Some(est) = visibility::estimate_population(&*cdn, icmp) {
            let union = cdn.union(icmp).len();
            let _ = writeln!(
                out,
                "  capture/recapture population estimate: {} (union observed: {}; \
                 the Zander-et-al-style extrapolation the paper's 1.2B count agrees with)",
                big(est as u64),
                big(union as u64),
            );
        }
        out
    }

    /// Figure 2(b): classification of ICMP-only addresses.
    fn fig2b(&self) -> Figure {
        let cdn = self.cdn_union();
        let icmp_only = self.icmp_union().difference(&cdn);
        let c = visibility::classify_icmp_only(&icmp_only, self.server_set(), self.router_set());
        let mut out = header(
            "Figure 2(b) — classification of ICMP-only addresses",
            "paper: ~half attributable to server/router infrastructure, rest unknown",
        );
        let total = c.total().max(1) as f64;
        for (label, n) in [
            ("server", c.server),
            ("server+router", c.server_router),
            ("router", c.router),
            ("unknown", c.unknown),
        ] {
            let _ = writeln!(
                out,
                "  {:<14} {:>9} ({:>5.1}%)",
                label,
                big(n as u64),
                100.0 * n as f64 / total
            );
        }
        let _ = writeln!(
            out,
            "  infrastructure fraction: {:.1}%",
            100.0 * c.infrastructure_fraction()
        );
        out.measure("icmp_only", c.total() as f64);
        out.measure("infrastructure", c.infrastructure_fraction());
        out
    }

    /// Figure 3(a): visibility by RIR.
    fn fig3a(&self) -> Figure {
        let cdn = self.cdn_union();
        let grouped = geo::by_rir(&*cdn, self.icmp_union(), self.universe.delegations());
        let mut out = header(
            "Figure 3(a) — IPv4 address visibility grouped by RIR",
            "paper: CDN adds substantial visibility everywhere, most strongly in AFRINIC",
        );
        let _ = writeln!(
            out,
            "  {:<9} {:>10} {:>11} {:>11} {:>11} {:>11}",
            "RIR", "seen", "CDN&ICMP", "CDN only", "ICMP only", "CDN gain"
        );
        for rir in ipactive_rir::Rir::ALL {
            let s = grouped[rir.index()];
            let _ = writeln!(
                out,
                "  {:<9} {:>10} {:>11} {:>11} {:>11} {:>10.0}%",
                rir.name(),
                big(s.total() as u64),
                big(s.both as u64),
                big(s.cdn_only as u64),
                big(s.icmp_only as u64),
                100.0 * geo::cdn_gain_over_icmp(&s),
            );
        }
        out
    }

    /// Figure 3(b): top countries with ITU ranks (renders 11 of the top 16 its CN/JP rates read).
    fn fig3b(&self) -> Figure {
        let cdn = self.cdn_union();
        let rows = geo::top_countries(&*cdn, self.icmp_union(), self.universe.delegations(), 16);
        let mut out = header(
            "Figure 3(b) — top countries with broadband/cellular subscriber ranks",
            "paper: CDN coverage tracks broadband rank; ICMP response ~80% CN vs ~25% JP",
        );
        let _ = writeln!(
            out,
            "  {:<4} {:>10} {:>10} {:>10} {:>11} {:>6} {:>6}",
            "cc", "seen", "CDN only", "ICMP only", "ICMP-resp", "bb#", "cell#"
        );
        // A rate needs a decent sample to be stable; below it, unrecorded.
        for (name, cc) in [("icmp_response_cn", "CN"), ("icmp_response_jp", "JP")] {
            if let Some(r) = rows.iter().find(|r| r.country.as_str() == cc && r.split.total() >= 5_000) {
                out.measure(name, r.icmp_response_rate());
            }
        }
        for r in rows.iter().take(11) {
            let (bb, cell) = r
                .ranks
                .map(|x| (x.broadband.to_string(), x.cellular.to_string()))
                .unwrap_or_else(|| ("-".into(), "-".into()));
            let _ = writeln!(
                out,
                "  {:<4} {:>10} {:>10} {:>10} {:>10.1}% {:>6} {:>6}",
                r.country.as_str(),
                big(r.split.total() as u64),
                big(r.split.cdn_only as u64),
                big(r.split.icmp_only as u64),
                100.0 * r.icmp_response_rate(),
                bb,
                cell,
            );
        }
        out
    }

    /// Figure 4(a): daily actives with up/down events.
    fn fig4a(&self) -> Figure {
        let series = churn::daily_series(self.engine.windows::<Daily>());
        let mut out = header(
            "Figure 4(a) — daily active IPv4 addresses and up/down events",
            "paper: ~650M daily actives, ~55M daily up and down events, weekend dips",
        );
        let _ = writeln!(out, "  {:<5} {:>10} {:>9} {:>9}", "day", "active", "up", "down");
        for p in series.iter().skip(1).step_by(7) {
            let _ = writeln!(
                out,
                "  {:<5} {:>10} {:>9} {:>9}",
                p.day,
                big(p.active as u64),
                big(p.up as u64),
                big(p.down as u64)
            );
        }
        let n = (series.len() - 1).max(1) as f64;
        let avg_active: f64 =
            series.iter().map(|p| p.active as f64).sum::<f64>() / series.len() as f64;
        let avg_up: f64 = series.iter().skip(1).map(|p| p.up as f64).sum::<f64>() / n;
        let avg_down: f64 = series.iter().skip(1).map(|p| p.down as f64).sum::<f64>() / n;
        let _ = writeln!(
            out,
            "  averages: active {} | up {} ({:.1}%) | down {} ({:.1}%)",
            big(avg_active as u64),
            big(avg_up as u64),
            100.0 * avg_up / avg_active,
            big(avg_down as u64),
            100.0 * avg_down / avg_active,
        );
        out.measure("daily_churn", avg_up / avg_active);
        let profile = churn::weekday_profile(&series);
        let weekday = profile[..5].iter().sum::<f64>() / 5.0;
        let weekend = profile[5..].iter().sum::<f64>() / 2.0;
        let _ = writeln!(
            out,
            "  weekday/weekend mean actives: {} / {} ({:+.1}% weekend dip)",
            big(weekday as u64),
            big(weekend as u64),
            100.0 * (weekend - weekday) / weekday,
        );
        out
    }

    /// Figure 4(b): churn vs aggregation window size.
    fn fig4b(&self) -> Figure {
        let days = self.engine.windows::<Daily>();
        let sweep = churn::window_sweep(days, &[1, 2, 3, 4, 7, 14, 21, 28]);
        // Extension beyond the paper's 28-day ceiling: the same sweep
        // over week-granularity windows of the weekly dataset.
        let weeks = churn::window_sweep(self.engine.windows::<Weekly>(), &[4, 8, 13]);
        let mut out = header(
            "Figure 4(b) — up/down event percentage vs aggregation window",
            "paper: ~8% daily, day-of-week spikes to 14%, plateau ≈5% for windows ≥7d",
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>23} {:>23}",
            "window", "up% (min/med/max)", "down% (min/med/max)"
        );
        let rows = sweep.iter().map(|w| (w, "")).chain(weeks.iter().map(|w| (w, "  (weekly data)")));
        for (w, note) in rows {
            match (w.window_days, note) {
                (7, "") => out.measure("up_median_7d", w.up.median),
                (14, "") => out.measure("up_median_14d", w.up.median),
                _ => {}
            }
            let _ = writeln!(
                out,
                "  {:<8} {:>6.1} /{:>6.1} /{:>6.1} {:>6.1} /{:>6.1} /{:>6.1}{note}",
                format!("{}d", w.window_days),
                w.up.min,
                w.up.median,
                w.up.max,
                w.down.min,
                w.down.median,
                w.down.max
            );
        }
        out
    }

    /// Figure 4(c): appear/disappear relative to the first week.
    fn fig4c(&self) -> Figure {
        let drift = churn::year_drift(&self.weekly);
        let mut out = header(
            "Figure 4(c) — weekly appearing/disappearing addresses vs week 0",
            "paper: the active set drifts by up to ±25% of the base over the year",
        );
        let _ = writeln!(
            out,
            "  {:<6} {:>10} {:>8} {:>11} {:>8}",
            "week", "appear", "(%)", "disappear", "(%)"
        );
        for d in drift.iter().step_by(4).chain(drift.last()) {
            let _ = writeln!(
                out,
                "  {:<6} {:>10} {:>7.1}% {:>11} {:>7.1}%",
                d.week,
                big(d.appear as u64),
                100.0 * d.appear_frac,
                big(d.disappear as u64),
                100.0 * d.disappear_frac,
            );
        }
        out.measure("appear_first", drift[0].appear_frac);
        if let Some(last) = drift.last() {
            out.measure("appear_last", last.appear_frac);
            let _ = writeln!(
                out,
                "  year-end drift: +{:.1}% / -{:.1}% of the week-0 population",
                100.0 * last.appear_frac,
                100.0 * last.disappear_frac
            );
        }
        out
    }

    /// Figure 5(a): per-AS median up-event percentage CDF.
    fn fig5a(&self) -> Figure {
        let table = self.universe.bgp().base();
        let min_ips = self.min_as_ips();
        let mut out = header(
            "Figure 5(a) — CDF of per-AS median % of IPs with up events",
            "paper: ~half of ASes below 5% churn; 10–20% of ASes above 10%",
        );
        for window in [1usize, 7, 28] {
            if self.daily.num_days / window < 2 {
                continue;
            }
            let ecdf = churn::per_as_churn(
                self.engine.windows::<Daily>(),
                window,
                min_ips,
                |b| table.origin_of(b.network()),
            );
            if ecdf.is_empty() {
                let _ =
                    writeln!(out, "  {window}d window: no AS passes the {min_ips}-IP filter");
                continue;
            }
            let _ = write!(out, "  {window:>2}d window (N={:>4}): ", ecdf.len());
            for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
                let _ = write!(out, "p{:<2}={:>5.1}%  ", (q * 100.0) as u32, ecdf.quantile(q));
            }
            let above10 = 1.0 - ecdf.fraction_le(10.0);
            let _ = writeln!(out, "| >10%: {:.0}% of ASes", above10 * 100.0);
        }
        out
    }

    /// Figure 5(b): event size distribution by covering prefix mask.
    fn fig5b(&self) -> Figure {
        let mut out = header(
            "Figure 5(b) — size of up events (smallest covering prefix mask)",
            "paper: 1d events >70% at /31–/32; 28d windows: >38% of events at masks ≤ /24",
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "window", ">=/16", "/17-20", "/21-24", "/25-28", "/29-32"
        );
        let (long, extra) = self.long_window();
        for window in [1usize, 7, 28].into_iter().chain(extra) {
            if self.daily.num_days / window < 2 {
                continue;
            }
            let days = self.engine.windows::<Daily>();
            let h = events::event_sizes(days, window, events::EventDirection::Up);
            if window == 1 {
                out.measure("events_1d", h.total() as f64);
                out.measure("bulky_1d", h.fraction_between(0, 28));
                out.measure("single_1d", h.fraction_between(29, 32));
            }
            if window == long {
                out.measure("events_long", h.total() as f64);
                out.measure("bulky_long", h.fraction_between(0, 28));
            }
            if extra == Some(window) {
                continue;
            }
            let b = h.figure5b_buckets();
            let _ = writeln!(
                out,
                "  {:<8} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                format!("{}d", window),
                100.0 * b[0],
                100.0 * b[1],
                100.0 * b[2],
                100.0 * b[3],
                100.0 * b[4]
            );
        }
        out
    }

    /// Figure 5(c): correlation of events with BGP changes.
    fn fig5c(&self) -> Figure {
        let offset = self.universe.config().daily_offset as u16;
        let mut out = header(
            "Figure 5(c) — % of events coinciding with a BGP change",
            "paper: events correlate more than steady addresses, but all <2.5%",
        );
        let _ = writeln!(out, "  {:<8} {:>8} {:>8} {:>8}", "window", "up", "down", "steady");
        let (long, extra) = self.long_window();
        for window in [1usize, 7, 28].into_iter().chain(extra) {
            if self.daily.num_days / window < 2 {
                continue;
            }
            let days = self.engine.windows::<Daily>();
            let c = events::bgp_correlation(days, window, self.universe.bgp(), offset);
            if window == long {
                out.measure("up_pct_long", c.up_pct);
                out.measure("down_pct_long", c.down_pct);
            }
            if extra == Some(window) {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<8} {:>7.2}% {:>7.2}% {:>7.2}%",
                format!("{}d", window),
                c.up_pct,
                c.down_pct,
                c.steady_pct
            );
        }
        out
    }

    /// Table 2: long-term appear/disappear with BGP attribution.
    fn table2(&self) -> Figure {
        let weeks = self.weekly.num_weeks;
        let span = (weeks / 6).max(2);
        let lt = churn::long_term(
            self.engine.windows::<Weekly>(),
            0..span,
            weeks - span..weeks,
            self.universe.bgp(),
            7,
        );
        let mut out = header(
            "Table 2 — addresses appearing/disappearing between year start and end",
            "paper: 139M/129M; 65%/54% whole-/24; ~90% no BGP change",
        );
        let _ = writeln!(out, "  {:<28} {:>12} {:>12}", "", "appear", "disappear");
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12}",
            "total",
            big(lt.appear.len() as u64),
            big(lt.disappear.len() as u64)
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>11.0}% {:>11.0}%",
            "entire /24 affected",
            100.0 * lt.appear_full_block_frac,
            100.0 * lt.disappear_full_block_frac
        );
        for (label, a, d) in [
            ("BGP no change", lt.appear_bgp.no_change, lt.disappear_bgp.no_change),
            ("BGP origin change", lt.appear_bgp.origin_change, lt.disappear_bgp.origin_change),
            (
                "BGP announce/withdraw",
                lt.appear_bgp.announce_withdraw,
                lt.disappear_bgp.announce_withdraw,
            ),
        ] {
            let _ = writeln!(out, "  {:<28} {:>10.1}% {:>11.1}%", label, 100.0 * a, 100.0 * d);
        }
        out.measure("appear_no_bgp_change", lt.appear_bgp.no_change);
        out.measure("disappear_no_bgp_change", lt.disappear_bgp.no_change);
        // The bulkiest appearing ranges, compressed to CIDR prefixes.
        let mut prefixes = lt.appear.to_prefixes();
        prefixes.sort_by_key(|p| p.len());
        let _ = writeln!(out, "  largest appearing ranges:");
        for p in prefixes.iter().take(4) {
            let _ = writeln!(out, "    {p}");
        }
        out
    }

    fn exemplar(
        &self,
        pred: impl Fn(&ipactive_cdnsim::BlockEntry) -> bool,
    ) -> Option<&ipactive_core::BlockRecord> {
        // The busiest matching block with a stable policy makes the
        // clearest picture.
        self.universe
            .blocks
            .iter()
            .filter(|e| pred(e) && e.restructure.is_none())
            .filter_map(|e| self.daily.block(e.block))
            .max_by_key(|r| r.ip_traffic.len())
    }

    /// Figure 6: exemplar in-situ activity patterns.
    fn fig6(&self) -> Figure {
        use ipactive_cdnsim::AssignmentPolicy as P;
        type PolicyPred = Box<dyn Fn(&ipactive_cdnsim::BlockEntry) -> bool>;
        let mut out = header(
            "Figure 6 — regular activity patterns (address × day matrices)",
            "paper: (a) static sparse; (b) round-robin pool; (c) long lease; (d) 24h lease",
        );
        let cases: [(&str, PolicyPred); 4] = [
            (
                "(a) statically assigned, sparse",
                Box::new(|e| matches!(e.policy, P::StaticSparse { .. })),
            ),
            ("(b) round-robin pool", Box::new(|e| matches!(e.policy, P::RoundRobin { .. }))),
            ("(c) dynamic, long lease", Box::new(|e| matches!(e.policy, P::DhcpLong { .. }))),
            ("(d) dynamic, 24h lease", Box::new(|e| matches!(e.policy, P::DhcpShort { .. }))),
        ];
        for (label, pred) in cases {
            match self.exemplar(|e| pred(e)) {
                Some(rec) => {
                    let m = matrix::BlockMetrics::of(rec, 0..self.daily.num_days);
                    let _ =
                        writeln!(out, "  {label}: {}  FD={} STU={:.2}", rec.block, m.fd, m.stu);
                    for line in matrix::render(rec, self.daily.num_days, 16).lines() {
                        let _ = writeln!(out, "    |{line}|");
                    }
                }
                None => {
                    let _ = writeln!(out, "  {label}: no exemplar in this universe");
                }
            }
        }
        out
    }

    /// Figure 7: modified assignment practice exemplars.
    fn fig7(&self) -> Figure {
        let mut out = header(
            "Figure 7 — modified assignment practice (mid-window reconfigurations)",
            "paper: temporally/spatially inconsistent patterns from reallocation or repurposing",
        );
        let mut shown = 0;
        for e in &self.universe.blocks {
            if shown >= 2 {
                break;
            }
            let Some((day, _)) = e.restructure else { continue };
            let Some(rec) = self.daily.block(e.block) else { continue };
            if rec.ip_traffic.len() < 16 {
                continue;
            }
            let m = matrix::BlockMetrics::of(rec, 0..self.daily.num_days);
            let rel = day - self.universe.config().daily_offset;
            let _ = writeln!(
                out,
                "  {} (policy change on day {rel})  FD={} STU={:.2}",
                rec.block, m.fd, m.stu
            );
            for line in matrix::render(rec, self.daily.num_days, 16).lines() {
                let _ = writeln!(out, "    |{line}|");
            }
            shown += 1;
        }
        if shown == 0 {
            let _ = writeln!(out, "  (no restructured block with enough activity)");
        }
        out
    }

    /// Figure 8(a): CDF of max monthly STU change.
    fn fig8a(&self) -> Figure {
        let month = self.month_days();
        let part = change::detect(&self.daily, month, change::DEFAULT_THRESHOLD);
        let ecdf = part.delta_ecdf();
        let mut out = header(
            "Figure 8(a) — max month-to-month ΔSTU per /24 (CDF)",
            "paper: ~90% of blocks inside ±0.25 (stable); ~9.8% major change",
        );
        for x in [-0.75, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 0.75] {
            let _ = writeln!(out, "  P(d <= {x:>5.2}) = {:.3}", ecdf.fraction_le(x));
        }
        let _ = writeln!(
            out,
            "  blocks: {} total, {} major change ({:.1}%), {} stable",
            part.deltas.len(),
            part.major.len(),
            100.0 * part.major_fraction(),
            part.stable.len()
        );
        out.measure("major_fraction", part.major_fraction());
        out
    }

    /// Figure 8(b): filling degree by DNS-derived assignment class.
    fn fig8b(&self) -> Figure {
        let days = self.engine.windows::<Daily>();
        let split = blocks::fd_by_assignment(days, self.universe.ptr_table(), 16);
        let mut out = header(
            "Figure 8(b) — filling degree of /24s: static vs dynamic (PTR tags)",
            "paper: 75% of static /24s below FD 64; >80% of dynamic /24s above FD 250",
        );
        let _ = writeln!(
            out,
            "  tagged blocks: {} static, {} dynamic, {} total active",
            split.n_static,
            split.n_dynamic,
            split.all.len()
        );
        out.measure("tagged_static", split.n_static as f64);
        out.measure("tagged_dynamic", split.n_dynamic as f64);
        // An empty class has no median: NaN, which no bound admits.
        let p50 = |e: &ipactive_core::stats::Ecdf| if e.is_empty() { f64::NAN } else { e.quantile(0.5) };
        out.measure("static_p50", p50(&split.static_blocks));
        out.measure("dynamic_p50", p50(&split.dynamic_blocks));
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>9} {:>9} {:>9}",
            "class", "FD<=64", "FD<=128", "FD<=192", "FD<=250"
        );
        for (label, e) in [
            ("static", &split.static_blocks),
            ("dynamic", &split.dynamic_blocks),
            ("all", &split.all),
        ] {
            if e.is_empty() {
                let _ = writeln!(out, "  {label:<10} (empty)");
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<10} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                label,
                100.0 * e.fraction_le(64.0),
                100.0 * e.fraction_le(128.0),
                100.0 * e.fraction_le(192.0),
                100.0 * e.fraction_le(250.0),
            );
        }
        out
    }

    /// Figure 8(c): STU histogram of highly-filled blocks.
    fn fig8c(&self) -> Figure {
        let h = blocks::stu_histogram_high_fd(&self.daily, 250, 10);
        let p = blocks::potential_utilization(&self.daily);
        let mut out = header(
            "Figure 8(c) — spatio-temporal utilization of /24s with FD>250",
            "paper: most pools >80% STU, some at 100% (gateways); a tail below 60%",
        );
        for (i, &n) in h.counts.iter().enumerate() {
            let lo = i as f64 * h.width;
            let bar = "#".repeat((80 * n / h.total.max(1)) as usize);
            let _ = writeln!(out, "  {:>3.0}-{:>3.0}% {:>7} {}", lo, lo + h.width, big(n), bar);
        }
        let _ = writeln!(
            out,
            "  §5.4: {} active blocks | FD<64: {} ({:.0}%) | FD>250: {} (STU>=0.8: {}, STU<0.6: {})",
            big(p.active_blocks as u64),
            big(p.low_fd_blocks as u64),
            100.0 * p.low_fd_blocks as f64 / p.active_blocks.max(1) as f64,
            big(p.high_fd_blocks as u64),
            big(p.high_fd_high_stu as u64),
            big(p.high_fd_low_stu as u64),
        );
        out.measure("high_fd_blocks", h.total as f64);
        out.measure("high_stu_fraction", h.fraction_ge(80.0));
        out
    }

    /// Figure 9(a): daily hits binned by days active.
    fn fig9a(&self) -> Figure {
        let bins = traffic::hits_by_days_active(&self.daily);
        let mut out = header(
            "Figure 9(a) — median daily hits per address, binned by days active",
            "paper: strong positive correlation; always-on addresses are heavy hitters",
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "days active", "p5", "p25", "median", "p75", "p95"
        );
        let n = bins.len();
        let probe_days: Vec<usize> = [1usize, 2, 4, 7, 14, 28, 56, 84, n - 1, n]
            .iter()
            .copied()
            .filter(|&d| d >= 1 && d <= n)
            .collect();
        let mut printed = std::collections::HashSet::new();
        for d in probe_days {
            if !printed.insert(d) {
                continue;
            }
            match &bins[d - 1] {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "  {:<12} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
                        d, s.p5, s.p25, s.p50, s.p75, s.p95
                    );
                }
                None => {
                    let _ = writeln!(out, "  {d:<12} (empty bin)");
                }
            }
        }
        let medians: Vec<f64> = bins.iter().flatten().map(|s| s.p50).collect();
        if medians.len() >= 2 {
            let first = medians.first().unwrap();
            let last = medians.last().unwrap();
            let _ = writeln!(
                out,
                "  median ratio (always-on vs 1-day): {:.0}x",
                last / first.max(1.0)
            );
        }
        out
    }

    /// Figure 9(b): cumulative IP and traffic fractions.
    fn fig9b(&self) -> Figure {
        let c = traffic::cumulative_shares(&self.daily);
        let mut out = header(
            "Figure 9(b) — cumulative fraction of addresses and traffic by days active",
            "paper: <10% always-on addresses carry >40% of total traffic",
        );
        let n = c.ips.len();
        let _ = writeln!(out, "  {:<14} {:>10} {:>12}", "days active <=", "IPs", "traffic");
        let mut printed = std::collections::HashSet::new();
        for k in [1usize, 7, 14, 28, 56, n - 1, n] {
            if k >= 1 && k <= n && printed.insert(k) {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>9.1}% {:>11.1}%",
                    k,
                    100.0 * c.ips[k - 1],
                    100.0 * c.traffic[k - 1]
                );
            }
        }
        let _ = writeln!(
            out,
            "  always-on: {:.1}% of IPs carry {:.1}% of traffic",
            100.0 * c.always_on_ip_fraction(),
            100.0 * c.always_on_traffic_fraction()
        );
        out.measure("always_on_ips", c.always_on_ip_fraction());
        out.measure("always_on_traffic", c.always_on_traffic_fraction());
        out
    }

    /// Figure 9(c): weekly traffic share of the top-10% addresses.
    fn fig9c(&self) -> Figure {
        let shares = traffic::weekly_top_share(&self.weekly, 0.1);
        let smooth = traffic::moving_average(&shares, 4);
        let mut out = header(
            "Figure 9(c) — weekly traffic share of the top 10% of addresses",
            "paper: rises from ~49.5% to ~52.5% across 2015 (consolidation)",
        );
        let _ = writeln!(out, "  {:<6} {:>9} {:>12}", "week", "share", "4w average");
        let mut printed = std::collections::HashSet::new();
        for w in (0..shares.len()).step_by(4).chain([shares.len() - 1]) {
            if printed.insert(w) {
                let _ = writeln!(
                    out,
                    "  {:<6} {:>8.1}% {:>11.1}%",
                    w,
                    100.0 * shares[w],
                    100.0 * smooth[w]
                );
            }
        }
        let (first, last) = (smooth.first().unwrap(), smooth.last().unwrap());
        out.measure("share_first", *first);
        out.measure("share_last", *last);
        let _ = writeln!(
            out,
            "  trend: {:.1}% -> {:.1}% ({:+.1} points over the year)",
            100.0 * first,
            100.0 * last,
            100.0 * (last - first)
        );
        // Concentration stated as a Gini coefficient, first vs last week.
        let g0 = ipactive_core::stats::gini(&self.weekly.week_hits[0]);
        let g1 = ipactive_core::stats::gini(self.weekly.week_hits.last().unwrap());
        let _ = writeln!(out, "  Gini coefficient of weekly traffic: {g0:.3} -> {g1:.3}");
        out
    }

    /// Figure 10: UA samples vs unique UA strings per /24.
    fn fig10(&self) -> Figure {
        let points = hosts::ua_scatter(&self.daily);
        let t = hosts::UaRegionThresholds::default();
        let mut counts = std::collections::HashMap::new();
        for p in &points {
            *counts.entry(hosts::classify(p, &t)).or_insert(0usize) += 1;
        }
        let h = hosts::histogram2d(&points, 8, 6);
        let mut out = header(
            "Figure 10 — User-Agent samples vs unique User-Agent strings per /24",
            "paper: residential bulk; bot corner (high x, low y); gateway corner (high x+y)",
        );
        let _ = writeln!(out, "  blocks with UA samples: {}", points.len());
        out.measure("ua_blocks", points.len() as f64);
        let _ = writeln!(
            out,
            "  log-log heat map (rows: unique-UA decade, cols: sample decade):"
        );
        for (y, row) in h.counts.iter().enumerate().rev() {
            let cells: Vec<String> = row.iter().map(|&c| format!("{c:>6}")).collect();
            let _ = writeln!(out, "    10^{y} |{}", cells.join(""));
        }
        for (label, region) in [
            ("bulk", hosts::UaRegion::Bulk),
            ("bot", hosts::UaRegion::Bot),
            ("gateway", hosts::UaRegion::Gateway),
        ] {
            let _ = writeln!(out, "  {:<8} {:>7}", label, counts.get(&region).copied().unwrap_or(0));
        }
        out.measure("gateways", counts.get(&hosts::UaRegion::Gateway).copied().unwrap_or(0) as f64);
        if let Some(r) = hosts::log_correlation(&points) {
            let _ = writeln!(out, "  log-log correlation(samples, uniques): {r:.2}");
            out.measure("log_correlation", r);
        }
        // The paper inspects the gateway corner with WHOIS: "more than
        // half of these blocks belong to ISPs located in Asia and ...
        // the majority is in use by cellular operators". Reproduce the
        // attribution via delegations + AS kinds.
        let gateways: Vec<_> = points
            .iter()
            .filter(|p| hosts::classify(p, &t) == hosts::UaRegion::Gateway)
            .collect();
        if !gateways.is_empty() {
            let mut cellular = 0usize;
            let mut apnic = 0usize;
            for p in &gateways {
                if let Some(a) = self.universe.as_of_block(p.block) {
                    if a.kind == ipactive_cdnsim::AsKind::CellularIsp {
                        cellular += 1;
                    }
                    if a.rir == ipactive_rir::Rir::Apnic {
                        apnic += 1;
                    }
                }
            }
            let _ = writeln!(
                out,
                "  gateway-corner attribution: {:.0}% cellular operators, {:.0}% APNIC-region",
                100.0 * cellular as f64 / gateways.len() as f64,
                100.0 * apnic as f64 / gateways.len() as f64,
            );
        }
        out
    }

    /// Figure 11: the demographics cube.
    fn fig11(&self) -> Figure {
        let feats = demographics::features(&self.daily);
        let cube = demographics::cube(&feats);
        let mut out = header(
            "Figure 11 — demographics cube: STU × traffic × relative host count",
            "paper: bimodal along STU; dense+trafficked blocks have high host counts",
        );
        let marg = cube.stu_marginal();
        let _ = writeln!(out, "  STU marginal (bin 0 -> 9):");
        let total: u64 = marg.iter().sum();
        out.measure("blocks", total as f64);
        out.measure("low_stu", marg[..3].iter().sum::<u64>() as f64);
        out.measure("high_stu", marg[7..].iter().sum::<u64>() as f64);
        for (i, &n) in marg.iter().enumerate() {
            let bar = "#".repeat((60 * n / total.max(1)) as usize);
            let _ = writeln!(
                out,
                "    [{:.1}-{:.1}) {:>7} {}",
                i as f64 / 10.0,
                (i + 1) as f64 / 10.0,
                big(n),
                bar
            );
        }
        let _ = writeln!(out, "  heaviest cells (stu, traffic, hosts) -> blocks:");
        for (s, t, h, n) in cube.cells().into_iter().take(12) {
            let _ = writeln!(out, "    ({s}, {t}, {h}) -> {}", big(n as u64));
        }
        out
    }

    /// Figure 12: per-RIR demographic grids.
    fn fig12(&self) -> Figure {
        let feats = demographics::features(&self.daily);
        let grids = demographics::per_rir(&feats, self.universe.delegations());
        let mut out = header(
            "Figure 12 — per-RIR breakdown (STU × traffic; color = host count)",
            "paper: ARIN skews low-utilization; LACNIC/AFRINIC highly utilized; APNIC gateway corner",
        );
        for g in grids {
            let _ = writeln!(
                out,
                "  {:<8} blocks={:<6} high-STU(top3 bins)={:.0}%",
                g.rir.name(),
                g.total,
                100.0 * g.high_stu_fraction(3)
            );
            let mut cells = Vec::new();
            for (s, row) in g.cells.iter().enumerate() {
                for (t, c) in row.iter().enumerate() {
                    if c.count > 0 {
                        cells.push((s, t, *c));
                    }
                }
            }
            cells.sort_by_key(|c| std::cmp::Reverse(c.2.count));
            for (s, t, c) in cells.into_iter().take(4) {
                let _ = writeln!(
                    out,
                    "      cell(stu={s},traffic={t}): {} blocks, host-color {:.2}",
                    big(c.count as u64),
                    c.mean_hosts
                );
            }
        }
        out
    }

    /// Forces the lazy probing campaigns (ICMP, port scan, traceroute)
    /// to run now, so a timed pass over the figures (the benchmark's
    /// `figures_cold` ops and suite probes) measures the engine and
    /// the kernels, not whichever figure first touches a campaign.
    pub fn prewarm_probes(&self) {
        self.icmp_union();
        self.server_set();
        self.router_set();
    }

    /// Runs every experiment on up to `jobs` threads through
    /// [`claim_map`], heavy figures first, keeping each figure's text
    /// and measures in its [`FigureRun`] (`repro`'s full report and
    /// [`Repro::validate`] both read this one pass).
    ///
    /// The thread count is clamped to the machine's cores (a `--jobs`
    /// above the core count used to oversubscribe a small box and run
    /// *slower* than serial); at one thread the caller runs the suite
    /// itself. Threads claim `HEAVY_FIRST` indices, but the report is
    /// always assembled in [`EXPERIMENTS`] order: text and measures are
    /// deterministic and bit-identical to running each figure serially
    /// (pinned by `tests/engine.rs`), and the cache hit/miss totals are
    /// a pure function of the query set, independent of `jobs`.
    pub fn run_all(&self, jobs: usize) -> RunAllReport {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let before = self.engine.stats();
        let started = Instant::now();
        // Bulk-build every day/week unit set up front (one transposed
        // pass per dataset, uncounted) so the first heavy figures don't
        // absorb ~120 cold unit builds on their own clocks. Inside the
        // timed window: the cached pass pays for it honestly.
        self.engine.prewarm_units();
        // No span is held open here: the calling thread works a share,
        // and a span open on it would adopt the figures it happens to
        // claim. `total_ms` is the suite's wall time.
        let (records, _) = claim_map(&HEAVY_FIRST, jobs.min(cores), || (), |(), i| {
            let name = EXPERIMENTS[i];
            let _span = self.registry.span(format!("figure.{name}"));
            // Each figure gets its own trace, minted from (seed, figure
            // index) — structural spans only, so the trace store stays
            // byte-identical whatever `jobs` is.
            let ftrace = TraceId::mint(self.seed ^ FIG_SALT, i as u64);
            let fctx = self.registry.trace_span(TraceContext::root(ftrace), "figure", name);
            let figure = self.record(name).expect("EXPERIMENTS entries are runnable");
            self.registry.trace_span(fctx, "figure.output", format!("bytes {}", figure.len()));
            figure
        });
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        let after = self.engine.stats();
        RunAllReport {
            figures: EXPERIMENTS.iter().zip(records).map(|(&name, f)| f.run(name)).collect(),
            total_ms,
            cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            },
        }
    }

    /// Runs every experiment serially with the engine cache bypassed —
    /// the pre-engine behaviour, kept as the differential oracle for the
    /// cache (`tests/engine.rs`) and as the baseline the ledger's
    /// `bench.suite_uncached_ms` row times.
    pub fn run_serial_uncached(&self) -> RunAllReport {
        self.engine.set_bypass(true);
        let started = Instant::now();
        let figures = {
            let _span = self.registry.span("repro.serial_uncached");
            EXPERIMENTS
                .iter()
                .map(|&name| self.record(name).expect("EXPERIMENTS entries are runnable").run(name))
                .collect()
        };
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        self.engine.set_bypass(false);
        RunAllReport { figures, total_ms, cache: CacheStats::default() }
    }

    /// Verifies the paper's qualitative findings against this
    /// session's measurements — the executable form of EXPERIMENTS.md:
    /// one [`Repro::run_all`] (at the machine's cores), then 22 bands
    /// over the measures it recorded, one [`Check`] per band its guard
    /// keeps. `repro validate` exits nonzero if any check fails.
    pub fn validate(&self) -> Vec<Check> {
        bands::evaluate(&self.run_all(usize::MAX).figures)
    }

    fn month_days(&self) -> usize {
        // 28-day "months" as in the paper's 112-day window; smaller
        // presets fall back to quarters of the window.
        if self.daily.num_days >= 112 {
            28
        } else {
            (self.daily.num_days / 4).max(1)
        }
    }

    /// The window Fig 5(b)/(c)'s claims set against one day (a quarter
    /// of the days), and `Some` of it too when none of {1, 7, 28} is it.
    fn long_window(&self) -> (usize, Option<usize>) {
        let long = (self.daily.num_days / 4).max(2);
        (long, (![1, 7, 28].contains(&long)).then_some(long))
    }

    fn min_as_ips(&self) -> usize {
        // The paper filters ASes at 1000 IPs over a ~1B-address pool;
        // scale the filter with the universe.
        (self.daily.total_active() / 1000).clamp(10, 1000)
    }
}

/// One experiment computed once: the report text, and the named
/// scalar measures its shape claims read. Formatting writes to the
/// text, which the record derefs to.
struct Figure {
    text: String,
    measures: Vec<(&'static str, f64)>,
}

impl Figure {
    fn measure(&mut self, name: &'static str, value: f64) {
        self.measures.push((name, value));
    }

    fn run(self, name: &'static str) -> FigureRun {
        FigureRun { name, output: self.text, measures: self.measures }
    }
}

impl std::fmt::Write for Figure {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

impl std::ops::Deref for Figure {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

/// One figure's record inside a [`RunAllReport`]: its text and its
/// measures. (Its wall-clock is the `figure.<name>` span of the session
/// registry.)
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// The experiment identifier (an [`EXPERIMENTS`] entry).
    pub name: &'static str,
    /// The report text, exactly as [`Repro::run`] returned it.
    pub output: String,
    /// The named scalars the figure measured while it rendered (e.g.
    /// `fig2a`'s `cdn_only_ip`), in recording order: what
    /// [`Repro::validate`]'s band table reads.
    pub measures: Vec<(&'static str, f64)>,
}

/// Result of [`Repro::run_all`] / [`Repro::run_serial_uncached`]:
/// every experiment in paper order, with the suite's wall-clock and
/// cache counters.
#[derive(Debug, Clone)]
pub struct RunAllReport {
    /// Per-figure outputs, in [`EXPERIMENTS`] order.
    pub figures: Vec<FigureRun>,
    /// Total wall-clock for the whole suite, in milliseconds.
    pub total_ms: f64,
    /// Engine cache hits/misses accumulated during this run.
    pub cache: CacheStats,
}

impl RunAllReport {
    /// All figure outputs concatenated in paper order — byte-identical
    /// to running and concatenating each figure serially.
    pub fn combined_output(&self) -> String {
        self.figures.iter().map(|f| f.output.as_str()).collect()
    }
}

fn header(title: &str, expectation: &str) -> Figure {
    Figure { text: format!("\n== {title}\n   [{expectation}]\n"), measures: Vec::new() }
}

/// Formats an integer with thousands separators.
pub fn big(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_first_is_a_permutation_of_the_experiments() {
        let mut seen = [false; EXPERIMENTS.len()];
        for &i in &HEAVY_FIRST {
            assert!(!seen[i], "index {i} scheduled twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn big_formats_thousands() {
        assert_eq!(big(0), "0");
        assert_eq!(big(999), "999");
        assert_eq!(big(1000), "1,000");
        assert_eq!(big(1234567890), "1,234,567,890");
    }

    #[test]
    fn validate_produces_no_failures_on_tiny_scale() {
        let r = Repro::new(0xCAFE, Scale::Tiny);
        let checks = r.validate();
        assert!(checks.len() >= 15, "only {} checks", checks.len());
        let failures: Vec<_> = checks
            .iter()
            .filter(|c| matches!(c.outcome, CheckOutcome::Fail(_)))
            .collect();
        assert!(failures.is_empty(), "failed checks: {failures:#?}");
    }

    #[test]
    fn reports_carry_their_signature_content() {
        let r = Repro::new(0xCAFE, Scale::Tiny);
        // Figure 1 carries the RIR exhaustion annotations and the fit.
        let fig1 = r.fig1();
        for name in ["APNIC", "RIPE", "LACNIC", "ARIN"] {
            assert!(fig1.contains(name), "fig1 missing {name}");
        }
        assert!(fig1.contains("pre-2014 fit"));
        // Figure 6 renders all four exemplar classes (or says why not).
        let fig6 = r.fig6();
        for label in ["(a)", "(b)", "(c)", "(d)"] {
            assert!(fig6.contains(label), "fig6 missing {label}");
        }
        // Table 1 prints both cadences.
        let t1 = r.table1();
        assert!(t1.contains("Daily") && t1.contains("Weekly"));
        // Figure 4(b) includes the weekly-window extension rows.
        let f4b = r.fig4b();
        assert!(f4b.contains("(weekly data)"));
        // Figure 9(c) reports both the share trend and the Gini lens.
        let f9c = r.fig9c();
        assert!(f9c.contains("trend:") && f9c.contains("Gini"));
    }

    #[test]
    fn every_experiment_runs_on_tiny_scale() {
        let r = Repro::new(0xCAFE, Scale::Tiny);
        for name in EXPERIMENTS {
            let report = r.run(name).unwrap_or_else(|| panic!("unknown experiment {name}"));
            assert!(report.contains("=="), "{name} produced no header");
            assert!(report.len() > 80, "{name} suspiciously short:\n{report}");
        }
        assert!(r.run("nonsense").is_none());
    }
}
