//! Supervision layer for the sharded collection pipeline: crash
//! recovery, bounded replay with deterministic backoff, dead-letter
//! quarantine, and coverage-aware graceful degradation.
//!
//! A tolerant collector survives damage (skipped frames, abandoned
//! streams), but tolerance alone silently biases every downstream
//! census/churn analysis: a shard that dies mid-stream
//! simply vanishes from the dataset with nothing but a counter to show
//! for it. The supervisor closes that gap with the discipline Dainotti
//! et al. ("Lost in Space", IMC 2014) demand of unreliable telemetry —
//! account for what was lost, don't absorb it:
//!
//! * **Checkpointed replay.** Edge workers retain their per-shard
//!   buffers ([`emit_shard_buffers`](crate::emit_shard_buffers));
//!   each buffer is decoded into a *fresh* builder inside
//!   `catch_unwind` and merged into the shard accumulator only after
//!   a fully clean decode. The merge boundary is the checkpoint: a
//!   crashed or corrupt attempt never contaminates the accumulator,
//!   so a retry replays from the last good state by construction.
//! * **Deterministic backoff.** Retry delays are exponential with
//!   seeded jitter ([`RetryPolicy::backoff`]) — a pure function of
//!   `(seed, shard, buffer, attempt)`, never wall-clock randomness, so
//!   fault runs replay bit-identically.
//! * **Fault injection as a library.** [`FaultPlan`] injects collector
//!   crashes on the Nth buffer, deterministic frame corruption,
//!   dropped buffers, and stalled collectors (a stalled attempt is
//!   charged like a dropped one and journaled as a stall; no timer
//!   runs) — first-class API, not test-only code, so operators can
//!   drill recovery paths.
//! * **Graceful degradation.** When retries are exhausted the run
//!   still completes: the final attempt salvages every frame that
//!   survives CRC, quarantines the rest as [`DeadLetter`]s with
//!   shard/buffer/offset provenance, and the returned dataset carries
//!   an [`ipactive_core::Coverage`] grid reporting per-shard
//!   completeness < 1.0 for exactly the shards that lost data.

use crate::pipeline::{
    assemble_report, collector_span_path, drain, Cadence, Daily, PipelineReport, ShardMeters,
};
use ipactive_core::{Coverage, DailyDataset};
use ipactive_logfmt::{FrameReader, QuarantinedFrame, ReadMode};
use ipactive_obs::{splitmix64, Event, EventKind, Registry, TraceContext, TraceId};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Folds shard and buffer indices into one seed word.
fn mix(shard: usize, buffer: usize) -> u64 {
    splitmix64(((shard as u64) << 32) ^ buffer as u64)
}

/// Payload type carried by the panics the Crash fault injects. Private
/// to this module, so no other code in the process can produce it —
/// which is what lets [`quiet_injected_panics`] suppress exactly these
/// panics and nothing else.
struct InjectedCrash;

/// Installs (once, process-wide) a panic hook that swallows the panics
/// the Crash fault injects: they are always contained by
/// `catch_unwind` and reported through the supervisor's outcome
/// accounting, so the default hook's stderr backtrace is pure noise.
/// The suppression is scoped by payload *type*, not message text:
/// only panics carrying the module-private [`InjectedCrash`] payload
/// are silenced, so even though the hook stays installed, it can never
/// hide a genuine panic from the host process. Everything else
/// forwards to the previously-installed hook.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Bounded-retry policy with deterministic, seeded backoff.
///
/// Backoff is exponential (`base_backoff * 2^(attempt-1)`) plus jitter
/// drawn from a SplitMix64 stream keyed on `(seed, shard, buffer,
/// attempt)`, capped at `max_backoff`. Two runs with the same policy
/// produce the same delays — no wall-clock randomness anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total per buffer).
    pub max_retries: u32,
    /// Base delay before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Upper bound on any single delay.
    pub max_backoff: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// A policy that retries without sleeping — for tests and replay,
    /// where the backoff schedule matters but real delay does not.
    pub fn instant(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// The delay before `attempt` (1-based retry index; attempt 0 is
    /// the initial try and never waits). Deterministic in all inputs.
    pub fn backoff(&self, shard: usize, buffer: usize, attempt: u32) -> Duration {
        if attempt == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        // Coordinator reassignment can drive attempt counts far past
        // anything in-process supervision produced, so every step here
        // must saturate: the doubling shift is capped, the multiply
        // saturates, the jitter span truncation is floored away from
        // zero (a `% 0` is a panic), and the final add saturates
        // before the cap is applied.
        let exp = self.base_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
        let span = (self.base_backoff.as_nanos() as u64).max(1);
        let jitter = splitmix64(self.seed ^ mix(shard, buffer) ^ u64::from(attempt)) % span;
        exp.saturating_add(Duration::from_nanos(jitter)).min(self.max_backoff)
    }
}

/// The failure modes the injection layer can impose on a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The collector panics partway through decoding the buffer.
    Crash,
    /// The buffer arrives with deterministically corrupted bytes (the
    /// retained edge copy stays pristine, so a transient fault heals
    /// on replay).
    Corrupt,
    /// The buffer never arrives.
    Drop,
    /// The collector hangs on the buffer. Modeled without a timer so
    /// fault runs stay replayable: the attempt delivers nothing, is
    /// charged exactly like a [`FaultKind::Drop`], and is journaled as
    /// a stall.
    Stall,
}

/// One injected fault, targeted at a `(shard, buffer)` delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Collector shard the fault strikes.
    pub shard: usize,
    /// Index of the shard buffer (delivery) the fault strikes.
    pub buffer: usize,
    /// What goes wrong.
    pub kind: FaultKind,
    /// How many attempts the fault persists for: the fault fires while
    /// `attempt < persist_attempts`, so `1` is transient (first try
    /// fails, first retry succeeds) and [`Fault::PERMANENT`] never
    /// clears.
    pub persist_attempts: u32,
}

impl Fault {
    /// `persist_attempts` value for a fault that never clears.
    pub const PERMANENT: u32 = u32::MAX;

    /// Whether the fault fires on the given (0-based) attempt.
    fn active(&self, attempt: u32) -> bool {
        attempt < self.persist_attempts
    }
}

/// A deterministic, seeded fault-injection plan — the library-level
/// chaos harness. The seed drives every derived choice (corruption
/// sites, crash points), so one plan replays identically forever.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for fault-derived randomness (corruption sites, crash
    /// points).
    pub seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: nothing fails.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with a seed for fault-derived randomness.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, faults: Vec::new() }
    }

    /// Adds one fault (builder style).
    pub fn with_fault(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Scatters `count` pseudorandom faults over a `shards ×
    /// buffers_per_shard` delivery grid — kinds and persistence drawn
    /// deterministically from `seed`. Roughly a quarter of the faults
    /// are permanent; the rest clear after one or two attempts.
    pub fn scatter(seed: u64, shards: usize, buffers_per_shard: usize, count: usize) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        let mut state = splitmix64(seed ^ 0xFA17);
        for i in 0..count {
            state = splitmix64(state.wrapping_add(i as u64 + 1));
            let shard = (state % shards.max(1) as u64) as usize;
            state = splitmix64(state);
            let buffer = (state % buffers_per_shard.max(1) as u64) as usize;
            state = splitmix64(state);
            let kind = match state % 4 {
                0 => FaultKind::Crash,
                1 => FaultKind::Corrupt,
                2 => FaultKind::Drop,
                _ => FaultKind::Stall,
            };
            state = splitmix64(state);
            let persist_attempts =
                if state.is_multiple_of(4) { Fault::PERMANENT } else { 1 + (state % 2) as u32 };
            plan = plan.with_fault(Fault { shard, buffer, kind, persist_attempts });
        }
        plan
    }

    /// The first fault targeting a `(shard, buffer)` delivery, if any.
    pub fn fault_for(&self, shard: usize, buffer: usize) -> Option<&Fault> {
        self.faults.iter().find(|f| f.shard == shard && f.buffer == buffer)
    }
}

/// Deterministically corrupts a copy of `buf`: roughly one byte per 64
/// flipped, at sites drawn from the plan seed and the delivery
/// coordinates. The original stays pristine — which is exactly why a
/// transient corrupt fault heals on replay.
fn corrupt_copy(buf: &[u8], seed: u64, shard: usize, buffer: usize) -> Vec<u8> {
    let mut dirty = buf.to_vec();
    if dirty.is_empty() {
        return dirty;
    }
    let flips = (dirty.len() / 64).max(4);
    let mut state = splitmix64(seed ^ mix(shard, buffer));
    for _ in 0..flips {
        state = splitmix64(state);
        let pos = (state % dirty.len() as u64) as usize;
        let mask = (state >> 32) as u8 | 1; // never a zero mask
        dirty[pos] ^= mask;
    }
    dirty
}

/// The fate of one buffer delivery under supervision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferOutcome {
    /// Collector shard the buffer belonged to.
    pub shard: usize,
    /// Index of the buffer within its shard.
    pub buffer: usize,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// Total backoff the retries were scheduled to wait.
    pub backoff: Duration,
    /// Fraction of the buffer's records that reached the dataset:
    /// `1.0` for a clean decode (possibly after retries), `0.0` for a
    /// buffer lost outright, in between for a salvage decode of a
    /// permanently damaged stream. Skipped frames, decode errors, and
    /// frames swallowed by resync scans (one charged per resync — a
    /// lower bound, since a desync's true toll is unknowable) all
    /// count against the fraction.
    pub completeness: f64,
    /// The injected fault, if the plan targeted this delivery.
    pub fault: Option<FaultKind>,
}

impl BufferOutcome {
    /// Whether the buffer made it into the dataset in full.
    pub fn succeeded(&self) -> bool {
        self.completeness == 1.0
    }

    /// Whether the buffer succeeded only after at least one retry.
    pub fn recovered(&self) -> bool {
        self.succeeded() && self.attempts > 1
    }
}

/// Supervision summary for one collector shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// Per-buffer fates, in delivery order.
    pub buffers: Vec<BufferOutcome>,
}

impl ShardOutcome {
    /// Mean completeness over the shard's buffers (`1.0` when the
    /// shard had nothing to deliver).
    pub fn completeness(&self) -> f64 {
        if self.buffers.is_empty() {
            return 1.0;
        }
        self.buffers.iter().map(|b| b.completeness).sum::<f64>() / self.buffers.len() as f64
    }

    /// Retries this shard consumed across all buffers.
    pub fn retries(&self) -> u64 {
        self.buffers.iter().map(|b| u64::from(b.attempts.saturating_sub(1))).sum()
    }
}

/// An undecodable frame captured with full provenance: which shard,
/// which buffer delivery, and where in that buffer's byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// Collector shard that received the damaged frame.
    pub shard: usize,
    /// Buffer index within the shard.
    pub buffer: usize,
    /// The quarantined frame (stream offset, captured bytes, reason).
    pub frame: QuarantinedFrame,
}

/// Full accounting of a supervised run.
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// The underlying pipeline report (per-collector counters reflect
    /// what actually reached the dataset, including salvage decodes).
    pub report: PipelineReport,
    /// Per-shard supervision outcomes, indexed by shard.
    pub outcomes: Vec<ShardOutcome>,
    /// Every frame that could not be decoded, with provenance.
    pub quarantine: Vec<DeadLetter>,
    /// The completeness grid also attached to the returned dataset.
    pub coverage: Coverage,
}

impl SupervisedReport {
    /// Total retries across all shards.
    pub fn retries(&self) -> u64 {
        self.outcomes.iter().map(|o| o.retries()).sum()
    }

    /// Whether every buffer reached the dataset in full.
    pub fn fully_recovered(&self) -> bool {
        self.coverage.is_complete()
    }
}

/// Salt for per-shard collection trace ids, folded with an FNV-1a
/// hash of the metric prefix so the daily and weekly cadences of the
/// same seeded run mint distinct traces.
const TRACE_SALT: u64 = 0x5C01_1EC7;

/// FNV-1a over the prefix bytes — a stable, dependency-free way to
/// tell `supervisor.daily` traces from `supervisor.weekly` ones.
fn prefix_salt(prefix: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in prefix.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The stable lowercase token a fault kind carries in journal event
/// details (`None` decodes that still came up dirty say "dirty").
fn fault_detail(kind: Option<FaultKind>) -> &'static str {
    match kind {
        Some(FaultKind::Crash) => "crash",
        Some(FaultKind::Corrupt) => "corrupt",
        Some(FaultKind::Drop) => "drop",
        Some(FaultKind::Stall) => "stall",
        None => "dirty",
    }
}

/// Supervises one buffer delivery: bounded attempts, checkpointed
/// merge (only a fully clean decode — or the terminal salvage — ever
/// touches `acc`), dead-lettering on exhaustion. Every retry and every
/// dead-lettered frame is also recorded in the registry journal with
/// shard/buffer/offset provenance.
#[allow(clippy::too_many_arguments)]
fn supervise_buffer<C: Cadence>(
    shard: usize,
    buffer: usize,
    buf: &[u8],
    slots: usize,
    policy: &RetryPolicy,
    plan: &FaultPlan,
    prefix: &str,
    acc: &mut C::Builder,
    meters: &ShardMeters,
    letters: &mut Vec<DeadLetter>,
) -> BufferOutcome {
    let registry = meters.registry().clone();
    let fault = plan.fault_for(shard, buffer).copied();
    let fault_kind = fault.map(|f| f.kind);
    let max_attempts = policy.max_retries.saturating_add(1);
    let mut backoff = Duration::ZERO;
    let outcome = |attempts: u32, backoff: Duration, completeness: f64| BufferOutcome {
        shard,
        buffer,
        attempts,
        backoff,
        completeness,
        fault: fault_kind,
    };
    let lost = |attempts: u32, backoff: Duration| {
        registry.counter(format!("{prefix}.lost_buffers")).inc();
        registry.emit(
            Event::new(EventKind::Quarantine)
                .shard(shard as u32)
                .offset(buffer as u64)
                .attempt(attempts.saturating_sub(1))
                .detail(format!("buffer lost: {}", fault_detail(fault_kind))),
        );
        outcome(attempts, backoff, 0.0)
    };
    for attempt in 0..max_attempts {
        if attempt > 0 {
            let delay = policy.backoff(shard, buffer, attempt);
            backoff += delay;
            registry.counter(format!("{prefix}.retries")).inc();
            registry.emit(
                Event::new(EventKind::Retry)
                    .shard(shard as u32)
                    .offset(buffer as u64)
                    .attempt(attempt)
                    .detail(fault_detail(fault_kind)),
            );
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        let final_attempt = attempt + 1 == max_attempts;
        let active = fault.filter(|f| f.active(attempt)).map(|f| f.kind);
        let decoded = match active {
            // Drop: the buffer never arrives this attempt; nothing to
            // decode. Stall: the collector hangs, and the attempt is
            // charged as a drop. Modeled deterministically (no timer,
            // no thread race) so fault runs replay bit-identically.
            Some(FaultKind::Drop | FaultKind::Stall) => None,
            // The collector genuinely panics mid-decode; catch_unwind
            // contains it and the partial attempt builder is discarded
            // — the checkpoint (the shard accumulator) never saw it.
            Some(FaultKind::Crash) => {
                quiet_injected_panics();
                let fuse = splitmix64(plan.seed ^ mix(shard, buffer)) % 17;
                let crashed = catch_unwind(AssertUnwindSafe(|| {
                    let mut attempt_builder = C::new(slots);
                    let mut folded = 0u64;
                    drain(&mut FrameReader::new(buf, ReadMode::Tolerant), |record| {
                        C::fold(record, slots, &mut attempt_builder);
                        folded += 1;
                        if folded > fuse {
                            std::panic::panic_any(InjectedCrash);
                        }
                        true
                    });
                    std::panic::panic_any(InjectedCrash);
                }));
                debug_assert!(crashed.is_err());
                None
            }
            // Corrupt delivery or (possibly) clean decode — both run
            // the same attempt machinery; a corrupt fault just swaps
            // in a deterministically damaged copy of the wire bytes.
            // Each attempt decodes into a fresh builder; quarantine
            // capture is on only for the salvage (final) attempt. A
            // genuine decode panic is contained and its partial state
            // discarded.
            Some(FaultKind::Corrupt) | None => {
                let dirty;
                let data: &[u8] = if active == Some(FaultKind::Corrupt) {
                    dirty = corrupt_copy(buf, plan.seed, shard, buffer);
                    &dirty
                } else {
                    buf
                };
                catch_unwind(AssertUnwindSafe(|| {
                    let mut reader = FrameReader::new(data, ReadMode::Tolerant)
                        .capture_quarantine(final_attempt);
                    let mut builder = C::new(slots);
                    let res = drain(&mut reader, |record| C::fold(record, slots, &mut builder));
                    (builder, res, reader.take_quarantine())
                }))
                .ok()
            }
        };
        let Some((builder, res, quarantine)) = decoded else {
            // Nothing decodable arrived: the attempt is charged.
            if final_attempt {
                return lost(attempt + 1, backoff);
            }
            continue;
        };
        // A resync means the reader lost framing and silently swallowed
        // at least one frame while scanning for the next sync byte —
        // `skipped` does not move, so a decode with resyncs is lossy
        // even when nothing else fired.
        let decode_error = res.error.is_some();
        let clean = res.skipped == 0 && res.resyncs == 0 && !decode_error;
        if clean {
            C::merge(acc, builder);
            meters.add_decode(&res);
            return outcome(attempt + 1, backoff, 1.0);
        }
        if final_attempt {
            // Salvage: retries are exhausted, so keep every record
            // that survived CRC and dead-letter the frames that did
            // not.
            C::merge(acc, builder);
            meters.add_decode(&res);
            let quarantined = registry.counter(format!("{prefix}.quarantined_frames"));
            for frame in quarantine {
                quarantined.inc();
                registry.emit(
                    Event::new(EventKind::Quarantine)
                        .shard(shard as u32)
                        .offset(frame.offset)
                        .attempt(attempt)
                        .detail(format!("{:?}", frame.reason)),
                );
                letters.push(DeadLetter { shard, buffer, frame });
            }
            // Each resync is charged as (at least) one frame lost to
            // the desync scan; the true count is unknowable, so this
            // lower-bounds the loss rather than ignoring it.
            let failed = res.skipped + res.resyncs + u64::from(decode_error);
            let total = res.records + failed;
            let completeness = if total == 0 { 0.0 } else { res.records as f64 / total as f64 };
            return outcome(attempt + 1, backoff, completeness);
        }
        // Dirty decode with retries left: discard the partial builder
        // (checkpoint isolation) and replay the buffer.
    }
    unreachable!("attempt loop always returns on its final attempt")
}

/// The one body that spawns collector threads, supervised or not:
/// one thread per shard, each taking its buffers in delivery order
/// through [`supervise_buffer`] into one shard accumulator, which the
/// thread [seals](Cadence::seal) before it exits — medians selected,
/// weeks sorted, on the core that folded the records. Partials merge in
/// shard order (the builder merge is order-insensitive, shards are
/// block-disjoint): for sealed builders a move per block and a linear
/// merge per week, after which the caller's `finish` is O(blocks); a
/// shard overlapping another merges exactly all the same, a sealed
/// builder being still a builder. The per-shard completeness fractions
/// become the run's [`Coverage`]. All accounting goes through the
/// shard's registry meters under `prefix`; the collector span carries
/// the shard's wall time, sealing included. Returns the merged,
/// unfinished builder — empty for an empty shard list — so each caller
/// decides whether the dataset carries the coverage.
pub(crate) fn supervise<C: Cadence>(
    shard_buffers: &[impl AsRef<[Vec<u8>]> + Sync],
    slots: usize,
    policy: &RetryPolicy,
    plan: &FaultPlan,
    registry: &Registry,
    prefix: &str,
) -> (C::Builder, SupervisedReport) {
    let start = Instant::now();
    let supervise_shard = |shard: usize, buffers: &[Vec<u8>]| {
        let _span = registry.span(collector_span_path(prefix, shard));
        let meters = ShardMeters::new(registry, prefix, shard);
        // One trace per (cadence, shard), minted from the fault plan's
        // seed: the span tree is a pure function of (seed, topology,
        // plan), so reruns — at any thread count — produce identical
        // trace bytes.
        let trace = TraceId::mint(plan.seed ^ TRACE_SALT ^ prefix_salt(prefix), shard as u64);
        let ctx = registry.trace_span(
            TraceContext::root(trace),
            "collect.shard",
            format!("{prefix} shard {shard}"),
        );
        let mut acc = C::new(slots);
        let mut letters = Vec::new();
        let mut outcomes = Vec::with_capacity(buffers.len());
        for (buffer, buf) in buffers.iter().enumerate() {
            meters.count_buffer(buf.len());
            let injected = plan.fault_for(shard, buffer).map(|f| fault_detail(Some(f.kind)));
            registry.trace_span(
                ctx,
                "collect.buffer",
                format!("buffer {buffer} bytes {} fault {}", buf.len(), injected.unwrap_or("none")),
            );
            outcomes.push(supervise_buffer::<C>(
                shard, buffer, buf, slots, policy, plan, prefix, &mut acc, &meters, &mut letters,
            ));
        }
        C::seal(&mut acc);
        (acc, ShardOutcome { shard, buffers: outcomes }, letters)
    };
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_buffers
            .iter()
            .enumerate()
            .map(|(shard, buffers)| scope.spawn(move || supervise_shard(shard, buffers.as_ref())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("supervised shard thread panicked"))
            .collect::<Vec<_>>()
    });

    let mut merged: Option<C::Builder> = None;
    let mut outcomes = Vec::with_capacity(results.len());
    let mut quarantine = Vec::new();
    let mut fractions = Vec::with_capacity(results.len());
    for (builder, outcome, letters) in results {
        fractions.push(outcome.completeness());
        outcomes.push(outcome);
        quarantine.extend(letters);
        match &mut merged {
            None => merged = Some(builder),
            Some(acc) => C::merge(acc, builder),
        }
    }
    let coverage = Coverage::from_shard_fractions(&fractions, slots);
    let report = assemble_report(registry, prefix, shard_buffers.len(), start.elapsed());
    let builder = merged.unwrap_or_else(|| C::new(slots));
    (builder, SupervisedReport { report, outcomes, quarantine, coverage })
}

/// Runs the supervised collector at cadence `C` over retained shard
/// buffers (from [`emit_shard_buffers`](crate::emit_shard_buffers)):
/// bounded retries with deterministic backoff, checkpointed replay,
/// dead-letter quarantine, and a [`Coverage`]-annotated dataset that
/// degrades gracefully when retries are exhausted. Counters land under
/// `C::SUPERVISOR_PREFIX` in `registry`, every retry and dead-letter
/// is journaled with shard/buffer/offset provenance, and the returned
/// report is a view over the registry snapshot.
///
/// When every fault is transient the output is bit-identical to the
/// fault-free run and its coverage is complete; the differential suite
/// in `tests/supervisor.rs` pins this across the fault × topology
/// grid.
pub fn supervised_collect<C: Cadence>(
    shard_buffers: &[impl AsRef<[Vec<u8>]> + Sync],
    slots: usize,
    policy: &RetryPolicy,
    plan: &FaultPlan,
    registry: &Registry,
) -> io::Result<(C::Dataset, SupervisedReport)> {
    crate::pipeline::validate_topology(1, shard_buffers.len())?;
    let (builder, report) =
        supervise::<C>(shard_buffers, slots, policy, plan, registry, C::SUPERVISOR_PREFIX);
    Ok((C::finish(builder, Some(report.coverage.clone())), report))
}

/// [`supervised_collect`] at the daily cadence, metering into a
/// throwaway registry (kept by name for the benchmark).
pub fn supervised_collect_daily(
    shard_buffers: &[Vec<Vec<u8>>],
    num_days: usize,
    policy: &RetryPolicy,
    plan: &FaultPlan,
) -> io::Result<(DailyDataset, SupervisedReport)> {
    supervised_collect::<Daily>(shard_buffers, num_days, policy, plan, &Registry::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;
    use crate::pipeline::{collect_daily_sharded, emit_shard_buffers};
    use crate::universe::Universe;

    fn universe() -> Universe {
        Universe::generate(UniverseConfig::tiny(0x5EED))
    }

    #[test]
    fn fault_free_run_is_complete_and_equals_unsupervised() {
        let u = universe();
        let num_days = u.config().daily_days;
        let buffers = emit_shard_buffers::<Daily>(&u, 3, 2).unwrap();
        let (supervised, sup_report) = supervised_collect_daily(
            &buffers,
            num_days,
            &RetryPolicy::instant(2),
            &FaultPlan::none(),
        )
        .unwrap();
        // Same shard function, same blocks — the single-buffer shard
        // emitter must produce the same dataset.
        let shards = crate::pipeline::emit_daily_shards(&u, 2).unwrap();
        let (unsupervised, _) = collect_daily_sharded(&shards, num_days);
        assert_eq!(supervised, unsupervised);
        assert!(sup_report.fully_recovered());
        assert_eq!(sup_report.retries(), 0);
        assert!(sup_report.quarantine.is_empty());
        let coverage = supervised.coverage.expect("supervised runs carry coverage");
        assert!(coverage.is_complete());
        assert_eq!(coverage.num_shards(), 2);
    }

    #[test]
    fn transient_crash_recovers_bit_identically() {
        let u = universe();
        let num_days = u.config().daily_days;
        let buffers = emit_shard_buffers::<Daily>(&u, 2, 2).unwrap();
        let policy = RetryPolicy::instant(2);
        let (clean, _) =
            supervised_collect_daily(&buffers, num_days, &policy, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::new(7).with_fault(Fault {
            shard: 1,
            buffer: 0,
            kind: FaultKind::Crash,
            persist_attempts: 2,
        });
        let (healed, report) =
            supervised_collect_daily(&buffers, num_days, &policy, &plan).unwrap();
        assert_eq!(healed, clean);
        assert!(report.fully_recovered());
        assert_eq!(report.retries(), 2);
        assert!(report.outcomes[1].buffers[0].recovered());
    }

    #[test]
    fn permanent_drop_degrades_exactly_one_shard() {
        let u = universe();
        let num_days = u.config().daily_days;
        let buffers = emit_shard_buffers::<Daily>(&u, 1, 3).unwrap();
        let plan = FaultPlan::new(9).with_fault(Fault {
            shard: 2,
            buffer: 0,
            kind: FaultKind::Drop,
            persist_attempts: Fault::PERMANENT,
        });
        let (dataset, report) =
            supervised_collect_daily(&buffers, num_days, &RetryPolicy::instant(1), &plan)
                .unwrap();
        let coverage = dataset.coverage.expect("coverage attached");
        assert_eq!(coverage.degraded_shards(), vec![2]);
        assert_eq!(coverage.shard(2), 0.0);
        assert_eq!(coverage.shard(0), 1.0);
        assert!(!report.fully_recovered());
        assert!(report.outcomes[2].completeness() < 1.0);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(9),
            ..RetryPolicy::default()
        };
        let a: Vec<_> = (0..6).map(|n| policy.backoff(3, 1, n)).collect();
        let b: Vec<_> = (0..6).map(|n| policy.backoff(3, 1, n)).collect();
        assert_eq!(a, b, "same inputs, same schedule");
        assert_eq!(a[0], Duration::ZERO);
        assert!(a[1] >= Duration::from_millis(2));
        assert!(a.iter().all(|&d| d <= Duration::from_millis(9)));
        assert_ne!(
            policy.backoff(3, 1, 1),
            policy.backoff(4, 1, 1),
            "jitter separates shards"
        );
    }

    /// Attempt counts from coordinator reassignment storms reach far
    /// past the in-process retry bound; every arithmetic step must
    /// saturate instead of panicking, and the cap must still hold.
    #[test]
    fn backoff_saturates_at_extreme_attempts_and_bases() {
        let policy = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        for attempt in [63, 64, 1000, u32::MAX] {
            let d = policy.backoff(0, 0, attempt);
            assert!(d <= policy.max_backoff, "attempt {attempt} exceeded the cap: {d:?}");
            assert!(d >= Duration::from_millis(1), "attempt {attempt} lost the floor: {d:?}");
        }
        // A pathological base near Duration::MAX: the exponential term
        // saturates and the jitter add must not overflow the Duration.
        let huge = RetryPolicy {
            base_backoff: Duration::MAX,
            max_backoff: Duration::MAX,
            ..RetryPolicy::default()
        };
        assert_eq!(huge.backoff(1, 2, 63), Duration::MAX);
        // Deterministic at the edge, like everywhere else.
        assert_eq!(policy.backoff(3, 1, 63), policy.backoff(3, 1, 63));
    }

    #[test]
    fn scatter_is_deterministic() {
        let a = FaultPlan::scatter(42, 4, 3, 8);
        let b = FaultPlan::scatter(42, 4, 3, 8);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 8);
        assert!(a.faults().iter().all(|f| f.shard < 4 && f.buffer < 3));
        let c = FaultPlan::scatter(43, 4, 3, 8);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn journal_events_agree_with_the_report() {
        use ipactive_obs::SnapshotMode;
        let u = universe();
        let num_days = u.config().daily_days;
        let buffers = emit_shard_buffers::<Daily>(&u, 2, 3).unwrap();
        let plan = FaultPlan::scatter(0xBEEF, 3, 2, 6);
        let reg = Registry::new();
        let (_, report) =
            supervised_collect::<Daily>(&buffers, num_days, &RetryPolicy::instant(2), &plan, &reg)
                .unwrap();
        let snap = reg.snapshot(SnapshotMode::Deterministic);
        // Retry accounting: outcome math, the counter, and the journal
        // all describe the same run.
        assert_eq!(report.retries(), snap.counter("supervisor.daily.retries"));
        assert_eq!(report.retries(), snap.events_of(EventKind::Retry).count() as u64);
        // Every dead letter has a matching quarantine event (lost
        // buffers add their own quarantine events on top).
        assert_eq!(
            report.quarantine.len() as u64,
            snap.counter("supervisor.daily.quarantined_frames")
        );
        assert!(
            snap.events_of(EventKind::Quarantine).count() as u64
                >= report.quarantine.len() as u64
        );
        // The report's per-collector stats are exactly the registry's.
        for (i, s) in report.report.per_collector.iter().enumerate() {
            assert_eq!(
                s.records_read,
                snap.counter(&format!("supervisor.daily.shard.{i}.records"))
            );
        }
    }

    #[test]
    fn zero_shards_is_a_proper_error() {
        let err = supervised_collect_daily(&[], 7, &RetryPolicy::instant(0), &FaultPlan::none())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn store_recovery_is_atomic_across_a_mid_commit_crash() {
        use crate::pipeline::{collect_store_checked, persist_daily_atomic};
        use ipactive_logfmt::{CrashStyle, Inject, LogStore, SimFs};
        use std::path::PathBuf;

        let u1 = universe();
        let u2 = Universe::generate(UniverseConfig::tiny(0xD00D));
        let num_days = u1.config().daily_days;
        assert_eq!(num_days, u2.config().daily_days);
        let dir = PathBuf::from("/store");

        // First run commits durably; a second run (different universe,
        // same day range) is cut down by a power loss mid-commit.
        let fs = SimFs::new();
        {
            let mut store = LogStore::open_on(fs.clone(), &dir).unwrap();
            persist_daily_atomic(&u1, &mut store).unwrap();
        }
        let at_op = fs.ops() + 5;
        let fs = fs.with_fault(at_op, Inject::PowerCut);
        {
            let mut store = LogStore::open_on(fs.clone(), &dir).unwrap();
            let _ = persist_daily_atomic(&u2, &mut store);
        }
        assert!(fs.powered_off(), "the scheduled cut never fired");
        let rebooted = fs.crash(CrashStyle::Torn { seed: 7 });

        // Recovery sees exactly one of the two runs, whole, with
        // complete coverage — the crash cannot manufacture a blend.
        let store = LogStore::open_on(rebooted.clone(), &dir).unwrap();
        let (recovered, _, reports) =
            collect_store_checked::<Daily>(&[Some(store)], num_days).unwrap();
        let coverage = recovered.coverage.as_ref().expect("recovery must annotate coverage");
        assert!(coverage.is_complete(), "report:\n{}", reports[0].render());
        let matches_u1 = recovered == u1.build_daily();
        let matches_u2 = recovered == u2.build_daily();
        assert!(
            matches_u1 ^ matches_u2,
            "recovered dataset must equal exactly one committed run \
             (u1: {matches_u1}, u2: {matches_u2})"
        );

        // An fsck repair pass (sweeping the crash's orphans) changes
        // nothing about what recovery reads.
        ipactive_logfmt::fsck(&rebooted, &dir, true).unwrap();
        let store = LogStore::open_on(rebooted.clone(), &dir).unwrap();
        let (again, _, reports) = collect_store_checked::<Daily>(&[Some(store)], num_days).unwrap();
        assert!(reports[0].is_healthy(), "repair did not converge:\n{}", reports[0].render());
        assert_eq!(again, recovered);
    }
}
