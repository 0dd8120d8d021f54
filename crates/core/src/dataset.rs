//! The dataset model: what the collector hands to the analyses.
//!
//! The paper's processed CDN logs give, per IP address, the exact
//! number of successful requests per day (daily dataset, 112 days,
//! Aug 17 – Dec 6 2015) and per week (weekly dataset, 52 weeks of
//! 2015). [`DailyDataset`] and [`WeeklyDataset`] are the in-memory
//! equivalents, organized per `/24` block so the spatio-temporal
//! analyses of Section 5 read naturally off the activity matrices.
//! Both are a [`SlotMatrix`], which reads every activity set off the
//! rows; the two builders stay two types because their payloads
//! differ (per-address medians and UA sets against per-week hit
//! multisets).

use crate::cadence::SlotMatrix;
use crate::coverage::Coverage;
use crate::par::{claim_map, sweep_threads};
use crate::window_census::UnitHistograms;
use ipactive_net::{ActiveSet, Addr, AddrBits256, Block24, DayBits};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Per-address traffic summary over the daily window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpTraffic {
    /// Host index within the block (last octet).
    pub host: u8,
    /// Number of days the address was active (1..=num_days).
    pub days_active: u8,
    /// Total hits over the window.
    pub total_hits: u64,
    /// Median hits over the address's *active* days.
    pub median_daily_hits: u32,
}

/// Activity and traffic of one `/24` block over the daily window.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRecord {
    /// The block.
    pub block: Block24,
    /// Activity matrix: `rows[i]` is the day-bitset of address `x.y.z.i`.
    pub rows: Box<[DayBits; 256]>,
    /// Total hits from the block over the window.
    pub total_hits: u64,
    /// Number of sampled User-Agent observations (1-in-N of hits).
    pub ua_samples: u64,
    /// Number of *distinct* sampled User-Agent strings.
    pub ua_unique: u32,
    /// Per-address traffic summaries (only addresses with activity),
    /// sorted by host index.
    pub ip_traffic: Vec<IpTraffic>,
}

impl BlockRecord {
    /// Filling degree (Section 5.1): number of addresses active at
    /// least once in `days`. Range 0..=256 (the paper writes 1..=256
    /// because it only considers *active* blocks).
    pub fn filling_degree(&self, days: core::ops::Range<usize>) -> u32 {
        self.rows
            .iter()
            .filter(|bits| bits.any_in_range(days.start, days.end))
            .count() as u32
    }

    /// Spatio-temporal utilization (Section 5.1): total active
    /// (address, day) pairs in `days` divided by the maximum
    /// `256 × days.len()`. Range 0..=1.
    pub fn stu(&self, days: core::ops::Range<usize>) -> f64 {
        let span = days.end - days.start;
        if span == 0 {
            return 0.0;
        }
        let active: u32 = self.rows.iter().map(|b| b.count_range(days.start, days.end)).sum();
        active as f64 / (256.0 * span as f64)
    }

    /// Number of addresses active on a single day.
    pub fn active_on(&self, day: usize) -> u32 {
        self.rows.iter().filter(|b| b.get(day)).count() as u32
    }

    /// Whether any address was active in `days`.
    pub fn any_active(&self, days: core::ops::Range<usize>) -> bool {
        self.rows.iter().any(|b| b.any_in_range(days.start, days.end))
    }
}

/// The daily dataset: one [`BlockRecord`] per active `/24`, sorted by
/// block, over `num_days` observation days.
///
/// Equality compares the *observed data* (`num_days` and `blocks`)
/// only; [`DailyDataset::coverage`] is collection provenance, so a
/// degraded run whose retries all succeeded compares equal to the
/// fault-free run even though one carries a coverage annotation.
#[derive(Debug, Clone)]
pub struct DailyDataset {
    /// Length of the observation window in days (112 in the paper).
    pub num_days: usize,
    /// Per-block records, sorted by block id.
    pub blocks: Vec<BlockRecord>,
    /// Data-completeness annotation from a supervised collection run;
    /// `None` when the dataset came from a direct build or an
    /// unsupervised pipeline (which either delivers everything or
    /// reports damage out-of-band).
    pub coverage: Option<Coverage>,
}

impl PartialEq for DailyDataset {
    fn eq(&self, other: &Self) -> bool {
        self.num_days == other.num_days && self.blocks == other.blocks
    }
}

impl DailyDataset {
    /// Looks up a block's record.
    pub fn block(&self, block: Block24) -> Option<&BlockRecord> {
        self.blocks
            .binary_search_by_key(&block, |r| r.block)
            .ok()
            .map(|i| &self.blocks[i])
    }

    /// Every day's active set in one transposed pass — the daily
    /// [`SlotMatrix::units_all`], under the name the benchmark links.
    pub fn day_sets_all<S: ActiveSet>(&self) -> Vec<S> {
        self.units_all()
    }

    /// Total number of distinct active addresses.
    pub fn total_active(&self) -> usize {
        self.blocks
            .iter()
            .map(|r| r.rows.iter().filter(|b| !b.is_empty()).count())
            .sum()
    }

    /// Iterator over every per-address traffic summary.
    pub fn ip_traffic(&self) -> impl Iterator<Item = (Addr, &IpTraffic)> + '_ {
        self.blocks
            .iter()
            .flat_map(|r| r.ip_traffic.iter().map(move |t| (r.block.addr(t.host), t)))
    }
}

/// Accumulator used by collectors to build a [`DailyDataset`] from a
/// stream of `(day, addr, hits)` and `(day, addr, ua_hash)` records —
/// in any order.
///
/// One-shot callers [`finish`](Self::finish) it; a long-lived caller
/// keeps it, [`grow`](Self::grow)s the window as days arrive, folds
/// only the new records and publishes [`snapshot`](Self::snapshot)s.
///
/// Each block is kept in the form a dataset publishes it, a
/// [`BlockRecord`] brought up to date by every record that reaches
/// it, beside the per-address samples its medians come from. So a
/// snapshot copies blocks, and so does `finish`, freeing each as it goes.
///
/// The blocks sit in one table per shard, as many shards as a sweep
/// has threads ([`sweep_threads`]); a block lives in shard
/// `block % shards`, so every address has exactly one accumulator and
/// [`record_days`](Self::record_days) folds the shards side by side.
/// Every other entry point reaches a block's shard directly, on the
/// calling thread.
#[derive(Debug)]
pub struct DailyDatasetBuilder {
    num_days: usize,
    shards: Vec<BlockTable<BlockAcc>>,
    /// The block the last serial record (`record_hits`, `record_ua`)
    /// named, with its shard and position there: [`BlockTable`]'s memo
    /// one level up, so a block-major log pays no shard lookup either.
    last: Option<(Block24, usize, usize)>,
    /// One past the latest day a hit record has named, or a
    /// [`record_days`](Self::record_days) batch covered.
    folded_to: usize,
    /// Medians found by selection over every snapshot so far.
    selected: u64,
    /// Rank windows refilled over every snapshot so far.
    refilled: u64,
}

/// Per-block accumulators found by position, not by hashing every
/// record: accumulators sit in a `Vec` in first-arrival order, a hash
/// index maps a block to its position, and the position last asked
/// for is remembered. Logs are block-major, so nearly every record
/// names the block the previous one did and is served by one compare.
/// The memo is only a shortcut to what the index would answer — an
/// accumulator never moves once pushed — so any arrival order gives
/// the same accumulators, merely slower.
#[derive(Debug)]
struct BlockTable<A> {
    accs: Vec<(Block24, A)>,
    index: HashMap<Block24, u32>,
    last: usize,
}

impl<A> Default for BlockTable<A> {
    fn default() -> Self {
        BlockTable { accs: Vec::new(), index: HashMap::new(), last: 0 }
    }
}

impl<A> BlockTable<A> {
    /// The accumulator of `block`, made by `new` if this is the
    /// block's first record.
    fn acc(&mut self, block: Block24, new: impl FnOnce() -> A) -> &mut A {
        if !matches!(self.accs.get(self.last), Some((b, _)) if *b == block) {
            self.last = self.position(block, new);
        }
        &mut self.accs[self.last].1
    }

    /// Where the index has `block`, appending an accumulator made by
    /// `new` for a block it has not.
    fn position(&mut self, block: Block24, new: impl FnOnce() -> A) -> usize {
        let next = self.accs.len();
        let at = *self.index.entry(block).or_insert(next as u32) as usize;
        if at == next {
            self.accs.push((block, new()));
        }
        at
    }

    /// Folds another table in: a block new to this one moves over, a
    /// block both hold is combined by `both`.
    fn merge(&mut self, other: BlockTable<A>, mut both: impl FnMut(&mut A, A)) {
        for (block, acc) in other.accs {
            self.take(block, acc, &mut both);
        }
    }

    /// Takes one block's accumulator in: it moves over if the block is
    /// new here, and is combined by `both` if not.
    fn take(&mut self, block: Block24, acc: A, both: impl FnOnce(&mut A, A)) {
        let mut acc = Some(acc);
        let at = self.position(block, || acc.take().expect("taken once"));
        if let Some(acc) = acc {
            both(&mut self.accs[at].1, acc);
        }
    }
}

/// The shard of `shards` that holds `block`'s accumulator.
fn shard_of(block: Block24, shards: usize) -> usize {
    (block.id() % shards as u32) as usize
}

/// No address of the block at this host index has samples yet.
const ABSENT: u16 = u16::MAX;

/// One block as the builder keeps it: the record a dataset publishes,
/// current after every record, and the samples behind its medians.
#[derive(Debug)]
struct BlockAcc {
    /// The published form. Its rows, totals, UA sample count and every
    /// `ip_traffic` entry's `days_active` and `total_hits` are brought
    /// up to date by each record; a median is current unless its host
    /// is `stale`, and `ua_unique` once the UA hashes are deduplicated.
    record: BlockRecord,
    /// Per-address samples in first-arrival order, where a new address
    /// moves nothing.
    ips: Vec<IpAcc>,
    /// Position in `ips` of each host's samples, or [`ABSENT`].
    slot_of: [u16; 256],
    /// How many hosts with samples sort before each host: where the
    /// host's entry sits in `record.ip_traffic`, which lists them in
    /// host order.
    below: [u8; 256],
    /// Hosts whose published median may be out of date: the address is
    /// untracked, or its median has left its rank window.
    stale: AddrBits256,
    /// Sampled UA hashes, duplicates and all, until deduplicated: never
    /// fewer than `record.ua_unique`, and as many exactly when they are.
    ua_hashes: Vec<u64>,
}

impl BlockAcc {
    fn new(block: Block24) -> Self {
        BlockAcc {
            record: BlockRecord {
                block,
                rows: Box::new([DayBits::new(); 256]),
                total_hits: 0,
                ua_samples: 0,
                ua_unique: 0,
                ip_traffic: Vec::new(),
            },
            ips: Vec::new(),
            slot_of: [ABSENT; 256],
            below: [0; 256],
            stale: AddrBits256::new(),
            ua_hashes: Vec::new(),
        }
    }

    /// Records `hits` (> 0) successful requests from `host` on `day`;
    /// what [`IpAcc::add`] says of the day.
    fn record_hits(&mut self, day: usize, host: u8, hits: u64) -> Option<usize> {
        self.record.total_hits = self.record.total_hits.saturating_add(hits);
        self.add(host, day, hits.min(u32::MAX as u64) as u32, hits)
    }

    /// Where `host`'s samples sit in `ips` and its entry in
    /// `record.ip_traffic`, both made on first use.
    fn slot(&mut self, host: u8) -> (usize, usize) {
        let host = usize::from(host);
        let slot = &mut self.slot_of[host];
        if *slot == ABSENT {
            *slot = self.ips.len() as u16;
            self.ips.push(IpAcc::default());
            let traffic =
                IpTraffic { host: host as u8, days_active: 0, total_hits: 0, median_daily_hits: 0 };
            self.record.ip_traffic.insert(usize::from(self.below[host]), traffic);
            for below in &mut self.below[host + 1..] {
                *below += 1;
            }
        }
        (usize::from(*slot), usize::from(self.below[host]))
    }

    /// Adds `sample` to `day` of address `host`, whose total grows by
    /// `hits`, and brings its published entry up to date: its row, day
    /// count and total always, its median when the rank window holds
    /// it, and its host is marked stale when not.
    fn add(&mut self, host: u8, day: usize, sample: u32, hits: u64) -> Option<usize> {
        let (slot, at) = self.slot(host);
        let row = &mut self.record.rows[usize::from(host)];
        let ip = &mut self.ips[slot];
        let appended = ip.add(row, day, sample);
        let traffic = &mut self.record.ip_traffic[at];
        traffic.total_hits = traffic.total_hits.saturating_add(hits);
        traffic.days_active = ip.hits.len() as u8;
        match ip.windowed() {
            Some(median) => traffic.median_daily_hits = median,
            None => self.stale.set(host),
        }
        appended
    }

    /// Combines another accumulator of the same block: days active in
    /// both sum their samples, the rest carry over.
    fn merge(&mut self, mut other: BlockAcc) {
        self.record.total_hits = self.record.total_hits.saturating_add(other.record.total_hits);
        self.record.ua_samples += other.record.ua_samples;
        self.ua_hashes.append(&mut other.ua_hashes);
        for theirs in &other.record.ip_traffic {
            let host = usize::from(theirs.host);
            let samples = std::mem::take(&mut other.ips[usize::from(other.slot_of[host])].hits);
            // The address's total moves over with its first sample.
            let mut total = theirs.total_hits;
            for (day, sample) in other.record.rows[host].iter().zip(samples) {
                self.add(theirs.host, day, sample, std::mem::take(&mut total));
            }
        }
    }

    /// Brings every stale median up to date, as `median` takes it, and
    /// deduplicates the UA hashes: the record is then what a dataset
    /// publishes.
    fn refresh(&mut self, median: &mut impl FnMut(&mut IpAcc) -> u32) {
        if self.ua_hashes.len() != self.record.ua_unique as usize {
            self.ua_hashes.sort_unstable();
            self.ua_hashes.dedup();
            self.record.ua_unique = self.ua_hashes.len() as u32;
        }
        for host in std::mem::take(&mut self.stale).iter().map(usize::from) {
            let ip = &mut self.ips[usize::from(self.slot_of[host])];
            self.record.ip_traffic[usize::from(self.below[host])].median_daily_hits = median(ip);
        }
    }

    /// Whether the block has recorded a hit: a block with UA samples
    /// alone publishes no record.
    fn active(&self) -> bool {
        !self.record.ip_traffic.is_empty()
    }
}

/// Samples a tracked accumulator keeps ranked around its median.
const WINDOW: usize = 6;

/// One address's samples and their median — the sample a full sort
/// would leave at `len / 2` — which is *maintained*, not recomputed.
/// The address's day bitmap is its row in the block's record, which
/// every call that changes the samples is given.
///
/// An accumulator starts untracked. Its first [`median`](Self::median)
/// selects, and from then on the accumulator is tracked: it keeps a
/// *rank window*, the up to [`WINDOW`] samples of ranks
/// `lo..lo + held` in ascending order, so the median is
/// `win[hits.len() / 2 - lo]` whenever that rank is inside. A new day's
/// sample lands below the window (`lo += 1`), above it (nothing moves),
/// or inside it — it is inserted, and a full window drops whichever
/// end lies farther from the median's rank — with no pass over the
/// samples. Only when the median's rank has left the window does the
/// next `median` refill it, by one selection. A second record for a
/// day already present changes a sample in place and drops the
/// accumulator back to untracked until the next `median`.
#[derive(Debug, Default)]
struct IpAcc {
    /// Hits per active day in ascending day order: `hits[i]` belongs
    /// to the `i`-th set bit of the address's row, so the day is not
    /// stored again.
    hits: Vec<u32>,
    /// While tracked, samples of consecutive ranks from `lo`, ascending.
    win: [u32; WINDOW],
    /// Samples ranked below `win[0]`.
    lo: u8,
    /// Samples in `win`; zero means untracked.
    held: u8,
}

/// The element of `samples` a full sort would leave at `len / 2`.
fn select_median(samples: &mut [u32]) -> u32 {
    let mid = samples.len() / 2;
    *samples.select_nth_unstable(mid).1
}

impl IpAcc {
    /// Adds `hits` to `day`'s sample, creating it if the day is new,
    /// and sets `day` in `row`, the address's active days.
    ///
    /// A day later than every day present — each record of an address
    /// in any log an emitter writes — is set and appended: no rank to
    /// count, nothing to shift, and the address's latest day before it,
    /// plus one, comes back (0 if it had none): a census column's
    /// count. Any other order ranks and inserts, and `None` comes back;
    /// the samples end up the same.
    fn add(&mut self, row: &mut DayBits, day: usize, hits: u32) -> Option<usize> {
        let appended = if row.all_before(day) {
            self.hits.push(hits);
            Some((u128::BITS - row.bits().leading_zeros()) as usize)
        } else {
            let rank = row.count_range(0, day) as usize;
            if row.get(day) {
                self.hits[rank] = self.hits[rank].saturating_add(hits);
                self.held = 0;
                return None;
            }
            self.hits.insert(rank, hits);
            None
        };
        row.set(day);
        if self.held != 0 {
            self.rank(hits);
        }
        appended
    }

    /// Places a new sample, already in `hits`, against the window. A
    /// window that reaches the least (greatest) sample takes a smaller
    /// (greater) one in, since it can only rank first (last); a sample
    /// tied with an end may rank on either side of it, and is taken in.
    fn rank(&mut self, x: u32) {
        let (lo, held) = (self.lo as usize, self.held as usize);
        let bottom = lo == 0;
        let top = lo + held == self.hits.len() - 1;
        if x < self.win[0] && !bottom {
            self.lo += 1;
            return;
        }
        if x > self.win[held - 1] && !top {
            return;
        }
        let at = self.win[..held].partition_point(|&w| w < x);
        let mut ranked = [0; WINDOW + 1];
        ranked[..at].copy_from_slice(&self.win[..at]);
        ranked[at] = x;
        ranked[at + 1..=held].copy_from_slice(&self.win[at..held]);
        let mid = self.hits.len() / 2;
        if held < WINDOW {
            self.win[..=held].copy_from_slice(&ranked[..=held]);
            self.held += 1;
        } else if 2 * mid > 2 * lo + WINDOW {
            // Rank `mid` is nearer the top of `lo..=lo + WINDOW`, so the
            // bottom goes.
            self.win.copy_from_slice(&ranked[1..]);
            self.lo += 1;
        } else {
            self.win.copy_from_slice(&ranked[..WINDOW]);
        }
    }

    /// Ranks the samples copied into `scratch` (and reorders them): the
    /// window becomes the up to [`WINDOW`] ranks around the median's,
    /// three below it where there are three, and the median is read.
    fn fill(&mut self, scratch: &mut [u32]) -> u32 {
        let n = scratch.len();
        let mid = n / 2;
        let k = n.min(WINDOW);
        let lo = mid.saturating_sub(WINDOW / 2).min(n - k);
        let above = scratch.select_nth_unstable(lo).2;
        if k >= 2 && k - 1 < above.len() {
            above.select_nth_unstable(k - 2);
        }
        scratch[lo + 1..lo + k].sort_unstable();
        self.win[..k].copy_from_slice(&scratch[lo..lo + k]);
        (self.lo, self.held) = (lo as u8, k as u8);
        self.win[mid - lo]
    }

    /// The median while it is inside a tracked window.
    fn windowed(&self) -> Option<u32> {
        let at = (self.hits.len() / 2).checked_sub(self.lo as usize)?;
        (at < self.held as usize).then(|| self.win[at])
    }

    /// Median hits over the active days, leaving the accumulator
    /// tracked. Read off the window when it is inside; otherwise ranked
    /// from a copy in `scratch` (`hits` keeps its day order), and
    /// `selected` counts it if the accumulator was untracked, `refilled`
    /// if its window had merely been left behind.
    fn median(&mut self, scratch: &mut Vec<u32>, selected: &mut u64, refilled: &mut u64) -> u32 {
        if let Some(median) = self.windowed() {
            return median;
        }
        if self.held == 0 {
            *selected += 1;
        } else {
            *refilled += 1;
        }
        scratch.clear();
        scratch.extend_from_slice(&self.hits);
        self.fill(scratch)
    }

    /// Median hits of an accumulator that takes no more records: read
    /// off the window when it is inside, otherwise selected in place,
    /// with no copy and no window, and `hits` loses its day order.
    fn last_median(&mut self) -> u32 {
        self.windowed().unwrap_or_else(|| select_median(&mut self.hits))
    }
}

impl Default for DailyDatasetBuilder {
    fn default() -> Self {
        DailyDatasetBuilder::new(0)
    }
}

impl DailyDatasetBuilder {
    /// Creates a builder for a window of `num_days` days (≤ 128).
    pub fn new(num_days: usize) -> Self {
        Self::with_shards(num_days, sweep_threads())
    }

    /// A builder whose blocks are dealt over `shards` tables (≥ 1).
    fn with_shards(num_days: usize, shards: usize) -> Self {
        assert!(num_days <= DayBits::CAPACITY, "window exceeds {} days", DayBits::CAPACITY);
        let shards = (0..shards.max(1)).map(|_| BlockTable::default()).collect();
        DailyDatasetBuilder { num_days, shards, last: None, folded_to: 0, selected: 0, refilled: 0 }
    }

    /// The accumulator of `block`, made if this is the block's first
    /// record.
    fn acc(&mut self, block: Block24) -> &mut BlockAcc {
        let (shard, at) = match self.last {
            Some((last, shard, at)) if last == block => (shard, at),
            _ => {
                let shard = shard_of(block, self.shards.len());
                let at = self.shards[shard].position(block, || BlockAcc::new(block));
                self.last = Some((block, shard, at));
                (shard, at)
            }
        };
        &mut self.shards[shard].accs[at].1
    }

    /// Widens the window to `num_days` days, keeping everything
    /// recorded so far: the builder then equals one created with
    /// `new(num_days)` and fed the same records.
    ///
    /// # Panics
    /// If `num_days` exceeds 128 or would shrink the window.
    pub fn grow(&mut self, num_days: usize) {
        assert!(num_days <= DayBits::CAPACITY, "window exceeds {} days", DayBits::CAPACITY);
        assert!(num_days >= self.num_days, "a window only grows");
        self.num_days = num_days;
    }

    /// Records `hits` successful requests from `addr` on `day`.
    /// Multiple records for the same (day, addr) accumulate.
    pub fn record_hits(&mut self, day: usize, addr: Addr, hits: u64) {
        assert!(day < self.num_days, "day {day} outside window");
        if hits == 0 {
            return; // activity is defined by successful requests
        }
        self.folded_to = self.folded_to.max(day + 1);
        self.acc(Block24::of(addr)).record_hits(day, addr.host_index(), hits);
    }

    /// Records whole days at once — `days[i]` holds day
    /// `first_day + i`'s `(addr, hits)` records — to the same effect as
    /// passing each to [`record_hits`](Self::record_hits) in turn. Each
    /// shard is one [`claim_map`] share, the calling thread working one
    /// of them: a share reads the whole batch and folds its own blocks'
    /// records in arrival order, so every accumulator takes the very
    /// adds the serial fold would give it. `beside` runs as one more
    /// share, claimed first: work of the caller's that owes nothing to
    /// this builder (the observatory's weekly fold) shares the threads
    /// instead of waiting for them.
    ///
    /// The fold also counts what the batch adds to a window census of
    /// the builder's days ([`WindowCensus::appended`] takes it): each
    /// record that puts its address on a day later than all it had is
    /// one address gone active on that day after its previous active
    /// day. Each share counts its own blocks and the shares' counts are
    /// summed. They are the whole of days `first_day..` when the batch
    /// starts after every day the builder has folded — no record named
    /// one of its days and no batch covered one — since a share folds
    /// its records day by day, so every record then lands on or after
    /// its address's latest day. Otherwise a record may land earlier
    /// and this returns `None`: a census must count the rows
    /// ([`WindowCensus::extended`]).
    ///
    /// [`WindowCensus::appended`]: crate::WindowCensus::appended
    /// [`WindowCensus::extended`]: crate::WindowCensus::extended
    ///
    /// # Panics
    /// If a day lies outside the window.
    pub fn record_days(
        &mut self,
        first_day: usize,
        days: &[&[(Addr, u64)]],
        beside: impl FnOnce() + Send,
    ) -> Option<UnitHistograms> {
        let end = first_day + days.len();
        assert!(end <= self.num_days, "day {} outside window", end - 1);
        let after = self.folded_to <= first_day;
        if !days.is_empty() {
            self.folded_to = self.folded_to.max(end);
        }
        let shards = self.shards.len();
        // Each share takes what it folds through a lock no other share
        // asks for.
        let tables: Vec<Mutex<&mut BlockTable<BlockAcc>>> =
            self.shards.iter_mut().map(Mutex::new).collect();
        let beside = Mutex::new(Some(beside));
        let order: Vec<usize> = std::iter::once(shards).chain(0..shards).collect();
        // Each thread counts into histograms of its own.
        let init = || UnitHistograms::new(first_day..end);
        let (_, counts) = claim_map(&order, shards, init, |counts, share| {
            if share == shards {
                if let Some(beside) = beside.lock().expect("share lock poisoned").take() {
                    beside();
                }
                return;
            }
            let mut table = tables[share].lock().expect("share lock poisoned");
            // Whether the block of the record before is this share's:
            // a block-major log asks once a block, not once a record.
            let mut mine = None;
            for (day, records) in (first_day..).zip(days) {
                for &(addr, hits) in *records {
                    let block = Block24::of(addr);
                    let ours = match mine {
                        Some((last, ours)) if last == block => ours,
                        _ => {
                            let ours = shard_of(block, shards) == share;
                            mine = Some((block, ours));
                            ours
                        }
                    };
                    if hits != 0 && ours {
                        let acc = table.acc(block, || BlockAcc::new(block));
                        if let Some(q) = acc.record_hits(day, addr.host_index(), hits) {
                            counts.count(day, q);
                        }
                    }
                }
            }
        });
        let sum = counts.into_iter().reduce(|mut sum, counts| {
            sum.add(&counts);
            sum
        });
        sum.filter(|_| after)
    }

    /// Records one sampled User-Agent observation.
    pub fn record_ua(&mut self, _day: usize, addr: Addr, ua_hash: u64) {
        let acc = self.acc(Block24::of(addr));
        acc.record.ua_samples += 1;
        acc.ua_hashes.push(ua_hash);
    }

    /// Folds another builder's accumulated records into this one, as
    /// if every record fed to `other` had been fed here instead.
    ///
    /// The accumulators still hold per-day hit values and UA hashes,
    /// so overlapping blocks, addresses, and days combine exactly. The
    /// operation is commutative and associative up to `finish()`
    /// (which canonicalizes all ordering), which is what makes a
    /// sharded collector's result independent of merge order.
    ///
    /// # Panics
    /// If the builders cover different window lengths.
    pub fn merge(&mut self, other: DailyDatasetBuilder) {
        assert_eq!(
            self.num_days, other.num_days,
            "cannot merge builders over different windows"
        );
        self.folded_to = self.folded_to.max(other.folded_to);
        let shards = self.shards.len();
        for (block, acc) in other.shards.into_iter().flat_map(|table| table.accs) {
            self.shards[shard_of(block, shards)].take(block, acc, BlockAcc::merge);
        }
    }

    /// Does now, on the calling thread, what [`finish`](Self::finish)
    /// still has to do to a block: every stale median is brought up to
    /// date and its address gets its rank window, as a
    /// [`snapshot`](Self::snapshot) leaves it but uncounted by
    /// [`medians_selected`](Self::medians_selected) and
    /// [`median_refills`](Self::median_refills) — nothing was
    /// published — and every block's UA hashes are deduplicated. A
    /// sharded collector seals each partial builder on the thread that
    /// folded it, and the thread that merges them finishes in
    /// O(blocks). A sealed builder is still a builder: a record or
    /// merge reaching a sealed address moves or drops its window as
    /// after a snapshot, and the dataset is the same either way.
    pub fn seal(&mut self) {
        let (mut scratch, mut selected, mut refilled) = (Vec::new(), 0, 0);
        let mut median = |ip: &mut IpAcc| ip.median(&mut scratch, &mut selected, &mut refilled);
        for (_, acc) in self.shards.iter_mut().flat_map(|table| &mut table.accs) {
            acc.refresh(&mut median);
        }
    }

    /// Finalizes into an immutable dataset: each block's record is
    /// copied out, once its stale medians are known — each selected in
    /// place, with no copy of its samples — and the block is freed.
    /// Copied, not moved, so that the dataset is allocated on the
    /// calling thread: the records were made wherever the records
    /// folded, and a collector's blocks moved out would keep that
    /// thread's allocator arena from giving back what the fold used
    /// (`collect_replay` peaked 11 MB higher when they were moved).
    ///
    /// Blocks that never recorded a hit are dropped, even if they
    /// accumulated UA samples: activity is defined by successful
    /// requests, and a hits-free `BlockRecord` would be a phantom —
    /// all-empty rows that shift block censuses and dataset equality.
    /// The salvage path makes this reachable: corruption can
    /// quarantine a block's `Hits` frame while its `UaSample` frame
    /// survives, and the salvaged dataset must still agree with the
    /// clean one wherever activity agrees.
    pub fn finish(self) -> DailyDataset {
        // Consuming, so each block is freed as soon as its record has
        // been copied out.
        let accs = self.shards.into_iter().flat_map(|table| table.accs);
        let blocks = accs.filter_map(|(_, mut acc)| {
            acc.refresh(&mut IpAcc::last_median);
            acc.active().then(|| acc.record.clone())
        });
        Self::dataset(self.num_days, blocks.collect())
    }

    /// The dataset [`finish`](Self::finish) would produce now, with
    /// the builder left intact to take more records. The snapshot owns
    /// every row it holds; later records never reach it.
    ///
    /// Every block already holds its published form, so a snapshot
    /// does two things: it brings the stale medians up to date, and it
    /// copies each block's record. `&mut` because a snapshot starts
    /// tracking the median of every address it reports: the first one
    /// selects it and keeps the samples ranked around it, and from then
    /// on each new day's record moves that rank window in O(1) and
    /// writes the median into the block's record as it folds. When the
    /// median has walked out of its window the snapshot refills it with
    /// one selection ([`median_refills`](Self::median_refills) counts).
    /// Only a second record for an `(address, day)` already present
    /// drops the tracking, and the next snapshot selects for that
    /// address again ([`medians_selected`](Self::medians_selected)
    /// counts). What a snapshot still pays for every block, moved or
    /// not, is the copy of its rows and traffic summaries: two
    /// allocations and a memcpy, with no walk over the hosts and no
    /// sort within a block. That runs on the calling thread alone,
    /// shard after shard, so the whole dataset comes from one thread's
    /// heap.
    pub fn snapshot(&mut self) -> DailyDataset {
        let (mut scratch, selected, refilled) =
            (Vec::new(), &mut self.selected, &mut self.refilled);
        let mut median = |ip: &mut IpAcc| ip.median(&mut scratch, selected, refilled);
        let mut blocks = Vec::with_capacity(self.shards.iter().map(|t| t.accs.len()).sum());
        for (_, acc) in self.shards.iter_mut().flat_map(|table| &mut table.accs) {
            acc.refresh(&mut median);
            if acc.active() {
                blocks.push(acc.record.clone());
            }
        }
        Self::dataset(self.num_days, blocks)
    }

    /// How many medians [`snapshot`](Self::snapshot) has found by
    /// selection since the builder was made: one for an address's
    /// first snapshot, one more each time a repeated `(address, day)`
    /// record dropped its tracking — never one for a returning address.
    pub fn medians_selected(&self) -> u64 {
        self.selected
    }

    /// How many rank windows [`snapshot`](Self::snapshot) has refilled
    /// since the builder was made: one each time a tracked address's
    /// median had left the samples its window held. Not selections
    /// ([`medians_selected`](Self::medians_selected)): the address was
    /// tracked throughout.
    pub fn median_refills(&self) -> u64 {
        self.refilled
    }

    fn dataset(num_days: usize, mut blocks: Vec<BlockRecord>) -> DailyDataset {
        blocks.sort_unstable_by_key(|r| r.block);
        DailyDataset { num_days, blocks, coverage: None }
    }
}

/// The weekly dataset: per-block week-bitsets over `num_weeks` weeks,
/// plus per-week per-address hit totals (as a multiset — the traffic
/// consolidation analysis needs values, not identities; collectors
/// keep each week's values sorted so datasets compare by `==`). A
/// week's values sit behind an `Arc` so that successive snapshots of
/// one live builder share the weeks that did not change.
///
/// As with [`DailyDataset`], equality compares the observed data only
/// — the [`WeeklyDataset::coverage`] annotation is provenance.
#[derive(Debug, Clone)]
pub struct WeeklyDataset {
    /// Number of weeks (52 in the paper).
    pub num_weeks: usize,
    /// Per-block `(block, rows)` where `rows[i]` has bit `w` set iff
    /// address `i` was active in week `w`. Sorted by block.
    pub blocks: Vec<(Block24, Box<[u64; 256]>)>,
    /// `week_hits[w]` = per-active-address total hits in week `w`,
    /// **ascending**. Every constructor sorts them
    /// ([`WeeklyDatasetBuilder::finish`] and `snapshot`, the direct
    /// build), and a dataset assembled by hand must too:
    /// [`crate::traffic::top_share`] reads the top share off the tail
    /// and [`crate::stats::gini`] ranks by position, with no sort of
    /// their own (both `debug_assert!` it).
    pub week_hits: Vec<Arc<Vec<u64>>>,
    /// Data-completeness annotation from a supervised collection run
    /// (slots are week indices); `None` outside supervised paths.
    pub coverage: Option<Coverage>,
}

impl PartialEq for WeeklyDataset {
    fn eq(&self, other: &Self) -> bool {
        self.num_weeks == other.num_weeks
            && self.blocks == other.blocks
            && self.week_hits == other.week_hits
    }
}

impl WeeklyDataset {
    /// Year-scale filling degree of a block: addresses active in at
    /// least one week (the weekly analogue of the Section 5.1 FD).
    pub fn filling_degree(&self, block: Block24) -> u32 {
        self.rows_of(block)
            .map(|rows| rows.iter().filter(|&&b| b != 0).count() as u32)
            .unwrap_or(0)
    }

    /// Year-scale spatio-temporal utilization of a block: active
    /// (address, week) pairs over `256 × num_weeks`.
    pub fn stu(&self, block: Block24) -> f64 {
        self.rows_of(block)
            .map(|rows| {
                let active: u32 = rows.iter().map(|b| b.count_ones()).sum();
                active as f64 / (256.0 * self.num_weeks as f64)
            })
            .unwrap_or(0.0)
    }

    fn rows_of(&self, block: Block24) -> Option<&[u64; 256]> {
        self.blocks
            .binary_search_by_key(&block, |(b, _)| *b)
            .ok()
            .map(|i| &*self.blocks[i].1)
    }

    /// Total distinct active addresses over the year.
    pub fn total_active(&self) -> usize {
        self.blocks
            .iter()
            .map(|(_, rows)| rows.iter().filter(|&&b| b != 0).count())
            .sum()
    }
}

/// Accumulator for [`WeeklyDataset`]; like [`DailyDatasetBuilder`] it
/// can be finished once or kept, grown and snapshotted.
#[derive(Debug, Default)]
pub struct WeeklyDatasetBuilder {
    num_weeks: usize,
    blocks: BlockTable<Box<[u64; 256]>>,
    week_hits: Vec<WeekHits>,
}

/// One week's hit multiset inside the builder.
#[derive(Debug)]
enum WeekHits {
    /// Taking records, in arrival order.
    Open(Vec<u64>),
    /// Sorted once and shared with every snapshot since; a later
    /// record copies it back out, so a snapshot never changes.
    Sorted(Arc<Vec<u64>>),
}

impl WeekHits {
    /// The multiset as a vector to append to.
    fn open(&mut self) -> &mut Vec<u64> {
        if let WeekHits::Sorted(shared) = self {
            let hits = Arc::try_unwrap(std::mem::take(shared)).unwrap_or_else(|s| (*s).clone());
            *self = WeekHits::Open(hits);
        }
        match self {
            WeekHits::Open(hits) => hits,
            WeekHits::Sorted(_) => unreachable!("just opened"),
        }
    }

    /// The multiset in canonical order, sorting it if records arrived
    /// since it was last asked for.
    fn sorted(&mut self) -> Arc<Vec<u64>> {
        if let WeekHits::Open(hits) = self {
            hits.sort_unstable();
            *self = WeekHits::Sorted(Arc::new(std::mem::take(hits)));
        }
        match self {
            WeekHits::Sorted(shared) => shared.clone(),
            WeekHits::Open(_) => unreachable!("just sorted"),
        }
    }
}

/// Two ascending runs as one.
fn merge_runs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if b[j] < a[i] {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl WeeklyDatasetBuilder {
    /// Creates a builder for `num_weeks` weeks (≤ 64).
    pub fn new(num_weeks: usize) -> Self {
        let mut builder = WeeklyDatasetBuilder::default();
        builder.grow(num_weeks);
        builder
    }

    /// Widens the window to `num_weeks` weeks, keeping everything
    /// recorded so far.
    ///
    /// # Panics
    /// If `num_weeks` exceeds 64 or would shrink the window.
    pub fn grow(&mut self, num_weeks: usize) {
        assert!(num_weeks <= 64, "week bitsets hold at most 64 weeks");
        assert!(num_weeks >= self.num_weeks, "a window only grows");
        self.num_weeks = num_weeks;
        self.week_hits.resize_with(num_weeks, || WeekHits::Open(Vec::new()));
    }

    /// Makes room for exactly `additional` more records in week `w`,
    /// for a caller that knows how many it is about to fold: a week
    /// grown record by record leaves a trail of outgrown buffers and
    /// up to a half of slack in a multiset that is then kept for good.
    pub fn reserve_week(&mut self, w: usize, additional: usize) {
        self.week_hits[w].open().reserve_exact(additional);
    }

    /// Records that `addr` was active in week `w` with `hits` total
    /// requests that week.
    pub fn record_week(&mut self, w: usize, addr: Addr, hits: u64) {
        assert!(w < self.num_weeks);
        if hits == 0 {
            return;
        }
        let rows = self.blocks.acc(Block24::of(addr), || Box::new([0u64; 256]));
        rows[addr.host_index() as usize] |= 1u64 << w;
        self.week_hits[w].open().push(hits);
    }

    /// Folds another builder's accumulated records into this one —
    /// exact for overlapping blocks and addresses (week bits union,
    /// hit multisets concatenate), and order-insensitive up to
    /// `finish()`'s canonicalization. A week both builders hold sorted
    /// (two [`seal`](Self::seal)ed shards) is merged as two runs, in
    /// linear time, and stays sorted; any other pair is appended and
    /// sorted when next wanted.
    ///
    /// # Panics
    /// If the builders cover different week counts.
    pub fn merge(&mut self, other: WeeklyDatasetBuilder) {
        assert_eq!(
            self.num_weeks, other.num_weeks,
            "cannot merge builders over different week counts"
        );
        self.blocks.merge(other.blocks, |mine, rows| {
            for (mine, theirs) in mine.iter_mut().zip(rows.iter()) {
                *mine |= theirs;
            }
        });
        for (mine, mut theirs) in self.week_hits.iter_mut().zip(other.week_hits) {
            match (&*mine, &theirs) {
                (WeekHits::Sorted(a), WeekHits::Sorted(b)) => {
                    *mine = WeekHits::Sorted(Arc::new(merge_runs(a, b)));
                }
                _ => mine.open().append(theirs.open()),
            }
        }
    }

    /// Sorts every week's hits now, on the calling thread, as
    /// [`finish`](Self::finish) otherwise would: the weekly half of
    /// [`DailyDatasetBuilder::seal`]. A later record reopens its week.
    pub fn seal(&mut self) {
        self.sorted_week_hits();
    }

    /// Finalizes into an immutable dataset. Blocks and each week's
    /// hit multiset are sorted into canonical order, so any two
    /// builders fed the same records (in any order, through any
    /// merge tree) finish into `==` datasets. Activity-free blocks
    /// (all-zero rows) are dropped, mirroring the daily builder.
    pub fn finish(mut self) -> WeeklyDataset {
        let week_hits = self.sorted_week_hits();
        Self::dataset(self.num_weeks, self.blocks.accs, week_hits)
    }

    /// The dataset [`finish`](Self::finish) would produce now, with
    /// the builder left intact to take more records. Block rows are
    /// copied; a week's hits are sorted in place the first time a
    /// snapshot wants them (hence `&mut`) and from then on shared, not
    /// copied or sorted again, until that week takes another record.
    pub fn snapshot(&mut self) -> WeeklyDataset {
        let week_hits = self.sorted_week_hits();
        Self::dataset(self.num_weeks, self.blocks.accs.clone(), week_hits)
    }

    fn sorted_week_hits(&mut self) -> Vec<Arc<Vec<u64>>> {
        self.week_hits.iter_mut().map(WeekHits::sorted).collect()
    }

    fn dataset(
        num_weeks: usize,
        mut blocks: Vec<(Block24, Box<[u64; 256]>)>,
        week_hits: Vec<Arc<Vec<u64>>>,
    ) -> WeeklyDataset {
        blocks.retain(|(_, rows)| rows.iter().any(|&b| b != 0));
        blocks.sort_unstable_by_key(|(b, _)| *b);
        WeeklyDataset { num_weeks, blocks, week_hits, coverage: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cadence::{transpose64, Windows};
    use crate::WindowCensus;
    use ipactive_net::AddrSet;
    use proptest::prelude::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn tiny_daily() -> DailyDataset {
        let mut b = DailyDatasetBuilder::new(7);
        // Address active 3 days with varying hits.
        b.record_hits(0, addr("10.0.0.1"), 10);
        b.record_hits(1, addr("10.0.0.1"), 30);
        b.record_hits(6, addr("10.0.0.1"), 20);
        // Always-on heavy hitter.
        for d in 0..7 {
            b.record_hits(d, addr("10.0.0.2"), 1000);
        }
        // One-day address in another block.
        b.record_hits(3, addr("10.0.1.9"), 1);
        // UA samples.
        b.record_ua(0, addr("10.0.0.2"), 111);
        b.record_ua(1, addr("10.0.0.2"), 111);
        b.record_ua(2, addr("10.0.0.2"), 222);
        b.finish()
    }

    #[test]
    fn builder_produces_sorted_blocks_and_counts() {
        let ds = tiny_daily();
        assert_eq!(ds.blocks.len(), 2);
        assert!(ds.blocks[0].block < ds.blocks[1].block);
        assert_eq!(ds.total_active(), 3);
        assert_eq!(ds.all_active::<AddrSet>().len(), 3);
    }

    #[test]
    fn day_sets_and_window_unions() {
        let ds = tiny_daily();
        let d0: AddrSet = ds.unit(0);
        assert_eq!(d0.len(), 2);
        assert!(d0.contains(addr("10.0.0.1")) && d0.contains(addr("10.0.0.2")));
        let d3: AddrSet = ds.unit(3);
        assert_eq!(d3.len(), 2);
        assert!(d3.contains(addr("10.0.1.9")));
        let w: AddrSet = ds.window(2..5);
        assert!(w.contains(addr("10.0.0.2")) && w.contains(addr("10.0.1.9")));
        assert!(!w.contains(addr("10.0.0.1")));
    }

    #[test]
    fn traffic_summaries() {
        let ds = tiny_daily();
        let rec = ds.block(Block24::of(addr("10.0.0.0"))).unwrap();
        assert_eq!(rec.total_hits, 60 + 7000);
        let t1 = rec.ip_traffic.iter().find(|t| t.host == 1).unwrap();
        assert_eq!(t1.days_active, 3);
        assert_eq!(t1.total_hits, 60);
        assert_eq!(t1.median_daily_hits, 20);
        let t2 = rec.ip_traffic.iter().find(|t| t.host == 2).unwrap();
        assert_eq!(t2.days_active, 7);
        assert_eq!(t2.median_daily_hits, 1000);
    }

    #[test]
    fn ua_aggregation() {
        let ds = tiny_daily();
        let rec = ds.block(Block24::of(addr("10.0.0.0"))).unwrap();
        assert_eq!(rec.ua_samples, 3);
        assert_eq!(rec.ua_unique, 2);
    }

    #[test]
    fn fd_and_stu() {
        let ds = tiny_daily();
        let rec = ds.block(Block24::of(addr("10.0.0.0"))).unwrap();
        assert_eq!(rec.filling_degree(0..7), 2);
        assert_eq!(rec.filling_degree(3..5), 1); // only the always-on addr
        // STU: (3 + 7) active addr-days over 256*7.
        let expect = 10.0 / (256.0 * 7.0);
        assert!((rec.stu(0..7) - expect).abs() < 1e-12);
        assert_eq!(rec.active_on(6), 2);
        assert!(rec.any_active(0..1));
    }

    #[test]
    fn duplicate_hit_records_accumulate() {
        let mut b = DailyDatasetBuilder::new(3);
        b.record_hits(1, addr("10.0.0.5"), 4);
        b.record_hits(1, addr("10.0.0.5"), 6);
        let ds = b.finish();
        let rec = ds.block(Block24::of(addr("10.0.0.0"))).unwrap();
        let t = &rec.ip_traffic[0];
        assert_eq!(t.days_active, 1);
        assert_eq!(t.total_hits, 10);
        assert_eq!(t.median_daily_hits, 10);
    }

    #[test]
    fn zero_hits_do_not_mark_activity() {
        let mut b = DailyDatasetBuilder::new(3);
        b.record_hits(0, addr("10.0.0.5"), 0);
        let ds = b.finish();
        assert_eq!(ds.total_active(), 0);
    }

    #[test]
    fn ua_only_blocks_are_not_phantom_block_records() {
        // A block whose Hits records were all lost (e.g. quarantined
        // by the salvage path) but whose UaSample records survived
        // must not materialize as an all-empty BlockRecord.
        let mut b = DailyDatasetBuilder::new(3);
        b.record_ua(0, addr("10.0.0.5"), 42);
        b.record_ua(1, addr("10.0.0.6"), 43);
        let ds = b.finish();
        assert!(ds.blocks.is_empty(), "phantom block: {:?}", ds.blocks.first().map(|r| r.block));

        // A dataset that lost one block's hits compares equal to a
        // clean dataset without that block — block counts agree.
        let mut clean = DailyDatasetBuilder::new(3);
        clean.record_hits(0, addr("10.0.1.1"), 7);
        let mut salvaged = DailyDatasetBuilder::new(3);
        salvaged.record_hits(0, addr("10.0.1.1"), 7);
        salvaged.record_ua(0, addr("10.0.0.5"), 42); // hits frame lost
        assert_eq!(clean.finish(), salvaged.finish());
    }

    #[test]
    fn ua_samples_still_count_when_the_block_has_activity() {
        // The fix drops hits-free blocks only; UA aggregation on a
        // live block is untouched (even merged in from a shard that
        // saw only the UA records).
        let mut a = DailyDatasetBuilder::new(3);
        a.record_hits(0, addr("10.0.0.5"), 1);
        let mut b = DailyDatasetBuilder::new(3);
        b.record_ua(0, addr("10.0.0.6"), 99);
        a.merge(b);
        let ds = a.finish();
        let rec = ds.block(Block24::of(addr("10.0.0.0"))).unwrap();
        assert_eq!(rec.ua_samples, 1);
        assert_eq!(rec.ua_unique, 1);
    }

    #[test]
    fn uncached_windows_traits_match_inherent_queries() {
        let ds = tiny_daily();
        assert_eq!(ds.num_units(), 7);
        let via_trait = ds.union(2..5);
        assert_eq!(*via_trait, ds.window::<AddrSet>(2..5));

        let mut b = WeeklyDatasetBuilder::new(8);
        b.record_week(1, addr("10.0.0.1"), 3);
        b.record_week(6, addr("10.0.2.9"), 1);
        let ws = b.finish();
        assert_eq!(ws.num_units(), 8);
        assert_eq!(*ws.union(0..7), ws.window::<AddrSet>(0..7));
    }

    #[test]
    fn weekly_builder_roundtrip() {
        let mut b = WeeklyDatasetBuilder::new(52);
        b.record_week(0, addr("10.0.0.1"), 100);
        b.record_week(51, addr("10.0.0.1"), 100);
        b.record_week(10, addr("10.0.2.7"), 5);
        let ds = b.finish();
        assert_eq!(ds.total_active(), 2);
        assert_eq!(ds.unit::<AddrSet>(0).len(), 1);
        assert_eq!(ds.unit::<AddrSet>(1).len(), 0);
        assert!(ds.unit::<AddrSet>(51).contains(addr("10.0.0.1")));
        assert_eq!(ds.window::<AddrSet>(0..52).len(), 2);
        assert_eq!(ds.window::<AddrSet>(1..10).len(), 0);
        assert_eq!(*ds.week_hits[0], vec![100]);
        assert_eq!(*ds.week_hits[10], vec![5]);
    }

    #[test]
    fn weekly_fd_and_stu() {
        let mut b = WeeklyDatasetBuilder::new(4);
        let block = Block24::of(addr("10.0.0.0"));
        // Two addresses: one active all 4 weeks, one active 1 week.
        for w in 0..4 {
            b.record_week(w, block.addr(1), 10);
        }
        b.record_week(2, block.addr(2), 5);
        let ds = b.finish();
        assert_eq!(ds.filling_degree(block), 2);
        let expect = 5.0 / (256.0 * 4.0);
        assert!((ds.stu(block) - expect).abs() < 1e-12);
        // Unknown block.
        assert_eq!(ds.filling_degree(Block24::new(99)), 0);
        assert_eq!(ds.stu(Block24::new(99)), 0.0);
    }

    #[test]
    fn weekly_window_union_full_width_mask() {
        let mut b = WeeklyDatasetBuilder::new(64);
        b.record_week(63, addr("10.0.0.1"), 1);
        let ds = b.finish();
        assert_eq!(ds.window::<AddrSet>(0..64).len(), 1);
    }

    /// The records behind `tiny_daily`, as a replayable list.
    fn tiny_daily_records() -> Vec<(usize, Addr, u64)> {
        let mut recs = vec![
            (0, addr("10.0.0.1"), 10),
            (1, addr("10.0.0.1"), 30),
            (6, addr("10.0.0.1"), 20),
            (3, addr("10.0.1.9"), 1),
        ];
        for d in 0..7 {
            recs.push((d, addr("10.0.0.2"), 1000));
        }
        recs
    }

    #[test]
    fn builder_merge_equals_single_builder_for_any_split() {
        let records = tiny_daily_records();
        let uas = [(0, "10.0.0.2", 111u64), (1, "10.0.0.2", 111), (2, "10.0.0.2", 222)];
        let mut reference = DailyDatasetBuilder::new(7);
        for &(d, a, h) in &records {
            reference.record_hits(d, a, h);
        }
        for &(d, a, ua) in &uas {
            reference.record_ua(d, addr(a), ua);
        }
        let expect = reference.finish();

        // Split the records across 3 shards in several different ways;
        // every merge order must reproduce the single-builder result.
        for stride in 1..=3 {
            let mut shards: Vec<DailyDatasetBuilder> =
                (0..3).map(|_| DailyDatasetBuilder::new(7)).collect();
            for (i, &(d, a, h)) in records.iter().enumerate() {
                shards[(i / stride) % 3].record_hits(d, a, h);
            }
            for (i, &(d, a, ua)) in uas.iter().enumerate() {
                shards[i % 3].record_ua(d, addr(a), ua);
            }
            // Merge right-to-left for odd strides, left-to-right
            // otherwise — order must not matter.
            let merged = if stride % 2 == 1 {
                let mut it = shards.into_iter().rev();
                let mut acc = it.next().unwrap();
                for b in it {
                    acc.merge(b);
                }
                acc
            } else {
                let mut it = shards.into_iter();
                let mut acc = it.next().unwrap();
                for b in it {
                    acc.merge(b);
                }
                acc
            };
            assert_eq!(merged.finish(), expect, "stride {stride}");
        }
    }

    #[test]
    fn builder_merge_combines_same_day_same_addr() {
        let mut a = DailyDatasetBuilder::new(3);
        let mut b = DailyDatasetBuilder::new(3);
        a.record_hits(1, addr("10.0.0.5"), 4);
        b.record_hits(1, addr("10.0.0.5"), 6);
        b.record_hits(2, addr("10.0.0.5"), 1);
        a.merge(b);
        let ds = a.finish();
        let rec = ds.block(Block24::of(addr("10.0.0.0"))).unwrap();
        let t = &rec.ip_traffic[0];
        assert_eq!(t.days_active, 2);
        assert_eq!(t.total_hits, 11);
        assert_eq!(t.median_daily_hits, 10); // sorted day totals [1, 10]
    }

    #[test]
    fn out_of_order_and_repeated_days_keep_samples_by_day() {
        // Days arrive 5, 1, 3, then 1 again: the median must be over
        // the per-day sums {1: 4+6, 3: 2, 5: 7}, whatever the order.
        let mut b = DailyDatasetBuilder::new(8);
        let a = addr("10.0.0.5");
        for (day, hits) in [(5, 7), (1, 4), (3, 2), (1, 6)] {
            b.record_hits(day, a, hits);
        }
        let t = b.finish().blocks[0].ip_traffic[0];
        assert_eq!((t.days_active, t.total_hits, t.median_daily_hits), (3, 19, 7));
    }

    #[test]
    fn grown_builder_snapshots_equal_fresh_batch_builds() {
        // A live builder grown a day at a time: every snapshot equals
        // a fresh builder over the same records, and stays what it was
        // while the builder moves on.
        let records = tiny_daily_records();
        let mut live = DailyDatasetBuilder::new(0);
        let mut snapshots = Vec::new();
        for days in 1..=7 {
            live.grow(days);
            let mut fresh = DailyDatasetBuilder::new(days);
            for &(d, a, h) in &records {
                if d == days - 1 {
                    live.record_hits(d, a, h);
                }
                if d < days {
                    fresh.record_hits(d, a, h);
                }
            }
            let expect = fresh.finish();
            assert_eq!(live.snapshot(), expect, "{days} days");
            assert_eq!(live.snapshot(), expect, "a second snapshot changes nothing");
            snapshots.push((live.snapshot(), expect));
        }
        for (snapshot, expect) in &snapshots {
            assert_eq!(snapshot, expect, "a snapshot moved after it was taken");
        }
        assert_eq!(live.finish(), snapshots.pop().unwrap().1);
    }

    #[test]
    fn grown_weekly_builder_shares_closed_weeks_with_its_snapshots() {
        let mut live = WeeklyDatasetBuilder::new(0);
        let mut snapshots = Vec::new();
        for w in 0..4usize {
            live.grow(w + 1);
            live.reserve_week(w, 3); // a capacity hint changes nothing
            for h in [9u64, 1, 5] {
                live.record_week(w, addr("10.0.0.1"), h + w as u64);
            }
            snapshots.push(live.snapshot());
        }
        let last = snapshots.last().unwrap();
        for (w, snapshot) in snapshots.iter().enumerate() {
            assert_eq!(snapshot.num_weeks, w + 1);
            assert_eq!(*snapshot.week_hits[w], vec![1 + w as u64, 5 + w as u64, 9 + w as u64]);
            // Sorted once, then carried: every later snapshot holds
            // the very same allocation.
            assert!(Arc::ptr_eq(&snapshot.week_hits[w], &last.week_hits[w]));
        }
        // A late record for a closed week copies it out again; the
        // snapshots already taken keep what they had.
        live.record_week(0, addr("10.0.0.2"), 3);
        let reopened = live.snapshot();
        assert_eq!(*reopened.week_hits[0], vec![1, 3, 5, 9]);
        assert_eq!(*last.week_hits[0], vec![1, 5, 9]);
        assert!(Arc::ptr_eq(&reopened.week_hits[1], &last.week_hits[1]));
        assert_eq!(live.finish(), reopened);
    }

    /// One record: `(day or week, addr, hits)`.
    type Rec = (usize, Addr, u64);

    /// Records over four blocks with shared host indices, repeated
    /// days and repeated `(day, addr)` pairs, block-major the way a
    /// log emits them.
    fn block_major_records() -> Vec<Rec> {
        let mut recs = Vec::new();
        for block in [7u32, 3, 900, 4] {
            let block = Block24::new(0x0A_0000 + block);
            for host in [0u8, 1, 9, 200, 255, 9] {
                for day in [0usize, 5, 2, 5, 11] {
                    let hits =
                        1 + u64::from(host) * 3 + day as u64 * 17 + u64::from(block.id() % 5);
                    recs.push((day, block.addr(host), hits));
                }
            }
        }
        recs
    }

    /// The same records in arrival orders a builder must not care
    /// about: as emitted, blocks interleaved record by record
    /// (A, B, A, B…: every record misses the last-block memo), and two
    /// seeded shuffles.
    fn arrival_orders() -> Vec<(&'static str, Vec<Rec>)> {
        let major = block_major_records();
        let per_block = major.len() / 4;
        let interleaved: Vec<Rec> = (0..per_block)
            .flat_map(|i| (0..4).map(move |b| b * per_block + i))
            .map(|i| major[i])
            .collect();
        let shuffled = |mut x: u64| {
            let mut recs = major.clone();
            for i in (1..recs.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                recs.swap(i, (x >> 33) as usize % (i + 1));
            }
            recs
        };
        vec![
            ("interleaved", interleaved),
            ("shuffled", shuffled(2015)),
            ("reshuffled", shuffled(0xFEED)),
            ("block-major", major),
        ]
    }

    /// Folds all but the last of `recs` through `ways` builders dealt
    /// round-robin in runs of `run` records — so the leaves share
    /// blocks, addresses and `(address, day)` pairs — then merges them
    /// left to right or as a right-leaning tree, and gives the merged
    /// builder the last record. Bit `i` of `sealed` seals leaf `i`
    /// before the merge, bit `ways` the merged builder before its last
    /// record.
    #[allow(clippy::too_many_arguments)]
    fn fold_and_merge<B>(
        recs: &[Rec],
        ways: usize,
        run: usize,
        right_leaning: bool,
        sealed: u32,
        new: impl Fn() -> B,
        fold: impl Fn(&mut B, Rec),
        seal: impl Fn(&mut B),
        merge: impl Fn(&mut B, B),
    ) -> B {
        let (&last, recs) = recs.split_last().unwrap();
        let mut parts: Vec<B> = (0..ways).map(|_| new()).collect();
        for (i, &rec) in recs.iter().enumerate() {
            fold(&mut parts[(i / run) % ways], rec);
        }
        for (i, part) in parts.iter_mut().enumerate() {
            if sealed >> i & 1 != 0 {
                seal(part);
            }
        }
        let mut acc = if right_leaning {
            let mut acc = parts.pop().unwrap();
            while let Some(mut left) = parts.pop() {
                merge(&mut left, acc);
                acc = left;
            }
            acc
        } else {
            let mut it = parts.into_iter();
            let mut acc = it.next().unwrap();
            for part in it {
                merge(&mut acc, part);
            }
            acc
        };
        if sealed >> ways & 1 != 0 {
            seal(&mut acc);
        }
        fold(&mut acc, last);
        acc
    }

    /// Every way of dealing, sealing and merging `fold_and_merge` has.
    fn merge_trees() -> impl Iterator<Item = (usize, usize, bool, u32)> {
        [(1, 1), (2, 1), (2, 7), (3, 1), (3, 4), (3, 50)].into_iter().flat_map(|(ways, run)| {
            [false, true].into_iter().flat_map(move |right_leaning| {
                (0..2u32 << ways).map(move |sealed| (ways, run, right_leaning, sealed))
            })
        })
    }

    #[test]
    fn daily_builders_finish_equal_for_any_arrival_order_and_merge_tree() {
        let ua = |b: &mut DailyDatasetBuilder, (day, a, hits): Rec| {
            b.record_hits(day, a, hits);
            if hits % 2 == 0 {
                b.record_ua(day, a, hits % 7); // few distinct hashes, many repeats
            }
        };
        let mut expect = DailyDatasetBuilder::new(12);
        for rec in block_major_records() {
            ua(&mut expect, rec);
        }
        let expect = expect.finish();
        assert_eq!(expect.blocks.len(), 4);
        for b in &expect.blocks {
            assert_eq!((b.ip_traffic.len(), b.ua_samples > 0), (5, true), "{}", b.block);
        }
        for (name, recs) in arrival_orders() {
            for (ways, run, right_leaning, sealed) in merge_trees() {
                let got = fold_and_merge(
                    &recs,
                    ways,
                    run,
                    right_leaning,
                    sealed,
                    || DailyDatasetBuilder::new(12),
                    ua,
                    DailyDatasetBuilder::seal,
                    |a, b| a.merge(b),
                );
                assert_eq!(got.medians_selected(), 0, "sealing is not publishing");
                assert_eq!(
                    got.finish(),
                    expect,
                    "{name}, {ways}-way, runs of {run}, sealed {sealed:#b}"
                );
            }
        }
    }

    #[test]
    fn weekly_builders_finish_equal_for_any_arrival_order_and_merge_tree() {
        let mut expect = WeeklyDatasetBuilder::new(12);
        for (w, a, hits) in block_major_records() {
            expect.record_week(w, a, hits);
        }
        let expect = expect.finish();
        assert_eq!(expect.blocks.len(), 4);
        for (name, recs) in arrival_orders() {
            for (ways, run, right_leaning, sealed) in merge_trees() {
                let got = fold_and_merge(
                    &recs,
                    ways,
                    run,
                    right_leaning,
                    sealed,
                    || WeeklyDatasetBuilder::new(12),
                    |b, (w, a, hits)| b.record_week(w, a, hits),
                    WeeklyDatasetBuilder::seal,
                    |a, b| a.merge(b),
                );
                assert_eq!(
                    got.finish(),
                    expect,
                    "{name}, {ways}-way, runs of {run}, sealed {sealed:#b}"
                );
            }
        }
    }

    #[test]
    fn snapshots_after_each_batch_equal_fresh_builds_in_any_arrival_order() {
        for (name, recs) in arrival_orders() {
            let mut live_daily = DailyDatasetBuilder::new(12);
            let mut live_weekly = WeeklyDatasetBuilder::new(12);
            for (batch, upto) in (0..=recs.len()).step_by(13).enumerate() {
                for &(slot, a, hits) in &recs[upto.saturating_sub(13)..upto] {
                    live_daily.record_hits(slot, a, hits);
                    live_weekly.record_week(slot, a, hits);
                }
                let mut fresh_daily = DailyDatasetBuilder::new(12);
                let mut fresh_weekly = WeeklyDatasetBuilder::new(12);
                // The fresh builders take the prefix backwards: another
                // order again, and one that starts on another block.
                for &(slot, a, hits) in recs[..upto].iter().rev() {
                    fresh_daily.record_hits(slot, a, hits);
                    fresh_weekly.record_week(slot, a, hits);
                }
                assert_eq!(live_daily.snapshot(), fresh_daily.finish(), "{name}, batch {batch}");
                assert_eq!(live_weekly.snapshot(), fresh_weekly.finish(), "{name}, batch {batch}");
            }
        }
    }

    #[test]
    fn an_address_slot_is_56_bytes_with_its_rank_window() {
        // Its samples, six ranked ones and their two counts. The host,
        // the active days and the total are not stored here: they are
        // the address's `ip_traffic` entry and row in the block's
        // record, which publishes them as they are.
        assert_eq!(std::mem::size_of::<IpAcc>(), 56);
        assert_eq!(std::mem::size_of::<IpTraffic>(), 16);
        assert_eq!(WINDOW, 6);
    }

    #[test]
    fn the_rank_window_refills_on_both_sides_and_never_selects_again() {
        // One address a day for 128 days: a spread start, a run far
        // below the median, a run far above it, then both by turns,
        // with samples tied to either end of the window and saturated
        // ones. After every add the median is read and checked against
        // selection; only the first read may select.
        let (mut ip, mut row, mut scratch) = (IpAcc::default(), DayBits::new(), Vec::new());
        let (mut selected, mut refilled) = (0, 0);
        let [mut below, mut above, mut low_ties, mut high_ties, mut saturated] = [0u64; 5];
        for day in 0..128usize {
            let (lo, held, n) = (ip.lo as usize, ip.held as usize, ip.hits.len());
            let (bottom, top) = (ip.win[0], ip.win[held.max(1) - 1]);
            let d = day as u32;
            let x = match day {
                0..20 => 1000 + d * 37 % 50,
                20..60 if day % 4 == 0 && lo > 0 => bottom,
                20..60 => d,
                60..110 if day % 4 == 0 && lo + held < n => top,
                60..110 if day % 5 == 0 => u32::MAX,
                60..110 => 2_000_000 + d,
                _ if day % 2 == 0 => 5,
                _ => u32::MAX,
            };
            low_ties += u64::from(held > 0 && lo > 0 && x == bottom);
            high_ties += u64::from(held > 0 && lo + held < n && x == top);
            saturated += u64::from(x == u32::MAX);
            ip.add(&mut row, day, x);
            let inside = (x >= bottom || lo == 0) && (x <= top || lo + held == n);
            if held == WINDOW && inside {
                // The end farther from the median went: the window the
                // add kept leaves it at least as far from either end as
                // the other would have.
                let mid = (n + 1) as isize / 2;
                let margin = |lo: usize| {
                    let lo = lo as isize;
                    (mid - lo).min(lo + WINDOW as isize - 1 - mid)
                };
                let kept = ip.lo as usize;
                assert!(kept == lo || kept == lo + 1, "day {day}: moved by more than one");
                let other = if kept == lo { lo + 1 } else { lo };
                assert!(margin(kept) >= margin(other), "day {day}: kept {kept}.., not {other}..");
            }
            if ip.held != 0 && ip.windowed().is_none() {
                let mid = ip.hits.len() / 2;
                *if mid < ip.lo as usize { &mut below } else { &mut above } += 1;
            }
            let mut copy = ip.hits.clone();
            let median = ip.median(&mut scratch, &mut selected, &mut refilled);
            assert_eq!(median, select_median(&mut copy), "day {day}");
            assert_eq!(selected, 1, "day {day}: a tracked address is never selected again");
        }
        assert_eq!(refilled, below + above);
        for (what, count) in [
            ("refills below", below),
            ("refills above", above),
            ("ties at the low end", low_ties),
            ("ties at the high end", high_ties),
            ("saturated samples", saturated),
        ] {
            assert!(count > 0, "the sequence has no {what}");
        }
    }

    #[test]
    fn ip_traffic_comes_out_in_host_order_without_a_sort() {
        let block = Block24::new(0x0A_0000);
        let hits = |h: u8| 1 + u64::from(h) % 7;
        let ascending = |ds: &DailyDataset, what: &str| {
            let hosts: Vec<u8> = ds.blocks[0].ip_traffic.iter().map(|t| t.host).collect();
            assert_eq!(hosts.len(), 256, "{what}");
            assert!(hosts.windows(2).all(|w| w[0] < w[1]), "{what}: {hosts:?}");
        };
        let descending: Vec<u8> = (0..=255).rev().collect();
        // 167 is odd, so this visits every host once, out of order.
        let scrambled: Vec<u8> = (0..=255u8).map(|i| i.wrapping_mul(167) ^ 0x5A).collect();
        for (name, hosts) in [("descending", &descending), ("scrambled", &scrambled)] {
            let mut b = DailyDatasetBuilder::new(3);
            for (i, &h) in hosts.iter().enumerate() {
                b.record_hits(i % 3, block.addr(h), hits(h));
            }
            ascending(&b.snapshot(), &format!("{name}, snapshot"));
            ascending(&b.finish(), &format!("{name}, finish"));
        }
        // Two builders take alternate hosts, each against host order,
        // are sealed and merged; the merge appends the other side's
        // hosts after its own.
        let (mut even, mut odd) = (DailyDatasetBuilder::new(3), DailyDatasetBuilder::new(3));
        for &h in &descending {
            let side = if h % 2 == 0 { &mut even } else { &mut odd };
            side.record_hits(usize::from(h) % 3, block.addr(h), hits(h));
        }
        even.seal();
        odd.seal();
        odd.merge(even);
        ascending(&odd.snapshot(), "sealed then merged, snapshot");
        ascending(&odd.finish(), "sealed then merged, finish");
    }

    /// Shapes of sample sequence `shaped_hits` knows.
    const SHAPES: u8 = 7;

    /// What a record of `raw` hits on `day` becomes under each shape
    /// of sample sequence the maintained median must get right.
    fn shaped_hits(shape: u8, day: usize, raw: u64) -> u64 {
        let day = day as u64;
        match shape {
            0 => raw,                           // 0..4: ties, and zero-hit records
            1 => 1 + day,                       // strictly rising by day
            2 => 200 - day,                     // strictly falling by day
            3 => 7,                             // every sample equal
            4 => u64::from(u32::MAX) - 1 + raw, // a second record saturates the day
            // Far below and far above the median by turns: each day's
            // sample lands beyond one end of the rank window.
            5 if day % 2 == 0 => 1 + raw,
            5 => 3_000_000_000 + raw,
            _ => 1 + (day * 2_654_435_761 + raw * 40_503) % 4_000_000_000, // wide, distinct
        }
    }

    /// A live builder checked against a fresh one over the same records.
    struct Live {
        builder: DailyDatasetBuilder,
        window: usize,
        fed: Vec<Rec>,
    }

    impl Live {
        /// Feeds `rec` to the live builder, or to `side` (a builder to
        /// be merged in later), widening both when the day is new.
        fn feed(&mut self, mut side: Option<&mut DailyDatasetBuilder>, rec: Rec) {
            if rec.0 >= self.window {
                self.window = rec.0 + 1;
                self.builder.grow(self.window);
                if let Some(side) = side.as_deref_mut() {
                    side.grow(self.window);
                }
            }
            side.unwrap_or(&mut self.builder).record_hits(rec.0, rec.1, rec.2);
            self.fed.push(rec);
        }

        fn fresh(&self) -> DailyDataset {
            let mut fresh = DailyDatasetBuilder::new(self.window);
            for &(day, a, hits) in &self.fed {
                fresh.record_hits(day, a, hits);
            }
            fresh.finish()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every snapshot of a live builder — medians read off rank
        /// windows, refills, untrack and reselect — `==` the `finish()`
        /// of a fresh builder fed the same records, which only ever
        /// selects.
        #[test]
        fn maintained_medians_equal_selection_at_every_snapshot(
            span in prop_oneof![Just(128usize), 1usize..=128],
            shape in 0..SHAPES,
            backwards in any::<bool>(),
            every in 1usize..48,
            ops in prop::collection::vec((0u8..10, 0usize..128, 0u8..3, 0u64..4), 0..160),
        ) {
            let host = |h: u8| Block24::new(0x0A_0000 + u32::from(h % 2)).addr(h);
            let mut live = Live { builder: DailyDatasetBuilder::new(0), window: 0, fed: Vec::new() };
            // One address takes every day of the span once, in day order
            // or against it, snapshotted as it goes: rising, falling and
            // all-equal runs up to the full 128 days, tracked throughout.
            for i in 0..span {
                let day = if backwards { span - 1 - i } else { i };
                live.feed(None, (day, host(0), shaped_hits(shape, day, 1 + (i as u64 % 3))));
                if i % every == 0 {
                    prop_assert_eq!(live.builder.snapshot(), live.fresh(), "day {} of the run", day);
                }
            }
            // Then anything: new days, days already present (a sample
            // changed in place), snapshots, and records that arrive
            // through the merge of another builder.
            let mut side: Option<(DailyDatasetBuilder, usize)> = None;
            for (kind, raw_day, h, raw) in ops {
                let day = raw_day % span;
                match (kind, &mut side) {
                    (0 | 1, None) => {
                        prop_assert_eq!(live.builder.snapshot(), live.fresh(), "{} records in", live.fed.len());
                    }
                    (2, None) => side = Some((DailyDatasetBuilder::new(live.window), 1 + day % 8)),
                    (_, None) => live.feed(None, (day, host(h), shaped_hits(shape, day, raw))),
                    (_, Some((other, left))) => {
                        live.feed(Some(other), (day, host(h), shaped_hits(shape, day, raw)));
                        *left -= 1;
                        if *left == 0 {
                            live.builder.merge(side.take().expect("matched").0);
                        }
                    }
                }
            }
            if let Some((other, _)) = side {
                live.builder.merge(other);
            }
            prop_assert_eq!(live.builder.snapshot(), live.fresh(), "last snapshot");
            live.feed(None, (span / 2, host(1), shaped_hits(shape, span / 2, 3)));
            let fresh = live.fresh();
            prop_assert_eq!(live.builder.finish(), fresh, "finish of the live builder");
        }

        /// Sealing changes no dataset. Four leaves take the records
        /// dealt to them, each sealed at any points of its fold and
        /// folded into again (a rank window moved or dropped, a
        /// sorted week reopened), then merged in any order, overlapping
        /// in blocks, addresses and days, with the partial merges
        /// sealed or not: `==` one unsealed builder fed everything.
        #[test]
        fn sealed_builders_finish_equal_to_one_unsealed_builder(
            span in prop_oneof![Just(128usize), 1usize..=128],
            shape in 0..SHAPES,
            recs in prop::collection::vec(
                (0usize..128, 0u8..6, 0u64..4, 0usize..4, 0u8..6),
                0..200,
            ),
            mut order in any::<u64>(),
        ) {
            let host = |h: u8| Block24::new(0x0A_0000 + u32::from(h % 2)).addr(h);
            let weeks = span.min(64);
            let new = || (DailyDatasetBuilder::new(span), WeeklyDatasetBuilder::new(weeks));
            let seal = |(daily, weekly): &mut (DailyDatasetBuilder, WeeklyDatasetBuilder)| {
                daily.seal();
                weekly.seal();
            };
            let (mut one, mut leaves) = (new(), vec![new(), new(), new(), new()]);
            for (raw_day, h, raw, leaf, then) in recs {
                let day = raw_day % span;
                let hits = shaped_hits(shape, day, raw);
                for (daily, weekly) in [&mut one, &mut leaves[leaf]] {
                    daily.record_hits(day, host(h), hits);
                    weekly.record_week(day % weeks, host(h), hits);
                }
                if then == 0 {
                    seal(&mut leaves[leaf]);
                }
            }
            while leaves.len() > 1 {
                let from = leaves.swap_remove(order as usize % leaves.len());
                let into = (order >> 2) as usize % leaves.len();
                leaves[into].0.merge(from.0);
                leaves[into].1.merge(from.1);
                if order >> 4 & 1 != 0 {
                    seal(&mut leaves[into]);
                }
                order >>= 5;
            }
            let (daily, weekly) = leaves.pop().expect("one builder left");
            prop_assert_eq!(daily.medians_selected(), 0, "sealing is not publishing");
            prop_assert_eq!(daily.finish(), one.0.finish());
            prop_assert_eq!(weekly.finish(), one.1.finish());
        }

        /// Builders of 1, 2, 3 and 8 shards take batches of whole days
        /// through `record_days` — batches land on any days, in any
        /// order, with repeated `(address, day)` records and zero-hit
        /// ones, and some batches go through `record_hits` instead, so
        /// both paths must find a block in the same shard — and one
        /// unsharded builder takes the same records one by one. At
        /// every snapshot their datasets and their selection and refill
        /// counts are equal, and so are their `finish()`es.
        #[test]
        fn sharded_record_days_equals_one_serial_builder(
            span in prop_oneof![Just(128usize), 1usize..=128],
            shape in 0..SHAPES,
            batches in prop::collection::vec(
                (
                    0usize..128,
                    1usize..9,
                    prop::collection::vec((0usize..9, 0u8..12, 0u64..4), 0..60),
                    any::<bool>(),
                    0u8..4,
                ),
                0..12,
            ),
        ) {
            // Two addresses in each of six blocks: enough records an
            // address to fill, move and refill its rank window.
            let addr = |a: u8| Block24::new(0x0A_0000 + u32::from(a % 6)).addr(a / 6);
            let mut serial = DailyDatasetBuilder::with_shards(span, 1);
            let mut sharded: Vec<DailyDatasetBuilder> =
                SHARDS.iter().map(|&n| DailyDatasetBuilder::with_shards(span, n)).collect();
            for (batch, (first, len, recs, snapshot, path)) in batches.into_iter().enumerate() {
                let first = first % span;
                let len = len.min(span - first);
                let mut days = vec![Vec::new(); len];
                for (offset, a, raw) in recs {
                    let day = first + offset % len;
                    days[offset % len].push((addr(a), shaped_hits(shape, day, raw)));
                }
                for (day, records) in (first..).zip(&days) {
                    for &(a, hits) in records {
                        serial.record_hits(day, a, hits);
                    }
                }
                for builder in &mut sharded {
                    if path == 0 {
                        for (day, records) in (first..).zip(&days) {
                            for &(a, hits) in records {
                                builder.record_hits(day, a, hits);
                            }
                        }
                    } else {
                        let days: Vec<&[(Addr, u64)]> = days.iter().map(|d| &d[..]).collect();
                        builder.record_days(first, &days, || ());
                    }
                }
                if snapshot {
                    let expect = serial.snapshot();
                    for (builder, shards) in sharded.iter_mut().zip(SHARDS) {
                        prop_assert_eq!(builder.snapshot(), expect.clone(), "{} shards, batch {}", shards, batch);
                        prop_assert_eq!(
                            (builder.medians_selected(), builder.median_refills()),
                            (serial.medians_selected(), serial.median_refills()),
                            "{} shards, batch {}", shards, batch
                        );
                    }
                }
            }
            let expect = serial.finish();
            for (builder, shards) in sharded.into_iter().zip(SHARDS) {
                prop_assert_eq!(builder.finish(), expect.clone(), "{} shards", shards);
            }
        }

        /// Leaves of 1, 2, 3 and 8 shards — whichever a record is dealt
        /// to — each sealed at any points of its fold, merged in any
        /// order into whichever leaf, the partial merges sealed or not:
        /// the last builder's snapshot and `finish()` equal one
        /// unsharded builder fed every record.
        #[test]
        fn sharded_builders_merge_and_seal_to_the_serial_dataset(
            span in prop_oneof![Just(128usize), 1usize..=128],
            shape in 0..SHAPES,
            recs in prop::collection::vec(
                (0usize..128, 0u8..24, 0u64..4, 0usize..4, 0u8..6),
                0..200,
            ),
            mut order in any::<u64>(),
        ) {
            let addr = |a: u8| Block24::new(0x0A_0000 + u32::from(a % 6)).addr(a / 6);
            let mut one = DailyDatasetBuilder::with_shards(span, 1);
            let mut leaves: Vec<DailyDatasetBuilder> =
                SHARDS.iter().map(|&n| DailyDatasetBuilder::with_shards(span, n)).collect();
            for (raw_day, a, raw, leaf, then) in recs {
                let day = raw_day % span;
                let hits = shaped_hits(shape, day, raw);
                one.record_hits(day, addr(a), hits);
                leaves[leaf].record_hits(day, addr(a), hits);
                if then == 0 {
                    leaves[leaf].seal();
                }
            }
            while leaves.len() > 1 {
                let from = leaves.swap_remove(order as usize % leaves.len());
                let into = (order >> 2) as usize % leaves.len();
                leaves[into].merge(from);
                if order >> 4 & 1 != 0 {
                    leaves[into].seal();
                }
                order >>= 5;
            }
            let mut last = leaves.pop().expect("one builder left");
            prop_assert_eq!(last.snapshot(), one.snapshot());
            prop_assert_eq!(last.finish(), one.finish());
        }
    }

    /// The counting rule a builder's snapshots keep, applied the long
    /// way: each address's samples in one map, and every address's
    /// median taken at every snapshot and every seal — what a builder
    /// that rebuilt each published block counted.
    #[derive(Default)]
    struct EveryAddress {
        ips: std::collections::BTreeMap<Addr, (DayBits, IpAcc)>,
        totals: std::collections::BTreeMap<Addr, u64>,
        /// Blocks a hit or a UA sample has named.
        blocks: std::collections::HashSet<Block24>,
    }

    impl EveryAddress {
        fn add(&mut self, day: usize, a: Addr, sample: u32) {
            self.blocks.insert(Block24::of(a));
            let (row, ip) = self.ips.entry(a).or_default();
            ip.add(row, day, sample);
        }

        fn record(&mut self, day: usize, a: Addr, hits: u64) {
            if hits != 0 {
                self.add(day, a, hits.min(u32::MAX as u64) as u32);
                let total = self.totals.entry(a).or_default();
                *total = total.saturating_add(hits);
            }
        }

        /// A block new here moves over with its accumulators as they
        /// are; the addresses of a block both hold take the other's
        /// samples day by day.
        fn merge(&mut self, other: EveryAddress) {
            let held = std::mem::take(&mut self.blocks);
            for (a, (row, ip)) in other.ips {
                if !held.contains(&Block24::of(a)) {
                    self.ips.insert(a, (row, ip));
                    continue;
                }
                for (day, sample) in row.iter().zip(ip.hits) {
                    self.add(day, a, sample);
                }
            }
            self.blocks.extend(held.into_iter().chain(other.blocks));
            for (a, hits) in other.totals {
                let total = self.totals.entry(a).or_default();
                *total = total.saturating_add(hits);
            }
        }

        /// Every address's published entry holds the model's day count,
        /// total and median, read off its own samples.
        fn check(&self, published: &DailyDataset) -> Result<(), TestCaseError> {
            let entries = published.ip_traffic().count();
            prop_assert_eq!(entries, self.ips.len(), "published addresses");
            for (&a, (row, ip)) in &self.ips {
                let block = published.block(Block24::of(a));
                let entry = block.and_then(|b| b.ip_traffic.iter().find(|t| t.host == a.host_index()));
                let got = entry.map(|t| (t.days_active, t.total_hits, t.median_daily_hits));
                let want = (row.count() as u8, self.totals[&a], ip.windowed().expect("just taken"));
                prop_assert_eq!(got, Some(want), "{}", a);
            }
            Ok(())
        }

        /// Takes every address's median: how many were selected, and
        /// how many refilled.
        fn medians(&mut self) -> (u64, u64) {
            let (mut scratch, mut selected, mut refilled) = (Vec::new(), 0, 0);
            for (_, ip) in self.ips.values_mut() {
                ip.median(&mut scratch, &mut selected, &mut refilled);
            }
            (selected, refilled)
        }
    }

    /// A record as a builder took it.
    #[derive(Debug, Clone, Copy)]
    enum Fed {
        Hits(usize, Addr, u64),
        Ua(usize, Addr, u64),
    }

    /// A builder beside its [`EveryAddress`] model, the records it took
    /// and the counts the model's snapshots made.
    struct Modelled {
        builder: DailyDatasetBuilder,
        model: EveryAddress,
        fed: Vec<Fed>,
        counts: (u64, u64),
    }

    impl Modelled {
        fn new(span: usize, shards: usize) -> Self {
            let builder = DailyDatasetBuilder::with_shards(span, shards);
            Modelled { builder, model: EveryAddress::default(), fed: Vec::new(), counts: (0, 0) }
        }

        fn hits(&mut self, day: usize, a: Addr, hits: u64) {
            self.builder.record_hits(day, a, hits);
            self.model.record(day, a, hits);
            self.fed.push(Fed::Hits(day, a, hits));
        }

        fn ua(&mut self, day: usize, a: Addr, hash: u64) {
            self.builder.record_ua(day, a, hash);
            self.model.blocks.insert(Block24::of(a));
            self.fed.push(Fed::Ua(day, a, hash));
        }

        /// `days[i]` through `record_days`, as day `first + i`; the
        /// model takes the records day by day, as every share folds.
        fn days(&mut self, first: usize, days: &[Vec<(Addr, u64)>]) -> Option<UnitHistograms> {
            let batch: Vec<&[(Addr, u64)]> = days.iter().map(|d| &d[..]).collect();
            let counted = self.builder.record_days(first, &batch, || ());
            for (day, records) in (first..).zip(days) {
                for &(a, hits) in records {
                    self.model.record(day, a, hits);
                    self.fed.push(Fed::Hits(day, a, hits));
                }
            }
            counted
        }

        fn seal(&mut self) {
            self.builder.seal();
            self.model.medians();
        }

        fn merge(&mut self, other: Modelled) {
            self.builder.merge(other.builder);
            self.model.merge(other.model);
            self.fed.extend(other.fed);
        }

        /// The builder's snapshot, after checking it against a fresh
        /// build and its counts against the model's.
        fn snapshot(&mut self, span: usize) -> Result<DailyDataset, TestCaseError> {
            let got = self.builder.snapshot();
            let (selected, refilled) = self.model.medians();
            self.counts = (self.counts.0 + selected, self.counts.1 + refilled);
            prop_assert_eq!(&got, &fresh_build(span, &self.fed), "{} records in", self.fed.len());
            self.model.check(&got)?;
            let counts = (self.builder.medians_selected(), self.builder.median_refills());
            prop_assert_eq!(counts, self.counts, "selections and refills");
            Ok(got)
        }
    }

    /// A fresh serial builder's `finish()` over `fed`.
    fn fresh_build(span: usize, fed: &[Fed]) -> DailyDataset {
        let mut fresh = DailyDatasetBuilder::with_shards(span, 1);
        for &rec in fed {
            match rec {
                Fed::Hits(day, a, hits) => fresh.record_hits(day, a, hits),
                Fed::Ua(day, a, hash) => fresh.record_ua(day, a, hash),
            }
        }
        fresh.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A live builder's published form — rows, day counts, totals
        /// and medians brought up to date as records fold, stale
        /// medians refreshed and blocks copied at a snapshot — `==` a
        /// fresh serial builder's `finish()` over the same records at
        /// every snapshot, and so does its own `finish()`; its
        /// selection and refill counts are those of a builder that
        /// takes every address's median at every snapshot. Records come
        /// in order (each on its address's latest day or after it) or in
        /// any order, repeat `(address, day)` pairs, carry zero hits,
        /// sample UAs in a block without hits, and reach the builder
        /// through `record_hits`, `record_ua`, `record_days` and the
        /// merge of sealed or unsealed partial builders, at 1, 2, 3 and
        /// 8 shards.
        #[test]
        fn the_published_form_equals_a_fresh_build_at_every_snapshot(
            span in prop_oneof![Just(128usize), 1usize..=128],
            shape in 0..SHAPES,
            in_order in any::<bool>(),
            shards in 0usize..4,
            ops in prop::collection::vec(
                (0u8..12, 0usize..128, 0u8..30, 0u64..4, 0usize..4),
                0..100,
            ),
        ) {
            // Four addresses in each of six blocks take hits; hosts of a
            // seventh block only ever sample UAs.
            let hit = |a: u8| Block24::new(0x0A_0000 + u32::from(a % 6)).addr(a % 24 / 6);
            let ua = |a: u8| if a >= 24 { Block24::new(0x0A_0100).addr(a) } else { hit(a) };
            let mut live = Modelled::new(span, SHARDS[shards]);
            let mut side: Option<Modelled> = None;
            let mut today = 0;
            for (kind, raw_day, a, raw, leaf) in ops {
                let day = if in_order {
                    today = (today + raw_day % 2).min(span - 1);
                    today
                } else {
                    raw_day % span
                };
                let target = side.as_mut().unwrap_or(&mut live);
                match kind {
                    0 => {
                        live.snapshot(span)?;
                    }
                    1 => {
                        let len = (1 + raw as usize % 3).min(span - day);
                        let mut days = vec![Vec::new(); len];
                        for i in 0..1 + usize::from(a % 7) {
                            let offset = i % len;
                            let hits = shaped_hits(shape, day + offset, (raw + i as u64) % 4);
                            days[offset].push((hit(a.wrapping_add(5 * i as u8)), hits));
                        }
                        if in_order {
                            today = day + len - 1;
                        }
                        live.days(day, &days);
                    }
                    2 => target.ua(day, ua(a), raw + u64::from(a % 3)),
                    3 => match side.take() {
                        None => side = Some(Modelled::new(span, SHARDS[leaf])),
                        Some(other) => live.merge(other),
                    },
                    4 => target.seal(),
                    _ => target.hits(day, hit(a), shaped_hits(shape, day, raw)),
                }
            }
            if let Some(other) = side {
                live.merge(other);
            }
            live.snapshot(span)?;
            let fresh = fresh_build(span, &live.fed);
            prop_assert_eq!(live.builder.finish(), fresh, "finish of the live builder");
        }

        /// Whenever `record_days` hands back histograms, the census
        /// they extend equals one counted from a snapshot's rows, and
        /// it hands them back for every batch that starts after the
        /// days the builder holds. A batch that starts on or before one
        /// of them — behind a later `record_hits` record, or anywhere
        /// in the window — hands back none, and the census is counted
        /// from the rows. Batches go through 1, 2, 3 and 8 shards, with
        /// repeated `(address, day)` records and zero-hit ones.
        #[test]
        fn fold_counted_census_columns_equal_a_count_of_the_rows(
            shape in 0..SHAPES,
            shards in 0usize..4,
            batches in prop::collection::vec(
                (
                    0u8..4,
                    0usize..128,
                    1usize..6,
                    prop::collection::vec((0usize..6, 0u8..24, 0u64..4), 0..40),
                ),
                0..14,
            ),
        ) {
            let addr = |a: u8| Block24::new(0x0A_0000 + u32::from(a % 6)).addr(a / 6);
            let mut live = DailyDatasetBuilder::with_shards(0, SHARDS[shards]);
            let mut census = WindowCensus::<crate::Daily>::new();
            // One past the latest day a record named or a batch covered.
            let (mut window, mut held) = (0, 0);
            for (batch, (kind, raw_first, len, recs)) in batches.into_iter().enumerate() {
                // At the end of the window, or anywhere in it.
                let first = if kind < 2 { window } else { raw_first % (window + 1) };
                let end = (first + len).min(128);
                if end == first {
                    continue;
                }
                window = window.max(end);
                live.grow(window);
                let mut days = vec![Vec::new(); end - first];
                for (offset, a, raw) in recs {
                    let offset = offset % (end - first);
                    days[offset].push((addr(a), shaped_hits(shape, first + offset, raw)));
                }
                let counted = if kind == 3 {
                    // A record past the batch's first day, then the batch.
                    let late = (first + 1).min(end - 1);
                    live.record_hits(late, addr(0), 1);
                    held = held.max(late + 1);
                    None
                } else {
                    Some(held <= first)
                };
                let batch_days: Vec<&[(Addr, u64)]> = days.iter().map(|d| &d[..]).collect();
                let hist = live.record_days(first, &batch_days, || ());
                held = end.max(held);
                let rows = WindowCensus::of(&live.snapshot());
                prop_assert_eq!(hist.is_some(), counted.unwrap_or(false), "batch {}", batch);
                census = match hist {
                    Some(hist) => {
                        prop_assert_eq!(hist.units(), first..end);
                        census.appended(&hist)
                    }
                    None => rows.clone(),
                };
                prop_assert_eq!(&census, &rows, "batch {} of days {}..{}", batch, first, end);
            }
        }
    }

    /// Shard counts the sharded-builder properties run at.
    const SHARDS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    #[should_panic(expected = "window exceeds 128 days")]
    fn growing_past_the_day_matrix_panics() {
        DailyDatasetBuilder::new(128).grow(129);
    }

    #[test]
    fn weekly_builder_merge_combines_overlapping_blocks() {
        let mut reference = WeeklyDatasetBuilder::new(8);
        reference.record_week(0, addr("10.0.0.1"), 100);
        reference.record_week(3, addr("10.0.0.1"), 50);
        reference.record_week(3, addr("10.0.2.7"), 5);
        reference.record_week(7, addr("10.0.2.7"), 9);
        let expect = reference.finish();

        // Builder-level merge with overlapping blocks.
        let mut a = WeeklyDatasetBuilder::new(8);
        let mut b = WeeklyDatasetBuilder::new(8);
        a.record_week(0, addr("10.0.0.1"), 100);
        b.record_week(3, addr("10.0.0.1"), 50);
        b.record_week(3, addr("10.0.2.7"), 5);
        a.record_week(7, addr("10.0.2.7"), 9);
        a.merge(b);
        assert_eq!(a.finish(), expect);
    }

    #[test]
    fn coverage_is_provenance_not_data() {
        let clean = tiny_daily();
        let mut annotated = clean.clone();
        annotated.coverage = Some(Coverage::from_shard_fractions(&[0.5], 7));
        // Equality must ignore provenance: same observations, same dataset.
        assert_eq!(clean, annotated);
        assert!(clean.coverage.is_none());
        assert_eq!(annotated.coverage.as_ref().unwrap().shard(0), 0.5);
    }

    #[test]
    fn empty_windows_materialize_without_chunks() {
        use ipactive_net::TieredSet;
        // A day/window with no activity must round-trip to a genuinely
        // empty tiered set: no chunks, no dense bitmaps, near-zero heap.
        let mut b = DailyDatasetBuilder::new(7);
        b.record_hits(0, addr("10.0.0.1"), 5);
        b.record_hits(6, addr("10.0.1.9"), 1);
        let ds = b.finish();
        let empty: TieredSet = ds.window(2..5); // quiet mid-window
        assert!(empty.is_empty());
        assert_eq!(empty.num_chunks(), 0);
        assert_eq!(empty.repr_census().total(), 0);
        assert_eq!(empty.memory_bytes(), core::mem::size_of::<TieredSet>());

        let mut b = WeeklyDatasetBuilder::new(8);
        b.record_week(0, addr("10.0.0.1"), 3);
        let ws = b.finish();
        let empty: TieredSet = ws.window(2..8);
        assert!(empty.is_empty());
        assert_eq!(empty.num_chunks(), 0);
    }

    #[test]
    fn single_address_day_round_trips_as_one_sparse_chunk() {
        use ipactive_net::TieredSet;
        let ds = tiny_daily();
        // Day 3 activates exactly {10.0.0.2, 10.0.1.9}: two blocks, one
        // address each — two sparse chunks, not two 256-bit bitmaps.
        let d3: TieredSet = ds.unit(3);
        assert_eq!(d3.len(), 2);
        assert_eq!(d3.num_chunks(), 2);
        let census = d3.repr_census();
        assert_eq!(census.sparse, 2);
        assert_eq!(census.dense, 0);
        assert!(d3.contains(addr("10.0.1.9")));
        // Round-trip against the reference backend.
        let oracle: AddrSet = ds.unit(3);
        assert!(d3.iter().eq(oracle.iter()));
        // Heap cost stays proportional to membership, far below the
        // 2 × 256-entry worst case a counting pre-pass would reserve.
        assert!(d3.memory_bytes() < 256, "memory {}", d3.memory_bytes());
    }

    /// Host/day pairs on both sides of every tile edge: hosts 0, 63,
    /// 64 and 255, days 63 and 64 (the two day halves), the last day
    /// of a 112-day window and the last of a 128-day one.
    const TILE_EDGES: [(u8, usize); 8] =
        [(0, 0), (63, 63), (64, 64), (255, 111), (0, 127), (63, 64), (64, 63), (255, 0)];

    #[test]
    fn bulk_day_sets_match_per_day_builds() {
        use ipactive_net::TieredSet;
        let mut edges = DailyDatasetBuilder::new(128);
        for (i, &(host, day)) in TILE_EDGES.iter().enumerate() {
            edges.record_hits(day, Block24::new(0x0A_0000).addr(host), 1);
            edges.record_hits(day, Block24::new(0x0A_0002 + i as u32 % 2).addr(host), 1);
        }
        edges.record_hits(111, addr("10.0.9.128"), 1);
        for ds in [tiny_daily(), edges.finish()] {
            let bulk_ref: Vec<AddrSet> = ds.day_sets_all();
            let bulk_tiered: Vec<TieredSet> = ds.day_sets_all();
            assert_eq!(bulk_ref.len(), ds.num_days);
            for d in 0..ds.num_days {
                assert_eq!(bulk_ref[d], ds.unit::<AddrSet>(d), "day {d}");
                assert_eq!(bulk_tiered[d], ds.unit::<TieredSet>(d), "day {d}");
            }
        }

        // Including a dataset with quiet days and an empty one.
        let empty = DailyDatasetBuilder::new(3).finish();
        assert_eq!(empty.day_sets_all::<AddrSet>(), vec![AddrSet::empty(); 3]);
    }

    #[test]
    fn bulk_week_sets_match_per_week_builds() {
        use ipactive_net::TieredSet;
        let mut b = WeeklyDatasetBuilder::new(52);
        b.record_week(0, addr("10.0.0.1"), 100);
        b.record_week(51, addr("10.0.0.1"), 100);
        b.record_week(10, addr("10.0.2.7"), 5);
        b.record_week(10, addr("10.0.0.200"), 2);
        let mut edges = WeeklyDatasetBuilder::new(64);
        for &(host, day) in &TILE_EDGES {
            edges.record_week(day % 64, Block24::new(0x0A_0000).addr(host), 1);
        }
        edges.record_week(63, addr("10.0.5.0"), 1);
        for ds in [b.finish(), edges.finish()] {
            let bulk_ref: Vec<AddrSet> = ds.units_all();
            let bulk_tiered: Vec<TieredSet> = ds.units_all();
            assert_eq!(bulk_ref.len(), ds.num_weeks);
            for w in 0..ds.num_weeks {
                assert_eq!(bulk_ref[w], ds.unit::<AddrSet>(w), "week {w}");
                assert_eq!(bulk_tiered[w], ds.unit::<TieredSet>(w), "week {w}");
            }
        }
    }

    /// Bit `c` of row `r` moved to bit `r` of row `c`, one bit at a time.
    fn transpose_bitwise(m: &[u64; 64]) -> [u64; 64] {
        let mut t = [0u64; 64];
        for (r, &row) in m.iter().enumerate() {
            for (c, out) in t.iter_mut().enumerate() {
                *out |= (row >> c & 1) << r;
            }
        }
        t
    }

    #[test]
    fn transpose64_equals_the_bitwise_transpose() {
        let identity: [u64; 64] = std::array::from_fn(|r| 1u64 << r);
        let mut fixed = vec![[0u64; 64], [u64::MAX; 64], identity];
        for (r, c) in [(0, 0), (0, 63), (63, 0), (63, 63)] {
            let mut corner = [0u64; 64];
            corner[r] = 1u64 << c;
            fixed.push(corner);
        }
        let mut x = 0x2016_0316_u64;
        let random = (0..64).map(|_| {
            std::array::from_fn(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x ^ x >> 29
            })
        });
        for m in fixed.into_iter().chain(random) {
            let mut t = m;
            transpose64(&mut t);
            assert_eq!(t, transpose_bitwise(&m), "{m:x?}");
            transpose64(&mut t);
            assert_eq!(t, m, "a transpose is its own inverse");
        }
    }
}
