//! One activity matrix, read at two cadences.
//!
//! The paper reads per-address activity at two granularities — 112
//! days (the daily dataset) and 52 weeks (the weekly one) — and every
//! question it asks of either is a union over a window of units
//! (Section 4.1). [`Cadence`] names the granularity, [`Daily`] or
//! [`Weekly`], and carries what differs between the two: the dataset
//! type, the days one unit spans and the word trace text prints for
//! the units. Everything above it is one body generic over it:
//!
//! * [`SlotMatrix`] is the dataset side: 256 rows of slot bits per
//!   active `/24` (a [`DayBits`], 128 bits, for days; a `u64` for
//!   weeks) and the four set materializations read off them.
//! * [`Windows`] is the query side: a source of window unions, which a
//!   dataset answers fresh and an [`AnalysisCtx`] answers memoized
//!   through [`AnalysisCtx::windows`]. An analysis that only makes
//!   sense over days takes `W: Windows<Cadence = Daily>`.

use crate::engine::{AnalysisCtx, WindowCache};
use crate::{DailyDataset, WeeklyDataset};
use ipactive_net::{ActiveSet, AddrBits256, AddrSet, Block24, DayBits, SetBuilder};
use std::ops::Range;
use std::sync::Arc;

/// The granularity an activity matrix is read at. [`Daily`] and
/// [`Weekly`] are its only implementations.
pub trait Cadence: sealed::Sealed + Copy + Send + Sync + 'static {
    /// The dataset a log at this cadence finishes into.
    type Dataset: SlotMatrix<Cadence = Self> + PartialEq + std::fmt::Debug + Send + Sync;
    /// Days one unit spans: 1 for a day, 7 for a week.
    const DAYS_PER_UNIT: usize;
    /// What trace text calls the units: `"days"` or `"weeks"`.
    const UNITS: &'static str;

    /// This cadence's window cache in `ctx`, which
    /// [`AnalysisCtx::windows`] hands out.
    fn windows<S: ActiveSet>(ctx: &AnalysisCtx<S>) -> &WindowCache<S, Self>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Daily {}
    impl Sealed for super::Weekly {}
}

/// The daily cadence: per-address activity over 112 days.
#[derive(Debug, Clone, Copy)]
pub struct Daily;

/// The weekly cadence: per-address activity over 52 weeks.
#[derive(Debug, Clone, Copy)]
pub struct Weekly;

impl Cadence for Daily {
    type Dataset = DailyDataset;
    const DAYS_PER_UNIT: usize = 1;
    const UNITS: &'static str = "days";

    fn windows<S: ActiveSet>(ctx: &AnalysisCtx<S>) -> &WindowCache<S, Daily> {
        &ctx.days
    }
}

impl Cadence for Weekly {
    type Dataset = WeeklyDataset;
    const DAYS_PER_UNIT: usize = 7;
    const UNITS: &'static str = "weeks";

    fn windows<S: ActiveSet>(ctx: &AnalysisCtx<S>) -> &WindowCache<S, Weekly> {
        &ctx.weeks
    }
}

/// One address's row of a [`SlotMatrix`]: bit `u` is set iff the
/// address was active in unit `u`.
pub trait SlotRow: Copy {
    /// The row with exactly the bits of `units` set — none for an
    /// empty or reversed range. `units.end` is at most the row width.
    fn span(units: Range<usize>) -> Self;
    /// Whether the row shares a bit with `mask`.
    fn meets(self, mask: Self) -> bool;
    /// Bits `64 * half..64 * half + 64` as one word.
    fn word(self, half: usize) -> u64;
}

impl SlotRow for u64 {
    fn span(units: Range<usize>) -> u64 {
        if units.start >= units.end {
            return 0;
        }
        (u64::MAX >> (64 - units.len())) << units.start
    }

    fn meets(self, mask: u64) -> bool {
        self & mask != 0
    }

    fn word(self, _half: usize) -> u64 {
        self
    }
}

impl SlotRow for DayBits {
    fn span(units: Range<usize>) -> DayBits {
        if units.start >= units.end {
            return DayBits::new();
        }
        DayBits::from_bits((u128::MAX >> (128 - units.len())) << units.start)
    }

    fn meets(self, mask: DayBits) -> bool {
        self.bits() & mask.bits() != 0
    }

    fn word(self, half: usize) -> u64 {
        (self.bits() >> (64 * half)) as u64
    }
}

/// An activity matrix: per active `/24`, in ascending block order, 256
/// rows of slot bits, one row per host and one slot per unit. Both
/// datasets are one; every set either hands out is read off the rows
/// by the four provided methods, whatever the row width.
pub trait SlotMatrix {
    /// The cadence whose units the slots are.
    type Cadence: Cadence;
    /// One host's slot bits.
    type Row: SlotRow;

    /// Units (days or weeks) the matrix spans.
    fn num_slots(&self) -> usize;

    /// Every active `/24` with its rows, in ascending block order.
    fn rows(&self) -> impl Iterator<Item = (Block24, &[Self::Row; 256])>;

    /// The set active in unit `u`.
    fn unit<S: ActiveSet>(&self, u: usize) -> S {
        assert!(u < self.num_slots(), "unit {u} outside the matrix");
        masked_union(self, Self::Row::span(u..u + 1))
    }

    /// The union over `units` (a "window" in the Section 4.1 sense),
    /// computed fresh from the rows: empty for an empty or reversed
    /// range.
    ///
    /// Each block's rows stream into the backend's [`SetBuilder`], so
    /// there is no counting pre-pass and nothing is allocated for an
    /// inactive block — an empty window yields a genuinely empty set.
    fn window<S: ActiveSet>(&self, units: Range<usize>) -> S {
        assert!(units.end <= self.num_slots(), "window outside dataset");
        masked_union(self, Self::Row::span(units))
    }

    /// Every unit's set in one transposed pass: instead of one scan of
    /// all 256 rows per unit, each block's rows are transposed as 64 ×
    /// 64 bit tiles (four host groups, times two 64-day halves for a
    /// day matrix that has a second), which leaves every unit's block
    /// bitmap as four words to push. Element `u` equals `unit(u)`.
    fn units_all<S: ActiveSet>(&self) -> Vec<S> {
        let mut builders: Vec<S::Builder> =
            (0..self.num_slots()).map(|_| <S::Builder>::new()).collect();
        for (block, rows) in self.rows() {
            for (half, builders) in builders.chunks_mut(64).enumerate() {
                push_transposed(block, |i| rows[i].word(half), builders);
            }
        }
        builders.into_iter().map(|b| b.finish()).collect()
    }

    /// All addresses active in any unit.
    fn all_active<S: ActiveSet>(&self) -> S {
        self.window(0..self.num_slots())
    }
}

/// Streams every address whose row meets `mask` into the backend's
/// builder, block by block. The per-row test is branch-free, so a
/// block's 256-row scan reduces to and/or chains the compiler can
/// unroll and vectorize.
fn masked_union<M: SlotMatrix + ?Sized, S: ActiveSet>(matrix: &M, mask: M::Row) -> S {
    let mut b = <S::Builder>::new();
    for (block, rows) in matrix.rows() {
        let mut words = [0u64; 4];
        for (i, row) in rows.iter().enumerate() {
            words[i >> 6] |= (row.meets(mask) as u64) << (i & 63);
        }
        b.push_block(block, &AddrBits256::from_words(words));
    }
    b.finish()
}

/// Transposes a 64 × 64 bit matrix in place: bit `c` of `m[r]` moves
/// to bit `r` of `m[c]`. Each of the six rounds swaps the off-diagonal
/// quarters of every `2j × 2j` sub-block (`j` = 32, 16, …, 1) with one
/// shift-xor-mask step per row pair, so a tile costs 192 such steps
/// whatever its density.
pub(crate) fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFF_u64;
    while j != 0 {
        for k in 0..64 {
            if k & j == 0 {
                let t = ((m[k] >> j) ^ m[k + j]) & mask;
                m[k] ^= t << j;
                m[k + j] ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Pushes one block into per-slot set builders: `row(i)` is host `i`'s
/// 64 slot bits (days or weeks), `builders[s]` slot `s`'s builder. The
/// four 64-host tiles are transposed, so word `s` of tile `g` holds
/// hosts `64g..64g + 64` in slot `s`, and every slot any host is
/// active in gets its four words pushed. An all-zero tile is left as
/// it is: its transpose is itself.
fn push_transposed<B: SetBuilder>(block: Block24, row: impl Fn(usize) -> u64, builders: &mut [B]) {
    let mut tiles = [[0u64; 64]; 4];
    let mut touched = 0u64;
    for (g, tile) in tiles.iter_mut().enumerate() {
        let mut any = 0u64;
        for (r, word) in tile.iter_mut().enumerate() {
            *word = row(64 * g + r);
            any |= *word;
        }
        if any != 0 {
            transpose64(tile);
        }
        touched |= any;
    }
    while touched != 0 {
        let s = touched.trailing_zeros() as usize;
        touched &= touched - 1;
        let words = [tiles[0][s], tiles[1][s], tiles[2][s], tiles[3][s]];
        builders[s].push_block(block, &AddrBits256::from_words(words));
    }
}

/// A source of window unions over one cadence's units.
///
/// Every figure and table of the paper is, at its core, a set query
/// over an activity matrix (Section 4.1's sliding windows). The
/// analyses that consume whole-window unions ([`crate::events`],
/// [`crate::churn`]) are generic over this trait, so a caller can hand
/// them a *memoized* source — [`AnalysisCtx::windows`], which computes
/// each distinct window once and shares the `Arc` across figures —
/// without the analysis code knowing about caching. A dataset is one
/// too, computing every union fresh (the uncached baseline).
pub trait Windows {
    /// The cadence whose units the windows span.
    type Cadence: Cadence;
    /// The set backend unions materialize into.
    type Set: ActiveSet;
    /// Units (days or weeks) in the source's window.
    fn num_units(&self) -> usize;
    /// Union of the addresses active in `units`.
    fn union(&self, units: Range<usize>) -> Arc<Self::Set>;
}

impl<M: SlotMatrix> Windows for M {
    type Cadence = M::Cadence;
    type Set = AddrSet;

    fn num_units(&self) -> usize {
        self.num_slots()
    }

    fn union(&self, units: Range<usize>) -> Arc<AddrSet> {
        Arc::new(self.window(units))
    }
}

impl SlotMatrix for DailyDataset {
    type Cadence = Daily;
    type Row = DayBits;

    fn num_slots(&self) -> usize {
        self.num_days
    }

    fn rows(&self) -> impl Iterator<Item = (Block24, &[DayBits; 256])> {
        self.blocks.iter().map(|r| (r.block, &*r.rows))
    }
}

impl SlotMatrix for WeeklyDataset {
    type Cadence = Weekly;
    type Row = u64;

    fn num_slots(&self) -> usize {
        self.num_weeks
    }

    fn rows(&self) -> impl Iterator<Item = (Block24, &[u64; 256])> {
        self.blocks.iter().map(|(block, rows)| (*block, &**rows))
    }
}
