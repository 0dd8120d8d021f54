//! Window counts without window sets.
//!
//! The serving question of Section 4.1 is a count — how many addresses
//! were active somewhere in a window of days or weeks — and a union set
//! is only one way to reach it. [`WindowCensus`] holds the answer for
//! every window of one cadence's units: `count(s..e)` is read off a
//! table, so a window costs one lookup however long it is and whether
//! or not anyone asked for it before.
//!
//! The table is a triangle of `u32` columns, column `e - 1` holding
//! `count(s..e)` for every `s < e`. Units only ever append, and adding
//! unit `u` leaves every earlier column as it was, so a census extends
//! by appending columns and shares the old ones by `Arc`. An address
//! active on `u` whose last earlier active unit is `p` (or which has
//! none) is new to exactly the windows `s..u + 1` with `s > p`, so
//! column `u` is column `u - 1` plus the prefix sums of one histogram
//! over `p`. Adding several units is still one pass over the rows: each
//! row gives each of its new active units the unit before it.

use crate::cadence::{Cadence, SlotMatrix, SlotRow};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// The number of addresses active in some unit of every window of
/// `C`'s units. See the module docs.
pub struct WindowCensus<C: Cadence> {
    /// `cols[e - 1][s]` is `count(s..e)`; column `e - 1` has `e` entries.
    cols: Vec<Arc<[u32]>>,
    cadence: PhantomData<C>,
}

impl<C: Cadence> WindowCensus<C> {
    /// The census of no units.
    pub fn new() -> Self {
        WindowCensus { cols: Vec::new(), cadence: PhantomData }
    }

    /// The census of every unit of `matrix`, in one pass over its rows.
    pub fn of<M: SlotMatrix<Cadence = C>>(matrix: &M) -> Self {
        Self::new().extended(matrix)
    }

    /// Units counted.
    pub fn num_units(&self) -> usize {
        self.cols.len()
    }

    /// Addresses active in some unit of `units`: 0 for an empty or
    /// reversed range.
    ///
    /// # Panics
    /// If a non-empty range ends past [`Self::num_units`].
    pub fn count(&self, units: Range<usize>) -> u64 {
        if units.start >= units.end {
            return 0;
        }
        assert!(units.end <= self.num_units(), "window {units:?} outside the census");
        u64::from(self.cols[units.end - 1][units.start])
    }

    /// This census grown to every unit of `matrix`, which must hold the
    /// units counted here unchanged and may add more after them. The
    /// columns counted already are shared, not copied; the new ones
    /// cost one pass over the rows and a histogram per new unit.
    ///
    /// # Panics
    /// If `matrix` has fewer units than this census.
    pub fn extended<M: SlotMatrix<Cadence = C>>(&self, matrix: &M) -> Self {
        let (first, end) = (self.num_units(), matrix.num_slots());
        assert!(first <= end, "a census only grows ({first} units, matrix of {end})");
        assert!(end <= 128, "a row holds at most 128 units");
        let mut cols = self.cols.clone();
        if first == end {
            return WindowCensus { cols, cadence: PhantomData };
        }
        // `hist[(u - first) * end + q]`: addresses active on unit `u`
        // whose last active unit before it is `q - 1` (`q = 0`: none).
        let mut hist = vec![0u32; (end - first) * end];
        let halves = end.div_ceil(64);
        let new = (u128::MAX >> (128 - (end - first))) << first;
        for (_, rows) in matrix.rows() {
            for row in rows {
                let bits = (0..halves).fold(0u128, |b, h| b | u128::from(row.word(h)) << (64 * h));
                let mut fresh = bits & new;
                while fresh != 0 {
                    let u = fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    let before = bits & ((1u128 << u) - 1);
                    let q = (u128::BITS - before.leading_zeros()) as usize;
                    hist[(u - first) * end + q] += 1;
                }
            }
        }
        for (u, hist) in (first..end).zip(hist.chunks_exact(end)) {
            let prev: &[u32] = cols.last().map_or(&[], |c| c);
            let mut new_here = 0u32;
            let col: Arc<[u32]> = (0..=u)
                .map(|s| {
                    new_here += hist[s];
                    prev.get(s).copied().unwrap_or(0) + new_here
                })
                .collect();
            cols.push(col);
        }
        WindowCensus { cols, cadence: PhantomData }
    }
}

impl<C: Cadence> Default for WindowCensus<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Cadence> Clone for WindowCensus<C> {
    fn clone(&self) -> Self {
        WindowCensus { cols: self.cols.clone(), cadence: PhantomData }
    }
}

impl<C: Cadence> PartialEq for WindowCensus<C> {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols
    }
}

impl<C: Cadence> fmt::Debug for WindowCensus<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowCensus").field("units", &C::UNITS).field("cols", &self.cols).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Daily, DailyDatasetBuilder, Weekly, WeeklyDatasetBuilder};
    use ipactive_net::{Addr, AddrSet};

    /// Every window's count against the matrix's own union.
    fn assert_counts<M: SlotMatrix>(census: &WindowCensus<M::Cadence>, matrix: &M) {
        let n = matrix.num_slots();
        assert_eq!(census.num_units(), n);
        for e in 0..=n {
            for s in 0..=e {
                let want = matrix.window::<AddrSet>(s..e).len() as u64;
                assert_eq!(census.count(s..e), want, "window {s}..{e}");
            }
        }
    }

    /// Host `h` of one block is active on every unit `u` with
    /// `(u + 1) % (h + 1) == 0`, plus unit 0 for odd hosts and the last
    /// unit of each 64-unit word for hosts divisible by three: gaps of
    /// every length, rows that start and end at both edges of a word.
    fn active(h: u32, u: usize) -> bool {
        (u + 1) % (h as usize + 1) == 0 || (u == 0 && h % 2 == 1) || (u % 64 == 63 && h % 3 == 0)
    }

    /// Records day `d` of the pattern into `b`.
    fn record_day(b: &mut DailyDatasetBuilder, d: usize) {
        for h in (0..40).filter(|&h| active(h, d)) {
            b.record_hits(d, Addr::new(0x0A00_0000 | h), 1);
        }
    }

    /// The first `num_days` days of the pattern.
    fn days(num_days: usize) -> DailyDatasetBuilder {
        let mut b = DailyDatasetBuilder::new(num_days);
        for d in 0..num_days {
            record_day(&mut b, d);
        }
        b
    }

    #[test]
    fn the_empty_census_counts_only_empty_windows() {
        let census = WindowCensus::<Daily>::new();
        assert_eq!(census.num_units(), 0);
        assert_eq!(census.count(0..0), 0);
        assert_eq!(census.count(Range { start: 5, end: 2 }), 0, "reversed");
        let empty = WindowCensus::of(&DailyDatasetBuilder::new(0).finish());
        assert_eq!(empty, census);
    }

    #[test]
    fn one_unit_windows_count_that_units_addresses() {
        let data = days(9).finish();
        let census = WindowCensus::of(&data);
        for u in 0..9 {
            assert_eq!(census.count(u..u + 1), data.unit::<AddrSet>(u).len() as u64, "unit {u}");
            assert_eq!(census.count(u..u), 0);
        }
        assert_eq!(census.count(0..9), data.all_active::<AddrSet>().len() as u64);
    }

    #[test]
    fn day_127_counts_without_forming_a_129th_bit() {
        // Overflowing shifts panic in debug builds: a mask built as
        // `1u128 << 128` anywhere on the way fails this test there.
        let data = days(128).finish();
        let bulk = WindowCensus::of(&data);
        assert_counts(&bulk, &data);
        assert_eq!(bulk.count(127..128), data.unit::<AddrSet>(127).len() as u64);
        let mut grown = WindowCensus::<Daily>::new();
        let mut live = DailyDatasetBuilder::new(0);
        for d in 0..128 {
            live.grow(d + 1);
            record_day(&mut live, d);
            grown = grown.extended(&live.snapshot());
            assert_eq!(grown.num_units(), d + 1);
        }
        assert_eq!(grown, bulk, "day by day equals all at once");
        // A census of 64 days, extended to 128 in one step, crosses the
        // word boundary in the middle of its pass.
        let halfway = WindowCensus::of(&days(64).finish());
        assert_eq!(halfway.extended(&data), bulk);
    }

    #[test]
    fn sixty_four_weeks_count_every_window() {
        let mut b = WeeklyDatasetBuilder::new(64);
        for w in 0..64 {
            for h in (0..40).filter(|&h| active(h, w)) {
                b.record_week(w, Addr::new(0x0A00_0100 | h), 1);
            }
        }
        let data = b.finish();
        let census = WindowCensus::<Weekly>::of(&data);
        assert_counts(&census, &data);
        assert_eq!(census.count(63..64), data.unit::<AddrSet>(63).len() as u64);
        assert_eq!(census.count(0..64), data.all_active::<AddrSet>().len() as u64);
    }

    #[test]
    fn extending_shares_the_columns_it_had() {
        let data = days(10).finish();
        let mut live = days(10);
        let before = WindowCensus::of(&data);
        live.grow(11);
        live.record_hits(10, Addr::new(0x0A00_0007), 1);
        let after = before.extended(&live.snapshot());
        assert_eq!(after.num_units(), 11);
        for (old, new) in before.cols.iter().zip(&after.cols) {
            assert!(Arc::ptr_eq(old, new), "a counted column is shared, not rebuilt");
        }
        assert_eq!(before.extended(&data), before, "no new unit, nothing changes");
    }

    #[test]
    #[should_panic(expected = "outside the census")]
    fn a_window_past_the_census_is_refused() {
        WindowCensus::of(&days(3).finish()).count(1..4);
    }
}
