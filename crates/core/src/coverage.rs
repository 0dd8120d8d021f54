//! Data-completeness accounting for degraded collection runs.
//!
//! The paper's telemetry is imperfect by construction — CDN logs have
//! sampling, collection gaps, and partial outages, and "Lost in Space"
//! (Dainotti et al., IMC 2014) makes the case that unreliable capture
//! must be *accounted for*, not silently absorbed, before inferring
//! address-space utilization. [`Coverage`] is that accounting made
//! first-class: a per-shard, per-day grid of completeness fractions
//! that a supervised collector attaches to the dataset it produces, so
//! census and churn analyses can annotate their results with how much
//! of the input actually survived collection.
//!
//! A fraction of `1.0` means the shard delivered every retained buffer
//! for that day; `0.0` means the day's slice of that shard was lost
//! entirely; values in between arise from salvage decodes of damaged
//! streams (the surviving-frame ratio). A fully clean run is exactly
//! [`Coverage::full`], which [`Coverage::is_complete`] recognizes.

/// Per-shard, per-day completeness fractions of one collection run.
///
/// The grid is indexed `(shard, day)`; "day" is the dataset's time
/// slot, so for a weekly dataset it is a week index. Fractions pass
/// through [`clamp_fraction`] on entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    num_slots: usize,
    /// `grid[shard][slot]` = completeness fraction.
    grid: Vec<Vec<f64>>,
}

impl Coverage {
    /// A fully-complete coverage grid: every shard delivered every
    /// slot (all fractions `1.0`).
    pub fn full(num_shards: usize, num_slots: usize) -> Coverage {
        Coverage { num_slots, grid: vec![vec![1.0; num_slots]; num_shards] }
    }

    /// Builds a grid from one completeness fraction per shard, applied
    /// uniformly across slots — the shape a buffer-granular collector
    /// reports, where a lost buffer affects all days of its blocks.
    pub fn from_shard_fractions(fractions: &[f64], num_slots: usize) -> Coverage {
        Coverage {
            num_slots,
            grid: fractions
                .iter()
                .map(|&f| vec![clamp_fraction(f); num_slots])
                .collect(),
        }
    }

    /// Builds a single-shard grid from one completeness fraction per
    /// slot — the shape a *store*-granular check reports, where each
    /// day file is verified independently (an `fsck` pass over a log
    /// store produces exactly this: per-day survival fractions with
    /// no shard dimension).
    pub fn from_slot_fractions(fractions: &[f64]) -> Coverage {
        Coverage {
            num_slots: fractions.len(),
            grid: vec![fractions.iter().map(|&f| clamp_fraction(f)).collect()],
        }
    }

    /// Number of collector shards covered.
    pub fn num_shards(&self) -> usize {
        self.grid.len()
    }

    /// Number of time slots (days or weeks) covered.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Completeness of one `(shard, slot)` cell.
    pub fn get(&self, shard: usize, slot: usize) -> f64 {
        self.grid[shard][slot]
    }

    /// Sets one `(shard, slot)` cell, clamping to `[0, 1]`.
    pub fn set(&mut self, shard: usize, slot: usize, fraction: f64) {
        self.grid[shard][slot] = clamp_fraction(fraction);
    }

    /// Sets every slot of one shard, clamping to `[0, 1]`.
    pub fn set_shard(&mut self, shard: usize, fraction: f64) {
        let f = clamp_fraction(fraction);
        for slot in &mut self.grid[shard] {
            *slot = f;
        }
    }

    /// Mean completeness of one shard across all slots.
    pub fn shard(&self, shard: usize) -> f64 {
        mean(&self.grid[shard])
    }

    /// Mean completeness of one slot across all shards.
    pub fn slot(&self, slot: usize) -> f64 {
        if self.grid.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.grid.iter().map(|row| row[slot]).sum();
        sum / self.grid.len() as f64
    }

    /// Mean completeness over the whole grid.
    pub fn overall(&self) -> f64 {
        if self.grid.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.grid.iter().map(|row| mean(row)).sum();
        sum / self.grid.len() as f64
    }

    /// Whether every cell is exactly `1.0` — no data was lost.
    pub fn is_complete(&self) -> bool {
        self.grid.iter().all(|row| row.iter().all(|&f| f == 1.0))
    }

    /// Indices of shards whose mean completeness is below `1.0`.
    pub fn degraded_shards(&self) -> Vec<usize> {
        (0..self.grid.len()).filter(|&s| self.shard(s) < 1.0).collect()
    }

    /// One-line operator summary, e.g. `coverage 0.875 (shard 1: 0.50, shard 3: 0.00)`.
    pub fn summary(&self) -> String {
        if self.is_complete() {
            return "coverage 1.000 (complete)".to_string();
        }
        let degraded: Vec<String> = self
            .degraded_shards()
            .into_iter()
            .map(|s| format!("shard {s}: {:.2}", self.shard(s)))
            .collect();
        format!("coverage {:.3} ({})", self.overall(), degraded.join(", "))
    }
}

/// A completeness fraction as the grid stores it: inside `[0, 1]`, and
/// `0.0` — nothing known to have arrived — for NaN, which is what
/// `collected / expected` gives when nothing was expected and which
/// `f64::clamp` would hand back unchanged to poison every mean it joins.
pub fn clamp_fraction(fraction: f64) -> f64 {
    if fraction.is_nan() {
        0.0
    } else {
        fraction.clamp(0.0, 1.0)
    }
}

fn mean(row: &[f64]) -> f64 {
    if row.is_empty() {
        return 1.0;
    }
    row.iter().sum::<f64>() / row.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_is_complete() {
        let c = Coverage::full(4, 7);
        assert!(c.is_complete());
        assert_eq!(c.overall(), 1.0);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(c.num_slots(), 7);
        assert!(c.degraded_shards().is_empty());
        assert_eq!(c.summary(), "coverage 1.000 (complete)");
    }

    #[test]
    fn shard_and_slot_means() {
        let mut c = Coverage::full(2, 4);
        c.set_shard(1, 0.5);
        assert_eq!(c.shard(0), 1.0);
        assert_eq!(c.shard(1), 0.5);
        assert_eq!(c.slot(2), 0.75);
        assert_eq!(c.overall(), 0.75);
        assert_eq!(c.degraded_shards(), vec![1]);
        assert!(!c.is_complete());
    }

    #[test]
    fn fractions_clamp() {
        let mut c = Coverage::from_shard_fractions(&[2.0, -1.0], 3);
        assert_eq!(c.shard(0), 1.0);
        assert_eq!(c.shard(1), 0.0);
        c.set(1, 0, 7.5);
        assert_eq!(c.get(1, 0), 1.0);
    }

    #[test]
    fn non_finite_fractions_count_as_nothing_or_everything() {
        assert_eq!(clamp_fraction(f64::NAN), 0.0);
        assert_eq!(clamp_fraction(f64::INFINITY), 1.0);
        assert_eq!(clamp_fraction(f64::NEG_INFINITY), 0.0);
        let mut c = Coverage::from_shard_fractions(&[f64::NAN, 1.0], 2);
        assert_eq!((c.shard(0), c.overall()), (0.0, 0.5));
        assert_eq!(Coverage::from_slot_fractions(&[1.0, f64::NAN, 1.0]).get(0, 1), 0.0);
        c.set(1, 0, f64::NAN);
        assert_eq!(c.get(1, 0), 0.0);
        c.set_shard(1, f64::INFINITY);
        c.set_shard(0, f64::NAN);
        assert_eq!((c.shard(0), c.shard(1)), (0.0, 1.0));
    }

    #[test]
    fn empty_grid_is_vacuously_complete() {
        let c = Coverage::full(0, 5);
        assert!(c.is_complete());
        assert_eq!(c.overall(), 1.0);
    }
}
