//! `dataset_build`: substrate → datasets, the direct way.
//!
//! This is what `Repro::new` spends its time in (`repro.build`, ~97 % of
//! a `repro` run): `cdnsim::{universe, policy}` do nearly all the work,
//! `logfmt`, `core::engine` and `serve` none.

use super::{Params, Samples, Workload};
use crate::trace::Tracer;
use ipactive_cdnsim::{Universe, UniverseConfig};
use ipactive_core::{DailyDataset, WeeklyDataset};

/// State of the workload: the config to rebuild from and the datasets
/// every op must reproduce.
pub struct DatasetBuild {
    config: UniverseConfig,
    reference: (DailyDataset, WeeklyDataset),
    units_per_op: u64,
}

/// Address-days in a daily dataset (set bits of its row bitmaps).
pub fn addr_days(daily: &DailyDataset) -> u64 {
    daily
        .blocks
        .iter()
        .flat_map(|b| b.rows.iter())
        .map(|row| u64::from(row.count()))
        .sum()
}

/// Address-weeks in a weekly dataset (set bits of its row bitmaps).
pub fn addr_weeks(weekly: &WeeklyDataset) -> u64 {
    weekly
        .blocks
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .map(|row| u64::from(row.count_ones()))
        .sum()
}

/// Universe plus both datasets, one span per call into `cdnsim`.
fn build(config: &UniverseConfig, t: &mut Tracer) -> (Universe, DailyDataset, WeeklyDataset) {
    let universe = t.span("cdnsim.universe.generate", |_| {
        Universe::generate(config.clone())
    });
    let daily = t.span("cdnsim.universe.build_daily", |_| universe.build_daily());
    let weekly = t.span("cdnsim.universe.build_weekly", |_| universe.build_weekly());
    (universe, daily, weekly)
}

impl Workload for DatasetBuild {
    const NAME: &'static str = "dataset_build";
    const OP_SPAN: &'static str = "dataset_build.op";

    /// One untimed build: it warms the allocator and yields the datasets
    /// the timed ops are checked against.
    fn setup(p: &Params, t: &mut Tracer) -> Self {
        let (universe, daily, weekly) = build(&p.universe, t);
        let (days, weeks) = (addr_days(&daily), addr_weeks(&weekly));
        t.set("cdnsim.universe.blocks", universe.blocks.len() as f64);
        t.set("core.dataset.daily_addr_days", days as f64);
        t.set("core.dataset.weekly_addr_weeks", weeks as f64);
        DatasetBuild {
            config: p.universe.clone(),
            reference: (daily, weekly),
            units_per_op: days + weeks,
        }
    }

    fn batch(&mut self, t: &mut Tracer, s: &mut Samples) -> bool {
        let (_, daily, weekly) = s.time_op(|| t.op(Self::OP_SPAN, |t| build(&self.config, t)));
        s.units += self.units_per_op;
        if (daily, weekly) != self.reference {
            s.fail("dataset_build: an op's datasets differ from the first build's");
        }
        true
    }
}
