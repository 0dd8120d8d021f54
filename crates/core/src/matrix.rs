//! Spatio-temporal block views (Section 5.1, Figures 6 and 7).
//!
//! The paper's block exemplars are "activity matrices": addresses of a
//! `/24` on the y-axis, observation days on the x-axis, a mark where
//! the address was active. [`render`] reproduces them as terminal art;
//! [`BlockMetrics`] carries the FD/STU annotations printed under each
//! subfigure.

use crate::dataset::BlockRecord;

/// The two Section 5.1 metrics for one block over a day window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMetrics {
    /// Filling degree: active addresses in the window (0..=256).
    pub fd: u32,
    /// Spatio-temporal utilization in `[0, 1]`.
    pub stu: f64,
}

impl BlockMetrics {
    /// Computes both metrics for `rec` over `days`.
    pub fn of(rec: &BlockRecord, days: core::ops::Range<usize>) -> BlockMetrics {
        BlockMetrics { fd: rec.filling_degree(days.clone()), stu: rec.stu(days) }
    }
}

/// Month-by-month STU series for a block (input to change detection).
///
/// The window is split into `⌊days/month_days⌋` consecutive "months"
/// (the paper uses 28-day months over its 112-day window).
pub fn monthly_stu(rec: &BlockRecord, num_days: usize, month_days: usize) -> Vec<f64> {
    assert!(month_days > 0);
    let months = num_days / month_days;
    (0..months)
        .map(|m| rec.stu(m * month_days..(m + 1) * month_days))
        .collect()
}

/// Renders a block's activity matrix as terminal art.
///
/// Output has `256 / addr_step` rows (top row = host `.0`) and one
/// column per day; `#` marks activity, `.` inactivity. With
/// `addr_step > 1`, each row aggregates `addr_step` consecutive
/// addresses and uses a density ramp ` .:#` so the Figure 6 patterns
/// (diagonal round-robin stripes, horizontal static bands, solid
/// dynamic fill) stay recognizable at terminal sizes.
pub fn render(rec: &BlockRecord, num_days: usize, addr_step: usize) -> String {
    assert!(addr_step >= 1 && 256 % addr_step == 0, "addr_step must divide 256");
    let mut out = String::with_capacity((256 / addr_step) * (num_days + 1));
    for group in 0..(256 / addr_step) {
        for day in 0..num_days {
            let active = (0..addr_step)
                .filter(|i| rec.rows[group * addr_step + i].get(day))
                .count();
            let ch = if addr_step == 1 {
                if active > 0 { '#' } else { '.' }
            } else {
                let density = active as f64 / addr_step as f64;
                match density {
                    0.0 => '.',
                    d if d < 0.34 => ':',
                    d if d < 0.67 => '+',
                    _ => '#',
                }
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Renders a block's *year-scale* activity matrix from weekly bits
/// (rows aggregate `addr_step` addresses; columns are weeks). Same
/// density ramp as [`render`].
pub fn render_weekly(rows: &[u64; 256], num_weeks: usize, addr_step: usize) -> String {
    assert!(addr_step >= 1 && 256 % addr_step == 0, "addr_step must divide 256");
    assert!(num_weeks <= 64);
    let mut out = String::with_capacity((256 / addr_step) * (num_weeks + 1));
    for group in 0..(256 / addr_step) {
        for week in 0..num_weeks {
            let active = (0..addr_step)
                .filter(|i| rows[group * addr_step + i] & (1u64 << week) != 0)
                .count();
            let ch = if addr_step == 1 {
                if active > 0 { '#' } else { '.' }
            } else {
                let density = active as f64 / addr_step as f64;
                match density {
                    0.0 => '.',
                    d if d < 0.34 => ':',
                    d if d < 0.67 => '+',
                    _ => '#',
                }
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DailyDatasetBuilder;
    use ipactive_net::{Addr, Block24};

    fn block_with_pattern<F: Fn(u8, usize) -> bool>(num_days: usize, f: F) -> BlockRecord {
        let mut b = DailyDatasetBuilder::new(num_days);
        let block = Block24::of("10.0.0.0".parse::<Addr>().unwrap());
        for host in 0..=255u8 {
            for day in 0..num_days {
                if f(host, day) {
                    b.record_hits(day, block.addr(host), 1);
                }
            }
        }
        let ds = b.finish();
        ds.block(block).unwrap().clone()
    }

    #[test]
    fn metrics_of_full_block() {
        let rec = block_with_pattern(8, |_, _| true);
        let m = BlockMetrics::of(&rec, 0..8);
        assert_eq!(m.fd, 256);
        assert!((m.stu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_of_sparse_static_block() {
        // 29 fixed addresses, each active half the days — like Figure 6(a).
        let rec = block_with_pattern(8, |host, day| host < 29 && day % 2 == 0);
        let m = BlockMetrics::of(&rec, 0..8);
        assert_eq!(m.fd, 29);
        let expect = (29.0 * 4.0) / (256.0 * 8.0);
        assert!((m.stu - expect).abs() < 1e-12);
    }

    #[test]
    fn monthly_stu_detects_policy_shift() {
        // First 4 "days" sparse, last 4 dense (month length 4).
        let rec = block_with_pattern(8, |host, day| if day < 4 { host < 16 } else { true });
        let series = monthly_stu(&rec, 8, 4);
        assert_eq!(series.len(), 2);
        assert!((series[0] - 16.0 / 256.0).abs() < 1e-12);
        assert!((series[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_full_resolution_marks_activity() {
        let rec = block_with_pattern(4, |host, day| host == 2 && day == 1);
        let art = render(&rec, 4, 1);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 256);
        assert_eq!(lines[2], ".#..");
        assert_eq!(lines[0], "....");
    }

    #[test]
    fn render_aggregated_uses_density_ramp() {
        // All 4 addresses of group 0 active on day 0, one of group 1.
        let rec = block_with_pattern(2, |host, day| {
            day == 0 && host <= 4
        });
        let art = render(&rec, 2, 4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 64);
        assert_eq!(&lines[0][0..1], "#"); // 4/4 density
        assert_eq!(&lines[1][0..1], ":"); // 1/4 density
        assert_eq!(&lines[0][1..2], "."); // inactive day
    }

    #[test]
    fn render_weekly_marks_weeks() {
        let mut rows = [0u64; 256];
        rows[0] = 0b101; // addr .0 active weeks 0 and 2
        rows[255] = 0b010;
        let art = render_weekly(&rows, 3, 1);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 256);
        assert_eq!(lines[0], "#.#");
        assert_eq!(lines[255], ".#.");
        assert_eq!(lines[100], "...");
    }

    #[test]
    #[should_panic(expected = "divide 256")]
    fn render_rejects_bad_step() {
        let rec = block_with_pattern(2, |host, day| host == 0 && day == 0);
        render(&rec, 2, 3);
    }
}
