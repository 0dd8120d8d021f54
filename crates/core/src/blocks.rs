//! Addressing practice at block level (Sections 5.3–5.4,
//! Figures 8(b) and 8(c)).

use crate::dataset::DailyDataset;
use crate::par::Parallelism;
use crate::stats::Ecdf;
use ipactive_dns::{classify_block, AssignmentHint, PtrTable};
use ipactive_net::{ActiveSet, Block24};

/// Filling-degree distributions split by DNS-derived assignment class
/// (Figure 8(b)).
#[derive(Debug, Clone)]
pub struct FdByAssignment {
    /// FD ECDF over all active blocks.
    pub all: Ecdf,
    /// FD ECDF over PTR-tagged static blocks.
    pub static_blocks: Ecdf,
    /// FD ECDF over PTR-tagged dynamic blocks.
    pub dynamic_blocks: Ecdf,
    /// Number of blocks tagged static.
    pub n_static: usize,
    /// Number of blocks tagged dynamic.
    pub n_dynamic: usize,
}

/// Computes Figure 8(b): filling degree of active `/24` blocks, with
/// PTR-keyword-tagged static and dynamic subsets.
///
/// `min_records` is the PTR coverage a block needs before it is
/// tagged (consistency rule of [`classify_block`]).
pub fn fd_by_assignment(ds: &DailyDataset, ptr: &PtrTable, min_records: usize) -> FdByAssignment {
    let mut all = Vec::new();
    let mut stat = Vec::new();
    let mut dyn_ = Vec::new();
    for rec in &ds.blocks {
        let fd = rec.filling_degree(0..ds.num_days);
        if fd == 0 {
            continue;
        }
        all.push(fd as f64);
        match classify_block(ptr, rec.block, min_records) {
            AssignmentHint::Static => stat.push(fd as f64),
            AssignmentHint::Dynamic => dyn_.push(fd as f64),
            AssignmentHint::Unknown => {}
        }
    }
    FdByAssignment {
        n_static: stat.len(),
        n_dynamic: dyn_.len(),
        all: Ecdf::new(all),
        static_blocks: Ecdf::new(stat),
        dynamic_blocks: Ecdf::new(dyn_),
    }
}

/// [`fd_by_assignment`] computed against a pre-materialized
/// full-window union, with the block scan split into chunk-range
/// subtasks.
///
/// `all_active` must be the union of every day's activity (what
/// [`DailyDataset::all_active_as`] returns — or a cache's memoized
/// copy). A block's filling degree over the full window is exactly
/// the number of its addresses in that union, so
/// `all_active.count_in(block)` replaces the 256-row matrix walk of
/// [`BlockRecord::filling_degree`](crate::BlockRecord::filling_degree)
/// and the result agrees exactly with [`fd_by_assignment`]. Chunk
/// results concatenate in block order, preserving the serial Ecdf
/// inputs.
pub fn fd_by_assignment_over<S: ActiveSet>(
    ds: &DailyDataset,
    all_active: &S,
    ptr: &PtrTable,
    min_records: usize,
    par: &Parallelism,
) -> FdByAssignment {
    let chunks = par.run(ds.blocks.len(), 64, |range| {
        let mut all = Vec::new();
        let mut stat = Vec::new();
        let mut dyn_ = Vec::new();
        for rec in &ds.blocks[range] {
            let fd = all_active.count_in(rec.block.prefix()) as u32;
            if fd == 0 {
                continue;
            }
            all.push(fd as f64);
            match classify_block(ptr, rec.block, min_records) {
                AssignmentHint::Static => stat.push(fd as f64),
                AssignmentHint::Dynamic => dyn_.push(fd as f64),
                AssignmentHint::Unknown => {}
            }
        }
        (all, stat, dyn_)
    });
    let (mut all, mut stat, mut dyn_) = (Vec::new(), Vec::new(), Vec::new());
    for (a, s, d) in chunks {
        all.extend(a);
        stat.extend(s);
        dyn_.extend(d);
    }
    FdByAssignment {
        n_static: stat.len(),
        n_dynamic: dyn_.len(),
        all: Ecdf::new(all),
        static_blocks: Ecdf::new(stat),
        dynamic_blocks: Ecdf::new(dyn_),
    }
}

/// Figure 8(c): histogram of spatio-temporal utilization (as a
/// percentage of maximum) for highly-filled blocks.
#[derive(Debug, Clone)]
pub struct StuHistogram {
    /// Bin edges are `i*width .. (i+1)*width` percent.
    pub counts: Vec<u64>,
    /// Bin width in percentage points.
    pub width: f64,
    /// Number of blocks included.
    pub total: u64,
}

impl StuHistogram {
    /// Fraction of included blocks with STU% at or above `pct`.
    pub fn fraction_ge(&self, pct: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let first_bin = (pct / self.width).floor() as usize;
        let n: u64 = self.counts.iter().skip(first_bin).sum();
        n as f64 / self.total as f64
    }
}

/// Computes Figure 8(c): STU distribution over blocks with filling
/// degree strictly above `fd_threshold` (paper: 250 — the likely
/// dynamically-assigned pools).
pub fn stu_histogram_high_fd(ds: &DailyDataset, fd_threshold: u32, bins: usize) -> StuHistogram {
    assert!(bins >= 1);
    let width = 100.0 / bins as f64;
    let mut counts = vec![0u64; bins];
    let mut total = 0u64;
    for rec in &ds.blocks {
        if rec.filling_degree(0..ds.num_days) <= fd_threshold {
            continue;
        }
        let pct = rec.stu(0..ds.num_days) * 100.0;
        let bin = ((pct / width) as usize).min(bins - 1);
        counts[bin] += 1;
        total += 1;
    }
    StuHistogram { counts, width, total }
}

/// The Section 5.4 potential-utilization estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PotentialUtilization {
    /// Active blocks in the dataset.
    pub active_blocks: usize,
    /// Active blocks with FD < 64 — sparsely used, mostly static
    /// assignment ("more than 30%" in the paper).
    pub low_fd_blocks: usize,
    /// Blocks with FD > 250 (likely dynamic pools).
    pub high_fd_blocks: usize,
    /// High-FD blocks with STU ≥ 0.8 (well-utilized pools).
    pub high_fd_high_stu: usize,
    /// High-FD blocks with STU < 0.6 — oversized pools whose size
    /// could be reduced ("reducing their pool sizes could instantly
    /// free significant portions of address space").
    pub high_fd_low_stu: usize,
}

/// Computes the Section 5.4 summary.
pub fn potential_utilization(ds: &DailyDataset) -> PotentialUtilization {
    let mut out = PotentialUtilization {
        active_blocks: 0,
        low_fd_blocks: 0,
        high_fd_blocks: 0,
        high_fd_high_stu: 0,
        high_fd_low_stu: 0,
    };
    for rec in &ds.blocks {
        let fd = rec.filling_degree(0..ds.num_days);
        if fd == 0 {
            continue;
        }
        out.active_blocks += 1;
        if fd < 64 {
            out.low_fd_blocks += 1;
        }
        if fd > 250 {
            out.high_fd_blocks += 1;
            let stu = rec.stu(0..ds.num_days);
            if stu >= 0.8 {
                out.high_fd_high_stu += 1;
            }
            if stu < 0.6 {
                out.high_fd_low_stu += 1;
            }
        }
    }
    out
}

/// Convenience: the blocks of a dataset with a given assignment hint.
pub fn blocks_with_hint(
    ds: &DailyDataset,
    ptr: &PtrTable,
    hint: AssignmentHint,
    min_records: usize,
) -> Vec<Block24> {
    ds.blocks
        .iter()
        .filter(|r| r.any_active(0..ds.num_days))
        .filter(|r| classify_block(ptr, r.block, min_records) == hint)
        .map(|r| r.block)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DailyDatasetBuilder;
    use ipactive_dns::NamingScheme;
    use ipactive_net::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// Builds: one sparse static block (FD 20), one full dynamic block
    /// (FD 256, STU 1.0), one full-but-lazy dynamic block (FD 256,
    /// STU 0.25), one untagged medium block (FD 100).
    fn fixture() -> (DailyDataset, PtrTable) {
        let mut b = DailyDatasetBuilder::new(8);
        let static_b = Block24::of(a("10.0.0.0"));
        let dyn_full = Block24::of(a("10.0.1.0"));
        let dyn_lazy = Block24::of(a("10.0.2.0"));
        let opaque = Block24::of(a("10.0.3.0"));
        for host in 0..20u8 {
            for d in 0..8 {
                b.record_hits(d, static_b.addr(host), 1);
            }
        }
        for host in 0..=255u8 {
            for d in 0..8 {
                b.record_hits(d, dyn_full.addr(host), 1);
            }
        }
        for host in 0..=255u8 {
            // Every address active exactly 2 of 8 days: FD 256, STU 0.25.
            for d in 0..2usize {
                b.record_hits((host as usize + d) % 8, dyn_lazy.addr(host), 1);
            }
        }
        for host in 0..100u8 {
            b.record_hits(0, opaque.addr(host), 1);
        }
        let ds = b.finish();

        let mut ptr = PtrTable::new();
        ptr.set_scheme(static_b, NamingScheme::StaticKeyword { domain: "u.example".into() });
        ptr.set_scheme(dyn_full, NamingScheme::PoolKeyword { domain: "isp.example".into() });
        ptr.set_scheme(dyn_lazy, NamingScheme::DynamicKeyword { domain: "isp.example".into() });
        ptr.set_scheme(opaque, NamingScheme::Opaque { domain: "corp.example".into() });
        (ds, ptr)
    }

    #[test]
    fn fd_split_matches_tagging() {
        let (ds, ptr) = fixture();
        let split = fd_by_assignment(&ds, &ptr, 10);
        assert_eq!(split.all.len(), 4);
        assert_eq!(split.n_static, 1);
        assert_eq!(split.n_dynamic, 2);
        // Static blocks all have FD <= 64 here; dynamic all > 250.
        assert_eq!(split.static_blocks.fraction_le(64.0), 1.0);
        assert_eq!(split.dynamic_blocks.fraction_le(250.0), 0.0);
    }

    #[test]
    fn fd_split_over_union_matches_matrix_walk() {
        let (ds, ptr) = fixture();
        let expect = fd_by_assignment(&ds, &ptr, 10);
        let all: ipactive_net::TieredSet = ds.all_active_as();
        for pool in [Parallelism::serial(), Parallelism::new(3)] {
            let got = fd_by_assignment_over(&ds, &all, &ptr, 10, &pool);
            assert_eq!(got.all.samples(), expect.all.samples());
            assert_eq!(got.static_blocks.samples(), expect.static_blocks.samples());
            assert_eq!(got.dynamic_blocks.samples(), expect.dynamic_blocks.samples());
            assert_eq!(got.n_static, expect.n_static);
            assert_eq!(got.n_dynamic, expect.n_dynamic);
        }
    }

    #[test]
    fn stu_histogram_separates_full_and_lazy_pools() {
        let (ds, _) = fixture();
        let h = stu_histogram_high_fd(&ds, 250, 10);
        assert_eq!(h.total, 2);
        // One pool at 100%, one at 25%.
        assert!((h.fraction_ge(90.0) - 0.5).abs() < 1e-12);
        assert!((h.fraction_ge(20.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn potential_utilization_summary() {
        let (ds, _) = fixture();
        let p = potential_utilization(&ds);
        assert_eq!(p.active_blocks, 4);
        assert_eq!(p.low_fd_blocks, 1); // the FD-20 static block
        assert_eq!(p.high_fd_blocks, 2);
        assert_eq!(p.high_fd_high_stu, 1);
        assert_eq!(p.high_fd_low_stu, 1); // the lazy pool: reclaimable
    }

    #[test]
    fn blocks_with_hint_filters() {
        let (ds, ptr) = fixture();
        let stat = blocks_with_hint(&ds, &ptr, AssignmentHint::Static, 10);
        assert_eq!(stat, vec![Block24::of(a("10.0.0.0"))]);
        let unk = blocks_with_hint(&ds, &ptr, AssignmentHint::Unknown, 10);
        assert_eq!(unk, vec![Block24::of(a("10.0.3.0"))]);
    }

    #[test]
    fn empty_dataset_is_empty_everything() {
        let ds = DailyDatasetBuilder::new(4).finish();
        let p = potential_utilization(&ds);
        assert_eq!(p.active_blocks, 0);
        let h = stu_histogram_high_fd(&ds, 250, 10);
        assert_eq!(h.total, 0);
        assert_eq!(h.fraction_ge(0.0), 0.0);
    }
}
