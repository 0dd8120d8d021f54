//! Inputs: the pinned universe and the seeded request streams.

use ipactive_cdnsim::UniverseConfig;
use ipactive_net::Block24;
use ipactive_serve::QueryKind;

/// Seed of the universe every workload runs on: the seed the
/// repository's own records (`BENCH_repro.json`, EXPERIMENTS.md) are
/// taken at.
///
/// The universe is pinned, and `--seed` drives the request streams and
/// window panels only, because the cost of a universe is not a function
/// of its size alone: `build_daily`/`build_weekly` split the block list
/// into one contiguous slice per core, so wall time follows the heavier
/// slice. Twelve seeds at full scale gave 104–124 ns per address-day and
/// a quartile spread of 13 % on the build op, against under 2 % between
/// runs of one universe on a quiet host — a bound wide enough for that
/// would hide every regression the benchmark exists to catch.
pub const UNIVERSE_SEED: u64 = 2015;

/// The benchmark universe: the full-scale preset's 112-day / 52-week
/// geometry and AS mix at a fifth of the AS count. At full scale one
/// `dataset_build` op takes 5.4 s and one set-up of `collect_replay`
/// 7.4 s; at this size a run times at least a dozen ops of every
/// workload, and the fastest of a dozen is steady where the fastest of
/// three is not.
pub fn universe_config() -> UniverseConfig {
    UniverseConfig::default_scale(UNIVERSE_SEED).scaled(0.2)
}

/// SplitMix64: the stream generator behind every seeded input.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A non-empty half-open window inside `0..units`.
    pub fn window(&mut self, units: u64) -> (u64, u64) {
        let start = self.below(units);
        (start, start + 1 + self.below(units - start))
    }
}

/// The serving mix: 70 % day windows, 20 % week windows, 10 % prefix
/// counts over blocks present in the data at lengths 8–24. Every request
/// is answerable exactly, so none may come back other than `Ok`.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: SplitMix,
    days: u64,
    weeks: u64,
    blocks: Vec<Block24>,
}

impl RequestStream {
    /// A stream over `days` ingested days, `weeks` complete weeks and the
    /// `blocks` the data holds; a pure function of `seed`.
    ///
    /// # Panics
    /// If any of the three is empty.
    pub fn new(seed: u64, days: usize, weeks: usize, blocks: Vec<Block24>) -> RequestStream {
        assert!(
            days > 0 && weeks > 0 && !blocks.is_empty(),
            "request stream needs data"
        );
        RequestStream {
            rng: SplitMix(seed ^ 0x5E2E_57A7),
            days: days as u64,
            weeks: weeks as u64,
            blocks,
        }
    }
}

impl Iterator for RequestStream {
    type Item = QueryKind;

    fn next(&mut self) -> Option<QueryKind> {
        Some(match self.rng.below(10) {
            0 => {
                let block = self.blocks[self.rng.below(self.blocks.len() as u64) as usize];
                QueryKind::PrefixCount {
                    base: block.network().bits(),
                    len: 8 + self.rng.below(17) as u8,
                }
            }
            1 | 2 => {
                let (start, end) = self.rng.window(self.weeks);
                QueryKind::WeekWindow { start, end }
            }
            _ => {
                let (start, end) = self.rng.window(self.days);
                QueryKind::DayWindow { start, end }
            }
        })
    }
}

/// `n` distinct day windows of at least two days inside `0..days`, a
/// pure function of `seed` — the panel a dashboard would keep asking for.
///
/// # Panics
/// If `0..days` holds fewer than `n` such windows.
pub fn window_panel(seed: u64, days: usize, n: usize) -> Vec<(usize, usize)> {
    assert!(
        days >= 2 && n <= days * (days - 1) / 2,
        "panel larger than the window space"
    );
    let mut rng = SplitMix(seed ^ 0x0009_A2E1);
    let mut seen = std::collections::BTreeSet::new();
    let mut panel = Vec::with_capacity(n);
    while panel.len() < n {
        let (start, end) = rng.window(days as u64);
        if end - start >= 2 && seen.insert((start, end)) {
            panel.push((start as usize, end as usize));
        }
    }
    panel
}
