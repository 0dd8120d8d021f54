//! Deterministic randomness and behavioural distributions.
//!
//! Everything in the universe derives from one `u64` seed through
//! [`SeedMixer`], so a `(seed, entity, day)` triple always produces
//! the same draw — generation is reproducible and parallelizable in
//! any order.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// SplitMix64-style seed mixing: cheap, well-dispersed derivation of
/// child seeds from a parent seed and tag values.
#[derive(Debug, Clone, Copy)]
pub struct SeedMixer(u64);

impl SeedMixer {
    /// Wraps a root seed.
    pub fn new(seed: u64) -> Self {
        SeedMixer(seed)
    }

    /// The wrapped seed value.
    pub fn seed(self) -> u64 {
        self.0
    }

    /// Derives a child mixer tagged by `tag`.
    pub fn child(self, tag: u64) -> SeedMixer {
        SeedMixer(splitmix(self.0 ^ tag.wrapping_mul(GAMMA)))
    }

    /// An RNG for this node of the derivation tree.
    pub fn rng(self) -> StdRng {
        StdRng::seed_from_u64(splitmix(self.0))
    }

    /// A single `u64` draw without constructing an RNG.
    pub fn value(self) -> u64 {
        splitmix(self.0)
    }

    /// A uniform draw in `[0, 1)` without constructing an RNG.
    pub fn unit(self) -> f64 {
        unit_of(self.value())
    }

    /// `rng()`'s first `f64` draw, from the one state word it reads
    /// (see [`xoshiro_two_units`]).
    pub(crate) fn first_unit(self) -> f64 {
        xoshiro_first_unit(splitmix(self.0))
    }

    /// `rng()`'s first two `f64` draws, from the three state words they
    /// read (see [`xoshiro_two_units`]).
    pub(crate) fn two_units(self) -> (f64, f64) {
        xoshiro_two_units(splitmix(self.0))
    }
}

/// SplitMix64's increment, ⌊2⁶⁴/φ⌋ (odd).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The `f64` in `[0, 1)` the generators make of 64 random bits.
fn unit_of(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// xoshiro256**'s output function.
fn starstar(word: u64) -> u64 {
    word.wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

/// `StdRng::seed_from_u64(seed)`'s first `f64` draw.
fn xoshiro_first_unit(seed: u64) -> f64 {
    unit_of(starstar(splitmix(seed.wrapping_add(GAMMA))))
}

/// `StdRng::seed_from_u64(seed)`'s first two `f64` draws, `random()`
/// then `random()`, without the generator.
///
/// `seed_from_u64` fills the xoshiro256** state with the SplitMix64
/// stream of `seed`: `s[k] = splitmix(seed + k·γ)`. The first output is
/// `starstar(s[1])`; the step after it leaves `s[1] ^ s[2] ^ s[0]` in
/// `s[1]`, and the second output is that word scrambled. Neither reads
/// `s[3]`, so three SplitMix rounds give both draws where the generator
/// takes four (and [`xoshiro_first_unit`] needs one).
///
/// `seed_from_u64` also replaces an all-zero state, which this skips:
/// that branch is unreachable. The SplitMix64 finalizer is a bijection
/// that sends only 0 to 0, so `s[k] = 0` exactly when `seed + (k+1)·γ ≡ 0
/// (mod 2⁶⁴)`; γ is odd, so that holds for at most one `k`, and at most
/// one of the four words is ever zero.
fn xoshiro_two_units(seed: u64) -> (f64, f64) {
    let s0 = splitmix(seed);
    let s1 = splitmix(seed.wrapping_add(GAMMA));
    let s2 = splitmix(seed.wrapping_add(GAMMA.wrapping_mul(2)));
    (unit_of(starstar(s1)), unit_of(starstar(s1 ^ s2 ^ s0)))
}

impl SeedMixer {
    /// A standard-normal draw derived from this node (Box–Muller over
    /// two child draws) — for when constructing an RNG is overkill.
    pub fn normal(self) -> f64 {
        let u1 = self.child(0xA1).unit().max(f64::MIN_POSITIVE);
        let u2 = self.child(0xA2).unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a log-normal variate with the given *median* and log-space
/// sigma, via Box–Muller. Implemented here to keep the dependency set
/// to `rand` alone (the `rand_distr` crate is not part of the
/// project's approved set).
pub fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    let (u1, u2): (f64, f64) = (rng.random(), rng.random());
    let u1 = u1.max(f64::MIN_POSITIVE); // guard log(0)
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// A hit count from a non-negative variate: rounded half away from
/// zero, saturated to `u32`, and at least one.
///
/// Equal to `(x.round() as u32).max(1)` for every `x` — non-negative
/// finite, negative, NaN or infinite — without a call into libm's
/// `round` on every hit draw. `0.49999999999999994` is the
/// largest double below one half: adding it carries `x` past the next
/// integer exactly when `x`'s fraction is at least one half (the sum
/// `n + 1 − 2⁻⁵⁴` rounds up to `n + 1`, while anything whose fraction is
/// below one half stays below `n + 1`, since doubles near `n ≥ 1` are at
/// least 2⁻⁵² apart and `0.5 − 2⁻⁵⁴ + 0.5 − 2⁻⁵⁴` is the double below 1),
/// and the truncating, saturating `as` cast does the rest. The
/// property test below checks it against `round` itself.
pub fn round_hits(x: f64) -> u32 {
    ((x + 0.499_999_999_999_999_94) as u32).max(1)
}

/// Samples a Poisson variate. Uses Knuth's method for small `lambda`
/// and a normal approximation above 64 (adequate for UA-sample counts).
pub fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.random();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= rng.random::<f64>();
        }
        count
    } else {
        let (u1, u2): (f64, f64) = (rng.random(), rng.random());
        let u1 = u1.max(f64::MIN_POSITIVE);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        (lambda + lambda.sqrt() * z).round().max(0.0) as u64
    }
}

/// Day-of-week activity multiplier. `dow` 0..=6 with 5 and 6 as the
/// weekend. Residential users are slightly *more* active on weekends;
/// institutional networks much less — the CDN-wide aggregate dips on
/// weekends as in Figure 4(a) because institutions and offices go
/// quiet.
pub fn weekday_factor(institutional: bool, dow: u8) -> f64 {
    debug_assert!(dow < 7);
    let weekend = dow >= 5;
    match (institutional, weekend) {
        (true, true) => 0.55,
        (true, false) => 1.0,
        (false, true) => 0.92,
        (false, false) => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixer_is_deterministic_and_disperses() {
        let m = SeedMixer::new(7);
        assert_eq!(m.child(1).value(), m.child(1).value());
        assert_ne!(m.child(1).value(), m.child(2).value());
        assert_ne!(SeedMixer::new(7).value(), SeedMixer::new(8).value());
        let u = m.child(3).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn two_units_and_first_unit_are_the_generators_first_draws() {
        fn drawn(mut rng: StdRng) -> (f64, f64) {
            (rng.random(), rng.random())
        }
        let root = SeedMixer::new(0x7A11);
        for i in 0..100_000 {
            let m = root.child(i);
            assert_eq!(m.two_units(), drawn(m.rng()), "node {i}");
            assert_eq!(m.first_unit(), drawn(m.rng()).0, "node {i}");
        }
        // Generator seeds `−k·γ`, where state word `k − 1` is zero, and
        // the ends of the range.
        let zero_word = (1..=4u64).map(|k| GAMMA.wrapping_mul(k).wrapping_neg());
        for (k, seed) in zero_word.clone().enumerate() {
            assert_eq!(splitmix(seed.wrapping_add(GAMMA.wrapping_mul(k as u64))), 0);
        }
        for seed in zero_word.chain([0, 1, u64::MAX]) {
            let rng = StdRng::seed_from_u64(seed);
            assert_eq!(xoshiro_two_units(seed), drawn(rng.clone()), "seed {seed:#x}");
            assert_eq!(xoshiro_first_unit(seed), drawn(rng).0, "seed {seed:#x}");
        }
    }

    #[test]
    fn child_chains_differ_by_path() {
        let m = SeedMixer::new(1);
        assert_ne!(m.child(1).child(2).value(), m.child(2).child(1).value());
    }

    #[test]
    fn lognormal_median_is_roughly_right() {
        let mut rng = SeedMixer::new(99).rng();
        let mut v: Vec<f64> = (0..4001).map(|_| lognormal(&mut rng, 100.0, 1.0)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((60.0..170.0).contains(&median), "median {median}");
        // Heavy tail: p99 well above the median.
        assert!(v[(v.len() * 99) / 100] > 4.0 * median);
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = SeedMixer::new(5).rng();
        for &lambda in &[0.5f64, 4.0, 30.0, 200.0] {
            let n = 3000;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.15 + 0.1,
                "lambda {lambda}, mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }

    #[test]
    fn round_hits_is_round_then_saturate_at_the_edges() {
        let table = [
            0.0,
            0.499_999_999_999_999_94,
            0.5,
            1.5,
            2.5,
            2.499_999_999_999_999_6,
            4_294_967_294.5,
            4_294_967_295.5,
            1e12,
            f64::INFINITY,
            f64::NAN,
            -0.0,
            -0.7,
            f64::NEG_INFINITY,
        ];
        for x in table {
            assert_eq!(round_hits(x), (x.round() as u32).max(1), "x = {x:e}");
        }
        // Both neighbours of every half-way point up to where doubles
        // stop having a fraction bit to spare.
        for exp in 0..54 {
            let half = (1u64 << exp) as f64 + 0.5;
            for bits in [half.to_bits() - 1, half.to_bits(), half.to_bits() + 1] {
                let x = f64::from_bits(bits);
                assert_eq!(round_hits(x), (x.round() as u32).max(1), "x = {x:e}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        #[test]
        fn round_hits_is_round_then_saturate(
            x in 0.25f64..4_294_967_296.0,
            scale in 0u32..40,
        ) {
            // `x` itself, and `x` scaled down so small magnitudes (where
            // hit counts live) are sampled as densely as large ones.
            for x in [x, x / (1u64 << scale) as f64] {
                proptest::prop_assert_eq!(round_hits(x), (x.round() as u32).max(1), "x = {:e}", x);
            }
        }
    }

    #[test]
    fn weekday_factors_shape() {
        assert!(weekday_factor(true, 6) < weekday_factor(true, 2));
        assert!(weekday_factor(false, 6) > weekday_factor(true, 6));
        assert_eq!(weekday_factor(false, 0), 1.0);
    }
}
