//! Round first, libm at the edge: branch-free `ln`, `cos 2π·` and `exp`
//! for the simulator's lane loops, the filter that says when their
//! result may be rounded instead of libm's, and the one AVX-512
//! dispatch.
//!
//! The simulator keeps integers made of floating-point chains — a hit
//! count `round_hits(x)`, a Poisson draw's "first uniform above
//! `exp(−λ)`" — and those integers must be the ones libm's chains give.
//! An approximation with a proven error bound decides the integer
//! everywhere except within a small distance of a rounding boundary,
//! and only there does the caller need libm. The bounds the callers
//! rely on, each held by a test below over 10⁶ random inputs and the
//! edges of its domain:
//!
//! | function | domain | bound against libm |
//! |---|---|---|
//! | [`fast_ln`] | `[f64::MIN_POSITIVE, 1)` | 2⁻⁵⁰ relative |
//! | [`fast_cos_2pi`] | `[−⅛, 9⁄8]` | 2⁻⁴⁸ absolute, against `cos(2π·u)` with its own rounding of `2π·u` |
//! | [`fast_exp`] | `[−64, 40]` | 2⁻⁵⁰ relative |
//!
//! The three use only correctly rounded operations (`+ − × ÷ √`, exact
//! integer conversions) and bit moves, with selects in place of
//! branches, and Rust never contracts `a * b + c` into a fused
//! multiply-add: their bits are the same whatever instructions they are
//! compiled to, so a lane loop compiled for AVX-512 gives exactly what
//! it gives compiled for the baseline.

use std::sync::OnceLock;

/// How far, relative to the value, an approximate variate must be from
/// a rounding boundary for the approximation to decide: 2⁻⁴⁰. The
/// chains it guards stay within 2⁻⁴² relative of libm's.
pub(crate) const EDGE: f64 = 1.0 / (1u64 << 40) as f64;

/// ln 2 split so that `k · LN2_HI` is exact for `|k| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// fdlibm's minimax coefficients for `ln((1 + s) / (1 − s)) ≈ 2s + s·R(s²)`
/// on `|s| ≤ 0.1716`.
const LG: [f64; 7] = [
    f64::from_bits(0x3fe5_5555_5555_5593),
    f64::from_bits(0x3fd9_9999_9997_fa04),
    f64::from_bits(0x3fd2_4924_9422_9359),
    f64::from_bits(0x3fcc_71c5_1d8e_78af),
    f64::from_bits(0x3fc7_4664_96cb_03de),
    f64::from_bits(0x3fc3_9a09_d078_c69f),
    f64::from_bits(0x3fc2_f112_df3e_5244),
];

/// `ln(u)` for a positive normal `u`.
///
/// `u = 2ᵏ·m` with `m ∈ [√½, √2)`, split off with integer moves on the
/// bits; then fdlibm's kernel on `f = m − 1` (exact), always in its
/// `½f²` form: `k·ln2 + f − ½f² + s·(½f² + R)`, `s = f / (2 + f)`.
#[inline(always)]
pub(crate) fn fast_ln(u: f64) -> f64 {
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    let bits = u.to_bits();
    let shifted = bits.wrapping_sub(SQRT_HALF);
    let k = (shifted as i64) >> 52;
    let m = f64::from_bits(bits.wrapping_sub(shifted & (0xfff << 52)));
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let s2 = s * s;
    let s4 = s2 * s2;
    let r = s2 * (LG[0] + s4 * (LG[2] + s4 * (LG[4] + s4 * LG[6])))
        + s4 * (LG[1] + s4 * (LG[3] + s4 * LG[5]));
    let half_f2 = 0.5 * f * f;
    let k = k as f64;
    k * LN2_HI - ((half_f2 - (s * (half_f2 + r) + k * LN2_LO)) - f)
}

/// Taylor coefficients of `cos 2πr` in powers of `r²`, signs included.
const COS_2PI: [f64; 9] = [
    1.0,
    -19.739208802178716,
    64.9393940226683,
    -85.45681720669373,
    60.24464137187666,
    -26.4262567833744,
    7.903536371318469,
    -1.714390711088672,
    0.28200596845579123,
];

/// Taylor coefficients of `sin 2πr / r` in powers of `r²`, signs included.
const SIN_2PI: [f64; 9] = [
    std::f64::consts::TAU,
    -41.34170224039976,
    81.60524927607506,
    -76.70585975306139,
    42.058693944897655,
    -15.09464257682299,
    3.819952584848282,
    -0.7181223017785006,
    0.10422916220813984,
];

/// `1.5 · 2⁵²`: adding it to a float below 2⁵¹ in magnitude rounds that
/// float to the nearest integer, whose low bits then sit in the sum's.
const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// `cos(2π·u)`, `u` in turns.
///
/// The reduction is exact: `n = ⌊4u + ½⌋` quarter turns and `r = u − n/4`
/// with `|r| ≤ ⅛` (every draw is a multiple of 2⁻⁵³, so `r` is
/// representable). `n` comes from the round-to-nearest shifter, less one
/// where rounding went up, rather than from a float-to-integer cast,
/// which is saturating and compiles to a scalar conversion per lane.
/// Quarter turn `n` makes it `cos 2πr`, `−sin 2πr`, `−cos 2πr` or
/// `sin 2πr`; one Taylor polynomial in `r²` takes its nine coefficients
/// from the cosine or the sine table, and the sign is a bit. Every
/// operation is a select or a straight-line step, so a loop of calls
/// vectorizes whole.
#[inline(always)]
pub(crate) fn fast_cos_2pi(u: f64) -> f64 {
    let x = 4.0 * u + 0.5;
    let shifted = x + SHIFTER;
    let nearest = shifted - SHIFTER;
    let up = nearest > x;
    let n = shifted.to_bits().wrapping_sub(up as u64);
    let r = u - 0.25 * if up { nearest - 1.0 } else { nearest };
    let r2 = r * r;
    let odd = n & 1 != 0;
    let mut p = if odd { SIN_2PI[8] } else { COS_2PI[8] };
    for k in (0..8).rev() {
        p = p * r2 + if odd { SIN_2PI[k] } else { COS_2PI[k] };
    }
    let v = if odd { r * p } else { p };
    let negative = (n.wrapping_add(1) & 2) << 62;
    f64::from_bits(v.to_bits() ^ negative)
}

/// `1/k!` for `k = 2..=13`.
const EXP_TAYLOR: [f64; 12] = [
    0.5,
    0.16666666666666666,
    0.041666666666666664,
    0.008333333333333333,
    0.001388888888888889,
    0.0001984126984126984,
    2.48015873015873e-05,
    2.7557319223985893e-06,
    2.755731922398589e-07,
    2.505210838544172e-08,
    2.08767569878681e-09,
    1.6059043836821613e-10,
];

/// `exp(y)` for `y ∈ [−64, 40]`.
///
/// `k = ⌊y / ln2⌉` by the round-to-nearest shifter, `r = y − k·ln2` in
/// two exact-then-rounded steps (`|r| ≤ ½ ln2`), `exp r` as its Taylor
/// polynomial to degree 13, and `2ᵏ` built from the shifter's low bits.
#[inline(always)]
pub(crate) fn fast_exp(y: f64) -> f64 {
    let shifted = y * std::f64::consts::LOG2_E + SHIFTER;
    let k = shifted - SHIFTER;
    let r = (y - k * LN2_HI) - k * LN2_LO;
    let mut q = EXP_TAYLOR[11];
    for k in (0..11).rev() {
        q = q * r + EXP_TAYLOR[k];
    }
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    (1.0 + (r + (r * r) * q)) * scale
}

/// `round_hits(x)` when every value within 2⁻⁴² of `x`, relative, rounds
/// to it too; `None` when `x` is not finite, is negative or at least
/// 2³², or is within [`EDGE`]`·x` of a half-integer.
///
/// Every step is exact for `x < 2³²`: `x − ⌊x⌋` and its distance from ½
/// are representable, and so is `x · 2⁻⁴⁰`. A half-integer is the only
/// boundary `round_hits` has below 2³² (its `max(1)` and its saturation
/// at `u32::MAX` sit on half-integers too), and `EDGE·x < ½` there, so
/// a value nearer to `x` than the distance to `⌊x⌋ + ½` rounds alike.
#[inline]
pub(crate) fn round_clear(x: f64) -> Option<u32> {
    if !(0.0..4_294_967_296.0).contains(&x) {
        return None;
    }
    let fraction = x - (x as u32) as f64;
    ((fraction - 0.5).abs() > x * EDGE).then(|| crate::behavior::round_hits(x))
}

/// Which body draws the subscriber policies' hit counts and the
/// User-Agent pass's sampling decisions. All three give the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The chunked libm loops: the reference, and what runs where the
    /// CPU lacks AVX-512.
    Libm,
    /// The lane loops compiled for the build's baseline, rounding the
    /// approximations and calling libm at the edge.
    Lanes,
    /// The same lane loops compiled for AVX-512 (`Lanes` on a CPU
    /// without it).
    Avx512,
}

impl Kernel {
    /// The kernel the simulator runs: `Avx512` where the CPU has
    /// AVX-512 F, DQ and VL, else `Libm`. Detected once per process.
    pub fn dispatched() -> Kernel {
        static PICKED: OnceLock<Kernel> = OnceLock::new();
        *PICKED.get_or_init(|| if has_avx512() { Kernel::Avx512 } else { Kernel::Libm })
    }

    /// Runs a lane loop as this kernel compiles it: for AVX-512 under
    /// `Avx512` where the CPU has it, else for the baseline.
    pub(crate) fn run(self, lanes: &mut impl LaneLoop) {
        if !(self == Kernel::Avx512 && run_on_avx512(lanes)) {
            lanes.run();
        }
    }
}

/// A loop over a chunk's lanes, written in plain Rust.
///
/// Implementations mark `run` — and everything it calls — as
/// `#[inline(always)]`, so [`run_on_avx512`] compiles the whole body
/// for AVX-512, where the 64-bit SplitMix multiplies vectorize.
pub(crate) trait LaneLoop {
    /// Runs the loop over every lane.
    fn run(&mut self);
}

/// Whether this CPU has the AVX-512 subsets [`run_on_avx512`] enables.
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `lanes` compiled for AVX-512 and returns `true` where the CPU
/// has it; returns `false` without running anything elsewhere.
#[allow(unsafe_code)]
pub(crate) fn run_on_avx512(lanes: &mut impl LaneLoop) -> bool {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: `avx512` enables exactly the features `has_avx512` just detected on this CPU.
        unsafe { avx512(lanes) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lanes;
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn avx512(lanes: &mut impl LaneLoop) {
    lanes.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{round_hits, SeedMixer};
    use std::f64::consts::PI;

    const SWEEP: u64 = 1_000_000;

    fn pow2(e: i32) -> f64 {
        2f64.powi(e)
    }

    /// `SWEEP` uniforms in `[0, 1)`, drawn the way the simulator draws.
    fn uniforms(tag: u64) -> impl Iterator<Item = f64> {
        let root = SeedMixer::new(0xFA57).child(tag);
        (0..SWEEP).map(move |i| root.child(i).unit())
    }

    fn one_ulp_around(v: f64) -> [f64; 3] {
        let below = if v == 0.0 { -f64::from_bits(1) } else { f64::from_bits(v.to_bits() - 1) };
        [below, v, f64::from_bits(v.to_bits() + 1)]
    }

    #[test]
    fn fast_ln_is_within_2_pow_minus_50_relative_of_libm() {
        let edges = [pow2(-53), f64::MIN_POSITIVE, 0.5, 1.0 - pow2(-53)];
        // Plain draws, draws scaled down by up to 2⁻⁶⁰, and draws within
        // 10⁻⁶ of one, where ln is smallest.
        let sweep =
            uniforms(1).zip(0..).flat_map(|(u, i)| [u, u * pow2(-(i % 61)), 1.0 - u * 1e-6]);
        for u in edges.into_iter().chain(sweep) {
            let u = u.max(f64::MIN_POSITIVE);
            let (fast, libm) = (fast_ln(u), u.ln());
            assert!(
                (fast - libm).abs() <= pow2(-50) * libm.abs(),
                "ln({u:e}): {fast:e} vs {libm:e}"
            );
        }
    }

    #[test]
    fn fast_cos_2pi_is_within_2_pow_minus_48_of_libm() {
        let edges = (0..=8).flat_map(|k| one_ulp_around(k as f64 / 8.0));
        for u in edges.chain(uniforms(2)) {
            let (fast, libm) = (fast_cos_2pi(u), (2.0 * PI * u).cos());
            assert!((fast - libm).abs() <= pow2(-48), "cos(2π·{u:e}): {fast:e} vs {libm:e}");
        }
    }

    /// [`fast_cos_2pi`] with its quarter-turn index taken by a
    /// float-to-integer cast, as it was before the shifter.
    fn cos_2pi_by_cast(u: f64) -> f64 {
        let n = (4.0 * u + 0.5) as i64;
        let r = u - 0.25 * n as f64;
        let r2 = r * r;
        let odd = n & 1 != 0;
        let mut p = if odd { SIN_2PI[8] } else { COS_2PI[8] };
        for k in (0..8).rev() {
            p = p * r2 + if odd { SIN_2PI[k] } else { COS_2PI[k] };
        }
        let v = if odd { r * p } else { p };
        let negative = (((n + 1) & 2) as u64) << 62;
        f64::from_bits(v.to_bits() ^ negative)
    }

    /// On `[−⅛, 9⁄8]`, `4u + ½` lies in `[0, 5]`, where truncation is
    /// the floor the shifter takes: same index, same bits.
    #[test]
    fn fast_cos_2pi_indexes_quarter_turns_as_the_cast_did() {
        // Every eighth of a turn, the domain's ends included, ± 1 ulp.
        let edges = (-1..=9)
            .flat_map(|k| one_ulp_around(k as f64 / 8.0))
            .filter(|u| (-0.125..=1.125).contains(u));
        for u in edges.chain(uniforms(2)) {
            assert_eq!(fast_cos_2pi(u).to_bits(), cos_2pi_by_cast(u).to_bits(), "cos(2π·{u:e})");
        }
    }

    #[test]
    fn fast_exp_is_within_2_pow_minus_50_relative_of_libm() {
        let edges = [-64.0, -0.5 * std::f64::consts::LN_2, 0.0, 0.5 * std::f64::consts::LN_2, 40.0];
        let sweep = uniforms(3).map(|u| -64.0 + 104.0 * u);
        for y in edges.into_iter().flat_map(one_ulp_around).chain(sweep) {
            let (fast, libm) = (fast_exp(y), y.exp());
            assert!((fast - libm).abs() <= pow2(-50) * libm, "exp({y:e}): {fast:e} vs {libm:e}");
        }
    }

    /// The δ argument: the approximate hit variate stays within 2⁻⁴² of
    /// libm's, relative, four times inside [`EDGE`] — including at the
    /// largest radius there is, `u₁ = 0` clamped to `MIN_POSITIVE`.
    #[test]
    fn the_approximate_variate_is_within_2_pow_minus_42_of_libms() {
        let hits = |u1: f64, u2: f64| {
            let u1 = u1.max(f64::MIN_POSITIVE);
            let fast = fast_exp(0.9 * ((-2.0 * fast_ln(u1)).sqrt() * fast_cos_2pi(u2)));
            let libm = (0.9 * ((-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos())).exp();
            assert!(
                (fast - libm).abs() <= pow2(-42) * libm,
                "u = ({u1:e}, {u2:e}): {fast:e} vs {libm:e}"
            );
        };
        let root = SeedMixer::new(0xFA57).child(4);
        for i in 0..SWEEP {
            let (u1, u2) = root.child(i).two_units();
            hits(u1, u2);
        }
        for u1 in [0.0, pow2(-53), 0.5, 1.0 - pow2(-53)] {
            for u2 in (0..=8).flat_map(|k| one_ulp_around(k as f64 / 8.0)) {
                hits(u1, u2.clamp(0.0, 1.0 - pow2(-53)));
            }
        }
    }

    /// `x`, `j` doubles away from `k + ½`, and whether it is within
    /// `EDGE·x` of `k + ½`, worked out in whole ulps (the steps stay in
    /// `k + ½`'s binade, or the one below for `k = 0`).
    fn near_half(k: u64, j: i64) -> (f64, bool) {
        let half = k as f64 + 0.5;
        let x = f64::from_bits((half.to_bits() as i64 + j) as u64);
        let step = if j >= 0 { half.to_bits() + 1 } else { half.to_bits() - 1 };
        let ulp = (f64::from_bits(step) - half).abs();
        (x, (j.unsigned_abs() as f64) * ulp <= x * EDGE)
    }

    #[test]
    fn the_rounding_filter_falls_back_exactly_inside_the_edge() {
        let ks = [0, 1, 2, 7, 100, 12_345, 1 << 20, (1 << 31) + 3, u32::MAX as u64 - 1];
        for k in ks {
            for j in [
                0,
                1,
                -1,
                1 << 10,
                -(1 << 10),
                1 << 11,
                -(1 << 11),
                1 << 13,
                -(1 << 13),
                1 << 14,
                -(1 << 14),
            ] {
                let (x, inside) = near_half(k, j);
                let got = round_clear(x);
                assert_eq!(got.is_none(), inside, "x = {x:e} ({j} ulps from {k}.5)");
                // What the filter lets through rounds like everything
                // within 2⁻⁴² of it.
                if let Some(hits) = got {
                    assert_eq!(hits, round_hits(x));
                    for y in [x * (1.0 - pow2(-42)), x * (1.0 + pow2(-42))] {
                        assert_eq!(round_hits(y), hits, "x = {x:e}, y = {y:e}");
                    }
                }
            }
        }
        assert_eq!(round_clear(0.2), Some(1));
        assert_eq!(round_clear(3.0), Some(3));
        assert_eq!(round_clear(4_294_967_295.25), Some(u32::MAX));
        for x in [
            4_294_967_296.0,
            1e12,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.7,
            -f64::MIN_POSITIVE,
        ] {
            assert_eq!(round_clear(x), None, "x = {x:e}");
        }
    }

    #[test]
    fn dispatch_picks_avx512_exactly_where_the_cpu_has_it() {
        let kernel = Kernel::dispatched();
        eprintln!("subscriber-day kernel dispatched on this CPU: {kernel:?}");
        assert_eq!(kernel, if has_avx512() { Kernel::Avx512 } else { Kernel::Libm });
        struct Count(u32);
        impl LaneLoop for Count {
            #[inline(always)]
            fn run(&mut self) {
                self.0 += 1;
            }
        }
        let mut count = Count(0);
        assert_eq!(run_on_avx512(&mut count), has_avx512());
        assert_eq!(count.0, has_avx512() as u32);
    }
}
