//! The paper's shape claims as one table of bands over the figures'
//! measures. [`Repro::validate`](crate::Repro::validate) runs the suite
//! once and evaluates [`BANDS`] over the measures each figure recorded
//! while it rendered; nothing here computes an analysis.

use crate::FigureRun;
use std::fmt::Write as _;
use Guard::{Absent, When};

/// Outcome of one shape check in [`Repro::validate`](crate::Repro::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The paper-shape invariant held.
    Pass,
    /// The invariant failed; the string explains the measured values.
    Fail(String),
    /// Not enough data at this scale to evaluate the invariant.
    Skip(String),
}

/// One named shape check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Which experiment the check belongs to.
    pub experiment: &'static str,
    /// What shape property is asserted.
    pub claim: &'static str,
    /// The outcome.
    pub outcome: CheckOutcome,
}

/// When a band is not evaluated.
#[derive(Clone, Copy)]
enum Guard {
    /// Always evaluated.
    No,
    /// Not evaluated while any condition holds: then skipped with the
    /// detail (a template, as [`Band::fail`]), or, without one, left out.
    When(&'static [&'static str], Option<&'static str>),
    /// Skipped while a named measure is absent: its figure records it
    /// only where the sample supports it.
    Absent(&'static [&'static str], &'static str),
}

/// One shape claim of the paper: every condition must hold. A
/// condition is `term op term` with `op` one of `>`, `>=`, `<`, `<=`
/// and a term a measure of the band's figure, a number, `k * measure`
/// or `measure + k`.
struct Band {
    experiment: &'static str,
    claim: &'static str,
    guard: Guard,
    all: &'static [&'static str],
    /// The `Fail` detail: `{name}` prints a measure as `{}` does,
    /// `{name:.N}` with `N` decimals.
    fail: &'static str,
}

const fn band(experiment: &'static str, claim: &'static str, all: &'static [&'static str], fail: &'static str) -> Band {
    Band { experiment, claim, guard: Guard::No, all, fail }
}

impl Band {
    const fn unless(self, guard: Guard) -> Band {
        Band { guard, ..self }
    }
}

/// Every executable claim, in report order.
const BANDS: [Band; 22] = [
    band("fig1", "pre-2014 growth is linear (r2 > 0.98)", &["r2 > 0.98"], "r2={r2:.4}"),
    band("fig1", "stagnation onset detected near 2014",
        &["onset_year >= 2014", "onset_year <= 2015"], "onset {onset_year}"),
    band("table1", "distinct IPs over the window exceed the per-day average",
        &["ips_total > 1.1 * ips_avg"], "{ips_total} vs {ips_avg}"),
    band("fig2a", "CDN-only share is large at IP level", &["cdn_only_ip > 0.25"], "{cdn_only_ip:.2}"),
    band("fig2a", "the blind spot shrinks when aggregating to /24s",
        &["cdn_only_24 < cdn_only_ip"], "{cdn_only_24:.2} !< {cdn_only_ip:.2}"),
    band("fig2b", "a substantial share of ICMP-only space is infrastructure",
        &["infrastructure >= 0.15", "infrastructure <= 0.95"], "{infrastructure:.2}")
        .unless(When(&["icmp_only < 50"], Some("only {icmp_only} ICMP-only addrs"))),
    band("fig3b", "ICMP response rate: CN well above JP",
        &["icmp_response_cn > icmp_response_jp + 0.1"], "CN {icmp_response_cn:.2} vs JP {icmp_response_jp:.2}")
        .unless(Absent(&["icmp_response_cn", "icmp_response_jp"], "per-country sample too small at this scale")),
    band("fig4a", "daily churn near the paper's ~8% (3%..25%)",
        &["daily_churn >= 0.03", "daily_churn < 0.25"], "{daily_churn:.3}"),
    band("fig4b", "churn does not decay to zero at larger windows",
        &["up_median_7d > 0.5", "up_median_14d > 0.5"], "median up 7d {up_median_7d:.1}%, 14d {up_median_14d:.1}%"),
    band("fig4c", "year-end drift exceeds 5% and grows",
        &["appear_last > 0.05", "appear_last > appear_first"], "{appear_last:.3}"),
    band("fig5b", "long-window events are bulkier", &["bulky_long > bulky_1d"], "{bulky_long:.2} !> {bulky_1d:.2}")
        .unless(When(&["events_1d < 100", "events_long < 100"], Some("too few events"))),
    band("fig5b", "daily events are dominated by single addresses", &["single_1d > 0.5"], "{single_1d:.2}")
        .unless(When(&["events_1d < 100", "events_long < 100"], None)),
    band("fig5c", "the vast majority of churn is invisible to BGP",
        &["up_pct_long < 25", "down_pct_long < 25"], "up {up_pct_long}% / down {down_pct_long}%"),
    band("table2", "most appearing/disappearing addresses see no BGP change",
        &["appear_no_bgp_change > 0.7", "disappear_no_bgp_change > 0.7"],
        "no BGP change: {appear_no_bgp_change:.3} appear / {disappear_no_bgp_change:.3} disappear"),
    band("fig8a", "most blocks are stable within ±0.25 STU",
        &["major_fraction >= 0", "major_fraction < 0.5"], "{major_fraction:.3}"),
    band("fig8b", "static blocks fill less than dynamic blocks",
        &["static_p50 < dynamic_p50"], "static p50 {static_p50} vs dynamic p50 {dynamic_p50}")
        .unless(When(&["tagged_static < 5", "tagged_dynamic < 5"], Some("too few tagged blocks"))),
    band("fig8c", "highly-filled pools skew to high utilization",
        &["high_stu_fraction > 0.3"], "{high_stu_fraction:.2}")
        .unless(When(&["high_fd_blocks < 10"], Some("only {high_fd_blocks} high-FD blocks"))),
    band("fig9b", "always-on addresses out-earn their headcount",
        &["always_on_traffic > 2 * always_on_ips"], "{always_on_traffic:.2} !> 2x {always_on_ips:.2}"),
    band("fig9c", "top-decile traffic share rises over the year",
        &["share_last > share_first"], "{share_first:.3} -> {share_last:.3}"),
    band("fig10", "traffic and host diversity correlate", &["log_correlation > 0.2"], "r={log_correlation:.2}")
        .unless(Absent(&["log_correlation"], "not enough UA data")),
    band("fig10", "a gateway corner exists", &["gateways > 0"], "{gateways} gateways of {ua_blocks}")
        .unless(When(&["ua_blocks < 50"], Some("too few blocks with samples"))),
    band("fig11", "STU distribution is bimodal (mass in both extremes)",
        &["10 * low_stu > blocks", "10 * high_stu > blocks"], "{low_stu} low and {high_stu} high of {blocks} blocks")
        .unless(When(&["blocks < 50"], Some("only {blocks} blocks"))),
];

/// The name of a measure a band reads but its figure did not record.
type Missing = &'static str;

type Measures = [(&'static str, f64)];

fn get(m: &Measures, name: &'static str) -> Result<f64, Missing> {
    m.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).ok_or(name)
}

/// A number, a measure, `k * measure` or `measure + k`.
fn term(expr: &'static str, m: &Measures) -> Result<f64, Missing> {
    let atom = |t: &'static str| t.parse().map_or_else(|_| get(m, t), Ok);
    if let Some((k, name)) = expr.split_once(" * ") {
        Ok(atom(k)? * atom(name)?)
    } else if let Some((name, k)) = expr.split_once(" + ") {
        Ok(atom(name)? + atom(k)?)
    } else {
        atom(expr)
    }
}

/// Whether one condition (see [`Band`]) holds.
fn holds(cond: &'static str, m: &Measures) -> Result<bool, Missing> {
    let (lhs, op, rhs) = [" >= ", " <= ", " > ", " < "]
        .into_iter()
        .find_map(|op| cond.split_once(op).map(|(l, r)| (l, op, r)))
        .expect("a condition compares two terms");
    let (a, b) = (term(lhs, m)?, term(rhs, m)?);
    Ok(match op {
        " >= " => a >= b,
        " <= " => a <= b,
        " > " => a > b,
        _ => a < b,
    })
}

/// Whether every condition in `conds` holds (all are read, so a measure
/// missing from a later one shows even when an earlier one fails).
fn all_hold(conds: &'static [&'static str], m: &Measures) -> Result<bool, Missing> {
    conds.iter().try_fold(true, |acc, &c| Ok(holds(c, m)? && acc))
}

impl Band {
    /// The band's outcome over its figure's measures: `None` when its
    /// guard leaves it out.
    fn evaluate(&self, m: &Measures) -> Result<Option<CheckOutcome>, Missing> {
        match self.guard {
            Guard::No => {}
            When(conds, detail) => {
                for &cond in conds {
                    if holds(cond, m)? {
                        return detail.map(|d| render(d, m).map(CheckOutcome::Skip)).transpose();
                    }
                }
            }
            Absent(names, detail) => {
                if names.iter().any(|&name| get(m, name).is_err()) {
                    return Ok(Some(CheckOutcome::Skip(detail.into())));
                }
            }
        }
        Ok(Some(if all_hold(self.all, m)? { CheckOutcome::Pass } else { CheckOutcome::Fail(render(self.fail, m)?) }))
    }
}

/// Fills a detail template with measures (see [`Band::fail`]).
fn render(template: &'static str, m: &Measures) -> Result<String, Missing> {
    let mut out = String::new();
    let mut rest = template;
    while let Some((text, tail)) = rest.split_once('{') {
        let (spec, tail) = tail.split_once('}').expect("a detail placeholder is closed");
        out.push_str(text);
        let (name, digits) = spec.split_once(":.").map_or((spec, None), |(n, d)| (n, Some(d)));
        let v = get(m, name)?;
        let _ = match digits {
            Some(d) => write!(out, "{v:.*}", d.parse::<usize>().expect("decimals are a number")),
            None => write!(out, "{v}"),
        };
        rest = tail;
    }
    out.push_str(rest);
    Ok(out)
}

/// Evaluates every band over the suite's records, in table order. A
/// measure a band reads and its figure did not record fails the band.
pub(crate) fn evaluate(figures: &[FigureRun]) -> Vec<Check> {
    BANDS
        .iter()
        .filter_map(|band| {
            let figure = figures.iter().find(|f| f.name == band.experiment).expect("the suite records every experiment");
            let outcome = band.evaluate(&figure.measures).unwrap_or_else(|name| {
                Some(CheckOutcome::Fail(format!("{}.{name} was not measured", band.experiment)))
            })?;
            Some(Check { experiment: band.experiment, claim: band.claim, outcome })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Repro, Scale, EXPERIMENTS};

    #[test]
    fn every_band_reads_only_measures_its_figure_records_at_tiny_scale() {
        let suite = Repro::new(0xCAFE, Scale::Tiny).run_all(2);
        for band in &BANDS {
            assert!(EXPERIMENTS.contains(&band.experiment));
            let m = &suite.figures.iter().find(|f| f.name == band.experiment).unwrap().measures;
            let at = |what: &str, r: Result<(), Missing>| {
                if let Err(name) = r {
                    panic!("{} `{}`: {what} reads {name}, which the figure did not record", band.experiment, band.claim);
                }
            };
            at("the evaluation", band.evaluate(m).map(drop));
            match band.guard {
                Absent(names, _) if names.iter().any(|&n| get(m, n).is_err()) => continue,
                When(conds, detail) => {
                    for &cond in conds {
                        at("the guard", holds(cond, m).map(drop));
                    }
                    if let Some(d) = detail {
                        at("the skip detail", render(d, m).map(drop));
                    }
                }
                _ => {}
            }
            at("a condition", all_hold(band.all, m).map(drop));
            at("the fail detail", render(band.fail, m).map(drop));
        }
    }

    #[test]
    fn a_missing_measure_fails_its_band_unless_absence_means_skip() {
        let empty: Vec<FigureRun> = EXPERIMENTS
            .iter()
            .map(|&name| FigureRun { name, output: String::new(), measures: Vec::new() })
            .collect();
        let checks = evaluate(&empty);
        assert_eq!(checks.len(), BANDS.len(), "a guard left a row out over missing measures");
        for (band, check) in BANDS.iter().zip(checks) {
            assert_eq!(check.claim, band.claim);
            match band.guard {
                Absent(..) => assert!(matches!(check.outcome, CheckOutcome::Skip(_)), "{}", band.claim),
                _ => assert!(
                    matches!(&check.outcome, CheckOutcome::Fail(d) if d.ends_with("was not measured")),
                    "{}: {:?}",
                    band.claim,
                    check.outcome
                ),
            }
        }
    }

    #[test]
    fn comparisons_keep_their_strictness() {
        let fig11 = BANDS.iter().find(|b| b.experiment == "fig11").unwrap();
        let at = |low: f64| fig11.evaluate(&[("blocks", 100.0), ("low_stu", low), ("high_stu", 50.0)]);
        assert_eq!(at(10.0), Ok(Some(CheckOutcome::Fail("10 low and 50 high of 100 blocks".into()))));
        assert_eq!(at(11.0), Ok(Some(CheckOutcome::Pass)));
        let passes = |experiment: &str, m: &Measures| {
            let band = BANDS.iter().find(|b| b.experiment == experiment).unwrap();
            band.evaluate(m).unwrap() == Some(CheckOutcome::Pass)
        };
        for (churn, pass) in [(0.03, true), (0.25, false), (0.0299, false)] {
            assert_eq!(passes("fig4a", &[("daily_churn", churn)]), pass, "daily churn {churn}");
        }
        for (infra, pass) in [(0.15, true), (0.95, true), (0.96, false)] {
            assert_eq!(passes("fig2b", &[("icmp_only", 50.0), ("infrastructure", infra)]), pass, "{infra}");
        }
        for (cn, pass) in [(0.61, true), (0.6, false)] {
            let m = [("icmp_response_cn", cn), ("icmp_response_jp", 0.5)];
            assert_eq!(passes("fig3b", &m), pass, "CN {cn}");
        }
    }
}
