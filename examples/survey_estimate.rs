//! Census-by-survey: combine a Heidemann-style sampled ICMP survey
//! with the CDN's passive view and a capture/recapture model to
//! estimate the total active population — the measurement-practice
//! discussion of the paper's Sections 3 and 8 ("boding well for future
//! use of such statistical models and techniques driven by sampled
//! observation").
//!
//! ```sh
//! cargo run --release --example survey_estimate
//! ```

use ipactive::cdnsim::{Universe, UniverseConfig};
use ipactive::core::{stats, visibility, SlotMatrix};
use ipactive::net::AddrSet;
use ipactive::probe::{IcmpScanner, ScanCampaign};

fn main() {
    let universe = Universe::generate(UniverseConfig::small(77));
    let daily = universe.build_daily();
    let cdn: AddrSet = daily.all_active();
    println!("CDN passive view: {} active addresses", cdn.len());

    // Full 8-scan campaign (the paper's ICMP reference).
    let full = ScanCampaign::new(5, 8).run_union(&universe);
    let split = visibility::split_addrs(&cdn, &full);
    println!(
        "full ICMP campaign: {} responders ({:.0}% CDN-only remain invisible to it)",
        full.len(),
        100.0 * split.cdn_only_fraction()
    );

    // Sampled surveys at decreasing fractions: how well does a 1%
    // probe panel recover the full campaign's count?
    println!("\nsampled surveys (single sweep, fixed panel):");
    println!("  {:>9} {:>10} {:>14} {:>9}", "fraction", "responders", "extrapolated", "error");
    let scanner = IcmpScanner::new(5);
    let full_single = scanner.scan(&universe, 0);
    for fraction in [0.5, 0.25, 0.1, 0.01] {
        let sample = scanner.scan_sample(&universe, 0, fraction);
        let extrapolated = sample.len() as f64 / fraction;
        let err = 100.0 * (extrapolated - full_single.len() as f64) / full_single.len() as f64;
        println!(
            "  {:>8.0}% {:>10} {:>14.0} {:>8.1}%",
            fraction * 100.0,
            sample.len(),
            extrapolated,
            err
        );
    }

    // Capture/recapture: treat CDN and ICMP as two sightings of the
    // same population; extrapolate the part invisible to both.
    println!("\ncapture/recapture population estimates:");
    let overlap = cdn.intersect_len(&full) as u64;
    let union = cdn.union(&full).len();
    if let Some(lp) = stats::lincoln_petersen(cdn.len() as u64, full.len() as u64, overlap) {
        println!("  Lincoln–Petersen: {:.0}", lp);
    }
    println!("  Chapman        : {:.0}", stats::chapman(cdn.len() as u64, full.len() as u64, overlap));
    println!("  union observed : {union}");
    println!(
        "\n(the estimate exceeds the union: the overlap pattern implies hosts\n\
         invisible to both methods — the paper's caveat about every remote\n\
         census applies: the two 'captures' are not truly independent.)"
    );
}
