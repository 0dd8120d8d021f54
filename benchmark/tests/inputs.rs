//! Request streams and window panels are a pure function of the seed.

use ipactive_benchmark::inputs::{window_panel, RequestStream};
use ipactive_net::Block24;
use ipactive_serve::QueryKind;

fn stream(seed: u64) -> RequestStream {
    let blocks = (0..40).map(|i| Block24::new(0x0A_0000 + i * 3)).collect();
    RequestStream::new(seed, 112, 16, blocks)
}

#[test]
fn the_request_stream_is_a_pure_function_of_the_seed() {
    let a: Vec<QueryKind> = stream(7).take(5_000).collect();
    let b: Vec<QueryKind> = stream(7).take(5_000).collect();
    let c: Vec<QueryKind> = stream(8).take(5_000).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn every_request_is_answerable_exactly_and_the_mix_is_70_20_10() {
    let (mut day, mut week, mut prefix) = (0, 0, 0);
    for kind in stream(2015).take(100_000) {
        match kind {
            QueryKind::DayWindow { start, end } => {
                assert!(start < end && end <= 112);
                day += 1;
            }
            QueryKind::WeekWindow { start, end } => {
                assert!(start < end && end <= 16);
                week += 1;
            }
            QueryKind::PrefixCount { base, len } => {
                assert!((8..=24).contains(&len));
                assert!((0x0A00_0000..0x0A00_0000 + (120 << 8)).contains(&base));
                prefix += 1;
            }
            other => panic!("the stream never asks for {other:?}"),
        }
    }
    assert!((69_000..71_000).contains(&day), "{day} day windows");
    assert!((19_000..21_000).contains(&week), "{week} week windows");
    assert!((9_000..11_000).contains(&prefix), "{prefix} prefix counts");
}

#[test]
fn the_window_panel_is_a_pure_function_of_the_seed() {
    let a = window_panel(7, 84, 256);
    assert_eq!(a, window_panel(7, 84, 256));
    assert_ne!(a, window_panel(8, 84, 256));
    assert_eq!(a.len(), 256);
    let distinct: std::collections::BTreeSet<_> = a.iter().collect();
    assert_eq!(distinct.len(), 256);
    assert!(a.iter().all(|&(s, e)| e - s >= 2 && e <= 84));
    // A panel may be the whole window space.
    assert_eq!(window_panel(1, 5, 10).len(), 10);
}
