//! User-Agent string synthesis.
//!
//! The paper samples one in ~4K HTTP `User-Agent` headers and uses the
//! number of *distinct* strings per `/24` as a relative host count
//! (Section 6.3). The dataset layer stores 64-bit hashes (distinctness
//! is all the analyses need), but the strings themselves are modelled
//! here: every subscriber device renders a concrete, realistic header,
//! and the hash stored in the dataset is the FNV-1a hash of that
//! rendered string — so two devices collide exactly when their strings
//! are identical, as in reality.

use crate::behavior::SeedMixer;

/// Browser/OS templates for conventional devices (the "canonical case"
/// of the paper: browser + OS + platform).
const BROWSER_TEMPLATES: [&str; 6] = [
    "Mozilla/5.0 (Windows NT {v}.0; Win64; x64) AppleWebKit/537.36 Chrome/{v}{v}.0 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_{v}) AppleWebKit/600.{v} Safari/600.{v}",
    "Mozilla/5.0 (Windows NT 6.{v}; rv:{v}{v}.0) Gecko/20100101 Firefox/{v}{v}.0",
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 Chromium/{v}{v}.0",
    "Mozilla/5.0 (iPhone; CPU iPhone OS 9_{v} like Mac OS X) Version/9.{v} Mobile Safari/601.1",
    "Mozilla/5.0 (Linux; Android 5.{v}; SM-G{v}00) AppleWebKit/537.36 Mobile Chrome/{v}{v}.0",
];

/// App-style identifiers (the "much higher diversity in these strings"
/// the paper attributes to smartphone applications).
const APP_TEMPLATES: [&str; 8] = [
    "NewsReader/{v}.{v}.0 (iOS; in-app)",
    "WeatherNow/{v}.{v} CFNetwork/758.{v} Darwin/15.0.0",
    "ShopApp/{v}.{v}.{v} Android/5.{v}",
    "Mail/{v}.{v} (Mobile; rv:{v})",
    "VideoBox/{v}.0 (SmartTV; Tizen 2.{v})",
    "GameHub/{v}.{v} Unity/5.{v}.1",
    "PodCatcher/{v}.{v} (okhttp/3.{v})",
    "FitTracker/{v}.{v}.{v} (watchOS 2.{v})",
];

/// Crawler self-identifications (one string, huge volume — Figure 10's
/// bottom-right corner).
const BOT_TEMPLATES: [&str; 4] = [
    "SearchSpider/2.1 (+http://search.example/bot.html)",
    "IndexBot/1.0 (+http://crawler.example)",
    "FeedFetcher/3.3 (aggregator.example; 30 subscribers)",
    "ArchiveCrawler/0.9 (+http://archive.example/policy)",
];

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(0x1000_0000_01B3)
}

/// Hands `emit` the bytes of `template` with each `{v}` replaced by a
/// digit derived from the seed path, so the same (device, app) always
/// renders the same string. A `{` in a template only ever opens a
/// `{v}` (a unit test holds the tables to that).
fn fill(template: &str, seed: SeedMixer, mut emit: impl FnMut(u8)) {
    let mut placeholders = 0u64;
    let mut bytes = template.bytes();
    while let Some(b) = bytes.next() {
        if b == b'{' {
            bytes.nth(1); // the `v}` of the placeholder
            emit(b'1' + (seed.child(placeholders).value() % 9) as u8);
            placeholders += 1;
        } else {
            emit(b);
        }
    }
}

/// The template and digit seed of one (subscriber, device, app)
/// combination. `app == 0` is the device's browser; higher app indices
/// are app-specific identifiers.
fn template_of(subscriber_key: u64, device: u64, app: u64) -> (&'static str, SeedMixer) {
    let m = SeedMixer::new(subscriber_key).child(device);
    if app == 0 {
        let t = BROWSER_TEMPLATES[(m.value() % BROWSER_TEMPLATES.len() as u64) as usize];
        (t, m.child(0x0B))
    } else {
        let t = APP_TEMPLATES[((m.child(app).value()) % APP_TEMPLATES.len() as u64) as usize];
        (t, m.child(app).child(0x0A))
    }
}

fn bot_template(bot_key: u64) -> &'static str {
    BOT_TEMPLATES[(bot_key % BOT_TEMPLATES.len() as u64) as usize]
}

/// Renders the User-Agent string of one (subscriber, device, app)
/// combination. `app == 0` renders the device's browser; higher app
/// indices render app-specific identifiers.
pub fn render(subscriber_key: u64, device: u64, app: u64) -> String {
    let (template, seed) = template_of(subscriber_key, device, app);
    let mut out = String::with_capacity(template.len());
    fill(template, seed, |b| out.push(char::from(b)));
    out
}

/// [`hash`] of [`render`]'s string, computed over the template pieces
/// and digits as they come — what the simulator stores per sample,
/// without building the string (`tests/prop.rs` holds the two equal).
pub fn render_hash(subscriber_key: u64, device: u64, app: u64) -> u64 {
    let (template, seed) = template_of(subscriber_key, device, app);
    let mut h = FNV_OFFSET;
    fill(template, seed, |b| h = fnv1a(h, b));
    h
}

/// Renders a crawler's User-Agent string.
pub fn render_bot(bot_key: u64) -> String {
    bot_template(bot_key).to_string()
}

/// [`hash`] of [`render_bot`]'s string.
pub fn render_bot_hash(bot_key: u64) -> u64 {
    hash(bot_template(bot_key))
}

/// FNV-1a hash of a User-Agent string — the form stored in log
/// records and datasets.
pub fn hash(ua: &str) -> u64 {
    ua.bytes().fold(FNV_OFFSET, fnv1a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render(42, 0, 0), render(42, 0, 0));
        assert_eq!(render(42, 1, 3), render(42, 1, 3));
        assert_eq!(render_bot(7), render_bot(7));
    }

    #[test]
    fn devices_and_apps_render_distinct_strings() {
        let mut seen = HashSet::new();
        for device in 0..3u64 {
            for app in 0..4u64 {
                seen.insert(render(99, device, app));
            }
        }
        // Some app collisions are allowed (shared templates), but the
        // population must be diverse.
        assert!(seen.len() >= 8, "only {} distinct strings", seen.len());
    }

    #[test]
    fn no_unfilled_placeholders() {
        for key in 0..50u64 {
            let ua = render(key, key % 3, key % 5);
            assert!(!ua.contains("{v}"), "unfilled template: {ua}");
            assert!(ua.is_ascii());
            assert!(!ua.is_empty());
        }
    }

    #[test]
    fn a_brace_in_a_template_only_opens_a_placeholder() {
        for t in BROWSER_TEMPLATES.iter().chain(&APP_TEMPLATES).chain(&BOT_TEMPLATES) {
            assert_eq!(t.matches('{').count(), t.matches("{v}").count(), "{t}");
            assert!(t.is_ascii());
        }
    }

    #[test]
    fn browsers_look_like_browsers_and_apps_like_apps() {
        // App 0 is always a Mozilla-style browser string.
        for key in 0..20u64 {
            assert!(render(key, 0, 0).starts_with("Mozilla/5.0"), "key {key}");
        }
        // Bots identify themselves with a crawler URL or product tag.
        for key in 0..8u64 {
            let b = render_bot(key);
            assert!(b.contains("example"), "bot {b}");
        }
    }

    #[test]
    fn hash_distinguishes_strings() {
        let a = hash("Mozilla/5.0 (X11; Linux x86_64)");
        let b = hash("Mozilla/5.0 (X11; Linux x86_65)");
        assert_ne!(a, b);
        assert_eq!(hash(""), 0xCBF2_9CE4_8422_2325);
        // Stable across calls.
        assert_eq!(hash("abc"), hash("abc"));
    }

    #[test]
    fn subscriber_population_hash_diversity() {
        // 100 subscribers × 2 devices × 3 apps: hashes should be
        // nearly collision-free.
        let mut hashes = HashSet::new();
        let mut strings = HashSet::new();
        for sub in 0..100u64 {
            let key = SeedMixer::new(sub).value();
            for device in 0..2 {
                for app in 0..3 {
                    let ua = render(key, device, app);
                    strings.insert(ua.clone());
                    hashes.insert(hash(&ua));
                }
            }
        }
        assert_eq!(hashes.len(), strings.len(), "hash collisions on distinct strings");
        assert!(strings.len() > 150, "only {} distinct strings", strings.len());
    }
}
