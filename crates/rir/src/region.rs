//! RIRs, country codes, and registry milestones.

use core::fmt;

/// The five Regional Internet Registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rir {
    /// American Registry for Internet Numbers (North America).
    Arin,
    /// Réseaux IP Européens NCC (Europe / Middle East / Central Asia).
    Ripe,
    /// Asia-Pacific Network Information Centre.
    Apnic,
    /// Latin America and Caribbean NIC.
    Lacnic,
    /// African NIC.
    Afrinic,
}

impl Rir {
    /// All five registries, in the paper's display order (Figure 3a).
    pub const ALL: [Rir; 5] = [Rir::Arin, Rir::Ripe, Rir::Apnic, Rir::Lacnic, Rir::Afrinic];

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Rir::Arin => "ARIN",
            Rir::Ripe => "RIPE",
            Rir::Apnic => "APNIC",
            Rir::Lacnic => "LACNIC",
            Rir::Afrinic => "AFRINIC",
        }
    }

    /// The month the registry's general free pool exhausted, if it had
    /// by the paper's publication (Figure 1 annotations). `None` for
    /// AFRINIC, which still had free space in 2016.
    pub fn exhaustion(self) -> Option<YearMonth> {
        match self {
            Rir::Apnic => Some(YearMonth::new(2011, 4)),
            Rir::Ripe => Some(YearMonth::new(2012, 9)),
            Rir::Lacnic => Some(YearMonth::new(2014, 6)),
            Rir::Arin => Some(YearMonth::new(2015, 9)),
            Rir::Afrinic => None,
        }
    }

    /// Index in [`Rir::ALL`]; handy for array-keyed accumulators.
    pub fn index(self) -> usize {
        match self {
            Rir::Arin => 0,
            Rir::Ripe => 1,
            Rir::Apnic => 2,
            Rir::Lacnic => 3,
            Rir::Afrinic => 4,
        }
    }
}

impl fmt::Display for Rir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The month IANA's central free pool exhausted (February 2011).
pub const IANA_EXHAUSTION: YearMonth = YearMonth { year: 2011, month: 2 };

/// `(registry, exhaustion month)` for the four exhausted RIRs, in
/// chronological order — Figure 1's annotation set.
pub const RIR_EXHAUSTION: [(Rir, YearMonth); 4] = [
    (Rir::Apnic, YearMonth { year: 2011, month: 4 }),
    (Rir::Ripe, YearMonth { year: 2012, month: 9 }),
    (Rir::Lacnic, YearMonth { year: 2014, month: 6 }),
    (Rir::Arin, YearMonth { year: 2015, month: 9 }),
];

/// ISO 3166-1 alpha-2 country code, stored as two ASCII uppercase bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Creates a code from a 2-letter string. Panics on malformed input
    /// (codes in this project come from a fixed internal vocabulary).
    pub fn new(code: &str) -> Self {
        let b = code.as_bytes();
        assert!(
            b.len() == 2 && b.iter().all(|c| c.is_ascii_uppercase()),
            "invalid country code {code:?}"
        );
        CountryCode([b[0], b[1]])
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        core::str::from_utf8(&self.0).expect("country codes are ASCII")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CountryCode({})", self.as_str())
    }
}

/// A calendar month, used for long-run timelines (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct YearMonth {
    /// Calendar year (e.g. 2015).
    pub year: u16,
    /// Month 1..=12.
    pub month: u8,
}

impl YearMonth {
    /// Creates a month; panics if `month` is not in `1..=12`.
    pub fn new(year: u16, month: u8) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        YearMonth { year, month }
    }

    /// Months elapsed since `earlier` (can be negative).
    pub fn months_since(self, earlier: YearMonth) -> i32 {
        (self.year as i32 - earlier.year as i32) * 12 + (self.month as i32 - earlier.month as i32)
    }

    /// The month `n` months after this one.
    pub fn plus_months(self, n: u32) -> YearMonth {
        let total = (self.year as u32) * 12 + (self.month as u32 - 1) + n;
        YearMonth { year: (total / 12) as u16, month: (total % 12 + 1) as u8 }
    }
}

impl fmt::Display for YearMonth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year, self.month)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rir_all_has_unique_indices() {
        let mut seen = [false; 5];
        for r in Rir::ALL {
            assert!(!seen[r.index()], "duplicate index for {r}");
            seen[r.index()] = true;
            assert_eq!(Rir::ALL[r.index()], r);
        }
    }

    #[test]
    fn exhaustion_dates_are_chronological() {
        for w in RIR_EXHAUSTION.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
        assert!(IANA_EXHAUSTION < RIR_EXHAUSTION[0].1);
        assert_eq!(Rir::Afrinic.exhaustion(), None);
        assert_eq!(Rir::Arin.exhaustion(), Some(YearMonth::new(2015, 9)));
    }

    #[test]
    fn country_code_roundtrip() {
        let us = CountryCode::new("US");
        assert_eq!(us.as_str(), "US");
        assert_eq!(us.to_string(), "US");
        assert_eq!(us, CountryCode::new("US"));
        assert_ne!(us, CountryCode::new("CN"));
    }

    #[test]
    #[should_panic(expected = "invalid country code")]
    fn country_code_rejects_lowercase() {
        CountryCode::new("us");
    }

    #[test]
    fn yearmonth_arithmetic() {
        let jan15 = YearMonth::new(2015, 1);
        let dec15 = YearMonth::new(2015, 12);
        assert_eq!(dec15.months_since(jan15), 11);
        assert_eq!(jan15.months_since(dec15), -11);
        assert_eq!(jan15.plus_months(11), dec15);
        assert_eq!(jan15.plus_months(12), YearMonth::new(2016, 1));
        assert_eq!(jan15.plus_months(0), jan15);
        assert_eq!(YearMonth::new(2008, 1).plus_months(23), YearMonth::new(2009, 12));
    }

    #[test]
    fn yearmonth_ordering_and_display() {
        assert!(YearMonth::new(2014, 12) < YearMonth::new(2015, 1));
        assert_eq!(YearMonth::new(2015, 3).to_string(), "2015-03");
    }
}
