//! Country codes with centroid coordinates and population weights.
//!
//! The table below lists 250 ISO-3166-1-alpha-2-style codes. Coordinates
//! are rough country centroids (degrees) — accurate enough to render the
//! Figure 2/5-style maps and to derive geohashes; they make no claim to
//! surveying precision. The `weight` column is a coarse relative population
//! used when synthesising city universes and client address distributions.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A two-letter country code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Builds a code from two ASCII letters; lower case is folded to upper.
    pub fn new(code: &str) -> Option<CountryCode> {
        let [a, b] = code.as_bytes() else {
            return None;
        };
        let a = a.to_ascii_uppercase();
        let b = b.to_ascii_uppercase();
        if !a.is_ascii_uppercase() || !b.is_ascii_uppercase() {
            return None;
        }
        Some(CountryCode([a, b]))
    }

    /// The United States — the paper's dominant egress location (58 %).
    pub const US: CountryCode = CountryCode(*b"US");
    /// Germany — the second-largest egress location (3.6 %).
    pub const DE: CountryCode = CountryCode(*b"DE");

    /// Parses a compile-time two-letter code, panicking on invalid input.
    ///
    /// For static tables only; never call this on runtime input — use
    /// [`CountryCode::new`] and handle the `None`.
    #[expect(
        clippy::expect_used,
        reason = "documented literal-only constructor; the single sanctioned panic site for static country codes"
    )]
    pub fn literal(code: &str) -> CountryCode {
        CountryCode::new(code).expect("invalid CountryCode literal")
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        // Constructed from validated ASCII; the fallback is unreachable.
        std::str::from_utf8(&self.0).unwrap_or("??")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Debug for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl FromStr for CountryCode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CountryCode::new(s).ok_or_else(|| format!("invalid country code {s:?}"))
    }
}

impl TryFrom<String> for CountryCode {
    type Error = String;
    fn try_from(s: String) -> Result<Self, String> {
        s.parse()
    }
}

impl From<CountryCode> for String {
    fn from(c: CountryCode) -> String {
        c.as_str().to_string()
    }
}

/// Static information about one country.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountryInfo {
    /// The two-letter code.
    pub code: CountryCode,
    /// Approximate centroid latitude, degrees.
    pub lat: f64,
    /// Approximate centroid longitude, degrees.
    pub lon: f64,
    /// Coarse relative population weight (arbitrary units).
    pub weight: f64,
}

/// `(code, lat, lon, weight)` rows; weight is a coarse population proxy.
const TABLE: &[(&str, f64, f64, f64)] = &[
    // Americas
    ("US", 39.8, -98.6, 331.0),
    ("CA", 56.1, -106.3, 38.0),
    ("MX", 23.6, -102.5, 128.0),
    ("BR", -14.2, -51.9, 213.0),
    ("AR", -38.4, -63.6, 45.0),
    ("CL", -35.7, -71.5, 19.0),
    ("CO", 4.6, -74.3, 51.0),
    ("PE", -9.2, -75.0, 33.0),
    ("VE", 6.4, -66.6, 28.0),
    ("EC", -1.8, -78.2, 18.0),
    ("BO", -16.3, -63.6, 12.0),
    ("PY", -23.4, -58.4, 7.0),
    ("UY", -32.5, -55.8, 3.5),
    ("GY", 4.9, -58.9, 0.8),
    ("SR", 3.9, -56.0, 0.6),
    ("GF", 3.9, -53.1, 0.3),
    ("PA", 8.5, -80.8, 4.3),
    ("CR", 9.7, -83.8, 5.1),
    ("NI", 12.9, -85.2, 6.6),
    ("HN", 15.2, -86.2, 10.0),
    ("SV", 13.8, -88.9, 6.5),
    ("GT", 15.8, -90.2, 17.0),
    ("BZ", 17.2, -88.5, 0.4),
    ("CU", 21.5, -77.8, 11.0),
    ("DO", 18.7, -70.2, 10.8),
    ("HT", 19.0, -72.3, 11.4),
    ("JM", 18.1, -77.3, 3.0),
    ("TT", 10.7, -61.2, 1.4),
    ("BB", 13.2, -59.5, 0.3),
    ("BS", 25.0, -77.4, 0.4),
    ("KN", 17.3, -62.7, 0.05),
    ("LC", 13.9, -61.0, 0.18),
    ("VC", 13.3, -61.2, 0.11),
    ("GD", 12.1, -61.7, 0.11),
    ("AG", 17.1, -61.8, 0.1),
    ("DM", 15.4, -61.4, 0.07),
    ("PR", 18.2, -66.4, 3.2),
    ("VI", 18.3, -64.9, 0.1),
    ("VG", 18.4, -64.6, 0.03),
    ("KY", 19.3, -81.3, 0.07),
    ("BM", 32.3, -64.8, 0.06),
    ("AW", 12.5, -70.0, 0.11),
    ("CW", 12.2, -69.0, 0.16),
    ("SX", 18.0, -63.1, 0.04),
    ("TC", 21.7, -71.8, 0.04),
    ("AI", 18.2, -63.1, 0.02),
    ("MS", 16.7, -62.2, 0.005),
    ("GP", 16.3, -61.6, 0.4),
    ("MQ", 14.6, -61.0, 0.37),
    ("BQ", 12.2, -68.3, 0.03),
    ("FK", -51.8, -59.5, 0.003),
    ("GL", 71.7, -42.6, 0.06),
    ("PM", 46.9, -56.3, 0.006),
    // Europe
    ("DE", 51.2, 10.4, 83.0),
    ("GB", 55.4, -3.4, 67.0),
    ("FR", 46.2, 2.2, 67.0),
    ("IT", 41.9, 12.6, 60.0),
    ("ES", 40.5, -3.7, 47.0),
    ("PT", 39.4, -8.2, 10.0),
    ("NL", 52.1, 5.3, 17.5),
    ("BE", 50.5, 4.5, 11.6),
    ("LU", 49.8, 6.1, 0.6),
    ("CH", 46.8, 8.2, 8.7),
    ("AT", 47.5, 14.6, 9.0),
    ("PL", 51.9, 19.1, 38.0),
    ("CZ", 49.8, 15.5, 10.7),
    ("SK", 48.7, 19.7, 5.5),
    ("HU", 47.2, 19.5, 9.7),
    ("RO", 45.9, 25.0, 19.0),
    ("BG", 42.7, 25.5, 6.9),
    ("GR", 39.1, 21.8, 10.4),
    ("SE", 60.1, 18.6, 10.4),
    ("NO", 60.5, 8.5, 5.4),
    ("DK", 56.3, 9.5, 5.8),
    ("FI", 61.9, 25.7, 5.5),
    ("IS", 64.9, -19.0, 0.37),
    ("IE", 53.4, -8.2, 5.0),
    ("EE", 58.6, 25.0, 1.3),
    ("LV", 56.9, 24.6, 1.9),
    ("LT", 55.2, 23.9, 2.8),
    ("UA", 48.4, 31.2, 44.0),
    ("BY", 53.7, 28.0, 9.4),
    ("MD", 47.4, 28.4, 2.6),
    ("RU", 61.5, 105.3, 146.0),
    ("RS", 44.0, 21.0, 6.9),
    ("HR", 45.1, 15.2, 4.0),
    ("SI", 46.2, 14.8, 2.1),
    ("BA", 43.9, 17.7, 3.3),
    ("ME", 42.7, 19.4, 0.6),
    ("MK", 41.6, 21.7, 2.1),
    ("AL", 41.2, 20.2, 2.8),
    ("XK", 42.6, 20.9, 1.8),
    ("TR", 39.0, 35.2, 84.0),
    ("CY", 35.1, 33.4, 1.2),
    ("MT", 35.9, 14.4, 0.5),
    ("AD", 42.5, 1.6, 0.08),
    ("MC", 43.7, 7.4, 0.04),
    ("SM", 43.9, 12.5, 0.03),
    ("VA", 41.9, 12.5, 0.001),
    ("LI", 47.2, 9.6, 0.04),
    ("GI", 36.1, -5.4, 0.03),
    ("JE", 49.2, -2.1, 0.1),
    ("GG", 49.5, -2.6, 0.07),
    ("IM", 54.2, -4.5, 0.08),
    ("FO", 62.0, -6.9, 0.05),
    ("AX", 60.2, 20.0, 0.03),
    ("SJ", 77.6, 16.0, 0.003),
    // Middle East & Central Asia
    ("IL", 31.0, 34.9, 9.3),
    ("PS", 31.9, 35.2, 5.1),
    ("JO", 30.6, 36.2, 10.2),
    ("LB", 33.9, 35.9, 6.8),
    ("SY", 34.8, 39.0, 17.5),
    ("IQ", 33.2, 43.7, 40.0),
    ("IR", 32.4, 53.7, 84.0),
    ("SA", 23.9, 45.1, 35.0),
    ("AE", 23.4, 53.8, 9.9),
    ("QA", 25.4, 51.2, 2.9),
    ("KW", 29.3, 47.5, 4.3),
    ("BH", 26.0, 50.5, 1.7),
    ("OM", 21.5, 55.9, 5.1),
    ("YE", 15.6, 48.0, 30.0),
    ("GE", 42.3, 43.4, 3.7),
    ("AM", 40.1, 45.0, 3.0),
    ("AZ", 40.1, 47.6, 10.1),
    ("KZ", 48.0, 66.9, 19.0),
    ("UZ", 41.4, 64.6, 34.0),
    ("TM", 38.9, 59.6, 6.0),
    ("KG", 41.2, 74.8, 6.6),
    ("TJ", 38.9, 71.3, 9.5),
    ("AF", 33.9, 67.7, 39.0),
    // South & East Asia
    ("IN", 20.6, 79.0, 1380.0),
    ("PK", 30.4, 69.3, 221.0),
    ("BD", 23.7, 90.4, 165.0),
    ("LK", 7.9, 80.8, 22.0),
    ("NP", 28.4, 84.1, 29.0),
    ("BT", 27.5, 90.4, 0.8),
    ("MV", 3.2, 73.2, 0.5),
    ("CN", 35.9, 104.2, 1402.0),
    ("JP", 36.2, 138.3, 126.0),
    ("KR", 35.9, 127.8, 52.0),
    ("KP", 40.3, 127.5, 26.0),
    ("TW", 23.7, 121.0, 24.0),
    ("HK", 22.4, 114.1, 7.5),
    ("MO", 22.2, 113.5, 0.7),
    ("MN", 46.9, 103.8, 3.3),
    ("TH", 15.9, 101.0, 70.0),
    ("VN", 14.1, 108.3, 97.0),
    ("KH", 12.6, 105.0, 17.0),
    ("LA", 19.9, 102.5, 7.3),
    ("MM", 21.9, 95.9, 54.0),
    ("MY", 4.2, 102.0, 32.0),
    ("SG", 1.35, 103.8, 5.7),
    ("ID", -0.8, 113.9, 274.0),
    ("PH", 12.9, 121.8, 110.0),
    ("BN", 4.5, 114.7, 0.44),
    ("TL", -8.9, 125.7, 1.3),
    // Oceania
    ("AU", -25.3, 133.8, 26.0),
    ("NZ", -40.9, 174.9, 5.1),
    ("PG", -6.3, 143.9, 9.0),
    ("FJ", -17.7, 178.0, 0.9),
    ("SB", -9.6, 160.2, 0.7),
    ("VU", -15.4, 166.9, 0.3),
    ("NC", -20.9, 165.6, 0.27),
    ("PF", -17.7, -149.4, 0.28),
    ("WS", -13.8, -172.1, 0.2),
    ("TO", -21.2, -175.2, 0.1),
    ("KI", 1.9, -157.4, 0.12),
    ("FM", 7.4, 150.5, 0.11),
    ("MH", 7.1, 171.2, 0.06),
    ("PW", 7.5, 134.6, 0.018),
    ("NR", -0.5, 166.9, 0.011),
    ("TV", -7.1, 177.6, 0.011),
    ("CK", -21.2, -159.8, 0.017),
    ("NU", -19.1, -169.9, 0.002),
    ("TK", -9.2, -171.8, 0.0013),
    ("WF", -13.8, -177.2, 0.011),
    ("AS", -14.3, -170.7, 0.055),
    ("GU", 13.4, 144.8, 0.17),
    ("MP", 15.1, 145.7, 0.057),
    ("NF", -29.0, 168.0, 0.002),
    ("CX", -10.4, 105.7, 0.002),
    ("CC", -12.2, 96.9, 0.0006),
    // Africa
    ("EG", 26.8, 30.8, 102.0),
    ("LY", 26.3, 17.2, 6.9),
    ("TN", 33.9, 9.5, 11.8),
    ("DZ", 28.0, 1.7, 44.0),
    ("MA", 31.8, -7.1, 37.0),
    ("EH", 24.2, -12.9, 0.6),
    ("MR", 21.0, -10.9, 4.6),
    ("ML", 17.6, -4.0, 20.0),
    ("NE", 17.6, 8.1, 24.0),
    ("TD", 15.5, 18.7, 16.0),
    ("SD", 12.9, 30.2, 44.0),
    ("SS", 7.3, 30.0, 11.0),
    ("ER", 15.2, 39.8, 3.5),
    ("ET", 9.1, 40.5, 115.0),
    ("DJ", 11.8, 42.6, 1.0),
    ("SO", 5.2, 46.2, 16.0),
    ("KE", -0.02, 37.9, 54.0),
    ("UG", 1.4, 32.3, 46.0),
    ("RW", -1.9, 29.9, 13.0),
    ("BI", -3.4, 29.9, 12.0),
    ("TZ", -6.4, 34.9, 60.0),
    ("MZ", -18.7, 35.5, 31.0),
    ("MW", -13.3, 34.3, 19.0),
    ("ZM", -13.1, 27.8, 18.0),
    ("ZW", -19.0, 29.2, 15.0),
    ("BW", -22.3, 24.7, 2.4),
    ("NA", -22.96, 18.5, 2.5),
    ("ZA", -30.6, 22.9, 59.0),
    ("LS", -29.6, 28.2, 2.1),
    ("SZ", -26.5, 31.5, 1.2),
    ("AO", -11.2, 17.9, 33.0),
    ("CD", -4.0, 21.8, 90.0),
    ("CG", -0.2, 15.8, 5.5),
    ("GA", -0.8, 11.6, 2.2),
    ("GQ", 1.6, 10.3, 1.4),
    ("CM", 7.4, 12.4, 27.0),
    ("CF", 6.6, 20.9, 4.8),
    ("NG", 9.1, 8.7, 206.0),
    ("BJ", 9.3, 2.3, 12.0),
    ("TG", 8.6, 0.8, 8.3),
    ("GH", 7.9, -1.0, 31.0),
    ("CI", 7.5, -5.5, 26.0),
    ("LR", 6.4, -9.4, 5.1),
    ("SL", 8.5, -11.8, 8.0),
    ("GN", 9.9, -9.7, 13.0),
    ("GW", 11.8, -15.2, 2.0),
    ("SN", 14.5, -14.5, 17.0),
    ("GM", 13.4, -15.3, 2.4),
    ("CV", 16.0, -24.0, 0.56),
    ("ST", 0.2, 6.6, 0.22),
    ("BF", 12.2, -1.6, 21.0),
    ("MG", -18.8, 47.0, 28.0),
    ("MU", -20.3, 57.6, 1.3),
    ("SC", -4.7, 55.5, 0.1),
    ("KM", -11.6, 43.4, 0.87),
    ("RE", -21.1, 55.5, 0.86),
    ("YT", -12.8, 45.2, 0.27),
    ("SH", -15.97, -5.7, 0.006),
    // Remaining territories and special areas
    ("AQ", -75.3, -0.1, 0.001),
    ("BV", -54.4, 3.4, 0.0001),
    ("GS", -54.4, -36.6, 0.0001),
    ("HM", -53.1, 73.5, 0.0001),
    ("IO", -7.3, 72.4, 0.003),
    ("TF", -49.3, 69.3, 0.0001),
    ("UM", 19.3, 166.6, 0.0003),
    ("PN", -24.4, -128.3, 0.0001),
];

/// All known countries, in table order (US first within the Americas).
pub fn all_countries() -> Vec<CountryInfo> {
    TABLE
        .iter()
        .map(|(code, lat, lon, weight)| CountryInfo {
            code: CountryCode::literal(code),
            lat: *lat,
            lon: *lon,
            weight: *weight,
        })
        .collect()
}

/// Looks up one country by code.
pub fn country_info(code: CountryCode) -> Option<CountryInfo> {
    TABLE.iter().find_map(|(c, lat, lon, weight)| {
        if CountryCode::new(c) == Some(code) {
            Some(CountryInfo {
                code,
                lat: *lat,
                lon: *lon,
                weight: *weight,
            })
        } else {
            None
        }
    })
}

/// The country whose centroid is closest to the given coordinates.
///
/// Used to map a geohash cell (what a relay egress advertises) back to a
/// represented country. Distance is the squared equirectangular
/// approximation — adequate for centroid-granularity matching — with ties
/// broken by table order so the result is deterministic. Longitude wraps
/// at the antimeridian.
pub fn nearest_country(lat: f64, lon: f64) -> CountryInfo {
    let mut best: Option<(f64, CountryInfo)> = None;
    let cos_lat = lat.to_radians().cos();
    for info in all_countries() {
        let dlat = info.lat - lat;
        let mut dlon = (info.lon - lon).abs() % 360.0;
        if dlon > 180.0 {
            dlon = 360.0 - dlon;
        }
        let dlon = dlon * cos_lat;
        let dist = dlat * dlat + dlon * dlon;
        if best.as_ref().is_none_or(|(d, _)| dist < *d) {
            best = Some((dist, info));
        }
    }
    // The table is non-empty by construction; fall back to US regardless.
    best.map(|(_, info)| info).unwrap_or(CountryInfo {
        code: CountryCode::US,
        lat: 39.8,
        lon: -98.6,
        weight: 0.0,
    })
}

/// Countries where a large CDN physically operates points of presence.
///
/// §4.2 compares Akamai's published PoP-country list against the egress
/// list and finds represented countries (e.g. Saint Kitts and Nevis)
/// *without* any point of presence — proof that the published location is
/// the client's represented location, not the relay's. The synthetic PoP
/// list is the top-`n` countries by weight: big markets get
/// infrastructure, microstates do not.
pub fn pop_countries(n: usize) -> Vec<CountryCode> {
    let mut countries = all_countries();
    countries.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    countries.into_iter().take(n).map(|c| c.code).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn codes_parse_and_fold_case() {
        assert_eq!(CountryCode::new("us"), Some(CountryCode::US));
        assert_eq!(CountryCode::US.as_str(), "US");
        assert!(CountryCode::new("USA").is_none());
        assert!(CountryCode::new("U1").is_none());
        assert!(CountryCode::new("").is_none());
        assert_eq!("de".parse::<CountryCode>().unwrap(), CountryCode::DE);
    }

    #[test]
    fn table_is_large_and_unique() {
        let countries = all_countries();
        // Cloudflare covers 248 CCs in the paper; the universe must exceed that.
        assert!(countries.len() >= 248, "only {} countries", countries.len());
        let codes: HashSet<_> = countries.iter().map(|c| c.code).collect();
        assert_eq!(codes.len(), countries.len(), "duplicate codes in table");
    }

    #[test]
    fn coordinates_in_range() {
        for c in all_countries() {
            assert!((-90.0..=90.0).contains(&c.lat), "{}: lat {}", c.code, c.lat);
            assert!(
                (-180.0..=180.0).contains(&c.lon),
                "{}: lon {}",
                c.code,
                c.lon
            );
            assert!(c.weight > 0.0, "{}: nonpositive weight", c.code);
        }
    }

    #[test]
    fn us_has_dominant_weight_among_targets() {
        let us = country_info(CountryCode::US).unwrap();
        let de = country_info(CountryCode::DE).unwrap();
        assert!(us.weight > de.weight);
        assert!((us.lat - 39.8).abs() < 1.0);
    }

    #[test]
    fn pop_countries_are_the_big_markets() {
        let pops = pop_countries(130);
        assert_eq!(pops.len(), 130);
        assert!(pops.contains(&CountryCode::US));
        assert!(pops.contains(&CountryCode::DE));
        // Microstates fall outside the infrastructure footprint.
        assert!(!pops.contains(&CountryCode::new("KN").unwrap()));
        assert!(!pops.contains(&CountryCode::new("NR").unwrap()));
    }

    #[test]
    fn nearest_country_recovers_every_centroid() {
        // A country's own centroid must map back to itself.
        for c in all_countries() {
            assert_eq!(nearest_country(c.lat, c.lon).code, c.code, "{}", c.code);
        }
        // A point jittered off the US centroid still resolves to the US.
        let us = country_info(CountryCode::US).unwrap();
        assert_eq!(nearest_country(us.lat + 1.5, us.lon - 1.5).code, us.code);
    }

    #[test]
    fn lookup_missing_code() {
        assert!(country_info(CountryCode::new("ZQ").unwrap()).is_none());
    }

    #[test]
    fn serde_round_trip() {
        let j = serde_json::to_string(&CountryCode::US).unwrap();
        assert_eq!(j, "\"US\"");
        assert_eq!(
            serde_json::from_str::<CountryCode>(&j).unwrap(),
            CountryCode::US
        );
        assert!(serde_json::from_str::<CountryCode>("\"USA\"").is_err());
    }
}
