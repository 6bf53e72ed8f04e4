//! The `egress-ip-ranges.csv` codec.
//!
//! Apple's published format is `subnet,CC,region,city` — one row per
//! egress subnet, blank city when the user withheld their region. Two
//! decoders are provided:
//!
//! * [`parse_csv`] — strict; the first malformed row aborts with a typed
//!   error. For round-trip tests and trusted synthetic inputs.
//! * [`parse_csv_lossy`] — skip-and-count; malformed rows are recorded in
//!   [`CsvParseStats`] and the remaining rows still produce a usable
//!   [`EgressList`]. The live file is fetched from an external endpoint we
//!   do not control, so one corrupt row must never abort a Table 3/4 run.
//!
//! This module is on the hostile-input path: fields come off a
//! `split(',')` iterator, never a slice index.

use std::fmt;

use crate::country::CountryCode;
use crate::egress::{EgressEntry, EgressList};
use tectonic_net::IpNet;

/// Errors from parsing the CSV format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EgressParseError {
    /// A row did not have the expected four fields.
    BadRow(usize),
    /// A subnet failed to parse.
    BadSubnet(usize, String),
    /// A country code failed to parse.
    BadCountry(usize, String),
}

impl EgressParseError {
    /// The 1-based line number the error occurred on.
    pub fn line(&self) -> usize {
        match self {
            EgressParseError::BadRow(n)
            | EgressParseError::BadSubnet(n, _)
            | EgressParseError::BadCountry(n, _) => *n,
        }
    }
}

impl fmt::Display for EgressParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EgressParseError::BadRow(n) => write!(f, "line {n}: expected 4 fields"),
            EgressParseError::BadSubnet(n, s) => write!(f, "line {n}: bad subnet {s:?}"),
            EgressParseError::BadCountry(n, s) => write!(f, "line {n}: bad country {s:?}"),
        }
    }
}

impl std::error::Error for EgressParseError {}

/// Outcome counters of a lossy parse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsvParseStats {
    /// Rows decoded into entries.
    pub rows_ok: usize,
    /// Rows skipped as malformed.
    pub rows_skipped: usize,
    /// The first few row errors, for diagnostics (capped so a wholly
    /// garbage file cannot balloon the report).
    pub errors: Vec<EgressParseError>,
}

/// Cap on retained per-row errors in [`CsvParseStats::errors`].
const MAX_RETAINED_ERRORS: usize = 32;

/// Decodes one trimmed, non-empty row. `lineno` is 1-based.
fn parse_row(lineno: usize, line: &str) -> Result<EgressEntry, EgressParseError> {
    let mut fields = line.split(',');
    let (Some(subnet), Some(cc), Some(region), Some(city), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return Err(EgressParseError::BadRow(lineno));
    };
    let subnet: IpNet = subnet
        .parse()
        .map_err(|_| EgressParseError::BadSubnet(lineno, subnet.into()))?;
    let cc = CountryCode::new(cc).ok_or_else(|| EgressParseError::BadCountry(lineno, cc.into()))?;
    let city = if city.is_empty() {
        None
    } else {
        Some(city.to_string())
    };
    Ok(EgressEntry {
        subnet,
        cc,
        region: region.to_string(),
        city,
    })
}

/// Rows of `text` as `(lineno, trimmed_line)` with blanks removed.
fn rows(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty())
}

/// Strict parse: the first malformed row aborts.
pub fn parse_csv(text: &str) -> Result<EgressList, EgressParseError> {
    let mut entries = Vec::new();
    for (lineno, line) in rows(text) {
        entries.push(parse_row(lineno, line)?);
    }
    Ok(EgressList::from_entries(entries))
}

/// Lossy parse: malformed rows are skipped and counted, never fatal.
pub fn parse_csv_lossy(text: &str) -> (EgressList, CsvParseStats) {
    let mut entries = Vec::new();
    let mut stats = CsvParseStats::default();
    for (lineno, line) in rows(text) {
        match parse_row(lineno, line) {
            Ok(entry) => {
                entries.push(entry);
                stats.rows_ok += 1;
            }
            Err(e) => {
                stats.rows_skipped += 1;
                if stats.errors.len() < MAX_RETAINED_ERRORS {
                    stats.errors.push(e);
                }
            }
        }
    }
    (EgressList::from_entries(entries), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_skips_and_counts() {
        let text = "172.224.0.0/27,US,US-CA,Los Angeles\n\
                    junk,US,US-CA,LA\n\
                    1.2.3.0/24,USA,US-CA,LA\n\
                    1.2.3.0/24,US,US-CA\n\
                    146.72.0.0/31,DE,DE-BE,Berlin\n";
        let (list, stats) = parse_csv_lossy(text);
        assert_eq!(list.len(), 2);
        assert_eq!(stats.rows_ok, 2);
        assert_eq!(stats.rows_skipped, 3);
        assert_eq!(stats.errors.len(), 3);
        assert_eq!(
            stats.errors.iter().map(|e| e.line()).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn lossy_on_clean_input_matches_strict() {
        let text = "172.224.0.0/27,US,US-CA,\n2a02:26f7::/64,DE,DE-BE,Berlin\n";
        let strict = parse_csv(text).unwrap();
        let (lossy, stats) = parse_csv_lossy(text);
        assert_eq!(strict.entries(), lossy.entries());
        assert_eq!(stats.rows_skipped, 0);
        assert!(stats.errors.is_empty());
    }

    #[test]
    fn error_retention_is_capped() {
        let garbage = "x\n".repeat(100);
        let (list, stats) = parse_csv_lossy(&garbage);
        assert!(list.is_empty());
        assert_eq!(stats.rows_skipped, 100);
        assert_eq!(stats.errors.len(), MAX_RETAINED_ERRORS);
    }

    #[test]
    fn five_fields_rejected() {
        assert!(matches!(
            parse_csv("1.2.3.0/24,US,US-CA,LA,extra"),
            Err(EgressParseError::BadRow(1))
        ));
    }
}
