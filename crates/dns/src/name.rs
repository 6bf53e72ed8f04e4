//! Domain names.
//!
//! [`DomainName`] stores a fully-qualified name as a sequence of labels with
//! RFC 1035 limits enforced at construction (labels ≤ 63 octets, total
//! encoded length ≤ 255). Comparison and hashing are ASCII-case-insensitive,
//! matching resolver behaviour; the original spelling is preserved for
//! display.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Errors from domain-name construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty or longer than 63 octets.
    BadLabel(String),
    /// The encoded name would exceed 255 octets.
    TooLong,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::BadLabel(l) => write!(f, "invalid DNS label: {l:?}"),
            NameError::TooLong => write!(f, "domain name exceeds 255 octets"),
        }
    }
}

impl std::error::Error for NameError {}

/// A fully-qualified domain name.
#[derive(Clone, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct DomainName {
    labels: Vec<String>,
}

impl DomainName {
    /// The root name (zero labels).
    pub fn root() -> Self {
        DomainName { labels: Vec::new() }
    }

    /// Parses a compile-time name literal, panicking on invalid input.
    ///
    /// For embedding well-known names in source (zone apexes, the mask
    /// domains); never call this on runtime input — use [`DomainName::parse`]
    /// and handle the error.
    #[expect(
        clippy::expect_used,
        reason = "documented literal-only constructor; the single sanctioned panic site for static names"
    )]
    pub fn literal(s: &str) -> Self {
        DomainName::parse(s).expect("invalid DomainName literal")
    }

    /// Builds a name from labels, validating RFC 1035 limits.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        let mut encoded_len = 1; // trailing root byte
        for l in &labels {
            if l.is_empty() || l.len() > 63 {
                return Err(NameError::BadLabel(l.clone()));
            }
            if l.bytes().any(|b| b == b'.' || b == 0) {
                return Err(NameError::BadLabel(l.clone()));
            }
            encoded_len += 1 + l.len();
        }
        if encoded_len > 255 {
            return Err(NameError::TooLong);
        }
        Ok(DomainName { labels })
    }

    /// Parses dotted notation; a single trailing dot is accepted. `"."`
    /// yields the root.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        DomainName::from_labels(trimmed.split('.'))
    }

    /// The labels, leftmost (host) first.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Length of the RFC 1035 wire encoding in octets (including root byte).
    pub fn encoded_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// The parent name (one label stripped), or `None` at the root.
    pub fn parent(&self) -> Option<DomainName> {
        let (_, rest) = self.labels.split_first()?;
        Some(DomainName {
            labels: rest.to_vec(),
        })
    }

    /// Whether `self` equals `zone` or lies underneath it
    /// (`mask.icloud.com` is within `icloud.com`).
    pub fn is_within(&self, zone: &DomainName) -> bool {
        if zone.labels.len() > self.labels.len() {
            return false;
        }
        self.labels
            .iter()
            .rev()
            .zip(zone.labels.iter().rev())
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    /// Prepends a label, e.g. `"mask"` + `icloud.com` → `mask.icloud.com`.
    pub fn prepend(&self, label: &str) -> Result<DomainName, NameError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.to_string());
        labels.extend(self.labels.iter().cloned());
        DomainName::from_labels(labels)
    }

    /// Lower-cased dotted representation without trailing dot (root → `"."`).
    pub fn to_ascii_lower(&self) -> String {
        if self.labels.is_empty() {
            ".".to_string()
        } else {
            self.labels
                .iter()
                .map(|l| l.to_ascii_lowercase())
                .collect::<Vec<_>>()
                .join(".")
        }
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(other.labels.iter())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            for b in l.bytes() {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(0);
        }
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    /// The byte order of the lower-cased dotted rendering — exactly what
    /// comparing [`DomainName::to_ascii_lower`] strings produced — computed
    /// lazily so trie lookups on the hot path never allocate.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        dotted_lower_bytes(&self.labels).cmp(dotted_lower_bytes(&other.labels))
    }
}

/// The byte stream `to_ascii_lower` would render (root is `"."`, other
/// names are labels joined by `'.'`), yielded without building a `String`.
fn dotted_lower_bytes(labels: &[String]) -> impl Iterator<Item = u8> + '_ {
    let root = if labels.is_empty() { Some(b'.') } else { None };
    root.into_iter()
        .chain(labels.iter().enumerate().flat_map(|(i, l)| {
            let sep = if i == 0 { None } else { Some(b'.') };
            sep.into_iter()
                .chain(l.bytes().map(|b| b.to_ascii_lowercase()))
        }))
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            write!(f, ".")
        } else {
            write!(f, "{}", self.labels.join("."))
        }
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for DomainName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl TryFrom<String> for DomainName {
    type Error = NameError;
    fn try_from(s: String) -> Result<Self, NameError> {
        DomainName::parse(&s)
    }
}

impl From<DomainName> for String {
    fn from(n: DomainName) -> String {
        n.to_string()
    }
}

/// The iCloud Private Relay QUIC ingress domain, `mask.icloud.com`.
pub fn mask_domain() -> DomainName {
    DomainName::literal("mask.icloud.com")
}

/// The TCP-fallback ingress domain, `mask-h2.icloud.com`.
pub fn mask_h2_domain() -> DomainName {
    DomainName::literal("mask-h2.icloud.com")
}

/// The resolver-identity domain modelled after `whoami.akamai.net`.
pub fn whoami_domain() -> DomainName {
    DomainName::literal("whoami.akamai.net")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn parse_basic() {
        let n = DomainName::parse("mask.icloud.com").unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.labels()[0], "mask");
        assert_eq!(n.to_string(), "mask.icloud.com");
    }

    #[test]
    fn trailing_dot_and_root() {
        assert_eq!(
            DomainName::parse("icloud.com.").unwrap(),
            DomainName::parse("icloud.com").unwrap()
        );
        let root = DomainName::parse(".").unwrap();
        assert!(root.is_root());
        assert_eq!(root.to_string(), ".");
        assert_eq!(DomainName::parse("").unwrap(), DomainName::root());
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(DomainName::parse("a..b").is_err());
        let long = "x".repeat(64);
        assert!(DomainName::parse(&format!("{long}.com")).is_err());
        let ok = "x".repeat(63);
        assert!(DomainName::parse(&format!("{ok}.com")).is_ok());
    }

    #[test]
    fn rejects_overlong_names() {
        // 4 × 63-octet labels encode past 255 octets.
        let l = "y".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert!(DomainName::parse(&s).is_err());
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        let a = DomainName::parse("MASK.iCloud.COM").unwrap();
        let b = DomainName::parse("mask.icloud.com").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        // Display preserves original case.
        assert_eq!(a.to_string(), "MASK.iCloud.COM");
    }

    #[test]
    fn is_within_zone() {
        let zone = DomainName::parse("icloud.com").unwrap();
        assert!(DomainName::parse("mask.icloud.com")
            .unwrap()
            .is_within(&zone));
        assert!(DomainName::parse("ICLOUD.COM").unwrap().is_within(&zone));
        assert!(!DomainName::parse("icloud.com.evil.org")
            .unwrap()
            .is_within(&zone));
        assert!(!DomainName::parse("com").unwrap().is_within(&zone));
        assert!(DomainName::parse("a.b.icloud.com")
            .unwrap()
            .is_within(&zone));
        // Everything is within the root.
        assert!(zone.is_within(&DomainName::root()));
    }

    #[test]
    fn parent_and_prepend() {
        let n = DomainName::parse("mask.icloud.com").unwrap();
        assert_eq!(n.parent().unwrap().to_string(), "icloud.com");
        let back = n.parent().unwrap().prepend("mask-h2").unwrap();
        assert_eq!(back.to_string(), "mask-h2.icloud.com");
        assert!(DomainName::root().parent().is_none());
    }

    #[test]
    fn encoded_len_matches_rfc() {
        // "mask.icloud.com" = 1+4 + 1+6 + 1+3 + 1 = 17
        assert_eq!(
            DomainName::parse("mask.icloud.com").unwrap().encoded_len(),
            17
        );
        assert_eq!(DomainName::root().encoded_len(), 1);
    }

    #[test]
    fn well_known_domains() {
        assert_eq!(mask_domain().to_string(), "mask.icloud.com");
        assert_eq!(mask_h2_domain().to_string(), "mask-h2.icloud.com");
        assert_eq!(whoami_domain().to_string(), "whoami.akamai.net");
        assert!(mask_domain().is_within(&DomainName::parse("icloud.com").unwrap()));
    }

    #[test]
    fn serde_round_trip() {
        let n = DomainName::parse("mask.icloud.com").unwrap();
        let j = serde_json::to_string(&n).unwrap();
        assert_eq!(j, "\"mask.icloud.com\"");
        let back: DomainName = serde_json::from_str(&j).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn ordering_is_case_insensitive() {
        let mut v = [
            DomainName::parse("b.example").unwrap(),
            DomainName::parse("A.example").unwrap(),
        ];
        v.sort();
        assert_eq!(v[0].to_string(), "A.example");
    }
}
