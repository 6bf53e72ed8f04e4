//! The findings baseline ratchet and the machine-readable JSON report.
//!
//! `lint-baseline.json` (workspace root) pins the accepted findings by
//! `(rule, file, line)`. The gate then enforces a ratchet:
//!
//! * a finding **not** in the baseline fails the build (new violation),
//! * a baseline entry that no longer fires **also** fails the build (the
//!   debt was paid — the entry must be deleted so it cannot hide a future
//!   regression at the same location).
//!
//! `cargo run -p xtask -- lint --update-baseline` regenerates the file,
//! mirroring the vendor-manifest flow. `--json <path>` writes the full
//! findings report in the same schema (plus messages) for CI artifacts.
//!
//! lintkit is dependency-free, so the JSON writer and the (schema-specific
//! but escape-correct) parser are hand-rolled here.

use std::fmt::Write as _;

use crate::rules::{Finding, Rule};

/// The baseline file name, resolved against the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// One accepted finding: the ratchet key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Rule name (stable, as in allow comments).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
}

/// The ratchet verdict from [`apply`].
#[derive(Debug, Default)]
pub struct BaselineOutcome {
    /// Findings not covered by the baseline — new violations.
    pub unbaselined: Vec<Finding>,
    /// Baseline entries that no longer fire — stale debt to delete.
    pub stale: Vec<BaselineEntry>,
}

impl BaselineOutcome {
    /// Whether the ratchet passes.
    pub fn is_clean(&self) -> bool {
        self.unbaselined.is_empty() && self.stale.is_empty()
    }
}

/// Splits `findings` against a parsed baseline.
pub fn apply(findings: &[Finding], baseline: &[BaselineEntry]) -> BaselineOutcome {
    let mut outcome = BaselineOutcome::default();
    for f in findings {
        let covered = baseline
            .iter()
            .any(|b| b.rule == f.rule.name() && b.file == f.file && b.line == f.line);
        if !covered {
            outcome.unbaselined.push(f.clone());
        }
    }
    for b in baseline {
        let fires = findings
            .iter()
            .any(|f| b.rule == f.rule.name() && b.file == f.file && b.line == f.line);
        if !fires {
            outcome.stale.push(b.clone());
        }
    }
    outcome
}

/// Renders the baseline for `findings` (sorted, deduplicated).
pub fn generate(findings: &[Finding]) -> String {
    let mut entries: Vec<BaselineEntry> = findings
        .iter()
        .map(|f| BaselineEntry {
            rule: f.rule.name().to_string(),
            file: f.file.clone(),
            line: f.line,
        })
        .collect();
    entries.sort();
    entries.dedup();
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"rule\": {}, \"file\": {}, \"line\": {} }}",
            json_string(&e.rule),
            json_string(&e.file),
            e.line
        );
    }
    if entries.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Renders the full findings report (baseline schema plus messages) for
/// the CI artifact.
pub fn report_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {} }}",
            json_string(f.rule.name()),
            json_string(&f.file),
            f.line,
            json_string(&f.message)
        );
    }
    if findings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Parses a baseline file. Unknown keys are ignored; entries naming a rule
/// lintkit no longer defines are rejected so the baseline cannot rot.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let value = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    }
    .parse()?;
    let Json::Object(top) = value else {
        return Err("baseline: top level must be an object".to_string());
    };
    let Some(Json::Array(items)) = top.iter().find(|(k, _)| k == "findings").map(|(_, v)| v) else {
        return Err("baseline: missing `findings` array".to_string());
    };
    let mut entries = Vec::new();
    for item in items {
        let Json::Object(fields) = item else {
            return Err("baseline: each finding must be an object".to_string());
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(Json::String(rule)) = get("rule") else {
            return Err("baseline: finding missing string `rule`".to_string());
        };
        let Some(Json::String(file)) = get("file") else {
            return Err("baseline: finding missing string `file`".to_string());
        };
        let Some(Json::Number(line)) = get("line") else {
            return Err("baseline: finding missing numeric `line`".to_string());
        };
        if Rule::from_name(rule).is_none() {
            return Err(format!("baseline: unknown rule `{rule}`"));
        }
        entries.push(BaselineEntry {
            rule: rule.clone(),
            file: file.clone(),
            line: *line as u32,
        });
    }
    Ok(entries)
}

/// JSON string literal with full escaping — shared with the SARIF writer.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON subset the baseline schema needs.
#[derive(Debug)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    /// `true`/`false`/`null` — valid JSON the schema ignores, so the
    /// parser does not keep the value.
    Scalar,
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("baseline: trailing data at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    // Named `eat`, not `expect`, so the panic-site collector (which records
    // any `.expect(` call) stays simple.
    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "baseline: expected `{}` at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("baseline: bad object at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("baseline: bad array at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(Json::Scalar)
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(Json::Scalar)
            }
            Some(b'n') if self.bytes[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(Json::Scalar)
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "baseline: bad number".to_string())?;
                text.parse::<f64>()
                    .map(Json::Number)
                    .map_err(|_| format!("baseline: bad number `{text}`"))
            }
            _ => Err(format!("baseline: unexpected byte at {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("baseline: bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("baseline: bad escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "baseline: invalid utf-8".to_string())?;
                    let c = rest.chars().next().ok_or("baseline: bad string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("baseline: unterminated string".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: "msg with \"quotes\" and \\slash".to_string(),
        }
    }

    #[test]
    fn generate_parse_round_trip() {
        let findings = vec![
            finding(Rule::PanicReachability, "crates/a/src/lib.rs", 12),
            finding(Rule::LockOrder, "crates/b/src/lib.rs", 3),
        ];
        let text = generate(&findings);
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed.len(), 2);
        // generate() sorts by (rule, file, line) — BaselineEntry ordering.
        assert_eq!(parsed[0].rule, "lock-order");
        assert_eq!(parsed[1].rule, "panic-reachability");
        assert_eq!(parsed[1].line, 12);
    }

    #[test]
    fn empty_baseline_round_trips() {
        let text = generate(&[]);
        assert!(parse(&text).expect("empty").is_empty());
    }

    #[test]
    fn ratchet_splits_new_and_stale() {
        let baseline = vec![
            BaselineEntry {
                rule: "panic-reachability".to_string(),
                file: "a.rs".to_string(),
                line: 1,
            },
            BaselineEntry {
                rule: "panic-reachability".to_string(),
                file: "paid.rs".to_string(),
                line: 9,
            },
        ];
        let findings = vec![
            finding(Rule::PanicReachability, "a.rs", 1),
            finding(Rule::PanicReachability, "new.rs", 5),
        ];
        let outcome = apply(&findings, &baseline);
        assert!(!outcome.is_clean());
        assert_eq!(outcome.unbaselined.len(), 1);
        assert_eq!(outcome.unbaselined[0].file, "new.rs");
        assert_eq!(outcome.stale.len(), 1);
        assert_eq!(outcome.stale[0].file, "paid.rs");
    }

    #[test]
    fn clean_when_baseline_matches_exactly() {
        let findings = vec![finding(Rule::DeterminismTaint, "a.rs", 2)];
        let baseline = parse(&generate(&findings)).expect("parse");
        assert!(apply(&findings, &baseline).is_clean());
    }

    #[test]
    fn unknown_rule_in_baseline_rejected() {
        let text =
            "{\"version\":1,\"findings\":[{\"rule\":\"no-such\",\"file\":\"a\",\"line\":1}]}";
        assert!(parse(text).is_err());
    }

    #[test]
    fn report_json_escapes_messages() {
        let text = report_json(&[finding(Rule::PanicReachability, "a.rs", 1)]);
        assert!(text.contains("\\\"quotes\\\""));
        assert!(text.contains("\\\\slash"));
        // And stays parseable by our own parser (message key ignored).
        let entries = parse(&text).expect("report parses as baseline schema");
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"findings\": 3}",
            "{\"findings\":[{\"rule\":3}]}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
