//! Hand-rolled SARIF v2.1.0 export of the lint findings.
//!
//! SARIF (Static Analysis Results Interchange Format) is the
//! OASIS-standard envelope that code-hosting CI surfaces ingest to
//! annotate pull requests with analyzer findings: one `result` per
//! finding, anchored to the workspace-relative file and 1-indexed line.
//!
//! Like the rest of lintkit the writer is dependency-free — the document
//! is small and append-only, so a string builder over `json_string`
//! (the escape-correct literal writer) is all it takes. Shape kept to the
//! minimal valid core of §3 of the spec:
//!
//! * `runs[0].tool.driver` names the analyzer and carries the full rule
//!   table (every [`Rule`] with its one-line description), so viewers can
//!   render rule help without out-of-band metadata,
//! * each `result` carries `ruleId`, `ruleIndex` (into that table),
//!   `level: "error"` (the gate treats every finding as fatal), `message.text`, and one `physicalLocation` with
//!   `artifactLocation.uri` + `region.startLine`.
//!
//! `startLine` is clamped to ≥ 1: SARIF regions are 1-indexed, and a few
//! whole-file findings (vendor-manifest drift) anchor at line 0
//! internally.

use std::fmt::Write as _;

use crate::rules::{Finding, Rule};

/// Every rule lintkit defines, in the stable order used for
/// `runs[0].tool.driver.rules` (and therefore for `ruleIndex`).
pub const RULES: [Rule; 7] = Rule::ALL;

/// One-line rule help shown by SARIF viewers next to each result.
fn description(rule: Rule) -> &'static str {
    match rule {
        Rule::AllowNeedsReason => "lintkit allow comments must name a rule and a justification",
        Rule::VendorManifest => "vendored shims must match the public-API manifest",
        Rule::LockOrder => "the lock acquisition-order graph must be acyclic",
        Rule::MapIterOrder => {
            "unordered-container iteration must pass a sorting boundary before \
             escaping a function's output"
        }
        Rule::RngForkOrder => {
            "engine-reachable code must use fork_indexed, not order-dependent \
             SimRng::fork"
        }
        Rule::ShardStateEscape => {
            "ShardModel impls must not touch shared mutable state — cross-shard \
             effects go through ShardCtx sends"
        }
        Rule::AllocInHotPath => {
            "no heap allocation reachable from a steady-state hot entry point \
             outside declared warm-path boundaries"
        }
    }
}

/// Renders the findings as a complete SARIF v2.1.0 log (one run).
pub fn report_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \
         \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \
         \"tool\": {\n        \"driver\": {\n          \
         \"name\": \"lintkit\",\n          \
         \"informationUri\": \"https://example.invalid/lintkit\",\n          \
         \"rules\": [",
    );
    for (i, rule) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n            {{ \"id\": {}, \"shortDescription\": {{ \"text\": {} }} }}",
            json_string(rule.name()),
            json_string(description(*rule))
        );
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = RULES.iter().position(|r| *r == f.rule).unwrap_or(0);
        let _ = write!(
            out,
            "\n        {{\n          \"ruleId\": {},\n          \
             \"ruleIndex\": {},\n          \"level\": \"error\",\n          \
             \"message\": {{ \"text\": {} }},\n          \"locations\": [\n            \
             {{ \"physicalLocation\": {{ \"artifactLocation\": {{ \"uri\": {} }}, \
             \"region\": {{ \"startLine\": {} }} }} }}\n          ]\n        }}",
            json_string(f.rule.name()),
            rule_index,
            json_string(&f.message),
            json_string(&f.file),
            f.line.max(1)
        );
    }
    if findings.is_empty() {
        out.push_str("]\n    }\n  ]\n}\n");
    } else {
        out.push_str("\n      ]\n    }\n  ]\n}\n");
    }
    out
}

/// Renders `s` as a JSON string literal.
fn json_string(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: "a \"quoted\" message".to_string(),
        }
    }

    #[test]
    fn empty_log_is_well_formed() {
        let text = report_sarif(&[]);
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"results\": []"));
        // Every rule is declared even when nothing fired.
        for rule in RULES {
            assert!(text.contains(&format!("\"id\": \"{}\"", rule.name())));
        }
    }

    #[test]
    fn one_result_per_finding_with_stable_rule_index() {
        let findings = vec![
            finding(Rule::MapIterOrder, "crates/a/src/lib.rs", 7),
            finding(Rule::ShardStateEscape, "crates/b/src/lib.rs", 3),
        ];
        let text = report_sarif(&findings);
        assert_eq!(text.matches("\"ruleId\"").count(), 2);
        assert!(text.contains("\"ruleId\": \"map-iter-order\""));
        assert!(text.contains(&format!(
            "\"ruleIndex\": {}",
            RULES
                .iter()
                .position(|r| *r == Rule::MapIterOrder)
                .unwrap_or(0)
        )));
        assert!(text.contains("\"uri\": \"crates/a/src/lib.rs\""));
        assert!(text.contains("\"startLine\": 7"));
        assert!(text.contains("\\\"quoted\\\""));
    }

    #[test]
    fn line_zero_clamps_to_one() {
        let text = report_sarif(&[finding(Rule::VendorManifest, "vendor/x.rs", 0)]);
        assert!(text.contains("\"startLine\": 1"));
    }
}
