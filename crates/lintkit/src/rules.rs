//! The rule set, findings, and the allow-comment parser shared by the
//! graph rules.
//!
//! The panic, print, index, wall-clock, cast and arithmetic policies are
//! clippy's: lints declared in each crate root and strict file, and
//! `clippy.toml`'s banned methods (see DESIGN.md §8). lintkit keeps what
//! clippy cannot see: the call graph and the vendored-shim manifest. A graph finding can be suppressed with an allow comment that
//! *must* carry a justification:
//!
//! ```text
//! // lintkit: allow(rng-fork-order) -- serial build path, single-threaded
//! ```
//!
//! The comment suppresses matching findings on its own line (trailing
//! form) or, when it stands alone, on the next code line. An allow without
//! a reason, or for an unknown rule, is itself reported.

use std::fmt;

use crate::lexer::{lex, Token, TokenKind};

/// The rules the analyzer enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// An allow comment must name a known rule and give a reason.
    AllowNeedsReason,
    /// Vendored shims must match the checked-in public-API manifest.
    VendorManifest,
    /// The interprocedural lock-acquisition-order graph must be acyclic.
    LockOrder,
    /// Iteration order of a `HashMap`/`HashSet` must not reach a function's
    /// output (return value, tail expression, `&mut` out-param or `self`
    /// field) without passing a sorting boundary — collecting into a
    /// `BTreeMap`/`BTreeSet`, re-keying into a fresh hash container, a
    /// `.sort*()` on the collected `Vec`, or a commutative reduction.
    /// Order-taint propagates through the call graph: a function returning
    /// unordered iteration results taints its callers.
    MapIterOrder,
    /// Code reachable from the sharded engine (`engine::sched::*` or any
    /// `ShardModel` impl) must not call the order-dependent `SimRng::fork`;
    /// use `fork_indexed` keyed by a stable id instead.
    RngForkOrder,
    /// `ShardModel` impl blocks must not touch shared mutable state
    /// (`static mut`, `OnceLock`, `Arc<Mutex<_>>`/`Arc<RwLock<_>>`,
    /// atomics, `thread_local!`) — cross-shard effects go through
    /// `ShardCtx` sends only.
    ShardStateEscape,
    /// No heap allocation (`Vec::new`, `vec!`, `with_capacity`, `Box::new`,
    /// `String::from`, `format!`, `.to_string()`, `.to_vec()`, `.collect()`,
    /// `.clone()` on heap-typed values) may be reachable from a declared
    /// steady-state hot entry point; construction/setup boundaries are
    /// exempted via `Config::warm_paths` ([`crate::resource`]).
    AllocInHotPath,
}

impl Rule {
    /// Every rule, in declaration order. SARIF rule indices derive from
    /// this list, so order is load-bearing: append new rules at the end.
    pub const ALL: [Rule; 7] = [
        Rule::AllowNeedsReason,
        Rule::VendorManifest,
        Rule::LockOrder,
        Rule::MapIterOrder,
        Rule::RngForkOrder,
        Rule::ShardStateEscape,
        Rule::AllocInHotPath,
    ];

    /// The rule's stable name, as used in allow comments and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::AllowNeedsReason => "allow-needs-reason",
            Rule::VendorManifest => "vendor-manifest",
            Rule::LockOrder => "lock-order",
            Rule::MapIterOrder => "map-iter-order",
            Rule::RngForkOrder => "rng-fork-order",
            Rule::ShardStateEscape => "shard-state-escape",
            Rule::AllocInHotPath => "alloc-in-hot-path",
        }
    }

    /// Parses a rule name as written in an allow comment.
    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "allow-needs-reason" => Some(Rule::AllowNeedsReason),
            "vendor-manifest" => Some(Rule::VendorManifest),
            "lock-order" => Some(Rule::LockOrder),
            "map-iter-order" => Some(Rule::MapIterOrder),
            "rng-fork-order" => Some(Rule::RngForkOrder),
            "shard-state-escape" => Some(Rule::ShardStateEscape),
            "alloc-in-hot-path" => Some(Rule::AllocInHotPath),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line of the violation (0 for file-level findings).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// A parsed `lintkit: allow(...)` comment.
struct Allow {
    rule: Option<Rule>,
    has_reason: bool,
    /// The code line the allow applies to.
    effective_line: u32,
    /// The line the comment itself sits on (for error reporting).
    comment_line: u32,
}

/// **allow-needs-reason** — reports every allow comment in `src` that
/// names no known rule or carries no `-- <reason>`. Such a comment
/// suppresses nothing, so a stale allow (say, one naming a per-file rule
/// that clippy enforces) is reported instead of silently doing nothing.
pub fn check_allows(rel_path: &str, src: &str) -> Vec<Finding> {
    collect_allows(&lex(src))
        .into_iter()
        .filter_map(|a| {
            let message = match a.rule {
                None => "allow comment names an unknown rule",
                Some(_) if !a.has_reason => "allow comment needs a `-- <reason>` justification",
                Some(_) => return None,
            };
            Some(Finding {
                rule: Rule::AllowNeedsReason,
                file: rel_path.to_string(),
                line: a.comment_line,
                message: message.to_string(),
            })
        })
        .collect()
}

/// Token-index ranges (inclusive) of items gated behind `#[cfg(test)]`
/// (or any `cfg` whose arguments mention `test` without `not`).
pub(crate) fn test_gated_ranges(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_punct(b'#')
            && code.get(i + 1).is_some_and(|t| t.is_punct(b'['))
            && code.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && code.get(i + 3).is_some_and(|t| t.is_punct(b'('))
        {
            // Scan the cfg argument list.
            let mut j = i + 4;
            let mut depth = 1i32;
            let mut mentions_test = false;
            let mut mentions_not = false;
            while j < code.len() && depth > 0 {
                let t = code[j];
                if t.is_punct(b'(') {
                    depth += 1;
                } else if t.is_punct(b')') {
                    depth -= 1;
                } else if t.is_ident("test") {
                    mentions_test = true;
                } else if t.is_ident("not") {
                    mentions_not = true;
                }
                j += 1;
            }
            // Skip the closing `]` of the attribute.
            if code.get(j).is_some_and(|t| t.is_punct(b']')) {
                j += 1;
            }
            if mentions_test && !mentions_not {
                if let Some(end) = item_end(code, j) {
                    ranges.push((i, end));
                    i = end + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Index of the last token of the item starting at `start` (further
/// attributes included): either the `;` that terminates it or the `}`
/// matching its first body brace.
fn item_end(code: &[&Token], start: usize) -> Option<usize> {
    let mut i = start;
    // Skip any further outer attributes.
    while code.get(i).is_some_and(|t| t.is_punct(b'#'))
        && code.get(i + 1).is_some_and(|t| t.is_punct(b'['))
    {
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < code.len() {
            if code[j].is_punct(b'[') {
                depth += 1;
            } else if code[j].is_punct(b']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    // Find the body `{` or the terminating `;` (at bracket depth 0, so a
    // `[u8; 4]` in the header does not end the item early).
    let mut sq = 0i32;
    while i < code.len() {
        let t = code[i];
        if t.is_punct(b'[') {
            sq += 1;
        } else if t.is_punct(b']') {
            sq -= 1;
        } else if t.is_punct(b';') && sq == 0 {
            return Some(i);
        } else if t.is_punct(b'{') {
            let mut depth = 0i32;
            let mut j = i;
            while j < code.len() {
                if code[j].is_punct(b'{') {
                    depth += 1;
                } else if code[j].is_punct(b'}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                j += 1;
            }
            return Some(code.len() - 1);
        }
        i += 1;
    }
    None
}

/// The code lines carrying a *reasoned* allow comment for any of `rules` —
/// the sanctioned sites the interprocedural pass must also trust.
pub(crate) fn collect_reasoned_allows(tokens: &[Token], rules: &[Rule]) -> Vec<u32> {
    collect_allows(tokens)
        .iter()
        .filter(|a| a.has_reason && a.rule.is_some_and(|r| rules.contains(&r)))
        .map(|a| a.effective_line)
        .collect()
}

/// Parses every `lintkit: allow(...)` comment in the stream.
fn collect_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Comment {
            continue;
        }
        let body = tok
            .text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim_start_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix("lintkit: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            allows.push(Allow {
                rule: None,
                has_reason: false,
                effective_line: tok.line,
                comment_line: tok.line,
            });
            continue;
        };
        let rule = Rule::from_name(rest[..close].trim());
        let tail = rest[close + 1..].trim();
        let has_reason = tail
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        // Trailing comment → applies to its own line. Standalone comment →
        // applies to the next code line.
        let standalone = !tokens[..idx]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| t.kind != TokenKind::Comment);
        let effective_line = if standalone {
            tokens[idx + 1..]
                .iter()
                .find(|t| t.kind != TokenKind::Comment)
                .map(|t| t.line)
                .unwrap_or(tok.line)
        } else {
            tok.line
        };
        allows.push(Allow {
            rule,
            has_reason,
            effective_line,
            comment_line: tok.line,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Finding> {
        check_allows("test.rs", src)
    }

    fn suppressed_lines(src: &str, rule: Rule) -> Vec<u32> {
        collect_reasoned_allows(&lex(src), &[rule])
    }

    #[test]
    fn reasoned_allow_for_a_known_rule_is_silent() {
        assert!(check("fn f() {} // lintkit: allow(lock-order) -- checked above").is_empty());
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let src = "fn f() {}\nfn g() { x.fork(); } // lintkit: allow(rng-fork-order) -- serial";
        assert_eq!(suppressed_lines(src, Rule::RngForkOrder), vec![2]);
    }

    #[test]
    fn standalone_allow_applies_to_next_line() {
        let src = "// lintkit: allow(rng-fork-order) -- fixture\n\nfn f() { x.fork(); }";
        assert_eq!(suppressed_lines(src, Rule::RngForkOrder), vec![3]);
        assert!(suppressed_lines(src, Rule::LockOrder).is_empty());
    }

    #[test]
    fn allow_without_reason_is_its_own_finding_and_suppresses_nothing() {
        let src = "fn f() { x.fork(); } // lintkit: allow(rng-fork-order)";
        let f = check(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::AllowNeedsReason);
        assert!(f[0].message.contains("reason"));
        assert!(suppressed_lines(src, Rule::RngForkOrder).is_empty());
    }

    #[test]
    fn allow_for_unknown_rule_is_reported() {
        // The rules that clippy enforces are unknown to lintkit: a leftover
        // allow for one of them is loud, not a silent no-op.
        for rule in [
            "no-such-rule",
            "no-panic",
            "no-index",
            "no-print",
            "forbid-unsafe",
            "narrowing-cast",
            "unchecked-arith",
            "panic-reachability",
            "determinism-taint",
        ] {
            let src = format!("fn f() {{}} // lintkit: allow({rule}) -- because");
            let f = check(&src);
            assert_eq!(f.len(), 1, "{rule}: {f:?}");
            assert_eq!(f[0].rule, Rule::AllowNeedsReason);
            assert_eq!(f[0].message, "allow comment names an unknown rule");
        }
    }

    #[test]
    fn cfg_test_items_are_gated_and_cfg_not_test_is_not() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() {} }\n#[cfg(not(test))]\nfn h() {}";
        let tokens = lex(src);
        let code: Vec<&Token> = tokens.iter().collect();
        let ranges = test_gated_ranges(&code);
        assert_eq!(ranges.len(), 1, "{ranges:?}");
        let (lo, hi) = ranges[0];
        assert_eq!(code[lo].line, 2);
        assert_eq!(code[hi].line, 3);
    }

    #[test]
    fn finding_lines_are_exact() {
        let f = check("fn f() {\n    // lintkit: allow(lock-order)\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }
}
