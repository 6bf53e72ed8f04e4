//! Vendored-shim public-API manifest.
//!
//! The workspace vendors its third-party dependencies as minimal
//! API-compatible shims under `vendor/` (the build environment has no
//! crates.io access). Their public surface is the contract the rest of the
//! workspace compiles against, so it is pinned in `vendor/API_MANIFEST.txt`
//! and checked on every lint run: silently widening or shrinking a shim —
//! the classic way a shim drifts away from the real crate — becomes a
//! visible diff that must be committed alongside the change.
//!
//! The manifest is a sorted list of `file: kind name` lines extracted from
//! every `pub` item (restricted `pub(crate)`/`pub(super)` items are not
//! public API and are excluded). Regenerate with
//! `cargo run -p xtask -- lint --update-manifest`.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, TokenKind};

/// One drift between the shims and the checked-in manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the manifest.
    pub file: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vendor-manifest: {}: {}", self.file, self.message)
    }
}

/// File name of the checked-in manifest, relative to `vendor/`.
pub const MANIFEST_FILE: &str = "API_MANIFEST.txt";

const HEADER: &str = "\
# Public API of the vendored dependency shims (see vendor/README.md).
# Regenerate with: cargo run -p xtask -- lint --update-manifest
# Checked by `xtask lint` (rule: vendor-manifest) to catch silent drift.
";

/// Generates the manifest text for `vendor_dir`.
pub fn generate(vendor_dir: &Path) -> io::Result<String> {
    let mut lines = BTreeSet::new();
    let mut crates: Vec<_> = fs::read_dir(vendor_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for krate in crates {
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(vendor_dir)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            for item in public_items(&text) {
                lines.insert(format!("{rel}: {item}"));
            }
        }
    }
    let mut out = String::from(HEADER);
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    Ok(out)
}

/// Compares the generated manifest against the checked-in one.
pub fn check(vendor_dir: &Path) -> io::Result<Vec<Finding>> {
    let manifest_path = vendor_dir.join(MANIFEST_FILE);
    let rel_manifest = format!("vendor/{MANIFEST_FILE}");
    let want = generate(vendor_dir)?;
    let have = match fs::read_to_string(&manifest_path) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(vec![Finding {
                file: rel_manifest,
                message: "manifest missing — run `cargo run -p xtask -- lint --update-manifest`"
                    .to_string(),
            }]);
        }
        Err(e) => return Err(e),
    };
    let want_set: BTreeSet<&str> = want
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    let have_set: BTreeSet<&str> = have
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    let mut findings = Vec::new();
    for added in want_set.difference(&have_set) {
        findings.push(Finding {
            file: rel_manifest.clone(),
            message: format!("shim API gained `{added}` — update the manifest if intended"),
        });
    }
    for removed in have_set.difference(&want_set) {
        findings.push(Finding {
            file: rel_manifest.clone(),
            message: format!("shim API lost `{removed}` — update the manifest if intended"),
        });
    }
    Ok(findings)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts `kind name` descriptors for every unrestricted `pub` item in
/// `src`, at any nesting depth (methods in `impl` blocks are the bulk of a
/// shim's API surface). `pub use` re-exports record the full path.
pub fn public_items(src: &str) -> Vec<String> {
    let tokens = lex(src);
    let code: Vec<_> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Restricted visibility (`pub(crate)`, `pub(in …)`) is not public
        // API: skip the parenthesised scope and do not record the item.
        let restricted = code.get(j).is_some_and(|t| t.is_punct(b'('));
        if restricted {
            let mut depth = 0i32;
            while j < code.len() {
                if code[j].is_punct(b'(') {
                    depth += 1;
                } else if code[j].is_punct(b')') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // Skip qualifiers before the item keyword.
        while code.get(j).is_some_and(|t| {
            t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern")
        }) {
            // `pub const NAME` — `const` doubles as an item keyword when the
            // next token is the name followed by `:`.
            if code[j].is_ident("const")
                && code
                    .get(j + 2)
                    .is_some_and(|t| t.is_punct(b':') || t.is_punct(b'<'))
            {
                break;
            }
            j += 1;
        }
        let Some(kw) = code.get(j) else { break };
        let kind = kw.text.as_str();
        match kind {
            "fn" | "struct" | "enum" | "union" | "trait" | "mod" | "type" | "static" | "const"
            | "macro" => {
                if let Some(name) = code.get(j + 1) {
                    if name.kind == TokenKind::Ident {
                        items.push(format!("{} {}", kind, name.text));
                    }
                }
            }
            "use" => {
                let mut path = String::from("use ");
                let mut k = j + 1;
                while let Some(t) = code.get(k) {
                    if t.is_punct(b';') {
                        break;
                    }
                    match t.kind {
                        TokenKind::Ident => path.push_str(&t.text),
                        TokenKind::Punct(c) => path.push(c as char),
                        _ => {}
                    }
                    k += 1;
                }
                items.push(path);
            }
            _ => {}
        }
        i = j + 1;
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_items_at_all_depths() {
        let src = "\
pub struct Foo;
pub(crate) struct Hidden;
impl Foo {
    pub fn new() -> Foo { Foo }
    fn private() {}
}
pub mod m { pub const X: u32 = 1; }
pub use inner::{A, B};
";
        let items = public_items(src);
        assert!(items.contains(&"struct Foo".to_string()));
        assert!(items.contains(&"fn new".to_string()));
        assert!(items.contains(&"const X".to_string()));
        assert!(items.contains(&"use inner::{A,B}".to_string()));
        assert!(!items.iter().any(|i| i.contains("Hidden")));
        assert!(!items.iter().any(|i| i.contains("private")));
    }

    #[test]
    fn qualified_fns_and_consts() {
        let src = "pub const fn f() {}\npub unsafe fn g() {}\npub const MAX: u8 = 3;";
        let items = public_items(src);
        assert!(items.contains(&"fn f".to_string()));
        assert!(items.contains(&"fn g".to_string()));
        assert!(items.contains(&"const MAX".to_string()));
    }
}
