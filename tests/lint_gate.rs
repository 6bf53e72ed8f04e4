//! Tier-1 lint gate from the root package, so a plain `cargo test -q` (which
//! only runs the current package's targets) still enforces the static-analysis
//! policy:
//!
//! * lintkit's pass — allow-comment hygiene, the call-graph rules, and the
//!   `lint-baseline.json` ratchet (no unbaselined findings, no stale
//!   entries); the richer assertions live in
//!   `crates/lintkit/tests/workspace_gate.rs`;
//! * the presence of the clippy policy in every crate root. The lints
//!   themselves (no panics, no prints, checked indexing and arithmetic) run
//!   under CI's `cargo clippy --workspace --all-targets -- -D warnings`;
//!   this gate only proves that no crate has opted out of them.

use std::fs;
use std::path::{Path, PathBuf};

/// The panic half of the policy: library crates and the CLI binary.
const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The rest of the policy, library crates only: binaries own their stdout.
const LIBRARY_LINTS: [&str; 3] = [
    "clippy::print_stdout",
    "clippy::print_stderr",
    "clippy::allow_attributes_without_reason",
];

#[test]
fn workspace_passes_lint_gate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Err(report) = lintkit::check_workspace_gate(&root) {
        panic!("workspace lint gate failed:\n{report}");
    }
}

/// The `#![cfg_attr(not(test), deny(...))]` block of the crate root at
/// `path`, after checking that the root exists and has one.
fn deny_block(path: &Path, text: &str) -> String {
    let start = text
        .find("#![cfg_attr(")
        .unwrap_or_else(|| panic!("{} has no #![cfg_attr(...)] lint block", path.display()));
    let end = text[start..]
        .find(")]\n")
        .map_or(text.len(), |len| start + len);
    let block = &text[start..end];
    assert!(
        block.contains("not(test)") && block.contains("deny("),
        "{}: the lint block must be `cfg_attr(not(test), deny(...))`:\n{block}",
        path.display()
    );
    block.to_string()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn every_crate_root_carries_the_clippy_policy() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut lib_roots = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.is_file() {
            lib_roots.push(lib);
        }
    }
    assert!(lib_roots.len() > 10, "found only {lib_roots:?}");
    for lib in &lib_roots {
        let text = read(lib);
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{} is missing #![forbid(unsafe_code)]",
            lib.display()
        );
        let block = deny_block(lib, &text);
        for lint in PANIC_LINTS.iter().chain(&LIBRARY_LINTS) {
            assert!(
                block.contains(lint),
                "{} does not deny {lint}",
                lib.display()
            );
        }
    }
    let cli = root.join("src/bin/tectonic.rs");
    let block = deny_block(&cli, &read(&cli));
    for lint in PANIC_LINTS {
        assert!(
            block.contains(lint),
            "{} does not deny {lint}",
            cli.display()
        );
    }
}
