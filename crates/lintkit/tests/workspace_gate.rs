//! Tier-1 gate: the same analysis `cargo run -p xtask -- lint` performs,
//! run over the real workspace from `cargo test`. Any call-graph finding
//! (a lock-order cycle, an unordered iteration escaping, …), a malformed
//! allow comment or vendored-shim API drift fails the build — not just the
//! lint step. The panic, print, index, wall-clock, cast and arithmetic
//! rules are clippy lints, enforced by CI's
//! `cargo clippy --workspace --all-targets -- -D warnings`.

use std::path::PathBuf;

use lintkit::{lint_workspace, Config};

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    if let Err(report) = lintkit::check_workspace_gate(&root) {
        panic!("workspace lint findings:\n{report}");
    }
}

#[test]
fn determinism_soundness_rules_are_active() {
    // The three dataflow rules must be wired into the analysis — parseable
    // by name (so allow comments can reference them) and actually firing
    // on seeded violations. A refactor that drops one from `check_graph`
    // fails here, not silently.
    for name in ["map-iter-order", "rng-fork-order", "shard-state-escape"] {
        assert!(
            lintkit::Rule::from_name(name).is_some(),
            "rule `{name}` no longer parses"
        );
    }
    let fixture_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph_ws");
    let config = Config {
        root: fixture_root,
        hot_paths: Vec::new(),
        warm_paths: Vec::new(),
        graph_skip_crates: Vec::new(),
    };
    let findings = lint_workspace(&config).expect("fixture workspace lints");
    for name in ["map-iter-order", "rng-fork-order", "shard-state-escape"] {
        assert!(
            findings.iter().any(|f| f.rule.name() == name),
            "rule `{name}` produced no finding on its seeded fixture \
             violation — is it still wired into check_graph?"
        );
    }
}

#[test]
fn resource_soundness_rule_is_active() {
    // Same liveness contract for the resource rule: parseable by name and
    // firing on the seeded fixture violation when the config wires the
    // hot/warm boundaries in.
    let name = "alloc-in-hot-path";
    assert!(
        lintkit::Rule::from_name(name).is_some(),
        "rule `{name}` no longer parses"
    );
    let fixture_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph_ws");
    let config = Config {
        root: fixture_root,
        hot_paths: vec!["hot::fastpath::drain_window".to_string()],
        warm_paths: vec!["hot::fastpath::setup_tables".to_string()],
        graph_skip_crates: Vec::new(),
    };
    let findings = lint_workspace(&config).expect("fixture workspace lints");
    assert!(
        findings.iter().any(|f| f.rule.name() == name),
        "rule `{name}` produced no finding on its seeded fixture \
         violation — is it still wired into the analysis?"
    );
}
