//! Tier-1 gate: the same analysis `cargo run -p xtask -- lint` performs,
//! run over the real workspace from `cargo test`. Any graph-rule finding
//! (a panic reachable from an entry point, a lock-order cycle, …), a
//! malformed allow comment, vendored-shim API drift, or baseline drift
//! fails the build — not just the lint step. The per-file panic, print,
//! index, cast and arithmetic rules are clippy lints, enforced by CI's
//! `cargo clippy --workspace --all-targets -- -D warnings`.
//!
//! Baseline semantics mirror the xtask: every finding must be covered by
//! `lint-baseline.json`, and every baseline entry must still correspond to
//! a live finding. Fixing a baselined site without regenerating the
//! baseline (`cargo run -p xtask -- lint --update-baseline`) fails here
//! too — the ratchet only ever tightens.

use std::path::PathBuf;

use lintkit::{baseline, lint_workspace, Config};

#[test]
fn workspace_is_lint_clean_modulo_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let config = Config::for_workspace(&root);
    let findings = lint_workspace(&config).expect("lint pass runs");
    let baseline_text =
        std::fs::read_to_string(root.join(baseline::BASELINE_FILE)).unwrap_or_default();
    let entries = baseline::parse(&baseline_text).expect("baseline parses");
    let outcome = baseline::apply(&findings, &entries);
    assert!(
        outcome.unbaselined.is_empty(),
        "unbaselined workspace lint findings:\n{}",
        outcome
            .unbaselined
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "stale baseline entries (fixed findings still listed — regenerate \
         with `cargo run -p xtask -- lint --update-baseline`):\n{}",
        outcome
            .stale
            .iter()
            .map(|e| format!("  {}:{}: {}", e.file, e.line, e.rule))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn baseline_holds_only_dynamic_dispatch_findings() {
    // The checked-in baseline is reserved for ⊥ (dynamic-dispatch) edges the
    // conservative graph cannot resolve; genuine panic sites must be fixed
    // in code, never baselined. In particular none of the determinism-
    // soundness findings (map-iter-order / rng-fork-order /
    // shard-state-escape) may ever land here: those are fixed in code or
    // carry a reasoned allow at the site.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let baseline_text =
        std::fs::read_to_string(root.join(baseline::BASELINE_FILE)).unwrap_or_default();
    let entries = baseline::parse(&baseline_text).expect("baseline parses");
    for e in &entries {
        assert_eq!(
            e.rule, "panic-reachability",
            "only panic-reachability ⊥ findings may be baselined, got {}:{}: {}",
            e.file, e.line, e.rule
        );
    }
}

#[test]
fn determinism_soundness_rules_are_active() {
    // The three dataflow rules must be wired into the analysis — parseable
    // by name (so allow comments and baselines can reference them) and
    // actually firing on seeded violations. A refactor that drops one from
    // `check_graph` fails here, not silently.
    for name in ["map-iter-order", "rng-fork-order", "shard-state-escape"] {
        assert!(
            lintkit::Rule::from_name(name).is_some(),
            "rule `{name}` no longer parses"
        );
    }
    let fixture_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph_ws");
    let config = Config {
        root: fixture_root,
        entry_points: vec!["core::ecs_scan::scan_subnets".to_string()],
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
        entry_points: Vec::new(),
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
