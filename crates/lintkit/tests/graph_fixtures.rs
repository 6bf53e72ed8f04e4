//! Integration tests for the interprocedural pass, run over the on-disk
//! fixture mini-workspace in `fixtures/graph_ws`. Unlike the unit tests in
//! `graph.rs`/`reach.rs`, these exercise the whole pipeline: directory
//! walking, per-file symbol collection, cross-crate linking, and the
//! call-graph rules — exactly what `cargo run -p xtask -- lint` does.

use std::path::PathBuf;

use lintkit::{analyze_workspace, Analysis, Config, Finding, Rule};

fn fixture_analysis() -> Analysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph_ws");
    let config = Config {
        root,
        hot_paths: vec!["hot::fastpath::drain_window".to_string()],
        warm_paths: vec!["hot::fastpath::setup_tables".to_string()],
        graph_skip_crates: Vec::new(),
    };
    analyze_workspace(&config).expect("fixture workspace lints")
}

fn of_rule(analysis: &Analysis, rule: Rule) -> Vec<&Finding> {
    analysis
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn lock_order_cycle_has_exact_rule_file_and_line() {
    let analysis = fixture_analysis();
    let cycles = of_rule(&analysis, Rule::LockOrder);
    assert_eq!(cycles.len(), 1, "one cycle, one finding: {cycles:?}");
    let Some(f) = cycles.first() else {
        return;
    };
    assert_eq!(f.rule.name(), "lock-order");
    assert_eq!(f.file, "crates/relay/src/locks.rs");
    assert_eq!(f.line, 14, "anchored where Pair.b is taken under Pair.a");
    assert!(
        f.message.contains("Pair.a") && f.message.contains("Pair.b"),
        "cycle names both locks: {}",
        f.message
    );
}

#[test]
fn seeded_unordered_escape_through_callee_is_flagged() {
    let analysis = fixture_analysis();
    let orders = of_rule(&analysis, Rule::MapIterOrder);
    // Exactly two findings: the sorting caller (`emit_sorted`) and the
    // reasoned allow (`emit_allowed`) stay silent.
    assert_eq!(orders.len(), 2, "{orders:?}");
    // The seed in the callee, anchored at the iteration itself…
    let seed = orders
        .iter()
        .find(|f| f.line == 7)
        .expect("the callee's keys() seed is found");
    assert_eq!(seed.file, "crates/core/src/orders.rs");
    assert!(
        seed.message.contains("iteration over unordered `m`"),
        "names the container: {}",
        seed.message
    );
    // …and the caller whose output the callee's order reaches, anchored
    // at the tainting call.
    let caller = orders
        .iter()
        .find(|f| f.line == 11)
        .expect("the caller's tainted call is found");
    assert_eq!(caller.file, "crates/core/src/orders.rs");
    assert!(
        caller.message.contains("core::orders::emit_keys"),
        "names the tainting callee: {}",
        caller.message
    );
}

#[test]
fn seeded_fork_behind_indirection_is_engine_reachable() {
    let analysis = fixture_analysis();
    let forks = of_rule(&analysis, Rule::RngForkOrder);
    // Exactly one finding: `CleanShard` uses fork_indexed and
    // `QuietShard` carries a reasoned allow.
    assert_eq!(forks.len(), 1, "{forks:?}");
    let Some(f) = forks.first() else {
        return;
    };
    assert_eq!(f.file, "crates/relay/src/shard.rs");
    assert_eq!(f.line, 21, "anchored at the fork site inside the helper");
    assert!(
        f.message.contains("on_event") && f.message.contains("reseed"),
        "path runs from the shard entry through the indirection: {}",
        f.message
    );
    assert!(
        f.message.contains("fork_indexed"),
        "suggests the order-free API: {}",
        f.message
    );
}

#[test]
fn seeded_shard_mutex_touch_is_flagged() {
    let analysis = fixture_analysis();
    let escapes = of_rule(&analysis, Rule::ShardStateEscape);
    // Exactly one finding: `QuietShard`'s lock carries a reasoned allow.
    assert_eq!(escapes.len(), 1, "{escapes:?}");
    let Some(f) = escapes.first() else {
        return;
    };
    assert_eq!(f.file, "crates/relay/src/shard.rs");
    assert_eq!(f.line, 32, "anchored where LockyShard takes the mutex");
    assert!(
        f.message.contains("ShardCtx"),
        "points at the sanctioned channel: {}",
        f.message
    );
}

#[test]
fn seeded_alloc_behind_indirection_is_hot_reachable() {
    let analysis = fixture_analysis();
    let allocs = of_rule(&analysis, Rule::AllocInHotPath);
    // Exactly one finding: the warm `setup_tables` Vec::new is pruned at
    // the boundary and the scratch buffer carries a reasoned allow.
    assert_eq!(allocs.len(), 1, "{allocs:?}");
    let Some(f) = allocs.first() else {
        return;
    };
    assert_eq!(f.file, "crates/hot/src/fastpath.rs");
    assert_eq!(f.line, 26, "anchored at the format! inside the helper");
    assert!(
        f.message.contains("hot::fastpath::drain_window"),
        "names the hot entry: {}",
        f.message
    );
    assert!(
        f.message.contains("drain_window → label"),
        "spells the call path through the indirection: {}",
        f.message
    );
}

#[test]
fn graph_links_cross_crate_edges() {
    let analysis = fixture_analysis();
    // The DOT dump renders the scan loop's cross-crate call into the
    // decoder.
    let dot = analysis.graph.to_dot();
    let node = |name: &str| {
        analysis
            .graph
            .funcs
            .iter()
            .position(|f| f.path() == name)
            .unwrap_or_else(|| panic!("{name} in graph"))
    };
    let (step, decode) = (
        node("core::ecs_scan::step"),
        node("dns::wire::decode_entry"),
    );
    assert!(dot.contains(&format!("n{step} -> n{decode};")), "{dot}");
}
