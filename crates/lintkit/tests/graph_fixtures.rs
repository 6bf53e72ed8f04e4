//! Integration tests for the interprocedural pass, run over the on-disk
//! fixture mini-workspace in `fixtures/graph_ws`. Unlike the unit tests in
//! `graph.rs`/`reach.rs`, these exercise the whole pipeline: directory
//! walking, per-file symbol collection, cross-crate linking, and the
//! reachability rules — exactly what `cargo run -p xtask -- lint` does.

use std::path::PathBuf;

use lintkit::{analyze_workspace, Analysis, Config, Finding, Rule};

fn fixture_analysis() -> Analysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph_ws");
    let config = Config {
        root,
        entry_points: vec![
            "core::ecs_scan::scan_subnets".to_string(),
            "relay::client::request".to_string(),
        ],
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
fn seeded_panic_behind_indirection_is_reached_cross_crate() {
    let analysis = fixture_analysis();
    let reach = of_rule(&analysis, Rule::PanicReachability);
    let seeded = reach
        .iter()
        .find(|f| f.file == "crates/dns/src/wire.rs")
        .expect("the seeded panic is found");
    assert_eq!(seeded.line, 10, "anchored at the unwrap site");
    // The message spells out the cross-crate path through the local
    // indirection: scan_subnets (core) → step (core) → decode_entry (dns)
    // → deep (dns).
    assert!(
        seeded.message.contains("core::ecs_scan::scan_subnets"),
        "names the entry: {}",
        seeded.message
    );
    for hop in ["scan_subnets", "step", "decode_entry", "deep"] {
        assert!(
            seeded.message.contains(hop),
            "path includes {hop}: {}",
            seeded.message
        );
    }
}

#[test]
fn unimplemented_trait_method_is_a_bottom_edge() {
    let analysis = fixture_analysis();
    let reach = of_rule(&analysis, Rule::PanicReachability);
    let bottom = reach
        .iter()
        .find(|f| f.file == "crates/relay/src/client.rs")
        .expect("the dynamic dispatch is flagged");
    assert_eq!(bottom.line, 9, "anchored at the call site");
    assert!(
        bottom.message.contains(".handle()"),
        "names the method: {}",
        bottom.message
    );
}

#[test]
fn cfg_test_code_is_exempt() {
    let analysis = fixture_analysis();
    // The unwrap inside ecs_scan.rs's `#[cfg(test)]` module (line 17) must
    // produce no reachability finding.
    assert!(
        !analysis
            .findings
            .iter()
            .any(|f| f.file == "crates/core/src/ecs_scan.rs" && f.line == 17),
        "cfg(test) unwrap flagged: {:?}",
        analysis.findings
    );
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
fn sim_driven_code_reaching_wall_clock_is_tainted() {
    let analysis = fixture_analysis();
    let taints = of_rule(&analysis, Rule::DeterminismTaint);
    let t = taints
        .iter()
        .find(|f| f.file == "crates/core/src/sim.rs")
        .expect("the SystemTime::now leak is flagged");
    assert_eq!(t.line, 9, "anchored at the wall-clock read");
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
    let graph = &analysis.graph;
    // Resolved entries exist for both declared patterns.
    assert_eq!(analysis.entries.len(), 2, "both entry points resolve");
    // The DOT dump renders without panicking and mentions the fixture
    // functions and the ⊥ node.
    let dot = graph.to_dot(&analysis.entries);
    assert!(dot.contains("scan_subnets"));
    assert!(dot.contains("decode_entry"));
    assert!(dot.contains("⊥"));
}
