//! Smoke tests for the `tectonic` CLI binary and the `xtask chaos`
//! driver.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_tectonic"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

fn run_xtask(args: &[&str]) -> (String, String, bool) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .args(["run", "-q", "-p", "xtask", "--"])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("xtask runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn scan_subcommand_prints_fleet() {
    let (stdout, _, ok) = run(&["scan", "--scale", "2048"]);
    assert!(ok);
    assert!(stdout.contains("Apr 2022 Default scan"));
    assert!(stdout.contains("Apple"));
    assert!(stdout.contains("AkamaiPR"));
    assert!(stdout.contains("Table 2"));
    assert!(
        stdout.contains("decode errors"),
        "scan counters surface the decode-error total: {stdout}"
    );
}

#[test]
fn egress_subcommand_prints_tables() {
    let (stdout, _, ok) = run(&["egress", "--scale", "512"]);
    assert!(ok);
    assert!(stdout.contains("Table 3"));
    assert!(stdout.contains("Table 4"));
    assert!(stdout.contains("top countries: US"));
    assert!(
        stdout.contains("rows ok, 0 rows skipped"),
        "egress CSV round-trip reports parse statistics: {stdout}"
    );
}

#[test]
fn audit_subcommand_prints_census() {
    let (stdout, _, ok) = run(&["audit", "--scale", "2048"]);
    assert!(ok);
    assert!(stdout.contains("Correlation audit"));
    assert!(stdout.contains("2021-06"));
    assert!(stdout.contains("QUIC probing"));
}

#[test]
fn qoe_subcommand_prints_comparison() {
    let (stdout, _, ok) = run(&["qoe", "--scale", "2048", "--samples", "300"]);
    assert!(ok);
    assert!(stdout.contains("QoE impact"));
    assert!(stdout.contains("median overhead"));
}

#[test]
fn chaos_scenario_prints_invariant_summary() {
    let (stdout, stderr, ok) = run_xtask(&["chaos", "--scenario", "baseline", "--seed", "1"]);
    assert!(ok, "chaos baseline failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("chaos: scenario baseline seed 1: OK"),
        "per-cell verdict line missing: {stdout}"
    );
    assert!(
        stdout.contains("invariant"),
        "invariant summary missing: {stdout}"
    );
    assert!(
        stdout.contains("chaos: 1 scenario-runs, 0 invariant violation(s)"),
        "summary line missing: {stdout}"
    );
}

#[test]
fn chaos_broken_fixture_exits_nonzero() {
    let (stdout, stderr, ok) = run_xtask(&["chaos", "--scenario", "broken-fixture", "--seed", "1"]);
    assert!(!ok, "broken fixture must fail:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("invariant violated"),
        "violation detail missing: {stdout}"
    );
    assert!(
        stdout.contains("1 invariant violation(s)"),
        "violation count missing: {stdout}"
    );
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn missing_subcommand_fails() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}
