//! The chaos scenario matrix: the full paper pipeline under every named
//! fault scenario, three seeds each, reconciled against same-seed golden
//! (fault-free, unwrapped) runs via `tectonic::chaos::check_invariants`.
//!
//! Golden runs are computed once per seed and shared across scenario
//! tests through a process-wide cache, so the matrix stays affordable
//! under plain `cargo test -q`.
//!
//! The runs are also pinned to committed files under `tests/golden/`: the
//! golden runs' artifacts and metrics in full (`pipeline-seed<N>.txt`) and
//! one digest line per faulted cell (`chaos-cells.txt`). A mismatch writes
//! the actual file under `target/tmp/golden/` and names it in the failure;
//! re-blessing an intended change means copying that file over the
//! committed one, so the change shows up as a reviewed diff.

#![expect(
    clippy::disallowed_types,
    reason = "per-process caches shared by the parallel test threads: the golden runs and \
              the mismatching cell lines; no simulation state lives in them"
)]

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use tectonic::chaos::{check_invariants, run_pipeline, ChaosConfig, ChaosRun};
use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::geo::CountryCode;
use tectonic::net::{Asn, Epoch};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode};
use tectonic::simnet::{scenarios, FaultedChannel, FaultedServer, Link};

const SEEDS: [u64; 3] = [1, 2, 3];

/// Golden (plan-free) run for `seed`, computed once per process.
fn golden(seed: u64) -> Arc<ChaosRun> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<ChaosRun>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().unwrap();
    guard
        .entry(seed)
        .or_insert_with(|| Arc::new(run_pipeline(seed, None, &ChaosConfig::default())))
        .clone()
}

fn run_scenario(name: &str) {
    let plan = scenarios::by_name(name).expect("scenario registered");
    let mut lines = Vec::new();
    for seed in SEEDS {
        let golden_run = golden(seed);
        let run = run_pipeline(seed, Some(&plan), &ChaosConfig::default());
        let violations = check_invariants(name, &run, &golden_run);
        assert!(
            violations.is_empty(),
            "scenario {name} seed {seed} violated invariants:\n{violations:#?}"
        );
        lines.push(cell_line(name, seed, &run));
    }
    check_cells(name, &lines);
}

/// The committed golden file `name`.
fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Writes `actual` where a re-blessing copies it from and returns the path.
fn write_actual(name: &str, actual: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("create the actual-output directory");
    let path = dir.join(name);
    std::fs::write(&path, actual).expect("write the actual output");
    path
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `chaos-cells.txt` line: the cell and a digest of everything the run
/// produced — artifacts, metrics and both fault ledgers.
fn cell_line(scenario: &str, seed: u64, run: &ChaosRun) -> String {
    let dump = format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        run.artifacts, run.metrics, run.stats, run.atlas_a_stats
    );
    format!(
        "{scenario} seed={seed} engine=off fnv1a={:016x}",
        fnv1a(dump.as_bytes())
    )
}

/// The cell key of a `chaos-cells.txt` line: scenario position and seed.
fn cell_key(line: &str) -> Option<(usize, String)> {
    let mut fields = line.split(' ');
    let scenario = fields.next()?;
    let position = scenarios::ALL.iter().position(|s| *s == scenario)?;
    Some((position, fields.next()?.to_string()))
}

/// Checks one scenario's cell lines against `chaos-cells.txt`. Scenario
/// tests run in parallel, so a mismatching test folds its lines into one
/// shared actual file: after the run it holds every mismatching cell.
fn check_cells(scenario: &str, lines: &[String]) {
    static ACTUAL: OnceLock<Mutex<BTreeMap<(usize, String), String>>> = OnceLock::new();
    let committed = std::fs::read_to_string(golden_path("chaos-cells.txt")).unwrap_or_default();
    let expected: Vec<&str> = committed
        .lines()
        .filter(|l| l.split(' ').next() == Some(scenario))
        .collect();
    if expected == lines.iter().map(String::as_str).collect::<Vec<_>>() {
        return;
    }
    let actual = ACTUAL.get_or_init(|| {
        Mutex::new(
            committed
                .lines()
                .filter_map(|l| Some((cell_key(l)?, l.to_string())))
                .collect(),
        )
    });
    let mut actual = actual.lock().unwrap_or_else(|e| e.into_inner());
    actual.retain(|_, l| l.split(' ').next() != Some(scenario));
    for line in lines {
        actual.insert(cell_key(line).expect("a registered scenario"), line.clone());
    }
    let text: String = actual.values().map(|l| format!("{l}\n")).collect();
    let path = write_actual("chaos-cells.txt", &text);
    panic!(
        "scenario {scenario}: cell digests differ from tests/golden/chaos-cells.txt; \
         actual file: {}",
        path.display()
    );
}

/// The golden (fault-free) runs' artifacts and metrics are the committed
/// `pipeline-seed<N>.txt` files, byte for byte.
#[test]
fn golden_runs_match_committed_pipelines() {
    let mut mismatches = Vec::new();
    for seed in SEEDS {
        let run = golden(seed);
        let actual = format!("{}{:#?}\n", run.artifacts, run.metrics);
        let name = format!("pipeline-seed{seed}.txt");
        let committed = std::fs::read_to_string(golden_path(&name)).unwrap_or_default();
        if committed != actual {
            mismatches.push(write_actual(&name, &actual));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden pipelines differ from tests/golden/; actual files: {mismatches:#?}"
    );
}

#[test]
fn scenario_baseline() {
    run_scenario("baseline");
}

#[test]
fn scenario_lossy_resolver() {
    run_scenario("lossy-resolver");
}

#[test]
fn scenario_flaky_network() {
    run_scenario("flaky-network");
}

#[test]
fn scenario_truncator() {
    run_scenario("truncator");
}

#[test]
fn scenario_garbage_replies() {
    run_scenario("garbage-replies");
}

#[test]
fn scenario_rate_limit_storm() {
    run_scenario("rate-limit-storm");
}

#[test]
fn scenario_blocking_resolvers() {
    run_scenario("blocking-resolvers");
}

#[test]
fn scenario_control_outage() {
    run_scenario("control-outage");
}

#[test]
fn scenario_ingress_blackhole() {
    run_scenario("ingress-blackhole");
}

#[test]
fn scenario_bgp_flap() {
    run_scenario("bgp-flap");
}

#[test]
fn scenario_relay_session_storm() {
    run_scenario("relay-session-storm");
}

#[test]
fn scenario_kitchen_sink() {
    run_scenario("kitchen-sink");
}

/// A dropped relay-DNS reply costs its own round and nothing else: every
/// round that survives the faults logs exactly what the fault-free series
/// logged at the same instant, because each round's connection ids are
/// fixed by its index, not by how many earlier rounds succeeded.
#[test]
fn faulted_relay_series_only_loses_rounds() {
    let seed = 1;
    let deployment = Deployment::build(seed, DeploymentConfig::scaled(4096));
    let auth = deployment.auth_server_unlimited();
    let device = || {
        deployment.vantage_device(
            CountryCode::DE,
            DnsMode::Open,
            vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR],
        )
    };
    let config = RelayScanConfig::rotation_series();
    let start = Epoch::May2022.start();
    let golden = RelayScanSeries::run(&device(), &auth, &config, start);
    assert_eq!(golden.failures, 0);
    let by_time: HashMap<u64, _> = golden.rounds.iter().map(|r| (r.relative_secs, r)).collect();
    for name in ["ingress-blackhole", "kitchen-sink"] {
        let plan = scenarios::by_name(name).expect("scenario registered");
        let channel = FaultedChannel::new(plan, seed);
        let faulted_auth = FaultedServer::new(&channel, Link::RelayDns, &auth);
        let faulted = RelayScanSeries::run(&device(), &faulted_auth, &config, start);
        assert!(faulted.failures > 0, "{name}: no relay round failed");
        assert_eq!(
            faulted.rounds.len() as u64 + faulted.failures,
            config.rounds(),
            "{name}"
        );
        for round in &faulted.rounds {
            assert_eq!(
                Some(&round),
                by_time.get(&round.relative_secs),
                "{name}: round at {} s differs from the fault-free series",
                round.relative_secs
            );
        }
    }
}

/// Same seed + same plan ⇒ byte-identical artifacts and equal metrics.
#[test]
fn same_seed_same_plan_is_deterministic() {
    let plan = scenarios::by_name("lossy-resolver").expect("scenario registered");
    let first = run_pipeline(1, Some(&plan), &ChaosConfig::default());
    let second = run_pipeline(1, Some(&plan), &ChaosConfig::default());
    assert_eq!(first.artifacts, second.artifacts);
    assert_eq!(first.metrics, second.metrics);
    assert_eq!(first.stats, second.stats);
}

/// An all-inert plan threaded through every wrapper reproduces the
/// wrapper-free golden artifacts byte-for-byte: the fault layer is
/// invisible when no faults are configured.
#[test]
fn zero_fault_plan_matches_unwrapped_golden() {
    let plan = scenarios::by_name("baseline").expect("scenario registered");
    let golden_run = golden(2);
    let run = run_pipeline(2, Some(&plan), &ChaosConfig::default());
    assert_eq!(run.artifacts, golden_run.artifacts);
    assert_eq!(run.metrics, golden_run.metrics);
}

/// The deliberately broken fixture plan must violate its invariant —
/// this is the fixture `xtask chaos` smoke tests rely on for a nonzero
/// exit.
#[test]
fn broken_fixture_violates_invariants() {
    let plan = scenarios::by_name("broken-fixture").expect("fixture registered");
    let golden_run = golden(1);
    let run = run_pipeline(1, Some(&plan), &ChaosConfig::default());
    let violations = check_invariants("broken-fixture", &run, &golden_run);
    assert!(
        !violations.is_empty(),
        "broken fixture unexpectedly passed all invariants"
    );
}

/// The registry holds at least the eight scenarios the matrix promises,
/// every name resolves, and names are unique.
#[test]
fn registry_is_complete() {
    assert!(scenarios::ALL.len() >= 8, "registry too small");
    for name in scenarios::ALL {
        assert!(scenarios::by_name(name).is_some(), "unresolvable {name}");
    }
    let mut names: Vec<&str> = scenarios::ALL.to_vec();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), scenarios::ALL.len(), "duplicate names");
    assert!(scenarios::by_name("does-not-exist").is_none());
}
