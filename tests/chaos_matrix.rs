//! The chaos scenario matrix: the full paper pipeline under every named
//! fault scenario, three seeds each, reconciled against same-seed golden
//! (fault-free, unwrapped) runs via `tectonic::chaos::check_invariants`.
//!
//! Golden runs are computed once per seed and shared across scenario
//! tests through a process-wide cache, so the matrix stays affordable
//! under plain `cargo test -q`.

use std::collections::HashMap;
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
    for seed in SEEDS {
        let golden_run = golden(seed);
        let run = run_pipeline(seed, Some(&plan), &ChaosConfig::default());
        let violations = check_invariants(name, &run, &golden_run);
        assert!(
            violations.is_empty(),
            "scenario {name} seed {seed} violated invariants:\n{violations:#?}"
        );
    }
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
