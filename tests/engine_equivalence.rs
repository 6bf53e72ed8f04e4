//! The engine's hard invariant, end to end: the sharded discrete-event
//! scan engine's geometry must be unobservable in every pipeline output. A
//! golden (fault-free) chaos run on eight shards reproduces the artifacts
//! and metrics of the `engine: None` run (every measurement on one shard,
//! the storm serial) byte-for-byte, and any engine run — golden or
//! kitchen-sink faulted — produces the same `ChaosRun` for every worker
//! count.
//!
//! Unit-level equivalence (per-report field equality, per-stage shard
//! alignment) lives next to each stage; this file is the integration
//! surface the CI `scan-bench` job runs.

use tectonic::chaos::{run_pipeline, ChaosConfig, ChaosRun};
use tectonic::core::masque_load::{run_engine, run_serial, PerfectChannel, StormConfig};
use tectonic::engine::EngineConfig;
use tectonic::relay::{Deployment, DeploymentConfig};
use tectonic::simnet::scenarios;

/// Reduced sizing so the full pipeline stays affordable per run: the
/// matrix here executes it several times.
fn config(engine: Option<EngineConfig>) -> ChaosConfig {
    ChaosConfig {
        scale: 8192,
        probes: 200,
        quic_sample: 20,
        storm_clients: 48,
        engine,
    }
}

fn assert_runs_equal(a: &ChaosRun, b: &ChaosRun, label: &str) {
    assert_eq!(a.artifacts, b.artifacts, "{label}: artifacts diverged");
    assert_eq!(a.metrics, b.metrics, "{label}: metrics diverged");
    assert_eq!(a.stats, b.stats, "{label}: fault ledgers diverged");
    assert_eq!(
        a.atlas_a_stats, b.atlas_a_stats,
        "{label}: A-campaign ledgers diverged"
    );
}

/// Golden pipeline through the engine ≡ golden pipeline without it, for
/// one and for many workers. This is the acceptance invariant: turning
/// the engine on must change nothing but wall-clock time.
#[test]
fn golden_engine_run_matches_serial_pipeline() {
    let serial = run_pipeline(5, None, &config(None));
    for workers in [1, 4] {
        let engine = run_pipeline(5, None, &config(Some(EngineConfig::new(8, workers))));
        assert_runs_equal(&engine, &serial, &format!("golden, {workers} workers"));
    }
}

/// The kitchen-sink scenario — every fault family at once — through the
/// engine: same seed, same report, for every worker count.
#[test]
fn kitchen_sink_engine_run_is_worker_invariant() {
    let plan = scenarios::by_name("kitchen-sink").expect("scenario registered");
    let base = run_pipeline(7, Some(&plan), &config(Some(EngineConfig::new(8, 1))));
    for workers in [2, 4] {
        let run = run_pipeline(7, Some(&plan), &config(Some(EngineConfig::new(8, workers))));
        assert_runs_equal(&run, &base, &format!("kitchen-sink, {workers} workers"));
    }
    // The run injected faults (the matrix in chaos_matrix.rs checks the
    // full invariants; here we only need the engine path to have actually
    // exercised the fault machinery).
    let injected: u64 = base
        .stats
        .values()
        .map(|s| s.all_dropped() + s.undecodable() + s.rcode_rewritten)
        .sum();
    assert!(injected > 0, "kitchen-sink run injected nothing");
}

/// The session layer's own equivalence surface, below the chaos pipeline:
/// a CONNECT-UDP storm driven serially and through the engine at one and
/// many workers must serialise to identical bytes — per-session counters,
/// addresses, rotation flags and all.
#[test]
fn session_storm_reports_are_worker_invariant() {
    let deployment = Deployment::build(13, DeploymentConfig::scaled(2048));
    for seed in [2, 17] {
        let cfg = StormConfig::sized(64, 3, seed);
        let serial = run_serial(&deployment, &cfg, &PerfectChannel);
        let serial_json = serde_json::to_string(&serial).expect("serialise serial report");
        for workers in [1, 3] {
            let engine = run_engine(&deployment, &cfg, &PerfectChannel, workers);
            let engine_json = serde_json::to_string(&engine).expect("serialise engine report");
            assert_eq!(
                serial_json, engine_json,
                "seed {seed}, {workers} workers: session reports diverged"
            );
        }
        assert_eq!(serial.sessions.len() as u64, cfg.attempted_sessions());
    }
}

/// The quick cell the CI `scan-bench` job runs on its own: serial vs a
/// three-worker engine at small scale.
#[test]
fn quick_three_worker_equivalence() {
    let small = ChaosConfig {
        scale: 16384,
        probes: 100,
        quic_sample: 10,
        storm_clients: 24,
        engine: None,
    };
    let serial = run_pipeline(11, None, &small);
    let engine = run_pipeline(
        11,
        None,
        &ChaosConfig {
            engine: Some(EngineConfig::new(6, 3)),
            ..small
        },
    );
    assert_runs_equal(&engine, &serial, "quick three-worker cell");
}
