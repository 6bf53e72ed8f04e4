//! The §4 acceptance surface: a traffic-scale CONNECT-UDP session storm
//! through the sharded engine, proven deterministic (same seed ⇒
//! byte-identical per-session metrics at any worker count) and reproducing
//! the paper's §4 findings as statistical assertions:
//!
//! 1. the egress *operator* is stable per client within a stickiness
//!    window (§4.2),
//! 2. consecutive requests rotate the egress *address* at roughly the
//!    1 − 1/pool rate the three-address geohash cells predict (§4.3),
//! 3. parallel requests (Safari + curl in flight together) get distinct
//!    addresses at roughly the same rate (§4.3).
//!
//! The client device draws from the same cell pools, so the 48 h relay
//! series reproduces findings 2 and 3 too.

use tectonic::core::masque_load::{run_engine, run_serial, PerfectChannel, StormConfig};
use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::core::rotation::RotationReport;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch};
use tectonic::relay::session::CELL_POOL_SIZE;
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode};

fn deployment(seed: u64) -> Deployment {
    Deployment::build(seed, DeploymentConfig::scaled(512))
}

/// ≥2,000 concurrent sessions through the engine, byte-identical to the
/// serial driver at every worker count — the PR's headline acceptance
/// criterion.
#[test]
fn two_thousand_concurrent_sessions_run_deterministically() {
    let d = deployment(21);
    // 1200 client pairs kick within 1.2 s of each other and each session
    // lives 2.5 s: every session of a round is simultaneously open.
    let cfg = StormConfig::sized(1200, 2, 0xF00D);
    let serial = run_serial(&d, &cfg, &PerfectChannel);
    assert!(
        serial.peak_concurrent >= 2_000,
        "peak concurrency {} below the 2,000-session floor",
        serial.peak_concurrent
    );
    assert_eq!(serial.sessions.len() as u64, cfg.attempted_sessions());
    let serial_json = serde_json::to_string(&serial).expect("serialise serial report");
    for workers in [1, 2, 4] {
        let engine = run_engine(&d, &cfg, &PerfectChannel, workers);
        let engine_json = serde_json::to_string(&engine).expect("serialise engine report");
        assert_eq!(
            serial_json, engine_json,
            "{workers} workers: per-session metrics diverged from the serial driver"
        );
    }
    // Loss-free conservation at scale.
    assert_eq!(serial.datagrams_sent, serial.datagrams_delivered);
    assert_eq!(serial.replies_received, serial.datagrams_delivered);
    assert_eq!(serial.session_drops + serial.strays, 0);
}

/// The three §4 findings, pinned across three independent seeds.
#[test]
fn storm_reproduces_the_section4_findings() {
    for seed in [101, 202, 303] {
        let d = deployment(seed);
        let cfg = StormConfig::sized(300, 6, seed ^ 0x4A11);
        let report = run_serial(&d, &cfg, &PerfectChannel);
        let stats = report.rotation_stats();

        // §4.2: the egress operator is sticky — every consecutive pair of
        // one chain's sessions stays with the same operator inside the
        // stickiness window.
        assert_eq!(
            stats.operator_changes, 0,
            "seed {seed}: operator changed mid-window"
        );

        // §4.3: consecutive requests rotate the egress address at roughly
        // 1 − 1/3 (three-address cell pools, independent uniform draws).
        assert!(
            stats.consecutive_pairs >= 2_000,
            "seed {seed}: too few pairs ({}) for a stable rate",
            stats.consecutive_pairs
        );
        let consecutive = stats.consecutive_rate();
        assert!(
            (0.60..=0.74).contains(&consecutive),
            "seed {seed}: consecutive rotation rate {consecutive:.3} outside 66% ± tolerance"
        );
        // The per-session rotation counters derive the same statistic
        // independently of the report-level pairing.
        assert_eq!(stats.consecutive_rotated, report.counter_rotations());

        // §4.3: parallel requests draw distinct addresses at the same
        // rate.
        assert!(
            stats.parallel_pairs >= 1_000,
            "seed {seed}: too few parallel pairs ({})",
            stats.parallel_pairs
        );
        let parallel = stats.parallel_rate();
        assert!(
            (0.60..=0.74).contains(&parallel),
            "seed {seed}: parallel distinct rate {parallel:.3} outside 66% ± tolerance"
        );
    }
}

/// §4.3 through the client device: 48 h of 30 s Safari + curl rounds
/// rotate the egress address at about 1 − 1/3 and draw from one small pool
/// per operator, at every deployment scale.
#[test]
fn relay_series_reproduces_section4_3_at_every_scale() {
    let vantage = || vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];
    for (scale, seed, restricted) in [(512, 66, false), (512, 11, true), (4096, 1, true)] {
        let d = Deployment::build(seed, DeploymentConfig::scaled(scale));
        let device = if restricted {
            d.vantage_device(CountryCode::DE, DnsMode::Open, vantage())
        } else {
            d.device_in_country(CountryCode::DE, DnsMode::Open)
        };
        let series = RelayScanSeries::run(
            &device,
            &d.auth_server_unlimited(),
            &RelayScanConfig::rotation_series(),
            Epoch::May2022.start(),
        );
        let r = RotationReport::from_series(&series);
        let label = format!("scaled({scale}) seed {seed}");
        assert_eq!((r.rounds, series.failures), (5760, 0), "{label}");
        assert!(
            (0.60..=0.74).contains(&r.change_rate),
            "{label}: change rate {:.3} outside 66% ± tolerance",
            r.change_rate
        );
        assert!(
            (0.60..=0.74).contains(&r.parallel_divergence),
            "{label}: parallel divergence {:.3} outside 66% ± tolerance",
            r.parallel_divergence
        );
        assert!(
            r.distinct_addresses <= CELL_POOL_SIZE * r.operators,
            "{label}: {} addresses from {} operators",
            r.distinct_addresses,
            r.operators
        );
    }
}
