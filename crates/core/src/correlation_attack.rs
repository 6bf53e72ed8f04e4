//! A timing-correlation attack by the dual-role operator (§6, §5).
//!
//! The paper's central privacy concern: because AS36183 hosts ingress *and*
//! egress relays, one entity can observe a client's encrypted train of
//! connections entering the network and the corresponding train leaving it
//! towards the target — the Tor-style traffic-correlation setting
//! ([11, 22, 27] in the paper), which "the MASQUE draft explicitly lists
//! … as an issue the protocol cannot overcome".
//!
//! [`run_attack`] simulates concurrent client sessions, gives the adversary
//! the two event logs an AS-level observer would capture, and matches them
//! by inter-arrival timing. The experiment shows the paper's point
//! quantitatively: when the adversary sits on **both** hops, matching
//! succeeds far above chance; when ingress and egress are operated by
//! disjoint entities, the same adversary sees only one side and learns
//! nothing.

use serde::{Deserialize, Serialize};
use tectonic_net::{SimDuration, SimRng, SimTime};

/// One observed (encrypted) connection event at a relay hop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopEvent {
    /// Millisecond timestamp of the observation.
    pub at: u64,
    /// The flow identifier the adversary can link events with on one side
    /// (client address on the ingress side, target on the egress side).
    pub side_id: u32,
}

/// Configuration of the simulated workload.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Connections per session.
    pub connections_per_session: usize,
    /// Mean gap between a session's connections.
    pub mean_gap: SimDuration,
    /// Network jitter applied independently at each hop (uniform ±).
    pub jitter: SimDuration,
    /// Relay processing delay between ingress and egress observation.
    pub relay_delay: SimDuration,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            sessions: 40,
            connections_per_session: 30,
            mean_gap: SimDuration::from_secs(20),
            jitter: SimDuration::from_millis(40),
            relay_delay: SimDuration::from_millis(25),
        }
    }
}

/// The attack's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackReport {
    /// Sessions in the workload.
    pub sessions: usize,
    /// Sessions the adversary matched correctly (both hops visible).
    pub matched_dual_role: usize,
    /// Match accuracy with both hops visible.
    pub accuracy_dual_role: f64,
    /// Match accuracy when the adversary sees only the ingress side and
    /// must guess the egress pairing (the split-operator deployment Apple
    /// claims; expected ≈ 1 / sessions).
    pub accuracy_split_operators: f64,
}

/// Generates the two hop logs for one workload.
fn generate_logs(
    config: &AttackConfig,
    rng: &mut SimRng,
) -> (Vec<Vec<HopEvent>>, Vec<Vec<HopEvent>>) {
    let start = SimTime::from_ymd(2022, 5, 10);
    let mut ingress_logs = Vec::with_capacity(config.sessions);
    let mut egress_logs = Vec::with_capacity(config.sessions);
    for session in 0..config.sessions {
        let mut t = start + SimDuration::from_millis(rng.below(60_000));
        let mut ingress = Vec::with_capacity(config.connections_per_session);
        let mut egress = Vec::with_capacity(config.connections_per_session);
        for _ in 0..config.connections_per_session {
            t += SimDuration::from_millis(rng.below(config.mean_gap.as_millis() * 2).max(1));
            let jitter_in = rng.below(config.jitter.as_millis().max(1));
            let jitter_out = rng.below(config.jitter.as_millis().max(1));
            ingress.push(HopEvent {
                at: t.as_millis() + jitter_in,
                side_id: session as u32,
            });
            egress.push(HopEvent {
                at: t.as_millis() + config.relay_delay.as_millis() + jitter_out,
                side_id: session as u32,
            });
        }
        ingress_logs.push(ingress);
        egress_logs.push(egress);
    }
    (ingress_logs, egress_logs)
}

/// Timing distance between two event trains: mean absolute offset of the
/// best alignment of inter-arrival patterns.
fn train_distance(a: &[HopEvent], b: &[HopEvent]) -> f64 {
    // Estimate the constant relay delay as the median pairwise offset and
    // measure residual spread.
    let mut offsets: Vec<i64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| y.at as i64 - x.at as i64)
        .collect();
    offsets.sort_unstable();
    let n = offsets.len();
    let Some(&median) = offsets.get(n / 2) else {
        return f64::MAX;
    };
    offsets
        .iter()
        .map(|o| (o - median).abs() as f64)
        .sum::<f64>()
        / n as f64
}

/// Runs the attack.
pub fn run_attack(config: &AttackConfig, seed: u64) -> AttackReport {
    let mut rng = SimRng::new(seed).fork("correlation-attack");
    let (ingress_logs, egress_logs) = generate_logs(config, &mut rng);
    // Shuffle the egress side so the adversary cannot cheat via ordering.
    let mut egress_order: Vec<usize> = (0..config.sessions).collect();
    rng.shuffle(&mut egress_order);

    // Dual-role adversary: match every ingress train to its closest egress
    // train by timing.
    let mut matched = 0usize;
    for (session, ingress) in ingress_logs.iter().enumerate() {
        let best = egress_order
            .iter()
            .filter_map(|&e| Some((e, egress_logs.get(e)?)))
            .min_by(|(_, x), (_, y)| {
                train_distance(ingress, x).total_cmp(&train_distance(ingress, y))
            })
            .map_or(session, |(e, _)| e);
        if best == session {
            matched += 1;
        }
    }
    let accuracy_dual_role = matched as f64 / config.sessions.max(1) as f64;

    // Split-operator adversary: sees only the ingress logs; egress pairing
    // is a uniform guess.
    let accuracy_split_operators = 1.0 / config.sessions.max(1) as f64;

    AttackReport {
        sessions: config.sessions,
        matched_dual_role: matched,
        accuracy_dual_role,
        accuracy_split_operators,
    }
}

/// Renders the attack report.
pub fn render_attack(report: &AttackReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Timing-correlation attack (§6, Tor-style)");
    let _ = writeln!(out, "concurrent sessions        : {}", report.sessions);
    let _ = writeln!(
        out,
        "dual-role AS (AkamaiPR)    : {}/{} sessions de-anonymised ({:.0}%)",
        report.matched_dual_role,
        report.sessions,
        report.accuracy_dual_role * 100.0
    );
    let _ = writeln!(
        out,
        "disjoint operators         : {:.1}% (chance level — nothing to correlate)",
        report.accuracy_split_operators * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_role_adversary_deanonymises() {
        let report = run_attack(&AttackConfig::default(), 7);
        assert!(
            report.accuracy_dual_role > 0.9,
            "dual-role accuracy {:.2}",
            report.accuracy_dual_role
        );
        assert!(report.accuracy_split_operators < 0.05);
        assert!(report.accuracy_dual_role > 10.0 * report.accuracy_split_operators);
    }

    #[test]
    fn heavy_jitter_degrades_the_attack() {
        let clean = run_attack(&AttackConfig::default(), 9);
        let noisy = run_attack(
            &AttackConfig {
                // Jitter dominating the inter-arrival structure.
                jitter: SimDuration::from_secs(60),
                ..AttackConfig::default()
            },
            9,
        );
        assert!(
            noisy.accuracy_dual_role < clean.accuracy_dual_role,
            "noise did not hurt: {:.2} vs {:.2}",
            noisy.accuracy_dual_role,
            clean.accuracy_dual_role
        );
    }

    #[test]
    fn attack_is_deterministic() {
        let a = run_attack(&AttackConfig::default(), 3);
        let b = run_attack(&AttackConfig::default(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn more_sessions_lower_chance_baseline() {
        let small = run_attack(
            &AttackConfig {
                sessions: 10,
                ..AttackConfig::default()
            },
            5,
        );
        let large = run_attack(
            &AttackConfig {
                sessions: 80,
                ..AttackConfig::default()
            },
            5,
        );
        assert!(large.accuracy_split_operators < small.accuracy_split_operators);
        // Timing correlation stays strong even with more concurrency.
        assert!(large.accuracy_dual_role > 0.8);
    }

    #[test]
    fn render_mentions_both_adversaries() {
        let report = run_attack(&AttackConfig::default(), 1);
        let text = render_attack(&report);
        assert!(text.contains("dual-role"));
        assert!(text.contains("disjoint operators"));
    }

    #[test]
    fn train_distance_identity_is_small() {
        let train: Vec<HopEvent> = (0..10)
            .map(|i| HopEvent {
                at: 1000 * i,
                side_id: 0,
            })
            .collect();
        let shifted: Vec<HopEvent> = train
            .iter()
            .map(|e| HopEvent {
                at: e.at + 25,
                side_id: 1,
            })
            .collect();
        // Constant shift (the relay delay) does not count as distance.
        assert!(train_distance(&train, &shifted) < 1e-9);
        assert_eq!(train_distance(&[], &train), f64::MAX);
    }
}
