//! QoE impact experiment (§6 future work: "How does the service impact
//! the user's QoE? Apple claims the impact is low…").
//!
//! Drives the latency model over a workload of (client country, target
//! country) pairs drawn from the deployment's client world and compares
//! the direct path against the two-hop relay path, with and without the
//! CDN backbone optimisation the paper's §2 describes (Cloudflare Argo).

use serde::{Deserialize, Serialize};
use tectonic_geo::country::CountryCode;
use tectonic_net::SimRng;
use tectonic_relay::{Deployment, LatencyModel};

/// Aggregate QoE comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QoeReport {
    /// Connections sampled.
    pub connections: usize,
    /// Median direct RTT, ms.
    pub median_direct_ms: f64,
    /// Median relayed RTT, ms.
    pub median_relayed_ms: f64,
    /// Median relay overhead, ms.
    pub median_overhead_ms: f64,
    /// 95th-percentile overhead, ms.
    pub p95_overhead_ms: f64,
    /// Share of connections whose relayed RTT is within 10 % of direct.
    pub within_10pct: f64,
    /// Share where the relay is actually *faster* (backbone wins).
    pub relay_faster: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted.get(idx).or(sorted.last()).copied().unwrap_or(0.0)
}

/// Runs the experiment: `samples` connections from clients drawn out of
/// the deployment's client world to targets drawn from popular hosting
/// countries.
pub fn qoe_experiment(
    deployment: &Deployment,
    model: &LatencyModel,
    samples: usize,
    seed: u64,
) -> QoeReport {
    let mut rng = SimRng::new(seed).fork("qoe");
    // Target countries weighted like hosting markets: mostly US/EU.
    let targets = [
        (CountryCode::US, 5.0),
        (CountryCode::DE, 2.0),
        (CountryCode::literal("NL"), 1.5),
        (CountryCode::literal("GB"), 1.0),
        (CountryCode::literal("SG"), 0.8),
        (CountryCode::literal("JP"), 0.7),
    ];
    let target_weights: Vec<f64> = targets.iter().map(|(_, w)| *w).collect();
    let ases = deployment.world.ases();
    let mut direct = Vec::with_capacity(samples);
    let mut relayed = Vec::with_capacity(samples);
    let mut overhead = Vec::with_capacity(samples);
    let mut within = 0usize;
    let mut faster = 0usize;
    for i in 0..samples {
        let (Some(client), Some(&(target, _))) = (
            ases.get(rng.index(ases.len())),
            targets.get(rng.pick_weighted(&target_weights).unwrap_or(0)),
        ) else {
            continue;
        };
        // The egress represents the client's own country (the default
        // "maintain region" setting).
        let conn = model.connection(client.cc, client.cc, target, seed ^ (i as u64));
        if conn.relayed_ms <= conn.direct_ms * 1.10 {
            within += 1;
        }
        if conn.relayed_ms < conn.direct_ms {
            faster += 1;
        }
        direct.push(conn.direct_ms);
        relayed.push(conn.relayed_ms);
        overhead.push(conn.overhead_ms());
    }
    direct.sort_by(|a, b| a.total_cmp(b));
    relayed.sort_by(|a, b| a.total_cmp(b));
    overhead.sort_by(|a, b| a.total_cmp(b));
    QoeReport {
        connections: samples,
        median_direct_ms: percentile(&direct, 0.5),
        median_relayed_ms: percentile(&relayed, 0.5),
        median_overhead_ms: percentile(&overhead, 0.5),
        p95_overhead_ms: percentile(&overhead, 0.95),
        within_10pct: within as f64 / samples.max(1) as f64,
        relay_faster: faster as f64 / samples.max(1) as f64,
    }
}

/// Renders the QoE report.
pub fn render_qoe(optimised: &QoeReport, unoptimised: &QoeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "QoE impact of the two-hop relay (§6 future work)");
    let _ = writeln!(out, "{:<22} | {:>10} {:>10}", "", "optimised", "plain path");
    type RowExtractor = fn(&QoeReport) -> f64;
    let rows: [(&str, RowExtractor); 6] = [
        ("median direct (ms)", |r| r.median_direct_ms),
        ("median relayed (ms)", |r| r.median_relayed_ms),
        ("median overhead (ms)", |r| r.median_overhead_ms),
        ("p95 overhead (ms)", |r| r.p95_overhead_ms),
        ("within 10% of direct", |r| r.within_10pct * 100.0),
        ("relay faster (%)", |r| r.relay_faster * 100.0),
    ];
    for (label, f) in rows {
        let _ = writeln!(
            out,
            "{:<22} | {:>10.1} {:>10.1}",
            label,
            f(optimised),
            f(unoptimised)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_relay::DeploymentConfig;

    fn deployment() -> Deployment {
        Deployment::build(3, DeploymentConfig::scaled(1024))
    }

    #[test]
    fn experiment_is_deterministic() {
        let d = deployment();
        let model = LatencyModel::default();
        let a = qoe_experiment(&d, &model, 500, 9);
        let b = qoe_experiment(&d, &model, 500, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn optimised_backbone_beats_plain_routing() {
        let d = deployment();
        let optimised = qoe_experiment(&d, &LatencyModel::default(), 1000, 9);
        let plain = qoe_experiment(
            &d,
            &LatencyModel {
                backbone_factor: 1.25,
                ..LatencyModel::default()
            },
            1000,
            9,
        );
        assert!(optimised.median_overhead_ms < plain.median_overhead_ms);
        assert!(optimised.within_10pct > plain.within_10pct);
    }

    #[test]
    fn overhead_is_bounded_and_ordered() {
        let d = deployment();
        let report = qoe_experiment(&d, &LatencyModel::default(), 1000, 4);
        assert!(report.median_relayed_ms >= report.median_direct_ms * 0.5);
        assert!(report.p95_overhead_ms >= report.median_overhead_ms);
        // Apple's "low impact" claim: the majority of connections stay
        // within 10 % of direct, or the overhead stays small in absolute
        // terms.
        assert!(
            report.within_10pct > 0.3 || report.median_overhead_ms < 20.0,
            "within {:.2}, overhead {:.1}",
            report.within_10pct,
            report.median_overhead_ms
        );
    }

    #[test]
    fn render_shows_both_columns() {
        let d = deployment();
        let a = qoe_experiment(&d, &LatencyModel::default(), 200, 1);
        let text = render_qoe(&a, &a);
        assert!(text.contains("median overhead"));
        assert!(text.contains("relay faster"));
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }
}
