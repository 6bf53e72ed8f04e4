//! QUIC probing of ingress nodes (§3, R7).
//!
//! Sends both probe variants against the ingress behaviour model and
//! tallies the outcomes — the paper's two observations: standard Initials
//! time out, forced negotiation reveals QUIC v1 + drafts 29–27.

use serde::{Deserialize, Serialize};
use tectonic_quic::{ProbeOutcome, QuicProber};
use tectonic_relay::Deployment;

/// Aggregated probing outcomes across sampled ingress nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuicProbeReport {
    /// Ingress addresses probed.
    pub probed: usize,
    /// Standard-Initial probes that received no answer.
    pub standard_timeouts: usize,
    /// Probes whose datagrams never reached the ingress at all (injected
    /// network blackhole, not the ingress's deliberate Initial-drop
    /// policy). Always zero outside fault-injection runs.
    pub blackholed: usize,
    /// Forced-negotiation probes answered with Version Negotiation.
    pub negotiations: usize,
    /// The version sets observed, deduplicated (expected: exactly one —
    /// v1 + drafts 29–27).
    pub version_sets: Vec<Vec<u32>>,
}

impl QuicProbeReport {
    /// Probes every Akamai PR and Apple QUIC-domain ingress node.
    ///
    /// The simulated fleet shares one behaviour object, but the probe loop
    /// mirrors the real scan's per-address structure so per-node
    /// divergence would be caught.
    pub fn probe(deployment: &Deployment, sample: usize) -> QuicProbeReport {
        QuicProbeReport::probe_with(deployment, sample, &mut || false)
    }

    /// Like [`probe`](QuicProbeReport::probe), but asks `blackholed`
    /// before each probe whether the network eats this exchange outright
    /// (fault injection). A blackholed probe counts as a standard-Initial
    /// timeout — indistinguishable on the wire from the ingress's own
    /// silent drop — and never reaches the negotiation step.
    pub fn probe_with(
        deployment: &Deployment,
        sample: usize,
        blackholed: &mut dyn FnMut() -> bool,
    ) -> QuicProbeReport {
        let behavior = deployment.fleets.quic_behavior();
        let prober = QuicProber;
        let mut report = QuicProbeReport {
            probed: 0,
            standard_timeouts: 0,
            blackholed: 0,
            negotiations: 0,
            version_sets: Vec::new(),
        };
        for _ in 0..sample.max(1) {
            report.probed += 1;
            if blackholed() {
                report.blackholed += 1;
                report.standard_timeouts += 1;
                continue;
            }
            let (standard, negotiated) = prober.probe_ingress(behavior);
            if standard == ProbeOutcome::Timeout {
                report.standard_timeouts += 1;
            }
            if let ProbeOutcome::VersionNegotiation(versions) = negotiated {
                report.negotiations += 1;
                if !report.version_sets.contains(&versions) {
                    report.version_sets.push(versions);
                }
            }
        }
        report
    }

    /// Whether the observations match the paper exactly.
    pub fn matches_paper(&self) -> bool {
        self.standard_timeouts == self.probed
            && self.negotiations == self.probed
            && self.version_sets == [tectonic_quic::INGRESS_SUPPORTED_VERSIONS.to_vec()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_relay::DeploymentConfig;

    #[test]
    fn probe_reproduces_paper_observation() {
        let d = Deployment::build(88, DeploymentConfig::scaled(2048));
        let report = QuicProbeReport::probe(&d, 50);
        assert_eq!(report.probed, 50);
        assert_eq!(report.standard_timeouts, 50);
        assert_eq!(report.negotiations, 50);
        assert!(report.matches_paper());
        // The advertised set is v1 + drafts 29..27.
        assert_eq!(report.version_sets[0].len(), 4);
        assert_eq!(report.version_sets[0][0], tectonic_quic::VERSION_V1);
    }

    #[test]
    fn zero_sample_clamps_to_one() {
        let d = Deployment::build(88, DeploymentConfig::scaled(2048));
        let report = QuicProbeReport::probe(&d, 0);
        assert_eq!(report.probed, 1);
    }
}
