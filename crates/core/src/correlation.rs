//! The correlation audit (§6, R5/R6).
//!
//! Quantifies the traffic-correlation exposure the paper warns about:
//!
//! * the **prefix census** — of everything AS36183 announces, how many
//!   prefixes carry ingress relays, how many carry egress relays, and what
//!   share is used at all (the paper: 478 + 1335 announced, ingress in
//!   201, egress in 1472, 92.2 % used),
//! * **last-hop sharing** — traceroute-style validation that ingress and
//!   egress addresses inside AS36183 sit behind the same router,
//! * the **BGP history** check — AS36183 first became visible in June
//!   2021, the month Private Relay launched,
//! * the **topology degree** — AS36183's single peering to AS20940.

use std::collections::BTreeSet;
use std::net::IpAddr;

use serde::{Deserialize, Serialize};
use tectonic_bgp::Month;
use tectonic_net::{Asn, Epoch, IpNet};
use tectonic_relay::{Deployment, Domain};

use crate::egress_analysis::EgressAnalysis;

/// The §6 audit result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationReport {
    /// IPv4 prefixes announced by Akamai PR.
    pub announced_v4: usize,
    /// IPv6 prefixes announced by Akamai PR.
    pub announced_v6: usize,
    /// Announced prefixes containing at least one ingress relay.
    pub prefixes_with_ingress: usize,
    /// Announced prefixes containing at least one egress subnet.
    pub prefixes_with_egress: usize,
    /// Share of announced prefixes used for the relay service.
    pub used_share: f64,
    /// Whether any ingress/egress pair shares a BGP prefix (the paper:
    /// none do).
    pub ingress_egress_share_prefix: bool,
    /// Share of sampled ingress/egress pairs sharing a last-hop router.
    pub last_hop_sharing_rate: f64,
    /// First month Akamai PR was visible in BGP.
    pub first_seen: Option<Month>,
    /// Akamai PR's peering degree.
    pub akamai_pr_degree: usize,
    /// Its only neighbour (when degree is 1).
    pub single_peer: Option<Asn>,
}

impl CorrelationReport {
    /// Runs the audit against a deployment at `epoch`. The prefix census
    /// counts AS36183's announcements in one pass over the RIB's table.
    pub fn audit(deployment: &Deployment, epoch: Epoch) -> CorrelationReport {
        let (mut announced_v4, mut announced_v6) = (0usize, 0usize);
        for prefix in deployment.rib.prefixes_of(Asn::AKAMAI_PR) {
            if prefix.is_v4() {
                announced_v4 += 1;
            } else {
                announced_v6 += 1;
            }
        }

        // Collect every active ingress address (both domains, both
        // families) inside Akamai PR.
        let mut ingress_addrs: Vec<IpAddr> = Vec::new();
        for domain in Domain::ALL {
            ingress_addrs.extend(
                deployment
                    .fleets
                    .fleet_v4(epoch, domain, Asn::AKAMAI_PR)
                    .iter()
                    .map(|a| IpAddr::V4(*a)),
            );
            ingress_addrs.extend(
                deployment
                    .fleets
                    .fleet_v6(epoch, domain, Asn::AKAMAI_PR)
                    .iter()
                    .map(|a| IpAddr::V6(*a)),
            );
        }
        let mut with_ingress: BTreeSet<IpNet> = BTreeSet::new();
        for addr in &ingress_addrs {
            if let Some((prefix, asn)) = deployment.rib.lookup(*addr) {
                if asn == Asn::AKAMAI_PR {
                    with_ingress.insert(prefix);
                }
            }
        }

        // Egress prefixes of Akamai PR: the subnets' covering
        // announcements, from the attribution behind Table 3.
        let egress = EgressAnalysis::new(&deployment.egress_list, &deployment.rib);
        let with_egress: BTreeSet<IpNet> =
            egress.covering_prefixes(Asn::AKAMAI_PR).copied().collect();

        let used = with_ingress.union(&with_egress).count();
        let used_share = used as f64 / (announced_v4 + announced_v6).max(1) as f64;
        let ingress_egress_share_prefix = with_ingress.intersection(&with_egress).next().is_some();

        // Last-hop sharing: sample ingress × egress v4 pairs.
        let ingress_v4: Vec<IpAddr> = ingress_addrs
            .iter()
            .filter(|a| a.is_ipv4())
            .copied()
            .collect();
        let egress_v4: Vec<IpAddr> = egress
            .entries_of(Asn::AKAMAI_PR)
            .filter(|e| e.subnet.is_v4())
            .map(|e| e.subnet.network())
            .collect();
        let mut pairs = 0usize;
        let mut shared = 0usize;
        for (i, ing) in ingress_v4.iter().step_by(7).enumerate() {
            for eg in egress_v4.iter().skip(i % 3).step_by(11).take(24) {
                pairs += 1;
                if deployment
                    .routers
                    .shares_last_hop(Asn::AKAMAI_PR, *ing, *eg)
                {
                    shared += 1;
                }
            }
        }
        let last_hop_sharing_rate = shared as f64 / pairs.max(1) as f64;

        CorrelationReport {
            announced_v4,
            announced_v6,
            prefixes_with_ingress: with_ingress.len(),
            prefixes_with_egress: with_egress.len(),
            used_share,
            ingress_egress_share_prefix,
            last_hop_sharing_rate,
            first_seen: deployment.history.first_seen(Asn::AKAMAI_PR),
            akamai_pr_degree: deployment.topology.degree(Asn::AKAMAI_PR),
            single_peer: match deployment.topology.neighbors(Asn::AKAMAI_PR).as_slice() {
                [only] => Some(*only),
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_relay::DeploymentConfig;

    fn paper_audit() -> CorrelationReport {
        let d = Deployment::build(77, DeploymentConfig::paper());
        CorrelationReport::audit(&d, Epoch::Apr2022)
    }

    #[test]
    fn census_matches_section6() {
        let r = paper_audit();
        assert_eq!(r.announced_v4, 478);
        assert_eq!(r.announced_v6, 1336);
        assert_eq!(r.prefixes_with_ingress, 201);
        // Egress: 301 v4 + 1172 v6 covering announcements.
        assert_eq!(r.prefixes_with_egress, 1473);
        assert!(
            (0.91..0.94).contains(&r.used_share),
            "used share {:.4}",
            r.used_share
        );
    }

    #[test]
    fn ingress_and_egress_never_share_a_prefix() {
        let r = paper_audit();
        assert!(!r.ingress_egress_share_prefix);
    }

    #[test]
    fn last_hop_sharing_occurs() {
        let r = paper_audit();
        assert!(
            r.last_hop_sharing_rate > 0.0,
            "no shared last hops observed"
        );
        // With 24 site routers the expected collision rate is ≈ 1/24.
        assert!(r.last_hop_sharing_rate < 0.5);
    }

    #[test]
    fn history_and_topology_findings() {
        let r = paper_audit();
        assert_eq!(r.first_seen, Some(Month::new(2021, 6)));
        assert_eq!(r.akamai_pr_degree, 1);
        assert_eq!(r.single_peer, Some(Asn::AKAMAI_EG));
    }

    #[test]
    fn scaled_deployment_keeps_shape() {
        let d = Deployment::build(77, DeploymentConfig::scaled(256));
        let r = CorrelationReport::audit(&d, Epoch::Apr2022);
        // Counts shrink but the structure holds.
        assert!(r.prefixes_with_ingress > 0);
        assert!(r.prefixes_with_egress > 0);
        assert!(r.used_share > 0.5);
        assert!(!r.ingress_egress_share_prefix);
    }
}
