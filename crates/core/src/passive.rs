//! Passive-measurement and IDS impact analysis (§6's "Passive Measurements
//! and iCloud Private Relay" discussion).
//!
//! Two perspectives the paper says must adapt:
//!
//! * **ISP / access network** — relay traffic hides its destination; the
//!   only handle left is the published ingress dataset.
//!   [`PassiveMonitor`] classifies observed flows against that dataset and
//!   reports how much traffic becomes unattributable.
//! * **server-side IDS** — one client session arrives from several egress
//!   addresses that rotate per connection; naive per-IP session stitching
//!   fragments (the Imperva issue the paper cites).
//!   [`ids_fragmentation`] quantifies that: how many source addresses a
//!   single user's request train appears to come from.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

use serde::{Deserialize, Serialize};
use tectonic_dns::server::NameServer;
use tectonic_net::{SimDuration, SimTime};
use tectonic_relay::client::{Device, RequestAgent};

/// A flow record as an ISP-level monitor sees it: source, destination,
/// bytes — no payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Client-side address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Flow volume (arbitrary units).
    pub bytes: u64,
}

/// The ISP-side classification result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassiveReport {
    /// Flows inspected.
    pub flows: usize,
    /// Flows whose destination is a known ingress relay.
    pub relay_flows: usize,
    /// Bytes to relay ingresses.
    pub relay_bytes: u64,
    /// Total bytes.
    pub total_bytes: u64,
    /// Distinct ingress addresses seen as destinations.
    pub distinct_ingresses: usize,
}

impl PassiveReport {
    /// Share of traffic whose true destination is hidden by the relay.
    pub fn hidden_share(&self) -> f64 {
        self.relay_bytes as f64 / self.total_bytes.max(1) as f64
    }
}

/// An ISP-level passive monitor armed with the published ingress dataset.
#[derive(Debug, Default)]
pub struct PassiveMonitor {
    ingresses: BTreeSet<IpAddr>,
}

impl PassiveMonitor {
    /// Builds the monitor from an ingress address dataset (e.g. an ECS
    /// scan's `discovered` set).
    pub fn new(ingresses: impl IntoIterator<Item = IpAddr>) -> PassiveMonitor {
        PassiveMonitor {
            ingresses: ingresses.into_iter().collect(),
        }
    }

    /// Whether one flow goes to the relay network.
    pub fn is_relay_flow(&self, flow: &FlowRecord) -> bool {
        self.ingresses.contains(&flow.dst)
    }

    /// Classifies a flow log.
    pub fn classify(&self, flows: &[FlowRecord]) -> PassiveReport {
        let mut relay_flows = 0usize;
        let mut relay_bytes = 0u64;
        let mut total_bytes = 0u64;
        let mut distinct: BTreeSet<IpAddr> = BTreeSet::new();
        for flow in flows {
            total_bytes += flow.bytes;
            if self.is_relay_flow(flow) {
                relay_flows += 1;
                relay_bytes += flow.bytes;
                distinct.insert(flow.dst);
            }
        }
        PassiveReport {
            flows: flows.len(),
            relay_flows,
            relay_bytes,
            total_bytes,
            distinct_ingresses: distinct.len(),
        }
    }
}

/// The server-side IDS view of one user's request train.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdsReport {
    /// Requests the user actually made.
    pub requests: usize,
    /// Source addresses the server observed them from.
    pub observed_sources: usize,
    /// Fragments produced by naive per-IP session stitching.
    pub sessions_by_ip: usize,
    /// Largest run of consecutive requests sharing one address.
    pub longest_stable_run: usize,
}

/// Drives `requests` through the relay from one device and measures how a
/// per-IP session stitcher fragments them. Request `i` is the device's
/// connection `i + 1`.
pub fn ids_fragmentation(
    device: &Device,
    auth: &dyn NameServer,
    start: SimTime,
    requests: usize,
    interval: SimDuration,
) -> IdsReport {
    let mut sources: Vec<IpAddr> = Vec::with_capacity(requests);
    for i in 0..requests {
        let now = start + SimDuration::from_millis(interval.as_millis() * i as u64);
        if let Ok(req) = device.request(RequestAgent::Safari, auth, now, i as u64 + 1) {
            sources.push(req.egress.addr);
        }
    }
    let observed: BTreeSet<&IpAddr> = sources.iter().collect();
    // Naive per-IP stitching: a new "session" whenever the address differs
    // from the previous request's.
    let mut sessions = if sources.is_empty() { 0 } else { 1 };
    let mut longest = 0usize;
    let mut run = 0usize;
    let mut prev: Option<&IpAddr> = None;
    for src in &sources {
        if prev == Some(src) {
            run += 1;
        } else {
            if prev.is_some() {
                sessions += 1;
            }
            longest = longest.max(run);
            run = 1;
        }
        prev = Some(src);
    }
    longest = longest.max(run);
    IdsReport {
        requests: sources.len(),
        observed_sources: observed.len(),
        sessions_by_ip: sessions,
        longest_stable_run: longest,
    }
}

/// Per-ingress traffic concentration an ISP would have to provision for
/// (§6: "ISPs need to evaluate their paths towards the ingress addresses").
pub fn ingress_traffic_shares(
    flows: &[FlowRecord],
    monitor: &PassiveMonitor,
) -> Vec<(IpAddr, f64)> {
    let mut per_ingress: BTreeMap<IpAddr, u64> = BTreeMap::new();
    let mut relay_total = 0u64;
    for flow in flows {
        if monitor.is_relay_flow(flow) {
            *per_ingress.entry(flow.dst).or_insert(0) += flow.bytes;
            relay_total += flow.bytes;
        }
    }
    let mut shares: Vec<(IpAddr, f64)> = per_ingress
        .into_iter()
        .map(|(addr, bytes)| (addr, bytes as f64 / relay_total.max(1) as f64))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecs_scan::EcsScanner;
    use tectonic_geo::country::CountryCode;
    use tectonic_net::{Epoch, SimClock};
    use tectonic_relay::{Deployment, DeploymentConfig, DnsMode, Domain};

    fn setup() -> (Deployment, PassiveMonitor) {
        let d = Deployment::build(31, DeploymentConfig::scaled(512));
        let auth = d.auth_server_unlimited();
        let scanner = EcsScanner::default();
        let mut clock = SimClock::new(Epoch::Apr2022.start());
        let scan = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
        let monitor = PassiveMonitor::new(scan.discovered.iter().map(|a| IpAddr::V4(*a)));
        (d, monitor)
    }

    #[test]
    fn isp_detects_relay_flows_via_dataset() {
        let (d, monitor) = setup();
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::US, DnsMode::Open);
        // Mix relay flows with ordinary web flows.
        let mut flows = Vec::new();
        for i in 0..30 {
            let now = Epoch::May2022.start() + SimDuration::from_secs(30 * i);
            let req = device
                .request(RequestAgent::Curl, &auth, now, i + 1)
                .unwrap();
            flows.push(FlowRecord {
                src: IpAddr::V4(device.addr()),
                dst: req.ingress,
                bytes: 1000,
            });
            flows.push(FlowRecord {
                src: IpAddr::V4(device.addr()),
                dst: "93.184.216.34".parse().unwrap(),
                bytes: 500,
            });
        }
        let report = monitor.classify(&flows);
        assert_eq!(report.flows, 60);
        assert_eq!(report.relay_flows, 30, "every relay flow detected");
        assert!((report.hidden_share() - 2.0 / 3.0).abs() < 1e-9);
        assert!(report.distinct_ingresses >= 1);
    }

    #[test]
    fn ordinary_traffic_is_never_misclassified() {
        let (_, monitor) = setup();
        let flows = vec![
            FlowRecord {
                src: "10.0.0.1".parse().unwrap(),
                dst: "93.184.216.34".parse().unwrap(),
                bytes: 100,
            },
            FlowRecord {
                src: "10.0.0.1".parse().unwrap(),
                dst: "8.8.8.8".parse().unwrap(),
                bytes: 100,
            },
        ];
        let report = monitor.classify(&flows);
        assert_eq!(report.relay_flows, 0);
        assert_eq!(report.hidden_share(), 0.0);
    }

    #[test]
    fn ids_sees_fragmented_sessions() {
        let (d, _) = setup();
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::US, DnsMode::Open);
        let report = ids_fragmentation(
            &device,
            &auth,
            Epoch::May2022.start(),
            100,
            SimDuration::from_secs(30),
        );
        assert_eq!(report.requests, 100);
        // One user, several apparent sources, many fragmented sessions —
        // the paper's "new client request pattern" (Imperva issue).
        assert!(report.observed_sources >= 3, "{}", report.observed_sources);
        assert!(
            report.sessions_by_ip > report.requests / 2,
            "stitching produced only {} sessions",
            report.sessions_by_ip
        );
        assert!(report.longest_stable_run < 20);
    }

    #[test]
    fn ingress_share_analysis_sums_to_one() {
        let (d, monitor) = setup();
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
        let mut flows = Vec::new();
        for i in 0..40 {
            let now = Epoch::May2022.start() + SimDuration::from_secs(60 * i);
            let req = device
                .request(RequestAgent::Curl, &auth, now, i + 1)
                .unwrap();
            flows.push(FlowRecord {
                src: IpAddr::V4(device.addr()),
                dst: req.ingress,
                bytes: 100 + i,
            });
        }
        let shares = ingress_traffic_shares(&flows, &monitor);
        assert!(!shares.is_empty());
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for pair in shares.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}
