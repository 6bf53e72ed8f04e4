//! The network-operator perspective (§6's discussion): what passive
//! monitoring and IDSs see once clients move onto iCloud Private Relay.
//!
//! * An ISP monitor classifies a mixed flow log against the published
//!   ingress dataset — relay traffic is detectable but unattributable.
//! * A server-side IDS stitches sessions per source IP and watches one
//!   user fragment into dozens of apparent sessions (the Imperva issue).
//!
//! ```text
//! cargo run --release --example passive_observer
//! ```

use std::net::IpAddr;

use tectonic::core::ecs_scan::EcsScanner;
use tectonic::core::passive::{
    ids_fragmentation, ingress_traffic_shares, FlowRecord, PassiveMonitor,
};
use tectonic::geo::country::CountryCode;
use tectonic::net::{Epoch, SimClock, SimDuration};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode, Domain, RequestAgent};

fn main() {
    let deployment = Deployment::build(2022, DeploymentConfig::scaled(64));
    let auth = deployment.auth_server_unlimited();

    // Step 1: the operator obtains the ingress dataset (the artefact the
    // paper publishes for exactly this purpose).
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let scan = scanner.scan(Domain::MaskQuic.name(), &auth, &deployment.rib, &mut clock);
    println!(
        "ingress dataset: {} addresses from the April ECS scan",
        scan.total()
    );
    let monitor = PassiveMonitor::new(scan.discovered.iter().map(|a| IpAddr::V4(*a)));

    // Step 2: watch a subscriber's mixed traffic.
    let device = deployment.device_in_country(CountryCode::DE, DnsMode::Open);
    let mut flows = Vec::new();
    for i in 0..200 {
        let now = Epoch::May2022.start() + SimDuration::from_secs(30 * i);
        let request = device
            .request(RequestAgent::Safari, &auth, now, i + 1)
            .expect("relay up");
        flows.push(FlowRecord {
            src: IpAddr::V4(device.addr()),
            dst: request.ingress,
            bytes: 1400,
        });
        // Plus some non-relay background traffic.
        if i % 3 == 0 {
            flows.push(FlowRecord {
                src: IpAddr::V4(device.addr()),
                dst: "93.184.216.34".parse().unwrap(),
                bytes: 900,
            });
        }
    }
    let report = monitor.classify(&flows);
    println!(
        "\nISP view: {} of {} flows go to the relay ({:.1}% of bytes now destination-hidden), \
         {} distinct ingress addresses",
        report.relay_flows,
        report.flows,
        report.hidden_share() * 100.0,
        report.distinct_ingresses,
    );
    let shares = ingress_traffic_shares(&flows, &monitor);
    if let Some((addr, share)) = shares.first() {
        println!(
            "heaviest ingress path: {addr} carries {:.1}% of this subscriber's relay bytes \
             (capacity planning input, §6)",
            share * 100.0
        );
    }

    // Step 3: the destination server's IDS view of the same user. It passes
    // step 2's start, interval, agent and connection ids 1–200: the same
    // 200 requests with the same egress draws, seen server-side.
    let ids = ids_fragmentation(
        &device,
        &auth,
        Epoch::May2022.start(),
        200,
        SimDuration::from_secs(30),
    );
    println!(
        "\nIDS view: {} requests from one user appeared to come from {} addresses — \
         naive per-IP stitching produced {} sessions (longest stable run: {})",
        ids.requests, ids.observed_sources, ids.sessions_by_ip, ids.longest_stable_run,
    );
    println!(
        "mitigation (paper's suggestion): consult the published egress list to \
         recognise relay addresses instead of treating the pattern as anomalous"
    );
}
