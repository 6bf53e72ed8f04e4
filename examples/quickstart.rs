//! Quickstart: build a simulated iCloud Private Relay deployment, enumerate
//! its ingress relays with an ECS scan, and send one request through the
//! relay.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tectonic::core::ecs_scan::EcsScanner;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch, SimClock};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode, Domain, RequestAgent};

fn main() {
    // A deterministic deployment: ingress fleets at paper scale, client
    // world and egress list at 1/64 scale so this example runs in seconds.
    let deployment = Deployment::build(42, DeploymentConfig::scaled(64));
    println!("deployment: {deployment:?}");

    // 1. Enumerate ingress relays the way the paper does (§3): iterate the
    //    routed IPv4 space as /24 ECS client subnets.
    let auth = deployment.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let report = scanner.scan(Domain::MaskQuic.name(), &auth, &deployment.rib, &mut clock);
    println!(
        "\nECS scan (April, default domain): {} ingress addresses \
         ({} Apple, {} AkamaiPR) from {} queries",
        report.total(),
        report.count_for(Asn::APPLE),
        report.count_for(Asn::AKAMAI_PR),
        report.queries_sent,
    );

    // 2. Connect through the relay from a German client and watch the
    //    egress address rotate per connection (§4.3).
    let device = deployment.device_in_country(CountryCode::DE, DnsMode::Open);
    println!("\nthree requests through the relay:");
    for i in 0..3 {
        let now = Epoch::May2022.start() + tectonic::net::SimDuration::from_secs(30 * i);
        let request = device
            .request(RequestAgent::Curl, &auth, now, i + 1)
            .expect("relay request");
        println!(
            "  ingress {} [{}]  →  egress {} [{}]",
            request.ingress,
            request.ingress_asn.expect("ingress is attributed").label(),
            request.egress.addr,
            request.egress.operator.label(),
        );
    }

    // 3. The passive-observer use case the paper motivates: an ISP can
    //    detect relay traffic by matching destinations against the ingress
    //    dataset collected in step 1.
    let request = device
        .request(RequestAgent::Safari, &auth, Epoch::May2022.start(), 4)
        .expect("relay request");
    let is_relay_traffic = match request.ingress {
        std::net::IpAddr::V4(a) => report.discovered.contains(&a),
        std::net::IpAddr::V6(_) => false,
    };
    println!(
        "\npassive detection: destination {} is in the published ingress set: {}",
        request.ingress, is_relay_traffic
    );
}
