//! R6 — traceroute last-hop sharing and the BGP first-seen check (§6).
//!
//! The paper validates the correlation concern by tracerouting to an
//! ingress and an egress address in AS36183 and finding the same last-hop
//! router, and by scanning monthly BGP snapshots back to 2016 to show the
//! AS first appeared in June 2021.

use tectonic_bench::{paper_banner, paper_deployment};
use tectonic_net::{Asn, Epoch};
use tectonic_relay::Domain;

fn main() {
    let d = &paper_deployment();
    paper_banner("R6: last-hop sharing + BGP visibility history");

    // Pick one ingress and search egress subnets sharing its last hop.
    let client_asn = d.world.ases()[0].asn;
    let ingress = d
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
    let ingress_trace =
        d.routers
            .traceroute(client_asn, Asn::AKAMAI_PR, std::net::IpAddr::V4(ingress));
    println!("traceroute to ingress {ingress}:");
    for (ttl, hop) in ingress_trace.iter().enumerate() {
        println!("  {:>2}  {}  [{}]", ttl + 1, hop.addr, hop.asn);
    }
    let shared = d
        .egress_list
        .entries()
        .iter()
        .filter(|e| e.subnet.is_v4())
        .filter(|e| {
            d.rib
                .lookup_net(&e.subnet)
                .is_some_and(|(_, asn)| asn == Asn::AKAMAI_PR)
        })
        .find(|e| {
            d.routers.shares_last_hop(
                Asn::AKAMAI_PR,
                std::net::IpAddr::V4(ingress),
                e.subnet.network(),
            )
        });
    match shared {
        Some(e) => {
            let trace = d
                .routers
                .traceroute(client_asn, Asn::AKAMAI_PR, e.subnet.network());
            println!("egress subnet {} shares the last hop:", e.subnet);
            for (ttl, hop) in trace.iter().enumerate() {
                println!("  {:>2}  {}  [{}]", ttl + 1, hop.addr, hop.asn);
            }
            assert_eq!(trace.last(), ingress_trace.last());
        }
        None => println!("no egress subnet shares this ingress's last hop (unexpected)"),
    }

    // BGP history.
    let first = d.history.first_seen(Asn::AKAMAI_PR);
    println!(
        "AkamaiPR first visible in BGP: {} (paper: 2021-06, the Private Relay launch)",
        first.map(|m| m.to_string()).unwrap_or_default()
    );
    println!(
        "AkamaiPR peering degree: {} (single peer: {:?})",
        d.topology.degree(Asn::AKAMAI_PR),
        d.topology
            .neighbors(Asn::AKAMAI_PR)
            .first()
            .map(|a| a.label())
    );

    // The timing-correlation attack the shared infrastructure enables.
    let attack = tectonic_core::correlation_attack::run_attack(
        &tectonic_core::correlation_attack::AttackConfig::default(),
        2022,
    );
    print!(
        "{}",
        tectonic_core::correlation_attack::render_attack(&attack)
    );
}
