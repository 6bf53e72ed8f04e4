//! R1 — RIPE Atlas validation of the ECS scan (§4.1): the Atlas A
//! campaign's address set must be (almost) a subset of the ECS scan's,
//! with the ECS scan uncovering additional addresses.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use tectonic_atlas::population::PopulationConfig;
use tectonic_bench::{banner, bench_deployment};
use tectonic_core::atlas_campaign::{AtlasCampaignReport, AtlasSetup};
use tectonic_core::ecs_scan::EcsScanner;
use tectonic_dns::QType;
use tectonic_net::{Epoch, SimClock};
use tectonic_relay::Domain;

fn main() {
    let d = &bench_deployment();
    let auth = d.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let ecs = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
    let atlas = AtlasSetup::build(d, &PopulationConfig::paper().with_probes(2_000), 7);
    let results = atlas.run_mask_campaign(d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 7);
    let report = AtlasCampaignReport::aggregate(d, &results);
    let atlas_ingress: BTreeSet<Ipv4Addr> = report
        .v4_addresses
        .iter()
        .filter(|a| d.fleets.is_ingress(std::net::IpAddr::V4(**a)))
        .copied()
        .collect();
    let in_ecs = atlas_ingress.intersection(&ecs.discovered).count();
    banner("R1: Atlas validation of the ECS scan (April, default domain)");
    println!("ECS scan addresses   : {}", ecs.total());
    println!("Atlas addresses      : {}", atlas_ingress.len());
    println!(
        "Atlas ∩ ECS          : {} ({} missing from ECS)",
        in_ecs,
        atlas_ingress.len() - in_ecs
    );
    println!("ECS-only addresses   : {}", ecs.total() - in_ecs);
    println!("(paper: Atlas 1382 vs ECS 1586; all but one Atlas address also in ECS)");
}
