//! R3 — the service-blocking survey (§4.1): share of probes behind
//! resolvers that block the relay domains, with the RCODE breakdown.

use tectonic_atlas::population::PopulationConfig;
use tectonic_bench::{banner, bench_deployment};
use tectonic_core::atlas_campaign::AtlasSetup;
use tectonic_core::blocking::survey;
use tectonic_core::report::render_blocking;
use tectonic_dns::server::AuthoritativeServer;
use tectonic_dns::{QType, RData, Record, Zone};
use tectonic_net::Epoch;
use tectonic_relay::Domain;

fn control_server() -> AuthoritativeServer {
    let mut zone = Zone::new("atlas-measurements.net".parse().unwrap());
    zone.add_record(Record::new(
        "control.atlas-measurements.net".parse().unwrap(),
        300,
        RData::A("93.184.216.34".parse().unwrap()),
    ));
    AuthoritativeServer::new().with_zone(zone)
}

fn main() {
    let d = &bench_deployment();
    let atlas = AtlasSetup::build(d, &PopulationConfig::paper().with_probes(11_700), 3);
    let mask_results = atlas.run_mask_campaign(d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 3);
    let control = control_server();
    let control_results = atlas.run_control_campaign(&control, Epoch::Apr2022, 4);
    let is_ingress = |addr: std::net::IpAddr| d.fleets.is_ingress(addr);
    let report = survey(&mask_results, &control_results, &is_ingress);
    banner("R3: service-blocking survey (11,700 probes)");
    print!("{}", render_blocking(&report));
    println!(
        "(paper: 10% timeouts, 7% failing responses — 72% NXDOMAIN / 13% NOERROR / 5% REFUSED, \
         645 probes = 5.5% blocked, one hijack)"
    );
}
