//! The RIPE-Atlas-style service-blocking survey (§4.1, R3).
//!
//! Generates an Atlas-like probe population inside the simulated client
//! world, resolves the mask domain and a control domain from every probe,
//! and classifies the failures: transient timeouts vs intentional DNS
//! blocking (NXDOMAIN / empty NOERROR / verified REFUSED / hijack).
//!
//! ```text
//! cargo run --release --example blocking_survey [probes]
//! ```

use tectonic::atlas::population::PopulationConfig;
use tectonic::core::atlas_campaign::{control_server, AtlasSetup};
use tectonic::core::blocking::survey;
use tectonic::core::report::render_blocking;
use tectonic::dns::QType;
use tectonic::net::Epoch;
use tectonic::relay::{Deployment, DeploymentConfig, Domain};

fn main() {
    let probes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11_700);
    let deployment = Deployment::build(7, DeploymentConfig::scaled(64));
    let atlas = AtlasSetup::build(
        &deployment,
        &PopulationConfig::paper().with_probes(probes),
        99,
    );
    println!(
        "probe population: {} probes, public-resolver share {:.1}%, \
         ISP/local resolvers in {} ASes",
        atlas.probes.len(),
        atlas.public_resolver_share() * 100.0,
        atlas.resolver_as_count(),
    );
    println!("resolver mix: {:?}", atlas.resolver_mix());

    // The relay-domain measurement and the control-domain comparison run.
    let mask_results =
        atlas.run_mask_campaign(&deployment, Domain::MaskQuic, QType::A, Epoch::Apr2022, 1);
    let control_auth = control_server();
    let control_results = atlas.run_control_campaign(&control_auth, Epoch::Apr2022, 2);

    let is_ingress = |addr: std::net::IpAddr| deployment.fleets.is_ingress(addr);
    let report = survey(&mask_results, &control_results, &is_ingress);
    println!();
    print!("{}", render_blocking(&report));
    println!(
        "\npaper reference: 10% timeouts; 7% failing responses \
         (72% NXDOMAIN, 13% NOERROR, 5% REFUSED); 645 probes (5.5%) blocked; one hijack"
    );
}
