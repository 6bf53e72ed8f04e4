//! R4 — egress address rotation (§4.3): 48 h of 30-second request rounds;
//! the paper saw six addresses from four subnets with a >66 % change rate
//! and diverging parallel requests. The model draws each connection's
//! address from a three-address pool per operator and geohash cell, so
//! about 1 − 1/3 of consecutive and parallel requests differ.

use tectonic_bench::{banner, bench_deployment};
use tectonic_core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic_core::report::render_rotation;
use tectonic_core::rotation::RotationReport;
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, Epoch};
use tectonic_relay::DnsMode;

fn main() {
    let d = &bench_deployment();
    let auth = d.auth_server_unlimited();
    let device = d.vantage_device(
        CountryCode::DE,
        DnsMode::Open,
        vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR],
    );
    let config = RelayScanConfig::rotation_series();
    let series = RelayScanSeries::run(&device, &auth, &config, Epoch::May2022.start());
    let report = RotationReport::from_series(&series);
    banner("R4: egress address rotation (48 h, 30 s rounds)");
    print!("{}", render_rotation(&report));
    println!("(paper: 6 addresses / 4 subnets, >66% change rate, parallel requests diverge)");
    println!("(model: 3 addresses per operator and cell, ~1 - 1/3 = 67% change and divergence)");
}
