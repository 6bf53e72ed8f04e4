//! Figures 2 and 5 — geolocation of egress subnets per providing AS,
//! rendered as per-operator point clouds (lat/lon series), split by IP
//! version for Figure 5.

use tectonic_bench::{paper_banner, paper_deployment};
use tectonic_core::egress_analysis::EgressAnalysis;
use tectonic_net::Asn;

fn main() {
    let d = &paper_deployment();
    let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
    let points = analysis.geo_points(&d.universe);
    paper_banner("Figures 2/5: egress subnet geolocation per operator");
    for asn in [Asn::AKAMAI_PR, Asn::AKAMAI_EG, Asn::CLOUDFLARE, Asn::FASTLY] {
        for v4 in [true, false] {
            let subset: Vec<_> = points
                .iter()
                .filter(|p| p.asn == asn && p.v4 == v4)
                .collect();
            if subset.is_empty() {
                continue;
            }
            let (mut na, mut eu, mut rest) = (0usize, 0usize, 0usize);
            for p in &subset {
                if p.lon < -50.0 && p.lat > 14.0 {
                    na += 1;
                } else if p.lon > -26.0 && p.lon < 46.0 && p.lat > 34.0 {
                    eu += 1;
                } else {
                    rest += 1;
                }
            }
            println!(
                "{:<11} {}: {:>6} located subnets — {:>5.1}% NA, {:>5.1}% EU, {:>5.1}% elsewhere",
                asn.label(),
                if v4 { "IPv4" } else { "IPv6" },
                subset.len(),
                100.0 * na as f64 / subset.len() as f64,
                100.0 * eu as f64 / subset.len() as f64,
                100.0 * rest as f64 / subset.len() as f64,
            );
        }
    }
    println!("(paper: strong focus on North America and Europe, US ≈ 58% of subnets)");
}
