//! Table 3 — egress subnets, BGP prefixes, addresses and country coverage
//! per operating AS, at full paper scale (the egress list is cheap enough).

use tectonic_bench::{paper_banner, paper_deployment};
use tectonic_core::egress_analysis::EgressAnalysis;
use tectonic_core::report::render_table3;

fn main() {
    let d = &paper_deployment();
    let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
    let table = analysis.table3();
    paper_banner("Table 3: egress subnets per operating AS (May snapshot, paper scale)");
    print!("{}", render_table3(&table));
    println!(
        "(paper: AkamaiPR 9890/301/57589 + 142826/1172, AkamaiEG 1602/1/5100 + 23495/1, \
         Cloudflare 18218/112/18218 + 26988/2, Fastly 8530/81/17060 + 8530/81)"
    );
    println!(
        "blank-city rows: {:.1}% (paper: 1.6%); countries <50 subnets: {} (paper: 123)",
        analysis.blank_city_share() * 100.0,
        analysis.countries_below(50)
    );
    let pops = tectonic_geo::country::pop_countries(130);
    let phantoms = analysis.phantom_locations(tectonic_net::Asn::AKAMAI_PR, &pops);
    println!(
        "AkamaiPR represents {} countries with no physical PoP (e.g. {:?}) — \
         the published location is the client's, not the relay's",
        phantoms.len(),
        phantoms.iter().take(3).collect::<Vec<_>>()
    );
}
