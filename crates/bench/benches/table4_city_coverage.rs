//! Table 4 — covered cities per egress operator (total / IPv4 / IPv6).

use tectonic_bench::{paper_banner, paper_deployment};
use tectonic_core::egress_analysis::EgressAnalysis;
use tectonic_core::report::render_table4;

fn main() {
    let d = &paper_deployment();
    let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
    let table = analysis.table4();
    paper_banner("Table 4: covered cities per egress operator (paper scale)");
    print!("{}", render_table4(&table));
    println!(
        "(paper: AkamaiPR 14088/853/14085, AkamaiEG 7507/455/7507, \
         Cloudflare 5228/1134/5228, Fastly 848/848/848)"
    );
}
