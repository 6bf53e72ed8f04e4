//! Figure 4 — CDFs of subnets per city (a, b) and per country (c, d), for
//! IPv4 and IPv6, per egress operator AS.

use tectonic_bench::{paper_banner, paper_deployment};
use tectonic_core::egress_analysis::EgressAnalysis;
use tectonic_core::report::render_fig4;

fn main() {
    let d = &paper_deployment();
    let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
    paper_banner("Figure 4: subnet-location CDFs per operator");
    print!(
        "{}",
        render_fig4(&analysis.cdf(true, true), "a: IPv4 cities")
    );
    print!(
        "{}",
        render_fig4(&analysis.cdf(true, false), "b: IPv6 cities")
    );
    print!(
        "{}",
        render_fig4(&analysis.cdf(false, true), "c: IPv4 countries")
    );
    print!(
        "{}",
        render_fig4(&analysis.cdf(false, false), "d: IPv6 countries")
    );
    println!("(paper: heavily skewed — few cities/countries hold most subnets)");
}
