//! R5 — the §6 prefix census of AS36183 (Akamai PR): announced prefixes,
//! how many carry ingress or egress relays, and the used share (92.2 %).

use tectonic_bench::{paper_banner, paper_deployment};
use tectonic_core::correlation::CorrelationReport;
use tectonic_core::report::render_correlation;
use tectonic_net::Epoch;

fn main() {
    let d = &paper_deployment();
    let report = CorrelationReport::audit(d, Epoch::Apr2022);
    paper_banner("R5: AkamaiPR prefix census (paper scale)");
    print!("{}", render_correlation(&report));
    println!("(paper: 478 IPv4 + 1335 IPv6 announced; ingress in 201, egress in 1472; 92.2% used)");
}
