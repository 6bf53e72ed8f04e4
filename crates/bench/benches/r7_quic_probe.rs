//! R7 — QUIC probing of ingress nodes (§3): standard Initials time out,
//! a forced negotiation reveals QUIC v1 + drafts 29–27.

use tectonic_bench::{banner, bench_deployment};
use tectonic_core::quic_probe::QuicProbeReport;
use tectonic_core::report::render_quic;

fn main() {
    let d = &bench_deployment();
    let report = QuicProbeReport::probe(d, 200);
    banner("R7: QUIC probing of ingress nodes");
    print!("{}", render_quic(&report));
    println!(
        "matches the paper's observation: {}",
        report.matches_paper()
    );
    println!("(paper: no Initial response; VN advertises QUICv1 and drafts 29–27)");
}
