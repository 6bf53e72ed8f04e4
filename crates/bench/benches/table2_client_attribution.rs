//! Table 2 — client ASes served per ingress operator, joined with
//! APNIC-style AS populations.

use tectonic_bench::{banner, bench_deployment};
use tectonic_core::attribution::Table2;
use tectonic_core::ecs_scan::EcsScanner;
use tectonic_core::report::render_table2;
use tectonic_net::{Epoch, SimClock};
use tectonic_relay::Domain;

fn main() {
    let d = &bench_deployment();
    let auth = d.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let report = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
    let table = Table2::build(&report, &d.aspop);
    banner("Table 2: client ASes served by each ingress operator (April scan)");
    print!("{}", render_table2(&table));
    println!(
        "(paper: AkamaiPR 994M users / 34.6k ASes, Apple 105M / 20.8k, Both 2373M / 17.3k, Apple share in Both 76%)"
    );
}
