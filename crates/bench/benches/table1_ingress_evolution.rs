//! Table 1 — ingress relay counts per AS, January through April, for the
//! default (QUIC) and fallback (TCP) domains.
//!
//! Regenerates the table by running the ECS enumeration scan at each epoch
//! against the simulated deployment.

use tectonic_bench::{banner, bench_deployment};
use tectonic_core::ecs_scan::EcsScanner;
use tectonic_core::report::render_table1;
use tectonic_net::{Epoch, SimClock};
use tectonic_relay::Domain;

fn main() {
    let d = &bench_deployment();
    let auth = d.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let rows: Vec<_> = Epoch::SCANS
        .iter()
        .map(|epoch| {
            let mut clock = SimClock::new(epoch.start());
            let default = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
            let fallback = if *epoch == Epoch::Jan2022 {
                None // the paper's January scan lacked the fallback domain
            } else {
                let mut clock = SimClock::new(epoch.start());
                Some(scanner.scan(Domain::MaskH2.name(), &auth, &d.rib, &mut clock))
            };
            (*epoch, default, fallback)
        })
        .collect();
    banner("Table 1: ingress relays per AS and epoch");
    print!("{}", render_table1(&rows));
    let apr = &rows[3].1;
    println!(
        "April QUIC ingress total: {} (paper: 1586); scan duration {} h (paper: ~40 h at full scale)",
        apr.total(),
        apr.duration.as_secs() / 3600,
    );
}
