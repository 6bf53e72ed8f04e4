//! Ablation — the §7 ethics optimisations: query counts with and without
//! honouring server-returned ECS scopes and the routed-space filter.

use tectonic_bench::{banner, bench_deployment};
use tectonic_core::ecs_scan::{EcsScanConfig, EcsScanner};
use tectonic_net::{Epoch, SimClock};
use tectonic_relay::Domain;

fn main() {
    let d = &bench_deployment();
    let auth = d.auth_server_unlimited();

    let scan_with = |respect_scopes: bool| {
        let scanner = EcsScanner::new(EcsScanConfig {
            respect_scopes,
            ..EcsScanConfig::default()
        });
        let mut clock = SimClock::new(Epoch::Apr2022.start());
        scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock)
    };
    let with_scopes = scan_with(true);
    let without_scopes = scan_with(false);
    banner("Ablation: ECS scope honouring (§7 ethics optimisation)");
    println!(
        "scopes honoured : {:>9} queries, {:>9} skipped, {:>4} addresses, {:>3} h",
        with_scopes.queries_sent,
        with_scopes.skipped_by_scope,
        with_scopes.total(),
        with_scopes.duration.as_secs() / 3600,
    );
    println!(
        "scopes ignored  : {:>9} queries, {:>9} skipped, {:>4} addresses, {:>3} h",
        without_scopes.queries_sent,
        without_scopes.skipped_by_scope,
        without_scopes.total(),
        without_scopes.duration.as_secs() / 3600,
    );
    println!(
        "query savings   : {:.1}% with identical discovery results ({})",
        100.0 * (1.0 - with_scopes.queries_sent as f64 / without_scopes.queries_sent as f64),
        with_scopes.discovered == without_scopes.discovered,
    );
    // The routed-space filter.
    let scanner = EcsScanner::default();
    let routed = scanner.candidate_subnets(&d.rib).len();
    let unrouted_scanner = EcsScanner::new(EcsScanConfig {
        skip_unrouted: false,
        ..EcsScanConfig::default()
    });
    let unicast = unrouted_scanner.candidate_subnets(&d.rib).len();
    println!(
        "routed-space filter: {routed} of {unicast} unicast /24s queried ({:.1}% skipped)",
        100.0 * (1.0 - routed as f64 / unicast as f64)
    );
}
