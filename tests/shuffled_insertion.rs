//! Insertion-order invariance of the golden pipeline.
//!
//! `std::collections::HashMap` iterates in a per-instance random order, so
//! no output may depend on it. Statically, every library crate root denies
//! `clippy::iter_over_hash_type` (a `for` over a hash container); these
//! property tests check the same property dynamically, through paths that
//! lint cannot see too (`.keys()`, `.values()`): reloading the
//! deployment's load-bearing tables — the RIB, the egress list, and static
//! DNS zones — from a *shuffled* input order leaves every rendered golden
//! artifact (Tables 1–4, the §6 correlation audit, zone answers)
//! byte-identical. Shuffles are driven by `SimRng` from a proptest-chosen
//! seed, so failures minimise and replay deterministically.

use std::net::{IpAddr, Ipv4Addr};

use proptest::prelude::*;

use tectonic::bgp::Rib;
use tectonic::core::attribution::Table2;
use tectonic::core::correlation::CorrelationReport;
use tectonic::core::ecs_scan::EcsScanner;
use tectonic::core::egress_analysis::EgressAnalysis;
use tectonic::core::report::{
    render_correlation, render_table1, render_table2, render_table3, render_table4,
};
use tectonic::dns::{DomainName, QType, Zone};
use tectonic::geo::egress::EgressList;
use tectonic::net::{Epoch, SimClock, SimRng};
use tectonic::relay::{Deployment, DeploymentConfig, Domain};

/// Rebuilds `rib` by re-announcing its routes in a shuffled order.
fn shuffled_rib(rib: &Rib, seed: u64) -> Rib {
    let mut routes: Vec<_> = rib.iter().collect();
    let mut rng = SimRng::new(seed);
    rng.shuffle(&mut routes);
    let mut out = Rib::new();
    for (prefix, asn) in routes {
        out.announce(prefix, asn);
    }
    out.freeze();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tables 3/4 and the correlation audit survive shuffled RIB
    /// announcements and a shuffled egress-list row order.
    #[test]
    fn egress_tables_and_audit_survive_shuffled_loading(seed in any::<u64>()) {
        let d = Deployment::build(7, DeploymentConfig::scaled(512));
        let baseline = EgressAnalysis::new(&d.egress_list, &d.rib);
        let t3 = render_table3(&baseline.table3());
        let t4 = render_table4(&baseline.table4());
        let audit = render_correlation(&CorrelationReport::audit(&d, Epoch::Apr2022));

        let mut rng = SimRng::new(seed);
        let rib = shuffled_rib(&d.rib, rng.next_u64_raw());
        let mut entries = d.egress_list.entries().to_vec();
        rng.shuffle(&mut entries);
        let list = EgressList::from_entries(entries);

        let analysis = EgressAnalysis::new(&list, &rib);
        prop_assert_eq!(render_table3(&analysis.table3()), t3);
        prop_assert_eq!(render_table4(&analysis.table4()), t4);

        let mut d = d;
        d.rib = rib;
        d.egress_list = list;
        let shuffled_audit =
            render_correlation(&CorrelationReport::audit(&d, Epoch::Apr2022));
        prop_assert_eq!(shuffled_audit, audit);
    }

    /// Static zone answers are independent of record-insertion order.
    #[test]
    fn static_zone_answers_survive_shuffled_record_insertion(seed in any::<u64>()) {
        let apex = DomainName::literal("example.com");
        let hosts: Vec<(DomainName, IpAddr)> = (0u32..24)
            .map(|i| {
                (
                    DomainName::literal(&format!("h{i}.example.com")),
                    IpAddr::V4(Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8)),
                )
            })
            .collect();

        let mut natural = Zone::new(apex.clone());
        for (name, addr) in &hosts {
            natural.add_address(name.clone(), 300, *addr);
        }

        let mut order: Vec<usize> = (0..hosts.len()).collect();
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut order);
        let mut shuffled = Zone::new(apex);
        for &i in &order {
            let (name, addr) = &hosts[i];
            shuffled.add_address(name.clone(), 300, *addr);
        }

        for (name, _) in &hosts {
            prop_assert_eq!(
                natural.lookup_static(name, QType::A),
                shuffled.lookup_static(name, QType::A)
            );
        }
    }
}

proptest! {
    // Each case runs four reduced-scale ECS scans; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tables 1/2 — the full deployment → authoritative DNS → ECS scanner
    /// pipeline — survive a shuffled RIB reload: candidate enumeration,
    /// attribution, and the per-AS aggregates must not depend on the
    /// announcement order.
    #[test]
    fn scan_tables_survive_shuffled_rib(seed in any::<u64>()) {
        let mut d = Deployment::build(5, DeploymentConfig::scaled(128));
        let scanner = EcsScanner::default();
        let run = |d: &Deployment| {
            let auth = d.auth_server_unlimited();
            let epoch = Epoch::Apr2022;
            let mut clock = SimClock::new(epoch.start());
            let default = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
            let mut clock = SimClock::new(epoch.start());
            let fallback = scanner.scan(Domain::MaskH2.name(), &auth, &d.rib, &mut clock);
            let t2 = render_table2(&Table2::build(&default, &d.aspop));
            let t1 = render_table1(&[(epoch, default, Some(fallback))]);
            (t1, t2)
        };
        let (t1, t2) = run(&d);
        d.rib = shuffled_rib(&d.rib, seed);
        let (shuffled_t1, shuffled_t2) = run(&d);
        prop_assert_eq!(shuffled_t1, t1);
        prop_assert_eq!(shuffled_t2, t2);
    }
}
