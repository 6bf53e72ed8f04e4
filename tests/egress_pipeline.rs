//! Integration: the egress list pipeline — generation, CSV round trip,
//! per-epoch growth, RIB attribution, GeoDb adoption, analyses.

use tectonic::core::egress_analysis::EgressAnalysis;
use tectonic::geo::country::CountryCode;
use tectonic::geo::egress::EgressList;
use tectonic::geo::mmdb::GeoDb;
use tectonic::net::{Asn, Epoch};
use tectonic::relay::{Deployment, DeploymentConfig};

fn deployment() -> Deployment {
    Deployment::build(91, DeploymentConfig::scaled(16))
}

#[test]
fn csv_round_trip_preserves_the_full_list() {
    let d = deployment();
    let csv = d.egress_list.to_csv();
    let parsed = EgressList::parse_csv(&csv).expect("own CSV parses");
    assert_eq!(parsed.len(), d.egress_list.len());
    for (a, b) in parsed.entries().iter().zip(d.egress_list.entries()) {
        assert_eq!(a, b);
    }
}

#[test]
fn every_subnet_is_attributable_via_bgp() {
    let d = deployment();
    for e in d.egress_list.entries() {
        let (_, asn) = d
            .rib
            .lookup_net(&e.subnet)
            .unwrap_or_else(|| panic!("{} unrouted", e.subnet));
        assert!(
            Asn::EGRESS_OPERATORS.contains(&asn),
            "{} attributed to non-egress {asn}",
            e.subnet
        );
    }
}

#[test]
fn snapshots_grow_with_little_churn() {
    let d = deployment();
    let jan = d.egress_list_at(Epoch::Jan2022);
    let may = d.egress_list_at(Epoch::May2022);
    let growth = may.len() as f64 / jan.len() as f64 - 1.0;
    assert!((0.10..0.20).contains(&growth), "growth {growth:.3}");
    // Churn: January subnets persist into May.
    let may_subnets: std::collections::HashSet<String> =
        may.entries().iter().map(|e| e.subnet.to_string()).collect();
    let missing = jan
        .entries()
        .iter()
        .filter(|e| !may_subnets.contains(&e.subnet.to_string()))
        .count();
    assert_eq!(missing, 0, "{missing} January subnets vanished by May");
}

#[test]
fn geodb_adoption_prevents_relay_localisation() {
    // The paper's MaxMind finding: the database mirrors Apple's list, so a
    // lookup returns the *represented* location, making it useless for
    // locating the physical relay.
    let d = deployment();
    let db = GeoDb::from_egress_list(&d.egress_list);
    let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
    assert!(analysis.mmdb_adoption_share(&db) > 0.99);
    // Two subnets of the same operator in the same BGP prefix can map to
    // different countries — physically implausible, proving the data is
    // client-facing, not relay-facing.
    let mut seen: std::collections::HashMap<String, CountryCode> = Default::default();
    let mut contradiction = false;
    for e in d.egress_list.entries().iter().filter(|e| e.subnet.is_v4()) {
        if let Some((prefix, _)) = d.rib.lookup_net(&e.subnet) {
            let key = prefix.to_string();
            match seen.get(&key) {
                Some(cc) if *cc != e.cc => {
                    contradiction = true;
                    break;
                }
                _ => {
                    seen.insert(key, e.cc);
                }
            }
        }
    }
    assert!(
        contradiction,
        "expected same-prefix subnets with different represented countries"
    );
}

#[test]
fn akamai_covers_superset_of_akamai_eg_countries() {
    // §4.2: "AkamaiPR covers all CCs that AkamaiEG covers plus 212 more."
    let d = deployment();
    let analysis = EgressAnalysis::new(&d.egress_list, &d.rib);
    let ccs_of = |asn: Asn| -> std::collections::BTreeSet<CountryCode> {
        d.egress_list
            .entries()
            .iter()
            .filter(|e| d.rib.lookup_net(&e.subnet).is_some_and(|(_, a)| a == asn))
            .map(|e| e.cc)
            .collect()
    };
    let pr = ccs_of(Asn::AKAMAI_PR);
    let eg = ccs_of(Asn::AKAMAI_EG);
    assert!(eg.is_subset(&pr), "AkamaiEG countries not ⊆ AkamaiPR");
    assert!(pr.len() > eg.len() + 100);
    let _ = analysis;
}

#[test]
fn egress_selector_only_serves_listed_subnets() {
    use std::collections::{BTreeMap, BTreeSet};
    use tectonic::net::SimTime;
    use tectonic::relay::egress::cell_country;
    use tectonic::relay::masque::client_cell;
    use tectonic::relay::session::CELL_POOL_SIZE;
    let d = deployment();
    let selector = d.egress_selector();
    let listed: std::collections::HashSet<String> = d
        .egress_list
        .entries()
        .iter()
        .map(|e| e.subnet.to_string())
        .collect();
    let now = SimTime::from_ymd(2022, 5, 10);
    let mut per_cell: BTreeMap<(Asn, String), BTreeSet<std::net::IpAddr>> = BTreeMap::new();
    for cc in [CountryCode::US, CountryCode::DE] {
        let cell = client_cell(cc);
        for key in 0..40u64 {
            let Some(operator) = selector.operator_for(key, cc, now) else {
                continue;
            };
            let draw = |conn| selector.draw(operator, cell_country(&cell), &cell, key, conn);
            for conn in 0..5u64 {
                let sel = draw(conn).expect("an operator with presence has a pool");
                assert!(
                    listed.contains(&sel.subnet.to_string()),
                    "selected {} not in the published list",
                    sel.subnet
                );
                assert!(sel.subnet.contains(sel.addr));
                assert!(Asn::EGRESS_OPERATORS.contains(&sel.operator));
                assert!(d.in_operator_space(sel.operator, sel.addr));
                assert_eq!(draw(conn), Some(sel.clone()), "draws are deterministic");
                per_cell
                    .entry((operator, cell.clone()))
                    .or_default()
                    .insert(sel.addr);
            }
        }
    }
    for ((operator, cell), addrs) in per_cell {
        assert!(
            addrs.len() <= CELL_POOL_SIZE,
            "{operator} at {cell}: {} addresses",
            addrs.len()
        );
    }
}

#[test]
fn table3_row_invariants_hold_per_epoch() {
    let d = deployment();
    for epoch in [Epoch::Jan2022, Epoch::Mar2022, Epoch::May2022] {
        let list = d.egress_list_at(epoch);
        let analysis = EgressAnalysis::new(&list, &d.rib);
        let t3 = analysis.table3();
        for row in &t3.rows {
            assert!(row.v4_addresses >= row.v4_subnets as u64, "{}", row.asn);
            if row.asn == Asn::CLOUDFLARE {
                assert_eq!(row.v4_addresses, row.v4_subnets as u64);
            }
            if row.asn == Asn::FASTLY {
                assert_eq!(row.v4_addresses, 2 * row.v4_subnets as u64);
            }
            if row.asn == Asn::AKAMAI_EG {
                assert_eq!(row.v4_bgp_prefixes, 1);
            }
        }
    }
}
