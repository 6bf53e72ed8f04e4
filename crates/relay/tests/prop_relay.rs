//! Property tests for the relay deployment's invariants: egress selection
//! laws, client-world structure, and ECS zone behaviour under arbitrary
//! query subnets.

#![expect(
    clippy::disallowed_types,
    reason = "build-once fixtures shared by the proptest cases; each is read-only after init"
)]

use std::collections::{BTreeSet, HashSet};
use std::net::IpAddr;
use std::sync::OnceLock;

use proptest::prelude::*;
use tectonic_dns::zone::{EcsAnswerer, QueryInfo};
use tectonic_dns::{EcsOption, QClass, QType, Question};
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, Epoch, IpNet, Ipv4Net, SimRng, SimTime};
use tectonic_relay::egress::cell_country;
use tectonic_relay::masque::client_cell;
use tectonic_relay::session::CELL_POOL_SIZE;
use tectonic_relay::zone::MaskZone;
use tectonic_relay::{ClientWorld, Deployment, DeploymentConfig};

fn deployment() -> &'static Deployment {
    static DEPLOYMENT: OnceLock<Deployment> = OnceLock::new();
    DEPLOYMENT.get_or_init(|| Deployment::build(5150, DeploymentConfig::scaled(512)))
}

fn listed_subnets() -> &'static HashSet<IpNet> {
    static LISTED: OnceLock<HashSet<IpNet>> = OnceLock::new();
    LISTED.get_or_init(|| {
        deployment()
            .egress_list
            .entries()
            .iter()
            .map(|e| e.subnet)
            .collect()
    })
}

fn mask_zone() -> &'static MaskZone {
    static ZONE: OnceLock<MaskZone> = OnceLock::new();
    ZONE.get_or_init(|| {
        let d = deployment();
        MaskZone::new(d.fleets.clone(), d.world.clone(), 8, 42)
    })
}

fn arb_cc() -> impl Strategy<Value = CountryCode> {
    prop_oneof![
        Just(CountryCode::US),
        Just(CountryCode::DE),
        Just(CountryCode::new("JP").unwrap()),
        Just(CountryCode::new("BR").unwrap()),
        Just(CountryCode::new("KE").unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn egress_selection_always_inside_subnet(
        client_key in any::<u64>(),
        cc in arb_cc(),
        conn in any::<u64>(),
        minutes in 0u64..10_000,
    ) {
        let d = deployment();
        let selector = d.egress_selector();
        let now = SimTime::from_ymd(2022, 5, 1)
            + tectonic_net::SimDuration::from_mins(minutes);
        let cell = client_cell(cc);
        if let Some(operator) = selector.operator_for(client_key, cc, now) {
            let draw = |id| selector.draw(operator, cell_country(&cell), &cell, client_key, id);
            let Some(sel) = draw(conn) else {
                return Err(TestCaseError::fail(format!("{operator} has no pool at {cell}")));
            };
            prop_assert!(sel.subnet.contains(sel.addr));
            prop_assert!(listed_subnets().contains(&sel.subnet), "{} not listed", sel.subnet);
            prop_assert!(Asn::EGRESS_OPERATORS.contains(&sel.operator));
            // The address lies in the operator's announced space.
            prop_assert!(d.in_operator_space(sel.operator, sel.addr));
            // Selection is deterministic for the same inputs.
            prop_assert_eq!(draw(conn), Some(sel));
            // Every connection of the (operator, cell) draws from one
            // small pool.
            let seen: BTreeSet<IpAddr> = (0..64u64)
                .filter_map(|i| draw(conn.wrapping_add(i)))
                .map(|s| s.addr)
                .collect();
            prop_assert!(seen.len() <= CELL_POOL_SIZE, "{} addresses", seen.len());
        }
    }

    #[test]
    fn mask_zone_answers_are_well_formed(
        subnet_bits in any::<u32>(),
        quic in any::<bool>(),
        v6_query in any::<bool>(),
    ) {
        let d = deployment();
        let zone = mask_zone();
        let name = if quic { "mask.icloud.com" } else { "mask-h2.icloud.com" };
        let qtype = if v6_query { QType::AAAA } else { QType::A };
        let question = Question {
            name: name.parse().unwrap(),
            qtype,
            qclass: QClass::IN,
        };
        let ecs = EcsOption::for_v4_net(Ipv4Net::new(subnet_bits.into(), 24).unwrap());
        let info = QueryInfo {
            src: "138.246.253.10".parse().unwrap(),
            now: Epoch::Apr2022.start(),
        };
        let answer = zone.answer(&question, Some(&ecs), &info).expect("mask answers");
        prop_assert!(answer.rdatas.len() <= 8);
        // Every record is an ingress address of a single operator.
        let mut ops = std::collections::BTreeSet::new();
        for rd in &answer.rdatas {
            let addr: IpAddr = match (v6_query, rd.as_a(), rd.as_aaaa()) {
                (false, Some(a), _) => IpAddr::V4(a),
                (true, _, Some(a)) => IpAddr::V6(a),
                _ => return Err(TestCaseError::fail("wrong rdata family")),
            };
            let asn = d.fleets.asn_of(addr);
            prop_assert!(asn.is_some(), "{addr} not ingress");
            ops.insert(asn.unwrap());
        }
        if !answer.rdatas.is_empty() {
            prop_assert_eq!(ops.len(), 1, "answer mixes operators");
        }
        // Scope law: AAAA answers always scope 0; A answers never wider
        // than the query's /24.
        if v6_query {
            prop_assert_eq!(answer.scope_len, 0);
        } else {
            prop_assert!(answer.scope_len <= 24);
        }
    }

    #[test]
    fn client_world_serving_operator_is_stable(seed in any::<u64>()) {
        let config = DeploymentConfig::scaled(2048).client_world;
        let world = ClientWorld::generate(&SimRng::new(seed), &config);
        for client_as in world.ases().iter().step_by(11) {
            let subnet = client_as.slash24s().next().unwrap();
            let op1 = world.serving_operator(subnet);
            let op2 = world.serving_operator(subnet);
            prop_assert_eq!(op1, op2);
            prop_assert!(op1.is_some());
            // The operator is one of the two ingress operators.
            prop_assert!(Asn::INGRESS_OPERATORS.contains(&op1.unwrap()));
        }
    }

    #[test]
    fn last_hop_is_a_function_of_site(addr_bits in any::<u32>(), asn in 1u32..70_000) {
        let d = deployment();
        let asn = Asn(asn);
        let addr = IpAddr::V4(std::net::Ipv4Addr::from(addr_bits));
        let a = d.routers.last_hop(asn, addr);
        let b = d.routers.last_hop(asn, addr);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.asn, asn);
        // Traceroute always ends at the last hop.
        let hops = d.routers.traceroute(Asn(100_000), asn, addr);
        prop_assert_eq!(*hops.last().unwrap(), a);
        prop_assert_eq!(hops.len(), 4);
    }
}
