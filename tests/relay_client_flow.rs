//! Integration: the client-through-relay flow — what every vantage point
//! observes, across DNS modes, plus the Appendix-B behaviours and the
//! QUIC wire interaction.

use std::collections::HashSet;
use std::net::IpAddr;

use tectonic::core::ecs_scan::EcsScanner;
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch, SimClock, SimDuration};
use tectonic::quic::{IngressQuicBehavior, ProbeOutcome, QuicProber};
use tectonic::relay::{Deployment, DeploymentConfig, DnsMode, Domain, RequestAgent};

fn deployment() -> Deployment {
    Deployment::build(404, DeploymentConfig::scaled(128))
}

#[test]
fn isp_sees_only_ingress_server_sees_only_egress() {
    // The privacy core of the system: the client's ISP observes the
    // ingress address, the destination server observes the egress address,
    // and they are never equal nor in the same /24.
    let d = deployment();
    let auth = d.auth_server_unlimited();
    let device = d.device_in_country(CountryCode::US, DnsMode::Open);
    for i in 0..50 {
        let now = Epoch::May2022.start() + SimDuration::from_secs(30 * i);
        let req = device
            .request(RequestAgent::Curl, &auth, now, i + 1)
            .unwrap();
        assert!(d.fleets.is_ingress(req.ingress), "ISP-visible address");
        assert!(
            !d.fleets.is_ingress(req.egress.addr),
            "egress is not ingress"
        );
        assert_ne!(req.ingress, req.egress.addr);
    }
}

#[test]
fn every_scanned_ingress_accepts_forced_connections() {
    // §3's fixed-DNS experiment: any address from the ECS scan works as a
    // forced ingress.
    let d = deployment();
    let auth = d.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let report = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
    for addr in report.discovered.iter().step_by(97) {
        let device = d.device_in_country(CountryCode::DE, DnsMode::Fixed(*addr));
        let req = device
            .request(RequestAgent::Safari, &auth, Epoch::May2022.start(), 1)
            .unwrap_or_else(|e| panic!("forced ingress {addr} failed: {e}"));
        assert_eq!(req.ingress, IpAddr::V4(*addr));
    }
}

#[test]
fn correlation_attack_surface_exists_in_akamai_pr() {
    // §6: a client whose connection enters an AkamaiPR ingress and leaves
    // an AkamaiPR egress is observable at both ends by one entity.
    let d = deployment();
    let auth = d.auth_server_unlimited();
    let ingress = d
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
    let device = d.vantage_device(
        CountryCode::US,
        DnsMode::Fixed(ingress),
        vec![Asn::AKAMAI_PR],
    );
    let req = device
        .request(RequestAgent::Curl, &auth, Epoch::May2022.start(), 1)
        .unwrap();
    assert_eq!(req.ingress_asn, Some(Asn::AKAMAI_PR));
    assert_eq!(req.egress.operator, Asn::AKAMAI_PR);
    // Both endpoints resolve to AS36183 in the public RIB.
    assert!(d.in_operator_space(Asn::AKAMAI_PR, req.ingress));
    assert!(d.in_operator_space(Asn::AKAMAI_PR, req.egress.addr));
}

#[test]
fn management_connection_targets_ingress_prefix() {
    // Appendix B: after connecting, the device opens an extra QUIC
    // connection into the configured ingress's prefix.
    let d = deployment();
    let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
    let ingress = d
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[3];
    let target = device.management_connection_target(ingress);
    assert_ne!(target, ingress);
    // Same /24 ⇒ same AS in the RIB.
    let (_, asn) = d.rib.lookup(IpAddr::V4(target)).unwrap();
    assert_eq!(asn, Asn::AKAMAI_PR);
    // Appendix B also identifies Cloudflare's resolver as the ODoH target.
    assert_eq!(device.odoh_resolver().to_string(), "1.1.1.1");
}

#[test]
fn quic_wire_interaction_end_to_end() {
    // The §3 probing result holds for the deployment's behaviour object,
    // through real packet bytes.
    let d = deployment();
    let behavior: &IngressQuicBehavior = d.fleets.quic_behavior();
    let prober = QuicProber;
    let (standard, negotiated) = prober.probe_ingress(behavior);
    assert_eq!(standard, ProbeOutcome::Timeout);
    match negotiated {
        ProbeOutcome::VersionNegotiation(versions) => {
            assert_eq!(
                versions,
                vec![0x0000_0001, 0xff00_001d, 0xff00_001c, 0xff00_001b]
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn egress_rotation_is_confined_to_a_small_pool() {
    let d = deployment();
    let auth = d.auth_server_unlimited();
    let device = d.device_in_country(CountryCode::US, DnsMode::Open);
    let mut addrs: HashSet<IpAddr> = HashSet::new();
    for i in 0..500 {
        let now = Epoch::May2022.start() + SimDuration::from_secs(30 * i);
        let req = device
            .request(RequestAgent::Curl, &auth, now, i + 1)
            .unwrap();
        addrs.insert(req.egress.addr);
    }
    assert!(addrs.len() >= 3, "rotation produced {} addrs", addrs.len());
    assert!(
        addrs.len() <= 20,
        "per-location pool unexpectedly large: {}",
        addrs.len()
    );
}

#[test]
fn deployments_are_bit_reproducible_across_builds() {
    let a = Deployment::build(404, DeploymentConfig::scaled(128));
    let b = Deployment::build(404, DeploymentConfig::scaled(128));
    let auth_a = a.auth_server_unlimited();
    let auth_b = b.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let mut ca = SimClock::new(Epoch::Apr2022.start());
    let mut cb = SimClock::new(Epoch::Apr2022.start());
    let ra = scanner.scan(Domain::MaskQuic.name(), &auth_a, &a.rib, &mut ca);
    let rb = scanner.scan(Domain::MaskQuic.name(), &auth_b, &b.rib, &mut cb);
    assert_eq!(ra.discovered, rb.discovered);
    assert_eq!(ra.queries_sent, rb.queries_sent);
    assert_eq!(ra.per_client_as, rb.per_client_as);
}

#[test]
fn masque_session_enforces_visibility_separation() {
    // §2's privacy core, verified on every request: the ingress view never
    // contains the target; the egress view never contains the client.
    let d = deployment();
    let auth = d.auth_server_unlimited();
    let device = d.device_in_country(CountryCode::US, DnsMode::Open);
    for i in 0..20 {
        let now = Epoch::May2022.start() + SimDuration::from_secs(30 * i);
        let req = device
            .request(RequestAgent::Curl, &auth, now, i + 1)
            .unwrap();
        let session = &req.session;
        assert_eq!(session.transport, tectonic::relay::Transport::Quic);
        assert_eq!(session.ingress_view.client_addr, IpAddr::V4(device.addr()));
        assert_eq!(session.ingress_view.egress_addr, req.egress.addr);
        assert!(session.ingress_view.token_valid);
        // The egress knows the ingress and the target, never the client.
        assert_eq!(session.egress_view.ingress_addr, req.ingress);
        assert_eq!(session.egress_view.target_authority, "ipecho.net:80");
        assert_ne!(session.egress_view.ingress_addr, IpAddr::V4(device.addr()));
        // The geohash is coarse (4 chars ≈ city scale).
        assert_eq!(session.egress_view.client_geohash.len(), 4);
    }
}

#[test]
fn udp_blocked_network_uses_tcp_fallback() {
    let d = deployment();
    let auth = d.auth_server_unlimited();
    let client_as = &d.world.ases()[0];
    let device = tectonic::relay::Device::new(
        client_as.host_addr(9),
        client_as.cc,
        DnsMode::Open,
        d.fleets.clone(),
        d.egress_selector(),
    )
    .with_udp_blocked(true);
    let req = device
        .request(RequestAgent::Safari, &auth, Epoch::May2022.start(), 1)
        .unwrap();
    assert_eq!(
        req.session.transport,
        tectonic::relay::Transport::TcpFallback
    );
}

#[test]
fn token_budget_limits_a_shared_account() {
    use std::sync::Arc;
    let d = deployment();
    let auth = d.auth_server_unlimited();
    let issuer = Arc::new(tectonic::relay::TokenIssuer::new(5));
    let client_as = &d.world.ases()[0];
    let device = tectonic::relay::Device::new(
        client_as.host_addr(9),
        client_as.cc,
        DnsMode::Open,
        d.fleets.clone(),
        d.egress_selector(),
    )
    .with_token_issuer(issuer);
    let now = Epoch::May2022.start();
    for id in 1..=5 {
        assert!(device.request(RequestAgent::Curl, &auth, now, id).is_ok());
    }
    let err = device
        .request(RequestAgent::Curl, &auth, now, 6)
        .unwrap_err();
    assert!(matches!(
        err,
        tectonic::relay::client::ConnectError::Masque(_)
    ));
}

#[test]
fn odoh_resolution_carries_egress_ecs() {
    // Appendix B: DoH through the relay attaches the *egress* address as
    // the ECS subnet, so the authoritative tailors answers to the egress
    // location, not the client's.
    use std::sync::Arc;
    use tectonic::dns::zone::{EcsAnswer, EcsAnswerer, QueryInfo};
    use tectonic::dns::{server::AuthoritativeServer, EcsOption, QType, Question, RData, Zone};

    struct EcsEcho;
    impl EcsAnswerer for EcsEcho {
        fn answer(
            &self,
            _q: &Question,
            ecs: Option<&EcsOption>,
            _info: &QueryInfo,
        ) -> Option<EcsAnswer> {
            let seen = ecs
                .map(|e| e.source_net().to_string())
                .unwrap_or_else(|| "none".into());
            Some(EcsAnswer {
                rdatas: vec![RData::Txt(format!("ecs={seen}"))],
                ttl: 0,
                scope_len: ecs.map(|e| e.source_len).unwrap_or(0),
            })
        }
    }

    let d = deployment();
    let relay_auth = d.auth_server_unlimited();
    let target_auth = AuthoritativeServer::new()
        .with_zone(Zone::new("cdn.example".parse().unwrap()).with_dynamic(Arc::new(EcsEcho)));
    let device = d.device_in_country(CountryCode::US, DnsMode::Open);
    let outcome = device
        .odoh_resolve(
            &"www.cdn.example".parse().unwrap(),
            QType::TXT,
            &target_auth,
            &relay_auth,
            Epoch::May2022.start(),
        )
        .unwrap();
    let msg = outcome.message().expect("DoH answered");
    let tectonic::dns::RData::Txt(echoed) = &msg.answers[0].rdata else {
        panic!("TXT expected");
    };
    // The echoed subnet is an egress /24, never the client's own.
    let client_24 = format!("ecs={}/24", {
        let o = device.addr().octets();
        format!("{}.{}.{}.0", o[0], o[1], o[2])
    });
    assert_ne!(echoed, &client_24, "ECS leaked the client subnet");
    let subnet: tectonic::net::Ipv4Net = echoed
        .strip_prefix("ecs=")
        .unwrap()
        .parse()
        .expect("echoed subnet parses");
    // The subnet belongs to an egress operator's announced space.
    let (_, asn) = d
        .rib
        .lookup(std::net::IpAddr::V4(subnet.network()))
        .expect("egress space is routed");
    assert!(
        Asn::EGRESS_OPERATORS.contains(&asn),
        "{asn} not an egress AS"
    );
}
