//! Building the full deployment.
//!
//! [`Deployment::build`] assembles everything the paper measures into one
//! deterministic object: the client world, the ingress fleets, the egress
//! list and footprints, the global RIB, the AS topology, the BGP visibility
//! history, per-AS populations, and the router-level path model.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use tectonic_bgp::{AsPopulation, AsTopology, Month, Rib, VisibilityHistory};
use tectonic_dns::resolver::ResolverKind;
use tectonic_dns::server::{AuthoritativeServer, RateLimit};
use tectonic_dns::{DomainName, Zone};
use tectonic_net::{Asn, Epoch, Ipv4Net, SimRng};

use tectonic_geo::city::CityUniverse;
use tectonic_geo::country::{all_countries, CountryCode};
use tectonic_geo::egress::{generate, EgressList, OperatorFootprint};

use crate::client::{Device, DnsMode};
use crate::config::DeploymentConfig;
use crate::egress::EgressSelector;
use crate::ingress::IngressFleets;
use crate::path::RouterTopology;
use crate::world::ClientWorld;
use crate::zone::MaskZone;

/// A transit AS connecting everything (Lumen-like).
pub const TRANSIT_AS: Asn = Asn(3356);

/// Anycast source pools the four public resolvers query authoritatives
/// from, indexed in [`ResolverKind::PUBLIC`] order.
const PUBLIC_RESOLVER_POOLS: [&str; 4] = [
    "172.70.0.0/16",  // Google
    "172.68.0.0/16",  // Cloudflare
    "192.5.0.0/16",   // Quad9
    "146.112.0.0/16", // OpenDNS
];

/// The source address a public resolver uses when querying from a site
/// near clients in `cc`. Both the Atlas model and the authoritative zone
/// derive country attribution from this shared mapping.
pub fn anycast_source(kind: ResolverKind, cc: CountryCode) -> Ipv4Addr {
    let idx = ResolverKind::PUBLIC
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(0);
    let pool = PUBLIC_RESOLVER_POOLS
        .get(idx)
        .map(|p| Ipv4Net::literal(p))
        .unwrap_or_else(|| Ipv4Net::literal("172.70.0.0/16"));
    let cc_index = all_countries()
        .iter()
        .position(|c| c.code == cc)
        .unwrap_or(0) as u64;
    // One /24 per country, host .53.
    pool.nth_addr(cc_index * 256 + 53)
}

/// The fully built deployment.
pub struct Deployment {
    /// The configuration it was built from.
    pub config: DeploymentConfig,
    /// The seed it was built with.
    pub seed: u64,
    /// The city universe backing egress geography.
    pub universe: CityUniverse,
    /// The client-side Internet.
    pub world: Arc<ClientWorld>,
    /// The ingress fleets.
    pub fleets: Arc<IngressFleets>,
    /// The May (full) egress list.
    pub egress_list: EgressList,
    /// Per-operator egress footprints (announced prefixes).
    pub egress_footprints: Vec<OperatorFootprint>,
    /// The global routing table.
    pub rib: Rib,
    /// AS-level topology of the relay-relevant ASes.
    pub topology: AsTopology,
    /// Monthly AS visibility, 2016-01 through 2022-06.
    pub history: VisibilityHistory,
    /// Per-AS user populations (client world + zeros elsewhere).
    pub aspop: AsPopulation,
    /// Router-level path model.
    pub routers: RouterTopology,
    selector: Arc<EgressSelector>,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("seed", &self.seed)
            .field("client_ases", &self.world.ases().len())
            .field("egress_subnets", &self.egress_list.len())
            .field("rib_prefixes", &self.rib.len())
            .finish()
    }
}

impl Deployment {
    /// Builds the deployment deterministically from `seed`.
    ///
    /// ```
    /// use tectonic_relay::{Deployment, DeploymentConfig};
    ///
    /// let deployment = Deployment::build(42, DeploymentConfig::scaled(2048));
    /// assert!(deployment.rib.len() > 0);
    /// // Same seed, same Internet.
    /// let again = Deployment::build(42, DeploymentConfig::scaled(2048));
    /// assert_eq!(deployment.rib.len(), again.rib.len());
    /// ```
    pub fn build(seed: u64, config: DeploymentConfig) -> Deployment {
        let rng = SimRng::new(seed);
        // Every stream below is a label fork of this private root. `fork`
        // mixes only the root's state and the label and advances nothing,
        // so the order of the forks cannot change a stream. Moving them to
        // `fork_indexed` would change every derived stream (and so every
        // golden artifact); `relay_series_pinned_across_fork_audit` pins
        // them.
        let mut universe_rng = rng.fork("cities");
        let universe = CityUniverse::generate(&mut universe_rng, config.city_universe_size);
        let world = Arc::new(ClientWorld::generate(&rng, &config.client_world));
        let fleets = Arc::new(IngressFleets::build(&config));
        let (egress_list, egress_footprints) = generate(&rng, &universe, &config.egress_specs, 1.0);

        // --- global RIB
        let mut rib = Rib::new();
        for (prefix, asn) in world.announcements() {
            rib.announce(prefix, asn);
        }
        for plan in &config.ingress_plans {
            // Fleets were built from these very plans two lines up; an absent
            // pool would be a builder bug, and skipping it degrades to an
            // unannounced fleet rather than a panic.
            let Some(pool) = fleets.pool(plan.domain, plan.asn) else {
                continue;
            };
            for p in &pool.v4_prefixes {
                rib.announce(*p, plan.asn);
            }
            for p in &pool.v6_prefixes {
                rib.announce(*p, plan.asn);
            }
        }
        for footprint in &egress_footprints {
            for p in &footprint.bgp_v4 {
                rib.announce(*p, footprint.asn);
            }
            for p in &footprint.bgp_v6 {
                rib.announce(*p, footprint.asn);
            }
        }
        // Akamai PR's announced-but-unused prefixes (§6 census).
        let unused = &config.unused_akamai_pr;
        for p in unused
            .v4_pool
            .subnets(24)
            .into_iter()
            .flatten()
            .take(unused.v4)
        {
            rib.announce(p, Asn::AKAMAI_PR);
        }
        for p in (0..unused.v6).filter_map(|i| unused.v6_pool.nth_subnet(48, i as u128).ok()) {
            rib.announce(p, Asn::AKAMAI_PR);
        }
        // The table is fully loaded: compile it so every steady-state
        // consumer (scanner, analyses, correlation) looks up through the
        // flat engine instead of the staged map. Later churn (the chaos
        // pipeline's BGP flaps) patches the compiled table through the
        // RIB's delta overlay rather than invalidating it.
        rib.freeze();

        // --- AS topology: AkamaiPR hangs off AkamaiEG alone (§6).
        let mut topology = AsTopology::new();
        topology.add_link(Asn::AKAMAI_PR, Asn::AKAMAI_EG);
        topology.add_link(Asn::AKAMAI_EG, TRANSIT_AS);
        topology.add_link(Asn::APPLE, TRANSIT_AS);
        topology.add_link(Asn::CLOUDFLARE, TRANSIT_AS);
        topology.add_link(Asn::FASTLY, TRANSIT_AS);

        // --- visibility history: AkamaiPR first seen June 2021.
        let mut history = VisibilityHistory::new();
        for month in Month::new(2016, 1).through(Month::new(2022, 6)) {
            history.record_many(
                month,
                [
                    Asn::APPLE,
                    Asn::AKAMAI_EG,
                    Asn::CLOUDFLARE,
                    Asn::FASTLY,
                    TRANSIT_AS,
                ],
            );
            if month >= Month::new(2021, 6) {
                history.record(month, Asn::AKAMAI_PR);
            }
        }

        // --- AS populations from the client world.
        let mut aspop = AsPopulation::new();
        for client_as in world.ases() {
            aspop.set(client_as.asn, client_as.users);
        }

        let routers = RouterTopology::new(24, rng.fork("routers").next_u64_raw());
        let selector = Arc::new(EgressSelector::build(
            &egress_list,
            &egress_footprints,
            rng.fork("egress-selector").next_u64_raw(),
        ));

        Deployment {
            config,
            seed,
            universe,
            world,
            fleets,
            egress_list,
            egress_footprints,
            rib,
            topology,
            history,
            aspop,
            routers,
            selector,
        }
    }

    /// The egress list as published at `epoch` (regenerated at that epoch's
    /// scale; the May list equals [`Deployment::egress_list`]).
    pub fn egress_list_at(&self, epoch: Epoch) -> EgressList {
        let scale = self.config.egress_scale(epoch);
        let rng = SimRng::new(self.seed);
        let (list, _) = generate(&rng, &self.universe, &self.config.egress_specs, scale);
        list
    }

    /// The egress selector (shared by devices and the session layer).
    pub fn egress_selector(&self) -> Arc<EgressSelector> {
        self.selector.clone()
    }

    /// The `icloud.com` zone with the dynamic mask answerer installed and
    /// all public-resolver anycast sources registered.
    pub fn mask_zone(&self) -> Zone {
        let mut mask = MaskZone::new(
            self.fleets.clone(),
            self.world.clone(),
            self.config.max_records_per_answer,
            SimRng::new(self.seed).fork("mask-zone").next_u64_raw(),
        );
        for kind in ResolverKind::PUBLIC {
            for country in all_countries() {
                let addr = anycast_source(kind, country.code);
                mask.register_source_cc(Ipv4Net::slash24_of(addr), country.code);
            }
        }
        // All sources are registered; compile the source-cc table for the
        // per-query lookups the answerer does from here on.
        mask.seal();
        let mut zone = Zone::new(DomainName::literal("icloud.com"));
        zone.add_address(
            DomainName::literal("www.icloud.com"),
            300,
            IpAddr::V4(Ipv4Addr::new(17, 253, 144, 10)),
        );
        zone.with_dynamic(Arc::new(mask))
    }

    /// The authoritative server with the paper-calibrated rate limit — the
    /// reason the full ECS scan takes ~40 hours.
    pub fn auth_server(&self) -> AuthoritativeServer {
        AuthoritativeServer::new()
            .with_zone(self.mask_zone())
            .with_rate_limit(RateLimit::route53_like())
    }

    /// The authoritative server without rate limiting (fast unit tests and
    /// ablation baselines).
    pub fn auth_server_unlimited(&self) -> AuthoritativeServer {
        AuthoritativeServer::new().with_zone(self.mask_zone())
    }

    /// Host `n` of the first client AS of country `cc` (falling back to the
    /// first AS overall) and that AS's country. An empty client world
    /// falls back to TEST-NET-1 in `cc`, as `ClientAs::host_addr` does
    /// for an AS without prefixes.
    fn home(&self, cc: CountryCode, n: u64) -> (Ipv4Addr, CountryCode) {
        let ases = self.world.ases();
        ases.iter()
            .find(|a| a.cc == cc)
            .or_else(|| ases.first())
            .map_or((Ipv4Addr::new(192, 0, 2, 1), cc), |a| {
                (a.host_addr(n), a.cc)
            })
    }

    /// A device homed in the first client AS of country `cc` (falling back
    /// to the first AS overall).
    pub fn device_in_country(&self, cc: CountryCode, dns_mode: DnsMode) -> Device {
        let (addr, home_cc) = self.home(cc, 7);
        Device::new(
            addr,
            home_cc,
            dns_mode,
            self.fleets.clone(),
            self.selector.clone(),
        )
    }

    /// A device at a specific vantage point with a restricted operator set
    /// (models the authors' location where Fastly had no presence, so only
    /// Cloudflare and Akamai PR appeared as egress operators).
    pub fn vantage_device(
        &self,
        cc: CountryCode,
        dns_mode: DnsMode,
        operators: Vec<Asn>,
    ) -> Device {
        let restricted = Arc::new((*self.selector).clone().with_operators(operators));
        let host_index = match dns_mode {
            DnsMode::Open => 7,
            DnsMode::Fixed(_) => 8,
        };
        let (addr, home_cc) = self.home(cc, host_index);
        Device::new(addr, home_cc, dns_mode, self.fleets.clone(), restricted)
    }

    /// Whether an address belongs to any announced relay/egress prefix of
    /// the given operator (used by the correlation analyses).
    pub fn in_operator_space(&self, asn: Asn, addr: IpAddr) -> bool {
        self.rib.lookup(addr).map(|(_, a)| a) == Some(asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Domain;
    use tectonic_net::IpNet;

    fn deployment() -> Deployment {
        Deployment::build(3, DeploymentConfig::scaled(512))
    }

    #[test]
    fn build_is_deterministic() {
        let a = Deployment::build(9, DeploymentConfig::scaled(512));
        let b = Deployment::build(9, DeploymentConfig::scaled(512));
        assert_eq!(a.egress_list.len(), b.egress_list.len());
        assert_eq!(a.rib.len(), b.rib.len());
        assert_eq!(
            a.egress_list.entries()[5].subnet,
            b.egress_list.entries()[5].subnet
        );
    }

    #[test]
    fn rib_covers_client_and_relay_space() {
        let d = deployment();
        // A client address resolves to its AS.
        let client_as = &d.world.ases()[0];
        let (_, asn) = d.rib.lookup(IpAddr::V4(client_as.host_addr(1))).unwrap();
        assert_eq!(asn, client_as.asn);
        // An ingress address resolves to its operator.
        let ingress = d
            .fleets
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
        let (_, asn) = d.rib.lookup(IpAddr::V4(ingress)).unwrap();
        assert_eq!(asn, Asn::AKAMAI_PR);
        // An egress subnet resolves to its operator.
        let entry = d.egress_list.entries().first().unwrap();
        let (_, asn) = d.rib.lookup(entry.subnet.network()).unwrap();
        assert!(Asn::EGRESS_OPERATORS.contains(&asn));
    }

    #[test]
    fn akamai_pr_announcement_census() {
        let d = Deployment::build(3, DeploymentConfig::paper());
        let prefixes = d.rib.prefixes_of(Asn::AKAMAI_PR);
        let v4 = prefixes.iter().filter(|p| p.is_v4()).count();
        let v6 = prefixes.iter().filter(|p| p.is_v6()).count();
        assert_eq!(v4, 478, "announced v4 prefixes");
        assert_eq!(v6, 1336, "announced v6 prefixes");
    }

    #[test]
    fn topology_has_single_akamai_pr_peering() {
        let d = deployment();
        assert_eq!(d.topology.degree(Asn::AKAMAI_PR), 1);
        assert_eq!(d.topology.neighbors(Asn::AKAMAI_PR), vec![Asn::AKAMAI_EG]);
    }

    #[test]
    fn history_first_seen_june_2021() {
        let d = deployment();
        assert_eq!(
            d.history.first_seen(Asn::AKAMAI_PR),
            Some(Month::new(2021, 6))
        );
        assert_eq!(d.history.first_seen(Asn::APPLE), Some(Month::new(2016, 1)));
    }

    #[test]
    fn aspop_totals_match_client_world() {
        let d = deployment();
        let total: u64 = d.world.ases().iter().map(|a| a.users).sum();
        assert_eq!(d.aspop.total(), total);
        // Roughly the paper's 3.47 B total users.
        assert!(
            (3.3e9..3.6e9).contains(&(total as f64)),
            "total users {total}"
        );
    }

    #[test]
    fn egress_list_at_scales_down() {
        let d = deployment();
        let jan = d.egress_list_at(Epoch::Jan2022);
        let may = d.egress_list_at(Epoch::May2022);
        assert_eq!(may.len(), d.egress_list.len());
        let growth = may.len() as f64 / jan.len() as f64 - 1.0;
        assert!((0.10..0.20).contains(&growth), "Jan→May growth {growth:.3}");
    }

    #[test]
    fn anycast_sources_are_distinct_per_kind_and_cc() {
        let google_us = anycast_source(ResolverKind::GooglePublic, CountryCode::US);
        let google_de = anycast_source(ResolverKind::GooglePublic, CountryCode::DE);
        let cf_us = anycast_source(ResolverKind::CloudflarePublic, CountryCode::US);
        assert_ne!(google_us, google_de);
        assert_ne!(google_us, cf_us);
    }

    #[test]
    fn in_operator_space_checks_rib() {
        let d = deployment();
        let entry = d
            .egress_list
            .entries()
            .iter()
            .find(|e| e.subnet.is_v4())
            .unwrap();
        let addr = match entry.subnet {
            IpNet::V4(n) => IpAddr::V4(n.nth_addr(0)),
            IpNet::V6(n) => IpAddr::V6(n.nth_addr(0)),
        };
        let (_, owner) = d.rib.lookup(addr).unwrap();
        assert!(d.in_operator_space(owner, addr));
        assert!(!d.in_operator_space(Asn(65_000), addr));
    }

    #[test]
    fn auth_server_answers_mask_queries() {
        use tectonic_dns::server::{NameServer, QueryContext, ServerReply};
        use tectonic_dns::{decode_message, encode_message, Message, QType};
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let q = Message::query(1, Domain::MaskQuic.name(), QType::A);
        let ctx = QueryContext {
            src: IpAddr::V4(d.world.ases()[0].host_addr(9)),
            now: Epoch::Apr2022.start(),
        };
        match auth.handle_query(&encode_message(&q), &ctx) {
            ServerReply::Response(bytes) => {
                let r = decode_message(&bytes).unwrap();
                assert!(!r.a_answers().is_empty());
                assert!(d.fleets.is_ingress(IpAddr::V4(r.a_answers()[0])));
            }
            ServerReply::Dropped => panic!("unlimited server dropped"),
        }
    }
}
