//! The ECS-aware authoritative logic for the `mask` domains.
//!
//! This is the simulated AWS Route 53 behaviour the paper's ECS scan talks
//! to (§3, §4.1):
//!
//! * A queries honour the client subnet (from ECS, or the resolver source
//!   address otherwise), answer with up to eight records from the serving
//!   operator's fleet for that client's country, and return a /24 scope —
//!   except for single-operator client ASes, where the scope widens to the
//!   AS's covering prefix (the behaviour the ethical scanner exploits to
//!   skip redundant queries).
//! * AAAA queries always return scope 0 ("valid for the whole address
//!   space"), which is exactly why the paper's IPv6 enumeration has to fall
//!   back to RIPE Atlas.
//! * All records of one response come from a single AS.

use std::net::IpAddr;
use std::sync::Arc;

use tectonic_dns::zone::{EcsAnswer, EcsAnswerer, QueryInfo};
use tectonic_dns::{DomainName, EcsOption, QType, Question, RData};
use tectonic_net::{Asn, Epoch, Ipv4Net, PrefixTable, SimTime};

use tectonic_geo::country::CountryCode;

use crate::config::Domain;
use crate::ingress::IngressFleets;
use crate::world::{ClientWorld, ServiceSplit};

/// Stateless keyed hash (SplitMix64 finaliser).
fn mix(seed: u64, key: u64) -> u64 {
    let mut h = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The epoch a simulated instant falls into (latest epoch started).
pub fn epoch_of(now: SimTime) -> Epoch {
    let mut current = Epoch::Jan2022;
    for e in Epoch::ALL {
        if now >= e.start() {
            current = e;
        }
    }
    current
}

/// The dynamic answerer for `mask.icloud.com` / `mask-h2.icloud.com`.
pub struct MaskZone {
    fleets: Arc<IngressFleets>,
    world: Arc<ClientWorld>,
    /// Extra address→country mappings for sources outside the client world
    /// (public-resolver anycast sites), compiled by [`seal`](MaskZone::seal)
    /// for the per-query lookups.
    extra_cc: PrefixTable<CountryCode>,
    max_records: usize,
    seed: u64,
}

impl MaskZone {
    /// Creates the answerer.
    pub fn new(
        fleets: Arc<IngressFleets>,
        world: Arc<ClientWorld>,
        max_records: usize,
        seed: u64,
    ) -> MaskZone {
        MaskZone {
            fleets,
            world,
            extra_cc: PrefixTable::new(),
            max_records: max_records.max(1),
            seed,
        }
    }

    /// Registers an out-of-world source range as located in `cc`
    /// (public-resolver anycast sites near the querying probes). After a
    /// [`seal`](MaskZone::seal) the mapping is patched into the compiled
    /// table through a delta overlay instead of dropping it.
    pub fn register_source_cc(&mut self, net: impl Into<tectonic_net::IpNet>, cc: CountryCode) {
        self.extra_cc.insert(net.into(), cc);
    }

    /// Compiles the registered source ranges. Call once registration is
    /// done (the deployment does, before installing the zone); lookups
    /// answer the same while unsealed, so sealing is purely a fast path.
    pub fn seal(&mut self) {
        self.extra_cc.freeze();
    }

    fn domain_of(&self, name: &DomainName) -> Option<Domain> {
        let lower = name.to_ascii_lower();
        if lower == "mask.icloud.com" {
            Some(Domain::MaskQuic)
        } else if lower == "mask-h2.icloud.com" {
            Some(Domain::MaskH2)
        } else {
            None
        }
    }

    /// The effective client subnet for operator selection: ECS if present
    /// (clamped to /24 as the paper's scans do), the query source otherwise.
    fn client_subnet(&self, ecs: Option<&EcsOption>, src: IpAddr) -> Option<Ipv4Net> {
        if let Some(e) = ecs {
            if let IpAddr::V4(a) = e.addr {
                return Some(Ipv4Net::slash24_of(a));
            }
        }
        match src {
            IpAddr::V4(a) => Some(Ipv4Net::slash24_of(a)),
            IpAddr::V6(_) => None,
        }
    }

    /// Resolves the country a query effectively originates from.
    fn cc_of(&self, subnet: Option<Ipv4Net>, src: IpAddr) -> Option<CountryCode> {
        if let Some(subnet) = subnet {
            if let Some(client_as) = self.world.as_of_addr(IpAddr::V4(subnet.network())) {
                return Some(client_as.cc);
            }
        }
        self.extra_cc.lookup(src).map(|(_, cc)| *cc)
    }

    /// The operator that serves this client subnet.
    fn operator_of(&self, subnet: Option<Ipv4Net>) -> Asn {
        match subnet {
            Some(subnet) => self
                .world
                .serving_operator(subnet)
                .unwrap_or_else(|| self.world.split_operator(subnet)),
            // IPv6-only source with no ECS: fall back to the global split.
            None => Asn::AKAMAI_PR,
        }
    }

    /// ECS scope for a v4 answer: /24 normally; the AS's covering prefix
    /// for single-operator ASes (safe to widen — every subnet in the AS
    /// gets the same operator and country, hence the same answer).
    fn scope_for(&self, subnet: Option<Ipv4Net>) -> u8 {
        let Some(subnet) = subnet else { return 24 };
        let addr = IpAddr::V4(subnet.network());
        match self.world.as_of_addr(addr) {
            Some(client_as) if client_as.category != ServiceSplit::Both => self
                .world
                .prefix_of_addr(addr)
                .map(|p| p.len().min(24))
                .unwrap_or(24),
            _ => 24,
        }
    }
}

impl EcsAnswerer for MaskZone {
    fn answer(
        &self,
        question: &Question,
        ecs: Option<&EcsOption>,
        info: &QueryInfo,
    ) -> Option<EcsAnswer> {
        let domain = self.domain_of(&question.name)?;
        if question.qtype != QType::A && question.qtype != QType::AAAA {
            // The names exist; non-address queries get NOERROR/no-data.
            return Some(EcsAnswer {
                rdatas: Vec::new(),
                ttl: 60,
                scope_len: 0,
            });
        }
        let epoch = epoch_of(info.now);
        let subnet = self.client_subnet(ecs, info.src);
        let operator = self.operator_of(subnet);
        let cc = self.cc_of(subnet, info.src);
        let subnet_key = subnet
            .map(|s| u32::from(s.network()) as u64)
            .unwrap_or(match info.src {
                IpAddr::V4(a) => u32::from(a) as u64,
                IpAddr::V6(a) => (u128::from(a) >> 64) as u64,
            });
        let domain_key = match domain {
            Domain::MaskQuic => 0x51,
            Domain::MaskH2 => 0x48,
        };
        let h = mix(self.seed, subnet_key ^ (domain_key << 56));
        let count = 1 + (h >> 17) as usize % self.max_records;
        let rdatas: Vec<RData> = if question.qtype == QType::A {
            let fleet = self.fleets.fleet_v4(epoch, domain, operator);
            if fleet.is_empty() {
                // The fallback fleet of an operator may not exist yet; the
                // live service answers from the other operator instead.
                let other = if operator == Asn::APPLE {
                    Asn::AKAMAI_PR
                } else {
                    Asn::APPLE
                };
                let fleet = self.fleets.fleet_v4(epoch, domain, other);
                window(fleet, cc, &self.fleets, h, count)
                    .map(|a| RData::A(*a))
                    .collect()
            } else {
                window(fleet, cc, &self.fleets, h, count)
                    .map(|a| RData::A(*a))
                    .collect()
            }
        } else {
            let fleet = self.fleets.fleet_v6(epoch, domain, operator);
            let fleet = if fleet.is_empty() {
                let other = if operator == Asn::APPLE {
                    Asn::AKAMAI_PR
                } else {
                    Asn::APPLE
                };
                self.fleets.fleet_v6(epoch, domain, other)
            } else {
                fleet
            };
            window(fleet, cc, &self.fleets, h, count)
                .map(|a| RData::Aaaa(*a))
                .collect()
        };
        let scope_len = match question.qtype {
            QType::A => self.scope_for(subnet),
            // AAAA: scope 0 — the whole IPv6 space (§3).
            _ => 0,
        };
        Some(EcsAnswer {
            rdatas,
            ttl: 60,
            scope_len,
        })
    }
}

/// A consecutive window of `count` addresses inside the country cluster of
/// `fleet`, starting at a hash-chosen offset (wrapping within the cluster).
fn window<'a, T>(
    fleet: &'a [T],
    cc: Option<CountryCode>,
    fleets: &IngressFleets,
    h: u64,
    count: usize,
) -> impl Iterator<Item = &'a T> {
    let cluster: &[T] = match cc {
        Some(cc) => fleets.cc_cluster(fleet, cc),
        None => fleet,
    };
    let len = cluster.len();
    let start = if len == 0 { 0 } else { (h as usize) % len };
    (0..count.min(len)).filter_map(move |i| cluster.get((start + i) % len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;
    use std::collections::HashSet;
    use tectonic_dns::QClass;
    use tectonic_net::SimRng;

    fn setup() -> (Arc<IngressFleets>, Arc<ClientWorld>, MaskZone) {
        let config = DeploymentConfig::scaled(512);
        let fleets = Arc::new(IngressFleets::build(&config));
        let world = Arc::new(ClientWorld::generate(&SimRng::new(5), &config.client_world));
        let zone = MaskZone::new(fleets.clone(), world.clone(), 8, 99);
        (fleets, world, zone)
    }

    fn q(name: &str, qtype: QType) -> Question {
        Question {
            name: name.parse().unwrap(),
            qtype,
            qclass: QClass::IN,
        }
    }

    fn info_at(epoch: Epoch) -> QueryInfo {
        QueryInfo {
            src: "203.0.113.53".parse().unwrap(),
            now: epoch.start(),
        }
    }

    #[test]
    fn epoch_of_maps_times() {
        assert_eq!(epoch_of(SimTime::from_ymd(2022, 1, 15)), Epoch::Jan2022);
        assert_eq!(epoch_of(SimTime::from_ymd(2022, 4, 2)), Epoch::Apr2022);
        assert_eq!(epoch_of(SimTime::from_ymd(2022, 7, 1)), Epoch::May2022);
        assert_eq!(epoch_of(SimTime::EPOCH), Epoch::Jan2022);
    }

    #[test]
    fn answers_a_queries_with_fleet_addresses() {
        let (fleets, world, zone) = setup();
        let client = world.ases()[0].host_addr(0);
        let ecs = EcsOption::for_v4_net(Ipv4Net::slash24_of(client));
        let ans = zone
            .answer(
                &q("mask.icloud.com", QType::A),
                Some(&ecs),
                &info_at(Epoch::Apr2022),
            )
            .unwrap();
        assert!(!ans.rdatas.is_empty());
        assert!(ans.rdatas.len() <= 8);
        for rd in &ans.rdatas {
            let addr = rd.as_a().expect("A records");
            assert!(fleets.is_ingress(IpAddr::V4(addr)), "{addr} not ingress");
        }
    }

    #[test]
    fn all_records_in_same_as() {
        let (fleets, world, zone) = setup();
        for client_as in world.ases().iter().step_by(13) {
            let subnet = client_as.slash24s().next().unwrap();
            let ecs = EcsOption::for_v4_net(subnet);
            let ans = zone
                .answer(
                    &q("mask.icloud.com", QType::A),
                    Some(&ecs),
                    &info_at(Epoch::Apr2022),
                )
                .unwrap();
            let asns: HashSet<_> = ans
                .rdatas
                .iter()
                .map(|rd| fleets.asn_of(IpAddr::V4(rd.as_a().unwrap())).unwrap())
                .collect();
            assert_eq!(asns.len(), 1, "records from multiple ASes");
        }
    }

    #[test]
    fn operator_matches_world_category() {
        let (fleets, world, zone) = setup();
        for client_as in world.ases().iter().step_by(7) {
            let subnet = client_as.slash24s().next().unwrap();
            let want = world.serving_operator(subnet).unwrap();
            let ecs = EcsOption::for_v4_net(subnet);
            let ans = zone
                .answer(
                    &q("mask.icloud.com", QType::A),
                    Some(&ecs),
                    &info_at(Epoch::Apr2022),
                )
                .unwrap();
            let got = fleets
                .asn_of(IpAddr::V4(ans.rdatas[0].as_a().unwrap()))
                .unwrap();
            assert_eq!(got, want, "AS {}", client_as.asn);
        }
    }

    #[test]
    fn v4_scope_is_24_for_both_ases_and_wider_for_single() {
        let (_, world, zone) = setup();
        let both = world
            .ases()
            .iter()
            .find(|a| a.category == ServiceSplit::Both)
            .unwrap();
        let ecs = EcsOption::for_v4_net(both.slash24s().next().unwrap());
        let ans = zone
            .answer(
                &q("mask.icloud.com", QType::A),
                Some(&ecs),
                &info_at(Epoch::Apr2022),
            )
            .unwrap();
        assert_eq!(ans.scope_len, 24);
        // A single-operator AS with a prefix wider than /24 gets that scope.
        let single = world
            .ases()
            .iter()
            .find(|a| a.category == ServiceSplit::AkamaiOnly && a.prefixes[0].len() < 24)
            .expect("some AS has a wide prefix");
        let ecs = EcsOption::for_v4_net(single.slash24s().next().unwrap());
        let ans = zone
            .answer(
                &q("mask.icloud.com", QType::A),
                Some(&ecs),
                &info_at(Epoch::Apr2022),
            )
            .unwrap();
        assert_eq!(ans.scope_len, single.prefixes[0].len());
    }

    #[test]
    fn aaaa_scope_is_zero() {
        let (_, world, zone) = setup();
        let client = world.ases()[0].host_addr(0);
        let ecs = EcsOption::for_v4_net(Ipv4Net::slash24_of(client));
        let ans = zone
            .answer(
                &q("mask.icloud.com", QType::AAAA),
                Some(&ecs),
                &info_at(Epoch::Apr2022),
            )
            .unwrap();
        assert_eq!(ans.scope_len, 0);
        assert!(ans.rdatas.iter().all(|r| r.as_aaaa().is_some()));
    }

    #[test]
    fn fallback_domain_served_by_apple_in_feb() {
        let (fleets, world, zone) = setup();
        // In February the Akamai fallback fleet is empty; every client is
        // served from Apple's fallback fleet (Table 1's 100 % Apple row).
        let akamai_client = world
            .ases()
            .iter()
            .find(|a| a.category == ServiceSplit::AkamaiOnly)
            .unwrap();
        let ecs = EcsOption::for_v4_net(akamai_client.slash24s().next().unwrap());
        let ans = zone
            .answer(
                &q("mask-h2.icloud.com", QType::A),
                Some(&ecs),
                &info_at(Epoch::Feb2022),
            )
            .unwrap();
        let asn = fleets
            .asn_of(IpAddr::V4(ans.rdatas[0].as_a().unwrap()))
            .unwrap();
        assert_eq!(asn, Asn::APPLE);
    }

    #[test]
    fn other_names_fall_through() {
        let (_, _, zone) = setup();
        assert!(zone
            .answer(
                &q("www.icloud.com", QType::A),
                None,
                &info_at(Epoch::Apr2022)
            )
            .is_none());
    }

    #[test]
    fn txt_on_mask_is_nodata() {
        let (_, _, zone) = setup();
        let ans = zone
            .answer(
                &q("mask.icloud.com", QType::TXT),
                None,
                &info_at(Epoch::Apr2022),
            )
            .unwrap();
        assert!(ans.rdatas.is_empty());
    }

    #[test]
    fn no_ecs_uses_source_address() {
        let (fleets, world, zone) = setup();
        let client_as = world.ases().iter().find(|a| a.slash24_count > 2).unwrap();
        let src = IpAddr::V4(client_as.host_addr(3));
        let ans = zone
            .answer(
                &q("mask.icloud.com", QType::A),
                None,
                &QueryInfo {
                    src,
                    now: Epoch::Apr2022.start(),
                },
            )
            .unwrap();
        assert!(!ans.rdatas.is_empty());
        let got = fleets
            .asn_of(IpAddr::V4(ans.rdatas[0].as_a().unwrap()))
            .unwrap();
        let want = world
            .serving_operator(Ipv4Net::slash24_of(client_as.host_addr(3)))
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn registered_source_cc_steers_cluster() {
        let (fleets, world, mut zone) = setup();
        zone.register_source_cc(
            "172.70.9.0/24".parse::<tectonic_net::IpNet>().unwrap(),
            CountryCode::DE,
        );
        let ans = zone
            .answer(
                &q("mask.icloud.com", QType::A),
                None,
                &QueryInfo {
                    src: "172.70.9.53".parse().unwrap(),
                    now: Epoch::Apr2022.start(),
                },
            )
            .unwrap();
        assert!(!ans.rdatas.is_empty());
        // The answer must come from the DE cluster of whichever fleet
        // handled it.
        let addr = ans.rdatas[0].as_a().unwrap();
        let asn = fleets.asn_of(IpAddr::V4(addr)).unwrap();
        let fleet = fleets.fleet_v4(Epoch::Apr2022, Domain::MaskQuic, asn);
        let cluster = fleets.cc_cluster(fleet, CountryCode::DE);
        assert!(cluster.contains(&addr));
        let _ = world;
    }

    #[test]
    fn register_after_seal_patches_compiled_table() {
        let (fleets, _world, mut zone) = setup();
        zone.register_source_cc(
            "172.70.9.0/24".parse::<tectonic_net::IpNet>().unwrap(),
            CountryCode::DE,
        );
        zone.seal();
        // A post-seal registration must be visible without re-sealing: it
        // patches the compiled table through the delta overlay.
        zone.register_source_cc(
            "172.71.3.0/24".parse::<tectonic_net::IpNet>().unwrap(),
            CountryCode::US,
        );
        for (src, cc) in [
            ("172.70.9.53", CountryCode::DE),
            ("172.71.3.53", CountryCode::US),
        ] {
            let ans = zone
                .answer(
                    &q("mask.icloud.com", QType::A),
                    None,
                    &QueryInfo {
                        src: src.parse().unwrap(),
                        now: Epoch::Apr2022.start(),
                    },
                )
                .unwrap();
            assert!(!ans.rdatas.is_empty());
            let addr = ans.rdatas[0].as_a().unwrap();
            let asn = fleets.asn_of(IpAddr::V4(addr)).unwrap();
            let fleet = fleets.fleet_v4(Epoch::Apr2022, Domain::MaskQuic, asn);
            let cluster = fleets.cc_cluster(fleet, cc);
            assert!(cluster.contains(&addr), "{src} not steered to {cc:?}");
        }
    }

    #[test]
    fn answers_are_deterministic() {
        let (_, world, zone) = setup();
        let ecs = EcsOption::for_v4_net(world.ases()[0].slash24s().next().unwrap());
        let a = zone
            .answer(
                &q("mask.icloud.com", QType::A),
                Some(&ecs),
                &info_at(Epoch::Apr2022),
            )
            .unwrap();
        let b = zone
            .answer(
                &q("mask.icloud.com", QType::A),
                Some(&ecs),
                &info_at(Epoch::Apr2022),
            )
            .unwrap();
        assert_eq!(a, b);
    }
}
