//! Ingress relay fleets.
//!
//! Addresses are allocated once from each plan's pool (at the maximum fleet
//! size across epochs) and every epoch exposes a *window* of that pool —
//! so fleets grow with low churn, as the paper observed. Each fleet is also
//! partitioned into per-country clusters: the ECS zone steers a client
//! subnet to its country's cluster, which is what makes the single-vantage
//! ECS scan see the whole world while RIPE Atlas (probes in only 168
//! countries) sees a strict subset (§4.1).

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use tectonic_net::{Asn, Epoch, FrozenLpm, IpNet, Ipv4Net, Ipv6Net};

use tectonic_geo::country::{all_countries, CountryCode};
use tectonic_quic::IngressQuicBehavior;

use crate::config::{DeploymentConfig, Domain};

/// The address pool of one `(domain, operator)` fleet.
#[derive(Debug, Clone)]
pub struct FleetPool {
    /// IPv4 addresses, in allocation order (epoch windows are prefixes).
    pub v4: Vec<Ipv4Addr>,
    /// IPv6 addresses, in allocation order.
    pub v6: Vec<Ipv6Addr>,
    /// The /24 BGP prefixes hosting the IPv4 relays.
    pub v4_prefixes: Vec<Ipv4Net>,
    /// The /48 BGP prefixes hosting the IPv6 relays.
    pub v6_prefixes: Vec<Ipv6Net>,
}

/// All ingress fleets plus reverse lookup and QUIC behaviour.
#[derive(Debug)]
pub struct IngressFleets {
    pools: HashMap<(Domain, Asn), FleetPool>,
    /// Maps relay prefixes back to their operator. Fleets never change
    /// after `build`, so only the compiled form is kept.
    reverse: FrozenLpm<Asn>,
    /// Per-epoch fleet sizes come from the config.
    config_sizes: HashMap<(Domain, Asn), [[usize; 4]; 2]>,
    quic: IngressQuicBehavior,
    /// Country cluster boundaries are derived from these cumulative weights.
    cc_cumweights: Vec<(CountryCode, f64)>,
}

impl IngressFleets {
    /// Allocates every fleet from the configuration.
    pub fn build(config: &DeploymentConfig) -> IngressFleets {
        let mut pools = HashMap::new();
        let mut reverse = Vec::new();
        let mut config_sizes = HashMap::new();
        for plan in &config.ingress_plans {
            let v4_prefixes: Vec<Ipv4Net> = plan
                .v4_pool
                .subnets(24)
                .into_iter()
                .flatten()
                .take(plan.v4_prefixes)
                .collect();
            assert_eq!(v4_prefixes.len(), plan.v4_prefixes, "v4 pool too small");
            let v6_prefixes: Vec<Ipv6Net> = (0..plan.v6_prefixes)
                .filter_map(|i| plan.v6_pool.nth_subnet(48, i as u128).ok())
                .collect();
            assert_eq!(v6_prefixes.len(), plan.v6_prefixes, "v6 pool too small");
            let max4 = plan.max_size(false);
            let v4: Vec<Ipv4Addr> = (0..max4)
                .zip(v4_prefixes.iter().cycle())
                .map(|(i, p)| p.nth_addr(1 + (i / v4_prefixes.len().max(1)) as u64))
                .collect();
            let max6 = plan.max_size(true);
            let v6: Vec<Ipv6Addr> = (0..max6)
                .zip(v6_prefixes.iter().cycle())
                .map(|(i, p)| p.nth_addr(1 + (i / v6_prefixes.len().max(1)) as u128))
                .collect();
            reverse.extend(v4_prefixes.iter().map(|p| (IpNet::V4(*p), plan.asn)));
            reverse.extend(v6_prefixes.iter().map(|p| (IpNet::V6(*p), plan.asn)));
            config_sizes.insert(
                (plan.domain, plan.asn),
                [plan.v4_by_epoch, plan.v6_by_epoch],
            );
            pools.insert(
                (plan.domain, plan.asn),
                FleetPool {
                    v4,
                    v6,
                    v4_prefixes,
                    v6_prefixes,
                },
            );
        }
        let countries = all_countries();
        let total: f64 = countries.iter().map(|c| c.weight).sum();
        let mut acc = 0.0;
        let cc_cumweights = countries
            .iter()
            .map(|c| {
                acc += c.weight / total;
                (c.code, acc)
            })
            .collect();
        IngressFleets {
            pools,
            reverse: FrozenLpm::from_pairs(reverse),
            config_sizes,
            quic: IngressQuicBehavior::default(),
            cc_cumweights,
        }
    }

    fn epoch_index(epoch: Epoch) -> usize {
        match epoch {
            Epoch::Jan2022 => 0,
            Epoch::Feb2022 => 1,
            Epoch::Mar2022 => 2,
            Epoch::Apr2022 | Epoch::May2022 => 3,
        }
    }

    /// The fleet pool for a `(domain, operator)` pair.
    pub fn pool(&self, domain: Domain, asn: Asn) -> Option<&FleetPool> {
        self.pools.get(&(domain, asn))
    }

    /// Configured window size for one `(domain, operator)` pair, family row
    /// (0 = v4, 1 = v6) and epoch; zero if the pair is unknown.
    fn config_size(&self, domain: Domain, asn: Asn, family: usize, epoch: Epoch) -> usize {
        self.config_sizes
            .get(&(domain, asn))
            .and_then(|rows| rows.get(family))
            .and_then(|row| row.get(Self::epoch_index(epoch)))
            .copied()
            .unwrap_or(0)
    }

    /// The active IPv4 fleet window at `epoch`.
    pub fn fleet_v4(&self, epoch: Epoch, domain: Domain, asn: Asn) -> &[Ipv4Addr] {
        let Some(pool) = self.pools.get(&(domain, asn)) else {
            return &[];
        };
        let size = self.config_size(domain, asn, 0, epoch);
        pool.v4.get(..size).unwrap_or(&pool.v4)
    }

    /// The active IPv6 fleet window at `epoch`.
    pub fn fleet_v6(&self, epoch: Epoch, domain: Domain, asn: Asn) -> &[Ipv6Addr] {
        let Some(pool) = self.pools.get(&(domain, asn)) else {
            return &[];
        };
        let size = self.config_size(domain, asn, 1, epoch);
        pool.v6.get(..size).unwrap_or(&pool.v6)
    }

    /// Every active IPv4 ingress address at `epoch`, across domains and
    /// operators (what a complete ECS scan of both domains can uncover).
    pub fn all_v4_at(&self, epoch: Epoch) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        for domain in Domain::ALL {
            for asn in Asn::INGRESS_OPERATORS {
                out.extend_from_slice(self.fleet_v4(epoch, domain, asn));
            }
        }
        out
    }

    /// The operator of an ingress address, if it is one.
    pub fn asn_of(&self, addr: IpAddr) -> Option<Asn> {
        self.reverse.longest_match(addr).map(|(_, asn)| *asn)
    }

    /// Whether `addr` is an ingress relay address (any epoch window).
    pub fn is_ingress(&self, addr: IpAddr) -> bool {
        self.asn_of(addr).is_some()
    }

    /// The QUIC behaviour every ingress node exhibits (§3).
    pub fn quic_behavior(&self) -> &IngressQuicBehavior {
        &self.quic
    }

    /// The country cluster of a fleet: the contiguous window of the fleet
    /// serving clients in `cc`. Every country gets at least one address.
    pub fn cc_cluster<'a, T>(&self, fleet: &'a [T], cc: CountryCode) -> &'a [T] {
        if fleet.is_empty() {
            return fleet;
        }
        let mut prev = 0.0;
        for (code, cum) in &self.cc_cumweights {
            if *code == cc {
                let start = (prev * fleet.len() as f64) as usize;
                let end = ((*cum * fleet.len() as f64) as usize).max(start + 1);
                let start = start.min(fleet.len() - 1);
                let end = end.min(fleet.len()).max(start + 1);
                return fleet.get(start..end).unwrap_or(fleet);
            }
            prev = *cum;
        }
        // Unknown country: the first cluster.
        fleet.get(..1).unwrap_or(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn fleets() -> IngressFleets {
        IngressFleets::build(&DeploymentConfig::paper())
    }

    #[test]
    fn april_default_fleet_sizes_match_table1() {
        let f = fleets();
        assert_eq!(
            f.fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::APPLE)
                .len(),
            349
        );
        assert_eq!(
            f.fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)
                .len(),
            1237
        );
        assert_eq!(
            f.fleet_v4(Epoch::Jan2022, Domain::MaskH2, Asn::AKAMAI_PR)
                .len(),
            0
        );
        assert_eq!(
            f.fleet_v4(Epoch::Apr2022, Domain::MaskH2, Asn::AKAMAI_PR)
                .len(),
            1062
        );
    }

    #[test]
    fn addresses_are_unique_across_all_fleets() {
        let f = fleets();
        let all = f.all_v4_at(Epoch::Apr2022);
        let set: HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len(), "duplicate ingress addresses");
        assert_eq!(all.len(), 1586 + 1398);
    }

    #[test]
    fn growth_windows_are_prefixes() {
        let f = fleets();
        let jan = f.fleet_v4(Epoch::Jan2022, Domain::MaskQuic, Asn::AKAMAI_PR);
        let apr = f.fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR);
        assert!(jan.len() < apr.len());
        assert_eq!(&apr[..jan.len()], jan, "older fleet must persist");
    }

    #[test]
    fn addresses_live_in_declared_prefixes() {
        let f = fleets();
        for domain in Domain::ALL {
            for asn in Asn::INGRESS_OPERATORS {
                let pool = f.pool(domain, asn).unwrap();
                for addr in &pool.v4 {
                    assert!(
                        pool.v4_prefixes.iter().any(|p| p.contains(*addr)),
                        "{addr} outside fleet prefixes"
                    );
                }
                for addr in &pool.v6 {
                    assert!(pool.v6_prefixes.iter().any(|p| p.contains(*addr)));
                }
            }
        }
    }

    #[test]
    fn reverse_lookup_attributes_operator() {
        let f = fleets();
        let apple = f.fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::APPLE)[0];
        assert_eq!(f.asn_of(IpAddr::V4(apple)), Some(Asn::APPLE));
        let akamai = f.fleet_v6(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
        assert_eq!(f.asn_of(IpAddr::V6(akamai)), Some(Asn::AKAMAI_PR));
        assert_eq!(f.asn_of("8.8.8.8".parse().unwrap()), None);
        assert!(f.is_ingress(IpAddr::V4(apple)));
    }

    #[test]
    fn ipv6_april_totals() {
        let f = fleets();
        let total: usize = Asn::INGRESS_OPERATORS
            .iter()
            .map(|a| f.fleet_v6(Epoch::Apr2022, Domain::MaskQuic, *a).len())
            .sum();
        assert_eq!(total, 1575);
    }

    #[test]
    fn cc_clusters_partition_fleet() {
        let f = fleets();
        let fleet = f.fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR);
        // Every country's cluster is non-empty and in range.
        let mut covered: HashSet<Ipv4Addr> = HashSet::new();
        for c in all_countries() {
            let cluster = f.cc_cluster(fleet, c.code);
            assert!(!cluster.is_empty(), "{} empty cluster", c.code);
            covered.extend(cluster.iter().copied());
        }
        // Together the clusters cover (almost) the whole fleet.
        assert!(
            covered.len() as f64 / fleet.len() as f64 > 0.95,
            "clusters cover only {}/{}",
            covered.len(),
            fleet.len()
        );
        // US cluster is the biggest single-country cluster.
        let us = f.cc_cluster(fleet, CountryCode::US).len();
        let kn = f.cc_cluster(fleet, CountryCode::new("KN").unwrap()).len();
        assert!(us > kn);
    }

    #[test]
    fn quic_behavior_is_paper_shaped() {
        let f = fleets();
        let (std_outcome, vn_outcome) = tectonic_quic::QuicProber.probe_ingress(f.quic_behavior());
        assert_eq!(std_outcome, tectonic_quic::ProbeOutcome::Timeout);
        assert!(matches!(
            vn_outcome,
            tectonic_quic::ProbeOutcome::VersionNegotiation(_)
        ));
    }

    #[test]
    fn empty_fleet_for_unknown_pairs() {
        let f = fleets();
        assert!(f
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::CLOUDFLARE)
            .is_empty());
        assert!(f.pool(Domain::MaskH2, Asn::FASTLY).is_none());
    }
}
