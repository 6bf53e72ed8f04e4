//! Probe population generation.
//!
//! RIPE Atlas probes are not uniformly distributed: the paper cites the
//! platform's well-known North-America/Europe bias (and argues it roughly
//! matches the relay service's own deployment focus). The generator takes a
//! pool of candidate host sites (typically one per client AS of the
//! simulated Internet) and draws probes with:
//!
//! * a geographic NA/EU weighting,
//! * a resolver mix in which >50 % of probes sit behind the four big
//!   public resolvers (the paper's `whoami.akamai.net` finding),
//! * a small share of resolvers that *block* the relay domains, with the
//!   paper's RCODE mix (72 % NXDOMAIN, 13 % NOERROR, 5 % REFUSED, the rest
//!   SERVFAIL/FORMERR, plus one observed DNS hijack),
//! * a baseline transient-failure probability (the 10 % timeouts).

use std::net::{IpAddr, Ipv4Addr};

use tectonic_dns::resolver::{ResolverKind, ResolverPolicy};
use tectonic_net::{Asn, SimRng};

use tectonic_geo::country::{country_info, CountryCode};

use crate::probe::Probe;

/// A candidate probe host site (usually one per client AS).
#[derive(Debug, Clone)]
pub struct ProbeSite {
    /// Host AS.
    pub asn: Asn,
    /// Country of the AS.
    pub cc: CountryCode,
    /// An address for the probe inside the AS.
    pub probe_addr: Ipv4Addr,
    /// The in-network resolver address (for ISP/local resolver probes).
    pub isp_resolver_addr: Ipv4Addr,
}

/// Population generation parameters.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of probes to create.
    pub probes: usize,
    /// Extra weight multiplier for NA/EU sites (platform bias).
    pub na_eu_bias: f64,
    /// Resolver mix `(kind, share)`; shares are normalised.
    pub resolver_mix: Vec<(ResolverKind, f64)>,
    /// Fraction of probes whose resolver answers-but-fails for the relay
    /// domains (split per `rcode_mix`).
    pub blocking_fraction: f64,
    /// Mix of blocking behaviours, normalised: NXDOMAIN, NOERROR-no-data,
    /// REFUSED, SERVFAIL, FORMERR.
    pub rcode_mix: [f64; 5],
    /// Install exactly one DNS-hijack resolver (the paper's `nextdns.io`
    /// observation) when true and the population is large enough.
    pub one_hijack: bool,
    /// Baseline per-measurement timeout probability (paper: 10 %).
    pub flaky_fraction: f64,
}

impl PopulationConfig {
    /// The paper-shaped defaults (§3, §4.1).
    pub fn paper() -> PopulationConfig {
        PopulationConfig {
            probes: 11_700,
            na_eu_bias: 5.0,
            resolver_mix: vec![
                (ResolverKind::GooglePublic, 0.22),
                (ResolverKind::CloudflarePublic, 0.15),
                (ResolverKind::Quad9, 0.09),
                (ResolverKind::OpenDns, 0.06),
                (ResolverKind::Isp, 0.38),
                (ResolverKind::Local, 0.10),
            ],
            blocking_fraction: 0.075,
            rcode_mix: [0.72, 0.13, 0.05, 0.055, 0.045],
            one_hijack: true,
            flaky_fraction: 0.10,
        }
    }

    /// Scaled-down probe count for tests.
    pub fn with_probes(mut self, probes: usize) -> PopulationConfig {
        self.probes = probes;
        self
    }
}

/// Rough NA/EU test on country centroids.
fn is_na_eu(cc: CountryCode) -> bool {
    let Some(info) = country_info(cc) else {
        return false;
    };
    let europe = info.lat > 34.0 && info.lat < 72.0 && info.lon > -26.0 && info.lon < 46.0;
    let north_america = info.lat > 14.0 && info.lat < 73.0 && info.lon > -170.0 && info.lon < -50.0;
    europe || north_america
}

/// Generates the probe population.
///
/// `public_source` supplies the anycast source address a public resolver
/// uses near a given country (shared with the authoritative zone model so
/// country attribution agrees on both sides).
pub fn generate(
    rng: &SimRng,
    sites: &[ProbeSite],
    config: &PopulationConfig,
    public_source: &dyn Fn(ResolverKind, CountryCode) -> Ipv4Addr,
) -> Vec<Probe> {
    if sites.is_empty() || config.resolver_mix.is_empty() || config.probes == 0 {
        return Vec::new();
    }
    let mut rng = rng.fork("atlas-population");
    let site_weights: Vec<f64> = sites
        .iter()
        .map(|s| {
            if is_na_eu(s.cc) {
                config.na_eu_bias
            } else {
                1.0
            }
        })
        .collect();
    let kind_weights: Vec<f64> = config.resolver_mix.iter().map(|(_, w)| *w).collect();

    let hijack_at = if config.one_hijack && config.probes > 10 {
        Some(rng.index(config.probes))
    } else {
        None
    };

    (0..config.probes)
        .filter_map(|i| {
            let site = sites.get(rng.pick_weighted(&site_weights).unwrap_or(0))?;
            let (kind, _) = *config
                .resolver_mix
                .get(rng.pick_weighted(&kind_weights).unwrap_or(0))?;
            let resolver_addr: IpAddr = match kind {
                ResolverKind::Isp => IpAddr::V4(site.isp_resolver_addr),
                ResolverKind::Local => IpAddr::V4(site.probe_addr),
                public => IpAddr::V4(public_source(public, site.cc)),
            };
            let policy = if Some(i) == hijack_at {
                // A filtering service answering with its own block page.
                ResolverPolicy::Hijack(Ipv4Addr::new(198, 18, 200, 200))
            } else if rng.chance(config.blocking_fraction) {
                match rng.pick_weighted(&config.rcode_mix).unwrap_or(0) {
                    0 => ResolverPolicy::BlockNxDomain,
                    1 => ResolverPolicy::BlockNoData,
                    2 => ResolverPolicy::BlockRefused,
                    3 => ResolverPolicy::BlockServFail,
                    _ => ResolverPolicy::BlockFormErr,
                }
            } else {
                ResolverPolicy::Normal
            };
            Some(Probe {
                id: i as u32,
                asn: site.asn,
                cc: site.cc,
                addr: site.probe_addr,
                resolver_kind: kind,
                resolver_addr,
                policy,
                flaky: config.flaky_fraction,
            })
        })
        .collect()
}

/// Summary statistics of a population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationStats {
    /// Number of probes.
    pub probes: usize,
    /// Distinct host ASes.
    pub ases: usize,
    /// Distinct countries.
    pub countries: usize,
    /// Share of probes behind the four public resolvers.
    pub public_resolver_share: f64,
    /// Share of probes behind blocking resolvers.
    pub blocking_share: f64,
}

/// Computes [`PopulationStats`].
pub fn stats(probes: &[Probe]) -> PopulationStats {
    use std::collections::HashSet;
    let ases: HashSet<Asn> = probes.iter().map(|p| p.asn).collect();
    let countries: HashSet<CountryCode> = probes.iter().map(|p| p.cc).collect();
    let public = probes
        .iter()
        .filter(|p| p.resolver_kind.is_public())
        .count();
    let blocking = probes.iter().filter(|p| p.is_blocking()).count();
    PopulationStats {
        probes: probes.len(),
        ases: ases.len(),
        countries: countries.len(),
        public_resolver_share: public as f64 / probes.len().max(1) as f64,
        blocking_share: blocking as f64 / probes.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_geo::country::all_countries;

    fn sites() -> Vec<ProbeSite> {
        // One site per country, round-robin ASNs.
        all_countries()
            .iter()
            .enumerate()
            .map(|(i, c)| ProbeSite {
                asn: Asn(100_000 + i as u32),
                cc: c.code,
                probe_addr: Ipv4Addr::from(0x0100_0000u32 + (i as u32) * 256 + 10),
                isp_resolver_addr: Ipv4Addr::from(0x0100_0000u32 + (i as u32) * 256 + 53),
            })
            .collect()
    }

    fn anycast(kind: ResolverKind, cc: CountryCode) -> Ipv4Addr {
        let k = ResolverKind::PUBLIC
            .iter()
            .position(|x| *x == kind)
            .unwrap() as u32;
        let c = all_countries().iter().position(|x| x.code == cc).unwrap() as u32;
        Ipv4Addr::from(0xAC44_0000u32 + k * 65_536 + c * 4 + 1)
    }

    fn population() -> Vec<Probe> {
        generate(
            &SimRng::new(42),
            &sites(),
            &PopulationConfig::paper().with_probes(4_000),
            &anycast,
        )
    }

    #[test]
    fn population_has_paper_shape() {
        let probes = population();
        let s = stats(&probes);
        assert_eq!(s.probes, 4_000);
        assert!(s.countries > 100, "only {} countries", s.countries);
        assert!(
            (0.45..0.60).contains(&s.public_resolver_share),
            "public share {:.3}",
            s.public_resolver_share
        );
        assert!(
            (0.04..0.08).contains(&s.blocking_share),
            "blocking share {:.3}",
            s.blocking_share
        );
    }

    #[test]
    fn na_eu_bias_shows_in_distribution() {
        let probes = population();
        let na_eu = probes.iter().filter(|p| is_na_eu(p.cc)).count();
        let share = na_eu as f64 / probes.len() as f64;
        assert!(share > 0.4, "NA/EU share {share:.3} too low");
    }

    #[test]
    fn exactly_one_hijack() {
        let probes = population();
        let hijacks = probes
            .iter()
            .filter(|p| matches!(p.policy, ResolverPolicy::Hijack(_)))
            .count();
        assert_eq!(hijacks, 1);
    }

    #[test]
    fn public_probes_use_anycast_sources() {
        let probes = population();
        for p in probes.iter().filter(|p| p.resolver_kind.is_public()) {
            assert_eq!(p.resolver_addr, IpAddr::V4(anycast(p.resolver_kind, p.cc)));
        }
        for p in probes
            .iter()
            .filter(|p| p.resolver_kind == ResolverKind::Isp)
        {
            // ISP resolver is inside the probe's /24 (same site).
            let IpAddr::V4(r) = p.resolver_addr else {
                panic!("v4 expected")
            };
            assert_eq!(
                u32::from(r) >> 8,
                u32::from(p.addr) >> 8,
                "ISP resolver outside probe network"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = population();
        let b = population();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[17].asn, b[17].asn);
        assert_eq!(a[17].policy, b[17].policy);
    }

    #[test]
    fn empty_inputs() {
        let none = generate(&SimRng::new(1), &[], &PopulationConfig::paper(), &anycast);
        assert!(none.is_empty());
        let zero = generate(
            &SimRng::new(1),
            &sites(),
            &PopulationConfig::paper().with_probes(0),
            &anycast,
        );
        assert!(zero.is_empty());
    }

    #[test]
    fn empty_resolver_mix_yields_no_probes() {
        let config = PopulationConfig {
            resolver_mix: vec![],
            ..PopulationConfig::paper().with_probes(50)
        };
        assert!(generate(&SimRng::new(1), &sites(), &config, &anycast).is_empty());
    }

    #[test]
    fn na_eu_classification_spot_checks() {
        assert!(is_na_eu(CountryCode::US));
        assert!(is_na_eu(CountryCode::DE));
        assert!(!is_na_eu(CountryCode::new("JP").unwrap()));
        assert!(!is_na_eu(CountryCode::new("BR").unwrap()));
        assert!(!is_na_eu(CountryCode::new("ZQ").unwrap()));
    }
}
