//! Deployment configuration, calibrated to the paper.

use serde::{Deserialize, Serialize};
use tectonic_net::{Asn, Epoch, Ipv4Net, Ipv6Net};

use tectonic_geo::egress::OperatorEgressSpec;

/// The two service domains of iCloud Private Relay.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Domain {
    /// `mask.icloud.com` — the QUIC (default) ingress domain.
    MaskQuic,
    /// `mask-h2.icloud.com` — the TCP/HTTP2 fallback ingress domain.
    MaskH2,
}

impl Domain {
    /// Both domains, default first.
    pub const ALL: [Domain; 2] = [Domain::MaskQuic, Domain::MaskH2];

    /// The DNS name.
    pub fn name(&self) -> tectonic_dns::DomainName {
        match self {
            Domain::MaskQuic => tectonic_dns::DomainName::literal("mask.icloud.com"),
            Domain::MaskH2 => tectonic_dns::DomainName::literal("mask-h2.icloud.com"),
        }
    }

    /// Table-row label.
    pub fn label(&self) -> &'static str {
        match self {
            Domain::MaskQuic => "Default",
            Domain::MaskH2 => "Fallback",
        }
    }
}

/// Per-epoch ingress fleet sizes for one `(domain, operator)` pair.
///
/// Fleets grow (or shrink) as address-count *windows* into a stable pool,
/// so an address present in January is normally still present in April —
/// matching the observed low churn.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IngressFleetPlan {
    /// Operator AS.
    pub asn: Asn,
    /// Domain served.
    pub domain: Domain,
    /// IPv4 fleet size at each scan epoch (Jan, Feb, Mar, Apr).
    pub v4_by_epoch: [usize; 4],
    /// IPv6 fleet size at each scan epoch.
    pub v6_by_epoch: [usize; 4],
    /// Pool IPv4 relay addresses are allocated from.
    pub v4_pool: Ipv4Net,
    /// Number of /24 BGP prefixes hosting the IPv4 relays (April).
    pub v4_prefixes: usize,
    /// Pool IPv6 relay addresses are allocated from.
    pub v6_pool: Ipv6Net,
    /// Number of /48 BGP prefixes hosting the IPv6 relays (April).
    pub v6_prefixes: usize,
}

impl IngressFleetPlan {
    /// Fleet size at `epoch` for the given family.
    pub fn size_at(&self, epoch: Epoch, v6: bool) -> usize {
        let [jan, feb, mar, apr] = if v6 {
            self.v6_by_epoch
        } else {
            self.v4_by_epoch
        };
        match epoch {
            Epoch::Jan2022 => jan,
            Epoch::Feb2022 => feb,
            Epoch::Mar2022 => mar,
            Epoch::Apr2022 | Epoch::May2022 => apr,
        }
    }

    /// Maximum fleet size across epochs (the pool size to allocate).
    pub fn max_size(&self, v6: bool) -> usize {
        if v6 {
            self.v6_by_epoch.iter().max().copied().unwrap_or(0)
        } else {
            self.v4_by_epoch.iter().max().copied().unwrap_or(0)
        }
    }
}

/// Client-world structure: Table 2's three service-split categories.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClientWorldConfig {
    /// ASes served exclusively by Akamai&#8239;PR ingress relays.
    pub akamai_only_ases: usize,
    /// Total /24 subnets across Akamai-only ASes (1.1 M in the paper).
    pub akamai_only_slash24: u64,
    /// Total users across Akamai-only ASes (994 M).
    pub akamai_only_users: u64,
    /// ASes served exclusively by Apple ingress relays.
    pub apple_only_ases: usize,
    /// Total /24 subnets across Apple-only ASes (0.2 M).
    pub apple_only_slash24: u64,
    /// Total users across Apple-only ASes (105 M).
    pub apple_only_users: u64,
    /// ASes served by both operators, split per subnet.
    pub both_ases: usize,
    /// Total /24 subnets across both-ASes (10.6 M).
    pub both_slash24: u64,
    /// Total users across both-ASes (2373 M).
    pub both_users: u64,
    /// Apple's share of subnets within both-ASes (0.76).
    pub both_apple_subnet_share: f64,
}

impl ClientWorldConfig {
    /// The paper's full-scale Table 2 numbers.
    pub fn paper() -> ClientWorldConfig {
        ClientWorldConfig {
            akamai_only_ases: 34_627,
            akamai_only_slash24: 1_100_000,
            akamai_only_users: 994_000_000,
            apple_only_ases: 20_807,
            apple_only_slash24: 200_000,
            apple_only_users: 105_000_000,
            both_ases: 17_301,
            both_slash24: 10_600_000,
            both_users: 2_373_000_000,
            both_apple_subnet_share: 0.76,
        }
    }

    /// Scales AS and subnet counts by `1/div` (populations keep their
    /// totals, so Table 2's user column still reads in the paper's units).
    pub fn scaled_down(mut self, div: u64) -> ClientWorldConfig {
        let d = div.max(1);
        self.akamai_only_ases = (self.akamai_only_ases as u64 / d).max(4) as usize;
        self.akamai_only_slash24 = (self.akamai_only_slash24 / d).max(16);
        self.apple_only_ases = (self.apple_only_ases as u64 / d).max(4) as usize;
        self.apple_only_slash24 = (self.apple_only_slash24 / d).max(16);
        self.both_ases = (self.both_ases as u64 / d).max(4) as usize;
        self.both_slash24 = (self.both_slash24 / d).max(16);
        self
    }

    /// Total client ASes.
    pub fn total_ases(&self) -> usize {
        self.akamai_only_ases + self.apple_only_ases + self.both_ases
    }

    /// Total routed client /24 subnets.
    pub fn total_slash24(&self) -> u64 {
        self.akamai_only_slash24 + self.apple_only_slash24 + self.both_slash24
    }
}

/// Counts of Akamai&#8239;PR prefixes announced without hosting any relay,
/// calibrated so §6's 92.2 % used-prefix share comes out.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct UnusedPrefixPlan {
    /// Unused IPv4 announcements.
    pub v4: usize,
    /// Unused IPv6 announcements.
    pub v6: usize,
    /// Pool the unused IPv4 prefixes are carved from.
    pub v4_pool: Ipv4Net,
    /// Pool the unused IPv6 prefixes are carved from.
    pub v6_pool: Ipv6Net,
}

/// The whole deployment configuration.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// Ingress fleet plans (one per domain × operator).
    pub ingress_plans: Vec<IngressFleetPlan>,
    /// Records returned per A answer (the paper saw up to eight).
    pub max_records_per_answer: usize,
    /// Egress generation specs (Table 3/4 structure).
    pub egress_specs: Vec<OperatorEgressSpec>,
    /// Egress list scale per epoch (Jan ≈ 0.87 of the May list).
    pub egress_scale_by_epoch: [(Epoch, f64); 5],
    /// Client world (Table 2 structure).
    pub client_world: ClientWorldConfig,
    /// Akamai&#8239;PR announcements with no relays (§6 census).
    pub unused_akamai_pr: UnusedPrefixPlan,
    /// City-universe size backing egress geography.
    pub city_universe_size: usize,
}

impl DeploymentConfig {
    /// Full paper-scale configuration.
    ///
    /// Table 1 fleet sizes:
    ///
    /// | epoch | default Apple | default Ak&#8239;PR | fallback Apple | fallback Ak&#8239;PR |
    /// |-------|------:|------:|------:|------:|
    /// | Jan   | 365 | 823 | 356 | 0 |
    /// | Feb   | 355 | 845 | 356 | 0 |
    /// | Mar   | 347 | 945 | 334 | 25 |
    /// | Apr   | 349 | 1237 | 336 | 1062 |
    ///
    /// IPv6 (measured via Atlas in April): Apple 346, Akamai&#8239;PR 1229.
    pub fn paper() -> DeploymentConfig {
        let ingress_plans = vec![
            IngressFleetPlan {
                asn: Asn::APPLE,
                domain: Domain::MaskQuic,
                v4_by_epoch: [365, 355, 347, 349],
                v6_by_epoch: [350, 348, 346, 346],
                v4_pool: Ipv4Net::literal("17.64.0.0/12"),
                v4_prefixes: 20,
                v6_pool: Ipv6Net::literal("2620:149:a000::/40"),
                v6_prefixes: 12,
            },
            IngressFleetPlan {
                asn: Asn::AKAMAI_PR,
                domain: Domain::MaskQuic,
                v4_by_epoch: [823, 845, 945, 1237],
                v6_by_epoch: [700, 780, 950, 1229],
                v4_pool: Ipv4Net::literal("172.240.0.0/13"),
                v4_prefixes: 64,
                v6_pool: Ipv6Net::literal("2a02:26f8::/33"),
                v6_prefixes: 70,
            },
            IngressFleetPlan {
                asn: Asn::APPLE,
                domain: Domain::MaskH2,
                v4_by_epoch: [356, 356, 334, 336],
                v6_by_epoch: [340, 340, 330, 332],
                v4_pool: Ipv4Net::literal("17.128.0.0/12"),
                v4_prefixes: 9,
                v6_pool: Ipv6Net::literal("2620:149:b000::/40"),
                v6_prefixes: 8,
            },
            IngressFleetPlan {
                asn: Asn::AKAMAI_PR,
                domain: Domain::MaskH2,
                v4_by_epoch: [0, 0, 25, 1062],
                v6_by_epoch: [0, 0, 20, 1000],
                v4_pool: Ipv4Net::literal("172.248.0.0/13"),
                v4_prefixes: 30,
                v6_pool: Ipv6Net::literal("2a02:26f8:8000::/33"),
                v6_prefixes: 37,
            },
        ];
        DeploymentConfig {
            ingress_plans,
            max_records_per_answer: 8,
            egress_specs: OperatorEgressSpec::paper_defaults(),
            egress_scale_by_epoch: [
                (Epoch::Jan2022, 0.87),
                (Epoch::Feb2022, 0.90),
                (Epoch::Mar2022, 0.94),
                (Epoch::Apr2022, 0.97),
                (Epoch::May2022, 1.0),
            ],
            client_world: ClientWorldConfig::paper(),
            unused_akamai_pr: UnusedPrefixPlan {
                v4: 83,
                v6: 57,
                v4_pool: Ipv4Net::literal("23.0.0.0/12"),
                v6_pool: Ipv6Net::literal("2a02:26f9::/32"),
            },
            city_universe_size: 25_000,
        }
    }

    /// A configuration with the client world (and egress list) scaled down
    /// by `div` for fast tests and benches. Ingress fleets and prefix
    /// censuses keep their paper-scale values — they are small already.
    pub fn scaled(div: u64) -> DeploymentConfig {
        let mut cfg = DeploymentConfig::paper();
        cfg.client_world = cfg.client_world.scaled_down(div);
        if div > 1 {
            for spec in &mut cfg.egress_specs {
                for (_, count) in &mut spec.v4_mask_plan {
                    *count = (*count as u64 / div).max(2) as usize;
                }
                spec.v6_subnets = (spec.v6_subnets as u64 / div).max(2) as usize;
                spec.v4_bgp_prefixes = (spec.v4_bgp_prefixes as u64 / div).max(1) as usize;
                spec.v6_bgp_prefixes = (spec.v6_bgp_prefixes as u64 / div).max(1) as usize;
                spec.cities_v4 = (spec.cities_v4 as u64 / div).max(2) as usize;
                spec.cities_v6 = (spec.cities_v6 as u64 / div).max(2) as usize;
            }
            cfg.city_universe_size =
                (cfg.city_universe_size as u64 / div.min(8)).max(2_000) as usize;
        }
        cfg
    }

    /// The fleet plan for a `(domain, operator)` pair, if any.
    pub fn plan_for(&self, domain: Domain, asn: Asn) -> Option<&IngressFleetPlan> {
        self.ingress_plans
            .iter()
            .find(|p| p.domain == domain && p.asn == asn)
    }

    /// Egress-list scale factor at `epoch`.
    pub fn egress_scale(&self, epoch: Epoch) -> f64 {
        self.egress_scale_by_epoch
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, s)| *s)
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_match_paper() {
        let cfg = DeploymentConfig::paper();
        // April total ingress IPv4 addresses: 1586.
        let apr_total: usize = [Domain::MaskQuic, Domain::MaskH2]
            .iter()
            .flat_map(|d| {
                Asn::INGRESS_OPERATORS
                    .iter()
                    .filter_map(|a| cfg.plan_for(*d, *a))
            })
            .map(|p| p.size_at(Epoch::Apr2022, false))
            .sum::<usize>();
        // Default (QUIC) April: 349 + 1237 = 1586 (the headline number);
        // fallback April: 336 + 1062 = 1398 (paper: 1398).
        let default_apr: usize = Asn::INGRESS_OPERATORS
            .iter()
            .map(|a| {
                cfg.plan_for(Domain::MaskQuic, *a)
                    .unwrap()
                    .size_at(Epoch::Apr2022, false)
            })
            .sum();
        assert_eq!(default_apr, 1586);
        let fallback_apr: usize = Asn::INGRESS_OPERATORS
            .iter()
            .map(|a| {
                cfg.plan_for(Domain::MaskH2, *a)
                    .unwrap()
                    .size_at(Epoch::Apr2022, false)
            })
            .sum();
        assert_eq!(fallback_apr, 1398);
        let _ = apr_total;
    }

    #[test]
    fn ipv6_totals_match_paper() {
        let cfg = DeploymentConfig::paper();
        // April IPv6 on the default domain: 346 + 1229 = 1575.
        let v6: usize = Asn::INGRESS_OPERATORS
            .iter()
            .map(|a| {
                cfg.plan_for(Domain::MaskQuic, *a)
                    .unwrap()
                    .size_at(Epoch::Apr2022, true)
            })
            .sum();
        assert_eq!(v6, 1575);
    }

    #[test]
    fn quic_growth_is_34_percent() {
        let cfg = DeploymentConfig::paper();
        let total = |e: Epoch| -> usize {
            Asn::INGRESS_OPERATORS
                .iter()
                .map(|a| {
                    cfg.plan_for(Domain::MaskQuic, *a)
                        .unwrap()
                        .size_at(e, false)
                })
                .sum()
        };
        let jan = total(Epoch::Jan2022);
        let apr = total(Epoch::Apr2022);
        let growth = (apr as f64 - jan as f64) / jan as f64;
        assert!(
            (0.30..0.38).contains(&growth),
            "QUIC relay growth {growth:.3} not ≈ 34 %"
        );
    }

    #[test]
    fn fallback_growth_is_293_percent() {
        let cfg = DeploymentConfig::paper();
        let total = |e: Epoch| -> usize {
            Asn::INGRESS_OPERATORS
                .iter()
                .map(|a| cfg.plan_for(Domain::MaskH2, *a).unwrap().size_at(e, false))
                .sum()
        };
        // Paper: 356 (first fallback scan) → 1398 in April, +293 %.
        let feb = total(Epoch::Feb2022);
        let apr = total(Epoch::Apr2022);
        assert_eq!(feb, 356);
        assert_eq!(apr, 1398);
        let growth = (apr as f64 - feb as f64) / feb as f64;
        assert!((2.8..3.0).contains(&growth), "growth {growth:.3}");
    }

    #[test]
    fn ingress_prefix_count_is_123() {
        // §4.1: IPv4 ingress addresses lie within 123 routed BGP prefixes.
        let cfg = DeploymentConfig::paper();
        let total: usize = cfg.ingress_plans.iter().map(|p| p.v4_prefixes).sum();
        assert_eq!(total, 123);
    }

    #[test]
    fn akamai_pr_announcement_census_matches_section6() {
        let cfg = DeploymentConfig::paper();
        let egress = cfg
            .egress_specs
            .iter()
            .find(|s| s.asn == Asn::AKAMAI_PR)
            .unwrap();
        let ingress_v4: usize = cfg
            .ingress_plans
            .iter()
            .filter(|p| p.asn == Asn::AKAMAI_PR)
            .map(|p| p.v4_prefixes)
            .sum();
        let ingress_v6: usize = cfg
            .ingress_plans
            .iter()
            .filter(|p| p.asn == Asn::AKAMAI_PR)
            .map(|p| p.v6_prefixes)
            .sum();
        let announced_v4 = egress.v4_bgp_prefixes + ingress_v4 + cfg.unused_akamai_pr.v4;
        let announced_v6 = egress.v6_bgp_prefixes + ingress_v6 + cfg.unused_akamai_pr.v6;
        assert_eq!(announced_v4, 478, "announced v4");
        assert_eq!(announced_v6, 1336, "announced v6");
        let used = egress.v4_bgp_prefixes + egress.v6_bgp_prefixes + ingress_v4 + ingress_v6;
        let share = used as f64 / (announced_v4 + announced_v6) as f64;
        assert!(
            (0.915..0.93).contains(&share),
            "used-prefix share {share:.4} not ≈ 92.2 %"
        );
    }

    #[test]
    fn scaled_config_shrinks_but_keeps_fleets() {
        let cfg = DeploymentConfig::scaled(64);
        assert!(cfg.client_world.total_ases() < 1500);
        assert!(cfg.client_world.total_slash24() < 200_000);
        // Ingress fleets untouched.
        assert_eq!(
            cfg.plan_for(Domain::MaskQuic, Asn::AKAMAI_PR)
                .unwrap()
                .size_at(Epoch::Apr2022, false),
            1237
        );
    }

    #[test]
    fn client_world_arithmetic() {
        let cw = ClientWorldConfig::paper();
        assert_eq!(cw.total_ases(), 72_735);
        assert_eq!(cw.total_slash24(), 11_900_000);
        // Apple-served subnet share ≈ 69 % (§4.1).
        let apple =
            cw.apple_only_slash24 as f64 + cw.both_apple_subnet_share * cw.both_slash24 as f64;
        let share = apple / cw.total_slash24() as f64;
        assert!((0.67..0.71).contains(&share), "Apple share {share:.3}");
    }

    #[test]
    fn domains_resolve_to_names() {
        assert_eq!(Domain::MaskQuic.name().to_string(), "mask.icloud.com");
        assert_eq!(Domain::MaskH2.name().to_string(), "mask-h2.icloud.com");
        assert_eq!(Domain::MaskQuic.label(), "Default");
        assert_eq!(Domain::MaskH2.label(), "Fallback");
    }

    #[test]
    fn fleet_plan_windows() {
        let cfg = DeploymentConfig::paper();
        let plan = cfg.plan_for(Domain::MaskQuic, Asn::APPLE).unwrap();
        assert_eq!(plan.size_at(Epoch::Jan2022, false), 365);
        assert_eq!(plan.size_at(Epoch::May2022, false), 349);
        assert_eq!(plan.max_size(false), 365);
        assert_eq!(plan.max_size(true), 350);
    }

    #[test]
    fn egress_scale_monotone() {
        let cfg = DeploymentConfig::paper();
        let mut prev = 0.0;
        for e in Epoch::ALL {
            let s = cfg.egress_scale(e);
            assert!(s >= prev, "scale not monotone at {e}");
            prev = s;
        }
        assert_eq!(cfg.egress_scale(Epoch::May2022), 1.0);
        // +15 % Jan → May.
        let growth = 1.0 / cfg.egress_scale(Epoch::Jan2022) - 1.0;
        assert!((0.13..0.17).contains(&growth), "growth {growth:.3}");
    }
}
