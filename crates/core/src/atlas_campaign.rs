//! RIPE-Atlas-style campaigns against the relay deployment (§4.1).
//!
//! Wires the simulated probe platform to the simulated deployment:
//!
//! * A campaigns validate the ECS scan (R1 — Atlas must see a subset),
//! * AAAA campaigns enumerate the IPv6 ingress fleet (R2 — the only way,
//!   since ECS over IPv6 always comes back with scope 0),
//! * `whoami` campaigns recover the resolver mix (>50 % public).

use std::collections::{BTreeMap, BTreeSet};
use std::net::{Ipv4Addr, Ipv6Addr};

use serde::{Deserialize, Serialize};
use tectonic_atlas::measurement::{DnsCampaign, MeasurementOutcome, ProbeResult};
use tectonic_atlas::population::{generate, PopulationConfig, ProbeSite};
use tectonic_atlas::Probe;
use tectonic_dns::resolver::ResolverKind;
use tectonic_dns::server::{AuthoritativeServer, NameServer};
use tectonic_dns::{DomainName, QType, RData, Record, Zone};
use tectonic_engine::EngineConfig;
use tectonic_net::{Asn, Epoch, SimRng, SimTime};
use tectonic_relay::deploy::anycast_source;
use tectonic_relay::{Deployment, Domain};

/// A probe population bound to a deployment.
pub struct AtlasSetup {
    /// The generated probes.
    pub probes: Vec<Probe>,
}

impl AtlasSetup {
    /// Builds a probe population hosted inside the deployment's client
    /// world (one candidate site per client AS).
    pub fn build(deployment: &Deployment, config: &PopulationConfig, seed: u64) -> AtlasSetup {
        let sites: Vec<ProbeSite> = deployment
            .world
            .ases()
            .iter()
            .map(|a| ProbeSite {
                asn: a.asn,
                cc: a.cc,
                probe_addr: a.host_addr(100),
                isp_resolver_addr: a.host_addr(53),
            })
            .collect();
        let probes = generate(&SimRng::new(seed), &sites, config, &|kind, cc| {
            anycast_source(kind, cc)
        });
        AtlasSetup { probes }
    }

    /// Runs an A or AAAA campaign for one mask domain at `epoch` against
    /// the deployment's unlimited authoritative server, as one probe range.
    pub fn run_mask_campaign(
        &self,
        deployment: &Deployment,
        domain: Domain,
        qtype: QType,
        epoch: Epoch,
        seed: u64,
    ) -> Vec<ProbeResult> {
        let auth = deployment.auth_server_unlimited();
        self.run_mask_campaign_engine(
            &[&auth],
            domain,
            qtype,
            epoch,
            seed,
            &EngineConfig::new(1, 1),
        )
    }

    /// Runs an A or AAAA campaign for one mask domain at `epoch` over
    /// `engine.shards` contiguous probe ranges; `engine.workers` is not
    /// read. No probe's result depends on another's, so the ranges run one
    /// after the other on the calling thread, range `s` asking
    /// `auths[s % auths.len()]` in probe order. A probe's transient-flake
    /// draw is keyed by `(seed, probe.id)`, so the result vector equals
    /// [`DnsCampaign::run`]'s for every shard count.
    pub fn run_mask_campaign_engine(
        &self,
        auths: &[&dyn NameServer],
        domain: Domain,
        qtype: QType,
        epoch: Epoch,
        seed: u64,
        engine: &EngineConfig,
    ) -> Vec<ProbeResult> {
        let campaign = DnsCampaign::new(domain.name(), qtype);
        run_campaign(
            &campaign,
            &self.probes,
            auths,
            epoch.start(),
            seed,
            engine.shards,
        )
    }

    /// Runs the control campaign (an unrelated, always-resolvable domain,
    /// served by [`control_server`]) as one probe range.
    pub fn run_control_campaign(
        &self,
        control_auth: &dyn NameServer,
        epoch: Epoch,
        seed: u64,
    ) -> Vec<ProbeResult> {
        run_campaign(
            &control_campaign(),
            &self.probes,
            &[control_auth],
            epoch.start(),
            seed,
            1,
        )
    }

    /// Distribution of resolver kinds across probes (the `whoami` result).
    pub fn resolver_mix(&self) -> BTreeMap<String, usize> {
        let mut mix = BTreeMap::new();
        for p in &self.probes {
            *mix.entry(format!("{:?}", p.resolver_kind)).or_insert(0) += 1;
        }
        mix
    }

    /// Share of probes using one of the four public resolvers.
    pub fn public_resolver_share(&self) -> f64 {
        let public = self
            .probes
            .iter()
            .filter(|p| p.resolver_kind.is_public())
            .count();
        public as f64 / self.probes.len().max(1) as f64
    }

    /// Distinct ASes the probes' ISP/local resolvers sit in — the paper's
    /// "resolvers are visible in 1.8 k different ASes".
    pub fn resolver_as_count(&self) -> usize {
        self.probes
            .iter()
            .filter(|p| matches!(p.resolver_kind, ResolverKind::Isp | ResolverKind::Local))
            .map(|p| p.asn)
            .collect::<BTreeSet<Asn>>()
            .len()
    }
}

/// The blocking survey's control name. It lies outside the relay
/// suffixes the probes' blocking policies apply to, so a blocking resolver
/// still answers it.
const CONTROL_NAME: &str = "control.atlas-measurements.net";

/// The authoritative server for the blocking survey's control domain: the
/// `atlas-measurements.net` zone, with one record, the control name's
/// `A 93.184.216.34` (TTL 300).
pub fn control_server() -> AuthoritativeServer {
    let mut zone = Zone::new(DomainName::literal("atlas-measurements.net"));
    zone.add_record(Record::new(
        DomainName::literal(CONTROL_NAME),
        300,
        RData::A(Ipv4Addr::new(93, 184, 216, 34)),
    ));
    AuthoritativeServer::new().with_zone(zone)
}

/// The blocking survey's control campaign: A queries for the control name.
fn control_campaign() -> DnsCampaign {
    DnsCampaign::new(DomainName::literal(CONTROL_NAME), QType::A)
}

/// Runs `campaign` over `probes` as `shards` contiguous probe ranges, every
/// probe measured at `now`; the body of
/// [`AtlasSetup::run_mask_campaign_engine`]. The chaos harness passes one
/// fault-injecting server per shard, so each sees its own range's queries.
fn run_campaign(
    campaign: &DnsCampaign,
    probes: &[Probe],
    auths: &[&dyn NameServer],
    now: SimTime,
    seed: u64,
    shards: usize,
) -> Vec<ProbeResult> {
    let per_range = probes.len().div_ceil(shards.max(1)).max(1);
    let rng = SimRng::new(seed);
    probes
        .chunks(per_range)
        .zip(auths.iter().cycle())
        .flat_map(|(range, auth)| campaign.run(range, *auth, now, &rng))
        .collect()
}

/// Aggregated outcome of an address-enumeration campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AtlasCampaignReport {
    /// Distinct IPv4 addresses observed.
    pub v4_addresses: BTreeSet<Ipv4Addr>,
    /// Distinct IPv6 addresses observed.
    pub v6_addresses: BTreeSet<Ipv6Addr>,
    /// Distinct IPv4 addresses per ingress AS.
    pub v4_by_as: BTreeMap<Asn, BTreeSet<Ipv4Addr>>,
    /// Distinct IPv6 addresses per ingress AS.
    pub v6_by_as: BTreeMap<Asn, BTreeSet<Ipv6Addr>>,
    /// Probes whose measurement produced any address.
    pub answering_probes: usize,
    /// Total probes measured.
    pub total_probes: usize,
}

impl AtlasCampaignReport {
    /// Aggregates raw probe results, attributing addresses via `deployment`.
    pub fn aggregate(deployment: &Deployment, results: &[ProbeResult]) -> AtlasCampaignReport {
        let mut report = AtlasCampaignReport {
            v4_addresses: BTreeSet::new(),
            v6_addresses: BTreeSet::new(),
            v4_by_as: BTreeMap::new(),
            v6_by_as: BTreeMap::new(),
            answering_probes: 0,
            total_probes: results.len(),
        };
        for r in results {
            if let MeasurementOutcome::Response {
                answers_v4,
                answers_v6,
                ..
            } = &r.outcome
            {
                if !answers_v4.is_empty() || !answers_v6.is_empty() {
                    report.answering_probes += 1;
                }
                for a in answers_v4 {
                    report.v4_addresses.insert(*a);
                    if let Some(asn) = deployment.fleets.asn_of(std::net::IpAddr::V4(*a)) {
                        report.v4_by_as.entry(asn).or_default().insert(*a);
                    }
                }
                for a in answers_v6 {
                    report.v6_addresses.insert(*a);
                    if let Some(asn) = deployment.fleets.asn_of(std::net::IpAddr::V6(*a)) {
                        report.v6_by_as.entry(asn).or_default().insert(*a);
                    }
                }
            }
        }
        report
    }

    /// IPv6 count for one AS.
    pub fn v6_count_for(&self, asn: Asn) -> usize {
        self.v6_by_as.get(&asn).map(BTreeSet::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_relay::DeploymentConfig;

    fn setup() -> (Deployment, AtlasSetup) {
        let d = Deployment::build(33, DeploymentConfig::scaled(1024));
        let config = PopulationConfig::paper().with_probes(1_500);
        let atlas = AtlasSetup::build(&d, &config, 44);
        (d, atlas)
    }

    #[test]
    fn a_campaign_sees_subset_of_full_fleet() {
        let (d, atlas) = setup();
        let results = atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 1);
        let report = AtlasCampaignReport::aggregate(&d, &results);
        assert!(!report.v4_addresses.is_empty());
        // Every observed address is a current ingress address (⊆ ECS
        // ground truth by construction).
        let fleet: BTreeSet<Ipv4Addr> = d
            .fleets
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::APPLE)
            .iter()
            .chain(
                d.fleets
                    .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR),
            )
            .copied()
            .collect();
        // All *ingress* answers are in the fleet; the one hijacked probe
        // contributes a non-ingress address, exactly what the blocking
        // survey later flags.
        let ingress_seen: BTreeSet<Ipv4Addr> = report
            .v4_addresses
            .iter()
            .filter(|a| d.fleets.is_ingress(std::net::IpAddr::V4(**a)))
            .copied()
            .collect();
        assert!(ingress_seen.is_subset(&fleet));
        assert!(report.v4_addresses.len() - ingress_seen.len() <= 1);
        // And a strict subset: the Atlas view misses some addresses.
        assert!(
            ingress_seen.len() < fleet.len(),
            "Atlas saw the whole fleet ({} of {})",
            ingress_seen.len(),
            fleet.len()
        );
    }

    #[test]
    fn aaaa_campaign_enumerates_v6() {
        let (d, atlas) = setup();
        let results = atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::AAAA, Epoch::Apr2022, 2);
        let report = AtlasCampaignReport::aggregate(&d, &results);
        assert!(!report.v6_addresses.is_empty());
        assert!(report.v6_count_for(Asn::AKAMAI_PR) > report.v6_count_for(Asn::APPLE));
        assert!(report.v4_addresses.is_empty());
    }

    #[test]
    fn resolver_mix_is_public_heavy() {
        let (_, atlas) = setup();
        let share = atlas.public_resolver_share();
        assert!(
            (0.45..0.62).contains(&share),
            "public resolver share {share:.3}"
        );
        let mix = atlas.resolver_mix();
        assert!(mix.contains_key("GooglePublic"));
        assert!(atlas.resolver_as_count() > 10);
    }

    #[test]
    fn ranged_campaign_matches_one_run() {
        let (d, atlas) = setup();
        let auth = d.auth_server_unlimited();
        let start = Epoch::Apr2022.start();
        // The oracle: one campaign run over every probe.
        let oracle = DnsCampaign::new(Domain::MaskQuic.name(), QType::A).run(
            &atlas.probes,
            &auth,
            start,
            &SimRng::new(7),
        );
        assert_eq!(
            atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 7),
            oracle
        );
        // One shared server at range counts that do and do not divide the
        // 1 500 probes, and a per-range fan-out of three over six ranges.
        let shared: Vec<&dyn NameServer> = vec![&auth];
        let fan_out: Vec<&dyn NameServer> = vec![&auth, &auth, &auth];
        for (auths, shards) in [
            (&shared, 1),
            (&shared, 5),
            (&shared, 7),
            (&shared, 11),
            (&shared, 2_000),
            (&fan_out, 6),
        ] {
            let ranged = atlas.run_mask_campaign_engine(
                auths,
                Domain::MaskQuic,
                QType::A,
                Epoch::Apr2022,
                7,
                &EngineConfig::new(shards, 1),
            );
            assert_eq!(ranged, oracle, "shards={shards}");
        }
        assert!(atlas
            .run_mask_campaign_engine(
                &[],
                Domain::MaskQuic,
                QType::A,
                Epoch::Apr2022,
                7,
                &EngineConfig::new(3, 1),
            )
            .is_empty());
        let control = control_server();
        let control_oracle =
            control_campaign().run(&atlas.probes, &control, start, &SimRng::new(8));
        assert!(control_oracle
            .iter()
            .any(|r| r.outcome.rcode() == Some(tectonic_dns::Rcode::NoError)));
        assert_eq!(
            atlas.run_control_campaign(&control, Epoch::Apr2022, 8),
            control_oracle
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let (d, atlas) = setup();
        let a = atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 9);
        let b = atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 9);
        assert_eq!(a, b);
    }
}
