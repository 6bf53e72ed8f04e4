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
use tectonic_dns::server::NameServer;
use tectonic_dns::QType;
use tectonic_engine::{Engine, EngineConfig, ShardCtx, ShardModel};
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
    /// the deployment's unlimited authoritative server: the one-shard run
    /// of [`run_mask_campaign_engine`](AtlasSetup::run_mask_campaign_engine).
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

    /// Runs an A or AAAA campaign for one mask domain at `epoch` on the
    /// sharded discrete-event engine.
    ///
    /// Probes are dealt to shards in contiguous index ranges and each probe
    /// is one scheduled event at the epoch start. A probe's transient-flake
    /// draw is keyed by `(seed, probe.id)` (see
    /// [`DnsCampaign::run_probe`]), so the merged result vector equals
    /// [`DnsCampaign::run`]'s for every shard and worker count.
    /// `auths` is indexed `shard % auths.len()` — the chaos harness passes
    /// one fault-injecting wrapper per shard so shards never share a
    /// channel lock.
    pub fn run_mask_campaign_engine(
        &self,
        auths: &[&dyn NameServer],
        domain: Domain,
        qtype: QType,
        epoch: Epoch,
        seed: u64,
        engine: &EngineConfig,
    ) -> Vec<ProbeResult> {
        let campaign = DnsCampaign::mask(domain.name(), qtype);
        run_campaign_engine(&campaign, &self.probes, auths, epoch.start(), seed, engine)
    }

    /// Runs the control campaign (an unrelated, always-resolvable domain)
    /// on one engine shard.
    pub fn run_control_campaign(
        &self,
        control_auth: &dyn NameServer,
        epoch: Epoch,
        seed: u64,
    ) -> Vec<ProbeResult> {
        run_campaign_engine(
            &control_campaign(),
            &self.probes,
            &[control_auth],
            epoch.start(),
            seed,
            &EngineConfig::new(1, 1),
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

/// The blocking survey's control campaign: A queries for a domain that
/// always resolves.
fn control_campaign() -> DnsCampaign {
    DnsCampaign::control(
        tectonic_dns::DomainName::literal("control.atlas-measurements.net"),
        QType::A,
    )
}

/// Runs `campaign` over `probes` on the discrete-event engine: contiguous
/// probe ranges per shard, one event per probe, all at `now` (as in
/// [`DnsCampaign::run`], every probe is measured at the same instant).
/// Shard outputs concatenate in shard-index order, which is probe order.
fn run_campaign_engine(
    campaign: &DnsCampaign,
    probes: &[Probe],
    auths: &[&dyn NameServer],
    now: SimTime,
    seed: u64,
    engine: &EngineConfig,
) -> Vec<ProbeResult> {
    let Some(&first_auth) = auths.first() else {
        return Vec::new();
    };
    let shards = engine.shards.max(1);
    let per_shard = probes.len().div_ceil(shards).max(1);
    // Same derivation as DnsCampaign::run, so per-probe flake streams are
    // identical.
    let flake_base = DnsCampaign::flake_base(&SimRng::new(seed));
    let models: Vec<ProbeShard<'_>> = probes
        .chunks(per_shard)
        .enumerate()
        .map(|(s, chunk)| ProbeShard {
            campaign,
            auth: auths.get(s % auths.len()).copied().unwrap_or(first_auth),
            flake_base: &flake_base,
            probes: chunk.iter(),
            results: Vec::with_capacity(chunk.len()),
        })
        .collect();
    let mut eng = Engine::new(engine, models, &SimRng::new(seed));
    for (s, chunk) in probes.chunks(per_shard).enumerate() {
        for _ in chunk {
            eng.seed(s, now, ());
        }
    }
    let mut merged = Vec::with_capacity(probes.len());
    for out in eng.run() {
        merged.extend(out);
    }
    merged
}

/// One engine shard of a DNS campaign: a contiguous probe range, one event
/// per probe. Events within a shard arrive in seed (= probe) order, so a
/// cursor over the range suffices — the event carries no payload.
struct ProbeShard<'a> {
    campaign: &'a DnsCampaign,
    auth: &'a dyn NameServer,
    flake_base: &'a SimRng,
    probes: std::slice::Iter<'a, Probe>,
    results: Vec<ProbeResult>,
}

impl ShardModel for ProbeShard<'_> {
    type Event = ();
    type Out = Vec<ProbeResult>;

    fn handle(&mut self, now: SimTime, _event: (), _ctx: &mut ShardCtx<()>) {
        if let Some(probe) = self.probes.next() {
            self.results.push(
                self.campaign
                    .run_probe(probe, self.auth, now, self.flake_base),
            );
        }
    }

    fn finish(self) -> Self::Out {
        self.results
    }
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
    fn engine_campaign_matches_serial_for_all_worker_counts() {
        let (d, atlas) = setup();
        let auth = d.auth_server_unlimited();
        let start = Epoch::Apr2022.start();
        // The oracle: the serial campaign loop over every probe.
        let oracle = DnsCampaign::mask(Domain::MaskQuic.name(), QType::A).run(
            &atlas.probes,
            &auth,
            start,
            &SimRng::new(7),
        );
        assert_eq!(
            atlas.run_mask_campaign(&d, Domain::MaskQuic, QType::A, Epoch::Apr2022, 7),
            oracle
        );
        // One shared server, and a per-shard fan-out of three over six
        // shards.
        let shared: Vec<&dyn NameServer> = vec![&auth];
        let fan_out: Vec<&dyn NameServer> = vec![&auth, &auth, &auth];
        for (auths, shards, workers) in [
            (&shared, 1, 1),
            (&shared, 5, 1),
            (&shared, 5, 4),
            (&shared, 8, 8),
            (&fan_out, 6, 3),
        ] {
            let engine = atlas.run_mask_campaign_engine(
                auths,
                Domain::MaskQuic,
                QType::A,
                Epoch::Apr2022,
                7,
                &EngineConfig::new(shards, workers),
            );
            assert_eq!(engine, oracle, "shards={shards} workers={workers}");
        }
        let control_oracle = control_campaign().run(&atlas.probes, &auth, start, &SimRng::new(8));
        assert_eq!(
            atlas.run_control_campaign(&auth, Epoch::Apr2022, 8),
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
