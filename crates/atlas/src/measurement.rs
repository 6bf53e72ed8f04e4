//! DNS measurement campaigns.
//!
//! A [`DnsCampaign`] runs one `(name, qtype)` measurement across a probe
//! set, the way the paper schedules its A/AAAA resolutions of the mask
//! domains and the control-domain comparison run. Transient timeouts are
//! injected per probe draw (the paper's ~10 % baseline), independent of any
//! resolver policy.

use std::net::{Ipv4Addr, Ipv6Addr};

use serde::{Deserialize, Serialize};
use tectonic_dns::resolver::{ResolutionOutcome, ResolverKind};
use tectonic_dns::server::NameServer;
use tectonic_dns::{DomainName, QType, Rcode};
use tectonic_net::{Asn, SimRng, SimTime};

use tectonic_geo::country::CountryCode;

use crate::probe::Probe;

/// What one probe measured.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasurementOutcome {
    /// No response within the platform timeout.
    Timeout,
    /// A DNS response arrived.
    Response {
        /// Its response code.
        rcode: Rcode,
        /// A answers, if any.
        answers_v4: Vec<Ipv4Addr>,
        /// AAAA answers, if any.
        answers_v6: Vec<Ipv6Addr>,
    },
}

impl MeasurementOutcome {
    /// `true` when a response carried at least one address record.
    pub fn has_answers(&self) -> bool {
        match self {
            MeasurementOutcome::Timeout => false,
            MeasurementOutcome::Response {
                answers_v4,
                answers_v6,
                ..
            } => !answers_v4.is_empty() || !answers_v6.is_empty(),
        }
    }

    /// The rcode, if a response arrived.
    pub fn rcode(&self) -> Option<Rcode> {
        match self {
            MeasurementOutcome::Timeout => None,
            MeasurementOutcome::Response { rcode, .. } => Some(*rcode),
        }
    }
}

/// One probe's result row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeResult {
    /// Probe ID.
    pub probe_id: u32,
    /// Probe host AS.
    pub asn: Asn,
    /// Probe country.
    pub cc: CountryCode,
    /// Which resolver kind served the probe.
    #[serde(skip)]
    pub resolver_kind: Option<ResolverKind>,
    /// The measurement outcome.
    pub outcome: MeasurementOutcome,
}

/// A one-off DNS measurement across a probe set.
#[derive(Debug, Clone)]
pub struct DnsCampaign {
    /// The queried name.
    pub qname: DomainName,
    /// The queried type.
    pub qtype: QType,
    /// Suffixes that probes' blocking policies apply to.
    pub policy_suffixes: Vec<DomainName>,
}

impl DnsCampaign {
    /// A campaign against one of the relay mask domains (policies apply).
    pub fn mask(qname: DomainName, qtype: QType) -> DnsCampaign {
        DnsCampaign {
            qname,
            qtype,
            policy_suffixes: vec![DomainName::literal("icloud.com")],
        }
    }

    /// A control campaign against an unrelated domain (policies apply to
    /// the relay suffixes only, so blocking resolvers still answer).
    pub fn control(qname: DomainName, qtype: QType) -> DnsCampaign {
        DnsCampaign {
            qname,
            qtype,
            policy_suffixes: vec![DomainName::literal("icloud.com")],
        }
    }

    /// The campaign's flake-stream root for a given campaign generator.
    ///
    /// Each probe's transient-timeout draw comes from an independent fork
    /// of this root keyed by probe id (see [`DnsCampaign::run_probe`]), so
    /// a probe's outcome depends only on `(seed, probe.id)` — never on how
    /// many probes ran before it or on which shard of the discrete-event
    /// engine it landed.
    pub fn flake_base(rng: &SimRng) -> SimRng {
        rng.fork("campaign-flakes")
    }

    /// Runs the campaign for one probe at simulated time `now`.
    pub fn run_probe(
        &self,
        probe: &Probe,
        auth: &dyn NameServer,
        now: SimTime,
        flake_base: &SimRng,
    ) -> ProbeResult {
        let mut flake_rng = flake_base.fork_indexed("probe-flake", u64::from(probe.id));
        let outcome = if flake_rng.chance(probe.flaky) {
            MeasurementOutcome::Timeout
        } else {
            let mut resolver = probe.resolver(self.policy_suffixes.clone());
            match resolver.resolve(
                std::net::IpAddr::V4(probe.addr),
                &self.qname,
                self.qtype,
                auth,
                now,
            ) {
                ResolutionOutcome::Timeout => MeasurementOutcome::Timeout,
                ResolutionOutcome::Answered(msg) => MeasurementOutcome::Response {
                    rcode: msg.rcode,
                    answers_v4: msg.a_answers(),
                    answers_v6: msg.aaaa_answers(),
                },
            }
        };
        ProbeResult {
            probe_id: probe.id,
            asn: probe.asn,
            cc: probe.cc,
            resolver_kind: Some(probe.resolver_kind),
            outcome,
        }
    }

    /// Runs the campaign: every probe resolves through its own resolver
    /// against `auth` at simulated time `now`.
    pub fn run(
        &self,
        probes: &[Probe],
        auth: &dyn NameServer,
        now: SimTime,
        rng: &SimRng,
    ) -> Vec<ProbeResult> {
        let flake_base = DnsCampaign::flake_base(rng);
        probes
            .iter()
            .map(|probe| self.run_probe(probe, auth, now, &flake_base))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::IpAddr;
    use std::sync::Arc;
    use tectonic_dns::resolver::ResolverPolicy;
    use tectonic_dns::server::AuthoritativeServer;
    use tectonic_dns::zone::{AnswerSink, EcsAnswerer, QueryInfo};
    use tectonic_dns::{QuestionRef, RData, Zone};

    struct FixedAddr;

    impl EcsAnswerer for FixedAddr {
        fn answer(
            &self,
            question: &QuestionRef<'_>,
            _ecs: Option<&tectonic_dns::EcsOption>,
            _info: &QueryInfo,
            answers: &mut dyn AnswerSink,
        ) -> Option<u8> {
            if question.qtype == QType::A {
                answers.push(60, &RData::A(Ipv4Addr::new(17, 9, 9, 9)));
                Some(24)
            } else {
                Some(0)
            }
        }
    }

    fn auth() -> AuthoritativeServer {
        let zone = Zone::new("icloud.com".parse().unwrap()).with_dynamic(Arc::new(FixedAddr));
        AuthoritativeServer::new().with_zone(zone)
    }

    fn probe(id: u32, policy: ResolverPolicy, flaky: f64) -> Probe {
        Probe {
            id,
            asn: Asn(100_000 + id),
            cc: CountryCode::US,
            addr: Ipv4Addr::new(1, 0, id as u8, 10),
            resolver_kind: ResolverKind::Isp,
            resolver_addr: IpAddr::V4(Ipv4Addr::new(1, 0, id as u8, 53)),
            policy,
            flaky,
        }
    }

    #[test]
    fn normal_probes_get_answers() {
        let probes = vec![probe(0, ResolverPolicy::Normal, 0.0)];
        let campaign = DnsCampaign::mask("mask.icloud.com".parse().unwrap(), QType::A);
        let results = campaign.run(&probes, &auth(), SimTime(0), &SimRng::new(1));
        assert_eq!(results.len(), 1);
        assert!(results[0].outcome.has_answers());
        assert_eq!(results[0].outcome.rcode(), Some(Rcode::NoError));
    }

    #[test]
    fn blocking_probe_fails_mask_but_not_control() {
        let probes = vec![probe(0, ResolverPolicy::BlockNxDomain, 0.0)];
        let mask = DnsCampaign::mask("mask.icloud.com".parse().unwrap(), QType::A);
        let results = mask.run(&probes, &auth(), SimTime(0), &SimRng::new(1));
        assert_eq!(results[0].outcome.rcode(), Some(Rcode::NxDomain));
        // Control domain: policy does not apply; the auth refuses the
        // out-of-zone name but the probe *does* get a response.
        let control = DnsCampaign::control("control.example".parse().unwrap(), QType::A);
        let results = control.run(&probes, &auth(), SimTime(0), &SimRng::new(1));
        assert_eq!(results[0].outcome.rcode(), Some(Rcode::Refused));
    }

    #[test]
    fn flaky_probes_time_out_sometimes() {
        let probes: Vec<Probe> = (0..200)
            .map(|i| probe(i, ResolverPolicy::Normal, 0.5))
            .collect();
        let campaign = DnsCampaign::mask("mask.icloud.com".parse().unwrap(), QType::A);
        let results = campaign.run(&probes, &auth(), SimTime(0), &SimRng::new(3));
        let timeouts = results
            .iter()
            .filter(|r| r.outcome == MeasurementOutcome::Timeout)
            .count();
        assert!((50..150).contains(&timeouts), "timeouts {timeouts}");
    }

    #[test]
    fn campaign_is_deterministic() {
        let probes: Vec<Probe> = (0..50)
            .map(|i| probe(i, ResolverPolicy::Normal, 0.2))
            .collect();
        let campaign = DnsCampaign::mask("mask.icloud.com".parse().unwrap(), QType::A);
        let a = campaign.run(&probes, &auth(), SimTime(0), &SimRng::new(9));
        let b = campaign.run(&probes, &auth(), SimTime(0), &SimRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn probe_outcomes_are_order_independent() {
        let probes: Vec<Probe> = (0..60)
            .map(|i| probe(i, ResolverPolicy::Normal, 0.4))
            .collect();
        let mut reversed = probes.clone();
        reversed.reverse();
        let campaign = DnsCampaign::mask("mask.icloud.com".parse().unwrap(), QType::A);
        let auth = auth();
        let seed = SimRng::new(5);
        let forward = campaign.run(&probes, &auth, SimTime(0), &seed);
        let mut backward = campaign.run(&reversed, &auth, SimTime(0), &seed);
        backward.reverse();
        // Each probe's flake draw is keyed by its id, so execution order
        // (and by extension engine sharding) cannot change any outcome.
        assert_eq!(forward, backward);
    }

    #[test]
    fn outcome_helpers() {
        assert!(!MeasurementOutcome::Timeout.has_answers());
        assert_eq!(MeasurementOutcome::Timeout.rcode(), None);
        let r = MeasurementOutcome::Response {
            rcode: Rcode::NoError,
            answers_v4: vec![],
            answers_v6: vec!["2620:149::1".parse().unwrap()],
        };
        assert!(r.has_answers());
    }
}
