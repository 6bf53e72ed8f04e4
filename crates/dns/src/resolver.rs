//! Recursive resolvers and blocking policies.
//!
//! RIPE Atlas probes resolve through whatever resolver their host network
//! provides. The paper finds >50 % of probes behind the big public
//! resolvers, and 5.5 % behind resolvers that *block* the Private Relay
//! domains — answering NXDOMAIN, empty NOERROR, REFUSED, SERVFAIL, FORMERR,
//! timing out, or hijacking the name (the observed `nextdns.io` case).
//! [`ResolverPolicy`] models exactly those behaviours; the blocking survey
//! in `tectonic-core` classifies them from the outside, the way the paper
//! does.

use std::net::{IpAddr, Ipv4Addr};

use tectonic_net::{Ipv4Net, SimTime};

use crate::edns::EcsOption;
use crate::message::{Message, QType, RData, Rcode};
use crate::name::DomainName;
use crate::server::{NameServer, QueryContext, ServerReply};
use crate::wire::{decode_message, encode_message};

/// Which resolver service a probe uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ResolverKind {
    /// Google Public DNS (8.8.8.8).
    GooglePublic,
    /// Cloudflare 1.1.1.1.
    CloudflarePublic,
    /// Quad9 (9.9.9.9).
    Quad9,
    /// Cisco OpenDNS.
    OpenDns,
    /// The ISP's own recursive resolver.
    Isp,
    /// A resolver running on the probe's own network segment (forwarder,
    /// CPE, or local unbound).
    Local,
}

impl ResolverKind {
    /// The four public services the paper identifies via
    /// `whoami.akamai.net`, in its listing order.
    pub const PUBLIC: [ResolverKind; 4] = [
        ResolverKind::GooglePublic,
        ResolverKind::CloudflarePublic,
        ResolverKind::Quad9,
        ResolverKind::OpenDns,
    ];

    /// The well-known service address, if this is a public service.
    pub fn well_known_addr(&self) -> Option<IpAddr> {
        match self {
            ResolverKind::GooglePublic => Some(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8))),
            ResolverKind::CloudflarePublic => Some(IpAddr::V4(Ipv4Addr::new(1, 1, 1, 1))),
            ResolverKind::Quad9 => Some(IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9))),
            ResolverKind::OpenDns => Some(IpAddr::V4(Ipv4Addr::new(208, 67, 222, 222))),
            ResolverKind::Isp | ResolverKind::Local => None,
        }
    }

    /// Whether this is one of the four public services.
    pub fn is_public(&self) -> bool {
        self.well_known_addr().is_some()
    }

    /// Whether the service attaches ECS when forwarding to authoritatives.
    ///
    /// Google and OpenDNS do; Cloudflare and Quad9 famously do not (privacy
    /// stance); ISP/local resolvers in the simulation do not either, so the
    /// authoritative falls back to the resolver's source subnet.
    pub fn sends_ecs(&self) -> bool {
        matches!(self, ResolverKind::GooglePublic | ResolverKind::OpenDns)
    }
}

/// What a resolver does with queries for blocked names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolverPolicy {
    /// Resolve everything normally.
    Normal,
    /// Claim the name does not exist.
    BlockNxDomain,
    /// Answer NOERROR with an empty answer section.
    BlockNoData,
    /// Refuse the query.
    BlockRefused,
    /// Fail the query.
    BlockServFail,
    /// Answer FORMERR (observed from broken middleboxes).
    BlockFormErr,
    /// Answer with a different address — DNS hijack (the `nextdns.io`
    /// observation in §4.1).
    Hijack(Ipv4Addr),
    /// Silently drop queries for blocked names.
    Timeout,
}

impl ResolverPolicy {
    /// Whether the policy blocks access (anything but `Normal`).
    pub fn is_blocking(&self) -> bool {
        !matches!(self, ResolverPolicy::Normal)
    }
}

/// A recursive resolver as seen from a client.
pub struct Resolver {
    kind: ResolverKind,
    /// Address this resolver uses toward authoritative servers.
    addr: IpAddr,
    policy: ResolverPolicy,
    /// Domain suffixes the policy applies to (empty = policy applies to
    /// nothing, i.e. behaves like `Normal`).
    blocked_suffixes: Vec<DomainName>,
    next_id: u16,
}

impl std::fmt::Debug for Resolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolver")
            .field("kind", &self.kind)
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .finish()
    }
}

/// Outcome of a resolution attempt, as the client sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolutionOutcome {
    /// A response arrived (any rcode).
    Answered(Message),
    /// No response within the client's timeout.
    Timeout,
}

impl ResolutionOutcome {
    /// The response, if one arrived.
    pub fn message(&self) -> Option<&Message> {
        match self {
            ResolutionOutcome::Answered(m) => Some(m),
            ResolutionOutcome::Timeout => None,
        }
    }
}

impl Resolver {
    /// A normally-behaving resolver.
    pub fn new(kind: ResolverKind, addr: IpAddr) -> Self {
        Resolver {
            kind,
            addr,
            policy: ResolverPolicy::Normal,
            blocked_suffixes: Vec::new(),
            next_id: 1,
        }
    }

    /// A public resolver at its well-known address.
    pub fn public(kind: ResolverKind) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "API contract: callers pass a public resolver kind; the ISP kind has no well-known address"
        )]
        let addr = kind
            .well_known_addr()
            .expect("public() requires a public resolver kind");
        Resolver::new(kind, addr)
    }

    /// Applies `policy` to names under any of `suffixes`.
    pub fn with_policy(mut self, policy: ResolverPolicy, suffixes: Vec<DomainName>) -> Self {
        self.policy = policy;
        self.blocked_suffixes = suffixes;
        self
    }

    /// The resolver's kind.
    pub fn kind(&self) -> ResolverKind {
        self.kind
    }

    /// The address the resolver queries authoritatives from.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The configured policy.
    pub fn policy(&self) -> ResolverPolicy {
        self.policy
    }

    /// Whether `name` matches a blocked suffix.
    pub fn blocks(&self, name: &DomainName) -> bool {
        self.policy.is_blocking() && self.blocked_suffixes.iter().any(|s| name.is_within(s))
    }

    fn fresh_id(&mut self) -> u16 {
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.next_id
    }

    /// Resolves `name`/`qtype` on behalf of `client_addr` against `auth`.
    ///
    /// Public resolvers that support ECS attach the client's /24 (or /56 for
    /// IPv6 clients); otherwise the authoritative only sees the resolver's
    /// own source address.
    pub fn resolve(
        &mut self,
        client_addr: IpAddr,
        name: &DomainName,
        qtype: QType,
        auth: &dyn NameServer,
        now: SimTime,
    ) -> ResolutionOutcome {
        if self.blocks(name) {
            if let Some(outcome) = self.apply_policy(name, qtype) {
                return outcome;
            }
        }
        let mut query = Message::query(self.fresh_id(), name.clone(), qtype);
        if self.kind.sends_ecs() {
            let ecs = match client_addr {
                IpAddr::V4(a) => EcsOption::for_v4_net(Ipv4Net::slash24_of(a)),
                IpAddr::V6(a) => EcsOption::for_v6_net(tectonic_net::Ipv6Net::clamped(a, 56)),
            };
            query.ensure_edns().set_ecs(ecs);
        }
        let ctx = QueryContext {
            src: self.addr,
            now,
        };
        match auth.handle_query(&encode_message(&query), &ctx) {
            ServerReply::Response(bytes) => match decode_message(&bytes) {
                Ok(mut response) => {
                    // Recursive resolvers strip ECS before answering stubs
                    // and set RA.
                    response.flags.ra = true;
                    if let Some(opt) = response.edns.as_mut() {
                        opt.options.clear();
                    }
                    ResolutionOutcome::Answered(response)
                }
                Err(_) => ResolutionOutcome::Timeout,
            },
            ServerReply::Dropped => ResolutionOutcome::Timeout,
        }
    }

    /// The policy verdict for a blocked name, or `None` under
    /// [`ResolverPolicy::Normal`] (the caller resolves normally).
    fn apply_policy(&mut self, name: &DomainName, qtype: QType) -> Option<ResolutionOutcome> {
        let policy = self.policy;
        let mut make = |rcode: Rcode| {
            let q = Message::query(self.fresh_id(), name.clone(), qtype);
            let mut r = q.response_to(rcode);
            r.flags.ra = true;
            r
        };
        match policy {
            ResolverPolicy::Normal => None,
            ResolverPolicy::BlockNxDomain => {
                Some(ResolutionOutcome::Answered(make(Rcode::NxDomain)))
            }
            ResolverPolicy::BlockNoData => Some(ResolutionOutcome::Answered(make(Rcode::NoError))),
            ResolverPolicy::BlockRefused => Some(ResolutionOutcome::Answered(make(Rcode::Refused))),
            ResolverPolicy::BlockServFail => {
                Some(ResolutionOutcome::Answered(make(Rcode::ServFail)))
            }
            ResolverPolicy::BlockFormErr => Some(ResolutionOutcome::Answered(make(Rcode::FormErr))),
            ResolverPolicy::Hijack(addr) => {
                let mut r = make(Rcode::NoError);
                if qtype == QType::A {
                    r.answers.push(crate::message::Record::new(
                        name.clone(),
                        300,
                        RData::A(addr),
                    ));
                }
                Some(ResolutionOutcome::Answered(r))
            }
            ResolverPolicy::Timeout => Some(ResolutionOutcome::Timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Record;
    use crate::name::{mask_domain, mask_h2_domain};
    use crate::server::AuthoritativeServer;
    use crate::zone::Zone;

    fn auth() -> AuthoritativeServer {
        let mut zone = Zone::new("icloud.com".parse().unwrap());
        zone.add_record(Record::new(
            mask_domain(),
            60,
            RData::A(Ipv4Addr::new(17, 1, 1, 1)),
        ));
        AuthoritativeServer::new().with_zone(zone)
    }

    fn client() -> IpAddr {
        "100.64.9.10".parse().unwrap()
    }

    #[test]
    fn normal_resolution_returns_answer() {
        let mut r = Resolver::public(ResolverKind::CloudflarePublic);
        let out = r.resolve(client(), &mask_domain(), QType::A, &auth(), SimTime(0));
        let m = out.message().unwrap();
        assert_eq!(m.rcode, Rcode::NoError);
        assert_eq!(m.a_answers(), vec![Ipv4Addr::new(17, 1, 1, 1)]);
        assert!(m.flags.ra);
    }

    #[test]
    fn public_resolver_addresses() {
        assert_eq!(
            Resolver::public(ResolverKind::GooglePublic).addr(),
            "8.8.8.8".parse::<IpAddr>().unwrap()
        );
        assert!(ResolverKind::Isp.well_known_addr().is_none());
        assert!(ResolverKind::GooglePublic.is_public());
        assert!(!ResolverKind::Local.is_public());
    }

    #[test]
    fn ecs_forwarding_kinds() {
        assert!(ResolverKind::GooglePublic.sends_ecs());
        assert!(ResolverKind::OpenDns.sends_ecs());
        assert!(!ResolverKind::CloudflarePublic.sends_ecs());
        assert!(!ResolverKind::Quad9.sends_ecs());
        assert!(!ResolverKind::Isp.sends_ecs());
    }

    #[test]
    fn blocking_policies_produce_expected_rcodes() {
        let cases = [
            (ResolverPolicy::BlockNxDomain, Rcode::NxDomain),
            (ResolverPolicy::BlockNoData, Rcode::NoError),
            (ResolverPolicy::BlockRefused, Rcode::Refused),
            (ResolverPolicy::BlockServFail, Rcode::ServFail),
            (ResolverPolicy::BlockFormErr, Rcode::FormErr),
        ];
        for (policy, want) in cases {
            let mut r = Resolver::new(ResolverKind::Isp, "192.0.2.53".parse().unwrap())
                .with_policy(policy, vec!["icloud.com".parse().unwrap()]);
            let out = r.resolve(client(), &mask_domain(), QType::A, &auth(), SimTime(0));
            let m = out.message().unwrap();
            assert_eq!(m.rcode, want, "policy {policy:?}");
            assert!(m.answers.is_empty());
        }
    }

    #[test]
    fn nodata_block_is_noerror_nodata_shape() {
        let mut r = Resolver::new(ResolverKind::Isp, "192.0.2.53".parse().unwrap()).with_policy(
            ResolverPolicy::BlockNoData,
            vec!["icloud.com".parse().unwrap()],
        );
        let out = r.resolve(client(), &mask_domain(), QType::A, &auth(), SimTime(0));
        assert!(out.message().unwrap().is_noerror_nodata());
    }

    #[test]
    fn timeout_policy_times_out_only_blocked_names() {
        let mut r = Resolver::new(ResolverKind::Local, "192.0.2.53".parse().unwrap())
            .with_policy(ResolverPolicy::Timeout, vec!["icloud.com".parse().unwrap()]);
        assert_eq!(
            r.resolve(client(), &mask_domain(), QType::A, &auth(), SimTime(0)),
            ResolutionOutcome::Timeout
        );
        // Unrelated domains resolve (the auth refuses, but we get a reply).
        let out = r.resolve(
            client(),
            &"example.org".parse().unwrap(),
            QType::A,
            &auth(),
            SimTime(0),
        );
        assert!(out.message().is_some());
    }

    #[test]
    fn hijack_answers_with_other_address() {
        let hijack_addr = Ipv4Addr::new(185, 228, 168, 10);
        let mut r = Resolver::new(ResolverKind::Local, "192.0.2.53".parse().unwrap()).with_policy(
            ResolverPolicy::Hijack(hijack_addr),
            vec!["icloud.com".parse().unwrap()],
        );
        let out = r.resolve(client(), &mask_domain(), QType::A, &auth(), SimTime(0));
        let m = out.message().unwrap();
        assert_eq!(m.rcode, Rcode::NoError);
        assert_eq!(m.a_answers(), vec![hijack_addr]);
        // The hijack address differs from the authoritative's answer — the
        // signal the paper's survey uses to detect the hijack.
        assert_ne!(m.a_answers()[0], Ipv4Addr::new(17, 1, 1, 1));
    }

    #[test]
    fn blocks_applies_to_subdomains_only() {
        let r = Resolver::new(ResolverKind::Isp, "192.0.2.53".parse().unwrap()).with_policy(
            ResolverPolicy::BlockNxDomain,
            vec!["icloud.com".parse().unwrap()],
        );
        assert!(r.blocks(&mask_domain()));
        assert!(r.blocks(&mask_h2_domain()));
        assert!(!r.blocks(&"example.org".parse().unwrap()));
        let normal = Resolver::new(ResolverKind::Isp, "192.0.2.53".parse().unwrap());
        assert!(!normal.blocks(&mask_domain()));
    }

    #[test]
    fn dropped_upstream_surfaces_as_timeout() {
        use crate::server::RateLimit;
        let auth = AuthoritativeServer::new()
            .with_zone(Zone::new("icloud.com".parse().unwrap()))
            .with_rate_limit(RateLimit {
                burst: 1,
                per_second: 0.0001,
            });
        let mut r = Resolver::public(ResolverKind::Quad9);
        let first = r.resolve(client(), &mask_domain(), QType::A, &auth, SimTime(0));
        assert!(first.message().is_some());
        let second = r.resolve(client(), &mask_domain(), QType::A, &auth, SimTime(0));
        assert_eq!(second, ResolutionOutcome::Timeout);
    }

    #[test]
    fn ecs_is_stripped_from_stub_response() {
        let mut r = Resolver::public(ResolverKind::GooglePublic);
        let out = r.resolve(client(), &mask_domain(), QType::A, &auth(), SimTime(0));
        let m = out.message().unwrap();
        if let Some(opt) = &m.edns {
            assert!(opt.ecs().is_none());
        }
    }
}
