//! The authoritative name server and its rate limiter.
//!
//! The paper's ECS scan takes ~40 hours because the `mask.icloud.com`
//! authoritative servers enforce a strict query rate limit (§4.1). The
//! simulated server reproduces that with a per-client token bucket: queries
//! beyond the budget are silently dropped, which a scanner observes as a
//! timeout and must back off from. Everything crosses the wire codec, so
//! both the scanner and the server handle real message bytes: the server
//! reads each query through the borrowed [`ReplyView`] and streams its
//! reply into the caller's buffer.

use std::collections::HashMap;
use std::net::IpAddr;

use bytes::BytesMut;
use tectonic_net::SimTime;

use crate::edns::EcsOption;
use crate::message::{QClass, Rcode};
use crate::wire::{MessageEncoder, NameRef, ReplyView, ReplyWriter};
use crate::zone::{QueryInfo, Zone, ZoneAnswer};

/// Per-query context a server sees.
#[derive(Clone, Copy, Debug)]
pub struct QueryContext {
    /// Source address of the query (resolver or scanner).
    pub src: IpAddr,
    /// Simulated time the query arrives.
    pub now: SimTime,
}

/// What the client observes for one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerReply {
    /// A wire-encoded response.
    Response(Vec<u8>),
    /// The query was dropped (rate limit); the client sees a timeout.
    Dropped,
}

/// Outcome of [`NameServer::handle_query_into`] — like [`ServerReply`] but
/// with the response bytes living in the caller's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// A response was written into the caller's buffer.
    Written,
    /// The query was dropped (rate limit); the client sees a timeout.
    Dropped,
}

/// Anything that answers DNS queries at the wire level.
pub trait NameServer: Send + Sync {
    /// Handles one wire-format query from `ctx.src` at `ctx.now`, writing
    /// the response into `out` (cleared first) so a caller polling in a
    /// loop can reuse one buffer.
    fn handle_query_into(
        &self,
        wire: &[u8],
        ctx: &QueryContext,
        out: &mut BytesMut,
    ) -> ReplyOutcome;

    /// Like [`handle_query_into`], but returns the response as an owned
    /// [`ServerReply`].
    ///
    /// [`handle_query_into`]: NameServer::handle_query_into
    fn handle_query(&self, wire: &[u8], ctx: &QueryContext) -> ServerReply {
        let mut out = BytesMut::with_capacity(512);
        match self.handle_query_into(wire, ctx, &mut out) {
            ReplyOutcome::Written => ServerReply::Response(out.into_vec()),
            ReplyOutcome::Dropped => ServerReply::Dropped,
        }
    }
}

/// Token-bucket rate limit configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateLimit {
    /// Maximum burst (bucket capacity), in queries.
    pub burst: u32,
    /// Sustained rate, queries per second.
    pub per_second: f64,
}

impl RateLimit {
    /// The limit used for the simulated `mask.icloud.com` servers.
    ///
    /// Chosen so a full routed-space /24 scan (~11 M queries before scope
    /// optimisations) takes tens of hours at the allowed pace, matching the
    /// paper's reported ~40 h scan duration.
    pub fn route53_like() -> RateLimit {
        RateLimit {
            burst: 100,
            per_second: 80.0,
        }
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: SimTime,
}

/// Per-source token buckets.
#[derive(Debug)]
pub struct RateLimiter {
    config: RateLimit,
    #[expect(
        clippy::disallowed_types,
        reason = "a leaf lock: nothing that takes another lock runs while the guard is held. It stays while \
                  `AuthoritativeServer` answers through `NameServer::handle_query_into(&self, ..)` \
                  and the benchmark harness hands the engine `&(dyn NameServer + Sync)`"
    )]
    buckets: parking_lot::Mutex<HashMap<IpAddr, Bucket>>,
}

impl RateLimiter {
    /// Creates a limiter with the given config.
    #[expect(clippy::disallowed_types, reason = "builds the leaf lock of `buckets`")]
    pub fn new(config: RateLimit) -> Self {
        RateLimiter {
            config,
            buckets: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// Attempts to spend one token for `src` at time `now`.
    pub fn allow(&self, src: IpAddr, now: SimTime) -> bool {
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(src).or_insert(Bucket {
            tokens: self.config.burst as f64,
            last: now,
        });
        let elapsed = now.since(bucket.last);
        bucket.last = now;
        bucket.tokens = (bucket.tokens
            + elapsed.as_millis() as f64 / 1000.0 * self.config.per_second)
            .min(self.config.burst as f64);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// An authoritative server hosting one or more zones.
pub struct AuthoritativeServer {
    zones: Vec<Zone>,
    rate_limiter: Option<RateLimiter>,
}

impl std::fmt::Debug for AuthoritativeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthoritativeServer")
            .field("zones", &self.zones.len())
            .field("rate_limited", &self.rate_limiter.is_some())
            .finish()
    }
}

impl AuthoritativeServer {
    /// A server with no zones and no rate limit.
    pub fn new() -> Self {
        AuthoritativeServer {
            zones: Vec::new(),
            rate_limiter: None,
        }
    }

    /// Adds a zone.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.push(zone);
    }

    /// Enables rate limiting.
    pub fn with_rate_limit(mut self, config: RateLimit) -> Self {
        self.rate_limiter = Some(RateLimiter::new(config));
        self
    }

    /// Builder-style zone addition.
    pub fn with_zone(mut self, zone: Zone) -> Self {
        self.add_zone(zone);
        self
    }

    /// The most specific zone containing `name`.
    fn zone_for(&self, name: &NameRef<'_>) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| z.contains_name(name))
            .max_by_key(|z| z.apex().label_count())
    }

    /// Writes the reply to `query` into `out`: the one reply writer for
    /// every outcome, streamed from the borrowed query and the zone's
    /// answer.
    fn write_reply(&self, query: &ReplyView<'_>, ctx: &QueryContext, out: &mut BytesMut) {
        let mut encoder = MessageEncoder::new();
        let mut reply = ReplyWriter::start(&mut encoder, out, Some(query));
        let Some(question) = query.question() else {
            return reply.finish(Rcode::FormErr, false, None);
        };
        if question.qclass != QClass::IN {
            return reply.finish(Rcode::NotImp, false, None);
        }
        let Some(zone) = self.zone_for(&question.name) else {
            return reply.finish(Rcode::Refused, false, None);
        };
        let ecs = query.ecs();
        let info = QueryInfo {
            src: ctx.src,
            now: ctx.now,
        };
        match zone.resolve(&question, ecs, &info, &mut reply) {
            ZoneAnswer::Dynamic { scope_len } => {
                let echo = ecs.map(|e| EcsOption {
                    scope_len,
                    ..e.clone()
                });
                reply.finish(Rcode::NoError, true, echo.as_ref());
            }
            ZoneAnswer::Answer(records) => {
                for r in &records {
                    reply.push_record(r);
                }
                reply.finish(Rcode::NoError, true, ecs);
            }
            ZoneAnswer::NoData => reply.finish(Rcode::NoError, true, None),
            ZoneAnswer::NxDomain => reply.finish(Rcode::NxDomain, true, None),
        }
    }
}

impl Default for AuthoritativeServer {
    fn default() -> Self {
        Self::new()
    }
}

impl NameServer for AuthoritativeServer {
    fn handle_query_into(
        &self,
        wire: &[u8],
        ctx: &QueryContext,
        out: &mut BytesMut,
    ) -> ReplyOutcome {
        if let Some(limiter) = &self.rate_limiter {
            if !limiter.allow(ctx.src, ctx.now) {
                return ReplyOutcome::Dropped;
            }
        }
        match ReplyView::parse(wire) {
            Ok(query) => self.write_reply(&query, ctx, out),
            // Cannot mirror an ID we failed to parse; best effort.
            Err(_) => ReplyWriter::start(&mut MessageEncoder::new(), out, None).finish(
                Rcode::FormErr,
                false,
                None,
            ),
        }
        ReplyOutcome::Written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, QType, RData, Record};
    use crate::name::{mask_domain, DomainName};
    use crate::wire::{decode_message, encode_message, QuestionRef};
    use crate::zone::{AnswerSink, EcsAnswerer, Zone};
    use crate::Question;
    use std::net::{Ipv4Addr, Ipv6Addr};
    use std::sync::Arc;
    use tectonic_net::SimRng;

    /// The typed handler the reply writer replaced, kept as its oracle:
    /// the reply to a decoded query, built as a [`Message`].
    fn handle_message(
        server: &AuthoritativeServer,
        query: &Message,
        ctx: &QueryContext,
    ) -> Message {
        let Some(question) = query.question() else {
            return query.response_to(Rcode::FormErr);
        };
        if question.qclass != QClass::IN {
            return query.response_to(Rcode::NotImp);
        }
        let Some(zone) = server.zone_for(&(&question.name).into()) else {
            return query.response_to(Rcode::Refused);
        };
        let ecs = query.edns.as_ref().and_then(|o| o.ecs());
        let info = QueryInfo {
            src: ctx.src,
            now: ctx.now,
        };
        let mut response = query.response_to(Rcode::NoError);
        response.flags.aa = true;
        let mut pushed: Vec<(u32, RData)> = Vec::new();
        let (records, scope_len) = match zone.resolve(&question.into(), ecs, &info, &mut pushed) {
            ZoneAnswer::Dynamic { scope_len } => {
                let records = pushed
                    .into_iter()
                    .map(|(ttl, rd)| Record::new(question.name.clone(), ttl, rd))
                    .collect();
                (records, Some(scope_len))
            }
            ZoneAnswer::Answer(records) => (records, None),
            ZoneAnswer::NoData => return response,
            ZoneAnswer::NxDomain => {
                response.rcode = Rcode::NxDomain;
                return response;
            }
        };
        response.answers = records;
        if let (Some(opt), Some(query_ecs)) = (response.edns.as_mut(), ecs) {
            let mut echoed = query_ecs.clone();
            if let Some(scope) = scope_len {
                echoed.scope_len = scope;
            }
            opt.set_ecs(echoed);
        }
        response
    }

    /// The oracle's reply to wire bytes, `None` on a rate-limit drop.
    fn reference_reply(
        server: &AuthoritativeServer,
        wire: &[u8],
        ctx: &QueryContext,
    ) -> Option<Message> {
        if let Some(limiter) = &server.rate_limiter {
            if !limiter.allow(ctx.src, ctx.now) {
                return None;
            }
        }
        let Ok(query) = decode_message(wire) else {
            let mut resp =
                Message::query(0, DomainName::root(), QType::A).response_to(Rcode::FormErr);
            resp.questions.clear();
            return Some(resp);
        };
        Some(handle_message(server, &query, ctx))
    }

    fn ctx(now_ms: u64) -> QueryContext {
        QueryContext {
            src: "198.51.100.77".parse().unwrap(),
            now: SimTime(now_ms),
        }
    }

    fn server() -> AuthoritativeServer {
        let mut zone = Zone::new("icloud.com".parse().unwrap());
        zone.add_record(Record::new(
            mask_domain(),
            60,
            RData::A(Ipv4Addr::new(17, 7, 8, 9)),
        ));
        AuthoritativeServer::new().with_zone(zone)
    }

    fn ask(server: &AuthoritativeServer, q: &Message, ctx: &QueryContext) -> Message {
        match server.handle_query(&encode_message(q), ctx) {
            ServerReply::Response(bytes) => decode_message(&bytes).unwrap(),
            ServerReply::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn answers_in_zone_queries() {
        let s = server();
        let q = Message::query(0xAB, mask_domain(), QType::A);
        let r = ask(&s, &q, &ctx(0));
        assert_eq!(r.id, 0xAB);
        assert!(r.flags.qr && r.flags.aa);
        assert_eq!(r.a_answers(), vec![Ipv4Addr::new(17, 7, 8, 9)]);
    }

    #[test]
    fn refuses_out_of_zone() {
        let s = server();
        let q = Message::query(1, "example.org".parse().unwrap(), QType::A);
        assert_eq!(ask(&s, &q, &ctx(0)).rcode, Rcode::Refused);
    }

    #[test]
    fn nxdomain_inside_zone() {
        let s = server();
        let q = Message::query(1, "nope.icloud.com".parse().unwrap(), QType::A);
        assert_eq!(ask(&s, &q, &ctx(0)).rcode, Rcode::NxDomain);
    }

    #[test]
    fn nodata_keeps_noerror() {
        let s = server();
        let q = Message::query(1, mask_domain(), QType::TXT);
        let r = ask(&s, &q, &ctx(0));
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert!(r.is_noerror_nodata());
    }

    #[test]
    fn echoes_ecs_with_scope() {
        let s = server();
        let mut q = Message::query(2, mask_domain(), QType::A);
        q.edns
            .as_mut()
            .unwrap()
            .set_ecs(EcsOption::for_v4_net("100.64.3.0/24".parse().unwrap()));
        let r = ask(&s, &q, &ctx(0));
        // Static zone answer: ECS echoed with scope untouched (0).
        let ecs = r.edns.unwrap();
        let e = ecs.ecs().unwrap();
        assert_eq!(e.source_len, 24);
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut parent = Zone::new("icloud.com".parse().unwrap());
        parent.add_record(Record::new(
            mask_domain(),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        ));
        let mut child = Zone::new("mask.icloud.com".parse().unwrap());
        child.add_record(Record::new(
            mask_domain(),
            60,
            RData::A(Ipv4Addr::new(2, 2, 2, 2)),
        ));
        let s = AuthoritativeServer::new()
            .with_zone(parent)
            .with_zone(child);
        let q = Message::query(1, mask_domain(), QType::A);
        assert_eq!(
            ask(&s, &q, &ctx(0)).a_answers(),
            vec![Ipv4Addr::new(2, 2, 2, 2)]
        );
    }

    #[test]
    fn rate_limiter_drops_excess_and_refills() {
        let config = RateLimit {
            burst: 3,
            per_second: 1.0,
        };
        let limiter = RateLimiter::new(config);
        let src: IpAddr = "203.0.113.1".parse().unwrap();
        let t0 = SimTime(0);
        assert!(limiter.allow(src, t0));
        assert!(limiter.allow(src, t0));
        assert!(limiter.allow(src, t0));
        assert!(!limiter.allow(src, t0));
        // One second later one token is back.
        let t1 = SimTime(1000);
        assert!(limiter.allow(src, t1));
        assert!(!limiter.allow(src, t1));
        // Another source has its own bucket.
        let other: IpAddr = "203.0.113.2".parse().unwrap();
        assert!(limiter.allow(other, t1));
    }

    #[test]
    fn rate_limited_server_drops() {
        let s = AuthoritativeServer::new()
            .with_zone(Zone::new("icloud.com".parse().unwrap()))
            .with_rate_limit(RateLimit {
                burst: 1,
                per_second: 0.001,
            });
        let q = Message::query(1, mask_domain(), QType::A);
        let wire = encode_message(&q);
        let c = ctx(0);
        assert!(matches!(
            s.handle_query(&wire, &c),
            ServerReply::Response(_)
        ));
        assert_eq!(s.handle_query(&wire, &c), ServerReply::Dropped);
    }

    #[test]
    fn garbage_wire_gets_formerr() {
        let s = server();
        match s.handle_query(&[0xFF, 0x00, 0x01], &ctx(0)) {
            ServerReply::Response(bytes) => {
                let r = decode_message(&bytes).unwrap();
                assert_eq!(r.rcode, Rcode::FormErr);
            }
            ServerReply::Dropped => panic!("should answer FORMERR"),
        }
    }

    #[test]
    fn non_in_class_not_implemented() {
        let s = server();
        let mut q = Message::query(1, mask_domain(), QType::A);
        q.questions[0].qclass = QClass::Other(3); // CHAOS
        assert_eq!(ask(&s, &q, &ctx(0)).rcode, Rcode::NotImp);
    }

    #[test]
    fn empty_question_is_formerr() {
        let s = server();
        let mut q = Message::query(1, DomainName::root(), QType::A);
        q.questions.clear();
        assert_eq!(ask(&s, &q, &ctx(0)).rcode, Rcode::FormErr);
    }

    /// A dynamic answerer shaped like the deployment's: 0–8 A records at
    /// ECS scopes 0–24 and a TTL keyed on the client subnet, AAAA at scope
    /// 0, an empty answer for other types, and nothing for other names.
    struct ShapedAnswerer;

    impl EcsAnswerer for ShapedAnswerer {
        fn answer(
            &self,
            question: &QuestionRef<'_>,
            ecs: Option<&EcsOption>,
            info: &QueryInfo,
            answers: &mut dyn AnswerSink,
        ) -> Option<u8> {
            if question.name != mask_domain() {
                return None;
            }
            let key = match ecs.map(|e| e.addr).unwrap_or(info.src) {
                IpAddr::V4(a) => u64::from(u32::from(a) >> 8),
                IpAddr::V6(a) => (u128::from(a) >> 64) as u64,
            };
            let h = SimRng::new(key).next_u64_raw();
            let ttl = (h >> 32) as u32 % 3600;
            match question.qtype {
                QType::A => {
                    for i in 0..(h % 9) as u8 {
                        answers.push(ttl, &RData::A(Ipv4Addr::new(17, (h >> 8) as u8, i, 1)));
                    }
                    Some(((h >> 16) % 25) as u8)
                }
                QType::AAAA => {
                    for i in 0..(h % 3) as u16 {
                        let a = Ipv6Addr::new(0x2620, 0x149, i, 0, 0, 0, 0, 1);
                        answers.push(ttl, &RData::Aaaa(a));
                    }
                    Some(0)
                }
                _ => Some(0),
            }
        }
    }

    /// Zones in the deployment's shapes: the dynamic `mask` zone over
    /// static records, a CNAME chase, and a second static zone.
    fn shaped_server() -> AuthoritativeServer {
        let mut icloud = Zone::new("icloud.com".parse().unwrap());
        icloud.add_address(
            "www.icloud.com".parse().unwrap(),
            300,
            "17.253.1.1".parse().unwrap(),
        );
        icloud.add_address(
            "www.icloud.com".parse().unwrap(),
            300,
            "2620:149::1".parse().unwrap(),
        );
        icloud.add_record(Record::new(
            "alias.icloud.com".parse().unwrap(),
            300,
            RData::Cname("www.icloud.com".parse().unwrap()),
        ));
        icloud.add_record(Record::new(
            "icloud.com".parse().unwrap(),
            900,
            RData::Soa {
                mname: "ns1.icloud.com".parse().unwrap(),
                rname: "hostmaster.apple.com".parse().unwrap(),
                serial: 20_220_401,
            },
        ));
        icloud.add_record(Record::new(
            "txt.icloud.com".parse().unwrap(),
            60,
            RData::Txt("v=spf1 -all".into()),
        ));
        let mut apple = Zone::new("apple.com".parse().unwrap());
        apple.add_address(
            "www.apple.com".parse().unwrap(),
            60,
            "17.172.224.47".parse().unwrap(),
        );
        AuthoritativeServer::new()
            .with_zone(icloud.with_dynamic(Arc::new(ShapedAnswerer)))
            .with_zone(apple)
    }

    /// `name` with each ASCII letter's case flipped at random.
    fn mixed_case(rng: &mut SimRng, name: &str) -> DomainName {
        let spelled: String = name
            .chars()
            .map(|c| {
                if rng.chance(0.5) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        spelled.parse().unwrap()
    }

    /// One query of every outcome's shape: FORMERR (garbage bytes, an empty
    /// question), NOTIMP, REFUSED, NXDOMAIN, NODATA, static, CNAME and
    /// dynamic answers, in mixed case, with and without EDNS and ECS.
    fn shaped_query(rng: &mut SimRng) -> Vec<u8> {
        const NAMES: [&str; 9] = [
            "mask.icloud.com",
            "mask.icloud.com",
            "www.icloud.com",
            "alias.icloud.com",
            "txt.icloud.com",
            "icloud.com",
            "nope.icloud.com",
            "www.apple.com",
            "example.org",
        ];
        const TYPES: [QType; 7] = [
            QType::A,
            QType::A,
            QType::AAAA,
            QType::TXT,
            QType::CNAME,
            QType::SOA,
            QType::Other(15),
        ];
        let name = *rng.pick(&NAMES).unwrap();
        let name = mixed_case(rng, name);
        let qtype = *rng.pick(&TYPES).unwrap();
        let mut q = Message::query(rng.next_u64_raw() as u16, name, qtype);
        q.flags.rd = rng.chance(0.5);
        match rng.below(4) {
            0 => q.edns = None,
            1 => {}
            2 => {
                let subnet = Ipv4Addr::from(rng.next_u64_raw() as u32);
                q.ensure_edns()
                    .set_ecs(EcsOption::for_v4_net(tectonic_net::Ipv4Net::slash24_of(
                        subnet,
                    )));
            }
            _ => {
                let subnet = Ipv6Addr::from(u128::from(rng.next_u64_raw()) << 64);
                q.ensure_edns().set_ecs(EcsOption::for_v6_net(
                    tectonic_net::Ipv6Net::new(subnet, 56).unwrap(),
                ));
            }
        }
        match rng.below(16) {
            0 => q.questions.clear(),
            1 => q.questions[0].qclass = QClass::Other(3),
            2 => q.questions.push(Question::new(mask_domain(), QType::A)),
            _ => {}
        }
        let mut wire = encode_message(&q);
        match rng.below(16) {
            0 => wire.truncate(rng.index(wire.len())),
            1 => {
                wire = (0..rng.below(24))
                    .map(|_| rng.next_u64_raw() as u8)
                    .collect()
            }
            _ => {}
        }
        wire
    }

    /// The writer's bytes are `encode_message` of the typed oracle's reply,
    /// for every outcome, and a rate-limited server drops the same queries.
    #[test]
    fn reply_writer_matches_typed_handler() {
        let limit = RateLimit {
            burst: 4,
            per_second: 2.0,
        };
        for limited in [false, true] {
            let (writer, oracle) = if limited {
                (
                    shaped_server().with_rate_limit(limit),
                    shaped_server().with_rate_limit(limit),
                )
            } else {
                (shaped_server(), shaped_server())
            };
            let mut rng = SimRng::new(0x5EED);
            let mut out = BytesMut::new();
            let (mut drops, mut outcomes) = (0, std::collections::BTreeSet::new());
            for i in 0..4000u64 {
                let wire = shaped_query(&mut rng);
                let src = if rng.chance(0.5) {
                    IpAddr::V4(Ipv4Addr::new(198, 51, 100, rng.below(4) as u8))
                } else {
                    "2001:db8::53".parse().unwrap()
                };
                let ctx = QueryContext {
                    src,
                    now: SimTime(i * 100),
                };
                let want = reference_reply(&oracle, &wire, &ctx);
                match writer.handle_query_into(&wire, &ctx, &mut out) {
                    ReplyOutcome::Written => {
                        let want = want.expect("the oracle dropped a written query");
                        assert_eq!(&out[..], &encode_message(&want)[..], "query {i}: {wire:?}");
                        outcomes.insert((
                            want.rcode,
                            want.answers.len().min(1),
                            want.edns.as_ref().and_then(|o| o.ecs()).is_some(),
                        ));
                    }
                    ReplyOutcome::Dropped => {
                        assert!(
                            want.is_none(),
                            "query {i}: the oracle answered a dropped query"
                        );
                        drops += 1;
                    }
                }
            }
            assert_eq!(drops > 0, limited);
            // Every outcome occurred: FORMERR, NOTIMP, REFUSED, NXDOMAIN,
            // NODATA and answers, with and without an ECS echo.
            for rcode in [
                Rcode::FormErr,
                Rcode::NotImp,
                Rcode::Refused,
                Rcode::NxDomain,
            ] {
                assert!(outcomes.iter().any(|o| o.0 == rcode), "no {rcode}");
            }
            for answered in [0, 1] {
                for echoed in [false, true] {
                    assert!(
                        outcomes.contains(&(Rcode::NoError, answered, echoed)),
                        "no NOERROR with {answered} answers, echo {echoed}"
                    );
                }
            }
        }
    }
}
