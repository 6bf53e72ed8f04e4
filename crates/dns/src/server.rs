//! The authoritative name server and its rate limiter.
//!
//! The paper's ECS scan takes ~40 hours because the `mask.icloud.com`
//! authoritative servers enforce a strict query rate limit (§4.1). The
//! simulated server reproduces that with a per-client token bucket: queries
//! beyond the budget are silently dropped, which a scanner observes as a
//! timeout and must back off from. Everything crosses the wire codec, so
//! both the scanner and the server handle real message bytes.

use std::collections::HashMap;
use std::net::IpAddr;

use bytes::BytesMut;
use parking_lot::Mutex;
use tectonic_net::{SimDuration, SimTime};

use crate::message::{Message, QClass, Rcode};
use crate::wire::{decode_message, MessageEncoder};
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
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl RateLimiter {
    /// Creates a limiter with the given config.
    pub fn new(config: RateLimit) -> Self {
        RateLimiter {
            config,
            buckets: Mutex::new(HashMap::new()),
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

    /// Time until the next token for `src` would be available.
    pub fn retry_after(&self) -> SimDuration {
        SimDuration::from_millis((1000.0 / self.config.per_second).ceil() as u64)
    }
}

/// An authoritative server hosting one or more zones.
pub struct AuthoritativeServer {
    zones: Vec<Zone>,
    rate_limiter: Option<RateLimiter>,
    /// Shared reusable reply encoder. Under contention (parallel scan
    /// workers) callers fall back to a fresh encoder rather than serialise
    /// on the lock.
    encoder: Mutex<MessageEncoder>,
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
            encoder: Mutex::new(MessageEncoder::new()),
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
    fn zone_for(&self, name: &crate::name::DomainName) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| z.contains_name(name))
            .max_by_key(|z| z.apex().label_count())
    }

    /// Typed-message handler (wire handling wraps this).
    pub fn handle_message(&self, query: &Message, ctx: &QueryContext) -> Message {
        let Some(question) = query.question() else {
            return query.response_to(Rcode::FormErr);
        };
        if question.qclass != QClass::IN {
            return query.response_to(Rcode::NotImp);
        }
        let Some(zone) = self.zone_for(&question.name) else {
            return query.response_to(Rcode::Refused);
        };
        let ecs = query.edns.as_ref().and_then(|o| o.ecs());
        let info = QueryInfo {
            src: ctx.src,
            now: ctx.now,
        };
        let mut response = query.response_to(Rcode::NoError);
        response.flags.aa = true;
        match zone.resolve(question, ecs, &info) {
            ZoneAnswer::Answer { records, scope_len } => {
                response.answers = records;
                if let (Some(opt), Some(query_ecs)) = (response.edns.as_mut(), ecs) {
                    let mut echoed = query_ecs.clone();
                    if let Some(scope) = scope_len {
                        echoed.scope_len = scope;
                    }
                    opt.set_ecs(echoed);
                }
            }
            ZoneAnswer::NoData => {}
            ZoneAnswer::NxDomain => {
                response.rcode = Rcode::NxDomain;
            }
        }
        response
    }
}

impl Default for AuthoritativeServer {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthoritativeServer {
    /// The typed reply for one wire query, or `None` on a rate-limit drop.
    fn reply_message(&self, wire: &[u8], ctx: &QueryContext) -> Option<Message> {
        if let Some(limiter) = &self.rate_limiter {
            if !limiter.allow(ctx.src, ctx.now) {
                return None;
            }
        }
        let query = match decode_message(wire) {
            Ok(q) => q,
            Err(_) => {
                // Cannot mirror an ID we failed to parse; best effort.
                let mut resp =
                    Message::query(0, crate::name::DomainName::root(), crate::message::QType::A)
                        .response_to(Rcode::FormErr);
                resp.questions.clear();
                return Some(resp);
            }
        };
        Some(self.handle_message(&query, ctx))
    }
}

impl NameServer for AuthoritativeServer {
    fn handle_query_into(
        &self,
        wire: &[u8],
        ctx: &QueryContext,
        out: &mut BytesMut,
    ) -> ReplyOutcome {
        let Some(response) = self.reply_message(wire, ctx) else {
            return ReplyOutcome::Dropped;
        };
        match self.encoder.try_lock() {
            Some(mut encoder) => encoder.encode_into(&response, out),
            None => MessageEncoder::new().encode_into(&response, out),
        }
        ReplyOutcome::Written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edns::EcsOption;
    use crate::message::{QType, RData, Record};
    use crate::name::{mask_domain, DomainName};
    use crate::wire::encode_message;
    use crate::zone::Zone;
    use std::net::Ipv4Addr;

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

    #[test]
    fn retry_after_reflects_rate() {
        let limiter = RateLimiter::new(RateLimit {
            burst: 1,
            per_second: 80.0,
        });
        assert_eq!(limiter.retry_after(), SimDuration::from_millis(13));
    }
}
