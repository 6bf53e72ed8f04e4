//! The resolver-identity service (`whoami.akamai.net`).
//!
//! The paper identifies which resolvers Atlas probes actually use by
//! resolving a name whose authoritative server answers with the *querying
//! resolver's* address. [`WhoamiZone`] implements that behaviour as a
//! dynamic zone hook: an `A` query is answered with the source address the
//! server saw, and a `TXT` query spells it out.

use std::net::IpAddr;
use std::sync::Arc;

use tectonic_dns::name::whoami_domain;
use tectonic_dns::server::AuthoritativeServer;
use tectonic_dns::zone::{AnswerSink, EcsAnswerer, QueryInfo};
use tectonic_dns::{DomainName, QType, QuestionRef, RData, Zone};

/// The dynamic answerer echoing the query source.
#[derive(Debug)]
pub struct WhoamiZone {
    /// The name answered, built once: a query's name compares with it
    /// ASCII-case-insensitively, without lower-casing.
    name: DomainName,
}

impl Default for WhoamiZone {
    fn default() -> Self {
        WhoamiZone {
            name: whoami_domain(),
        }
    }
}

impl EcsAnswerer for WhoamiZone {
    fn answer(
        &self,
        question: &QuestionRef<'_>,
        _ecs: Option<&tectonic_dns::EcsOption>,
        info: &QueryInfo,
        answers: &mut dyn AnswerSink,
    ) -> Option<u8> {
        if question.name != self.name {
            return None;
        }
        // Identity answers must not be cached: TTL 0.
        match (question.qtype, info.src) {
            (QType::A, IpAddr::V4(a)) => answers.push(0, &RData::A(a)),
            (QType::AAAA, IpAddr::V6(a)) => answers.push(0, &RData::Aaaa(a)),
            (QType::TXT, src) => answers.push(0, &RData::Txt(format!("resolver={src}"))),
            _ => {}
        }
        Some(0)
    }
}

/// Builds an authoritative server hosting only the whoami zone.
pub fn whoami_server() -> AuthoritativeServer {
    let zone =
        Zone::new(DomainName::literal("akamai.net")).with_dynamic(Arc::new(WhoamiZone::default()));
    AuthoritativeServer::new().with_zone(zone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tectonic_dns::server::{NameServer, QueryContext, ServerReply};
    use tectonic_dns::{decode_message, encode_message, Message};
    use tectonic_net::SimTime;

    fn ask(qtype: QType, src: &str) -> Message {
        let auth = whoami_server();
        let q = Message::query(1, "whoami.akamai.net".parse().unwrap(), qtype);
        let ctx = QueryContext {
            src: src.parse().unwrap(),
            now: SimTime(0),
        };
        match auth.handle_query(&encode_message(&q), &ctx) {
            ServerReply::Response(bytes) => decode_message(&bytes).unwrap(),
            ServerReply::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn a_query_echoes_source() {
        let r = ask(QType::A, "8.8.8.8");
        assert_eq!(r.a_answers(), vec![Ipv4Addr::new(8, 8, 8, 8)]);
        assert_eq!(r.answers[0].ttl, 0);
    }

    #[test]
    fn aaaa_from_v6_source() {
        let r = ask(QType::AAAA, "2001:4860:4860::8888");
        assert_eq!(r.aaaa_answers().len(), 1);
    }

    #[test]
    fn txt_spells_out_source() {
        let r = ask(QType::TXT, "9.9.9.9");
        match &r.answers[0].rdata {
            RData::Txt(s) => assert_eq!(s, "resolver=9.9.9.9"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn family_mismatch_yields_no_data() {
        let r = ask(QType::AAAA, "9.9.9.9");
        assert!(r.is_noerror_nodata());
    }

    #[test]
    fn other_names_in_zone_nxdomain() {
        let auth = whoami_server();
        let q = Message::query(1, "other.akamai.net".parse().unwrap(), QType::A);
        let ctx = QueryContext {
            src: "1.2.3.4".parse().unwrap(),
            now: SimTime(0),
        };
        match auth.handle_query(&encode_message(&q), &ctx) {
            ServerReply::Response(bytes) => {
                let r = decode_message(&bytes).unwrap();
                assert_eq!(r.rcode, tectonic_dns::Rcode::NxDomain);
            }
            ServerReply::Dropped => panic!("dropped"),
        }
    }
}
