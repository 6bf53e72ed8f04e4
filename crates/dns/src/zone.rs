//! Zone data and dynamic, ECS-aware answer hooks.
//!
//! A [`Zone`] holds ordinary static records plus an optional
//! [`EcsAnswerer`] — the hook through which `tectonic-relay` plugs the
//! simulated Route 53 behaviour for `mask.icloud.com`: answers that depend
//! on the client subnet carried in the ECS option (or, absent ECS, on the
//! resolver's source address).

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use tectonic_net::SimTime;

use crate::edns::EcsOption;
use crate::message::{QType, Question, RData, Record};
use crate::name::DomainName;

/// Context available to answer logic: who asked, and when.
#[derive(Clone, Copy, Debug)]
pub struct QueryInfo {
    /// Source address of the query as seen by the server (the resolver's
    /// address, not the end client's).
    pub src: IpAddr,
    /// Simulated time of the query.
    pub now: SimTime,
}

/// A dynamic answer produced by an [`EcsAnswerer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcsAnswer {
    /// Record data for the answer section (all for the queried name).
    pub rdatas: Vec<RData>,
    /// TTL for the answer records.
    pub ttl: u32,
    /// ECS scope to return. For IPv4 the simulated service answers with the
    /// query's source length (/24); for IPv6 it answers scope 0 — the exact
    /// behaviour that blocks ECS enumeration over IPv6 in the paper.
    pub scope_len: u8,
}

/// Dynamic answer logic attached to a zone.
///
/// Returning `None` falls through to the zone's static records; returning
/// an empty `rdatas` produces a NOERROR/no-data response (which still
/// echoes the ECS option with the answer's scope).
pub trait EcsAnswerer: Send + Sync {
    /// Answers `question`, optionally considering the ECS option and the
    /// query context.
    fn answer(
        &self,
        question: &Question,
        ecs: Option<&EcsOption>,
        info: &QueryInfo,
    ) -> Option<EcsAnswer>;
}

/// A DNS zone: an apex name, static records, and an optional dynamic hook.
pub struct Zone {
    apex: DomainName,
    records: HashMap<(DomainName, u16), Vec<Record>>,
    dynamic: Option<Arc<dyn EcsAnswerer>>,
}

impl std::fmt::Debug for Zone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Zone")
            .field("apex", &self.apex)
            .field("records", &self.records.len())
            .field("dynamic", &self.dynamic.is_some())
            .finish()
    }
}

impl Zone {
    /// An empty zone rooted at `apex`.
    pub fn new(apex: DomainName) -> Self {
        Zone {
            apex,
            records: HashMap::new(),
            dynamic: None,
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &DomainName {
        &self.apex
    }

    /// Installs the dynamic answer hook.
    pub fn with_dynamic(mut self, answerer: Arc<dyn EcsAnswerer>) -> Self {
        self.dynamic = Some(answerer);
        self
    }

    /// Adds a static record. The owner name must be within the zone.
    pub fn add_record(&mut self, record: Record) {
        debug_assert!(
            record.name.is_within(&self.apex),
            "record {} outside zone {}",
            record.name,
            self.apex
        );
        let key = (record.name.clone(), record.rdata.rtype().number());
        self.records.entry(key).or_default().push(record);
    }

    /// Convenience: add an A/AAAA record for `name`.
    pub fn add_address(&mut self, name: DomainName, ttl: u32, addr: IpAddr) {
        let rdata = match addr {
            IpAddr::V4(a) => RData::A(a),
            IpAddr::V6(a) => RData::Aaaa(a),
        };
        self.add_record(Record::new(name, ttl, rdata));
    }

    /// Whether `name` falls inside this zone.
    pub fn contains_name(&self, name: &DomainName) -> bool {
        name.is_within(&self.apex)
    }

    /// Whether any record (of any type) exists at `name`.
    pub fn name_exists(&self, name: &DomainName) -> bool {
        self.records.keys().any(|(n, _)| n == name)
    }

    /// Static records at `name` of `qtype`.
    pub fn lookup_static(&self, name: &DomainName, qtype: QType) -> Vec<Record> {
        self.records
            .get(&(name.clone(), qtype.number()))
            .cloned()
            .unwrap_or_default()
    }

    /// Resolves a question inside this zone.
    ///
    /// Order: dynamic hook first (if installed), then static records with a
    /// one-step CNAME chase, then the NXDOMAIN / no-data distinction.
    pub fn resolve(
        &self,
        question: &Question,
        ecs: Option<&EcsOption>,
        info: &QueryInfo,
    ) -> ZoneAnswer {
        if let Some(dynamic) = &self.dynamic {
            if let Some(ans) = dynamic.answer(question, ecs, info) {
                return ZoneAnswer::Dynamic(ans);
            }
        }
        let direct = self.lookup_static(&question.name, question.qtype);
        if !direct.is_empty() {
            return ZoneAnswer::Answer(direct);
        }
        // CNAME chase (single step is enough for the simulated zones).
        let cnames = self.lookup_static(&question.name, QType::CNAME);
        if let Some(cname_rec) = cnames.first() {
            if let RData::Cname(target) = &cname_rec.rdata {
                let mut records = vec![cname_rec.clone()];
                records.extend(self.lookup_static(target, question.qtype));
                return ZoneAnswer::Answer(records);
            }
        }
        if self.name_exists(&question.name) {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::NxDomain
        }
    }
}

/// Result of resolving a question inside a zone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// The dynamic hook's answer: one record per rdata, each owned by the
    /// question name, and the ECS scope to report.
    Dynamic(EcsAnswer),
    /// Static answer-section records (possibly via CNAME).
    Answer(Vec<Record>),
    /// Name exists but has no records of the queried type.
    NoData,
    /// Name does not exist in the zone.
    NxDomain,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::QClass;
    use std::net::Ipv4Addr;

    fn info() -> QueryInfo {
        QueryInfo {
            src: "192.0.2.53".parse().unwrap(),
            now: SimTime::EPOCH,
        }
    }

    fn q(name: &str, qtype: QType) -> Question {
        Question {
            name: name.parse().unwrap(),
            qtype,
            qclass: QClass::IN,
        }
    }

    fn test_zone() -> Zone {
        let mut z = Zone::new("icloud.com".parse().unwrap());
        z.add_address(
            "www.icloud.com".parse().unwrap(),
            300,
            "17.253.1.1".parse().unwrap(),
        );
        z.add_address(
            "www.icloud.com".parse().unwrap(),
            300,
            "2620:149::1".parse().unwrap(),
        );
        z.add_record(Record::new(
            "alias.icloud.com".parse().unwrap(),
            300,
            RData::Cname("www.icloud.com".parse().unwrap()),
        ));
        z
    }

    #[test]
    fn static_lookup_by_type() {
        let z = test_zone();
        match z.resolve(&q("www.icloud.com", QType::A), None, &info()) {
            ZoneAnswer::Answer(records) => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].rdata.as_a(), Some(Ipv4Addr::new(17, 253, 1, 1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_vs_nodata() {
        let z = test_zone();
        assert_eq!(
            z.resolve(&q("missing.icloud.com", QType::A), None, &info()),
            ZoneAnswer::NxDomain
        );
        assert_eq!(
            z.resolve(&q("www.icloud.com", QType::TXT), None, &info()),
            ZoneAnswer::NoData
        );
    }

    #[test]
    fn cname_chase_includes_target_records() {
        let z = test_zone();
        match z.resolve(&q("alias.icloud.com", QType::A), None, &info()) {
            ZoneAnswer::Answer(records) => {
                assert_eq!(records.len(), 2);
                assert!(matches!(records[0].rdata, RData::Cname(_)));
                assert!(matches!(records[1].rdata, RData::A(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    struct FixedAnswerer;

    impl EcsAnswerer for FixedAnswerer {
        fn answer(
            &self,
            question: &Question,
            ecs: Option<&EcsOption>,
            _info: &QueryInfo,
        ) -> Option<EcsAnswer> {
            if question.name.to_string() != "mask.icloud.com" {
                return None;
            }
            let scope = ecs.map(|e| e.source_len).unwrap_or(0);
            Some(EcsAnswer {
                rdatas: vec![RData::A(Ipv4Addr::new(17, 0, 0, 1))],
                ttl: 60,
                scope_len: scope,
            })
        }
    }

    #[test]
    fn dynamic_answer_takes_precedence_and_reports_scope() {
        let mut z = Zone::new("icloud.com".parse().unwrap());
        z.add_address(
            "mask.icloud.com".parse().unwrap(),
            300,
            "203.0.113.9".parse().unwrap(),
        );
        let z = z.with_dynamic(Arc::new(FixedAnswerer));
        let ecs = EcsOption::for_v4_net("100.64.3.0/24".parse().unwrap());
        match z.resolve(&q("mask.icloud.com", QType::A), Some(&ecs), &info()) {
            ZoneAnswer::Dynamic(ans) => {
                assert_eq!(ans.rdatas, [RData::A(Ipv4Addr::new(17, 0, 0, 1))]);
                assert_eq!(ans.scope_len, 24);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Non-matching name falls through to static data.
        match z.resolve(&q("www.icloud.com", QType::A), Some(&ecs), &info()) {
            ZoneAnswer::NxDomain => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contains_name_respects_zone_cut() {
        let z = test_zone();
        assert!(z.contains_name(&"deep.sub.icloud.com".parse().unwrap()));
        assert!(!z.contains_name(&"apple.com".parse().unwrap()));
    }
}
