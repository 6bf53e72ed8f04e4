//! Zone data and dynamic, ECS-aware answer hooks.
//!
//! A [`Zone`] holds ordinary static records plus an optional
//! [`EcsAnswerer`] — the hook through which `tectonic-relay` plugs the
//! simulated Route 53 behaviour for `mask.icloud.com`: answers that depend
//! on the client subnet carried in the ECS option (or, absent ECS, on the
//! resolver's source address). Both read the question borrowed from the
//! query's wire bytes, and a hook pushes its records straight into the
//! reply being written.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use tectonic_net::SimTime;

use crate::edns::EcsOption;
use crate::message::{QType, RData, Record};
use crate::name::DomainName;
use crate::wire::{NameRef, QuestionRef};

/// Context available to answer logic: who asked, and when.
#[derive(Clone, Copy, Debug)]
pub struct QueryInfo {
    /// Source address of the query as seen by the server (the resolver's
    /// address, not the end client's).
    pub src: IpAddr,
    /// Simulated time of the query.
    pub now: SimTime,
}

/// Where a dynamic answer's records go: the reply being written, or
/// whatever a test collects them in.
pub trait AnswerSink {
    /// Appends one class-IN answer record owned by the question name.
    fn push(&mut self, ttl: u32, rdata: &RData);
}

/// A `Vec` collects the records with their TTLs: how typed callers and
/// tests read a dynamic answer.
impl AnswerSink for Vec<(u32, RData)> {
    fn push(&mut self, ttl: u32, rdata: &RData) {
        Vec::push(self, (ttl, rdata.clone()));
    }
}

/// Dynamic answer logic attached to a zone.
pub trait EcsAnswerer: Send + Sync {
    /// Answers `question`, optionally considering the ECS option and the
    /// query context, by pushing its records into `answers` and returning
    /// the ECS scope to report. For IPv4 the simulated service answers
    /// with the query's source length (/24); for IPv6 it answers scope 0 —
    /// the exact behaviour that blocks ECS enumeration over IPv6 in the
    /// paper.
    ///
    /// Returning `None` falls through to the zone's static records; an
    /// answerer that does so pushes nothing. Pushing nothing and returning
    /// a scope produces a NOERROR/no-data response (which still echoes the
    /// ECS option with that scope).
    fn answer(
        &self,
        question: &QuestionRef<'_>,
        ecs: Option<&EcsOption>,
        info: &QueryInfo,
        answers: &mut dyn AnswerSink,
    ) -> Option<u8>;
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
    pub fn contains_name(&self, name: &NameRef<'_>) -> bool {
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
    /// Order: dynamic hook first (if installed), whose records go to
    /// `answers`; then static records with a one-step CNAME chase; then
    /// the NXDOMAIN / no-data distinction. Only the static path builds an
    /// owned name.
    pub fn resolve(
        &self,
        question: &QuestionRef<'_>,
        ecs: Option<&EcsOption>,
        info: &QueryInfo,
        answers: &mut dyn AnswerSink,
    ) -> ZoneAnswer {
        if let Some(dynamic) = &self.dynamic {
            if let Some(scope_len) = dynamic.answer(question, ecs, info, answers) {
                return ZoneAnswer::Dynamic { scope_len };
            }
        }
        let Some(name) = question.name.to_name() else {
            return ZoneAnswer::NxDomain;
        };
        let direct = self.lookup_static(&name, question.qtype);
        if !direct.is_empty() {
            return ZoneAnswer::Answer(direct);
        }
        // CNAME chase (single step is enough for the simulated zones).
        let cnames = self.lookup_static(&name, QType::CNAME);
        if let Some(cname_rec) = cnames.first() {
            if let RData::Cname(target) = &cname_rec.rdata {
                let mut records = vec![cname_rec.clone()];
                records.extend(self.lookup_static(target, question.qtype));
                return ZoneAnswer::Answer(records);
            }
        }
        if self.name_exists(&name) {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::NxDomain
        }
    }
}

/// Result of resolving a question inside a zone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// The dynamic hook answered: its records went to the sink.
    Dynamic {
        /// The ECS scope to report.
        scope_len: u8,
    },
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
    use crate::message::{QClass, Question};
    use std::net::Ipv4Addr;

    fn info() -> QueryInfo {
        QueryInfo {
            src: "192.0.2.53".parse().unwrap(),
            now: SimTime::EPOCH,
        }
    }

    /// `z`'s answer to `name`/`qtype`, and the records its hook pushed.
    fn resolve(
        z: &Zone,
        name: &str,
        qtype: QType,
        ecs: Option<&EcsOption>,
    ) -> (ZoneAnswer, Vec<(u32, RData)>) {
        let question = Question {
            name: name.parse().unwrap(),
            qtype,
            qclass: QClass::IN,
        };
        let mut pushed = Vec::new();
        let answer = z.resolve(&(&question).into(), ecs, &info(), &mut pushed);
        (answer, pushed)
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
        match resolve(&z, "www.icloud.com", QType::A, None).0 {
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
            resolve(&z, "missing.icloud.com", QType::A, None).0,
            ZoneAnswer::NxDomain
        );
        assert_eq!(
            resolve(&z, "www.icloud.com", QType::TXT, None).0,
            ZoneAnswer::NoData
        );
    }

    #[test]
    fn cname_chase_includes_target_records() {
        let z = test_zone();
        match resolve(&z, "alias.icloud.com", QType::A, None).0 {
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
            question: &QuestionRef<'_>,
            ecs: Option<&EcsOption>,
            _info: &QueryInfo,
            answers: &mut dyn AnswerSink,
        ) -> Option<u8> {
            if question.name != DomainName::literal("mask.icloud.com") {
                return None;
            }
            answers.push(60, &RData::A(Ipv4Addr::new(17, 0, 0, 1)));
            Some(ecs.map(|e| e.source_len).unwrap_or(0))
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
        let (answer, pushed) = resolve(&z, "MASK.icloud.com", QType::A, Some(&ecs));
        assert_eq!(answer, ZoneAnswer::Dynamic { scope_len: 24 });
        assert_eq!(pushed, [(60, RData::A(Ipv4Addr::new(17, 0, 0, 1)))]);
        // Non-matching name falls through to static data.
        let (answer, pushed) = resolve(&z, "www.icloud.com", QType::A, Some(&ecs));
        assert_eq!(answer, ZoneAnswer::NxDomain);
        assert!(pushed.is_empty());
    }

    #[test]
    fn contains_name_respects_zone_cut() {
        let z = test_zone();
        let within = |name: &str| z.contains_name(&(&name.parse::<DomainName>().unwrap()).into());
        assert!(within("deep.sub.icloud.com"));
        assert!(within("ICLOUD.com"));
        assert!(!within("apple.com"));
        assert!(!within("com"));
    }
}
