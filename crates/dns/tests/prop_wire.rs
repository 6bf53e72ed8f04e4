//! Property tests for the DNS wire codec.
//!
//! Round-trips arbitrary messages (names, record mixes, ECS options) through
//! encode/decode, checks the decoder never panics on mutated bytes, and
//! checks the borrowed [`ReplyView`] — the scanner's view of replies and
//! the server's view of queries — against `decode_message` on real replies
//! and queries and their mutations.

use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::BytesMut;
use proptest::prelude::*;
use tectonic_dns::message::Flags;
use tectonic_dns::name::mask_domain;
use tectonic_dns::{
    decode_message, encode_message, DnsWireError, DomainName, EcsOption, Message, MessageEncoder,
    QClass, QType, QueryTemplate, Question, RData, Rcode, Record, ReplyView,
};

/// Labels drawn from a DNS-plausible alphabet (the codec is 8-bit safe, but
/// printable labels keep failures readable).
fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_-]{1,12}").unwrap()
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    prop::collection::vec(arb_label(), 0..6)
        .prop_map(|labels| DomainName::from_labels(labels).unwrap())
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u32>().prop_map(|b| RData::A(Ipv4Addr::from(b))),
        any::<u128>().prop_map(|b| RData::Aaaa(Ipv6Addr::from(b))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        proptest::string::string_regex("[ -~]{0,80}")
            .unwrap()
            .prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(mname, rname, serial)| RData::Soa {
            mname,
            rname,
            serial
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| Record {
        name,
        ttl,
        class: tectonic_dns::QClass::IN,
        rdata,
    })
}

fn arb_qtype() -> impl Strategy<Value = QType> {
    prop_oneof![
        Just(QType::A),
        Just(QType::AAAA),
        Just(QType::CNAME),
        Just(QType::NS),
        Just(QType::TXT),
        Just(QType::SOA),
        Just(QType::PTR),
        (0u16..=4096).prop_map(QType::from_number),
    ]
    .prop_filter("OPT is not a question type", |t| *t != QType::OPT)
}

fn arb_ecs() -> impl Strategy<Value = EcsOption> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| {
            EcsOption::for_v4_net(tectonic_net::Ipv4Net::new(Ipv4Addr::from(bits), len).unwrap())
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| {
            EcsOption::for_v6_net(tectonic_net::Ipv6Net::new(Ipv6Addr::from(bits), len).unwrap())
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        arb_qtype(),
        prop::collection::vec(arb_record(), 0..6),
        prop::collection::vec(arb_record(), 0..3),
        prop::option::of(arb_ecs()),
        0u8..=5,
        any::<bool>(),
    )
        .prop_map(|(id, name, qtype, answers, additional, ecs, rcode, qr)| {
            let mut m = Message::query(id, name, qtype);
            m.flags.qr = qr;
            m.rcode = Rcode::from_number(rcode);
            m.answers = answers;
            m.additional = additional;
            if let Some(e) = ecs {
                m.edns.as_mut().unwrap().set_ecs(e);
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_round_trips(m in arb_message()) {
        let bytes = encode_message(&m);
        let back = decode_message(&bytes).expect("decode own encoding");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn ecs_payload_round_trips(e in arb_ecs()) {
        let bytes = e.encode();
        let back = EcsOption::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back, e);
    }

    #[test]
    fn decoder_never_panics_on_truncation(m in arb_message(), cut in 0usize..2048) {
        let bytes = encode_message(&m);
        let cut = cut % (bytes.len() + 1);
        let _ = decode_message(&bytes[..cut]); // may Err, must not panic
    }

    #[test]
    fn decoder_never_panics_on_bitflips(
        m in arb_message(),
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..8),
    ) {
        let mut bytes = encode_message(&m);
        for (pos, bit) in flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        let _ = decode_message(&bytes); // may Err or decode junk, must not panic
    }

    #[test]
    fn decoder_never_panics_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_message(&bytes);
    }

    #[test]
    fn reencoding_decoded_is_stable(m in arb_message()) {
        let bytes = encode_message(&m);
        let decoded = decode_message(&bytes).unwrap();
        let bytes2 = encode_message(&decoded);
        let decoded2 = decode_message(&bytes2).unwrap();
        prop_assert_eq!(decoded, decoded2);
    }

    /// A `MessageEncoder` reused across arbitrary messages must emit exactly
    /// what a fresh `encode_message` emits for each of them — stale
    /// compression state leaking between messages would corrupt replies on
    /// the scanner's scratch-buffer path.
    #[test]
    fn reused_encoder_is_byte_identical(ms in prop::collection::vec(arb_message(), 1..8)) {
        let mut encoder = MessageEncoder::new();
        let mut buf = BytesMut::new();
        for m in &ms {
            encoder.encode_into(m, &mut buf);
            prop_assert_eq!(&buf[..], &encode_message(m)[..]);
        }
    }

    /// Template patching must be byte-identical to encoding the equivalent
    /// query from scratch, for any domain, ID and /24 subnet — this is the
    /// fast path the ECS scanner rides for every query it sends.
    #[test]
    fn template_patching_matches_general_encoder(
        name in arb_name(),
        ids in prop::collection::vec(any::<u16>(), 1..6),
        nets in prop::collection::vec(any::<u32>(), 1..6),
    ) {
        let template = QueryTemplate::new_v4_24(&name, QType::A)
            .expect("template construction must succeed for valid names");
        let mut patched = template.instantiate();
        for (&id, &bits) in ids.iter().zip(nets.iter().cycle()) {
            let subnet =
                tectonic_net::Ipv4Net::new(Ipv4Addr::from(bits), 24).unwrap();
            let mut want = Message::query(id, name.clone(), QType::A);
            want.edns
                .as_mut()
                .unwrap()
                .set_ecs(EcsOption::for_v4_net(subnet));
            prop_assert_eq!(patched.patch(id, subnet), &encode_message(&want)[..]);
        }
    }
}

// ------------------------------------------------- the message view's oracle

/// What the scan reads from a reply: rcode, ECS scope, A answers.
type ScanFields = (Rcode, Option<u8>, Vec<Ipv4Addr>);

/// Everything the view reads, from either side: the header, the questions
/// (names as spelled), the OPT record's presence and ECS option, and the A
/// answers.
#[derive(Debug, PartialEq)]
struct Reading {
    id: u16,
    flags: Flags,
    rcode: Rcode,
    questions: Vec<(Option<String>, QType, QClass)>,
    edns: bool,
    ecs: Option<EcsOption>,
    answers: Vec<Ipv4Addr>,
}

fn decoded(m: &Message) -> Reading {
    Reading {
        id: m.id,
        flags: m.flags,
        rcode: m.rcode,
        questions: m
            .questions
            .iter()
            .map(|q| (Some(q.name.to_string()), q.qtype, q.qclass))
            .collect(),
        edns: m.edns.is_some(),
        ecs: m.edns.as_ref().and_then(|o| o.ecs()).cloned(),
        answers: m.a_answers(),
    }
}

fn viewed(v: &ReplyView<'_>) -> Reading {
    Reading {
        id: v.id(),
        flags: v.flags(),
        rcode: v.rcode(),
        questions: v
            .questions()
            .map(|q| (q.name.to_name().map(|n| n.to_string()), q.qtype, q.qclass))
            .collect(),
        edns: v.has_edns(),
        ecs: v.ecs().cloned(),
        answers: v.answers_v4().collect(),
    }
}

/// The decoder's and the view's reading of `bytes`, which must agree: the
/// same error, or the same fields. A borrowed question name must also
/// compare with names, and lie within zones, exactly as the decoded one
/// does.
fn agreed(bytes: &[u8]) -> Result<Result<ScanFields, DnsWireError>, TestCaseError> {
    let message = decode_message(bytes);
    let view = ReplyView::parse(bytes);
    prop_assert_eq!(
        view.as_ref().map(viewed),
        message.as_ref().map(decoded),
        "bytes {:02x?}",
        bytes
    );
    if let (Ok(view), Ok(m)) = (&view, &message) {
        prop_assert_eq!(view.ecs_scope(), view.ecs().map(|e| e.scope_len));
        prop_assert_eq!(
            view.question()
                .and_then(|q| q.name.to_name())
                .map(|n| n.to_string()),
            m.question().map(|q| q.name.to_string())
        );
        for (borrowed, owned) in view.questions().zip(&m.questions) {
            let name = &owned.name;
            let shouted =
                DomainName::from_labels(name.labels().iter().map(|l| l.to_ascii_uppercase()))
                    .unwrap();
            let others = [
                Some(name.clone()),
                Some(shouted),
                name.parent(),
                name.parent().and_then(|p| p.prepend("x").ok()),
                Some(mask_domain()),
                Some(DomainName::root()),
            ];
            for other in others.iter().flatten() {
                prop_assert_eq!(
                    borrowed.name == *other,
                    name == other,
                    "{} = {}",
                    name,
                    other
                );
                prop_assert_eq!(
                    borrowed.name.is_within(other),
                    name.is_within(other),
                    "{} within {}",
                    name,
                    other
                );
            }
        }
    }
    Ok(message.map(|m| {
        let scope = m.edns.as_ref().and_then(|o| o.ecs()).map(|e| e.scope_len);
        (m.rcode, scope, m.a_answers())
    }))
}

/// [`agreed`] outside a property: panics on disagreement.
fn agree(bytes: &[u8]) -> Result<ScanFields, DnsWireError> {
    agreed(bytes).unwrap_or_else(|e| panic!("{e}"))
}

/// Names in mixed case, some with labels long enough for non-UTF-8
/// mutations to push their lossy rendering past 63 bytes.
fn arb_mixed_name() -> impl Strategy<Value = DomainName> {
    prop::collection::vec(
        prop_oneof![
            proptest::string::string_regex("[a-zA-Z0-9-]{1,10}").unwrap(),
            proptest::string::string_regex("[a-zA-Z0-9-]{20,40}").unwrap(),
        ],
        1..5,
    )
    .prop_map(|labels| DomainName::from_labels(labels).unwrap())
}

/// The non-A answer records a reply can carry.
fn arb_other_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u128>().prop_map(|b| RData::Aaaa(Ipv6Addr::from(b))),
        arb_mixed_name().prop_map(RData::Cname),
        proptest::string::string_regex("[ -~]{0,40}")
            .unwrap()
            .prop_map(RData::Txt),
        (arb_mixed_name(), arb_mixed_name(), any::<u32>()).prop_map(|(mname, rname, serial)| {
            RData::Soa {
                mname,
                rname,
                serial,
            }
        }),
    ]
}

/// A real encoded reply to an ECS scan query: mixed-case names that
/// compress, up to 8 A records among AAAA/CNAME/TXT/SOA records, authority
/// and additional records, and an ECS scope of 0–24 when EDNS is on.
fn arb_reply() -> impl Strategy<Value = Vec<u8>> {
    (
        (any::<u16>(), arb_mixed_name(), 0u8..=5, any::<bool>()),
        prop::collection::vec(any::<u32>(), 0..=8),
        prop::collection::vec(arb_other_rdata(), 0..3),
        any::<usize>(),
        prop::collection::vec(arb_record(), 0..2),
        prop::collection::vec(arb_record(), 0..2),
        prop::option::of((any::<u32>(), 0u8..=24)),
    )
        .prop_map(
            |((id, name, rcode, edns), addrs, others, split, authority, additional, ecs)| {
                let mut r = Message::query(id, name.clone(), QType::A)
                    .response_to(Rcode::from_number(rcode));
                r.flags.aa = true;
                // The other records' owner differs from the question's in
                // case only, so it still compresses to a pointer.
                let shouted =
                    DomainName::from_labels(name.labels().iter().map(|l| l.to_ascii_uppercase()))
                        .unwrap();
                let mut answers: Vec<Record> = addrs
                    .into_iter()
                    .map(|a| Record::new(name.clone(), 60, RData::A(Ipv4Addr::from(a))))
                    .collect();
                let at = split % (answers.len() + 1);
                let others = others
                    .into_iter()
                    .map(|rd| Record::new(shouted.clone(), 300, rd));
                answers.splice(at..at, others);
                r.answers = answers;
                r.authority = authority;
                r.additional = additional;
                match (edns, ecs) {
                    (false, _) => r.edns = None,
                    (true, Some((bits, scope))) => {
                        let mut e = EcsOption::for_v4_net(tectonic_net::Ipv4Net::slash24_of(
                            Ipv4Addr::from(bits),
                        ));
                        e.scope_len = scope;
                        r.edns.as_mut().unwrap().set_ecs(e);
                    }
                    (true, None) => {}
                }
                encode_message(&r)
            },
        )
}

/// A real encoded query in every shape the server tells apart: mixed-case
/// names, RD set or not, no EDNS, EDNS without ECS, v4 and v6 ECS options
/// of any source length, and one question, none, two, or one of a
/// non-IN class.
fn arb_query() -> impl Strategy<Value = Vec<u8>> {
    (
        (any::<u16>(), arb_mixed_name(), arb_qtype(), any::<bool>()),
        (0u8..4, any::<u128>(), 0u8..=128),
        0u8..4,
    )
        .prop_map(|((id, name, qtype, rd), (edns, bits, len), shape)| {
            let mut q = Message::query(id, name, qtype);
            q.flags.rd = rd;
            match edns {
                0 => q.edns = None,
                1 => {}
                2 => {
                    let net = tectonic_net::Ipv4Net::clamped(Ipv4Addr::from(bits as u32), len % 33);
                    q.ensure_edns().set_ecs(EcsOption::for_v4_net(net));
                }
                _ => {
                    let net = tectonic_net::Ipv6Net::clamped(Ipv6Addr::from(bits), len);
                    q.ensure_edns().set_ecs(EcsOption::for_v6_net(net));
                }
            }
            match shape {
                0 => {}
                1 => q.questions.clear(),
                2 => q.questions.push(Question::new(mask_domain(), QType::AAAA)),
                _ => q.questions[0].qclass = QClass::Other(3),
            }
            encode_message(&q)
        })
}

/// A byte-level mutation of a reply: the fault kinds of the chaos
/// channels, then random edits.
#[derive(Debug, Clone)]
enum Mutation {
    /// `truncator`: cut below the 12-byte header.
    TruncateBelowHeader(usize),
    /// `garbage-replies`: stomp the four count fields with 0xFF.
    StompCounts,
    /// An rcode rewrite of the header nibble.
    RcodeNibble(u8),
    /// Cut anywhere.
    Cut(usize),
    /// Flip one bit.
    Flip(usize, u8),
    /// Insert one byte.
    Insert(usize, u8),
    /// Delete one byte.
    Delete(usize),
    /// Set the high bit of a run of bytes: non-UTF-8 labels.
    HighBits(usize, usize),
    /// Append an OPT record to the last section present and count it
    /// there: an OPT in the answer or authority section, a second OPT, or
    /// a first one. `owner` picks the root, a pointer to a zero byte, a
    /// pointer to the question name or a literal label; each option is an
    /// ECS option with the given scope, an undecodable ECS option or a
    /// cookie; `trailer` zero bytes follow the options.
    AppendOpt {
        owner: u8,
        options: Vec<(u8, u8)>,
        trailer: usize,
    },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..12).prop_map(Mutation::TruncateBelowHeader),
        Just(Mutation::StompCounts),
        (0u8..16).prop_map(Mutation::RcodeNibble),
        any::<usize>().prop_map(Mutation::Cut),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, bit)),
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Mutation::Insert(at, b)),
        any::<usize>().prop_map(Mutation::Delete),
        (any::<usize>(), 1usize..40).prop_map(|(at, n)| Mutation::HighBits(at, n)),
        (
            0u8..4,
            prop::collection::vec((0u8..3, 0u8..=24), 0..3),
            prop_oneof![Just(0usize), Just(0), 1usize..4],
        )
            .prop_map(|(owner, options, trailer)| Mutation::AppendOpt {
                owner,
                options,
                trailer
            }),
    ]
}

fn mutate(bytes: &mut Vec<u8>, m: &Mutation) {
    let len = bytes.len();
    match *m {
        Mutation::TruncateBelowHeader(n) => bytes.truncate(n),
        Mutation::StompCounts => {
            for b in bytes.iter_mut().take(12).skip(4) {
                *b = 0xFF;
            }
        }
        Mutation::RcodeNibble(rcode) => {
            if let Some(flags) = bytes.get_mut(3) {
                *flags = (*flags & 0xF0) | rcode;
            }
        }
        Mutation::Cut(at) => bytes.truncate(at % (len + 1)),
        Mutation::Flip(at, bit) if len > 0 => bytes[at % len] ^= 1 << bit,
        Mutation::Insert(at, b) => bytes.insert(at % (len + 1), b),
        Mutation::Delete(at) if len > 0 => {
            bytes.remove(at % len);
        }
        Mutation::HighBits(at, n) if len > 0 => {
            for b in bytes.iter_mut().skip(at % len).take(n) {
                *b |= 0x80;
            }
        }
        Mutation::AppendOpt {
            owner,
            ref options,
            trailer,
        } => {
            let Some(&[an_hi, an_lo, ns_hi, ns_lo, ar_hi, ar_lo]) = bytes.get(6..12) else {
                return;
            };
            let (count, at) = match (
                u16::from_be_bytes([ns_hi, ns_lo]),
                u16::from_be_bytes([ar_hi, ar_lo]),
            ) {
                (0, 0) => (u16::from_be_bytes([an_hi, an_lo]), 6),
                (ns, 0) => (ns, 8),
                (_, ar) => (ar, 10),
            };
            bytes[at..at + 2].copy_from_slice(&count.wrapping_add(1).to_be_bytes());
            let owner: &[u8] = match owner {
                0 => &[0],
                1 => &[0xC0, 4],  // qdcount's high byte: a zero byte
                2 => &[0xC0, 12], // the question name
                _ => &[1, b'x', 0],
            };
            let mut rdata = Vec::new();
            for &(kind, scope) in options {
                match kind {
                    0 => rdata.extend(ecs_option(scope)),
                    1 => rdata.extend([0, 8, 0, 4, 0, 9, 24, 0]), // unknown family
                    _ => rdata.extend([0, 10, 0, 2, 0xAB, 0xCD]), // a cookie
                }
            }
            rdata.extend(std::iter::repeat_n(0, trailer));
            bytes.extend(raw_opt(owner, &rdata));
        }
        Mutation::Flip(..) | Mutation::Delete(_) | Mutation::HighBits(..) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The view errs exactly when the decoder errs, with the same error,
    /// and otherwise reads the same ID, flags, rcode, questions, OPT
    /// record, ECS option and A answers — on replies and on queries.
    #[test]
    fn reply_view_matches_decoder(
        message in prop_oneof![arb_reply(), arb_query()],
        mutations in prop::collection::vec(arb_mutation(), 0..4),
    ) {
        let mut bytes = message;
        let intact = mutations.is_empty();
        for m in &mutations {
            mutate(&mut bytes, m);
        }
        let read = agreed(&bytes)?;
        prop_assert!(read.is_ok() || !intact, "an intact reply failed: {:?}", read);
    }
}

/// A header with the given section counts; ID 1 makes byte 0 a zero byte
/// a compression pointer can target.
fn header(qd: u8, an: u8, ns: u8, ar: u8, rcode: u8) -> Vec<u8> {
    vec![0, 1, 0x84, rcode, 0, qd, 0, an, 0, ns, 0, ar]
}

/// A name from raw labels.
fn raw_name(labels: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in labels {
        out.push(l.len() as u8);
        out.extend_from_slice(l);
    }
    out.push(0);
    out
}

/// One record: owner bytes, type, class IN, TTL 60, rdata.
fn raw_record(owner: &[u8], rtype: u16, rdata: &[u8]) -> Vec<u8> {
    let mut out = owner.to_vec();
    out.extend_from_slice(&rtype.to_be_bytes());
    out.extend_from_slice(&[0, 1, 0, 0, 0, 60]);
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(rdata);
    out
}

/// An OPT record with the given owner bytes and options rdata.
fn raw_opt(owner: &[u8], rdata: &[u8]) -> Vec<u8> {
    let mut out = owner.to_vec();
    out.extend_from_slice(&[0, 41, 0x04, 0xD0, 0, 0, 0, 0]);
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(rdata);
    out
}

/// An ECS option with the given scope, for 192.0.2.0/24.
fn ecs_option(scope: u8) -> Vec<u8> {
    vec![0, 8, 0, 7, 0, 1, 24, scope, 192, 0, 2]
}

/// A one-question, one-answer reply whose answer owner is `owner`.
fn answer_owned_by(owner: &[u8]) -> Vec<u8> {
    let mut bytes = header(1, 1, 0, 0, 0);
    bytes.extend(raw_name(&[b"mask", b"icloud", b"com"]));
    bytes.extend_from_slice(&[0, 1, 0, 1]);
    bytes.extend(raw_record(owner, 1, &[17, 0, 0, 1]));
    bytes
}

#[test]
fn labels_are_measured_on_their_lossy_rendering() {
    // 21 raw bytes of 0xFF render as 21 replacement characters, 63 bytes:
    // the limit exactly. 22 render as 66 bytes: a bad label, although the
    // raw label is far below 63.
    let ok = [0xFF; 21];
    assert!(agree(&answer_owned_by(&raw_name(&[&ok]))).is_ok());
    let long = [0xFF; 22];
    assert_eq!(
        agree(&answer_owned_by(&raw_name(&[&long]))),
        Err(DnsWireError::BadName)
    );
    // A truncated 4-byte sequence is one maximal invalid run, so it renders
    // as one replacement character, not three: 21 of them fit.
    let runs: Vec<u8> = [0xF0, 0x9F, 0x98].repeat(21);
    assert!(agree(&answer_owned_by(&raw_name(&[&runs]))).is_ok());
    let runs: Vec<u8> = [0xF0, 0x9F, 0x98]
        .repeat(21)
        .into_iter()
        .chain([b'x'])
        .collect();
    assert_eq!(
        agree(&answer_owned_by(&raw_name(&[&runs]))),
        Err(DnsWireError::BadName)
    );
    // The 255-byte name limit is measured on the lossy lengths too: four
    // 63-byte renderings make 257 encoded bytes from 89 raw ones.
    assert_eq!(
        agree(&answer_owned_by(&raw_name(&[&ok, &ok, &ok, &ok]))),
        Err(DnsWireError::BadName)
    );
    assert!(agree(&answer_owned_by(&raw_name(&[&ok, &ok, &ok]))).is_ok());
}

#[test]
fn labels_with_dots_or_nuls_are_rejected() {
    for label in [&b"a.b"[..], b"a\0b", b".", b"\0"] {
        assert_eq!(
            agree(&answer_owned_by(&raw_name(&[label, b"com"]))),
            Err(DnsWireError::BadName),
            "{label:?}"
        );
    }
    // The same check applies to the question name and to names in rdata.
    let mut bytes = header(1, 0, 0, 0, 0);
    bytes.extend(raw_name(&[b"a.b"]));
    bytes.extend_from_slice(&[0, 1, 0, 1]);
    assert_eq!(agree(&bytes), Err(DnsWireError::BadName));
    let mut bytes = header(0, 1, 0, 0, 0);
    bytes.extend(raw_record(&[0], 5, &raw_name(&[b"a\0"])));
    assert_eq!(agree(&bytes), Err(DnsWireError::BadName));
}

#[test]
fn opt_owner_must_be_the_root() {
    let with_owner = |owner: &[u8]| {
        let mut bytes = header(0, 0, 0, 1, 0);
        bytes.extend(raw_opt(owner, &ecs_option(16)));
        bytes
    };
    assert_eq!(
        agree(&with_owner(&[0])).map(|f| f.1),
        Ok(Some(16)),
        "root owner"
    );
    assert_eq!(
        agree(&with_owner(&raw_name(&[b"x"]))),
        Err(DnsWireError::BadOpt)
    );
    // A pointer to a zero byte (the ID's high byte) is the root name.
    assert_eq!(agree(&with_owner(&[0xC0, 0x00])).map(|f| f.1), Ok(Some(16)));
    // A pointer to a label is not.
    let mut bytes = header(1, 0, 0, 1, 0);
    bytes.extend(raw_name(&[b"mask"]));
    bytes.extend_from_slice(&[0, 1, 0, 1]);
    bytes.extend(raw_opt(&[0xC0, 12], &[]));
    assert_eq!(agree(&bytes), Err(DnsWireError::BadOpt));
    // The owner is checked before the rdata is read: a non-root owner with
    // truncated rdata is BadOpt, not Truncated.
    let mut bytes = with_owner(&raw_name(&[b"x"]));
    bytes.truncate(bytes.len() - 3);
    assert_eq!(agree(&bytes), Err(DnsWireError::BadOpt));
}

#[test]
fn opt_outside_the_additional_section_or_twice_is_rejected() {
    let opt = raw_opt(&[0], &ecs_option(20));
    for (an, ns) in [(1, 0), (0, 1)] {
        let mut bytes = header(0, an, ns, 0, 0);
        bytes.extend(&opt);
        assert_eq!(agree(&bytes), Err(DnsWireError::BadOpt), "an {an} ns {ns}");
    }
    let mut bytes = header(0, 0, 0, 2, 0);
    bytes.extend(&opt);
    bytes.extend(&opt);
    assert_eq!(agree(&bytes), Err(DnsWireError::BadOpt));
    // An ordinary record between the two does not help.
    let mut bytes = header(0, 0, 0, 3, 0);
    bytes.extend(&opt);
    bytes.extend(raw_record(&[0], 16, &[1, b'x']));
    bytes.extend(&opt);
    assert_eq!(agree(&bytes), Err(DnsWireError::BadOpt));
}

#[test]
fn opt_option_trailer_and_ecs_choice() {
    let with_rdata = |rdata: &[u8]| {
        let mut bytes = header(0, 0, 0, 1, 0);
        bytes.extend(raw_opt(&[0], rdata));
        bytes
    };
    // 1–3 bytes after the last option are an error; 4 start an option
    // header, whose payload then runs out.
    for n in 1..=3 {
        let mut rdata = ecs_option(8);
        rdata.extend(std::iter::repeat_n(0, n));
        assert_eq!(agree(&with_rdata(&rdata)), Err(DnsWireError::BadOpt), "{n}");
    }
    let mut rdata = ecs_option(8);
    rdata.extend([0, 8, 0, 1]);
    assert_eq!(agree(&with_rdata(&rdata)), Err(DnsWireError::Truncated));
    // The scope comes from the first *decodable* ECS option.
    let mut rdata = vec![0, 8, 0, 2, 0, 9]; // ECS with a bad family
    rdata.extend(ecs_option(12));
    rdata.extend(ecs_option(18));
    assert_eq!(agree(&with_rdata(&rdata)).map(|f| f.1), Ok(Some(12)));
    let mut rdata = vec![0, 10, 0, 2, 0xAB, 0xCD]; // a cookie
    rdata.extend(ecs_option(4));
    assert_eq!(agree(&with_rdata(&rdata)).map(|f| f.1), Ok(Some(4)));
}

#[test]
fn rdata_names_are_read_from_the_whole_message() {
    // A CNAME with rdlength 0 whose name is the next record's owner: the
    // decoder reads names in rdata from the whole message, past rdlength.
    let mut bytes = header(0, 2, 0, 0, 0);
    bytes.extend(raw_record(&[0], 5, &[]));
    bytes.extend(raw_record(&raw_name(&[b"www"]), 1, &[17, 1, 2, 3]));
    assert_eq!(
        agree(&bytes),
        Ok((Rcode::NoError, None, vec![Ipv4Addr::new(17, 1, 2, 3)]))
    );
    // SOA likewise: the second name and the serial are read past the
    // 1-byte rdata, while the record itself ends at its rdlength, so those
    // five bytes are trailing bytes of the message.
    let mut bytes = header(0, 1, 0, 0, 0);
    bytes.extend(raw_record(&[0], 6, &[0]));
    bytes.extend([0, 0, 0, 0, 0]);
    assert_eq!(agree(&bytes), Err(DnsWireError::TrailingBytes(5)));
    // … but not past the end of the message.
    let mut bytes = header(0, 1, 0, 0, 0);
    bytes.extend(raw_record(&[0], 6, &[0, 0]));
    assert_eq!(agree(&bytes), Err(DnsWireError::Truncated));
}

#[test]
fn trailing_bytes_and_rdata_lengths() {
    let mut bytes = answer_owned_by(&[0xC0, 12]);
    assert_eq!(
        agree(&bytes),
        Ok((Rcode::NoError, None, vec![Ipv4Addr::new(17, 0, 0, 1)]))
    );
    bytes.push(0);
    assert_eq!(agree(&bytes), Err(DnsWireError::TrailingBytes(1)));
    let mut bytes = header(0, 1, 0, 0, 3);
    bytes.extend(raw_record(&[0], 1, &[1, 2, 3]));
    assert_eq!(agree(&bytes), Err(DnsWireError::BadRdata(QType::A)));
    let mut bytes = header(0, 1, 0, 0, 3);
    bytes.extend(raw_record(&[0], 28, &[0; 4]));
    assert_eq!(agree(&bytes), Err(DnsWireError::BadRdata(QType::AAAA)));
    // A records outside the answer section are not answers; the header's
    // 4-bit rcode is read as is.
    let mut bytes = header(0, 0, 1, 1, 3);
    bytes.extend(raw_record(&[0], 1, &[1, 2, 3, 4]));
    bytes.extend(raw_record(&[0], 1, &[5, 6, 7, 8]));
    assert_eq!(agree(&bytes), Ok((Rcode::NxDomain, None, vec![])));
}
