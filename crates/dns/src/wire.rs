//! RFC 1035 wire encoding and decoding, with name compression.
//!
//! Both sides of every simulated exchange round-trip through this codec, so
//! the scanner exercises real message bytes — including the EDNS0 OPT record
//! in the additional section and compression pointers in responses with many
//! answer records (the April scans saw up to eight A records per response).

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::{Buf, BufMut, BytesMut};

use crate::edns::{EcsOption, EdnsOption, OptRecord};
use crate::message::{Flags, Message, QClass, QType, Question, RData, Rcode, Record};
use crate::name::DomainName;

/// Errors from the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsWireError {
    /// Ran out of bytes while decoding.
    Truncated,
    /// A compression pointer loop or overly deep chain.
    BadPointer,
    /// A label exceeded 63 octets or a name 255 octets.
    BadName,
    /// Rdata length did not match the record type's expectations.
    BadRdata(QType),
    /// More than one OPT record, or OPT outside the additional section.
    BadOpt,
    /// Trailing garbage after the message.
    TrailingBytes(usize),
}

impl fmt::Display for DnsWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsWireError::Truncated => write!(f, "message truncated"),
            DnsWireError::BadPointer => write!(f, "bad compression pointer"),
            DnsWireError::BadName => write!(f, "invalid encoded name"),
            DnsWireError::BadRdata(t) => write!(f, "invalid rdata for {t}"),
            DnsWireError::BadOpt => write!(f, "invalid OPT record"),
            DnsWireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DnsWireError {}

// ---------------------------------------------------------------- encoding

/// A reusable message encoder.
///
/// Compression state is a list of label start offsets into the output
/// buffer; candidate suffixes are matched by walking the already-written
/// bytes (following pointers), so no per-label strings are allocated.
/// Reusing one `MessageEncoder` across many [`encode_into`] calls also
/// reuses the offset list's capacity, making steady-state encoding
/// allocation-free when the caller reuses its output buffer too.
///
/// [`encode_into`]: MessageEncoder::encode_into
#[derive(Debug, Default)]
pub struct MessageEncoder {
    /// Buffer offsets where a label sequence was written literally —
    /// the candidate targets for compression pointers.
    label_offsets: Vec<u16>,
}

impl MessageEncoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        MessageEncoder {
            // lintkit: allow(alloc-in-hot-path) -- capacity-zero Vec::new
            // performs no heap allocation; growth is amortized by reuse
            label_offsets: Vec::new(),
        }
    }

    /// Encodes `m` into `out`, clearing it first. Output is byte-identical
    /// to [`encode_message`].
    pub fn encode_into(&mut self, m: &Message, out: &mut BytesMut) {
        self.sink(out).put_message(m);
    }

    /// Encodes a server reply given as borrowed parts into `out`, clearing
    /// it first: byte for byte what [`encode_into`](Self::encode_into)
    /// makes of the equivalent [`Message`], written by the same header,
    /// question, record and OPT pieces, so name compression stays one
    /// implementation.
    pub(crate) fn encode_reply_into(&mut self, reply: &Reply<'_>, out: &mut BytesMut) {
        self.sink(out).put_reply(reply);
    }

    /// A sink over the cleared `out`, with the compression state reset.
    fn sink<'a>(&'a mut self, out: &'a mut BytesMut) -> Sink<'a> {
        out.clear();
        self.label_offsets.clear();
        Sink {
            buf: out,
            label_offsets: &mut self.label_offsets,
        }
    }
}

/// The answer section of a [`Reply`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReplyAnswers<'a> {
    /// No answer records.
    Empty,
    /// Whole records: static answers and the CNAME chase.
    Records(&'a [Record]),
    /// One class-IN record per rdata, all owned by `owner` with `ttl`: a
    /// dynamic answer, written without building a [`Record`] per address.
    Rdatas {
        /// The owner of every record (the question name).
        owner: &'a DomainName,
        /// The TTL of every record.
        ttl: u32,
        /// The records' data, in answer order.
        rdatas: &'a [RData],
    },
}

impl ReplyAnswers<'_> {
    fn len(&self) -> usize {
        match self {
            ReplyAnswers::Empty => 0,
            ReplyAnswers::Records(records) => records.len(),
            ReplyAnswers::Rdatas { rdatas, .. } => rdatas.len(),
        }
    }
}

/// A server reply as parts borrowed from the query and the zone answer:
/// the [`Message`] a typed handler would build, minus the building. It has
/// no authority or additional records besides the OPT record.
#[derive(Debug, Clone)]
pub(crate) struct Reply<'a> {
    /// Transaction ID.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: &'a [Question],
    /// Answer section.
    pub answers: ReplyAnswers<'a>,
    /// Whether the reply carries a default [`OptRecord`] (it does when the
    /// query did).
    pub edns: bool,
    /// The ECS option that OPT record carries, if any.
    pub ecs: Option<EcsOption>,
}

/// Compares the name suffix `labels` against the (possibly compressed) name
/// encoded in `buf` at `off`, case-insensitively.
fn suffix_matches_at(buf: &[u8], mut off: usize, labels: &[String]) -> bool {
    let mut idx = 0;
    let mut jumps = 0u32;
    loop {
        // Offsets recorded for the name currently being written can run past
        // the end of the buffer (its terminator is not written yet); such an
        // incomplete name never matches, mirroring the string-keyed map that
        // only ever held distinct full suffixes.
        let Some(len) = buf.get(off).map(|b| *b as usize) else {
            return false;
        };
        if len & 0xC0 == 0xC0 {
            // Pointers we wrote ourselves always target earlier offsets.
            let Some(&lo) = off.checked_add(1).and_then(|i| buf.get(i)) else {
                return false;
            };
            if jumps >= 16 {
                return false;
            }
            jumps = jumps.saturating_add(1);
            off = ((len & 0x3F) << 8) | lo as usize;
            continue;
        }
        if len == 0 {
            return idx == labels.len();
        }
        let Some(label) = labels.get(idx) else {
            return false;
        };
        let label = label.as_bytes();
        let start = off.saturating_add(1);
        let end = start.saturating_add(len);
        if label.len() != len
            || !buf
                .get(start..end)
                .is_some_and(|wire| wire.eq_ignore_ascii_case(label))
        {
            return false;
        }
        idx = idx.saturating_add(1);
        off = end;
    }
}

/// Section/length count clamped to a 16-bit wire field. Messages this
/// encoder builds stay far below 65 535 entries, so the clamp is a
/// formality that keeps the conversion total.
fn count16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

struct Sink<'a> {
    buf: &'a mut BytesMut,
    label_offsets: &'a mut Vec<u16>,
}

impl Sink<'_> {
    /// Overwrites the two bytes at `pos` with `v` big-endian — the second
    /// half of the reserve-then-backpatch length pattern. `pos` was
    /// produced by an earlier `buf.len()`, so the range is in bounds; the
    /// `get_mut` keeps the patch total on this hostile-input path anyway.
    fn patch_u16(&mut self, pos: usize, v: u16) {
        let end = pos.saturating_add(2);
        if let Some(slot) = self.buf.get_mut(pos..end) {
            slot.copy_from_slice(&v.to_be_bytes());
        }
    }

    /// The first recorded offset whose encoded suffix equals `labels`.
    ///
    /// Each distinct suffix is written literally at most once (later
    /// occurrences compress to pointers), so "first match in insertion
    /// order" reproduces the first-occurrence offsets the old string-keyed
    /// map produced — output stays byte-identical.
    fn find_suffix(&self, labels: &[String]) -> Option<u16> {
        self.label_offsets
            .iter()
            .copied()
            .find(|&off| suffix_matches_at(self.buf, off as usize, labels))
    }

    fn put_name(&mut self, name: &DomainName) {
        let labels = name.labels();
        for (i, label) in labels.iter().enumerate() {
            if let Some(off) = labels.get(i..).and_then(|rest| self.find_suffix(rest)) {
                self.buf.put_u16(0xC000 | off);
                return;
            }
            // Pointers can only reference the first 16 KiB − pointer space;
            // the try_from doubles as the overflow check for the u16 field.
            if let Ok(off) = u16::try_from(self.buf.len()) {
                if off <= 0x3FFF {
                    self.label_offsets.push(off);
                }
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "DomainName labels are ≤ 63 bytes by construction"
            )]
            self.buf.put_u8(label.len() as u8);
            self.buf.put_slice(label.as_bytes());
        }
        self.buf.put_u8(0);
    }

    fn put_question(&mut self, q: &Question) {
        self.put_name(&q.name);
        self.buf.put_u16(q.qtype.number());
        self.buf.put_u16(q.qclass.number());
    }

    fn put_record(&mut self, r: &Record) {
        self.put_record_parts(&r.name, r.class, r.ttl, &r.rdata);
    }

    /// Writes one record from its parts: owner, class, TTL and data.
    fn put_record_parts(&mut self, owner: &DomainName, class: QClass, ttl: u32, rdata: &RData) {
        self.put_name(owner);
        self.buf.put_u16(rdata.rtype().number());
        self.buf.put_u16(class.number());
        self.buf.put_u32(ttl);
        // Reserve rdlength, fill after writing rdata.
        let len_pos = self.buf.len();
        self.buf.put_u16(0);
        let start = self.buf.len();
        match rdata {
            RData::A(a) => self.buf.put_slice(&a.octets()),
            RData::Aaaa(a) => self.buf.put_slice(&a.octets()),
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => self.put_name(n),
            RData::Soa {
                mname,
                rname,
                serial,
            } => {
                self.put_name(mname);
                self.put_name(rname);
                self.buf.put_u32(*serial);
                // refresh/retry/expire/minimum — fixed plausible values.
                self.buf.put_u32(7200);
                self.buf.put_u32(900);
                self.buf.put_u32(1_209_600);
                self.buf.put_u32(60);
            }
            RData::Txt(s) => {
                for chunk in s.as_bytes().chunks(255) {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "chunks(255) yields slices of ≤ 255 bytes"
                    )]
                    self.buf.put_u8(chunk.len() as u8);
                    self.buf.put_slice(chunk);
                }
                if s.is_empty() {
                    self.buf.put_u8(0);
                }
            }
            RData::Raw(bytes) => self.buf.put_slice(bytes),
        }
        self.patch_rdlen(len_pos, start);
    }

    /// Back-patches the rdlength reserved at `len_pos` with the bytes
    /// written since `start`.
    fn patch_rdlen(&mut self, len_pos: usize, start: usize) {
        let rdlen = count16(self.buf.len().saturating_sub(start));
        self.patch_u16(len_pos, rdlen);
    }

    fn put_opt(&mut self, opt: &OptRecord, rcode: Rcode) {
        let (len_pos, start) = self.put_opt_head(opt, rcode);
        for o in &opt.options {
            match o {
                EdnsOption::ClientSubnet(e) => self.put_ecs(e),
                EdnsOption::Other(code, p) => {
                    self.buf.put_u16(*code);
                    self.buf.put_u16(count16(p.len()));
                    self.buf.put_slice(p);
                }
            }
        }
        self.patch_rdlen(len_pos, start);
    }

    /// Writes an OPT record up to its options and returns where its
    /// rdlength goes and where its options start.
    fn put_opt_head(&mut self, opt: &OptRecord, rcode: Rcode) -> (usize, usize) {
        self.buf.put_u8(0); // root owner name
        self.buf.put_u16(QType::OPT.number());
        self.buf.put_u16(opt.udp_size);
        // TTL field carries ext-rcode, version, flags.
        let ext_rcode = (rcode.number() >> 4) | opt.ext_rcode;
        self.buf.put_u8(ext_rcode);
        self.buf.put_u8(opt.version);
        self.buf.put_u16(0);
        let len_pos = self.buf.len();
        self.buf.put_u16(0);
        (len_pos, self.buf.len())
    }

    fn put_ecs(&mut self, e: &EcsOption) {
        self.buf.put_u16(EcsOption::CODE);
        // Stack-encoded: the hot encode path writes the ECS payload without
        // the Vec the old `encode()` built.
        let (payload, n) = e.wire_bytes();
        let payload = payload.get(..n).unwrap_or_default();
        self.buf.put_u16(count16(payload.len()));
        self.buf.put_slice(payload);
    }

    fn put_header(&mut self, id: u16, flags: Flags, rcode: Rcode, counts: [u16; 4]) {
        self.buf.put_u16(id);
        let mut b1: u8 = 0;
        if flags.qr {
            b1 |= 0x80;
        }
        if flags.aa {
            b1 |= 0x04;
        }
        if flags.tc {
            b1 |= 0x02;
        }
        if flags.rd {
            b1 |= 0x01;
        }
        let mut b2: u8 = rcode.number() & 0x0F;
        if flags.ra {
            b2 |= 0x80;
        }
        self.buf.put_u8(b1);
        self.buf.put_u8(b2);
        for count in counts {
            self.buf.put_u16(count);
        }
    }

    fn put_message(&mut self, m: &Message) {
        let arcount = count16(m.additional.len()).saturating_add(u16::from(m.edns.is_some()));
        self.put_header(
            m.id,
            m.flags,
            m.rcode,
            [
                count16(m.questions.len()),
                count16(m.answers.len()),
                count16(m.authority.len()),
                arcount,
            ],
        );
        for q in &m.questions {
            self.put_question(q);
        }
        for r in &m.answers {
            self.put_record(r);
        }
        for r in &m.authority {
            self.put_record(r);
        }
        for r in &m.additional {
            self.put_record(r);
        }
        if let Some(opt) = &m.edns {
            self.put_opt(opt, m.rcode);
        }
    }

    fn put_reply(&mut self, reply: &Reply<'_>) {
        self.put_header(
            reply.id,
            reply.flags,
            reply.rcode,
            [
                count16(reply.questions.len()),
                count16(reply.answers.len()),
                0,
                u16::from(reply.edns),
            ],
        );
        for q in reply.questions {
            self.put_question(q);
        }
        match reply.answers {
            ReplyAnswers::Empty => {}
            ReplyAnswers::Records(records) => {
                for r in records {
                    self.put_record(r);
                }
            }
            ReplyAnswers::Rdatas { owner, ttl, rdatas } => {
                for rdata in rdatas {
                    self.put_record_parts(owner, QClass::IN, ttl, rdata);
                }
            }
        }
        if reply.edns {
            let (len_pos, start) = self.put_opt_head(&OptRecord::default(), reply.rcode);
            if let Some(e) = &reply.ecs {
                self.put_ecs(e);
            }
            self.patch_rdlen(len_pos, start);
        }
    }
}

/// Encodes a message to wire bytes.
pub fn encode_message(m: &Message) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(512);
    MessageEncoder::new().encode_into(m, &mut out);
    out.to_vec()
}

/// Encodes a message into a caller-provided buffer (cleared first).
///
/// With a warm buffer this performs no allocation besides the encoder's
/// small offset list; use [`MessageEncoder`] directly to reuse that too.
pub fn encode_message_into(m: &Message, out: &mut BytesMut) {
    MessageEncoder::new().encode_into(m, out);
}

// ---------------------------------------------------------------- decoding

#[derive(Debug, Clone)]
struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn take_u8(&mut self) -> Result<u8, DnsWireError> {
        let v = *self.data.get(self.pos).ok_or(DnsWireError::Truncated)?;
        self.pos = self.pos.saturating_add(1);
        Ok(v)
    }

    fn take_u16(&mut self) -> Result<u16, DnsWireError> {
        Ok(self.take_slice(2)?.get_u16())
    }

    fn take_u32(&mut self) -> Result<u32, DnsWireError> {
        Ok(self.take_slice(4)?.get_u32())
    }

    fn take_slice(&mut self, n: usize) -> Result<&'a [u8], DnsWireError> {
        let end = self.pos.checked_add(n).ok_or(DnsWireError::Truncated)?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or(DnsWireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Walks a possibly-compressed name starting at the cursor, handing
    /// each label's raw bytes to `on_label` in order, and leaves the cursor
    /// after the name. Errs on the structural faults only: running out of
    /// bytes, a pointer that does not go strictly backwards or a chain of
    /// more than 16, and the reserved label types.
    fn walk_name(&mut self, mut on_label: impl FnMut(&'a [u8])) -> Result<(), DnsWireError> {
        let mut pos = self.pos;
        let mut jumped = false;
        let mut jumps = 0u32;
        loop {
            let Some(&len) = self.data.get(pos) else {
                return Err(DnsWireError::Truncated);
            };
            match len {
                0 => {
                    pos = pos.saturating_add(1);
                    if !jumped {
                        self.pos = pos;
                    }
                    return Ok(());
                }
                l if l & 0xC0 == 0xC0 => {
                    let Some(&lo) = pos.checked_add(1).and_then(|i| self.data.get(i)) else {
                        return Err(DnsWireError::Truncated);
                    };
                    // The 14-bit pointer target, assembled without a shift.
                    let target = usize::from(u16::from_be_bytes([l & 0x3F, lo]));
                    if !jumped {
                        self.pos = pos.saturating_add(2);
                    }
                    // Pointers must go strictly backwards; cap chain depth.
                    if target >= pos {
                        return Err(DnsWireError::BadPointer);
                    }
                    jumps = jumps.saturating_add(1);
                    if jumps > 16 {
                        return Err(DnsWireError::BadPointer);
                    }
                    pos = target;
                    jumped = true;
                }
                l if l & 0xC0 != 0 => return Err(DnsWireError::BadName),
                l => {
                    let start = pos.saturating_add(1);
                    let end = start.saturating_add(usize::from(l));
                    let Some(bytes) = self.data.get(start..end) else {
                        return Err(DnsWireError::Truncated);
                    };
                    on_label(bytes);
                    pos = end;
                }
            }
        }
    }

    /// Reads a possibly-compressed name starting at the cursor.
    fn take_name(&mut self) -> Result<DomainName, DnsWireError> {
        let mut labels: Vec<String> = Vec::new();
        self.walk_name(|bytes| labels.push(String::from_utf8_lossy(bytes).into_owned()))?;
        DomainName::from_labels(labels).map_err(|_| DnsWireError::BadName)
    }

    /// Walks a name like [`take_name`](Self::take_name) and applies the
    /// checks [`DomainName::from_labels`] applies to the labels
    /// `take_name` would build, without building them. Those labels are
    /// the *lossy UTF-8* renderings, so the limits are measured on
    /// [`lossy_len`]. Returns whether the name is the root.
    fn check_name(&mut self) -> Result<bool, DnsWireError> {
        let mut labels = 0usize;
        let mut encoded_len = 1usize; // trailing root byte
        let mut valid = true;
        self.walk_name(|bytes| {
            let len = lossy_len(bytes);
            // Raw ASCII bytes survive the lossy rendering unchanged, and the
            // replacement character contains neither '.' nor NUL.
            valid &= len <= 63 && !bytes.iter().any(|b| *b == b'.' || *b == 0);
            encoded_len = encoded_len.saturating_add(1).saturating_add(len);
            labels = labels.saturating_add(1);
        })?;
        if !valid || encoded_len > 255 {
            return Err(DnsWireError::BadName);
        }
        Ok(labels == 0)
    }

    fn take_question(&mut self) -> Result<Question, DnsWireError> {
        let name = self.take_name()?;
        let qtype = QType::from_number(self.take_u16()?);
        let qclass = QClass::from_number(self.take_u16()?);
        Ok(Question {
            name,
            qtype,
            qclass,
        })
    }

    /// Decodes one record; OPT records are surfaced separately.
    fn take_record(&mut self) -> Result<DecodedRecord, DnsWireError> {
        let name = self.take_name()?;
        let rtype = QType::from_number(self.take_u16()?);
        let class_num = self.take_u16()?;
        let ttl = self.take_u32()?;
        let rdlen = self.take_u16()? as usize;
        if rtype == QType::OPT {
            if !name.is_root() {
                return Err(DnsWireError::BadOpt);
            }
            let rdata = self.take_slice(rdlen)?;
            let mut options = Vec::new();
            let mut od = Decoder {
                data: rdata,
                pos: 0,
            };
            while od.remaining() >= 4 {
                let code = od.take_u16()?;
                let len = od.take_u16()? as usize;
                let payload = od.take_slice(len)?;
                let opt = if code == EcsOption::CODE {
                    match EcsOption::decode(payload) {
                        Some(e) => EdnsOption::ClientSubnet(e),
                        None => EdnsOption::Other(code, payload.to_vec()),
                    }
                } else {
                    EdnsOption::Other(code, payload.to_vec())
                };
                options.push(opt);
            }
            if od.remaining() != 0 {
                return Err(DnsWireError::BadOpt);
            }
            let [ext_rcode, version, _, _] = ttl.to_be_bytes();
            return Ok(DecodedRecord::Opt(OptRecord {
                udp_size: class_num,
                ext_rcode,
                version,
                options,
            }));
        }
        let rdata_bytes_start = self.pos;
        let rdata_slice = self.take_slice(rdlen)?;
        let rdata = match rtype {
            QType::A => match *rdata_slice {
                [a, b, c, d] => RData::A(Ipv4Addr::new(a, b, c, d)),
                _ => return Err(DnsWireError::BadRdata(rtype)),
            },
            QType::AAAA => {
                if rdlen != 16 {
                    return Err(DnsWireError::BadRdata(rtype));
                }
                let mut o = [0u8; 16];
                o.copy_from_slice(rdata_slice);
                RData::Aaaa(Ipv6Addr::from(o))
            }
            QType::CNAME | QType::NS | QType::PTR | QType::SOA => {
                // Names inside rdata may use compression into the whole
                // message, so re-decode from the message with a sub-cursor.
                let mut sub = Decoder {
                    data: self.data,
                    pos: rdata_bytes_start,
                };
                match rtype {
                    QType::CNAME => RData::Cname(sub.take_name()?),
                    QType::NS => RData::Ns(sub.take_name()?),
                    QType::PTR => RData::Ptr(sub.take_name()?),
                    QType::SOA => {
                        let mname = sub.take_name()?;
                        let rname = sub.take_name()?;
                        let serial = sub.take_u32()?;
                        RData::Soa {
                            mname,
                            rname,
                            serial,
                        }
                    }
                    // The outer match arm admits only the four types above;
                    // erring (not panicking) keeps a hostile rtype harmless.
                    _ => return Err(DnsWireError::BadRdata(rtype)),
                }
            }
            QType::TXT => {
                let mut s = String::new();
                let mut td = Decoder {
                    data: rdata_slice,
                    pos: 0,
                };
                while td.remaining() > 0 {
                    let l = td.take_u8()? as usize;
                    let chunk = td.take_slice(l)?;
                    s.push_str(&String::from_utf8_lossy(chunk));
                }
                RData::Txt(s)
            }
            _ => RData::Raw(rdata_slice.to_vec()),
        };
        Ok(DecodedRecord::Plain(Record {
            name,
            ttl,
            class: QClass::from_number(class_num),
            rdata,
        }))
    }
}

enum DecodedRecord {
    Plain(Record),
    Opt(OptRecord),
}

/// Decodes a wire message. Rejects trailing bytes and duplicate OPT records.
pub fn decode_message(data: &[u8]) -> Result<Message, DnsWireError> {
    let mut d = Decoder { data, pos: 0 };
    let id = d.take_u16()?;
    let b1 = d.take_u8()?;
    let b2 = d.take_u8()?;
    let flags = Flags {
        qr: b1 & 0x80 != 0,
        aa: b1 & 0x04 != 0,
        tc: b1 & 0x02 != 0,
        rd: b1 & 0x01 != 0,
        ra: b2 & 0x80 != 0,
    };
    // The 4-bit header code; an OPT record's extended-rcode bits are kept
    // in `OptRecord::ext_rcode`, since `Rcode` cannot hold them.
    let rcode = Rcode::from_number(b2 & 0x0F);
    let qdcount = d.take_u16()?;
    let ancount = d.take_u16()?;
    let nscount = d.take_u16()?;
    let arcount = d.take_u16()?;
    let mut questions = Vec::with_capacity(qdcount as usize);
    for _ in 0..qdcount {
        questions.push(d.take_question()?);
    }
    let mut answers = Vec::with_capacity(ancount as usize);
    for _ in 0..ancount {
        match d.take_record()? {
            DecodedRecord::Plain(r) => answers.push(r),
            DecodedRecord::Opt(_) => return Err(DnsWireError::BadOpt),
        }
    }
    let mut authority = Vec::with_capacity(nscount as usize);
    for _ in 0..nscount {
        match d.take_record()? {
            DecodedRecord::Plain(r) => authority.push(r),
            DecodedRecord::Opt(_) => return Err(DnsWireError::BadOpt),
        }
    }
    let mut additional = Vec::new();
    let mut edns: Option<OptRecord> = None;
    for _ in 0..arcount {
        match d.take_record()? {
            DecodedRecord::Plain(r) => additional.push(r),
            DecodedRecord::Opt(opt) => {
                if edns.is_some() {
                    return Err(DnsWireError::BadOpt);
                }
                edns = Some(opt);
            }
        }
    }
    if d.remaining() != 0 {
        return Err(DnsWireError::TrailingBytes(d.remaining()));
    }
    Ok(Message {
        id,
        flags,
        rcode,
        questions,
        answers,
        authority,
        additional,
        edns,
    })
}

// ---------------------------------------------------------------- reply view

/// Length of `String::from_utf8_lossy(bytes)`, computed without building
/// it: each maximal invalid sequence becomes one 3-byte U+FFFD.
fn lossy_len(bytes: &[u8]) -> usize {
    let mut len = 0usize;
    for chunk in bytes.utf8_chunks() {
        len = len.saturating_add(chunk.valid().len());
        if !chunk.invalid().is_empty() {
            len = len.saturating_add(char::REPLACEMENT_CHARACTER.len_utf8());
        }
    }
    len
}

/// What [`Decoder::check_record`] found.
enum CheckedRecord {
    /// An ordinary record.
    Plain,
    /// An OPT record, with the scope of its first decodable ECS option.
    Opt { ecs_scope: Option<u8> },
}

impl Decoder<'_> {
    /// Reads past one record, applying every check
    /// [`take_record`](Self::take_record) applies, in the same order.
    fn check_record(&mut self) -> Result<CheckedRecord, DnsWireError> {
        let root = self.check_name()?;
        let rtype = QType::from_number(self.take_u16()?);
        let _class = self.take_u16()?;
        let _ttl = self.take_u32()?;
        let rdlen = usize::from(self.take_u16()?);
        // An OPT owner must be the root, checked before the rdata is read.
        if rtype == QType::OPT && !root {
            return Err(DnsWireError::BadOpt);
        }
        let rdata_start = self.pos;
        let rdata = self.take_slice(rdlen)?;
        if rtype == QType::OPT {
            let mut od = Decoder {
                data: rdata,
                pos: 0,
            };
            let mut ecs_scope = None;
            while od.remaining() >= 4 {
                let code = od.take_u16()?;
                let len = usize::from(od.take_u16()?);
                let payload = od.take_slice(len)?;
                if code == EcsOption::CODE && ecs_scope.is_none() {
                    ecs_scope = EcsOption::decode(payload).map(|e| e.scope_len);
                }
            }
            if od.remaining() != 0 {
                return Err(DnsWireError::BadOpt);
            }
            return Ok(CheckedRecord::Opt { ecs_scope });
        }
        match rtype {
            QType::A if rdlen != 4 => return Err(DnsWireError::BadRdata(rtype)),
            QType::AAAA if rdlen != 16 => return Err(DnsWireError::BadRdata(rtype)),
            QType::CNAME | QType::NS | QType::PTR | QType::SOA => {
                // As in `take_record`: names inside rdata are read from the
                // whole message, so they may run past the rdlength.
                let mut sub = Decoder {
                    data: self.data,
                    pos: rdata_start,
                };
                sub.check_name()?;
                if rtype == QType::SOA {
                    sub.check_name()?;
                    sub.take_u32()?;
                }
            }
            QType::TXT => {
                let mut td = Decoder {
                    data: rdata,
                    pos: 0,
                };
                while td.remaining() > 0 {
                    let l = usize::from(td.take_u8()?);
                    td.take_slice(l)?;
                }
            }
            _ => {}
        }
        Ok(CheckedRecord::Plain)
    }
}

/// A borrowed, validating view of a DNS reply: what the ECS scan reads
/// from each reply, taken from the wire bytes without building a
/// [`Message`].
///
/// [`ReplyView::parse`] walks the reply once and applies every check
/// [`decode_message`] applies, so it errs exactly when the decoder errs,
/// with the same [`DnsWireError`]. It allocates nothing. `decode_message`
/// is its oracle: `tests/prop_wire.rs` compares the two on real replies
/// and their mutations.
#[derive(Debug, Clone, Copy)]
pub struct ReplyView<'a> {
    data: &'a [u8],
    rcode: Rcode,
    ecs_scope: Option<u8>,
    /// Offset of the answer section.
    answers_start: usize,
    ancount: u16,
}

impl<'a> ReplyView<'a> {
    /// Validates `data` as one DNS message and keeps what the scan reads.
    pub fn parse(data: &'a [u8]) -> Result<ReplyView<'a>, DnsWireError> {
        let mut d = Decoder { data, pos: 0 };
        let _id = d.take_u16()?;
        let _b1 = d.take_u8()?;
        let b2 = d.take_u8()?;
        let qdcount = d.take_u16()?;
        let ancount = d.take_u16()?;
        let nscount = d.take_u16()?;
        let arcount = d.take_u16()?;
        for _ in 0..qdcount {
            d.check_name()?;
            d.take_u16()?;
            d.take_u16()?;
        }
        let answers_start = d.pos;
        // OPT belongs in the additional section only.
        for _ in 0..ancount {
            if let CheckedRecord::Opt { .. } = d.check_record()? {
                return Err(DnsWireError::BadOpt);
            }
        }
        for _ in 0..nscount {
            if let CheckedRecord::Opt { .. } = d.check_record()? {
                return Err(DnsWireError::BadOpt);
            }
        }
        let mut opt_seen = false;
        let mut ecs_scope = None;
        for _ in 0..arcount {
            if let CheckedRecord::Opt { ecs_scope: scope } = d.check_record()? {
                if opt_seen {
                    return Err(DnsWireError::BadOpt);
                }
                opt_seen = true;
                ecs_scope = scope;
            }
        }
        if d.remaining() != 0 {
            return Err(DnsWireError::TrailingBytes(d.remaining()));
        }
        Ok(ReplyView {
            data,
            rcode: Rcode::from_number(b2 & 0x0F),
            ecs_scope,
            answers_start,
            ancount,
        })
    }

    /// The response code (the header's 4 bits, as [`Message::rcode`]).
    pub fn rcode(&self) -> Rcode {
        self.rcode
    }

    /// The scope of the OPT record's first decodable ECS option — the one
    /// [`OptRecord::ecs`] returns.
    pub fn ecs_scope(&self) -> Option<u8> {
        self.ecs_scope
    }

    /// The answer section's A records in order, as
    /// [`Message::a_answers`] lists them. Re-reads the section `parse`
    /// validated.
    pub fn answers_v4(&self) -> AnswersV4<'a> {
        AnswersV4 {
            d: Decoder {
                data: self.data,
                pos: self.answers_start,
            },
            left: self.ancount,
        }
    }
}

/// Iterator over a [`ReplyView`]'s A answers.
#[derive(Debug, Clone)]
pub struct AnswersV4<'a> {
    d: Decoder<'a>,
    left: u16,
}

impl Iterator for AnswersV4<'_> {
    type Item = Ipv4Addr;

    fn next(&mut self) -> Option<Ipv4Addr> {
        while self.left > 0 {
            self.left = self.left.saturating_sub(1);
            // `ReplyView::parse` validated every record, so none of these
            // reads fails; a failure would end the iteration.
            self.d.walk_name(|_| {}).ok()?;
            let rtype = self.d.take_u16().ok()?;
            self.d.take_slice(6).ok()?; // class, TTL
            let rdlen = usize::from(self.d.take_u16().ok()?);
            let rdata = self.d.take_slice(rdlen).ok()?;
            if let (QType::A, [a, b, c, d]) = (QType::from_number(rtype), rdata) {
                return Some(Ipv4Addr::new(*a, *b, *c, *d));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edns::EcsOption;
    use crate::name::{mask_domain, mask_h2_domain};

    fn round_trip(m: &Message) -> Message {
        decode_message(&encode_message(m)).expect("round trip")
    }

    #[test]
    fn minimal_query_round_trips() {
        let q = Message::query(0xBEEF, mask_domain(), QType::A);
        let back = round_trip(&q);
        assert_eq!(back, q);
    }

    #[test]
    fn ecs_query_round_trips() {
        let mut q = Message::query(1, mask_domain(), QType::A);
        q.edns
            .as_mut()
            .unwrap()
            .set_ecs(EcsOption::for_v4_net("100.64.3.0/24".parse().unwrap()));
        let back = round_trip(&q);
        assert_eq!(
            back.edns.as_ref().unwrap().ecs(),
            q.edns.as_ref().unwrap().ecs()
        );
    }

    #[test]
    fn response_with_many_answers_round_trips() {
        let q = Message::query(2, mask_domain(), QType::A);
        let mut r = q.response_to(Rcode::NoError);
        for i in 0..8 {
            r.answers.push(Record::new(
                mask_domain(),
                60,
                RData::A(Ipv4Addr::new(17, 0, 0, i + 1)),
            ));
        }
        let back = round_trip(&r);
        assert_eq!(back.a_answers().len(), 8);
        assert_eq!(back, r);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::query(3, mask_domain(), QType::A);
        let mut r = q.response_to(Rcode::NoError);
        for i in 0..8 {
            r.answers.push(Record::new(
                mask_domain(),
                60,
                RData::A(Ipv4Addr::new(17, 0, 0, i + 1)),
            ));
        }
        let bytes = encode_message(&r);
        // Uncompressed, each of the 8+1 extra names costs 17 bytes; with
        // pointers each repeated owner name costs 2.
        assert!(
            bytes.len() < 200,
            "message unexpectedly large: {}",
            bytes.len()
        );
    }

    #[test]
    fn cname_chain_round_trips() {
        let q = Message::query(4, mask_h2_domain(), QType::A);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record::new(
            mask_h2_domain(),
            300,
            RData::Cname("mask-h2.g.aaplimg.com".parse().unwrap()),
        ));
        r.answers.push(Record::new(
            "mask-h2.g.aaplimg.com".parse().unwrap(),
            60,
            RData::A(Ipv4Addr::new(17, 5, 6, 7)),
        ));
        assert_eq!(round_trip(&r), r);
    }

    #[test]
    fn soa_txt_ptr_round_trip() {
        let q = Message::query(5, "icloud.com".parse().unwrap(), QType::SOA);
        let mut r = q.response_to(Rcode::NoError);
        r.authority.push(Record::new(
            "icloud.com".parse().unwrap(),
            900,
            RData::Soa {
                mname: "ns1.icloud.com".parse().unwrap(),
                rname: "hostmaster.apple.com".parse().unwrap(),
                serial: 20_220_401,
            },
        ));
        r.additional.push(Record::new(
            "whoami.akamai.net".parse().unwrap(),
            0,
            RData::Txt("resolver=8.8.8.8".into()),
        ));
        r.additional.push(Record::new(
            "1.0.0.127.in-addr.arpa".parse().unwrap(),
            0,
            RData::Ptr("localhost".parse().unwrap()),
        ));
        assert_eq!(round_trip(&r), r);
    }

    #[test]
    fn aaaa_round_trips() {
        let q = Message::query(6, mask_domain(), QType::AAAA);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record::new(
            mask_domain(),
            60,
            RData::Aaaa("2620:149:a44:4000::7".parse().unwrap()),
        ));
        assert_eq!(round_trip(&r), r);
    }

    #[test]
    fn rcode_survives_round_trip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::Refused,
        ] {
            let q = Message::query(7, mask_domain(), QType::A);
            let r = q.response_to(rc);
            assert_eq!(round_trip(&r).rcode, rc, "rcode {rc}");
        }
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let q = Message::query(8, mask_domain(), QType::A);
        let bytes = encode_message(&q);
        for cut in 0..bytes.len() {
            let res = decode_message(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let q = Message::query(9, mask_domain(), QType::A);
        let mut bytes = encode_message(&q);
        bytes.push(0);
        assert!(matches!(
            decode_message(&bytes),
            Err(DnsWireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn forward_pointer_rejected() {
        // Hand-crafted message whose question name points forward.
        let mut bytes = vec![
            0, 1, // id
            0, 0, // flags
            0, 1, 0, 0, 0, 0, 0, 0, // counts: 1 question
            0xC0, 0x20, // pointer to offset 32 (forward)
        ];
        bytes.extend_from_slice(&[0, 1, 0, 1]); // qtype/qclass
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn pointer_loop_rejected() {
        // Name at offset 12 pointing to itself.
        let bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1];
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn opt_in_answer_section_rejected() {
        // Craft: header with ancount=1, then an OPT record as an answer.
        let q = Message::query(1, mask_domain(), QType::A);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record::new(
            mask_domain(),
            60,
            RData::A(Ipv4Addr::LOCALHOST),
        ));
        let mut bytes = encode_message(&r);
        // Rewrite the answer's TYPE (bytes after the compressed owner name).
        // Find the answer record: it's after the question. This is fragile by
        // construction, so instead decode-modify-encode is avoided and we
        // locate the 2-byte type field: last record before OPT... simpler:
        // set ancount=2 duplicating OPT placement is overkill — craft directly.
        bytes.clear();
        bytes.extend_from_slice(&[
            0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, // header: 1 answer
            0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 0, // root OPT record, rdlen 0
        ]);
        assert!(matches!(decode_message(&bytes), Err(DnsWireError::BadOpt)));
    }

    #[test]
    fn duplicate_opt_rejected() {
        let q = Message::query(1, mask_domain(), QType::A);
        let mut bytes = encode_message(&q);
        // Append a second OPT record and bump arcount.
        bytes.extend_from_slice(&[0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 0]);
        bytes[11] = 2; // arcount low byte
        assert!(matches!(decode_message(&bytes), Err(DnsWireError::BadOpt)));
    }

    #[test]
    fn extended_rcode_bits_leave_the_header_rcode() {
        // An OPT record's nonzero extended-rcode byte does not change the
        // decoded rcode: `Rcode` holds the header's 4 bits only.
        let q = Message::query(1, mask_domain(), QType::A);
        let mut r = q.response_to(Rcode::NxDomain);
        r.edns.as_mut().unwrap().ext_rcode = 0x0F;
        let bytes = encode_message(&r);
        let back = decode_message(&bytes).unwrap();
        assert_eq!(back.rcode, Rcode::NxDomain);
        assert_eq!(back.edns.unwrap().ext_rcode, 0x0F);
        assert_eq!(ReplyView::parse(&bytes).unwrap().rcode(), Rcode::NxDomain);
    }

    #[test]
    fn case_preserved_through_wire() {
        let name: DomainName = "MaSk.iCloud.Com".parse().unwrap();
        let q = Message::query(1, name.clone(), QType::A);
        let back = round_trip(&q);
        assert_eq!(back.question().unwrap().name.to_string(), "MaSk.iCloud.Com");
    }

    #[test]
    fn unknown_type_rdata_raw() {
        let mut q = Message::query(1, mask_domain(), QType::Other(999));
        q.flags.rd = false;
        let back = round_trip(&q);
        assert_eq!(back.question().unwrap().qtype, QType::Other(999));
    }
}
