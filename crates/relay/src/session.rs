//! The CONNECT-UDP session layer: ingress admission, a `SessionTable` at
//! the egress, and per-session traffic counters (§4).
//!
//! [`masque`](crate::masque) holds the CONNECT codec and the token issuer;
//! this module is the data plane behind them. An [`IngressNode`] terminates
//! the outer connection and validates the blinded token (it never parses
//! the inner CONNECT). An [`EgressNode`] keeps a [`SessionTable`]: it
//! parses the CONNECT, maps the advertised geohash cell to a represented
//! country, draws a per-connection address from the cell's small egress
//! pool ([`EgressSelector::draw`]), and echoes datagrams back. The client
//! [`Device`](crate::client::Device) runs the same admission, CONNECT and
//! draw for each request. Every datagram payload crossing the tunnel is a
//! fixed 16-byte sealed record, so any fault-injected truncation or
//! corruption is *detectably* invalid at the egress and lands in the
//! session's drop counter — the conservation ledger the chaos harness
//! reconciles against.
//!
//! Determinism contract: a node's behaviour is a pure function of its
//! construction seed and the sequence of calls it receives. All
//! per-session randomness is re-derived via `SimRng::fork_indexed` keyed
//! by session id, never drawn from a shared stream, so the sharded engine
//! can replay sessions on any worker count with byte-identical reports.

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, SimDuration, SimTime};
use tectonic_quic::capsule::{
    datagram_capsule, decode_capsule, decode_datagram, encode_capsule, encode_datagram,
    open_datagram_capsule, udp_datagram, CONTEXT_UDP_PAYLOAD,
};

use crate::egress::{cell_country, EgressSelector};
use crate::masque::{parse_connect, AccessToken, MasqueError, TokenError, TokenIssuer, Transport};

/// Magic prefix of every sealed datagram payload ("MQUD").
pub const DATAGRAM_MAGIC: u32 = 0x4D51_5544;

/// Sealed payload length: magic (4) + sequence (4) + session id (8).
pub const SEALED_LEN: usize = 16;

/// How many addresses one geohash cell's egress pool holds. Three gives
/// the paper's ~66 % consecutive-request rotation rate (1 − 1/3).
pub const CELL_POOL_SIZE: usize = 3;

/// Seals a datagram payload: a fixed-shape record whose magic, length and
/// embedded session id make any wire damage detectable at the egress.
pub fn seal_payload(session_id: u64, seq: u32) -> [u8; SEALED_LEN] {
    let mut out = [0u8; SEALED_LEN];
    out[..4].copy_from_slice(&DATAGRAM_MAGIC.to_be_bytes());
    out[4..8].copy_from_slice(&seq.to_be_bytes());
    out[8..].copy_from_slice(&session_id.to_be_bytes());
    out
}

/// Opens a sealed payload, returning `(session_id, seq)`; `None` on any
/// length, magic or shape violation.
pub fn open_payload(bytes: &[u8]) -> Option<(u64, u32)> {
    if bytes.len() != SEALED_LEN {
        return None;
    }
    let magic = u32::from_be_bytes(bytes.get(..4)?.try_into().ok()?);
    if magic != DATAGRAM_MAGIC {
        return None;
    }
    let seq = u32::from_be_bytes(bytes.get(4..8)?.try_into().ok()?);
    let session_id = u64::from_be_bytes(bytes.get(8..)?.try_into().ok()?);
    Some((session_id, seq))
}

/// Frames a sealed payload for the wire: a bare context-0 HTTP Datagram on
/// QUIC, a DATAGRAM capsule on the TCP fallback.
pub fn frame_datagram(payload: &[u8], transport: Transport) -> Vec<u8> {
    let datagram = udp_datagram(payload);
    match transport {
        // Encoding only fails beyond the varint range; context 0 and a
        // short payload are always in range.
        Transport::Quic => encode_datagram(&datagram).unwrap_or_default(),
        Transport::TcpFallback => datagram_capsule(&datagram)
            .and_then(|c| encode_capsule(&c))
            .unwrap_or_default(),
    }
}

/// Unframes a wire buffer back to the inner payload, or `None` when the
/// framing (or context id) is invalid for the transport.
pub fn unframe_datagram(wire: &[u8], transport: Transport) -> Option<Vec<u8>> {
    let datagram = match transport {
        Transport::Quic => decode_datagram(wire).ok()?,
        Transport::TcpFallback => {
            let (capsule, used) = decode_capsule(wire).ok()?;
            if used != wire.len() {
                return None;
            }
            open_datagram_capsule(&capsule)?
        }
    };
    if datagram.context_id != CONTEXT_UDP_PAYLOAD {
        return None;
    }
    Some(datagram.payload)
}

/// Traffic counters for one session.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SessionCounters {
    /// Valid datagrams the egress received from the client side.
    pub datagrams_in: u64,
    /// Reply datagrams the egress sent back.
    pub datagrams_out: u64,
    /// Datagrams that arrived damaged (bad framing, magic, length or
    /// session id) and were dropped at the egress.
    pub drops: u64,
    /// 1 when this session's address differs from the same client chain's
    /// previous session (the §4.3 rotation event), else 0.
    pub rotations: u64,
    /// When the session opened.
    pub opened_at: SimTime,
    /// When the session closed (`None` while active).
    pub closed_at: Option<SimTime>,
}

impl SessionCounters {
    fn new(opened_at: SimTime, rotated: bool) -> SessionCounters {
        SessionCounters {
            datagrams_in: 0,
            datagrams_out: 0,
            drops: 0,
            rotations: u64::from(rotated),
            opened_at,
            closed_at: None,
        }
    }

    /// Open-to-close lifetime; `None` while the session is active.
    pub fn lifetime(&self) -> Option<SimDuration> {
        self.closed_at.map(|c| c.since(self.opened_at))
    }
}

/// The final record of one session, emitted at close.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SessionReport {
    /// The session id (unique across the load test).
    pub session_id: u64,
    /// The chain key linking consecutive sessions of one client agent.
    pub chain: u64,
    /// The egress operator that served the session.
    pub operator: Asn,
    /// The egress address the target observed.
    pub addr: IpAddr,
    /// The represented country derived from the advertised geohash.
    pub cc: CountryCode,
    /// Transport the session rode.
    pub transport: Transport,
    /// Traffic counters.
    pub counters: SessionCounters,
}

/// What the egress returns when a session opens.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionAccept {
    /// The per-connection egress address drawn from the cell pool.
    pub addr: IpAddr,
    /// The represented country the geohash mapped to.
    pub cc: CountryCode,
}

/// Outcome of one datagram at the egress.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DatagramOutcome {
    /// The datagram was valid; the egress echoes this reply wire.
    Reply(Vec<u8>),
    /// The datagram was damaged and dropped (counted on the session).
    Dropped,
    /// No session with that id is active.
    Unknown,
}

/// The ingress hop: terminates the outer connection and enforces token
/// admission. It holds the issuer ledger but never sees the inner CONNECT.
#[derive(Debug)]
pub struct IngressNode {
    /// The ingress address clients connect to.
    pub addr: IpAddr,
    issuer: TokenIssuer,
    /// Sessions admitted (token issued and validated).
    pub accepted: u64,
    /// Sessions rejected (budget exhausted or invalid token).
    pub rejected: u64,
}

impl IngressNode {
    /// An ingress with its own issuer ledger and per-user daily budget.
    pub fn new(addr: IpAddr, per_day: u32) -> IngressNode {
        IngressNode {
            addr,
            issuer: TokenIssuer::new(per_day),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Admits one session attempt for `user`: issues a token against the
    /// daily budget and validates it, counting the outcome either way.
    pub fn admit(&mut self, user: u64, now: SimTime) -> Result<AccessToken, TokenError> {
        let outcome = self.issuer.admit(user, now);
        if outcome.is_ok() {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
        outcome
    }
}

/// One active session at the egress.
#[derive(Clone, Debug)]
struct SessionEntry {
    chain: u64,
    operator: Asn,
    addr: IpAddr,
    cc: CountryCode,
    transport: Transport,
    counters: SessionCounters,
}

/// Active sessions keyed by session id.
///
/// A `BTreeMap` keeps iteration (and therefore any derived report order)
/// deterministic regardless of insertion history.
#[derive(Debug, Default)]
pub struct SessionTable {
    entries: BTreeMap<u64, SessionEntry>,
    /// Peak number of simultaneously active sessions.
    peak: usize,
}

impl SessionTable {
    /// Number of currently active sessions.
    pub fn active(&self) -> usize {
        self.entries.len()
    }

    /// Peak number of simultaneously active sessions seen so far.
    pub fn peak(&self) -> usize {
        self.peak
    }

    fn insert(&mut self, id: u64, entry: SessionEntry) {
        self.entries.insert(id, entry);
        self.peak = self.peak.max(self.entries.len());
    }
}

/// The egress hop: parses CONNECTs, owns the [`SessionTable`], draws
/// per-connection addresses from geohash-cell pools and echoes datagrams.
pub struct EgressNode {
    selector: Arc<EgressSelector>,
    seed: u64,
    table: SessionTable,
    /// Closed-session reports in close order.
    reports: Vec<SessionReport>,
    /// Last address served per client chain, for rotation accounting.
    last_addr: BTreeMap<u64, IpAddr>,
    /// Geohash → represented country, memoised (the centroid search is a
    /// full table scan).
    cc_cache: BTreeMap<String, CountryCode>,
    /// Datagrams for unknown session ids (late arrivals after close).
    pub strays: u64,
}

impl EgressNode {
    /// An egress node drawing addresses from `selector`, seeded so that
    /// per-session draws are reproducible on any shard.
    pub fn new(selector: Arc<EgressSelector>, seed: u64) -> EgressNode {
        EgressNode {
            selector,
            seed,
            table: SessionTable::default(),
            reports: Vec::new(),
            last_addr: BTreeMap::new(),
            cc_cache: BTreeMap::new(),
            strays: 0,
        }
    }

    /// The session table (active counts, peak concurrency).
    pub fn table(&self) -> &SessionTable {
        &self.table
    }

    fn cc_for_geohash(&mut self, hash: &str) -> CountryCode {
        if let Some(cc) = self.cc_cache.get(hash) {
            return *cc;
        }
        let cc = cell_country(hash);
        self.cc_cache.insert(hash.to_string(), cc);
        cc
    }

    /// Opens a session: parses the inner CONNECT, maps its geohash to a
    /// represented country and draws this connection's address from the
    /// cell's pool. `chain` links consecutive sessions of one client agent
    /// for rotation accounting (an opaque key — the egress still never
    /// learns the client address).
    pub fn open(
        &mut self,
        session_id: u64,
        chain: u64,
        operator: Asn,
        connect_wire: &[u8],
        transport: Transport,
        now: SimTime,
    ) -> Result<SessionAccept, MasqueError> {
        let (_authority, hash) = parse_connect(connect_wire)?;
        let cc = self.cc_for_geohash(&hash);
        let addr = self
            .selector
            .draw(operator, cc, &hash, self.seed, session_id)
            .ok_or(MasqueError::BadConnect)?
            .addr;
        let rotated = self
            .last_addr
            .insert(chain, addr)
            .is_some_and(|prev| prev != addr);
        self.table.insert(
            session_id,
            SessionEntry {
                chain,
                operator,
                addr,
                cc,
                transport,
                counters: SessionCounters::new(now, rotated),
            },
        );
        Ok(SessionAccept { addr, cc })
    }

    /// Handles one datagram arriving from the client side. Valid sealed
    /// payloads (matching session id) are echoed; anything damaged in
    /// flight is dropped and counted on the session.
    pub fn datagram(&mut self, session_id: u64, wire: &[u8]) -> DatagramOutcome {
        let Some(entry) = self.table.entries.get_mut(&session_id) else {
            self.strays += 1;
            return DatagramOutcome::Unknown;
        };
        let valid = unframe_datagram(wire, entry.transport)
            .and_then(|payload| open_payload(&payload))
            .filter(|(sid, _)| *sid == session_id);
        match valid {
            Some((_, seq)) => {
                entry.counters.datagrams_in += 1;
                entry.counters.datagrams_out += 1;
                let reply = frame_datagram(&seal_payload(session_id, seq), entry.transport);
                DatagramOutcome::Reply(reply)
            }
            None => {
                entry.counters.drops += 1;
                DatagramOutcome::Dropped
            }
        }
    }

    /// Closes a session and records its report. Unknown ids return `None`.
    pub fn close(&mut self, session_id: u64, now: SimTime) -> Option<SessionReport> {
        let mut entry = self.table.entries.remove(&session_id)?;
        entry.counters.closed_at = Some(now);
        let report = SessionReport {
            session_id,
            chain: entry.chain,
            operator: entry.operator,
            addr: entry.addr,
            cc: entry.cc,
            transport: entry.transport,
            counters: entry.counters,
        };
        self.reports.push(report.clone());
        Some(report)
    }

    /// Consumes the node, yielding all closed-session reports sorted by
    /// session id (a canonical order for cross-run comparison).
    pub fn into_reports(mut self) -> Vec<SessionReport> {
        self.reports.sort_by_key(|r| r.session_id);
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_geo::city::CityUniverse;
    use tectonic_geo::country::nearest_country;
    use tectonic_geo::egress::{generate, OperatorEgressSpec};
    use tectonic_geo::geohash;
    use tectonic_net::SimRng;

    fn selector() -> Arc<EgressSelector> {
        let mut specs = OperatorEgressSpec::paper_defaults();
        for s in &mut specs {
            for (_, c) in &mut s.v4_mask_plan {
                *c /= 40;
            }
            s.v6_subnets /= 40;
            s.cities_v4 /= 20;
            s.cities_v6 /= 20;
        }
        let universe = CityUniverse::generate(&mut SimRng::new(1), 8_000);
        let (list, footprints) = generate(&SimRng::new(2), &universe, &specs, 1.0);
        Arc::new(EgressSelector::build(&list, &footprints, 77))
    }

    fn connect_wire() -> Vec<u8> {
        crate::masque::build_connect("ipecho.example.net:80", "9q8y")
    }

    #[test]
    fn sealed_payloads_round_trip_and_reject_damage() {
        let sealed = seal_payload(77, 3);
        assert_eq!(open_payload(&sealed), Some((77, 3)));
        // Truncation, extension and magic damage are all detected.
        assert_eq!(open_payload(&sealed[..15]), None);
        let mut long = sealed.to_vec();
        long.push(0);
        assert_eq!(open_payload(&long), None);
        let mut bad = sealed;
        bad[0] ^= 0xFF;
        assert_eq!(open_payload(&bad), None);
    }

    #[test]
    fn framing_round_trips_on_both_transports() {
        for transport in [Transport::Quic, Transport::TcpFallback] {
            let sealed = seal_payload(9, 1);
            let wire = frame_datagram(&sealed, transport);
            assert_eq!(unframe_datagram(&wire, transport).unwrap(), sealed);
        }
        // Transport mismatch fails to unframe rather than mis-decoding:
        // a capsule wire is not a valid context-0 datagram and vice versa.
        let sealed = seal_payload(9, 1);
        let capsule_wire = frame_datagram(&sealed, Transport::TcpFallback);
        assert_ne!(
            unframe_datagram(&capsule_wire, Transport::Quic)
                .and_then(|p| open_payload(&p))
                .map(|(sid, _)| sid),
            Some(9)
        );
    }

    #[test]
    fn ingress_admission_counts_and_enforces_budget() {
        let mut ingress = IngressNode::new("172.240.0.1".parse().unwrap(), 2);
        let now = SimTime::from_ymd(2022, 5, 10);
        assert!(ingress.admit(7, now).is_ok());
        assert!(ingress.admit(7, now).is_ok());
        assert_eq!(ingress.admit(7, now), Err(TokenError::DailyBudgetExhausted));
        assert_eq!(ingress.accepted, 2);
        assert_eq!(ingress.rejected, 1);
    }

    #[test]
    fn session_lifecycle_counts_traffic() {
        let mut egress = EgressNode::new(selector(), 42);
        let now = SimTime::from_ymd(2022, 5, 10);
        let accept = egress
            .open(
                1,
                500,
                Asn::CLOUDFLARE,
                &connect_wire(),
                Transport::Quic,
                now,
            )
            .unwrap();
        assert_eq!(egress.table().active(), 1);
        // Two good datagrams echo; a corrupted one drops.
        for seq in 0..2u32 {
            let wire = frame_datagram(&seal_payload(1, seq), Transport::Quic);
            let DatagramOutcome::Reply(reply) = egress.datagram(1, &wire) else {
                panic!("expected echo");
            };
            let payload = unframe_datagram(&reply, Transport::Quic).unwrap();
            assert_eq!(open_payload(&payload), Some((1, seq)));
        }
        let mut bad = frame_datagram(&seal_payload(1, 9), Transport::Quic);
        bad[2] ^= 0x40;
        assert_eq!(egress.datagram(1, &bad), DatagramOutcome::Dropped);
        let close_at = now + SimDuration::from_secs(30);
        let report = egress.close(1, close_at).unwrap();
        assert_eq!(report.counters.datagrams_in, 2);
        assert_eq!(report.counters.datagrams_out, 2);
        assert_eq!(report.counters.drops, 1);
        assert_eq!(report.counters.lifetime(), Some(SimDuration::from_secs(30)));
        assert_eq!(report.addr, accept.addr);
        assert_eq!(egress.table().active(), 0);
        assert_eq!(egress.table().peak(), 1);
        // Late datagrams after close are strays, not session traffic.
        let late = frame_datagram(&seal_payload(1, 10), Transport::Quic);
        assert_eq!(egress.datagram(1, &late), DatagramOutcome::Unknown);
        assert_eq!(egress.strays, 1);
    }

    #[test]
    fn a_datagram_for_the_wrong_session_is_dropped() {
        let mut egress = EgressNode::new(selector(), 42);
        let now = SimTime::from_ymd(2022, 5, 10);
        egress
            .open(
                1,
                500,
                Asn::CLOUDFLARE,
                &connect_wire(),
                Transport::Quic,
                now,
            )
            .unwrap();
        // A valid sealed payload for session 2 arriving on session 1 (a
        // mis-routed or replayed datagram) must not echo.
        let wire = frame_datagram(&seal_payload(2, 0), Transport::Quic);
        assert_eq!(egress.datagram(1, &wire), DatagramOutcome::Dropped);
    }

    #[test]
    fn rotation_links_consecutive_sessions_of_one_chain() {
        let mut egress = EgressNode::new(selector(), 42);
        let now = SimTime::from_ymd(2022, 5, 10);
        let chain = 500;
        let mut rotations = 0u64;
        let mut prev: Option<IpAddr> = None;
        for sid in 1..=200 {
            let accept = egress
                .open(
                    sid,
                    chain,
                    Asn::CLOUDFLARE,
                    &connect_wire(),
                    Transport::Quic,
                    now,
                )
                .unwrap();
            let report = egress.close(sid, now).unwrap();
            let expect = prev.is_some_and(|p| p != accept.addr);
            assert_eq!(report.counters.rotations, u64::from(expect), "sid {sid}");
            rotations += report.counters.rotations;
            prev = Some(accept.addr);
        }
        // Pool of 3 ⇒ expected rotation rate 2/3; allow a generous band.
        let rate = rotations as f64 / 199.0;
        assert!((0.5..0.85).contains(&rate), "rotation rate {rate:.3}");
    }

    #[test]
    fn open_rejects_garbage_connects() {
        let mut egress = EgressNode::new(selector(), 42);
        let now = SimTime::from_ymd(2022, 5, 10);
        let err = egress.open(1, 0, Asn::CLOUDFLARE, &[0xFF, 0x01], Transport::Quic, now);
        assert_eq!(err.unwrap_err(), MasqueError::BadConnect);
        assert_eq!(egress.table().active(), 0);
    }

    #[test]
    fn geohash_maps_to_the_nearest_country_and_its_pool() {
        let mut egress = EgressNode::new(selector(), 42);
        let now = SimTime::from_ymd(2022, 5, 10);
        // "u281" ≈ Munich ⇒ a central-European represented location.
        let wire = crate::masque::build_connect("x:443", "u281");
        let accept = egress
            .open(1, 0, Asn::CLOUDFLARE, &wire, Transport::Quic, now)
            .unwrap();
        let cell = geohash::decode("u281").unwrap();
        let expected = nearest_country(cell.lat, cell.lon).code;
        assert_eq!(accept.cc, expected);
        // Centroid matching at geohash-4 granularity may land on a small
        // neighbour (Liechtenstein's centroid is nearer to Munich than
        // Germany's) — any central-European code is a correct mapping.
        assert!(["DE", "AT", "CH", "CZ", "LI"].contains(&expected.as_str()));
        // The drawn address belongs to the cell's pool.
        let pool = selector().geohash_pool(Asn::CLOUDFLARE, expected, "u281", CELL_POOL_SIZE);
        assert!(pool.iter().any(|(_, addr)| *addr == accept.addr));
    }

    #[test]
    fn reports_are_sorted_by_session_id() {
        let mut egress = EgressNode::new(selector(), 42);
        let now = SimTime::from_ymd(2022, 5, 10);
        for sid in [5u64, 1, 3] {
            egress
                .open(
                    sid,
                    sid,
                    Asn::CLOUDFLARE,
                    &connect_wire(),
                    Transport::Quic,
                    now,
                )
                .unwrap();
        }
        for sid in [3u64, 5, 1] {
            egress.close(sid, now).unwrap();
        }
        let ids: Vec<u64> = egress.into_reports().iter().map(|r| r.session_id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }
}
