//! The client-device model (the authors' MacBook).
//!
//! §3's through-relay scans run two agents — Safari and curl — every five
//! minutes (later 30 s) from a macOS device, in two DNS configurations:
//!
//! * **open** — the ingress address comes from a live resolution of
//!   `mask.icloud.com` against the authoritative server,
//! * **fixed** — a local unbound zone pins the ingress to a chosen address
//!   (used to test arbitrary addresses from the ECS scan results).
//!
//! A [`Device`] issues [`ClientRequest`]s that record what each observer
//! sees: the ingress address (visible to the client's ISP) and the egress
//! address (visible to the target server). Each request runs the steps the
//! §4 session storm runs — token admission, the inner CONNECT and the
//! egress's per-connection draw from its geohash cell's pool — so Figure 3,
//! the rotation series and the storm share one egress selector. Appendix
//! B's extra *management connection* into the configured ingress prefix is
//! modelled too.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use parking_lot::Mutex;
use tectonic_dns::server::{NameServer, QueryContext};
use tectonic_dns::{decode_message, encode_message, Message, QType};
use tectonic_net::{Asn, Ipv4Net, SimTime};

use tectonic_geo::country::CountryCode;

use crate::config::Domain;
use crate::egress::{cell_country, EgressSelection, EgressSelector};
use crate::ingress::IngressFleets;
use crate::masque::{
    build_connect, client_cell, parse_connect, EgressView, IngressView, MasqueError, MasqueSession,
    TokenIssuer, Transport,
};

/// How the device resolves the mask domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DnsMode {
    /// Live resolution against the authoritative servers.
    Open,
    /// A local zone pins the ingress to this address (the unbound setup).
    Fixed(Ipv4Addr),
}

/// Which user agent issued the request (the paper runs both in parallel).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestAgent {
    /// `curl http://ipecho.net/plain`-style fetch.
    Curl,
    /// Safari opening the observation web server.
    Safari,
}

/// One request through the relay, with everything each vantage point sees.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientRequest {
    /// The agent that issued the request.
    pub agent: RequestAgent,
    /// When it was issued.
    pub time: SimTime,
    /// Ingress address the connection entered through (ISP-visible).
    pub ingress: IpAddr,
    /// Operator of the ingress address.
    pub ingress_asn: Option<Asn>,
    /// The egress selection (target-server-visible).
    pub egress: EgressSelection,
    /// The established MASQUE session (per-hop views, transport).
    pub session: MasqueSession,
}

/// Errors a relay connection attempt can hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnectError {
    /// DNS resolution for the mask domain failed or timed out.
    DnsFailed,
    /// The configured/resolved address is not an ingress relay.
    NotAnIngress(IpAddr),
    /// No egress operator, or no egress address, serves the client's
    /// location.
    NoEgressAvailable,
    /// The MASQUE layer refused the session (token budget, bad CONNECT).
    Masque(MasqueError),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::DnsFailed => write!(f, "mask domain resolution failed"),
            ConnectError::NotAnIngress(a) => write!(f, "{a} is not an ingress relay"),
            ConnectError::NoEgressAvailable => write!(f, "no egress presence at location"),
            ConnectError::Masque(e) => write!(f, "MASQUE: {e}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// The resolver the relay's oblivious DoH uses (Appendix B identifies
/// Cloudflare's public resolver).
pub const ODOH_RESOLVER: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

/// A macOS-like device with iCloud Private Relay enabled.
pub struct Device {
    addr: Ipv4Addr,
    cc: CountryCode,
    dns_mode: DnsMode,
    fleets: Arc<IngressFleets>,
    selector: Arc<EgressSelector>,
    issuer: Arc<TokenIssuer>,
    /// Whether the network blocks UDP (forces the HTTP/2 fallback).
    udp_blocked: bool,
    connection_counter: Mutex<u64>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("addr", &self.addr)
            .field("cc", &self.cc)
            .field("dns_mode", &self.dns_mode)
            .finish()
    }
}

impl Device {
    /// Creates a device at `addr` (country `cc`).
    pub fn new(
        addr: Ipv4Addr,
        cc: CountryCode,
        dns_mode: DnsMode,
        fleets: Arc<IngressFleets>,
        selector: Arc<EgressSelector>,
    ) -> Device {
        Device {
            addr,
            cc,
            dns_mode,
            fleets,
            selector,
            // A generous per-user budget: the §2 fraud prevention exists
            // but must not throttle a day of 30-second scan rounds.
            issuer: Arc::new(TokenIssuer::new(20_000)),
            udp_blocked: false,
            connection_counter: Mutex::new(0),
        }
    }

    /// Shares a token issuer (e.g. several devices of one iCloud account).
    pub fn with_token_issuer(mut self, issuer: Arc<TokenIssuer>) -> Device {
        self.issuer = issuer;
        self
    }

    /// Marks the network as UDP-hostile, forcing the TCP fallback (§2).
    pub fn with_udp_blocked(mut self, blocked: bool) -> Device {
        self.udp_blocked = blocked;
        self
    }

    /// The device's public address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The device's country.
    pub fn cc(&self) -> CountryCode {
        self.cc
    }

    /// The stable key identifying this client to the egress layer.
    fn client_key(&self) -> u64 {
        u32::from(self.addr) as u64 ^ 0x00C1_1E17
    }

    /// Resolves the ingress address per the DNS mode.
    fn resolve_ingress(
        &self,
        auth: &dyn NameServer,
        now: SimTime,
    ) -> Result<Ipv4Addr, ConnectError> {
        match self.dns_mode {
            DnsMode::Fixed(addr) => Ok(addr),
            DnsMode::Open => {
                // The device's stub queries through its local resolver; the
                // authoritative sees the resolver's in-network source.
                let query = Message::query(0x1E55, Domain::MaskQuic.name(), QType::A);
                let ctx = QueryContext {
                    src: IpAddr::V4(self.addr),
                    now,
                };
                match auth.handle_query(&encode_message(&query), &ctx) {
                    tectonic_dns::server::ServerReply::Response(bytes) => {
                        let response =
                            decode_message(&bytes).map_err(|_| ConnectError::DnsFailed)?;
                        response
                            .a_answers()
                            .first()
                            .copied()
                            .ok_or(ConnectError::DnsFailed)
                    }
                    tectonic_dns::server::ServerReply::Dropped => Err(ConnectError::DnsFailed),
                }
            }
        }
    }

    /// Issues one request through the relay.
    ///
    /// The returned [`ClientRequest`] records the ingress the connection
    /// used and the egress address the destination server logged. Each call
    /// is a fresh connection, so the egress address rotates (§4.3).
    pub fn request(
        &self,
        agent: RequestAgent,
        auth: &dyn NameServer,
        now: SimTime,
    ) -> Result<ClientRequest, ConnectError> {
        let ingress = self.resolve_ingress(auth, now)?;
        if !self.fleets.is_ingress(IpAddr::V4(ingress)) {
            return Err(ConnectError::NotAnIngress(IpAddr::V4(ingress)));
        }
        // The counter advances only for requests that reach connection
        // establishment — a failed resolution consumes no id.
        let connection_id = {
            let mut counter = self.connection_counter.lock();
            *counter += 1;
            *counter
        };
        self.connect(agent, now, ingress, connection_id)
    }

    /// Reserves `n` connection ids from the device's counter and returns
    /// the base: the caller owns ids `base + 1 ..= base + n`, the ids the
    /// next `n` successful [`Device::request`] calls would have taken.
    pub fn reserve_connection_ids(&self, n: u64) -> u64 {
        let mut counter = self.connection_counter.lock();
        let base = *counter;
        *counter += n;
        base
    }

    /// [`Device::request`] with an explicit connection id, bypassing the
    /// device's internal counter.
    ///
    /// The discrete-event engine runs a device's rounds across shards, so
    /// callers assign each round's ids up front (round `i` of a series
    /// uses ids `base + 2i + 1` and `base + 2i + 2` via
    /// [`Device::request_pair_with_ids`], `base` from
    /// [`Device::reserve_connection_ids`]) instead of racing a shared
    /// counter. The id feeds egress selection only, so a failed round never
    /// shifts the ids of the rounds after it.
    pub fn request_with_id(
        &self,
        agent: RequestAgent,
        auth: &dyn NameServer,
        now: SimTime,
        connection_id: u64,
    ) -> Result<ClientRequest, ConnectError> {
        let ingress = self.resolve_ingress(auth, now)?;
        if !self.fleets.is_ingress(IpAddr::V4(ingress)) {
            return Err(ConnectError::NotAnIngress(IpAddr::V4(ingress)));
        }
        self.connect(agent, now, ingress, connection_id)
    }

    /// Establishes the tunnel for an already-resolved ingress, through the
    /// session layer's steps: admission, CONNECT, egress open.
    fn connect(
        &self,
        agent: RequestAgent,
        now: SimTime,
        ingress: Ipv4Addr,
        connection_id: u64,
    ) -> Result<ClientRequest, ConnectError> {
        let key = self.client_key();
        let operator = self
            .selector
            .operator_for(key, self.cc, now)
            .ok_or(ConnectError::NoEgressAvailable)?;
        self.issuer
            .admit(key, now)
            .map_err(|e| ConnectError::Masque(MasqueError::Token(e)))?;
        let target = match agent {
            RequestAgent::Curl => "ipecho.net:80",
            RequestAgent::Safari => "observer.scan.example:443",
        };
        // The inner CONNECT is encrypted to the egress; the ingress only
        // sees its length. The egress parses it off the wire.
        let connect = build_connect(target, &client_cell(self.cc));
        let (target_authority, client_geohash) =
            parse_connect(&connect).map_err(ConnectError::Masque)?;
        // The egress draws from the cell's pool as `EgressNode::open` does,
        // with this device's seed and connection id.
        let egress = self
            .selector
            .draw(
                operator,
                cell_country(&client_geohash),
                &client_geohash,
                self.selector.client_seed(key),
                connection_id,
            )
            .ok_or(ConnectError::NoEgressAvailable)?;
        let session = MasqueSession {
            transport: if self.udp_blocked {
                Transport::TcpFallback
            } else {
                Transport::Quic
            },
            ingress_view: IngressView {
                client_addr: IpAddr::V4(self.addr),
                egress_addr: egress.addr,
                // Admission only succeeds with a validated token.
                token_valid: true,
                inner_ciphertext_len: connect.len(),
            },
            egress_view: EgressView {
                ingress_addr: IpAddr::V4(ingress),
                target_authority,
                client_geohash,
            },
            server_observed: egress.addr,
        };
        Ok(ClientRequest {
            agent,
            time: now,
            ingress: IpAddr::V4(ingress),
            ingress_asn: self.fleets.asn_of(IpAddr::V4(ingress)),
            egress,
            session,
        })
    }

    /// The Safari + curl request pair the paper's scan issues each round,
    /// with explicit connection ids (see [`Device::request_with_id`]):
    /// Safari takes `safari_id`, curl takes `curl_id`.
    pub fn request_pair_with_ids(
        &self,
        auth: &dyn NameServer,
        now: SimTime,
        safari_id: u64,
        curl_id: u64,
    ) -> Result<(ClientRequest, ClientRequest), ConnectError> {
        let safari = self.request_with_id(RequestAgent::Safari, auth, now, safari_id)?;
        let curl = self.request_with_id(RequestAgent::Curl, auth, now, curl_id)?;
        Ok((safari, curl))
    }

    /// Appendix B: shortly after connecting to a (possibly forced) ingress,
    /// the device opens an additional management QUIC connection whose
    /// target lies in the same prefix as the configured ingress.
    pub fn management_connection_target(&self, ingress: Ipv4Addr) -> Ipv4Addr {
        let prefix = Ipv4Net::slash24_of(ingress);
        // A deterministic different host within the ingress /24.
        let offset = (u32::from(ingress) as u64 % 97) + 2;
        let candidate = prefix.nth_addr(offset);
        if candidate == ingress {
            prefix.nth_addr(offset + 1)
        } else {
            candidate
        }
    }

    /// The DoH resolver queries take once a relay connection is active —
    /// the local resolver is bypassed (Appendix B).
    pub fn odoh_resolver(&self) -> Ipv4Addr {
        ODOH_RESOLVER
    }

    /// Resolves a name through the relay's oblivious DoH path (Appendix B).
    ///
    /// With an active relay connection the system ignores the local
    /// resolver and queries Cloudflare's DoH service *through the relay*.
    /// The client learns its current egress address and attaches it as the
    /// ECS subnet, so the authoritative tailors the answer to the egress
    /// location rather than the client's — the mechanism that keeps CDN
    /// steering working despite the relay.
    pub fn odoh_resolve(
        &self,
        name: &tectonic_dns::DomainName,
        qtype: QType,
        target_auth: &dyn NameServer,
        relay_auth: &dyn NameServer,
        now: SimTime,
    ) -> Result<tectonic_dns::resolver::ResolutionOutcome, ConnectError> {
        // Establish (or reuse) a relay connection to learn the egress addr.
        let request = self.request(RequestAgent::Safari, relay_auth, now)?;
        let IpAddr::V4(egress_v4) = request.egress.addr else {
            return Err(ConnectError::NoEgressAvailable);
        };
        // The DoH exchange runs through the tunnel: the resolver queries
        // the authoritative from its own address, attaching the egress /24
        // as the client subnet.
        let mut query = Message::query(0x0D0B, name.clone(), qtype);
        query
            .ensure_edns()
            .set_ecs(tectonic_dns::EcsOption::for_v4_net(Ipv4Net::slash24_of(
                egress_v4,
            )));
        let ctx = QueryContext {
            src: IpAddr::V4(ODOH_RESOLVER),
            now,
        };
        match target_auth.handle_query(&encode_message(&query), &ctx) {
            tectonic_dns::server::ServerReply::Response(bytes) => Ok(decode_message(&bytes)
                .map(tectonic_dns::resolver::ResolutionOutcome::Answered)
                .unwrap_or(tectonic_dns::resolver::ResolutionOutcome::Timeout)),
            tectonic_dns::server::ServerReply::Dropped => {
                Ok(tectonic_dns::resolver::ResolutionOutcome::Timeout)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;
    use crate::deploy::Deployment;
    use tectonic_net::{Epoch, SimDuration};

    fn deployment() -> Deployment {
        Deployment::build(11, DeploymentConfig::scaled(512))
    }

    #[test]
    fn open_dns_request_round_trip() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
        let now = Epoch::May2022.start();
        let req = device
            .request(RequestAgent::Curl, &auth, now)
            .expect("request should succeed");
        assert!(d.fleets.is_ingress(req.ingress));
        assert!(req.egress.subnet.contains(req.egress.addr));
        assert!(req.ingress_asn.is_some());
    }

    #[test]
    fn request_runs_the_session_layer_draw() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
        let req = device
            .request(RequestAgent::Curl, &auth, Epoch::May2022.start())
            .unwrap();
        // The egress saw the device's cell and drew connection 1 from that
        // cell's pool with the device's seed.
        let cell = &req.session.egress_view.client_geohash;
        assert_eq!(cell, &client_cell(CountryCode::DE));
        let selector = d.egress_selector();
        let expected = selector.draw(
            req.egress.operator,
            cell_country(cell),
            cell,
            selector.client_seed(device.client_key()),
            1,
        );
        assert_eq!(Some(req.egress.clone()), expected);
        // The ingress never sees the target; the egress never sees the
        // client.
        let ingress_json = serde_json::to_string(&req.session.ingress_view).unwrap();
        assert!(!ingress_json.contains("ipecho"));
        let egress_json = serde_json::to_string(&req.session.egress_view).unwrap();
        assert!(!egress_json.contains(&device.addr().to_string()));
        assert_eq!(req.session.server_observed, req.egress.addr);
    }

    #[test]
    fn exhausted_token_budget_refuses_the_connection() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let device = d
            .device_in_country(CountryCode::DE, DnsMode::Open)
            .with_token_issuer(Arc::new(TokenIssuer::new(0)));
        let err = device
            .request(RequestAgent::Curl, &auth, Epoch::May2022.start())
            .unwrap_err();
        assert_eq!(
            err,
            ConnectError::Masque(MasqueError::Token(
                crate::masque::TokenError::DailyBudgetExhausted
            ))
        );
    }

    #[test]
    fn fixed_dns_uses_forced_ingress() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let forced = d
            .fleets
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::APPLE)[3];
        let device = d.device_in_country(CountryCode::DE, DnsMode::Fixed(forced));
        let req = device
            .request(RequestAgent::Safari, &auth, Epoch::May2022.start())
            .unwrap();
        assert_eq!(req.ingress, IpAddr::V4(forced));
        assert_eq!(req.ingress_asn, Some(Asn::APPLE));
    }

    #[test]
    fn forcing_non_ingress_fails() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let device =
            d.device_in_country(CountryCode::DE, DnsMode::Fixed("9.9.9.9".parse().unwrap()));
        let err = device
            .request(RequestAgent::Curl, &auth, Epoch::May2022.start())
            .unwrap_err();
        assert!(matches!(err, ConnectError::NotAnIngress(_)));
    }

    #[test]
    fn forced_ingress_does_not_change_egress_behaviour() {
        // §4.3: "we did not observe egress behavior or address differences
        // when forcing a specific ingress relay address."
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let now = Epoch::May2022.start();
        let a1 = d
            .fleets
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::APPLE)[0];
        let a2 = d
            .fleets
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[0];
        let dev1 = d.device_in_country(CountryCode::DE, DnsMode::Fixed(a1));
        let dev2 = d.device_in_country(CountryCode::DE, DnsMode::Fixed(a2));
        // Same device address → same client key → same egress pool: collect
        // the address sets both devices observe.
        let mut set1 = std::collections::HashSet::new();
        let mut set2 = std::collections::HashSet::new();
        for i in 0..60 {
            let t = now + SimDuration::from_secs(30).times(i);
            set1.insert(
                dev1.request(RequestAgent::Curl, &auth, t)
                    .unwrap()
                    .egress
                    .addr,
            );
            set2.insert(
                dev2.request(RequestAgent::Curl, &auth, t)
                    .unwrap()
                    .egress
                    .addr,
            );
        }
        assert_eq!(set1, set2, "egress pools differ across forced ingresses");
    }

    #[test]
    fn request_pair_can_differ_in_egress() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::US, DnsMode::Open);
        let mut differing = 0;
        for i in 0..40 {
            let t = Epoch::May2022.start() + SimDuration::from_mins(5).times(i);
            let (safari, curl) = device
                .request_pair_with_ids(&auth, t, 2 * i + 1, 2 * i + 2)
                .unwrap();
            if safari.egress.addr != curl.egress.addr {
                differing += 1;
            }
        }
        assert!(differing > 10, "parallel agents always same egress");
    }

    #[test]
    fn management_target_in_same_prefix_but_different() {
        let d = deployment();
        let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
        let ingress = d
            .fleets
            .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)[5];
        let target = device.management_connection_target(ingress);
        assert_ne!(target, ingress);
        assert!(Ipv4Net::slash24_of(ingress).contains(target));
        assert_eq!(device.odoh_resolver(), Ipv4Addr::new(1, 1, 1, 1));
    }
}
