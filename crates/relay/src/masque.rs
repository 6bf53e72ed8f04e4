//! The MASQUE two-hop session model (§2).
//!
//! iCloud Private Relay establishes a QUIC connection to the ingress,
//! authenticates with per-user tokens ("a limited number of issued tokens
//! to access the service per user and day" — the fraud-prevention measure
//! §2 mentions), then proxies an HTTP/3 `CONNECT` through the ingress to
//! the egress, which opens the real connection to the target. When QUIC
//! fails (UDP-hostile networks), the client falls back to HTTP/2 over
//! TLS 1.3/TCP via `mask-h2.icloud.com`.
//!
//! The model is wire-honest where the paper's analysis touches the wire
//! (the CONNECT framing crosses the simplified HTTP/3 codec) and
//! *visibility-honest* everywhere: each hop's view is an explicit struct,
//! so the privacy invariants — ingress never learns the target, egress
//! never learns the client — are type-checked and tested rather than
//! asserted in prose.

use std::net::IpAddr;

use serde::{Deserialize, Serialize};
use tectonic_geo::country::{country_info, CountryCode};
use tectonic_geo::geohash;
use tectonic_net::SimTime;
use tectonic_quic::h3::{self, FrameType, Headers};

/// Which transport carried the session.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Transport {
    /// QUIC / HTTP-3 via `mask.icloud.com`.
    Quic,
    /// The TCP / TLS 1.3 / HTTP-2 fallback via `mask-h2.icloud.com`.
    TcpFallback,
}

/// A per-user access token (opaque to the relays beyond validity).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AccessToken {
    /// Blinded user identifier (the issuer knows it; relays cannot link it).
    pub user: u64,
    /// Day the token is valid for (days since the epoch).
    pub day: u64,
    /// Serial within the day's budget.
    pub serial: u32,
}

/// Errors from token issuance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenError {
    /// The user exhausted the daily budget (§2's fraud prevention).
    DailyBudgetExhausted,
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenError::DailyBudgetExhausted => write!(f, "daily token budget exhausted"),
        }
    }
}

impl std::error::Error for TokenError {}

/// Milliseconds per token-validity day.
const DAY_MS: u64 = 86_400_000;

/// Per-day issuance ledger; entries for past days are pruned when the day
/// rolls over so the map stays bounded across `SimTime` rollover.
#[derive(Debug, Default)]
struct IssuerLedger {
    /// The most recent day the issuer has seen.
    latest_day: u64,
    /// Tokens issued per `(user, day)`; only days `>= latest_day` survive.
    counts: std::collections::HashMap<(u64, u64), u32>,
}

/// Issues a bounded number of tokens per user and day.
#[derive(Debug)]
pub struct TokenIssuer {
    per_day: u32,
    #[expect(
        clippy::disallowed_types,
        reason = "a leaf lock: nothing that takes another lock runs while the guard is held. It stays while \
                  `Device` shares the issuer through an `Arc` and the benchmark harness \
                  drives `RelayScanSeries::run_engine` with `&Device`. Latent hazard: the \
                  shards of one series share this ledger, so budget exhaustion would depend \
                  on worker interleaving; no caller comes near the 20 000-per-day budget \
                  (a 288-round day takes 576 tokens)"
    )]
    ledger: parking_lot::Mutex<IssuerLedger>,
}

impl TokenIssuer {
    /// An issuer with the given per-user daily budget.
    #[expect(clippy::disallowed_types, reason = "builds the leaf lock of `ledger`")]
    pub fn new(per_day: u32) -> TokenIssuer {
        TokenIssuer {
            per_day,
            ledger: parking_lot::Mutex::new(IssuerLedger::default()),
        }
    }

    /// Issues a token for `user` at `now`, or fails when the budget is
    /// spent. When the day advances, budgets reset and the ledger drops
    /// entries from past days — tokens from those days are already invalid.
    pub fn issue(&self, user: u64, now: SimTime) -> Result<AccessToken, TokenError> {
        let day = now.as_millis() / DAY_MS;
        let mut ledger = self.ledger.lock();
        if day > ledger.latest_day {
            ledger.latest_day = day;
            ledger.counts.retain(|(_, d), _| *d >= day);
        }
        let count = ledger.counts.entry((user, day)).or_insert(0);
        if *count >= self.per_day {
            return Err(TokenError::DailyBudgetExhausted);
        }
        *count += 1;
        Ok(AccessToken {
            user,
            day,
            serial: *count,
        })
    }

    /// Validates a token at `now`.
    ///
    /// A token is valid only on the day it was issued for (a token issued
    /// at 23:59:59.999 expires exactly at the next midnight), only with a
    /// serial the issuer actually handed out — forged serials above the
    /// per-day budget, or above this user's issued count, are rejected.
    pub fn validate(&self, token: &AccessToken, now: SimTime) -> bool {
        if token.day != now.as_millis() / DAY_MS {
            return false;
        }
        if token.serial == 0 || token.serial > self.per_day {
            return false;
        }
        let ledger = self.ledger.lock();
        ledger
            .counts
            .get(&(token.user, token.day))
            .is_some_and(|issued| token.serial <= *issued)
    }

    /// The admission step every ingress runs: issues a token for `user`
    /// against the daily budget and validates it.
    pub(crate) fn admit(&self, user: u64, now: SimTime) -> Result<AccessToken, TokenError> {
        let token = self.issue(user, now)?;
        if self.validate(&token, now) {
            Ok(token)
        } else {
            Err(TokenError::DailyBudgetExhausted)
        }
    }

    /// How many `(user, day)` entries the ledger currently tracks (pruning
    /// observability for tests).
    pub fn tracked_entries(&self) -> usize {
        self.ledger.lock().counts.len()
    }
}

/// What the ingress hop can observe.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct IngressView {
    /// The client's real address (the ingress authenticates it).
    pub client_addr: IpAddr,
    /// The egress relay the tunnel goes to.
    pub egress_addr: IpAddr,
    /// Token validity (not identity — tokens are blinded).
    pub token_valid: bool,
    /// The inner CONNECT is encrypted to the egress; the ingress forwards
    /// opaque bytes only.
    pub inner_ciphertext_len: usize,
}

/// What the egress hop can observe.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct EgressView {
    /// The ingress the tunnel arrived from (never the client).
    pub ingress_addr: IpAddr,
    /// The target authority requested in the CONNECT.
    pub target_authority: String,
    /// The client's approximate location as a geohash (§6: derived from IP
    /// geolocation and visible to the egress operator).
    pub client_geohash: String,
}

/// An established two-hop session.
#[derive(Clone, PartialEq, Debug)]
pub struct MasqueSession {
    /// Transport used.
    pub transport: Transport,
    /// The ingress hop's view.
    pub ingress_view: IngressView,
    /// The egress hop's view.
    pub egress_view: EgressView,
    /// The address the target server logs.
    pub server_observed: IpAddr,
}

/// Errors from session establishment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MasqueError {
    /// Token issuance failed.
    Token(TokenError),
    /// The inner CONNECT failed to parse at the egress.
    BadConnect,
}

impl std::fmt::Display for MasqueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MasqueError::Token(e) => write!(f, "token: {e}"),
            MasqueError::BadConnect => write!(f, "malformed CONNECT"),
        }
    }
}

impl std::error::Error for MasqueError {}

/// Geohash precision the service exposes to the egress (city-ish).
const GEOHASH_PRECISION: usize = 4;

/// The geohash cell a client in `cc` advertises in its CONNECT: the
/// country's centroid at the service's city-ish precision, derived from IP
/// geolocation (§6: visible to the egress operator).
pub fn client_cell(cc: CountryCode) -> String {
    let (lat, lon) = country_info(cc)
        .map(|i| (i.lat, i.lon))
        .unwrap_or((0.0, 0.0));
    geohash::encode(lat, lon, GEOHASH_PRECISION)
}

/// Builds the inner CONNECT request the client encrypts to the egress.
pub fn build_connect(target_authority: &str, geohash: &str) -> Vec<u8> {
    let headers: Headers = vec![
        (":method".into(), "CONNECT".into()),
        (":protocol".into(), "connect-udp".into()),
        (":authority".into(), target_authority.into()),
        ("geohash".into(), geohash.into()),
    ];
    h3::encode_frame(&h3::headers_frame(&headers))
}

/// Parses the inner CONNECT at the egress.
pub fn parse_connect(wire: &[u8]) -> Result<(String, String), MasqueError> {
    let (frame, _) = h3::decode_frame(wire).map_err(|_| MasqueError::BadConnect)?;
    if frame.frame_type != FrameType::Headers {
        return Err(MasqueError::BadConnect);
    }
    let headers = h3::decode_headers(&frame.payload).map_err(|_| MasqueError::BadConnect)?;
    if h3::header(&headers, ":method") != Some("CONNECT") {
        return Err(MasqueError::BadConnect);
    }
    let authority = h3::header(&headers, ":authority")
        .ok_or(MasqueError::BadConnect)?
        .to_string();
    let geohash = h3::header(&headers, "geohash").unwrap_or("").to_string();
    Ok((authority, geohash))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_quic::h3::Frame;

    #[test]
    fn geohash_is_coarse_but_near_client() {
        // Munich, the authors' vantage point: "u28…" at this precision.
        let hash = geohash::encode(48.137, 11.575, GEOHASH_PRECISION);
        assert_eq!(hash.len(), 4);
        assert!(hash.starts_with("u28"));
        let cell = geohash::decode(&hash).unwrap();
        // Coarse: the cell is tens of kilometres, not metres.
        assert!(cell.lat_err > 0.05);
        // A client advertises its country's centroid cell.
        let de = client_cell(CountryCode::DE);
        assert_eq!(de.len(), GEOHASH_PRECISION);
        assert!(de.starts_with('u'), "{de}");
    }

    #[test]
    fn token_budget_limits_sessions() {
        let issuer = TokenIssuer::new(3);
        let now = SimTime::from_ymd(2022, 5, 10);
        for _ in 0..3 {
            assert!(issuer.issue(42, now).is_ok());
        }
        assert_eq!(issuer.issue(42, now), Err(TokenError::DailyBudgetExhausted));
        // Another user is unaffected.
        assert!(issuer.issue(43, now).is_ok());
        // The next day resets the budget.
        let tomorrow = SimTime::from_ymd(2022, 5, 11);
        assert!(issuer.issue(42, tomorrow).is_ok());
    }

    #[test]
    fn stale_tokens_fail_validation() {
        let issuer = TokenIssuer::new(10);
        let day1 = SimTime::from_ymd(2022, 5, 10);
        let token = issuer.issue(1, day1).unwrap();
        assert!(issuer.validate(&token, day1));
        assert!(!issuer.validate(&token, SimTime::from_ymd(2022, 5, 11)));
    }

    #[test]
    fn token_expires_exactly_at_the_day_boundary() {
        let issuer = TokenIssuer::new(10);
        let midnight = SimTime::from_ymd(2022, 5, 11);
        let last_ms = SimTime(midnight.as_millis() - 1); // 23:59:59.999
        let token = issuer.issue(7, last_ms).unwrap();
        // Valid for every remaining instant of its issue day…
        assert!(issuer.validate(&token, last_ms));
        // …and invalid from the first millisecond of the next day.
        assert!(!issuer.validate(&token, midnight));
        assert!(!issuer.validate(&token, SimTime(midnight.as_millis() + 1)));
    }

    #[test]
    fn budget_resets_exactly_at_the_day_boundary() {
        let issuer = TokenIssuer::new(2);
        let midnight = SimTime::from_ymd(2022, 5, 11);
        let before = SimTime(midnight.as_millis() - 1);
        assert!(issuer.issue(7, before).is_ok());
        assert!(issuer.issue(7, before).is_ok());
        assert_eq!(
            issuer.issue(7, before),
            Err(TokenError::DailyBudgetExhausted)
        );
        // The very first millisecond of the new day starts a fresh budget.
        let fresh = issuer.issue(7, midnight).unwrap();
        assert_eq!(fresh.serial, 1);
        assert!(issuer.validate(&fresh, midnight));
    }

    #[test]
    fn day_rollover_prunes_the_ledger() {
        let issuer = TokenIssuer::new(5);
        let day1 = SimTime::from_ymd(2022, 5, 10);
        for user in 0..4 {
            issuer.issue(user, day1).unwrap();
        }
        assert_eq!(issuer.tracked_entries(), 4);
        // Rolling to the next day drops all of day 1's accounting.
        let day2 = SimTime::from_ymd(2022, 5, 11);
        issuer.issue(9, day2).unwrap();
        assert_eq!(issuer.tracked_entries(), 1);
    }

    #[test]
    fn forged_serials_fail_validation() {
        let issuer = TokenIssuer::new(5);
        let now = SimTime::from_ymd(2022, 5, 10);
        let token = issuer.issue(7, now).unwrap();
        assert!(issuer.validate(&token, now));
        // Serial 0 was never handed out.
        let zero = AccessToken {
            serial: 0,
            ..token.clone()
        };
        assert!(!issuer.validate(&zero, now));
        // A serial above this user's issued count was never handed out…
        let ahead = AccessToken {
            serial: 2,
            ..token.clone()
        };
        assert!(!issuer.validate(&ahead, now));
        // …nor was one above the per-day budget, for any user.
        let over = AccessToken { serial: 6, ..token };
        assert!(!issuer.validate(&over, now));
        // A user the issuer never saw has no valid serials at all.
        let ghost = AccessToken {
            user: 99,
            day: now.as_millis() / 86_400_000,
            serial: 1,
        };
        assert!(!issuer.validate(&ghost, now));
    }

    #[test]
    fn connect_round_trips_on_the_wire() {
        let wire = build_connect("example.org:443", "u281");
        let (authority, geohash) = parse_connect(&wire).unwrap();
        assert_eq!(authority, "example.org:443");
        assert_eq!(geohash, "u281");
        // Garbage is rejected, not panicked on.
        assert_eq!(parse_connect(&[0xFF, 0x00]), Err(MasqueError::BadConnect));
        let data_frame = h3::encode_frame(&Frame {
            frame_type: FrameType::Data,
            payload: vec![1],
        });
        assert_eq!(parse_connect(&data_frame), Err(MasqueError::BadConnect));
    }
}
