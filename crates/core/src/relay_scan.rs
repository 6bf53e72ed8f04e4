//! Through-relay scans (§4.3, Figure 3).
//!
//! Drives a simulated macOS device the way the authors drove theirs: a
//! Safari + curl request pair every round (five minutes for the operator
//! series, 30 seconds for the fine-grained rotation run), in both the
//! open-DNS and the fixed-DNS configuration. The observing web server's
//! log — egress operator and address per request — is the output.

use serde::{Deserialize, Serialize};
use tectonic_dns::server::NameServer;
use tectonic_engine::{Engine, EngineConfig, ShardCtx, ShardModel};
use tectonic_net::{Asn, SimDuration, SimRng, SimTime};
use tectonic_relay::client::{ClientRequest, Device, RequestAgent};

/// Scan schedule configuration.
#[derive(Debug, Clone)]
pub struct RelayScanConfig {
    /// Interval between request rounds.
    pub interval: SimDuration,
    /// Total scan duration.
    pub duration: SimDuration,
}

impl RelayScanConfig {
    /// The Figure 3 schedule: one round every 5 minutes for a day.
    pub fn operator_series() -> RelayScanConfig {
        RelayScanConfig {
            interval: SimDuration::from_mins(5),
            duration: SimDuration::from_hours(24),
        }
    }

    /// The fine-grained rotation schedule: every 30 s for 48 h.
    pub fn rotation_series() -> RelayScanConfig {
        RelayScanConfig {
            interval: SimDuration::from_secs(30),
            duration: SimDuration::from_hours(48),
        }
    }

    /// Number of rounds in the schedule.
    pub fn rounds(&self) -> u64 {
        self.duration.as_millis() / self.interval.as_millis().max(1)
    }
}

/// One logged round of the scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanRound {
    /// Seconds since scan start (the Figure 3 x-axis).
    pub relative_secs: u64,
    /// The Safari request's observations.
    pub safari: LoggedRequest,
    /// The curl request's observations.
    pub curl: LoggedRequest,
}

/// What the observer server logged for one request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoggedRequest {
    /// Egress operator.
    pub operator: Asn,
    /// Egress address (as a string for serialisation stability).
    pub egress_addr: String,
    /// Egress subnet.
    pub egress_subnet: String,
}

impl LoggedRequest {
    fn from_request(r: &ClientRequest) -> LoggedRequest {
        LoggedRequest {
            operator: r.egress.operator,
            egress_addr: r.egress.addr.to_string(),
            egress_subnet: r.egress.subnet.to_string(),
        }
    }
}

/// The full scan series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelayScanSeries {
    /// All rounds in order.
    pub rounds: Vec<ScanRound>,
    /// Rounds that failed (DNS failure etc.).
    pub failures: u64,
}

impl RelayScanSeries {
    /// Runs the scan with a fresh `device` starting at `start`, on one
    /// engine shard ([`RelayScanSeries::run_engine`] from connection id
    /// base 0).
    pub fn run(
        device: &Device,
        auth: &dyn NameServer,
        config: &RelayScanConfig,
        start: SimTime,
    ) -> RelayScanSeries {
        RelayScanSeries::run_engine(device, &[auth], config, start, 0, &EngineConfig::new(1, 1))
    }

    /// Runs the scan on the sharded discrete-event engine.
    ///
    /// Rounds are dealt to shards in contiguous index ranges (so the
    /// merged log stays in round order) and each round is one scheduled
    /// event at its wall-clock instant. Connection ids are assigned per
    /// round — round `i` uses `first_connection_id + 2i + 1` (Safari) and
    /// `+ 2i + 2` (curl) — so the output is the same for every shard and
    /// worker count, and a failed round never shifts a later round's
    /// egress draw. A fresh device starts at `first_connection_id = 0`; a
    /// caller continuing an existing device passes the number of
    /// connection ids it has already used.
    ///
    /// `servers` is indexed `shard % servers.len()`, like
    /// [`crate::ecs_scan::EcsScanner::scan_engine_sharded`]. Rounds are
    /// time-staggered, so a conservative lookahead would serialise the
    /// shards; since rounds share no cross-shard events, the engine runs
    /// with a lookahead covering the whole schedule, letting every shard
    /// process its range in one window.
    pub fn run_engine(
        device: &Device,
        servers: &[&dyn NameServer],
        config: &RelayScanConfig,
        start: SimTime,
        first_connection_id: u64,
        engine: &EngineConfig,
    ) -> RelayScanSeries {
        let Some(&first_server) = servers.first() else {
            return RelayScanSeries {
                rounds: Vec::new(),
                failures: 0,
            };
        };
        let rounds = config.rounds();
        let shards = engine.shards.max(1) as u64;
        let per_shard = rounds.div_ceil(shards.max(1)).max(1);
        let models: Vec<RoundShard<'_>> = (0..shards)
            .map(|s| RoundShard {
                device,
                auth: servers
                    .get((s as usize) % servers.len())
                    .copied()
                    .unwrap_or(first_server),
                start,
                first_connection_id,
                rounds: Vec::new(),
                failures: 0,
            })
            .collect();
        // No cross-shard events: one window must span the whole schedule.
        let config_wide = EngineConfig {
            lookahead: config.duration + config.interval,
            ..engine.clone()
        };
        let mut eng = Engine::new(&config_wide, models, &SimRng::new(0x5CA9));
        for i in 0..rounds {
            let shard = (i / per_shard).min(shards - 1) as usize;
            let at = start + SimDuration::from_millis(config.interval.as_millis() * i);
            eng.seed(shard, at, i);
        }
        let mut merged = RelayScanSeries {
            rounds: Vec::new(),
            failures: 0,
        };
        for (rounds, failures) in eng.run() {
            merged.rounds.extend(rounds);
            merged.failures += failures;
        }
        merged
    }

    /// The Figure 3 series: `(relative_secs, operator)` per round, based on
    /// the curl request (the paper plots one series per scan).
    pub fn operator_series(&self) -> Vec<(u64, Asn)> {
        self.rounds
            .iter()
            .map(|r| (r.relative_secs, r.curl.operator))
            .collect()
    }

    /// Times at which the egress operator changed (Figure 3's marks).
    pub fn operator_changes(&self) -> Vec<u64> {
        self.rounds
            .windows(2)
            .filter_map(|w| match w {
                [a, b] if a.curl.operator != b.curl.operator => Some(b.relative_secs),
                _ => None,
            })
            .collect()
    }

    /// Distinct operators observed over the scan.
    pub fn operators_seen(&self) -> Vec<Asn> {
        let mut ops: Vec<Asn> = self.rounds.iter().map(|r| r.curl.operator).collect();
        ops.sort();
        ops.dedup();
        ops
    }

    /// Flattens the curl request log (for the rotation statistics).
    pub fn curl_requests(&self) -> Vec<&LoggedRequest> {
        self.rounds.iter().map(|r| &r.curl).collect()
    }
}

/// One engine shard of the relay scan: a contiguous range of rounds, each
/// an event carrying its round index.
struct RoundShard<'a> {
    device: &'a Device,
    auth: &'a dyn NameServer,
    start: SimTime,
    first_connection_id: u64,
    rounds: Vec<ScanRound>,
    failures: u64,
}

impl ShardModel for RoundShard<'_> {
    type Event = u64;
    type Out = (Vec<ScanRound>, u64);

    fn handle(&mut self, now: SimTime, round: u64, _ctx: &mut ShardCtx<u64>) {
        let safari_id = self.first_connection_id + 2 * round + 1;
        let pair = self
            .device
            .request(RequestAgent::Safari, self.auth, now, safari_id)
            .and_then(|safari| {
                let curl =
                    self.device
                        .request(RequestAgent::Curl, self.auth, now, safari_id + 1)?;
                Ok((safari, curl))
            });
        match pair {
            Ok((safari, curl)) => self.rounds.push(ScanRound {
                relative_secs: (now - self.start).as_secs(),
                safari: LoggedRequest::from_request(&safari),
                curl: LoggedRequest::from_request(&curl),
            }),
            Err(_) => self.failures += 1,
        }
    }

    fn finish(self) -> Self::Out {
        (self.rounds, self.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_geo::country::CountryCode;
    use tectonic_net::Epoch;
    use tectonic_relay::{Deployment, DeploymentConfig, DnsMode};

    fn series(mode: DnsMode) -> (Deployment, RelayScanSeries) {
        let d = Deployment::build(66, DeploymentConfig::scaled(512));
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::DE, mode);
        let s = RelayScanSeries::run(
            &device,
            &auth,
            &RelayScanConfig::operator_series(),
            Epoch::May2022.start(),
        );
        (d, s)
    }

    #[test]
    fn full_day_of_rounds() {
        let (_, s) = series(DnsMode::Open);
        assert_eq!(s.rounds.len(), 288);
        assert_eq!(s.failures, 0);
        assert_eq!(s.rounds[0].relative_secs, 0);
        assert_eq!(s.rounds[1].relative_secs, 300);
    }

    #[test]
    fn operator_changes_are_a_handful() {
        let (_, s) = series(DnsMode::Open);
        let changes = s.operator_changes();
        assert!(
            changes.len() <= 10,
            "too many operator changes: {}",
            changes.len()
        );
    }

    #[test]
    fn fixed_dns_also_runs() {
        let d = Deployment::build(66, DeploymentConfig::scaled(512));
        let forced = d.fleets.fleet_v4(
            Epoch::Apr2022,
            tectonic_relay::Domain::MaskQuic,
            Asn::AKAMAI_PR,
        )[0];
        let auth = d.auth_server_unlimited();
        let device = d.device_in_country(CountryCode::DE, DnsMode::Fixed(forced));
        let s = RelayScanSeries::run(
            &device,
            &auth,
            &RelayScanConfig::operator_series(),
            Epoch::May2022.start(),
        );
        assert_eq!(s.rounds.len(), 288);
        assert_eq!(s.failures, 0);
    }

    /// Pins the relay series byte-for-byte. `Deployment::build` and
    /// `Deployment::mask_zone` derive their streams with label forks; any
    /// change to those labels, or a move to `fork_indexed`, rewrites the
    /// derived streams and moves these goldens.
    #[test]
    fn relay_series_pinned_across_fork_audit() {
        let (_, s) = series(DnsMode::Open);
        assert_eq!(s.rounds.len(), 288);
        assert_eq!(s.failures, 0);
        let first = &s.rounds[0];
        assert_eq!(first.safari.operator, Asn(20940));
        assert_eq!(first.safari.egress_addr, "23.32.0.1");
        assert_eq!(first.safari.egress_subnet, "23.32.0.0/30");
        assert_eq!(first.curl.operator, Asn(20940));
        assert_eq!(first.curl.egress_addr, "23.32.0.12");
        let last = &s.rounds[287];
        assert_eq!(last.relative_secs, 86_100);
        assert_eq!(last.safari.operator, Asn(20940));
        assert_eq!(last.safari.egress_addr, "23.32.0.12");
        // Whole-series digests: any reordered or re-derived RNG stream
        // moves at least one of these. `op_sum` and the change count pin
        // Figure 3; the addresses follow the egress's cell-pool draw.
        let op_sum: u64 = s
            .rounds
            .iter()
            .map(|r| r.safari.operator.0 as u64 + r.curl.operator.0 as u64)
            .sum();
        let addr_len_sum: u64 = s
            .rounds
            .iter()
            .map(|r| r.safari.egress_addr.len() as u64 + r.curl.egress_addr.len() as u64)
            .sum();
        assert_eq!(op_sum, 17_742_384);
        assert_eq!(addr_len_sum, 6_067);
        assert_eq!(s.operator_changes().len(), 5);
    }

    #[test]
    fn observed_operators_are_egress_operators() {
        let (_, s) = series(DnsMode::Open);
        for op in s.operators_seen() {
            assert!(Asn::EGRESS_OPERATORS.contains(&op), "{op} not an egress AS");
        }
    }

    #[test]
    fn schedules_have_paper_shape() {
        assert_eq!(RelayScanConfig::operator_series().rounds(), 288);
        assert_eq!(RelayScanConfig::rotation_series().rounds(), 5760);
    }

    /// A serial loop, the oracle the engine series is checked against:
    /// round `i`'s Safari and curl requests take ids `2i + 1` and `2i + 2`.
    fn serial_series(
        device: &Device,
        auth: &dyn NameServer,
        config: &RelayScanConfig,
        start: SimTime,
    ) -> RelayScanSeries {
        let mut series = RelayScanSeries {
            rounds: Vec::new(),
            failures: 0,
        };
        for i in 0..config.rounds() {
            let now = start + config.interval.times(i);
            let pair = device
                .request(RequestAgent::Safari, auth, now, 2 * i + 1)
                .and_then(|safari| {
                    Ok((
                        safari,
                        device.request(RequestAgent::Curl, auth, now, 2 * i + 2)?,
                    ))
                });
            match pair {
                Ok((safari, curl)) => series.rounds.push(ScanRound {
                    relative_secs: (now - start).as_secs(),
                    safari: LoggedRequest::from_request(&safari),
                    curl: LoggedRequest::from_request(&curl),
                }),
                Err(_) => series.failures += 1,
            }
        }
        series
    }

    #[test]
    fn engine_series_matches_serial_loop_and_is_worker_invariant() {
        let (d, run) = series(DnsMode::Open);
        let auth = d.auth_server_unlimited();
        let config = RelayScanConfig::operator_series();
        let start = Epoch::May2022.start();
        // A fresh device per run, each with its own token ledger.
        let oracle = serial_series(
            &d.device_in_country(CountryCode::DE, DnsMode::Open),
            &auth,
            &config,
            start,
        );
        assert_eq!(oracle.failures, 0);
        assert_eq!(run, oracle, "run");
        for (shards, workers) in [(1, 1), (6, 1), (6, 3), (6, 8)] {
            let device = d.device_in_country(CountryCode::DE, DnsMode::Open);
            let s = RelayScanSeries::run_engine(
                &device,
                &[&auth],
                &config,
                start,
                0,
                &EngineConfig::new(shards, workers),
            );
            assert_eq!(s, oracle, "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn series_round_trips_through_json() {
        let (_, s) = series(DnsMode::Open);
        let json = serde_json::to_string(&s).unwrap();
        let back: RelayScanSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
