//! Traffic-scale load testing of the CONNECT-UDP data plane (§4).
//!
//! The paper measured iCloud Private Relay's egress behaviour with
//! five-minute curl polls over 48 h. This module reruns those findings as
//! a *load test*: thousands of concurrent relay sessions — each a token
//! admission at the ingress, a CONNECT open at the egress, a datagram
//! exchange and a close — driven by one plain loop, [`run_serial`]. Every
//! arrival time is arithmetic over the client's kick time (`send + hop`),
//! so the loop needs no event queue.
//!
//! Sharding: client `c` lives on shard `c % shards`, whose ingress admits
//! it and whose channel carries its datagrams; each session's egress lives
//! on a shard derived from `(operator, geohash)`, so one cell's sessions
//! share an egress node. The partition fixes every node's and channel's
//! call sequence. A time-ordered simulation of the same shards on the
//! discrete-event engine is the storm's oracle: `tests/masque_load.rs`
//! checks the loop's report against it, byte for byte, at 1, 2 and 4
//! workers.
//!
//! Faults: every client→egress datagram crosses a [`DatagramChannel`].
//! The trait keeps this crate free of a `simnet` dependency — the chaos
//! pipeline (which has one) adapts `FaultedChannel` behind it, while
//! [`PerfectChannel`] runs the loss-free load test. Datagram payloads are
//! fixed-shape sealed records, so whatever a faulty channel does to the
//! bytes is detectably invalid at the egress and lands in a counter:
//! `sent == forwarded + channel drops` and `forwarded == delivered +
//! session drops` reconcile exactly.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

use serde::{Deserialize, Serialize};
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, SimDuration, SimRng, SimTime};
use tectonic_relay::masque::{build_connect, client_cell, Transport};
use tectonic_relay::session::{
    frame_datagram, open_payload, seal_payload, unframe_datagram, DatagramOutcome, EgressNode,
    IngressNode, SessionReport,
};
use tectonic_relay::Deployment;

/// Applies channel effects to one client→egress datagram.
///
/// Implementations must be deterministic per `(shard, call sequence)`: the
/// storm calls `transfer` for a shard's clients in client order, the order
/// a time-ordered simulation of the shard would call it in, and reports
/// repeat only for channels honouring that. `now` is the datagram's send
/// time (burst/outage windows key on it); `src` is the sending client.
pub trait DatagramChannel {
    /// The wire as the egress receives it, or `None` when lost in flight.
    fn transfer(&self, shard: usize, src: IpAddr, now: SimTime, wire: &[u8]) -> Option<Vec<u8>>;
}

/// The loss-free channel: every datagram arrives untouched.
pub struct PerfectChannel;

impl DatagramChannel for PerfectChannel {
    fn transfer(&self, _shard: usize, _src: IpAddr, _now: SimTime, wire: &[u8]) -> Option<Vec<u8>> {
        Some(wire.to_vec())
    }
}

/// Shape of one session storm.
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// Number of client agent pairs (each runs Safari + curl in parallel).
    pub clients: u32,
    /// Consecutive request rounds per client.
    pub rounds: u32,
    /// Datagrams each session sends before closing.
    pub datagrams_per_session: u32,
    /// Per-user daily token budget at the ingress.
    pub per_day_tokens: u32,
    /// Storm start (keep it away from a 3 h operator-stickiness boundary
    /// when asserting operator stability).
    pub start: SimTime,
    /// Per-client kick offset (keeps per-shard event times distinct).
    pub stagger: SimDuration,
    /// Gap between a client's consecutive rounds.
    pub round_spacing: SimDuration,
    /// Gap between a session's datagrams (also sets session lifetime).
    pub datagram_gap: SimDuration,
    /// One-way network hop: a CONNECT, datagram or close reaches the
    /// egress `hop` after the client sends it.
    pub hop: SimDuration,
    /// Shard count — fixes the partition (and the per-shard channel call
    /// sequences), so it is part of the scenario, not a tuning knob.
    pub shards: usize,
    /// Seed for client keys and per-session draws.
    pub seed: u64,
}

impl StormConfig {
    /// A storm sized for tests: `clients × rounds × 2` sessions.
    pub fn sized(clients: u32, rounds: u32, seed: u64) -> StormConfig {
        StormConfig {
            clients,
            rounds,
            datagrams_per_session: 4,
            per_day_tokens: u32::MAX,
            start: SimTime::from_ymd(2022, 5, 10),
            stagger: SimDuration::from_millis(1),
            round_spacing: SimDuration::from_secs(5),
            datagram_gap: SimDuration::from_millis(500),
            hop: SimDuration::from_millis(10),
            shards: 8,
            seed,
        }
    }

    /// Total sessions attempted (before token rejection).
    pub fn attempted_sessions(&self) -> u64 {
        u64::from(self.clients) * u64::from(self.rounds) * 2
    }

    fn kick_time(&self, client: u32) -> SimTime {
        self.start + self.stagger.times(u64::from(client))
    }

    fn session_id(&self, client: u32, round: u32, agent: u32) -> u64 {
        (u64::from(client) * u64::from(self.rounds) + u64::from(round)) * 2 + u64::from(agent) + 1
    }

    fn chain_id(&self, client: u32, agent: u32) -> u64 {
        u64::from(client) * 2 + u64::from(agent) + 1
    }
}

/// One pre-derived client, computed once so the run consumes no shared
/// randomness.
#[derive(Clone, Debug)]
struct ClientSpec {
    /// Stable selector key (stands in for the blinded client identity).
    key: u64,
    /// The client's source address.
    addr: IpAddr,
    /// The client's country.
    cc: CountryCode,
    /// The geohash cell advertised in the CONNECT.
    geohash: String,
    /// Every 16th client sits behind a UDP-hostile network (§2 fallback).
    udp_blocked: bool,
}

fn client_specs(deployment: &Deployment, cfg: &StormConfig) -> Vec<ClientSpec> {
    let ases = deployment.world.ases();
    (0..cfg.clients)
        .filter_map(|c| {
            let spread = ases.len().max(1);
            let ase = ases.get(c as usize % spread)?;
            Some(ClientSpec {
                key: SimRng::new(cfg.seed)
                    .fork_indexed("storm-client", u64::from(c))
                    .next_u64_raw(),
                addr: IpAddr::V4(ase.host_addr(u64::from(c) / spread as u64)),
                cc: ase.cc,
                geohash: client_cell(ase.cc),
                udp_blocked: c % 16 == 15,
            })
        })
        .collect()
}

fn fnv(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// The shard a session's egress lives on: keyed by `(operator, geohash)`,
/// so one cell's sessions share an egress node (and its rotation chains).
fn egress_shard(operator: Asn, cell: &str, shards: usize) -> usize {
    let h = fnv(fnv(0, operator.value().to_be_bytes()), cell.bytes());
    (h % shards.max(1) as u64) as usize
}

fn ingress_addr(shard: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(
        172,
        64,
        (shard >> 8) as u8,
        (shard & 0xFF) as u8,
    ))
}

fn agent_target(agent: u32) -> &'static str {
    if agent == 0 {
        "observer.scan.example:443"
    } else {
        "ipecho.net:80"
    }
}

/// The merged result of one storm.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct StormReport {
    /// Client count (report-side key for decoding session ids).
    pub clients: u32,
    /// Rounds per client.
    pub rounds: u32,
    /// Every closed session, sorted by session id.
    pub sessions: Vec<SessionReport>,
    /// Tokens the ingress issued (accepted admissions).
    pub tokens_issued: u64,
    /// Admissions rejected by the daily budget.
    pub token_rejections: u64,
    /// Sessions skipped because no operator served the location.
    pub no_operator: u64,
    /// Datagrams clients injected into the channel.
    pub datagrams_sent: u64,
    /// Datagrams that survived the channel (arrived at the egress).
    pub datagrams_forwarded: u64,
    /// Datagrams the egress accepted as valid (sum of session
    /// `datagrams_in`).
    pub datagrams_delivered: u64,
    /// Datagrams that arrived damaged and were dropped at the egress (sum
    /// of session `drops`).
    pub session_drops: u64,
    /// Echo replies clients received and validated.
    pub replies_received: u64,
    /// Datagrams for already-closed or never-opened sessions.
    pub strays: u64,
    /// Peak simultaneously-open sessions across all egress shards.
    pub peak_concurrent: u64,
}

/// §4.3 rotation statistics derived from a [`StormReport`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RotationStats {
    /// Chains (client agents) with at least one session.
    pub chains: u64,
    /// Consecutive same-agent session pairs.
    pub consecutive_pairs: u64,
    /// Pairs whose egress address differed (§4.3: >66 % expected with the
    /// three-address cell pool).
    pub consecutive_rotated: u64,
    /// Pairs whose egress *operator* differed (§4.3: sticky ⇒ ~0 within a
    /// stickiness window).
    pub operator_changes: u64,
    /// Same-client same-round Safari/curl pairs.
    pub parallel_pairs: u64,
    /// Parallel pairs that got distinct addresses.
    pub parallel_distinct: u64,
}

impl RotationStats {
    /// Fraction of consecutive pairs that rotated the address.
    pub fn consecutive_rate(&self) -> f64 {
        if self.consecutive_pairs == 0 {
            return 0.0;
        }
        self.consecutive_rotated as f64 / self.consecutive_pairs as f64
    }

    /// Fraction of parallel pairs with distinct addresses.
    pub fn parallel_rate(&self) -> f64 {
        if self.parallel_pairs == 0 {
            return 0.0;
        }
        self.parallel_distinct as f64 / self.parallel_pairs as f64
    }
}

impl StormReport {
    /// Derives the §4.3 rotation/stickiness statistics.
    pub fn rotation_stats(&self) -> RotationStats {
        let mut chains: BTreeMap<u64, Vec<&SessionReport>> = BTreeMap::new();
        for s in &self.sessions {
            chains.entry(s.chain).or_default().push(s);
        }
        let mut stats = RotationStats {
            chains: chains.len() as u64,
            consecutive_pairs: 0,
            consecutive_rotated: 0,
            operator_changes: 0,
            parallel_pairs: 0,
            parallel_distinct: 0,
        };
        for sessions in chains.values() {
            for pair in sessions.windows(2) {
                let [a, b] = pair else { continue };
                stats.consecutive_pairs += 1;
                if a.addr != b.addr {
                    stats.consecutive_rotated += 1;
                }
                if a.operator != b.operator {
                    stats.operator_changes += 1;
                }
            }
        }
        // Parallel pairs: sid of agent 0 is odd (2·(c·rounds+r)+1), its
        // partner is sid+1. A deserialised report may hold any ids, so
        // neither step may overflow.
        let by_sid: BTreeMap<u64, &SessionReport> =
            self.sessions.iter().map(|s| (s.session_id, s)).collect();
        for (sid, a) in &by_sid {
            if sid % 2 != 1 {
                continue;
            }
            if let Some(b) = sid.checked_add(1).and_then(|partner| by_sid.get(&partner)) {
                stats.parallel_pairs += 1;
                if a.addr != b.addr {
                    stats.parallel_distinct += 1;
                }
            }
        }
        stats
    }

    /// Sum of per-session rotation flags (cross-check against
    /// [`RotationStats::consecutive_rotated`]).
    pub fn counter_rotations(&self) -> u64 {
        self.sessions.iter().map(|s| s.counters.rotations).sum()
    }

    /// Human-readable summary lines for chaos artifacts.
    pub fn render(&self) -> Vec<String> {
        let stats = self.rotation_stats();
        vec![
            format!(
                "masque storm: {} sessions ({} peak concurrent), {} tokens issued, {} rejected",
                self.sessions.len(),
                self.peak_concurrent,
                self.tokens_issued,
                self.token_rejections
            ),
            format!(
                "masque datagrams: {} sent, {} forwarded, {} delivered, {} dropped, {} replies",
                self.datagrams_sent,
                self.datagrams_forwarded,
                self.datagrams_delivered,
                self.session_drops,
                self.replies_received
            ),
            format!(
                "masque rotation: consecutive {:.1}% ({}/{}), parallel distinct {:.1}% ({}/{}), operator changes {}",
                100.0 * stats.consecutive_rate(),
                stats.consecutive_rotated,
                stats.consecutive_pairs,
                100.0 * stats.parallel_rate(),
                stats.parallel_distinct,
                stats.parallel_pairs,
                stats.operator_changes
            ),
        ]
    }
}

/// Finishes a report whose sessions and counters the run filled in: sorts
/// the sessions, sums what the egress delivered and dropped, and sweeps
/// the peak concurrency.
fn finish(mut report: StormReport) -> StormReport {
    report.sessions.sort_by_key(|s| s.session_id);
    for s in &report.sessions {
        report.datagrams_delivered += s.counters.datagrams_in;
        report.session_drops += s.counters.drops;
    }
    // Peak concurrency: a sweep over (open, close) intervals; opens sort
    // before closes at equal times, so a back-to-back handover counts as
    // overlapping. Partition-independent by construction.
    let mut edges: Vec<(u64, i8)> = Vec::with_capacity(report.sessions.len() * 2);
    for s in &report.sessions {
        edges.push((s.counters.opened_at.as_millis(), 0));
        if let Some(closed) = s.counters.closed_at {
            edges.push((closed.as_millis(), 1));
        }
    }
    edges.sort_unstable();
    let mut live: i64 = 0;
    for (_, kind) in edges {
        if kind == 0 {
            live += 1;
            report.peak_concurrent = report.peak_concurrent.max(live as u64);
        } else {
            live -= 1;
        }
    }
    report
}

/// Runs the storm through [`run_serial`] and ignores the worker count.
///
/// Kept only for perfbench's two callers. The benchmark change that points
/// them at [`run_serial`] (ROADMAP item 1) deletes it.
pub fn run_engine(
    deployment: &Deployment,
    cfg: &StormConfig,
    channel: &dyn DatagramChannel,
    _workers: usize,
) -> StormReport {
    run_serial(deployment, cfg, channel)
}

/// Runs the storm: clients in index order, each one's rounds and agents in
/// turn, every session opened, fed and closed before the next. Each client
/// touches its shard's ingress and channel and its cell's egress node in
/// the order a time-ordered simulation of the shards would.
pub fn run_serial(
    deployment: &Deployment,
    cfg: &StormConfig,
    channel: &dyn DatagramChannel,
) -> StormReport {
    let selector = deployment.egress_selector();
    let specs = client_specs(deployment, cfg);
    let shards = cfg.shards.max(1);
    let mut ingress: Vec<IngressNode> = (0..shards)
        .map(|s| IngressNode::new(ingress_addr(s), cfg.per_day_tokens))
        .collect();
    let mut egress: Vec<EgressNode> = (0..shards)
        .map(|_| EgressNode::new(selector.clone(), cfg.seed ^ 0xE6E5_5010))
        .collect();
    let mut report = StormReport {
        clients: cfg.clients,
        rounds: cfg.rounds,
        sessions: Vec::new(),
        tokens_issued: 0,
        token_rejections: 0,
        no_operator: 0,
        datagrams_sent: 0,
        datagrams_forwarded: 0,
        datagrams_delivered: 0,
        session_drops: 0,
        replies_received: 0,
        strays: 0,
        peak_concurrent: 0,
    };
    for (c, spec) in specs.iter().enumerate() {
        let client = c as u32;
        let shard = c % shards;
        let kick = cfg.kick_time(client);
        let transport = if spec.udp_blocked {
            Transport::TcpFallback
        } else {
            Transport::Quic
        };
        for round in 0..cfg.rounds {
            let t_open = kick + cfg.round_spacing.times(u64::from(round));
            let Some(operator) = selector.operator_for(spec.key, spec.cc, t_open) else {
                report.no_operator += 2;
                continue;
            };
            let dest = egress_shard(operator, &spec.geohash, shards);
            let (Some(ing), Some(node)) = (ingress.get_mut(shard), egress.get_mut(dest)) else {
                continue;
            };
            for agent in 0..2u32 {
                if ing.admit(u64::from(client), t_open).is_err() {
                    continue;
                }
                let sid = cfg.session_id(client, round, agent);
                let _ = node.open(
                    sid,
                    cfg.chain_id(client, agent),
                    operator,
                    &build_connect(agent_target(agent), &spec.geohash),
                    transport,
                    t_open + cfg.hop,
                );
                for k in 0..cfg.datagrams_per_session {
                    let t_send = t_open + cfg.datagram_gap.times(u64::from(k) + 1);
                    let wire = frame_datagram(&seal_payload(sid, k), transport);
                    report.datagrams_sent += 1;
                    let Some(wire) = channel.transfer(shard, spec.addr, t_send, &wire) else {
                        continue;
                    };
                    report.datagrams_forwarded += 1;
                    if let DatagramOutcome::Reply(reply) = node.datagram(sid, &wire) {
                        let ok = unframe_datagram(&reply, transport)
                            .and_then(|p| open_payload(&p))
                            .is_some_and(|(echo_sid, _)| echo_sid == sid);
                        if ok {
                            report.replies_received += 1;
                        }
                    }
                }
                let t_close = t_open
                    + cfg
                        .datagram_gap
                        .times(u64::from(cfg.datagrams_per_session) + 1);
                let _ = node.close(sid, t_close + cfg.hop);
            }
        }
    }
    for ing in ingress {
        report.tokens_issued += ing.accepted;
        report.token_rejections += ing.rejected;
    }
    for node in egress {
        report.strays += node.strays;
        report.sessions.extend(node.into_reports());
    }
    finish(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_relay::DeploymentConfig;

    fn deployment() -> Deployment {
        Deployment::build(21, DeploymentConfig::scaled(512))
    }

    #[test]
    fn perfect_channel_conserves_every_datagram() {
        let d = deployment();
        let cfg = StormConfig::sized(32, 2, 7);
        let report = run_serial(&d, &cfg, &PerfectChannel);
        assert_eq!(report.datagrams_sent, report.datagrams_forwarded);
        assert_eq!(report.datagrams_forwarded, report.datagrams_delivered);
        assert_eq!(report.session_drops, 0);
        assert_eq!(report.replies_received, report.datagrams_delivered);
        assert_eq!(report.strays, 0);
        assert_eq!(report.token_rejections, 0);
        assert_eq!(report.tokens_issued, cfg.attempted_sessions());
        assert_eq!(
            report.datagrams_sent,
            cfg.attempted_sessions() * u64::from(cfg.datagrams_per_session)
        );
    }

    #[test]
    fn token_budget_caps_sessions_per_client() {
        let d = deployment();
        let mut cfg = StormConfig::sized(12, 3, 9);
        // 3 rounds × 2 agents = 6 attempts per client; budget 5 rejects
        // exactly the last attempt of every client.
        cfg.per_day_tokens = 5;
        let report = run_serial(&d, &cfg, &PerfectChannel);
        assert_eq!(report.token_rejections, u64::from(cfg.clients));
        assert_eq!(
            report.tokens_issued,
            cfg.attempted_sessions() - u64::from(cfg.clients)
        );
        assert_eq!(
            report.sessions.len() as u64,
            cfg.attempted_sessions() - u64::from(cfg.clients)
        );
    }

    #[test]
    fn rotation_stats_match_session_counters() {
        let d = deployment();
        let cfg = StormConfig::sized(64, 4, 3);
        let report = run_serial(&d, &cfg, &PerfectChannel);
        let stats = report.rotation_stats();
        assert_eq!(stats.chains, u64::from(cfg.clients) * 2);
        assert_eq!(
            stats.consecutive_pairs,
            u64::from(cfg.clients) * 2 * u64::from(cfg.rounds - 1)
        );
        // The per-session rotation counters and the report-level pairing
        // are two independent derivations of the same quantity.
        assert_eq!(stats.consecutive_rotated, report.counter_rotations());
        // Operator stickiness: zero changes inside a 3 h window.
        assert_eq!(stats.operator_changes, 0);
    }

    #[test]
    fn rotation_stats_take_any_session_ids() {
        let d = deployment();
        let mut report = run_serial(&d, &StormConfig::sized(2, 1, 3), &PerfectChannel);
        // A deserialised report may carry ids no storm issues: 0 has no
        // agent, and u64::MAX is an agent-0 id whose partner overflows.
        // Only 1 and 2 form a parallel pair.
        for (s, sid) in report.sessions.iter_mut().zip([0, 1, 2, u64::MAX]) {
            s.session_id = sid;
        }
        let stats = report.rotation_stats();
        assert_eq!(report.sessions.len(), 4);
        assert_eq!(stats.parallel_pairs, 1);
        assert!(stats.parallel_distinct <= 1);
    }

    #[test]
    fn sessions_overlap_into_real_concurrency() {
        let d = deployment();
        let cfg = StormConfig::sized(40, 2, 5);
        let report = run_serial(&d, &cfg, &PerfectChannel);
        // 40 clients × 2 agents open within 40 ms of each other and stay
        // open for 2.5 s: all of a round's sessions overlap.
        assert!(
            report.peak_concurrent >= u64::from(cfg.clients) * 2,
            "peak {} < {}",
            report.peak_concurrent,
            cfg.clients * 2
        );
    }
}
