//! Traffic-scale load testing of the CONNECT-UDP data plane (§4).
//!
//! The paper measured iCloud Private Relay's egress behaviour with
//! five-minute curl polls over 48 h. This module reruns those findings as
//! a *load test*: thousands of concurrent relay sessions — each a token
//! admission at the ingress, a CONNECT open at the egress, a datagram
//! exchange and a close — driven either serially ([`run_serial`]) or
//! through the sharded discrete-event engine ([`run_engine`]). Both paths
//! produce a byte-identical [`StormReport`], which is the determinism
//! contract the equivalence tests pin: same seed ⇒ same per-session
//! metrics at any worker count.
//!
//! Sharding: client `c` lives on shard `c % shards`; each session's egress
//! lives on a shard derived from `(operator, geohash)`, so ingress→egress
//! datagrams are genuine cross-shard sends riding the engine's lookahead
//! window. Setting the network hop equal to the engine lookahead makes the
//! engine's conservative delivery clamp (`max(at, now + lookahead)`) agree
//! exactly with the serial path's `arrival = send + hop` arithmetic.
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
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tectonic_engine::{Engine, EngineConfig, ShardCtx, ShardModel};
use tectonic_geo::country::CountryCode;
use tectonic_net::{Asn, SimDuration, SimRng, SimTime};
use tectonic_relay::masque::{build_connect, client_cell, Transport};
use tectonic_relay::session::{
    frame_datagram, open_payload, seal_payload, unframe_datagram, DatagramOutcome, EgressNode,
    IngressNode, SessionReport,
};
use tectonic_relay::{Deployment, EgressSelector};

/// Applies channel effects to one client→egress datagram.
///
/// Implementations must be deterministic per `(shard, call sequence)`:
/// both drivers call `transfer` for the same shard in the same order, and
/// the byte-identical-report guarantee extends only to channels honouring
/// that. `now` is the datagram's send time (burst/outage windows key on
/// it); `src` is the sending client.
pub trait DatagramChannel: Sync {
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
    /// One-way ingress→egress network hop; [`run_engine`] uses it as the
    /// engine lookahead so both drivers agree on arrival times.
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

    /// Inverts [`StormConfig::session_id`].
    fn split_session_id(&self, sid: u64) -> (u32, u32, u32) {
        let z = sid - 1;
        let agent = (z % 2) as u32;
        let cr = z / 2;
        let round = (cr % u64::from(self.rounds.max(1))) as u32;
        let client = (cr / u64::from(self.rounds.max(1))) as u32;
        (client, round, agent)
    }
}

/// One pre-derived client: everything both drivers need, computed once so
/// neither consumes shared randomness during the run.
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
    let h = fnv(
        fnv(0, operator.value().to_be_bytes()),
        cell.bytes().collect::<Vec<u8>>(),
    );
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

/// Events routed through the engine (and mirrored by the serial driver).
enum StormEvent {
    /// Start client `c`: admit its sessions and emit every timed send.
    Kick(u32),
    /// A CONNECT arriving at the egress shard (reliable stream framing —
    /// QUIC retransmits it, so it does not cross the lossy channel).
    Open {
        sid: u64,
        chain: u64,
        operator: Asn,
        wire: Vec<u8>,
        transport: Transport,
    },
    /// A tunnelled datagram arriving at the egress (post-channel bytes).
    Packet { sid: u64, wire: Vec<u8> },
    /// Session close arriving at the egress (reliable framing again).
    Close { sid: u64 },
    /// An echo reply arriving back at the client's shard.
    Reply { sid: u64, wire: Vec<u8> },
}

/// Per-shard results folded into the [`StormReport`].
struct ShardOut {
    reports: Vec<SessionReport>,
    tokens_issued: u64,
    token_rejections: u64,
    no_operator: u64,
    datagrams_sent: u64,
    datagrams_forwarded: u64,
    replies_received: u64,
    strays: u64,
}

/// One engine shard: hosts the ingress (with its issuer ledger) for its
/// resident clients and the egress node for its share of cells.
struct StormShard<'a> {
    cfg: &'a StormConfig,
    specs: &'a [ClientSpec],
    selector: Arc<EgressSelector>,
    channel: &'a dyn DatagramChannel,
    shard: usize,
    ingress: IngressNode,
    egress: EgressNode,
    no_operator: u64,
    datagrams_sent: u64,
    datagrams_forwarded: u64,
    replies_received: u64,
}

impl StormShard<'_> {
    /// Emits every send for one client. All arrival times are pure
    /// arithmetic over the kick time, which is what lets the serial driver
    /// reproduce them without an event queue.
    fn kick(&mut self, client: u32, now: SimTime, ctx: &mut ShardCtx<StormEvent>) {
        let cfg = self.cfg;
        let Some(spec) = self.specs.get(client as usize) else {
            return;
        };
        let transport = if spec.udp_blocked {
            Transport::TcpFallback
        } else {
            Transport::Quic
        };
        for round in 0..cfg.rounds {
            let t_open = now + cfg.round_spacing.times(u64::from(round));
            let Some(operator) = self.selector.operator_for(spec.key, spec.cc, t_open) else {
                self.no_operator += 2;
                continue;
            };
            let dest = egress_shard(operator, &spec.geohash, ctx.shard_count());
            for agent in 0..2u32 {
                if self.ingress.admit(u64::from(client), t_open).is_err() {
                    continue;
                }
                let sid = cfg.session_id(client, round, agent);
                ctx.send(
                    dest,
                    t_open + cfg.hop,
                    StormEvent::Open {
                        sid,
                        chain: cfg.chain_id(client, agent),
                        operator,
                        wire: build_connect(agent_target(agent), &spec.geohash),
                        transport,
                    },
                );
                for k in 0..cfg.datagrams_per_session {
                    let t_send = t_open + cfg.datagram_gap.times(u64::from(k) + 1);
                    let wire = frame_datagram(&seal_payload(sid, k), transport);
                    self.datagrams_sent += 1;
                    if let Some(wire) = self.channel.transfer(self.shard, spec.addr, t_send, &wire)
                    {
                        self.datagrams_forwarded += 1;
                        ctx.send(dest, t_send + cfg.hop, StormEvent::Packet { sid, wire });
                    }
                }
                let t_close = t_open
                    + cfg
                        .datagram_gap
                        .times(u64::from(cfg.datagrams_per_session) + 1);
                ctx.send(dest, t_close + cfg.hop, StormEvent::Close { sid });
            }
        }
    }

    fn reply_valid(&self, sid: u64, wire: &[u8]) -> bool {
        let (client, _, _) = self.cfg.split_session_id(sid);
        let transport = match self.specs.get(client as usize) {
            Some(spec) if spec.udp_blocked => Transport::TcpFallback,
            Some(_) => Transport::Quic,
            None => return false,
        };
        unframe_datagram(wire, transport)
            .and_then(|p| open_payload(&p))
            .is_some_and(|(echo_sid, _)| echo_sid == sid)
    }
}

impl ShardModel for StormShard<'_> {
    type Event = StormEvent;
    type Out = ShardOut;

    fn handle(&mut self, now: SimTime, event: StormEvent, ctx: &mut ShardCtx<StormEvent>) {
        match event {
            StormEvent::Kick(client) => self.kick(client, now, ctx),
            StormEvent::Open {
                sid,
                chain,
                operator,
                wire,
                transport,
            } => {
                // CONNECTs ride the reliable stream; a parse failure here
                // would be a harness bug, and shows up as a missing report.
                let _ = self
                    .egress
                    .open(sid, chain, operator, &wire, transport, now);
            }
            StormEvent::Packet { sid, wire } => {
                if let DatagramOutcome::Reply(reply) = self.egress.datagram(sid, &wire) {
                    let (client, _, _) = self.cfg.split_session_id(sid);
                    let dest = client as usize % ctx.shard_count();
                    ctx.send(
                        dest,
                        now + self.cfg.hop,
                        StormEvent::Reply { sid, wire: reply },
                    );
                }
            }
            StormEvent::Close { sid } => {
                let _ = self.egress.close(sid, now);
            }
            StormEvent::Reply { sid, wire } => {
                if self.reply_valid(sid, &wire) {
                    self.replies_received += 1;
                }
            }
        }
    }

    fn finish(self) -> ShardOut {
        let strays = self.egress.strays;
        ShardOut {
            reports: self.egress.into_reports(),
            tokens_issued: self.ingress.accepted,
            token_rejections: self.ingress.rejected,
            no_operator: self.no_operator,
            datagrams_sent: self.datagrams_sent,
            datagrams_forwarded: self.datagrams_forwarded,
            replies_received: self.replies_received,
            strays,
        }
    }
}

/// The merged result of one storm — identical bytes from both drivers.
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
        // partner is sid+1.
        let by_sid: BTreeMap<u64, &SessionReport> =
            self.sessions.iter().map(|s| (s.session_id, s)).collect();
        for (sid, a) in &by_sid {
            if (sid - 1) % 2 != 0 {
                continue;
            }
            if let Some(b) = by_sid.get(&(sid + 1)) {
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

fn merge(cfg: &StormConfig, outs: Vec<ShardOut>) -> StormReport {
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
    for out in outs {
        report.sessions.extend(out.reports);
        report.tokens_issued += out.tokens_issued;
        report.token_rejections += out.token_rejections;
        report.no_operator += out.no_operator;
        report.datagrams_sent += out.datagrams_sent;
        report.datagrams_forwarded += out.datagrams_forwarded;
        report.replies_received += out.replies_received;
        report.strays += out.strays;
    }
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

/// Runs the storm through the sharded engine with `workers` workers.
///
/// The report is byte-identical to [`run_serial`] with the same config and
/// an equivalent channel, at any worker count.
pub fn run_engine(
    deployment: &Deployment,
    cfg: &StormConfig,
    channel: &dyn DatagramChannel,
    workers: usize,
) -> StormReport {
    let engine = EngineConfig::new(cfg.shards, workers).with_lookahead(cfg.hop);
    let selector = deployment.egress_selector();
    let specs = client_specs(deployment, cfg);
    let models: Vec<StormShard<'_>> = (0..engine.shards)
        .map(|s| StormShard {
            cfg,
            specs: &specs,
            selector: selector.clone(),
            channel,
            shard: s,
            ingress: IngressNode::new(ingress_addr(s), cfg.per_day_tokens),
            egress: EgressNode::new(selector.clone(), cfg.seed ^ 0xE6E5_5010),
            no_operator: 0,
            datagrams_sent: 0,
            datagrams_forwarded: 0,
            replies_received: 0,
        })
        .collect();
    let mut eng = Engine::new(&engine, models, &SimRng::new(cfg.seed ^ 0x5702_34C1));
    for c in 0..cfg.clients {
        eng.seed(
            c as usize % cfg.shards.max(1),
            cfg.kick_time(c),
            StormEvent::Kick(c),
        );
    }
    merge(cfg, eng.run())
}

/// Runs the storm serially — no event queue, no threads — reproducing the
/// engine's per-shard state sequences by pure iteration order: clients in
/// index order touch their shard's ingress, channel and egress in exactly
/// the order the engine's time-sorted queues would.
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
    let mut no_operator = 0u64;
    let mut datagrams_sent = 0u64;
    let mut datagrams_forwarded = 0u64;
    let mut replies_received = 0u64;
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
                no_operator += 2;
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
                    datagrams_sent += 1;
                    let Some(wire) = channel.transfer(shard, spec.addr, t_send, &wire) else {
                        continue;
                    };
                    datagrams_forwarded += 1;
                    if let DatagramOutcome::Reply(reply) = node.datagram(sid, &wire) {
                        let ok = unframe_datagram(&reply, transport)
                            .and_then(|p| open_payload(&p))
                            .is_some_and(|(echo_sid, _)| echo_sid == sid);
                        if ok {
                            replies_received += 1;
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
    let outs: Vec<ShardOut> = ingress
        .into_iter()
        .zip(egress)
        .enumerate()
        .map(|(s, (ing, eg))| {
            let strays = eg.strays;
            ShardOut {
                reports: eg.into_reports(),
                tokens_issued: ing.accepted,
                token_rejections: ing.rejected,
                no_operator: if s == 0 { no_operator } else { 0 },
                datagrams_sent: if s == 0 { datagrams_sent } else { 0 },
                datagrams_forwarded: if s == 0 { datagrams_forwarded } else { 0 },
                replies_received: if s == 0 { replies_received } else { 0 },
                strays,
            }
        })
        .collect();
    merge(cfg, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_relay::DeploymentConfig;

    fn deployment() -> Deployment {
        Deployment::build(21, DeploymentConfig::scaled(512))
    }

    #[test]
    fn serial_and_engine_agree_byte_for_byte() {
        let d = deployment();
        let cfg = StormConfig::sized(48, 3, 0xA11CE);
        let serial = run_serial(&d, &cfg, &PerfectChannel);
        for workers in [1, 2, 4] {
            let engine = run_engine(&d, &cfg, &PerfectChannel, workers);
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&engine).unwrap(),
                "workers={workers}"
            );
        }
        assert_eq!(serial.sessions.len() as u64, cfg.attempted_sessions());
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
