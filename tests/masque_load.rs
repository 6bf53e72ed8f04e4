//! The §4 acceptance surface: a traffic-scale CONNECT-UDP session storm,
//! checked against an engine oracle and reproducing the paper's §4
//! findings as statistical assertions:
//!
//! 1. the egress *operator* is stable per client within a stickiness
//!    window (§4.2),
//! 2. consecutive requests rotate the egress *address* at roughly the
//!    1 − 1/pool rate the three-address geohash cells predict (§4.3),
//! 3. parallel requests (Safari + curl in flight together) get distinct
//!    addresses at roughly the same rate (§4.3).
//!
//! The client device draws from the same cell pools, so the 48 h relay
//! series reproduces findings 2 and 3 too.
//!
//! The storm has one driver, `run_serial`, a plain loop over the clients.
//! Its oracle lives here, written against the public API: the same storm
//! as a time-ordered event simulation on the sharded engine, in which
//! CONNECTs, datagrams and closes reach the egress shard one hop after
//! they are sent and echo replies travel back to the client's shard. The
//! loop's report must equal the oracle's byte for byte at 1, 2 and 4
//! workers, with more than 2 000 sessions open at once and under a lossy
//! channel that counts its calls per shard, so calling a shard's channel
//! in another order shows.

#![expect(
    clippy::disallowed_types,
    reason = "the lossy test channel counts its calls per shard behind `&self`, as a \
              `DatagramChannel` must, and the oracle calls it from engine workers; the \
              lock is the fixture, no simulation state"
)]

use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

use tectonic::core::masque_load::{
    run_serial, DatagramChannel, PerfectChannel, StormConfig, StormReport,
};
use tectonic::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use tectonic::core::rotation::RotationReport;
use tectonic::engine::{Engine, EngineConfig, ShardCtx, ShardModel};
use tectonic::geo::country::CountryCode;
use tectonic::net::{Asn, Epoch, SimRng, SimTime};
use tectonic::relay::masque::{build_connect, client_cell, Transport};
use tectonic::relay::session::{
    frame_datagram, open_payload, seal_payload, unframe_datagram, CELL_POOL_SIZE,
};
use tectonic::relay::{
    DatagramOutcome, Deployment, DeploymentConfig, DnsMode, EgressNode, EgressSelector, IngressNode,
};

fn deployment(seed: u64) -> Deployment {
    Deployment::build(seed, DeploymentConfig::scaled(512))
}

/// Counts calls per shard and offsets each count by its shard index; drops
/// the calls whose offset count is a multiple of 3 and corrupts the rest
/// whose offset count is a multiple of 7. A driver that calls the channel
/// for another shard, or calls a shard in another order, changes the
/// report.
struct Lossy {
    calls: Mutex<Vec<u64>>,
}

impl Lossy {
    fn new(shards: usize) -> Lossy {
        Lossy {
            calls: Mutex::new(vec![0; shards]),
        }
    }
}

impl DatagramChannel for Lossy {
    fn transfer(&self, shard: usize, _src: IpAddr, _now: SimTime, wire: &[u8]) -> Option<Vec<u8>> {
        let mut calls = self.calls.lock().expect("call counts");
        let n = calls.get_mut(shard).expect("a configured shard");
        *n += 1;
        let count = *n + shard as u64;
        if count.is_multiple_of(3) {
            return None;
        }
        let mut wire = wire.to_vec();
        if count.is_multiple_of(7) {
            if let Some(b) = wire.get_mut(1) {
                *b ^= 0xFF;
            }
        }
        Some(wire)
    }
}

// ----- The oracle. It restates what `masque_load` keeps private: the
// client keys and addresses, the egress-shard hash, the ingress
// addresses, the session and chain ids, and how a report is finished.

/// One storm client, derived as the library derives it.
struct Client {
    key: u64,
    addr: IpAddr,
    cc: CountryCode,
    cell: String,
    transport: Transport,
}

fn clients(deployment: &Deployment, cfg: &StormConfig) -> Vec<Client> {
    let ases = deployment.world.ases();
    let spread = ases.len().max(1);
    (0..cfg.clients)
        .filter_map(|c| {
            let ase = ases.get(c as usize % spread)?;
            Some(Client {
                key: SimRng::new(cfg.seed)
                    .fork_indexed("storm-client", u64::from(c))
                    .next_u64_raw(),
                addr: IpAddr::V4(ase.host_addr(u64::from(c) / spread as u64)),
                cc: ase.cc,
                cell: client_cell(ase.cc),
                transport: if c % 16 == 15 {
                    Transport::TcpFallback
                } else {
                    Transport::Quic
                },
            })
        })
        .collect()
}

fn fnv(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(seed ^ 0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1_0000_01B3)
        })
}

/// The shard of the egress serving `(operator, cell)`.
fn egress_shard(operator: Asn, cell: &str, shards: usize) -> usize {
    let h = fnv(fnv(0, operator.value().to_be_bytes()), cell.bytes());
    (h % shards as u64) as usize
}

fn ingress_addr(shard: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(
        172,
        64,
        (shard >> 8) as u8,
        (shard & 0xFF) as u8,
    ))
}

fn session_id(cfg: &StormConfig, client: u32, round: u32, agent: u32) -> u64 {
    (u64::from(client) * u64::from(cfg.rounds) + u64::from(round)) * 2 + u64::from(agent) + 1
}

/// The client a session id belongs to.
fn client_of(cfg: &StormConfig, sid: u64) -> usize {
    ((sid - 1) / 2 / u64::from(cfg.rounds)) as usize
}

fn chain_id(client: u32, agent: u32) -> u64 {
    u64::from(client) * 2 + u64::from(agent) + 1
}

fn agent_target(agent: u32) -> &'static str {
    if agent == 0 {
        "observer.scan.example:443"
    } else {
        "ipecho.net:80"
    }
}

/// A report with the storm's shape and every counter at zero.
fn empty_report(cfg: &StormConfig) -> StormReport {
    StormReport {
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
    }
}

enum Event {
    /// Client `c` starts: it takes its tokens and sends every session's
    /// messages, each timed to arrive one hop later.
    Kick(u32),
    /// A CONNECT reaching the egress. It rides the reliable stream, so it
    /// does not cross the channel.
    Open {
        sid: u64,
        chain: u64,
        operator: Asn,
        wire: Vec<u8>,
        transport: Transport,
    },
    /// A datagram reaching the egress, as the channel left it.
    Packet { sid: u64, wire: Vec<u8> },
    /// A close reaching the egress.
    Close { sid: u64 },
    /// An echo reply reaching the client's shard.
    Reply { sid: u64, wire: Vec<u8> },
}

/// One engine shard: the ingress and channel of its clients, and the
/// egress node of its cells.
struct Shard<'a> {
    cfg: &'a StormConfig,
    clients: &'a [Client],
    selector: Arc<EgressSelector>,
    channel: &'a (dyn DatagramChannel + Sync),
    ingress: IngressNode,
    egress: EgressNode,
    /// This shard's counters and sessions, merged after the run.
    tally: StormReport,
}

impl Shard<'_> {
    fn kick(&mut self, c: u32, now: SimTime, ctx: &mut ShardCtx<Event>) {
        let cfg = self.cfg;
        let Some(client) = self.clients.get(c as usize) else {
            return;
        };
        for round in 0..cfg.rounds {
            let t_open = now + cfg.round_spacing.times(u64::from(round));
            let Some(operator) = self.selector.operator_for(client.key, client.cc, t_open) else {
                self.tally.no_operator += 2;
                continue;
            };
            let dest = egress_shard(operator, &client.cell, ctx.shard_count());
            for agent in 0..2 {
                if self.ingress.admit(u64::from(c), t_open).is_err() {
                    continue;
                }
                let sid = session_id(cfg, c, round, agent);
                let open = Event::Open {
                    sid,
                    chain: chain_id(c, agent),
                    operator,
                    wire: build_connect(agent_target(agent), &client.cell),
                    transport: client.transport,
                };
                ctx.send(dest, t_open + cfg.hop, open);
                for k in 0..cfg.datagrams_per_session {
                    let t_send = t_open + cfg.datagram_gap.times(u64::from(k) + 1);
                    let wire = frame_datagram(&seal_payload(sid, k), client.transport);
                    self.tally.datagrams_sent += 1;
                    let shard = ctx.shard();
                    if let Some(wire) = self.channel.transfer(shard, client.addr, t_send, &wire) {
                        self.tally.datagrams_forwarded += 1;
                        ctx.send(dest, t_send + cfg.hop, Event::Packet { sid, wire });
                    }
                }
                let lifetime = cfg
                    .datagram_gap
                    .times(u64::from(cfg.datagrams_per_session) + 1);
                ctx.send(dest, t_open + lifetime + cfg.hop, Event::Close { sid });
            }
        }
    }
}

impl ShardModel for Shard<'_> {
    type Event = Event;
    type Out = StormReport;

    fn handle(&mut self, now: SimTime, event: Event, ctx: &mut ShardCtx<Event>) {
        match event {
            Event::Kick(c) => self.kick(c, now, ctx),
            Event::Open {
                sid,
                chain,
                operator,
                wire,
                transport,
            } => {
                let _ = self
                    .egress
                    .open(sid, chain, operator, &wire, transport, now);
            }
            Event::Packet { sid, wire } => {
                if let DatagramOutcome::Reply(reply) = self.egress.datagram(sid, &wire) {
                    let home = client_of(self.cfg, sid) % ctx.shard_count();
                    ctx.send(home, now + self.cfg.hop, Event::Reply { sid, wire: reply });
                }
            }
            Event::Close { sid } => {
                let _ = self.egress.close(sid, now);
            }
            Event::Reply { sid, wire } => {
                let Some(client) = self.clients.get(client_of(self.cfg, sid)) else {
                    return;
                };
                let echoed = unframe_datagram(&wire, client.transport)
                    .and_then(|p| open_payload(&p))
                    .is_some_and(|(echo, _)| echo == sid);
                if echoed {
                    self.tally.replies_received += 1;
                }
            }
        }
    }

    fn finish(self) -> StormReport {
        let mut tally = self.tally;
        tally.tokens_issued = self.ingress.accepted;
        tally.token_rejections = self.ingress.rejected;
        tally.strays = self.egress.strays;
        tally.sessions = self.egress.into_reports();
        tally
    }
}

/// The storm as a time-ordered simulation on `cfg.shards` engine shards
/// with `workers` workers; the hop is the engine's lookahead, so no send
/// is clamped.
fn run_oracle(
    deployment: &Deployment,
    cfg: &StormConfig,
    channel: &(dyn DatagramChannel + Sync),
    workers: usize,
) -> StormReport {
    let selector = deployment.egress_selector();
    let clients = clients(deployment, cfg);
    let models = (0..cfg.shards)
        .map(|s| Shard {
            cfg,
            clients: &clients,
            selector: selector.clone(),
            channel,
            ingress: IngressNode::new(ingress_addr(s), cfg.per_day_tokens),
            egress: EgressNode::new(selector.clone(), cfg.seed ^ 0xE6E5_5010),
            tally: empty_report(cfg),
        })
        .collect();
    let engine = EngineConfig::new(cfg.shards, workers).with_lookahead(cfg.hop);
    let mut engine = Engine::new(&engine, models, &SimRng::new(cfg.seed));
    for c in 0..cfg.clients {
        let kick = cfg.start + cfg.stagger.times(u64::from(c));
        engine.seed(c as usize % cfg.shards, kick, Event::Kick(c));
    }
    // The merge: sum the shards, sort the sessions, add up what the
    // egress delivered and dropped, and sweep the peak concurrency
    // (opens before closes at equal times).
    let mut report = empty_report(cfg);
    for tally in engine.run() {
        report.tokens_issued += tally.tokens_issued;
        report.token_rejections += tally.token_rejections;
        report.no_operator += tally.no_operator;
        report.datagrams_sent += tally.datagrams_sent;
        report.datagrams_forwarded += tally.datagrams_forwarded;
        report.replies_received += tally.replies_received;
        report.strays += tally.strays;
        report.sessions.extend(tally.sessions);
    }
    report.sessions.sort_by_key(|s| s.session_id);
    let mut edges = Vec::new();
    for s in &report.sessions {
        report.datagrams_delivered += s.counters.datagrams_in;
        report.session_drops += s.counters.drops;
        edges.push((s.counters.opened_at, 0));
        edges.extend(s.counters.closed_at.map(|t| (t, 1)));
    }
    edges.sort_unstable();
    let mut live = 0u64;
    for (_, close) in edges {
        if close == 0 {
            live += 1;
            report.peak_concurrent = report.peak_concurrent.max(live);
        } else {
            live -= 1;
        }
    }
    report
}

/// The channel a storm case runs on; each run gets a fresh one.
#[derive(Clone, Copy, Debug)]
enum Wire {
    Perfect,
    Lossy,
}

fn channel(wire: Wire, shards: usize) -> Box<dyn DatagramChannel + Sync> {
    match wire {
        Wire::Perfect => Box::new(PerfectChannel),
        Wire::Lossy => Box::new(Lossy::new(shards)),
    }
}

/// The serial storm equals the engine oracle byte for byte — per-session
/// counters, addresses, rotation flags and all — at 1, 2 and 4 workers:
/// at more than 2 000 concurrent sessions, under the lossy channel, and
/// on a larger deployment at two storm seeds.
#[test]
fn serial_storm_matches_the_engine_oracle() {
    // (deployment seed, scale, [(storm, channel, peak concurrency floor)])
    let cases = [
        (
            21,
            512,
            vec![
                (StormConfig::sized(1200, 2, 0xF00D), Wire::Perfect, 2_000),
                (StormConfig::sized(32, 2, 11), Wire::Lossy, 0),
            ],
        ),
        (
            13,
            2048,
            vec![
                (StormConfig::sized(64, 3, 2), Wire::Perfect, 0),
                (StormConfig::sized(64, 3, 17), Wire::Perfect, 0),
            ],
        ),
    ];
    for (seed, scale, storms) in cases {
        let d = Deployment::build(seed, DeploymentConfig::scaled(scale));
        for (cfg, wire, peak_floor) in storms {
            let label = format!(
                "scaled({scale}) seed {seed}, storm seed {}, {wire:?}",
                cfg.seed
            );
            let serial = run_serial(&d, &cfg, channel(wire, cfg.shards).as_ref());
            assert!(
                serial.peak_concurrent >= peak_floor,
                "{label}: peak concurrency {} below {peak_floor}",
                serial.peak_concurrent
            );
            assert_eq!(
                serial.sessions.len() as u64,
                cfg.attempted_sessions(),
                "{label}"
            );
            let serial_json = serde_json::to_string(&serial).expect("serialise serial report");
            for workers in [1, 2, 4] {
                let oracle = run_oracle(&d, &cfg, channel(wire, cfg.shards).as_ref(), workers);
                assert_eq!(
                    serial_json,
                    serde_json::to_string(&oracle).expect("serialise oracle report"),
                    "{label}, {workers} workers: the serial storm diverged from the oracle"
                );
            }
        }
    }
}

/// More than 2 000 sessions open at once, every one of them opened, and
/// every datagram conserved on the loss-free channel.
#[test]
fn two_thousand_concurrent_sessions_run_deterministically() {
    let d = deployment(21);
    // 1200 client pairs kick within 1.2 s of each other and each session
    // lives 2.5 s: every session of a round is simultaneously open.
    let cfg = StormConfig::sized(1200, 2, 0xF00D);
    let serial = run_serial(&d, &cfg, &PerfectChannel);
    assert!(
        serial.peak_concurrent >= 2_000,
        "peak concurrency {} below the 2,000-session floor",
        serial.peak_concurrent
    );
    assert_eq!(serial.sessions.len() as u64, cfg.attempted_sessions());
    // Loss-free conservation at scale.
    assert_eq!(serial.datagrams_sent, serial.datagrams_delivered);
    assert_eq!(serial.replies_received, serial.datagrams_delivered);
    assert_eq!(serial.session_drops + serial.strays, 0);
}

/// Under the lossy channel the storm's counters reconcile: sent =
/// forwarded + channel drops, forwarded = delivered + session drops.
#[test]
fn lossy_channel_accounting_reconciles() {
    let d = deployment(21);
    let cfg = StormConfig::sized(32, 2, 11);
    let serial = run_serial(&d, &cfg, &Lossy::new(cfg.shards));
    assert!(serial.datagrams_forwarded < serial.datagrams_sent);
    assert!(serial.session_drops > 0);
    assert_eq!(
        serial.datagrams_forwarded,
        serial.datagrams_delivered + serial.session_drops
    );
    assert_eq!(serial.replies_received, serial.datagrams_delivered);
}

/// The three §4 findings, pinned across three independent seeds.
#[test]
fn storm_reproduces_the_section4_findings() {
    for seed in [101, 202, 303] {
        let d = deployment(seed);
        let cfg = StormConfig::sized(300, 6, seed ^ 0x4A11);
        let report = run_serial(&d, &cfg, &PerfectChannel);
        let stats = report.rotation_stats();

        // §4.2: the egress operator is sticky — every consecutive pair of
        // one chain's sessions stays with the same operator inside the
        // stickiness window.
        assert_eq!(
            stats.operator_changes, 0,
            "seed {seed}: operator changed mid-window"
        );

        // §4.3: consecutive requests rotate the egress address at roughly
        // 1 − 1/3 (three-address cell pools, independent uniform draws).
        assert!(
            stats.consecutive_pairs >= 2_000,
            "seed {seed}: too few pairs ({}) for a stable rate",
            stats.consecutive_pairs
        );
        let consecutive = stats.consecutive_rate();
        assert!(
            (0.60..=0.74).contains(&consecutive),
            "seed {seed}: consecutive rotation rate {consecutive:.3} outside 66% ± tolerance"
        );
        // The per-session rotation counters derive the same statistic
        // independently of the report-level pairing.
        assert_eq!(stats.consecutive_rotated, report.counter_rotations());

        // §4.3: parallel requests draw distinct addresses at the same
        // rate.
        assert!(
            stats.parallel_pairs >= 1_000,
            "seed {seed}: too few parallel pairs ({})",
            stats.parallel_pairs
        );
        let parallel = stats.parallel_rate();
        assert!(
            (0.60..=0.74).contains(&parallel),
            "seed {seed}: parallel distinct rate {parallel:.3} outside 66% ± tolerance"
        );
    }
}

/// §4.3 through the client device: 48 h of 30 s Safari + curl rounds
/// rotate the egress address at about 1 − 1/3 and draw from one small pool
/// per operator, at every deployment scale.
#[test]
fn relay_series_reproduces_section4_3_at_every_scale() {
    let vantage = || vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];
    for (scale, seed, restricted) in [(512, 66, false), (512, 11, true), (4096, 1, true)] {
        let d = Deployment::build(seed, DeploymentConfig::scaled(scale));
        let device = if restricted {
            d.vantage_device(CountryCode::DE, DnsMode::Open, vantage())
        } else {
            d.device_in_country(CountryCode::DE, DnsMode::Open)
        };
        let series = RelayScanSeries::run(
            &device,
            &d.auth_server_unlimited(),
            &RelayScanConfig::rotation_series(),
            Epoch::May2022.start(),
        );
        let r = RotationReport::from_series(&series);
        let label = format!("scaled({scale}) seed {seed}");
        assert_eq!((r.rounds, series.failures), (5760, 0), "{label}");
        assert!(
            (0.60..=0.74).contains(&r.change_rate),
            "{label}: change rate {:.3} outside 66% ± tolerance",
            r.change_rate
        );
        assert!(
            (0.60..=0.74).contains(&r.parallel_divergence),
            "{label}: parallel divergence {:.3} outside 66% ± tolerance",
            r.parallel_divergence
        );
        assert!(
            r.distinct_addresses <= CELL_POOL_SIZE * r.operators,
            "{label}: {} addresses from {} operators",
            r.distinct_addresses,
            r.operators
        );
    }
}
