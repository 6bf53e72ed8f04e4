//! The chaos harness: the full paper pipeline under fault injection.
//!
//! [`run_pipeline`] executes the same sequence as
//! `examples/full_paper_run.rs` — ECS scans, client attribution, egress
//! analysis, Atlas campaigns, blocking survey, through-relay scans, QUIC
//! probing — at a reduced scale, optionally routing every client↔server
//! exchange through a [`simnet`](crate::simnet) [`FaultedChannel`]. With
//! `plan: None` the faulted wrappers are *absent entirely* (the golden
//! code path, byte-for-byte today's pipeline); with a plan, each link is
//! wrapped and every injected fault is recorded in the channel ledger.
//!
//! [`check_invariants`] then reconciles a faulted run against the same
//! seed's golden run: fault counters must equal the pipeline's own
//! skip/timeout/decode counters (no silently swallowed faults), discovery
//! totals may only shrink, and fault-invisible scenarios must reproduce
//! the golden artifacts byte-identically. The scenario registry and the
//! invariants are documented in DESIGN.md §10.
//!
//! Everything here is library code under the workspace's no-panic lint:
//! the harness must never be the thing that crashes during a chaos run.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

use crate::atlas::population::PopulationConfig;
use crate::atlas::MeasurementOutcome;
use crate::core::atlas_campaign::{AtlasCampaignReport, AtlasSetup};
use crate::core::attribution::Table2;
use crate::core::blocking::survey;
use crate::core::correlation::CorrelationReport;
use crate::core::ecs_scan::{EcsScanReport, EcsScanner};
use crate::core::egress_analysis::EgressAnalysis;
use crate::core::masque_load::{self, StormConfig};
use crate::core::quic_probe::QuicProbeReport;
use crate::core::relay_scan::{RelayScanConfig, RelayScanSeries};
use crate::core::report;
use crate::core::rotation::RotationReport;
use crate::dns::{AuthoritativeServer, DomainName, NameServer, QType, RData, Record, Zone};
use crate::engine::EngineConfig;
use crate::geo::CountryCode;
use crate::net::{Asn, Epoch, IpNet, SimDuration, SimTime};
use crate::relay::{Deployment, DeploymentConfig, DnsMode, Domain};
use crate::simnet::{
    scenarios, Delivery, FaultPlan, FaultedChannel, FaultedServer, Link, LinkStats, RibEvent,
};

/// Sizing knobs for one chaos pipeline run. The defaults keep a full
/// scenario matrix affordable under `cargo test -q` while leaving every
/// stage with enough volume for the invariants to bite.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Deployment scale divisor (as [`DeploymentConfig::scaled`]).
    pub scale: u64,
    /// Atlas probe population.
    pub probes: usize,
    /// QUIC probing sample size.
    pub quic_sample: usize,
    /// Client pairs in the §4 CONNECT-UDP session storm.
    pub storm_clients: u32,
    /// The engine geometry of the ECS scans, Atlas campaigns and open-DNS
    /// relay series, each with one fault channel per shard. The §4 storm
    /// runs serially in both modes; here it takes the engine's shard count
    /// and each client's datagrams cross its own shard's channel. `None`
    /// (the default) runs those stages on one shard and one worker, and
    /// the storm on its default shards, all served by the run's main fault
    /// channel. Engine runs are worker-invariant: the same seed produces
    /// the same [`ChaosRun`] for every `workers` value.
    pub engine: Option<EngineConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            scale: 4096,
            probes: 400,
            quic_sample: 40,
            storm_clients: 96,
            engine: None,
        }
    }
}

/// The pipeline counters the invariants reconcile against the fault
/// ledger. Everything is a plain count so two runs compare with `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosMetrics {
    /// Queries sent across all ECS scans.
    pub scan_queries: u64,
    /// Dropped-reply events observed by the scanner (all scans).
    pub scan_rate_limited: u64,
    /// Scanner retries (all scans).
    pub scan_retries: u64,
    /// Subnets abandoned after the retry budget (all scans).
    pub scan_exhausted: u64,
    /// Scanner decode errors (all scans).
    pub scan_decode_errors: u64,
    /// Distinct ingress addresses per scan, in scan order (Table 1 input).
    pub table1_totals: Vec<usize>,
    /// Probes in the Atlas A campaign that timed out.
    pub mask_a_timeouts: usize,
    /// Distinct IPv4 addresses the A campaign observed.
    pub mask_a_addresses: usize,
    /// Distinct IPv6 addresses the AAAA campaign observed.
    pub aaaa_addresses: usize,
    /// Blocking-survey blocked verdicts.
    pub blocked: usize,
    /// Blocked-by-NXDOMAIN verdicts.
    pub blocked_nxdomain: usize,
    /// Blocked-by-REFUSED verdicts.
    pub blocked_refused: usize,
    /// Hijack verdicts.
    pub hijacks: usize,
    /// Failed rounds across the open-DNS relay series (operator series
    /// plus rotation series).
    pub relay_failures: u64,
    /// Failed rounds in the fixed-DNS series (no DNS path: always 0).
    pub fixed_failures: u64,
    /// Rounds the rotation series completed.
    pub rotation_rounds: usize,
    /// QUIC probes sent.
    pub quic_probed: usize,
    /// QUIC probes eaten by an injected ingress blackhole.
    pub quic_blackholed: usize,
    /// QUIC standard-Initial timeouts.
    pub quic_standard_timeouts: usize,
    /// QUIC version negotiations received.
    pub quic_negotiations: usize,
    /// Table 3 total subnet count (v4 + v6, all operators) before any flap.
    pub table3_total_subnets: u64,
    /// Table 3 total after the withdraw leg of a BGP flap.
    pub table3_post_flap: Option<u64>,
    /// Table 3 total after the restore leg of a BGP flap.
    pub table3_restored: Option<u64>,
    /// Rendered Table 3 before any flap — the byte-comparison surface the
    /// restore leg must reproduce exactly.
    pub table3_pre_flap_render: String,
    /// Rendered Table 3 after the restore leg of a BGP flap. The flap now
    /// flows through the RIB's delta overlay (no snapshot invalidation),
    /// so this must be byte-identical to the pre-flap render.
    pub table3_restored_render: Option<String>,
    /// §4 storm: sessions the clients attempted (before admission).
    pub storm_attempted: u64,
    /// §4 storm: sessions the egress opened (equals tokens issued).
    pub storm_sessions: u64,
    /// §4 storm: tokens the ingress granted.
    pub storm_tokens_issued: u64,
    /// §4 storm: admissions rejected by the per-user daily budget.
    pub storm_token_rejections: u64,
    /// §4 storm: sessions skipped for lack of an operator at the location.
    pub storm_no_operator: u64,
    /// §4 storm: peak simultaneously-open sessions.
    pub storm_peak: u64,
    /// §4 storm: datagrams clients injected into the tunnel.
    pub storm_sent: u64,
    /// §4 storm: datagrams that survived the faulted tunnel (possibly
    /// mutated).
    pub storm_forwarded: u64,
    /// §4 storm: datagrams the egress accepted as valid.
    pub storm_delivered: u64,
    /// §4 storm: datagrams dropped at the egress as undecodable.
    pub storm_session_drops: u64,
    /// §4 storm: validated echo replies back at the clients.
    pub storm_replies: u64,
    /// §4 storm: datagrams addressed to unknown/closed sessions.
    pub storm_strays: u64,
}

/// One pipeline execution: the rendered artifacts, the reconciliation
/// metrics, and the channel's fault ledger.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Concatenated rendered reports (Tables 1–4, blocking, Figure 3,
    /// rotation, correlation, QUIC) — the byte-comparison surface.
    pub artifacts: String,
    /// The reconciliation counters.
    pub metrics: ChaosMetrics,
    /// Final per-link fault ledger (empty map for golden runs).
    pub stats: BTreeMap<Link, LinkStats>,
    /// [`Link::AtlasAuth`] ledger snapshotted right after the A campaign,
    /// before the AAAA campaign reuses the link — the A-campaign
    /// invariants reconcile against this, not the final ledger.
    pub atlas_a_stats: LinkStats,
}

fn sum_scan_counters(metrics: &mut ChaosMetrics, report: &EcsScanReport) {
    metrics.scan_queries += report.queries_sent;
    metrics.scan_rate_limited += report.rate_limited;
    metrics.scan_retries += report.retries;
    metrics.scan_exhausted += report.exhausted;
    metrics.scan_decode_errors += report.decode_errors;
    metrics.table1_totals.push(report.total());
}

/// One stage's faulted wrappers around `inner` on `link`, one per stage
/// channel (none on golden runs).
fn stage_wraps<'a>(
    channels: &[&'a FaultedChannel],
    link: Link,
    inner: &'a dyn NameServer,
) -> Vec<FaultedServer<'a>> {
    channels
        .iter()
        .map(|c| FaultedServer::new(c, link, inner))
        .collect()
}

/// A stage's server list: its faulted wrappers, or the bare server when
/// the run injects no faults (golden runs). The engine indexes it
/// `shard % len`, so with one wrapper per shard each shard talks to its
/// own channel and never contends on a ledger lock.
fn stage_servers<'a>(
    wraps: &'a [FaultedServer<'a>],
    bare: &'a dyn NameServer,
) -> Vec<&'a dyn NameServer> {
    if wraps.is_empty() {
        vec![bare]
    } else {
        wraps.iter().map(|w| w as &dyn NameServer).collect()
    }
}

/// Routes §4 storm datagrams through the scenario's fault channels. Engine
/// runs carry one channel per shard, and a storm client calls only its own
/// shard's (`shard % len`), in client order: each channel's RNG stream
/// sees the calls a time-ordered simulation of its shard would make. Runs
/// without an engine share the main channel.
struct MasqueWire<'a> {
    channels: Vec<&'a FaultedChannel>,
}

impl masque_load::DatagramChannel for MasqueWire<'_> {
    fn transfer(&self, shard: usize, src: IpAddr, now: SimTime, wire: &[u8]) -> Option<Vec<u8>> {
        let channel = self.channels.get(shard % self.channels.len().max(1))?;
        match channel.deliver(Link::MasqueData, src, now, wire.len(), false) {
            Delivery::Deliver | Delivery::RewriteRcode(_) => Some(wire.to_vec()),
            Delivery::Drop => None,
            Delivery::Truncate(len) => {
                let mut mutated = wire.to_vec();
                mutated.truncate(len);
                Some(mutated)
            }
            Delivery::CorruptCounts => {
                // The DNS-shaped corruption stomps bytes 4..12; on a sealed
                // MASQUE datagram that lands inside the magic/seq fields,
                // so the egress detects the damage and counts a drop.
                let mut mutated = wire.to_vec();
                for byte in mutated.iter_mut().take(12).skip(4) {
                    *byte = 0xFF;
                }
                Some(mutated)
            }
        }
    }
}

fn table3_subnet_total(analysis: &EgressAnalysis<'_>) -> u64 {
    analysis
        .table3()
        .rows
        .iter()
        .map(|r| (r.v4_subnets + r.v6_subnets) as u64)
        .sum()
}

/// Runs the full paper pipeline once. `plan: None` is the golden path —
/// no wrapper types anywhere, exactly today's pipeline; `Some(plan)`
/// threads every link through a [`FaultedChannel`] seeded from `seed`.
pub fn run_pipeline(seed: u64, plan: Option<&FaultPlan>, config: &ChaosConfig) -> ChaosRun {
    let channel = plan.map(|p| FaultedChannel::new(p.clone(), seed));
    // One extra fault channel per engine shard: each shard's RNG stream
    // must depend only on (seed, shard index) — never on worker
    // interleaving — so engine runs are worker-invariant, and shards never
    // share a channel lock. The main `channel` serves the single-channel
    // stages (control survey, QUIC, BGP feed), and every stage when the
    // run has no engine.
    let shard_channels: Vec<FaultedChannel> = match (plan, config.engine.as_ref()) {
        (Some(p), Some(e)) => (0..e.shards.max(1))
            .map(|s| {
                let salt = (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                FaultedChannel::new(p.clone(), seed ^ salt)
            })
            .collect(),
        _ => Vec::new(),
    };
    // The channels the engine stages and the storm talk through: one per
    // shard, else the main channel (one shard), else none (golden runs).
    let stage_channels: Vec<&FaultedChannel> = if shard_channels.is_empty() {
        channel.iter().collect()
    } else {
        shard_channels.iter().collect()
    };
    let engine = config
        .engine
        .clone()
        .unwrap_or_else(|| EngineConfig::new(1, 1));
    let mut deployment = Deployment::build(seed, DeploymentConfig::scaled(config.scale));
    let auth = deployment.auth_server_unlimited();
    let scanner = EcsScanner::default();

    let mut metrics = ChaosMetrics {
        scan_queries: 0,
        scan_rate_limited: 0,
        scan_retries: 0,
        scan_exhausted: 0,
        scan_decode_errors: 0,
        table1_totals: Vec::new(),
        mask_a_timeouts: 0,
        mask_a_addresses: 0,
        aaaa_addresses: 0,
        blocked: 0,
        blocked_nxdomain: 0,
        blocked_refused: 0,
        hijacks: 0,
        relay_failures: 0,
        fixed_failures: 0,
        rotation_rounds: 0,
        quic_probed: 0,
        quic_blackholed: 0,
        quic_standard_timeouts: 0,
        quic_negotiations: 0,
        table3_total_subnets: 0,
        table3_post_flap: None,
        table3_restored: None,
        table3_pre_flap_render: String::new(),
        table3_restored_render: None,
        storm_attempted: 0,
        storm_sessions: 0,
        storm_tokens_issued: 0,
        storm_token_rejections: 0,
        storm_no_operator: 0,
        storm_peak: 0,
        storm_sent: 0,
        storm_forwarded: 0,
        storm_delivered: 0,
        storm_session_drops: 0,
        storm_replies: 0,
        storm_strays: 0,
    };

    // ----- Table 1: ECS scans (January baseline + April default/fallback).
    let scan_wraps = stage_wraps(&stage_channels, Link::ScanAuth, &auth);
    let scan_servers = stage_servers(&scan_wraps, &auth);
    let scan = |domain: Domain, epoch: Epoch| {
        scanner.scan_engine_sharded(
            domain.name(),
            &scan_servers,
            &deployment.rib,
            epoch.start(),
            &engine,
        )
    };
    let jan = scan(Domain::MaskQuic, Epoch::Jan2022);
    let april = scan(Domain::MaskQuic, Epoch::Apr2022);
    let april_fallback = scan(Domain::MaskH2, Epoch::Apr2022);
    for scan_report in [&jan, &april, &april_fallback] {
        sum_scan_counters(&mut metrics, scan_report);
    }
    let table2 = Table2::build(&april, &deployment.aspop);
    let rows = vec![
        (Epoch::Jan2022, jan, None),
        (Epoch::Apr2022, april, Some(april_fallback)),
    ];
    let mut artifacts = report::render_table1(&rows);

    // ----- Table 2 + Tables 3/4 (pre-flap egress analysis).
    artifacts.push_str(&report::render_table2(&table2));
    {
        let analysis = EgressAnalysis::new(&deployment.egress_list, &deployment.rib);
        let table3_render = report::render_table3(&analysis.table3());
        artifacts.push_str(&table3_render);
        artifacts.push_str(&report::render_table4(&analysis.table4()));
        metrics.table3_total_subnets = table3_subnet_total(&analysis);
        metrics.table3_pre_flap_render = table3_render;
    }

    // ----- Atlas campaigns (A-link ledger snapshotted before AAAA).
    let atlas = AtlasSetup::build(
        &deployment,
        &PopulationConfig::paper().with_probes(config.probes),
        99,
    );
    let atlas_wraps = stage_wraps(&stage_channels, Link::AtlasAuth, &auth);
    let atlas_servers = stage_servers(&atlas_wraps, &auth);
    let mask_campaign = |qtype: QType, seed: u64| {
        atlas.run_mask_campaign_engine(
            &atlas_servers,
            Domain::MaskQuic,
            qtype,
            Epoch::Apr2022,
            seed,
            &engine,
        )
    };
    let a_results = mask_campaign(QType::A, 1);
    let atlas_a_stats = {
        let mut stats = channel
            .as_ref()
            .map(|c| c.stats_for(Link::AtlasAuth))
            .unwrap_or_default();
        for c in &shard_channels {
            stats.absorb(&c.stats_for(Link::AtlasAuth));
        }
        stats
    };
    let aaaa_results = mask_campaign(QType::AAAA, 2);
    metrics.mask_a_timeouts = a_results
        .iter()
        .filter(|r| matches!(r.outcome, MeasurementOutcome::Timeout))
        .count();
    let a_report = AtlasCampaignReport::aggregate(&deployment, &a_results);
    let aaaa_report = AtlasCampaignReport::aggregate(&deployment, &aaaa_results);
    metrics.mask_a_addresses = a_report.v4_addresses.len();
    metrics.aaaa_addresses = aaaa_report.v6_addresses.len();

    // ----- Blocking survey (control domain on its own faultable link).
    let mut control_zone = Zone::new(DomainName::literal("atlas-measurements.net"));
    control_zone.add_record(Record::new(
        DomainName::literal("control.atlas-measurements.net"),
        300,
        RData::A(Ipv4Addr::new(93, 184, 216, 34)),
    ));
    let control_auth = AuthoritativeServer::new().with_zone(control_zone);
    let control_wrap = channel
        .as_ref()
        .map(|c| FaultedServer::new(c, Link::ControlAuth, &control_auth));
    let control_dyn: &dyn NameServer = match &control_wrap {
        Some(wrapped) => wrapped,
        None => &control_auth,
    };
    let control_results = atlas.run_control_campaign(control_dyn, Epoch::Apr2022, 3);
    let is_ingress = |addr: IpAddr| deployment.fleets.is_ingress(addr);
    let blocking = survey(&a_results, &control_results, &is_ingress);
    metrics.blocked = blocking.blocked;
    metrics.blocked_nxdomain = blocking
        .verdicts
        .get("BlockedNxDomain")
        .copied()
        .unwrap_or(0);
    metrics.blocked_refused = blocking
        .verdicts
        .get("BlockedRefused")
        .copied()
        .unwrap_or(0);
    metrics.hijacks = blocking.hijacks;
    artifacts.push_str(&report::render_blocking(&blocking));

    // ----- Figure 3 + rotation (shortened schedules, same structure).
    let vantage_ops = vec![Asn::CLOUDFLARE, Asn::AKAMAI_PR];
    let open_device =
        deployment.vantage_device(CountryCode::DE, DnsMode::Open, vantage_ops.clone());
    let forced = deployment
        .fleets
        .fleet_v4(Epoch::Apr2022, Domain::MaskQuic, Asn::AKAMAI_PR)
        .first()
        .copied()
        .unwrap_or(Ipv4Addr::new(17, 0, 0, 1));
    let fixed_device =
        deployment.vantage_device(CountryCode::DE, DnsMode::Fixed(forced), vantage_ops);
    let relay_wraps = stage_wraps(&stage_channels, Link::RelayDns, &auth);
    let relay_servers = stage_servers(&relay_wraps, &auth);
    let start = Epoch::May2022.start();
    let operator_schedule = RelayScanConfig {
        interval: SimDuration::from_mins(5),
        duration: SimDuration::from_hours(6),
    };
    let rotation_schedule = RelayScanConfig {
        interval: SimDuration::from_secs(30),
        duration: SimDuration::from_hours(2),
    };
    // Connection ids are assigned per round: the rotation series starts
    // after the operator series' two ids per round, whether or not any of
    // its rounds failed.
    let open = RelayScanSeries::run_engine(
        &open_device,
        &relay_servers,
        &operator_schedule,
        start,
        0,
        &engine,
    );
    let fixed = RelayScanSeries::run(&fixed_device, &auth, &operator_schedule, start);
    artifacts.push_str(&report::render_fig3(&open, &fixed));
    let rotation_series = RelayScanSeries::run_engine(
        &open_device,
        &relay_servers,
        &rotation_schedule,
        start,
        2 * operator_schedule.rounds(),
        &engine,
    );
    let rotation = RotationReport::from_series(&rotation_series);
    artifacts.push_str(&report::render_rotation(&rotation));
    metrics.relay_failures = open.failures + rotation_series.failures;
    metrics.fixed_failures = fixed.failures;
    metrics.rotation_rounds = rotation_series.rounds.len();

    // ----- Correlation audit (deployment-level, no network traversal).
    let correlation = CorrelationReport::audit(&deployment, Epoch::Apr2022);
    artifacts.push_str(&report::render_correlation(&correlation));

    // ----- QUIC probing.
    let quic = match &channel {
        Some(c) => QuicProbeReport::probe_with(&deployment, config.quic_sample, &mut || {
            c.ingress_blackholed()
        }),
        None => QuicProbeReport::probe(&deployment, config.quic_sample),
    };
    artifacts.push_str(&report::render_quic(&quic));
    metrics.quic_probed = quic.probed;
    metrics.quic_blackholed = quic.blackholed;
    metrics.quic_standard_timeouts = quic.standard_timeouts;
    metrics.quic_negotiations = quic.negotiations;

    // ----- §4 session storm: the CONNECT-UDP data plane under the
    // scenario's tunnel faults. Admission and the CONNECT/close exchanges
    // ride the reliable stream; only the tunnelled datagrams cross
    // [`Link::MasqueData`].
    let mut storm_cfg = StormConfig::sized(config.storm_clients, 2, seed ^ 0x5E55_0104);
    // 2 rounds × 2 agents = 4 admissions per client against a budget of 3:
    // the daily budget deterministically rejects each client's last try.
    storm_cfg.per_day_tokens = 3;
    if let Some(e) = config.engine.as_ref() {
        storm_cfg.shards = e.shards.max(1);
    }
    let storm_wire = (!stage_channels.is_empty()).then_some(MasqueWire {
        channels: stage_channels,
    });
    let storm_channel: &dyn masque_load::DatagramChannel = match &storm_wire {
        Some(wire) => wire,
        None => &masque_load::PerfectChannel,
    };
    let storm = masque_load::run_serial(&deployment, &storm_cfg, storm_channel);
    for line in storm.render() {
        artifacts.push_str(&line);
        artifacts.push('\n');
    }
    metrics.storm_attempted = storm_cfg.attempted_sessions();
    metrics.storm_sessions = storm.sessions.len() as u64;
    metrics.storm_tokens_issued = storm.tokens_issued;
    metrics.storm_token_rejections = storm.token_rejections;
    metrics.storm_no_operator = storm.no_operator;
    metrics.storm_peak = storm.peak_concurrent;
    metrics.storm_sent = storm.datagrams_sent;
    metrics.storm_forwarded = storm.datagrams_forwarded;
    metrics.storm_delivered = storm.datagrams_delivered;
    metrics.storm_session_drops = storm.session_drops;
    metrics.storm_replies = storm.replies_received;
    metrics.storm_strays = storm.strays;

    // ----- BGP flap (after every artifact is computed): withdraw every
    // k-th egress-origin prefix over the faulted event feed, measure the
    // Table 3 shrinkage, then replay the announcements and verify exact
    // recovery.
    if let (Some(c), Some(flap)) = (&channel, plan.and_then(FaultPlan::flap)) {
        let victims: Vec<(IpNet, Asn)> = deployment
            .rib
            .iter()
            .filter(|(_, origin)| Asn::EGRESS_OPERATORS.contains(origin))
            .enumerate()
            .filter(|(i, _)| i % flap.one_in.max(1) == 0)
            .map(|(_, entry)| entry)
            .collect();
        let withdrawals: Vec<RibEvent> = victims
            .iter()
            .map(|(net, _)| RibEvent::Withdraw(*net))
            .collect();
        for event in c.feed_events(Link::BgpFeed, &withdrawals) {
            if let RibEvent::Withdraw(net) = event {
                deployment.rib.withdraw(&net);
            }
        }
        {
            let analysis = EgressAnalysis::new(&deployment.egress_list, &deployment.rib);
            metrics.table3_post_flap = Some(table3_subnet_total(&analysis));
        }
        let announcements: Vec<RibEvent> = victims
            .iter()
            .map(|(net, origin)| RibEvent::Announce(*net, *origin))
            .collect();
        for event in c.feed_events(Link::BgpFeed, &announcements) {
            if let RibEvent::Announce(net, origin) = event {
                deployment.rib.announce(net, origin);
            }
        }
        let analysis = EgressAnalysis::new(&deployment.egress_list, &deployment.rib);
        metrics.table3_restored = Some(table3_subnet_total(&analysis));
        metrics.table3_restored_render = Some(report::render_table3(&analysis.table3()));
    }

    // Fold the per-shard engine channels into the main ledger: the
    // invariants reconcile against injection totals, which are sums over
    // every channel the run touched.
    let mut stats = channel
        .as_ref()
        .map(FaultedChannel::stats)
        .unwrap_or_default();
    for c in &shard_channels {
        for (link, link_stats) in c.stats() {
            stats.entry(link).or_default().absorb(&link_stats);
        }
    }
    ChaosRun {
        artifacts,
        metrics,
        stats,
        atlas_a_stats,
    }
}

fn link_stats(run: &ChaosRun, link: Link) -> LinkStats {
    run.stats.get(&link).cloned().unwrap_or_default()
}

/// Reconciles a faulted run against the same-seed golden run, returning
/// every violated invariant as a human-readable message (empty = pass).
///
/// The universal invariants hold for every scenario; scenario-specific
/// checks (documented per scenario in DESIGN.md §10) are dispatched on the
/// name. `broken-fixture` deliberately demands zero injected scan drops
/// while its plan injects 50 % loss, so it always violates — the fixture
/// the CLI smoke test uses to prove a violated invariant fails the run.
pub fn check_invariants(scenario: &str, run: &ChaosRun, golden: &ChaosRun) -> Vec<String> {
    let mut violations = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            violations.push(msg);
        }
    };
    let m = &run.metrics;
    let g = &golden.metrics;
    let scan = link_stats(run, Link::ScanAuth);
    let relay = link_stats(run, Link::RelayDns);
    let quic = link_stats(run, Link::QuicIngress);
    let control = link_stats(run, Link::ControlAuth);
    let atlas_a = &run.atlas_a_stats;
    let plan = scenarios::by_name(scenario);
    check(plan.is_some(), format!("unknown scenario `{scenario}`"));

    // --- Universal: every drop the scanner saw is an injected fault (the
    // golden auth is unlimited: zero organic drops), every drop was either
    // retried or exhausted, and every undecodable mutation surfaced as
    // exactly one decode error.
    check(
        m.scan_rate_limited == m.scan_retries + m.scan_exhausted,
        format!(
            "scan drop ledger split: {} dropped != {} retried + {} exhausted",
            m.scan_rate_limited, m.scan_retries, m.scan_exhausted
        ),
    );
    check(
        scan.all_dropped() == m.scan_rate_limited,
        format!(
            "injected scan drops {} != scanner-observed drops {}",
            scan.all_dropped(),
            m.scan_rate_limited
        ),
    );
    check(
        scan.undecodable() == m.scan_decode_errors,
        format!(
            "injected undecodable replies {} != scanner decode errors {}",
            scan.undecodable(),
            m.scan_decode_errors
        ),
    );
    // --- Universal: faults only ever lose discovery.
    check(
        m.table1_totals.len() == g.table1_totals.len()
            && m.table1_totals
                .iter()
                .zip(&g.table1_totals)
                .all(|(faulted, golden)| faulted <= golden),
        format!(
            "Table 1 totals exceed fault-free totals: {:?} vs {:?}",
            m.table1_totals, g.table1_totals
        ),
    );
    // --- Universal: Atlas A timeouts grew by exactly the injected
    // drop/garbage count on the probe link (organic flakes are
    // seed-identical between the two runs).
    check(
        m.mask_a_timeouts as u64
            == g.mask_a_timeouts as u64 + atlas_a.all_dropped() + atlas_a.undecodable(),
        format!(
            "A-campaign timeouts {} != golden {} + injected {}",
            m.mask_a_timeouts,
            g.mask_a_timeouts,
            atlas_a.all_dropped() + atlas_a.undecodable()
        ),
    );
    // --- Universal: with a healthy control domain, the blocking survey
    // grows by exactly the injected blocking-resolver rewrites.
    let control_inert = plan
        .as_ref()
        .map(|p| p.faults_for(Link::ControlAuth).is_inert())
        .unwrap_or(true);
    if control_inert {
        check(
            m.blocked as u64 == g.blocked as u64 + atlas_a.rcode_rewritten,
            format!(
                "blocked verdicts {} != golden {} + injected rewrites {}",
                m.blocked, g.blocked, atlas_a.rcode_rewritten
            ),
        );
        check(
            m.blocked_nxdomain as u64 == g.blocked_nxdomain as u64 + atlas_a.rcode_rewritten,
            format!(
                "NXDOMAIN verdicts {} != golden {} + injected rewrites {}",
                m.blocked_nxdomain, g.blocked_nxdomain, atlas_a.rcode_rewritten
            ),
        );
    }
    // --- Universal: every failed relay round is an injected DNS fault,
    // and the fixed-DNS device (no DNS path) never fails.
    check(
        relay.all_dropped() + relay.undecodable() == m.relay_failures,
        format!(
            "injected relay-DNS faults {} != failed rounds {}",
            relay.all_dropped() + relay.undecodable(),
            m.relay_failures
        ),
    );
    check(
        m.fixed_failures == 0,
        format!("fixed-DNS series failed {} rounds", m.fixed_failures),
    );
    // --- Universal: QUIC accounting — blackholes equal injected ingress
    // drops, every probe times out on the standard Initial (blackholed or
    // not), and exactly the non-blackholed probes negotiate.
    check(
        quic.all_dropped() == m.quic_blackholed as u64,
        format!(
            "injected QUIC drops {} != blackholed probes {}",
            quic.all_dropped(),
            m.quic_blackholed
        ),
    );
    check(
        m.quic_standard_timeouts == m.quic_probed,
        format!(
            "standard-Initial timeouts {}/{} (paper behaviour must survive faults)",
            m.quic_standard_timeouts, m.quic_probed
        ),
    );
    check(
        m.quic_negotiations == m.quic_probed.saturating_sub(m.quic_blackholed),
        format!(
            "negotiations {} != probed {} - blackholed {}",
            m.quic_negotiations, m.quic_probed, m.quic_blackholed
        ),
    );
    // --- Universal: §4 storm accounting. Admission rides the reliable
    // stream, so the session/token counts are fault-independent; every
    // tunnelled datagram must reconcile as delivered, channel-dropped, or
    // egress-dropped against the [`Link::MasqueData`] ledger.
    let masque = link_stats(run, Link::MasqueData);
    check(
        m.storm_sessions == g.storm_sessions
            && m.storm_tokens_issued == g.storm_tokens_issued
            && m.storm_sent == g.storm_sent,
        format!(
            "storm admission must be fault-independent: {}/{}/{} vs golden {}/{}/{}",
            m.storm_sessions,
            m.storm_tokens_issued,
            m.storm_sent,
            g.storm_sessions,
            g.storm_tokens_issued,
            g.storm_sent
        ),
    );
    check(
        m.storm_tokens_issued + m.storm_token_rejections + m.storm_no_operator
            == m.storm_attempted,
        format!(
            "storm admissions don't partition: {} issued + {} rejected + {} no-operator != {} attempted",
            m.storm_tokens_issued, m.storm_token_rejections, m.storm_no_operator, m.storm_attempted
        ),
    );
    check(
        m.storm_sessions == m.storm_tokens_issued,
        format!(
            "every granted token must become a session report: {} sessions vs {} tokens",
            m.storm_sessions, m.storm_tokens_issued
        ),
    );
    check(
        masque.deliveries == m.storm_sent,
        format!(
            "storm datagrams bypassed the channel: {} ledger deliveries vs {} sent",
            masque.deliveries, m.storm_sent
        ),
    );
    check(
        m.storm_sent == m.storm_forwarded + masque.all_dropped(),
        format!(
            "storm channel-loss split: {} sent != {} forwarded + {} dropped",
            m.storm_sent,
            m.storm_forwarded,
            masque.all_dropped()
        ),
    );
    check(
        m.storm_forwarded == m.storm_delivered + m.storm_session_drops,
        format!(
            "storm egress split: {} forwarded != {} delivered + {} session drops",
            m.storm_forwarded, m.storm_delivered, m.storm_session_drops
        ),
    );
    check(
        m.storm_session_drops == masque.undecodable(),
        format!(
            "injected garbage {} != egress session drops {}",
            masque.undecodable(),
            m.storm_session_drops
        ),
    );
    check(
        m.storm_replies == m.storm_delivered,
        format!(
            "replies {} != delivered {} (return path is loss-free)",
            m.storm_replies, m.storm_delivered
        ),
    );
    check(
        m.storm_strays == 0,
        format!("storm produced {} stray datagrams", m.storm_strays),
    );
    // --- Universal: pre-flap Table 3 is untouched by delivery faults, and
    // a flap may only shrink it, recovering exactly on restore.
    check(
        m.table3_total_subnets == g.table3_total_subnets,
        format!(
            "pre-flap Table 3 subnets {} != golden {}",
            m.table3_total_subnets, g.table3_total_subnets
        ),
    );
    if let Some(post) = m.table3_post_flap {
        check(
            post <= g.table3_total_subnets,
            format!(
                "post-flap Table 3 subnets {} exceed fault-free {}",
                post, g.table3_total_subnets
            ),
        );
        check(
            m.table3_restored == Some(g.table3_total_subnets),
            format!(
                "restored Table 3 subnets {:?} != fault-free {}",
                m.table3_restored, g.table3_total_subnets
            ),
        );
        // The flap/restore cycle runs through the RIB's delta overlay
        // (announce/withdraw patch the frozen table in place); the
        // rendered Table 3 must come back byte-identical, not merely
        // equal in totals.
        check(
            m.table3_restored_render.as_deref() == Some(m.table3_pre_flap_render.as_str()),
            "post-restore Table 3 render is not byte-identical to the pre-flap render".to_string(),
        );
        check(
            m.table3_pre_flap_render == g.table3_pre_flap_render,
            "pre-flap Table 3 render differs from the golden run".to_string(),
        );
    }

    // --- Scenario-specific checks.
    let artifacts_identical = run.artifacts == golden.artifacts;
    match scenario {
        "baseline" => {
            check(
                artifacts_identical,
                "zero-fault run must reproduce the golden artifacts byte-identically".to_string(),
            );
            check(
                run.stats.values().all(|s| {
                    s.all_dropped() + s.undecodable() + s.rcode_rewritten + s.duplicated == 0
                }),
                "zero-fault run must inject nothing".to_string(),
            );
        }
        "lossy-resolver" | "rate-limit-storm" => {
            check(
                m.scan_exhausted == 0,
                format!(
                    "retry budget must absorb the loss, but {} subnets exhausted",
                    m.scan_exhausted
                ),
            );
            check(
                scan.all_dropped() > 0,
                "scenario injected no scan drops at all".to_string(),
            );
            check(
                artifacts_identical,
                "retried loss must leave the artifacts byte-identical".to_string(),
            );
        }
        "flaky-network" => {
            check(
                scan.duplicated + scan.reordered + scan.jitter_events > 0,
                "scenario injected no duplication/reordering/jitter".to_string(),
            );
            check(
                artifacts_identical,
                "duplication/reordering/jitter must be invisible in the artifacts".to_string(),
            );
        }
        "truncator" => check(
            scan.truncated > 0 && m.scan_decode_errors > 0,
            "scenario must surface truncated replies as decode errors".to_string(),
        ),
        "garbage-replies" => check(
            scan.corrupted > 0 && m.scan_decode_errors > 0,
            "scenario must surface corrupted replies as decode errors".to_string(),
        ),
        "blocking-resolvers" => check(
            atlas_a.rcode_rewritten > 0 && m.blocked > g.blocked,
            "scenario must convert rewritten probes into blocked verdicts".to_string(),
        ),
        "control-outage" => {
            check(
                control.blackhole_dropped > 0,
                "scenario must blackhole the control domain".to_string(),
            );
            check(
                m.blocked_refused == 0,
                format!(
                    "REFUSED without control corroboration must degrade to Broken, got {}",
                    m.blocked_refused
                ),
            );
            check(
                m.blocked == g.blocked.saturating_sub(g.blocked_refused),
                format!(
                    "blocked verdicts {} != golden {} minus uncorroborated REFUSED {}",
                    m.blocked, g.blocked, g.blocked_refused
                ),
            );
        }
        "ingress-blackhole" => check(
            m.relay_failures > 0 && m.quic_blackholed > 0,
            "scenario must fail relay rounds and blackhole QUIC probes".to_string(),
        ),
        "relay-session-storm" => {
            check(
                masque.dropped > 0 && masque.burst_dropped > 0 && masque.undecodable() > 0,
                "storm must exercise loss, rate-limit bursts, and garbage on the tunnel"
                    .to_string(),
            );
            check(
                m.storm_delivered < m.storm_sent,
                "tunnel faults must cost datagrams".to_string(),
            );
            check(
                m.storm_token_rejections > 0,
                "the per-user daily budget must bite".to_string(),
            );
        }
        "bgp-flap" => check(
            matches!(m.table3_post_flap, Some(post) if post < g.table3_total_subnets),
            format!(
                "withdrawing half the egress table must shrink Table 3: {:?} vs {}",
                m.table3_post_flap, g.table3_total_subnets
            ),
        ),
        "kitchen-sink" => check(
            scan.all_dropped() > 0
                && atlas_a.rcode_rewritten > 0
                && m.relay_failures > 0
                && m.quic_blackholed > 0
                && masque.all_dropped() > 0
                && m.table3_post_flap.is_some(),
            "kitchen-sink must exercise every fault family at once".to_string(),
        ),
        // The deliberately broken fixture: demands zero injected scan
        // drops while its plan injects 50 % loss.
        "broken-fixture" => check(
            scan.all_dropped() == 0,
            format!(
                "broken-fixture fires by design: {} injected scan drops (expected 0)",
                scan.all_dropped()
            ),
        ),
        _ => {}
    }
    violations
}
