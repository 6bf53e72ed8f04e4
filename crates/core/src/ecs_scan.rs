//! The ECS enumeration scanner (§3, §4.1).
//!
//! Iterates the routed IPv4 space in /24 steps, attaching each subnet as an
//! EDNS0 Client Subnet option to A queries for the mask domains, and
//! collects every ingress address the authoritative servers reveal. The
//! scanner implements the paper's two ethics optimisations (§7):
//!
//! * **routed-space filter** — only subnets covered by a BGP announcement
//!   are queried,
//! * **scope honouring** — when a response declares a scope shorter than
//!   /24, no other subnet inside that scope is queried.
//!
//! Rate limiting by the server appears as dropped queries; the scanner
//! backs off and retries, which is what stretches the full scan to tens of
//! simulated hours (the paper reports ~40 h).

use std::collections::{BTreeMap, BTreeSet};
use std::net::{IpAddr, Ipv4Addr};

use bytes::BytesMut;
use serde::{Deserialize, Serialize};
use tectonic_bgp::Rib;
use tectonic_dns::server::{NameServer, QueryContext, ReplyOutcome, ServerReply};
use tectonic_dns::{
    decode_message, encode_message, DomainName, EcsOption, Message, MessageEncoder, PatchedQuery,
    QType, QueryTemplate, Rcode,
};
use tectonic_engine::{Engine, EngineConfig, ShardCtx, ShardModel};
use tectonic_net::{Asn, BatchScratch, IpNet, Ipv4Net, SimClock, SimDuration, SimRng, SimTime};

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct EcsScanConfig {
    /// Source address the scanner queries from.
    pub source: Ipv4Addr,
    /// Honour server-returned ECS scopes shorter than /24 (§7).
    pub respect_scopes: bool,
    /// Skip address space with no covering BGP announcement (§7).
    pub skip_unrouted: bool,
    /// Back-off applied when a query is dropped by rate limiting.
    pub retry_backoff: SimDuration,
    /// Give up on a subnet after this many rate-limit retries.
    pub max_retries: u32,
    /// Fixed per-query pacing (simulated network + processing time).
    pub query_pacing: SimDuration,
}

impl Default for EcsScanConfig {
    fn default() -> Self {
        EcsScanConfig {
            source: Ipv4Addr::new(138, 246, 253, 10), // TUM-like scan host
            respect_scopes: true,
            skip_unrouted: true,
            retry_backoff: SimDuration::from_millis(13),
            max_retries: 32,
            query_pacing: SimDuration::from_millis(12),
        }
    }
}

/// Per-client-AS serving counts observed by the scan (Table 2 input).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsServing {
    /// /24 subnets answered from Apple's fleet.
    pub apple_subnets: u64,
    /// /24 subnets answered from Akamai PR's fleet.
    pub akamai_subnets: u64,
}

impl AsServing {
    /// The serving category this AS falls into, if it was seen at all.
    pub fn category(&self) -> Option<ServingCategory> {
        match (self.apple_subnets > 0, self.akamai_subnets > 0) {
            (true, true) => Some(ServingCategory::Both),
            (true, false) => Some(ServingCategory::AppleOnly),
            (false, true) => Some(ServingCategory::AkamaiOnly),
            (false, false) => None,
        }
    }
}

/// Observed serving categories (Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServingCategory {
    /// Served exclusively by Akamai PR.
    AkamaiOnly,
    /// Served exclusively by Apple.
    AppleOnly,
    /// Served by both operators.
    Both,
}

/// The outcome of one ECS scan of one domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EcsScanReport {
    /// The scanned domain.
    pub domain: DomainName,
    /// Every distinct ingress address uncovered.
    pub discovered: BTreeSet<Ipv4Addr>,
    /// Discovered addresses grouped by origin AS (RIB attribution).
    pub by_ingress_as: BTreeMap<Asn, BTreeSet<Ipv4Addr>>,
    /// Per-client-AS serving counts.
    pub per_client_as: BTreeMap<Asn, AsServing>,
    /// Distinct routed BGP prefixes containing discovered addresses.
    pub ingress_prefixes: BTreeSet<String>,
    /// Client /24 subnets served per discovered address (scope-credited) —
    /// the input to the ingress-load analysis (§6 future work: "does the
    /// system have bottlenecks?").
    pub subnets_served: BTreeMap<Ipv4Addr, u64>,
    /// Queries actually sent (after skipping).
    pub queries_sent: u64,
    /// Subnets skipped thanks to scope honouring.
    pub skipped_by_scope: u64,
    /// Subnets skipped as unrouted.
    pub skipped_unrouted: u64,
    /// Dropped replies observed (rate limiting or injected loss). Every
    /// drop is either retried (`retries`) or abandons its subnet
    /// (`exhausted`): `rate_limited == retries + exhausted` always holds.
    pub rate_limited: u64,
    /// Drops that were answered with a backed-off retry.
    pub retries: u64,
    /// Subnets abandoned after the retry budget ran out — each counted
    /// exactly once, on the drop that exhausted the budget.
    pub exhausted: u64,
    /// Replies that failed DNS wire decoding (truncated or garbage bytes).
    /// Such records are skipped and counted — one malformed reply must
    /// never abort a multi-hour scan.
    pub decode_errors: u64,
    /// Simulated wall-clock duration of the scan.
    ///
    /// For merged reports ([`EcsScanner::scan_engine_sharded`]) this is the
    /// **slowest shard's** duration: shards run concurrently over the same
    /// simulated window, so the scan is finished when the last shard is.
    /// All other fields merge as unions (sets) or sums (counters), which
    /// makes `duration` the one field where a sharded report can
    /// legitimately differ from the one-shard scan's.
    pub duration: SimDuration,
}

impl EcsScanReport {
    /// An all-zero report for `domain`.
    fn empty(domain: DomainName) -> EcsScanReport {
        EcsScanReport {
            domain,
            discovered: BTreeSet::new(),
            by_ingress_as: BTreeMap::new(),
            per_client_as: BTreeMap::new(),
            ingress_prefixes: BTreeSet::new(),
            subnets_served: BTreeMap::new(),
            queries_sent: 0,
            skipped_by_scope: 0,
            skipped_unrouted: 0,
            rate_limited: 0,
            retries: 0,
            exhausted: 0,
            decode_errors: 0,
            duration: SimDuration::ZERO,
        }
    }

    /// Folds `other` into `self`: sets union, counters sum, `duration`
    /// takes the maximum (see the field docs — the merged scan is as slow
    /// as its slowest worker).
    fn absorb(&mut self, other: EcsScanReport) {
        self.discovered.extend(other.discovered.iter().copied());
        for (asn, addrs) in other.by_ingress_as {
            self.by_ingress_as
                .entry(asn)
                .or_default()
                .extend(addrs.iter().copied());
        }
        for (asn, serving) in other.per_client_as {
            let e = self.per_client_as.entry(asn).or_default();
            e.apple_subnets += serving.apple_subnets;
            e.akamai_subnets += serving.akamai_subnets;
        }
        self.ingress_prefixes.extend(other.ingress_prefixes);
        for (addr, served) in other.subnets_served {
            *self.subnets_served.entry(addr).or_insert(0) += served;
        }
        self.queries_sent += other.queries_sent;
        self.skipped_by_scope += other.skipped_by_scope;
        self.skipped_unrouted += other.skipped_unrouted;
        self.rate_limited += other.rate_limited;
        self.retries += other.retries;
        self.exhausted += other.exhausted;
        self.decode_errors += other.decode_errors;
        self.duration = self.duration.max(other.duration);
    }

    /// Merges per-worker reports in shard-index order.
    fn merged(domain: DomainName, reports: impl IntoIterator<Item = EcsScanReport>) -> Self {
        let mut merged = EcsScanReport::empty(domain);
        for r in reports {
            merged.absorb(r);
        }
        merged
    }

    /// Ingress address count for one operator.
    pub fn count_for(&self, asn: Asn) -> usize {
        self.by_ingress_as.get(&asn).map(BTreeSet::len).unwrap_or(0)
    }

    /// Total distinct addresses.
    pub fn total(&self) -> usize {
        self.discovered.len()
    }
}

/// Outcome of the IPv6 ECS feasibility probe (§3's negative result).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct V6FeasibilityReport {
    /// AAAA probes sent.
    pub queries: u64,
    /// ECS scopes observed in responses (the paper: only 0).
    pub distinct_scopes: Vec<u8>,
    /// Distinct AAAA addresses seen across the probes.
    pub distinct_addresses: usize,
    /// Whether subnet-scoped enumeration would work (the paper: no).
    pub enumeration_feasible: bool,
}

/// The ECS enumeration scanner.
#[derive(Debug, Clone, Default)]
pub struct EcsScanner {
    config: EcsScanConfig,
}

/// Per-scan (or per-shard) reusable buffers.
///
/// Holding these across the whole subnet loop is what makes the hot path
/// allocation-free: each query is patched in place in a pre-encoded
/// template, the reply lands in a reused buffer, and a reply's answers are
/// attributed with one batched RIB lookup.
struct ScanScratch {
    /// The next query's ID (wraps; seeded to match the historical scanner).
    query_id: u16,
    /// Pre-encoded query with patchable ID and subnet bytes. `None` only
    /// when the template failed its self-check, in which case every query
    /// takes the general encoder below.
    patched: Option<PatchedQuery>,
    /// Fallback encoder and its output buffer.
    encoder: MessageEncoder,
    query_buf: BytesMut,
    /// Reply buffer the server encodes into.
    reply: BytesMut,
    /// Ingress-address batch for one reply's answers, attributed with a
    /// single [`Rib::lookup_batch_in`] call per burst.
    addr_batch: Vec<IpAddr>,
    /// Attribution results for `addr_batch` (reused across replies).
    batch_out: Vec<Option<(IpNet, Asn)>>,
    /// Walk state for the RIB's batch lookup, reused so the frozen-path
    /// attribution never allocates per burst.
    lpm_scratch: BatchScratch,
}

/// What one ECS query attempt produced.
enum AttemptOutcome {
    /// A decodable DNS response (any rcode).
    Answered(Message),
    /// A reply that failed wire decoding.
    Undecodable,
    /// No reply — rate limiting or injected loss.
    Dropped,
}

impl ScanScratch {
    fn new(domain: &DomainName) -> ScanScratch {
        let patched = QueryTemplate::new_v4_24(domain, QType::A).map(|t| t.instantiate());
        ScanScratch {
            query_id: 1,
            patched,
            encoder: MessageEncoder::new(),
            query_buf: BytesMut::new(),
            reply: BytesMut::new(),
            addr_batch: Vec::new(),
            batch_out: Vec::new(),
            lpm_scratch: BatchScratch::new(),
        }
    }
}

/// The server-returned scopes a scan honours (§7), kept as disjoint
/// blocks in ascending address order. A scope nested inside a stored block
/// adds nothing; a wider one replaces the stored blocks it contains.
#[derive(Debug, Default)]
struct ScopeSet {
    blocks: Vec<Ipv4Net>,
}

impl ScopeSet {
    /// The stored block containing `addr`. Blocks are disjoint and sorted,
    /// so only the last one starting at or before `addr` can.
    fn block_of(&self, addr: Ipv4Addr) -> Option<&Ipv4Net> {
        let after = self.blocks.partition_point(|b| b.network() <= addr);
        after
            .checked_sub(1)
            .and_then(|i| self.blocks.get(i))
            .filter(|b| b.contains(addr))
    }

    /// Whether a stored scope covers `addr`.
    fn covers(&self, addr: Ipv4Addr) -> bool {
        self.block_of(addr).is_some()
    }

    /// Records `net` unless a stored block already contains it. Covering
    /// `net`'s first address is not enough: a stored /24 there leaves the
    /// rest of a wider `net` uncovered.
    fn insert(&mut self, net: Ipv4Net) {
        if self
            .block_of(net.network())
            .is_some_and(|b| b.contains_net(&net))
        {
            return;
        }
        // Every stored block starting inside `net` is nested in it.
        let from = self.blocks.partition_point(|b| b.network() < net.network());
        let to = self
            .blocks
            .partition_point(|b| b.network() <= net.broadcast());
        self.blocks.splice(from..to, [net]);
    }
}

impl EcsScanner {
    /// A scanner with the given configuration.
    pub fn new(config: EcsScanConfig) -> EcsScanner {
        EcsScanner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EcsScanConfig {
        &self.config
    }

    /// Enumerates the candidate /24 subnets: every /24 of every announced
    /// IPv4 prefix (deduplicated, in address order). With `skip_unrouted`
    /// disabled, the entire unicast space is returned instead.
    pub fn candidate_subnets(&self, rib: &Rib) -> Vec<Ipv4Net> {
        if self.config.skip_unrouted {
            let mut subnets = Vec::new();
            for p in EcsScanner::top_level_prefixes(rib) {
                if p.len() > 24 {
                    subnets.push(Ipv4Net::slash24_of(p.network()));
                } else if let Ok(subs) = p.subnets(24) {
                    subnets.extend(subs);
                }
            }
            subnets.dedup();
            subnets
        } else {
            // 1.0.0.0 through 223.255.255.0 — the unicast space.
            let all = Ipv4Net::literal("0.0.0.0/0");
            all.subnets(24)
                .into_iter()
                .flatten()
                .filter(|s| {
                    let first_octet = s.network().octets()[0];
                    (1..=223).contains(&first_octet)
                })
                .collect()
        }
    }

    /// Runs a full scan of `domain` against `auth` over every candidate
    /// subnet ([`EcsScanner::scan_subnets`]: one engine shard starting at
    /// `clock.now()`, advancing `clock` by the scan's duration).
    pub fn scan(
        &self,
        domain: DomainName,
        auth: &dyn NameServer,
        rib: &Rib,
        clock: &mut SimClock,
    ) -> EcsScanReport {
        let subnets = self.candidate_subnets(rib);
        self.scan_subnets(domain, &subnets, auth, rib, clock)
    }

    /// Sends exactly one ECS query at simulated time `now` and classifies
    /// the reply. No clock or ledger side effects: the engine shards build
    /// their timing and counters around this single-attempt kernel.
    ///
    /// The query is the scratch template with five bytes patched (or, if
    /// the template failed its self-check, rebuilt through the reusable
    /// encoder). The reply is written into the scratch buffer via
    /// [`NameServer::handle_query_into`] — the steady state allocates only
    /// inside message *decoding*.
    fn attempt_query(
        &self,
        domain: &DomainName,
        subnet: Ipv4Net,
        auth: &dyn NameServer,
        now: SimTime,
        scratch: &mut ScanScratch,
    ) -> AttemptOutcome {
        scratch.query_id = scratch.query_id.wrapping_add(1);
        let id = scratch.query_id;
        let wire: &[u8] = match &mut scratch.patched {
            Some(patched) => patched.patch(id, subnet),
            None => {
                let query = ecs_query(id, domain, subnet);
                scratch.encoder.encode_into(&query, &mut scratch.query_buf);
                &scratch.query_buf
            }
        };
        let ctx = QueryContext {
            src: IpAddr::V4(self.config.source),
            now,
        };
        match auth.handle_query_into(wire, &ctx, &mut scratch.reply) {
            ReplyOutcome::Written => match decode_message(&scratch.reply) {
                Ok(response) => AttemptOutcome::Answered(response),
                Err(_) => AttemptOutcome::Undecodable,
            },
            ReplyOutcome::Dropped => AttemptOutcome::Dropped,
        }
    }

    /// Records one successful response into the report: scope bookkeeping,
    /// ingress attribution, and per-client-AS serving credit.
    ///
    /// Returns the scope net offered to `known_scopes`, if any — the
    /// engine uses it to announce the scope to sibling shards.
    fn process_response(
        &self,
        subnet: Ipv4Net,
        response: &Message,
        rib: &Rib,
        scratch: &mut ScanScratch,
        known_scopes: &mut ScopeSet,
        report: &mut EcsScanReport,
    ) -> Option<Ipv4Net> {
        if response.rcode != Rcode::NoError {
            return None;
        }
        let mut inserted_scope = None;
        if let Some(scope) = response
            .edns
            .as_ref()
            .and_then(|o| o.ecs())
            .map(|e| e.scope_len)
        {
            if self.config.respect_scopes && scope < 24 {
                if let Ok(scope_net) = Ipv4Net::new(subnet.network(), scope) {
                    known_scopes.insert(scope_net);
                    inserted_scope = Some(scope_net);
                }
            }
        }
        let answers = response.a_answers();
        let mut seen_ops: BTreeSet<Asn> = BTreeSet::new();
        let scope_credit = {
            let scope = response
                .edns
                .as_ref()
                .and_then(|o| o.ecs())
                .map(|e| e.scope_len)
                .unwrap_or(24);
            if self.config.respect_scopes && scope < 24 {
                1u64 << (24 - scope.min(24))
            } else {
                1
            }
        };
        scratch.addr_batch.clear();
        scratch
            .addr_batch
            .extend(answers.iter().map(|a| IpAddr::V4(*a)));
        rib.lookup_batch_in(
            &mut scratch.lpm_scratch,
            &scratch.addr_batch,
            &mut scratch.batch_out,
        );
        for (addr, hit) in answers.iter().zip(&scratch.batch_out) {
            report.discovered.insert(*addr);
            *report.subnets_served.entry(*addr).or_insert(0) += scope_credit;
            if let Some((prefix, asn)) = hit {
                report.by_ingress_as.entry(*asn).or_default().insert(*addr);
                report.ingress_prefixes.insert(prefix.to_string());
                seen_ops.insert(*asn);
            }
        }
        if let Some((_, client_asn)) = rib.lookup(IpAddr::V4(subnet.network())) {
            if !Asn::INGRESS_OPERATORS.contains(&client_asn)
                && !Asn::EGRESS_OPERATORS.contains(&client_asn)
            {
                // A scope wider than /24 makes this one answer stand for
                // every /24 inside it — credit them all, since the
                // scanner will skip them (the paper reports Table 2 at
                // full /24 granularity).
                let entry = report.per_client_as.entry(client_asn).or_default();
                for op in seen_ops {
                    match op {
                        Asn::APPLE => entry.apple_subnets += scope_credit,
                        Asn::AKAMAI_PR => entry.akamai_subnets += scope_credit,
                        _ => {}
                    }
                }
            }
        }
        inserted_scope
    }

    /// Attempts ECS enumeration over IPv6 (AAAA queries) and reports why
    /// it cannot work — the paper's §3 negative result: the name server
    /// answers every AAAA query with ECS scope 0, declaring the response
    /// valid for the whole address space, so a scope-honouring scanner
    /// stops after a handful of probes.
    pub fn probe_v6_feasibility(
        &self,
        domain: DomainName,
        auth: &dyn NameServer,
        sample_subnets: &[Ipv4Net],
        clock: &mut SimClock,
    ) -> V6FeasibilityReport {
        let mut scopes = BTreeSet::new();
        let mut answers = BTreeSet::new();
        let mut queries = 0u64;
        let mut query_id = 0u16;
        for subnet in sample_subnets {
            query_id = query_id.wrapping_add(1);
            let mut query = Message::query(query_id, domain.clone(), QType::AAAA);
            query.ensure_edns().set_ecs(EcsOption::for_v4_net(*subnet));
            let ctx = QueryContext {
                src: IpAddr::V4(self.config.source),
                now: clock.now(),
            };
            queries += 1;
            clock.advance(self.config.query_pacing);
            if let ServerReply::Response(bytes) = auth.handle_query(&encode_message(&query), &ctx) {
                if let Ok(response) = decode_message(&bytes) {
                    if let Some(ecs) = response.edns.as_ref().and_then(|o| o.ecs()) {
                        scopes.insert(ecs.scope_len);
                    }
                    answers.extend(response.aaaa_answers());
                }
            }
        }
        V6FeasibilityReport {
            queries,
            distinct_scopes: scopes.iter().copied().collect(),
            distinct_addresses: answers.len(),
            enumeration_feasible: scopes.iter().any(|s| *s > 0),
        }
    }

    /// The source address shard `k` queries from: `source + k`, checked —
    /// a base near the top of the v4 space falls back to the base address
    /// itself (a shared rate-limit bucket is merely slower, never wrong)
    /// instead of wrapping past 255.255.255.255.
    fn shard_source(base: Ipv4Addr, shard: usize) -> Ipv4Addr {
        u32::try_from(shard)
            .ok()
            .and_then(|k| u32::from(base).checked_add(k))
            .map(Ipv4Addr::from)
            .unwrap_or(base)
    }

    /// Scans an explicit subnet list on one engine shard, starting at
    /// `clock.now()` and advancing `clock` by the scan's duration — the
    /// body of [`EcsScanner::scan`], also called directly by benchmarks
    /// that need a fixed-size scan kernel independent of the deployment
    /// scale.
    pub fn scan_subnets(
        &self,
        domain: DomainName,
        subnets: &[Ipv4Net],
        auth: &dyn NameServer,
        rib: &Rib,
        clock: &mut SimClock,
    ) -> EcsScanReport {
        let report = self.scan_subnets_engine(
            domain,
            subnets,
            &[auth],
            rib,
            clock.now(),
            &EngineConfig::new(1, 1),
        );
        clock.advance(report.duration);
        report
    }

    /// The announced prefixes after nested-prefix elimination, sorted —
    /// the address-space partition the candidate /24 list is generated
    /// from, and therefore the natural shard-boundary domain.
    fn top_level_prefixes(rib: &Rib) -> Vec<Ipv4Net> {
        let mut prefixes: Vec<Ipv4Net> = rib
            .iter()
            .filter_map(|(net, _)| net.as_v4().copied())
            .collect();
        prefixes.sort();
        // Drop prefixes nested inside an earlier (shorter) one so each
        // /24 appears once.
        let mut top: Vec<Ipv4Net> = Vec::new();
        for p in prefixes {
            if let Some(l) = top.last() {
                if l.contains_net(&p) {
                    continue;
                }
            }
            top.push(p);
        }
        top
    }

    /// Runs a full scan of `domain` on the sharded discrete-event engine,
    /// starting at `start`. At one shard the report is
    /// [`EcsScanner::scan`]'s.
    ///
    /// Every shard count gives the same report field for field, except
    /// `duration`, which is the slowest shard's (see the field docs). The
    /// equivalence is structural, not statistical: shard boundaries are
    /// aligned with top-level announcement boundaries, and every ECS scope
    /// a server can return is contained in the top-level announced prefix
    /// of the subnet that elicited it, so each shard reproduces exactly the
    /// one-shard scan's skip decisions for its slice of the address space.
    /// Worker count never affects any output bit.
    ///
    /// `servers` is indexed by `shard % servers.len()`: pass one server to
    /// share it (it must tolerate concurrent queries), or `engine.shards`
    /// servers for fully independent per-shard state (per-shard rate-limit
    /// buckets, per-shard fault channels).
    pub fn scan_engine_sharded(
        &self,
        domain: DomainName,
        servers: &[&dyn NameServer],
        rib: &Rib,
        start: SimTime,
        engine: &EngineConfig,
    ) -> EcsScanReport {
        let subnets = self.candidate_subnets(rib);
        let prefixes = EcsScanner::top_level_prefixes(rib);
        self.run_engine_scan(domain, &subnets, &prefixes, servers, rib, start, engine)
    }

    /// Engine scan over an explicit subnet list (benchmarks, targeted
    /// sweeps). With no announcement structure to align shards to, the
    /// list is cut into plain contiguous slices; scopes that cross a cut
    /// travel as events, so skipping is deterministic for a fixed shard
    /// count but — unlike [`EcsScanner::scan_engine_sharded`] — may differ
    /// from the one-shard scan's (an in-flight shard can query a subnet
    /// before a sibling's scope announcement arrives).
    pub fn scan_subnets_engine(
        &self,
        domain: DomainName,
        subnets: &[Ipv4Net],
        servers: &[&dyn NameServer],
        rib: &Rib,
        start: SimTime,
        engine: &EngineConfig,
    ) -> EcsScanReport {
        self.run_engine_scan(domain, subnets, &[], servers, rib, start, engine)
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the shared body of the two public scan entry points, which pass every input through"
    )]
    fn run_engine_scan(
        &self,
        domain: DomainName,
        subnets: &[Ipv4Net],
        prefixes: &[Ipv4Net],
        servers: &[&dyn NameServer],
        rib: &Rib,
        start: SimTime,
        engine: &EngineConfig,
    ) -> EcsScanReport {
        let Some(&first_server) = servers.first() else {
            return EcsScanReport::empty(domain);
        };
        let segments = shard_segments(subnets, prefixes, engine.shards);
        let models: Vec<ScanShard<'_>> = segments
            .iter()
            .enumerate()
            .map(|(i, seg)| {
                let mut config = self.config.clone();
                config.source = EcsScanner::shard_source(config.source, i);
                let scratch = ScanScratch::new(&domain);
                ScanShard {
                    scanner: EcsScanner::new(config),
                    domain: domain.clone(),
                    auth: servers
                        .get(i % servers.len())
                        .copied()
                        .unwrap_or(first_server),
                    rib,
                    owned: prefixes.get(seg.prefixes.clone()).unwrap_or(&[]),
                    subnets: subnets.get(seg.subnets.clone()).unwrap_or(&[]),
                    idx: 0,
                    attempts: 0,
                    start,
                    scratch,
                    known_scopes: ScopeSet::default(),
                    report: EcsScanReport::empty(domain.clone()),
                }
            })
            .collect();
        // The scan draws no shard randomness; the engine seed is fixed.
        let mut eng = Engine::new(engine, models, &SimRng::new(0xEC5));
        for (i, seg) in segments.iter().enumerate() {
            if !seg.subnets.is_empty() {
                eng.seed(i, start, ScanEvent::Attempt);
            }
        }
        EcsScanReport::merged(domain, eng.run())
    }
}

/// The general-path A query for `subnet`: ID `id`, ECS option attached —
/// the message a [`PatchedQuery`] reproduces byte for byte.
fn ecs_query(id: u16, domain: &DomainName, subnet: Ipv4Net) -> Message {
    let mut query = Message::query(id, domain.clone(), QType::A);
    query.ensure_edns().set_ecs(EcsOption::for_v4_net(subnet));
    query
}

/// One shard's slice of the candidate list and of the top-level prefixes
/// whose /24s it owns.
struct ShardSegment {
    subnets: std::ops::Range<usize>,
    prefixes: std::ops::Range<usize>,
}

/// Cuts the candidate list into `shards` contiguous, balanced segments
/// whose boundaries never split a top-level announced prefix.
///
/// Candidate subnets are generated in address order from the sorted
/// top-level prefixes, so each prefix's /24s form one contiguous run; a
/// subnet not fully contained in any top-level prefix (the lone /24
/// emitted for a longer-than-/24 announcement) forms its own cuttable
/// singleton group. Cut points are chosen as the smallest group boundary
/// at or past each ideal `len * k / shards` split.
fn shard_segments(subnets: &[Ipv4Net], prefixes: &[Ipv4Net], shards: usize) -> Vec<ShardSegment> {
    let shards = shards.max(1);
    // Group boundaries: (subnet index, owner prefix index at that point).
    let mut boundaries: Vec<(usize, usize)> = Vec::new();
    let mut pi = 0usize;
    let mut last_owner = usize::MAX;
    for (i, s) in subnets.iter().enumerate() {
        while let Some(p) = prefixes.get(pi) {
            if p.contains_net(s) {
                break;
            }
            if p.network() <= s.network() {
                // This prefix's address range lies entirely before `s`
                // (top-level prefixes are disjoint and sorted).
                pi += 1;
            } else {
                break;
            }
        }
        let owner = match prefixes.get(pi) {
            Some(p) if p.contains_net(s) => pi,
            _ => usize::MAX, // uncontained: its own singleton group
        };
        if i == 0 || owner == usize::MAX || owner != last_owner {
            boundaries.push((i, owner));
        }
        last_owner = owner;
    }
    boundaries.push((subnets.len(), usize::MAX));

    let mut segments = Vec::with_capacity(shards);
    let mut cursor = 0usize; // index into `boundaries`
    for k in 1..=shards {
        let target = subnets.len() * k / shards;
        let lo = boundaries
            .get(cursor)
            .map(|(i, _)| *i)
            .unwrap_or(subnets.len());
        let mut end = cursor;
        while boundaries
            .get(end + 1)
            .is_some_and(|(i, _)| *i <= target || k == shards)
        {
            end += 1;
        }
        // `end` is now the last boundary at or before the target (or the
        // final boundary for the last shard).
        let hi = boundaries.get(end).map(|(i, _)| *i).unwrap_or(lo);
        let owners: Vec<usize> = boundaries
            .get(cursor..end)
            .unwrap_or(&[])
            .iter()
            .map(|(_, o)| *o)
            .filter(|o| *o != usize::MAX)
            .collect();
        let prange = match (owners.first(), owners.last()) {
            (Some(first), Some(last)) => *first..*last + 1,
            _ => 0..0,
        };
        segments.push(ShardSegment {
            subnets: lo..hi,
            prefixes: prange,
        });
        cursor = end;
    }
    segments
}

/// Events routed through the engine scan.
#[derive(Clone)]
enum ScanEvent {
    /// Advance this shard's cursor: skip covered subnets, then query one.
    Attempt,
    /// A sibling shard announced a server-returned ECS scope.
    Scope(Ipv4Net),
}

/// One engine shard: a scanner with a per-shard source address, a
/// contiguous slice of the candidate list, and a fully local stat sled
/// (report, scope set, scratch buffers). The only cross-shard traffic is
/// [`ScanEvent::Scope`] announcements.
struct ScanShard<'a> {
    scanner: EcsScanner,
    domain: DomainName,
    auth: &'a dyn NameServer,
    rib: &'a Rib,
    /// Top-level prefixes wholly owned by this shard: a scope contained in
    /// one of them cannot cover any sibling's subnet, so it is not
    /// announced.
    owned: &'a [Ipv4Net],
    subnets: &'a [Ipv4Net],
    idx: usize,
    attempts: u32,
    start: SimTime,
    scratch: ScanScratch,
    known_scopes: ScopeSet,
    report: EcsScanReport,
}

impl ScanShard<'_> {
    /// Schedules the next attempt, or closes the shard's ledger when the
    /// slice is exhausted. `at` is when the current query's pacing ends: a
    /// scan's duration runs to the end of its last query's pacing window
    /// (trailing scope-skips are free).
    fn advance(&mut self, at: SimTime, ctx: &mut ShardCtx<ScanEvent>) {
        if self.idx < self.subnets.len() {
            ctx.schedule(at, ScanEvent::Attempt);
        } else {
            self.report.duration = at - self.start;
        }
    }

    fn attempt(&mut self, now: SimTime, ctx: &mut ShardCtx<ScanEvent>) {
        // Skip scope-covered subnets at the cursor (same order, and — for
        // announcement-aligned shards — provably the same decisions as the
        // one-shard scan).
        while let Some(subnet) = self.subnets.get(self.idx) {
            if self.scanner.config.respect_scopes && self.known_scopes.covers(subnet.network()) {
                self.report.skipped_by_scope += 1;
                self.idx += 1;
            } else {
                break;
            }
        }
        let Some(&subnet) = self.subnets.get(self.idx) else {
            self.report.duration = now - self.start;
            return;
        };
        self.report.queries_sent += 1;
        let next = now + self.scanner.config.query_pacing;
        match self
            .scanner
            .attempt_query(&self.domain, subnet, self.auth, now, &mut self.scratch)
        {
            AttemptOutcome::Answered(response) => {
                self.attempts = 0;
                self.idx += 1;
                let inserted = self.scanner.process_response(
                    subnet,
                    &response,
                    self.rib,
                    &mut self.scratch,
                    &mut self.known_scopes,
                    &mut self.report,
                );
                if let Some(scope_net) = inserted {
                    // Cross-shard state travels as events only: announce
                    // the scope unless it is contained in a prefix this
                    // shard wholly owns (then no sibling can be covered).
                    if !self.owned.iter().any(|p| p.contains_net(&scope_net)) {
                        ctx.broadcast(now, ScanEvent::Scope(scope_net));
                    }
                }
                self.advance(next, ctx);
            }
            AttemptOutcome::Undecodable => {
                self.report.decode_errors += 1;
                self.attempts = 0;
                self.idx += 1;
                self.advance(next, ctx);
            }
            AttemptOutcome::Dropped => {
                self.report.rate_limited += 1;
                self.attempts += 1;
                if self.attempts > self.scanner.config.max_retries {
                    self.report.exhausted += 1;
                    self.attempts = 0;
                    self.idx += 1;
                    self.advance(next, ctx);
                } else {
                    self.report.retries += 1;
                    ctx.schedule(next + self.scanner.config.retry_backoff, ScanEvent::Attempt);
                }
            }
        }
    }
}

impl ShardModel for ScanShard<'_> {
    type Event = ScanEvent;
    type Out = EcsScanReport;

    fn handle(&mut self, now: SimTime, event: ScanEvent, ctx: &mut ShardCtx<ScanEvent>) {
        match event {
            ScanEvent::Attempt => self.attempt(now, ctx),
            ScanEvent::Scope(net) => {
                if self.scanner.config.respect_scopes {
                    self.known_scopes.insert(net);
                }
            }
        }
    }

    fn finish(self) -> EcsScanReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tectonic_net::Epoch;
    use tectonic_relay::{Deployment, DeploymentConfig, Domain};

    fn deployment() -> Deployment {
        Deployment::build(21, DeploymentConfig::scaled(1024))
    }

    fn run_scan(d: &Deployment, domain: Domain, epoch: Epoch) -> EcsScanReport {
        let auth = d.auth_server_unlimited();
        let scanner = EcsScanner::default();
        let mut clock = SimClock::new(epoch.start());
        scanner.scan(domain.name(), &auth, &d.rib, &mut clock)
    }

    #[test]
    fn scan_discovers_both_operators() {
        let d = deployment();
        let report = run_scan(&d, Domain::MaskQuic, Epoch::Apr2022);
        assert!(report.count_for(Asn::APPLE) > 0, "no Apple ingresses");
        assert!(report.count_for(Asn::AKAMAI_PR) > 0, "no Akamai ingresses");
        assert_eq!(
            report.total(),
            report.count_for(Asn::APPLE) + report.count_for(Asn::AKAMAI_PR)
        );
        // Everything discovered must actually be an ingress address.
        for addr in &report.discovered {
            assert!(d.fleets.is_ingress(IpAddr::V4(*addr)), "{addr}");
        }
    }

    #[test]
    fn akamai_dominates_address_count() {
        let d = deployment();
        let report = run_scan(&d, Domain::MaskQuic, Epoch::Apr2022);
        let akamai = report.count_for(Asn::AKAMAI_PR) as f64;
        let total = report.total() as f64;
        assert!(
            akamai / total > 0.6,
            "AkamaiPR share {:.3} too low",
            akamai / total
        );
    }

    #[test]
    fn scope_honouring_reduces_queries() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let rib = &d.rib;
        let mut with = EcsScanner::default();
        with.config.respect_scopes = true;
        let mut without = EcsScanner::default();
        without.config.respect_scopes = false;
        let mut clock_a = SimClock::new(Epoch::Apr2022.start());
        let ra = with.scan(Domain::MaskQuic.name(), &auth, rib, &mut clock_a);
        let mut clock_b = SimClock::new(Epoch::Apr2022.start());
        let rb = without.scan(Domain::MaskQuic.name(), &auth, rib, &mut clock_b);
        assert!(
            ra.queries_sent < rb.queries_sent,
            "{} !< {}",
            ra.queries_sent,
            rb.queries_sent
        );
        assert!(ra.skipped_by_scope > 0);
        // The discovered sets still agree on operators (scope skipping is
        // sound: skipped subnets share answers with their covering scope).
        assert!(
            rb.discovered.is_superset(&ra.discovered) || ra.discovered.is_superset(&rb.discovered)
        );
    }

    #[test]
    fn fallback_scan_in_feb_is_all_apple() {
        let d = deployment();
        let report = run_scan(&d, Domain::MaskH2, Epoch::Feb2022);
        assert!(report.count_for(Asn::APPLE) > 0);
        assert_eq!(
            report.count_for(Asn::AKAMAI_PR),
            0,
            "AkamaiPR fallback in Feb"
        );
    }

    #[test]
    fn growth_between_epochs() {
        let d = deployment();
        let jan = run_scan(&d, Domain::MaskQuic, Epoch::Jan2022);
        let apr = run_scan(&d, Domain::MaskQuic, Epoch::Apr2022);
        assert!(
            apr.total() > jan.total(),
            "no growth: {} -> {}",
            jan.total(),
            apr.total()
        );
    }

    #[test]
    fn per_client_as_counts_populate() {
        let d = deployment();
        let report = run_scan(&d, Domain::MaskQuic, Epoch::Apr2022);
        assert!(!report.per_client_as.is_empty());
        // Every client AS in the report is a world AS.
        for asn in report.per_client_as.keys() {
            assert!(d.world.by_asn(*asn).is_some(), "{asn} not in world");
        }
    }

    #[test]
    fn rate_limited_scan_takes_longer() {
        let d = deployment();
        let rib = &d.rib;
        let scanner = EcsScanner::default();
        let auth_fast = d.auth_server_unlimited();
        let mut clock_fast = SimClock::new(Epoch::Apr2022.start());
        let fast = scanner.scan(Domain::MaskQuic.name(), &auth_fast, rib, &mut clock_fast);
        let auth_slow = d.auth_server();
        let mut clock_slow = SimClock::new(Epoch::Apr2022.start());
        let slow = scanner.scan(Domain::MaskQuic.name(), &auth_slow, rib, &mut clock_slow);
        assert!(slow.rate_limited > 0, "rate limiter never triggered");
        assert!(slow.duration > fast.duration);
        // Rate limiting must not lose addresses.
        assert_eq!(slow.discovered, fast.discovered);
    }

    #[test]
    fn unrouted_space_skipped() {
        let d = deployment();
        let scanner = EcsScanner::default();
        let candidates = scanner.candidate_subnets(&d.rib);
        // All candidates are routed.
        for subnet in candidates.iter().step_by(97) {
            assert!(d.rib.is_routed(IpAddr::V4(subnet.network())));
        }
        // Far fewer than the full unicast space.
        assert!(candidates.len() < 14_000_000);
    }

    #[test]
    fn template_patch_matches_general_encoder() {
        // The scan always sends the patched template; the general encoder
        // is only its fallback. Both must emit the same bytes for every
        // (id, subnet) pair the scan can produce.
        let domain = Domain::MaskQuic.name();
        let mut patched = QueryTemplate::new_v4_24(&domain, QType::A)
            .expect("template passes its self-check")
            .instantiate();
        let mut rng = SimRng::new(7);
        let edges = [(0u16, 0u32), (u16::MAX, u32::MAX), (0x0100, 0x0A00_00FF)];
        let random = (0..2048).map(|_| (rng.next_u64_raw() as u16, rng.next_u64_raw() as u32));
        for (id, bits) in edges.into_iter().chain(random) {
            let subnet = Ipv4Net::slash24_of(Ipv4Addr::from(bits));
            let general = encode_message(&ecs_query(id, &domain, subnet));
            assert_eq!(patched.patch(id, subnet), &general[..], "id {id} {subnet}");
        }
    }

    /// Field-by-field equality modulo `duration` (merged reports keep the
    /// slowest shard's duration; everything else must match exactly).
    fn assert_eq_modulo_duration(a: &EcsScanReport, b: &EcsScanReport) {
        let mut a = a.clone();
        let mut b = b.clone();
        a.duration = SimDuration::ZERO;
        b.duration = SimDuration::ZERO;
        assert_eq!(a, b);
    }

    /// The serial scan, the oracle the engine is checked against: one
    /// subnet at a time in list order, each query paced on `clock`, drops
    /// retried after the back-off until the budget runs out. It shares only
    /// the single-attempt and response kernels with the engine shards.
    fn serial_scan(
        scanner: &EcsScanner,
        domain: DomainName,
        subnets: &[Ipv4Net],
        auth: &dyn NameServer,
        rib: &Rib,
        clock: &mut SimClock,
    ) -> EcsScanReport {
        let config = scanner.config();
        let start = clock.now();
        let mut report = EcsScanReport::empty(domain.clone());
        let mut known_scopes = ScopeSet::default();
        let mut scratch = ScanScratch::new(&domain);
        'subnets: for subnet in subnets {
            if config.respect_scopes && known_scopes.covers(subnet.network()) {
                report.skipped_by_scope += 1;
                continue;
            }
            let mut attempts = 0;
            let response = loop {
                let now = clock.now();
                report.queries_sent += 1;
                clock.advance(config.query_pacing);
                match scanner.attempt_query(&domain, *subnet, auth, now, &mut scratch) {
                    AttemptOutcome::Answered(response) => break response,
                    AttemptOutcome::Undecodable => {
                        report.decode_errors += 1;
                        continue 'subnets;
                    }
                    AttemptOutcome::Dropped => {
                        report.rate_limited += 1;
                        attempts += 1;
                        if attempts > config.max_retries {
                            report.exhausted += 1;
                            continue 'subnets;
                        }
                        report.retries += 1;
                        clock.advance(config.retry_backoff);
                    }
                }
            };
            scanner.process_response(
                *subnet,
                &response,
                rib,
                &mut scratch,
                &mut known_scopes,
                &mut report,
            );
        }
        report.duration = clock.now() - start;
        report
    }

    #[test]
    fn engine_scan_matches_serial_exactly() {
        let d = deployment();
        let scanner = EcsScanner::default();
        let domain = Domain::MaskQuic.name();
        let subnets = scanner.candidate_subnets(&d.rib);
        let start = Epoch::Apr2022.start();
        for limited in [false, true] {
            // The rate limiter's buckets are stateful: every run gets a
            // fresh server.
            let server = |d: &Deployment| {
                if limited {
                    d.auth_server()
                } else {
                    d.auth_server_unlimited()
                }
            };
            let mut oracle_clock = SimClock::new(start);
            let oracle = serial_scan(
                &scanner,
                domain.clone(),
                &subnets,
                &server(&d),
                &d.rib,
                &mut oracle_clock,
            );
            assert!(oracle.total() > 0 && oracle.skipped_by_scope > 0);
            assert_eq!(oracle.rate_limited > 0, limited);
            // One shard, through both serial entry points: byte-identical,
            // duration included, and the clock ends where the loop's did.
            let mut clock = SimClock::new(start);
            let scanned = scanner.scan(domain.clone(), &server(&d), &d.rib, &mut clock);
            assert_eq!(scanned, oracle, "scan, limited={limited}");
            assert_eq!(clock.now(), oracle_clock.now());
            let mut clock = SimClock::new(start);
            let listed =
                scanner.scan_subnets(domain.clone(), &subnets, &server(&d), &d.rib, &mut clock);
            assert_eq!(listed, oracle, "scan_subnets, limited={limited}");
            assert_eq!(clock.now(), oracle_clock.now());
            if limited {
                // Shard sources have their own rate-limit buckets.
                continue;
            }
            // Many shards: identical modulo duration (announcement-aligned
            // shards reproduce the serial skip decisions), for any workers.
            let auth = server(&d);
            for workers in [1, 4, 8] {
                let sharded = scanner.scan_engine_sharded(
                    domain.clone(),
                    &[&auth],
                    &d.rib,
                    start,
                    &EngineConfig::new(8, workers),
                );
                assert_eq_modulo_duration(&oracle, &sharded);
            }
        }
    }

    #[test]
    fn engine_scan_is_worker_invariant_under_rate_limiting() {
        let d = deployment();
        let scanner = EcsScanner::default();
        let engine8 = |workers: usize| {
            // Fresh per-shard servers: the rate limiter's bucket is
            // stateful, so each run gets its own set.
            let auths: Vec<_> = (0..8).map(|_| d.auth_server()).collect();
            let refs: Vec<&dyn NameServer> = auths.iter().map(|a| a as &dyn NameServer).collect();
            scanner.scan_engine_sharded(
                Domain::MaskQuic.name(),
                &refs,
                &d.rib,
                Epoch::Apr2022.start(),
                &EngineConfig::new(8, workers),
            )
        };
        let w1 = engine8(1);
        let w4 = engine8(4);
        assert_eq!(w1, w4, "worker count leaked into a rate-limited scan");
        assert!(w1.rate_limited > 0, "rate limiter never triggered");
    }

    #[test]
    fn explicit_list_engine_propagates_scopes_deterministically() {
        let d = deployment();
        let auth = d.auth_server_unlimited();
        let scanner = EcsScanner::default();
        let subnets = scanner.candidate_subnets(&d.rib);
        let run = |workers: usize| {
            scanner.scan_subnets_engine(
                Domain::MaskQuic.name(),
                &subnets,
                &[&auth],
                &d.rib,
                Epoch::Apr2022.start(),
                &EngineConfig::new(8, workers),
            )
        };
        let w1 = run(1);
        let w4 = run(4);
        // Unaligned cuts: serial equality is not promised, determinism is.
        assert_eq!(w1, w4);
        // Scope events do land: local skipping plus announcements still
        // suppress a meaningful share of queries.
        assert!(w1.skipped_by_scope > 0);
        let serial_run = serial_scan(
            &scanner,
            Domain::MaskQuic.name(),
            &subnets,
            &auth,
            &d.rib,
            &mut SimClock::new(Epoch::Apr2022.start()),
        );
        assert_eq!(w1.discovered, serial_run.discovered);
        assert_eq!(w1.by_ingress_as, serial_run.by_ingress_as);
    }

    #[test]
    fn shard_segments_align_with_prefix_boundaries() {
        let d = deployment();
        let scanner = EcsScanner::default();
        let subnets = scanner.candidate_subnets(&d.rib);
        let prefixes = EcsScanner::top_level_prefixes(&d.rib);
        for shards in [1, 3, 8, 64] {
            let segments = shard_segments(&subnets, &prefixes, shards);
            assert_eq!(segments.len(), shards);
            let mut covered = 0usize;
            for seg in &segments {
                assert_eq!(seg.subnets.start, covered, "segments not contiguous");
                covered = seg.subnets.end;
                // No top-level prefix may straddle a segment boundary: the
                // first subnet of a segment is never strictly inside the
                // same prefix as the last subnet of the previous one.
                if let (Some(first), Some(prev)) = (
                    subnets.get(seg.subnets.start),
                    seg.subnets
                        .start
                        .checked_sub(1)
                        .and_then(|i| subnets.get(i)),
                ) {
                    let shared = prefixes
                        .iter()
                        .find(|p| p.contains_net(first) && p.contains_net(prev));
                    assert!(shared.is_none(), "prefix {shared:?} straddles a cut");
                }
                // Owned prefixes really are owned: every subnet of an owned
                // prefix lies inside the segment.
                for p in prefixes.get(seg.prefixes.clone()).unwrap_or(&[]) {
                    for (i, s) in subnets.iter().enumerate() {
                        if p.contains_net(s) {
                            assert!(
                                seg.subnets.contains(&i),
                                "owned prefix {p} has subnet outside the segment"
                            );
                        }
                    }
                }
            }
            assert_eq!(covered, subnets.len());
        }
    }

    #[test]
    fn shard_source_is_checked() {
        let base = Ipv4Addr::new(255, 255, 255, 250);
        assert_eq!(
            EcsScanner::shard_source(base, 3),
            Ipv4Addr::new(255, 255, 255, 253)
        );
        // Would wrap past 255.255.255.255: falls back to the base.
        assert_eq!(EcsScanner::shard_source(base, 9), base);
        assert_eq!(EcsScanner::shard_source(base, usize::MAX), base);
        let low = Ipv4Addr::new(138, 246, 253, 10);
        assert_eq!(EcsScanner::shard_source(low, 0), low);
        assert_eq!(
            EcsScanner::shard_source(low, 255),
            Ipv4Addr::new(138, 246, 254, 9)
        );
    }
}

#[cfg(test)]
mod v6_tests {
    use super::*;
    use tectonic_net::Epoch;
    use tectonic_relay::{Deployment, DeploymentConfig, Domain};

    #[test]
    fn v6_enumeration_is_infeasible() {
        let d = Deployment::build(21, DeploymentConfig::scaled(1024));
        let auth = d.auth_server_unlimited();
        let scanner = EcsScanner::default();
        let samples: Vec<Ipv4Net> = scanner
            .candidate_subnets(&d.rib)
            .into_iter()
            .step_by(199)
            .take(64)
            .collect();
        let mut clock = SimClock::new(Epoch::Apr2022.start());
        let report =
            scanner.probe_v6_feasibility(Domain::MaskQuic.name(), &auth, &samples, &mut clock);
        assert_eq!(report.queries, 64);
        assert_eq!(report.distinct_scopes, vec![0], "AAAA scope must be 0");
        assert!(!report.enumeration_feasible);
        // The probe still sees *some* addresses — just cannot attribute
        // subnets to them, hence the fall-back to RIPE Atlas.
        assert!(report.distinct_addresses > 0);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use tectonic_dns::server::{NameServer, QueryContext, ServerReply};
    use tectonic_net::Epoch;
    use tectonic_relay::{Deployment, DeploymentConfig, Domain};

    /// A server that drops every query — the pathological rate limiter.
    struct BlackHole;

    impl NameServer for BlackHole {
        fn handle_query(&self, _wire: &[u8], _ctx: &QueryContext) -> ServerReply {
            ServerReply::Dropped
        }
    }

    #[test]
    fn scanner_gives_up_instead_of_hanging() {
        let d = Deployment::build(1, DeploymentConfig::scaled(4096));
        let scanner = EcsScanner::new(EcsScanConfig {
            max_retries: 3,
            ..EcsScanConfig::default()
        });
        let mut clock = SimClock::new(Epoch::Apr2022.start());
        let report = scanner.scan(Domain::MaskQuic.name(), &BlackHole, &d.rib, &mut clock);
        assert_eq!(report.total(), 0);
        assert!(report.rate_limited > 0);
        // Every query was dropped: the drop ledger covers them all.
        assert_eq!(report.queries_sent, report.rate_limited);
        assert!(report.per_client_as.is_empty());
    }

    #[test]
    fn exhausted_budget_counts_each_candidate_exactly_once() {
        let d = Deployment::build(1, DeploymentConfig::scaled(4096));
        let budget = 3u64;
        let scanner = EcsScanner::new(EcsScanConfig {
            max_retries: budget as u32,
            ..EcsScanConfig::default()
        });
        let candidates = scanner.candidate_subnets(&d.rib).len() as u64;
        assert!(candidates > 0);
        let mut clock = SimClock::new(Epoch::Apr2022.start());
        let report = scanner.scan(Domain::MaskQuic.name(), &BlackHole, &d.rib, &mut clock);
        // Against a drop-everything server each candidate spends its whole
        // retry budget and is then abandoned exactly once — no
        // double-counting between the retry and exhaustion ledgers.
        assert_eq!(report.retries, budget * candidates);
        assert_eq!(report.exhausted, candidates);
        assert_eq!(report.rate_limited, report.retries + report.exhausted);
        assert_eq!(report.queries_sent, report.rate_limited);
        assert_eq!(report.queries_sent, (budget + 1) * candidates);
    }

    /// A server that answers garbage bytes.
    struct GarbageServer;

    impl NameServer for GarbageServer {
        fn handle_query(&self, _wire: &[u8], _ctx: &QueryContext) -> ServerReply {
            ServerReply::Response(vec![0xde, 0xad, 0xbe])
        }
    }

    #[test]
    fn scanner_survives_garbage_responses() {
        let d = Deployment::build(1, DeploymentConfig::scaled(4096));
        let scanner = EcsScanner::default();
        let mut clock = SimClock::new(Epoch::Apr2022.start());
        let report = scanner.scan(Domain::MaskQuic.name(), &GarbageServer, &d.rib, &mut clock);
        assert_eq!(report.total(), 0, "garbage must not become addresses");
        assert!(report.queries_sent > 0);
        assert!(report.decode_errors > 0, "undecodable replies are counted");
    }
}

#[cfg(test)]
mod scope_set_tests {
    use super::*;
    use proptest::prelude::*;

    /// Scopes of /8–/24 in three /8s, two of them adjacent. Offsets are
    /// biased to a few /16 and /24 boundaries so blocks often share a
    /// first address, which makes nesting in both directions and a wider
    /// block starting where a stored one starts common.
    fn arb_scope() -> impl Strategy<Value = Ipv4Net> {
        let offset = prop_oneof![
            (0u32..4, 0u32..4).prop_map(|(hi, mid)| (hi << 16) | (mid << 8)),
            any::<u32>(),
        ];
        (0usize..3, offset, 8u8..=24).prop_map(|(slash8, offset, len)| {
            let top = [10u32, 11, 17][slash8] << 24;
            Ipv4Net::clamped(Ipv4Addr::from(top | (offset & 0x00FF_FFFF)), len)
        })
    }

    /// Each block's first and last address and the addresses just
    /// outside it.
    fn edges(n: &Ipv4Net) -> [Ipv4Addr; 4] {
        let (lo, hi) = (u32::from(n.network()), u32::from(n.broadcast()));
        [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1)].map(Ipv4Addr::from)
    }

    proptest! {
        #[test]
        fn scope_set_matches_linear_oracle(
            scopes in prop::collection::vec(arb_scope(), 1..40),
        ) {
            let mut set = ScopeSet::default();
            let mut oracle: Vec<Ipv4Net> = Vec::new();
            for scope in &scopes {
                set.insert(*scope);
                oracle.push(*scope);
                prop_assert!(
                    set.blocks.windows(2).all(|w| w[0].broadcast() < w[1].network()),
                    "blocks not sorted and disjoint: {:?}",
                    set.blocks
                );
                for addr in oracle.iter().flat_map(edges) {
                    prop_assert_eq!(
                        set.covers(addr),
                        oracle.iter().any(|n| n.contains(addr)),
                        "{} after {:?}",
                        addr,
                        oracle
                    );
                }
            }
        }
    }
}
