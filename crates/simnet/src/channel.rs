//! The faulted delivery layer: dice-rolling, stats, and server wrapping.
//!
//! [`FaultedChannel`] owns the scenario's RNG stream (one
//! [`SimRng`] fork per channel, label `"simnet-channel"`) and a per-link
//! [`LinkStats`] ledger. Every fault it injects increments exactly one
//! counter, which is what lets the chaos matrix assert "no silently
//! swallowed faults": the pipeline's own skip/decode/timeout counters must
//! equal the channel's injection counts.
//!
//! [`FaultedChannel::deliver`] sees every faulted byte: nothing here may
//! index, unwrap, or panic on any input.

use std::collections::BTreeMap;
use std::net::IpAddr;

use bytes::BytesMut;
use tectonic_dns::server::{NameServer, QueryContext, ReplyOutcome};
use tectonic_net::{Asn, IpNet, SimDuration, SimRng, SimTime};

use crate::{FaultPlan, Link};

/// One RIB mutation travelling over the [`Link::BgpFeed`] event feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RibEvent {
    /// Announce `net` with the given origin AS.
    Announce(IpNet, Asn),
    /// Withdraw `net`.
    Withdraw(IpNet),
}

/// What [`FaultedChannel::deliver`] decided for one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver the reply unmodified.
    Deliver,
    /// Silently drop it (client sees a timeout).
    Drop,
    /// Truncate the reply to this many bytes — always below the 12-byte
    /// DNS header, so decoding is guaranteed to fail.
    Truncate(usize),
    /// Overwrite the header count fields with 0xFF — guaranteed decode
    /// failure without changing the length.
    CorruptCounts,
    /// Rewrite the RCODE nibble (blocking resolver).
    RewriteRcode(u8),
}

/// Per-link fault accounting. Every injected fault lands in exactly one
/// counter here; the chaos invariants reconcile these against the
/// pipeline's own report counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Delivery decisions taken (one per reply or datagram).
    pub deliveries: u64,
    /// Replies that reached the client (possibly mutated).
    pub delivered: u64,
    /// Random drops.
    pub dropped: u64,
    /// Drops inside a rate-limit burst outage window.
    pub burst_dropped: u64,
    /// Drops due to a total blackhole.
    pub blackhole_dropped: u64,
    /// Replies truncated below the DNS header.
    pub truncated: u64,
    /// Replies with corrupted count fields.
    pub corrupted: u64,
    /// Replies with a rewritten RCODE.
    pub rcode_rewritten: u64,
    /// Duplicate deliveries injected (idempotent for request/reply links).
    pub duplicated: u64,
    /// Reorderings injected (materialised only on event feeds).
    pub reordered: u64,
    /// Deliveries that carried nonzero jitter.
    pub jitter_events: u64,
    /// Total injected jitter, milliseconds.
    pub jitter_ms_total: u64,
}

impl LinkStats {
    /// All drops regardless of cause — what a client counts as timeouts.
    /// Saturating: a pinned ledger near `u64::MAX` reports the ceiling
    /// rather than wrapping to a small, plausible-looking count.
    pub fn all_dropped(&self) -> u64 {
        self.dropped
            .saturating_add(self.burst_dropped)
            .saturating_add(self.blackhole_dropped)
    }

    /// All mutations that leave the reply undecodable (saturating, as
    /// [`all_dropped`](LinkStats::all_dropped)).
    pub fn undecodable(&self) -> u64 {
        self.truncated.saturating_add(self.corrupted)
    }

    /// Adds another ledger into this one, field by field — how the chaos
    /// harness folds the per-shard channels of an engine run into the one
    /// ledger the invariants reconcile against. Every fold saturates:
    /// counter overflow must pin at `u64::MAX` and keep the invariant
    /// checks comparable, never wrap and fake a healthy ledger.
    pub fn absorb(&mut self, other: &LinkStats) {
        self.deliveries = self.deliveries.saturating_add(other.deliveries);
        self.delivered = self.delivered.saturating_add(other.delivered);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.burst_dropped = self.burst_dropped.saturating_add(other.burst_dropped);
        self.blackhole_dropped = self
            .blackhole_dropped
            .saturating_add(other.blackhole_dropped);
        self.truncated = self.truncated.saturating_add(other.truncated);
        self.corrupted = self.corrupted.saturating_add(other.corrupted);
        self.rcode_rewritten = self.rcode_rewritten.saturating_add(other.rcode_rewritten);
        self.duplicated = self.duplicated.saturating_add(other.duplicated);
        self.reordered = self.reordered.saturating_add(other.reordered);
        self.jitter_events = self.jitter_events.saturating_add(other.jitter_events);
        self.jitter_ms_total = self.jitter_ms_total.saturating_add(other.jitter_ms_total);
    }
}

/// The seven per-link ledgers, one field per [`Link`] so access never
/// allocates or hashes.
#[derive(Debug, Clone, Default)]
struct ChannelStats {
    scan_auth: LinkStats,
    atlas_auth: LinkStats,
    control_auth: LinkStats,
    relay_dns: LinkStats,
    quic_ingress: LinkStats,
    bgp_feed: LinkStats,
    masque_data: LinkStats,
}

impl ChannelStats {
    fn stats_slot(&mut self, link: Link) -> &mut LinkStats {
        match link {
            Link::ScanAuth => &mut self.scan_auth,
            Link::AtlasAuth => &mut self.atlas_auth,
            Link::ControlAuth => &mut self.control_auth,
            Link::RelayDns => &mut self.relay_dns,
            Link::QuicIngress => &mut self.quic_ingress,
            Link::BgpFeed => &mut self.bgp_feed,
            Link::MasqueData => &mut self.masque_data,
        }
    }

    fn stats_peek(&self, link: Link) -> &LinkStats {
        match link {
            Link::ScanAuth => &self.scan_auth,
            Link::AtlasAuth => &self.atlas_auth,
            Link::ControlAuth => &self.control_auth,
            Link::RelayDns => &self.relay_dns,
            Link::QuicIngress => &self.quic_ingress,
            Link::BgpFeed => &self.bgp_feed,
            Link::MasqueData => &self.masque_data,
        }
    }
}

struct ChannelState {
    rng: SimRng,
    stats: ChannelStats,
}

/// The deterministic fault-injection channel for one scenario run.
///
/// Interior-mutable (one mutex) so it can sit behind shared references in
/// server wrappers while the pipeline drives queries through it.
pub struct FaultedChannel {
    plan: FaultPlan,
    #[expect(
        clippy::disallowed_types,
        reason = "a leaf lock: nothing that takes another lock runs while the guard is held. It stays while \
                  `FaultedServer` answers through `NameServer::handle_query_into(&self, ..)` \
                  and the benchmark harness hands the engine `&(dyn NameServer + Sync)`"
    )]
    state: parking_lot::Mutex<ChannelState>,
}

impl FaultedChannel {
    /// Builds a channel for `plan`, with its own RNG fork off `seed`.
    #[expect(clippy::disallowed_types, reason = "builds the leaf lock of `state`")]
    pub fn new(plan: FaultPlan, seed: u64) -> FaultedChannel {
        FaultedChannel {
            plan,
            state: parking_lot::Mutex::new(ChannelState {
                rng: SimRng::new(seed).fork("simnet-channel"),
                stats: ChannelStats::default(),
            }),
        }
    }

    /// The scenario plan this channel executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one reply of `reply_len` bytes on `link`, sent
    /// to `src` at `now`. `is_noerror` tells the channel whether the reply
    /// is eligible for a blocking-resolver RCODE rewrite (rewriting an
    /// already-failing reply would double-count the fault).
    ///
    /// Fault precedence: blackhole, burst outage, random drop, then the
    /// non-fatal mutations (duplicate/reorder are counted but idempotent on
    /// request/reply links; truncation, corruption, and RCODE rewrites are
    /// mutually exclusive, first match wins).
    pub fn deliver(
        &self,
        link: Link,
        src: IpAddr,
        now: SimTime,
        reply_len: usize,
        is_noerror: bool,
    ) -> Delivery {
        let faults = self.plan.faults_for(link);
        let mut state = self.state.lock();
        state.stats.stats_slot(link).deliveries += 1;
        if faults.blackhole {
            state.stats.stats_slot(link).blackhole_dropped += 1;
            return Delivery::Drop;
        }
        if let Some(burst) = faults.burst {
            let period = burst.period.as_millis().max(1);
            if now.as_millis() % period < burst.outage.as_millis() {
                state.stats.stats_slot(link).burst_dropped += 1;
                return Delivery::Drop;
            }
        }
        if faults.drop > 0.0 && state.rng.chance(faults.drop) {
            state.stats.stats_slot(link).dropped += 1;
            return Delivery::Drop;
        }
        // Duplication and reordering are draw-and-count on request/reply
        // links: a duplicated or late reply to an id-matched query is
        // discarded by any real client, so the observable pipeline effect
        // is nil — but the draws keep the RNG stream honest and the
        // counters prove the faults were exercised.
        if faults.duplicate > 0.0 && state.rng.chance(faults.duplicate) {
            state.stats.stats_slot(link).duplicated += 1;
        }
        if faults.reorder > 0.0 && state.rng.chance(faults.reorder) {
            state.stats.stats_slot(link).reordered += 1;
        }
        if faults.truncate > 0.0 && state.rng.chance(faults.truncate) {
            // Strictly below the 12-byte DNS header: decode_message cannot
            // succeed, so the fault is always observable.
            let cap = reply_len.min(12) as u64;
            let new_len = state.rng.below(cap) as usize;
            state.stats.stats_slot(link).truncated += 1;
            return Delivery::Truncate(new_len);
        }
        if faults.corrupt > 0.0 && state.rng.chance(faults.corrupt) {
            state.stats.stats_slot(link).corrupted += 1;
            return Delivery::CorruptCounts;
        }
        if let Some(rewrite) = faults.rcode_rewrite {
            if is_noerror && source_fraction(src) < rewrite.fraction {
                state.stats.stats_slot(link).rcode_rewritten += 1;
                state.stats.stats_slot(link).delivered += 1;
                return Delivery::RewriteRcode(rewrite.rcode);
            }
        }
        state.stats.stats_slot(link).delivered += 1;
        Delivery::Deliver
    }

    /// Draws the extra one-way latency for one delivery on `link`. Returns
    /// [`SimDuration::ZERO`] (without consuming the RNG) when the link has
    /// no jitter configured.
    pub fn jitter_draw(&self, link: Link) -> SimDuration {
        let faults = self.plan.faults_for(link);
        if faults.jitter_ms == 0 {
            return SimDuration::ZERO;
        }
        let mut state = self.state.lock();
        let ms = state.rng.below(faults.jitter_ms.saturating_add(1));
        if ms > 0 {
            let slot = state.stats.stats_slot(link);
            slot.jitter_events += 1;
            // The one ledger field fed arbitrary increments rather than
            // unit ticks — saturate so a long jittery run pins instead of
            // wrapping.
            slot.jitter_ms_total = slot.jitter_ms_total.saturating_add(ms);
        }
        SimDuration::from_millis(ms)
    }

    /// Decides whether one QUIC datagram exchange on [`Link::QuicIngress`]
    /// vanishes into a blackhole (configured blackhole or random drop).
    pub fn ingress_blackholed(&self) -> bool {
        let faults = self.plan.faults_for(Link::QuicIngress);
        let mut state = self.state.lock();
        state.stats.stats_slot(Link::QuicIngress).deliveries += 1;
        if faults.blackhole {
            state.stats.stats_slot(Link::QuicIngress).blackhole_dropped += 1;
            return true;
        }
        if faults.drop > 0.0 && state.rng.chance(faults.drop) {
            state.stats.stats_slot(Link::QuicIngress).dropped += 1;
            return true;
        }
        state.stats.stats_slot(Link::QuicIngress).delivered += 1;
        false
    }

    /// Runs a batch of RIB events through the faults on `link`, for real:
    /// drops remove events, duplication repeats them, reordering swaps
    /// adjacent survivors. The returned sequence is what the RIB consumer
    /// should apply.
    pub fn feed_events(&self, link: Link, events: &[RibEvent]) -> Vec<RibEvent> {
        let faults = self.plan.faults_for(link);
        let mut state = self.state.lock();
        let mut out: Vec<RibEvent> = Vec::with_capacity(events.len());
        for event in events {
            state.stats.stats_slot(link).deliveries += 1;
            if faults.blackhole || (faults.drop > 0.0 && state.rng.chance(faults.drop)) {
                if faults.blackhole {
                    state.stats.stats_slot(link).blackhole_dropped += 1;
                } else {
                    state.stats.stats_slot(link).dropped += 1;
                }
                continue;
            }
            state.stats.stats_slot(link).delivered += 1;
            out.push(*event);
            if faults.duplicate > 0.0 && state.rng.chance(faults.duplicate) {
                state.stats.stats_slot(link).duplicated += 1;
                out.push(*event);
            }
        }
        if faults.reorder > 0.0 {
            let mut i = 1;
            while i < out.len() {
                if state.rng.chance(faults.reorder) {
                    out.swap(i - 1, i);
                    state.stats.stats_slot(link).reordered += 1;
                }
                i += 1;
            }
        }
        out
    }

    /// A snapshot of one link's fault ledger.
    pub fn stats_for(&self, link: Link) -> LinkStats {
        self.state.lock().stats.stats_peek(link).clone()
    }

    /// A snapshot of every link's ledger, keyed by link.
    pub fn stats(&self) -> BTreeMap<Link, LinkStats> {
        let state = self.state.lock();
        Link::ALL
            .iter()
            .map(|&link| (link, state.stats.stats_peek(link).clone()))
            .collect()
    }
}

/// Maps a source address to a stable position in `[0, 1)` (FNV-1a hash),
/// so a "fraction of sources behind blocking resolvers" selects the same
/// sources on every run and for every query from that source.
pub fn source_fraction(src: IpAddr) -> f64 {
    let hash = match src {
        IpAddr::V4(v4) => fnv1a(&v4.octets()),
        IpAddr::V6(v6) => fnv1a(&v6.octets()),
    };
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// 64-bit FNV-1a over a byte slice, finished with a splitmix64-style
/// avalanche: raw FNV leaves the high bits nearly constant when inputs
/// differ only in their trailing byte (adjacent IPv4 addresses), and the
/// fraction mapping reads the high bits.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// Rewrites the RCODE nibble in a wire-format DNS header, in place. A
/// no-op on replies shorter than the header (already undecodable).
fn rewrite_rcode_nibble(bytes: &mut [u8], rcode: u8) {
    if let Some(flags) = bytes.get_mut(3) {
        *flags = (*flags & 0xF0) | (rcode & 0x0F);
    }
}

/// Stomps the four header count fields (bytes 4..12) with 0xFF, in place.
/// 65535 claimed records against a short body guarantees a decode error.
fn stomp_count_fields(bytes: &mut [u8]) {
    for byte in bytes.iter_mut().take(12).skip(4) {
        *byte = 0xFF;
    }
}

/// True when the wire reply's RCODE nibble is NoError (eligible for a
/// blocking-resolver rewrite).
fn reply_is_noerror(bytes: &[u8]) -> bool {
    bytes.get(3).is_some_and(|flags| flags & 0x0F == 0)
}

/// A [`NameServer`] wrapper that routes every reply through the channel's
/// fault plan for one link: jitter perturbs the arrival timestamp the
/// inner server sees, and the delivery decision drops or mutates the reply
/// bytes. Organic drops by the inner server (its own rate limiter) bypass
/// the channel entirely, so the fault ledger counts injected faults only.
///
/// Like every [`NameServer`] it is `Sync`: the chaos harness shares one
/// wrapper per engine shard across the engine's scoped worker threads.
pub struct FaultedServer<'a> {
    channel: &'a FaultedChannel,
    link: Link,
    inner: &'a dyn NameServer,
}

impl<'a> FaultedServer<'a> {
    /// Wraps `inner` so its replies traverse `link` of `channel`.
    pub fn new(channel: &'a FaultedChannel, link: Link, inner: &'a dyn NameServer) -> Self {
        FaultedServer {
            channel,
            link,
            inner,
        }
    }
}

impl NameServer for FaultedServer<'_> {
    fn handle_query_into(
        &self,
        wire: &[u8],
        ctx: &QueryContext,
        out: &mut BytesMut,
    ) -> ReplyOutcome {
        let jitter = self.channel.jitter_draw(self.link);
        let ctx = QueryContext {
            src: ctx.src,
            now: ctx.now + jitter,
        };
        match self.inner.handle_query_into(wire, &ctx, out) {
            ReplyOutcome::Written => {}
            ReplyOutcome::Dropped => return ReplyOutcome::Dropped,
        }
        let noerror = reply_is_noerror(out);
        match self
            .channel
            .deliver(self.link, ctx.src, ctx.now, out.len(), noerror)
        {
            Delivery::Deliver => ReplyOutcome::Written,
            Delivery::Drop => ReplyOutcome::Dropped,
            Delivery::Truncate(len) => {
                out.truncate(len);
                ReplyOutcome::Written
            }
            Delivery::CorruptCounts => {
                stomp_count_fields(out);
                ReplyOutcome::Written
            }
            Delivery::RewriteRcode(rcode) => {
                rewrite_rcode_nibble(out, rcode);
                ReplyOutcome::Written
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenarios, Burst, LinkFaults, RcodeRewrite};
    use std::net::Ipv4Addr;
    use tectonic_dns::server::ServerReply;

    fn src(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, last))
    }

    fn deliver_n(channel: &FaultedChannel, link: Link, n: usize) -> Vec<Delivery> {
        (0..n)
            .map(|i| {
                channel.deliver(
                    link,
                    src((i % 250) as u8),
                    SimTime(1_000 + i as u64 * 137),
                    64,
                    true,
                )
            })
            .collect()
    }

    #[test]
    fn ledger_folds_saturate_instead_of_wrapping() {
        // A ledger pinned at the ceiling plus a busy shard ledger must
        // stay pinned — wrapping would fake a small, healthy count and
        // slip past every chaos invariant.
        let mut pinned = LinkStats {
            deliveries: u64::MAX,
            dropped: u64::MAX - 1,
            jitter_ms_total: u64::MAX,
            ..LinkStats::default()
        };
        let shard = LinkStats {
            deliveries: 10,
            dropped: 7,
            burst_dropped: 3,
            blackhole_dropped: 2,
            truncated: 1,
            corrupted: 1,
            jitter_ms_total: 1_000,
            ..LinkStats::default()
        };
        pinned.absorb(&shard);
        assert_eq!(pinned.deliveries, u64::MAX, "fold saturates");
        assert_eq!(pinned.dropped, u64::MAX, "near-ceiling fold pins");
        assert_eq!(pinned.jitter_ms_total, u64::MAX);
        // The derived views saturate too: three drop causes summing past
        // the ceiling report the ceiling.
        assert_eq!(pinned.all_dropped(), u64::MAX);
        assert_eq!(shard.all_dropped(), 12);
        assert_eq!(shard.undecodable(), 2);
        let mut top = LinkStats {
            truncated: u64::MAX,
            ..LinkStats::default()
        };
        top.absorb(&shard);
        assert_eq!(top.undecodable(), u64::MAX);
    }

    #[test]
    fn inert_plan_delivers_everything_untouched() {
        let channel = FaultedChannel::new(FaultPlan::named("inert"), 7);
        let outcomes = deliver_n(&channel, Link::ScanAuth, 200);
        assert!(outcomes.iter().all(|d| *d == Delivery::Deliver));
        let stats = channel.stats_for(Link::ScanAuth);
        assert_eq!(stats.deliveries, 200);
        assert_eq!(stats.delivered, 200);
        assert_eq!(stats.all_dropped() + stats.undecodable(), 0);
    }

    #[test]
    fn same_seed_same_plan_is_bit_identical() {
        let a = FaultedChannel::new(scenarios::by_name("kitchen-sink").expect("plan"), 42);
        let b = FaultedChannel::new(scenarios::by_name("kitchen-sink").expect("plan"), 42);
        assert_eq!(
            deliver_n(&a, Link::ScanAuth, 500),
            deliver_n(&b, Link::ScanAuth, 500)
        );
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn every_fault_lands_in_exactly_one_counter() {
        let plan = FaultPlan::named("mix").with_link(
            Link::ScanAuth,
            LinkFaults {
                drop: 0.2,
                truncate: 0.2,
                corrupt: 0.2,
                ..LinkFaults::default()
            },
        );
        let channel = FaultedChannel::new(plan, 3);
        let outcomes = deliver_n(&channel, Link::ScanAuth, 1000);
        let stats = channel.stats_for(Link::ScanAuth);
        let drops = outcomes.iter().filter(|d| **d == Delivery::Drop).count() as u64;
        let truncs = outcomes
            .iter()
            .filter(|d| matches!(d, Delivery::Truncate(_)))
            .count() as u64;
        let corrupts = outcomes
            .iter()
            .filter(|d| **d == Delivery::CorruptCounts)
            .count() as u64;
        assert_eq!(stats.dropped, drops);
        assert_eq!(stats.truncated, truncs);
        assert_eq!(stats.corrupted, corrupts);
        assert!(drops > 0 && truncs > 0 && corrupts > 0);
        assert_eq!(stats.deliveries, 1000);
        assert_eq!(
            stats.delivered + stats.all_dropped() + stats.undecodable(),
            1000
        );
    }

    #[test]
    fn truncation_always_lands_below_the_header() {
        let plan = FaultPlan::named("trunc").with_link(
            Link::ScanAuth,
            LinkFaults {
                truncate: 1.0,
                ..LinkFaults::default()
            },
        );
        let channel = FaultedChannel::new(plan, 5);
        for i in 0..100 {
            match channel.deliver(Link::ScanAuth, src(1), SimTime(i), 300, true) {
                Delivery::Truncate(len) => assert!(len < 12),
                other => panic!("expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn burst_outage_tracks_the_clock_window() {
        let plan = FaultPlan::named("burst").with_link(
            Link::ScanAuth,
            LinkFaults {
                burst: Some(Burst {
                    period: SimDuration::from_millis(1000),
                    outage: SimDuration::from_millis(100),
                }),
                ..LinkFaults::default()
            },
        );
        let channel = FaultedChannel::new(plan, 9);
        let in_window = channel.deliver(Link::ScanAuth, src(1), SimTime(2_050), 64, true);
        let outside = channel.deliver(Link::ScanAuth, src(1), SimTime(2_500), 64, true);
        assert_eq!(in_window, Delivery::Drop);
        assert_eq!(outside, Delivery::Deliver);
        assert_eq!(channel.stats_for(Link::ScanAuth).burst_dropped, 1);
    }

    #[test]
    fn rcode_rewrite_is_stable_per_source_and_skips_failures() {
        let plan = FaultPlan::named("block").with_link(
            Link::AtlasAuth,
            LinkFaults {
                rcode_rewrite: Some(RcodeRewrite {
                    fraction: 0.3,
                    rcode: 3,
                }),
                ..LinkFaults::default()
            },
        );
        let channel = FaultedChannel::new(plan, 11);
        let mut rewritten = 0usize;
        for i in 0..=255u8 {
            let first = channel.deliver(Link::AtlasAuth, src(i), SimTime(1), 64, true);
            let second = channel.deliver(Link::AtlasAuth, src(i), SimTime(2), 64, true);
            assert_eq!(first, second, "per-source decision must be stable");
            // A reply that already fails is never rewritten (no
            // double-counted faults).
            let failing = channel.deliver(Link::AtlasAuth, src(i), SimTime(3), 64, false);
            assert_eq!(failing, Delivery::Deliver);
            if first == Delivery::RewriteRcode(3) {
                rewritten += 1;
            }
        }
        assert!(
            (40..=115).contains(&rewritten),
            "expected roughly 30% of 256 sources, got {rewritten}"
        );
    }

    #[test]
    fn feed_events_materialise_drop_duplicate_reorder() {
        let nets: Vec<IpNet> = (0..40u8)
            .map(|i| {
                IpNet::from(
                    tectonic_net::Ipv4Net::new(Ipv4Addr::new(10, i, 0, 0), 16).expect("valid net"),
                )
            })
            .collect();
        let events: Vec<RibEvent> = nets.iter().map(|n| RibEvent::Withdraw(*n)).collect();
        let plan = FaultPlan::named("feed").with_link(
            Link::BgpFeed,
            LinkFaults {
                drop: 0.2,
                duplicate: 0.2,
                reorder: 0.3,
                ..LinkFaults::default()
            },
        );
        let channel = FaultedChannel::new(plan, 13);
        let out = channel.feed_events(Link::BgpFeed, &events);
        let stats = channel.stats_for(Link::BgpFeed);
        assert_eq!(stats.deliveries, events.len() as u64);
        assert_eq!(
            out.len() as u64,
            stats.delivered + stats.duplicated,
            "output length must reconcile with the ledger"
        );
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.reordered > 0);
    }

    #[test]
    fn faulted_server_mutations_are_observable_on_the_wire() {
        struct Fixed;
        impl NameServer for Fixed {
            fn handle_query_into(
                &self,
                _wire: &[u8],
                _ctx: &QueryContext,
                out: &mut BytesMut,
            ) -> ReplyOutcome {
                // Minimal NoError header: id 0xBEEF, QR set, zero counts.
                out.clear();
                out.extend_from_slice(&[0xBE, 0xEF, 0x80, 0x00]);
                out.extend_from_slice(&[0u8; 8]);
                out.extend_from_slice(&[0xAA; 20]);
                ReplyOutcome::Written
            }
        }
        let plan = FaultPlan::named("rewrite").with_link(
            Link::AtlasAuth,
            LinkFaults {
                rcode_rewrite: Some(RcodeRewrite {
                    fraction: 1.0,
                    rcode: 3,
                }),
                ..LinkFaults::default()
            },
        );
        let channel = FaultedChannel::new(plan, 17);
        let inner = Fixed;
        let server = FaultedServer::new(&channel, Link::AtlasAuth, &inner);
        let ctx = QueryContext {
            src: src(1),
            now: SimTime(1),
        };
        match server.handle_query(&[0u8; 12], &ctx) {
            ServerReply::Response(bytes) => {
                assert_eq!(bytes.get(3).copied().map(|b| b & 0x0F), Some(3));
                assert_eq!(bytes.len(), 32, "rewrite must not change length");
            }
            ServerReply::Dropped => panic!("rewrite plan must not drop"),
        }
        let mut buf = BytesMut::new();
        let outcome = server.handle_query_into(&[0u8; 12], &ctx, &mut buf);
        assert_eq!(outcome, ReplyOutcome::Written);
        assert_eq!(buf.get(3).copied().map(|b| b & 0x0F), Some(3));
        assert_eq!(channel.stats_for(Link::AtlasAuth).rcode_rewritten, 2);
    }
}
