//! The steady-state kernels allocate nothing, counted on the real code.
//!
//! A counting `#[global_allocator]` tallies every allocation and
//! reallocation per thread, so tests running in parallel do not see each
//! other's, and the engine runs on one worker, inline on the test's thread
//! (at more workers each window's scoped spawns allocate outside
//! `run_window`). Each test warms its buffers first, then asserts zero
//! allocations over thousands of calls on real inputs:
//!
//! * the scan's query template patch;
//! * the scan's reply path: `ReplyView::parse`, `answers_v4` and the
//!   batched RIB attribution;
//! * the prefix table's reads on a frozen table under overlay patches;
//! * the wire encoder, reused;
//! * the engine's window drain.
//!
//! The scan's per-query kernel (`attempt_query`, private) is pinned end to
//! end: a one-shard scan against a server replaying one captured answer
//! may only grow its report, so doubling the queries adds far fewer than
//! one allocation per query.

#![expect(
    clippy::disallowed_macros,
    reason = "the count must be per thread: the harness runs tests on parallel threads"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};

use bytes::BytesMut;
use tectonic::core::ecs_scan::EcsScanner;
use tectonic::dns::name::mask_domain;
use tectonic::dns::wire::MessageEncoder;
use tectonic::dns::{
    EcsOption, Message, NameServer, QType, QueryContext, QueryTemplate, ReplyOutcome, ReplyView,
};
use tectonic::engine::{Engine, EngineConfig, ShardCtx, ShardModel};
use tectonic::net::{
    BatchScratch, IpNet, Ipv4Net, PrefixTable, SimClock, SimDuration, SimRng, SimTime,
};
use tectonic::relay::{Deployment, DeploymentConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Passes every request to the system allocator, counting allocations and
/// reallocations on the calling thread.
struct Counting;

fn tally() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// so `System` upholds the allocator contract; counting only touches a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's `layout` meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

fn deployment() -> Deployment {
    Deployment::build(7, DeploymentConfig::scaled(256))
}

/// The first `n` /24s the scanner would query.
fn subnets(d: &Deployment, n: usize) -> Vec<Ipv4Net> {
    let candidates = EcsScanner::default().candidate_subnets(&d.rib);
    assert!(candidates.len() >= n, "{} candidates", candidates.len());
    candidates.into_iter().take(n).collect()
}

#[test]
fn query_template_patch_is_allocation_free() {
    let d = deployment();
    let nets = subnets(&d, 4_000);
    let template = QueryTemplate::new_v4_24(&mask_domain(), QType::A).expect("template");
    let mut query = template.instantiate();
    let mut checksum = 0u64;
    let (allocs, ()) = allocations(|| {
        for (id, net) in (0u16..).zip(&nets) {
            let wire = query.patch(id, *net);
            checksum = checksum.wrapping_add(wire.len() as u64);
        }
    });
    assert!(checksum > 0);
    assert_eq!(allocs, 0, "{} template patches", nets.len());
}

#[test]
fn reply_view_and_batched_attribution_are_allocation_free() {
    let d = deployment();
    assert!(
        d.rib.is_frozen(),
        "the scan attributes against a frozen RIB"
    );
    let auth = d.auth_server_unlimited();
    let template = QueryTemplate::new_v4_24(&mask_domain(), QType::A).expect("template");
    let mut query = template.instantiate();
    let ctx = QueryContext {
        src: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
        now: SimTime(0),
    };
    let replies: Vec<BytesMut> = (0u16..)
        .zip(subnets(&d, 4_000))
        .map(|(id, net)| {
            let mut reply = BytesMut::new();
            let outcome = auth.handle_query_into(query.patch(id, net), &ctx, &mut reply);
            assert_eq!(outcome, ReplyOutcome::Written);
            reply
        })
        .collect();
    let mut addrs: Vec<IpAddr> = Vec::new();
    let mut scratch = BatchScratch::new();
    let mut attributed = Vec::new();
    let mut answers = 0usize;
    let mut read_all = || {
        for reply in &replies {
            let view = ReplyView::parse(reply).expect("a server reply parses");
            addrs.clear();
            addrs.extend(view.answers_v4().map(IpAddr::V4));
            d.rib.lookup_batch_in(&mut scratch, &addrs, &mut attributed);
            answers += attributed.iter().flatten().count();
        }
    };
    read_all();
    let (allocs, ()) = allocations(read_all);
    assert!(answers > replies.len(), "{answers} attributed answers");
    assert_eq!(allocs, 0, "{} replies", replies.len());
}

#[test]
fn prefix_table_reads_are_allocation_free() {
    let mut rng = SimRng::new(60);
    let mut random_net = || {
        let len = 8 + rng.below(17) as u8;
        let addr = Ipv4Addr::from(rng.next_u64_raw() as u32);
        IpNet::from(Ipv4Net::new(addr, len).expect("length at most 32"))
    };
    let mut table = PrefixTable::new();
    while table.len() < 60_000 {
        table.insert(random_net(), table.len() as u32);
    }
    table.freeze();
    for value in 0..3_499u32 {
        table.insert(random_net(), value);
    }
    assert!(table.pending_patches() > 0, "reads must cross the overlay");
    let mut rng = SimRng::new(61);
    let v4: Vec<Ipv4Addr> = (0..4_000)
        .map(|_| Ipv4Addr::from(rng.next_u64_raw() as u32))
        .collect();
    let addrs: Vec<IpAddr> = v4.iter().copied().map(IpAddr::V4).collect();
    let nets: Vec<IpNet> = v4
        .iter()
        .map(|a| IpNet::from(Ipv4Net::slash24_of(*a)))
        .collect();
    let mut scratch = BatchScratch::new();
    let mut out: Vec<Option<u32>> = Vec::new();
    let mut hits = 0usize;
    let mut read_all = || {
        for (addr, net) in addrs.iter().zip(&nets) {
            hits += usize::from(table.lookup(*addr).is_some());
            hits += usize::from(table.lookup_net(net).is_some());
        }
        for burst in addrs.chunks(64) {
            table.lookup_batch_map_in(&mut scratch, burst, &mut out, |m| m.map(|(_, v)| *v));
            hits += out.iter().flatten().count();
        }
    };
    read_all();
    let (allocs, ()) = allocations(read_all);
    assert!(hits > 0);
    assert_eq!(allocs, 0, "{} lookups of each kind", addrs.len());
}

#[test]
fn reused_encoder_is_allocation_free() {
    let d = deployment();
    let queries: Vec<Message> = (0u16..)
        .zip(subnets(&d, 1_000))
        .map(|(id, net)| {
            let mut query = Message::query(id, mask_domain(), QType::A);
            query.ensure_edns().set_ecs(EcsOption::for_v4_net(net));
            query
        })
        .collect();
    let mut encoder = MessageEncoder::new();
    let mut out = BytesMut::new();
    let mut encode_all = || {
        let mut bytes = 0usize;
        for query in &queries {
            encoder.encode_into(query, &mut out);
            bytes += out.len();
        }
        bytes
    };
    encode_all();
    let (allocs, bytes) = allocations(encode_all);
    assert!(bytes > 0);
    assert_eq!(allocs, 0, "{} encodes", queries.len());
}

/// A shard that does nothing with its events.
struct NullShard;

impl ShardModel for NullShard {
    type Event = ();
    type Out = ();

    fn handle(&mut self, _now: SimTime, _event: (), _ctx: &mut ShardCtx<()>) {}

    fn finish(self) {}
}

#[test]
fn engine_window_drain_is_allocation_free() {
    for windows in [500u64, 1_000] {
        let lookahead = SimDuration::from_millis(10);
        let config = EngineConfig::new(4, 1).with_lookahead(lookahead);
        let models = (0..4).map(|_| NullShard).collect();
        let mut engine = Engine::new(&config, models, &SimRng::new(1));
        // One event per shard per window, each window past the last's bound.
        for w in 0..windows {
            for shard in 0..4 {
                engine.seed(shard, SimTime(w * 20), ());
            }
        }
        let (allocs, outs) = allocations(|| engine.run());
        assert_eq!(outs.len(), 4);
        assert_eq!(allocs, 0, "{windows} windows");
    }
}

/// Answers every query with one captured reply, under the query's id.
struct Replay {
    reply: Vec<u8>,
}

impl NameServer for Replay {
    fn handle_query_into(
        &self,
        wire: &[u8],
        _ctx: &QueryContext,
        out: &mut BytesMut,
    ) -> ReplyOutcome {
        out.clear();
        out.extend_from_slice(&self.reply);
        if let (Some(slot), Some(id)) = (out.get_mut(..2), wire.get(..2)) {
            slot.copy_from_slice(id);
        }
        ReplyOutcome::Written
    }
}

#[test]
fn scan_attempts_allocate_sublinearly() {
    let d = deployment();
    let nets = subnets(&d, 8_000);
    // Capture one real answer that is scoped to its /24, so the scanner
    // skips nothing and every subnet costs one attempt.
    let auth = d.auth_server_unlimited();
    let template = QueryTemplate::new_v4_24(&mask_domain(), QType::A).expect("template");
    let mut query = template.instantiate();
    let ctx = QueryContext {
        src: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
        now: SimTime(0),
    };
    let reply = nets
        .iter()
        .find_map(|net| {
            let mut out = BytesMut::new();
            auth.handle_query_into(query.patch(1, *net), &ctx, &mut out);
            let view = ReplyView::parse(&out).ok()?;
            (view.ecs_scope() == Some(24) && view.answers_v4().count() > 0).then(|| out.to_vec())
        })
        .expect("some /24-scoped answer");
    let replay = Replay { reply };
    let scanner = EcsScanner::default();
    let scan = |n: usize| {
        let mut clock = SimClock::new(SimTime(0));
        let (allocs, report) = allocations(|| {
            scanner.scan_subnets(mask_domain(), &nets[..n], &replay, &d.rib, &mut clock)
        });
        assert_eq!(report.queries_sent, n as u64);
        allocs
    };
    let counts: Vec<(usize, u64)> = [1_000, 2_000, 4_000, 8_000]
        .into_iter()
        .map(|n| (n, scan(n)))
        .collect();
    for pair in counts.windows(2) {
        let [(_, fewer), (n, more)] = pair else {
            unreachable!()
        };
        assert!(
            more.saturating_sub(*fewer) < *n as u64 / 100,
            "allocations per scan size: {counts:?}"
        );
    }
}
