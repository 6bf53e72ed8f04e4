//! Property tests for CIDR prefixes and the prefix trie.
//!
//! The trie is the backbone of the BGP RIB and every subnet-indexed dataset
//! in the reproduction; these tests pin its laws against a brute-force
//! reference implementation.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use tectonic_net::{BatchScratch, DeltaOverlay, FrozenLpm, IpNet, Ipv4Net, Ipv6Net, PrefixTrie};

fn arb_v4net() -> impl Strategy<Value = Ipv4Net> {
    (any::<u32>(), 0u8..=32)
        .prop_map(|(bits, len)| Ipv4Net::new(Ipv4Addr::from(bits), len).unwrap())
}

fn arb_v6net() -> impl Strategy<Value = Ipv6Net> {
    (any::<u128>(), 0u8..=128)
        .prop_map(|(bits, len)| Ipv6Net::new(Ipv6Addr::from(bits), len).unwrap())
}

fn arb_ipnet() -> impl Strategy<Value = IpNet> {
    prop_oneof![
        arb_v4net().prop_map(IpNet::V4),
        arb_v6net().prop_map(IpNet::V6),
    ]
}

fn arb_addr() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<u32>().prop_map(|b| IpAddr::V4(Ipv4Addr::from(b))),
        any::<u128>().prop_map(|b| IpAddr::V6(Ipv6Addr::from(b))),
    ]
}

/// Prefixes of both families clustered in 2–3 adjacent 16-bit root
/// chunks. IPv4 lengths run 8..=24, so the shorter prefixes span whole
/// chunk ranges; each IPv6 prefix's top 16 bits are one of the same chunk
/// values, so a chunk index that mixed up the families would show. Host
/// bits are biased to all-zero and all-one, putting prefixes on chunk
/// edges.
fn arb_chunk_pool() -> impl Strategy<Value = Vec<IpNet>> {
    let host = prop_oneof![Just(0u128), Just(u128::MAX), any::<u128>()];
    (
        any::<u16>(),
        2u16..=3,
        prop::collection::vec((any::<bool>(), any::<u16>(), host, any::<u8>()), 2..24),
    )
        .prop_map(|(first, chunks, picks)| {
            let first = first.min(u16::MAX - 2);
            picks
                .into_iter()
                .map(|(v4, off, host, len)| {
                    let chunk = first + off % chunks;
                    if v4 {
                        let bits = (u32::from(chunk) << 16) | (host as u32 & 0xFFFF);
                        IpNet::V4(Ipv4Net::clamped(Ipv4Addr::from(bits), 8 + len % 17))
                    } else {
                        let bits = (u128::from(chunk) << 112) | (host >> 16);
                        IpNet::V6(Ipv6Net::clamped(Ipv6Addr::from(bits), 8 + len % 57))
                    }
                })
                .collect()
        })
}

/// `network − 1`, `network`, `broadcast` and `broadcast + 1` of `net`,
/// wrapping at the ends of the address space.
fn edge_addrs(net: &IpNet) -> [IpAddr; 4] {
    match net {
        IpNet::V4(n) => {
            let (lo, hi) = (u32::from(n.network()), u32::from(n.broadcast()));
            [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1)].map(|b| IpAddr::V4(Ipv4Addr::from(b)))
        }
        IpNet::V6(n) => {
            let (lo, len) = n.bits();
            let hi = lo | u128::MAX.checked_shr(u32::from(len)).unwrap_or(0);
            [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1)].map(|b| IpAddr::V6(Ipv6Addr::from(b)))
        }
    }
}

/// The host route of `addr`.
fn host_net(addr: IpAddr) -> IpNet {
    match addr {
        IpAddr::V4(a) => IpNet::V4(Ipv4Net::host(a)),
        IpAddr::V6(a) => IpNet::V6(Ipv6Net::host(a)),
    }
}

/// Brute-force longest-prefix match over a plain vector.
fn linear_lpm(nets: &[(IpNet, usize)], addr: IpAddr) -> Option<(IpNet, &usize)> {
    nets.iter()
        .filter(|(n, _)| n.contains(addr))
        .max_by_key(|(n, _)| n.len())
        .map(|(n, v)| (*n, v))
}

proptest! {
    #[test]
    fn parse_display_round_trip(net in arb_ipnet()) {
        let s = net.to_string();
        let back: IpNet = s.parse().unwrap();
        prop_assert_eq!(back, net);
    }

    #[test]
    fn canonical_network_is_contained(net in arb_v4net()) {
        prop_assert!(net.contains(net.network()));
        prop_assert!(net.contains(net.broadcast()));
    }

    #[test]
    fn supernet_contains_subnet(net in arb_v4net()) {
        if let Some(sup) = net.supernet() {
            prop_assert!(sup.contains_net(&net));
            prop_assert_eq!(sup.len() + 1, net.len());
        }
    }

    #[test]
    fn split_partitions_prefix(net in arb_v4net()) {
        if let Ok((l, r)) = net.split() {
            prop_assert!(net.contains_net(&l));
            prop_assert!(net.contains_net(&r));
            prop_assert!(!l.contains_net(&r));
            prop_assert!(!r.contains_net(&l));
            prop_assert_eq!(l.addr_count() + r.addr_count(), net.addr_count());
        }
    }

    #[test]
    fn nth_addr_always_inside(net in arb_v4net(), n in any::<u64>()) {
        prop_assert!(net.contains(net.nth_addr(n)));
    }

    #[test]
    fn v6_nth_addr_always_inside(net in arb_v6net(), n in any::<u128>()) {
        prop_assert!(net.contains(net.nth_addr(n)));
    }

    #[test]
    fn trie_lpm_agrees_with_linear_scan(
        nets in prop::collection::vec(arb_ipnet(), 1..60),
        addrs in prop::collection::vec(arb_addr(), 1..40),
    ) {
        // Last insert wins for duplicate prefixes; dedup keeps semantics equal.
        let mut dedup: Vec<(IpNet, usize)> = Vec::new();
        for (i, n) in nets.iter().enumerate() {
            if let Some(slot) = dedup.iter_mut().find(|(m, _)| m == n) {
                slot.1 = i;
            } else {
                dedup.push((*n, i));
            }
        }
        let mut trie = PrefixTrie::new();
        for (n, i) in &dedup {
            trie.insert(*n, *i);
        }
        prop_assert_eq!(trie.len(), dedup.len());
        for addr in addrs {
            let got = trie.longest_match(addr).map(|(n, v)| (n, *v));
            let want = linear_lpm(&dedup, addr).map(|(n, v)| (n, *v));
            // Multiple distinct prefixes may share the max length only if they
            // are the same prefix, so the match is unique when it exists.
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn trie_exact_after_insert(nets in prop::collection::vec(arb_ipnet(), 1..50)) {
        let mut trie = PrefixTrie::new();
        for (i, n) in nets.iter().enumerate() {
            trie.insert(*n, i);
        }
        for n in &nets {
            prop_assert!(trie.contains(n));
        }
    }

    #[test]
    fn trie_remove_round_trip(nets in prop::collection::vec(arb_ipnet(), 1..40)) {
        let mut dedup = nets.clone();
        dedup.sort();
        dedup.dedup();
        let mut trie = PrefixTrie::new();
        for (i, n) in dedup.iter().enumerate() {
            trie.insert(*n, i);
        }
        for (i, n) in dedup.iter().enumerate() {
            prop_assert_eq!(trie.remove(n), Some(i));
        }
        prop_assert!(trie.is_empty());
        for n in &dedup {
            prop_assert!(trie.longest_match(n.network()).is_none());
        }
    }

    #[test]
    fn covering_is_sorted_and_contains_addr(
        nets in prop::collection::vec(arb_ipnet(), 1..50),
        addr in arb_addr(),
    ) {
        let trie: PrefixTrie<usize> =
            nets.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let cov = trie.covering(addr);
        let mut last_len = 0u8;
        let mut first = true;
        for (n, _) in &cov {
            prop_assert!(n.contains(addr));
            if !first {
                prop_assert!(n.len() > last_len);
            }
            last_len = n.len();
            first = false;
        }
        // Every stored prefix containing addr must appear.
        let expect = nets.iter().filter(|n| n.contains(addr)).count();
        let mut uniq: Vec<IpNet> = nets.iter().filter(|n| n.contains(addr)).cloned().collect();
        uniq.sort();
        uniq.dedup();
        let _ = expect;
        prop_assert_eq!(cov.len(), uniq.len());
    }

    #[test]
    fn frozen_equals_trie_on_every_query_api(
        nets in prop::collection::vec(arb_ipnet(), 1..60),
        dups in prop::collection::vec(0usize..60, 0..10),
        addrs in prop::collection::vec(arb_addr(), 1..40),
    ) {
        let mut trie = PrefixTrie::new();
        for (i, n) in nets.iter().enumerate() {
            trie.insert(*n, i);
        }
        // Duplicate inserts overwrite; the snapshot must carry the last value.
        for (j, d) in dups.iter().enumerate() {
            if let Some(n) = nets.get(*d) {
                trie.insert(*n, 1000 + j);
            }
        }
        let frozen = trie.freeze();
        prop_assert_eq!(frozen.len(), trie.len());
        // lookup_batch ≡ map(lookup) ≡ the trie, element for element.
        let mut out = Vec::new();
        frozen.lookup_batch(&addrs, &mut out);
        prop_assert_eq!(out.len(), addrs.len());
        for (addr, batched) in addrs.iter().zip(&out) {
            let want = trie.longest_match(*addr).map(|(n, v)| (n, *v));
            prop_assert_eq!(frozen.longest_match(*addr).map(|(n, v)| (n, *v)), want);
            prop_assert_eq!(frozen.lookup(*addr).map(|(n, v)| (n, *v)), want);
            prop_assert_eq!(batched.map(|(n, v)| (n, *v)), want);
            let fc: Vec<(IpNet, usize)> =
                frozen.covering(*addr).into_iter().map(|(n, v)| (n, *v)).collect();
            let tc: Vec<(IpNet, usize)> =
                trie.covering(*addr).into_iter().map(|(n, v)| (n, *v)).collect();
            prop_assert_eq!(fc, tc);
        }
        for n in &nets {
            prop_assert_eq!(frozen.exact(n).copied(), trie.exact(n).copied());
            prop_assert_eq!(frozen.contains(n), trie.contains(n));
        }
    }

    #[test]
    fn frozen_default_routes_do_not_alias_families(
        nets in prop::collection::vec(arb_ipnet(), 0..30),
        v4 in any::<u32>(),
        v6 in any::<u128>(),
    ) {
        // A /0 default in each family must answer only its own family even
        // though both keys share the u128 bit space internally.
        let mut trie = PrefixTrie::new();
        for (i, n) in nets.iter().enumerate() {
            trie.insert(*n, i + 2);
        }
        trie.insert(Ipv4Net::new(Ipv4Addr::UNSPECIFIED, 0).unwrap(), 0usize);
        trie.insert(Ipv6Net::new(Ipv6Addr::UNSPECIFIED, 0).unwrap(), 1usize);
        let frozen = trie.freeze();
        let a4 = IpAddr::V4(Ipv4Addr::from(v4));
        let a6 = IpAddr::V6(Ipv6Addr::from(v6));
        let (net4, _) = frozen.longest_match(a4).expect("v4 default catches all v4");
        prop_assert!(net4.is_v4());
        let (net6, _) = frozen.longest_match(a6).expect("v6 default catches all v6");
        prop_assert!(!net6.is_v4());
        for addr in [a4, a6] {
            prop_assert_eq!(
                frozen.longest_match(addr).map(|(n, v)| (n, *v)),
                trie.longest_match(addr).map(|(n, v)| (n, *v))
            );
        }
    }

    #[test]
    fn frozen_from_pairs_equals_freeze(
        nets in prop::collection::vec(arb_ipnet(), 1..40),
        addrs in prop::collection::vec(arb_addr(), 1..20),
    ) {
        let trie: PrefixTrie<usize> =
            nets.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let via_freeze = trie.freeze();
        let via_pairs = FrozenLpm::from_pairs(nets.iter().enumerate().map(|(i, n)| (*n, i)));
        prop_assert_eq!(via_freeze.len(), via_pairs.len());
        for addr in addrs {
            prop_assert_eq!(
                via_freeze.longest_match(addr).map(|(n, v)| (n, *v)),
                via_pairs.longest_match(addr).map(|(n, v)| (n, *v))
            );
        }
    }

    #[test]
    fn overlay_equals_full_rebuild_under_interleaved_churn(
        base in prop::collection::vec(arb_ipnet(), 1..40),
        pool in prop::collection::vec(arb_ipnet(), 1..20),
        ops in prop::collection::vec((0u8..8, any::<usize>()), 1..60),
        addrs in prop::collection::vec(arb_addr(), 1..25),
    ) {
        // Frozen table + delta overlay on one side, a plain trie mirror on
        // the other; after a random interleaving of announce / withdraw /
        // subtree-compaction (drawing nets from a shared pool so duplicates
        // and withdraw-then-reannounce sequences occur), every query API
        // must agree with a from-scratch rebuild of the mirror.
        let mut mirror: PrefixTrie<usize> =
            base.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut frozen = mirror.freeze();
        let mut delta = DeltaOverlay::new();
        let all: Vec<IpNet> = base.iter().chain(pool.iter()).cloned().collect();
        let mut next = 1_000usize;
        for (kind, idx) in &ops {
            let net = all[idx % all.len()];
            match kind {
                0..=4 => {
                    next += 1;
                    delta.announce(net, next);
                    mirror.insert(net, next);
                }
                5 | 6 => {
                    delta.withdraw(&net, &frozen);
                    mirror.remove(&net);
                }
                _ => {
                    frozen.refreeze_subtree(&delta);
                    delta.clear();
                }
            }
        }
        let rebuilt = mirror.freeze();
        let mut probes = addrs.clone();
        probes.extend(all.iter().map(|n| n.network()));
        for addr in &probes {
            let want = rebuilt.longest_match(*addr).map(|(n, v)| (n, *v));
            prop_assert_eq!(delta.longest_match(&frozen, *addr).map(|(n, v)| (n, *v)), want);
            prop_assert_eq!(delta.lookup(&frozen, *addr).map(|(n, v)| (n, *v)), want);
            let oc: Vec<(IpNet, usize)> =
                delta.covering(&frozen, *addr).into_iter().map(|(n, v)| (n, *v)).collect();
            let rc: Vec<(IpNet, usize)> =
                rebuilt.covering(*addr).into_iter().map(|(n, v)| (n, *v)).collect();
            prop_assert_eq!(oc, rc);
        }
        for n in &all {
            prop_assert_eq!(delta.exact(&frozen, n).copied(), rebuilt.exact(n).copied());
            prop_assert_eq!(delta.contains(&frozen, n), rebuilt.contains(n));
            prop_assert_eq!(
                delta.longest_match_net(&frozen, n).map(|(m, v)| (m, *v)),
                rebuilt.longest_match_net(n).map(|(m, v)| (m, *v))
            );
        }
        let mut got = Vec::new();
        delta.lookup_batch(&frozen, &probes, &mut got);
        let mut want = Vec::new();
        rebuilt.lookup_batch(&probes, &mut want);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.map(|(n, v)| (n, *v)), w.map(|(n, v)| (n, *v)));
        }
    }

    #[test]
    fn overlay_default_routes_do_not_alias_families(
        base in prop::collection::vec(arb_ipnet(), 0..20),
        v4 in any::<u32>(),
        v6 in any::<u128>(),
    ) {
        // A /0 announced in each family *through the overlay* must answer
        // only its own family, exactly like a /0 baked into the frozen
        // table; both keys share the u128 bit space internally.
        let mut mirror: PrefixTrie<usize> = base
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i + 2))
            .collect();
        let frozen = mirror.freeze();
        let mut delta = DeltaOverlay::new();
        let d4 = IpNet::V4(Ipv4Net::new(Ipv4Addr::UNSPECIFIED, 0).unwrap());
        let d6 = IpNet::V6(Ipv6Net::new(Ipv6Addr::UNSPECIFIED, 0).unwrap());
        delta.announce(d4, 0usize);
        delta.announce(d6, 1usize);
        mirror.insert(d4, 0usize);
        mirror.insert(d6, 1usize);
        let rebuilt = mirror.freeze();
        let a4 = IpAddr::V4(Ipv4Addr::from(v4));
        let a6 = IpAddr::V6(Ipv6Addr::from(v6));
        let (n4, _) = delta.longest_match(&frozen, a4).expect("v4 default catches all v4");
        prop_assert!(n4.is_v4());
        let (n6, _) = delta.longest_match(&frozen, a6).expect("v6 default catches all v6");
        prop_assert!(!n6.is_v4());
        for addr in [a4, a6] {
            prop_assert_eq!(
                delta.longest_match(&frozen, addr).map(|(n, v)| (n, *v)),
                rebuilt.longest_match(addr).map(|(n, v)| (n, *v))
            );
        }
    }

    #[test]
    fn overlay_chunk_index_is_exact_at_chunk_edges(
        pool in arb_chunk_pool(),
        base in prop::collection::vec(any::<usize>(), 0..12),
        ops in prop::collection::vec((0u8..8, any::<usize>()), 1..60),
    ) {
        // A base drawn from the pool, then random announce / withdraw /
        // fold interleavings over the same pool. Each read API must agree
        // with a table rebuilt from the mirror at the four edge addresses
        // of every pool prefix, where a chunk index that marked too few
        // chunks (or the other family's) would answer from the stale base.
        let mut mirror: PrefixTrie<usize> = base
            .iter()
            .enumerate()
            .map(|(i, k)| (pool[k % pool.len()], i))
            .collect();
        let mut frozen = mirror.freeze();
        let mut delta = DeltaOverlay::new();
        let mut next = 1_000usize;
        for (kind, idx) in &ops {
            let net = pool[idx % pool.len()];
            match kind {
                0..=3 => {
                    next += 1;
                    delta.announce(net, next);
                    mirror.insert(net, next);
                }
                4..=6 => {
                    delta.withdraw(&net, &frozen);
                    mirror.remove(&net);
                }
                _ => {
                    frozen.refreeze_subtree(&delta);
                    delta.clear();
                }
            }
        }
        let rebuilt = mirror.freeze();
        let probes: Vec<IpAddr> = pool.iter().flat_map(edge_addrs).collect();
        for addr in &probes {
            let want = rebuilt.longest_match(*addr).map(|(n, v)| (n, *v));
            prop_assert_eq!(delta.longest_match(&frozen, *addr).map(|(n, v)| (n, *v)), want);
            prop_assert_eq!(delta.lookup(&frozen, *addr).map(|(n, v)| (n, *v)), want);
            let oc: Vec<(IpNet, usize)> =
                delta.covering(&frozen, *addr).into_iter().map(|(n, v)| (n, *v)).collect();
            let rc: Vec<(IpNet, usize)> =
                rebuilt.covering(*addr).into_iter().map(|(n, v)| (n, *v)).collect();
            prop_assert_eq!(oc, rc);
        }
        let nets: Vec<IpNet> = pool.iter().copied().chain(probes.iter().map(|a| host_net(*a))).collect();
        for n in &nets {
            prop_assert_eq!(delta.exact(&frozen, n).copied(), rebuilt.exact(n).copied());
            prop_assert_eq!(delta.contains(&frozen, n), rebuilt.contains(n));
            prop_assert_eq!(
                delta.longest_match_net(&frozen, n).map(|(m, v)| (m, *v)),
                rebuilt.longest_match_net(n).map(|(m, v)| (m, *v))
            );
        }
        let want: Vec<Option<(IpNet, usize)>> = probes
            .iter()
            .map(|a| rebuilt.longest_match(*a).map(|(n, v)| (n, *v)))
            .collect();
        let mut got = Vec::new();
        delta.lookup_batch(&frozen, &probes, &mut got);
        prop_assert_eq!(got.iter().map(|m| m.map(|(n, v)| (n, *v))).collect::<Vec<_>>(), want.clone());
        // The scratch-reusing kernel, twice over one scratch, and its
        // projecting form.
        let mut scratch = BatchScratch::new();
        for _ in 0..2 {
            delta.lookup_batch_in(&frozen, &mut scratch, &probes, &mut got);
            prop_assert_eq!(got.iter().map(|m| m.map(|(n, v)| (n, *v))).collect::<Vec<_>>(), want.clone());
        }
        let mut projected = Vec::new();
        delta.lookup_batch_map_in(&frozen, &mut scratch, &probes, &mut projected, |m| m.map(|(n, v)| (n, *v)));
        prop_assert_eq!(projected, want);
    }

    #[test]
    fn epoch_snapshots_stay_pinned_as_base_mutates(
        base in prop::collection::vec(arb_ipnet(), 1..30),
        rounds in prop::collection::vec(
            prop::collection::vec((arb_ipnet(), any::<bool>()), 1..8),
            1..5,
        ),
        addrs in prop::collection::vec(arb_addr(), 1..15),
    ) {
        // Take an epoch snapshot before each churn round, then compact the
        // round's overlay into the live table. Every earlier epoch must keep
        // answering from its point-in-time state — later refreezes must not
        // leak backwards through the shared arenas — so each snapshot agrees
        // with a trie frozen at the same instant, and consecutive epochs
        // diff exactly as their references do.
        let mut mirror: PrefixTrie<usize> =
            base.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut frozen = mirror.freeze();
        let mut epochs: Vec<(FrozenLpm<usize>, FrozenLpm<usize>)> = Vec::new();
        let mut next = 10_000usize;
        for ops in &rounds {
            epochs.push((frozen.snapshot(), mirror.freeze()));
            let mut delta = DeltaOverlay::new();
            for (net, announce) in ops {
                if *announce {
                    next += 1;
                    delta.announce(*net, next);
                    mirror.insert(*net, next);
                } else {
                    delta.withdraw(net, &frozen);
                    mirror.remove(net);
                }
            }
            frozen.refreeze_subtree(&delta);
        }
        epochs.push((frozen.snapshot(), mirror.freeze()));
        let mut probes = addrs.clone();
        for ops in &rounds {
            probes.extend(ops.iter().map(|(n, _)| n.network()));
        }
        for (snap, reference) in &epochs {
            prop_assert_eq!(snap.len(), reference.len());
            for addr in &probes {
                prop_assert_eq!(
                    snap.longest_match(*addr).map(|(n, v)| (n, *v)),
                    reference.longest_match(*addr).map(|(n, v)| (n, *v))
                );
            }
        }
    }

    #[test]
    fn subnets_cover_parent_exactly(len in 0u8..=24, bits in any::<u32>()) {
        let parent = Ipv4Net::new(Ipv4Addr::from(bits), len).unwrap();
        let child_len = (len + 4).min(32);
        let subs: Vec<Ipv4Net> = parent.subnets(child_len).unwrap().collect();
        prop_assert_eq!(subs.len() as u64, 1u64 << (child_len - len));
        let total: u64 = subs.iter().map(|s| s.addr_count()).sum();
        prop_assert_eq!(total, parent.addr_count());
        for pair in subs.windows(2) {
            prop_assert!(pair[0] < pair[1]);
            prop_assert!(!pair[0].contains_net(&pair[1]));
        }
    }
}
