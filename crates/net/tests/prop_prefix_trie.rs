//! Property tests for CIDR prefixes and the compiled prefix tables.
//!
//! [`FrozenLpm`] and its [`DeltaOverlay`] are the backbone of the BGP RIB
//! and every subnet-indexed dataset in the reproduction; these tests pin
//! their answers to a `BTreeMap` mirror read by linear scans.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use tectonic_net::{BatchScratch, DeltaOverlay, FrozenLpm, IpNet, Ipv4Net, Ipv6Net};

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

/// A table wide enough for 16-bit roots in both families: 5 000 IPv4
/// prefixes at /17–/24 under 10/8–12/8, and 4 200–4 500 IPv6 prefixes at
/// /32–/64 inside the one root chunk 2001::/16. After duplicates each
/// family keeps at least [`WIDE_ROOT_MIN`] prefixes.
fn arb_wide_base() -> impl Strategy<Value = Vec<IpNet>> {
    (
        prop::collection::vec((0u32..3, any::<u32>(), 17u8..=24), 5_000),
        prop::collection::vec((any::<u128>(), 32u8..=64), 4_200..4_500),
    )
        .prop_map(|(v4, v6)| {
            let v4 = v4.into_iter().map(|(block, bits, len)| {
                let addr = Ipv4Addr::from((block + 10) << 24 | bits >> 8);
                IpNet::V4(Ipv4Net::clamped(addr, len))
            });
            let v6 = v6.into_iter().map(|(bits, len)| {
                let addr = Ipv6Addr::from(0x2001u128 << 112 | bits >> 16);
                IpNet::V6(Ipv6Net::clamped(addr, len))
            });
            v4.chain(v6).collect()
        })
}

/// The family size from which `FrozenLpm` compiles a 16-bit root instead
/// of an 8-bit one (the library's `WIDE_ROOT_MIN`; its unit tests pin the
/// switch for both families).
const WIDE_ROOT_MIN: usize = 4096;

/// A patch prefix for [`arb_wide_base`]'s table: IPv4 at /16 or shorter
/// (ending in the wide root) or at /17–/32 under the same /8s, and IPv6 at
/// any depth that shares the base's root chunk, so every level of the
/// 2001::/16 subtree is patched.
fn arb_wide_patch() -> impl Strategy<Value = IpNet> {
    prop_oneof![
        (0u32..3, any::<u32>(), 0u8..=16).prop_map(|(block, bits, len)| {
            let addr = Ipv4Addr::from((block + 10) << 24 | bits >> 8);
            IpNet::V4(Ipv4Net::clamped(addr, len))
        }),
        (0u32..3, any::<u32>(), 17u8..=32).prop_map(|(block, bits, len)| {
            let addr = Ipv4Addr::from((block + 10) << 24 | bits >> 8);
            IpNet::V4(Ipv4Net::clamped(addr, len))
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| {
            let addr = Ipv6Addr::from(0x2001u128 << 112 | bits >> 16);
            IpNet::V6(Ipv6Net::clamped(addr, len))
        }),
    ]
}

/// Every read API of `frozen` under `delta` (a transparent overlay once
/// folded) against `rebuilt`, at the edge addresses of `nets` and for
/// `nets` and those addresses' host routes.
fn reads_agree(
    frozen: &FrozenLpm<usize>,
    delta: &DeltaOverlay<usize>,
    rebuilt: &FrozenLpm<usize>,
    nets: &[IpNet],
) -> Result<(), TestCaseError> {
    let probes: Vec<IpAddr> = nets.iter().flat_map(edge_addrs).collect();
    for addr in &probes {
        prop_assert_eq!(
            owned(delta.longest_match(frozen, *addr)),
            owned(rebuilt.longest_match(*addr))
        );
    }
    for n in nets
        .iter()
        .copied()
        .chain(probes.iter().map(|a| host_net(*a)))
    {
        prop_assert_eq!(delta.exact(frozen, &n), rebuilt.exact(&n));
        prop_assert_eq!(
            owned(delta.longest_match_net(frozen, &n)),
            owned(rebuilt.longest_match_net(&n))
        );
    }
    let mut scratch = BatchScratch::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    delta.lookup_batch_map_in(frozen, &mut scratch, &probes, &mut got, owned);
    rebuilt.lookup_batch_map_in(&mut scratch, &probes, &mut want, owned);
    prop_assert_eq!(got, want);
    Ok(())
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

/// Brute-force longest-prefix match: the most specific mirrored prefix
/// that `covers` accepts. Distinct prefixes of one family that contain a
/// common address differ in length, so the answer is unique.
fn linear_match(
    mirror: &BTreeMap<IpNet, usize>,
    covers: impl Fn(&IpNet) -> bool,
) -> Option<(IpNet, usize)> {
    mirror
        .iter()
        .filter(|(n, _)| covers(n))
        .max_by_key(|(n, _)| n.len())
        .map(|(n, v)| (*n, *v))
}

/// The mirror's longest match for `addr`.
fn linear_lpm(mirror: &BTreeMap<IpNet, usize>, addr: IpAddr) -> Option<(IpNet, usize)> {
    linear_match(mirror, |n| n.contains(addr))
}

/// A table's `(prefix, value)` answer with the value copied out.
fn owned(m: Option<(IpNet, &usize)>) -> Option<(IpNet, usize)> {
    m.map(|(n, v)| (n, *v))
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
    fn frozen_agrees_with_linear_oracle_on_every_query_api(
        nets in prop::collection::vec(arb_ipnet(), 1..60),
        dups in prop::collection::vec(0usize..60, 0..10),
        addrs in prop::collection::vec(arb_addr(), 1..40),
    ) {
        // Duplicate pairs overwrite; the table must carry the last value,
        // exactly as repeated inserts into the mirror do.
        let mut pairs: Vec<(IpNet, usize)> = nets.iter().copied().zip(0..).collect();
        for (j, d) in dups.iter().enumerate() {
            if let Some(n) = nets.get(*d) {
                pairs.push((*n, 1000 + j));
            }
        }
        let mirror: BTreeMap<IpNet, usize> = pairs.iter().copied().collect();
        let frozen = FrozenLpm::from_pairs(pairs);
        prop_assert_eq!(frozen.len(), mirror.len());
        // The batch kernel ≡ map(longest_match) ≡ the linear scan.
        let mut out = Vec::new();
        frozen.lookup_batch_map_in(&mut BatchScratch::new(), &addrs, &mut out, owned);
        prop_assert_eq!(out.len(), addrs.len());
        for (addr, batched) in addrs.iter().zip(&out) {
            let want = linear_lpm(&mirror, *addr);
            prop_assert_eq!(owned(frozen.longest_match(*addr)), want);
            prop_assert_eq!(*batched, want);
        }
        for n in &nets {
            prop_assert_eq!(frozen.exact(n), mirror.get(n));
            prop_assert_eq!(
                owned(frozen.longest_match_net(n)),
                linear_match(&mirror, |m| m.contains_net(n))
            );
        }
        let listed: Vec<(IpNet, usize)> = frozen.iter().map(|(n, v)| (n, *v)).collect();
        let mirrored: Vec<(IpNet, usize)> = mirror.into_iter().collect();
        prop_assert_eq!(listed, mirrored);
    }

    #[test]
    fn frozen_default_routes_do_not_alias_families(
        nets in prop::collection::vec(arb_ipnet(), 0..30),
        v4 in any::<u32>(),
        v6 in any::<u128>(),
    ) {
        // A /0 default in each family must answer only its own family even
        // though both keys share the u128 bit space internally.
        let mut mirror: BTreeMap<IpNet, usize> = nets.iter().copied().zip(2..).collect();
        mirror.insert(IpNet::V4(Ipv4Net::new(Ipv4Addr::UNSPECIFIED, 0).unwrap()), 0);
        mirror.insert(IpNet::V6(Ipv6Net::new(Ipv6Addr::UNSPECIFIED, 0).unwrap()), 1);
        let frozen = FrozenLpm::from_pairs(mirror.clone());
        let a4 = IpAddr::V4(Ipv4Addr::from(v4));
        let a6 = IpAddr::V6(Ipv6Addr::from(v6));
        let (net4, _) = frozen.longest_match(a4).expect("v4 default catches all v4");
        prop_assert!(net4.is_v4());
        let (net6, _) = frozen.longest_match(a6).expect("v6 default catches all v6");
        prop_assert!(!net6.is_v4());
        for addr in [a4, a6] {
            prop_assert_eq!(owned(frozen.longest_match(addr)), linear_lpm(&mirror, addr));
        }
    }

    #[test]
    fn overlay_equals_full_rebuild_under_interleaved_churn(
        base in prop::collection::vec(arb_ipnet(), 1..40),
        pool in prop::collection::vec(arb_ipnet(), 1..20),
        ops in prop::collection::vec((0u8..8, any::<usize>()), 1..60),
        addrs in prop::collection::vec(arb_addr(), 1..25),
    ) {
        // Frozen table + delta overlay on one side, a plain map mirror on
        // the other; after a random interleaving of announce / withdraw /
        // subtree-compaction (drawing nets from a shared pool so duplicates
        // and withdraw-then-reannounce sequences occur), every query API
        // must agree with a from-scratch rebuild of the mirror.
        let mut mirror: BTreeMap<IpNet, usize> = base.iter().copied().zip(0..).collect();
        let mut frozen = FrozenLpm::from_pairs(mirror.clone());
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
        let rebuilt = FrozenLpm::from_pairs(mirror);
        let mut probes = addrs.clone();
        probes.extend(all.iter().map(|n| n.network()));
        for addr in &probes {
            prop_assert_eq!(
                owned(delta.longest_match(&frozen, *addr)),
                owned(rebuilt.longest_match(*addr))
            );
        }
        for n in &all {
            prop_assert_eq!(delta.exact(&frozen, n), rebuilt.exact(n));
            prop_assert_eq!(
                owned(delta.longest_match_net(&frozen, n)),
                owned(rebuilt.longest_match_net(n))
            );
        }
        let mut scratch = BatchScratch::new();
        let mut got = Vec::new();
        delta.lookup_batch_map_in(&frozen, &mut scratch, &probes, &mut got, owned);
        let mut want = Vec::new();
        rebuilt.lookup_batch_map_in(&mut scratch, &probes, &mut want, owned);
        prop_assert_eq!(got, want);
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
        let mut mirror: BTreeMap<IpNet, usize> = base.iter().copied().zip(2..).collect();
        let frozen = FrozenLpm::from_pairs(mirror.clone());
        let mut delta = DeltaOverlay::new();
        let d4 = IpNet::V4(Ipv4Net::new(Ipv4Addr::UNSPECIFIED, 0).unwrap());
        let d6 = IpNet::V6(Ipv6Net::new(Ipv6Addr::UNSPECIFIED, 0).unwrap());
        delta.announce(d4, 0usize);
        delta.announce(d6, 1usize);
        mirror.insert(d4, 0usize);
        mirror.insert(d6, 1usize);
        let a4 = IpAddr::V4(Ipv4Addr::from(v4));
        let a6 = IpAddr::V6(Ipv6Addr::from(v6));
        let (n4, _) = delta.longest_match(&frozen, a4).expect("v4 default catches all v4");
        prop_assert!(n4.is_v4());
        let (n6, _) = delta.longest_match(&frozen, a6).expect("v6 default catches all v6");
        prop_assert!(!n6.is_v4());
        for addr in [a4, a6] {
            prop_assert_eq!(owned(delta.longest_match(&frozen, addr)), linear_lpm(&mirror, addr));
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
        let mut mirror: BTreeMap<IpNet, usize> =
            base.iter().map(|k| pool[k % pool.len()]).zip(0..).collect();
        let mut frozen = FrozenLpm::from_pairs(mirror.clone());
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
        let rebuilt = FrozenLpm::from_pairs(mirror);
        let probes: Vec<IpAddr> = pool.iter().flat_map(edge_addrs).collect();
        for addr in &probes {
            prop_assert_eq!(
                owned(delta.longest_match(&frozen, *addr)),
                owned(rebuilt.longest_match(*addr))
            );
        }
        let nets: Vec<IpNet> = pool.iter().copied().chain(probes.iter().map(|a| host_net(*a))).collect();
        for n in &nets {
            prop_assert_eq!(delta.exact(&frozen, n), rebuilt.exact(n));
            prop_assert_eq!(
                owned(delta.longest_match_net(&frozen, n)),
                owned(rebuilt.longest_match_net(n))
            );
        }
        let want: Vec<Option<(IpNet, usize)>> =
            probes.iter().map(|a| owned(rebuilt.longest_match(*a))).collect();
        // The batch kernel, twice over one scratch.
        let mut scratch = BatchScratch::new();
        let mut got = Vec::new();
        for _ in 0..2 {
            delta.lookup_batch_map_in(&frozen, &mut scratch, &probes, &mut got, owned);
            prop_assert_eq!(&got, &want);
        }
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
        // with the mirror as it stood at the same instant.
        let mut mirror: BTreeMap<IpNet, usize> = base.iter().copied().zip(0..).collect();
        let mut frozen = FrozenLpm::from_pairs(mirror.clone());
        let mut epochs: Vec<(FrozenLpm<usize>, BTreeMap<IpNet, usize>)> = Vec::new();
        let mut next = 10_000usize;
        for ops in &rounds {
            epochs.push((frozen.snapshot(), mirror.clone()));
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
        epochs.push((frozen.snapshot(), mirror));
        let mut probes = addrs.clone();
        for ops in &rounds {
            probes.extend(ops.iter().map(|(n, _)| n.network()));
        }
        for (snap, reference) in &epochs {
            prop_assert_eq!(snap.len(), reference.len());
            for addr in &probes {
                prop_assert_eq!(owned(snap.longest_match(*addr)), linear_lpm(reference, *addr));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wide_root_folds_equal_a_full_rebuild(
        base in arb_wide_base(),
        ops in prop::collection::vec((0u8..10, arb_wide_patch(), any::<usize>()), 1..300),
    ) {
        // Both families hold more than `WIDE_ROOT_MIN` keys, so both roots
        // are 16 bits wide, and every fold rewrites them in place. Patches
        // end in the root (/16 and shorter), in the IPv4 subtrees below it,
        // and at every depth of the IPv6 chunk; withdraws hit stored and
        // patched prefixes alike. After each fold, and at the end, every
        // read API and `iter` must agree with `from_pairs` of the mirror.
        let mut mirror: BTreeMap<IpNet, usize> = base.iter().copied().zip(0..).collect();
        let v4_keys = mirror.keys().filter(|n| matches!(n, IpNet::V4(_))).count();
        prop_assert!(v4_keys >= WIDE_ROOT_MIN, "{} IPv4 prefixes", v4_keys);
        let v6_keys = mirror.len() - v4_keys;
        prop_assert!(v6_keys >= WIDE_ROOT_MIN, "{} IPv6 prefixes", v6_keys);
        let mut frozen = FrozenLpm::from_pairs(mirror.clone());
        let mut delta = DeltaOverlay::new();
        let mut touched: Vec<IpNet> = Vec::new();
        let mut next = 100_000usize;
        for (step, (kind, patch, pick)) in ops.iter().enumerate() {
            match kind {
                0..=4 => {
                    next += 1;
                    delta.announce(*patch, next);
                    mirror.insert(*patch, next);
                    touched.push(*patch);
                }
                5 | 6 => {
                    delta.withdraw(patch, &frozen);
                    mirror.remove(patch);
                    touched.push(*patch);
                }
                7 | 8 => {
                    // Withdraw a stored or patched prefix, so tombstones
                    // reach the fold.
                    let known = &base[pick % base.len()];
                    let net = touched.get(pick % (touched.len() + 1)).unwrap_or(known);
                    delta.withdraw(net, &frozen);
                    mirror.remove(net);
                    touched.push(*net);
                }
                _ => {}
            }
            if *kind == 9 || step + 1 == ops.len() {
                let rebuilt = FrozenLpm::from_pairs(mirror.clone());
                reads_agree(&frozen, &delta, &rebuilt, &touched)?;
                frozen.refreeze_subtree(&delta);
                delta.clear();
                reads_agree(&frozen, &delta, &rebuilt, &touched)?;
                prop_assert_eq!(frozen.len(), rebuilt.len());
                let listed: Vec<(IpNet, usize)> = frozen.iter().map(|(n, v)| (n, *v)).collect();
                let want: Vec<(IpNet, usize)> = rebuilt.iter().map(|(n, v)| (n, *v)).collect();
                prop_assert_eq!(listed, want);
            }
        }
    }
}
