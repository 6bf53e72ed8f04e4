//! Property tests for the RIB: longest-prefix match against a brute-force
//! reference, announce/withdraw laws, per-origin bookkeeping, and every
//! read API against a `BTreeMap` oracle under churn, frozen or not.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use tectonic_bgp::Rib;
use tectonic_net::{Asn, BatchScratch, IpNet, Ipv4Net, Ipv6Net};

fn arb_route() -> impl Strategy<Value = (IpNet, Asn)> {
    (any::<u32>(), 0u8..=28, 1u32..2000).prop_map(|(bits, len, asn)| {
        (
            IpNet::V4(Ipv4Net::new(Ipv4Addr::from(bits), len).unwrap()),
            Asn(asn),
        )
    })
}

/// Reference longest-prefix match over a plain list (last announce wins
/// for duplicate prefixes).
fn reference_lookup(routes: &[(IpNet, Asn)], addr: IpAddr) -> Option<(IpNet, Asn)> {
    let mut dedup: Vec<(IpNet, Asn)> = Vec::new();
    for (net, asn) in routes {
        if let Some(slot) = dedup.iter_mut().find(|(n, _)| n == net) {
            slot.1 = *asn;
        } else {
            dedup.push((*net, *asn));
        }
    }
    dedup
        .into_iter()
        .filter(|(net, _)| net.contains(addr))
        .max_by_key(|(net, _)| net.len())
}

proptest! {
    #[test]
    fn rib_matches_reference(
        routes in prop::collection::vec(arb_route(), 1..80),
        addrs in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut rib = Rib::new();
        for (net, asn) in &routes {
            rib.announce(*net, *asn);
        }
        for bits in addrs {
            let addr = IpAddr::V4(Ipv4Addr::from(bits));
            prop_assert_eq!(rib.lookup(addr), reference_lookup(&routes, addr));
        }
    }

    #[test]
    fn withdraw_undoes_announce(routes in prop::collection::vec(arb_route(), 1..60)) {
        let mut rib = Rib::new();
        let mut unique: Vec<(IpNet, Asn)> = Vec::new();
        for (net, asn) in routes {
            if !unique.iter().any(|(n, _)| *n == net) {
                unique.push((net, asn));
                rib.announce(net, asn);
            }
        }
        prop_assert_eq!(rib.len(), unique.len());
        for (net, asn) in &unique {
            prop_assert_eq!(rib.withdraw(net), Some(*asn));
        }
        prop_assert!(rib.is_empty());
        for (net, _) in &unique {
            prop_assert!(rib.lookup(net.network()).is_none());
        }
    }

    #[test]
    fn prefixes_of_partitions_the_table(routes in prop::collection::vec(arb_route(), 1..60)) {
        let mut rib = Rib::new();
        for (net, asn) in &routes {
            rib.announce(*net, *asn);
        }
        let total: usize = rib
            .origins()
            .iter()
            .map(|asn| rib.prefixes_of(*asn).len())
            .sum();
        prop_assert_eq!(total, rib.len());
        // Every prefix listed for an origin really has that origin.
        for &asn in rib.origins() {
            for p in rib.prefixes_of(asn) {
                prop_assert_eq!(rib.origin_of(p), Some(asn));
            }
        }
    }

    #[test]
    fn reannounce_is_last_writer_wins(
        net_bits in any::<u32>(),
        len in 0u8..=24,
        asns in prop::collection::vec(1u32..100, 1..10),
    ) {
        let net = IpNet::V4(Ipv4Net::new(Ipv4Addr::from(net_bits), len).unwrap());
        let mut rib = Rib::new();
        for asn in &asns {
            rib.announce(net, Asn(*asn));
        }
        prop_assert_eq!(rib.len(), 1);
        prop_assert_eq!(rib.origin_of(&net), Some(Asn(*asns.last().unwrap())));
        // The loser ASes keep no stale per-origin entries.
        for asn in &asns[..asns.len() - 1] {
            if asn != asns.last().unwrap() {
                prop_assert!(rib.prefixes_of(Asn(*asn)).is_empty());
            }
        }
    }
}

/// Prefixes that nest: IPv4 under four /8s, IPv6 under one /32, so churn
/// keeps shadowing and unshadowing covering routes.
fn arb_nested_net() -> impl Strategy<Value = IpNet> {
    prop_oneof![
        (0u32..4, any::<u32>(), 8u8..=30).prop_map(|(block, bits, len)| {
            let addr = Ipv4Addr::from((block + 10) << 24 | bits >> 8);
            IpNet::V4(Ipv4Net::clamped(addr, len))
        }),
        (any::<u128>(), 32u8..=64).prop_map(|(bits, len)| {
            let addr = Ipv6Addr::from(0x2620_0149u128 << 96 | bits >> 32);
            IpNet::V6(Ipv6Net::clamped(addr, len))
        }),
    ]
}

/// One step of a churn interleaving over a prefix pool: announce pool
/// entry `i` under origin `asn`, withdraw it, or freeze (rarely, so folds
/// and garbage pile up between freezes).
#[derive(Debug, Clone, Copy)]
enum Op {
    Announce(usize, Asn),
    Withdraw(usize),
    Freeze,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u16..1024, any::<usize>(), 1u32..9).prop_map(|(kind, i, asn)| match kind {
        0..=599 => Op::Announce(i, Asn(asn)),
        600..=1022 => Op::Withdraw(i),
        _ => Op::Freeze,
    })
}

/// The oracle's most specific route whose prefix `covers` accepts, by
/// linear scan.
fn linear_match(
    oracle: &BTreeMap<IpNet, Asn>,
    covers: impl Fn(&IpNet) -> bool,
) -> Option<(IpNet, Asn)> {
    oracle
        .iter()
        .filter(|(n, _)| covers(n))
        .max_by_key(|(n, _)| n.len())
        .map(|(n, a)| (*n, *a))
}

/// Every read API of `rib` against the oracle map.
fn check_reads(
    rib: &Rib,
    oracle: &BTreeMap<IpNet, Asn>,
    pool: &[IpNet],
    probes: &[IpAddr],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(rib.len(), oracle.len());
    prop_assert_eq!(rib.is_empty(), oracle.is_empty());
    let want: Vec<(IpNet, Asn)> = oracle.iter().map(|(n, a)| (*n, *a)).collect();
    prop_assert_eq!(rib.iter().collect::<Vec<_>>(), want.clone());
    let mut origins: Vec<Asn> = want.iter().map(|(_, a)| *a).collect();
    origins.sort();
    origins.dedup();
    prop_assert_eq!(rib.origins(), &origins[..]);
    for asn in &origins {
        let mut got = rib.prefixes_of(*asn).to_vec();
        got.sort();
        let mine: Vec<IpNet> = want
            .iter()
            .filter(|(_, a)| a == asn)
            .map(|(n, _)| *n)
            .collect();
        prop_assert_eq!(got, mine);
    }
    let mut batch = Vec::new();
    rib.lookup_batch_in(&mut BatchScratch::new(), probes, &mut batch);
    prop_assert_eq!(batch.len(), probes.len());
    for (addr, batched) in probes.iter().zip(&batch) {
        let want = linear_match(oracle, |n| n.contains(*addr));
        prop_assert_eq!(rib.lookup(*addr), want);
        prop_assert_eq!(*batched, want);
    }
    for net in pool {
        prop_assert_eq!(
            rib.lookup_net(net),
            linear_match(oracle, |n| n.contains_net(net))
        );
        prop_assert_eq!(rib.origin_of(net), oracle.get(net).copied());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_read_matches_a_map_oracle_under_churn(
        pool in prop::collection::vec(arb_nested_net(), 100..120),
        ops in prop::collection::vec(arb_op(), 1000..1400),
        extra in prop::collection::vec(any::<u32>(), 16),
    ) {
        // The same interleaving drives a never-frozen RIB (staged map
        // only) and one frozen up front (compiled table + overlay, folded
        // and rebuilt by the churn itself), both against a map read by
        // linear scans.
        let mut pool = pool;
        pool.sort();
        pool.dedup();
        let mut probes: Vec<IpAddr> = pool.iter().map(IpNet::network).collect();
        probes.extend(extra.iter().map(|b| IpAddr::V4(Ipv4Addr::from((b % 4 + 10) << 24 | b >> 8))));
        let mut oracle: BTreeMap<IpNet, Asn> = BTreeMap::new();
        let mut staged = Rib::new();
        let mut frozen = Rib::new();
        frozen.freeze();
        let (mut folds, mut rebuilds) = (0usize, 0usize);
        for (step, op) in ops.iter().enumerate() {
            let (pending, garbage) = (frozen.pending_patches(), frozen.garbage());
            match *op {
                Op::Announce(i, asn) => {
                    let net = pool[i % pool.len()];
                    let prev = oracle.insert(net, asn);
                    prop_assert_eq!(staged.announce(net, asn), prev);
                    prop_assert_eq!(frozen.announce(net, asn), prev);
                }
                Op::Withdraw(i) => {
                    let net = pool[i % pool.len()];
                    let prev = oracle.remove(&net);
                    prop_assert_eq!(staged.withdraw(&net), prev);
                    prop_assert_eq!(frozen.withdraw(&net), prev);
                }
                Op::Freeze => frozen.freeze(),
            }
            prop_assert!(!staged.is_frozen() && frozen.is_frozen());
            let quiet = !matches!(op, Op::Freeze);
            folds += usize::from(quiet && frozen.pending_patches() + 1 < pending);
            rebuilds += usize::from(quiet && frozen.garbage() < garbage);
            if step % 32 == 0 || !quiet || step + 1 == ops.len() {
                check_reads(&staged, &oracle, &pool, &probes)?;
                check_reads(&frozen, &oracle, &pool, &probes)?;
            }
        }
        prop_assert!(folds > 0 && rebuilds > 0, "{} folds, {} rebuilds", folds, rebuilds);
    }
}
