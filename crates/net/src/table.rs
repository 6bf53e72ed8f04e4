//! One store per prefix table.
//!
//! [`PrefixTable`] is the owner type behind every prefix-indexed dataset
//! that is loaded once and then mostly read — the BGP RIB, the geolocation
//! database, the mask zone's source-country ranges. Each prefix lives in
//! exactly one store at a time:
//!
//! * **Staged.** Until the first [`freeze`](PrefixTable::freeze), inserts
//!   land in a `BTreeMap<IpNet, V>`. Reads probe the map once per prefix
//!   length, longest first — slow, but sharing no code with the compiled
//!   layout, so a never-frozen table doubles as a reference
//!   implementation.
//! * **Frozen.** `freeze` moves the map into a [`FrozenLpm`]. Later
//!   mutations land in a [`DeltaOverlay`], which the table folds back into
//!   the compiled arrays once it crosses
//!   [`should_compact`](DeltaOverlay::should_compact). A fold writes the
//!   patches into the table in place: one linear pass over each patched
//!   key list, and the compiled arrays rewritten only along the patched
//!   paths (see [`FrozenLpm::refreeze_subtree`]). A fold that leaves
//!   more dead words than live ones, in the value arena or in the node and
//!   entry arenas, triggers a full rebuild, so the arenas never hold more
//!   than about twice what a fresh build of the same prefixes would.
//!
//! Every read answers identically in both states and at every point of the
//! fold/rebuild cycle, and [`iter`](PrefixTable::iter) always yields IPv4
//! before IPv6, each in ascending `(address, length)` order.

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::net::IpAddr;

use crate::lpm::{BatchScratch, FrozenLpm};
use crate::overlay::DeltaOverlay;
use crate::prefix::{IpNet, Ipv4Net, Ipv6Net};

/// A map from CIDR prefixes to values with longest-prefix-match reads,
/// staged in a sorted map while loading and compiled once frozen. See the
/// [module docs](self).
///
/// ```
/// use tectonic_net::{IpNet, PrefixTable};
///
/// let mut table = PrefixTable::new();
/// table.insert("17.0.0.0/8".parse::<IpNet>().unwrap(), "apple");
/// table.freeze();
/// table.insert("17.5.0.0/16".parse::<IpNet>().unwrap(), "apple-dc");
/// let (prefix, value) = table.lookup("17.5.1.2".parse().unwrap()).unwrap();
/// assert_eq!(prefix.to_string(), "17.5.0.0/16");
/// assert_eq!(*value, "apple-dc");
/// ```
#[derive(Debug)]
pub struct PrefixTable<V> {
    /// The load-phase store; the first freeze moves it out, leaving it
    /// empty for good.
    staged: BTreeMap<IpNet, V>,
    /// The compiled store, `None` until the first freeze.
    frozen: Option<FrozenLpm<V>>,
    /// Mutations since the last fold, pending against `frozen`.
    delta: DeltaOverlay<V>,
    /// Live prefixes, both families.
    len: usize,
}

impl<V> Default for PrefixTable<V> {
    fn default() -> Self {
        PrefixTable::new()
    }
}

impl<V> PrefixTable<V> {
    /// An empty, staged table.
    pub fn new() -> PrefixTable<V> {
        PrefixTable {
            staged: BTreeMap::new(),
            frozen: None,
            delta: DeltaOverlay::new(),
            len: 0,
        }
    }

    /// Number of stored prefixes (both families).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the table has been frozen (reads run on the compiled
    /// arrays, possibly with pending overlay patches).
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Overlay patches pending against the compiled arrays — zero after a
    /// freeze or fold, bounded by the compaction threshold under churn.
    pub fn pending_patches(&self) -> usize {
        self.delta.len()
    }

    /// Dead arena words left behind by folds, which a full rebuild would
    /// reclaim (zero while staged): the value slots of withdrawn and
    /// re-announced prefixes, and the node and entry words of unlinked
    /// subtrees.
    pub fn garbage(&self) -> usize {
        self.frozen.as_ref().map_or(0, FrozenLpm::garbage)
    }

    /// The value stored under exactly `net`.
    pub fn get(&self, net: &IpNet) -> Option<&V> {
        match &self.frozen {
            Some(lpm) => self.delta.exact(lpm, net),
            None => self.staged.get(net),
        }
    }

    /// Longest-prefix match for an address.
    pub fn lookup(&self, addr: IpAddr) -> Option<(IpNet, &V)> {
        match &self.frozen {
            Some(lpm) => self.delta.longest_match(lpm, addr),
            None => self.staged_match(addr, width(addr)),
        }
    }

    /// The most specific stored prefix fully containing `net` (possibly
    /// `net` itself).
    pub fn lookup_net(&self, net: &IpNet) -> Option<(IpNet, &V)> {
        match &self.frozen {
            Some(lpm) => self.delta.longest_match_net(lpm, net),
            None => self.staged_match(net.network(), net.len()),
        }
    }

    /// Longest-prefix match for a burst of addresses: `out` is cleared and
    /// receives `f(lookup(a))` for each address, in order. Once frozen this
    /// is one batched walk of the compiled arrays against caller-owned
    /// `scratch`, allocation-free once the buffers have grown.
    pub fn lookup_batch_map_in<'a, T>(
        &'a self,
        scratch: &mut BatchScratch,
        addrs: &[IpAddr],
        out: &mut Vec<T>,
        mut f: impl FnMut(Option<(IpNet, &'a V)>) -> T,
    ) {
        match &self.frozen {
            Some(lpm) => self.delta.lookup_batch_map_in(lpm, scratch, addrs, out, f),
            None => {
                out.clear();
                out.extend(addrs.iter().map(|a| f(self.staged_match(*a, width(*a)))));
            }
        }
    }

    /// The staged map's longest match for `addr` among prefixes of at most
    /// `max` bits: one exact probe per length, longest first.
    fn staged_match(&self, addr: IpAddr, max: u8) -> Option<(IpNet, &V)> {
        (0..=max).rev().find_map(|len| {
            let net = net_of(addr, len);
            self.staged.get(&net).map(|v| (net, v))
        })
    }

    /// Iterates every `(prefix, value)` pair: IPv4 first, then ascending
    /// address and length — with or without pending overlay patches.
    pub fn iter(&self) -> impl Iterator<Item = (IpNet, &V)> + '_ {
        let mut base = self
            .frozen
            .iter()
            .flat_map(|lpm| lpm.iter())
            .filter(|(net, _)| !self.delta.is_tombstoned(net))
            .peekable();
        let mut announced = self.delta.announced().peekable();
        // Both sides are sorted by `IpNet`'s order; a prefix on both sides
        // was re-announced, so the overlay's value wins.
        let patched = std::iter::from_fn(move || {
            let next_base = base.peek().map(|(net, _)| *net);
            let next_announced = announced.peek().map(|(net, _)| *net);
            match (next_base, next_announced) {
                (Some(b), Some(a)) => match b.cmp(&a) {
                    Ordering::Less => base.next(),
                    Ordering::Equal => {
                        base.next();
                        announced.next()
                    }
                    Ordering::Greater => announced.next(),
                },
                (Some(_), None) => base.next(),
                (None, _) => announced.next(),
            }
        });
        self.staged.iter().map(|(net, v)| (*net, v)).chain(patched)
    }
}

impl<V: Clone> PrefixTable<V> {
    /// Stores `value` under `net`, returning the value it replaced.
    pub fn insert(&mut self, net: IpNet, value: V) -> Option<V> {
        let prev = match &self.frozen {
            Some(lpm) => {
                let prev = self.delta.exact(lpm, &net).cloned();
                self.delta.announce(net, value);
                prev
            }
            None => self.staged.insert(net, value),
        };
        if prev.is_none() {
            self.len = self.len.saturating_add(1);
        }
        self.after_mutation();
        prev
    }

    /// Removes `net`, returning its value if it was stored.
    pub fn remove(&mut self, net: &IpNet) -> Option<V> {
        let prev = match &self.frozen {
            Some(lpm) => {
                // One probe of the base serves both the answer and the
                // tombstone decision.
                let in_base = lpm.exact(net);
                match self.delta.withdraw_probed(net, in_base.is_some()) {
                    Some(held) => held,
                    None => in_base.cloned(),
                }
            }
            None => self.staged.remove(net),
        };
        if prev.is_some() {
            self.len = self.len.saturating_sub(1);
            self.after_mutation();
        }
        prev
    }

    /// Compiles the table. The first call moves the staged map into the
    /// compiled arrays; a later call rebuilds them from the current
    /// contents, dropping pending patches and arena garbage. Reads answer
    /// the same before and after — freezing only changes their speed.
    pub fn freeze(&mut self) {
        let lpm = match &self.frozen {
            None => FrozenLpm::from_pairs(std::mem::take(&mut self.staged)),
            Some(_) => FrozenLpm::from_pairs(self.iter().map(|(net, v)| (net, v.clone()))),
        };
        self.frozen = Some(lpm);
        self.delta.clear();
    }

    /// A copy-on-write epoch snapshot of the compiled arrays
    /// ([`FrozenLpm::snapshot`]), or `None` while staged. Pending patches
    /// are folded in first, so the snapshot holds exactly the current
    /// contents.
    pub fn snapshot(&mut self) -> Option<FrozenLpm<V>> {
        if !self.delta.is_empty() {
            self.fold();
        }
        self.frozen.as_ref().map(FrozenLpm::snapshot)
    }

    /// Folds the overlay once it has crossed its compaction threshold.
    fn after_mutation(&mut self) {
        let due = match &self.frozen {
            Some(lpm) => self.delta.should_compact(lpm.len()),
            None => false,
        };
        if due {
            self.fold();
        }
    }

    /// Folds the pending patches into the compiled arrays, then rebuilds
    /// them outright if the folds have left more dead words than live ones
    /// in the value arena or in the node and entry arenas.
    fn fold(&mut self) {
        if let Some(lpm) = self.frozen.as_mut() {
            lpm.refreeze_subtree(&self.delta);
            self.delta.clear();
            if lpm.mostly_garbage() {
                *lpm = FrozenLpm::from_pairs(lpm.iter().map(|(net, v)| (net, v.clone())));
            }
        }
    }
}

/// Address width of `addr`'s family, in bits.
fn width(addr: IpAddr) -> u8 {
    if addr.is_ipv4() {
        32
    } else {
        128
    }
}

/// The `len`-bit prefix containing `addr`.
fn net_of(addr: IpAddr, len: u8) -> IpNet {
    match addr {
        IpAddr::V4(a) => IpNet::V4(Ipv4Net::clamped(a, len)),
        IpAddr::V6(a) => IpNet::V6(Ipv6Net::clamped(a, len)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_moves_the_staged_map_and_refreeze_drops_patches() {
        let net = |s: &str| s.parse::<IpNet>().unwrap();
        let mut t = PrefixTable::new();
        for (i, s) in ["0.0.0.0/0", "17.0.0.0/8", "2620:149::/32"]
            .iter()
            .enumerate()
        {
            t.insert(net(s), i);
        }
        t.freeze();
        assert!(t.staged.is_empty(), "one store: freeze moves the map out");
        assert_eq!(t.remove(&net("0.0.0.0/0")), Some(0));
        assert_eq!(t.pending_patches(), 1);
        t.freeze();
        assert_eq!((t.pending_patches(), t.garbage(), t.len()), (0, 0, 2));
        assert!(t.lookup("8.8.8.8".parse().unwrap()).is_none());
        assert_eq!(t.snapshot().map(|s| s.len()), Some(2));
    }

    #[test]
    fn iter_yields_ipv4_before_ipv6_with_pending_patches() {
        // The overlay's patch key sorts IPv6 (`v4 = false`) first, while
        // `IpNet` orders IPv4 first; `iter` follows `IpNet`.
        let net = |s: &str| s.parse::<IpNet>().unwrap();
        let mut t = PrefixTable::new();
        t.insert(net("10.0.0.0/8"), 0);
        t.insert(net("2001:db8::/32"), 1);
        t.freeze();
        for (i, s) in ["2001:db8:1::/48", "192.0.2.0/24", "::/0", "0.0.0.0/0"]
            .iter()
            .enumerate()
        {
            t.insert(net(s), i + 2);
        }
        t.remove(&net("10.0.0.0/8"));
        assert_eq!(t.pending_patches(), 5);
        let got: Vec<(IpNet, usize)> = t.iter().map(|(n, v)| (n, *v)).collect();
        assert_eq!(
            got,
            vec![
                (net("0.0.0.0/0"), 5),
                (net("192.0.2.0/24"), 3),
                (net("::/0"), 4),
                (net("2001:db8::/32"), 1),
                (net("2001:db8:1::/48"), 2),
            ]
        );
    }

    /// Arena words a compiled table holds, live and dead: nodes, entries
    /// and value slots, one word each.
    fn words<V>(lpm: &FrozenLpm<V>) -> usize {
        lpm.core.nodes.len() + lpm.core.entries.len() + lpm.core.values.len()
    }

    /// Prefixes that nest and churn subtrees: IPv4 at /8–/32 under four
    /// /8s, IPv6 at /16–/64 under one 16-bit root chunk.
    fn arb_net() -> impl proptest::prelude::Strategy<Value = IpNet> {
        use proptest::prelude::*;
        prop_oneof![
            (0u32..4, any::<u32>(), 8u8..=32).prop_map(|(block, bits, len)| {
                let addr = std::net::Ipv4Addr::from((block + 10) << 24 | bits >> 8);
                IpNet::V4(Ipv4Net::clamped(addr, len))
            }),
            (any::<u128>(), 16u8..=64).prop_map(|(bits, len)| {
                let addr = std::net::Ipv6Addr::from(0x2001u128 << 112 | bits >> 16);
                IpNet::V6(Ipv6Net::clamped(addr, len))
            }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn folded_arenas_stay_within_twice_a_fresh_build(
            base in proptest::collection::vec(arb_net(), 0..200),
            ops in proptest::collection::vec((proptest::prelude::any::<bool>(), arb_net()), 1..1500),
        ) {
            // After every fold, the live words of the folded arenas equal
            // what `from_pairs` builds for the same routes (both tables
            // keep an 8-bit root here), and the dead ones never outnumber
            // them, so the arenas hold at most twice a fresh build's.
            let mut t = PrefixTable::new();
            let mut mirror = BTreeMap::new();
            for (i, net) in base.iter().enumerate() {
                t.insert(*net, i);
                mirror.insert(*net, i);
            }
            t.freeze();
            let mut folds = 0usize;
            for (i, (announce, net)) in ops.iter().enumerate() {
                let pending = t.pending_patches();
                if *announce {
                    t.insert(*net, i);
                    mirror.insert(*net, i);
                } else {
                    t.remove(net);
                    mirror.remove(net);
                }
                let folded = t.pending_patches() + 1 < pending;
                if i + 1 == ops.len() {
                    t.snapshot();
                } else if !folded {
                    continue;
                }
                folds += 1;
                let lpm = t.frozen.as_ref().unwrap();
                let fresh = FrozenLpm::from_pairs(mirror.clone());
                proptest::prop_assert_eq!(words(lpm) - lpm.garbage(), words(&fresh));
                proptest::prop_assert!(words(lpm) <= 2 * words(&fresh));
            }
            proptest::prop_assert!(folds > 0);
        }
    }

    #[test]
    fn a_root_frozen_at_the_other_width_costs_a_constant() {
        // Frozen wide and withdrawn down to a few prefixes, or frozen narrow
        // and grown past the wide-root threshold, the folded table keeps
        // its root; its live words then differ from a fresh build's by at
        // most that root's words.
        let slash24 = |i: u32| {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 8));
            IpNet::V4(Ipv4Net::clamped(a, 24))
        };
        let root_slack = (1 << 16) + 1 + 257 * 257;
        let mut shrink = PrefixTable::new();
        let mut grow = PrefixTable::new();
        for i in 0..5_000u32 {
            shrink.insert(slash24(i), i);
        }
        shrink.freeze();
        grow.freeze();
        for i in 0..5_000u32 {
            if i >= 100 {
                shrink.remove(&slash24(i));
            }
            grow.insert(slash24(i), i);
        }
        for t in [&mut shrink, &mut grow] {
            t.snapshot();
            let lpm = t.frozen.as_ref().unwrap();
            let fresh = FrozenLpm::from_pairs(t.iter().map(|(n, v)| (n, *v)));
            let live = words(lpm) - lpm.garbage();
            assert!(
                live.abs_diff(words(&fresh)) <= root_slack,
                "{live} vs {}",
                words(&fresh)
            );
            assert!(words(lpm) <= 2 * (words(&fresh) + root_slack));
        }
    }
}
