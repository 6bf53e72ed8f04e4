//! The routing information base.

use std::net::IpAddr;

use serde::{Deserialize, Serialize};
use tectonic_net::{Asn, BatchScratch, FrozenLpm, IpNet, PrefixTable};

/// Reusable buffers for [`Rib::lookup_net_batch_in`]: the batch walk's
/// scratch and the nets' network addresses. A caller that keeps one across
/// calls pays no allocation once both have grown to the burst size.
#[derive(Debug, Default)]
pub struct NetBatchScratch {
    walk: BatchScratch,
    addrs: Vec<IpAddr>,
}

/// One announced route.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Origin AS of the announcement.
    pub origin: Asn,
}

/// A longest-prefix-match routing table over announced prefixes.
///
/// The reproduction uses a single global RIB (the "BGP collector view"): the
/// relay deployment announces its prefixes here, the client-side Internet
/// model announces eyeball prefixes, and the scanner and analyses query it.
///
/// The routes live in one [`PrefixTable`]: a sorted map while the table
/// loads, compiled into a [`FrozenLpm`] by [`freeze`](Rib::freeze). Later
/// [`announce`](Rib::announce) / [`withdraw`](Rib::withdraw) churn lands in
/// the table's delta overlay. Reads skip the overlay outside the root
/// chunks it touches. Once enough patches pend, a fold writes them into
/// the table in place: the key list takes them in one linear pass, and
/// the compiled arrays are re-expanded only along each patch's own path.
///
/// The table is the RIB's only store: an update writes nothing else, and
/// a per-AS census ([`prefixes_of`](Rib::prefixes_of)) filters the table.
#[derive(Debug, Default)]
pub struct Rib {
    routes: PrefixTable<RouteEntry>,
}

impl Rib {
    /// An empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles the table into a [`FrozenLpm`] so steady-state lookups run
    /// on the flat arrays. Call after the load phase; later mutations are
    /// absorbed by the delta overlay, so a re-freeze only drops accumulated
    /// patches and arena garbage, and never changes an answer.
    pub fn freeze(&mut self) {
        self.routes.freeze();
    }

    /// Whether the table has been frozen.
    pub fn is_frozen(&self) -> bool {
        self.routes.is_frozen()
    }

    /// Number of overlay patches pending against the frozen table — zero in
    /// steady state, bounded by the compaction threshold under churn.
    /// Diagnostics/test hook.
    pub fn pending_patches(&self) -> usize {
        self.routes.pending_patches()
    }

    /// Dead arena words that the next full rebuild of the frozen table will
    /// reclaim: the value slots of withdrawn and re-announced prefixes and
    /// the node and entry words of subtrees folds unlinked. The table
    /// rebuilds itself once they outnumber the live words in the value
    /// arena or in the node and entry arenas. Diagnostics/test hook.
    pub fn garbage(&self) -> usize {
        self.routes.garbage()
    }

    /// A cheap copy-on-write epoch snapshot of the compiled table
    /// ([`FrozenLpm::snapshot`]), or `None` before the first freeze.
    /// Pending overlay patches are folded in first so the snapshot captures
    /// exactly the current routes; k epoch handles share arenas until the
    /// live table diverges.
    pub fn snapshot(&mut self) -> Option<FrozenLpm<RouteEntry>> {
        self.routes.snapshot()
    }

    /// Announces `prefix` with origin `asn`. Re-announcing an existing
    /// prefix replaces the origin (and returns the previous one).
    pub fn announce(&mut self, prefix: impl Into<IpNet>, origin: Asn) -> Option<Asn> {
        self.routes
            .insert(prefix.into(), RouteEntry { origin })
            .map(|e| e.origin)
    }

    /// Withdraws `prefix`, returning its origin if it was announced.
    pub fn withdraw(&mut self, prefix: &IpNet) -> Option<Asn> {
        self.routes.remove(prefix).map(|e| e.origin)
    }

    /// Number of announced prefixes (both families).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when nothing is announced.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Longest-prefix match for an address.
    pub fn lookup(&self, addr: IpAddr) -> Option<(IpNet, Asn)> {
        self.routes
            .lookup(addr)
            .map(|(net, entry)| (net, entry.origin))
    }

    /// Longest-prefix match for a burst of addresses; `out` is cleared and
    /// receives exactly `addrs.iter().map(|a| lookup(*a))`. On a frozen RIB
    /// this is one batched walk of the compiled table (interleaved lanes),
    /// and a reply-attribution loop that reuses one [`BatchScratch`] across
    /// bursts keeps it allocation-free.
    pub fn lookup_batch_in(
        &self,
        scratch: &mut BatchScratch,
        addrs: &[IpAddr],
        out: &mut Vec<Option<(IpNet, Asn)>>,
    ) {
        self.routes.lookup_batch_map_in(scratch, addrs, out, |m| {
            m.map(|(net, entry)| (net, entry.origin))
        });
    }

    /// The most specific announced prefix fully covering `net`.
    pub fn lookup_net(&self, net: &IpNet) -> Option<(IpNet, Asn)> {
        self.routes
            .lookup_net(net)
            .map(|(covering, entry)| (covering, entry.origin))
    }

    /// [`lookup_net`](Rib::lookup_net) for a burst of nets; `out` is
    /// cleared and receives exactly `nets.iter().map(|n| lookup_net(n))`.
    ///
    /// One [`lookup_batch_in`](Rib::lookup_batch_in) walk resolves the
    /// nets' network addresses. A match no longer than its net contains
    /// the net's first address, so it covers the whole net, and no
    /// covering prefix can be more specific: it is the answer. Only a
    /// match longer than its net (a more specific route inside it) falls
    /// back to `lookup_net`. Allocation-free once `scratch` and `out` have
    /// grown to the burst size.
    pub fn lookup_net_batch_in(
        &self,
        scratch: &mut NetBatchScratch,
        nets: &[IpNet],
        out: &mut Vec<Option<(IpNet, Asn)>>,
    ) {
        let NetBatchScratch { walk, addrs } = scratch;
        addrs.clear();
        addrs.extend(nets.iter().map(IpNet::network));
        self.lookup_batch_in(walk, addrs, out);
        for (slot, net) in out.iter_mut().zip(nets) {
            if matches!(slot, Some((m, _)) if m.len() > net.len()) {
                *slot = self.lookup_net(net);
            }
        }
    }

    /// Whether `addr` falls in any announced prefix — the scanner's
    /// "is this space routed at all" check.
    pub fn is_routed(&self, addr: IpAddr) -> bool {
        self.lookup(addr).is_some()
    }

    /// Whether `net` is fully covered by an announcement.
    pub fn is_routed_net(&self, net: &IpNet) -> bool {
        self.lookup_net(net).is_some()
    }

    /// The origin AS of the exact prefix, if announced.
    pub fn origin_of(&self, prefix: &IpNet) -> Option<Asn> {
        self.routes.get(prefix).map(|e| e.origin)
    }

    /// All prefixes announced by `asn`, in [`iter`](Rib::iter)'s order:
    /// IPv4 first, then ascending. It walks the whole table, so it is meant
    /// for one-off censuses, not for a per-update or per-query path.
    pub fn prefixes_of(&self, asn: Asn) -> impl Iterator<Item = IpNet> + '_ {
        self.iter()
            .filter_map(move |(net, origin)| (origin == asn).then_some(net))
    }

    /// Iterates every `(prefix, origin)` announcement: IPv4 first, then
    /// ascending address and length.
    pub fn iter(&self) -> impl Iterator<Item = (IpNet, Asn)> + '_ {
        self.routes.iter().map(|(net, entry)| (net, entry.origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> IpNet {
        s.parse().unwrap()
    }

    #[test]
    fn announce_and_lookup() {
        let mut rib = Rib::new();
        rib.announce(net("17.0.0.0/8"), Asn::APPLE);
        rib.announce(net("23.32.0.0/11"), Asn::AKAMAI_EG);
        let (p, asn) = rib.lookup("17.5.6.7".parse().unwrap()).unwrap();
        assert_eq!(p, net("17.0.0.0/8"));
        assert_eq!(asn, Asn::APPLE);
        assert!(rib.lookup("8.8.8.8".parse().unwrap()).is_none());
        assert!(rib.is_routed("23.33.0.1".parse().unwrap()));
        assert!(!rib.is_routed("198.51.100.1".parse().unwrap()));
    }

    #[test]
    fn more_specific_wins() {
        let mut rib = Rib::new();
        rib.announce(net("23.32.0.0/11"), Asn::AKAMAI_EG);
        rib.announce(net("23.32.5.0/24"), Asn::AKAMAI_PR);
        let (_, asn) = rib.lookup("23.32.5.9".parse().unwrap()).unwrap();
        assert_eq!(asn, Asn::AKAMAI_PR);
        let (_, asn) = rib.lookup("23.33.0.1".parse().unwrap()).unwrap();
        assert_eq!(asn, Asn::AKAMAI_EG);
    }

    #[test]
    fn reannounce_moves_origin() {
        let mut rib = Rib::new();
        rib.announce(net("203.0.113.0/24"), Asn(64512));
        assert_eq!(
            rib.announce(net("203.0.113.0/24"), Asn(64513)),
            Some(Asn(64512))
        );
        assert_eq!(rib.origin_of(&net("203.0.113.0/24")), Some(Asn(64513)));
        assert_eq!(rib.prefixes_of(Asn(64512)).next(), None);
        assert_eq!(
            rib.prefixes_of(Asn(64513)).collect::<Vec<_>>(),
            vec![net("203.0.113.0/24")]
        );
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn reannounce_same_origin_is_idempotent() {
        let mut rib = Rib::new();
        rib.announce(net("203.0.113.0/24"), Asn(64512));
        rib.announce(net("203.0.113.0/24"), Asn(64512));
        assert_eq!(rib.prefixes_of(Asn(64512)).count(), 1);
    }

    #[test]
    fn withdraw_removes_route() {
        let mut rib = Rib::new();
        rib.announce(net("17.0.0.0/8"), Asn::APPLE);
        assert_eq!(rib.withdraw(&net("17.0.0.0/8")), Some(Asn::APPLE));
        assert_eq!(rib.withdraw(&net("17.0.0.0/8")), None);
        assert!(rib.is_empty());
        assert_eq!(rib.prefixes_of(Asn::APPLE).next(), None);
        assert!(rib.lookup("17.1.1.1".parse().unwrap()).is_none());
    }

    #[test]
    fn lookup_net_requires_full_cover() {
        let mut rib = Rib::new();
        rib.announce(net("100.64.0.0/10"), Asn(64512));
        assert!(rib.is_routed_net(&net("100.64.3.0/24")));
        assert!(!rib.is_routed_net(&net("100.0.0.0/8")));
        let (covering, asn) = rib.lookup_net(&net("100.64.3.0/24")).unwrap();
        assert_eq!(covering, net("100.64.0.0/10"));
        assert_eq!(asn, Asn(64512));
    }

    #[test]
    fn families_are_separate() {
        let mut rib = Rib::new();
        rib.announce(net("2620:149::/32"), Asn::APPLE);
        assert!(rib.is_routed("2620:149::1".parse().unwrap()));
        assert!(!rib.is_routed("38.32.1.1".parse().unwrap()));
    }

    #[test]
    fn mutations_patch_the_snapshot_in_place() {
        let mut rib = Rib::new();
        rib.announce(net("17.0.0.0/8"), Asn::APPLE);
        rib.freeze();
        assert!(rib.is_frozen());
        // Announce stays on the fast path: the snapshot survives and the
        // new route is visible through the overlay.
        rib.announce(net("17.5.0.0/16"), Asn(64512));
        assert!(rib.is_frozen());
        assert_eq!(rib.pending_patches(), 1);
        let (p, _) = rib.lookup("17.5.1.1".parse().unwrap()).unwrap();
        assert_eq!(p, net("17.5.0.0/16"));
        // Withdraw tombstones it and the lookup falls back to the /8.
        rib.withdraw(&net("17.5.0.0/16"));
        assert!(rib.is_frozen());
        let (p, _) = rib.lookup("17.5.1.1".parse().unwrap()).unwrap();
        assert_eq!(p, net("17.0.0.0/8"));
        // Withdrawing the base route itself leaves nothing.
        rib.withdraw(&net("17.0.0.0/8"));
        assert!(rib.is_frozen());
        assert!(rib.lookup("17.5.1.1".parse().unwrap()).is_none());
        // An explicit re-freeze flushes the pending patches.
        rib.freeze();
        assert_eq!(rib.pending_patches(), 0);
        assert!(rib.lookup("17.5.1.1".parse().unwrap()).is_none());
    }

    #[test]
    fn epoch_snapshots_diff_after_base_mutates() {
        let mut rib = Rib::new();
        rib.announce(net("17.0.0.0/8"), Asn::APPLE);
        rib.announce(net("17.5.0.0/16"), Asn(64512));
        rib.freeze();
        let epoch0 = rib.snapshot().expect("frozen");
        rib.withdraw(&net("17.5.0.0/16"));
        rib.announce(net("17.6.0.0/16"), Asn(64513));
        let epoch1 = rib.snapshot().expect("frozen");
        // Epoch 0 still answers with the pre-mutation table.
        let at = |e: &FrozenLpm<RouteEntry>, a: &str| {
            e.longest_match(a.parse().unwrap()).map(|(n, _)| n)
        };
        assert_eq!(at(&epoch0, "17.5.1.1"), Some(net("17.5.0.0/16")));
        assert_eq!(at(&epoch1, "17.5.1.1"), Some(net("17.0.0.0/8")));
        assert_eq!(at(&epoch0, "17.6.1.1"), Some(net("17.0.0.0/8")));
        assert_eq!(at(&epoch1, "17.6.1.1"), Some(net("17.6.0.0/16")));
        // Diffing the two epochs' prefix sets shows exactly the churn.
        let set = |e: &tectonic_net::FrozenLpm<RouteEntry>| {
            let mut v: Vec<String> = e.iter().map(|(n, _)| n.to_string()).collect();
            v.sort();
            v
        };
        let (s0, s1) = (set(&epoch0), set(&epoch1));
        let gone: Vec<_> = s0.iter().filter(|p| !s1.contains(p)).collect();
        let added: Vec<_> = s1.iter().filter(|p| !s0.contains(p)).collect();
        assert_eq!(gone, vec!["17.5.0.0/16"]);
        assert_eq!(added, vec!["17.6.0.0/16"]);
    }
}
