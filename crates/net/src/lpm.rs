//! A compiled, immutable longest-prefix-match engine.
//!
//! [`FrozenLpm`] is the steady-state counterpart of the build-side
//! structures: [`FrozenLpm::from_pairs`] (and [`PrefixTrie::freeze`])
//! compile a prefix set into a flat multi-bit-stride table in the LC-trie /
//! tree-bitmap tradition — a contiguous node array addressed by `u32`
//! indices instead of per-node `Box` pointers, with all values in one
//! arena. A lookup consumes 8 or 16 address bits per step, so an IPv4
//! match costs at most three dependent memory accesses (IPv6: sixteen)
//! instead of up to 32 (128) pointer chases, and the node array is
//! cache-resident for realistic table sizes.
//!
//! Every query API is result-identical to the trie it was frozen from:
//! [`longest_match`](FrozenLpm::longest_match), [`exact`](FrozenLpm::exact),
//! [`covering`](FrozenLpm::covering) and
//! [`longest_match_net`](FrozenLpm::longest_match_net) agree with their
//! [`PrefixTrie`] namesakes on every input (property-tested in
//! `tests/prop_prefix_trie.rs`). [`lookup_batch`](FrozenLpm::lookup_batch)
//! resolves a burst of addresses in interleaved lock-step so the dependent
//! load chains of four lookups overlap in the memory pipeline.
//!
//! Mutation under churn does not mean "throw the table away": the
//! [`overlay`](crate::overlay) module layers a bounded
//! [`DeltaOverlay`](crate::overlay::DeltaOverlay) of exact-prefix patches on
//! top of a frozen base, and
//! [`refreeze_subtree`](FrozenLpm::refreeze_subtree) folds the patches back
//! in: it re-merges the sorted key lists and rebuilds only the affected
//! root-stride subtrees of the compiled arrays. The arenas sit
//! behind one shared [`Arc`], so [`snapshot`](FrozenLpm::snapshot) hands out
//! copy-on-write epoch views: k historical snapshots share one arena until
//! a later compaction actually diverges from them.
//! [`PrefixTable`](crate::PrefixTable) owns that fold/rebuild policy for
//! the load-once tables.

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::net::IpAddr;
use std::sync::Arc;

use crate::prefix::IpNet;
use crate::trie::PrefixTrie;

/// Sentinel for "no node / no value" in the `u32` index space.
pub(crate) const NONE: u32 = u32::MAX;

/// The root stride switches from 8 to 16 bits once a family holds this many
/// prefixes: a 64 Ki-entry root costs 512 KiB, which only pays for itself on
/// RIB-sized tables.
pub(crate) const WIDE_ROOT_MIN: usize = 4096;

/// One multi-bit node: a block of `1 << stride` entries in the shared entry
/// arena, plus the value stored exactly at the node's base depth (a prefix
/// whose length equals the number of bits consumed to reach the node).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// First entry of this node's block in `Core::entries`.
    pub(crate) entries_off: u32,
    /// Value index for a prefix of length exactly `base`, or `NONE`.
    pub(crate) value: u32,
    /// Bits consumed before this node (depth of its base).
    pub(crate) base: u8,
    /// Bits this node consumes (entry block is `1 << stride` long).
    pub(crate) stride: u8,
}

/// One entry: the child node for the chunk, and the most specific stored
/// prefix whose length falls inside this node and which covers the chunk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) child: u32,
    pub(crate) value: u32,
}

pub(crate) const EMPTY_ENTRY: Entry = Entry {
    child: NONE,
    value: NONE,
};

/// A compiled prefix key: bits left-aligned in a `u128` (IPv4 shifted into
/// the top 32 bits, exactly like the trie's internal key), the prefix
/// length, and the value-arena index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRec {
    pub(crate) bits: u128,
    pub(crate) len: u8,
    pub(crate) value: u32,
}

pub(crate) fn mask_bits(bits: u128, len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        bits & (u128::MAX << 128u32.saturating_sub(u32::from(len)))
    }
}

/// The `stride`-bit chunk of `bits` at `shift` — masked *before* the
/// narrowing cast, so the conversion is total (a chunk is at most 16 bits).
#[inline]
pub(crate) fn chunk_of(bits: u128, shift: u32, stride: u8) -> usize {
    let width = u32::from(stride).min(127);
    let mask = (1u128 << width).saturating_sub(1);
    ((bits >> shift) & mask) as usize
}

/// Value/node/entry arena index for a `len()` — clamped to the `NONE`
/// sentinel on overflow. An arena of 2^32 entries cannot exist (each entry
/// is > 8 bytes), so the clamp only turns an impossible state into a miss
/// instead of a wrong match.
pub(crate) fn arena_idx(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(NONE)
}

/// Reusable walk state for the batch lookup kernel
/// ([`FrozenLpm::lookup_batch_in`] /
/// [`FrozenLpm::lookup_batch_map_in`]). A caller that keeps one scratch
/// across bursts pays zero allocations per batch once its vectors have
/// grown to the burst size.
#[derive(Debug)]
pub struct BatchScratch {
    /// Per-lane state: (address bits, current node, best value so far).
    lanes: Vec<(u128, u32, u32)>,
    /// Lanes that still have a child to follow, compacted each pass.
    active: Vec<u32>,
    /// Next pass's `active`, swapped in at the end of each level.
    next: Vec<u32>,
}

impl BatchScratch {
    /// An empty scratch; the vectors grow to the first burst's size and
    /// are reused afterwards.
    pub fn new() -> BatchScratch {
        BatchScratch {
            // lintkit: allow(alloc-in-hot-path) -- capacity-zero Vec::new touches no heap; growth is amortized by scratch reuse
            lanes: Vec::new(),
            // lintkit: allow(alloc-in-hot-path) -- capacity-zero Vec::new touches no heap; growth is amortized by scratch reuse
            active: Vec::new(),
            // lintkit: allow(alloc-in-hot-path) -- capacity-zero Vec::new touches no heap; growth is amortized by scratch reuse
            next: Vec::new(),
        }
    }
}

impl Default for BatchScratch {
    fn default() -> BatchScratch {
        BatchScratch::new()
    }
}

pub(crate) fn addr_bits(addr: &IpAddr) -> (u128, bool) {
    match addr {
        IpAddr::V4(a) => ((u32::from(*a) as u128) << 96, true),
        IpAddr::V6(a) => (u128::from(*a), false),
    }
}

pub(crate) fn net_bits(net: &IpNet) -> (u128, u8, bool) {
    match net {
        IpNet::V4(n) => {
            let (bits, len) = n.bits();
            ((bits as u128) << 96, len, true)
        }
        IpNet::V6(n) => {
            let (bits, len) = n.bits();
            (bits, len, false)
        }
    }
}

/// The arenas behind a [`FrozenLpm`], shared copy-on-write between the
/// live table and its epoch [snapshots](FrozenLpm::snapshot). After a
/// [`refreeze_subtree`](FrozenLpm::refreeze_subtree) the node/entry/value
/// arenas may carry unreachable (garbage) segments left behind by rebuilt
/// subtrees; `keys_v4`/`keys_v6` always hold exactly the live prefixes.
#[derive(Debug, Clone)]
pub(crate) struct Core<V> {
    pub(crate) nodes: Vec<Node>,
    pub(crate) entries: Vec<Entry>,
    /// Value arena: every live `(prefix, value)` pair, plus (after subtree
    /// compaction) superseded slots no key references any more.
    pub(crate) values: Vec<(IpNet, V)>,
    /// Per-family keys sorted by `(bits, len)`, for the exact-membership
    /// queries (`exact`, `covering`, `longest_match_net`).
    pub(crate) keys_v4: Vec<KeyRec>,
    pub(crate) keys_v6: Vec<KeyRec>,
    /// Distinct prefix lengths per family, ascending — bounds the probe
    /// loops of `covering` / `longest_match_net`.
    pub(crate) lens_v4: Vec<u8>,
    pub(crate) lens_v6: Vec<u8>,
    pub(crate) root_v4: u32,
    pub(crate) root_v6: u32,
}

/// An immutable, flat-layout longest-prefix-match snapshot of a
/// [`PrefixTrie`].
///
/// Built with [`PrefixTrie::freeze`]; see the module docs for the layout.
/// The snapshot owns clones of the trie's values, so the trie remains free
/// to mutate afterwards. Consumers either re-freeze when they need the
/// changes, or absorb them incrementally through a
/// [`DeltaOverlay`](crate::overlay::DeltaOverlay) +
/// [`refreeze_subtree`](FrozenLpm::refreeze_subtree).
///
/// ```
/// use tectonic_net::{IpNet, PrefixTrie};
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("17.0.0.0/8".parse::<IpNet>().unwrap(), "apple");
/// trie.insert("17.5.0.0/16".parse::<IpNet>().unwrap(), "apple-dc");
/// let lpm = trie.freeze();
/// let (prefix, value) = lpm.longest_match("17.5.1.2".parse().unwrap()).unwrap();
/// assert_eq!(prefix.to_string(), "17.5.0.0/16");
/// assert_eq!(*value, "apple-dc");
/// ```
#[derive(Debug)]
pub struct FrozenLpm<V> {
    pub(crate) core: Arc<Core<V>>,
}

/// Cloning a [`FrozenLpm`] is an [`Arc`] bump — the arenas are shared, not
/// copied — so it needs no `V: Clone` bound (unlike the derived impl).
impl<V> Clone for FrozenLpm<V> {
    fn clone(&self) -> Self {
        FrozenLpm {
            core: Arc::clone(&self.core),
        }
    }
}

impl<V: Clone> PrefixTrie<V> {
    /// Compiles the trie's current contents into a [`FrozenLpm`] snapshot.
    ///
    /// The trie stays usable (and mutable) as the build-side structure; the
    /// snapshot does not track later inserts or removals.
    pub fn freeze(&self) -> FrozenLpm<V> {
        FrozenLpm::from_pairs(self.iter().map(|(n, v)| (n, v.clone())))
    }
}

impl<V> FrozenLpm<V> {
    /// Compiles an explicit `(prefix, value)` list. Later duplicates of the
    /// same prefix replace earlier ones, matching repeated trie inserts.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (IpNet, V)>) -> FrozenLpm<V> {
        // Sort once by (family, bits, len, arrival); equal prefixes then sit
        // adjacent with the latest last, so duplicate resolution is a linear
        // sweep and a paper-scale freeze stays O(n log n).
        struct Raw<V> {
            v4: bool,
            bits: u128,
            len: u8,
            seq: usize,
            net: IpNet,
            value: V,
        }
        let mut raw: Vec<Raw<V>> = pairs
            .into_iter()
            .enumerate()
            .map(|(seq, (net, value))| {
                let (bits, len, v4) = net_bits(&net);
                Raw {
                    v4,
                    bits,
                    len,
                    seq,
                    net,
                    value,
                }
            })
            .collect();
        raw.sort_by_key(|a| (a.v4, a.bits, a.len, a.seq));

        let mut values: Vec<(IpNet, V)> = Vec::with_capacity(raw.len());
        let mut keys_v4: Vec<KeyRec> = Vec::new();
        let mut keys_v6: Vec<KeyRec> = Vec::new();
        let mut raw = raw.into_iter().peekable();
        while let Some(r) = raw.next() {
            // A later duplicate of the same prefix replaces this one
            // (trie-insert semantics): keep only the last of each run.
            let superseded = matches!(
                raw.peek(),
                Some(n) if n.v4 == r.v4 && n.bits == r.bits && n.len == r.len
            );
            if superseded {
                continue;
            }
            let idx = arena_idx(values.len());
            values.push((r.net, r.value));
            let keys = if r.v4 { &mut keys_v4 } else { &mut keys_v6 };
            keys.push(KeyRec {
                bits: r.bits,
                len: r.len,
                value: idx,
            });
        }
        // The (family, bits, len) sort above leaves each family's keys in
        // exactly the (bits, len) order the query paths rely on.

        let mut core = Core {
            nodes: Vec::new(),
            entries: Vec::new(),
            values,
            keys_v4,
            keys_v6,
            lens_v4: Vec::new(),
            lens_v6: Vec::new(),
            root_v4: NONE,
            root_v6: NONE,
        };
        core.root_v4 = build_node(&mut core.nodes, &mut core.entries, &core.keys_v4, 0);
        core.root_v6 = build_node(&mut core.nodes, &mut core.entries, &core.keys_v6, 0);
        core.lens_v4 = distinct_lens(&core.keys_v4);
        core.lens_v6 = distinct_lens(&core.keys_v6);
        FrozenLpm {
            core: Arc::new(core),
        }
    }

    /// Number of stored prefixes (both families). Counted from the key
    /// lists, not the value arena — after a
    /// [`refreeze_subtree`](FrozenLpm::refreeze_subtree) the arena may hold
    /// superseded slots that no longer exist logically.
    pub fn len(&self) -> usize {
        self.core
            .keys_v4
            .len()
            .saturating_add(self.core.keys_v6.len())
    }

    /// `true` when no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.core.keys_v4.is_empty() && self.core.keys_v6.is_empty()
    }

    /// Unreachable value-arena slots left behind by subtree compactions —
    /// the owner's signal that a full rebuild would pay for itself. Counts
    /// value slots only: the node and entry segments of replaced subtrees
    /// are garbage too, and are not counted.
    pub fn garbage(&self) -> usize {
        self.core.values.len().saturating_sub(self.len())
    }

    /// A cheap copy-on-write epoch snapshot: the returned handle shares
    /// this table's arenas (one `Arc` bump, no copy). Later
    /// [`refreeze_subtree`](FrozenLpm::refreeze_subtree) calls on either
    /// handle un-share first, so each snapshot keeps observing exactly the
    /// epoch it was taken at — k historical views cost k `Arc`s until a
    /// mutation actually diverges.
    pub fn snapshot(&self) -> FrozenLpm<V> {
        self.clone()
    }

    /// Whether this handle shares its arenas with at least one snapshot —
    /// the next [`refreeze_subtree`](FrozenLpm::refreeze_subtree) on it
    /// will pay a one-time un-sharing copy.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.core) > 1
    }

    /// Walks the compiled table for left-aligned address bits, returning
    /// the value-arena index of the most specific match (or `NONE`).
    #[inline]
    fn lookup_idx(&self, bits: u128, v4: bool) -> u32 {
        let mut idx = if v4 {
            self.core.root_v4
        } else {
            self.core.root_v6
        };
        let mut best = NONE;
        while let Some(node) = self.core.nodes.get(idx as usize) {
            if node.value != NONE {
                best = node.value;
            }
            let depth = u32::from(node.base).wrapping_add(u32::from(node.stride));
            let chunk = chunk_of(bits, 128u32.saturating_sub(depth), node.stride);
            let slot = (node.entries_off as usize).wrapping_add(chunk);
            match self.core.entries.get(slot) {
                Some(e) => {
                    if e.value != NONE {
                        best = e.value;
                    }
                    idx = e.child;
                }
                None => break,
            }
        }
        best
    }

    /// Longest-prefix match for an address — identical to
    /// [`PrefixTrie::longest_match`] on the frozen contents.
    pub fn longest_match(&self, addr: IpAddr) -> Option<(IpNet, &V)> {
        let (bits, v4) = addr_bits(&addr);
        let best = self.lookup_idx(bits, v4);
        self.core.values.get(best as usize).map(|(n, v)| (*n, v))
    }

    /// Alias for [`longest_match`](FrozenLpm::longest_match) — the
    /// route-lookup verb used by the RIB.
    #[inline]
    pub fn lookup(&self, addr: IpAddr) -> Option<(IpNet, &V)> {
        self.longest_match(addr)
    }

    /// [`longest_match`](FrozenLpm::longest_match) restricted to prefixes
    /// the `keep` predicate accepts. This is the overlay's tombstone slow
    /// path: when the walk's best match has been withdrawn in the overlay,
    /// the next-best *surviving* covering prefix is found by probing the
    /// stored prefix lengths descending — O(distinct lens × log n), paid
    /// only on tombstone hits, never in steady state.
    pub fn longest_match_where(
        &self,
        addr: IpAddr,
        keep: impl FnMut(&IpNet) -> bool,
    ) -> Option<(IpNet, &V)> {
        let (bits, v4) = addr_bits(&addr);
        let width: u8 = if v4 { 32 } else { 128 };
        self.match_bits_where(bits, width, v4, keep)
    }

    /// [`longest_match_net`](FrozenLpm::longest_match_net) restricted to
    /// prefixes the `keep` predicate accepts (the overlay's tombstone
    /// filter for whole-prefix queries).
    pub fn longest_match_net_where(
        &self,
        net: &IpNet,
        keep: impl FnMut(&IpNet) -> bool,
    ) -> Option<(IpNet, &V)> {
        let (bits, len, v4) = net_bits(net);
        self.match_bits_where(bits, len, v4, keep)
    }

    fn match_bits_where(
        &self,
        bits: u128,
        len: u8,
        v4: bool,
        mut keep: impl FnMut(&IpNet) -> bool,
    ) -> Option<(IpNet, &V)> {
        for l in self.lens(v4).iter().rev().copied() {
            if l > len {
                continue;
            }
            if let Some(key) = self.find_key(mask_bits(bits, l), l, v4) {
                if let Some((n, v)) = self.core.values.get(key.value as usize) {
                    if keep(n) {
                        return Some((*n, v));
                    }
                }
            }
        }
        None
    }

    /// Resolves a burst of addresses in one call, writing one
    /// `Option<(prefix, &value)>` per input address (`out` is cleared
    /// first). Results are exactly `addrs.iter().map(|a| lookup(*a))`.
    ///
    /// The walk is level-synchronous: every pass advances all still-live
    /// lookups one node, so within a pass the node/entry loads of different
    /// addresses are independent and overlap in the memory pipeline instead
    /// of serialising down one walk at a time — which is where a batch
    /// beats N single calls on tables larger than the cache.
    pub fn lookup_batch<'a>(&'a self, addrs: &[IpAddr], out: &mut Vec<Option<(IpNet, &'a V)>>) {
        self.lookup_batch_map(addrs, out, |m| m);
    }

    /// [`lookup_batch`](FrozenLpm::lookup_batch) against caller-owned walk
    /// state: with a reused [`BatchScratch`] the whole batch runs without
    /// touching the allocator once the scratch has grown to the burst size.
    pub fn lookup_batch_in<'a>(
        &'a self,
        scratch: &mut BatchScratch,
        addrs: &[IpAddr],
        out: &mut Vec<Option<(IpNet, &'a V)>>,
    ) {
        self.lookup_batch_map_in(scratch, addrs, out, |m| m);
    }

    /// [`lookup_batch`](FrozenLpm::lookup_batch) with an inline projection:
    /// each raw match is passed through `f` before landing in `out`, so
    /// callers that store a derived type (the RIB keeps `(prefix, origin)`)
    /// reuse their typed buffer with no intermediate allocation. Allocates
    /// fresh walk state per call — batch loops should hold a
    /// [`BatchScratch`] and use
    /// [`lookup_batch_map_in`](FrozenLpm::lookup_batch_map_in) instead.
    pub fn lookup_batch_map<'a, T>(
        &'a self,
        addrs: &[IpAddr],
        out: &mut Vec<T>,
        f: impl FnMut(Option<(IpNet, &'a V)>) -> T,
    ) {
        let mut scratch = BatchScratch::new();
        self.lookup_batch_map_in(&mut scratch, addrs, out, f);
    }

    /// The allocation-free batch kernel: walk state lives in `scratch`,
    /// results in `out`, both owned by the caller and reused across bursts.
    ///
    /// Invocation-order contract: `f` is called exactly once per input
    /// address, in input order (lane `k` of the final drain corresponds to
    /// `addrs[k]`). The overlay's combined batch lookup relies on this to
    /// pair each raw frozen match with its address without allocating.
    pub fn lookup_batch_map_in<'a, T>(
        &'a self,
        scratch: &mut BatchScratch,
        addrs: &[IpAddr],
        out: &mut Vec<T>,
        mut f: impl FnMut(Option<(IpNet, &'a V)>) -> T,
    ) {
        out.clear();
        out.reserve(addrs.len());
        // Per-lane walk state: (address bits, current node, best value).
        // Lanes that still have a child to follow are kept in `active`,
        // compacted each pass so finished walks cost nothing on deeper
        // levels.
        let BatchScratch {
            lanes,
            active,
            next,
        } = scratch;
        lanes.clear();
        lanes.extend(addrs.iter().map(|a| {
            let (b, v4) = addr_bits(a);
            (
                b,
                if v4 {
                    self.core.root_v4
                } else {
                    self.core.root_v6
                },
                NONE,
            )
        }));
        active.clear();
        active.extend(0..arena_idx(lanes.len()));
        while !active.is_empty() {
            next.clear();
            for &k in active.iter() {
                let Some(lane) = lanes.get_mut(k as usize) else {
                    continue;
                };
                let Some(node) = self.core.nodes.get(lane.1 as usize) else {
                    continue;
                };
                let mut found = node.value;
                let depth = u32::from(node.base).wrapping_add(u32::from(node.stride));
                let chunk = chunk_of(lane.0, 128u32.saturating_sub(depth), node.stride);
                let slot = (node.entries_off as usize).wrapping_add(chunk);
                let child = match self.core.entries.get(slot) {
                    Some(e) => {
                        if e.value != NONE {
                            found = e.value;
                        }
                        e.child
                    }
                    None => NONE,
                };
                if found != NONE {
                    lane.2 = found;
                }
                lane.1 = child;
                if (child as usize) < self.core.nodes.len() {
                    next.push(k);
                }
            }
            core::mem::swap(active, next);
        }
        for lane in lanes.iter() {
            out.push(f(self
                .core
                .values
                .get(lane.2 as usize)
                .map(|(n, v)| (*n, v))));
        }
    }

    pub(crate) fn keys(&self, v4: bool) -> &[KeyRec] {
        if v4 {
            &self.core.keys_v4
        } else {
            &self.core.keys_v6
        }
    }

    fn lens(&self, v4: bool) -> &[u8] {
        if v4 {
            &self.core.lens_v4
        } else {
            &self.core.lens_v6
        }
    }

    pub(crate) fn find_key(&self, bits: u128, len: u8, v4: bool) -> Option<&KeyRec> {
        let keys = self.keys(v4);
        keys.binary_search_by(|k| (k.bits, k.len).cmp(&(bits, len)))
            .ok()
            .and_then(|at| keys.get(at))
    }

    /// Exact-prefix lookup — identical to [`PrefixTrie::exact`].
    pub fn exact(&self, net: &IpNet) -> Option<&V> {
        let (bits, len, v4) = net_bits(net);
        let key = self.find_key(bits, len, v4)?;
        self.core.values.get(key.value as usize).map(|(_, v)| v)
    }

    /// Whether the exact prefix is stored.
    pub fn contains(&self, net: &IpNet) -> bool {
        self.exact(net).is_some()
    }

    /// All stored prefixes containing `addr`, shortest first — identical to
    /// [`PrefixTrie::covering`]. Probes only the prefix lengths that occur
    /// in the table, one binary search each.
    pub fn covering(&self, addr: IpAddr) -> Vec<(IpNet, &V)> {
        let (bits, v4) = addr_bits(&addr);
        let width: u8 = if v4 { 32 } else { 128 };
        let mut out = Vec::new();
        for len in self.lens(v4).iter().copied() {
            if len > width {
                break;
            }
            if let Some(key) = self.find_key(mask_bits(bits, len), len, v4) {
                if let Some((n, v)) = self.core.values.get(key.value as usize) {
                    out.push((*n, v));
                }
            }
        }
        out
    }

    /// The most specific stored prefix fully containing `net` (possibly
    /// `net` itself) — identical to [`PrefixTrie::longest_match_net`].
    pub fn longest_match_net(&self, net: &IpNet) -> Option<(IpNet, &V)> {
        let (bits, len, v4) = net_bits(net);
        for l in self.lens(v4).iter().rev().copied() {
            if l > len {
                continue;
            }
            if let Some(key) = self.find_key(mask_bits(bits, l), l, v4) {
                return self
                    .core
                    .values
                    .get(key.value as usize)
                    .map(|(n, v)| (*n, v));
            }
        }
        None
    }

    /// Iterates over all stored `(prefix, value)` pairs, IPv4 first, in
    /// ascending bit order.
    pub fn iter(&self) -> impl Iterator<Item = (IpNet, &V)> {
        self.core
            .keys_v4
            .iter()
            .chain(self.core.keys_v6.iter())
            .filter_map(|k| self.core.values.get(k.value as usize))
            .map(|(n, v)| (*n, v))
    }
}

pub(crate) fn distinct_lens(keys: &[KeyRec]) -> Vec<u8> {
    let mut lens: Vec<u8> = keys.iter().map(|k| k.len).collect();
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// Recursively compiles one node from the (sorted) keys that live at or
/// below `base`. Returns the node index, or `NONE` for an empty key set.
pub(crate) fn build_node(
    nodes: &mut Vec<Node>,
    entries: &mut Vec<Entry>,
    keys: &[KeyRec],
    base: u8,
) -> u32 {
    if keys.is_empty() {
        return NONE;
    }
    let stride: u8 = if base == 0 && keys.len() >= WIDE_ROOT_MIN {
        16
    } else {
        8
    };
    let limit = base.saturating_add(stride);
    let block_len = 1usize.checked_shl(u32::from(stride)).unwrap_or(0);
    let mut block = vec![EMPTY_ENTRY; block_len];
    let shift = 128u32.saturating_sub(limit as u32);
    let mut node_value = NONE;

    // Expand the prefixes that terminate inside this node into the entry
    // block. Shorter prefixes first, so more specific ones overwrite — the
    // entry then holds the most specific in-node match for its chunk.
    let mut in_node: Vec<&KeyRec> = keys.iter().filter(|k| k.len <= limit).collect();
    in_node.sort_by_key(|k| k.len);
    for key in in_node {
        if key.len == base {
            node_value = key.value;
            continue;
        }
        let lo = chunk_of(key.bits, shift, stride);
        let count = 1usize
            .checked_shl(u32::from(limit.saturating_sub(key.len)))
            .unwrap_or(0);
        for entry in block.iter_mut().skip(lo).take(count) {
            entry.value = key.value;
        }
    }

    // Group the deeper prefixes by their chunk (contiguous runs, since the
    // keys are sorted by bits) and recurse.
    let deeper: Vec<KeyRec> = keys.iter().filter(|k| k.len > limit).copied().collect();
    let mut start = 0usize;
    while let Some(first) = deeper.get(start) {
        let chunk = chunk_of(first.bits, shift, stride);
        let mut end = start.saturating_add(1);
        while let Some(k) = deeper.get(end) {
            let c = chunk_of(k.bits, shift, stride);
            if c != chunk {
                break;
            }
            end = end.saturating_add(1);
        }
        if let Some(run) = deeper.get(start..end) {
            let child = build_node(nodes, entries, run, limit);
            if let Some(entry) = block.get_mut(chunk) {
                entry.child = child;
            }
        }
        start = end;
    }

    let entries_off = arena_idx(entries.len());
    entries.extend(block);
    let idx = arena_idx(nodes.len());
    nodes.push(Node {
        entries_off,
        value: node_value,
        base,
        stride,
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> IpNet {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn sample() -> PrefixTrie<&'static str> {
        let mut t = PrefixTrie::new();
        t.insert(net("0.0.0.0/0"), "default");
        t.insert(net("17.0.0.0/8"), "apple8");
        t.insert(net("17.5.0.0/16"), "apple16");
        t.insert(net("23.32.0.0/11"), "akamai");
        t.insert(net("2620:149::/32"), "apple6");
        t.insert(net("2620:149:a::/48"), "apple6-dc");
        t.insert(net("198.51.100.7/32"), "host");
        t
    }

    #[test]
    fn matches_trie_on_longest_match() {
        let t = sample();
        let lpm = t.freeze();
        for a in [
            "17.5.1.2",
            "17.9.9.9",
            "8.8.8.8",
            "23.33.0.1",
            "198.51.100.7",
            "198.51.100.8",
            "2620:149::1",
            "2620:149:a::1",
            "2001:db8::1",
        ] {
            let a = addr(a);
            assert_eq!(
                lpm.longest_match(a).map(|(n, v)| (n, *v)),
                t.longest_match(a).map(|(n, v)| (n, *v)),
                "{a}"
            );
            assert_eq!(
                lpm.lookup(a).map(|(n, _)| n),
                lpm.longest_match(a).map(|(n, _)| n)
            );
        }
    }

    #[test]
    fn no_v6_default_means_v6_miss() {
        let t = sample();
        let lpm = t.freeze();
        assert!(lpm.longest_match(addr("2001:db8::1")).is_none());
        assert_eq!(lpm.longest_match(addr("8.8.8.8")).unwrap().1, &"default");
    }

    #[test]
    fn exact_and_covering_match_trie() {
        let t = sample();
        let lpm = t.freeze();
        for n in ["17.0.0.0/8", "17.5.0.0/16", "17.0.0.0/16", "::/0"] {
            let n = net(n);
            assert_eq!(lpm.exact(&n), t.exact(&n), "{n}");
            assert_eq!(lpm.contains(&n), t.contains(&n));
        }
        for a in ["17.5.1.2", "8.8.8.8", "2620:149:a::1", "2001:db8::1"] {
            let a = addr(a);
            let got: Vec<_> = lpm.covering(a).into_iter().map(|(n, v)| (n, *v)).collect();
            let want: Vec<_> = t.covering(a).into_iter().map(|(n, v)| (n, *v)).collect();
            assert_eq!(got, want, "{a}");
        }
    }

    #[test]
    fn longest_match_net_matches_trie() {
        let t = sample();
        let lpm = t.freeze();
        for n in [
            "17.5.3.0/24",
            "17.6.0.0/16",
            "17.0.0.0/8",
            "16.0.0.0/8",
            "2620:149:a:b::/64",
            "2620:149::/32",
            "2000::/3",
        ] {
            let n = net(n);
            assert_eq!(
                lpm.longest_match_net(&n).map(|(c, v)| (c, *v)),
                t.longest_match_net(&n).map(|(c, v)| (c, *v)),
                "{n}"
            );
        }
    }

    #[test]
    fn batch_equals_map_of_single_lookups() {
        let t = sample();
        let lpm = t.freeze();
        let addrs: Vec<IpAddr> = [
            "17.5.1.2",
            "8.8.8.8",
            "23.33.0.1",
            "2620:149::1",
            "2001:db8::1",
            "17.9.9.9",
            "198.51.100.7",
        ]
        .iter()
        .map(|s| addr(s))
        .collect();
        let mut out = Vec::new();
        lpm.lookup_batch(&addrs, &mut out);
        assert_eq!(out.len(), addrs.len());
        for (a, got) in addrs.iter().zip(&out) {
            assert_eq!(
                got.map(|(n, v)| (n, *v)),
                lpm.longest_match(*a).map(|(n, v)| (n, *v)),
                "{a}"
            );
        }
        // The output buffer is reused across calls.
        lpm.lookup_batch(&addrs[..2], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn from_pairs_later_duplicates_win() {
        let lpm = FrozenLpm::from_pairs([(net("10.0.0.0/8"), 1), (net("10.0.0.0/8"), 2)]);
        assert_eq!(lpm.len(), 1);
        assert_eq!(lpm.exact(&net("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn empty_freeze_answers_nothing() {
        let t: PrefixTrie<u8> = PrefixTrie::new();
        let lpm = t.freeze();
        assert!(lpm.is_empty());
        assert_eq!(lpm.len(), 0);
        assert!(lpm.longest_match(addr("1.2.3.4")).is_none());
        assert!(lpm.covering(addr("::1")).is_empty());
        let mut out = Vec::new();
        lpm.lookup_batch(&[addr("1.2.3.4"), addr("::1")], &mut out);
        assert_eq!(out, vec![None, None]);
    }

    #[test]
    fn wide_root_engages_on_large_tables() {
        // Cross the WIDE_ROOT_MIN threshold and verify lookups still agree.
        let mut t = PrefixTrie::new();
        for i in 0..5000u32 {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 8));
            t.insert(crate::prefix::Ipv4Net::clamped(a, 24), i);
        }
        let lpm = t.freeze();
        assert_eq!(lpm.len(), 5000);
        for i in (0..5000u32).step_by(97) {
            let a = IpAddr::V4(std::net::Ipv4Addr::from(0x0A00_0001 | (i << 8)));
            assert_eq!(
                lpm.longest_match(a).map(|(n, v)| (n, *v)),
                t.longest_match(a).map(|(n, v)| (n, *v))
            );
        }
    }

    #[test]
    fn iter_yields_all_pairs() {
        let t = sample();
        let lpm = t.freeze();
        let mut got: Vec<String> = lpm.iter().map(|(n, _)| n.to_string()).collect();
        got.sort();
        let mut want: Vec<String> = t.iter().map(|(n, _)| n.to_string()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn snapshot_shares_arenas_and_clone_needs_no_value_clone() {
        // A value type with no Clone impl still snapshots: the arenas are
        // behind one shared Arc.
        struct Opaque(#[allow(dead_code)] u8);
        let lpm = FrozenLpm::from_pairs([(net("10.0.0.0/8"), Opaque(7))]);
        let snap = lpm.snapshot();
        assert!(lpm.is_shared() && snap.is_shared());
        assert!(Arc::ptr_eq(&lpm.core, &snap.core));
        drop(snap);
        assert!(!lpm.is_shared());
    }

    #[test]
    fn longest_match_where_skips_filtered_prefixes() {
        let t = sample();
        let lpm = t.freeze();
        let a = addr("17.5.1.2");
        // Unfiltered: identical to the plain walk.
        assert_eq!(
            lpm.longest_match_where(a, |_| true).map(|(n, _)| n),
            lpm.longest_match(a).map(|(n, _)| n)
        );
        // Filtering the /16 falls back to the /8; filtering both falls
        // back to the default route.
        let skip16 = net("17.5.0.0/16");
        assert_eq!(
            lpm.longest_match_where(a, |n| *n != skip16).map(|(n, _)| n),
            Some(net("17.0.0.0/8"))
        );
        let skip8 = net("17.0.0.0/8");
        assert_eq!(
            lpm.longest_match_where(a, |n| *n != skip16 && *n != skip8)
                .map(|(n, _)| n),
            Some(net("0.0.0.0/0"))
        );
        assert_eq!(lpm.longest_match_where(a, |_| false), None);
        // The net-shaped variant respects the query length bound.
        assert_eq!(
            lpm.longest_match_net_where(&net("17.5.3.0/24"), |n| *n != skip16)
                .map(|(n, _)| n),
            Some(net("17.0.0.0/8"))
        );
    }
}
