//! A compiled, immutable longest-prefix-match engine.
//!
//! [`FrozenLpm::from_pairs`] compiles a prefix set into a flat
//! multi-bit-stride table in the LC-trie / tree-bitmap tradition — a
//! contiguous node array addressed by `u32` indices instead of per-node
//! `Box` pointers, with all values in one arena. A lookup consumes 8 or 16
//! address bits per step, so an IPv4 match costs at most three dependent
//! memory accesses (IPv6: sixteen) instead of up to 32 (128) pointer
//! chases, and the node array is cache-resident for realistic table sizes.
//!
//! [`longest_match`](FrozenLpm::longest_match), [`exact`](FrozenLpm::exact)
//! and [`longest_match_net`](FrozenLpm::longest_match_net) agree with a
//! linear scan of the source pairs on every input (property-tested in
//! `tests/prop_prefix_trie.rs`).
//! [`lookup_batch_map_in`](FrozenLpm::lookup_batch_map_in) resolves a burst
//! of addresses level by level, so the dependent load chains of different
//! lookups overlap in the memory pipeline.
//!
//! Besides the compiled arrays, each family keeps its keys sorted by
//! `(bits, len)` for the exact-membership queries, a root-chunk index into
//! them behind a 16-bit root (one `u32` start offset per chunk, so a search
//! touches one chunk's run of keys) and a count of keys per prefix length.
//!
//! Mutation under churn does not mean "throw the table away": the
//! [`overlay`](crate::overlay) module layers a bounded
//! [`DeltaOverlay`](crate::overlay::DeltaOverlay) of exact-prefix patches on
//! top of a frozen base, and
//! [`refreeze_subtree`](FrozenLpm::refreeze_subtree) folds the patches back
//! in place: it merges them into the key lists, one linear move of each,
//! and re-expands the compiled arrays only along each patch's own path.
//! The arenas sit behind one shared [`Arc`], so
//! [`snapshot`](FrozenLpm::snapshot) hands out copy-on-write epoch views: k
//! historical snapshots share one arena until a later compaction actually
//! diverges from them. [`PrefixTable`](crate::PrefixTable) owns that
//! fold/rebuild policy for the load-once tables.

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
/// the top 32 bits), the prefix length, and the value-arena index.
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

/// The bits below a `len`-bit prefix, all set: `bits | host_mask(len)` is
/// the last address a prefix at `bits` covers.
pub(crate) fn host_mask(len: u8) -> u128 {
    u128::MAX.checked_shr(u32::from(len)).unwrap_or(0)
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
/// ([`FrozenLpm::lookup_batch_map_in`]). A caller that keeps one scratch
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
            lanes: Vec::new(),
            active: Vec::new(),
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

/// One address family's share of a [`Core`]: its sorted keys, the
/// root-chunk index into them, its per-length key counts and its root.
#[derive(Debug, Clone)]
pub(crate) struct Family {
    /// Exactly the family's live prefixes, sorted by `(bits, len)`, for the
    /// exact-membership queries (`exact`, `longest_match_net`).
    pub(crate) keys: Vec<KeyRec>,
    /// Root-chunk index: `starts[c]` is the position in `keys` of the first
    /// key whose root chunk is `c` or later, and the last word is
    /// `keys.len()`. One word per chunk of a 16-bit root, plus one (65 537);
    /// empty behind an 8-bit root or none.
    pub(crate) starts: Vec<u32>,
    /// Stride of the root node, the width of the chunks `starts` indexes.
    pub(crate) stride: u8,
    /// Keys per prefix length, `0..=128`.
    pub(crate) counts: [u32; 129],
    /// The lengths with a non-zero count, ascending — bounds the probe
    /// loops of `longest_match_net` and the filtered matches.
    pub(crate) lens: Vec<u8>,
    pub(crate) root: u32,
}

impl Family {
    /// Compiles `keys` (sorted by `(bits, len)`, distinct) into a root in
    /// the shared arenas and indexes them.
    pub(crate) fn build(
        keys: Vec<KeyRec>,
        nodes: &mut Vec<Node>,
        entries: &mut Vec<Entry>,
    ) -> Family {
        let mut counts = [0u32; 129];
        for key in &keys {
            if let Some(c) = counts.get_mut(usize::from(key.len)) {
                *c = c.saturating_add(1);
            }
        }
        let mut family = Family {
            keys,
            starts: Vec::new(),
            stride: 0,
            counts,
            lens: Vec::new(),
            root: NONE,
        };
        family.rebuild_root(nodes, entries);
        family.derive_lens();
        family
    }

    /// Compiles a fresh root from the keys (or none for an empty family)
    /// and rebuilds the root-chunk index for its stride.
    pub(crate) fn rebuild_root(&mut self, nodes: &mut Vec<Node>, entries: &mut Vec<Entry>) {
        self.root = build_node(nodes, entries, &self.keys, 0);
        self.stride = nodes.get(self.root as usize).map_or(0, |n| n.stride);
        self.starts.clear();
        // Only a wide root is indexed. An 8-bit root means the family held
        // fewer than `WIDE_ROOT_MIN` prefixes when it was compiled: one
        // binary search over them is as short as the index lookup would
        // make it, and clustered keys (a few IPv6 blocks share one 8-bit
        // chunk) would make the lookup pure overhead.
        if self.root == NONE || self.stride <= 8 {
            return;
        }
        let chunks = 1usize.checked_shl(u32::from(self.stride)).unwrap_or(0);
        let shift = 128u32.saturating_sub(u32::from(self.stride));
        let mut at = 0usize;
        for c in 0..=chunks {
            while self
                .keys
                .get(at)
                .is_some_and(|k| chunk_of(k.bits, shift, self.stride) < c)
            {
                at = at.saturating_add(1);
            }
            self.starts.push(arena_idx(at));
        }
    }

    /// Re-derives `lens` from `counts`.
    pub(crate) fn derive_lens(&mut self) {
        self.lens.clear();
        self.lens.extend(
            (0..=128u8).filter(|&l| self.counts.get(usize::from(l)).is_some_and(|&c| c > 0)),
        );
    }

    /// The keys, seen through the root-chunk index.
    pub(crate) fn view(&self) -> KeyView<'_> {
        KeyView {
            keys: &self.keys,
            starts: &self.starts,
            stride: self.stride,
        }
    }
}

/// A sorted run of keys — a family's whole list, or the keys below one
/// node — with the root-chunk index when the run is a whole family behind
/// a wide root, so a search touches one root chunk's run instead of the
/// whole list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyView<'k> {
    pub(crate) keys: &'k [KeyRec],
    /// [`Family::starts`], or empty below the root or behind a narrow one.
    pub(crate) starts: &'k [u32],
    pub(crate) stride: u8,
}

impl<'k> KeyView<'k> {
    /// A run of keys with no index.
    pub(crate) fn plain(keys: &'k [KeyRec]) -> KeyView<'k> {
        KeyView {
            keys,
            starts: &[],
            stride: 0,
        }
    }

    /// The keys whose first `limit` bits equal those of `bits`, as an
    /// offset into `keys` and a slice. At the root (`limit` equal to the
    /// indexed stride) the index answers; elsewhere two binary searches.
    pub(crate) fn chunk(&self, bits: u128, limit: u8) -> (usize, &'k [KeyRec]) {
        if !self.starts.is_empty() && limit == self.stride {
            let c = chunk_of(bits, 128u32.saturating_sub(u32::from(limit)), limit);
            let (lo, hi) = match (self.starts.get(c), self.starts.get(c.saturating_add(1))) {
                (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
                _ => (0, 0),
            };
            return (lo, self.keys.get(lo..hi).unwrap_or_default());
        }
        let lo_bits = mask_bits(bits, limit);
        let hi_bits = lo_bits | host_mask(limit);
        let lo = self.keys.partition_point(|k| k.bits < lo_bits);
        let hi = self.keys.partition_point(|k| k.bits <= hi_bits);
        (lo, self.keys.get(lo..hi).unwrap_or_default())
    }

    /// Position of the first key not below `(bits, len)`.
    pub(crate) fn lower_bound(&self, bits: u128, len: u8) -> usize {
        let (lo, run) = if self.starts.is_empty() {
            (0, self.keys)
        } else {
            self.chunk(bits, self.stride)
        };
        lo.saturating_add(run.partition_point(|k| (k.bits, k.len) < (bits, len)))
    }

    /// The key `(bits, len)`: `Ok` with its position, or `Err` with the
    /// position it would be inserted at.
    pub(crate) fn position(&self, bits: u128, len: u8) -> Result<usize, usize> {
        let at = self.lower_bound(bits, len);
        match self.keys.get(at) {
            Some(k) if k.bits == bits && k.len == len => Ok(at),
            _ => Err(at),
        }
    }

    /// The key `(bits, len)`, if stored.
    pub(crate) fn find(&self, bits: u128, len: u8) -> Option<&'k KeyRec> {
        self.position(bits, len)
            .ok()
            .and_then(|at| self.keys.get(at))
    }
}

/// The arenas behind a [`FrozenLpm`], shared copy-on-write between the
/// live table and its epoch [snapshots](FrozenLpm::snapshot). A
/// [`refreeze_subtree`](FrozenLpm::refreeze_subtree) rewrites them in
/// place; the value slots it retires and the subtrees it unlinks stay
/// behind as dead words, counted in `dead_values` and `dead_trie`. Each
/// family's `keys` always hold exactly the live prefixes.
#[derive(Debug, Clone)]
pub(crate) struct Core<V> {
    pub(crate) nodes: Vec<Node>,
    pub(crate) entries: Vec<Entry>,
    /// Value arena: every live `(prefix, value)` pair, plus the dead slots
    /// of withdrawn and re-announced prefixes.
    pub(crate) values: Vec<(IpNet, V)>,
    pub(crate) v4: Family,
    pub(crate) v6: Family,
    /// Value slots no key references any more.
    pub(crate) dead_values: usize,
    /// Nodes and entries of unlinked subtrees, one word each.
    pub(crate) dead_trie: usize,
}

/// An immutable, flat-layout longest-prefix-match table.
///
/// Built with [`FrozenLpm::from_pairs`]; see the module docs for the
/// layout. The table owns its values and never changes in place except
/// through [`refreeze_subtree`](FrozenLpm::refreeze_subtree), which folds
/// a [`DeltaOverlay`](crate::overlay::DeltaOverlay) of pending patches in.
///
/// ```
/// use tectonic_net::{FrozenLpm, IpNet};
///
/// let net = |s: &str| s.parse::<IpNet>().unwrap();
/// let lpm = FrozenLpm::from_pairs([
///     (net("17.0.0.0/8"), "apple"),
///     (net("17.5.0.0/16"), "apple-dc"),
/// ]);
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

impl<V> FrozenLpm<V> {
    /// Compiles an explicit `(prefix, value)` list. Later duplicates of the
    /// same prefix replace earlier ones, as repeated map inserts would.
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

        // Room for the value slots of at least one fold, which appends one
        // per announce: a table folds once its patches reach an eighth of
        // it (or 4 096), so the first fold never has to move the arena.
        let room = raw.len().saturating_add(raw.len() / 8);
        let mut values: Vec<(IpNet, V)> = Vec::with_capacity(room);
        let mut keys_v4: Vec<KeyRec> = Vec::new();
        let mut keys_v6: Vec<KeyRec> = Vec::new();
        let mut raw = raw.into_iter().peekable();
        while let Some(r) = raw.next() {
            // A later duplicate of the same prefix replaces this one: keep
            // only the last of each run.
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
        // exactly the (bits, len) order the query paths rely on. The staging
        // list is spent: free it before the compile allocates the trie.
        drop(raw);

        let mut nodes = Vec::new();
        let mut entries = Vec::new();
        let v4 = Family::build(keys_v4, &mut nodes, &mut entries);
        let v6 = Family::build(keys_v6, &mut nodes, &mut entries);
        FrozenLpm {
            core: Arc::new(Core {
                nodes,
                entries,
                values,
                v4,
                v6,
                dead_values: 0,
                dead_trie: 0,
            }),
        }
    }

    /// Number of stored prefixes (both families). Counted from the key
    /// lists, not the value arena — after a
    /// [`refreeze_subtree`](FrozenLpm::refreeze_subtree) the arena may hold
    /// dead slots that no longer exist logically.
    pub fn len(&self) -> usize {
        self.core
            .v4
            .keys
            .len()
            .saturating_add(self.core.v6.keys.len())
    }

    /// `true` when no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.core.v4.keys.is_empty() && self.core.v6.keys.is_empty()
    }

    /// Dead arena words left behind by folds: the value slots of withdrawn
    /// and re-announced prefixes, plus the node and entry words of the
    /// subtrees a fold unlinked. A node, an entry and a value slot count
    /// one word each.
    pub fn garbage(&self) -> usize {
        self.core.dead_values.saturating_add(self.core.dead_trie)
    }

    /// Whether the dead words outnumber the live ones in the value arena or
    /// in the node and entry arenas — the owner's signal that a full
    /// rebuild would pay for itself. Rebuilding then keeps each arena
    /// within twice the words [`from_pairs`](FrozenLpm::from_pairs) builds
    /// for the same prefixes, give or take a root frozen at the other
    /// width.
    pub(crate) fn mostly_garbage(&self) -> bool {
        let core = &self.core;
        let trie = core.nodes.len().saturating_add(core.entries.len());
        core.dead_values > core.values.len().saturating_sub(core.dead_values)
            || core.dead_trie > trie.saturating_sub(core.dead_trie)
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
        let mut idx = self.family(v4).root;
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

    /// Longest-prefix match for an address: the most specific stored
    /// prefix containing `addr`.
    pub fn longest_match(&self, addr: IpAddr) -> Option<(IpNet, &V)> {
        let (bits, v4) = addr_bits(&addr);
        let best = self.lookup_idx(bits, v4);
        self.core.values.get(best as usize).map(|(n, v)| (*n, v))
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

    /// Resolves a burst of addresses in one call: `out` is cleared and
    /// receives `f(longest_match(a))` for each address, in order. Callers
    /// that store a derived type (the RIB keeps `(prefix, origin)`) reuse
    /// their typed buffer with no intermediate allocation.
    ///
    /// The walk is level-synchronous: every pass advances all still-live
    /// lookups one node, so within a pass the node/entry loads of different
    /// addresses are independent and overlap in the memory pipeline instead
    /// of serialising down one walk at a time. Walk state lives in
    /// `scratch`, results in `out`, both owned by the caller and reused
    /// across bursts, so the kernel allocates nothing once they have grown.
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
            (b, self.family(v4).root, NONE)
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

    pub(crate) fn family(&self, v4: bool) -> &Family {
        if v4 {
            &self.core.v4
        } else {
            &self.core.v6
        }
    }

    fn lens(&self, v4: bool) -> &[u8] {
        &self.family(v4).lens
    }

    /// The stored key `(bits, len)`: one binary search inside its root
    /// chunk's run.
    pub(crate) fn find_key(&self, bits: u128, len: u8, v4: bool) -> Option<&KeyRec> {
        self.family(v4).view().find(bits, len)
    }

    /// Exact-prefix lookup: the value stored under exactly `net`.
    pub fn exact(&self, net: &IpNet) -> Option<&V> {
        let (bits, len, v4) = net_bits(net);
        let key = self.find_key(bits, len, v4)?;
        self.core.values.get(key.value as usize).map(|(_, v)| v)
    }

    /// The most specific stored prefix fully containing `net` (possibly
    /// `net` itself).
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
            .v4
            .keys
            .iter()
            .chain(self.core.v6.keys.iter())
            .filter_map(|k| self.core.values.get(k.value as usize))
            .map(|(n, v)| (*n, v))
    }
}

/// Writes `value` into the value slot of every entry a prefix of `len`
/// bits at `bits` spans, in the block at `off` of a node that ends at
/// `limit` bits with `stride`-bit chunks.
pub(crate) fn expand(
    entries: &mut [Entry],
    off: usize,
    (limit, stride): (u8, u8),
    (bits, len): (u128, u8),
    value: u32,
) {
    let lo = off.saturating_add(chunk_of(
        bits,
        128u32.saturating_sub(u32::from(limit)),
        stride,
    ));
    let count = 1usize
        .checked_shl(u32::from(limit.saturating_sub(len)))
        .unwrap_or(0);
    if let Some(span) = entries.get_mut(lo..lo.saturating_add(count)) {
        for entry in span {
            entry.value = value;
        }
    }
}

/// Recursively compiles one node from the (sorted) keys that live at or
/// below `base`, appending its block and then its subtrees to the arenas.
/// Returns the node index, or `NONE` for an empty key set.
///
/// The keys are expanded in their sorted `(bits, len)` order. A covering
/// prefix sorts before every prefix it covers, so the more specific one
/// overwrites it and each entry ends up holding the most specific in-node
/// match for its chunk. The keys of one chunk that end inside the node
/// sort before the chunk's deeper keys, so each chunk's deeper keys are
/// one run, compiled into the chunk's child.
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
    let shift = 128u32.saturating_sub(u32::from(limit));
    let off = entries.len();
    let block_len = 1usize.checked_shl(u32::from(stride)).unwrap_or(0);
    entries.resize(off.saturating_add(block_len), EMPTY_ENTRY);
    let idx = arena_idx(nodes.len());
    nodes.push(Node {
        entries_off: arena_idx(off),
        value: NONE,
        base,
        stride,
    });
    let mut at = 0usize;
    while let Some(key) = keys.get(at) {
        if key.len <= limit {
            if key.len == base {
                if let Some(node) = nodes.get_mut(idx as usize) {
                    node.value = key.value;
                }
            } else {
                expand(
                    entries,
                    off,
                    (limit, stride),
                    (key.bits, key.len),
                    key.value,
                );
            }
            at = at.saturating_add(1);
            continue;
        }
        let chunk = chunk_of(key.bits, shift, stride);
        let rest = keys.get(at..).unwrap_or_default();
        let run = rest.partition_point(|k| chunk_of(k.bits, shift, stride) == chunk);
        let child = build_node(nodes, entries, rest.get(..run).unwrap_or_default(), limit);
        if let Some(entry) = entries.get_mut(off.saturating_add(chunk)) {
            entry.child = child;
        }
        at = at.saturating_add(run);
    }
    idx
}

/// Arena words of the subtree rooted at `idx`: its nodes and their entry
/// blocks.
pub(crate) fn subtree_words(nodes: &[Node], entries: &[Entry], idx: u32) -> usize {
    let Some(node) = nodes.get(idx as usize) else {
        return 0;
    };
    let off = node.entries_off as usize;
    let block_len = 1usize.checked_shl(u32::from(node.stride)).unwrap_or(0);
    entries
        .get(off..off.saturating_add(block_len))
        .unwrap_or_default()
        .iter()
        .filter(|e| e.child != NONE)
        .fold(block_len.saturating_add(1), |words, e| {
            words.saturating_add(subtree_words(nodes, entries, e.child))
        })
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

    fn sample() -> Vec<(IpNet, &'static str)> {
        [
            ("0.0.0.0/0", "default"),
            ("17.0.0.0/8", "apple8"),
            ("17.5.0.0/16", "apple16"),
            ("23.32.0.0/11", "akamai"),
            ("2620:149::/32", "apple6"),
            ("2620:149:a::/48", "apple6-dc"),
            ("198.51.100.7/32", "host"),
        ]
        .into_iter()
        .map(|(n, v)| (net(n), v))
        .collect()
    }

    /// The most specific pair whose prefix satisfies `covers`, by linear
    /// scan — the oracle the compiled walk is checked against.
    fn linear_match(
        pairs: &[(IpNet, &'static str)],
        covers: impl Fn(&IpNet) -> bool,
    ) -> Option<(IpNet, &'static str)> {
        pairs
            .iter()
            .filter(|(n, _)| covers(n))
            .max_by_key(|(n, _)| n.len())
            .copied()
    }

    #[test]
    fn longest_match_agrees_with_linear_scan() {
        let pairs = sample();
        let lpm = FrozenLpm::from_pairs(pairs.clone());
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
                linear_match(&pairs, |n| n.contains(a)),
                "{a}"
            );
        }
    }

    #[test]
    fn no_v6_default_means_v6_miss() {
        let lpm = FrozenLpm::from_pairs(sample());
        assert!(lpm.longest_match(addr("2001:db8::1")).is_none());
        assert_eq!(lpm.longest_match(addr("8.8.8.8")).unwrap().1, &"default");
    }

    #[test]
    fn exact_finds_only_stored_prefixes() {
        let pairs = sample();
        let lpm = FrozenLpm::from_pairs(pairs.clone());
        for n in ["17.0.0.0/8", "17.5.0.0/16", "17.0.0.0/16", "::/0"] {
            let n = net(n);
            let want = pairs.iter().find(|(m, _)| *m == n).map(|(_, v)| v);
            assert_eq!(lpm.exact(&n), want, "{n}");
        }
    }

    #[test]
    fn longest_match_net_agrees_with_linear_scan() {
        let pairs = sample();
        let lpm = FrozenLpm::from_pairs(pairs.clone());
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
                linear_match(&pairs, |c| c.contains_net(&n)),
                "{n}"
            );
        }
    }

    #[test]
    fn batch_equals_map_of_single_lookups() {
        let lpm = FrozenLpm::from_pairs(sample());
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
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        lpm.lookup_batch_map_in(&mut scratch, &addrs, &mut out, |m| m);
        assert_eq!(out.len(), addrs.len());
        for (a, got) in addrs.iter().zip(&out) {
            assert_eq!(
                got.map(|(n, v)| (n, *v)),
                lpm.longest_match(*a).map(|(n, v)| (n, *v)),
                "{a}"
            );
        }
        // The scratch and the output buffer are reused across calls.
        lpm.lookup_batch_map_in(&mut scratch, &addrs[..2], &mut out, |m| m);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn from_pairs_later_duplicates_win() {
        let lpm = FrozenLpm::from_pairs([(net("10.0.0.0/8"), 1), (net("10.0.0.0/8"), 2)]);
        assert_eq!(lpm.len(), 1);
        assert_eq!(lpm.exact(&net("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn empty_table_answers_nothing() {
        let lpm: FrozenLpm<u8> = FrozenLpm::from_pairs([]);
        assert!(lpm.is_empty());
        assert_eq!(lpm.len(), 0);
        assert!(lpm.longest_match(addr("1.2.3.4")).is_none());
        assert!(lpm.longest_match_net(&net("::/0")).is_none());
        let mut out = Vec::new();
        lpm.lookup_batch_map_in(
            &mut BatchScratch::new(),
            &[addr("1.2.3.4"), addr("::1")],
            &mut out,
            |m| m,
        );
        assert_eq!(out, vec![None, None]);
    }

    #[test]
    fn wide_root_engages_on_large_tables() {
        // Cross the WIDE_ROOT_MIN threshold and verify lookups still land
        // in the /24 each address was drawn from.
        let slash24 = |i: u32| {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 8));
            IpNet::V4(crate::prefix::Ipv4Net::clamped(a, 24))
        };
        let lpm = FrozenLpm::from_pairs((0..5000u32).map(|i| (slash24(i), i)));
        assert_eq!(lpm.len(), 5000);
        for i in (0..5000u32).step_by(97) {
            let a = IpAddr::V4(std::net::Ipv4Addr::from(0x0A00_0001 | (i << 8)));
            assert_eq!(
                lpm.longest_match(a).map(|(n, v)| (n, *v)),
                Some((slash24(i), i))
            );
        }
    }

    #[test]
    fn root_width_follows_each_family_size() {
        // A family compiles a 16-bit root from `WIDE_ROOT_MIN` prefixes up
        // and an 8-bit one below, whatever the other family holds.
        let v4 = |i: u32| {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 8));
            IpNet::V4(crate::prefix::Ipv4Net::clamped(a, 24))
        };
        let v6 = |i: u32| {
            let a = std::net::Ipv6Addr::from(0x2001u128 << 112 | u128::from(i) << 64);
            IpNet::V6(crate::prefix::Ipv6Net::clamped(a, 64))
        };
        let n = WIDE_ROOT_MIN as u32;
        for (n4, n6, strides) in [(n, n - 1, (16, 8)), (n - 1, n, (8, 16))] {
            let lpm = FrozenLpm::from_pairs(
                (0..n4)
                    .map(|i| (v4(i), i))
                    .chain((0..n6).map(|i| (v6(i), i))),
            );
            assert_eq!((lpm.core.v4.stride, lpm.core.v6.stride), strides);
        }
    }

    #[test]
    fn iter_yields_all_pairs() {
        let pairs = sample();
        let lpm = FrozenLpm::from_pairs(pairs.clone());
        let mut got: Vec<(IpNet, &str)> = lpm.iter().map(|(n, v)| (n, *v)).collect();
        got.sort();
        let mut want = pairs;
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
        let lpm = FrozenLpm::from_pairs(sample());
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
