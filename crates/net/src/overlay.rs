//! Delta overlay and partial re-freeze for [`FrozenLpm`].
//!
//! A [`DeltaOverlay`] absorbs announce/withdraw churn as exact-prefix
//! patches layered *over* a frozen base, so a mutation is one sorted
//! insert into at most a few thousand patches instead of an O(table)
//! rebuild. Every combined query is result-identical to freezing
//! `base ∪ announces ∖ withdraws` from scratch (property-tested in
//! `tests/prop_prefix_trie.rs`):
//!
//! - Every patch lives in one vector sorted by `(family, bits, len)`. An
//!   **announce** stores its value there (and, if it shadows a base prefix,
//!   simply wins the length tie — exactly what a re-insert into the source
//!   table would do).
//! - A **withdraw** of a base prefix becomes a *tombstone*, a patch without
//!   a value: the frozen walk still finds the prefix, so the combined
//!   lookup must reject it and fall back to the next-best surviving
//!   covering prefix via [`FrozenLpm::longest_match_where`]. Withdrawing an
//!   overlay-only announce just removes the patch.
//! - A **dirty-chunk index** keeps one bit per 16-bit root chunk per
//!   family, set for every chunk a patch touches (a patch shorter than /16
//!   marks its whole chunk range). A read whose address falls in a clean
//!   chunk is answered by the base alone. A read in a dirty chunk pays one
//!   binary search to the chunk's run of patches and a scan of that run;
//!   only when the run holds no covering patch does it also probe once per
//!   patch length shorter than /16.
//!
//! Steady-state combined lookups are allocation-free, and when the overlay
//! is empty every query is a single delegated call to the base — which is
//! how the overlay keeps the ≤ 10% lookup-regression budget.
//!
//! Once the overlay crosses [`DeltaOverlay::should_compact`],
//! [`FrozenLpm::refreeze_subtree`] folds the patches into the base in
//! place. It merges them into each family's sorted key list without a
//! second buffer, one linear move of the list from the first edit on, and
//! keeps the per-length counts and the root-chunk index up to date by
//! their deltas. Then, at a cost in proportion to the patches, it walks
//! each patch from the root to the node it ends in and re-expands only
//! the entry range the patch spans there. Surviving nodes
//! are rewritten in their own entry blocks, so the node and entry arenas
//! grow only when a chunk gains its first deeper prefix. A chunk that loses
//! its last one is unlinked; its words, and the value slots of withdrawn
//! and re-announced prefixes, stay behind as garbage, which
//! [`FrozenLpm::garbage`] counts.

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

use crate::lpm::{
    addr_bits, arena_idx, build_node, chunk_of, expand, host_mask, mask_bits, net_bits,
    subtree_words, BatchScratch, Core, Entry, Family, FrozenLpm, KeyRec, KeyView, Node, NONE,
};
use crate::prefix::IpNet;

/// One pending mutation against the frozen base, in the compiled key
/// space: `bits` left-aligned as in [`KeyRec`], `value` the announced
/// value, or `None` for a tombstone (a withdraw of a base prefix).
#[derive(Debug, Clone)]
struct Patch<V> {
    v4: bool,
    bits: u128,
    len: u8,
    net: IpNet,
    value: Option<V>,
}

impl<V> Patch<V> {
    /// The announced `(prefix, value)`, or `None` for a tombstone.
    fn live(&self) -> Option<(IpNet, &V)> {
        self.value.as_ref().map(|v| (self.net, v))
    }
}

/// Hard patch-count ceiling: past this the overlay's own probe costs start
/// to show, so [`DeltaOverlay::should_compact`] fires regardless of base
/// size.
const MAX_PATCHES: usize = 4096;
/// Don't bother compacting below this many patches — a subtree rebuild has
/// fixed costs that a handful of patches never amortise.
const MIN_COMPACT: usize = 64;
/// Between the two bounds, compact once patches exceed 1/RATIO of the base.
const COMPACT_RATIO: usize = 8;

/// Width of a dirty-index chunk: the top 16 bits of an address.
const CHUNK_LEN: u8 = 16;
/// Shift that brings a left-aligned key's top [`CHUNK_LEN`] bits down.
const CHUNK_SHIFT: u32 = 128 - CHUNK_LEN as u32;
/// Words of the dirty-chunk index per family (8 KiB each).
const CHUNK_WORDS: usize = (1 << CHUNK_LEN) / 64;

/// A bounded set of exact-prefix patches (announces + withdraw tombstones)
/// consulted after the frozen walk. See the [module docs](self) for the
/// combine semantics; see [`FrozenLpm::refreeze_subtree`] for how the
/// patches are eventually folded back into the base.
#[derive(Debug, Clone)]
pub struct DeltaOverlay<V> {
    /// All patches — announces and tombstones — sorted by
    /// `(v4, bits, len)`, so membership and chunk-run scans are binary
    /// searches.
    patches: Vec<Patch<V>>,
    /// Number of tombstones in `patches`; reads test a base match against
    /// them only when this is non-zero.
    tombs: usize,
    /// One bit per root chunk, IPv6 chunks first, then IPv4: set for every
    /// chunk a patch recorded since the last [`clear`](DeltaOverlay::clear)
    /// touches. Empty until the first patch.
    dirty: Vec<u64>,
    /// Bit `l` is set when a patch of length `l` < [`CHUNK_LEN`] was
    /// recorded in that family since the last clear.
    short_v4: u16,
    short_v6: u16,
}

impl<V> Default for DeltaOverlay<V> {
    fn default() -> Self {
        DeltaOverlay::new()
    }
}

impl<V> DeltaOverlay<V> {
    /// An empty overlay: every combined query delegates straight to the
    /// base.
    pub fn new() -> DeltaOverlay<V> {
        DeltaOverlay {
            patches: Vec::new(),
            tombs: 0,
            dirty: Vec::new(),
            short_v4: 0,
            short_v6: 0,
        }
    }

    /// Number of pending patches (announces + tombstones).
    pub fn len(&self) -> usize {
        self.patches.len()
    }

    /// `true` when no patch is pending — the overlay is transparent.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// Number of pending withdraw tombstones.
    pub fn tombstones(&self) -> usize {
        self.tombs
    }

    /// Drops all pending patches (after they have been folded into the
    /// base, or when the base itself is rebuilt from source).
    pub fn clear(&mut self) {
        self.patches.clear();
        self.dirty.fill(0);
        self.short_v4 = 0;
        self.short_v6 = 0;
        self.tombs = 0;
    }

    /// Whether the owner should fold this overlay into its base now:
    /// either the hard patch ceiling is hit, or the overlay has grown past
    /// a fixed fraction of a `base_len`-prefix table (never below the
    /// minimum worth a subtree rebuild).
    pub fn should_compact(&self, base_len: usize) -> bool {
        let n = self.patches.len();
        n >= MAX_PATCHES || (n >= MIN_COMPACT && n.saturating_mul(COMPACT_RATIO) >= base_len)
    }

    /// Position of `(v4, bits, len)` in the sorted patch list.
    fn patch_pos(&self, v4: bool, bits: u128, len: u8) -> Result<usize, usize> {
        self.patches
            .binary_search_by(|p| (p.v4, p.bits, p.len).cmp(&(v4, bits, len)))
    }

    /// The patch for exactly `(v4, bits, len)`, if one is pending.
    fn find_patch(&self, v4: bool, bits: u128, len: u8) -> Option<&Patch<V>> {
        self.patch_pos(v4, bits, len)
            .ok()
            .and_then(|at| self.patches.get(at))
    }

    /// One family's patches: IPv6 sorts first (`v4 = false`).
    fn family_patches(&self, v4: bool) -> &[Patch<V>] {
        let split = self.patches.partition_point(|p| !p.v4);
        let range = if v4 {
            self.patches.get(split..)
        } else {
            self.patches.get(..split)
        };
        range.unwrap_or_default()
    }

    /// Whether a patch may touch the root chunk of left-aligned `bits`.
    #[inline]
    fn is_dirty(&self, v4: bool, bits: u128) -> bool {
        let bit = dirty_bit(v4, chunk_of(bits, CHUNK_SHIFT, CHUNK_LEN));
        self.dirty
            .get(bit / 64)
            .is_some_and(|w| (w >> (bit % 64)) & 1 != 0)
    }

    /// Inserts `patch` at its sorted position `at` and marks every root
    /// chunk it spans dirty.
    fn insert_patch(&mut self, at: usize, patch: Patch<V>) {
        if self.dirty.is_empty() {
            self.dirty = vec![0; 2 * CHUNK_WORDS];
        }
        let first = dirty_bit(patch.v4, chunk_of(patch.bits, CHUNK_SHIFT, CHUNK_LEN));
        // A prefix shorter than a chunk spans 2^(CHUNK_LEN - len) chunks,
        // aligned to that count: whole words from 64 chunks up, else a run
        // of bits inside one word.
        let span = 1usize << CHUNK_LEN.saturating_sub(patch.len);
        if span >= 64 {
            for w in self.dirty.iter_mut().skip(first / 64).take(span / 64) {
                *w = u64::MAX;
            }
        } else if let Some(w) = self.dirty.get_mut(first / 64) {
            *w |= (1u64 << span).wrapping_sub(1) << (first % 64);
        }
        if patch.len < CHUNK_LEN {
            let short = if patch.v4 {
                &mut self.short_v4
            } else {
                &mut self.short_v6
            };
            *short |= 1u16 << patch.len;
        }
        self.patches.insert(at, patch);
    }

    /// Records an announce: the prefix now maps to `value` in the combined
    /// view, whether it was new, previously withdrawn, or already present
    /// in the base (length ties resolve to the overlay).
    pub fn announce(&mut self, net: IpNet, value: V) {
        let (bits, len, v4) = net_bits(&net);
        match self.patch_pos(v4, bits, len) {
            Ok(at) => {
                if let Some(p) = self.patches.get_mut(at) {
                    if p.value.is_none() {
                        self.tombs = self.tombs.saturating_sub(1);
                    }
                    p.value = Some(value);
                }
            }
            Err(at) => self.insert_patch(
                at,
                Patch {
                    v4,
                    bits,
                    len,
                    net,
                    value: Some(value),
                },
            ),
        }
    }

    /// Records a withdraw against `base`: if the prefix exists in the base
    /// a tombstone is planted (the frozen arena can't forget it until the
    /// next compaction); an overlay-only announce is simply removed.
    /// Returns the overlay value that was dropped, if any.
    pub fn withdraw(&mut self, net: &IpNet, base: &FrozenLpm<V>) -> Option<V> {
        self.withdraw_probed(net, base.exact(net).is_some())
            .flatten()
    }

    /// [`withdraw`](DeltaOverlay::withdraw) for a caller that has already
    /// probed the base: `in_base` tells whether the base stores `net`.
    /// Returns `None` when no patch for `net` was pending, else the value
    /// the patch held (`None` for a tombstone).
    pub(crate) fn withdraw_probed(&mut self, net: &IpNet, in_base: bool) -> Option<Option<V>> {
        let (bits, len, v4) = net_bits(net);
        match self.patch_pos(v4, bits, len) {
            Ok(at) if in_base => {
                let p = self.patches.get_mut(at)?;
                let held = p.value.take();
                if held.is_some() {
                    self.tombs = self.tombs.saturating_add(1);
                }
                Some(held)
            }
            Ok(at) => Some(self.patches.remove(at).value),
            Err(at) => {
                if in_base {
                    self.insert_patch(
                        at,
                        Patch {
                            v4,
                            bits,
                            len,
                            net: *net,
                            value: None,
                        },
                    );
                    self.tombs = self.tombs.saturating_add(1);
                }
                None
            }
        }
    }

    /// Whether `net` is currently tombstoned in this overlay (withdrawn
    /// from the base and not re-announced since).
    pub fn is_tombstoned(&self, net: &IpNet) -> bool {
        if self.tombs == 0 {
            return false;
        }
        let (bits, len, v4) = net_bits(net);
        self.is_dirty(v4, bits)
            && matches!(self.find_patch(v4, bits, len), Some(p) if p.value.is_none())
    }

    /// The announced (or re-announced) patches, IPv4 first, each family in
    /// ascending `(address, length)` order — `IpNet`'s order, although the
    /// patch list itself sorts IPv6 first.
    pub(crate) fn announced(&self) -> impl Iterator<Item = (IpNet, &V)> {
        self.family_patches(true)
            .iter()
            .chain(self.family_patches(false))
            .filter_map(Patch::live)
    }

    /// The most specific announced patch of family `v4` covering `bits`
    /// at no more than `max` bits.
    ///
    /// A covering patch of at least [`CHUNK_LEN`] bits starts in the root
    /// chunk of `bits` and sorts at or before `(bits, max)`, so one binary
    /// search finds the end of its run and the scan walks back to the
    /// chunk's start. Covering prefixes nest, so the first live one met is
    /// the longest. Only when the run has none can a shorter patch win;
    /// those are probed once per length recorded in the family.
    fn patch_match(&self, v4: bool, bits: u128, max: u8) -> Option<(IpNet, &V)> {
        let lo = mask_bits(bits, CHUNK_LEN);
        let end = self
            .patches
            .partition_point(|p| (p.v4, p.bits, p.len) <= (v4, bits, max));
        let short = if v4 { self.short_v4 } else { self.short_v6 };
        self.patches
            .get(..end)
            .unwrap_or_default()
            .iter()
            .rev()
            .take_while(|p| p.v4 == v4 && p.bits >= lo)
            .filter(|p| p.len <= max && mask_bits(bits, p.len) == p.bits)
            .find_map(Patch::live)
            .or_else(|| {
                (0..CHUNK_LEN)
                    .rev()
                    .filter(|&l| l <= max && (short >> l) & 1 != 0)
                    .find_map(|l| self.find_patch(v4, mask_bits(bits, l), l)?.live())
            })
    }

    /// Picks the combined winner of an overlay match and a base match:
    /// more specific wins; on equal length the overlay wins (it re-announced
    /// the prefix, shadowing the stale base value).
    fn better<'a>(
        ov: Option<(IpNet, &'a V)>,
        base: Option<(IpNet, &'a V)>,
    ) -> Option<(IpNet, &'a V)> {
        match (ov, base) {
            (Some(o), Some(b)) => {
                if b.0.len() > o.0.len() {
                    Some(b)
                } else {
                    Some(o)
                }
            }
            (Some(o), None) => Some(o),
            (None, b) => b,
        }
    }

    /// Combines the base's raw longest match `bm` for `addr` with the
    /// patches. Clean chunk: `bm` stands. Dirty chunk: a tombstoned `bm`
    /// falls back to the base's best surviving match, which then competes
    /// with the best announced patch.
    #[inline]
    fn combine<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        addr: IpAddr,
        bm: Option<(IpNet, &'a V)>,
    ) -> Option<(IpNet, &'a V)> {
        let (bits, v4) = addr_bits(&addr);
        if !self.is_dirty(v4, bits) {
            return bm;
        }
        let bm = match bm {
            Some((n, _)) if self.is_tombstoned(&n) => {
                base.longest_match_where(addr, |n| !self.is_tombstoned(n))
            }
            other => other,
        };
        Self::better(self.patch_match(v4, bits, if v4 { 32 } else { 128 }), bm)
    }

    /// Combined longest-prefix match — identical to freezing the patched
    /// table and calling [`FrozenLpm::longest_match`].
    pub fn longest_match<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        addr: IpAddr,
    ) -> Option<(IpNet, &'a V)> {
        self.combine(base, addr, base.longest_match(addr))
    }

    /// Combined exact-prefix lookup — identical to
    /// [`FrozenLpm::exact`] on the patched table.
    pub fn exact<'a>(&'a self, base: &'a FrozenLpm<V>, net: &IpNet) -> Option<&'a V> {
        let (bits, len, v4) = net_bits(net);
        if !self.is_dirty(v4, bits) {
            return base.exact(net);
        }
        match self.find_patch(v4, bits, len) {
            Some(p) => p.value.as_ref(),
            None => base.exact(net),
        }
    }

    /// Combined [`FrozenLpm::longest_match_net`]: the most specific
    /// surviving prefix fully containing `net`. Any patch containing `net`
    /// marks the chunk of `net`'s first address.
    pub fn longest_match_net<'a>(
        &'a self,
        base: &'a FrozenLpm<V>,
        net: &IpNet,
    ) -> Option<(IpNet, &'a V)> {
        let (bits, len, v4) = net_bits(net);
        if !self.is_dirty(v4, bits) {
            return base.longest_match_net(net);
        }
        let bm = match base.longest_match_net(net) {
            Some((n, _)) if self.is_tombstoned(&n) => {
                base.longest_match_net_where(net, |n| !self.is_tombstoned(n))
            }
            other => other,
        };
        Self::better(self.patch_match(v4, bits, len), bm)
    }

    /// Combined batch lookup with an inline projection, the overlay
    /// counterpart of [`FrozenLpm::lookup_batch_map_in`]: `out` receives
    /// `f(longest_match(base, a))` for each address, in order. The frozen
    /// batch kernel drives the walk; each raw base match whose address
    /// falls in a dirty chunk is combined with the patches before `f` sees
    /// it. Allocation-free once the scratch and output buffers have grown
    /// to the burst size (tombstone fallbacks probe, they do not
    /// allocate). Relies on the kernel's documented contract that the
    /// projection runs exactly once per input address, in input order.
    pub fn lookup_batch_map_in<'a, T>(
        &'a self,
        base: &'a FrozenLpm<V>,
        scratch: &mut BatchScratch,
        addrs: &[IpAddr],
        out: &mut Vec<T>,
        mut f: impl FnMut(Option<(IpNet, &'a V)>) -> T,
    ) {
        if self.patches.is_empty() {
            base.lookup_batch_map_in(scratch, addrs, out, f);
            return;
        }
        let mut i: usize = 0;
        base.lookup_batch_map_in(scratch, addrs, out, |bm| {
            let combined = match addrs.get(i) {
                Some(a) => self.combine(base, *a, bm),
                None => None,
            };
            i = i.saturating_add(1);
            f(combined)
        });
    }
}

/// Bit of the dirty-chunk index for root `chunk` of family `v4`.
#[inline]
fn dirty_bit(v4: bool, chunk: usize) -> usize {
    if v4 {
        chunk | (1 << CHUNK_LEN)
    } else {
        chunk
    }
}

impl<V: Clone> FrozenLpm<V> {
    /// Folds a [`DeltaOverlay`] into this table in place, rewriting the
    /// compiled arrays only along the patched paths. The caller owns
    /// clearing the overlay afterwards (and, per [`FrozenLpm::garbage`],
    /// deciding when the dead words folds leave behind warrant a full
    /// rebuild).
    ///
    /// Per patched family, the patches are first merged into the sorted key
    /// list in place: each is found through the root-chunk index, the
    /// untouched runs between them shift once (one linear move of the list
    /// from the first edit on), and the per-length counts and the index
    /// move by the patches' deltas. Then each patch is walked
    /// from the root to the node it ends in, and only the entry range it
    /// spans is re-expanded there (see `Fold::node`). A surviving node is
    /// rewritten in its own entry block, so under churn that keeps every
    /// chunk's subtree alive nothing is appended to the node and entry
    /// arenas. A chunk that gains its first deeper key gets a fresh subtree;
    /// one that loses its last is unlinked, and its words become garbage.
    ///
    /// If this handle currently shares arenas with
    /// [snapshots](FrozenLpm::snapshot), they are un-shared first (one
    /// deep copy) so every snapshot keeps observing its own epoch.
    ///
    /// The root stride is fixed at freeze time and never changes here: a
    /// table that grows from below [`WIDE_ROOT_MIN`](crate::lpm) past it
    /// keeps its narrow root until the next full freeze. Lookups are
    /// correct either way; only the root fan-out differs.
    pub fn refreeze_subtree(&mut self, delta: &DeltaOverlay<V>) {
        if delta.patches.is_empty() {
            return;
        }
        let core = std::sync::Arc::make_mut(&mut self.core);
        for v4 in [true, false] {
            let patches = delta.family_patches(v4);
            if !patches.is_empty() {
                fold_family(core, patches, v4);
            }
        }
    }
}

/// Folds one family's sorted patches into `core`: the key list first, then
/// the compiled arrays along the patched paths.
fn fold_family<V: Clone>(core: &mut Core<V>, patches: &[Patch<V>], v4: bool) {
    let Core {
        nodes,
        entries,
        values,
        v4: family_v4,
        v6: family_v6,
        dead_values,
        dead_trie,
    } = core;
    let family = if v4 { family_v4 } else { family_v6 };
    merge_keys(family, values, dead_values, patches);
    if family.keys.is_empty() || family.root == NONE {
        *dead_trie = dead_trie.saturating_add(subtree_words(nodes, entries, family.root));
        family.rebuild_root(nodes, entries);
    } else {
        let mut fold = Fold {
            nodes,
            entries,
            dead: dead_trie,
            counts: &family.counts,
        };
        fold.node(family.root, family.view(), patches);
    }
}

/// Merges sorted patches into a family's sorted key list in place. Every
/// announce takes a fresh slot at the end of the value arena, and the slot
/// of a prefix it re-announces is left dead; a tombstone drops its key and
/// leaves its slot dead. The untouched runs of keys between the
/// dropped and inserted ones each move once: the runs that shift left in
/// ascending order, those that shift right in descending order, so no run
/// overwrites a key that has not moved yet; the inserted keys are written
/// into the gaps last. So every key after the first edit moves once, one
/// linear memmove of the list, and the list grows like any `Vec` when the
/// inserts outrun its capacity; no second buffer is allocated. The
/// per-length counts and the lengths derived from them move by the
/// patches' deltas. Every word of the root-chunk index (65 537 behind a
/// 16-bit root, none behind an 8-bit one) is rewritten, each moving by the
/// inserts less the drops in earlier chunks.
fn merge_keys<V: Clone>(
    family: &mut Family,
    values: &mut Vec<(IpNet, V)>,
    dead: &mut usize,
    patches: &[Patch<V>],
) {
    // Key-list edits in order: the old position each applies at, the key,
    // and whether it is inserted there (else the key at it is dropped).
    let mut edits: Vec<(usize, KeyRec, bool)> = Vec::new();
    for p in patches {
        let at = family.view().position(p.bits, p.len);
        let count = family.counts.get_mut(usize::from(p.len));
        match (at, &p.value) {
            (Ok(at), Some(v)) => {
                if let Some(key) = family.keys.get_mut(at) {
                    key.value = arena_idx(values.len());
                    values.push((p.net, v.clone()));
                    *dead = dead.saturating_add(1);
                }
            }
            (Ok(at), None) => {
                if let Some(key) = family.keys.get(at) {
                    edits.push((at, *key, false));
                }
                if let Some(c) = count {
                    *c = c.saturating_sub(1);
                }
                *dead = dead.saturating_add(1);
            }
            (Err(at), Some(v)) => {
                let key = KeyRec {
                    bits: p.bits,
                    len: p.len,
                    value: arena_idx(values.len()),
                };
                values.push((p.net, v.clone()));
                edits.push((at, key, true));
                if let Some(c) = count {
                    *c = c.saturating_add(1);
                }
            }
            (Err(_), None) => {}
        }
    }
    if edits.is_empty() {
        return;
    }

    // The untouched runs: `[from, to)` of the old list, shifted by `by`.
    let old_len = family.keys.len();
    let mut runs: Vec<(usize, usize, isize)> = Vec::with_capacity(edits.len().saturating_add(1));
    let (mut from, mut by) = (0usize, 0isize);
    for &(at, _, insert) in &edits {
        if at > from {
            runs.push((from, at, by));
        }
        if insert {
            by = by.saturating_add(1);
            from = from.max(at);
        } else {
            by = by.saturating_sub(1);
            from = at.saturating_add(1);
        }
    }
    runs.push((from, old_len, by));
    let new_len = old_len.saturating_add_signed(by);
    let filler = KeyRec {
        bits: 0,
        len: 0,
        value: NONE,
    };
    family.keys.resize(old_len.max(new_len), filler);
    let keys = &mut family.keys;
    let left = runs.iter().filter(|&&(from, to, by)| by < 0 && from < to);
    let right = runs
        .iter()
        .rev()
        .filter(|&&(from, to, by)| by > 0 && from < to);
    for &(from, to, by) in left.chain(right) {
        keys.copy_within(from..to, from.saturating_add_signed(by));
    }
    let mut by = 0isize;
    for &(at, key, insert) in &edits {
        if insert {
            if let Some(slot) = keys.get_mut(at.saturating_add_signed(by)) {
                *slot = key;
            }
            by = by.saturating_add(1);
        } else {
            by = by.saturating_sub(1);
        }
    }
    keys.truncate(new_len);

    // Each index word moves by the inserts less the drops in earlier
    // chunks: one constant per stretch of chunks between two edits.
    let shift = 128u32.saturating_sub(u32::from(family.stride));
    let (mut chunk, mut by) = (0usize, 0i32);
    for &(_, key, insert) in &edits {
        let next = chunk_of(key.bits, shift, family.stride).saturating_add(1);
        for start in family.starts.get_mut(chunk..next).unwrap_or_default() {
            *start = start.wrapping_add_signed(by);
        }
        chunk = chunk.max(next);
        by = if insert {
            by.saturating_add(1)
        } else {
            by.saturating_sub(1)
        };
    }
    for start in family.starts.get_mut(chunk..).unwrap_or_default() {
        *start = start.wrapping_add_signed(by);
    }
    family.derive_lens();
}

/// The arenas one family's fold rewrites, and the counts its probes skip
/// absent lengths by.
struct Fold<'a> {
    nodes: &'a mut Vec<Node>,
    entries: &'a mut Vec<Entry>,
    dead: &'a mut usize,
    counts: &'a [u32; 129],
}

impl Fold<'_> {
    /// Folds `patches` — sorted, under node `idx`'s prefix and no shorter
    /// than its base — into the node and the subtrees below it. `keys` are
    /// the merged keys under the node's prefix and longer than its base
    /// (the whole family, with its root-chunk index, at the root).
    ///
    /// A patch that ends in this node re-expands the entry range it spans.
    /// The deeper patches go chunk by chunk: into the chunk's existing
    /// child; into a fresh child when the chunk gained its first deeper key;
    /// or the child is unlinked when the chunk lost its last one.
    fn node<V>(&mut self, idx: u32, keys: KeyView<'_>, patches: &[Patch<V>]) {
        let Some(&Node {
            entries_off,
            base,
            stride,
            ..
        }) = self.nodes.get(idx as usize)
        else {
            return;
        };
        let limit = base.saturating_add(stride);
        let shift = 128u32.saturating_sub(u32::from(limit));
        let off = entries_off as usize;
        let mut at = 0usize;
        while let Some(p) = patches.get(at) {
            if p.len <= limit {
                self.reexpand(idx, off, (base, stride), keys, (p.bits, p.len));
                at = at.saturating_add(1);
                continue;
            }
            // This chunk's deeper patches, then its deeper keys: the keys
            // that end in this node sort first in the chunk's run.
            let chunk = chunk_of(p.bits, shift, stride);
            let rest = patches.get(at..).unwrap_or_default();
            let run = rest
                .iter()
                .take_while(|q| chunk_of(q.bits, shift, stride) == chunk)
                .count();
            let (_, chunk_keys) = keys.chunk(p.bits, limit);
            let deeper = chunk_keys
                .get(chunk_keys.partition_point(|k| k.len <= limit)..)
                .unwrap_or_default();
            let slot = off.saturating_add(chunk);
            let child = self.entries.get(slot).map_or(NONE, |e| e.child);
            let child = if deeper.is_empty() {
                *self.dead =
                    self.dead
                        .saturating_add(subtree_words(self.nodes, self.entries, child));
                NONE
            } else if child == NONE {
                build_node(self.nodes, self.entries, deeper, limit)
            } else {
                self.node(
                    child,
                    KeyView::plain(deeper),
                    rest.get(..run).unwrap_or_default(),
                );
                child
            };
            if let Some(entry) = self.entries.get_mut(slot) {
                entry.child = child;
            }
            at = at.saturating_add(run);
        }
    }

    /// Recomputes the in-node values a prefix `(bits, len)` that ends in
    /// node `idx` spans: its own value slot when it sits at the node's base,
    /// else its entry range. The range is reset to the most specific
    /// shorter in-node key that covers it (one probe per stored length),
    /// then the in-node keys inside it are replayed in sorted order,
    /// skipping each chunk's deeper keys.
    fn reexpand(
        &mut self,
        idx: u32,
        off: usize,
        (base, stride): (u8, u8),
        keys: KeyView<'_>,
        (bits, len): (u128, u8),
    ) {
        if len == base {
            let value = keys.find(bits, len).map_or(NONE, |k| k.value);
            if let Some(node) = self.nodes.get_mut(idx as usize) {
                node.value = value;
            }
            return;
        }
        let limit = base.saturating_add(stride);
        let cover = (base.saturating_add(1)..len)
            .rev()
            .filter(|&l| self.counts.get(usize::from(l)).is_some_and(|&c| c > 0))
            .find_map(|l| keys.find(mask_bits(bits, l), l))
            .map_or(NONE, |k| k.value);
        expand(self.entries, off, (limit, stride), (bits, len), cover);
        let last = bits | host_mask(len);
        let mut at = keys.lower_bound(bits, len);
        while let Some(key) = keys.keys.get(at) {
            if key.bits > last {
                break;
            }
            if key.len <= limit {
                expand(
                    self.entries,
                    off,
                    (limit, stride),
                    (key.bits, key.len),
                    key.value,
                );
                at = at.saturating_add(1);
            } else {
                let (lo, run) = keys.chunk(key.bits, limit);
                at = lo.saturating_add(run.len()).max(at.saturating_add(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn net(s: &str) -> IpNet {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn base() -> FrozenLpm<&'static str> {
        FrozenLpm::from_pairs([
            (net("0.0.0.0/0"), "default"),
            (net("17.0.0.0/8"), "apple8"),
            (net("17.5.0.0/16"), "apple16"),
            (net("2620:149::/32"), "apple6"),
        ])
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let b = base();
        let d: DeltaOverlay<&str> = DeltaOverlay::new();
        assert!(d.is_empty());
        let a = addr("17.5.1.2");
        assert_eq!(d.longest_match(&b, a), b.longest_match(a));
        assert_eq!(d.exact(&b, &net("17.0.0.0/8")), b.exact(&net("17.0.0.0/8")));
    }

    #[test]
    fn announce_is_visible_and_more_specific_wins() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("17.5.3.0/24"), "patched");
        let (n, v) = d.longest_match(&b, addr("17.5.3.9")).unwrap();
        assert_eq!((n, *v), (net("17.5.3.0/24"), "patched"));
        // Other addresses keep the base answer.
        let (n, _) = d.longest_match(&b, addr("17.5.4.9")).unwrap();
        assert_eq!(n, net("17.5.0.0/16"));
    }

    #[test]
    fn reannounce_shadows_base_value() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("17.5.0.0/16"), "new16");
        let (n, v) = d.longest_match(&b, addr("17.5.1.2")).unwrap();
        assert_eq!((n, *v), (net("17.5.0.0/16"), "new16"));
        assert_eq!(d.exact(&b, &net("17.5.0.0/16")), Some(&"new16"));
    }

    #[test]
    fn withdraw_tombstones_and_falls_back() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.withdraw(&net("17.5.0.0/16"), &b);
        assert_eq!(d.tombstones(), 1);
        assert!(d.is_tombstoned(&net("17.5.0.0/16")));
        let (n, v) = d.longest_match(&b, addr("17.5.1.2")).unwrap();
        assert_eq!((n, *v), (net("17.0.0.0/8"), "apple8"));
        assert_eq!(d.exact(&b, &net("17.5.0.0/16")), None);
        // longest_match_net also skips the tombstone.
        let (n, _) = d.longest_match_net(&b, &net("17.5.3.0/24")).unwrap();
        assert_eq!(n, net("17.0.0.0/8"));
    }

    #[test]
    fn withdraw_then_reannounce_restores() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.withdraw(&net("17.5.0.0/16"), &b);
        d.announce(net("17.5.0.0/16"), "back");
        assert_eq!(d.tombstones(), 0);
        let (n, v) = d.longest_match(&b, addr("17.5.1.2")).unwrap();
        assert_eq!((n, *v), (net("17.5.0.0/16"), "back"));
    }

    #[test]
    fn withdraw_of_overlay_only_announce_removes_patch() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("203.0.113.0/24"), "tmp");
        assert_eq!(d.len(), 1);
        d.withdraw(&net("203.0.113.0/24"), &b);
        assert!(d.is_empty());
        assert_eq!(
            d.longest_match(&b, addr("203.0.113.5")).map(|(n, _)| n),
            Some(net("0.0.0.0/0"))
        );
    }

    #[test]
    fn batch_matches_single_combined_lookups() {
        let b = base();
        let mut d = DeltaOverlay::new();
        d.announce(net("17.5.3.0/24"), "patched");
        d.withdraw(&net("17.0.0.0/8"), &b);
        let addrs: Vec<IpAddr> = ["17.5.3.9", "17.9.9.9", "17.5.1.2", "2620:149::1", "8.8.8.8"]
            .iter()
            .map(|s| addr(s))
            .collect();
        let mut out = Vec::new();
        d.lookup_batch_map_in(&b, &mut BatchScratch::new(), &addrs, &mut out, |m| m);
        assert_eq!(out.len(), addrs.len());
        for (a, got) in addrs.iter().zip(&out) {
            assert_eq!(*got, d.longest_match(&b, *a), "{a}");
        }
    }

    #[test]
    fn refreeze_subtree_matches_full_rebuild() {
        let mut t = BTreeMap::new();
        for i in 0..64u32 {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 16));
            t.insert(IpNet::V4(crate::prefix::Ipv4Net::clamped(a, 16)), i);
        }
        t.insert(net("0.0.0.0/0"), 999);
        let mut frozen = FrozenLpm::from_pairs(t.clone());
        let mut d = DeltaOverlay::new();
        // Mutate: withdraw one /16, announce a /24 inside another, replace
        // the default route, and add a v6 prefix to the empty family.
        d.withdraw(&net("10.3.0.0/16"), &frozen);
        d.announce(net("10.5.9.0/24"), 777);
        d.announce(net("0.0.0.0/0"), 1000);
        d.announce(net("2620:149::/32"), 6666);
        t.remove(&net("10.3.0.0/16"));
        t.insert(net("10.5.9.0/24"), 777);
        t.insert(net("0.0.0.0/0"), 1000);
        t.insert(net("2620:149::/32"), 6666);

        frozen.refreeze_subtree(&d);
        let full = FrozenLpm::from_pairs(t);
        assert_eq!(frozen.len(), full.len());
        assert!(frozen.garbage() > 0, "superseded slots become garbage");
        for a in ["10.3.1.2", "10.5.9.1", "10.5.8.1", "10.40.0.1", "8.8.8.8"] {
            let a = addr(a);
            assert_eq!(
                frozen.longest_match(a).map(|(n, v)| (n, *v)),
                full.longest_match(a).map(|(n, v)| (n, *v)),
                "{a}"
            );
        }
        assert_eq!(
            frozen.longest_match(addr("2620:149::1")).map(|(_, v)| *v),
            Some(6666)
        );
        let mut got: Vec<String> = frozen.iter().map(|(n, _)| n.to_string()).collect();
        got.sort();
        let mut want: Vec<String> = full.iter().map(|(n, _)| n.to_string()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn refreeze_unshares_outstanding_snapshots() {
        let mut live = FrozenLpm::from_pairs([(net("10.0.0.0/8"), 1), (net("10.5.0.0/16"), 2)]);
        let epoch0 = live.snapshot();
        assert!(live.is_shared());

        let mut d = DeltaOverlay::new();
        d.withdraw(&net("10.5.0.0/16"), &live);
        d.announce(net("10.6.0.0/16"), 3);
        live.refreeze_subtree(&d);

        // The snapshot still sees epoch 0...
        assert_eq!(
            epoch0.longest_match(addr("10.5.1.1")).map(|(_, v)| *v),
            Some(2)
        );
        assert!(epoch0.longest_match(addr("10.6.1.1")).map(|(_, v)| *v) == Some(1));
        // ...while the live table moved to epoch 1, now un-shared.
        assert_eq!(
            live.longest_match(addr("10.5.1.1")).map(|(_, v)| *v),
            Some(1)
        );
        assert_eq!(
            live.longest_match(addr("10.6.1.1")).map(|(_, v)| *v),
            Some(3)
        );
        assert!(!std::sync::Arc::ptr_eq(&live.core, &epoch0.core));
    }

    #[test]
    fn compaction_threshold_behaviour() {
        let d: DeltaOverlay<u8> = DeltaOverlay::new();
        assert!(!d.should_compact(0));
        let mut d = DeltaOverlay::new();
        for i in 0..MIN_COMPACT as u32 {
            let a = std::net::Ipv4Addr::from(0x0A00_0000 | (i << 8));
            d.announce(IpNet::V4(crate::prefix::Ipv4Net::clamped(a, 24)), 1u8);
        }
        // 64 patches vs a large base: not yet worth it.
        assert!(!d.should_compact(100_000));
        // 64 patches vs a small base: compact.
        assert!(d.should_compact(256));
    }
}
